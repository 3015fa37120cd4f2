"""Atomic probability measures on the real line.

A measure nu = sum_i w_i delta_{t_i} carries the limiting bulk law of a
deformation as well as empirical spectral measures. Everything downstream
(subordination maps, outlier sets, supports) reduces to finite sums
against nu, so atoms are the only representation supported.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import SpecError

# Locations closer than this are considered the same atom; each family also keeps a
# spike this far from every atom of nu.
MERGE_TOL = 1e-12

# Weight sums within this slack of 1 are renormalized, anything worse
# is rejected as genuinely unnormalized input.
WEIGHT_SLACK = 1e-9


def real_number(value, name: str, positive: bool = False) -> float:
    """``value`` as a float if it is a finite real number, not a bool, str or None, and > 0
    where ``positive``; anything else is a SpecError naming ``name``."""
    # type() first: an isinstance check against numbers.Real takes about half a microsecond.
    fast = type(value) in (float, int, np.float64)
    if not fast and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise SpecError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the largest float
        number = math.inf
    if not math.isfinite(number):
        raise SpecError(f"{name} must be finite")
    if positive and not number > 0.0:
        raise SpecError(f"{name} must be a positive number, got {value!r}")
    return number


def positive_int(value, name: str) -> int:
    """``value`` if it is an int >= 1 and not a bool; anything else is a SpecError naming it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SpecError(f"{name} must be a positive integer, got {value!r}")
    return value


def spike_multiplicity(value) -> int:
    """``value`` as an int if it is an integer >= 1, or a float with such a value (as JSON
    writes 1.0); anything else, a bool, str or None included, is a SpecError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return positive_int(value, "spike multiplicity")


@dataclass(frozen=True)
class AtomicMeasure:
    """Compactly supported probability measure given by weighted atoms.

    ``atoms`` is a tuple of (location, weight) pairs with strictly
    increasing locations, strictly positive weights, and total mass one.
    Construction sorts, merges near-duplicate locations (weights summed,
    location averaged by weight), and renormalizes weight sums that are
    within 1e-9 of one.  ``locations`` and ``weights`` are the atoms as two
    read-only arrays, built on first use and shared by every later reader.
    """

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms: Iterable[Sequence[float]]):
        name = "atom locations and weights"
        try:
            pairs = [(real_number(t, name), real_number(w, name)) for t, w in atoms]
        except (TypeError, ValueError):
            raise SpecError(f"atoms must be (location, weight) pairs, got {atoms!r}") from None
        if not pairs:
            raise SpecError("a measure needs at least one atom")
        for t, w in pairs:
            if w <= 0.0:
                raise SpecError(f"atom weight {w!r} is not strictly positive")
        pairs.sort()
        merged: list[list[float]] = [list(pairs[0])]
        for t, w in pairs[1:]:
            if t - merged[-1][0] <= MERGE_TOL:
                total = merged[-1][1] + w
                merged[-1][0] = (merged[-1][0] * merged[-1][1] + t * w) / total
                merged[-1][1] = total
            else:
                merged.append([t, w])
        total = sum(w for _, w in merged)
        if abs(total - 1.0) > WEIGHT_SLACK:
            raise SpecError(f"atom weights sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(
            self, "atoms", tuple((t, w / total) for t, w in merged)
        )

    @cached_property
    def locations(self) -> np.ndarray:
        return _read_only([t for t, _ in self.atoms])

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only([w for _, w in self.atoms])

    def weight_at(self, x: float) -> float:
        """Mass of the atom within MERGE_TOL of x, or 0.0 if there is none."""
        for t, w in self.atoms:
            if abs(t - x) <= MERGE_TOL:
                return w
        return 0.0

    def distance_to_support(self, x: float) -> float:
        return float(np.abs(x - self.locations).min())

    @classmethod
    def from_dict(cls, data: dict) -> "AtomicMeasure":
        if not isinstance(data, dict) or "atoms" not in data:
            raise SpecError('a measure spec must be an object with an "atoms" list')
        if unknown := sorted(set(data) - {"atoms"}):
            raise SpecError(f"unknown measure keys: {', '.join(unknown)}")
        return cls(data["atoms"])


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.flags.writeable = False
    return array


def quantile_discretize(nu: AtomicMeasure, m: int) -> list[float]:
    """m deterministic quantiles of nu at levels (i - 1/2)/m, i = 1..m.

    Uses the left-continuous quantile Q(p) = inf{x : F(x) >= p}. The
    output is sorted, lies in the convex hull of the support, and its
    empirical measure converges weakly to nu as m grows.
    """
    m = positive_int(m, "quantile count")
    locs = nu.locations
    cdf = np.cumsum(nu.weights)
    cdf[-1] = 1.0
    levels = (np.arange(1, m + 1) - 0.5) / m
    # The 1e-12 inset absorbs roundoff in the cumulative sums so levels
    # that should hit a CDF step exactly do not slip past it.
    idx = np.searchsorted(cdf, levels - 1e-12, side="left")
    return [float(x) for x in locs[idx]]
