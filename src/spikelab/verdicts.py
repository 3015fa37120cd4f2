"""Result types of the additive and multiplicative analytics: what each family computed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecError


@dataclass(frozen=True)
class SpikeVerdict:
    """Classification of one spike theta with its limiting observables.

    ``criterion_value`` is the classification criterion itself: H'(theta)
    for the additive model (outlier iff > 0), W(theta) for the
    multiplicative model (outlier iff < 1). ``rho`` (limiting outlier
    location) and ``tau`` (limiting squared eigenvector overlap) are both
    set for an outlier and both None for a spike that sticks.
    """

    theta: float
    rho: float | None
    tau: float | None
    criterion_value: float

    @property
    def is_outlier(self) -> bool:
        return self.rho is not None


@dataclass(frozen=True)
class SupportIntervals:
    """Closed, disjoint, sorted intervals making up a spectral support."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivals = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivals)
        for lo, hi in ivals:
            if not lo <= hi:
                raise SpecError(f"support interval [{lo}, {hi}] is inverted")
        for (_, hi), (lo, _) in zip(ivals, ivals[1:]):
            if not hi < lo:
                raise SpecError("support intervals must be disjoint and sorted")

    def signed_distance(self, xs) -> np.ndarray:
        """Distance of each point of ``xs`` to the nearest edge, negated on the support: where
        an odd number of edges lie at or below it, so an upper edge reads +0.0.  No edge, +inf."""
        xs, edges = np.asarray(xs, dtype=float), np.ravel(self.intervals)
        dist = np.abs(xs[..., None] - edges).min(axis=-1, initial=np.inf)
        return np.where(np.searchsorted(edges, xs, side="right") % 2 == 1, -dist, dist)
