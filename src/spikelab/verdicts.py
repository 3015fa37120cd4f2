"""Result types shared by the additive and multiplicative analytics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .measure import spike_multiplicity


@dataclass(frozen=True)
class SpikeVerdict:
    """Classification of one spike theta with its limiting observables.

    ``criterion_value`` is the classification criterion itself: H'(theta)
    for the additive model (outlier iff > 0), W(theta) for the
    multiplicative model (outlier iff < 1). ``rho`` (limiting outlier
    location) and ``tau`` (limiting squared eigenvector overlap) are
    present exactly when the spike is an outlier.
    """

    theta: float
    multiplicity: int
    is_outlier: bool
    rho: float | None
    tau: float | None
    criterion_value: float

    def __post_init__(self):
        object.__setattr__(self, "multiplicity", spike_multiplicity(self.multiplicity))
        has_limits = self.rho is not None and self.tau is not None
        if self.is_outlier != has_limits:
            raise SpecError("rho and tau must be present iff the spike is an outlier")


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
