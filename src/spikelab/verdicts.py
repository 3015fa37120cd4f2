"""Result types shared by the additive and multiplicative analytics."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecError

# Endpoints of adjacent support components closer than this are fused.
_TOUCH_TOL = 1e-12


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
        if self.multiplicity < 1:
            raise SpecError("spike multiplicity must be a positive integer")
        has_limits = self.rho is not None and self.tau is not None
        if self.is_outlier != has_limits:
            raise SpecError("rho and tau must be present iff the spike is an outlier")
        if self.tau is not None and not (0.0 < self.tau <= 1.0):
            raise SpecError(f"tau={self.tau!r} is outside (0, 1]")


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

    def edges(self) -> list[float]:
        out: list[float] = []
        for lo, hi in self.intervals:
            out.extend((lo, hi))
        return out

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def distance_to_edge(self, x: float) -> float:
        edges = self.edges()
        if not edges:
            return float("inf")
        return min(abs(x - e) for e in edges)


def uncovered(images) -> list[tuple[float, float]]:
    """Sorted gaps of the real line between the (lo, hi) intervals ``images``.

    Images that overlap or come within 1e-12 of each other are merged first,
    and gaps no wider than that are dropped.  Both model families find their
    support as what their outlier-set images leave uncovered.
    """
    merged: list[list[float]] = []
    for lo, hi in sorted(images):
        if merged and lo <= merged[-1][1] + _TOUCH_TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(a[1], b[0]) for a, b in zip(merged, merged[1:]) if b[0] - a[1] > _TOUCH_TOL]
