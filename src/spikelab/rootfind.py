"""Bracketed bisection and bracket-hunting helpers.

Bisection only, no Newton: the per-gap concavity/convexity of the
classification criteria gives guaranteed brackets, and bisection is
unconditionally convergent. The two hunting helpers locate bracket
endpoints next to blow-up boundaries (geometric creep toward an atom)
and in unbounded gaps (geometric march outward).
"""

from __future__ import annotations

from typing import Callable

from .errors import NumericalError

BRACKET_WIDTH = 1e-12
MAX_BISECT = 200
MAX_HALVINGS = 200
MARCH_GROWTH = 2.0
MAX_MARCH = 200


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    flo: float | None = None,
    fhi: float | None = None,
) -> float:
    """Root of f in [lo, hi] by bisection to bracket width BRACKET_WIDTH.

    Requires a sign change over the bracket; raises NumericalError
    otherwise. Hard-capped at MAX_BISECT halvings.
    """
    if not lo < hi:
        raise NumericalError(f"empty bracket [{lo}, {hi}]")
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NumericalError(f"no sign change over [{lo}, {hi}]")
    for _ in range(MAX_BISECT):
        if hi - lo <= BRACKET_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # bracket at float resolution
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def creep_to_sign(
    f: Callable[[float], float],
    boundary: float,
    interior: float,
    sign: int,
) -> float:
    """Point between ``boundary`` and ``interior`` where sign(f) == sign.

    Walks x_k = boundary + (interior - boundary) / 2^k, k = 0, 1, ...
    Intended for boundaries where f blows up with the requested sign, so
    the walk is guaranteed to terminate; raises NumericalError if the
    step underflows first or after MAX_HALVINGS halvings.
    """
    offset = interior - boundary
    for _ in range(MAX_HALVINGS):
        x = boundary + offset
        if x == boundary or x == interior and offset != interior - boundary:
            break
        val = f(x)
        if (val > 0.0 and sign > 0) or (val < 0.0 and sign < 0):
            return x
        offset *= 0.5
    raise NumericalError(
        f"no point of sign {sign} found approaching {boundary} from {interior}"
    )


def march_to_sign(
    f: Callable[[float], float],
    start: float,
    step: float,
    sign: int,
) -> float:
    """Point start + step * MARCH_GROWTH^k where sign(f) == sign.

    ``step`` may be negative to march left. ``start`` itself is never
    evaluated. Raises NumericalError if the sign does not show up within
    MAX_MARCH steps.
    """
    offset = step
    for _ in range(MAX_MARCH):
        x = start + offset
        val = f(x)
        if (val > 0.0 and sign > 0) or (val < 0.0 and sign < 0):
            return x
        offset *= MARCH_GROWTH
    raise NumericalError(f"no point of sign {sign} found marching from {start}")
