"""Root finding: one vectorized bracketed Newton.

``newton`` solves many monotone problems ``f(u) = y`` at once, each in its own
bracket: a Newton step where it stays inside the bracket and at least halves the
previous step, bisection otherwise; free_additive starts its outlier-set ends where
Newton moves monotonically.  The scalar ``bisect`` is ``newton`` without
slopes.  It, ``creep_to_sign`` and ``march_to_sign`` (bracket hunting toward a
blow-up and outward) have no caller in the package; the traced benchmark run still
wraps them by name.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError

BRACKET_WIDTH = 1e-12
MAX_HALVINGS = 200
MARCH_GROWTH = 2.0
MAX_MARCH = 200
MAX_NEWTON = 200


def newton(f, x, lo, hi, rising, tol, y=0.0) -> np.ndarray:
    """Roots of ``f(u) = y`` in the brackets ``[lo, hi]``, elementwise, by bracketed Newton.

    ``f`` maps a 1-D array of points to ``(values, slopes)`` and is monotone on each bracket,
    increasing where ``rising``.  Each problem starts at ``x`` in its closed bracket; later
    points lie strictly inside, so an end where f blows up is never evaluated.  Each value
    moves one end of the bracket to its point.  A step that would leave the bracket or not
    halve the previous one (at first the bracket width), or is NaN, bisects instead.  A
    problem settles once its step is at most ``tol``; NumericalError after MAX_NEWTON steps.
    """
    x = np.array(x, dtype=float)
    lo0, hi0, tol, y, sign = (
        np.full(x.size, a, dtype=float) for a in (lo, hi, tol, y, np.where(rising, 1.0, -1.0))
    )
    u, lo, hi, last = x.copy(), lo0.copy(), hi0.copy(), hi0 - lo0
    active = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON):
            if not active.size:
                return x
            value, slope = f(u)
            r = value - y
            step = u - r / slope
            r *= sign
            np.copyto(lo, u, where=r <= 0.0)  # a root at u closes the bracket onto u
            np.copyto(hi, u, where=r >= 0.0)
            fast = (lo <= step) & (step <= hi) & ~(np.abs(r + r) > np.abs(last * slope))
            new = (lo + hi) * 0.5
            np.copyto(new, step, where=fast)
            np.copyto(new, u, where=~((lo0 < new) & (new < hi0)))
            last = np.abs(new - u)
            u = new
            if np.count_nonzero(keep := last > tol) < keep.size:
                x[active] = u
                active, u, lo, hi, lo0, hi0, last, tol, y, sign = (
                    a[keep] for a in (active, u, lo, hi, lo0, hi0, last, tol, y, sign)
                )
    raise NumericalError(f"bracketed Newton did not settle on {active.size} of {x.size} problems")


def bisect(f: Callable[[float], float], lo: float, hi: float, *,
           flo: float | None = None, fhi: float | None = None) -> float:
    """Root of f in [lo, hi] to bracket width BRACKET_WIDTH: ``newton`` with no slopes.

    Requires a sign change over the bracket; raises NumericalError otherwise.
    """
    if not lo < hi:
        raise NumericalError(f"empty bracket [{lo}, {hi}]")
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NumericalError(f"no sign change over [{lo}, {hi}]")
    return float(newton(lambda u: (np.array([f(float(u[0]))]), np.nan),
                        [0.5 * (lo + hi)], lo, hi, fhi > 0.0, 0.5 * BRACKET_WIDTH)[0])


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
