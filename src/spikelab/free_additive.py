"""Additively deformed Wigner model: spike classification and bulk analytics.

The limiting spectrum of ``A + W`` (``A`` with atomic limit ``nu``, ``W`` a
Wigner matrix of variance ``sigma2``) is the free additive convolution of
``nu`` with a semicircle law.  Everything here is phrased through the map

    H(u) = u + sigma2 * g_nu(u)

whose restriction to each component of the outlier set is the inverse of the
subordination function.  A spike ``theta`` produces an outlier exactly when
``H'(theta) > 0``, in which case the outlier sits at ``rho = H(theta)`` and
the squared eigenvector overlap converges to ``tau = H'(theta)``; classify_spike
evaluates both at the spike, over one array of distances ``theta - t_j``.

The density is ``-Im g_nu(omega) / pi`` with ``omega(z)`` the subordination
function, the root of ``H(omega) = z`` above z.  One solve serves every z with
``Im z = eps >= 0``, exact on the real axis (Biane 1997): ``omega = u + i v(u)``
with ``v^2`` the root of ``sum w/((u - t)^2 + v^2) + eps/(sigma2 v) = 1/sigma2``
and u the root of an increasing map ``psi(u) = Re z`` within sigma of Re z.  At
eps = 0 the density on the support is ``v / (pi sigma2)``.

The sample-covariance model reuses all of this: its criterion ``W(theta) < 1``
is ``H'(theta) > 0`` for the size-biased measure ``nu~`` (see
free_multiplicative), so one outlier-set routine, one support routine and one
subordination solver serve both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SpecError
from .measure import MERGE_TOL, AtomicMeasure, real_number
# Not called here: a traced run patches these names on every theory module.
from .rootfind import bisect, creep_to_sign, march_to_sign  # noqa: F401
from .rootfind import newton
from .verdicts import SpikeVerdict, SupportIntervals

# H'(theta) within this of zero counts as sticking, not an outlier.
BOUNDARY_TOL = 1e-12
# A support interval or gap no wider than this is dropped: its two edges touch.
_TOUCH_TOL = 1e-12

# Off the real axis, |omega + sigma2 g_nu(omega) - z| must not exceed this times 1 + |z|.
RESIDUAL_TOL = 1e-12
# Newton stops once its step falls below this fraction of the scale of its unknown.
_STEP_RTOL = 1e-15
# The v^2 loop is cut after this many steps; only a defect in the solver reaches it.
_MAX_STEPS = 200


@dataclass(frozen=True)
class AdditiveContext:
    """Atomic limit ``nu`` plus noise variance ``sigma2``."""

    nu: AtomicMeasure
    sigma2: float

    def __post_init__(self):
        if not isinstance(self.nu, AtomicMeasure):
            raise SpecError("nu must be an AtomicMeasure")
        object.__setattr__(self, "sigma2", real_number(self.sigma2, "sigma2", positive=True))

    def _offsets(self, theta: float) -> np.ndarray:
        """``theta - t`` over the atoms of nu; a DomainError where theta is within MERGE_TOL of one."""
        d = theta - self.nu.locations
        if float(np.abs(d).min()) <= MERGE_TOL:
            raise DomainError(f"theta={theta!r} lies within {MERGE_TOL} of an atom of nu")
        return d


def classify_spike(ctx: AdditiveContext, theta: float) -> SpikeVerdict:
    """Decide from theta alone whether the spike separates from the bulk: ``H'(theta) > 0``.

    Raises DomainError when ``theta`` is within MERGE_TOL of an atom of ``nu``; the model
    would merge the spike into the bulk block and nothing spectral distinguishes it.
    """
    theta = real_number(theta, "theta")
    d = ctx._offsets(theta)
    with np.errstate(over="ignore"):  # a square that overflows is inf, and its term 0
        hp = 1.0 - ctx.sigma2 * float((ctx.nu.weights / d**2).sum())
    if hp > BOUNDARY_TOL:
        rho = theta + ctx.sigma2 * float((ctx.nu.weights / d).sum())
        return SpikeVerdict(theta, rho, hp, criterion_value=hp)
    return SpikeVerdict(theta, None, None, criterion_value=hp)


def outlier_set_intervals(ctx: AdditiveContext) -> list[tuple[float, float]]:
    """Maximal open intervals where ``H' > 0``, one or zero per gap of ``nu``.

    ``H'`` is strictly concave on each gap.  On a bounded gap ``(t_l, t_r)`` of length L, its
    two atoms alone give ``H' <= 1 - sigma2 (w_l^(1/3) + w_r^(1/3))^3 / L^2``: a gap where
    that is <= 0 is dropped unsolved.  On the rest the peak of ``H'`` is the root of ``H''``,
    and a gap counts iff ``H'(peak) > BOUNDARY_TOL``.  The unbounded gaps always count (``H'
    -> 1``), and as ``H' >= 0`` where all atoms are at least sigma away, their ends lie in
    ``[t_1 - sigma, t_1)`` and ``(t_k, t_k + sigma]``.  Ends solve ``F(u)^(-1/2) = sigma``,
    ``F = sum w / (u - t)^2``, as ``(sigma2 F)^(-1/2) = 1`` so that sigma is not rounded.
    ``F^(-1/2)`` is concave on each gap and at most ``|u - t| / sqrt(w)``, its value for the
    atom t alone; so Newton from the lone-atom bound ``t -+ sigma sqrt(w)`` of the atom beside
    an end (the far end where that rounds onto the atom) moves monotonically to it.
    """
    t, w, s2 = ctx.nu.locations, ctx.nu.weights, ctx.sigma2
    sigma = math.sqrt(s2)
    reach = max(sigma, np.spacing(np.abs(t).max()))  # so that t_1 - reach < t_1

    def hpp(u):
        r = 1.0 / (u[:, None] - t)
        return 2.0 * s2 * ((r * r * r) @ w), -6.0 * s2 * ((r * r * r * r) @ w)

    def phi(u):
        r = 1.0 / (u[:, None] - t)
        p = 1.0 / np.sqrt(s2 * ((r * r) @ w))
        return p, s2 * p * p * p * ((r * r * r) @ w)

    cube = np.cbrt(w)
    with np.errstate(over="ignore"):  # an overflowing bound is inf and drops its gap
        gap, peak = (s2 * (cube[:-1] + cube[1:]) ** 3 < (t[1:] - t[:-1]) ** 2).nonzero()[0], np.empty(0)
    if gap.size:
        tl, tr, cl, cr = t[gap], t[gap + 1], cube[gap], cube[gap + 1]
        # Start at the peak of the two-atom bound, or mid-gap where that rounds onto an atom.
        start = tl + (tr - tl) * cl / (cl + cr)
        start = np.where((tl < start) & (start < tr), start, 0.5 * (tl + tr))
        peak = newton(hpp, start, tl, tr, False, _STEP_RTOL * (np.abs(tl) + np.abs(tr)))
        r = 1.0 / (peak[:, None] - t)
        up = 1.0 - s2 * ((r * r) @ w) > BOUNDARY_TOL
        gap, peak = gap[up], peak[up]

    # Ends 0, 2, ... fall toward the atom j above, ends 1, 3, ... rise from the atom j below.
    m = 2 * gap.size + 2
    j, side, lo, hi = np.empty(m, dtype=int), np.ones(m), np.empty(m), np.empty(m)
    j[0], j[1:-1:2], j[2::2], j[-1] = 0, gap, gap + 1, t.size - 1
    side[0::2] = -1.0
    lo[0], lo[1::2], lo[2::2] = t[0] - reach, t[j[1::2]], peak
    hi[0::2], hi[1:-1:2], hi[-1] = t[j[0::2]], peak, t[-1] + reach
    start = t[j] + side * sigma * np.sqrt(w[j])
    start = np.where((lo < start) & (start < hi), start, np.where(side > 0.0, hi, lo))
    ends = newton(phi, start, lo, hi, side > 0.0, _STEP_RTOL * (np.abs(lo) + np.abs(hi)), 1.0)
    ends = [-math.inf, *ends.tolist(), math.inf]
    return list(zip(ends[::2], ends[1::2]))


def _support_pairs(ctx: AdditiveContext, edge) -> list[tuple[float, float]]:
    """The images under ``edge`` of the finite outlier-set ends, paired consecutively, where wider
    than _TOUCH_TOL.  ``edge`` (H, or Z(1/u) for a Wishart model) maps each outlier interval onto a
    gap of the limit in order, so support interval i lies between the images of ends 2i + 1, 2i + 2.
    A gap imaged no wider than _TOUCH_TOL (or reversed by rounding) first loses both ends: it closes."""
    e = edge(np.array(outlier_set_intervals(ctx)).ravel()[1:-1])
    e = e[np.r_[True, np.repeat(e[2::2] > e[1:-1:2] + _TOUCH_TOL, 2), True]].tolist()
    return [(lo, hi) for lo, hi in zip(e[::2], e[1::2]) if hi > lo + _TOUCH_TOL]


def support(ctx: AdditiveContext) -> SupportIntervals:
    """Support of the deformed limit: between the H-images of consecutive outlier-set ends."""
    t, w, s2 = ctx.nu.locations, ctx.nu.weights, ctx.sigma2
    pairs = _support_pairs(ctx, lambda u: u + s2 * (w / (u[:, None] - t)).sum(axis=1))
    return SupportIntervals(tuple(pairs))


def _v_squared(w: np.ndarray, s2: float, d2: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """``v^2`` for each row of squared distances ``d2 = (u - t_j)^2``, from ``Im H(u + i v) = eps``.

    With s = v^2 that reads ``F + e = 1/sigma2``, ``F = sum w/(d2 + s)``, ``e = eps/(sigma2 v)``;
    at eps = 0, v = 0 where ``sum w/d2 <= 1/sigma2`` (Biane 1997).  ``1/(F + e)``, the parallel
    sum of ``(d2 + s)/w`` and ``sigma2 v/eps``, is concave and increasing in s, so Newton on it
    rises monotonically from the left starts ``max_j (w_j sigma2 - d2_j)``, and for eps > 0 ``eps^2``
    and ``y^2`` with ``sigma2 G0 y^3 + (1 - sigma2 F0) y <= eps`` (F >= F0 - G0 s)."""
    s = np.maximum(np.max(w * s2 - d2, axis=1), 0.0)
    above = eps > 0.0
    F0 = (w / d2).sum(axis=1)
    if tilted := above.any():
        gap, G0 = 1.0 - s2 * F0, (w / (d2 * d2)).sum(axis=1)
        y = np.fmin(np.where(gap > 0.0, eps / (gap + gap), np.inf), np.cbrt(eps / (2.0 * s2 * G0)))
        y = np.fmax(np.sqrt(-gap / (s2 * G0)), y)  # the root is NaN where gap > 0 or u is an atom
        s = np.where(above, np.fmax(s, np.fmax(eps * eps, y * y)), s)
    active = np.flatnonzero((F0 > 1.0 / s2) | above)
    for _ in range(_MAX_STEPS):
        if not active.size:
            return s
        sa = s[active]
        q = 1.0 / (d2[active] + sa[:, None])
        F, G = q @ w, (q * q) @ w
        if tilted:  # F + e and G + e/(2s), the slope of F + e in -s; e = 0 where s = 0
            e = np.divide(eps[active], s2 * np.sqrt(sa), out=np.zeros(sa.size), where=sa > 0.0)
            F, G = F + e, G + np.divide(e, sa + sa, out=np.zeros(sa.size), where=sa > 0.0)
        step = F * (s2 * F - 1.0) / G
        s[active] += np.maximum(step, 0.0)
        active = active[step > _STEP_RTOL * s[active]]
    raise NumericalError("the Newton solve for v^2 did not settle")


def _psi(ctx: AdditiveContext, u: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``psi(u) = Re H(u + i v(u))`` at ``Im z = eps`` and its slope ``2 sigma2 v^2 G + eps/v
    + 2 sigma2 A^2/G_eps > 0`` where v > 0, ``G_eps = G + e/(2 v^2)`` the slope of F + e in -v^2."""
    w, s2 = ctx.nu.weights, ctx.sigma2
    d = u[:, None] - ctx.nu.locations
    d2 = d * d
    s = _v_squared(w, s2, d2, eps)
    q = 1.0 / (d2 + s[:, None])
    F = q @ w
    psi = u + s2 * ((q * d) @ w)
    # v = 0 and psi = H off the support at eps = 0; else v^2 moves with u by -2A/G_eps.
    q2 = q * q
    A, B, G = (q2 * d) @ w, (q2 * d2) @ w, q2 @ w
    G = G + np.divide(eps, 2.0 * s2 * s * np.sqrt(s), out=np.zeros(s.size), where=s > 0.0)
    slope = np.where(s > 0.0, 1.0 + s2 * (F - 2.0 * B + 2.0 * A * A / G), 1.0 - s2 * F)
    return psi, slope


def subordination(ctx: AdditiveContext, zs) -> np.ndarray:
    """Subordination function ``omega(z)``, the root of ``omega + sigma2 g_nu(omega) = z``.

    ``zs`` is flat, finite (else SpecError) and has ``Im z = eps >= 0`` (else DomainError).
    ``omega = u + i v`` with ``v^2`` from _v_squared and u the root of the increasing ``psi(u)
    = Re z`` (_psi), within sigma of Re z by Cauchy-Schwarz; bracketed Newton finds it there.
    A non-finite omega, or above the axis a residual not within ``RESIDUAL_TOL (1 + |z|)``,
    is a NumericalError naming sigma2 and the first such z, so the solve runs silent.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    if (bad := np.flatnonzero(~np.isfinite(zs))).size:
        raise SpecError(f"point {bad[0]} is {complex(zs[bad[0]])!r}, not a finite number")
    if (bad := np.flatnonzero(zs.imag < 0.0)).size:
        raise DomainError(f"point {bad[0]} is {complex(zs[bad[0]])!r}, below the real axis")
    sigma, t, w = math.sqrt(ctx.sigma2), ctx.nu.locations, ctx.nu.weights
    xs, eps = zs.real, zs.imag
    settled = _STEP_RTOL * (np.abs(xs) + sigma)
    with np.errstate(all="ignore"):  # 1/d2 is inf at an atom, v^3 underflows at eps < 1e-100
        u = newton(lambda u, e: _psi(ctx, u, e), xs, xs - sigma, xs + sigma, True, settled, xs, (eps,))
        omega = u + 1j * np.sqrt(_v_squared(w, ctx.sigma2, (u[:, None] - t) ** 2, eps))
        residual, above = np.zeros(zs.size), eps > 0.0
        om = omega[above]
        residual[above] = np.abs(om + ctx.sigma2 * (1.0 / (om[:, None] - t) @ w) - zs[above])
    fails = ~np.isfinite(omega) | ~(residual <= RESIDUAL_TOL * (1.0 + np.abs(zs)))  # so NaN fails
    if fails.any():
        i = int(np.argmax(fails))
        z, om = complex(zs[i]), complex(omega[i])
        found = f"residual {residual[i]:.3e}" if np.isfinite(om) else f"omega={om!r}"
        raise NumericalError(f"subordination at sigma2={ctx.sigma2!r} fails at z={z!r}: {found}")
    return omega


def _grid(grid, eps: float) -> np.ndarray:
    """The grid as a flat array of finite floats, once eps is checked; both families start here."""
    if not (math.isfinite(eps) and eps >= 0.0):
        raise SpecError(f"eps must be a finite non-negative number, got {eps!r}")
    xs = np.asarray(grid, dtype=float).ravel()
    if (bad := np.flatnonzero(~np.isfinite(xs))).size:
        raise SpecError(f"grid point {bad[0]} is {float(xs[bad[0]])!r}, not a finite number")
    return xs


def density(ctx: AdditiveContext, grid, eps: float = 0.0) -> np.ndarray:
    """Density ``-Im g(x + i*eps) / pi = (Im omega / pi) sum w / |omega - t|^2`` on a real grid.

    One float64 per point of the flattened grid; at the default eps = 0, ``v / (pi sigma2)``.
    The sum divides by ``|omega - t|`` twice, so that no square of a large x overflows.
    """
    xs = _grid(grid, eps)
    omega = subordination(ctx, xs + 1j * eps)
    t, w = ctx.nu.locations, ctx.nu.weights
    a = np.abs(omega[:, None] - t)
    return omega.imag / math.pi * (w / a / a).sum(axis=1)
