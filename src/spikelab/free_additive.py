"""Additively deformed Wigner model: spike classification and bulk analytics.

The limiting spectrum of ``A + W`` (``A`` with atomic limit ``nu``, ``W`` a
Wigner matrix of variance ``sigma2``) is the free additive convolution of
``nu`` with a semicircle law.  Everything here is phrased through the map

    H(u) = u + sigma2 * g_nu(u)

whose restriction to each component of the outlier set is the inverse of the
subordination function.  A spike ``theta`` produces an outlier exactly when
``H'(theta) > 0``, in which case the outlier sits at ``rho = H(theta)`` and
the squared eigenvector overlap converges to ``tau = H'(theta)``.

The density is ``-Im g_nu(omega) / pi`` with ``omega(z)`` the subordination
function, the root of ``H(omega) = z`` above z.  On the real axis it is exact
(Biane 1997): ``omega(x) = u + i v(u)`` with u the root of an increasing map
``psi(u) = x`` within sigma of x, and on the support the density is
``v / (pi sigma2)``.  Above the axis, Newton starts from ``omega(Re z) + i Im z``.

The sample-covariance model reuses all of this: its criterion ``W(theta) < 1``
is ``H'(theta) > 0`` for the size-biased measure ``nu~`` (see
free_multiplicative), so one outlier-set routine and one subordination solver
serve both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, SpecError
from .measure import MERGE_TOL, AtomicMeasure
# Not called here: a traced run patches these names on every theory module.
from .rootfind import bisect, creep_to_sign, march_to_sign  # noqa: F401
from .rootfind import newton
from .verdicts import SpikeVerdict, SupportIntervals, uncovered

# H'(theta) within this of zero counts as sticking, not an outlier.
BOUNDARY_TOL = 1e-12

# Off the real axis, |omega + sigma2 g_nu(omega) - z| must not exceed this times 1 + |z|.
RESIDUAL_TOL = 1e-12
# Newton stops once its step falls below this fraction of the scale of its unknown.
_STEP_RTOL = 1e-15
# Each Newton loop is cut after this many steps; only a defect in the solver reaches it.
_MAX_STEPS = 200


@dataclass(frozen=True)
class AdditiveContext:
    """Atomic limit ``nu`` plus noise variance ``sigma2``."""

    nu: AtomicMeasure
    sigma2: float
    _locs: np.ndarray = field(init=False, repr=False, compare=False)
    _wts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.nu, AtomicMeasure):
            raise SpecError("nu must be an AtomicMeasure")
        s2 = float(self.sigma2)
        if not math.isfinite(s2) or s2 <= 0.0:
            raise SpecError(f"sigma2 must be a finite positive number, got {self.sigma2!r}")
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "_locs", self.nu.locations)
        object.__setattr__(self, "_wts", self.nu.weights)


def _require_off_atoms(ctx: AdditiveContext, u: float) -> None:
    gap = float(np.min(np.abs(u - ctx._locs)))
    if gap <= MERGE_TOL:
        raise DomainError(f"u={u!r} lies within {MERGE_TOL} of an atom of nu")


def H(ctx: AdditiveContext, u: float) -> float:
    """Outlier-location map ``u + sigma2 * sum w_j / (u - t_j)``."""
    u = float(u)
    _require_off_atoms(ctx, u)
    return u + ctx.sigma2 * float(np.sum(ctx._wts / (u - ctx._locs)))


def H_prime(ctx: AdditiveContext, u: float) -> float:
    """Derivative ``1 - sigma2 * sum w_j / (u - t_j)^2``; also the overlap tau."""
    u = float(u)
    _require_off_atoms(ctx, u)
    return 1.0 - ctx.sigma2 * float(np.sum(ctx._wts / (u - ctx._locs) ** 2))


def classify_spike(ctx: AdditiveContext, theta: float, multiplicity: int = 1) -> SpikeVerdict:
    """Decide whether the spike separates from the bulk.

    Raises DomainError when ``theta`` collides with an atom of ``nu``; the
    model would merge the spike into the bulk block and nothing spectral
    distinguishes it.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise SpecError(f"theta must be finite, got {theta!r}")
    hp = H_prime(ctx, theta)
    if hp > BOUNDARY_TOL:
        return SpikeVerdict(
            theta=theta,
            multiplicity=multiplicity,
            is_outlier=True,
            rho=H(ctx, theta),
            tau=hp,
            criterion_value=hp,
        )
    return SpikeVerdict(
        theta=theta,
        multiplicity=multiplicity,
        is_outlier=False,
        rho=None,
        tau=None,
        criterion_value=hp,
    )


def outlier_set_intervals(ctx: AdditiveContext) -> list[tuple[float, float]]:
    """Maximal open intervals where ``H' > 0``, one or zero per gap of ``nu``.

    ``H'`` is strictly concave on each gap.  On a bounded gap ``(t_l, t_r)`` of length L, its
    two atoms alone give ``H' <= 1 - sigma2 (w_l^(1/3) + w_r^(1/3))^3 / L^2``: a gap where
    that is <= 0 is dropped unsolved.  On the rest the peak of ``H'`` is the root of ``H''``,
    and a gap counts iff ``H'(peak) > BOUNDARY_TOL``; its ends are the roots of ``H'`` on
    either side.  The unbounded gaps always count (``H' -> 1``), and as ``H' >= 0`` where
    all atoms are at least sigma away, their ends lie in ``[t_1 - sigma, t_1)`` and ``(t_k,
    t_k + sigma]``.  Each of the two solves is one bracketed Newton over all gaps.
    """
    t, w, s2 = ctx._locs, ctx._wts, ctx.sigma2
    sigma = max(math.sqrt(s2), np.spacing(np.abs(t).max()))  # so that t_1 - sigma < t_1

    def hp(u):
        r = 1.0 / (u[:, None] - t)
        return 1.0 - s2 * ((r * r) @ w), 2.0 * s2 * ((r * r * r) @ w)

    def hpp(u):
        r = 1.0 / (u[:, None] - t)
        return 2.0 * s2 * ((r * r * r) @ w), -6.0 * s2 * ((r * r * r * r) @ w)

    cube = np.cbrt(w)
    kept = s2 * (cube[:-1] + cube[1:]) ** 3 < np.diff(t) ** 2
    tl, tr, cl, cr = t[:-1][kept], t[1:][kept], cube[:-1][kept], cube[1:][kept]
    # Start at the peak of the two-atom bound, or mid-gap where that rounds onto an atom.
    start = tl + (tr - tl) * cl / (cl + cr)
    start = np.where((tl < start) & (start < tr), start, 0.5 * (tl + tr))
    peak = newton(hpp, start, tl, tr, False, _STEP_RTOL * (np.abs(tl) + np.abs(tr)))
    up = hp(peak)[0] > BOUNDARY_TOL
    tl, tr, peak = tl[up], tr[up], peak[up]

    # One root of H' per interval end, in order: beside each peak and in the unbounded gaps.
    lo = np.concatenate(([t[0] - sigma], np.column_stack((tl, peak)).ravel(), [t[-1]]))
    hi = np.concatenate(([t[0]], np.column_stack((peak, tr)).ravel(), [t[-1] + sigma]))
    start = np.concatenate(([lo[0]], np.repeat(peak, 2), [hi[-1]]))
    rising = np.concatenate(([False], np.tile([True, False], peak.size), [True]))
    ends = newton(hp, start, lo, hi, rising, _STEP_RTOL * (np.abs(lo) + np.abs(hi)))
    ends = [-math.inf, *ends.tolist(), math.inf]
    return list(zip(ends[::2], ends[1::2]))


def support(ctx: AdditiveContext) -> SupportIntervals:
    """Support of the deformed limit, as the complement of the H-images.

    H is strictly increasing on each outlier interval and maps it onto a gap of the
    limiting measure; the support is what remains of the line.  H maps all ends at once.
    """
    ends = np.array(outlier_set_intervals(ctx)).ravel()
    ends[1:-1] += ctx.sigma2 * np.sum(ctx._wts / (ends[1:-1, None] - ctx._locs), axis=1)
    return SupportIntervals(tuple(uncovered(ends.reshape(-1, 2).tolist())))


def _v_squared(w: np.ndarray, s2: float, d2: np.ndarray) -> np.ndarray:
    """``v(u)^2`` for each row of squared distances ``d2 = (u - t_j)^2`` (Biane 1997).

    ``v = 0`` where ``sum w/d2 <= 1/sigma2``; elsewhere ``v^2`` is the root s of
    ``sum w/(d2 + s) = 1/sigma2``.  Newton on the concave increasing ``1/sum w/(d2 + s)``
    from the left start ``max_j (w_j sigma2 - d2_j)`` rises monotonically to it.
    """
    s = np.maximum(np.max(w * s2 - d2, axis=1), 0.0)
    with np.errstate(divide="ignore"):
        active = np.flatnonzero((w / d2).sum(axis=1) > 1.0 / s2)
    for _ in range(_MAX_STEPS):
        if not active.size:
            return s
        q = 1.0 / (d2[active] + s[active, None])
        F = q @ w
        step = F * (s2 * F - 1.0) / ((q * q) @ w)
        s[active] += np.maximum(step, 0.0)
        active = active[step > _STEP_RTOL * s[active]]
    raise NumericalError("the Newton solve for v^2 did not settle")


def _psi(ctx: AdditiveContext, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``psi(u) = Re H(u + i v(u))`` and its derivative, an increasing bijection of the line."""
    d = u[:, None] - ctx._locs
    d2 = d * d
    s = _v_squared(ctx._wts, ctx.sigma2, d2)
    q = 1.0 / (d2 + s[:, None])
    F = q @ ctx._wts
    psi = u + ctx.sigma2 * ((q * d) @ ctx._wts)
    # Off the support v = 0 and psi = H; on it v^2 moves with u by -2A/G.
    q2 = q * q
    A, B, G = (q2 * d) @ ctx._wts, (q2 * d2) @ ctx._wts, q2 @ ctx._wts
    slope = np.where(s > 0.0, 1.0 + ctx.sigma2 * (F - 2.0 * B + 2.0 * A * A / G), 1.0 - ctx.sigma2 * F)
    return psi, slope


def _on_axis(ctx: AdditiveContext, xs: np.ndarray) -> np.ndarray:
    """``omega(x) = u + i v`` on the real axis: the root u of ``psi(u) = x``, then ``v(u)``.

    By Cauchy-Schwarz ``|psi(u) - u| <= sigma``, so ``[x - sigma, x + sigma]`` brackets u;
    bracketed Newton (rootfind.newton) finds it from x.
    """
    sigma = math.sqrt(ctx.sigma2)
    settled = _STEP_RTOL * (np.abs(xs) + sigma)
    u = newton(lambda u: _psi(ctx, u), xs, xs - sigma, xs + sigma, True, settled, xs)
    return u + 1j * np.sqrt(_v_squared(ctx._wts, ctx.sigma2, (u[:, None] - ctx._locs) ** 2))


def subordination(ctx: AdditiveContext, zs) -> np.ndarray:
    """Subordination function ``omega(z)``, the root of ``omega + sigma2 g_nu(omega) = z``.

    ``zs`` is flat with ``Im z >= 0``.  On the real axis omega is exact (_on_axis).  Above
    it, Newton starts at ``omega(Re z) + i Im z`` and halves any step that would leave
    ``Im omega >= Im z``; a residual above ``RESIDUAL_TOL (1 + |z|)`` is a NumericalError.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    sigma = math.sqrt(ctx.sigma2)
    omega = _on_axis(ctx, zs.real.copy())
    off = np.flatnonzero(zs.imag > 0.0)
    if not off.size:
        return omega
    z = zs[off]
    om = omega[off] + 1j * z.imag
    active = np.arange(off.size)
    for _ in range(_MAX_STEPS):
        if not active.size:
            break
        oa, za = om[active], z[active]
        r = 1.0 / (oa[:, None] - ctx._locs)
        step = (oa + ctx.sigma2 * (r @ ctx._wts) - za) / (1.0 - ctx.sigma2 * ((r * r) @ ctx._wts))
        while np.any(low := (oa - step).imag < za.imag):  # ends once step underflows, at worst
            step[low] *= 0.5
        om[active] = oa - step
        active = active[np.abs(step) > _STEP_RTOL * (np.abs(oa) + sigma)]
    residual = np.abs(om + ctx.sigma2 * (1.0 / (om[:, None] - ctx._locs) @ ctx._wts) - z)
    i = np.argmax(residual / (1.0 + np.abs(z)))
    if residual[i] > RESIDUAL_TOL * (1.0 + abs(z[i])):
        raise NumericalError(f"subordination residual {residual[i]:.3e} at z={complex(z[i])!r}")
    omega[off] = om
    return omega


def subordinated_g(ctx: AdditiveContext, z: complex) -> complex:
    """Stieltjes transform ``g_nu(omega(z))`` of the deformed limit at ``z`` in the upper half-plane."""
    z = complex(z)
    if not z.imag > 0.0:
        raise DomainError(f"z must lie in the open upper half-plane, got {z!r}")
    return complex(np.sum(ctx._wts / (subordination(ctx, [z])[0] - ctx._locs)))


def _grid(grid, eps: float) -> np.ndarray:
    """The grid as a flat float array, once eps is checked; both families' densities start here."""
    if not (math.isfinite(eps) and eps >= 0.0):
        raise SpecError(f"eps must be a finite non-negative number, got {eps!r}")
    return np.asarray(grid, dtype=float).ravel()


def density(ctx: AdditiveContext, grid, eps: float = 0.0) -> list[tuple[float, float]]:
    """Density ``-Im g(x + i*eps) / pi = (Im omega / pi) sum w / |omega - t|^2`` on a real grid.

    At the default eps = 0 this is the exact density of the limit, ``v / (pi sigma2)``.
    """
    xs = _grid(grid, eps)
    omega = subordination(ctx, xs + 1j * eps)
    f = omega.imag / math.pi * (ctx._wts / np.abs(omega[:, None] - ctx._locs) ** 2).sum(axis=1)
    return [(float(x), float(v)) for x, v in zip(xs, f)]
