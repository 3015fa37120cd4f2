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
from .rootfind import bisect, creep_to_sign, march_to_sign
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

    The two unbounded gaps always contribute (``H' -> 1`` at infinity).  On a
    bounded gap ``H'`` is strictly concave, so it is positive on a single
    subinterval or nowhere; the peak is located through the sign change of
    ``H''`` and the endpoints by bisection from the blow-up at each atom.
    """
    locs = ctx._locs
    sigma = math.sqrt(ctx.sigma2)

    def hp(u: float) -> float:
        return 1.0 - ctx.sigma2 * float(np.sum(ctx._wts / (u - locs) ** 2))

    def hpp(u: float) -> float:
        return 2.0 * ctx.sigma2 * float(np.sum(ctx._wts / (u - locs) ** 3))

    out: list[tuple[float, float]] = []

    # Left unbounded gap: H' -> 1 far away, -> -inf at the first atom.
    far = march_to_sign(hp, float(locs[0]), -sigma, 1)
    near = creep_to_sign(hp, float(locs[0]), far, -1)
    out.append((-math.inf, bisect(hp, far, near)))

    # Bounded gaps: peak of H' where H'' changes sign (H'' is strictly
    # decreasing across the gap, +inf to -inf).
    for tl, tr in zip(locs, locs[1:]):
        mid = 0.5 * (float(tl) + float(tr))
        a = creep_to_sign(hpp, float(tl), mid, 1)
        b = creep_to_sign(hpp, float(tr), mid, -1)
        u_peak = bisect(hpp, a, b)
        if hp(u_peak) > BOUNDARY_TOL:
            left = creep_to_sign(hp, float(tl), u_peak, -1)
            right = creep_to_sign(hp, float(tr), u_peak, -1)
            out.append((bisect(hp, left, u_peak), bisect(hp, u_peak, right)))

    # Right unbounded gap, mirror of the left one.
    far = march_to_sign(hp, float(locs[-1]), sigma, 1)
    near = creep_to_sign(hp, float(locs[-1]), far, -1)
    out.append((bisect(hp, near, far), math.inf))

    return out


def support(ctx: AdditiveContext) -> SupportIntervals:
    """Support of the deformed limit, as the complement of the H-images.

    H is strictly increasing on each outlier interval and maps it onto a gap
    of the limiting measure; the support is what remains of the line.
    """
    images: list[tuple[float, float]] = []
    for a, b in outlier_set_intervals(ctx):
        lo = -math.inf if a == -math.inf else H(ctx, a)
        hi = math.inf if b == math.inf else H(ctx, b)
        images.append((lo, hi))
    return SupportIntervals(tuple(uncovered(images)))


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
    Newton runs inside the bracket and bisects where a step would leave it or not halve.
    """
    sigma = math.sqrt(ctx.sigma2)
    lo, hi, u = xs - sigma, xs + sigma, xs.copy()
    last = np.full(xs.shape, 2.0 * sigma)
    settled = _STEP_RTOL * (np.abs(xs) + sigma)
    active = np.arange(xs.size)
    for _ in range(_MAX_STEPS):
        ua = u[active]
        psi, slope = _psi(ctx, ua)
        r = psi - xs[active]
        la = lo[active] = np.where(r < 0.0, ua, lo[active])
        ha = hi[active] = np.where(r > 0.0, ua, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ua - r / slope
        slow = ~((la <= newton) & (newton <= ha)) | (2.0 * np.abs(r) > np.abs(last[active] * slope))
        new = np.where(r == 0.0, ua, np.where(slow, 0.5 * (la + ha), newton))
        last[active] = np.abs(new - ua)
        u[active] = new
        active = active[last[active] > settled[active]]
        if not active.size:
            return u + 1j * np.sqrt(_v_squared(ctx._wts, ctx.sigma2, (u[:, None] - ctx._locs) ** 2))
    raise NumericalError("the bracketed Newton solve of psi(u) = x did not settle")


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
