"""Additively deformed Wigner model: spike classification and bulk analytics.

The limiting spectrum of ``A + W`` (``A`` with atomic limit ``nu``, ``W`` a
Wigner matrix of variance ``sigma2``) is the free additive convolution of
``nu`` with a semicircle law.  Everything here is phrased through the map

    H(u) = u + sigma2 * g_nu(u)

whose restriction to each component of the outlier set is the inverse of the
subordination function.  A spike ``theta`` produces an outlier exactly when
``H'(theta) > 0``, in which case the outlier sits at ``rho = H(theta)`` and
the squared eigenvector overlap converges to ``tau = H'(theta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, SpecError
from .measure import MERGE_TOL, AtomicMeasure
from .rootfind import bisect, creep_to_sign, march_to_sign
from .verdicts import SpikeVerdict, SupportIntervals, uncovered

# H'(theta) within this of zero counts as sticking, not an outlier.
BOUNDARY_TOL = 1e-12

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
DEFAULT_DAMPING = 0.5
DEFAULT_EPS = 1e-6


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


def subordinated_g(
    ctx: AdditiveContext,
    z: complex,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = DEFAULT_DAMPING,
) -> complex:
    """Stieltjes transform of the deformed limit at ``z`` in the upper half-plane.

    Damped Picard iteration on the subordination fixed point
    ``g = g_nu(z - sigma2 * g)`` starting from ``1/z``.  Each iterate keeps a
    nonpositive imaginary part, so the argument of ``g_nu`` stays in the upper
    half-plane and the iteration is well defined throughout.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise DomainError(f"z must lie in the open upper half-plane, got {z!r}")
    if tol <= 0.0:
        raise SpecError("tol must be positive")
    if max_iter < 1:
        raise SpecError("max_iter must be at least 1")
    if not 0.0 < damping <= 1.0:
        raise SpecError("damping must lie in (0, 1]")

    atoms = ctx.nu.atoms
    s2 = ctx.sigma2
    g = 1.0 / z
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        w = z - s2 * g
        t = sum(wt / (w - loc) for loc, wt in atoms)
        residual = abs(g - t)
        if residual < tol:
            return g
        g = (1.0 - damping) * g + damping * t
    raise ConvergenceError(
        f"subordination fixed point did not reach tol={tol} in {max_iter} iterations",
        residual=residual,
        iterations=max_iter,
    )


def _subordinated_g_grid(
    ctx: AdditiveContext,
    zs: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = DEFAULT_DAMPING,
) -> np.ndarray:
    """Vectorized counterpart of subordinated_g over a flat array of points.

    Converged entries are frozen and dropped from the active set, so a few
    slow points near the support edges do not force full-grid work.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    locs = ctx._locs
    wts = ctx._wts
    s2 = ctx.sigma2

    g = 1.0 / zs
    residual = np.full(zs.shape, np.inf)
    active = np.arange(zs.size)
    for _ in range(max_iter):
        za = zs[active]
        ga = g[active]
        w = za - s2 * ga
        t = np.sum(wts[None, :] / (w[:, None] - locs[None, :]), axis=1)
        r = np.abs(ga - t)
        residual[active] = r
        conv = r < tol
        g[active] = np.where(conv, ga, (1.0 - damping) * ga + damping * t)
        active = active[~conv]
        if active.size == 0:
            return g
    idx = int(active[0])
    raise ConvergenceError(
        f"subordination fixed point did not reach tol={tol} in {max_iter} "
        f"iterations at grid point {idx} (z={zs[idx]!r})",
        residual=float(residual[idx]),
        iterations=max_iter,
        grid_index=idx,
    )


def density(
    ctx: AdditiveContext,
    grid,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[float, float]]:
    """Approximate density ``-Im g(x + i*eps) / pi`` on the given real grid."""
    if eps <= 0.0:
        raise SpecError("eps must be positive")
    xs = np.asarray(grid, dtype=float).ravel()
    g = _subordinated_g_grid(ctx, xs + 1j * eps, tol=tol, max_iter=max_iter)
    f = -g.imag / math.pi
    return [(float(x), float(v)) for x, v in zip(xs, f)]
