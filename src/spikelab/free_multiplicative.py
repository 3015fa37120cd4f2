"""Spiked sample-covariance model: Marchenko-Pastur analytics and spike maps.

The limiting spectrum of ``A^{1/2} B B* A^{1/2} / p`` (population limit ``nu``
on [0, inf), aspect ratio ``N/p -> c``) is the multiplicative free convolution
of ``nu`` with a Marchenko-Pastur law.  The two scalar functions

    Z(x) = 1/x + c * sum w_j t_j / (1 - t_j x)
    W(u) = c * sum w_j t_j^2 / (u - t_j)^2

drive everything: a spike ``theta > 0`` detaches exactly when ``W(theta) < 1``,
the outlier then sits at ``rho = Z(1/theta)`` and the squared eigenvector
overlap converges to ``tau = (1 - W) / (Z(1/theta)/theta)``.  These satisfy
``Z'(1/u) = u^2 (W(u) - 1)``, so ``W < 1`` is the increasing branch of the
outlier map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateOutlierError, DomainError, SpecError
from .measure import MERGE_TOL, AtomicMeasure
from .rootfind import bisect, creep_to_sign, march_to_sign
from .verdicts import SpikeVerdict, SupportIntervals, uncovered

# W(theta) within this of 1 counts as sticking, not an outlier.
BOUNDARY_TOL = 1e-12

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
DEFAULT_DAMPING = 0.5
DEFAULT_EPS = 1e-6


@dataclass(frozen=True)
class MultiplicativeContext:
    """Population limit ``nu`` (supported on [0, inf)) plus aspect ratio ``c``."""

    nu: AtomicMeasure
    c: float
    _locs: np.ndarray = field(init=False, repr=False, compare=False)
    _wts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.nu, AtomicMeasure):
            raise SpecError("nu must be an AtomicMeasure")
        if any(loc < 0.0 for loc, _ in self.nu.atoms):
            raise SpecError("multiplicative model requires all atoms of nu to be >= 0")
        c = float(self.c)
        if not math.isfinite(c) or c <= 0.0:
            raise SpecError(f"c must be a finite positive number, got {self.c!r}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_locs", self.nu.locations)
        object.__setattr__(self, "_wts", self.nu.weights)


def mp_density(c: float, x: float) -> float:
    """Marchenko-Pastur density at ``x > 0`` for aspect ratio ``c``.

    Covers only the absolutely continuous part on [(1-sqrt c)^2, (1+sqrt c)^2];
    the point mass at zero for c > 1 is reported by mass_at_zero.
    """
    c = float(c)
    x = float(x)
    if not math.isfinite(c) or c <= 0.0:
        raise SpecError(f"c must be a finite positive number, got {c!r}")
    if x <= 0.0:
        raise DomainError(f"mp_density requires x > 0, got {x!r}")
    lo = (1.0 - math.sqrt(c)) ** 2
    hi = (1.0 + math.sqrt(c)) ** 2
    if x < lo or x > hi:
        return 0.0
    return math.sqrt(max((x - lo) * (hi - x), 0.0)) / (2.0 * math.pi * c * x)


def _mass_near_zero(ctx: MultiplicativeContext) -> float:
    return float(np.sum(ctx._wts[ctx._locs <= MERGE_TOL]))


def Z(ctx: MultiplicativeContext, x: float) -> float:
    """Outlier-location map ``1/x + c * sum w_j t_j / (1 - t_j x)``.

    Poles sit at x = 0 and wherever 1/x hits a nonzero atom of nu.
    """
    x = float(x)
    if x == 0.0:
        raise DomainError("Z is undefined at x = 0")
    u = 1.0 / x
    pos = ctx._locs > MERGE_TOL
    if np.any(pos) and float(np.min(np.abs(u - ctx._locs[pos]))) <= MERGE_TOL:
        raise DomainError(f"1/x = {u!r} lies in the support of nu")
    return float(1.0 / x + ctx.c * np.sum(ctx._wts * ctx._locs / (1.0 - ctx._locs * x)))


def _Z_of_inv(ctx: MultiplicativeContext, u: float) -> float:
    # Z(1/u) = u * (1 + c * sum w t/(u - t)), computed without the 1/u roundtrip
    pos = ctx._locs > MERGE_TOL
    s = float(np.sum(ctx._wts[pos] * ctx._locs[pos] / (u - ctx._locs[pos])))
    return u * (1.0 + ctx.c * s)


def W(ctx: MultiplicativeContext, u: float) -> float:
    """Detachment criterion ``c * sum w_j t_j^2 / (u - t_j)^2``; spikes with W < 1 detach."""
    u = float(u)
    if abs(u) <= MERGE_TOL:
        raise DomainError("W is undefined at u = 0")
    if float(np.min(np.abs(u - ctx._locs))) <= MERGE_TOL:
        raise DomainError(f"u={u!r} lies in the support of nu")
    return _W_raw(ctx, u)


def _W_raw(ctx: MultiplicativeContext, u: float) -> float:
    pos = ctx._locs > MERGE_TOL
    t = ctx._locs[pos]
    w = ctx._wts[pos]
    return ctx.c * float(np.sum(w * t * t / (u - t) ** 2))


def _W_deriv(ctx: MultiplicativeContext, u: float) -> float:
    pos = ctx._locs > MERGE_TOL
    t = ctx._locs[pos]
    w = ctx._wts[pos]
    return -2.0 * ctx.c * float(np.sum(w * t * t / (u - t) ** 3))


def classify_spike(ctx: MultiplicativeContext, theta: float, multiplicity: int = 1) -> SpikeVerdict:
    """Decide whether a positive population spike detaches from the bulk."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise SpecError(f"theta must be finite, got {theta!r}")
    if theta <= 0.0:
        raise DomainError(f"spike classification requires theta > 0, got {theta!r}")
    w_val = W(ctx, theta)
    if w_val < 1.0 - BOUNDARY_TOL:
        pos = ctx._locs > MERGE_TOL
        denom = 1.0 + ctx.c * float(
            np.sum(ctx._wts[pos] * ctx._locs[pos] / (theta - ctx._locs[pos]))
        )
        rho = theta * denom
        if rho == 0.0 or denom == 0.0:
            raise DegenerateOutlierError(
                f"outlier location Z(1/theta) vanishes for theta={theta!r}"
            )
        return SpikeVerdict(
            theta=theta,
            multiplicity=multiplicity,
            is_outlier=True,
            rho=rho,
            tau=(1.0 - w_val) / denom,
            criterion_value=w_val,
        )
    return SpikeVerdict(
        theta=theta,
        multiplicity=multiplicity,
        is_outlier=False,
        rho=None,
        tau=None,
        criterion_value=w_val,
    )


def _outlier_intervals_full(ctx: MultiplicativeContext) -> list[tuple[float, float]]:
    """Maximal intervals of {u != 0, u off supp nu : W(u) < 1}, both signs.

    Gaps are cut at 0 (the domain excludes it), so no interval straddles 0.
    On the two gaps adjoining 0, W is strictly monotone with finite limit
    W(0) = c*(1 - nu({0})); elsewhere the convexity argument from the additive
    module applies with min/max roles swapped.
    """
    locs = ctx._locs
    pos_mask = locs > MERGE_TOL
    if not np.any(pos_mask):
        # nu = delta_0: W vanishes identically
        return [(-math.inf, 0.0), (0.0, math.inf)]

    pos_atoms = [float(t) for t in locs[pos_mask]]
    w0 = ctx.c * float(np.sum(ctx._wts[pos_mask]))
    scale = max(1.0, pos_atoms[-1])

    def fw(u: float) -> float:
        return _W_raw(ctx, u) - 1.0

    def fwp(u: float) -> float:
        return _W_deriv(ctx, u)

    out: list[tuple[float, float]] = []

    # (-inf, 0): W increases from 0 to W(0) = w0
    if w0 > 1.0:
        far = march_to_sign(fw, 0.0, -scale, -1)
        near = creep_to_sign(fw, 0.0, far, 1)
        out.append((-math.inf, bisect(fw, far, near)))
    else:
        out.append((-math.inf, 0.0))

    # (0, first positive atom): W increases from w0 to +inf
    t_first = pos_atoms[0]
    if w0 < 1.0:
        mid = 0.5 * t_first
        lo_pt = creep_to_sign(fw, 0.0, mid, -1)
        hi_pt = creep_to_sign(fw, t_first, mid, 1)
        out.append((0.0, bisect(fw, lo_pt, hi_pt)))

    # bounded gaps between positive atoms: W is strictly convex, +inf at both
    # ends, so W < 1 on one subinterval around the minimum or nowhere
    for tl, tr in zip(pos_atoms, pos_atoms[1:]):
        mid = 0.5 * (tl + tr)
        a = creep_to_sign(fwp, tl, mid, -1)
        b = creep_to_sign(fwp, tr, mid, 1)
        u_min = bisect(fwp, a, b)
        if fw(u_min) < -BOUNDARY_TOL:
            left = creep_to_sign(fw, tl, u_min, 1)
            right = creep_to_sign(fw, tr, u_min, 1)
            out.append((bisect(fw, left, u_min), bisect(fw, u_min, right)))

    # (last atom, inf): W decreases from +inf to 0, exactly one root
    t_last = pos_atoms[-1]
    far = march_to_sign(fw, t_last, scale, -1)
    near = creep_to_sign(fw, t_last, far, 1)
    out.append((bisect(fw, near, far), math.inf))

    return out


def outlier_set_intervals(ctx: MultiplicativeContext) -> list[tuple[float, float]]:
    """Positive-side intervals where spikes detach (W < 1, u > 0)."""
    return [iv for iv in _outlier_intervals_full(ctx) if iv[0] >= 0.0]


def support(ctx: MultiplicativeContext) -> SupportIntervals:
    """Support of the continuous part on [0, inf).

    u -> Z(1/u) is strictly increasing on each W < 1 interval (its derivative
    is 1 - W) and maps it onto a gap of the limit; the support is the
    complement of those images, clipped to the nonnegative axis.  Any mass at
    zero is reported separately by mass_at_zero.
    """
    images: list[tuple[float, float]] = []
    for a, b in _outlier_intervals_full(ctx):
        if a == -math.inf:
            lo = -math.inf
        elif a == 0.0:
            lo = 0.0
        else:
            lo = _Z_of_inv(ctx, a)
        if b == math.inf:
            hi = math.inf
        elif b == 0.0:
            hi = 0.0
        else:
            hi = _Z_of_inv(ctx, b)
        images.append((lo, hi))
    return SupportIntervals(tuple((max(lo, 0.0), hi) for lo, hi in uncovered(images) if hi > 0.0))


def mass_at_zero(ctx: MultiplicativeContext) -> float:
    """Point mass of the limit at 0: nu({0}) if c*(1-nu({0})) <= 1, else 1 - 1/c."""
    nu0 = _mass_near_zero(ctx)
    if ctx.c * (1.0 - nu0) <= 1.0:
        return nu0
    return 1.0 - 1.0 / ctx.c


def fixed_point_g(
    ctx: MultiplicativeContext,
    z: complex,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = DEFAULT_DAMPING,
) -> complex:
    """Stieltjes transform of the limit at ``z`` in the upper half-plane.

    Damped Picard iteration on g = sum w / (z - t(1 - c + c z g)).  The update
    is routed through the companion transform G = (1-c)/z + c*g, for which the
    map G -> 1/(z - c*sum w t/(1-tG)) is a self-map of the lower half-plane
    whenever the atoms are nonnegative; rewritten in terms of g it reads
    g -> (z + (1-c)*S) / (z*(z - c*S)) with S = sum w t/(1-tG), which avoids
    the ill-conditioned division by c when c is tiny.  Convergence is measured
    as the residual of g in its own fixed-point equation.
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
    c = ctx.c
    m = 1.0 / z
    residual = math.inf
    for _ in range(max_iter):
        arg = 1.0 - c + c * z * m
        rhs = sum(w / (z - t * arg) for t, w in atoms)
        residual = abs(m - rhs)
        if residual < tol:
            return m
        G = (1.0 - c) / z + c * m
        S = sum(w * t / (1.0 - t * G) for t, w in atoms)
        step = (z + (1.0 - c) * S) / (z * (z - c * S))
        m = (1.0 - damping) * m + damping * step
    raise ConvergenceError(
        f"sample-covariance fixed point did not reach tol={tol} in {max_iter} iterations",
        residual=residual,
        iterations=max_iter,
    )


def companion_g(
    ctx: MultiplicativeContext,
    z: complex,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = DEFAULT_DAMPING,
) -> complex:
    """Stieltjes transform (1-c)/z + c*g(z) of the companion p-side spectrum."""
    z = complex(z)
    g = fixed_point_g(ctx, z, tol=tol, max_iter=max_iter, damping=damping)
    return (1.0 - ctx.c) / z + ctx.c * g


def _fixed_point_g_grid(
    ctx: MultiplicativeContext,
    zs: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = DEFAULT_DAMPING,
) -> np.ndarray:
    """Vectorized fixed_point_g with per-point freezing, as in the additive module."""
    zs = np.asarray(zs, dtype=complex).ravel()
    locs = ctx._locs
    wts = ctx._wts
    c = ctx.c

    m = 1.0 / zs
    residual = np.full(zs.shape, np.inf)
    active = np.arange(zs.size)
    for _ in range(max_iter):
        za = zs[active]
        ma = m[active]
        arg = 1.0 - c + c * za * ma
        rhs = np.sum(wts[None, :] / (za[:, None] - locs[None, :] * arg[:, None]), axis=1)
        r = np.abs(ma - rhs)
        residual[active] = r
        conv = r < tol
        G = (1.0 - c) / za + c * ma
        S = np.sum((wts * locs)[None, :] / (1.0 - locs[None, :] * G[:, None]), axis=1)
        step = (za + (1.0 - c) * S) / (za * (za - c * S))
        m[active] = np.where(conv, ma, (1.0 - damping) * ma + damping * step)
        active = active[~conv]
        if active.size == 0:
            return m
    idx = int(active[0])
    raise ConvergenceError(
        f"sample-covariance fixed point did not reach tol={tol} in {max_iter} "
        f"iterations at grid point {idx} (z={zs[idx]!r})",
        residual=float(residual[idx]),
        iterations=max_iter,
        grid_index=idx,
    )


def density(
    ctx: MultiplicativeContext,
    grid,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[float, float]]:
    """Continuous-part density ``-Im g(x + i*eps) / pi`` on the given real grid."""
    if eps <= 0.0:
        raise SpecError("eps must be positive")
    xs = np.asarray(grid, dtype=float).ravel()
    g = _fixed_point_g_grid(ctx, xs + 1j * eps, tol=tol, max_iter=max_iter)
    f = -g.imag / math.pi
    return [(float(x), float(v)) for x, v in zip(xs, f)]
