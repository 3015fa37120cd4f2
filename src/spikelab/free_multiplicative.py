"""Spiked sample-covariance model, as the additive model of a size-biased measure.

The limit of ``A^{1/2} B B* A^{1/2} / p`` (population limit ``nu`` on [0, inf),
``N/p -> c``) is the multiplicative free convolution of ``nu`` with a
Marchenko-Pastur law.  Over the atoms ``t_j > 0`` of ``nu`` let ``beta_j =
c w_j t_j^2``, ``sigma2~ = sum beta_j``, ``s = c sum w_j t_j`` and let ``nu~ =
sum (beta_j / sigma2~) delta_{t_j}`` be the size-biased measure.  With ``H~`` the
map H of free_additive for ``(nu~, sigma2~)``, the outlier map and the criterion
are ``Z(1/u) = s + H~(u)`` and ``W(u) = c sum w_j t_j^2 / (u - t_j)^2 = 1 - H~'(u)``
(Silverstein & Choi 1995).  So the Wishart criterion ``W(theta) < 1`` is
``H~'(theta) > 0``; a detached spike sits at ``rho = s + H~(theta)`` with squared
overlap ``tau = H~'(theta) theta / rho``.  The support is what the images of the
outlier set of ``(nu~, sigma2~)`` under ``Z(1/u)`` leave uncovered.  The density uses
the additive subordination function ``omega`` of ``(nu~, sigma2~)`` at x - s:
``g(x) = (omega/x) g_nu(omega)``, so at eps = 0 the density is ``(Im omega / (pi x))
sum w t / |omega - t|^2``, never negative; one solver serves both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import free_additive
from .errors import DegenerateOutlierError, DomainError, SpecError
from .free_additive import BOUNDARY_TOL, AdditiveContext
from .measure import MERGE_TOL, AtomicMeasure
# Not called here: a traced run patches these names on every theory module.
from .rootfind import bisect, creep_to_sign, march_to_sign  # noqa: F401
from .verdicts import SpikeVerdict, SupportIntervals, uncovered


@dataclass(frozen=True)
class MultiplicativeContext:
    """Population limit ``nu`` on [0, inf), aspect ratio ``c``, and ``s`` and ``(nu~, sigma2~)``."""

    nu: AtomicMeasure
    c: float
    _shift: float = field(init=False, repr=False, compare=False)
    _biased: AdditiveContext | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.nu, AtomicMeasure):
            raise SpecError("nu must be an AtomicMeasure")
        if self.nu.atoms[0][0] < 0.0:  # the lowest atom, as atoms ascend
            raise SpecError("multiplicative model requires all atoms of nu to be >= 0")
        c = float(self.c)
        if not math.isfinite(c) or c <= 0.0:
            raise SpecError(f"c must be a finite positive number, got {self.c!r}")
        locs, wts = self.nu.locations, self.nu.weights
        t, w = locs[pos := locs > MERGE_TOL], wts[pos]
        with np.errstate(over="ignore"):
            beta = c * w * t * t
            sigma2 = float(beta.sum())
        if not math.isfinite(sigma2):
            big = float(t[np.argmax(beta)])
            raise SpecError(f"c*w*t^2 overflows at the atom t={big!r} of nu (c={c!r})")
        biased = None
        if t.size:
            biased = AdditiveContext(AtomicMeasure(zip(t, beta / sigma2)), sigma2)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_shift", c * float((w * t).sum()))
        object.__setattr__(self, "_biased", biased)


def Z(ctx: MultiplicativeContext, x: float) -> float:
    """Outlier map ``s + H~(1/x)``, that is ``_rho`` at ``u = 1/x``."""
    x = float(x)
    if x == 0.0:
        raise DomainError("Z is undefined at x = 0")
    u = 1.0 / x
    if ctx._biased is not None and ctx._biased.nu.distance_to_support(u) <= MERGE_TOL:
        raise DomainError(f"1/x = {u!r} lies in the support of nu")
    return _rho(ctx, u)


def W(ctx: MultiplicativeContext, u: float) -> float:
    """Detachment criterion ``sigma2~ * sum w~_j / (u - t_j)^2``; spikes with W < 1 detach."""
    u = float(u)
    if abs(u) <= MERGE_TOL:
        raise DomainError("W is undefined at u = 0")
    if ctx.nu.distance_to_support(u) <= MERGE_TOL:
        raise DomainError(f"u={u!r} lies in the support of nu")
    if (biased := ctx._biased) is None:
        return 0.0
    return biased.sigma2 * float((biased.nu.weights / (u - biased.nu.locations) ** 2).sum())


def _rho(ctx: MultiplicativeContext, u: float) -> float:
    """Outlier map ``Z(1/u) = s + H~(u)``, summed as ``u (1 + c sum w t / (u - t))``: the
    plain sum cancels where its value is far below s, as at a lower edge close to 0."""
    t, w = ctx.nu.locations, ctx.nu.weights
    return u * (1.0 + ctx.c * float((w * t / (u - t)).sum()))


def classify_spike(ctx: MultiplicativeContext, theta: float, multiplicity: int = 1) -> SpikeVerdict:
    """Decide whether a positive population spike detaches from the bulk; W alone checks theta."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise SpecError(f"theta must be finite, got {theta!r}")
    if theta <= 0.0:
        raise DomainError(f"spike classification requires theta > 0, got {theta!r}")
    w_val = W(ctx, theta)
    rho = tau = None
    if w_val < 1.0 - BOUNDARY_TOL:
        rho = _rho(ctx, theta)
        if rho == 0.0:
            raise DegenerateOutlierError(
                f"outlier location Z(1/theta) vanishes for theta={theta!r}"
            )
        tau = (1.0 - w_val) * theta / rho
    return SpikeVerdict(theta, multiplicity, rho is not None, rho, tau, criterion_value=w_val)


def outlier_set_intervals(ctx: MultiplicativeContext) -> list[tuple[float, float]]:
    """Positive-side intervals where spikes detach (W < 1, u > 0): those of ``(nu~, sigma2~)``.

    Only the first, ``(-inf, b)``, reaches 0; it keeps ``(0, b)`` iff W(0) = c (1 - nu({0})) < 1.
    """
    if ctx._biased is None:
        return [(0.0, math.inf)]
    (_, b), *rest = free_additive.outlier_set_intervals(ctx._biased)
    return ([(0.0, b)] if ctx.c * (1.0 - ctx.nu.weight_at(0.0)) < 1.0 else []) + rest


def support(ctx: MultiplicativeContext) -> SupportIntervals:
    """Support of the continuous part: what the images under Z(1/u) of the outlier set of
    ``(nu~, sigma2~)`` leave uncovered, cut at 0.

    All finite endpoints are mapped at once, by ``_rho`` summed as ``u (1 - c m + c u
    sum_{t>0} w / (u - t))`` with m = 1 - nu({0}): where a lower edge is close to 0, u is
    small and no term cancels."""
    if ctx._biased is None:
        return SupportIntervals(())
    t, c, m = ctx._biased.nu.locations, ctx.c, 1.0 - ctx.nu.weight_at(0.0)
    u = np.array(free_additive.outlier_set_intervals(ctx._biased)).ravel()
    w = ctx.nu.weights[ctx.nu.locations > MERGE_TOL]
    u[1:-1] *= 1.0 - c * m + c * u[1:-1] * (w / (u[1:-1, None] - t)).sum(axis=1)
    gaps = uncovered(u.reshape(-1, 2).tolist())
    return SupportIntervals(tuple((max(lo, 0.0), hi) for lo, hi in gaps if hi > 0.0))


def mass_at_zero(ctx: MultiplicativeContext) -> float:
    """Point mass of the limit at 0: nu({0}) if c*(1-nu({0})) <= 1, else 1 - 1/c."""
    nu0 = ctx.nu.weight_at(0.0)
    if ctx.c * (1.0 - nu0) <= 1.0:
        return nu0
    return 1.0 - 1.0 / ctx.c


def _g(ctx: MultiplicativeContext, z: np.ndarray) -> np.ndarray:
    """``g(z) = (omega/z) g_nu(omega)`` at a flat array of points z above the real axis.

    ``omega`` is the subordination function of ``(nu~, sigma2~)`` at z - s; unlike
    G = (1-c)/z + c g, this form does not divide by c.
    """
    omega = z - ctx._shift
    if ctx._biased is not None:
        omega = free_additive.subordination(ctx._biased, omega)
    return omega / z * np.sum(ctx.nu.weights / (omega[:, None] - ctx.nu.locations), axis=1)


def density(ctx: MultiplicativeContext, grid, eps: float = 0.0) -> list[tuple[float, float]]:
    """Continuous-part density ``-Im g(x + i*eps) / pi`` on the given real grid.

    At the default eps = 0 it is exact: with ``omega = u + i v`` the subordination
    function of ``(nu~, sigma2~)`` at x - s, ``f(x) = (v / (pi x)) sum w t / |omega - t|^2``
    for x > 0, a sum of non-negative terms, and f = 0 for x < 0.  At x = 0, f = 0 unless
    ``c (1 - nu({0})) = 1``, where the support reaches 0 and f is unbounded: a DomainError.
    """
    xs = free_additive._grid(grid, eps)
    if eps > 0.0:
        f = -_g(ctx, xs + 1j * eps).imag / math.pi
    elif np.any(xs == 0.0) and ctx.c * (1.0 - ctx.nu.weight_at(0.0)) == 1.0:
        raise DomainError("the density is unbounded at x=0, where c (1 - nu({0})) = 1")
    else:
        f, pos = np.zeros(xs.shape), xs > 0.0
        if ctx._biased is not None:
            omega = free_additive.subordination(ctx._biased, xs[pos] - ctx._shift)
            t, w = ctx.nu.locations, ctx.nu.weights
            tilt = (w * t / np.abs(omega[:, None] - t) ** 2).sum(axis=1)
            f[pos] = omega.imag / (math.pi * xs[pos]) * tilt
    return [(float(x), float(v)) for x, v in zip(xs, f)]
