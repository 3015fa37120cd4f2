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
overlap ``tau = H~'(theta) theta / rho``; classify_spike evaluates W and rho at the
spike, over one array of distances ``theta - t_j``.  The support lies between the Z(1/u)-images
of consecutive outlier-set ends of ``(nu~, sigma2~)``, cut at 0.  The density uses
the additive subordination function ``omega`` of ``(nu~, sigma2~)`` at z - s: ``g(z) =
(1 + sum w t / (omega - t)) / z`` on the axis and above it, so one real formula serves
every eps >= 0, at eps = 0 ``(Im omega / (pi x)) sum w t / |omega - t|^2``, never negative;
one solver serves both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import free_additive
from .errors import DomainError, NumericalError, SpecError
from .free_additive import BOUNDARY_TOL, AdditiveContext
from .measure import MERGE_TOL, AtomicMeasure, real_number
# Not called here: a traced run patches these names on every theory module.
from .rootfind import bisect, creep_to_sign, march_to_sign  # noqa: F401
from .verdicts import SpikeVerdict, SupportIntervals


@dataclass(frozen=True)
class MultiplicativeContext:
    """Population limit ``nu`` on [0, inf), aspect ratio ``c``, and ``s``, ``(nu~, sigma2~)``
    and ``W(0) = c m``, ``m = 1 - nu({0})``; ``nu~`` holds the atoms of nu that ``_above`` selects
    (t > MERGE_TOL), and nu({0}) is the weight of the one atom it leaves out, or 0."""

    nu: AtomicMeasure
    c: float
    _above: slice = field(init=False, repr=False, compare=False)
    _shift: float = field(init=False, repr=False, compare=False)
    _zero: float = field(init=False, repr=False, compare=False)
    _cm: float = field(init=False, repr=False, compare=False)
    _biased: AdditiveContext | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.nu, AtomicMeasure):
            raise SpecError("nu must be an AtomicMeasure")
        if self.nu.locations[0] < 0.0:  # the lowest atom, as atoms ascend
            raise SpecError("multiplicative model requires all atoms of nu to be >= 0")
        c = real_number(self.c, "c", positive=True)
        locs, wts = self.nu.locations, self.nu.weights
        above = slice(int(np.searchsorted(locs, MERGE_TOL, side="right")), None)  # t > MERGE_TOL
        t, w = locs[above], wts[above]
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
        object.__setattr__(self, "_above", above)
        object.__setattr__(self, "_shift", c * float((w * t).sum()))
        object.__setattr__(self, "_zero", float(wts[0]) if above.start else 0.0)
        object.__setattr__(self, "_cm", c * (1.0 - self._zero))
        object.__setattr__(self, "_biased", biased)

    def _offsets(self, theta: float) -> np.ndarray:
        """``theta - t`` over the atoms of nu, as for the additive family, for ``theta > 0`` only."""
        if theta <= 0.0:
            raise DomainError(f"a multiplicative spike must be positive, got theta={theta!r}")
        return AdditiveContext._offsets(self, theta)


def classify_spike(ctx: MultiplicativeContext, theta: float) -> SpikeVerdict:
    """Decide from theta alone whether a positive spike detaches from the bulk: ``W(theta) < 1``.

    Raises DomainError unless ``theta > 0`` is more than MERGE_TOL from every atom of nu.
    An outlier sits at ``rho = Z(1/theta) = s + H~(theta) = theta g``, ``g = 1 + c sum w t
    / (theta - t)``: the plain sum cancels where its value is far below s, as at a lower
    edge close to 0.  g > 0 at every outlier, so rho is 0 only where theta g underflows.
    Its ``tau = (1 - W) / g`` lies in (0, 1]; where theta is within rounding of 0 the
    quotient can round above 1, and tau is then 1.
    """
    theta = real_number(theta, "theta")
    d = ctx._offsets(theta)
    w_val = 0.0
    if (biased := ctx._biased) is not None:
        with np.errstate(over="ignore"):  # a square that overflows is inf, and its term 0
            w_val = biased.sigma2 * float((biased.nu.weights / d[ctx._above] ** 2).sum())
    rho = tau = None
    if w_val < 1.0 - BOUNDARY_TOL:
        g = 1.0 + ctx.c * float((ctx.nu.weights * ctx.nu.locations / d).sum())
        rho, tau = theta * g, min(1.0, (1.0 - w_val) / g)
    return SpikeVerdict(theta, rho, tau, criterion_value=w_val)


def outlier_set_intervals(ctx: MultiplicativeContext) -> list[tuple[float, float]]:
    """Positive-side intervals where spikes detach (W < 1, u > 0): those of ``(nu~, sigma2~)``.

    Only the first, ``(-inf, b)``, reaches 0; it keeps ``(0, b)`` iff W(0) = c (1 - nu({0})) < 1.
    """
    if ctx._biased is None:
        return [(0.0, math.inf)]
    (_, b), *rest = free_additive.outlier_set_intervals(ctx._biased)
    return ([(0.0, b)] if ctx._cm < 1.0 else []) + rest


def support(ctx: MultiplicativeContext) -> SupportIntervals:
    """Support of the continuous part: between the Z(1/u)-images of consecutive outlier-set ends
    of ``(nu~, sigma2~)``, cut at 0.

    ``Z(1/u)`` is summed as ``u (1 - c m + c u sum_{t>0} w / (u - t))`` with m = 1 - nu({0}):
    where a lower edge is close to 0, u is small and no term cancels."""
    if ctx._biased is None:
        return SupportIntervals(())
    t, w, c, cm = ctx._biased.nu.locations, ctx.nu.weights[ctx._above], ctx.c, ctx._cm
    pairs = free_additive._support_pairs(
        ctx._biased, lambda u: u * (1.0 - cm + c * u * (w / (u[:, None] - t)).sum(axis=1))
    )
    return SupportIntervals(tuple((max(lo, 0.0), hi) for lo, hi in pairs if hi > 0.0))


def mass_at_zero(ctx: MultiplicativeContext) -> float:
    """Point mass of the limit at 0: nu({0}) if c*(1-nu({0})) <= 1, else 1 - 1/c."""
    return ctx._zero if ctx._cm <= 1.0 else 1.0 - 1.0 / ctx.c


def density(ctx: MultiplicativeContext, grid, eps: float = 0.0) -> np.ndarray:
    """Continuous-part density ``-Im g(x + i*eps) / pi``, one float64 per point of the flat grid.

    With ``omega = u + i v`` at z - s, ``T = sum w t / |omega - t|^2`` and ``R = sum w t (u - t) /
    |omega - t|^2``, ``f = (x v T + eps (1 + R)) / (pi |z|^2)``; ``1 + R`` is summed as ``Re(omega
    sum w / (omega - t))``, whose 1 does not cancel where |omega| is small.  At the default eps = 0
    it is exact, ``(v / (pi x)) T`` for x > 0, a sum of non-negative terms, and f = 0 for x < 0.
    At x = 0, f = 0 unless ``c (1 - nu({0})) = 1``, where the support reaches 0 and f is
    unbounded: a DomainError.
    """
    xs = free_additive._grid(grid, eps)
    if eps == 0.0 and ctx._cm == 1.0 and np.any(xs == 0.0):
        raise DomainError("the density is unbounded at x=0, where c (1 - nu({0})) = 1")
    # At eps = 0 only x > 0 is solved, and only where nu has an atom above 0.
    f, at = np.zeros(xs.shape), (xs > 0.0) & (ctx._biased is not None) | (eps > 0.0)
    x, omega = xs[at], xs[at] + 1j * eps - ctx._shift
    if ctx._biased is not None:
        try:
            omega = free_additive.subordination(ctx._biased, omega)
        except NumericalError as exc:  # it names sigma2~ and z = x - s, which no model sets
            head = f"density at c={ctx.c!r}, as the size-biased model at z = x - {ctx._shift!r}"
            raise NumericalError(f"{head}: {exc}") from None
    t, w = ctx.nu.locations, ctx.nu.weights
    # T divides by |omega - t| twice, and f by |z|, so that no square of a large x overflows.
    d = omega[:, None] - t
    a, r = np.abs(d), np.hypot(x, eps)
    T = (w * t / a / a).sum(axis=1)
    one_plus_R = (omega * (w / d).sum(axis=1)).real
    f[at] = (x / r * omega.imag * T + eps / r * one_plus_R) / (math.pi * r)
    return f
