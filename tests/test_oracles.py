"""Both families against the 50-digit oracle of ``oracles.py``.

The tolerances come from conditioning, not from the code under test:

- an edge is F at a critical point u, so it carries the rounding of one
  sum, 1e-14 (1 + |x|) additively and 1e-14 relative for Wishart, plus
  F''(u) delta^2 / 2 for an error delta in u of 16 ulp of the scale of the
  atoms and sigma.  A Wishart lower edge near 0 also moves with the
  rounding of c (1 - nu({0})), where that is inexact;
- rho, tau and the criterion are within 8 unit roundoffs of the sum of
  the absolute values of their terms;
- the eps = 0 density has a square-root edge, so an argument error of a
  few ulp of the solver's scale moves it by that over the distance to the
  nearest edge: relative error at most 1e-12 + 16 ulp(scale) / dist, with
  scale |x| + sigma additively and x for Wishart.  The Wishart solver
  works at x - s, which loses x's relative accuracy where x is small
  against s (ROADMAP item 3), so that bound is checked for x >= s/8;
- the density is exactly 0 in the gaps between support components.

Models whose gap peak of F' is within 1e-9 of 0 are skipped: there two
edges nearly merge and the gap itself is ill-conditioned.  The strict
xfails pin what ROADMAP item 3 is to mend.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from oracles import Oracle, mp_density, semicircle_density
from spikelab import free_additive, free_multiplicative
from spikelab.measure import MERGE_TOL, AtomicMeasure

UNIT_ROUNDOFF = 2.0**-53
PEAK_MARGIN = 1e-9

ORACLE = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=(HealthCheck.filter_too_much, HealthCheck.too_slow),
)


@st.composite
def models(draw, wishart):
    """``(nu, ctx, module, oracle)`` with 1 to 6 atoms, for one family."""
    k = draw(st.integers(1, 6))
    lo = 0.05 if wishart else -5.0
    locs = sorted(draw(st.lists(st.floats(lo, 5.0), min_size=k, max_size=k, unique=True)))
    assume(all(b - a > 1e-3 for a, b in zip(locs, locs[1:])))
    if wishart and draw(st.booleans()):
        locs = [0.0] + locs
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(locs), max_size=len(locs)))
    nu = AtomicMeasure(zip(locs, (w / sum(weights) for w in weights)))
    return model(nu, 10.0 ** draw(st.floats(-2.0, 0.6)), wishart)


def model(nu, scale, wishart):
    """``(nu, ctx, module, oracle)`` for ``nu`` at c = scale (Wishart) or sigma2 = scale."""
    if wishart:
        ctx, oracle = free_multiplicative.MultiplicativeContext(nu, scale), Oracle(nu.atoms, c=scale)
    else:
        ctx, oracle = free_additive.AdditiveContext(nu, scale), Oracle(nu.atoms, sigma2=scale)
    return nu, ctx, free_multiplicative if wishart else free_additive, oracle


@st.composite
def spiked_models(draw):
    """``((nu, ctx, module, oracle), theta)``; a Wishart theta is log-uniform down to 1e-300
    half of the time, where ``tau = (1 - W) theta / rho`` can round above 1."""
    wishart = draw(st.booleans())
    tiny = st.floats(-300.0, -2.0).map(lambda e: 10.0**e)
    thetas = st.one_of(st.floats(0.01, 8.0), tiny) if wishart else st.floats(-8.0, 8.0)
    return draw(models(wishart)), draw(thetas)


def edge_bound(ctx, oracle, u) -> float:
    """Absolute error allowed at the edge ``F(u)``, u a critical point of F."""
    edge = oracle.F(u)
    # The package finds u to about 16 ulp of the scale of the atoms and of sigma (sigma~);
    # at a critical point that moves F by F''(u) delta^2 / 2.
    delta = 16.0 * math.ulp(float(max(abs(t) for t in oracle.t) + math.sqrt(sum(oracle.beta))))
    solved = abs(oracle.F_second(u)) * delta**2 / 2
    if oracle.additive:
        return 1e-14 * (1.0 + abs(edge)) + solved
    # A Wishart edge near 0 is about (1 - cm)^2 / (4 c sum_{t>0} w/t), m = 1 - nu({0}), so
    # the rounding of 1 - nu({0}) and of c m, 2u relative to cm, moves it by 4u cm / |1 - cm|.
    cm = ctx.c * (1.0 - float(ctx.nu.weights[ctx.nu.locations <= MERGE_TOL].sum()))
    rounded = 8.0 * UNIT_ROUNDOFF * cm / abs(1.0 - cm) if cm != ctx.c else 0.0
    return (1e-14 + rounded) * abs(edge) + solved


def density_bound(scale: float, dist) -> float:
    """Relative error allowed at distance ``dist`` from the nearest edge."""
    return 1e-12 + 16.0 * math.ulp(scale) / float(dist)


@pytest.mark.parametrize("wishart", [False, True], ids=["additive", "wishart"])
def test_oracle_reproduces_the_closed_forms(wishart):
    # The semicircle of variance sigma2 and the Marchenko-Pastur law of ratio c.
    for scale in (0.25, 1.0, 2.0):
        oracle = Oracle([(0.0, 1.0)], sigma2=scale) if not wishart else Oracle([(1.0, 1.0)], c=scale)
        r = math.sqrt(scale)
        want = [-2.0 * r, 2.0 * r] if not wishart else [(1.0 - r) ** 2, (1.0 + r) ** 2]
        assert [float(e) for e in oracle.edges()] == pytest.approx(want, rel=1e-15, abs=1e-15)
        for x in (0.3 * want[0] + 0.7 * want[1], 0.5 * (want[0] + want[1])):
            f = semicircle_density(x, scale) if not wishart else mp_density(scale, x)
            assert float(oracle.density(x)) == pytest.approx(f, rel=1e-13)


@settings(ORACLE, max_examples=300)
@given(case=spiked_models())
# (1 - W) theta / rho rounds to 1.000000000000015 here; its value is 0.99999999999999858.
@example(case=(model(AtomicMeasure([(2.5494894870694704, 1.0)]), 0.9851945751306176, True), 5.4219911752228524e-17))
def test_spikes_match_the_oracle(case):
    (nu, ctx, mod, oracle), theta = case
    assume(np.abs(theta - nu.locations).min() > 1e-3)  # also the domain rule, more than 1e-12 from an atom
    detached = oracle.F_prime(theta)
    assume(abs(detached) > PEAK_MARGIN)
    verdict = mod.classify_spike(ctx, theta)
    assert verdict.is_outlier == (detached > 0)
    want = oracle.spike(theta)
    names = ("criterion", "rho", "tau") if verdict.is_outlier else ("criterion",)
    for name in names:
        value, terms = want[name]
        got = verdict.criterion_value if name == "criterion" else getattr(verdict, name)
        assert abs(got - value) <= 8 * UNIT_ROUNDOFF * terms, name


@ORACLE
@given(data=st.data(), wishart=st.booleans())
def test_support_and_density_match_the_oracle(data, wishart):
    _, ctx, mod, oracle = data.draw(models(wishart))
    assume(all(abs(peak) > PEAK_MARGIN for peak in oracle.gap_peaks()))
    critical = sorted(oracle.critical_points(), key=oracle.F)
    edges = [oracle.F(u) for u in critical]
    got = [e for interval in mod.support(ctx).intervals for e in interval]
    assert len(got) == len(edges)
    for e, want, u in zip(got, edges, critical):
        assert abs(e - want) <= edge_bound(ctx, oracle, u)

    # Exactly 0 midway across each gap between components, and for Wishart below the support.
    mids = [float((a + b) / 2) for a, b in zip(edges[1:-1:2], edges[2::2])]
    if wishart and edges[0] > 0:
        mids.append(float(edges[0] / 2))
    assert mod.density(ctx, mids).tolist() == [0.0] * len(mids)

    # Inside one component: a point anywhere, and one within 1e-11 of each end.
    i = data.draw(st.integers(0, len(edges) // 2 - 1))
    lo, hi = edges[2 * i], edges[2 * i + 1]
    xs = [float(lo + data.draw(st.floats(0.0, 1.0)) * (hi - lo))]
    for end, inward in ((lo, 1), (hi, -1)):
        xs.append(float(end + inward * 1e-11 * 2.0 ** -data.draw(st.integers(0, 14))))
    sigma = math.sqrt(ctx.sigma2) if not wishart else 0.0
    shift = oracle.shift() if wishart else None
    for x in xs:
        if not lo < x < hi or (wishart and x < shift / 8):
            continue
        dist = min(abs(x - e) for e in edges)
        want = oracle.density(x)
        f, = mod.density(ctx, [x])
        bound = density_bound(x if wishart else abs(x) + sigma, dist)
        assert abs(f - want) <= bound * want, (x, f, float(want), float(dist))


@ORACLE
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(data=st.data(), wishart=st.booleans())
def test_density_above_the_axis_matches_the_oracle(data, wishart):
    # Above the axis the density is smooth on the scale eps, so an argument error moves it
    # by that over |x - edge + i eps| instead of over the distance to the edge.
    _, ctx, mod, oracle = data.draw(models(wishart))
    assume(all(abs(peak) > PEAK_MARGIN for peak in oracle.gap_peaks()))
    edges = [float(e) for e in oracle.edges()]
    sigma = math.sqrt(ctx.sigma2) if not wishart else 0.0
    scale = max(abs(e) for e in edges) + sigma
    eps = 10.0 ** data.draw(st.floats(-12.0, 0.0)) * scale
    # One point anywhere around the support, and one 1e-9 to 1e-6 x scale on each side of each edge.
    lo, hi = edges[0], edges[-1]
    xs = [lo + data.draw(st.floats(-0.1, 1.1)) * (hi - lo)]
    for e in edges:
        xs += [e + side * 10.0 ** data.draw(st.floats(-9.0, -6.0)) * scale for side in (-1, 1)]
    shift = float(oracle.shift()) if wishart else None
    for x, f in zip(xs, mod.density(ctx, xs, eps)):
        if wishart and x < shift / 8:
            continue
        want = oracle.density(x, eps)
        dist = math.hypot(min(abs(x - e) for e in edges), eps)
        bound = density_bound(x if wishart else abs(x) + sigma, dist)
        assert abs(f - want) <= bound * want, (x, eps, f, float(want))


def test_density_near_an_edge_above_the_axis_matches_the_oracle():
    # 4.5e-11 inside an edge at eps = 4.5e-6: a damped complex Newton left a residual of 1.3e-3.
    nu = AtomicMeasure([
        (-0.06918446025852634, 0.4198547540153876), (-0.048804927059277865, 0.31154511704250704),
        (0.0570156841209113, 0.16415628865040865), (0.11210397125689713, 0.10444384029169683),
    ])
    sigma2, x, eps = 0.0035898389601507646, 0.031020387567125933, 4.541656759329934e-06
    f, = free_additive.density(free_additive.AdditiveContext(nu, sigma2), [x], eps)
    oracle = Oracle(nu.atoms, sigma2=sigma2)
    dist = math.hypot(min(abs(x - e) for e in oracle.edges()), eps)
    want = oracle.density(x, eps)
    assert abs(f - want) <= density_bound(abs(x) + math.sqrt(sigma2), dist) * want


# Wishart densities near x = 0, which the solver at x - s gets wrong.
ITEM_3 = [
    pytest.param(0.999999, 2.502501251394704e-13, 0.0, id="c=0.999999-eps=0"),
    pytest.param(0.9999, 2.5026251328203084e-09, 0.0, id="c=0.9999-eps=0"),
    pytest.param(0.3, 0.0, 1e-9, id="c=0.3-eps=1e-9-x=0"),
]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("c, x, eps", ITEM_3)
def test_wishart_density_near_zero_matches_the_oracle(c, x, eps):
    nu = AtomicMeasure([(1.0, 1.0)])
    oracle = Oracle(nu.atoms, c=c)
    want = oracle.density(x, eps)
    f, = free_multiplicative.density(free_multiplicative.MultiplicativeContext(nu, c), [x], eps)
    dist = min(abs(x - e) for e in oracle.edges())
    assert abs(f - want) <= density_bound(x, dist) * abs(want)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_wishart_lower_edge_near_zero_keeps_its_relative_accuracy():
    # c within 2e-11 of 1: the lower edge, about 1.7e-22, comes out 3.3e-11 relative off.
    nu, c = AtomicMeasure([(2.65821352010089, 1.0)]), 0.999999999983918
    (lo, _), = free_multiplicative.support(free_multiplicative.MultiplicativeContext(nu, c)).intervals
    want = Oracle(nu.atoms, c=c).edges()[0]
    assert abs(lo - want) <= 1e-14 * want
