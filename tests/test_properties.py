"""Randomized invariant suites over the analytic and sampling layers.

Each property runs 100 derandomized examples: monotonicity of the outlier
location maps, the derivative identity tying Z' to W, the two composition
identities between the fixed-point transforms and their real inverses,
the scaled Marchenko-Pastur law of a two-atom nu with an atom at 0, the
spike values against plain sums, the outlier set of nu with up to 30 atoms
against a per-gap scan and bisection, the sign, support and mass of the
limiting density in both families, the Weyl perturbation bound on sampled
additive models, and the Pythagoras bound on per-vector eigenvector
overlaps.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from spikelab import free_additive, free_multiplicative
from spikelab.ensemble import (
    SpikedModelSpec,
    assemble,
    build_perturbation,
    draw_sample,
    overlaps,
    sample_wigner,
)
from spikelab.free_additive import (
    BOUNDARY_TOL,
    AdditiveContext,
    H,
    H_prime,
    outlier_set_intervals as additive_intervals,
    subordination,
)
from spikelab.free_multiplicative import (
    MultiplicativeContext,
    W,
    Z,
    _g,
    classify_spike as classify_mult,
    mass_at_zero,
    outlier_set_intervals as mult_intervals,
    support as mult_support,
)
from spikelab.measure import AtomicMeasure

COMMON = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=(HealthCheck.filter_too_much, HealthCheck.too_slow),
)


@st.composite
def measures(draw, positive=False):
    n = draw(st.integers(1, 4))
    lo = 0.05 if positive else -5.0
    locs = sorted(
        draw(
            st.lists(
                st.floats(lo, 5.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    assume(all(b - a > 1e-3 for a, b in zip(locs, locs[1:])))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return AtomicMeasure(tuple((t, w / total) for t, w in zip(locs, weights)))


def _point_in(data, interval, lo_frac=0.08, hi_frac=0.92):
    """A point comfortably inside an interval, capping unbounded ends."""
    lo, hi = interval
    if math.isinf(lo):
        lo = hi - 2.5
    if math.isinf(hi):
        hi = lo + 2.5
    lo = max(lo, 0.0) if interval[0] == 0.0 else lo
    assume(hi - lo > 1e-5)
    frac = data.draw(st.floats(lo_frac, hi_frac))
    return lo + frac * (hi - lo)


def _pick_interval(data, intervals):
    assume(intervals)
    return intervals[data.draw(st.integers(0, len(intervals) - 1))]


@COMMON
@given(data=st.data())
def test_H_strictly_increasing_on_outlier_set(data):
    nu = data.draw(measures())
    sigma2 = data.draw(st.floats(0.1, 3.0))
    ctx = AdditiveContext(nu, sigma2)
    interval = _pick_interval(data, additive_intervals(ctx))
    u1 = _point_in(data, interval)
    u2 = _point_in(data, interval)
    assume(abs(u2 - u1) > 1e-6)
    a, b = sorted((u1, u2))
    assert H_prime(ctx, a) > 0.0
    assert H_prime(ctx, b) > 0.0
    assert H(ctx, a) < H(ctx, b)


@COMMON
@given(data=st.data())
def test_Z_of_inverse_increasing_on_outlier_set(data):
    nu = data.draw(measures(positive=True))
    c = data.draw(st.floats(0.05, 4.0))
    ctx = MultiplicativeContext(nu, c)
    interval = _pick_interval(data, mult_intervals(ctx))
    u1 = _point_in(data, interval, lo_frac=0.1, hi_frac=0.9)
    u2 = _point_in(data, interval, lo_frac=0.1, hi_frac=0.9)
    assume(min(u1, u2) > 1e-3 and abs(u2 - u1) > 1e-6)
    a, b = sorted((u1, u2))
    assert W(ctx, a) < 1.0
    assert W(ctx, b) < 1.0
    assert Z(ctx, 1.0 / a) < Z(ctx, 1.0 / b)


@COMMON
@given(data=st.data())
def test_Z_derivative_identity_with_W(data):
    nu = data.draw(measures(positive=True))
    c = data.draw(st.floats(0.05, 4.0))
    ctx = MultiplicativeContext(nu, c)
    mag = data.draw(st.floats(0.2, 8.0))
    u = mag if data.draw(st.booleans()) else -mag
    assume(min(abs(u - t) for t, _ in nu.atoms) > 0.05)
    x = 1.0 / u
    assume(min(abs(x - 1.0 / t) for t, _ in nu.atoms) > 0.05)
    h = 1e-6 * max(1.0, abs(x))
    z_prime = (Z(ctx, x + h) - Z(ctx, x - h)) / (2.0 * h)
    expected = u * u * (W(ctx, u) - 1.0)
    assert abs(z_prime - expected) <= 1e-4 * max(1.0, abs(expected))


@COMMON
@given(data=st.data())
def test_subordination_inverts_H(data):
    nu = data.draw(measures())
    sigma2 = data.draw(st.floats(0.1, 3.0))
    ctx = AdditiveContext(nu, sigma2)
    interval = _pick_interval(data, additive_intervals(ctx))
    u = _point_in(data, interval)
    assume(H_prime(ctx, u) > 5e-3)
    z = H(ctx, u)
    omega = subordination(ctx, [complex(z, 1e-9)])[0]
    g = sum(w / (omega - t) for t, w in nu.atoms)
    assert abs((z - sigma2 * g) - u) < 1e-6


@COMMON
@given(data=st.data())
def test_companion_transform_inverts_Z(data):
    nu = data.draw(measures(positive=True))
    c = data.draw(st.floats(0.05, 4.0))
    ctx = MultiplicativeContext(nu, c)
    interval = _pick_interval(data, mult_intervals(ctx))
    u = _point_in(data, interval, lo_frac=0.1, hi_frac=0.9)
    assume(u > 1e-2)
    assume(W(ctx, u) < 1.0 - 5e-3)
    x = 1.0 / u
    z = Z(ctx, x)
    assume(abs(z) > 1e-6)
    g = (1.0 - c) / complex(z, 1e-9) + c * _g(ctx, np.array([complex(z, 1e-9)]))[0]
    # The tiny upper-half-plane shift leaks into Im g with an O(1/Z')
    # amplification; the identity itself lives on the real axis.
    assert abs(g.real - x) < 1e-6


@COMMON
@given(
    p=st.floats(0.05, 0.95),
    t=st.floats(0.1, 10.0),
    c=st.floats(0.1, 8.0),
)
@example(p=0.5, t=3.0, c=2.0)  # c*p = 1: the support reaches 0
def test_atom_at_zero_gives_scaled_marchenko_pastur(p, t, c):
    # nu = p delta_t + (1 - p) delta_0 is t times the law of ratio c*p, with
    # the atom at 0 kept (c*p <= 1) or grown to 1 - 1/c (c*p > 1).
    ctx = MultiplicativeContext(AtomicMeasure(((0.0, 1.0 - p), (t, p))), c)
    ratio = c * p
    (lo, hi), = mult_support(ctx).intervals
    assert abs(lo - t * (1.0 - math.sqrt(ratio)) ** 2) <= 1e-9
    assert abs(hi - t * (1.0 + math.sqrt(ratio)) ** 2) <= 1e-9
    assert abs(mass_at_zero(ctx) - ((1.0 - p) if ratio <= 1.0 else 1.0 - 1.0 / c)) <= 1e-12


@COMMON
@given(data=st.data())
def test_spike_values_equal_plain_sums(data):
    nu = data.draw(measures(positive=True))
    c = data.draw(st.floats(0.05, 4.0))
    theta = data.draw(st.floats(0.01, 12.0))
    assume(nu.distance_to_support(theta) > 1e-6)
    t, w = nu.locations, nu.weights
    crit = c * np.sum(w * t**2 / (theta - t) ** 2)
    verdict = classify_mult(MultiplicativeContext(nu, c), theta)
    assert abs(verdict.criterion_value - crit) <= 1e-12 * crit
    assert verdict.is_outlier == (crit < 1.0 - 1e-12)
    if verdict.is_outlier:
        rho = theta * (1.0 + c * np.sum(w * t / (theta - t)))
        tau = (1.0 - crit) / (rho / theta)
        assert abs(verdict.rho - rho) <= 1e-12 * abs(rho)
        assert abs(verdict.tau - tau) <= 1e-12 * tau


@st.composite
def _spike_list(draw, nu, positive):
    n = draw(st.integers(0, 2))
    lo, hi = (0.1, 8.0) if positive else (-6.0, 6.0)
    thetas = sorted(
        draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True)), reverse=True
    )
    assume(all(a - b > 1e-3 for a, b in zip(thetas, thetas[1:])))
    assume(all(nu.distance_to_support(t) > 0.1 for t in thetas))
    mults = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    return tuple(zip(thetas, mults))


@st.composite
def additive_specs(draw):
    nu = draw(measures())
    spikes = draw(_spike_list(nu, positive=False))
    N = draw(st.integers(8, 24))
    assume(sum(k for _, k in spikes) <= N)
    return SpikedModelSpec(
        kind="additive_wigner",
        nu=nu,
        spikes=spikes,
        N=N,
        seed=draw(st.integers(0, 2**32 - 1)),
        sigma2=draw(st.floats(0.1, 2.0)),
        field=draw(st.sampled_from(("complex_hermitian", "real_symmetric"))),
    )


@st.composite
def sampling_specs(draw):
    kind = draw(st.sampled_from(("additive_wigner", "multiplicative_wishart")))
    positive = kind == "multiplicative_wishart"
    nu = draw(measures(positive=positive))
    spikes = draw(_spike_list(nu, positive=positive))
    assume(spikes)
    N = draw(st.integers(10, 28))
    assume(sum(k for _, k in spikes) <= N)
    common = dict(
        kind=kind, nu=nu, spikes=spikes, N=N, seed=draw(st.integers(0, 2**32 - 1))
    )
    if positive:
        return SpikedModelSpec(c=draw(st.floats(0.25, 2.0)), **common)
    return SpikedModelSpec(sigma2=draw(st.floats(0.1, 2.0)), **common)


@COMMON
@given(spec=additive_specs())
def test_weyl_bound_on_additive_samples(spec):
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    diag, _ = build_perturbation(spec)
    noise = math.sqrt(spec.sigma2) * sample_wigner(spec.N, spec.field, spec.entry_law, rng)
    M = assemble(spec, diag, noise)
    lam_M = np.linalg.eigvalsh(M)[::-1]
    lam_A = np.sort(diag)[::-1]
    assert np.max(np.abs(lam_M - lam_A)) <= np.linalg.norm(noise, 2) + 1e-9


@COMMON
@given(spec=sampling_specs())
def test_per_vector_overlaps_obey_pythagoras(spec):
    sample = draw_sample(spec)
    n_spikes = len(spec.spikes)
    for j in range(n_spikes):
        per_all = [overlaps(sample, j, l)[0] for l in range(n_spikes)]
        for n in range(len(sample.spike_ranks[j])):
            assert -1e-12 <= per_all[j][n] <= 1.0 + 1e-10
            assert sum(per_all[l][n] for l in range(n_spikes)) <= 1.0 + 1e-8


# Gauss-Legendre nodes and weights on [0, pi/2]; 400 nodes left 1.5e-6 of the mass of
# 0.8 delta_1 + 0.2 delta_4 with sigma2 = 3 unaccounted for, 1600 nodes 1e-13.
_PHI, _WQ = np.polynomial.legendre.leggauss(1600)
_PHI, _WQ = np.pi / 4.0 * (_PHI + 1.0), np.pi / 4.0 * _WQ


def _mass(density, ctx, support):
    """Integral of the density over each support interval [a, b], by Gauss-Legendre in phi
    after x = a + (b - a) sin^2(phi), which turns square-root edges into smooth ends."""
    total = 0.0
    for a, b in support.intervals:
        f = np.array([v for _, v in density(ctx, a + (b - a) * np.sin(_PHI) ** 2)])
        total += float(np.sum(_WQ * f * (b - a) * np.sin(2.0 * _PHI)))
    return total


@COMMON
@given(data=st.data())
def test_density_is_positive_exactly_on_the_support_with_unit_mass(data):
    if data.draw(st.booleans()):
        nu = data.draw(measures(positive=True))
        p0 = data.draw(st.sampled_from((0.0, 0.3, 0.7)))
        if p0:
            nu = AtomicMeasure(((0.0, p0),) + tuple((t, (1.0 - p0) * w) for t, w in nu.atoms))
        ctx = MultiplicativeContext(nu, data.draw(st.floats(0.05, 4.0)))
        mod, at_zero = free_multiplicative, mass_at_zero(ctx)
    else:
        ctx = AdditiveContext(data.draw(measures()), data.draw(st.floats(0.1, 3.0)))
        mod, at_zero = free_additive, 0.0
    support = mod.support(ctx)
    lo, hi = support.intervals[0][0], support.intervals[-1][1]
    xs = np.linspace(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), 801)
    f = np.array([v for _, v in mod.density(ctx, xs)])
    assert np.all(f >= 0.0)
    edges = np.array(support.edges())
    away = np.min(np.abs(xs[:, None] - edges), axis=1) > 1e-9 * (1.0 + hi - lo)
    inside = np.array([support.contains(x) for x in xs])
    assert np.array_equal((f > 0.0)[away], inside[away])
    assert abs(_mass(mod.density, ctx, support) + at_zero - 1.0) <= 1e-6



@st.composite
def many_atom_measures(draw):
    """Up to 30 atoms on a narrow or a wide spread, weights over three decades."""
    k = draw(st.integers(1, 30))
    spread = draw(st.sampled_from((1.0, 20.0, 100.0)))
    locs = draw(st.lists(st.floats(-spread, spread), min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    return AtomicMeasure(tuple((t, w / total) for t, w in zip(locs, weights)))


def _bisect_to_resolution(f, a, b, sign_at_a):
    """Plain bisection of f between a and b, never evaluating either end."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        if np.sign(f(mid)) == sign_at_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _scanned_intervals(t, w, sigma2):
    """Outlier intervals gap by gap: H' scanned on a dense grid, ends bisected.

    Also returns, per bounded gap, whether the scan saw H' > BOUNDARY_TOL.
    """

    def hp(u):
        return 1.0 - sigma2 * np.sum(w / (u - t) ** 2)

    def hpp(u):
        return np.sum(w / (u - t) ** 3)

    sigma = math.sqrt(sigma2)
    out = [(-math.inf, _bisect_to_resolution(hp, t[0] - 2.0 * sigma, t[0], 1.0))]
    seen = []
    grid = np.linspace(0.0, 1.0, 2001)[1:-1]
    for tl, tr in zip(t, t[1:]):
        u = tl + (tr - tl) * grid
        scan = 1.0 - sigma2 * np.sum(w / (u[:, None] - t) ** 2, axis=1)
        seen.append(bool(np.max(scan) > BOUNDARY_TOL))
        peak = _bisect_to_resolution(hpp, tl, tr, 1.0)
        if max(hp(peak), np.max(scan)) > BOUNDARY_TOL:
            out.append((_bisect_to_resolution(hp, tl, peak, -1.0), _bisect_to_resolution(hp, peak, tr, 1.0)))
    out.append((_bisect_to_resolution(hp, t[-1], t[-1] + 2.0 * sigma, -1.0), math.inf))
    return out, seen


@settings(COMMON, max_examples=60)
@given(nu=many_atom_measures(), log_sigma2=st.floats(-4.0, 2.0))
def test_outlier_set_matches_a_per_gap_scan(nu, log_sigma2):
    ctx = AdditiveContext(nu, 10.0**log_sigma2)
    t, w = nu.locations, nu.weights
    got = additive_intervals(ctx)
    want, seen = _scanned_intervals(t, w, ctx.sigma2)
    assert len(got) == len(want)
    ends = np.array(got)[np.isfinite(got)]
    assert np.max(np.abs(ends - np.array(want)[np.isfinite(want)])) <= 1e-11
    # A gap where the scan saw H' > BOUNDARY_TOL is never dropped.
    kept = [any(tl < a < tr for a, _ in got) for tl, tr in zip(t, t[1:])]
    assert all(k for k, s in zip(kept, seen) if s)
