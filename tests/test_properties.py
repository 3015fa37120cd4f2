"""Randomized invariant suites over the analytic and sampling layers.

Each property runs 100 derandomized examples: monotonicity of the outlier
locations on the outlier set, the derivative identity tying Z' to W there,
the two composition identities between the fixed-point transforms and
their real inverses,
the scaled Marchenko-Pastur law of a two-atom nu with an atom at 0, the
support of both families as the images of consecutive outlier-set ends with
every gap wider than 1e-12, the Wishart density above the axis against
-Im g / pi, the spike values against plain sums, the outlier set of nu with
up to 30 atoms against a per-gap scan and bisection, the sign, support and
mass of the limiting density in both families, the Weyl perturbation bound
on sampled additive models, and the Pythagoras bound on per-vector
eigenvector overlaps.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from oracles import vector_overlaps
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
    classify_spike as classify_add,
    outlier_set_intervals as additive_intervals,
    subordination,
    support as additive_support,
)
from spikelab.free_multiplicative import (
    MultiplicativeContext,
    classify_spike as classify_mult,
    mass_at_zero,
    outlier_set_intervals as mult_intervals,
    support as mult_support,
)
from spikelab.measure import MERGE_TOL, AtomicMeasure
from test_free_multiplicative import wishart_g

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
    a, b = (classify_add(ctx, u) for u in sorted((u1, u2)))
    assert a.criterion_value > 0.0
    assert b.criterion_value > 0.0
    assert a.rho < b.rho


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
    a, b = (classify_mult(ctx, u) for u in sorted((u1, u2)))
    assert a.criterion_value < 1.0
    assert b.criterion_value < 1.0
    assert a.rho < b.rho


@COMMON
@given(data=st.data())
def test_Z_derivative_identity_with_W(data):
    # Z'(1/u) = u^2 (W(u) - 1) on the outlier set, where classify_spike gives Z(1/u) and W(u).
    nu = data.draw(measures(positive=True))
    c = data.draw(st.floats(0.05, 4.0))
    ctx = MultiplicativeContext(nu, c)
    u = _point_in(data, _pick_interval(data, mult_intervals(ctx)), lo_frac=0.1, hi_frac=0.9)
    assume(0.2 <= u <= 8.0)
    assume(min(abs(u - t) for t, _ in nu.atoms) > 0.05)
    x = 1.0 / u
    assume(min(abs(x - 1.0 / t) for t, _ in nu.atoms) > 0.05)
    h = 1e-6 * max(1.0, abs(x))
    above, below = (classify_mult(ctx, 1.0 / (x + sign * h)) for sign in (1.0, -1.0))
    assume(above.is_outlier and below.is_outlier)
    z_prime = (above.rho - below.rho) / (2.0 * h)
    expected = u * u * (classify_mult(ctx, u).criterion_value - 1.0)
    assert abs(z_prime - expected) <= 1e-4 * max(1.0, abs(expected))


@COMMON
@given(data=st.data())
def test_subordination_inverts_H(data):
    nu = data.draw(measures())
    sigma2 = data.draw(st.floats(0.1, 3.0))
    ctx = AdditiveContext(nu, sigma2)
    interval = _pick_interval(data, additive_intervals(ctx))
    u = _point_in(data, interval)
    verdict = classify_add(ctx, u)
    assume(verdict.criterion_value > 5e-3)
    z = verdict.rho
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
    verdict = classify_mult(ctx, u)
    assume(verdict.criterion_value < 1.0 - 5e-3)
    x = 1.0 / u
    z = verdict.rho
    assume(abs(z) > 1e-6)
    g = (1.0 - c) / complex(z, 1e-9) + c * wishart_g(ctx, np.array([complex(z, 1e-9)]))[0]
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


def _consecutive_pairs(images):
    """The images of the finite ends paired as (e1, e2), (e3, e4), ..., kept where wider than 1e-12,
    once every gap (e2, e3), (e4, e5), ... no wider than 1e-12 is closed by dropping its ends."""
    ends = [images[0]]
    for a, b in zip(images[1:-1:2], images[2::2]):
        if b > a + 1e-12:
            ends += [a, b]
    ends.append(images[-1])
    return [(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if hi > lo + 1e-12]


def _apart(intervals):
    """Whether each gap between consecutive support intervals is wider than 1e-12."""
    return all(lo > hi + 1e-12 for (_, hi), (lo, _) in zip(intervals, intervals[1:]))


def _finite_ends(ctx):
    return np.array(additive_intervals(ctx)).ravel()[1:-1]


@COMMON
@given(nu=measures(), sigma2=st.floats(0.01, 10.0))
@example(nu=AtomicMeasure(((0.0, 1.0), (5.0, 1e-30))), sigma2=1.0)  # the pair at 5 is 4e-15 wide
# The gap at 0 closes at sigma2 = 1/4; here its image is -2.4e-17 wide, and it is closed.
@example(nu=AtomicMeasure(((-0.5, 0.5), (0.5, 0.5))), sigma2=0.24999999999749994)
def test_additive_support_lies_between_h_images_of_consecutive_ends(nu, sigma2):
    # H maps each outlier interval onto a gap of the limit in order, so support interval i
    # is [H(e_2i+1), H(e_2i+2)] over the finite ends e of the outlier set.
    ctx = AdditiveContext(nu, sigma2)
    u = _finite_ends(ctx)
    h = u + sigma2 * np.array([sum(w / (x - t) for t, w in nu.atoms) for x in u])
    got = additive_support(ctx).intervals
    assert got == tuple(_consecutive_pairs(h.tolist()))
    assert _apart(got)


@COMMON
@given(
    nu=measures(positive=True),
    zero=st.one_of(st.just(0.0), st.floats(0.05, 0.6)),
    c=st.floats(0.05, 5.0),
)
@example(nu=AtomicMeasure(((1.0, 1.0),)), zero=0.2, c=3.0)  # c m = 2.4 > 1
@example(nu=AtomicMeasure(((0.7, 1.0),)), zero=0.5, c=2.0)  # c m = 1: Z(1/e_1) = -3.5e-32, cut to 0
@example(nu=AtomicMeasure(((1.0, 1.0), (5.0, 1e-30))), zero=0.0, c=0.1)
@example(nu=AtomicMeasure(((1.0, 0.5), (4.0, 0.5))), zero=0.0, c=0.41276509136823614)  # gap closing
def test_wishart_support_lies_between_z_images_of_consecutive_ends_cut_at_zero(nu, zero, c):
    # Z(1/u) = u (1 - c m + c u sum_{t>0} w / (u - t)), m = 1 - nu({0}), maps each outlier
    # interval of the size-biased model onto a gap in order; the support keeps hi > 0, cut at 0.
    if zero:
        nu = AtomicMeasure(((0.0, zero),) + tuple((t, w * (1.0 - zero)) for t, w in nu.atoms))
    ctx = MultiplicativeContext(nu, c)
    positive = [(t, w) for t, w in nu.atoms if t > 0.0]
    u = _finite_ends(ctx._biased)
    cm = c * (1.0 - float(nu.weights[nu.locations <= MERGE_TOL].sum()))
    z = u * (1.0 - cm + c * u * np.array([sum(w / (x - t) for t, w in positive) for x in u]))
    want = tuple((max(lo, 0.0), hi) for lo, hi in _consecutive_pairs(z.tolist()) if hi > 0.0)
    got = mult_support(ctx).intervals
    assert got == want
    assert all(lo >= 0.0 and hi > 0.0 for lo, hi in got)
    assert _apart(got)


@COMMON
@given(
    nu=measures(positive=True),
    zero=st.sampled_from((0.0, 0.3, 0.7)),
    c=st.floats(0.05, 5.0),
    xs=st.lists(st.floats(-2.0, 60.0), min_size=1, max_size=6),
    log_eps=st.floats(-9.0, 0.0),
)
def test_wishart_density_above_the_axis_is_minus_im_g_over_pi(nu, zero, c, xs, log_eps):
    # density's (x v T + eps (1 + R)) / (pi |z|^2) against -Im g / pi with the tests' own
    # g = (omega/z) sum w / (omega - t), at the same omega; also at x <= 0 and below s/8,
    # where tests/test_oracles.py does not look.  T is a sum of non-negative terms, and
    # 1 + R = Re(omega sum w / (omega - t)) and g are within a few ulps of |omega| sum w /
    # |omega - t|, so each side rounds to a few ulps of (|x| v T / |z| + |omega| sum w /
    # |omega - t|) / (pi |z|), eps <= |z|: 16 ulps of that bound the gap.
    if zero:
        nu = AtomicMeasure(((0.0, zero),) + tuple((t, w * (1.0 - zero)) for t, w in nu.atoms))
    ctx, eps = MultiplicativeContext(nu, c), 10.0**log_eps
    x = np.array(xs + [0.0, -1.0, ctx._shift / 16.0])
    f = np.array([v for _, v in free_multiplicative.density(ctx, x, eps)])
    z = x + 1j * eps
    want = -wishart_g(ctx, z).imag / math.pi
    omega = z - ctx._shift if ctx._biased is None else subordination(ctx._biased, z - ctx._shift)
    t, w = nu.locations, nu.weights
    d = np.abs(omega[:, None] - t)
    tilt = np.abs(x) * omega.imag * (w * t / d**2).sum(axis=1) / np.abs(z)
    scale = (tilt + np.abs(omega) * (w / d).sum(axis=1)) / (math.pi * np.abs(z))
    assert np.all(np.abs(f - want) <= 16.0 * np.finfo(float).eps * scale)


@COMMON
@given(data=st.data())
def test_spike_values_equal_plain_sums(data):
    nu = data.draw(measures(positive=True))
    c = data.draw(st.floats(0.05, 4.0))
    theta = data.draw(st.floats(0.01, 12.0))
    assume(np.abs(theta - nu.locations).min() > 1e-6)
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
    assume(all(np.abs(t - nu.locations).min() > 0.1 for t in thetas))
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
        per_all = [vector_overlaps(sample, j, l) for l in range(n_spikes)]
        for n in range(len(sample.spike_ranks[j])):
            assert -1e-12 <= per_all[j][n] <= 1.0 + 1e-10
            assert sum(per_all[l][n] for l in range(n_spikes)) <= 1.0 + 1e-8
        # overlaps sums each row of per_all over the block's vectors.
        assert overlaps(sample, j) == [sum(per) for per in per_all]


# Gauss-Legendre nodes and weights on [-1, 1] for each panel of the adaptive rule below.  A
# fixed rule does not converge on every model drawn: 1600 nodes on [0, pi/2] left 2.5e-6 of the
# mass of the first Wishart example below, and four panels of them 1.7e-6 of the second, whose
# density dips to 0.0023 at x = 2.44, where a gap of the support nearly opens.
_X, _W = np.polynomial.legendre.leggauss(64)


def _mass(density, ctx, support):
    """Integral of the density over each support interval [a, b], by Gauss-Legendre in phi
    after x = a + (b - a) sin^2(phi), which turns square-root edges into smooth ends.  A panel
    of [0, pi/2] is halved until its halves agree with it to 1e-11."""

    def panels(a, b, lo, hi):
        phi = (hi + lo)[:, None] / 2.0 + (hi - lo)[:, None] / 2.0 * _X
        f = np.array([v for _, v in density(ctx, a + (b - a) * np.sin(phi.ravel()) ** 2)])
        g = f.reshape(phi.shape) * (b - a) * np.sin(2.0 * phi)
        return (hi - lo) / 2.0 * (g @ _W)

    total = 0.0
    for a, b in support.intervals:
        lo, hi = np.array([0.0]), np.array([np.pi / 2.0])
        whole = panels(a, b, lo, hi)
        for _ in range(40):
            if not lo.size:
                break
            mid = (lo + hi) / 2.0
            left, right = np.split(panels(a, b, np.r_[lo, mid], np.r_[mid, hi]), 2)
            done = np.abs(left + right - whole) <= 1e-11
            total += float((left + right)[done].sum())
            keep = ~done
            lo, hi = np.r_[lo[keep], mid[keep]], np.r_[mid[keep], hi[keep]]
            whole = np.r_[left[keep], right[keep]]
        total += float(whole.sum())
    return total


@st.composite
def limits(draw):
    """An additive limit, or a Wishart one whose nu may carry an atom at 0."""
    if not draw(st.booleans()):
        return AdditiveContext(draw(measures()), draw(st.floats(0.1, 3.0)))
    nu = draw(measures(positive=True))
    p0 = draw(st.sampled_from((0.0, 0.3, 0.7)))
    if p0:
        nu = AtomicMeasure(((0.0, p0),) + tuple((t, (1.0 - p0) * w) for t, w in nu.atoms))
    return MultiplicativeContext(nu, draw(st.floats(0.05, 4.0)))


@COMMON
@given(ctx=limits())
@example(
    ctx=MultiplicativeContext(
        AtomicMeasure(((0.0, 0.7), (0.140625, 0.1), (0.25, 0.05), (0.328125, 0.15))), 0.40625
    )
)
@example(
    ctx=MultiplicativeContext(
        AtomicMeasure(((0.2734375, 0.26075619), (0.390625, 0.66753585), (3.9375, 0.07170796))),
        3.54296875,
    )
)
def test_density_is_positive_exactly_on_the_support_with_unit_mass(ctx):
    if isinstance(ctx, MultiplicativeContext):
        mod, at_zero = free_multiplicative, mass_at_zero(ctx)
    else:
        mod, at_zero = free_additive, 0.0
    support = mod.support(ctx)
    lo, hi = support.intervals[0][0], support.intervals[-1][1]
    xs = np.linspace(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), 801)
    f = np.array([v for _, v in mod.density(ctx, xs)])
    assert np.all(f >= 0.0)
    signed = support.signed_distance(xs)
    away = np.abs(signed) > 1e-9 * (1.0 + hi - lo)
    assert np.array_equal((f > 0.0)[away], (signed < 0.0)[away])
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
