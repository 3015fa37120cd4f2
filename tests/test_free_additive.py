"""Oracle tests for the deformed-Wigner (additive) analytics."""

import math
import re

import numpy as np
import pytest

from oracles import Oracle, semicircle_density, semicircle_g
from spikelab import free_additive, free_multiplicative
from spikelab.errors import DomainError, NumericalError, SpecError
from spikelab.free_additive import (
    AdditiveContext,
    classify_spike,
    density,
    outlier_set_intervals,
    subordination,
    support,
)
from spikelab.free_multiplicative import MultiplicativeContext
from spikelab.measure import AtomicMeasure
from spikelab.rootfind import newton
from spikelab.verdicts import SpikeVerdict, SupportIntervals

TWO_POINT = AtomicMeasure([(1.0, 0.5), (-1.0, 0.5)])
PAPER = AdditiveContext(TWO_POINT, 0.5)
DELTA0 = AtomicMeasure([(0.0, 1.0)])
DELTA1 = AtomicMeasure([(1.0, 1.0)])


def deformed_g(ctx, z):
    """Stieltjes transform ``g_nu(omega(z))`` of the deformed limit, summed here."""
    omega = subordination(ctx, [z])[0]
    return complex(sum(w / (omega - t) for t, w in ctx.nu.atoms))


# roots of H' = 0 for the two-point example: u^2 = (5 +/- sqrt(17))/4
U_INNER = math.sqrt((5.0 - math.sqrt(17.0)) / 4.0)
U_OUTER = math.sqrt((5.0 + math.sqrt(17.0)) / 4.0)


def paper_H(u):
    return u + u / (2.0 * (u * u - 1.0))


class TestContext:
    def test_sigma2_must_be_positive(self):
        with pytest.raises(SpecError):
            AdditiveContext(TWO_POINT, 0.0)
        with pytest.raises(SpecError):
            AdditiveContext(TWO_POINT, -1.0)

    @pytest.mark.parametrize("value", [True, "0.5", None, math.inf])
    def test_sigma2_and_c_must_be_finite_numbers(self, value):
        with pytest.raises(SpecError, match="^sigma2 must be "):
            AdditiveContext(TWO_POINT, value)
        with pytest.raises(SpecError, match="^c must be "):
            MultiplicativeContext(DELTA1, value)


class TestH:
    # rho = H(theta) = theta + sigma2 sum w / (theta - t), reported where the spike detaches.
    def test_paper_value_at_two(self):
        assert classify_spike(PAPER, 2.0).rho == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_paper_value_at_zero(self):
        assert classify_spike(PAPER, 0.0).rho == pytest.approx(0.0, abs=1e-12)

    def test_delta0_is_theta_plus_sigma2_over_theta(self):
        ctx = AdditiveContext(DELTA0, 1.0)
        for theta in (2.0, -1.5):
            assert classify_spike(ctx, theta).rho == pytest.approx(theta + 1.0 / theta, abs=1e-12)
        # theta = 0.1 sticks (H' = -99), so only the oracle's H is left to give 0.1 + 10.
        assert classify_spike(ctx, 0.1).rho is None
        assert float(Oracle(DELTA0.atoms, sigma2=1.0).F(0.1)) == pytest.approx(10.1, abs=1e-12)

    def test_atom_rejected(self):
        with pytest.raises(DomainError, match="within 1e-12 of an atom"):
            classify_spike(PAPER, 1.0)
        with pytest.raises(DomainError, match="within 1e-12 of an atom"):
            classify_spike(PAPER, -1.0 + 1e-13)


class TestHPrime:
    # criterion_value = H'(theta) = 1 - sigma2 sum w / (theta - t)^2, outlier or not.
    def test_paper_value_at_two(self):
        assert classify_spike(PAPER, 2.0).criterion_value == pytest.approx(13.0 / 18.0, abs=1e-12)

    def test_paper_value_at_zero(self):
        assert classify_spike(PAPER, 0.0).criterion_value == pytest.approx(0.5, abs=1e-12)

    def test_derived_value_at_three_halves(self):
        assert classify_spike(PAPER, 1.5).criterion_value == pytest.approx(-1.0 / 25.0, abs=1e-12)

    def test_atom_rejected(self):
        with pytest.raises(DomainError):
            classify_spike(PAPER, -1.0)

    def test_concavity_second_difference_in_gap(self):
        # H' is strictly concave between consecutive atoms.
        a, b, c = (classify_spike(PAPER, u).criterion_value for u in (0.2, 0.35, 0.5))
        assert a - 2.0 * b + c < 0.0


class TestClassifySpike:
    def test_paper_outlier_at_two(self):
        v = classify_spike(PAPER, 2.0, 1)
        assert v.is_outlier
        assert v.rho == pytest.approx(7.0 / 3.0, abs=1e-12)
        assert v.tau == pytest.approx(13.0 / 18.0, abs=1e-12)
        assert v.criterion_value == pytest.approx(13.0 / 18.0, abs=1e-12)

    def test_paper_sticking_at_three_halves(self):
        v = classify_spike(PAPER, 1.5, 1)
        assert not v.is_outlier
        assert v.rho is None and v.tau is None
        assert v.criterion_value == pytest.approx(-0.04, abs=1e-12)

    def test_boundary_counts_as_sticking(self):
        ctx = AdditiveContext(DELTA0, 1.0)
        v = classify_spike(ctx, 1.0, 1)
        assert not v.is_outlier

    def test_spike_on_atom_rejected(self):
        with pytest.raises(DomainError):
            classify_spike(PAPER, 1.0, 1)

    def test_middle_outlier(self):
        v = classify_spike(PAPER, 0.0, 1)
        assert v.is_outlier
        assert v.rho == pytest.approx(0.0, abs=1e-12)
        assert v.tau == pytest.approx(0.5, abs=1e-12)


class TestOutlierSetIntervals:
    def test_delta0(self):
        ivals = outlier_set_intervals(AdditiveContext(DELTA0, 1.0))
        assert len(ivals) == 2
        (a1, b1), (a2, b2) = ivals
        assert a1 == -math.inf and b2 == math.inf
        assert b1 == pytest.approx(-1.0, abs=1e-9)
        assert a2 == pytest.approx(1.0, abs=1e-9)

    def test_shifted_single_atom(self):
        a, sigma = 2.0, 0.5
        ctx = AdditiveContext(AtomicMeasure([(a, 1.0)]), sigma * sigma)
        ivals = outlier_set_intervals(ctx)
        assert ivals[0][1] == pytest.approx(a - sigma, abs=1e-9)
        assert ivals[1][0] == pytest.approx(a + sigma, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_noise_below_float_resolution_never_touches_an_atom(self):
        # sigma = 1e-17 is below half an ulp of the atoms, so t_1 - sigma rounds to t_1.
        ivals = outlier_set_intervals(AdditiveContext(TWO_POINT, 1e-34))
        (_, b1), (a2, b2), (a3, _) = ivals
        assert b1 == math.nextafter(-1.0, -2.0) and a3 == math.nextafter(1.0, 2.0)
        assert -1.0 < a2 <= -1.0 + 1e-15 and 1.0 - 1e-15 <= b2 < 1.0

    def test_paper_example_three_intervals(self):
        ivals = outlier_set_intervals(PAPER)
        assert len(ivals) == 3
        (l_lo, l_hi), (m_lo, m_hi), (r_lo, r_hi) = ivals
        assert l_lo == -math.inf and r_hi == math.inf
        assert l_hi == pytest.approx(-U_OUTER, abs=1e-9)
        assert m_lo == pytest.approx(-U_INNER, abs=1e-9)
        assert m_hi == pytest.approx(U_INNER, abs=1e-9)
        assert r_lo == pytest.approx(U_OUTER, abs=1e-9)
        # one contains 0, one contains 2, none contains 3/2
        assert m_lo < 0.0 < m_hi
        assert r_lo < 2.0
        assert not any(lo < 1.5 < hi for lo, hi in ivals)


class TestSupport:
    def test_semicircle_support(self):
        for sigma in (1.0, 0.7):
            ctx = AdditiveContext(DELTA0, sigma * sigma)
            sup = support(ctx)
            assert len(sup.intervals) == 1
            lo, hi = sup.intervals[0]
            assert lo == pytest.approx(-2.0 * sigma, abs=1e-8)
            assert hi == pytest.approx(2.0 * sigma, abs=1e-8)

    def test_shift_invariance(self):
        a, sigma = 1.3, 0.6
        ctx = AdditiveContext(AtomicMeasure([(a, 1.0)]), sigma * sigma)
        (lo, hi), = support(ctx).intervals
        assert lo == pytest.approx(a - 2.0 * sigma, abs=1e-8)
        assert hi == pytest.approx(a + 2.0 * sigma, abs=1e-8)

    def test_paper_example_two_symmetric_components(self):
        sup = support(PAPER)
        assert len(sup.intervals) == 2
        (a1, b1), (a2, b2) = sup.intervals
        e_in = paper_H(U_INNER)
        e_out = paper_H(U_OUTER)
        assert a1 == pytest.approx(-e_out, abs=1e-8)
        assert b1 == pytest.approx(-e_in, abs=1e-8)
        assert a2 == pytest.approx(e_in, abs=1e-8)
        assert b2 == pytest.approx(e_out, abs=1e-8)

    def test_a_component_no_wider_than_1e_12_is_dropped(self):
        # The atom at 5 of weight 1e-30 spreads over about 4 sigma sqrt(w) = 4e-15.
        ctx = AdditiveContext(AtomicMeasure(((0.0, 1.0), (5.0, 1e-30))), 1.0)
        assert len(outlier_set_intervals(ctx)) == 3
        assert support(ctx).intervals == ((-2.0, 2.0),)

    def test_a_gap_no_wider_than_1e_12_is_closed(self):
        # For atoms at -1/2 and 1/2 the gap at 0 closes at sigma2 = 1/4.  At 1/4 (1 - 1e-11) the
        # outlier set still has an interval (-9.1e-7, 9.1e-7) there, but H maps its ends to
        # +1.2e-17 and -1.2e-17: the gap is closed and the two components merge into one.
        ctx = AdditiveContext(AtomicMeasure(((-0.5, 0.5), (0.5, 0.5))), 0.24999999999749994)
        assert len(outlier_set_intervals(ctx)) == 3
        assert support(ctx).intervals == ((-1.2990381056723277, 1.2990381056723277),)

    def test_outlier_location_is_off_support(self):
        sup = support(PAPER)
        assert np.all(sup.signed_distance([7.0 / 3.0, 0.0]) > 0.0)

    def test_signed_distance_is_negative_on_the_closed_support(self):
        sup = SupportIntervals(((0.0, 0.0), (1.0, 2.0), (3.0, 5.0)))
        xs = [-1.0, 0.0, 0.5, 1.0, 1.25, 2.0, 2.75, 3.0, 4.5, 5.0, 6.0]
        want = [1.0, 0.0, 0.5, 0.0, -0.25, 0.0, 0.25, 0.0, -0.5, 0.0, 1.0]
        got = sup.signed_distance(xs)
        assert got.tolist() == want
        # A lower edge counts as inside (-0.0), an upper edge and [0, 0] as outside (+0.0).
        assert np.signbit(got).tolist() == [x in (1.0, 1.25, 3.0, 4.5) for x in xs]
        assert sup.signed_distance(np.full((2, 3), 1.5)).shape == (2, 3)
        assert SupportIntervals(()).signed_distance([0.0, 1.0]).tolist() == [np.inf, np.inf]


@pytest.mark.parametrize("make, message", [
    pytest.param(
        lambda: SpikeVerdict(2.0, 1, False, 2.5, 0.5, 0.5),
        "rho and tau must be present iff the spike is an outlier", id="limits_of_a_sticking_spike",
    ),
    pytest.param(
        lambda: SupportIntervals(((2.0, 1.0),)), r"support interval \[2.0, 1.0\] is inverted",
        id="inverted_interval",
    ),
    pytest.param(
        lambda: SupportIntervals(((0.0, 2.0), (1.0, 3.0))),
        "support intervals must be disjoint and sorted", id="overlapping_intervals",
    ),
])
def test_the_result_types_refuse_inconsistent_fields(make, message):
    with pytest.raises(SpecError, match=f"^{message}$"):
        make()


class TestSolverWork:
    """Evaluations of f in each bracketed Newton that ``support`` runs, on the few-atom models
    of the benchmark's ``theory`` workload: more steps fail here, not only on the benchmark."""

    MODELS = {
        "readme": (free_additive, PAPER, [1, 5]),
        "semicircle": (free_additive, AdditiveContext(DELTA0, 1.0), [1]),
        "mp_c0.5": (free_multiplicative, MultiplicativeContext(DELTA1, 0.5), [1]),
        "mp_c2": (free_multiplicative, MultiplicativeContext(DELTA1, 2.0), [1]),
        "two_atoms_c0.3": (
            free_multiplicative,
            MultiplicativeContext(AtomicMeasure([(1.0, 0.5), (4.0, 0.5)]), 0.3),
            [1, 6],
        ),
    }

    @pytest.mark.parametrize("name", MODELS)
    def test_evaluations_per_solve(self, monkeypatch, name):
        # One atom: no bounded gap, so no peak solve, and its ends t -+ sigma are exact
        # at their lone-atom starts.  Two atoms: one peak evaluation, then the ends.
        mod, ctx, expected = self.MODELS[name]
        counts = []

        def counting(f, *args):
            counts.append(0)

            def g(u):
                counts[-1] += 1
                return f(u)

            return newton(g, *args)

        monkeypatch.setattr(free_additive, "newton", counting)
        mod.support(ctx)
        assert counts == expected


class TestSubordinatedG:
    def test_delta0_at_2i(self):
        g = deformed_g(AdditiveContext(DELTA0, 1.0), 2j)
        assert g == pytest.approx(1j * (1.0 - math.sqrt(2.0)), abs=1e-10)

    def test_matches_shifted_semicircle_on_grid(self):
        a, sigma2 = 1.2, 0.5
        ctx = AdditiveContext(AtomicMeasure([(a, 1.0)]), sigma2)
        for re in np.linspace(-2.5, 4.5, 15):
            for im in (0.3, 1.0, 2.5):
                z = complex(re, im)
                got = deformed_g(ctx, z)
                want = semicircle_g(z - a, sigma2)
                assert abs(got - want) < 1e-11

    def test_lower_half_plane_value(self):
        g = deformed_g(PAPER, 0.4 + 0.05j)
        assert g.imag < 0.0

    def test_inverse_relation_at_outlier_image(self):
        # F(z) = z - sigma2 * g(z) approaches u = 2 at z = H(2) + i 0+
        z = 7.0 / 3.0 + 1e-7j
        f = z - 0.5 * deformed_g(PAPER, z)
        assert abs(f - 2.0) < 1e-3

    def test_paper_example_matches_the_cubic_root(self):
        # For nu = (delta_1 + delta_-1)/2, omega solves (omega - z)(omega^2 - 1) + sigma2 omega = 0;
        # the subordination root is the one above z.
        for eps in (1e-6, 1e-3, 0.1, 1.0):
            for x in np.linspace(-3.0, 3.0, 61):
                z = complex(x, eps)
                roots = np.roots([1.0, -z, 0.5 - 1.0, z])
                omega = max(roots, key=lambda r: r.imag)
                want = 0.5 * (1.0 / (omega - 1.0) + 1.0 / (omega + 1.0))
                assert abs(deformed_g(PAPER, z) - want) <= 1e-11 * abs(want)

    def test_residual_guard_raises(self, monkeypatch):
        monkeypatch.setattr(free_additive, "RESIDUAL_TOL", -1.0)
        with pytest.raises(NumericalError, match="residual"):
            subordination(PAPER, [0.3 + 1e-9j])

    @pytest.mark.filterwarnings("error")
    def test_a_non_finite_omega_is_refused_on_and_above_the_axis(self):
        # At sigma2 = 1e300 the v^2 solve gives NaN; NaN > tol is False, so a residual test
        # alone let it through above the axis, and on the axis there was none.
        ctx = AdditiveContext(DELTA0, 1e300)
        for zs, bad in (([0.5 + 1e-3j, 0.5], "0.5+0.001j"), ([0.5, 0.5 + 1e-3j], "0.5+0j")):
            want = f"subordination at sigma2=1e+300 fails at z=({bad}): omega=(nan+nanj)"
            with pytest.raises(NumericalError, match=f"^{re.escape(want)}$"):
                subordination(ctx, zs)
        # At sigma2 = 1e160 the solve still holds: the semicircle density at 0.5.
        big = AdditiveContext(DELTA0, 1e160)
        (_, f), = density(big, [0.5])
        assert f == pytest.approx(semicircle_density(0.5, 1e160), rel=1e-12)

    def test_points_outside_the_domain_are_named(self):
        with pytest.raises(DomainError, match=r"^point 1 is \(0\.3-0\.1j\), below the real axis$"):
            subordination(PAPER, [0.3, 0.3 - 0.1j, 0.2 - 1j])
        for z in (complex(math.nan, 0.0), complex(0.3, math.inf), complex(-math.inf, 1.0)):
            with pytest.raises(SpecError, match=r"^point 2 is .*, not a finite number$"):
                subordination(PAPER, [0.3, 0.3 + 0.1j, z, -1.0j])

    @pytest.mark.filterwarnings("error")
    def test_each_point_of_a_mixed_array_gets_its_own_omega(self):
        # On and above the axis in one call: in the gap at 0 and beyond the support v = 0 on
        # the axis, and the atoms at -+1 are hit exactly.
        zs = [complex(x, eps) for x in (-3.0, -1.0, -0.45, 0.0, 0.7, 1.5) for eps in (0.0, 1e-12, 1e-3, 2.0)]
        together = subordination(PAPER, zs)
        assert together.tolist() == [subordination(PAPER, [z])[0] for z in zs]
        assert np.all(together.imag >= np.imag(zs))


class TestDensity:
    def test_semicircle_center_value(self):
        ctx = AdditiveContext(DELTA0, 1.0)
        pts = density(ctx, [0.0], eps=1e-6)
        assert pts[0][1] == pytest.approx(1.0 / math.pi, abs=1e-4)

    def test_vanishes_off_support(self):
        ctx = AdditiveContext(DELTA0, 1.0)
        pts = density(ctx, [3.0], eps=1e-6)
        assert 0.0 <= pts[0][1] < 1e-5

    def test_semicircle_profile(self):
        ctx = AdditiveContext(DELTA0, 1.0)
        xs = np.linspace(-1.9, 1.9, 41)
        pts = density(ctx, xs, eps=1e-6)
        for (x, f) in pts:
            assert abs(f - semicircle_density(x)) < 1e-3

    def test_paper_example_total_mass(self):
        # Gauss-Legendre in phi after x = a + (b - a) sin^2(phi), which smooths the
        # square-root edges, so the grid reaches each edge.
        phi, wq = np.polynomial.legendre.leggauss(200)
        phi, wq = np.pi / 4.0 * (phi + 1.0), np.pi / 4.0 * wq
        mass = 0.0
        for a, b in support(PAPER).intervals:
            xs = a + (b - a) * np.sin(phi) ** 2
            f = np.array([p[1] for p in density(PAPER, xs)])
            assert np.all(f > 0.0)
            mass += np.sum(wq * f * (b - a) * np.sin(2.0 * phi))
        assert abs(mass - 1.0) < 1e-10

    def test_paper_example_symmetry(self):
        xs = np.linspace(-2.05, 2.05, 83)
        f = np.array([p[1] for p in density(PAPER, xs, eps=1e-6)])
        assert np.max(np.abs(f - f[::-1])) < 1e-8

    def test_semicircle_closed_form_everywhere(self):
        # eps = 0 is exact: edges, both sides of them and the centre, to 1e-13.  Each
        # sigma2 has a float-exact edge 2 sigma, where the density is 0.
        for sigma2 in (1.0, 0.25, 2.25):
            r = 2.0 * math.sqrt(sigma2)
            xs = np.concatenate([np.linspace(-1.5 * r, 1.5 * r, 601), [-r, r, 0.0]])
            for x, f in density(AdditiveContext(DELTA0, sigma2), xs):
                assert abs(f - semicircle_density(x, sigma2)) <= 1e-13
                assert math.copysign(1.0, f) == 1.0

    def test_vanishes_exactly_off_support(self):
        ctx = AdditiveContext(DELTA0, 1.0)
        assert [f for _, f in density(ctx, [-3.0, -2.0, 2.0, 3.0])] == [0.0] * 4

    def test_non_finite_grid_point_is_named(self):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(SpecError, match=f"grid point 1 is {x!r}, not a finite number"):
                density(PAPER, [0.0, x, math.nan])

    def test_eps_must_be_finite_and_non_negative(self):
        for eps in (math.nan, math.inf, -1.0):
            with pytest.raises(SpecError, match="eps must be a finite non-negative number"):
                density(PAPER, [0.0], eps=eps)
        assert density(PAPER, [1.0], eps=0.0)[0][1] > 0.0
