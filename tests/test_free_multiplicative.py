"""Oracle tests for the spiked sample-covariance analytics."""

import math
import re
import warnings

import numpy as np
import pytest

from oracles import Oracle, mp_density
from spikelab.errors import DomainError, NumericalError, SpecError
from spikelab.free_additive import subordination
from spikelab.free_multiplicative import (
    MultiplicativeContext,
    classify_spike,
    density,
    mass_at_zero,
    outlier_set_intervals,
    support,
)
from spikelab.measure import AtomicMeasure

DELTA1 = AtomicMeasure(((1.0, 1.0),))
DELTA0 = AtomicMeasure(((0.0, 1.0),))
DELTA2 = AtomicMeasure(((2.0, 1.0),))
HALF01 = AtomicMeasure(((0.0, 0.5), (1.0, 0.5)))
TWO_SPREAD = AtomicMeasure(((1.0, 0.5), (4.0, 0.5)))


def ctx(nu, c):
    return MultiplicativeContext(nu, c)


def wishart_g(context, z):
    """``g(z) = (omega/z) g_nu(omega)`` at a flat array of points z above the real axis.

    ``omega`` is the subordination function of ``(nu~, sigma2~)`` at z - s; unlike
    G = (1-c)/z + c g, this form does not divide by c.
    """
    omega = z - context._shift
    if context._biased is not None:
        omega = subordination(context._biased, omega)
    return omega / z * np.sum(context.nu.weights / (omega[:, None] - context.nu.locations), axis=1)


def fixed_point_g(context, z):
    """Stieltjes transform at one point ``z`` in the upper half-plane."""
    return complex(wishart_g(context, np.array([z]))[0])


def companion_g(context, z):
    """Stieltjes transform (1-c)/z + c*g(z) of the companion p-side spectrum."""
    return (1.0 - context.c) / z + context.c * fixed_point_g(context, z)


class TestContext:
    def test_rejects_nonpositive_c(self):
        with pytest.raises(SpecError):
            ctx(DELTA1, 0.0)
        with pytest.raises(SpecError):
            ctx(DELTA1, -0.5)

    def test_rejects_negative_atoms(self):
        signed = AtomicMeasure(((-1.0, 0.5), (1.0, 0.5)))
        with pytest.raises(SpecError):
            ctx(signed, 1.0)

    def test_accepts_atom_at_zero(self):
        c = ctx(HALF01, 2.0)
        assert c.c == 2.0

    def test_overflowing_size_bias_names_the_atom(self):
        # c w t^2 = 1e400 is past the float range: one SpecError, and no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match=r"c\*w\*t\^2 overflows at the atom t=1e\+200"):
                ctx(AtomicMeasure(((1e200, 1.0),)), 1.0)
            # Each c w t^2 is finite here; their sum is not.
            with pytest.raises(SpecError, match=r"overflows at the atom t=1\.4e\+154"):
                ctx(AtomicMeasure(((1.3e154, 0.5), (1.4e154, 0.5))), 1.0)


class TestMpDensity:
    def test_center_value_square_case(self):
        # c=1: f(2) = sqrt(2*(4-2))/(2*pi*2) = 1/(2*pi)
        assert mp_density(1.0, 2.0) == pytest.approx(0.15915494309189535, abs=1e-15)

    def test_zero_outside_support(self):
        assert mp_density(1.0, 5.0) == 0.0
        assert mp_density(0.25, 0.2) == 0.0

    def test_zero_at_upper_edge(self):
        for c in (0.25, 1.0, 2.0, 4.0):
            assert mp_density(c, (1.0 + math.sqrt(c)) ** 2) == 0.0

    def test_positive_inside(self):
        assert mp_density(1.0, 3.9999) > 0.0

    def test_nonpositive_x_rejected(self):
        with pytest.raises(ValueError):
            mp_density(1.0, 0.0)
        with pytest.raises(ValueError):
            mp_density(1.0, -1.0)

    def test_continuous_mass_is_min_of_one_and_inverse_c(self):
        # the absolutely continuous part carries 1/c of the mass when c>1
        for c, target in ((0.25, 1.0), (4.0, 0.25)):
            lo = (1.0 - math.sqrt(c)) ** 2
            hi = (1.0 + math.sqrt(c)) ** 2
            xs = np.linspace(lo, hi, 4001)
            f = np.array([mp_density(c, x) for x in xs])
            assert abs(np.trapezoid(f, xs) - target) < 1e-3


def criterion(context, u):
    """``W(u)``: the criterion_value of a spike at u > 0, else ``1 - F'(u)`` of the oracle."""
    if u > 0.0:
        return classify_spike(context, u).criterion_value
    return 1.0 - float(Oracle(context.nu.atoms, c=context.c).F_prime(u))


class TestZ:
    # rho = Z(1/theta) = s + H~(theta), reported where the spike detaches.
    def test_single_atom_spike_location(self):
        # theta=3, c=1: Z(1/3) = 3*(1 + 1/(3-1)) = 4.5
        assert classify_spike(ctx(DELTA1, 1.0), 3.0).rho == pytest.approx(4.5, abs=1e-12)

    def test_upper_edge_algebra(self):
        # At theta = 1 + sqrt(c), W = 1: the spike sticks, and the oracle's Z gives the edge.
        c = 0.3
        theta = 1.0 + math.sqrt(c)
        assert classify_spike(ctx(DELTA1, c), theta).rho is None
        edge = float(Oracle(DELTA1.atoms, c=c).F(theta))
        assert edge == pytest.approx((1.0 + math.sqrt(c)) ** 2, abs=1e-12)

    def test_vanishing_c_leaves_spike_in_place(self):
        assert classify_spike(ctx(DELTA2, 1e-9), 1.0 / 0.2).rho == pytest.approx(5.0, abs=1e-7)

    def test_pole_at_zero_argument(self):
        # Z(x) at x = 0 is a spike at theta = 1/x = inf: not a finite number.
        with pytest.raises(SpecError, match="^theta must be finite$"):
            classify_spike(ctx(DELTA1, 1.0), math.inf)

    def test_pole_when_inverse_hits_atom(self):
        with pytest.raises(DomainError):
            classify_spike(ctx(DELTA2, 1.0), 1.0 / 0.5)
        with pytest.raises(DomainError):
            classify_spike(ctx(DELTA2, 1.0), 1.0 / (0.5 + 1e-14))

    def test_atom_at_zero_is_not_a_pole(self):
        val = classify_spike(ctx(HALF01, 1.0), 1.0 / 1e6).rho
        assert val == pytest.approx(1e-6 + 0.5 / (1.0 - 1e6), rel=1e-12)


class TestW:
    # criterion_value = W(theta) = sigma2~ sum w~ / (theta - t)^2, outlier or not.
    def test_single_atom_value(self):
        assert criterion(ctx(DELTA1, 1.0), 3.0) == pytest.approx(0.25, abs=1e-15)

    def test_boundary_equals_one(self):
        c = 0.49
        assert criterion(ctx(DELTA1, c), 1.7) == pytest.approx(1.0, abs=1e-12)
        assert criterion(ctx(DELTA1, c), 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_zero_measure_gives_zero(self):
        assert criterion(ctx(DELTA0, 7.0), 5.0) == 0.0

    def test_atom_at_zero_contributes_nothing(self):
        assert criterion(ctx(HALF01, 0.3), 0.5) == pytest.approx(0.6, abs=1e-15)

    def test_negative_argument_allowed(self):
        # No spike sits at u < 0, so W(-1) comes from the oracle.
        assert criterion(ctx(DELTA1, 4.0), -1.0) == pytest.approx(1.0, abs=1e-15)

    def test_rejected_points(self):
        with pytest.raises(DomainError):
            classify_spike(ctx(DELTA1, 1.0), 0.0)
        with pytest.raises(DomainError):
            classify_spike(ctx(DELTA1, 1.0), 1.0)
        with pytest.raises(DomainError):
            classify_spike(ctx(HALF01, 1.0), 0.0)

    def test_derivative_identity_of_Z(self):
        # -u^2 + c*sum w t^2 u^2/(u-t)^2 must equal u^2*(W(u)-1)
        cases = [(DELTA1, 1.0), (TWO_SPREAD, 0.1), (HALF01, 2.0)]
        points = (-3.0, -0.7, 0.31, 2.6, 7.5)
        for nu, c in cases:
            context = ctx(nu, c)
            for u in points:
                if any(abs(u - t) < 1e-9 for t, _ in nu.atoms):
                    continue
                lhs = -u * u + c * sum(w * t * t * u * u / (u - t) ** 2 for t, w in nu.atoms)
                rhs = u * u * (criterion(context, u) - 1.0)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


class TestClassifySpike:
    def test_bbp_outlier(self):
        v = classify_spike(ctx(DELTA1, 1.0), 3.0)
        assert v.is_outlier
        assert v.rho == pytest.approx(4.5, abs=1e-12)
        assert v.tau == pytest.approx(0.5, abs=1e-12)
        assert v.criterion_value == pytest.approx(0.25, abs=1e-12)

    def test_bbp_sticking(self):
        v = classify_spike(ctx(DELTA1, 1.0), 1.5)
        assert not v.is_outlier
        assert v.rho is None and v.tau is None
        assert v.criterion_value == pytest.approx(4.0, abs=1e-12)

    def test_phase_transition_flip(self):
        wide = ctx(DELTA1, 4.0)
        assert classify_spike(wide, 3.001).is_outlier
        assert not classify_spike(wide, 2.999).is_outlier

    def test_zero_bulk_spike(self):
        v = classify_spike(ctx(DELTA0, 2.0), 5.0)
        assert v.is_outlier
        assert v.rho == pytest.approx(5.0, abs=1e-12)
        assert v.tau == pytest.approx(1.0, abs=1e-12)

    def test_large_spike_overlap_tends_to_one(self):
        v = classify_spike(ctx(DELTA1, 1.0), 1e6)
        assert v.is_outlier
        assert 1.0 - 1e-5 < v.tau <= 1.0

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(DomainError):
            classify_spike(ctx(DELTA1, 1.0), 0.0)
        with pytest.raises(DomainError):
            classify_spike(ctx(DELTA1, 1.0), -3.0)

    def test_theta_on_atom_rejected(self):
        with pytest.raises(DomainError):
            classify_spike(ctx(DELTA1, 1.0), 1.0)

    def test_spike_within_merge_tol_of_zero_detaches(self):
        # theta = 5e-13 is off the one atom of nu = delta_1: W = 0.5 / (1 - theta)^2 < 1.
        v = classify_spike(ctx(DELTA1, 0.5), 5e-13)
        assert v.is_outlier
        want = Oracle(DELTA1.atoms, c=0.5).spike(5e-13)
        for name, got in (("criterion", v.criterion_value), ("rho", v.rho), ("tau", v.tau)):
            value, terms = want[name]
            assert abs(got - float(value)) <= 8 * 2.0**-53 * float(terms), name


class TestOutlierIntervals:
    def test_single_atom_small_c(self):
        ivs = outlier_set_intervals(ctx(DELTA1, 0.25))
        assert len(ivs) == 2
        assert ivs[0][0] == pytest.approx(0.0, abs=1e-9)
        assert ivs[0][1] == pytest.approx(0.5, abs=1e-9)
        assert ivs[1][0] == pytest.approx(1.5, abs=1e-9)
        assert ivs[1][1] == math.inf

    def test_single_atom_square_case(self):
        ivs = outlier_set_intervals(ctx(DELTA1, 1.0))
        assert len(ivs) == 1
        assert ivs[0][0] == pytest.approx(2.0, abs=1e-9)
        assert ivs[0][1] == math.inf

    def test_single_atom_large_c(self):
        ivs = outlier_set_intervals(ctx(DELTA1, 4.0))
        assert len(ivs) == 1
        assert ivs[0][0] == pytest.approx(3.0, abs=1e-9)

    def test_zero_measure_everything_positive(self):
        ivs = outlier_set_intervals(ctx(DELTA0, 2.0))
        assert ivs == [(0.0, math.inf)]

    def test_mixed_zero_and_one(self):
        ivs = outlier_set_intervals(ctx(HALF01, 1.0))
        assert len(ivs) == 2
        assert ivs[0][0] == pytest.approx(0.0, abs=1e-9)
        assert ivs[0][1] == pytest.approx(1.0 - 2.0 ** -0.5, abs=1e-9)
        assert ivs[1][0] == pytest.approx(1.0 + 2.0 ** -0.5, abs=1e-9)
        assert ivs[1][1] == math.inf

    def test_membership_matches_classification(self):
        context = ctx(DELTA1, 0.25)
        assert classify_spike(context, 0.25).is_outlier
        assert classify_spike(context, 2.0).is_outlier
        assert not classify_spike(context, 0.6).is_outlier
        assert not classify_spike(context, 1.4).is_outlier


class TestSupport:
    def test_marchenko_pastur_edges(self):
        for c in (0.25, 1.0, 4.0):
            sup = support(ctx(DELTA1, c))
            assert len(sup.intervals) == 1
            lo, hi = sup.intervals[0]
            assert lo == pytest.approx((1.0 - math.sqrt(c)) ** 2, abs=1e-8)
            assert hi == pytest.approx((1.0 + math.sqrt(c)) ** 2, abs=1e-8)

    def test_marchenko_pastur_edges_keep_relative_accuracy(self):
        # (1 - sqrt c)^2 = ((1 - c) / (1 + sqrt c))^2; the right side has no cancellation,
        # so it is the reference even when the lower edge is close to 0.
        for c in (0.25, 0.5, 0.9999, 2.0):
            (lo, hi), = support(ctx(DELTA1, c)).intervals
            want_lo = ((1.0 - c) / (1.0 + math.sqrt(c))) ** 2
            want_hi = (1.0 + math.sqrt(c)) ** 2
            assert abs(lo - want_lo) <= 1e-12 * want_lo
            assert abs(hi - want_hi) <= 1e-12 * want_hi

    def test_scaling(self):
        sup = support(ctx(DELTA2, 0.25))
        lo, hi = sup.intervals[0]
        assert lo == pytest.approx(0.5, abs=1e-8)
        assert hi == pytest.approx(4.5, abs=1e-8)

    def test_zero_measure_empty_support(self):
        sup = support(ctx(DELTA0, 3.0))
        assert sup.intervals == ()
        assert mass_at_zero(ctx(DELTA0, 3.0)) == 1.0

    def test_two_component_case(self):
        sup = support(ctx(TWO_SPREAD, 0.1))
        assert len(sup.intervals) == 2
        (a1, b1), (a2, b2) = sup.intervals
        assert 0.0 < a1 < b1 < a2 < b2
        assert b1 < 4.0 < b2

    def test_a_gap_no_wider_than_1e_12_is_closed(self):
        # At this c, 1e-12 below where the gap of TWO_SPREAD closes, the gap's image is
        # within 1e-12: the two components merge into one.
        context = ctx(TWO_SPREAD, 0.41276509136823614)
        assert len(outlier_set_intervals(context)) == 3
        assert support(context).intervals == ((0.17706674620511875, 8.70906749229),)

    def test_outlier_sits_off_support(self):
        sup = support(ctx(DELTA1, 1.0))
        assert sup.signed_distance(4.5) == pytest.approx(0.5, abs=1e-8)


class TestMassAtZero:
    def test_cases(self):
        assert mass_at_zero(ctx(DELTA1, 2.0)) == pytest.approx(0.5, abs=1e-15)
        assert mass_at_zero(ctx(DELTA1, 0.5)) == 0.0
        assert mass_at_zero(ctx(DELTA0, 3.0)) == 1.0
        assert mass_at_zero(ctx(HALF01, 1.0)) == pytest.approx(0.5, abs=1e-15)
        assert mass_at_zero(ctx(HALF01, 4.0)) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("t0, at_zero", [
        (0.0, True), (5e-13, True), (1e-12, True), (1.0000000001e-12, False), (2e-12, False),
    ])
    def test_an_atom_is_at_zero_exactly_when_it_is_not_above_merge_tol(self, t0, at_zero):
        # nu({0}) is the atom that the size-biased model leaves out; an atom just above
        # MERGE_TOL is a positive atom of nu~, and the support gains a component next to it.
        context = ctx(AtomicMeasure(((t0, 0.3), (1.0, 0.7))), 0.5)
        assert mass_at_zero(context) == (0.3 if at_zero else 0.0)
        assert any(hi < 1e-11 for _, hi in support(context).intervals) == (not at_zero)


class TestFixedPointG:
    def test_zero_measure_closed_form(self):
        z = 2.0 + 1.0j
        assert fixed_point_g(ctx(DELTA0, 2.0), z) == pytest.approx(1.0 / z, abs=1e-12)

    def test_matches_mp_density_at_interior_point(self):
        g = fixed_point_g(ctx(DELTA1, 1.0), 2.0 + 1e-6j)
        assert -g.imag / math.pi == pytest.approx(mp_density(1.0, 2.0), abs=1e-3)

    def test_scaling_relation(self):
        z = 1.0 + 0.3j
        g2 = fixed_point_g(ctx(DELTA2, 0.7), z)
        g1 = fixed_point_g(ctx(DELTA1, 0.7), z / 2.0)
        assert g2 == pytest.approx(0.5 * g1, abs=1e-9)

    def test_moment_expansion_far_from_support(self):
        z = 50.0j
        g = fixed_point_g(ctx(DELTA1, 0.5), z)
        series = 1.0 / z + 1.0 / z ** 2 + 1.5 / z ** 3
        assert abs(g - series) < 1e-5

    def test_imaginary_part_negative(self):
        context = ctx(TWO_SPREAD, 0.1)
        for z in (0.5 + 1e-4j, 1.2 + 0.01j, 4.0 + 1e-5j, 10.0 + 1.0j):
            assert fixed_point_g(context, z).imag < 0.0


class TestCompanionG:
    def test_square_case_equals_fixed_point(self):
        z = 1.3 + 0.2j
        assert companion_g(ctx(DELTA1, 1.0), z) == pytest.approx(
            fixed_point_g(ctx(DELTA1, 1.0), z), abs=1e-14
        )

    def test_inverts_outlier_map(self):
        # at x = Z(1/u) the companion transform returns 1/u
        context = ctx(DELTA1, 1.0)
        x = classify_spike(context, 3.0).rho
        assert abs(companion_g(context, x + 1e-7j) - 1.0 / 3.0) < 1e-3

    def test_vanishing_c_limit(self):
        z = 3.0 + 0.5j
        assert abs(companion_g(ctx(DELTA1, 1e-8), z) - 1.0 / z) < 1e-6


class TestDensity:
    def test_matches_mp_closed_form_small_c(self):
        c = 0.5
        context = ctx(DELTA1, c)
        lo = (1.0 - math.sqrt(c)) ** 2
        hi = (1.0 + math.sqrt(c)) ** 2
        xs = np.concatenate([np.linspace(lo + 0.05, hi - 0.05, 35), [hi + 0.3, hi + 1.0]])
        for x, f in zip(xs, density(context, xs, eps=1e-6)):
            assert abs(f - mp_density(c, x)) < 1e-2

    def test_matches_mp_closed_form_large_c(self):
        c = 2.0
        context = ctx(DELTA1, c)
        lo = (1.0 - math.sqrt(c)) ** 2
        hi = (1.0 + math.sqrt(c)) ** 2
        xs = np.linspace(lo + 0.05, hi - 0.05, 34)
        for x, f in zip(xs, density(context, xs, eps=1e-6)):
            assert abs(f - mp_density(c, x)) < 1e-2

    def test_total_mass_with_atom(self):
        c = 2.0
        context = ctx(DELTA1, c)
        (lo, hi), = support(context).intervals
        m = 0.012
        xs = np.unique(
            np.concatenate(
                [
                    np.linspace(0.01, lo - m, 30),
                    np.linspace(lo + m, hi - m, 600),
                    np.linspace(hi + m, 7.0, 30),
                ]
            )
        )
        f = density(context, xs, eps=1e-6)
        assert np.all(f >= 0.0)
        total = mass_at_zero(context) + np.trapezoid(f, xs)
        assert abs(total - 1.0) < 1e-2

    def test_two_component_profile(self):
        context = ctx(TWO_SPREAD, 0.1)
        (a1, b1), (a2, b2) = support(context).intervals
        mids = [(a1 + b1) / 2.0, (a2 + b2) / 2.0]
        gap_mid = (b1 + a2) / 2.0
        f_mid0, f_mid1, f_gap = density(context, mids + [gap_mid], eps=1e-6)
        assert f_mid0 > 1e-2
        assert f_mid1 > 1e-2
        assert f_gap < 1e-3

    def test_two_component_total_mass(self):
        context = ctx(TWO_SPREAD, 0.1)
        (a1, b1), (a2, b2) = support(context).intervals
        m = 0.012
        xs = np.unique(
            np.concatenate(
                [
                    np.linspace(max(a1 - 0.3, 0.01), a1 - m, 20),
                    np.linspace(a1 + m, b1 - m, 300),
                    np.linspace(b1 + m, a2 - m, 40),
                    np.linspace(a2 + m, b2 - m, 300),
                    np.linspace(b2 + m, b2 + 0.5, 20),
                ]
            )
        )
        f = density(context, xs, eps=1e-6)
        total = mass_at_zero(context) + np.trapezoid(f, xs)
        assert abs(total - 1.0) < 1e-2

    def test_closed_form_everywhere(self):
        # eps = 0 is exact, through x = 0, both edges and the gaps, to 1e-13.
        for c in (0.5, 2.0):
            xs = np.concatenate([np.linspace(-1.0, 7.0, 801), [(1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2]])
            for x, f in zip(xs, density(ctx(DELTA1, c), xs)):
                assert abs(f - (mp_density(c, x) if x > 0.0 else 0.0)) <= 1e-13
                assert math.copysign(1.0, f) == 1.0

    def test_zero_unless_the_support_reaches_it(self):
        for nu, c in ((DELTA1, 0.5), (DELTA1, 2.0), (HALF01, 4.0), (HALF01, 1.0), (DELTA0, 3.0)):
            assert density(ctx(nu, c), [0.0]).tolist() == [0.0]

    def test_unbounded_at_zero_when_the_support_reaches_it(self):
        for nu, c in ((DELTA1, 1.0), (HALF01, 2.0)):
            with pytest.raises(DomainError, match="x=0"):
                density(ctx(nu, c), [1.0, 0.0])
        assert density(ctx(DELTA1, 1.0), [1.0])[0] == pytest.approx(mp_density(1.0, 1.0), abs=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_a_failed_solve_is_named_by_c_and_the_shift(self):
        # For nu = delta_1e150 and c = 0.5 the size-biased variance c t^2 = 5e299 is finite and
        # its solve fails; the error names the c of the model and s = c t, with z = x - s.
        want = "density at c=0.5, as the size-biased model at z = x - 5e+149: subordination at sigma2="
        for eps in (0.0, 0.01):
            with pytest.raises(NumericalError, match=f"^{re.escape(want)}"):
                density(ctx(AtomicMeasure(((1e150, 1.0),)), 0.5), [0.5, 1e150], eps=eps)

    @pytest.mark.filterwarnings("error")
    def test_no_square_of_a_large_x_overflows(self):
        # nu = delta_t, t = 1.4e154, at c = 1e-160 has its support within 3e74 of t, whose square
        # overflows, as does that of |omega - t| at 5e154: the density still comes out, on the
        # axis (sqrt(4 - c) / (2 pi sqrt(c) t) at t) and above it, where it is -Im g / pi.
        context, xs = ctx(AtomicMeasure(((1.4e154, 1.0),)), 1e-160), [1e154, 1.4e154, 5e154]
        on = density(context, xs)
        assert on[0] == on[2] == 0.0
        assert on[1] == pytest.approx(1.0 / (math.pi * 1e-80 * 1.4e154), rel=1e-12)
        above = density(context, xs, eps=1e70)
        want = -wishart_g(context, np.array(xs) + 1e70j).imag / math.pi
        assert above == pytest.approx(want, rel=1e-12)

    def test_non_finite_grid_point_is_named(self):
        for eps in (0.0, 1e-6):
            with pytest.raises(SpecError, match="grid point 2 is nan, not a finite number"):
                density(ctx(DELTA1, 0.5), [1.0, 2.0, math.nan], eps=eps)

    def test_eps_validation(self):
        for eps in (math.nan, math.inf, -1.0):
            with pytest.raises(SpecError, match="eps must be a finite non-negative number"):
                density(ctx(DELTA1, 1.0), [2.0], eps=eps)
