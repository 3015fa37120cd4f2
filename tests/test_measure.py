"""Oracle tests for the atomic measure layer."""

import math

import numpy as np
import pytest

from spikelab.errors import SpecError
from spikelab.measure import AtomicMeasure, quantile_discretize

TWO_POINT = AtomicMeasure([(1.0, 0.5), (-1.0, 0.5)])


def stieltjes(nu, z):
    """g_nu(z) = sum_i w_i / (z - t_i), summed over the atoms."""
    return sum(w / (z - t) for t, w in nu.atoms)


def moment(nu, k):
    return sum(w * t**k for t, w in nu.atoms)


class TestConstruction:
    def test_atoms_sorted_and_normalized(self):
        nu = AtomicMeasure([(2.0, 0.25), (-1.0, 0.75)])
        assert nu.atoms == ((-1.0, 0.75), (2.0, 0.25))

    def test_near_duplicate_locations_merge(self):
        nu = AtomicMeasure([(1.0, 0.5), (1.0 + 1e-13, 0.5)])
        assert len(nu.atoms) == 1
        loc, w = nu.atoms[0]
        assert abs(loc - 1.0) < 1e-12
        assert w == 1.0

    def test_weights_renormalized_within_slack(self):
        nu = AtomicMeasure([(0.0, 0.5), (1.0, 0.5 + 9e-10)])
        assert math.isclose(sum(w for _, w in nu.atoms), 1.0, abs_tol=1e-15)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(SpecError):
            AtomicMeasure([(0.0, 0.6), (1.0, 0.6)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(SpecError):
            AtomicMeasure([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(SpecError):
            AtomicMeasure([(0.0, -0.25), (1.0, 1.25)])

    def test_nonfinite_rejected(self):
        with pytest.raises(SpecError):
            AtomicMeasure([(math.inf, 1.0)])
        with pytest.raises(SpecError):
            AtomicMeasure([(0.0, math.nan)])

    @pytest.mark.parametrize(
        "atoms",
        [[(math.inf, 1.0)], [(0.0, math.nan)], [(0.0, 0.5), (-math.inf, 0.5)], [(math.nan, 1.0)]],
    )
    def test_nonfinite_rejected_with_one_message(self, atoms):
        with pytest.raises(SpecError, match="^atom locations and weights must be finite$"):
            AtomicMeasure(atoms)

    @pytest.mark.parametrize("atoms", [[(True, 1.0)], [(1.0, True)], [("1", 1.0)], [(0.0, None)]])
    def test_a_location_or_weight_must_be_a_number(self, atoms):
        # float() would read True as 1 and "1" as 1.
        with pytest.raises(SpecError, match="^atom locations and weights must be a real number, got "):
            AtomicMeasure(atoms)

    def test_numpy_and_fraction_numbers_are_numbers(self):
        from fractions import Fraction

        nu = AtomicMeasure([(np.float64(1.0), Fraction(1, 4)), (np.int64(-1), np.float32(0.75))])
        assert nu.atoms == ((-1.0, 0.75), (1.0, 0.25))
        assert all(type(v) is float for atom in nu.atoms for v in atom)

    def test_arrays_built_once_and_read_only(self):
        nu = AtomicMeasure([(2.0, 0.25), (-1.0, 0.75)])
        assert nu.locations is nu.locations and nu.weights is nu.weights
        assert nu.locations.tolist() == [-1.0, 2.0] and nu.weights.tolist() == [0.75, 0.25]
        for array in (nu.locations, nu.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array += 1.0
        assert nu.atoms == ((-1.0, 0.75), (2.0, 0.25))
        assert nu == AtomicMeasure([(-1.0, 0.75), (2.0, 0.25)])

    def test_distance_to_support(self):
        assert TWO_POINT.distance_to_support(0.25) == 0.75
        assert TWO_POINT.distance_to_support(-3.0) == 2.0
        assert TWO_POINT.distance_to_support(1.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            AtomicMeasure([])

    def test_dict_round_trip(self):
        nu = AtomicMeasure([(0.5, 0.25), (-2.0, 0.75)])
        again = AtomicMeasure.from_dict({"atoms": [[t, w] for t, w in nu.atoms]})
        assert again == nu

    def test_from_dict_requires_atoms_key(self):
        with pytest.raises(SpecError):
            AtomicMeasure.from_dict({"weights": [1.0]})

    def test_from_dict_refuses_unknown_keys(self):
        # A misplaced model key inside nu is named, not dropped.
        with pytest.raises(SpecError, match="^unknown measure keys: sigma2$"):
            AtomicMeasure.from_dict({"atoms": [[1.0, 0.5], [-1.0, 0.5]], "sigma2": 9})

    def test_weight_at(self):
        nu = AtomicMeasure([(0.0, 0.3), (1.0, 0.7)])
        assert nu.weight_at(0.0) == 0.3
        assert nu.weight_at(0.5) == 0.0


class TestStieltjes:
    def test_delta_zero_at_i(self):
        nu = AtomicMeasure([(0.0, 1.0)])
        assert stieltjes(nu, 1j) == pytest.approx(-1j, abs=1e-15)

    def test_two_point_at_real_three(self):
        # 1/2 * 1/(3-1) + 1/2 * 1/(3+1) = 3/8
        assert stieltjes(TWO_POINT, 3.0) == pytest.approx(0.375, abs=1e-15)

    def test_single_atom_identity(self):
        nu = AtomicMeasure([(2.5, 1.0)])
        z = 0.7 + 0.3j
        assert stieltjes(nu, z) == pytest.approx(1.0 / (z - 2.5), abs=1e-15)

    def test_upper_half_plane_maps_down(self):
        for z in (1j, -2.0 + 0.5j, 3.0 + 2.0j, 0.99 + 1e-3j):
            g = stieltjes(TWO_POINT, z)
            assert g.imag < 0
            assert abs(g) <= 1.0 / z.imag + 1e-15

    def test_conjugate_symmetry(self):
        z = 0.3 + 0.8j
        assert stieltjes(TWO_POINT, z.conjugate()) == pytest.approx(
            stieltjes(TWO_POINT, z).conjugate(), abs=1e-15
        )


class TestMoment:
    def test_zeroth_is_total_mass(self):
        assert moment(TWO_POINT, 0) == 1.0
        assert moment(AtomicMeasure([(0.0, 1.0)]), 0) == 1.0

    def test_symmetric_second_moment(self):
        assert moment(TWO_POINT, 2) == pytest.approx(1.0, abs=1e-15)

    def test_single_atom_first_moment(self):
        assert moment(AtomicMeasure([(1.75, 1.0)]), 1) == pytest.approx(1.75)


class TestQuantileDiscretize:
    def test_single_atom(self):
        nu = AtomicMeasure([(4.0, 1.0)])
        assert quantile_discretize(nu, 5) == [4.0] * 5

    def test_two_point_m4(self):
        assert quantile_discretize(TWO_POINT, 4) == [-1.0, -1.0, 1.0, 1.0]

    def test_two_point_m2(self):
        assert quantile_discretize(TWO_POINT, 2) == [-1.0, 1.0]

    def test_two_point_m997_split(self):
        # levels (i-1/2)/997 <= 1/2 exactly for i <= 499
        out = np.asarray(quantile_discretize(TWO_POINT, 997))
        assert int(np.sum(out == -1.0)) == 499
        assert int(np.sum(out == 1.0)) == 498

    def test_output_sorted_and_in_hull(self):
        nu = AtomicMeasure([(-2.0, 0.2), (0.5, 0.5), (3.0, 0.3)])
        out = quantile_discretize(nu, 37)
        assert out == sorted(out)
        assert min(out) >= -2.0 and max(out) <= 3.0

    def test_weak_convergence_of_counts(self):
        nu = AtomicMeasure([(-2.0, 0.2), (0.5, 0.5), (3.0, 0.3)])
        out = np.asarray(quantile_discretize(nu, 10_000))
        for loc, w in nu.atoms:
            frac = np.mean(out == loc)
            assert abs(frac - w) < 1e-3

    def test_m_below_one_rejected(self):
        with pytest.raises(SpecError):
            quantile_discretize(TWO_POINT, 0)

    @pytest.mark.parametrize("m", [True, 2.0, np.int64(3)], ids=["True", "2.0", "int64"])
    def test_m_that_is_not_an_int_rejected(self, m):
        # The rule of N, p, reps and the spike multiplicity: a bool, a float or a numpy
        # integer is refused, not read as a count.
        with pytest.raises(SpecError, match="^quantile count must be a positive integer, got"):
            quantile_discretize(TWO_POINT, m)
