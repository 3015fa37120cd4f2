"""Finite-N model construction, sampling, and eigen-extraction tests."""

import math

import numpy as np
import pytest

from spikelab.ensemble import (
    EnsembleSample,
    SpikedModelSpec,
    assemble,
    build_perturbation,
    diagonalize,
    draw_sample,
    overlaps,
    sample_wigner,
    sample_wishart_factor,
    wishart_p,
)
from spikelab.errors import NumericalError, SpecError
from spikelab.measure import AtomicMeasure

TWO_POINT = AtomicMeasure(((-1.0, 0.5), (1.0, 0.5)))
DELTA0 = AtomicMeasure(((0.0, 1.0),))
DELTA1 = AtomicMeasure(((1.0, 1.0),))


def paper_spec(N=8, seed=7):
    return SpikedModelSpec(
        kind="additive_wigner",
        nu=TWO_POINT,
        spikes=((2.0, 1), (1.5, 1), (0.0, 1)),
        N=N,
        seed=seed,
        sigma2=0.5,
    )


def bbp_spec(N=100, seed=11, c=1.0, theta=3.0):
    return SpikedModelSpec(
        kind="multiplicative_wishart",
        nu=DELTA1,
        spikes=((theta, 1),),
        N=N,
        seed=seed,
        c=c,
    )


class TestSpecValidation:
    def test_valid_specs_construct(self):
        assert paper_spec().N == 8
        assert bbp_spec().c == 1.0

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            SpikedModelSpec(kind="banded", nu=DELTA0, spikes=((1.0, 1),), N=4, seed=0, sigma2=1.0)

    def test_rank_exceeds_dimension(self):
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 6),), N=4, seed=0, sigma2=1.0
            )

    def test_thetas_must_decrease_strictly(self):
        for spikes in (((1.0, 1), (2.0, 1)), ((2.0, 1), (2.0, 1))):
            with pytest.raises(SpecError):
                SpikedModelSpec(
                    kind="additive_wigner", nu=DELTA0, spikes=spikes, N=10, seed=0, sigma2=1.0
                )

    def test_spike_on_support_rejected(self):
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=TWO_POINT, spikes=((1.0, 1),), N=10, seed=0, sigma2=1.0
            )

    def test_additive_requires_sigma2_only(self):
        with pytest.raises(SpecError):
            SpikedModelSpec(kind="additive_wigner", nu=DELTA0, spikes=((1.0, 1),), N=4, seed=0)
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 1),), N=4, seed=0,
                sigma2=1.0, c=2.0,
            )

    def test_multiplicative_requires_positive_thetas(self):
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="multiplicative_wishart", nu=DELTA1, spikes=((-2.0, 1),), N=4, seed=0, c=1.0
            )

    def test_multiplicative_rejects_signed_measure(self):
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="multiplicative_wishart", nu=TWO_POINT, spikes=((3.0, 1),), N=4, seed=0, c=1.0
            )

    def test_enum_and_scalar_fields(self):
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 1),), N=4, seed=0,
                sigma2=1.0, entry_law="uniform",
            )
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 1),), N=4, seed=0,
                sigma2=1.0, field="quaternion",
            )
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 1),), N=0, seed=0, sigma2=1.0
            )
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 1),), N=4, seed=-1, sigma2=1.0
            )
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 0),), N=4, seed=0, sigma2=1.0
            )
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 1),), N=True, seed=0, sigma2=1.0
            )
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=DELTA0, spikes=((1.0, 1),), N=4, seed=True, sigma2=1.0
            )

    def test_N_may_be_absent_until_a_sample_is_drawn(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA0, spikes=((1.0, 2.0),), N=None, seed=0, sigma2=1.0
        )
        assert spec.spikes == ((1.0, 2),) and isinstance(spec.spikes[0][1], int)
        with pytest.raises(SpecError, match="requires N"):
            draw_sample(spec)


class TestBuildPerturbation:
    def test_paper_example_small(self):
        diag, ranks, projs = build_perturbation(paper_spec(N=8))
        assert np.allclose(diag, [2.0, 1.5, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0])
        assert ranks == ((1,), (2,), (5,))
        assert projs == ((0,), (1,), (4,))

    def test_zero_bulk(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA0, spikes=((3.0, 1),), N=6, seed=0, sigma2=1.0
        )
        diag, ranks, _ = build_perturbation(spec)
        assert np.allclose(diag, [3.0, 0, 0, 0, 0, 0])
        assert ranks == ((1,),)

    def test_multiplicity_two(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA1, spikes=((5.0, 2),), N=5, seed=0, sigma2=1.0
        )
        diag, ranks, projs = build_perturbation(spec)
        assert np.allclose(diag, [5.0, 5.0, 1.0, 1.0, 1.0])
        assert ranks == ((1, 2),)
        assert projs == ((0, 1),)

    def test_paper_example_full_size(self):
        diag, ranks, _ = build_perturbation(paper_spec(N=1000))
        assert ranks == ((1,), (2,), (501,))
        assert int(np.sum(diag == -1.0)) == 499
        assert int(np.sum(diag == 1.0)) == 498

    def test_spike_below_bulk(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=TWO_POINT, spikes=((-2.0, 1),), N=8, seed=0, sigma2=0.5
        )
        diag, ranks, projs = build_perturbation(spec)
        assert diag[-1] == -2.0
        assert ranks == ((8,),)
        assert projs == ((7,),)


class TestSampleWigner:
    def test_hermitian_exact(self):
        rng = np.random.default_rng(0)
        X = sample_wigner(40, "complex_hermitian", "gaussian", rng)
        assert np.array_equal(X, X.conj().T)
        assert np.all(np.isreal(np.diag(X)))

    def test_real_symmetric_exact(self):
        rng = np.random.default_rng(0)
        X = sample_wigner(40, "real_symmetric", "gaussian", rng)
        assert X.dtype.kind == "f"
        assert np.array_equal(X, X.T)

    def test_determinism(self):
        a = sample_wigner(30, "complex_hermitian", "gaussian", np.random.default_rng(42))
        b = sample_wigner(30, "complex_hermitian", "gaussian", np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_rademacher_entry_values(self):
        N = 50
        X = sample_wigner(N, "real_symmetric", "rademacher", np.random.default_rng(3))
        W = X * math.sqrt(N)
        off = W[np.triu_indices(N, 1)]
        assert np.allclose(np.abs(off), 1.0)
        assert np.allclose(np.abs(np.diag(W)), math.sqrt(2.0))

    def test_offdiagonal_variance(self):
        N = 300
        X = sample_wigner(N, "complex_hermitian", "gaussian", np.random.default_rng(5))
        off = X[np.triu_indices(N, 1)]
        assert abs(np.mean(np.abs(off) ** 2) * N - 1.0) < 0.05

    def test_semicircle_kolmogorov_distance(self):
        N = 2000
        X = sample_wigner(N, "complex_hermitian", "gaussian", np.random.default_rng(12))
        lam = np.sort(np.linalg.eigvalsh(X))

        def cdf(x):
            x = np.clip(x, -2.0, 2.0)
            return 0.5 + (x * np.sqrt(4.0 - x * x) + 4.0 * np.arcsin(x / 2.0)) / (4.0 * np.pi)

        F = cdf(lam)
        i = np.arange(1, N + 1)
        ks = max(np.max(np.abs(F - i / N)), np.max(np.abs(F - (i - 1) / N)))
        assert ks < 0.05


class TestSampleWishart:
    def test_shape_and_determinism(self):
        B = sample_wishart_factor(20, 30, "complex_hermitian", "gaussian", np.random.default_rng(1))
        B2 = sample_wishart_factor(20, 30, "complex_hermitian", "gaussian", np.random.default_rng(1))
        assert B.shape == (20, 30)
        assert np.array_equal(B, B2)

    def test_unit_entry_variance(self):
        B = sample_wishart_factor(
            300, 200, "complex_hermitian", "gaussian", np.random.default_rng(2)
        )
        assert abs(np.mean(np.abs(B) ** 2) - 1.0) < 0.05
        Br = sample_wishart_factor(300, 200, "real_symmetric", "gaussian", np.random.default_rng(2))
        assert Br.dtype.kind == "f"
        assert abs(np.mean(Br**2) - 1.0) < 0.05

    def test_square_case_operator_norm(self):
        N = p = 1000
        B = sample_wishart_factor(N, p, "complex_hermitian", "gaussian", np.random.default_rng(9))
        top = np.linalg.eigvalsh(B @ B.conj().T / p)[-1]
        assert abs(top - 4.0) < 0.1

    def test_p_choice(self):
        assert wishart_p(1000, 1.0) == 1000
        assert wishart_p(1000, 2.0) == 500
        assert wishart_p(1000, 0.5) == 2000
        assert wishart_p(3, 100.0) == 1


class TestAssemble:
    def test_additive_is_sum(self):
        spec = paper_spec()
        A, _, _ = build_perturbation(spec)
        X = sample_wigner(8, "complex_hermitian", "gaussian", np.random.default_rng(0))
        M = assemble(spec, A, X)
        assert np.allclose(M, X + np.diag(A))

    def test_additive_zero_noise(self):
        spec = paper_spec()
        A, _, _ = build_perturbation(spec)
        M = assemble(spec, A, np.zeros((8, 8)))
        assert np.allclose(M, np.diag(A))

    def test_multiplicative_identity_population(self):
        spec = SpikedModelSpec(
            kind="multiplicative_wishart", nu=DELTA1, spikes=((3.0, 1),), N=4, seed=0, c=1.0
        )
        A = np.ones(4)
        B = sample_wishart_factor(4, 4, "complex_hermitian", "gaussian", np.random.default_rng(0))
        M = assemble(spec, A, B)
        assert np.allclose(M, B @ B.conj().T / 4)

    def test_multiplicative_rejects_negative_diagonal(self):
        spec = bbp_spec(N=4)
        with pytest.raises(SpecError):
            assemble(spec, np.array([3.0, 1.0, -0.5, 1.0]), np.zeros((4, 4)))


class TestDiagonalize:
    def test_diagonal_matrix(self):
        lam, V = diagonalize(np.diag([3.0, -1.0, 2.0]), [1, 2, 3])
        assert np.allclose(lam, [3.0, 2.0, -1.0])
        assert np.allclose(np.abs(V), np.eye(3)[:, [0, 2, 1]])

    def test_two_by_two_swap(self):
        lam, V = diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]), [1, 2])
        assert np.allclose(lam, [1.0, -1.0])
        assert np.allclose(np.abs(V), np.full((2, 2), 1.0 / math.sqrt(2.0)))

    def test_two_by_two_swap_each_rank_alone(self):
        # The all-ones vector is an exact eigenvector here, so a start
        # vector of ones would never reach the rank-2 eigenvector.
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        for rank, sign in ((1, 1.0), (2, -1.0)):
            _, V = diagonalize(M, [rank])
            assert V.shape == (2, 1)
            assert np.allclose(V[:, 0] * np.sign(V[0, 0]), np.array([1.0, sign]) / math.sqrt(2.0))

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        H = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        H = (H + H.conj().T) / 2.0
        lam, V = diagonalize(H, range(1, 51))
        assert np.all(np.diff(lam) <= 0.0)
        assert np.linalg.norm(V @ np.diag(lam) @ V.conj().T - H) < 1e-8
        assert np.max(np.abs(V.conj().T @ V - np.eye(50))) < 1e-8

    def test_exactly_singular_shift_on_diagonal_input(self):
        # M - lambda I is exactly singular at every eigenvalue of a diagonal M.
        lam, V = diagonalize(np.diag([2.0, 0.0, -1.0, 0.5]), [4, 2])
        assert lam.tolist() == [2.0, 0.5, 0.0, -1.0]
        assert np.allclose(np.abs(V), np.eye(4)[:, [2, 3]], atol=1e-12)

    def test_equal_eigenvalues_span_their_eigenspace(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA1, spikes=((5.0, 2),), N=6, seed=0, sigma2=1.0
        )
        A, ranks, projs = build_perturbation(spec)
        lam, V = diagonalize(np.diag(A), ranks[0])
        assert lam[:2].tolist() == [5.0, 5.0]
        assert np.max(np.abs(V.T @ V - np.eye(2))) < 1e-12
        sample = EnsembleSample(
            eigenvalues=lam, eigenvectors=V, spike_ranks=ranks, spike_projectors=projs
        )
        per, summed = overlaps(sample, 0, 0)
        assert per == pytest.approx([1.0, 1.0], abs=1e-12)
        assert summed == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            SpikedModelSpec(
                kind="multiplicative_wishart",
                nu=AtomicMeasure(((1.0, 0.5), (4.0, 0.5))),
                spikes=((6.0, 1), (2.5, 2)),
                N=200,
                seed=4,
                c=0.1,
                field="real_symmetric",
            ),
            paper_spec(N=200, seed=9),
        ],
        ids=["wishart_real_gap_pair", "additive_complex"],
    )
    def test_selected_vectors_match_full_eigh(self, spec):
        sample = draw_sample(spec)
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        A, ranks, projs = build_perturbation(spec)
        if spec.kind == "additive_wigner":
            noise = math.sqrt(spec.sigma2) * sample_wigner(spec.N, spec.field, spec.entry_law, rng)
        else:
            p = wishart_p(spec.N, spec.c)
            noise = sample_wishart_factor(spec.N, p, spec.field, spec.entry_law, rng)
        lam, V = np.linalg.eigh(assemble(spec, A, noise))
        flat = [r for block in ranks for r in block]
        reference = EnsembleSample(
            eigenvalues=lam[::-1],
            eigenvectors=V[:, ::-1][:, [r - 1 for r in flat]],
            spike_ranks=ranks,
            spike_projectors=projs,
        )
        assert sample.eigenvectors.shape == (spec.N, spec.rank)
        assert np.max(np.abs(sample.eigenvalues - reference.eigenvalues)) < 1e-12
        for j in range(len(spec.spikes)):
            for l in range(len(spec.spikes)):
                per, summed = overlaps(sample, j, l)
                ref_per, ref_summed = overlaps(reference, j, l)
                assert per == pytest.approx(ref_per, abs=1e-10)
                assert summed == pytest.approx(ref_summed, abs=1e-10)

    def test_inaccurate_eigenvalue_fails_residual_check(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: eigvalsh(M) + 1e-3)
        with pytest.raises(NumericalError, match="residual"):
            diagonalize(np.diag([3.0, -1.0, 2.0]), [2])

    def test_non_hermitian_input_detected(self):
        with pytest.raises(NumericalError):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]), [1])

    def test_non_hermitian_block_away_from_returned_vectors_detected(self):
        # The rank-1 pair alone passes its residual and Gram checks.
        M = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NumericalError, match="not Hermitian"):
            diagonalize(M, [1])

    @pytest.mark.parametrize("ranks", [[0], [3], [1, 1]])
    def test_bad_ranks_rejected(self, ranks):
        with pytest.raises(SpecError):
            diagonalize(np.eye(2), ranks)


class TestOverlapsAndDraw:
    def test_noiseless_overlaps_are_kronecker(self):
        spec = paper_spec()
        A, ranks, projs = build_perturbation(spec)
        lam, V = diagonalize(np.diag(A).astype(complex), [r for block in ranks for r in block])
        sample = EnsembleSample(
            eigenvalues=lam, eigenvectors=V, spike_ranks=ranks, spike_projectors=projs
        )
        for j in range(3):
            for l in range(3):
                per, summed = overlaps(sample, j, l)
                expected = 1.0 if j == l else 0.0
                assert per == pytest.approx([expected], abs=1e-12)
                assert summed == pytest.approx(expected, abs=1e-12)

    def test_pythagoras_partition(self):
        spec = paper_spec(N=60, seed=5)
        sample = draw_sample(spec)
        j = 0
        total = 0.0
        for l in range(3):
            _, summed = overlaps(sample, j, l)
            total += summed
        spike_coords = [i for p in sample.spike_projectors for i in p]
        bulk = np.setdiff1d(np.arange(60), spike_coords)
        vec = sample.vector(sample.spike_ranks[j][0])
        total += float(np.sum(np.abs(vec[bulk]) ** 2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_multiplicity_summed_overlap(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA0, spikes=((4.0, 2),), N=80, seed=3, sigma2=1.0
        )
        sample = draw_sample(spec)
        per, summed = overlaps(sample, 0, 0)
        assert len(per) == 2
        assert summed == pytest.approx(sum(per), abs=1e-12)
        # theta=4, delta_0, sigma=1: tau = 1 - 1/16, summed ~ k*tau
        assert abs(summed - 2.0 * (1.0 - 1.0 / 16.0)) < 0.25

    def test_paper_overlap_smoke(self):
        sample = draw_sample(paper_spec(N=500, seed=21))
        _, summed = overlaps(sample, 0, 0)
        assert 0.6 < summed < 0.85
        _, cross = overlaps(sample, 0, 1)
        assert cross < 0.05

    def test_draw_determinism_and_seed_sensitivity(self):
        a = draw_sample(paper_spec(N=40, seed=2))
        b = draw_sample(paper_spec(N=40, seed=2))
        c = draw_sample(paper_spec(N=40, seed=3))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert not np.array_equal(a.eigenvalues, c.eigenvalues)

    def test_shift_invariance(self):
        base = SpikedModelSpec(
            kind="additive_wigner", nu=TWO_POINT, spikes=((2.0, 1),), N=50, seed=13, sigma2=0.5
        )
        shifted_nu = AtomicMeasure(((2.0, 0.5), (4.0, 0.5)))
        shifted = SpikedModelSpec(
            kind="additive_wigner", nu=shifted_nu, spikes=((5.0, 1),), N=50, seed=13, sigma2=0.5
        )
        a = draw_sample(base)
        b = draw_sample(shifted)
        assert np.max(np.abs(b.eigenvalues - (a.eigenvalues + 3.0))) < 1e-9

    def test_weyl_bound(self):
        spec = paper_spec(N=80, seed=17)
        A, _, _ = build_perturbation(spec)
        rng = np.random.default_rng(np.random.SeedSequence(17))
        X = math.sqrt(spec.sigma2) * sample_wigner(80, "complex_hermitian", "gaussian", rng)
        sample = draw_sample(spec)
        x_norm = float(np.max(np.abs(np.linalg.eigvalsh(X))))
        ref = np.sort(A)[::-1]
        assert np.max(np.abs(sample.eigenvalues - ref)) <= x_norm + 1e-9

    def test_wishart_sample_is_psd(self):
        sample = draw_sample(bbp_spec(N=60, seed=4))
        assert sample.eigenvalues[-1] > -1e-10
        assert sample.eigenvalues[0] > 3.0  # spike pushes top eigenvalue up

    def test_real_and_rademacher_paths(self):
        for field in ("real_symmetric", "complex_hermitian"):
            for law in ("gaussian", "rademacher"):
                spec = SpikedModelSpec(
                    kind="additive_wigner", nu=DELTA0, spikes=((2.0, 1),), N=30, seed=1,
                    sigma2=1.0, entry_law=law, field=field,
                )
                sample = draw_sample(spec)
                assert sample.eigenvalues.shape == (30,)
