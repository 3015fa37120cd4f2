"""Finite-N model construction, sampling, and eigen-extraction tests."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import vector_overlaps
from spikelab.ensemble import (
    ENTRY_LAWS,
    FIELDS,
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
from spikelab import free_additive, free_multiplicative, lapack, verify
from spikelab.errors import DomainError, NumericalError, SpecError
from spikelab.free_additive import AdditiveContext
from spikelab.free_multiplicative import MultiplicativeContext
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

    @pytest.mark.parametrize("kind, nu, scale, theta", [
        pytest.param("additive_wigner", TWO_POINT, 0.0, 3.0, id="sigma2_not_positive"),
        pytest.param("multiplicative_wishart", DELTA1, -0.5, 3.0, id="c_not_positive"),
        pytest.param("multiplicative_wishart", TWO_POINT, 0.5, 3.0, id="negative_atom"),
        pytest.param("additive_wigner", TWO_POINT, 0.5, 1.0 + 1e-13, id="additive_spike_on_atom"),
        pytest.param("multiplicative_wishart", DELTA1, 0.5, 1.0 - 1e-13, id="wishart_spike_on_atom"),
        pytest.param("multiplicative_wishart", DELTA1, 0.5, 0.0, id="wishart_spike_not_positive"),
        pytest.param("additive_wigner", ((1.0, 1.0),), 0.5, 3.0, id="additive_nu_not_a_measure"),
        pytest.param("multiplicative_wishart", ((1.0, 1.0),), 0.5, 3.0, id="wishart_nu_not_a_measure"),
    ])
    def test_each_rule_refuses_with_the_message_of_its_context(self, kind, nu, scale, theta):
        # sigma2, c, nu and the spike domain are checked by the context alone; the spec
        # passes its message on.
        additive = kind == "additive_wigner"
        with pytest.raises(SpecError) as refused:
            SpikedModelSpec(
                kind=kind, nu=nu, spikes=((theta, 1),), N=4, seed=0,
                **{"sigma2" if additive else "c": scale},
            )
        family = free_additive if additive else free_multiplicative
        context = AdditiveContext if additive else MultiplicativeContext
        with pytest.raises((SpecError, DomainError)) as by_context:
            family.classify_spike(context(nu, scale), theta)
        assert str(refused.value) == str(by_context.value)

    @pytest.mark.parametrize("mult", [1.5, True, "2", None, 0, -1.0])
    def test_the_spec_refuses_a_multiplicity_that_is_not_a_positive_integer(self, mult):
        # The spec alone holds k: an integer >= 1, or a float with such a value.
        with pytest.raises(SpecError):
            SpikedModelSpec(
                kind="additive_wigner", nu=TWO_POINT, spikes=((2.0, mult),), N=None, seed=0,
                sigma2=0.5,
            )

    def test_an_integral_float_multiplicity_is_an_int_in_the_spec(self):
        spec = SpikedModelSpec(
            kind="multiplicative_wishart", nu=DELTA1, spikes=((2.0, 2.0),), N=None, seed=0, c=0.5
        )
        mult = spec.spikes[0][1]
        assert mult == 2 and type(mult) is int

    def test_limit_is_the_context_at_sigma2_or_the_requested_c(self):
        spec = paper_spec()
        assert spec.limit == AdditiveContext(TWO_POINT, 0.5) and spec.family is free_additive
        spec = bbp_spec(c=0.3)
        assert spec.limit == MultiplicativeContext(DELTA1, 0.3) and spec.family is free_multiplicative
        # replace builds the context again, and it takes no part in equality.
        again = dataclasses.replace(spec, c=0.6)
        assert again.limit.c == 0.6 and again != spec
        assert dataclasses.replace(again, c=0.3) == spec

    def test_N_may_be_absent_until_a_sample_is_drawn(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA0, spikes=((1.0, 2.0),), N=None, seed=0, sigma2=1.0
        )
        assert spec.spikes == ((1.0, 2),) and isinstance(spec.spikes[0][1], int)
        with pytest.raises(SpecError, match="requires N"):
            draw_sample(spec)


def _analysis(spec):
    """What ``analyze`` reports: each spike's rho, tau and criterion, and the support."""
    verdicts = [spec.family.classify_spike(spec.limit, t) for t, _ in spec.spikes]
    support = spec.family.support(spec.limit).intervals
    return [(v.rho, v.tau, v.criterion_value) for v in verdicts], support


class TestScale:
    """Both families are scale-equivariant; the spec's context is where a model is normalized.

    The xfails pin the absolute constants of ROADMAP item 4 (MERGE_TOL, and the solve of
    omega at large scales), which break it today.
    """

    @pytest.mark.parametrize("scale", [
        # theta = 1.5 s lies 0.5 s, about 1.8e-12, from an atom: just outside MERGE_TOL.
        pytest.param(2.0**-38, id="2^-38"),
        # Every spike but 0 lies within 1e-12 of an atom: the spec refuses.
        pytest.param(2.0**-40, id="2^-40", marks=pytest.mark.xfail(
            strict=True, raises=SpecError, reason="ROADMAP item 4")),
    ])
    def test_the_readme_model_scales_exactly(self, scale):
        def readme(s):
            return SpikedModelSpec(
                kind="additive_wigner", nu=AtomicMeasure(((s, 0.5), (-s, 0.5))),
                spikes=((2.0 * s, 1), (1.5 * s, 1), (0.0, 1)), N=None, seed=0, sigma2=0.5 * s * s,
            )

        spikes, support = _analysis(readme(scale))
        want_spikes, want_support = _analysis(readme(1.0))
        assert spikes == [
            (None if rho is None else rho * scale, tau, crit) for rho, tau, crit in want_spikes
        ]
        assert support == tuple((lo * scale, hi * scale) for lo, hi in want_support)

    @pytest.mark.parametrize("k", [-36, 2, 10, 300, 500])
    @pytest.mark.parametrize("entry_law", ENTRY_LAWS)
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("kind", ["additive_wigner", "multiplicative_wishart"])
    def test_a_replica_scales_exactly_by_an_even_power_of_two(self, kind, field, entry_law, k):
        # Every location, spike and sigma times s = 2^k scales M by s exactly: the Wishart
        # sqrt(A) needs sqrt(s) = 2^(k/2), so k is even.  Replica 0's eigenvalues then scale
        # by s exactly, and its eigenvectors are the same bits.
        def replica(s):
            if kind == "additive_wigner":  # the README model
                nu, spikes = ((s, 0.5), (-s, 0.5)), ((2.0, 1), (1.5, 1), (0.0, 1))
                scales = {"sigma2": 0.5 * s * s}
            else:
                nu, spikes = ((s, 0.5), (4.0 * s, 0.5)), ((6.0, 1), (3.5, 1), (2.5, 2))
                scales = {"c": 0.5}
            spec = SpikedModelSpec(
                kind=kind, nu=AtomicMeasure(nu), spikes=tuple((t * s, m) for t, m in spikes),
                N=120, seed=3, entry_law=entry_law, field=field, **scales,
            )
            return next(verify.replicas(spec, 1))

        s = 2.0**k
        base, scaled = replica(1.0), replica(s)
        assert np.array_equal(scaled.eigenvalues, base.eigenvalues * s)
        assert np.array_equal(scaled.eigenvectors, base.eigenvectors)
        assert scaled.spike_ranks == base.spike_ranks

    @pytest.mark.parametrize("t", [
        pytest.param(1e80, id="1e80"),
        # omega is NaN at x = 0.667 t.
        pytest.param(1e85, id="1e85", marks=pytest.mark.xfail(
            strict=True, raises=NumericalError, reason="ROADMAP item 4")),
        # No error, but f(0.667 t) and f(2.3 t) are 9% and 2% off.
        pytest.param(1e90, id="1e90", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="ROADMAP item 4")),
        pytest.param(1e95, id="1e95", marks=pytest.mark.xfail(
            strict=True, raises=NumericalError, reason="ROADMAP item 4")),
        pytest.param(1e100, id="1e100", marks=pytest.mark.xfail(
            strict=True, raises=NumericalError, reason="ROADMAP item 4")),
    ])
    def test_the_wishart_density_of_a_large_atom(self, t):
        # nu = delta_t, c = 0.5: the density at x t is the Marchenko-Pastur one at x, over t.
        def density(t):
            spec = SpikedModelSpec(
                kind="multiplicative_wishart", nu=AtomicMeasure(((t, 1.0),)), spikes=(),
                N=None, seed=0, c=0.5,
            )
            return spec.family.density(spec.limit, xs * t)

        xs = np.linspace(0.1, 3.5, 7)
        want = density(1.0)
        got = density(t) * t
        assert np.all((got == 0.0) == (want == 0.0))
        assert np.abs(got - want).max() <= 1e-12 * want.max()


class TestBuildPerturbation:
    def test_paper_example_small(self):
        diag, ranks = build_perturbation(paper_spec(N=8))
        assert np.allclose(diag, [2.0, 1.5, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0])
        assert ranks == (range(1, 2), range(2, 3), range(5, 6))
        for (theta, _), block in zip(paper_spec(N=8).spikes, ranks):
            assert all(diag[r - 1] == theta for r in block)

    def test_zero_bulk(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA0, spikes=((3.0, 1),), N=6, seed=0, sigma2=1.0
        )
        diag, ranks = build_perturbation(spec)
        assert np.allclose(diag, [3.0, 0, 0, 0, 0, 0])
        assert ranks == (range(1, 2),)

    def test_multiplicity_two(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA1, spikes=((5.0, 2),), N=5, seed=0, sigma2=1.0
        )
        diag, ranks = build_perturbation(spec)
        assert np.allclose(diag, [5.0, 5.0, 1.0, 1.0, 1.0])
        assert ranks == (range(1, 3),)
        assert all(diag[r - 1] == 5.0 for r in ranks[0])

    def test_paper_example_full_size(self):
        diag, ranks = build_perturbation(paper_spec(N=1000))
        assert ranks == (range(1, 2), range(2, 3), range(501, 502))
        assert int(np.sum(diag == -1.0)) == 499
        assert int(np.sum(diag == 1.0)) == 498

    def test_spike_below_bulk(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=TWO_POINT, spikes=((-2.0, 1),), N=8, seed=0, sigma2=0.5
        )
        diag, ranks = build_perturbation(spec)
        assert diag[-1] == -2.0
        assert ranks == (range(8, 9),)
        assert all(diag[r - 1] == -2.0 for r in ranks[0])


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


FIELD_IDS = ("real_symmetric", "complex_hermitian")


def _ks_two_sample(a, b) -> float:
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


class TestSampleWishart:
    @pytest.mark.parametrize("field", FIELD_IDS)
    @pytest.mark.parametrize("p", [8, 20, 30])
    def test_gaussian_factor_is_upper_triangular_and_deterministic(self, field, p):
        N = 20
        m = min(N, p)
        F = sample_wishart_factor(N, p, field, "gaussian", np.random.default_rng(1))
        F2 = sample_wishart_factor(N, p, field, "gaussian", np.random.default_rng(1))
        assert F.shape == (N, N)
        assert F.dtype.kind == ("c" if field == "complex_hermitian" else "f")
        assert np.array_equal(F, F2)
        assert not np.any(np.tril(F, -1))
        assert not np.any(F[:, : N - m])
        diag = np.diagonal(F)[N - m :]
        assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)
        # Above the diagonal every entry of the last m columns is drawn.
        rows, cols = np.triu_indices(N, 1)
        drawn = cols >= N - m
        assert np.all(F[rows[drawn], cols[drawn]] != 0.0)

    @pytest.mark.parametrize("field", FIELD_IDS)
    @pytest.mark.parametrize("p", [8, 20, 30])
    def test_gaussian_factor_entry_moments(self, field, p):
        # Bartlett: |U_jj|^2 has mean p - i and variance 2(p - i) (real) or
        # p - i (complex), i = N - 1 - j; entries above the diagonal have
        # mean 0 and unit variance.  Each sum over 400 draws is
        # standardized; |z| <= 4.
        N, draws = 20, 400
        complex_field = field == "complex_hermitian"
        children = np.random.SeedSequence(7).spawn(draws)
        F = np.array([
            sample_wishart_factor(N, p, field, "gaussian", np.random.default_rng(child))
            for child in children
        ])
        m = min(N, p)
        dof = p - (N - 1 - np.arange(N - m, N))
        diag = np.abs(np.diagonal(F, axis1=1, axis2=2)[:, N - m :]) ** 2
        var = dof if complex_field else 2 * dof
        assert abs(np.sum(diag - dof)) <= 4.0 * math.sqrt(draws * np.sum(var))
        rows, cols = np.triu_indices(N, 1)
        drawn = cols >= N - m
        above = F[:, rows[drawn], cols[drawn]].ravel()
        n = above.size
        square = np.abs(above) ** 2
        assert abs(np.sum(square - 1.0)) <= 4.0 * math.sqrt(n * (1.0 if complex_field else 2.0))
        parts = (above.real, above.imag) if complex_field else (above,)
        for part in parts:
            assert abs(np.sum(part)) <= 4.0 * math.sqrt(n / len(parts))
        if complex_field:
            # Real and imaginary parts carry half the variance each.
            assert abs(np.mean(above.real**2) - 0.5) <= 4.0 * math.sqrt(0.5 / n)

    @pytest.mark.parametrize("field", FIELD_IDS)
    def test_rademacher_factor_is_b(self, field):
        B = sample_wishart_factor(20, 30, field, "rademacher", np.random.default_rng(2))
        B2 = sample_wishart_factor(20, 30, field, "rademacher", np.random.default_rng(2))
        assert B.shape == (20, 30)
        assert np.array_equal(B, B2)
        if field == "complex_hermitian":
            parts = np.concatenate([B.real, B.imag]) * math.sqrt(2.0)
            assert np.array_equal(np.abs(parts), np.ones_like(parts))
        else:
            assert B.dtype.kind == "f"
            assert np.array_equal(np.abs(B), np.ones_like(B))
        assert {1.0, -1.0} <= set(np.sign(B.real).ravel().tolist())

    @pytest.mark.parametrize("field", FIELD_IDS)
    @pytest.mark.parametrize("p", [50, 200, 2000])
    def test_factor_matches_the_law_of_b(self, field, p):
        # Reference draws of B are made here with rng.standard_normal, apart
        # from the code under test, on streams disjoint from the factor's.
        N, seeds = 200, 60
        children = np.random.SeedSequence(20261018).spawn(2 * seeds)
        complex_field = field == "complex_hermitian"
        ref, new = [], []
        for child in children[:seeds]:
            rng = np.random.default_rng(child)
            B = rng.standard_normal((N, p))
            if complex_field:
                B = (B + 1j * rng.standard_normal((N, p))) / math.sqrt(2.0)
            ref.append(np.linalg.eigvalsh(B @ B.conj().T / p))
        for child in children[seeds:]:
            F = sample_wishart_factor(N, p, field, "gaussian", np.random.default_rng(child))
            new.append(np.linalg.eigvalsh(F @ F.conj().T / p))
        ref, new = np.array(ref), np.array(new)

        # Moments 1-3 and the top eigenvalue, per draw: the two means agree
        # to within 4 standard errors of their difference.
        for k in (1, 2, 3, None):
            a = ref[:, -1] if k is None else np.mean(ref**k, axis=1)
            b = new[:, -1] if k is None else np.mean(new**k, axis=1)
            se = math.sqrt(a.var(ddof=1) / seeds + b.var(ddof=1) / seeds)
            assert abs(a.mean() - b.mean()) <= 4.0 * se, (k, a.mean(), b.mean(), se)
        # Pooled eigenvalues: the two-sample KS distance stays below the
        # 1% critical value for independent samples of this size, which
        # eigenvalue rigidity makes conservative.
        n = ref.size
        assert _ks_two_sample(ref.ravel(), new.ravel()) < 1.63 * math.sqrt(2.0 / n)

    def test_square_case_operator_norm(self):
        N = p = 1000
        B = sample_wishart_factor(N, p, "complex_hermitian", "gaussian", np.random.default_rng(9))
        top = np.linalg.eigvalsh(B @ B.conj().T / p)[-1]
        assert abs(top - 4.0) < 0.1

    @pytest.mark.parametrize("entry_law", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("N, p, bad", [(3, -2, "p"), (3, 0, "p"), (-1, 4, "N"), (3, 2.0, "p")])
    def test_bad_dimensions_rejected(self, entry_law, N, p, bad):
        with pytest.raises(SpecError, match=f"^{bad} must be a positive integer"):
            sample_wishart_factor(N, p, "real_symmetric", entry_law, np.random.default_rng(0))

    def test_wigner_rejects_a_bad_dimension(self):
        with pytest.raises(SpecError, match="^N must be a positive integer"):
            sample_wigner(-2, "real_symmetric", "gaussian", np.random.default_rng(0))

    def test_p_choice(self):
        assert wishart_p(1000, 1.0) == 1000
        assert wishart_p(1000, 2.0) == 500
        assert wishart_p(1000, 0.5) == 2000
        assert wishart_p(3, 100.0) == 1


class TestAssemble:
    def test_additive_is_sum(self):
        spec = paper_spec()
        A, _ = build_perturbation(spec)
        X = sample_wigner(8, "complex_hermitian", "gaussian", np.random.default_rng(0))
        M = assemble(spec, A, X)
        assert np.allclose(M, X + np.diag(A))

    def test_additive_zero_noise(self):
        spec = paper_spec()
        A, _ = build_perturbation(spec)
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

    def test_multiplicative_divides_by_the_spec_p(self):
        # The Bartlett factor of an N x 16N matrix B is N x N; M still
        # carries B B*/p with p = 16 N.  Integer factor entries, square
        # diagonal entries and p a power of 2 make every product exact, so
        # M is pinned bit for bit whatever order its sums are taken in.
        spec = SpikedModelSpec(
            kind="multiplicative_wishart", nu=DELTA1, spikes=((3.0, 1),), N=4, seed=0,
            c=1.0 / 16.0, field="real_symmetric",
        )
        F = sample_wishart_factor(4, 64, "real_symmetric", "gaussian", np.random.default_rng(0))
        assert F.shape == (4, 4)
        F = np.round(4.0 * F)
        A = np.array([9.0, 1.0, 4.0, 1.0])
        root = np.sqrt(A)
        M = assemble(spec, A, F)
        assert np.array_equal(M, root[:, None] * (F @ F.T / 64) * root[None, :])

    @pytest.mark.parametrize(
        "spec", [paper_spec(), bbp_spec(N=8)], ids=["additive", "multiplicative"]
    )
    @pytest.mark.parametrize("size", [7, 9])
    def test_perturbation_of_the_wrong_length_rejected(self, spec, size):
        with pytest.raises(SpecError, match="^A must hold the N=8 diagonal entries"):
            assemble(spec, np.ones(size), np.zeros((8, 8)))

    def test_multiplicative_rejects_negative_diagonal(self):
        spec = bbp_spec(N=4)
        with pytest.raises(SpecError):
            assemble(spec, np.array([3.0, 1.0, -0.5, 1.0]), np.zeros((4, 4)))


KD = lapack._KD
FIELD_OF = {float: "real_symmetric", complex: "complex_hermitian"}
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def phases(n, dtype):
    """A fixed diagonal of unit phases in the field of ``dtype``: ones for float."""
    return np.exp(1j * np.arange(n)) if dtype is complex else np.ones(n)


def in_field(M, dtype):
    """The real symmetric M as it is, or D M D* with D = phases: same eigenvalues, vectors D v."""
    D = phases(M.shape[0], dtype)
    return (D[:, None] * M * D.conj()).astype(dtype)


def random_hermitian(rng, n, dtype):
    H = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        H += 1j * rng.standard_normal((n, n))
    return np.asfortranarray(H + H.conj().T)


def assert_spans(V, Q, tol):
    """The columns of V lie in the span of Q's orthonormal columns."""
    assert np.linalg.norm(V - Q @ (Q.conj().T @ V), axis=0).max() <= tol


class TestDiagonalize:
    """On the LAPACK path, real and complex; TestDiagonalizeEighFallback reruns every case on eigh."""

    @pytest.fixture(autouse=True)
    def solver(self):
        if lapack.routines() is None:
            pytest.skip("numpy's LAPACK does not export the partial-eigensolve routines")

    @pytest.fixture(params=[float, complex])
    def dtype(self, request):
        return request.param

    @staticmethod
    def inject_eigenvalue_error(monkeypatch, error):
        sterf = lapack.sterf
        monkeypatch.setattr(lapack, "sterf", lambda d, e: sterf(d, e) + error)

    def test_diagonal_matrix(self, dtype):
        lam, V = diagonalize(np.diag([3.0, -1.0, 2.0]).astype(dtype), [1, 2, 3])
        assert np.allclose(lam, [3.0, 2.0, -1.0])
        assert np.allclose(np.abs(V), np.eye(3)[:, [0, 2, 1]])

    def test_two_by_two_swap(self, dtype):
        lam, V = diagonalize(in_field(SWAP, dtype), [1, 2])
        assert np.allclose(lam, [1.0, -1.0])
        assert np.allclose(np.abs(V), np.full((2, 2), 1.0 / math.sqrt(2.0)))

    def test_two_by_two_swap_each_rank_alone(self, dtype):
        # The all-ones vector is an exact eigenvector here, so a start
        # vector of ones would never reach the rank-2 eigenvector.
        M = in_field(SWAP, dtype)
        for rank, sign in ((1, 1.0), (2, -1.0)):
            _, V = diagonalize(M, [rank])
            assert V.shape == (2, 1)
            v = V[:, 0] * np.conj(np.sign(V[0, 0]))  # first entry real and positive
            assert np.allclose(v, phases(2, dtype) * np.array([1.0, sign]) / math.sqrt(2.0))

    def test_reconstruction(self, dtype):
        H = random_hermitian(np.random.default_rng(8), 50, dtype) / 2.0
        lam, V = diagonalize(H, range(1, 51))
        assert np.all(np.diff(lam) <= 0.0)
        assert np.linalg.norm(V @ np.diag(lam) @ V.conj().T - H) < 1e-8
        assert np.max(np.abs(V.conj().T @ V - np.eye(50))) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, KD, KD + 1, KD + 2])
    def test_sizes_around_the_band_width(self, dtype, n):
        # ?hetrd_he2hb only copies M when n <= kd + 1; past that it reduces.
        H = random_hermitian(np.random.default_rng(n), n, dtype)
        ranks = np.random.default_rng(0).permutation(np.arange(1, n + 1))
        lam, V = diagonalize(H, ranks)
        w, Z = np.linalg.eigh(H)
        assert np.max(np.abs(lam - w[::-1])) <= 8 * n * np.finfo(float).eps * np.max(np.abs(w))
        overlap = np.abs(np.sum(Z[:, ::-1][:, ranks - 1].conj() * V, axis=0))
        assert np.allclose(overlap, 1.0, atol=1e-10)

    def test_exactly_singular_shift_on_diagonal_input(self, dtype):
        # M - lambda I is exactly singular at every eigenvalue of a diagonal M.
        lam, V = diagonalize(np.diag([2.0, 0.0, -1.0, 0.5]).astype(dtype), [4, 2])
        assert lam.tolist() == [2.0, 0.5, 0.0, -1.0]
        assert np.allclose(np.abs(V), np.eye(4)[:, [2, 3]], atol=1e-12)

    def test_exactly_singular_shifts_with_repeats_past_the_band_width(self, dtype):
        # Every shift is exactly singular, most of them more than once over,
        # and n > kd + 1, so a complex M goes through the band reduction.
        n = KD + 24
        values = (np.random.default_rng(5).permutation(n) % 13).astype(float)
        lam, V = diagonalize(np.diag(values).astype(dtype), range(1, n + 1))
        assert lam.tolist() == sorted(values.tolist(), reverse=True)
        for value in set(values.tolist()):
            coords = np.flatnonzero(values == value)
            assert_spans(V[:, lam == value], np.eye(n)[:, coords], 1e-12)

    def test_zero_matrix(self, dtype):
        # ||M|| = 0: every shift is singular and there is no scale to take eps of.
        n = KD + 2
        lam, V = diagonalize(np.zeros((n, n), dtype=dtype), range(1, n + 1))
        assert lam.tolist() == [0.0] * n
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) < 1e-12

    def test_equal_eigenvalues_span_their_eigenspace(self, dtype):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA1, spikes=((5.0, 2),), N=6, seed=0, sigma2=1.0
        )
        A, ranks = build_perturbation(spec)
        lam, V = diagonalize(np.diag(A).astype(dtype), ranks[0])
        assert lam[:2].tolist() == [5.0, 5.0]
        assert np.max(np.abs(V.conj().T @ V - np.eye(2))) < 1e-12
        sample = EnsembleSample(
            eigenvalues=lam, eigenvectors=V, spike_ranks=ranks
        )
        assert vector_overlaps(sample, 0, 0) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert overlaps(sample, 0) == pytest.approx([2.0], abs=1e-12)

    def test_equal_and_clustered_eigenvalues_off_the_axes(self, dtype):
        # A triple eigenvalue, a cluster 1e-9 apart and a pair 1e-6 apart,
        # rotated by a random unitary Q: each group's vectors span its
        # eigenspace, also when only some of a group's ranks are asked for.
        n = KD + 24
        lam = np.concatenate([
            [3.0, 3.0, 3.0], 2.0 + 1e-9 * np.arange(3), [1.0, 1.0 + 1e-6],
            np.linspace(-1.0, 0.5, n - 8),
        ])
        Q, _ = np.linalg.qr(random_hermitian(np.random.default_rng(6), n, dtype))
        H = np.asfortranarray((Q * lam) @ Q.conj().T)
        H = (H + H.conj().T) / 2.0
        order = np.argsort(-lam, kind="stable")
        for group in ([1, 2, 3], [4, 5, 6], [7, 8], [1, 3], [5], [1, 2, 3, 4, 5, 6, 7, 8, 20]):
            _, V = diagonalize(H, group)
            for ranks in ([1, 2, 3], [4, 5, 6], [7, 8]):
                chosen = [i for i, r in enumerate(group) if r in ranks]
                if chosen:
                    assert_spans(V[:, chosen], Q[:, order[np.array(ranks) - 1]], 1e-9)

    def test_tiny_scale_gives_the_vectors_of_unit_scale(self, dtype):
        # At ||M|| = 1e-200 the squares of T's entries underflow, unless the
        # solve runs at unit scale.
        H = random_hermitian(np.random.default_rng(9), KD + 24, dtype)
        ranks = [1, 5, KD + 24]
        _, V = diagonalize(H, ranks)
        _, W = diagonalize(H * 1e-200, ranks)
        assert np.allclose(np.abs(np.sum(V.conj() * W, axis=0)), 1.0, atol=1e-10)

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
            ),
            paper_spec(N=200, seed=9),
            SpikedModelSpec(
                kind="additive_wigner",
                nu=TWO_POINT,
                spikes=((4.0, 9), (0.0, 1)),
                N=200,
                seed=3,
                sigma2=0.5,
                entry_law="rademacher",
            ),
        ],
        ids=["wishart_gap_pair", "additive", "rademacher_multiplicity_nine"],
    )
    def test_selected_vectors_match_full_eigh(self, spec, dtype):
        spec = dataclasses.replace(spec, field=FIELD_OF[dtype])
        sample = draw_sample(spec)
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        A, ranks = build_perturbation(spec)
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
        )
        assert sample.eigenvectors.shape == (spec.N, spec.rank)
        assert np.max(np.abs(sample.eigenvalues - reference.eigenvalues)) < 1e-12
        for j in range(len(spec.spikes)):
            assert overlaps(sample, j) == pytest.approx(overlaps(reference, j), abs=1e-10)
            for l in range(len(spec.spikes)):
                per, ref_per = vector_overlaps(sample, j, l), vector_overlaps(reference, j, l)
                assert per == pytest.approx(ref_per, abs=1e-10)

    @pytest.mark.parametrize("exponent", [800, -800, 1000, -1000])
    def test_scale_by_a_power_of_two_scales_the_pairs(self, dtype, exponent):
        # Near 2^800 the squares of the residual's entries would overflow.
        H = random_hermitian(np.random.default_rng(11), 40, dtype)
        lam, V = diagonalize(H, [1, 5, 40])
        scaled_lam, scaled_V = diagonalize(H * 2.0**exponent, [1, 5, 40])
        tol = 64 * np.finfo(float).eps
        assert np.max(np.abs(scaled_lam / 2.0**exponent - lam)) <= tol * np.max(np.abs(lam))
        assert np.max(np.abs(scaled_V - V)) <= tol

    def test_a_wrong_vector_fails_the_residual_check_at_a_tiny_scale(self, monkeypatch, dtype):
        # A bound with an absolute term, 1e-7 (1 + ||M||), passes any unit
        # vector below ||M|| = 1e-7.
        eigenpairs = lapack.eigenpairs

        def second_axis(a, index):
            lam, V = eigenpairs(a, index)
            return lam, np.eye(3, dtype=V.dtype)[:, [1]]

        monkeypatch.setattr(lapack, "eigenpairs", second_axis)
        with pytest.raises(NumericalError, match="residual"):
            diagonalize(1e-9 * np.diag([3.0, -1.0, 2.0]).astype(dtype), [1])

    def test_inaccurate_eigenvalue_fails_residual_check(self, monkeypatch, dtype):
        self.inject_eigenvalue_error(monkeypatch, 1e-3)
        with pytest.raises(NumericalError, match="residual"):
            diagonalize(np.diag([3.0, -1.0, 2.0]).astype(dtype), [2])

    def test_zero_ranks(self, dtype):
        lam, V = diagonalize(np.diag([3.0, -1.0, 2.0]).astype(dtype), [])
        assert lam.tolist() == [3.0, 2.0, -1.0]
        assert V.shape == (3, 0) and V.dtype == dtype

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_non_hermitian_input_detected(self, dtype, scale):
        with pytest.raises(NumericalError):
            diagonalize(scale * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=dtype), [1])

    def test_non_hermitian_block_away_from_returned_vectors_detected(self, dtype):
        # The rank-1 pair alone passes its residual and Gram checks.
        M = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=dtype)
        with pytest.raises(NumericalError, match="not Hermitian"):
            diagonalize(M, [1])

    def test_non_hermitian_entry_far_from_the_diagonal_detected(self, dtype):
        # The check runs tile by tile; this pair of entries lies in tiles
        # off the diagonal.
        M = np.eye(150, dtype=dtype)
        M[140, 3] = 1e-3
        with pytest.raises(NumericalError, match="not Hermitian"):
            diagonalize(M, [1])

    @pytest.mark.parametrize("ranks", [[0], [3], [1, 1]])
    def test_bad_ranks_rejected(self, ranks, dtype):
        with pytest.raises(SpecError):
            diagonalize(np.eye(2, dtype=dtype), ranks)

    @pytest.mark.parametrize(
        "M, ranks",
        [
            (np.ones((2, 3)), [1]),
            (np.ones(3), [1]),
            (np.zeros((0, 0)), []),
            (np.ones((1, 2, 2)), [1]),
        ],
        ids=["not_square", "one_dimensional", "empty", "three_dimensional"],
    )
    def test_malformed_matrix_rejected(self, M, ranks, dtype):
        with pytest.raises(SpecError, match="^M must be an N x N array"):
            diagonalize(M.astype(dtype), ranks)

    @pytest.mark.parametrize("ranks", [[1.5], [1.0], [True], [1, None]])
    def test_ranks_that_are_not_integers_rejected(self, ranks, dtype):
        with pytest.raises(SpecError, match="^ranks must be distinct integers"):
            diagonalize(np.eye(3, dtype=dtype), ranks)

    def test_integer_ranks_of_any_integer_type_accepted(self, dtype):
        for ranks in ([2], (2,), range(2, 3), np.array([2], dtype=np.uint8), [np.int32(2)]):
            lam, V = diagonalize(np.diag([3.0, 2.0, 1.0]).astype(dtype), ranks)
            assert np.allclose(np.abs(V[:, 0]), [0.0, 1.0, 0.0])

    @pytest.mark.parametrize(
        "where, value",
        [((0, 3), np.nan), ((3, 0), np.nan), ((2, 2), np.inf)],
        ids=["nan_above", "nan_below", "inf_on_diagonal"],
    )
    def test_non_finite_input_named_before_the_reduction(self, monkeypatch, dtype, where, value):
        def unreached(*args):
            raise AssertionError("the eigensolve ran on a non-finite M")

        monkeypatch.setattr(lapack, "eigenpairs", unreached)
        M = np.eye(4, dtype=dtype)
        M[where] = value
        with pytest.raises(NumericalError, match="^M is not finite"):
            diagonalize(M, [1])

    def test_never_modifies_its_argument(self, dtype):
        # A Fortran-ordered M of the working dtype is the one a reduction
        # could run in without a copy.
        M = random_hermitian(np.random.default_rng(3), 30, dtype)
        before = M.copy()
        diagonalize(M, [1, 7])
        assert np.array_equal(M, before)

    def test_overwrite_leaves_the_diagonal_and_upper_triangle(self, dtype):
        M = random_hermitian(np.random.default_rng(4), 30, dtype)
        reference = diagonalize(M, [1, 7])
        work = M.copy(order="F")
        lam, V = diagonalize(work, [1, 7], overwrite=True)
        assert np.array_equal(lam, reference[0]) and np.array_equal(V, reference[1])
        assert np.array_equal(np.triu(work), np.triu(M))


class TestDiagonalizeEighFallback(TestDiagonalize):
    """Every TestDiagonalize case where numpy's LAPACK symbols do not resolve."""

    @pytest.fixture(autouse=True)
    def solver(self, monkeypatch):
        monkeypatch.setattr(lapack, "routines", lambda: None)

    @staticmethod
    def inject_eigenvalue_error(monkeypatch, error):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: (eigh(M)[0] + error, eigh(M)[1]))


def test_routines_resolve_wherever_numpy_exports_lapack():
    # routines() is None unless every symbol resolves, and then every replica
    # quietly takes np.linalg.eigh and every LAPACK-path test skips: a
    # misspelled name must fail here instead.
    library = lapack._library()
    if library is None or not hasattr(library, "scipy_dsytrd_64_"):
        pytest.skip("numpy's linalg library does not export scipy-openblas LAPACK")
    missing = [name for name in lapack._SIGNATURES if not hasattr(library, f"scipy_{name}_64_")]
    assert missing == []
    assert lapack.routines() is not None


@pytest.mark.skipif(lapack.routines() is None, reason="numpy's LAPACK lacks the routines")
def test_a_lapack_argument_error_names_its_routine():
    # INFO = -1: the first argument, N = -1, is illegal.  The library's xerbla also
    # prints a line to stderr.
    with pytest.raises(NumericalError, match="^LAPACK dsterf returned info=-1$"):
        lapack._call("dsterf", -1, np.zeros(1), np.zeros(1))


@pytest.mark.skipif(lapack.routines() is None, reason="numpy's LAPACK lacks the routines")
def test_lapack_eigenvalues_match_eigvalsh_bit_for_bit():
    # assemble mirrors one triangle into the other; scaling F F^T by sqrt(2)
    # and sqrt(3) on both sides instead rounds M_ij and M_ji differently, so
    # the two triangles of this M differ in their last bits.
    spec = SpikedModelSpec(
        kind="multiplicative_wishart", nu=AtomicMeasure(((2.0, 0.5), (3.0, 0.5))),
        spikes=((6.0, 1),), N=50, seed=0, c=0.5, field="real_symmetric",
    )
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    A, ranks = build_perturbation(spec)
    p = wishart_p(spec.N, spec.c)
    F = sample_wishart_factor(spec.N, p, spec.field, spec.entry_law, rng)
    root = np.sqrt(A)
    M = (F @ F.T / p) * root[:, None] * root[None, :]
    assert not np.array_equal(M, M.T)
    reference = np.linalg.eigvalsh(M)[::-1]
    assert np.array_equal(diagonalize(M, ranks[0])[0], reference)
    # A C-order copy hands LAPACK the upper triangle: M.T in Fortran order.
    _, _, d, e = lapack.tridiagonalize(np.array(M.T, order="F"))
    upper = lapack.sterf(d, e)[::-1]
    assert not np.array_equal(upper, reference)


@pytest.mark.skipif(lapack.routines() is None, reason="numpy's LAPACK lacks the routines")
@pytest.mark.parametrize("N", [KD + 2, 300, 1000])
def test_lapack_complex_eigenvalues_match_eigvalsh_to_rounding(N):
    # A complex M reaches T by a band reduction and bulge chasing, not by
    # ?hetrd's reflectors, so its eigenvalues match eigvalsh to rounding only.
    spec = paper_spec(N=N, seed=5)
    A, _ = build_perturbation(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    M = assemble(spec, A, math.sqrt(spec.sigma2) * sample_wigner(N, spec.field, spec.entry_law, rng))
    reference = np.linalg.eigvalsh(M)[::-1]
    lam, _ = diagonalize(M, [1])
    bound = 8 * N * np.finfo(float).eps * max(abs(reference[0]), abs(reference[-1]))
    assert np.max(np.abs(lam - reference)) <= bound


@pytest.mark.parametrize("field", FIELD_IDS)
def test_wishart_replica_with_a_block_across_the_null_space(field):
    # c = 2: M has rank p = 12 < N = 24.  Spike 2.5 sits at ranks 12, 13 and
    # 14, so its block holds the smallest nonzero eigenvalue and two
    # eigenvalues of the exactly degenerate null space.
    spec = SpikedModelSpec(
        kind="multiplicative_wishart", nu=AtomicMeasure(((1.0, 0.5), (4.0, 0.5))),
        spikes=((6.0, 1), (2.5, 3)), N=24, seed=3, c=2.0, field=field,
    )
    A, ranks = build_perturbation(spec)
    p = wishart_p(spec.N, spec.c)
    assert (p, ranks) == (12, (range(1, 2), range(12, 15)))
    sample = draw_sample(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    M = assemble(spec, A, sample_wishart_factor(spec.N, p, spec.field, spec.entry_law, rng))
    reference = np.linalg.eigvalsh(M)[::-1]
    bound = 8 * spec.N * np.finfo(float).eps * reference[0]
    assert np.max(np.abs(sample.eigenvalues - reference)) <= bound
    assert np.all(np.abs(reference[p:]) <= bound) and reference[p - 1] > 1e3 * bound
    flat = [r - 1 for block in ranks for r in block]
    assert np.all(np.sum(np.abs(sample.eigenvectors[flat]) ** 2, axis=0) <= 1.0 + 1e-12)


@pytest.mark.skipif(lapack.routines() is None, reason="numpy's LAPACK lacks the routines")
@pytest.mark.parametrize("field", FIELD_IDS)
def test_rademacher_wishart_replica_without_the_lapack_routines(monkeypatch, field):
    # p = 800 = 10 N: add_gram adds ten blocks of B, by ?syrk/?herk or, with no
    # routines, by numpy's matmul; the replica of one seed agrees to rounding.
    spec = SpikedModelSpec(
        kind="multiplicative_wishart", nu=AtomicMeasure(((1.0, 0.5), (4.0, 0.5))),
        spikes=((10.0, 1), (6.0, 1)), N=80, seed=2, c=0.1, field=field, entry_law="rademacher",
    )
    fast = draw_sample(spec)
    monkeypatch.setattr(lapack, "routines", lambda: None)
    slow = draw_sample(spec)
    norm = np.max(np.abs(fast.eigenvalues))
    assert np.max(np.abs(slow.eigenvalues - fast.eigenvalues)) <= 1e-10 * norm
    for j in range(2):
        assert overlaps(slow, j) == pytest.approx(overlaps(fast, j), abs=1e-10)
        for l in range(2):
            per = vector_overlaps(slow, j, l)
            assert per == pytest.approx(vector_overlaps(fast, j, l), abs=1e-10)


@pytest.mark.skipif(lapack.routines() is None, reason="numpy's LAPACK lacks the routines")
class TestReplicaMemory:
    """A replica lives in its one N x N buffer: tracemalloc peaks of one draw."""

    @staticmethod
    def peak(spec):
        draw_sample(spec)  # first calls resolve symbols and fill caches
        tracemalloc.start()
        try:
            draw_sample(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("field", FIELD_IDS)
    @pytest.mark.parametrize("kind", ["additive_wigner", "multiplicative_wishart"])
    def test_peak_is_within_a_third_of_one_buffer(self, kind, field):
        N = 400
        nu = TWO_POINT if kind == "additive_wigner" else AtomicMeasure(((1.0, 0.5), (4.0, 0.5)))
        spec = SpikedModelSpec(
            kind=kind, nu=nu, spikes=((6.0, 1), (2.5, 2)), N=N, seed=1, field=field,
            **({"sigma2": 0.5} if kind == "additive_wigner" else {"c": 0.1}),
        )
        itemsize = 16 if field == "complex_hermitian" else 8
        assert self.peak(spec) <= 1.3 * N * N * itemsize

    @pytest.mark.parametrize("field", FIELD_IDS)
    def test_rademacher_wishart_does_not_grow_with_p(self, field):
        # p = 10 N: B itself would take ten buffers.
        N = 200
        spec = SpikedModelSpec(
            kind="multiplicative_wishart", nu=AtomicMeasure(((1.0, 0.5), (4.0, 0.5))),
            spikes=((6.0, 1),), N=N, seed=1, c=0.1, field=field, entry_law="rademacher",
        )
        itemsize = 16 if field == "complex_hermitian" else 8
        assert self.peak(spec) <= 3.0 * N * N * itemsize


class TestOverlapsAndDraw:
    def test_noiseless_overlaps_are_kronecker(self):
        spec = paper_spec()
        A, ranks = build_perturbation(spec)
        lam, V = diagonalize(np.diag(A).astype(complex), [r for block in ranks for r in block])
        sample = EnsembleSample(
            eigenvalues=lam, eigenvectors=V, spike_ranks=ranks
        )
        for j in range(3):
            expected = [1.0 if j == l else 0.0 for l in range(3)]
            assert overlaps(sample, j) == pytest.approx(expected, abs=1e-12)
            for l in range(3):
                assert vector_overlaps(sample, j, l) == pytest.approx([expected[l]], abs=1e-12)

    def test_pythagoras_partition(self):
        spec = paper_spec(N=60, seed=5)
        sample = draw_sample(spec)
        total = sum(overlaps(sample, 0))
        spike_coords = [r - 1 for block in sample.spike_ranks for r in block]
        bulk = np.setdiff1d(np.arange(60), spike_coords)
        vec = sample.eigenvectors[:, 0]  # the first vector of spike j = 0
        total += float(np.sum(np.abs(vec[bulk]) ** 2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_multiplicity_summed_overlap(self):
        spec = SpikedModelSpec(
            kind="additive_wigner", nu=DELTA0, spikes=((4.0, 2),), N=80, seed=3, sigma2=1.0
        )
        sample = draw_sample(spec)
        per = vector_overlaps(sample, 0, 0)
        (summed,) = overlaps(sample, 0)
        assert len(per) == 2
        assert summed == pytest.approx(sum(per), abs=1e-12)
        # theta=4, delta_0, sigma=1: tau = 1 - 1/16, summed ~ k*tau
        assert abs(summed - 2.0 * (1.0 - 1.0 / 16.0)) < 0.25

    def test_paper_overlap_smoke(self):
        sample = draw_sample(paper_spec(N=500, seed=21))
        summed, cross, _ = overlaps(sample, 0)
        assert 0.6 < summed < 0.85
        assert cross < 0.05

    @pytest.mark.parametrize("work", [
        pytest.param(np.empty((30, 30), order="F"), id="dtype"),
        pytest.param(np.empty((30, 29), dtype=complex, order="F"), id="shape"),
        pytest.param(np.empty((30, 30), dtype=complex), id="order"),
    ])
    def test_a_wrong_work_buffer_is_refused(self, work):
        message = r"^the buffer must be a writable Fortran-ordered complex128 array of shape \(30, 30\)$"
        with pytest.raises(SpecError, match=message):
            draw_sample(paper_spec(N=30), work=work)

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
        A, _ = build_perturbation(spec)
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

    def test_small_c_stays_within_the_marchenko_pastur_spread(self):
        # p = N/c = 500,000: the factor is 50 x 50, B would be 50 x 500,000.
        # M = A^{1/2} W A^{1/2} has its k-th eigenvalue at a_k times a number
        # in the spectrum of W = F F*/p (Ostrowski), which lies within
        # 2 sqrt(c) + c of 1 up to edge fluctuations of the finite N.
        c = 1e-4
        spec = SpikedModelSpec(
            kind="multiplicative_wishart", nu=AtomicMeasure(((1.0, 0.5), (4.0, 0.5))),
            spikes=((6.0, 1),), N=50, seed=5, c=c,
        )
        A, _ = build_perturbation(spec)
        sample = draw_sample(spec)
        relative = np.abs(sample.eigenvalues / A - 1.0)
        assert np.max(relative) <= 1.5 * (2.0 * math.sqrt(c) + c)

    @pytest.mark.parametrize("field", FIELD_IDS)
    def test_rank_deficient_wishart_null_space_vectors(self, field):
        # p = 14 < N = 28: M has rank 14, and the ranks of both spikes, 24
        # and 28, fall among its 14 zero eigenvalues.
        spec = SpikedModelSpec(
            kind="multiplicative_wishart", nu=AtomicMeasure(((1.0, 0.1), (3.0, 0.9))),
            spikes=((2.5, 1), (0.5, 1)), N=28, seed=0, c=2.0, field=field,
        )
        sample = draw_sample(spec)
        assert sample.spike_ranks == (range(24, 25), range(28, 29))
        lam = sample.eigenvalues
        assert np.all(lam[:14] > 1e-3) and np.all(np.abs(lam[14:]) < 1e-12 * lam[0])
        V = sample.eigenvectors
        assert np.max(np.abs(V.conj().T @ V - np.eye(2))) < 1e-12

    def test_real_and_rademacher_paths(self):
        for field in ("real_symmetric", "complex_hermitian"):
            for law in ("gaussian", "rademacher"):
                spec = SpikedModelSpec(
                    kind="additive_wigner", nu=DELTA0, spikes=((2.0, 1),), N=30, seed=1,
                    sigma2=1.0, entry_law=law, field=field,
                )
                sample = draw_sample(spec)
                assert sample.eigenvalues.shape == (30,)

    @pytest.mark.parametrize("field", FIELD_IDS)
    def test_rademacher_wishart_sums_every_column_block_of_b(self, field):
        # p = 2.5 N: B is drawn as blocks of N, N and N/2 columns.  Drawn at
        # once from the same stream, B gives the same spectrum.
        N = 40
        spec = SpikedModelSpec(
            kind="multiplicative_wishart", nu=AtomicMeasure(((1.0, 0.5), (4.0, 0.5))),
            spikes=((6.0, 1),), N=N, seed=3, c=0.4, field=field, entry_law="rademacher",
        )
        sample = draw_sample(spec)
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        B = np.hstack([sample_wishart_factor(N, w, field, "rademacher", rng) for w in (40, 40, 20)])
        A, _ = build_perturbation(spec)
        root = np.sqrt(A)
        reference = np.linalg.eigvalsh(root[:, None] * (B @ B.conj().T / 100) * root[None, :])
        assert np.max(np.abs(sample.eigenvalues - reference[::-1])) <= 1e-12 * reference[-1]
