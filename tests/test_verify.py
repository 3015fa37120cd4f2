"""Tests for the Monte Carlo verification layer.

Theory numbers reused as oracles: for nu = (delta_1 + delta_{-1})/2 and
sigma^2 = 1/2 the spike 2 is an outlier at rho = 7/3 with overlap 13/18,
the spike 0 is an outlier at rho = 0 with overlap 1/2, and 3/2 sticks.
For nu = delta_1, c = 1, theta = 3 the outlier sits at 4.5 with overlap
1/2.  Bulk laws: semicircle (additive, nu = delta_0) and Marchenko-Pastur
(multiplicative, nu = delta_1).
"""

import json
import math

import numpy as np
import pytest

from oracles import empirical_density, mp_density, separation_check
from spikelab import cli, ensemble, lapack, verify
from spikelab.ensemble import SpikedModelSpec, draw_sample
from spikelab.errors import NumericalError, SpecError
from spikelab.free_multiplicative import MultiplicativeContext, classify_spike
from spikelab.measure import AtomicMeasure

TWO_POINT = AtomicMeasure(((1.0, 0.5), (-1.0, 0.5)))
DELTA0 = AtomicMeasure(((0.0, 1.0),))
DELTA1 = AtomicMeasure(((1.0, 1.0),))

RHO_TOP = 7.0 / 3.0
TAU_TOP = 13.0 / 18.0


def paper_spec(N, seed=7):
    return SpikedModelSpec(
        kind="additive_wigner",
        nu=TWO_POINT,
        spikes=((2.0, 1), (1.5, 1), (0.0, 1)),
        N=N,
        seed=seed,
        sigma2=0.5,
    )


def run_paper(N, reps, seed=7):
    return verify.run(paper_spec(N, seed), reps)


# ---------------------------------------------------------------- run()


def test_run_reports_exact_theory_values():
    res = run_paper(120, 2)
    top, mid, zero = res.spikes
    assert top.is_outlier and zero.is_outlier and not mid.is_outlier
    assert top.rho == pytest.approx(RHO_TOP, abs=1e-12)
    assert top.tau == pytest.approx(TAU_TOP, abs=1e-12)
    assert zero.rho == pytest.approx(0.0, abs=1e-12)
    assert zero.tau == pytest.approx(0.5, abs=1e-12)
    assert mid.rho is None and mid.tau is None


def test_run_metadata_echo():
    res = run_paper(120, 3, seed=99)
    assert res.kind == "additive_wigner"
    assert res.N == 120
    assert res.reps == 3
    assert res.seed == 99
    assert res.c is None
    assert res.aspect_ratio is None
    assert len(res.support.intervals) == 2
    assert len(res.spikes) == 3


def test_run_rejects_bad_reps():
    with pytest.raises(SpecError):
        verify.run(paper_spec(120), 0)
    with pytest.raises(SpecError):
        verify.run(paper_spec(120), 2.5)


@pytest.mark.parametrize("call, message", [
    pytest.param(
        lambda: verify.replicas({"kind": "additive"}, 2), "spec must be a SpikedModelSpec",
        id="replicas_of_a_non_spec",
    ),
    pytest.param(
        lambda: verify.aggregate(paper_spec(40), []), "aggregate needs at least one replica",
        id="aggregate_of_no_replica",
    ),
])
def test_replicas_and_aggregate_refuse_what_they_cannot_use(call, message):
    with pytest.raises(SpecError, match=f"^{message}$"):
        call()


def test_a_model_without_N_is_refused_before_any_replica_is_drawn():
    # replicas checks N when called, not when its first replica is drawn.
    spec = SpikedModelSpec(
        kind="additive_wigner", nu=TWO_POINT, spikes=((2.0, 1),), N=None, seed=1, sigma2=0.5
    )
    calls = (
        lambda: verify.replicas(spec, 2),
        lambda: ensemble.workspace(spec),
        lambda: ensemble.build_perturbation(spec),
        lambda: verify.run(spec, 1),
    )
    for call in calls:
        with pytest.raises(SpecError, match="^drawing a finite-N sample requires N$"):
            call()


def test_single_rep_has_zero_stderr():
    res = run_paper(80, 1)
    report = json.loads(cli.simulate_report(res, "json"))
    for outcome, row in zip(res.spikes, report["spikes"], strict=True):
        assert outcome.eigenvalue_stderr == 0.0
        assert outcome.overlap_stderr == 0.0
        assert row["overlap_sum_stderr"] == 0.0


def test_overlap_statistics_within_unit_interval():
    res = run_paper(120, 3)
    report = json.loads(cli.simulate_report(res, "json"))
    for outcome, row in zip(res.spikes, report["spikes"], strict=True):
        for val in (outcome.overlap_mean, row["overlap_sum_mean"], outcome.leakage):
            assert -1e-12 <= val <= 1.0 + 1e-8
        assert outcome.eigenvalue_stderr >= 0.0


def test_sticking_outcome_records_edge_distance():
    res = run_paper(200, 3)
    mid = res.spikes[1]
    assert mid.margin_above is None and mid.margin_below is None
    assert mid.edge_distance is not None and mid.edge_distance >= 0.0
    assert mid.edge_excess is not None and 0.0 <= mid.edge_excess < 0.2
    top = res.spikes[0]
    assert top.edge_distance is None and top.edge_excess is None


def test_margin_conventions_top_and_interior():
    res = run_paper(300, 2)
    top, _, zero = res.spikes
    assert top.margin_above is None  # nothing ranked above the top spike
    assert top.margin_below is not None and top.margin_below > 0.0
    assert zero.margin_above is not None and zero.margin_above > 0.0
    assert zero.margin_below is not None and zero.margin_below > 0.0


def test_run_is_deterministic():
    base = run_paper(100, 4)
    assert run_paper(100, 4) == base


def test_run_equals_aggregating_its_replicas():
    spec = paper_spec(60, seed=13)
    samples = list(verify.replicas(spec, 3))
    assert len(samples) == 3
    result = verify.aggregate(spec, samples)
    assert [s.is_outlier for s in result.spikes] == [True, False, True]
    assert verify.run(spec, 3) == result


def test_failing_replica_is_named_with_its_spawn_key(monkeypatch):
    # Workers draw replicas in no fixed order, so the failing replica is
    # picked by the spawn key of its stream, not by the order of the calls.
    streams = {}

    def failing_third(spec, rng, work=None):
        key = rng.bit_generator.seed_seq.spawn_key
        streams[key] = rng
        if key == (2,):
            raise NumericalError("eigenpair residual 1.000e+00 exceeds 1.000e-07")
        return draw_sample(spec, rng, work)

    monkeypatch.setattr(verify, "draw_sample", failing_third)
    with pytest.raises(NumericalError, match=r"replica 2 \(seed 5, spawn_key=\(2,\)\): eigenpair"):
        run_paper(60, 4, seed=5)
    # The named spawn key redraws the failing replica's stream alone.
    redrawn = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2,)))
    assert redrawn.standard_normal(4).tolist() == streams[(2,)].standard_normal(4).tolist()


def test_replica_with_more_than_unit_spike_mass_is_named(monkeypatch):
    # Vectors of norm 2 have mass 4 on the spike coordinates.  The Gram check
    # of diagonalize, the one bound on a replica's vectors, refuses them, and
    # the replica's error names its spawn key.
    eigenpairs = lapack.eigenpairs

    def doubled(a, index):
        lam, V = eigenpairs(a, index)
        return lam, 2.0 * V

    monkeypatch.setattr(lapack, "eigenpairs", doubled)
    with pytest.raises(
        NumericalError,
        match=r"replica 0 \(seed 7, spawn_key=\(0,\)\): eigenvector Gram deviation 3\.000e\+00 exceeds 1e-08$",
    ):
        run_paper(40, 1)


def test_run_reads_each_spike_block_once_per_replica(monkeypatch):
    # overlaps(sample, j) returns block j's overlap on every spike eigenspace, so a replica
    # of three blocks makes three calls.
    calls = []
    overlaps = verify.overlaps

    def counted(*args, **kwargs):
        calls.append((len(args), kwargs))
        return overlaps(*args, **kwargs)

    monkeypatch.setattr(verify, "overlaps", counted)
    run_paper(40, 2)
    assert calls == [(2, {})] * 6


def test_overlap_mean_and_overlap_sum_mean_are_one_statistic():
    # Nine copies: numpy's mean of the nine per-vector overlaps sums them
    # pairwise, so computing the statistic a second way moves its last digits.
    spec = SpikedModelSpec(
        kind="additive_wigner",
        nu=TWO_POINT,
        spikes=((4.0, 9), (0.0, 1)),
        N=200,
        seed=3,
        sigma2=0.5,
        entry_law="rademacher",
    )
    # SpikeOutcome holds the statistic once; the report writes it under both key pairs.
    res = verify.run(spec, 4)
    report = json.loads(cli.simulate_report(res, "json"))
    header, *rows = (line.split(",") for line in cli.simulate_report(res, "csv").splitlines())
    assert len(rows) == len(report["spikes"]) == 2
    for spike in report["spikes"] + [dict(zip(header, row, strict=True)) for row in rows]:
        assert spike["overlap_mean"] == spike["overlap_sum_mean"]
        assert spike["overlap_stderr"] == spike["overlap_sum_stderr"]


def test_paper_example_accuracy_small_N():
    res = run_paper(300, 6, seed=21)
    top, _, zero = res.spikes
    assert abs(top.eigenvalue_mean - RHO_TOP) < 0.1
    assert abs(top.overlap_mean - TAU_TOP) < 0.1
    assert abs(zero.eigenvalue_mean) < 0.1
    assert abs(zero.overlap_mean - 0.5) < 0.1
    assert top.leakage < 0.1 and zero.leakage < 0.1


def test_multiplicative_theory_uses_realized_aspect():
    spec = SpikedModelSpec(
        kind="multiplicative_wishart",
        nu=DELTA1,
        spikes=((3.0, 1),),
        N=100,
        seed=3,
        c=0.75,
    )
    res = verify.run(spec, 1)
    realized = 100 / round(100 / 0.75)
    assert res.c == 0.75
    assert res.aspect_ratio == pytest.approx(realized, abs=0.0)
    expected = classify_spike(MultiplicativeContext(DELTA1, realized), 3.0)
    assert res.spikes[0].rho == expected.rho
    assert res.spikes[0].tau == expected.tau


def test_a_block_sticking_at_the_wishart_atom_at_0_passes():
    # Marchenko-Pastur at c = 2: an atom of mass 1/2 at 0 and support [(1 - sqrt 2)^2,
    # (1 + sqrt 2)^2].  theta = 0.5 sticks at rank 60, in the null space of M (rank p = 30).
    spec = SpikedModelSpec(
        kind="multiplicative_wishart",
        nu=DELTA1,
        spikes=((3.0, 1), (1.5, 1), (0.5, 1)),
        N=60,
        seed=0,
        c=2.0,
    )
    res = verify.run(spec, 3)
    low = res.spikes[2]
    assert not low.is_outlier and abs(low.eigenvalue_mean) < 1e-12
    assert low.edge_distance < 1e-12 and low.edge_excess < 1e-12
    assert verify.outcome_passes(low)
    # The reported support is the continuous part alone.
    ((lo, hi),) = res.support.intervals
    assert (lo, hi) == pytest.approx((3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0)))


def test_bbp_small_simulation():
    spec = SpikedModelSpec(
        kind="multiplicative_wishart",
        nu=DELTA1,
        spikes=((3.0, 1),),
        N=250,
        seed=5,
        c=1.0,
    )
    res = verify.run(spec, 4)
    out = res.spikes[0]
    assert out.rho == pytest.approx(4.5, abs=1e-12)
    assert out.tau == pytest.approx(0.5, abs=1e-12)
    assert abs(out.eigenvalue_mean - 4.5) < 0.25
    assert abs(out.overlap_mean - 0.5) < 0.12


# ---------------------------------------------------- separation_check


def test_separation_check_paper_top_spike():
    sample = draw_sample(paper_spec(300, seed=3))
    assert separation_check(sample, 0, RHO_TOP, 0.1) is True
    assert separation_check(sample, 0, RHO_TOP, 1e6) is False


def test_separation_check_boundary_conventions():
    spec = SpikedModelSpec(
        kind="additive_wigner",
        nu=DELTA0,
        spikes=((2.0, 1), (-2.0, 1)),
        N=200,
        seed=11,
        sigma2=1.0,
    )
    sample = draw_sample(spec)
    # Top spike: no eigenvalue ranked above it, upper check is vacuous.
    assert separation_check(sample, 0, 2.5, 0.3) is True
    # Bottom spike: no eigenvalue ranked below it, lower check is vacuous.
    assert separation_check(sample, 1, -2.5, 0.3) is True
    assert separation_check(sample, 0, 2.5, 1e6) is False
    assert separation_check(sample, 1, -2.5, 1e6) is False


# ---------------------------------------------------- empirical_density


def test_empirical_density_masses_sum_to_one():
    samples = [
        draw_sample(paper_spec(10, seed=s)) for s in (1, 2, 3)
    ]
    masses, edges = empirical_density(samples, 12)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(edges) == len(masses) + 1


def test_empirical_density_excludes_spike_ranks():
    spec = SpikedModelSpec(
        kind="additive_wigner",
        nu=DELTA0,
        spikes=((5.0, 1),),
        N=80,
        seed=2,
        sigma2=1.0,
    )
    samples = [draw_sample(spec)]
    assert samples[0].eigenvalues[0] > 4.0  # the outlier exists ...
    masses, _ = empirical_density(samples, np.linspace(-3.0, 3.0, 40))
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)  # ... and is excluded


def test_empirical_density_without_bulk_raises():
    spec = SpikedModelSpec(
        kind="additive_wigner",
        nu=DELTA0,
        spikes=((2.0, 1),),
        N=1,
        seed=4,
        sigma2=1.0,
    )
    with pytest.raises(ValueError):
        empirical_density([draw_sample(spec)], 4)


def _semicircle_cdf(x):
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + (x * np.sqrt(4.0 - x * x) + 4.0 * np.arcsin(x / 2.0)) / (4.0 * np.pi)


def test_empirical_density_matches_semicircle_ks():
    spec = SpikedModelSpec(
        kind="additive_wigner", nu=DELTA0, spikes=(), N=2000, seed=17, sigma2=1.0
    )
    masses, edges = empirical_density([draw_sample(spec)], np.linspace(-2.2, 2.2, 121))
    ks = np.max(np.abs(np.cumsum(masses) - _semicircle_cdf(edges[1:])))
    assert ks < 0.05


def _mp_cdf(c, xs):
    # Integrate the density with the substitution x = t^2, which removes
    # the inverse square-root edge singularity at zero.
    t = np.linspace(0.0, math.sqrt(float(np.max(xs))), 20001)
    x = t * t
    y = np.array([mp_density(c, v) if v > 0.0 else 0.0 for v in x]) * 2.0 * t
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])
    return np.interp(xs, x, cum)


def test_empirical_density_matches_marchenko_pastur_ks():
    spec = SpikedModelSpec(
        kind="multiplicative_wishart", nu=DELTA1, spikes=(), N=1000, seed=19, c=1.0
    )
    masses, edges = empirical_density([draw_sample(spec)], np.linspace(0.0, 4.3, 121))
    ks = np.max(np.abs(np.cumsum(masses) - _mp_cdf(1.0, edges[1:])))
    assert ks < 0.05


# ------------------------------------------------------- trend checks


def test_leakage_and_rho_error_shrink_with_N():
    small = run_paper(250, 8, seed=1234)
    big = run_paper(2000, 4, seed=1234)
    for j in (0, 2):
        assert big.spikes[j].leakage < small.spikes[j].leakage
        assert big.spikes[j].leakage < 0.05
        err_small = abs(small.spikes[j].eigenvalue_mean - small.spikes[j].rho)
        err_big = abs(big.spikes[j].eigenvalue_mean - big.spikes[j].rho)
        slack = 2.0 * (small.spikes[j].eigenvalue_stderr + big.spikes[j].eigenvalue_stderr)
        assert err_big <= err_small + slack


# ------------------------------------------------------- serialization


def test_json_dict_round_trips():
    res = run_paper(120, 2)
    back = json.loads(cli.simulate_report(res, "json"))
    assert back["kind"] == "additive_wigner"
    assert back["N"] == 120 and back["reps"] == 2
    assert back["c"] is None and back["aspect_ratio"] is None
    assert len(back["support"]) == 2 and len(back["support"][0]) == 2
    assert isinstance(back["pass"], bool)
    assert list(back) == [
        "kind", "N", "reps", "seed", "c", "aspect_ratio", "support", "spikes", "pass"
    ]
    top, mid, _ = back["spikes"]
    assert list(top) == [
        "theta", "multiplicity", "verdict", "rho", "tau",
        "eigenvalue_mean", "eigenvalue_stderr", "overlap_mean", "overlap_stderr",
        "overlap_sum_mean", "overlap_sum_stderr", "margin_above", "margin_below",
        "leakage", "edge_distance", "edge_excess", "pass",
    ]
    assert list(mid) == list(top)
    assert top["verdict"] == "outlier" and isinstance(top["pass"], bool)
    assert top["rho"] == pytest.approx(RHO_TOP, abs=1e-12)
    assert mid["verdict"] == "sticking"
    assert mid["rho"] is None and mid["edge_distance"] is not None


def test_csv_shape_and_byte_determinism():
    res = run_paper(120, 2)
    text = cli.simulate_report(res, "csv")
    assert text == cli.simulate_report(run_paper(120, 2), "csv")
    assert "\r" not in text and text.endswith("\n")
    lines = text.strip("\n").split("\n")
    assert len(lines) == 4  # header plus one row per spike
    assert lines[0] == (
        "kind,N,reps,seed,c,aspect_ratio,spike,theta,multiplicity,verdict,rho,tau,"
        "eigenvalue_mean,eigenvalue_stderr,overlap_mean,overlap_stderr,"
        "overlap_sum_mean,overlap_sum_stderr,margin_above,margin_below,leakage,"
        "edge_distance,edge_excess,pass"
    )
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert len(row) == len(header)
    assert float(row[header.index("rho")]) == res.spikes[0].rho  # 17g round-trips
    assert row[header.index("verdict")] == "outlier"


def test_csv_sticking_row_leaves_theory_cells_empty():
    res = run_paper(120, 2)
    lines = cli.simulate_report(res, "csv").strip("\n").split("\n")
    header = lines[0].split(",")
    sticking = lines[2].split(",")
    assert sticking[header.index("verdict")] == "sticking"
    assert sticking[header.index("rho")] == ""
    assert sticking[header.index("tau")] == ""
    assert sticking[header.index("edge_distance")] != ""


def test_outcome_passes_rule():
    res = run_paper(200, 3)
    good_top = res.spikes[0]
    assert verify.outcome_passes(good_top) == (
        abs(good_top.eigenvalue_mean - good_top.rho) <= verify.RHO_TOL
        and abs(good_top.overlap_mean - good_top.tau) <= verify.TAU_TOL
    )
    sticky = res.spikes[1]
    assert verify.outcome_passes(sticky) == (sticky.edge_excess <= verify.EDGE_TOL)
