"""Monte Carlo verification of the limiting spike predictions.

``run`` draws seeded replicas of a spiked model, reads off the eigenvalues
and eigenvector overlaps at the spike ranks, and aggregates them next to
the limiting values from the analytic layer.  Which spikes generate an
outlier is read off the theory: for a spike that sticks, the ranked
eigenvalues are checked against the limiting support edges instead of an
outlier location.  ``replicas`` holds the seeding rule: replica i is drawn
from child i of one ``SeedSequence(seed)``, so the result is byte-identical
from run to run, and a failing replica is named by its index and spawn key
so that it can be redrawn alone.  ``run`` is ``aggregate`` over ``replicas``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import free_additive, free_multiplicative
from .ensemble import EnsembleSample, SpikedModelSpec, draw_sample, overlaps, wishart_p
from .errors import NumericalError, SpecError
from .verdicts import SupportIntervals

# Desk-scale agreement tolerances behind the report-level pass flags.
RHO_TOL = 0.1
TAU_TOL = 0.05
EDGE_TOL = 0.05

UNIT_SLACK = 1e-8


@dataclass(frozen=True)
class SpikeOutcome:
    """Aggregated empirical against limiting numbers for one spike block.

    ``rho`` and ``tau`` are present exactly for outlier spikes; sticking
    spikes instead carry ``edge_distance`` (mean distance of the ranked
    eigenvalues to the nearest support edge) and ``edge_excess`` (largest
    excursion outside the support seen in any replica).  ``margin_above``
    and ``margin_below`` are the mean gaps between rho and the nearest
    eigenvalues ranked outside the block; a missing side means no
    eigenvalue is ranked there.  ``leakage`` is the mean over replicas of
    the largest normalized summed overlap onto any other spike block.
    """

    theta: float
    multiplicity: int
    is_outlier: bool
    rho: float | None
    tau: float | None
    eigenvalue_mean: float
    eigenvalue_stderr: float
    overlap_mean: float
    overlap_stderr: float
    overlap_sum_mean: float
    overlap_sum_stderr: float
    margin_above: float | None
    margin_below: float | None
    leakage: float
    edge_distance: float | None
    edge_excess: float | None

    def __post_init__(self):
        for name in ("eigenvalue_stderr", "overlap_stderr", "overlap_sum_stderr"):
            if getattr(self, name) < 0.0:
                raise SpecError(f"{name} must be nonnegative")
        for name in ("overlap_mean", "overlap_sum_mean", "leakage"):
            value = getattr(self, name)
            if not -1e-12 <= value <= 1.0 + UNIT_SLACK:
                raise SpecError(f"{name}={value!r} is outside [0, 1]")
        has_limits = self.rho is not None and self.tau is not None
        if self.is_outlier != has_limits:
            raise SpecError("rho and tau must be present iff the spike is an outlier")
        has_edges = self.edge_distance is not None and self.edge_excess is not None
        if self.is_outlier == has_edges:
            raise SpecError("edge statistics must be present iff the spike sticks")


@dataclass(frozen=True)
class VerificationResult:
    """Cross-replica aggregate for one model size, ready to serialize."""

    kind: str
    N: int
    reps: int
    seed: int
    aspect_ratio: float | None
    support: SupportIntervals
    spikes: tuple[SpikeOutcome, ...]

    def __post_init__(self):
        if self.reps < 1:
            raise SpecError(f"reps must be >= 1, got {self.reps!r}")
        if self.N < 1:
            raise SpecError(f"N must be >= 1, got {self.N!r}")
        object.__setattr__(self, "spikes", tuple(self.spikes))


def limit(spec: SpikedModelSpec, c: float | None):
    """Limiting-law context of ``spec`` plus the module implementing it.

    ``c`` is the aspect ratio the multiplicative law is evaluated at; the
    additive law ignores it.
    """
    if spec.kind == "additive_wigner":
        return free_additive.AdditiveContext(spec.nu, spec.sigma2), free_additive
    return free_multiplicative.MultiplicativeContext(spec.nu, c), free_multiplicative


def _verdicts(spec: SpikedModelSpec):
    """Aspect ratio, limiting law and spike verdicts of a finite model.

    The multiplicative theory is evaluated at the realized aspect ratio
    N/p rather than the requested c, matching what the samples actually
    see after p is rounded to an integer.  The support, the one costly
    part of the theory, is left to the caller that needs it.
    """
    if spec.N is None:
        raise SpecError("simulating a finite model requires N")
    aspect = None if spec.kind == "additive_wigner" else spec.N / wishart_p(spec.N, spec.c)
    ctx, mod = limit(spec, aspect)
    return aspect, ctx, mod, tuple(mod.classify_spike(ctx, t, k) for t, k in spec.spikes)


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _replica(spec, i, child) -> EnsembleSample:
    try:
        sample = draw_sample(spec, np.random.default_rng(child))
        # Each returned vector is a unit vector, so its overlaps summed over
        # every spike block, its mass on the spike coordinates, are at most 1.
        coords = [c for block in sample.spike_projectors for c in block]
        mass = np.sum(np.abs(sample.eigenvectors[coords]) ** 2, axis=0)
        if np.any(mass > 1.0 + UNIT_SLACK):
            raise NumericalError(f"overlaps of an outlier vector sum to {mass.max()}")
    except NumericalError as exc:
        raise NumericalError(
            f"replica {i} (seed {spec.seed}, spawn_key={child.spawn_key}): {exc}"
        ) from exc
    return sample


def replicas(spec: SpikedModelSpec, reps: int):
    """Iterator over the ``reps`` replicas of ``spec``, drawn in order on demand.

    Replica i is drawn from child i of ``SeedSequence(spec.seed)``.  A
    NumericalError inside replica i is re-raised naming i and the spawn key
    of its child stream: ``SeedSequence(seed, spawn_key=key)`` redraws that
    replica alone.  The arguments are checked before any replica is drawn.
    """
    if not isinstance(spec, SpikedModelSpec):
        raise SpecError("spec must be a SpikedModelSpec")
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        raise SpecError(f"reps must be a positive integer, got {reps!r}")
    children = np.random.SeedSequence(spec.seed).spawn(reps)
    return (_replica(spec, i, child) for i, child in enumerate(children))


def _rep_record(sample, verdicts, sup):
    """Per-spike statistics of one replica, as plain floats."""
    lam = sample.eigenvalues
    n_spikes = len(verdicts)
    per_vec_all = [
        [overlaps(sample, j, l) for l in range(n_spikes)] for j in range(n_spikes)
    ]
    records = []
    for j, verdict in enumerate(verdicts):
        ranks = sample.spike_ranks[j]
        k = len(ranks)
        block = lam[[r - 1 for r in ranks]]
        per_vec, summed = per_vec_all[j][j]
        leak = 0.0
        if n_spikes > 1:
            leak = max(per_vec_all[j][l][1] / k for l in range(n_spikes) if l != j)
        rec = {
            "eig": float(block.mean()),
            "pv": float(np.mean(per_vec)),
            "sum": summed / k,
            "leak": leak,
        }
        n_prev = ranks[0] - 1
        idx_below = n_prev + k
        if verdict.is_outlier:
            if n_prev >= 1:
                rec["above"] = float(lam[n_prev - 1]) - verdict.rho
            if idx_below < lam.size:
                rec["below"] = verdict.rho - float(lam[idx_below])
        else:
            rec["edist"] = float(np.mean([sup.distance_to_edge(float(x)) for x in block]))
            rec["excess"] = max(
                0.0 if sup.contains(float(x)) else sup.distance_to_edge(float(x))
                for x in block
            )
        records.append(rec)
    return records


def aggregate(spec: SpikedModelSpec, samples) -> VerificationResult:
    """Spike statistics of ``samples``, replicas of ``spec``, next to the theory.

    Each spike gets the statistics its verdict calls for: rho, tau and the
    margins for an outlier, the edge distance and excess for a spike that
    sticks.  The theory is computed before ``samples`` is iterated, so a
    failure there draws no replica of a lazy ``replicas`` iterator.
    """
    aspect, ctx, mod, verdicts = _verdicts(spec)
    sup = mod.support(ctx)

    # map releases each sample before drawing the next; a comprehension's loop
    # variable would keep it alive and raise the peak memory of a run.
    records = list(map(lambda sample: _rep_record(sample, verdicts, sup), samples))
    if not records:
        raise SpecError("aggregate needs at least one replica")

    outcomes = []
    for j, verdict in enumerate(verdicts):
        reps_j = [rec[j] for rec in records]
        eig_mean, eig_err = _mean_stderr([r["eig"] for r in reps_j])
        pv_mean, pv_err = _mean_stderr([r["pv"] for r in reps_j])
        sum_mean, sum_err = _mean_stderr([r["sum"] for r in reps_j])
        margin_above = margin_below = edge_distance = edge_excess = None
        if verdict.is_outlier:
            if "above" in reps_j[0]:
                margin_above = float(np.mean([r["above"] for r in reps_j]))
            if "below" in reps_j[0]:
                margin_below = float(np.mean([r["below"] for r in reps_j]))
        else:
            edge_distance = float(np.mean([r["edist"] for r in reps_j]))
            edge_excess = max(r["excess"] for r in reps_j)
        outcomes.append(
            SpikeOutcome(
                theta=verdict.theta,
                multiplicity=verdict.multiplicity,
                is_outlier=verdict.is_outlier,
                rho=verdict.rho,
                tau=verdict.tau,
                eigenvalue_mean=eig_mean,
                eigenvalue_stderr=eig_err,
                overlap_mean=pv_mean,
                overlap_stderr=pv_err,
                overlap_sum_mean=sum_mean,
                overlap_sum_stderr=sum_err,
                margin_above=margin_above,
                margin_below=margin_below,
                leakage=float(np.mean([r["leak"] for r in reps_j])),
                edge_distance=edge_distance,
                edge_excess=edge_excess,
            )
        )
    return VerificationResult(
        kind=spec.kind,
        N=spec.N,
        reps=len(records),
        seed=spec.seed,
        aspect_ratio=aspect,
        support=sup,
        spikes=tuple(outcomes),
    )


def run(spec: SpikedModelSpec, reps: int) -> VerificationResult:
    """Draw ``reps`` replicas of ``spec`` and aggregate spike statistics.

    The same as ``aggregate(spec, replicas(spec, reps))``: arguments and
    theory are checked before the first replica is drawn.
    """
    return aggregate(spec, replicas(spec, reps))


def expected_sticking(spec: SpikedModelSpec) -> frozenset[int]:
    """Indices of the spikes the theory predicts will not detach.

    ``run`` works this out itself; this is the same verdict for callers
    that want it without drawing a replica.
    """
    *_, verdicts = _verdicts(spec)
    return frozenset(j for j, verdict in enumerate(verdicts) if not verdict.is_outlier)


def separation_check(sample: EnsembleSample, spike_j: int, rho: float, delta: float) -> bool:
    """True when the block at spike_j sits delta-separated around rho.

    Checks that the eigenvalue ranked directly above the block exceeds
    rho + delta and the one directly below falls under rho - delta, with
    the conventions lambda_0 = +inf and lambda_{N+1} = -inf at the ends
    of the spectrum.
    """
    lam = sample.eigenvalues
    ranks = sample.spike_ranks[spike_j]
    n_prev = ranks[0] - 1
    above = float(lam[n_prev - 1]) if n_prev >= 1 else math.inf
    idx_below = n_prev + len(ranks)
    below = float(lam[idx_below]) if idx_below < lam.size else -math.inf
    return bool(above > rho + delta and below < rho - delta)


def empirical_density(samples, bins):
    """Bulk spectral histogram pooled over samples, as probability masses.

    The eigenvalues at each sample's spike ranks are removed before
    binning; the masses are counts divided by the pooled bulk size, so
    they sum to 1 exactly when every bulk eigenvalue lands inside the
    bins.  Returns (masses, bin_edges) with np.histogram bin semantics.
    """
    pooled = []
    for sample in samples:
        lam = np.asarray(sample.eigenvalues, dtype=float)
        keep = np.ones(lam.size, dtype=bool)
        for block in sample.spike_ranks:
            for rank in block:
                keep[rank - 1] = False
        pooled.append(lam[keep])
    flat = np.concatenate(pooled) if pooled else np.empty(0)
    if flat.size == 0:
        raise SpecError("no bulk eigenvalues to bin")
    counts, edges = np.histogram(flat, bins=bins)
    return counts.astype(float) / flat.size, edges


def outcome_passes(outcome: SpikeOutcome) -> bool:
    """Report-level agreement flag at the desk-scale tolerances."""
    if outcome.is_outlier:
        return (
            abs(outcome.eigenvalue_mean - outcome.rho) <= RHO_TOL
            and abs(outcome.overlap_sum_mean - outcome.tau) <= TAU_TOL
        )
    return outcome.edge_excess <= EDGE_TOL


# Report columns: the scalar fields of VerificationResult, then per spike the
# fields of SpikeOutcome in declaration order, is_outlier rendered as verdict,
# and the report-level pass flag.
_RESULT_KEYS = tuple(
    f.name for f in fields(VerificationResult) if f.name not in ("support", "spikes")
)
_SPIKE_KEYS = tuple(
    "verdict" if f.name == "is_outlier" else f.name for f in fields(SpikeOutcome)
) + ("pass",)
CSV_HEADER = _RESULT_KEYS + ("spike",) + _SPIKE_KEYS


def _spike_row(outcome: SpikeOutcome) -> dict:
    row = dict(zip(_SPIKE_KEYS, (getattr(outcome, f.name) for f in fields(SpikeOutcome))))
    row["verdict"] = "outlier" if outcome.is_outlier else "sticking"
    row["pass"] = outcome_passes(outcome)
    return row


def to_json_dict(result: VerificationResult) -> dict:
    """JSON-ready dict mirroring the result, with per-spike pass flags."""
    spikes = [_spike_row(outcome) for outcome in result.spikes]
    return {
        **{name: getattr(result, name) for name in _RESULT_KEYS},
        "support": [[lo, hi] for lo, hi in result.support.intervals],
        "spikes": spikes,
        "pass": all(row["pass"] for row in spikes),
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def to_csv_text(result: VerificationResult) -> str:
    """Flat table, one row per spike: '.' decimals, ',' separators, LF."""
    head = [getattr(result, name) for name in _RESULT_KEYS]
    lines = [",".join(CSV_HEADER)]
    for j, outcome in enumerate(result.spikes):
        cells = [*head, j, *_spike_row(outcome).values()]
        lines.append(",".join(_csv_cell(cell) for cell in cells))
    return "\n".join(lines) + "\n"
