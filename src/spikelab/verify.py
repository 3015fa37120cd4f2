"""Monte Carlo verification of the limiting spike predictions.

``run`` draws seeded replicas of a spiked model, reads off the eigenvalues
and eigenvector overlaps at the spike ranks, and aggregates them next to
the limiting values of the spec's context (the multiplicative one at the
realized aspect ratio).  Which spikes generate an outlier is read off it: for
a spike that sticks, the ranked eigenvalues are placed against the limit's
spectrum (its support and any atom at 0) instead of an outlier location.
``replicas`` holds the seeding rule: replica i is drawn from child i of one
``SeedSequence(seed)``, so the result is byte-identical from run to run on
one machine, and a failing replica is named by its index and spawn key so
that it can be redrawn alone.  ``min(reps, usable CPUs)`` worker threads (one where
OpenBLAS's thread control does not resolve) draw every replica, each in one
N x N buffer of its own.  ``run`` is ``aggregate`` over ``replicas``.
The output format is not kept here: ``cli`` renders the result as JSON or CSV.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import lapack
from .ensemble import (
    EnsembleSample,
    SpikedModelSpec,
    draw_sample,
    overlaps,
    sample_size,
    wishart_p,
    workspace,
)
from .errors import NumericalError, SpecError
from .measure import positive_int
from .verdicts import SpikeVerdict, SupportIntervals

# Desk-scale agreement tolerances behind the report-level pass flags.
RHO_TOL = 0.1
TAU_TOL = 0.05
EDGE_TOL = 0.05


@dataclass(frozen=True)
class SpikeOutcome:
    """Aggregated empirical against limiting numbers for one spike block.

    ``rho`` and ``tau`` come from the spike's verdict, and ``is_outlier`` is
    ``rho is not None``; sticking spikes instead carry ``edge_distance`` (mean
    over replicas and ranks of the distance from an eigenvalue to the nearest
    edge of the limit's spectrum: the support, and a [0, 0] interval for a
    Wishart limit's atom at 0 off it) and ``edge_excess`` (largest distance
    outside that spectrum seen in any replica, 0 where every eigenvalue lies
    on it).  ``margin_above`` and ``margin_below`` are the mean gaps between
    rho and the nearest eigenvalues ranked outside the block; a missing side
    means no eigenvalue is ranked there.  ``overlap_mean`` is the mean over
    replicas of sum_n ||P_j xi_n||^2 / k, the finite-N estimate of tau, and
    ``overlap_stderr`` its standard error.  ``leakage`` is the mean over
    replicas of the largest normalized summed overlap onto any other spike
    block.
    """

    theta: float
    multiplicity: int
    rho: float | None
    tau: float | None
    eigenvalue_mean: float
    eigenvalue_stderr: float
    overlap_mean: float
    overlap_stderr: float
    margin_above: float | None
    margin_below: float | None
    leakage: float
    edge_distance: float | None
    edge_excess: float | None

    is_outlier = SpikeVerdict.is_outlier


@dataclass(frozen=True)
class VerificationResult:
    """Cross-replica aggregate for one model size; ``cli`` renders it as a report.

    ``c`` is the aspect ratio the model requests and ``aspect_ratio`` the
    realized N/p the theory is evaluated at; both are None for an additive
    model.
    """

    kind: str
    N: int
    reps: int
    seed: int
    c: float | None
    aspect_ratio: float | None
    support: SupportIntervals
    spikes: tuple[SpikeOutcome, ...]


def _verdicts(spec: SpikedModelSpec):
    """Aspect ratio, limiting law and spike verdicts of a finite model.

    The multiplicative theory is evaluated at the realized aspect ratio
    N/p rather than the requested c, matching what the samples actually
    see after p is rounded to an integer.  The support, the one costly
    part of the theory, is left to the caller that needs it.
    """
    N = sample_size(spec)
    aspect = None if spec.kind == "additive_wigner" else N / wishart_p(N, spec.c)
    ctx, mod = spec.limit if aspect is None else replace(spec.limit, c=aspect), spec.family
    return aspect, ctx, mod, tuple(mod.classify_spike(ctx, t) for t, _ in spec.spikes)


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _replica(spec, i, child, work) -> EnsembleSample:
    try:
        return draw_sample(spec, np.random.default_rng(child), work)
    except NumericalError as exc:
        raise NumericalError(
            f"replica {i} (seed {spec.seed}, spawn_key={child.spawn_key}): {exc}"
        ) from exc


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _drawn(spec, children):
    """The replicas of ``children``, in order; see ``replicas``."""
    control = lapack.threads()
    workers = min(len(children), _usable_cpus()) if control else 1
    get_threads, set_threads = control or (lambda: 1, lambda n: None)
    local = threading.local()

    def draw(i, child):
        if not hasattr(local, "work"):
            local.work = workspace(spec)
        return _replica(spec, i, child, local.work)

    # Imported here, so that the commands that draw no replica never load it.
    from concurrent.futures import ThreadPoolExecutor

    total = get_threads()
    set_threads(max(1, total // workers))
    pool = ThreadPoolExecutor(workers)
    try:
        yield from pool.map(draw, range(len(children)), children)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        set_threads(total)


def replicas(spec: SpikedModelSpec, reps: int):
    """Iterator over the ``reps`` replicas of ``spec``, in order.

    Replica i is drawn from child i of ``SeedSequence(spec.seed)``.  A
    NumericalError inside replica i is re-raised naming i and the spawn key
    of its child stream: ``SeedSequence(seed, spawn_key=key)`` redraws that
    replica alone.  The arguments are checked before any replica is drawn.

    Replicas are drawn on ``min(reps, usable CPUs)`` worker threads; each
    thread reuses one N x N buffer, made on its first replica.  While they
    run, OpenBLAS is held at its thread count on entry divided by the number
    of workers (at least 1), and it is restored once every worker has
    finished, also when the iterator is closed early.
    A failing replica ends the iteration: no later replica is yielded.  A
    lone replica, a single usable CPU (restrict it with ``taskset``), or an
    OpenBLAS thread control that numpy's library does not export gives one
    worker, which keeps all of OpenBLAS's threads.  The output repeats bit
    for bit for one ``reps`` on one machine; its last bits depend on the
    BLAS thread count.
    """
    if not isinstance(spec, SpikedModelSpec):
        raise SpecError("spec must be a SpikedModelSpec")
    positive_int(reps, "reps")
    sample_size(spec)
    return _drawn(spec, np.random.SeedSequence(spec.seed).spawn(reps))


def _rep_record(sample, verdicts, spectrum):
    """One tuple per spike of one replica: mean eigenvalue, overlap and leakage (the block's own
    and largest other entry of its ``overlaps`` row, over k), margins above and below rho, edge
    distance and excess, as floats; None where the verdict or block position leaves it undefined.
    """
    lam = sample.eigenvalues
    records = []
    for j, verdict in enumerate(verdicts):
        k = len(sample.spike_ranks[j])
        first = sample.spike_ranks[j][0] - 1
        block = lam[first : first + k]
        summed = overlaps(sample, j)
        leak = max((s for l, s in enumerate(summed) if l != j), default=0.0) / k
        above = below = edist = excess = None
        if verdict.is_outlier:
            if first >= 1:
                above = float(lam[first - 1]) - verdict.rho
            if first + k < lam.size:
                below = verdict.rho - float(lam[first + k])
        else:
            signed = spectrum.signed_distance(block)
            edist, excess = float(np.mean(np.abs(signed))), max(0.0, float(signed.max()))
        records.append((float(block.mean()), summed[j] / k, leak, above, below, edist, excess))
    return records


def _mean(values) -> float | None:
    return None if values[0] is None else float(np.mean(values))


def aggregate(spec: SpikedModelSpec, samples) -> VerificationResult:
    """Spike statistics of ``samples``, replicas of ``spec``, next to the theory.

    Each spike gets the statistics its verdict calls for: rho, tau and the
    margins for an outlier, the edge distance and excess for a spike that
    sticks.  The theory is computed before ``samples`` is iterated, so a
    failure there draws no replica of a lazy ``replicas`` iterator.
    """
    aspect, ctx, mod, verdicts = _verdicts(spec)
    sup = mod.support(ctx)
    # A sticking block is placed against the limit's spectrum: the support and any atom at 0.
    spectrum = sup
    if spec.kind == "multiplicative_wishart" and mod.mass_at_zero(ctx) > 0.0:
        if not sup.intervals or sup.intervals[0][0] > 0.0:
            spectrum = SupportIntervals(((0.0, 0.0),) + sup.intervals)

    # map releases each sample before drawing the next; a comprehension's loop
    # variable would keep it alive and raise the peak memory of a run.
    records = list(map(lambda sample: _rep_record(sample, verdicts, spectrum), samples))
    if not records:
        raise SpecError("aggregate needs at least one replica")

    outcomes = []
    for (_, k), verdict, reps_j in zip(spec.spikes, verdicts, zip(*records)):
        eig, overlap, leak, above, below, edist, excess = zip(*reps_j)
        eig_mean, eig_err = _mean_stderr(eig)
        overlap_mean, overlap_err = _mean_stderr(overlap)
        outcomes.append(
            SpikeOutcome(
                theta=verdict.theta,
                multiplicity=k,
                rho=verdict.rho,
                tau=verdict.tau,
                eigenvalue_mean=eig_mean,
                eigenvalue_stderr=eig_err,
                overlap_mean=overlap_mean,
                overlap_stderr=overlap_err,
                margin_above=_mean(above),
                margin_below=_mean(below),
                leakage=float(np.mean(leak)),
                edge_distance=_mean(edist),
                edge_excess=None if excess[0] is None else max(excess),
            )
        )
    return VerificationResult(
        kind=spec.kind,
        N=spec.N,
        reps=len(records),
        seed=spec.seed,
        c=spec.c,
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


def outcome_passes(outcome: SpikeOutcome) -> bool:
    """Report-level agreement flag at the desk-scale tolerances."""
    if outcome.is_outlier:
        return (
            abs(outcome.eigenvalue_mean - outcome.rho) <= RHO_TOL
            and abs(outcome.overlap_mean - outcome.tau) <= TAU_TOL
        )
    return outcome.edge_excess <= EDGE_TOL
