"""How ``verify.replicas`` draws replicas on worker threads.

The pool size follows the usable CPUs, so each test sets that count
through ``verify._usable_cpus``: three workers run on any machine, more
than the cores of a small one.
"""

import sys
import threading
import time

import numpy as np
import pytest

from spikelab import cli, lapack, verify
from spikelab.ensemble import SpikedModelSpec, draw_sample, workspace
from spikelab.errors import NumericalError
from spikelab.measure import AtomicMeasure

TWO_POINT = AtomicMeasure(((1.0, 0.5), (-1.0, 0.5)))
GAP = AtomicMeasure(((1.0, 0.5), (4.0, 0.5)))

pytestmark = pytest.mark.skipif(
    lapack.routines() is None or lapack.threads() is None,
    reason="numpy's library lacks the LAPACK routines or OpenBLAS's thread control",
)


def additive(N=60, seed=5, **kwargs):
    return SpikedModelSpec(
        kind="additive_wigner", nu=TWO_POINT, spikes=((2.0, 1), (1.5, 1), (0.0, 1)),
        N=N, seed=seed, sigma2=0.5, **kwargs,
    )


def wishart(N=60, seed=5, c=0.1, **kwargs):
    return SpikedModelSpec(
        kind="multiplicative_wishart", nu=GAP, spikes=((6.0, 1), (2.5, 2)),
        N=N, seed=seed, c=c, **kwargs,
    )


@pytest.fixture
def workers(monkeypatch):
    def use(n):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: n)

    use(3)
    return use


@pytest.fixture
def blas_threads():
    """OpenBLAS at 4 threads for the test, put back afterwards."""
    get, put = lapack.threads()
    before = get()
    put(4)
    try:
        yield get
    finally:
        put(before)


def pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


def arrays(samples):
    return [(s.eigenvalues.tobytes(), s.eigenvectors.tobytes()) for s in samples]


@pytest.mark.parametrize("spec", [additive(120), wishart(120, field="real_symmetric")])
def test_same_seed_and_reps_repeat_byte_for_byte(workers, spec):
    first = cli.simulate_report(verify.run(spec, 4), "json")
    assert cli.simulate_report(verify.run(spec, 4), "json") == first
    assert arrays(verify.replicas(spec, 4)) == arrays(verify.replicas(spec, 4))


@pytest.mark.parametrize(
    "spec",
    [
        additive(),
        additive(field="real_symmetric", entry_law="rademacher"),
        wishart(),
        wishart(field="real_symmetric", entry_law="rademacher"),
        wishart(c=2.0, field="real_symmetric"),
        wishart(c=0.4, entry_law="rademacher"),
    ],
    ids=[
        "additive_complex", "additive_real_rademacher", "wishart_complex",
        "wishart_real_rademacher", "wishart_p_below_N", "wishart_complex_rademacher_blocks",
    ],
)
def test_a_nan_filled_buffer_gives_the_same_replica(spec):
    child = np.random.SeedSequence(spec.seed).spawn(1)[0]
    fresh = draw_sample(spec, np.random.default_rng(child))
    work = workspace(spec)
    work.fill(np.nan)
    reused = draw_sample(spec, np.random.default_rng(child), work)
    assert arrays([reused]) == arrays([fresh])


def test_pool_matches_one_at_a_time_to_rounding(workers):
    spec = additive(200)
    pooled = list(verify.replicas(spec, 4))
    workers(1)
    alone = list(verify.replicas(spec, 4))
    for a, b in zip(pooled, alone):
        assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-12
        overlap = np.abs(np.sum(a.eigenvectors.conj() * b.eigenvectors, axis=0))
        assert np.all(np.abs(overlap - 1.0) <= 1e-10)


def test_error_names_the_lowest_failing_replica_and_nothing_after_it(
    workers, blas_threads, monkeypatch
):
    # Replica 3 fails at once, replica 1 only later: the error still names 1.
    def failing(spec, rng, work=None):
        key = rng.bit_generator.seed_seq.spawn_key
        if key == (1,):
            time.sleep(0.2)
            raise NumericalError("eigenpair residual 1.000e+00 exceeds 1.000e-07")
        if key == (3,):
            raise NumericalError("eigenvector Gram deviation 1.000e+00 exceeds 1e-08")
        return draw_sample(spec, rng, work)

    monkeypatch.setattr(verify, "draw_sample", failing)
    yielded = []
    with pytest.raises(NumericalError, match=r"replica 1 \(seed 5, spawn_key=\(1,\)\): eigenpair"):
        for sample in verify.replicas(additive(), 6):
            yielded.append(sample)
    assert len(yielded) == 1
    assert pool_threads() == []
    assert blas_threads() == 4


def test_blas_threads_are_divided_among_workers_then_restored(workers, blas_threads, monkeypatch):
    seen = []

    def recording(spec, rng, work=None):
        seen.append(blas_threads())
        return draw_sample(spec, rng, work)

    monkeypatch.setattr(verify, "draw_sample", recording)
    workers(2)
    assert len(list(verify.replicas(additive(), 4))) == 4
    assert seen == [2] * 4
    assert blas_threads() == 4
    assert pool_threads() == []

    # A lone replica keeps every thread, and so does a single usable CPU:
    # either makes a pool of one worker.
    for reps, cpus in ((1, 3), (3, 1)):
        seen.clear()
        workers(cpus)
        assert len(list(verify.replicas(additive(), reps))) == reps
        assert seen == [4] * reps
        assert blas_threads() == 4
        assert pool_threads() == []


def test_closing_early_joins_the_workers_and_restores_blas_threads(workers, blas_threads):
    it = verify.replicas(additive(), 8)
    next(it)
    assert len(pool_threads()) >= 1
    assert blas_threads() == 1
    it.close()
    assert pool_threads() == []
    assert blas_threads() == 4


def test_without_thread_control_one_worker_draws_every_replica(workers, blas_threads, monkeypatch):
    calls = []

    def recording(spec, rng, work=None):
        key = rng.bit_generator.seed_seq.spawn_key
        calls.append((key, threading.current_thread(), blas_threads()))
        return draw_sample(spec, rng, work)

    monkeypatch.setattr(lapack, "threads", lambda: None)
    monkeypatch.setattr(verify, "draw_sample", recording)
    assert len(list(verify.replicas(additive(), 4))) == 4
    assert [key for key, _, _ in calls] == [(i,) for i in range(4)]
    assert len({thread for _, thread, _ in calls}) == 1
    assert [threads for _, _, threads in calls] == [4] * 4
    assert blas_threads() == 4
    assert pool_threads() == []


def test_without_lapack_routines_the_pool_matches_the_eigh_fallback(
    workers, blas_threads, monkeypatch
):
    seen = []

    def recording(spec, rng, work=None):
        seen.append(blas_threads())
        return draw_sample(spec, rng, work)

    monkeypatch.setattr(lapack, "routines", lambda: None)
    spec = additive(120)
    children = np.random.SeedSequence(spec.seed).spawn(4)
    alone = [draw_sample(spec, np.random.default_rng(child)) for child in children]
    monkeypatch.setattr(verify, "draw_sample", recording)
    pooled = list(verify.replicas(spec, 4))
    assert seen == [1] * 4  # 4 BLAS threads over 3 workers
    assert blas_threads() == 4
    for a, b in zip(pooled, alone):
        assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-12
        overlap = np.abs(np.sum(a.eigenvectors.conj() * b.eigenvectors, axis=0))
        assert np.all(np.abs(overlap - 1.0) <= 1e-10)


def test_workers_never_share_a_buffer(workers):
    # More workers than replicas in flight can take buffers; with the
    # interpreter switching threads as often as it can, every replica must
    # still equal the one drawn alone in a buffer of its own.
    workers(4)
    spec = additive(40, seed=11)
    children = np.random.SeedSequence(spec.seed).spawn(12)
    alone = [draw_sample(spec, np.random.default_rng(child)) for child in children]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        pooled = list(verify.replicas(spec, 12))
        assert time.perf_counter() - start < 60.0
    finally:
        sys.setswitchinterval(interval)
    assert arrays(pooled) == arrays(alone)
