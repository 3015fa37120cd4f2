"""The traced benchmark run wraps spikelab functions by name.

``bench/spans.py`` lists each wrapped function as (module, attribute) in
``PATCHES`` and looks the attribute up when a traced run starts, so a
renamed or deleted function only shows there.  This checks every entry
resolves, and that the tracer still counts every eigenvector a replica
computes as read through ``verify.overlaps``.  ``spans.py`` imports only
the standard library, so it is loaded by path without the rest of the bench.
"""

import importlib.util
from pathlib import Path

from spikelab import verify
from spikelab.ensemble import SpikedModelSpec
from spikelab.measure import AtomicMeasure

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_bench_patch_point_exists():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in load_spans().PATCHES
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_the_traced_run_reads_every_eigenvector_it_computes():
    # spans.py takes (sample, spike_j) from each verify.overlaps call and counts the ranks
    # of spike_j as read: one call per spike block must show it every rank.
    spans = load_spans()
    spec = SpikedModelSpec(
        kind="additive_wigner", nu=AtomicMeasure(((1.0, 0.5), (-1.0, 0.5))),
        spikes=((2.0, 1), (1.5, 1), (0.0, 1)), N=40, seed=0, sigma2=0.5,
    )
    with spans.installed(spans.Tracer()) as tracer:
        verify.run(spec, 1)
    metrics = tracer.per_op(1)
    assert tracer.counts["ensemble.replicas"] == 1
    assert tracer.counts["ensemble.eigvecs_read"] == tracer.counts["ensemble.eigvecs_computed"] == 3
    assert metrics["ensemble.eigvecs_read_frac"] == 1.0
