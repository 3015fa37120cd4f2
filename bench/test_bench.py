"""Tests of the benchmark itself: tracing plumbing, seeding and output checks.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# Every wrapper made by Tracer.wrap runs this code object.
WRAPPER_CODE = spans.Tracer().wrap("probe", len).__code__


def _wrapped_attributes():
    """Patch points that currently hold a span wrapper."""
    return [
        f"{m}.{a}"
        for m, a, _ in spans.PATCHES
        if getattr(getattr(importlib.import_module(m), a), "__code__", None) is WRAPPER_CODE
    ]


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def test_untraced_run_installs_no_wrapper(out_dir, monkeypatch):
    def forbidden(tracer):
        raise AssertionError("an untraced run installed span wrappers")

    monkeypatch.setattr(spans, "installed", forbidden)
    result = run.measure("theory", 1, 0.05, False, out_dir, {})
    assert result["correct"] and result["attempted"] >= 5
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert _wrapped_attributes() == []


def test_traced_run_reports_every_layer_and_restores_patches(out_dir):
    record = {}
    result = run.measure("theory", 1, 0.05, True, out_dir, record)
    assert _wrapped_attributes() == []
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.self_s"] > 0 and metrics["cli.load_model_s"] > 0
    assert metrics["ensemble.replicas"] == 0
    probes = workloads.build("theory", 1, out_dir).probes
    failed = metrics["free_additive.density_calls_failed"] + metrics["free_multiplicative.density_calls_failed"]
    assert failed <= len(record["probe_failures"]) <= len(probes)
    assert (out_dir / "spans-theory.json").is_file()


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli", 0.0, 10.0, None, 0],
        ["cli.load_model", 1.0, 2.0, 0, 0],
        ["free_additive.support", 3.0, 9.0, 0, 0],
        ["rootfind", 4.0, 8.0, 2, 0],
    ]
    assert tracer.self_times() == {
        "cli": 3.0,
        "cli.load_model": 1.0,
        "free_additive.support": 2.0,
        "rootfind": 4.0,
    }


def test_wrapper_counts_criterion_evaluations_and_replica_reads():
    from spikelab import verify
    from spikelab.free_additive import AdditiveContext, support
    from spikelab.measure import AtomicMeasure

    tracer = spans.Tracer()
    with spans.installed(tracer):
        support(AdditiveContext(AtomicMeasure(((1.0, 0.5), (-1.0, 0.5))), 0.5))
        spec = verify.SpikedModelSpec(
            kind="additive_wigner",
            nu=AtomicMeasure(((1.0, 0.5), (-1.0, 0.5))),
            spikes=((2.0, 1), (0.0, 1)),
            N=40,
            seed=3,
            sigma2=0.5,
        )
        verify.run(spec, 2)
    metrics = tracer.per_op(1)
    assert metrics["rootfind.calls"] > 0 and metrics["rootfind.f_evals"] > metrics["rootfind.calls"]
    assert metrics["ensemble.replicas"] == 2
    assert metrics["ensemble.eigvecs_read_frac"] == pytest.approx(2 / 40)


def _argv_without_paths(workload):
    return [[a for a in op.argv if "/" not in a] for op in workload.ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_depend_only_on_the_seed(name, tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    first = workloads.build(name, 7, tmp_path / "a")
    again = workloads.build(name, 7, tmp_path / "b")
    other = workloads.build(name, 8, tmp_path / "c")
    assert [op.model for op in first.ops] == [op.model for op in again.ops]
    assert _argv_without_paths(first) == _argv_without_paths(again)
    assert _argv_without_paths(first) != _argv_without_paths(other) or [op.model for op in first.ops] != [
        op.model for op in other.ops
    ]


def _run_op(op):
    from spikelab import cli

    assert cli.main(list(op.argv)) == 0
    return op.out.read_text(encoding="utf-8")


def test_analyze_check_accepts_the_program_and_rejects_a_wrong_criterion(tmp_path):
    for op in workloads.build("theory", 3, tmp_path).ops:
        text = _run_op(op)
        assert checks.check(op, text) is None
        doc = json.loads(text)
        doc["spikes"][0]["criterion"] += 1e-6
        assert "criterion" in checks.check(op, json.dumps(doc))


@pytest.mark.parametrize(
    "model, grid",
    [
        ({"kind": "additive", "sigma2": 1.0, "nu": {"atoms": [[0.0, 1.0]]}}, "-1.5:1.5:101"),
        ({"kind": "multiplicative", "c": 0.5, "nu": {"atoms": [[1.0, 1.0]]}}, "0.3:2.5:101"),
    ],
)
def test_density_check_matches_closed_forms_off_the_edges(model, grid, tmp_path):
    model = {**model, "spikes": []}
    op = workloads._density(workloads._model_file(tmp_path, "one_atom", model), model, grid)
    text = _run_op(op)
    assert checks.check(op, text) is None
    lines = text.splitlines()
    x, f = lines[51].split(",")
    lines[51] = f"{x},{float(f) * 1.01!r}"
    assert "closed form" in checks.check(op, "\n".join(lines))
    lines[51] = f"{x},-1e-3"
    assert "negative" in checks.check(op, "\n".join(lines))


def test_simulate_check_rejects_a_failed_pass_flag(tmp_path):
    model = {**workloads.build("sim_additive_complex", 5, tmp_path).ops[0].model, "N": 200}
    op = workloads._simulate(workloads._model_file(tmp_path, "small", model), model, 2, 9)
    doc = json.loads(_run_op(op))
    doc["spikes"][0]["pass"] = False
    assert "pass flag" in checks.check(op, json.dumps(doc))
    doc["spikes"][0]["overlap_mean"] = float("nan")
    assert "finite" in checks.check(op, json.dumps(doc))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "theory", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
