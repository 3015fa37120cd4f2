"""spikelab benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload sim_additive_complex --seed 1 --seconds 30 --trace 0

Each op is one in-process ``spikelab.cli.main([...])`` call on a model file
generated during set-up, with ``--out`` in the run's temporary directory
under ``.bench_out/``.  Ops run in order, in whole cycles, until
``--seconds`` have passed; every output is checked (see checks.py), and an
op that exits non-zero or fails a check counts as failed and adds its time
but not its work.

``--trace 0`` prints the end-to-end metrics: ops_per_s (passing ops per
wall second of all timed ops), peak_rss_mb (``ru_maxrss`` of this process)
and setup_s (median of 3 to 15 set-ups, each generating the model files,
importing spikelab afresh and running one warm-up op).

``--trace 1`` prints the per-layer metrics instead.  For half of
``--seconds`` it runs each op twice, untraced and then with span recorders
installed (spans.py), and reports self seconds and counters per traced op
and the tracing overhead; then it runs the workload's density probes once,
traced, and reports the density layer's totals over them.  The spans are
written to ``.bench_out/spans-<workload>.json``.

The line before the result records the environment and the per-command
throughput.  Without ``src/spikelab`` next to this directory the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# At least MIN_SETUPS set-ups, and more while they have taken under
# SETUP_SECONDS in all, so that a cheap set-up is timed often enough for a
# steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 15, 1.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SPIKELAB_THREADS")
WORK_UNIT = {"analyze": "analyze_per_s", "density": "density_points_per_s", "simulate": "replicas_per_s"}


def environment() -> dict:
    """nproc, interpreter, numpy and BLAS/LAPACK builds, thread variables."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.25 has no dict mode
        deps = {}
    libs = {lib: f"{deps[lib].get('name')} {deps[lib].get('version')}" for lib in ("blas", "lapack") if lib in deps}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **libs,
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _import_cli():
    """Import spikelab from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "spikelab" or m.startswith("spikelab.")]:
        del sys.modules[name]
    return importlib.import_module("spikelab.cli")


def execute(cli, op) -> tuple[float, str | None]:
    """Run one op; return its wall seconds and why it failed, or None."""
    op.out.unlink(missing_ok=True)
    start = perf_counter()
    try:
        code = cli.main(list(op.argv))
    except Exception:  # a crash is a failed op, not the end of the run
        traceback.print_exc()
        code = None
    wall = perf_counter() - start
    if code != 0:
        return wall, f"exit code {code}"
    return wall, checks.check(op, op.out.read_text(encoding="utf-8"))


def set_up(name: str, seed: int, tmp: Path):
    """Timed set-ups; returns their times, the workload and the cli module."""
    times = []
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS):
        start = perf_counter()
        workload = workloads.build(name, seed, tmp)
        cli = _import_cli()
        code = cli.main(list(workload.warmup.argv))
        times.append(perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"warm-up op {' '.join(workload.warmup.argv)} exited {code}")
    return times, workload, cli


def describe(op) -> str:
    """The op's command line, with paths shortened to file names."""
    return " ".join(Path(a).name if "/" in a else a for a in op.argv)


@dataclass
class Row:
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    work: int = 0


class Tally:
    """Per-command attempts, failures, wall time and work of passing ops."""

    def __init__(self):
        self.rows: dict[str, Row] = {}
        self.reasons: list[str] = []

    def add(self, op, wall: float, reason: str | None) -> None:
        row = self.rows.setdefault(op.command, Row())
        row.attempted += 1
        row.wall += wall
        if reason is None:
            row.work += op.work
        else:
            row.failed += 1
            self.reasons.append(f"{describe(op)}: {reason}")

    def total(self, field: str):
        return sum(getattr(row, field) for row in self.rows.values())

    def summary(self) -> dict:
        out = {"fail_frac": self.total("failed") / max(1, self.total("attempted"))}
        for command, row in sorted(self.rows.items()):
            out[f"{command}_ops"] = row.attempted
            out[WORK_UNIT[command]] = row.work / row.wall
        return out


def run_for(workload, seconds: float, step) -> int:
    """Call ``step(op)`` on whole cycles of ops until ``seconds`` have passed."""
    done = 0
    start = perf_counter()
    while done == 0 or perf_counter() - start < seconds:
        for op in workload.ops[done % len(workload.ops) :][: workload.cycle]:
            step(op)
            done += 1
    return done


def end_to_end(cli, workload, seconds: float, tally: Tally, setup_times: list) -> dict:
    run_for(workload, seconds, lambda op: tally.add(op, *execute(cli, op)))
    return {
        "ops_per_s": (tally.total("attempted") - tally.total("failed")) / tally.total("wall"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(cli, workload, seconds: float, tally: Tally, record: dict) -> dict:
    """Traced ops, then the density probes; writes the spans out."""
    tracer, probe_tracer = spans.Tracer(), spans.Tracer()
    walls = {False: 0.0, True: 0.0}

    def step(op):
        # Untraced and then traced, back to back, so that both halves of the
        # overhead ratio see the same load on the machine.
        for traced in (False, True):
            with spans.installed(tracer) if traced else contextlib.nullcontext():
                wall, reason = execute(cli, op)
            tally.add(op, wall, reason)
            walls[traced] += wall
        tracer.op += 1

    n_ops = run_for(workload, seconds / 2, step)
    record["probe_failures"] = []
    with spans.installed(probe_tracer):
        for probe_tracer.op, op in enumerate(workload.probes):
            _, reason = execute(cli, op)
            if reason:
                record["probe_failures"].append(f"{describe(op)}: {reason}")
    (OUT_DIR / f"spans-{workload.name}.json").write_text(
        json.dumps({**record, "spans": tracer.spans, "probe_spans": probe_tracer.spans}), encoding="utf-8"
    )
    metrics = tracer.per_op(n_ops)
    metrics.update(probe_tracer.density_totals())
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path, record: dict) -> dict:
    """Run one workload, add its details to ``record`` and return the result line."""
    setup_times, workload, cli = set_up(name, seed, tmp)
    record["setup_runs_s"] = setup_times
    tally = Tally()
    if trace:
        metrics = per_layer(cli, workload, seconds, tally, record)
    else:
        metrics = end_to_end(cli, workload, seconds, tally, setup_times)
    record.update(tally.summary())
    record["failures"] = tally.reasons[:20]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    return {
        "correct": tally.total("failed") == 0,
        "attempted": tally.total("attempted"),
        "failed": tally.total("failed"),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "spikelab" / "__init__.py").is_file():
        print(f"error: no spikelab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    record = {"workload": args.workload, "seed": args.seed, "environment": environment()}
    # The workloads are defined single-worker; SPIKELAB_THREADS would change that.
    os.environ.pop("SPIKELAB_THREADS", None)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp), record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
