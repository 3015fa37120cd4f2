"""The benchmark checks each report it times with ``bench/checks.py``.

Those checks read report keys by name, so a key that goes missing would
fail every benchmark op.  This runs the same check on a small ``simulate``
report of the README model.  ``checks.py`` imports only json, math and
numpy, so it is loaded by path without the rest of the bench.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from spikelab import cli

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"

README_MODEL = {
    "kind": "additive",
    "sigma2": 0.5,
    "nu": {"atoms": [[1.0, 0.5], [-1.0, 0.5]]},
    "spikes": [[2.0, 1], [1.5, 1], [0.0, 1]],
    "N": 300,
    "seed": 42,
}


def test_bench_checks_accept_a_simulate_report(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(README_MODEL))
    out = tmp_path / "report.json"
    argv = ("simulate", "--spec", str(path), "--reps", "2", "--seed", "1", "--out", str(out))
    assert cli.main(list(argv)) == 0
    op = SimpleNamespace(command="simulate", argv=argv, model=README_MODEL)
    text = out.read_text()
    assert checks.check(op, text) is None
    # A report that drops a key the check reads fails it.
    doc = json.loads(text)
    del doc["spikes"][0]["overlap_sum_mean"]
    assert checks.check(op, json.dumps(doc)) is not None
