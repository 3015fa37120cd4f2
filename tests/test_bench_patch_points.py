"""The traced benchmark run wraps spikelab functions by name.

``bench/spans.py`` lists each wrapped function as (module, attribute) in
``PATCHES`` and looks the attribute up when a traced run starts, so a
renamed or deleted function only shows there.  This checks every entry
resolves.  ``spans.py`` imports only the standard library, so it is
loaded by path without the rest of the bench.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_patch_point_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in spans.PATCHES
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
