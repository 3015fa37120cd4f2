"""Span recorder for the traced run.

``installed(tracer)`` replaces each public function at a module boundary
with a wrapper that records a span, and puts the originals back on exit.
Each name is patched where its caller looks it up, because the modules
import by name: ``verify.draw_sample`` rather than
``ensemble.draw_sample``, ``free_additive.bisect`` rather than
``rootfind.bisect``.  Nothing is patched unless a tracer is installed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Several attributes may share a span name;
# their times add up under it.
PATCHES = (
    ("spikelab.cli", "main", "cli"),
    ("spikelab.cli", "load_model", "cli.load_model"),
    ("spikelab.verify", "run", "verify"),
    ("spikelab.verify", "expected_sticking", "verify"),
    ("spikelab.verify", "draw_sample", "ensemble.draw_sample"),
    ("spikelab.verify", "overlaps", "ensemble.overlaps"),
    ("spikelab.ensemble", "build_perturbation", "ensemble.build_perturbation"),
    ("spikelab.ensemble", "sample_wigner", "ensemble.noise"),
    ("spikelab.ensemble", "sample_wishart_factor", "ensemble.noise"),
    ("spikelab.ensemble", "assemble", "ensemble.assemble"),
    ("spikelab.ensemble", "diagonalize", "ensemble.diagonalize"),
    # ensemble.diagonalize calls np.linalg.eigh; nothing else in spikelab does.
    ("numpy.linalg", "eigh", "ensemble.eigh"),
) + tuple(
    (f"spikelab.{module}", attr, name)
    for module in ("free_additive", "free_multiplicative")
    for attr, name in (
        ("classify_spike", f"{module}.classify"),
        ("support", f"{module}.support"),
        ("density", f"{module}.density"),
        ("bisect", "rootfind"),
        ("creep_to_sign", "rootfind"),
        ("march_to_sign", "rootfind"),
    )
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))
# Self time of a span is reported as "<name>_s", except for these.
_SELF_METRIC = {"cli": "cli.self_s", "verify": "verify.self_s", "rootfind": "rootfind.s"}
COUNTERS = (
    "ensemble.replicas",
    "ensemble.eigvec_bytes",
    "rootfind.calls",
    "rootfind.f_evals",
)


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    A span is ``[name, start, end, parent index, op id]``.  Counters are
    taken at the same boundaries: replicas drawn, eigenvectors computed and
    read, criterion evaluations inside the root finders, density points
    returned and density calls failed.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._ranks_read: set[int] = set()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "rootfind":
                self.counts["rootfind.calls"] += 1
                args = (self._counting(args[0]),) + args[1:]
            index = len(self.spans)
            span = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name.endswith(".density"):
                    self.counts[f"{name}_calls_failed"] += 1
                raise
            finally:
                self._stack.pop()
                span[2] = perf_counter()
            self._observe(name, args, result)
            return result

        return traced

    def _counting(self, f):
        def counted(x):
            self.counts["rootfind.f_evals"] += 1
            return f(x)

        return counted

    def _observe(self, name: str, args, result) -> None:
        if name.endswith(".density"):
            self.counts[f"{name}_points"] += len(result)
        elif name == "ensemble.diagonalize":
            vectors = result[1]
            self.counts["ensemble.eigvecs_computed"] += vectors.shape[1]
            self.counts["ensemble.eigvec_bytes"] += vectors.nbytes
        elif name == "ensemble.draw_sample":
            self.counts["ensemble.replicas"] += 1
            self.flush_reads()
        elif name == "ensemble.overlaps":
            sample, spike_j = args[0], args[1]
            self._ranks_read.update(sample.spike_ranks[spike_j])

    def flush_reads(self) -> None:
        """Count the distinct eigenvectors read from the last replica drawn."""
        self.counts["ensemble.eigvecs_read"] += len(self._ranks_read)
        self._ranks_read = set()

    def self_times(self) -> Counter:
        """Summed self time per span name.

        Self time is a span's duration minus the time its child spans
        cover.  The program runs single-threaded, so children of one span
        never overlap and the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), cover in zip(self.spans, covered):
            totals[name] += end - start - cover
        return totals

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Self seconds and counts per op, plus the eigenvector read ratio."""
        self.flush_reads()
        totals = self.self_times()
        out = {_SELF_METRIC.get(name, f"{name}_s"): totals[name] / n_ops for name in SPAN_NAMES}
        out.update({key: self.counts[key] / n_ops for key in COUNTERS})
        computed = self.counts["ensemble.eigvecs_computed"]
        out["ensemble.eigvecs_read_frac"] = self.counts["ensemble.eigvecs_read"] / computed if computed else 0.0
        return out

    def density_totals(self) -> dict[str, float]:
        """Density self seconds, points returned and calls failed, summed."""
        totals = self.self_times()
        out = {}
        for family in ("free_additive", "free_multiplicative"):
            name = f"{family}.density"
            out[f"{name}_s"] = totals[name]
            out[f"{name}_points"] = float(self.counts[f"{name}_points"])
            out[f"{name}_calls_failed"] = float(self.counts[f"{name}_calls_failed"])
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every boundary in PATCHES with ``tracer``'s wrappers, then restore."""
    saved = []
    try:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
