"""Command line front end: analyze spikes, tabulate densities, run simulations.

Model files are JSON objects with the keys kind ("additive" or
"multiplicative"), sigma2 or c, nu = {"atoms": [[location, weight], ...]},
spikes = [[theta, multiplicity], ...], and optional N, seed, entry_law
("gaussian" or "rademacher") and field ("complex" or "real").  Every command
validates the whole file by one rule, that of SpikedModelSpec, so N, seed,
entry_law and field are checked even by the commands that do not use them;
analyze and density evaluate the spec's context with its ``spec.family``.

Only this module knows the output format.  Each command builds its report as
a JSON document and as CSV rows, and ``_render`` writes the one asked for,
CSV by one cell rule.  Exit codes: 0 success; 2 invalid spec or domain, a
model file or ``--out`` that cannot be read or written (``--out`` is tried
first, and a failed run leaves it as it was), or an array too large to
allocate; 4 numerical accuracy failure or a non-finite output value.
On one machine, output is a pure function of the model file bytes, the flags
and the seed.  ``main(argv)`` returns the exit code and may be called again
in one process; the argument parser is built once, on the first call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import verify
from .ensemble import SpikedModelSpec
from .errors import DomainError, NumericalError, SpecError
from .measure import AtomicMeasure

MODEL_KEYS = {"kind", "sigma2", "c", "nu", "spikes", "N", "entry_law", "field", "seed"}
KIND_MAP = {"additive": "additive_wigner", "multiplicative": "multiplicative_wishart"}
FIELD_MAP = {"complex": "complex_hermitian", "real": "real_symmetric"}

DEFAULT_REPS = 5


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"grid must look like LO:HI:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise SpecError(f"grid must look like LO:HI:N, got {text!r}") from None
    if not math.isfinite(hi - lo):  # also catches an HI - LO that overflows
        raise SpecError(f"grid needs finite LO and HI with a finite HI - LO, got {text!r}")
    if not lo < hi:
        raise SpecError(f"grid needs LO < HI, got {text!r}")
    if n < 2:
        raise SpecError(f"grid needs at least 2 points, got {n}")
    return lo, hi, n


def load_model(path: str) -> SpikedModelSpec:
    """Read a JSON model file into a validated SpikedModelSpec (N may be None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read model file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise SpecError(f"model file {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecError("model file must hold a JSON object")
    unknown = sorted(set(raw) - MODEL_KEYS)
    if unknown:
        raise SpecError(f"unknown model keys: {', '.join(unknown)}")
    kind = raw.get("kind")
    if kind not in KIND_MAP:
        raise SpecError(f"kind must be 'additive' or 'multiplicative', got {kind!r}")
    field = raw.get("field", "complex")
    if field not in FIELD_MAP:
        raise SpecError(f"field must be 'complex' or 'real', got {field!r}")
    return SpikedModelSpec(
        kind=KIND_MAP[kind],
        nu=AtomicMeasure.from_dict(raw.get("nu")),
        spikes=raw.get("spikes", ()),
        N=raw.get("N"),
        seed=raw.get("seed", 0),
        sigma2=raw.get("sigma2"),
        c=raw.get("c"),
        entry_law=raw.get("entry_law", "gaussian"),
        field=FIELD_MAP[field],
    )


# CSV headers; the per-spike keys are also the JSON keys.  simulate writes the one overlap
# pair of SpikeOutcome under both the overlap_* and the overlap_sum_* keys of its report.
_ANALYZE_KEYS = ("type", "theta", "multiplicity", "verdict", "criterion", "rho", "tau", "lo", "hi")
_RUN_KEYS = ("kind", "N", "reps", "seed", "c", "aspect_ratio")
_SPIKE_KEYS = (
    "theta", "multiplicity", "verdict", "rho", "tau", "eigenvalue_mean", "eigenvalue_stderr",
    "overlap_mean", "overlap_stderr", "overlap_sum_mean", "overlap_sum_stderr", "margin_above",
    "margin_below", "leakage", "edge_distance", "edge_excess", "pass",
)


def _cell(value) -> str:
    """One CSV cell: empty for None, true/false, integers as str(int), floats as .17g."""
    if value is None or isinstance(value, str):
        return value or ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if not math.isfinite(value):
        raise NumericalError(f"output value {value!r} is not finite")
    return format(float(value), ".17g")


def _leaves(node) -> list:
    if isinstance(node, dict):
        node = list(node.values())
    return [x for item in node for x in _leaves(item)] if isinstance(node, list) else [node]


def _render(fmt: str, doc: dict, rows, indent: int | None = 2) -> str:
    """``doc`` as JSON, or ``rows`` (header first) as CSV: '.' decimals, ',' separators, LF.

    Either way a non-finite number raises NumericalError naming it.
    """
    if fmt == "csv":
        return "".join(",".join(map(_cell, row)) + "\n" for row in rows)
    try:
        return json.dumps(doc, indent=indent, allow_nan=False) + "\n"
    except ValueError:  # a non-finite number: the cell rule raises, naming it
        for value in _leaves(doc):
            _cell(value)
        raise


def cmd_analyze(spec: SpikedModelSpec, args: argparse.Namespace) -> str:
    ctx, mod = spec.limit, spec.family
    verdicts = [mod.classify_spike(ctx, theta) for theta, _ in spec.spikes]
    sup = mod.support(ctx)
    additive = spec.kind == "additive_wigner"
    spikes = [
        (v.theta, k, "outlier" if v.is_outlier else "sticking", v.criterion_value, v.rho, v.tau)
        for v, (_, k) in zip(verdicts, spec.spikes)
    ]
    rows = [_ANALYZE_KEYS, *(("spike", *s, None, None) for s in spikes)]
    rows += [("support", *[None] * 6, lo, hi) for lo, hi in sup.intervals]
    doc = {
        "kind": spec.kind,
        "sigma2" if additive else "c": spec.sigma2 if additive else spec.c,
        "support": [[lo, hi] for lo, hi in sup.intervals],
    }
    # Only the multiplicative limit can hold an atom, at 0, outside its support: in CSV
    # the interval [0, 0], with its mass in the multiplicity column.
    if not additive:
        doc["mass_at_zero"] = mass = mod.mass_at_zero(ctx)
        rows.append(("mass_at_zero", None, mass, *[None] * 4, 0, 0))
    doc["spikes"] = [dict(zip(_ANALYZE_KEYS[1:], s)) for s in spikes]
    return _render(args.format, doc, rows)


def cmd_density(spec: SpikedModelSpec, args: argparse.Namespace) -> str:
    lo, hi, n = _parse_grid(args.grid)
    xs = np.linspace(lo, hi, n)
    f = spec.family.density(spec.limit, xs, eps=args.eps)
    doc = {"x": xs.tolist(), "density": f.tolist()}
    rows = [("x", "density"), *zip(doc["x"], doc["density"])]
    return _render(args.format, doc, rows, indent=None)


def simulate_report(result: verify.VerificationResult, fmt: str) -> str:
    """The ``simulate`` report of ``result`` in ``fmt``, "json" or "csv" (one row per spike)."""
    head = [getattr(result, key) for key in _RUN_KEYS]
    spikes = [
        (o.theta, o.multiplicity, "outlier" if o.is_outlier else "sticking", o.rho, o.tau,
         o.eigenvalue_mean, o.eigenvalue_stderr, *(o.overlap_mean, o.overlap_stderr) * 2,
         o.margin_above, o.margin_below, o.leakage, o.edge_distance, o.edge_excess,
         verify.outcome_passes(o))
        for o in result.spikes
    ]
    doc = {
        **dict(zip(_RUN_KEYS, head)),
        "support": [[lo, hi] for lo, hi in result.support.intervals],
        "spikes": [dict(zip(_SPIKE_KEYS, s)) for s in spikes],
        "pass": all(s[-1] for s in spikes),
    }
    rows = [(*_RUN_KEYS, "spike", *_SPIKE_KEYS), *((*head, j, *s) for j, s in enumerate(spikes))]
    return _render(fmt, doc, rows)


def cmd_simulate(spec: SpikedModelSpec, args: argparse.Namespace) -> str:
    spec = dataclasses.replace(
        spec,
        N=spec.N if args.N is None else args.N,
        seed=spec.seed if args.seed is None else args.seed,
    )
    if spec.N is None:
        raise SpecError("simulate requires N (in the model file or via --N)")
    return simulate_report(verify.run(spec, args.reps), args.format)


def _write(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecError(f"cannot write output file {path}: {exc.strerror or exc}") from None


_COMMANDS = {"analyze": cmd_analyze, "density": cmd_density, "simulate": cmd_simulate}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikelab",
        description="Spiked random matrix models: outlier analysis, densities, Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, default_fmt in (("analyze", "json"), ("density", "csv"), ("simulate", "json")):
        cmd = sub.add_parser(name)
        cmd.add_argument("--spec", required=True, help="path to a JSON model file")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("json", "csv"), default=default_fmt)
        if name == "density":
            cmd.add_argument("--grid", required=True, help="evaluation grid LO:HI:N")
            cmd.add_argument("--eps", type=float, default=0.0)
        if name == "simulate":
            cmd.add_argument("--reps", type=int, default=DEFAULT_REPS)
            cmd.add_argument("--N", type=int, default=None)
            cmd.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # --out is tried before the work, creating and truncating nothing: a file
        # is opened to append nothing, and a new path needs a writable directory.
        out = args.out
        if out is not None and os.path.lexists(out):
            _write(out, "", "a")
        elif out is not None and not os.access(os.path.dirname(out) or ".", os.W_OK | os.X_OK):
            raise SpecError(f"cannot write output file {out}: no writable directory")
        text = _COMMANDS[args.command](load_model(args.spec), args)
        if out is not None:
            _write(out, text)
    except (SpecError, DomainError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
