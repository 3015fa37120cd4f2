"""Command line front end: analyze spikes, tabulate densities, run simulations.

Model files are JSON objects with the keys kind ("additive" or
"multiplicative"), sigma2 or c, nu = {"atoms": [[location, weight], ...]},
spikes = [[theta, multiplicity], ...], and optional N, seed, entry_law
("gaussian" or "rademacher") and field ("complex" or "real").

Every command validates the whole model file by one rule, that of
SpikedModelSpec: spike thetas strictly decreasing, and N, seed, entry_law
and field checked even by the commands that do not use them.

Exit codes: 0 success, 2 invalid spec or domain, 4 numerical accuracy
failure (3, once fixed-point non-convergence, is retired).  On one
machine, output is a pure function of the model file bytes, the flags and
the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import verify
from .ensemble import SpikedModelSpec
from .errors import DegenerateOutlierError, DomainError, NumericalError, SpecError
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
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SpecError(f"model file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"model file is not valid JSON: {exc}") from None
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


def _fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def cmd_analyze(spec: SpikedModelSpec, args: argparse.Namespace) -> str:
    ctx, mod = verify.limit(spec, spec.c)
    verdicts = [mod.classify_spike(ctx, theta, mult) for theta, mult in spec.spikes]
    sup = mod.support(ctx)
    additive = spec.kind == "additive_wigner"
    # Only the multiplicative limit can hold an atom, at 0, outside its support.
    at_zero = {} if additive else {"mass_at_zero": mod.mass_at_zero(ctx)}
    if args.format == "json":
        doc = {
            "kind": spec.kind,
            "sigma2" if additive else "c": spec.sigma2 if additive else spec.c,
            "support": [[lo, hi] for lo, hi in sup.intervals],
            **at_zero,
            "spikes": [
                {
                    "theta": v.theta,
                    "multiplicity": v.multiplicity,
                    "verdict": "outlier" if v.is_outlier else "sticking",
                    "criterion": v.criterion_value,
                    "rho": v.rho,
                    "tau": v.tau,
                }
                for v in verdicts
            ],
        }
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    lines = ["type,theta,multiplicity,verdict,criterion,rho,tau,lo,hi"]
    for v in verdicts:
        verdict = "outlier" if v.is_outlier else "sticking"
        rho = "" if v.rho is None else _fmt_float(v.rho)
        tau = "" if v.tau is None else _fmt_float(v.tau)
        lines.append(
            f"spike,{_fmt_float(v.theta)},{v.multiplicity},{verdict},"
            f"{_fmt_float(v.criterion_value)},{rho},{tau},,"
        )
    for lo, hi in sup.intervals:
        lines.append(f"support,,,,,,,{_fmt_float(lo)},{_fmt_float(hi)}")
    if not additive:
        # The atom at 0 as the interval [0, 0], with its mass in the multiplicity column.
        lines.append(f"mass_at_zero,,{_fmt_float(at_zero['mass_at_zero'])},,,,,0,0")
    return "\n".join(lines) + "\n"


def cmd_density(spec: SpikedModelSpec, args: argparse.Namespace) -> str:
    lo, hi, n = _parse_grid(args.grid)
    ctx, mod = verify.limit(spec, spec.c)
    points = mod.density(ctx, np.linspace(lo, hi, n), eps=args.eps)
    if args.format == "json":
        doc = {"x": [x for x, _ in points], "density": [f for _, f in points]}
        return json.dumps(doc, allow_nan=False) + "\n"
    lines = ["x,density"]
    lines.extend(f"{_fmt_float(x)},{_fmt_float(f)}" for x, f in points)
    return "\n".join(lines) + "\n"


def cmd_simulate(spec: SpikedModelSpec, args: argparse.Namespace) -> str:
    spec = dataclasses.replace(
        spec,
        N=spec.N if args.N is None else args.N,
        seed=spec.seed if args.seed is None else args.seed,
    )
    if spec.N is None:
        raise SpecError("simulate requires N (in the model file or via --N)")
    result = verify.run(spec, args.reps)
    if args.format == "json":
        return json.dumps(verify.to_json_dict(result), indent=2, allow_nan=False) + "\n"
    return verify.to_csv_text(result)


_COMMANDS = {"analyze": cmd_analyze, "density": cmd_density, "simulate": cmd_simulate}


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
        text = _COMMANDS[args.command](load_model(args.spec), args)
    except (SpecError, DomainError, DegenerateOutlierError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
