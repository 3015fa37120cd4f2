"""Seeded workload generators.

Each generator writes its model files into a directory and returns the
timed op list, the warm-up op and the density probes.  An op is one
``spikelab`` command line; the program sees only the generated model files
and the flags.  Every random choice comes from the workload seed, so the
same seed gives the same files and op lists.

Density calls are probes, not timed ops, because a timed op must not fail
and the fixed-point density solver exits 3 near support edges: on every
few-atom model here and on many of the seeded many-atom ones.  Probes run
once each in the traced run, where their cost and failures are counted
per layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

README_NU = [[1.0, 0.5], [-1.0, 0.5]]

# Timed ops per simulate workload; runs cycle through them, so this only
# needs to exceed the ops that fit in the longest run.
SIM_OPS = 64
# Seeded spike sets analyzed per few-atom model in each theory cycle.
SWEEP = 20


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the model it reads and the work it returns."""

    command: str
    argv: tuple[str, ...]
    model: dict
    out: Path
    work: int
    grid: tuple[float, float, int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # A run stops only after a whole number of cycles, so every run times
    # the same mix of models.
    cycle: int
    warmup: Op
    probes: tuple[Op, ...] = ()


def _model_file(tmp: Path, name: str, model: dict) -> str:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    return str(path)


def _analyze(spec: str, model: dict) -> Op:
    out = Path(spec).with_suffix(".analyze.json")
    return Op("analyze", ("analyze", "--spec", spec, "--out", str(out)), model, out, 1)


def _density(spec: str, model: dict, grid: str) -> Op:
    lo, hi, n = grid.split(":")
    out = Path(spec).with_suffix(f".density_{lo}_{hi}_{n}.csv")
    argv = ("density", "--spec", spec, f"--grid={grid}", "--out", str(out))
    return Op("density", argv, model, out, int(n), (float(lo), float(hi), int(n)))


def _simulate(spec: str, model: dict, reps: int, seed: int) -> Op:
    out = Path(spec).with_suffix(f".simulate_{reps}_{seed}.json")
    argv = ("simulate", "--spec", spec, "--reps", str(reps), "--seed", str(seed), "--out", str(out))
    return Op("simulate", argv, model, out, reps)


def _sim_workload(name: str, model: dict, reps: int, seed: int, tmp: Path) -> Workload:
    spec = _model_file(tmp, name, model)
    warmup_seed, *seeds = (int(s) for s in np.random.default_rng(seed).integers(0, 2**32, SIM_OPS + 1))
    ops = tuple(_simulate(spec, model, reps, s) for s in seeds)
    return Workload(name, ops, 1, _simulate(spec, model, 1, warmup_seed))


def sim_additive_complex(seed: int, tmp: Path) -> Workload:
    """README model: nu = (delta_1 + delta_-1)/2, sigma2 = 0.5; theta = 1.5 sticks."""
    model = {
        "kind": "additive",
        "sigma2": 0.5,
        "nu": {"atoms": README_NU},
        "spikes": [[2.0, 1], [1.5, 1], [0.0, 1]],
        "N": 1000,
        "field": "complex",
    }
    return _sim_workload("sim_additive_complex", model, 4, seed, tmp)


def sim_wishart_real(seed: int, tmp: Path) -> Workload:
    """nu = (delta_1 + delta_4)/2, c = 0.1 (p = 10000), real; theta = 3.5 sticks.

    Every spike's report-level pass flag must hold on every op, so the
    spikes are placed where finite-N fluctuations stay well inside the
    program's tolerances.  theta = 6 is an outlier about 4.5 standard errors
    inside the 0.1 location tolerance at 12 replicas (theta = 12 fails one
    op in four).  theta = 3.5 sticks to the lower edge of the upper bulk
    component; its largest excursion in 60 replicas was a fifth of the 0.05
    edge tolerance, where a spike sticking at the top edge (theta = 4.5)
    reached 0.9 of it.  The multiplicity-2 spike at 2.5 detaches into the
    gap between the two components, so its eigenvectors are interior ones.
    """
    model = {
        "kind": "multiplicative",
        "c": 0.1,
        "nu": {"atoms": [[1.0, 0.5], [4.0, 0.5]]},
        "spikes": [[6.0, 1], [3.5, 1], [2.5, 2]],
        "N": 1000,
        "field": "real",
    }
    return _sim_workload("sim_wishart_real", model, 12, seed, tmp)


def _spikes(rng: np.random.Generator, ranges) -> list[list]:
    """One spike drawn uniformly from each (lo, hi) range, strictly decreasing."""
    thetas = sorted((float(rng.uniform(lo, hi)) for lo, hi in ranges), reverse=True)
    return [[t, 1] for t in thetas]


def _few_atoms(rng: np.random.Generator, tmp: Path) -> tuple[list, list]:
    """Models with k <= 2 atoms: closed forms (one atom) or known edge trouble.

    Each model is analyzed with SWEEP seeded spike sets whose ranges
    straddle its detachment thresholds, so outliers and sticking spikes
    both occur; its density grids are probed once.
    """
    below = ((2.0, 5.0), (1.1, 1.9), (0.05, 0.9))  # around a single atom at 1
    cases = [
        (
            "readme",
            {"kind": "additive", "sigma2": 0.5, "nu": {"atoms": README_NU}},
            ((1.2, 3.0), (-0.8, 0.8), (-3.0, -1.2)),
            ("-3:3:601", "-2.5:2.5:200"),
        ),
        (
            "semicircle",
            {"kind": "additive", "sigma2": 1.0, "nu": {"atoms": [[0.0, 1.0]]}},
            ((1.05, 3.0), (0.1, 0.95), (-3.0, -0.1)),
            ("-3:3:601",),
        ),
        (
            "mp_c0.5",
            {"kind": "multiplicative", "c": 0.5, "nu": {"atoms": [[1.0, 1.0]]}},
            below,
            ("-1:4:601",),
        ),
        (
            "mp_c2",
            {"kind": "multiplicative", "c": 2.0, "nu": {"atoms": [[1.0, 1.0]]}},
            below,
            ("-1:7:601",),
        ),
        (
            "two_atoms_c0.3",
            {"kind": "multiplicative", "c": 0.3, "nu": {"atoms": [[1.0, 0.5], [4.0, 0.5]]}},
            ((5.0, 9.0), (1.5, 3.5), (0.1, 0.9)),
            ("0:10:601",),
        ),
    ]
    ops, probes = [], []
    for name, model, ranges, grids in cases:
        for i in range(SWEEP):
            spiked = {**model, "spikes": _spikes(rng, ranges)}
            spec = _model_file(tmp, f"{name}_{i}", spiked)
            ops.append(_analyze(spec, spiked))
        probes.extend(_density(spec, spiked, grid) for grid in grids)
    return ops, probes


def _random_nu(rng: np.random.Generator, k: int, lo: float, hi: float):
    locs = np.sort(rng.uniform(lo, hi, k))
    weights = rng.dirichlet(np.ones(k))
    return locs, [[float(t), float(w)] for t, w in zip(locs, weights)]


def _gap_spikes(rng: np.random.Generator, locs: np.ndarray, outside) -> list[list]:
    """Midpoints of the two widest gaps of nu plus one spike per outside range."""
    widest = np.argsort(np.diff(locs))[-2:]
    thetas = [0.5 * float(locs[i] + locs[i + 1]) for i in widest]
    thetas += [float(rng.uniform(lo, hi)) for lo, hi in outside]
    return [[t, 1] for t in sorted(thetas, reverse=True)]


def _many_atoms(rng: np.random.Generator, tmp: Path) -> tuple[list, list]:
    """Seeded atomic nu with k = 50 and k = 400 atoms, both model families."""
    ops, probes = [], []
    for k in (50, 400):
        locs, atoms = _random_nu(rng, k, -3.0, 3.0)
        top, bottom = float(locs[-1]), float(locs[0])
        model = {
            "kind": "additive",
            "sigma2": 0.5,
            "nu": {"atoms": atoms},
            "spikes": _gap_spikes(rng, locs, ((top + 0.3, top + 2.0), (bottom - 2.0, bottom - 0.3))),
        }
        spec = _model_file(tmp, f"additive_k{k}", model)
        ops.append(_analyze(spec, model))
        probes.append(_density(spec, model, "-6:6:601"))

        locs, atoms = _random_nu(rng, k, 0.5, 5.0)
        top, bottom = float(locs[-1]), float(locs[0])
        model = {
            "kind": "multiplicative",
            "c": 0.3,
            "nu": {"atoms": atoms},
            "spikes": _gap_spikes(rng, locs, ((top + 0.5, top + 4.0), (0.1 * bottom, 0.5 * bottom))),
        }
        spec = _model_file(tmp, f"multiplicative_k{k}", model)
        ops.append(_analyze(spec, model))
        probes.append(_density(spec, model, "0:12:601"))
    return ops, probes


def theory(seed: int, tmp: Path) -> Workload:
    """Few-atom spike sweeps and many-atom models in one cycle.

    The few-atom sweeps are cheap per op, so CLI parsing and model loading
    carry their cost; the many-atom models spend it in root finding over
    every gap of nu.  Together they take about a fifth and four fifths of a
    cycle.  The warm-up op is the costliest one, a k = 400 analyze: with a
    cheap one, set-up time would be mostly file writes, whose time varies
    far more from run to run than computing does.
    """
    rng = np.random.default_rng(seed)
    few_ops, few_probes = _few_atoms(rng, tmp)
    many_ops, many_probes = _many_atoms(rng, tmp)
    ops = tuple(few_ops + many_ops)
    return Workload("theory", ops, len(ops), ops[-1], tuple(few_probes + many_probes))


WORKLOADS = {
    "sim_additive_complex": sim_additive_complex,
    "sim_wishart_real": sim_wishart_real,
    "theory": theory,
}


def build(name: str, seed: int, tmp: Path) -> Workload:
    """Write the model files of workload ``name`` into ``tmp`` and return it."""
    return WORKLOADS[name](seed, tmp)
