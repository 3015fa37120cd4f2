"""Independent checks of the program's outputs.

Each check recomputes what it can from the model file with plain numpy
sums, not with spikelab code, and returns a one-line reason when the
output is wrong, or None when it holds.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The program calls a spike an outlier when H'(theta) > 1e-12 (additive)
# or W(theta) < 1 - 1e-12 (multiplicative).
BOUNDARY_TOL = 1e-12
ATOM_TOL = 1e-12

# Program and check evaluate the same short sums in a different order.
VALUE_RTOL = 1e-9
# Support edges come from bisection to bracket width 1e-12; at an edge the
# spike map is flat, so the image is far more accurate than this.
EDGE_TOL = 1e-8
# Closed-form densities are compared off the axis at eps = 1e-6 and away
# from the edges, where the Poisson smoothing error is far below this.
DENSITY_ATOL = 1e-5
EDGE_MARGIN = 0.05
# Trapezoid rule on a 601-point grid across square-root edges.
MASS_TOL = 1e-2
UNIT_SLACK = 1e-8


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * (1.0 + abs(b))


def _atoms(model: dict) -> tuple[np.ndarray, np.ndarray]:
    atoms = np.array(model["nu"]["atoms"], dtype=float)
    return atoms[:, 0], atoms[:, 1]


def spike_theory(model: dict, theta: float, c: float | None = None) -> dict:
    """Criterion, verdict, rho and tau of one spike, from the paper's sums.

    Additive: H'(theta) = 1 - sigma2 sum w/(theta - t)^2 > 0 detaches, with
    rho = theta + sigma2 sum w/(theta - t) and tau = H'(theta).
    Multiplicative: W(theta) = c sum w t^2/(theta - t)^2 < 1 detaches, with
    rho = theta (1 + c sum w t/(theta - t)) and tau = (1 - W) / (rho/theta).
    ``c`` overrides the model's aspect ratio.
    """
    t, w = _atoms(model)
    d = theta - t
    if model["kind"] == "additive":
        s2 = float(model["sigma2"])
        crit = 1.0 - s2 * float(np.sum(w / d**2))
        if crit > BOUNDARY_TOL:
            return {"outlier": True, "criterion": crit, "rho": theta + s2 * float(np.sum(w / d)), "tau": crit}
        return {"outlier": False, "criterion": crit, "rho": None, "tau": None}
    c = float(model["c"]) if c is None else c
    pos = t > ATOM_TOL
    crit = c * float(np.sum(w[pos] * t[pos] ** 2 / d[pos] ** 2))
    if crit < 1.0 - BOUNDARY_TOL:
        denom = 1.0 + c * float(np.sum(w[pos] * t[pos] / d[pos]))
        return {"outlier": True, "criterion": crit, "rho": theta * denom, "tau": (1.0 - crit) / denom}
    return {"outlier": False, "criterion": crit, "rho": None, "tau": None}


def has_closed_form(model: dict) -> bool:
    """One-atom models are shifted semicircles or scaled Marchenko-Pastur laws."""
    return len(model["nu"]["atoms"]) == 1


def closed_form_support(model: dict) -> tuple[float, float]:
    """Support of a one-atom model: a semicircle or a Marchenko-Pastur law."""
    (t,), _ = _atoms(model)
    if model["kind"] == "additive":
        r = 2.0 * math.sqrt(float(model["sigma2"]))
        return t - r, t + r
    root_c = math.sqrt(float(model["c"]))
    return t * (1.0 - root_c) ** 2, t * (1.0 + root_c) ** 2


def closed_form_density(model: dict, x: np.ndarray) -> np.ndarray:
    """Absolutely continuous density of a one-atom model on ``x``."""
    (t,), _ = _atoms(model)
    lo, hi = closed_form_support(model)
    inside = np.clip((x - lo) * (hi - x), 0.0, None)
    if model["kind"] == "additive":
        return np.sqrt(inside) / (2.0 * math.pi * float(model["sigma2"]))
    c = float(model["c"])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, np.sqrt(inside) / (2.0 * math.pi * c * t * x), 0.0)


def _check_support(model: dict, intervals) -> str | None:
    flat = [float(v) for pair in intervals for v in pair]
    if len(flat) != 2 * len(intervals) or not all(math.isfinite(v) for v in flat):
        return f"support {intervals} is not a list of finite pairs"
    if any(b <= a for a, b in zip(flat, flat[1:])):
        return f"support {intervals} is not sorted, disjoint and non-degenerate"
    if has_closed_form(model):
        lo, hi = closed_form_support(model)
        if len(intervals) != 1 or abs(flat[0] - lo) > EDGE_TOL or abs(flat[1] - hi) > EDGE_TOL:
            return f"support {intervals} differs from the closed form [{lo}, {hi}]"
    return None


def _check_spikes(model: dict, spikes: list, c: float | None = None) -> str | None:
    if [[s["theta"], s["multiplicity"]] for s in spikes] != model["spikes"]:
        return "spike list does not echo the model"
    for s in spikes:
        want = spike_theory(model, float(s["theta"]), c)
        verdict = "outlier" if want["outlier"] else "sticking"
        if s["verdict"] != verdict:
            return f"theta={s['theta']}: verdict {s['verdict']}, expected {verdict}"
        if "criterion" in s and not _close(s["criterion"], want["criterion"]):
            return f"theta={s['theta']}: criterion {s['criterion']}, expected {want['criterion']}"
        for key in ("rho", "tau"):
            if want[key] is None:
                if s[key] is not None:
                    return f"theta={s['theta']}: sticking spike reports {key}={s[key]}"
            elif s[key] is None or not _close(s[key], want[key]):
                return f"theta={s['theta']}: {key} {s[key]}, expected {want[key]}"
    return None


def check_analyze(op, text: str) -> str | None:
    doc = json.loads(text)
    model = op.model
    kind = "additive_wigner" if model["kind"] == "additive" else "multiplicative_wishart"
    if doc["kind"] != kind:
        return f"kind {doc['kind']}, expected {kind}"
    reason = _check_spikes(model, doc["spikes"]) or _check_support(model, doc["support"])
    if reason:
        return reason
    # Each outlier lands in a gap of the limiting support.
    for s in doc["spikes"]:
        rho = s["rho"]
        if rho is not None and any(lo + EDGE_TOL < rho < hi - EDGE_TOL for lo, hi in doc["support"]):
            return f"theta={s['theta']}: outlier rho={rho} lies inside the support"
    return None


def check_density(op, text: str) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "x,density":
        return "density output lacks its x,density header"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    lo, hi, n = op.grid
    if values.shape != (n, 2) or not np.allclose(values[:, 0], np.linspace(lo, hi, n), rtol=0, atol=1e-12):
        return f"density grid differs from {lo}:{hi}:{n}"
    x, f = values[:, 0], values[:, 1]
    if not np.all(np.isfinite(f)) or np.any(f < 0.0):
        return "density has a negative or non-finite value"
    mass = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x)))
    if mass > 1.0 + MASS_TOL:
        return f"density mass on the grid is {mass}, above 1"
    if has_closed_form(op.model):
        # Marchenko-Pastur laws with c > 1 also carry an atom at 0.
        edges = np.array(closed_form_support(op.model) + ((0.0,) if op.model["kind"] == "multiplicative" else ()))
        away = np.min(np.abs(x[:, None] - edges[None, :]), axis=1) > EDGE_MARGIN
        err = np.abs(f - closed_form_density(op.model, x))[away]
        if err.size and float(err.max()) > DENSITY_ATOL:
            return f"density differs from the closed form by {float(err.max()):.3e}"
    return None


# Fields that are None exactly when the spike's verdict says so.
_OUTLIER_ONLY = ("rho", "tau")
_STICKING_ONLY = ("edge_distance", "edge_excess")
_OPTIONAL = ("margin_above", "margin_below")


def check_simulate(op, text: str) -> str | None:
    doc = json.loads(text)
    model = op.model
    argv = dict(zip(op.argv[1::2], op.argv[2::2]))
    if (doc["N"], doc["reps"], doc["seed"]) != (model["N"], int(argv["--reps"]), int(argv["--seed"])):
        return "N, reps or seed does not echo the request"
    c = None
    if model["kind"] == "multiplicative":
        c = model["N"] / max(1, round(model["N"] / model["c"]))
        if not _close(doc["aspect_ratio"], c):
            return f"aspect ratio {doc['aspect_ratio']}, expected {c}"
    # The theory of a finite Wishart model runs at the realized aspect ratio.
    at_n = model if c is None else {**model, "c": c}
    reason = _check_spikes(model, doc["spikes"], c) or _check_support(at_n, doc["support"])
    if reason:
        return reason
    for s in doc["spikes"]:
        outlier = s["verdict"] == "outlier"
        for key, value in s.items():
            if key in ("verdict", "pass"):
                continue
            allowed_none = (
                key in _OPTIONAL or (key in _OUTLIER_ONLY and not outlier) or (key in _STICKING_ONLY and outlier)
            )
            if value is None and allowed_none:
                continue
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return f"theta={s['theta']}: field {key}={value!r} is not a finite number"
        for key in ("overlap_mean", "overlap_sum_mean", "leakage"):
            if not -UNIT_SLACK <= s[key] <= 1.0 + UNIT_SLACK:
                return f"theta={s['theta']}: {key}={s[key]} is outside [0, 1]"
        if s["pass"] is not True:
            return f"theta={s['theta']}: report-level pass flag is false"
    if doc["pass"] is not True:
        return "report-level pass flag is false"
    return None


CHECKS = {"analyze": check_analyze, "density": check_density, "simulate": check_simulate}


def check(op, text: str) -> str | None:
    """Reason the output ``text`` of ``op`` is wrong, or None."""
    try:
        return CHECKS[op.command](op, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed {op.command} output: {exc!r}"
