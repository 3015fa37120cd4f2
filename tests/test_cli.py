"""End-to-end tests for the command line front end.

main() is exercised in-process; exit codes follow the documented map
(2 spec/domain/theory, 4 numerical accuracy).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import mp_density
from spikelab import cli, free_additive, free_multiplicative
from spikelab.errors import NumericalError
from spikelab.free_multiplicative import MultiplicativeContext, classify_spike, support
from spikelab.measure import AtomicMeasure

PAPER_MODEL = {
    "kind": "additive",
    "sigma2": 0.5,
    "nu": {"atoms": [[1.0, 0.5], [-1.0, 0.5]]},
    "spikes": [[2.0, 1], [1.5, 1], [0.0, 1]],
    "N": 120,
    "seed": 42,
}

SEMICIRCLE_MODEL = {
    "kind": "additive",
    "sigma2": 1.0,
    "nu": {"atoms": [[0.0, 1.0]]},
    "spikes": [[2.0, 1]],
}

MP_FREE_MODEL = {
    "kind": "multiplicative",
    "c": 0.25,
    "nu": {"atoms": [[1.0, 1.0]]},
    "spikes": [],
}


def write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(model))
    return str(path)


# ------------------------------------------------------------- analyze


def test_analyze_paper_example_json(tmp_path, capsys):
    path = write_model(tmp_path, PAPER_MODEL)
    assert cli.main(["analyze", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "additive_wigner"
    top, mid, zero = doc["spikes"]
    assert top["verdict"] == "outlier"
    assert top["rho"] == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert top["tau"] == pytest.approx(13.0 / 18.0, abs=1e-12)
    assert mid["verdict"] == "sticking" and mid["rho"] is None
    assert zero["rho"] == pytest.approx(0.0, abs=1e-12)
    assert zero["tau"] == pytest.approx(0.5, abs=1e-12)
    assert len(doc["support"]) == 2


def test_analyze_derived_single_atom(tmp_path, capsys):
    model = {
        "kind": "additive",
        "sigma2": 1.0,
        "nu": {"atoms": [[0.0, 1.0]]},
        "spikes": [[2.0, 1]],
    }
    path = write_model(tmp_path, model)
    assert cli.main(["analyze", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    spike = doc["spikes"][0]
    assert spike["rho"] == pytest.approx(2.5, abs=1e-12)
    assert spike["tau"] == pytest.approx(0.75, abs=1e-12)


def test_analyze_empty_spikes_reports_mp_support(tmp_path, capsys):
    path = write_model(tmp_path, MP_FREE_MODEL)
    assert cli.main(["analyze", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spikes"] == []
    (lo, hi), = doc["support"]
    assert lo == pytest.approx(0.25, abs=1e-10)
    assert hi == pytest.approx(2.25, abs=1e-10)


def test_analyze_csv_format(tmp_path, capsys):
    path = write_model(tmp_path, PAPER_MODEL)
    assert cli.main(["analyze", "--spec", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip("\n").split("\n")
    header = lines[0].split(",")
    assert header[0] == "type"
    spikes = [ln.split(",") for ln in lines[1:] if ln.startswith("spike,")]
    support = [ln.split(",") for ln in lines[1:] if ln.startswith("support,")]
    assert len(spikes) == 3 and len(support) == 2
    assert float(spikes[0][header.index("rho")]) == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert spikes[1][header.index("rho")] == ""


def test_analyze_rejects_invalid_measure(tmp_path, capsys):
    model = dict(PAPER_MODEL, nu={"atoms": [[1.0, 0.5], [-1.0, 0.6]]})
    path = write_model(tmp_path, model)
    assert cli.main(["analyze", "--spec", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_spike_on_atom(tmp_path, capsys):
    model = dict(PAPER_MODEL, spikes=[[1.0, 1]])
    path = write_model(tmp_path, model)
    assert cli.main(["analyze", "--spec", path]) == 2


def test_rejects_unknown_keys_and_kind(tmp_path):
    path = write_model(tmp_path, dict(PAPER_MODEL, bogus=1))
    assert cli.main(["analyze", "--spec", path]) == 2
    path = write_model(tmp_path, dict(PAPER_MODEL, kind="wigner"), "k.json")
    assert cli.main(["analyze", "--spec", path]) == 2


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(PAPER_MODEL).encode().replace(b"additive", b"additiv\xe9"))
    return str(path), None


# Each case gives the model path and the --out path (None for stdout) of one call.
UNREADABLE = {
    "spec_missing": lambda tmp: (str(tmp / "nope.json"), None),
    "spec_is_a_directory": lambda tmp: (str(tmp), None),
    "spec_not_utf8": _not_utf8,
    "out_in_a_missing_directory": lambda tmp: (write_model(tmp, PAPER_MODEL), str(tmp / "no" / "a.json")),
    "out_is_a_directory": lambda tmp: (write_model(tmp, PAPER_MODEL), str(tmp)),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_missing_spec_file_exits_2(tmp_path, capsys, case):
    # A path that cannot be read or written is named in one error line, not a traceback.
    spec, out = UNREADABLE[case](tmp_path)
    argv = ["analyze", "--spec", spec] + ([] if out is None else ["--out", out])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (spec if out is None else out) in captured.err


# H'(1e-5) = 1 - 1e308 / 1e-10 overflows: the criterion is -inf, in either format.
NON_FINITE_MODEL = {"kind": "additive", "sigma2": 1e308, "nu": {"atoms": [[0, 1]]}, "spikes": [[1e-5, 1]]}


def test_a_non_finite_output_value_exits_4(tmp_path, capsys):
    path = write_model(tmp_path, NON_FINITE_MODEL)
    for fmt in ("json", "csv"):
        assert cli.main(["analyze", "--spec", path, "--format", fmt]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: output value -inf is not finite\n"


@pytest.mark.filterwarnings("error")
def test_a_non_finite_omega_exits_4_without_a_warning(tmp_path, capsys):
    # At sigma2 = 1e308 the v^2 solve overflows to NaN, on and above the axis: subordination
    # refuses it, where a NaN density used to reach the writer after a RuntimeWarning.
    path = write_model(tmp_path, NON_FINITE_MODEL)
    for eps in ("0", "0.01"):
        assert cli.main(["density", "--spec", path, "--grid", "0:1:3", "--eps", eps]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        z = "0j" if eps == "0" else "0.01j"
        assert captured.err == f"error: subordination at sigma2=1e+308 fails at z={z}: omega=(nan+nanj)\n"


@pytest.mark.filterwarnings("error")
def test_analyze_of_atoms_near_the_overflow_limit_prints_no_warning(tmp_path, capsys):
    # sigma2~ = 4.6e307 here, so the two-atom gap bound overflows to inf, which drops the gap.
    path = write_model(tmp_path, dict(MP_FREE_MODEL, nu={"atoms": [[1.3e154, 0.5], [1.4e154, 0.5]]}))
    assert cli.main(["analyze", "--spec", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["support"] == [[3.365769118070293e153, 3.0457414281884836e154]]


def test_a_wishart_outlier_whose_rho_underflows_is_reported(tmp_path, capsys):
    # rho = theta g with g = 1 + c sum w t / (theta - t) = 0.5: theta g rounds to 0, and
    # tau = (1 - W) / g = 1 does not divide by it.
    model = dict(MP_FREE_MODEL, c=0.5, spikes=[[5e-324, 1]])
    assert cli.main(["analyze", "--spec", write_model(tmp_path, model)]) == 0
    spike = json.loads(capsys.readouterr().out)["spikes"][0]
    assert spike["verdict"] == "outlier"
    assert (spike["rho"], spike["tau"]) == (0.0, 1.0)


@pytest.mark.parametrize(
    "model, interval",
    [
        (  # the gap of this nu closes 1e-12 above this c
            {"kind": "multiplicative", "c": 0.41276509136823614,
             "nu": {"atoms": [[1.0, 0.5], [4.0, 0.5]]}, "spikes": [[10.0, 1]]},
            [0.17706674620511875, 8.70906749229],
        ),
        (  # the gap at 0 closes at sigma2 = 1/4
            {"kind": "additive", "sigma2": 0.24999999999749994,
             "nu": {"atoms": [[-0.5, 0.5], [0.5, 0.5]]}, "spikes": []},
            [-1.2990381056723277, 1.2990381056723277],
        ),
    ],
    ids=["wishart", "additive"],
)
def test_analyze_reports_a_near_critical_support_as_one_interval(tmp_path, capsys, model, interval):
    # The gap's image is no wider than 1e-12, so it is closed, not refused as overlapping.
    assert cli.main(["analyze", "--spec", write_model(tmp_path, model)]) == 0
    assert json.loads(capsys.readouterr().out)["support"] == [interval]


def test_analyze_classifies_a_wishart_spike_below_merge_tol(tmp_path, capsys):
    # theta = 5e-13 lies within 1e-12 of 0 but not of the atom at 1: W = 0.5 / (1 - theta)^2.
    path = write_model(tmp_path, dict(MP_FREE_MODEL, c=0.5, spikes=[[5e-13, 1]]))
    assert cli.main(["analyze", "--spec", path]) == 0
    spike, = json.loads(capsys.readouterr().out)["spikes"]
    assert spike["verdict"] == "outlier"
    assert spike["rho"] == pytest.approx(2.5e-13, rel=1e-12)
    assert spike["tau"] == pytest.approx(1.0, abs=1e-12)


def test_analyze_reports_a_wishart_tau_that_rounds_above_1_as_1(tmp_path, capsys):
    # (1 - W) theta / rho rounds to 1.000000000000015 at this spike; its value is 0.99999999999999858.
    model = {"kind": "multiplicative", "c": 0.9851945751306176,
             "nu": {"atoms": [[2.5494894870694704, 1.0]]}, "spikes": [[5.4219911752228524e-17, 1]]}
    assert cli.main(["analyze", "--spec", write_model(tmp_path, model)]) == 0
    spike, = json.loads(capsys.readouterr().out)["spikes"]
    assert spike["verdict"] == "outlier" and spike["tau"] == 1.0


# Each command squares a number past the float range: the spike's distance to an atom, or
# |omega - t| at the grid's ends.  The inf is the right term, and no warning reaches stderr.
OVERFLOWING = {
    "additive_spike": (dict(PAPER_MODEL, spikes=[[1e200, 1], [2.0, 1]]), ["analyze"]),
    "wishart_spike": (
        dict(MP_FREE_MODEL, c=0.5, nu={"atoms": [[1.0, 0.5], [4.0, 0.5]]}, spikes=[[1e200, 1], [2.0, 1]]),
        ["analyze"],
    ),
    "additive_density": (PAPER_MODEL, ["density", "--grid=-1e300:1e300:3"]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_a_square_past_the_float_range_prints_no_warning(tmp_path, capsys, name):
    model, (command, *flags) = OVERFLOWING[name]
    assert cli.main([command, "--spec", write_model(tmp_path, model), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "analyze":
        assert json.loads(captured.out)["spikes"][0] == {
            "theta": 1e200, "multiplicity": 1, "verdict": "outlier",
            "criterion": 1.0 if name == "additive_spike" else 0.0, "rho": 1e200, "tau": 1.0,
        }
    else:
        assert captured.out == "x,density\n-1.0000000000000001e+300,0\n0,0\n1.0000000000000001e+300,0\n"


# Each file breaks one rule of the model file.  The first five were accepted
# by analyze and density when only simulate built a SpikedModelSpec; a
# non-list spikes value or a non-numeric theta used to escape as a traceback.
MALFORMED = {
    "unsorted_spikes": dict(PAPER_MODEL, spikes=[[1.5, 1], [2.0, 1]]),
    "duplicate_thetas": dict(PAPER_MODEL, spikes=[[2.0, 1], [2.0, 1]]),
    "N_zero": dict(PAPER_MODEL, N=0),
    "seed_negative": dict(PAPER_MODEL, seed=-1),
    "entry_law_cauchy": dict(PAPER_MODEL, entry_law="cauchy"),
    "N_below_rank": dict(PAPER_MODEL, N=2),
    "N_bool": dict(PAPER_MODEL, N=True),
    "field_quaternion": dict(PAPER_MODEL, field="quaternion"),
    "spike_on_atom": dict(PAPER_MODEL, spikes=[[1.0, 1]]),
    "multiplicity_zero": dict(PAPER_MODEL, spikes=[[2.0, 0]]),
    "weights_unnormalized": dict(PAPER_MODEL, nu={"atoms": [[1.0, 0.5], [-1.0, 0.6]]}),
    "atoms_not_pairs": dict(PAPER_MODEL, nu={"atoms": [1.0, 0.5]}),
    "spikes_not_a_list": dict(PAPER_MODEL, spikes=5),
    "theta_not_a_number": dict(PAPER_MODEL, spikes=[["two", 1]]),
    "sigma2_and_c": dict(PAPER_MODEL, c=0.5),
    "unknown_key": dict(PAPER_MODEL, bogus=1),
    "unknown_nu_key": dict(PAPER_MODEL, nu={"atoms": [[1.0, 0.5], [-1.0, 0.5]], "sigma2": 9}),
    "sigma2_bool": dict(PAPER_MODEL, sigma2=True),
    "sigma2_string": dict(PAPER_MODEL, sigma2="0.5"),
    "sigma2_int_past_the_floats": dict(PAPER_MODEL, sigma2=10**400),
    "atom_location_bool": dict(PAPER_MODEL, nu={"atoms": [[True, 0.5], [-1.0, 0.5]]}),
    "atom_weight_string": dict(PAPER_MODEL, nu={"atoms": [[1.0, "0.5"], [-1.0, 0.5]]}),
    "atom_weight_null": dict(PAPER_MODEL, nu={"atoms": [[1.0, None], [-1.0, 0.5]]}),
    "theta_numeric_string": dict(PAPER_MODEL, spikes=[["3", 1]]),
    "theta_bool": dict(SEMICIRCLE_MODEL, spikes=[[True, 1]]),
    "c_string": dict(MP_FREE_MODEL, c="0.25"),
    "c_bool": dict(MP_FREE_MODEL, c=True),
    "c_missing": {key: value for key, value in MP_FREE_MODEL.items() if key != "c"},
    "c_and_sigma2": dict(MP_FREE_MODEL, sigma2=0.5),
    "not_an_object": [PAPER_MODEL],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_every_command_rejects_a_malformed_model_alike(tmp_path, capsys, name):
    path = write_model(tmp_path, MALFORMED[name])
    errors = set()
    for argv in (["analyze"], ["density", "--grid", "0:1:5"], ["simulate", "--reps", "1"]):
        assert cli.main(argv + ["--spec", path]) == 2
        errors.add(capsys.readouterr().err)
    (err,) = errors
    assert err.startswith("error: ")


@pytest.mark.parametrize("text, field", [
    pytest.param('{"kind":"additive","sigma2":true,"nu":{"atoms":[[true,"1"]]},"spikes":[["3",1]]}',
                 "atom", id="atom"),
    pytest.param('{"kind":"additive","sigma2":true,"nu":{"atoms":[[1,1]]},"spikes":[["3",1]]}',
                 "spike theta", id="theta"),
    pytest.param('{"kind":"additive","sigma2":true,"nu":{"atoms":[[1,1]]},"spikes":[[3,1]]}',
                 "sigma2", id="sigma2"),
    pytest.param('{"kind":"multiplicative","c":"0.5","nu":{"atoms":[[1,1]]}}', "c", id="c"),
])
def test_a_model_number_must_be_a_number(tmp_path, capsys, text, field):
    # float() would read true as 1 and "3" as 3; the file is refused, naming the field.
    path = tmp_path / "model.json"
    path.write_text(text)
    assert cli.main(["analyze", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {field}")


def test_analyze_uses_c_and_simulate_the_realized_aspect_ratio(tmp_path, capsys):
    # N/c = 333.3..., so simulate draws p = 333 and sees N/p = 0.3003...
    model = {
        "kind": "multiplicative",
        "c": 0.3,
        "nu": {"atoms": [[1.0, 1.0]]},
        "spikes": [[3.0, 1]],
        "N": 100,
        "field": "real",
    }
    nu = AtomicMeasure(((1.0, 1.0),))
    path = write_model(tmp_path, model)
    assert cli.main(["analyze", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    at_c = MultiplicativeContext(nu, 0.3)
    want = classify_spike(at_c, 3.0)
    spike = doc["spikes"][0]
    assert doc["c"] == 0.3
    assert (spike["criterion"], spike["rho"], spike["tau"]) == (
        want.criterion_value, want.rho, want.tau
    )
    assert doc["support"] == [list(iv) for iv in support(at_c).intervals]

    assert cli.main(["simulate", "--spec", path, "--reps", "1"]) == 0
    sim = json.loads(capsys.readouterr().out)
    realized = 100 / round(100 / 0.3)
    assert sim["c"] == 0.3
    assert sim["aspect_ratio"] == realized != 0.3
    at_p = classify_spike(MultiplicativeContext(nu, realized), 3.0)
    assert sim["spikes"][0]["rho"] == at_p.rho != want.rho
    assert sim["spikes"][0]["tau"] == at_p.tau != want.tau


@pytest.mark.parametrize(
    "atoms, c, mass",
    [([[1.0, 1.0]], 2.0, 0.5), ([[1.0, 1.0]], 0.5, 0.0), ([[0.0, 0.5], [1.0, 0.5]], 4.0, 0.75)],
)
def test_analyze_reports_mass_at_zero(tmp_path, capsys, atoms, c, mass):
    path = write_model(tmp_path, dict(MP_FREE_MODEL, c=c, nu={"atoms": atoms}))
    assert cli.main(["analyze", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["kind", "c", "support", "mass_at_zero", "spikes"]
    assert doc["mass_at_zero"] == pytest.approx(mass, abs=1e-15)
    assert cli.main(["analyze", "--spec", path, "--format", "csv"]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.split()]
    (row,) = [r for r in rows if r[0] == "mass_at_zero"]
    assert row[:2] + row[3:] == ["mass_at_zero", "", "", "", "", "", "0", "0"]
    assert float(row[2]) == doc["mass_at_zero"]


def test_analyze_additive_has_no_mass_at_zero(tmp_path, capsys):
    path = write_model(tmp_path, PAPER_MODEL)
    assert cli.main(["analyze", "--spec", path]) == 0
    assert "mass_at_zero" not in json.loads(capsys.readouterr().out)
    assert cli.main(["analyze", "--spec", path, "--format", "csv"]) == 0
    assert "mass_at_zero" not in capsys.readouterr().out


# ------------------------------------------------------------- density


def test_density_matches_semicircle_midpoint(tmp_path, capsys):
    path = write_model(tmp_path, SEMICIRCLE_MODEL)
    assert cli.main(["density", "--spec", path, "--grid=-3:3:120"]) == 0
    lines = capsys.readouterr().out.strip("\n").split("\n")
    assert lines[0] == "x,density"
    assert len(lines) == 121
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    x0, f0 = min(rows, key=lambda r: abs(r[0]))
    assert abs(f0 - math.sqrt(4.0 - x0 * x0) / (2.0 * math.pi)) < 1e-3


def test_density_multiplicative_matches_mp(tmp_path, capsys):
    path = write_model(tmp_path, MP_FREE_MODEL)
    assert cli.main(["density", "--spec", path, "--grid", "0.3:2.2:40"]) == 0
    lines = capsys.readouterr().out.strip("\n").split("\n")
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    x0, f0 = min(rows, key=lambda r: abs(r[0] - 1.0))
    assert abs(f0 - mp_density(0.25, x0)) < 1e-3


def test_density_two_point_grid(tmp_path, capsys):
    path = write_model(tmp_path, SEMICIRCLE_MODEL)
    assert cli.main(["density", "--spec", path, "--grid", "0:1:2"]) == 0
    lines = capsys.readouterr().out.strip("\n").split("\n")
    assert len(lines) == 3


def test_density_grid_validation(tmp_path, capsys):
    path = write_model(tmp_path, SEMICIRCLE_MODEL)
    assert cli.main(["density", "--spec", path, "--grid", "0:1:1"]) == 2
    assert cli.main(["density", "--spec", path, "--grid", "abc"]) == 2
    capsys.readouterr()
    for grid, message in (("a:1:5", "grid must look like LO:HI:N"), ("1:1:5", "grid needs LO < HI")):
        assert cli.main(["density", "--spec", path, "--grid", grid]) == 2
        assert capsys.readouterr().err == f"error: {message}, got {grid!r}\n"
    assert cli.main(["density", "--spec", path]) == 2  # --grid is required


def test_density_rejects_non_finite_grids(tmp_path, capsys):
    # inf ends, and finite ends whose difference overflows: exit 2 in both formats.
    path = write_model(tmp_path, SEMICIRCLE_MODEL)
    for grid in ("-inf:inf:3", "0:inf:3", "-1e308:1e308:3"):
        for fmt in ("json", "csv"):
            assert cli.main(["density", "--spec", path, f"--grid={grid}", "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "grid needs finite LO and HI" in captured.err


def test_density_json_format(tmp_path, capsys):
    path = write_model(tmp_path, SEMICIRCLE_MODEL)
    assert cli.main(["density", "--spec", path, "--grid", "0:1:5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["x"]) == 5 and len(doc["density"]) == 5


def test_density_vanishes_at_the_semicircle_edge(tmp_path, capsys):
    path = write_model(tmp_path, SEMICIRCLE_MODEL)
    assert cli.main(["density", "--spec", path, "--grid", "2:2.5:2"]) == 0
    assert capsys.readouterr().out == "x,density\n2,0\n2.5,0\n"


def test_density_of_a_grid_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 10**15 points take 8 PB, more than a process's default address space of 128 TB on
    # 64-bit Linux, so the allocation fails at once, whatever the overcommit setting, and
    # touches no memory.
    path = write_model(tmp_path, SEMICIRCLE_MODEL)
    assert cli.main(["density", "--spec", path, "--grid=0:1:1000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate")


def test_density_rejects_bad_eps(tmp_path, capsys):
    # Both families check eps before solving; --tol is gone.
    for model in (SEMICIRCLE_MODEL, MP_FREE_MODEL):
        path = write_model(tmp_path, model)
        for value in ("nan", "inf", "-1"):
            assert cli.main(["density", "--spec", path, "--grid", "0:1:3", "--eps", value]) == 2
            assert "eps must be a finite non-negative number" in capsys.readouterr().err
        assert cli.main(["density", "--spec", path, "--grid", "0:1:3", "--eps", "0"]) == 0
        capsys.readouterr()
        assert cli.main(["density", "--spec", path, "--grid", "0:1:3", "--tol", "1e-12"]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_density_multiplicative_converges_through_zero(tmp_path, capsys):
    path = write_model(tmp_path, dict(MP_FREE_MODEL, c=0.5))
    assert cli.main(["density", "--spec", path, "--grid=-1:4:601"]) == 0
    rows = [tuple(map(float, ln.split(","))) for ln in capsys.readouterr().out.split()[1:]]
    assert len(rows) == 601
    for x, f in rows:
        assert abs(f - (mp_density(0.5, x) if x > 0.0 else 0.0)) <= 1e-13


def test_density_unbounded_at_zero_exits_2(tmp_path, capsys):
    path = write_model(tmp_path, dict(MP_FREE_MODEL, c=1.0))
    assert cli.main(["density", "--spec", path, "--grid=-1:4:501"]) == 2
    assert "x=0" in capsys.readouterr().err


def test_readme_density_examples_run(tmp_path, capsys):
    # The README's Python call and its density command, on the README model.
    nu = AtomicMeasure(((1.0, 0.5), (-1.0, 0.5)))
    f = free_additive.density(free_additive.AdditiveContext(nu, sigma2=0.5), np.linspace(-2.5, 2.5, 200))
    assert len(f) == 200 and min(f) == 0.0 and max(f) > 0.0
    path = write_model(tmp_path, dict(PAPER_MODEL, N=1000))
    assert cli.main(["density", "--spec", path, "--grid=-3:3:601"]) == 0
    lines = capsys.readouterr().out.split()
    assert len(lines) == 602 and not any(",-" in ln for ln in lines)


@pytest.mark.parametrize("model", [PAPER_MODEL, MP_FREE_MODEL], ids=["additive", "multiplicative"])
@pytest.mark.parametrize("eps", ["0", "0.01"])
def test_density_is_one_array_and_the_json_density_column(tmp_path, capsys, model, eps):
    # density returns f alone, one float64 per point of the flattened grid, and the command
    # writes exactly those floats; a 2-D grid gives the values of its flattening.
    path = write_model(tmp_path, model)
    spec = cli.load_model(path)
    xs = np.linspace(-1.0, 3.0, 41)
    f = spec.family.density(spec.limit, xs.reshape(1, 41), float(eps))
    assert isinstance(f, np.ndarray) and f.dtype == np.float64 and f.shape == (xs.size,)
    assert cli.main(["density", "--spec", path, "--grid=-1:3:41", "--eps", eps, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["x"] == xs.tolist()
    assert [v.hex() for v in f.tolist()] == [v.hex() for v in doc["density"]]


def package_env():
    """This process's environment, with the package's source directory first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_spikelab_runs_the_command_line(tmp_path, capsys):
    # The README's `python -m spikelab` form, on the README model: the same
    # stdout as cli.main and nothing on stderr.
    path = write_model(tmp_path, dict(PAPER_MODEL, N=1000))
    assert cli.main(["analyze", "--spec", path]) == 0
    expected = capsys.readouterr().out
    run = subprocess.run(
        [sys.executable, "-m", "spikelab", "analyze", "--spec", path],
        capture_output=True, text=True, env=package_env(), timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == expected


# ------------------------------------------------------------ one writer

# A real Wishart model whose nu has an atom at 0: analyze writes its mass_at_zero row.
WISHART_ATOM_AT_ZERO = {
    "kind": "multiplicative",
    "c": 0.5,
    "nu": {"atoms": [[0.0, 0.25], [1.0, 0.5], [3.0, 0.25]]},
    "spikes": [[8.0, 1], [2.0, 1]],
    "N": 80,
    "field": "real",
    "seed": 5,
}


def csv_cell_is(cell, value):
    """Whether one CSV cell parses to its JSON value: "" for null, true/false, exact numbers."""
    if value is None or isinstance(value, (bool, str)):
        return cell == {None: "", True: "true", False: "false"}.get(value, value)
    return type(value)(cell) == value


def expected_rows(command, header, doc):
    """The JSON values that each CSV row of one report should hold, in column order."""
    if command == "density":
        return [dict(zip(header, xf)) for xf in zip(doc["x"], doc["density"])]
    if command == "simulate":
        run = {key: doc[key] for key in header[: header.index("spike")]}
        return [{**run, "spike": j, **spike} for j, spike in enumerate(doc["spikes"])]
    empty = dict.fromkeys(header)
    rows = [{**empty, "type": "spike", **spike} for spike in doc["spikes"]]
    rows += [{**empty, "type": "support", "lo": lo, "hi": hi} for lo, hi in doc["support"]]
    if "mass_at_zero" in doc:
        mass = doc["mass_at_zero"]
        rows.append({**empty, "type": "mass_at_zero", "multiplicity": mass, "lo": 0, "hi": 0})
    return rows


@pytest.mark.parametrize("model", [dict(PAPER_MODEL, N=200), WISHART_ATOM_AT_ZERO], ids=["readme", "wishart"])
@pytest.mark.parametrize(
    "argv", [["analyze"], ["density", "--grid=-1:6:15"], ["simulate", "--reps", "2"]], ids=lambda a: a[0]
)
def test_every_csv_cell_parses_to_its_json_value(tmp_path, capsys, model, argv):
    path = write_model(tmp_path, model)
    text = {}
    for fmt in ("json", "csv"):
        assert cli.main([*argv, "--spec", path, "--format", fmt]) == 0
        text[fmt] = capsys.readouterr().out
    header, *rows = (line.split(",") for line in text["csv"].splitlines())
    expected = expected_rows(argv[0], header, json.loads(text["json"]))
    assert len(rows) == len(expected) > 1
    for row, want in zip(rows, expected):
        assert list(want) == header
        assert all(csv_cell_is(cell, value) for cell, value in zip(row, want.values(), strict=True))


# ------------------------------------------------------- one parser per process


def count_parsers(monkeypatch):
    """Record every ArgumentParser constructed from here on."""
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return made


def test_calls_in_one_process_share_a_parser_and_leave_it_clean(tmp_path, monkeypatch, capsys):
    path = write_model(tmp_path, dict(PAPER_MODEL, N=1000))
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert cli.main(["analyze", "--spec", path, "--out", str(first)]) == 0
    made = count_parsers(monkeypatch)
    assert cli.main(["analyze", "--spec", path, "--format", "xml"]) == 2
    assert cli.main(["simulate", "--spec", path, "--reps", "0"]) == 2
    assert cli.main(["--help"]) == 0
    assert cli.main(["analyze", "--spec", path, "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert made == []
    assert "usage: spikelab" in capsys.readouterr().out


def test_a_flag_does_not_outlive_its_call(tmp_path, capsys):
    path = write_model(tmp_path, PAPER_MODEL)
    for argv, n in ((["--N", "150"], 150), ([], PAPER_MODEL["N"])):
        assert cli.main(["simulate", "--spec", path, "--reps", "1", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["N"] == n


def test_importing_spikelab_builds_no_parser():
    code = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    made.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import spikelab\n"
        "print(len(made), spikelab.cli._build_parser.cache_info().currsize)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), timeout=120
    )
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "0 0\n")


# ------------------------------------------------------------ simulate


def test_simulate_writes_deterministic_json(tmp_path):
    path = write_model(tmp_path, PAPER_MODEL)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["simulate", "--spec", path, "--reps", "3", "--out"]
    assert cli.main(args + [out1]) == 0
    assert cli.main(args + [out2]) == 0
    blob1 = (tmp_path / "a.json").read_bytes()
    assert blob1 == (tmp_path / "b.json").read_bytes()
    doc = json.loads(blob1)
    assert doc["N"] == 120 and doc["reps"] == 3 and doc["seed"] == 42
    assert len(doc["spikes"]) == 3
    assert doc["spikes"][1]["verdict"] == "sticking"  # worked out from the theory
    assert doc["spikes"][0]["margin_below"] is not None
    assert isinstance(doc["pass"], bool)


def test_simulate_csv_and_overrides(tmp_path, capsys):
    path = write_model(tmp_path, PAPER_MODEL)
    code = cli.main(
        ["simulate", "--spec", path, "--reps", "2", "--N", "80", "--seed", "7", "--format", "csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip("\n").split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert row[header.index("N")] == "80"
    assert row[header.index("seed")] == "7"
    assert "\r" not in out


def test_simulate_exit_2_when_N_below_rank(tmp_path):
    path = write_model(tmp_path, PAPER_MODEL)
    assert cli.main(["simulate", "--spec", path, "--N", "2", "--reps", "1"]) == 2


def test_simulate_requires_N(tmp_path):
    model = {k: v for k, v in PAPER_MODEL.items() if k != "N"}
    path = write_model(tmp_path, model)
    assert cli.main(["simulate", "--spec", path, "--reps", "1"]) == 2


def test_simulate_rejects_bad_reps(tmp_path):
    path = write_model(tmp_path, PAPER_MODEL)
    assert cli.main(["simulate", "--spec", path, "--reps", "0"]) == 2


def test_simulate_real_field(tmp_path, capsys):
    model = dict(PAPER_MODEL, field="real", N=60)
    path = write_model(tmp_path, model)
    assert cli.main(["simulate", "--spec", path, "--reps", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 60


@pytest.mark.parametrize("model", [PAPER_MODEL, dict(MP_FREE_MODEL, spikes=[[3.0, 1]], N=80)])
def test_simulate_computes_the_support_once(tmp_path, monkeypatch, model):
    # Both families find their support from the additive outlier set, of nu or of the
    # size-biased measure, and only the support needs it.  Each spike is classified
    # once, by the theory module of its family.
    calls = []
    intervals = free_additive.outlier_set_intervals

    def counting(ctx):
        calls.append(ctx)
        return intervals(ctx)

    monkeypatch.setattr(free_additive, "outlier_set_intervals", counting)
    classified = []
    for mod in (free_additive, free_multiplicative):

        def classify(ctx, theta, _classify=mod.classify_spike):
            classified.append(theta)
            return _classify(ctx, theta)

        monkeypatch.setattr(mod, "classify_spike", classify)
    path = write_model(tmp_path, model)
    assert cli.main(["simulate", "--spec", path, "--reps", "1"]) == 0
    assert len(calls) == 1
    assert classified == [theta for theta, _ in model["spikes"]]


def test_simulate_exit_4_on_numerical_failure(tmp_path, monkeypatch):
    path = write_model(tmp_path, PAPER_MODEL)

    def boom(*args, **kwargs):
        raise NumericalError("forced failure")

    monkeypatch.setattr("spikelab.verify.run", boom)
    assert cli.main(["simulate", "--spec", path, "--reps", "1"]) == 4


def test_an_unwritable_out_fails_before_any_replica_is_drawn(tmp_path, monkeypatch, capsys):
    path = write_model(tmp_path, PAPER_MODEL)
    draws = []
    draw = cli.verify.draw_sample

    def counting(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(cli.verify, "draw_sample", counting)
    out = str(tmp_path / "nodir" / "r.json")
    assert cli.main(["simulate", "--spec", path, "--reps", "3", "--out", out]) == 2
    assert draws == []
    assert out in capsys.readouterr().err


@pytest.mark.parametrize("existing", [True, False], ids=["existing_file", "new_path"])
@pytest.mark.parametrize(
    "argv, code",
    [(["simulate", "--reps", "0"], 2), (["analyze"], 4)],
    ids=["bad_reps", "non_finite_output"],
)
def test_a_failed_run_leaves_out_as_it_was(tmp_path, existing, argv, code):
    path = write_model(tmp_path, PAPER_MODEL if code == 2 else NON_FINITE_MODEL)
    out = tmp_path / "out.json"
    if existing:
        out.write_text("earlier output\n")
    assert cli.main([argv[0], "--spec", path, *argv[1:], "--out", str(out)]) == code
    if existing:
        assert out.read_text() == "earlier output\n"
    else:
        assert not out.exists()
