"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with pytest -s, or in
the captured output of a failing run) and then asserts.
"""

import math

import numpy as np

import test_properties as props
from conftest import BBP_SPEC, DELTA0, DELTA1, TWO_POINT
from oracles import mp_density, separation_check
from spikelab import verify
from spikelab.ensemble import wishart_p
from spikelab.free_additive import (
    AdditiveContext,
    classify_spike as classify_additive,
    density as additive_density,
    support as additive_support,
)
from spikelab.free_multiplicative import (
    MultiplicativeContext,
    classify_spike as classify_mult,
    density as mult_density,
    mass_at_zero,
    support as mult_support,
)

RHO_TOP = 7.0 / 3.0
TAU_TOP = 13.0 / 18.0


def _check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {label}{suffix}")
    assert ok, f"criterion {num} FAIL: {label}{suffix}"


def test_criterion_1_paper_example_analytics():
    ctx = AdditiveContext(TWO_POINT, 0.5)
    top, middle, zero = (classify_additive(ctx, theta) for theta in (2.0, 1.5, 0.0))
    errs = (
        abs(top.rho - RHO_TOP),
        abs(top.criterion_value - TAU_TOP),
        abs(zero.criterion_value - 0.5),
        abs(zero.rho),
    )
    ok = max(errs) <= 1e-12 and middle.criterion_value < 0.0
    _check(
        1,
        "paper example analytics exact to 1e-12",
        ok,
        f"max err {max(errs):.2e}, H'(3/2) = {middle.criterion_value:.4f} < 0",
    )


def test_criterion_2_paper_example_simulation(paper_sim):
    assert [s.is_outlier for s in paper_sim.spikes] == [True, False, True]
    top, _, zero = paper_sim.spikes
    err_l1 = abs(top.eigenvalue_mean - RHO_TOP)
    err_mid = abs(zero.eigenvalue_mean)
    err_o1 = abs(top.overlap_mean - TAU_TOP)
    err_o3 = abs(zero.overlap_mean - 0.5)
    leak = max(top.leakage, zero.leakage)
    ok = (
        err_l1 <= 0.05
        and err_mid <= 0.05
        and err_o1 <= 0.05
        and err_o3 <= 0.05
        and leak < 0.05
    )
    _check(
        2,
        "paper example simulation N=1000 reps=20 within 0.05",
        ok,
        f"lambda_1 err {err_l1:.3f}, middle err {err_mid:.3f}, "
        f"overlap errs {err_o1:.3f}/{err_o3:.3f}, leakage {leak:.3f}",
    )


def test_criterion_3_semicircle_oracle():
    worst_density = 0.0
    worst_edge = 0.0
    for sigma in (1.0, 0.5):
        ctx = AdditiveContext(DELTA0, sigma * sigma)
        xs = np.linspace(-2.0 * sigma + 0.05, 2.0 * sigma - 0.05, 301)
        pts = additive_density(ctx, xs)
        worst_density = max(
            worst_density,
            max(
                abs(f - math.sqrt(4.0 * sigma**2 - x * x) / (2.0 * math.pi * sigma**2))
                for x, f in zip(xs, pts)
            ),
        )
        ((lo, hi),) = additive_support(ctx).intervals
        worst_edge = max(worst_edge, abs(lo + 2.0 * sigma), abs(hi - 2.0 * sigma))
    ok = worst_density < 1e-2 and worst_edge <= 1e-8
    _check(
        3,
        "semicircle density sup-err < 1e-2, edges within 1e-8",
        ok,
        f"sup-err {worst_density:.2e}, edge err {worst_edge:.2e}",
    )


def test_criterion_4_marchenko_pastur_oracle():
    worst_density = 0.0
    worst_edge = 0.0
    mass_ok = True
    for c in (0.25, 1.0, 2.0):
        ctx = MultiplicativeContext(DELTA1, c)
        a, b = (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2
        ((lo, hi),) = mult_support(ctx).intervals
        worst_edge = max(worst_edge, abs(lo - a), abs(hi - b))
        xs = np.linspace(a + 0.05, b - 0.05, 301)
        pts = mult_density(ctx, xs)
        worst_density = max(
            worst_density, max(abs(f - mp_density(c, x)) for x, f in zip(xs, pts))
        )
        mass_ok = mass_ok and mass_at_zero(ctx) == (0.0 if c <= 1.0 else 1.0 - 1.0 / c)
    ok = worst_density < 1e-2 and worst_edge <= 1e-8 and mass_ok
    _check(
        4,
        "Marchenko-Pastur density, edges and mass at zero for c in {1/4, 1, 2}",
        ok,
        f"sup-err {worst_density:.2e}, edge err {worst_edge:.2e}, mass exact {mass_ok}",
    )


def test_criterion_5_bbp_cross_check(bbp_sim):
    verdict = classify_mult(MultiplicativeContext(DELTA1, 1.0), 3.0)
    analytic_ok = abs(verdict.rho - 4.5) <= 1e-12 and abs(verdict.tau - 0.5) <= 1e-12
    assert all(s.is_outlier for s in bbp_sim.spikes)
    out = bbp_sim.spikes[0]
    err_rho = abs(out.eigenvalue_mean - 4.5)
    err_tau = abs(out.overlap_mean - 0.5)
    ok = analytic_ok and err_rho <= 0.1 and err_tau <= 0.05
    _check(
        5,
        "BBP at c=1, theta=3: rho=4.5, tau=0.5, simulation within 0.1/0.05",
        ok,
        f"sim errs rho {err_rho:.3f}, tau {err_tau:.3f}",
    )


def test_criterion_6_phase_transition(phase_sim):
    ctx = AdditiveContext(DELTA0, 1.0)
    below = classify_additive(ctx, 0.9)
    above = classify_additive(ctx, 1.1)
    flip_ok = (not below.is_outlier) and above.is_outlier
    rho_ok = abs(above.rho - (1.1 + 1.0 / 1.1)) <= 1e-12
    out = phase_sim.spikes[0]
    err_rho = abs(out.eigenvalue_mean - (1.5 + 1.0 / 1.5))
    err_tau = abs(out.overlap_mean - (1.0 - 1.0 / 1.5**2))
    ok = flip_ok and rho_ok and err_rho <= 0.05 and err_tau <= 0.05
    _check(
        6,
        "phase transition flips across theta=1; theta=1.5 simulation within 0.05",
        ok,
        f"flip {flip_ok}, rho(1.1) exact {rho_ok}, sim errs {err_rho:.3f}/{err_tau:.3f}",
    )


def test_criterion_7_property_suites():
    suites = (
        props.test_H_strictly_increasing_on_outlier_set,
        props.test_Z_of_inverse_increasing_on_outlier_set,
        props.test_Z_derivative_identity_with_W,
        props.test_subordination_inverts_H,
        props.test_companion_transform_inverts_Z,
        props.test_weyl_bound_on_additive_samples,
        props.test_per_vector_overlaps_obey_pythagoras,
    )
    failures = []
    for fn in suites:
        try:
            fn()
        except BaseException as exc:  # report every failing suite, not just the first
            failures.append(f"{fn.__name__}: {exc}")
    _check(
        7,
        f"{len(suites)} property suites x 100 randomized examples, zero failures",
        not failures,
        "; ".join(failures) if failures else "all suites clean",
    )


def test_criterion_8_exact_separation(paper_samples, bbp_samples):
    bbp_rho = classify_mult(
        MultiplicativeContext(DELTA1, BBP_SPEC.N / wishart_p(BBP_SPEC.N, BBP_SPEC.c)), 3.0
    ).rho
    cases = (
        ("paper top", paper_samples, 0, RHO_TOP),
        ("paper middle", paper_samples, 2, 0.0),
        ("BBP", bbp_samples, 0, bbp_rho),
    )
    rates = {
        label: np.mean([separation_check(s, j, rho, 0.1) for s in samples])
        for label, samples, j, rho in cases
    }
    ok = all(rate >= 0.9 for rate in rates.values())
    detail = ", ".join(f"{label} {rate:.0%}" for label, rate in rates.items())
    _check(8, "separation_check delta=0.1 passes in >= 90% of reps", ok, detail)
