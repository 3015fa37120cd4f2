"""Tests for the bracketed Newton solver and the scalar bisection helpers."""

import math

import numpy as np
import pytest

from spikelab import free_additive, rootfind
from spikelab.free_additive import AdditiveContext
from spikelab.measure import AtomicMeasure
from spikelab.errors import NumericalError
from spikelab.rootfind import bisect, creep_to_sign, march_to_sign, newton


def recording(f, seen):
    """f, also appending every point it is evaluated at to ``seen``."""

    def wrapped(u):
        seen.extend(u.tolist())
        return f(u)

    return wrapped


def test_newton_solves_every_bracket_of_an_array():
    targets = np.array([2.0, 3.0, 10.0, 0.25])
    roots = newton(lambda u: (u * u, 2.0 * u), [1.0, 1.0, 3.0, 0.5], 0.0, 4.0, True, 1e-15, targets)
    assert roots.shape == targets.shape
    assert np.max(np.abs(roots - np.sqrt(targets))) <= 1e-15


def test_newton_mixes_rising_and_falling_brackets():
    # u^2 - 2 rises on [0, 2] and falls on [-2, 0].
    roots = newton(lambda u: (u * u - 2.0, 2.0 * u), [2.0, -2.0], [0.0, -2.0], [2.0, 0.0], [True, False], 1e-15)
    assert np.max(np.abs(roots - [math.sqrt(2.0), -math.sqrt(2.0)])) <= 1e-15


def test_newton_keeps_each_root_as_the_active_set_shrinks():
    # The second problem starts on its root and settles on the first step, the others on
    # later ones; each settled root must stay with its own problem.
    sizes = []

    def f(u):
        sizes.append(u.size)
        return u * u, 2.0 * u

    targets = np.array([2.0, 9.0, 0.5, 7.0, 3.0])
    roots = newton(f, [3.9, 3.0, 0.1, 1.0, 1.7], 0.0, 4.0, True, 1e-15, targets)
    assert np.max(np.abs(roots - np.sqrt(targets))) <= 1e-15
    assert sizes[0] == 5 and sizes[1] == 4 and len(set(sizes)) >= 3
    assert sizes == sorted(sizes, reverse=True)


def test_newton_bisects_a_nan_step_and_never_settles_on_nan():
    # The first problem's value is NaN at its start, the second's slope: both steps are
    # NaN, so both bisect, and Newton then lands each on the root 0.25.
    seen = []

    def f(u):
        seen.append(u.tolist())
        return np.where(u > 0.9, math.nan, u - 0.25), np.where(u > 0.6, math.nan, 1.0)

    roots = newton(f, [1.0, 0.8], 0.0, 1.0, True, 1e-15)
    assert roots.tolist() == [0.25, 0.25]
    assert seen == [[1.0, 0.8], [0.5, 0.4], [0.25, 0.25]]


@pytest.mark.parametrize("atoms", [[(1.0, 1.0)], [(-1.0, 0.5), (1.0, 0.5)]], ids=["one", "two"])
def test_an_end_whose_lone_atom_start_rounds_onto_the_atom_is_not_evaluated_there(monkeypatch, atoms):
    # sigma = 1e-17 is below half an ulp of 1, so each start t -+ sigma sqrt(w) rounds to t.
    seen = []
    monkeypatch.setattr(free_additive, "newton", lambda f, *args: newton(recording(f, seen), *args))
    nu = AtomicMeasure(atoms)
    ends = [e for pair in free_additive.outlier_set_intervals(AdditiveContext(nu, 1e-34)) for e in pair]
    assert seen and not set(seen) & set(nu.locations.tolist())
    assert all(math.isfinite(e) and e not in nu.locations for e in ends[1:-1])


def test_newton_on_no_problems_evaluates_nothing():
    def f(u):
        raise AssertionError("f was evaluated")

    assert newton(f, [], [], [], True, 1e-15).shape == (0,)


def test_newton_bisects_when_the_first_step_leaves_the_bracket():
    # From 5, Newton on atan jumps to about -30.7, far left of the bracket.
    seen = []
    f = recording(lambda u: (np.arctan(u), 1.0 / (1.0 + u * u)), seen)
    (root,) = newton(f, [5.0], -1.0, 10.0, True, 1e-15)
    assert abs(root) <= 1e-15
    assert seen[1] == 2.0  # the midpoint of [-1, 5], not the Newton point
    assert all(-1.0 <= u <= 10.0 for u in seen)


def test_newton_returns_a_root_at_the_start_end_exactly():
    # delta_0 with sigma2 = 1: H'(u) = 1 - 1/u^2 falls on [-1, 0) from exactly 0 at -1.
    (root,) = newton(lambda u: (1.0 - 1.0 / (u * u), 2.0 / u**3), [-1.0], -1.0, 0.0, False, 1e-15)
    assert root == -1.0


def test_newton_never_evaluates_an_atom_at_a_bracket_end():
    # H' of (delta_0 + delta_1)/2 with sigma2 = 0.01 blows up at both atoms.
    t, w, s2 = np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.01
    seen = []

    def hp(u):
        r = 1.0 / (u[:, None] - t)
        return 1.0 - s2 * ((r * r) @ w), 2.0 * s2 * ((r * r * r) @ w)

    roots = newton(recording(hp, seen), [0.5, 0.5], [0.0, 0.5], [0.5, 1.0], [True, False], 1e-15)
    assert np.max(np.abs(hp(roots)[0])) <= 1e-13
    assert 0.0 not in seen and 1.0 not in seen


def test_newton_does_not_bisect_onto_an_atom_at_float_resolution():
    # No float lies strictly between 1 and its successor, and their midpoint rounds to 1.
    hi = math.nextafter(1.0, 2.0)
    seen = []
    f = recording(lambda u: (np.full(u.shape, 1.0), np.full(u.shape, math.nan)), seen)
    (root,) = newton(f, [hi], 1.0, hi, True, 0.0)
    assert root == hi and seen == [hi]


def test_newton_raises_when_it_does_not_settle(monkeypatch):
    monkeypatch.setattr(rootfind, "MAX_NEWTON", 5)
    with pytest.raises(NumericalError, match="did not settle on 1 of 2"):
        # Without slopes every step bisects; [0, 1] needs about 50 halvings.
        newton(lambda u: (u - 1.0 / 3.0, np.full(u.shape, math.nan)), [0.5, 1.0 / 3.0], 0.0, 1.0, True, 1e-15)


def test_bisect_sqrt2():
    root = bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) < 1e-11


def test_bisect_orders_signs_either_way():
    root = bisect(lambda x: 1.0 - x, 0.0, 3.0)
    assert abs(root - 1.0) < 1e-11


def test_bisect_requires_sign_change():
    with pytest.raises(NumericalError):
        bisect(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_creep_finds_blowup_sign():
    # f -> -inf at the boundary 1.0, positive at the interior anchor.
    f = lambda x: 1.0 - 0.01 / (x - 1.0) ** 2
    x = creep_to_sign(f, boundary=1.0, interior=2.0, sign=-1)
    assert 1.0 < x < 2.0
    assert f(x) < 0.0


def test_creep_gives_up():
    with pytest.raises(NumericalError):
        creep_to_sign(lambda x: 1.0, boundary=0.0, interior=1.0, sign=-1)


def test_march_doubles_until_sign():
    f = lambda x: x - 10.0
    x = march_to_sign(f, start=0.0, step=1.0, sign=1)
    assert f(x) > 0.0


def test_march_negative_direction():
    f = lambda x: -5.0 - x
    x = march_to_sign(f, start=0.0, step=-1.0, sign=1)
    assert x < -5.0
    assert f(x) > 0.0


def test_march_gives_up():
    with pytest.raises(NumericalError):
        march_to_sign(lambda x: -1.0, start=0.0, step=1.0, sign=1)
