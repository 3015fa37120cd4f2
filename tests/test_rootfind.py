"""Tests for the bracketed bisection helpers."""

import math

import pytest

from spikelab.errors import NumericalError
from spikelab.rootfind import bisect, creep_to_sign, march_to_sign


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
