"""Truncation and acceleration policy tests."""

import math

import pytest

from p3family.errors import ConvergenceError
from p3family.series import sum_alternating, sum_series


def test_plain_sum_geometric():
    def terms():
        c = 1.0
        while True:
            yield c
            c *= 0.5

    assert sum_series(terms()) == pytest.approx(2.0, rel=1e-12)


def test_plain_sum_exp():
    def terms():
        c = 1.0
        k = 0
        while True:
            yield c
            k += 1
            c *= 1.3 / k

    assert sum_series(terms()) == pytest.approx(math.exp(1.3), rel=1e-12)


def test_plain_sum_exhaustion_raises():
    def terms():
        while True:
            yield 1.0

    with pytest.raises(ConvergenceError):
        sum_series(terms())


def test_alternating_ln2():
    # Conditionally convergent alternating harmonic series.
    def terms():
        k = 1
        while True:
            yield (-1.0) ** (k + 1) / k
            k += 1

    assert sum_alternating(terms()) == pytest.approx(math.log(2.0), abs=1e-11)


def test_alternating_slow_decay():
    # sum (-1)^k / sqrt(k+1) = eta(1/2)-style series; plain truncation
    # would need ~1e24 terms for 1e-12.
    import mpmath as mp

    # Dirichlet eta at 1/2: (1 - 2^(1-s)) zeta(s).
    ref = float((1 - 2 ** 0.5) * mp.zeta(0.5))

    def terms():
        k = 0
        while True:
            yield (-1.0) ** k / math.sqrt(k + 1.0)
            k += 1

    assert sum_alternating(terms()) == pytest.approx(ref, abs=1e-10)


def test_alternating_finite_series_exact():
    assert sum_alternating(iter([1.0, -0.25, 0.125])) == pytest.approx(0.875, abs=0)


def test_alternating_exhaustion_raises():
    def terms():
        k = 0
        while True:
            # Not decaying: the accelerated estimates cannot stabilize.
            yield (-1.0) ** k * (1.0 + 0.5 * math.sin(k * k))
            k += 1

    with pytest.raises(ConvergenceError):
        sum_alternating(terms())
