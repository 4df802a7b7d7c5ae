"""Truncation policy tests."""

import math

import pytest

from p3family.errors import ConvergenceError
from p3family.series import sum_series


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
