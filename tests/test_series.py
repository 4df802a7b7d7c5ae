"""Truncation policy and `expect` tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from properties import PROPERTY_SETTINGS, any_sums, members, signs
from scipy.special import expit

from p3family.errors import ConvergenceError, DomainError
from p3family.logitp3 import ltp3_moment
from p3family.pearson3 import Pearson3Params
from p3family.presets import FIG_MODEL, FIG_P_GRID, beacon_field_scenario
from p3family.series import _RATES, expect, sum_series
from p3family.specfun import lerch_phi
from p3family.sums import SumSpec
from p3family.wpt import _q_power


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


def test_exhaustion_message_names_terms_sum_and_last_term():
    with pytest.raises(ConvergenceError,
                       match=r"10000 terms consumed .*last partial sum 10000\.0, last term 1\.0"):
        sum_series(itertools.repeat(1.0))
    # a finite iterable that runs out before the tolerance is reached
    with pytest.raises(ConvergenceError,
                       match=r"2 terms consumed .*last partial sum 3\.0, last term 2\.0"):
        sum_series([1.0, 2.0])


def test_plain_sum_overflow_raises():
    # the partial sum inf passed the relative test: it returned inf
    with pytest.raises(ConvergenceError, match="2 terms consumed"):
        sum_series(itertools.repeat(1e308))
    with pytest.raises(ConvergenceError, match="1 terms consumed"):
        sum_series(itertools.repeat(math.nan))


@pytest.mark.parametrize("a, b", [(0.02, 1.0), (0.02, -3.0), (0.7, 2.5), (3.0, 1.5),
                                  (40.0, -0.5)])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_expect_power_against_member(a, b, n):
    # E[g^n] = (a)_n / |b|^n; at a = 0.02 and n = 0 the integrand is still
    # large at the bottom of the grid, where the tail term below it counts
    value = expect(Pearson3Params(a, b, 0.3), lambda g: g ** n)
    assert value == pytest.approx(math.prod(a + k for k in range(n)) / abs(b) ** n, rel=1e-13)


def test_expect_mean_against_distinct_rate_sum():
    terms = (Pearson3Params(1.0, 0.7, 0.2), Pearson3Params(2.0, 1.9), Pearson3Params(3.0, 4.2))
    value = expect(SumSpec(terms), lambda g: g)
    assert value == pytest.approx(math.fsum(t.a / t.b for t in terms), rel=1e-13)


@pytest.mark.parametrize("law", [
    Pearson3Params(2.5, -1.3, 0.4),
    SumSpec((Pearson3Params(1.0, 1.0, -0.3), Pearson3Params(2.0, 2.5), Pearson3Params(1.0, 4.0))),
])
@pytest.mark.parametrize("rates", [
    np.array([0.05, 0.3, 1.0, 2.7, 11.0, 300.0]),
    np.geomspace(0.05, 300.0, 2 * _RATES + 7),  # more than one batch
])
def test_expect_rates_are_one_call_per_rate(law, rates):
    def h(g):
        return expit(g - 0.7) ** 2

    batch = expect(law, h, rate=rates)
    assert isinstance(batch, np.ndarray) and batch.shape == rates.shape
    assert batch.tolist() == [expect(law, h, rate=r) for r in rates]
    assert isinstance(expect(law, h, rate=1.0), float)


def test_expect_rate_is_the_law_built_at_it():
    # a member rescaled to a rate is the member of that inverse scale, to the
    # last bit: the centre of the grid and the density agree
    def h(g):
        return g / (1.0 + g)

    # numpy's vector log rounds the last two rates apart from math.log on
    # hosts where it has a SIMD log of its own
    rates = [0.2, 1.3, 3.3, 7.1, 1.9039388996106583, 3.910591516091283]
    batch = expect(Pearson3Params(2.5, 1.3, -0.4), h, rate=rates)
    assert batch.tolist() == [expect(Pearson3Params(2.5, r, -0.4), h) for r in rates]


def test_expect_underflowing_rate_is_zero_in_a_batch():
    # h vanishes below g = 10^6 / 745 and the density of shape 2 at rate 1
    # has underflowed long before that; at rate 1e-4 both overlap
    def h(g):
        return np.exp(-1e6 / np.maximum(g, 1.0))

    law = Pearson3Params(2.0, 1.0)
    assert expect(law, h) == 0.0
    batch = expect(law, h, rate=[1e-4, 1.0, 1e-4])
    assert batch[1] == 0.0
    assert batch[0] == batch[2] == expect(law, h, rate=1e-4) > 0.0


def test_expect_empty_rates_give_an_empty_array():
    for law in (Pearson3Params(2.0, 1.0), SumSpec((Pearson3Params(1.0, 1.0), Pearson3Params(2.0, 3.0)))):
        for rate in ([], np.empty(0)):
            out = expect(law, lambda g: g, rate=rate)
            assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("law", [
    Pearson3Params(1e-300, 1e300, 0.0),  # the mean offset underflows: raw ValueError
    Pearson3Params(1e-300, 1e-300, 0.0),  # the density overflows on the grid: raw ValueError
])
def test_expect_beyond_double_range_is_a_library_error(law):
    lo, hi = law.support()
    with pytest.raises(DomainError, match="beyond the double range"):
        expect(law, lambda g: expit(lo + g))


def _on_whole_grid(f):
    """f() with every law's rising offset below the least double, so that
    `expect` evaluates the density on the whole grid of each rate."""
    with pytest.MonkeyPatch.context() as patch:
        for law in (Pearson3Params, SumSpec):
            patch.setattr(law, "rising_offset", lambda self, rate=None: (5e-324, 1.0))
        return f()


def _distinct_sum(stages, sign, scale, m):
    # pairwise-distinct rates scale * j / 8 for distinct integers j
    return SumSpec(tuple(Pearson3Params(a, sign * scale * j / 8.0, m if i == 0 else 0.0)
                         for i, (a, j) in enumerate(stages)))


distinct_sums = st.builds(
    _distinct_sum,
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 48)), min_size=2, max_size=4,
             unique_by=lambda stage: stage[1]),
    signs,
    st.floats(0.1, 2.0),
    st.floats(-2.0, 2.0),
)
_SWEEP = np.geomspace(0.02, 50.0, 5)


@PROPERTY_SETTINGS
@given(law=st.one_of(members, distinct_sums, any_sums), n=st.integers(1, 6))
@example(law=Pearson3Params(24.0, -0.0625, 0.0), n=1)  # the check fails: the whole grid
@example(law=SumSpec((Pearson3Params(0.3, -1.0, 1.0), Pearson3Params(0.3, -1.0),
                      Pearson3Params(0.35, -3.1))), n=2)  # a total shape below 1
def test_rising_start_matches_the_whole_grid_bit_for_bit(law, n):
    # the density is evaluated from the rising start on, or from the bottom
    # of the grid where the check fails: the same values either way
    assert ltp3_moment(law, n) == _on_whole_grid(lambda: ltp3_moment(law, n))
    if n > 3:
        return
    lo, hi = law.support()
    edge, sign = (lo, 1.0) if hi == math.inf else (hi, -1.0)
    rates = _SWEEP * (abs(law.terms[0].b) if isinstance(law, SumSpec) else abs(law.b))
    # the integrands of ltp3_moment and of the harvested-power moments
    for h in (lambda g: expit(edge + sign * g) ** n, _q_power(FIG_MODEL, n)):
        for rate in (None, rates[2], rates):
            batch = expect(law, h, rate=rate)
            whole = _on_whole_grid(lambda: expect(law, h, rate=rate))
            assert np.array_equal(batch, whole) and type(batch) is type(whole)


@PROPERTY_SETTINGS
@given(z=st.floats(-1.0, -1e-3), s=st.floats(0.3, 40.0), alpha=st.floats(0.05, 60.0))
def test_rising_start_matches_the_whole_grid_for_lerch_phi(z, s, alpha):
    assert lerch_phi(z, s, alpha) == _on_whole_grid(lambda: lerch_phi(z, s, alpha))


def test_expect_density_work_of_a_batched_sweep(monkeypatch):
    # the density points, grid and nodes together, that one batched moment
    # sweep evaluates: 16 419 on the whole grids, 5 955 from the rising starts
    at_offsets, points = SumSpec.at_offsets, []

    def counted(self, g, density=False, log_slope=None, rate=None):
        if density:
            points.append(np.size(g))
        return at_offsets(self, g, density, log_slope, rate)

    monkeypatch.setattr(SumSpec, "at_offsets", counted)
    beacon_field_scenario(3).moments("power", FIG_P_GRID, 1)
    assert 0 < sum(points) <= 8000
