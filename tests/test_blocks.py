"""The block loop of `pearson3.blockwise`: every family is evaluated a block
of points at a time, with the values of one call over all points and the
memory of one block."""

import re
import tracemalloc

import numpy as np
import pytest

from p3family.errors import SupportError
from p3family.logitp3 import ltp3_cdf, ltp3_pdf
from p3family.pearson3 import _BLOCK, Pearson3Params, p3_cdf, p3_pdf
from p3family.presets import beacon_field_scenario
from p3family.sums import SumSpec, sum_cdf
from p3family.wpt import q_cdf_miso

N = 2 * _BLOCK + 7  # two whole blocks and part of a third
# block edges, and every fifth point between: the scalar calls of a sum
# or a curve take about 60 us each
SOME = np.union1d(np.arange(0, N, 5), [_BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, N - 1])


def _peak(f, x):
    f(x[:10])  # builds what a law caches on first use
    tracemalloc.start()
    try:
        f(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["p3_cdf", "ltp3_cdf", "sum_cdf", "q_cdf_miso", "harvest"])
def test_memory_of_a_million_points_is_the_output_and_one_block(name):
    # the output is 8 MB; whole-array temporaries took 26-32 MB in all
    law = Pearson3Params(2.5, 1.5, 0.3)
    spec = SumSpec((Pearson3Params(1, 1.0, 0.2), Pearson3Params(2, 1.8), Pearson3Params(3, 3.1)))
    scenario = beacon_field_scenario(3)
    f, lo, hi = {
        "p3_cdf": (lambda x: p3_cdf(law, x), -2.0, 30.0),
        "ltp3_cdf": (lambda z: ltp3_cdf(law, z), 0.01, 0.99),
        "sum_cdf": (lambda x: sum_cdf(spec, x), -2.0, 30.0),
        "q_cdf_miso": (lambda q: q_cdf_miso(scenario, q), 0.0, 2e-5),
        "harvest": (scenario.model.harvest, 0.0, 1e-3),
    }[name]
    x = np.random.default_rng(3).uniform(lo, hi, 10**6)
    assert _peak(f, x) < 8_000_000 + 4_000_000


def test_blocks_of_a_member_give_its_scalar_values():
    law = Pearson3Params(2.5, -1.5, 0.3)  # support (0, logistic(0.3)) in z
    z = np.linspace(0.0, 0.5744, N + 2)[1:-1]
    values = ltp3_pdf(law, z)
    assert np.array_equal(values, [ltp3_pdf(law, v) for v in z.tolist()])
    assert np.array_equal(p3_cdf(law, z), [p3_cdf(law, v) for v in z.tolist()])


def test_blocks_of_a_distinct_rate_sum_give_its_scalar_values():
    spec = SumSpec((Pearson3Params(1, -1.0, 0.2), Pearson3Params(2, -1.8)))
    x = np.linspace(-25.0, 1.0, N)
    values = sum_cdf(spec, x)
    assert np.array_equal(values[SOME], [sum_cdf(spec, v) for v in x[SOME].tolist()])


def test_blocks_of_a_curve_give_its_one_point_values():
    # a power sweep is one law at an array of rates, the float q whole
    scenario = beacon_field_scenario(1)
    points = np.linspace(0.01, 3.0, N)
    q = 0.1 * scenario.model.Ps
    values = scenario.curve("power", points, q)
    one = [scenario.curve("power", [p], q)[0] for p in points[SOME].tolist()]
    assert np.array_equal(values[SOME], one)


def test_a_support_error_names_the_first_bad_point_of_any_block():
    x = np.linspace(0.5, 9.0, N)
    x[_BLOCK + 5], x[2 * _BLOCK + 3] = -1.0, -2.0  # in the second and third blocks
    with pytest.raises(SupportError, match=re.escape("y=-1.0 is outside")):
        p3_pdf(Pearson3Params(2.0, 1.0), x)
