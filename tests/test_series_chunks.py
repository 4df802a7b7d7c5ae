"""The chunks of Moschopoulos' series (`sums._series_sum`): how many terms a
pass takes changes no value, only how many passes a call makes, and the
term limit counts terms, not chunks."""

import math

import numpy as np
import pytest

from p3family import sums
from p3family.errors import ConvergenceError
from p3family.pearson3 import Pearson3Params
from p3family.sums import SumSpec, logitsum_cdf, sum_cdf, sum_pdf

P = Pearson3Params

N = (1 << 14) + 7  # one whole block of points and part of a second

# (_CHUNK, _CHUNK_MAX, _GRID_MIN, _GRID): one term a pass, and wide passes
SCHEDULES = [(1, 1, 1, 64), (64, 512, 1 << 12, 1 << 16)]


def _close_rate_spec(L, sign=1.0):
    # integer shapes at rates 5% apart: weights too large for the partial
    # fractions, so every point is summed on the series; the mean is 0
    rates = [1.0 + 0.05 * i for i in range(L)]
    return SumSpec(tuple(P(float(L // 2), sign * b, -sign * (L // 2) / b) for b in rates))


SPECS = {
    # a shape below 1: the betainc bound on the tail of the weights
    "small_shape": SumSpec((P(0.6, 1.0, 0.3), P(2.5, 1.7), P(1.0, 3.1))),
    "small_shape_neg": SumSpec((P(0.6, -1.0, 0.3), P(2.5, -1.7), P(1.0, -3.1))),
    "close_L12": _close_rate_spec(12),
    "close_L12_neg": _close_rate_spec(12, -1.0),
    # partial fractions, whose points near the support edge go to the series
    "fractions": SumSpec((P(2.0, 1.3, 0.5), P(1.0, 2.2, -0.2), P(3.0, 3.7, 1.0))),
    "fractions_neg": SumSpec((P(2.0, -1.1, 0.0), P(1.0, -2.5, -1.0))),
    # rates 1 to 16, series-only: the Q side needs more than 504 terms
    "far_L8": SumSpec(tuple(P(0.5 * i + 1.5, 2.0 ** (i / 1.75), 0.1 * i) for i in range(8))),
}


def _points(spec, n):
    # from the support edge to 5 mean offsets: the P and the Q side of the CDF
    sign = 1.0 if spec.terms[0].b > 0 else -1.0
    return spec.sm + sign * spec.mean_offset() * np.geomspace(1e-6, 5.0, n)


def _schedule(monkeypatch, chunk, chunk_max, grid_min, grid):
    for name, value in (("_CHUNK", chunk), ("_CHUNK_MAX", chunk_max),
                        ("_GRID_MIN", grid_min), ("_GRID", grid)):
        monkeypatch.setattr(sums, name, value)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("f", [sum_cdf, sum_pdf])
def test_the_chunks_change_no_value(name, f, monkeypatch):
    x = _points(SPECS[name], N)
    ref = f(SumSpec(SPECS[name].terms), x)
    some = np.linspace(0, N - 1, 7).astype(int)
    assert not np.array_equal(ref[some], ref[some[::-1]])  # the points differ
    for schedule in [None] + SCHEDULES:
        if schedule is not None:
            _schedule(monkeypatch, *schedule)
        # a new spec each time, so that its weights are extended in other steps
        spec = SumSpec(SPECS[name].terms)
        if schedule is not None:
            assert np.array_equal(f(spec, x), ref)
        assert np.array_equal(f(spec, x[some]), ref[some])
        for i in some[[0, 3, 6]]:
            assert f(spec, x[i]) == ref[i]
        monkeypatch.undo()


def _chunks(monkeypatch, f, *args):
    # the number of terms of each pass of the series that f(*args) makes
    calls = []

    def counted(spec, k0, k1):
        calls.append(k1 - k0)
        return chunk(spec, k0, k1)

    chunk = sums._series_chunk
    monkeypatch.setattr(sums, "_series_chunk", counted)
    f(*args)
    monkeypatch.setattr(sums, "_series_chunk", chunk)
    return calls


@pytest.mark.parametrize("f", [sum_cdf, sum_pdf, logitsum_cdf])
def test_one_point_of_a_close_rate_sum_is_one_pass(f, monkeypatch):
    # an L = 16 close-rate point needs up to 248 terms: passes of 8, 16,
    # 32, ... terms on a new spec, which forms the weights as the doubling
    # asks, and one pass on a spec that has them
    spec = _close_rate_spec(16)
    mean = math.fsum(t.a / t.b for t in spec.terms)
    sd = math.sqrt(math.fsum(t.a / t.b ** 2 for t in spec.terms))
    x = spec.sm + np.array([mean - 2.0 * sd, mean, mean + 2.0 * sd])
    at = 1.0 / (1.0 + np.exp(-x)) if f is logitsum_cdf else x
    first = _chunks(monkeypatch, f, spec, at[1])
    assert first == [sums._CHUNK << i for i in range(len(first))]
    assert len(first) >= 4
    f(spec, at)
    for point in at:
        assert len(_chunks(monkeypatch, f, spec, point)) == 1


@pytest.mark.parametrize("f", [sum_cdf, sum_pdf])
@pytest.mark.parametrize("name", ["fractions", "fractions_neg", "small_shape", "small_shape_neg"])
def test_an_edge_point_is_one_short_pass(name, f, monkeypatch):
    # a point near the support edge, routed from the partial fractions or
    # on the P side of a series-only sum, needs few terms: on a new spec,
    # one pass of _CHUNK terms, which forms no more weights than that
    x = _points(SPECS[name], 1)[0]
    spec = SumSpec(SPECS[name].terms)
    assert _chunks(monkeypatch, f, spec, x) == [sums._CHUNK]
    assert spec._series[2].size == sums._CHUNK + 1


def test_a_block_of_points_takes_no_more_passes(monkeypatch):
    # a series-only block of 2^14 points: the grid limit sets the chunks,
    # 28 passes for the density and 49 for the CDF before the first chunk
    # was sized by the live points
    spec = SumSpec((P(0.6, 1.0, 0.3), P(2.5, 1.7), P(1.0, 3.1)))
    x = spec.sm + spec.mean_offset() * np.geomspace(1e-3, 4.0, 1 << 14)
    assert len(_chunks(monkeypatch, sum_pdf, spec, x)) <= 28
    assert len(_chunks(monkeypatch, sum_cdf, spec, x)) <= 49


@pytest.mark.parametrize("n", [1, 1 << 14])
def test_the_term_limit_is_exact(n, monkeypatch):
    # with one term a pass, a call makes as many passes as its most
    # demanding point needs terms
    spec = SumSpec((P(1.5, 1.0), P(2.0, 3.0)))
    x = spec.sm + np.geomspace(0.01, 2.0, n) if n > 1 else spec.sm + 2.0
    f = sum_pdf if n > 1 else sum_cdf  # a density block is one series call
    ref = f(spec, x)
    _schedule(monkeypatch, 1, 1, 1, 64)
    need = len(_chunks(monkeypatch, f, SumSpec(spec.terms), x))
    monkeypatch.undo()
    assert 16 < need < sums._CHUNK_MAX
    monkeypatch.setattr(sums, "_SERIES_MAX", need)
    assert np.array_equal(f(SumSpec(spec.terms), x), ref)
    monkeypatch.setattr(sums, "_SERIES_MAX", need - 1)
    with pytest.raises(ConvergenceError):
        f(SumSpec(spec.terms), x)
