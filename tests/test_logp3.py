"""Log-transform distribution tests."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from p3family.errors import DomainError, MomentDivergenceError, SupportError
from p3family.logp3 import (
    lp3_cdf,
    lp3_char_fn_series,
    lp3_moment,
    lp3_pdf,
    lp3_support,
)
from p3family.mc import empirical_moment
from p3family.pearson3 import Pearson3Params, p3_cdf, p3_pdf, p3_sample

GRID = [
    Pearson3Params(1.0, 1.5, 0.0),
    Pearson3Params(2.0, 1.5, 0.3),
    Pearson3Params(1.0, -1.0, 0.0),
    Pearson3Params(3.0, -2.0, 0.5),
]


def test_pdf_values():
    assert lp3_pdf(Pearson3Params(1.0, 1.0, 0.0), 2.0) == pytest.approx(0.25, rel=1e-12)
    assert lp3_pdf(Pearson3Params(1.0, -1.0, 0.0), 0.5) == pytest.approx(1.0, rel=1e-12)
    # change-of-variables oracle: p3_pdf(ln y) / y
    p = Pearson3Params(2.0, 1.5, 0.3)
    assert lp3_pdf(p, 2.0) == pytest.approx(0.24524220445344477, rel=1e-12)
    # a subnormal point: |b|/Gamma(a) (b ln y)^2 y^(-1/2), mpmath at 40 digits
    assert lp3_pdf(Pearson3Params(3.0, -0.5, 0.0), 1e-310) == pytest.approx(
        3.1844525526060927e159, rel=1e-13
    )
    # b < -1 near y = 0: the density 1.05 y^0.05 of y is normal where that
    # of X = ln y, 1.05 y^1.05, is subnormal or 0
    p = Pearson3Params(1.0, -1.05, 0.0)
    assert lp3_pdf(p, 1e-300) == pytest.approx(1.05e-15, rel=1e-13, abs=0)
    assert lp3_pdf(p, 1e-310) == pytest.approx(3.3203915431766927e-16, rel=1e-13, abs=0)


@pytest.mark.parametrize("params", GRID)
def test_change_of_variables_identity(params):
    lo, hi = lp3_support(params)
    for frac in (0.2, 0.5, 0.8):
        if math.isinf(hi):
            y = lo + frac * 5.0
        else:
            y = lo + frac * (hi - lo)
        assert lp3_pdf(params, y) == pytest.approx(
            p3_pdf(params, math.log(y)) / y, rel=1e-12
        )
        assert lp3_cdf(params, y) == pytest.approx(
            p3_cdf(params, math.log(y)), abs=0
        )


def test_cdf_values():
    assert lp3_cdf(Pearson3Params(1.0, 1.0, 0.0), 2.0) == pytest.approx(0.5, rel=1e-13)
    assert lp3_cdf(Pearson3Params(3.0, 1.5, 0.0), 1.0) == 0.0
    # mpmath oracle: Q(2, -1.5 ln 0.6)
    assert lp3_cdf(Pearson3Params(2.0, -1.5, 0.0), 0.6) == pytest.approx(
        0.8208734456039956, rel=1e-12
    )
    with pytest.raises(DomainError):
        lp3_cdf(Pearson3Params(1.0, 1.0, 0.0), 0.0)


@pytest.mark.parametrize("params", GRID)
def test_pdf_normalization(params):
    # integrate in log space: the b > 0 tails are power laws too heavy for
    # a finite cut in y
    sign = math.copysign(1.0, params.b)
    lo_x = min(params.m, params.m + sign * 60.0 / abs(params.b))
    hi_x = max(params.m, params.m + sign * 60.0 / abs(params.b))
    total, _ = quad(
        lambda x: lp3_pdf(params, math.exp(x)) * math.exp(x), lo_x, hi_x, limit=300
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_moment_values_and_divergence():
    assert lp3_moment(Pearson3Params(1.0, 2.0, 0.0), 0) == 1.0
    assert lp3_moment(Pearson3Params(1.0, 2.0, 0.0), 1) == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(MomentDivergenceError):
        lp3_moment(Pearson3Params(2.0, 1.5, 0.0), 2)
    with pytest.raises(DomainError):
        lp3_moment(Pearson3Params(2.0, 1.5, 0.0), -1)
    # b < 0: every moment exists
    assert lp3_moment(Pearson3Params(2.0, -1.0, 0.0), 3) == pytest.approx(
        (1.0 / 4.0) ** 2.0, rel=1e-13
    )


@pytest.mark.parametrize("params, n", [
    (Pearson3Params(1000.0, 1.5, 0.0), 1),  # 3^1000: raised a raw OverflowError
    (Pearson3Params(100.0, 2.0, 700.0), 1),  # e^700 2^100: returned inf
])
def test_moment_beyond_double_range_is_a_library_error(params, n):
    with pytest.raises(DomainError, match="exceeds the double range"):
        lp3_moment(params, n)


def test_moment_with_one_factor_beyond_double_range():
    # e^800 overflows, but e^800 / 101^100 = e^338.5 does not
    with mp.workdps(30):
        ref = float(mp.e ** 800 / mp.mpf(101) ** 100)
    assert lp3_moment(Pearson3Params(100.0, -1.0, 8.0), 100) == pytest.approx(ref, rel=1e-12)


def test_support_edge_beyond_double_range_is_a_library_error():
    # e^1000: both raised a raw OverflowError
    with pytest.raises(DomainError):
        lp3_support(Pearson3Params(2.0, 1.0, 1000.0))
    with pytest.raises(DomainError):
        lp3_char_fn_series(Pearson3Params(2.0, -1.0, 1000.0), 1.0)


def test_mean_follows_moment_formula_not_location_shortcut():
    # The mean follows the n=1 moment formula e^m (b/(b-1))^a; the base
    # member's location a/b + m does not survive the exponential map.
    p = Pearson3Params(1.0, 2.0, 0.0)
    samples = np.exp(p3_sample(p, 31, 1_000_000))
    emp, se = empirical_moment(samples, 1)
    mean_formula = lp3_moment(p, 1)
    assert abs(mean_formula - emp) < 3.0 * se
    shortcut_value = p.a / p.b + p.m  # 0.5, inconsistent with the moment formula
    assert abs(shortcut_value - emp) > 30.0 * se


@pytest.mark.parametrize("params", [Pearson3Params(3.0, -2.0, 0.5),
                                    Pearson3Params(1.0, 4.5, 0.0)])
def test_moment_vs_mc(params):
    samples = np.exp(p3_sample(params, 99, 400_000))
    for n in (1, 2):
        emp, se = empirical_moment(samples, n)
        assert abs(lp3_moment(params, n) - emp) < 3.0 * se


def test_char_fn_series():
    p = Pearson3Params(1.0, -1.0, 0.0)
    assert lp3_char_fn_series(p, 0.0) == pytest.approx(1.0 + 0.0j)
    # 1e4-term reference summation oracle
    v = lp3_char_fn_series(p, 1.0)
    assert v == pytest.approx(0.8414709848078965 + 0.45969769413186023j, rel=1e-10)
    # numeric Fourier transform of the density as a second oracle
    re, _ = quad(lambda y: math.cos(1.0 * y) * lp3_pdf(p, y), 0.0, 1.0, limit=200)
    im, _ = quad(lambda y: math.sin(1.0 * y) * lp3_pdf(p, y), 0.0, 1.0, limit=200)
    assert v == pytest.approx(complex(re, im), rel=1e-9)
    with pytest.raises(DomainError):
        lp3_char_fn_series(Pearson3Params(1.0, 1.0, 0.0), 1.0)


def test_char_fn_series_oversummed_reference():
    p = Pearson3Params(2.0, -3.0, 0.5)
    # iterate the term ratio so the factorial never overflows
    ref = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(200):
        ref += term * (-3.0 / (-3.0 - n)) ** 2.0
        term *= 1j * 0.2 * math.exp(0.5) / (n + 1)
    assert lp3_char_fn_series(p, 0.2) == pytest.approx(ref, rel=1e-10)


def test_pdf_support_error():
    with pytest.raises(SupportError):
        lp3_pdf(Pearson3Params(1.0, 1.0, 0.0), 0.5)  # below e^0
    with pytest.raises(SupportError):
        lp3_pdf(Pearson3Params(1.0, -1.0, 0.0), 1.5)
