"""Logit-transform distribution tests."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from p3family.errors import DomainError, SupportError
from p3family.logitp3 import (
    logit_gamma_cdf,
    logit_gamma_moment,
    logit_gamma_pdf,
    ltp3_cdf,
    ltp3_mean_closed,
    ltp3_moment,
    ltp3_pdf,
    ltp3_second_moment_closed,
    ltp3_support,
)
from p3family.mc import empirical_moment
from p3family.pearson3 import Pearson3Params, p3_cdf, p3_pdf, p3_sample


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


GRID = [
    Pearson3Params(1.0, 1.0, 0.0),
    Pearson3Params(3.0, 1.5, 0.0),
    Pearson3Params(2.0, 1.5, -0.5),
    Pearson3Params(3.0, -1.5, 0.0),
    Pearson3Params(2.0, -0.7, 1.2),
]


def test_cdf_values():
    p = Pearson3Params(3.0, 1.5, 0.0)
    assert ltp3_cdf(p, 0.5) == 0.0           # lower support endpoint
    assert ltp3_cdf(p, 0.2) == 0.0
    assert ltp3_cdf(Pearson3Params(3.0, -1.5, 0.0), 0.5) == 1.0
    # mpmath oracle: P(3, 1.5 ln 4)
    assert ltp3_cdf(p, 0.8) == pytest.approx(0.3448149869610322, rel=1e-12)
    with pytest.raises(DomainError):
        ltp3_cdf(p, 1.0)
    with pytest.raises(DomainError):
        ltp3_cdf(p, -0.1)


def test_pdf_values_and_symmetry():
    # change-of-variables chain rule at z = 2/3 for the logit exponential
    assert ltp3_pdf(Pearson3Params(1.0, 1.0, 0.0), 2.0 / 3.0) == pytest.approx(
        2.25, rel=1e-12
    )
    # m = 0 symmetry around 0.5
    assert ltp3_pdf(Pearson3Params(2.0, 1.5, 0.0), 0.75) == pytest.approx(
        ltp3_pdf(Pearson3Params(2.0, -1.5, 0.0), 0.25), rel=1e-12
    )
    # direct formula value on the reference-figure parameterization
    assert ltp3_pdf(Pearson3Params(3.0, 1.5, 0.0), 0.8) == pytest.approx(
        2.533638940584265, rel=1e-12
    )


@pytest.mark.parametrize("params", GRID)
def test_change_of_variables_identity(params):
    lo, hi = ltp3_support(params)
    for frac in (0.15, 0.5, 0.85):
        z = lo + frac * (hi - lo)
        x = math.log(z / (1.0 - z))
        assert ltp3_pdf(params, z) == pytest.approx(
            p3_pdf(params, x) / (z * (1.0 - z)), rel=1e-12
        )
        assert ltp3_cdf(params, z) == pytest.approx(p3_cdf(params, x), abs=0)


@pytest.mark.parametrize("params", GRID)
def test_pdf_normalization_and_cdf_derivative(params):
    lo, hi = ltp3_support(params)
    total, _ = quad(lambda z: ltp3_pdf(params, z), lo, hi, limit=300)
    assert total == pytest.approx(1.0, abs=1e-9)
    h = 1e-7
    for frac in (0.3, 0.6):
        z = lo + frac * (hi - lo)
        fd = (ltp3_cdf(params, z + h) - ltp3_cdf(params, z - h)) / (2 * h)
        assert fd == pytest.approx(ltp3_pdf(params, z), rel=1e-6)


def test_pdf_support_error():
    with pytest.raises(SupportError):
        ltp3_pdf(Pearson3Params(3.0, 1.5, 0.0), 0.4)
    with pytest.raises(DomainError):
        ltp3_pdf(Pearson3Params(3.0, 1.5, 0.0), 1.2)


def test_moment_basics():
    p = Pearson3Params(1.0, 1.0, 0.0)
    assert ltp3_moment(p, 0) == 1.0
    # analytic integral: E[logistic(X)] for exponential X is ln 2
    assert ltp3_moment(p, 1) == pytest.approx(math.log(2.0), abs=1e-10)
    with pytest.raises(DomainError):
        ltp3_moment(p, -1)


@pytest.mark.parametrize(
    "params",
    [
        Pearson3Params(2.0, 1.5, 0.0),
        Pearson3Params(3.0, 0.5, 0.5),
        Pearson3Params(2.0, 1.5, -0.5),
        Pearson3Params(3.0, 2.0, -1.5),
        Pearson3Params(2.0, -1.5, 0.0),
        Pearson3Params(3.0, -0.8, 0.7),
        Pearson3Params(40.0, 8.0, -8.0),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moment_vs_quadrature(params, n):
    # independent oracle: direct quadrature of z^n times the density
    lo, hi = ltp3_support(params)
    ref, _ = quad(lambda z: z ** n * ltp3_pdf(params, z), lo, hi, limit=300)
    assert ltp3_moment(params, n) == pytest.approx(ref, rel=1e-8)


def test_moment_vs_mc_negative_shift():
    p = Pearson3Params(2.0, 1.5, -0.5)
    z = _logistic(p3_sample(p, 11, 1_000_000))
    emp, se = empirical_moment(z, 1)
    assert abs(ltp3_moment(p, 1) - emp) < 3.0 * se


def test_moment_reflection_vs_mc():
    p = Pearson3Params(3.0, -1.5, 0.3)
    z = _logistic(p3_sample(p, 17, 500_000))
    for n in (1, 2):
        emp, se = empirical_moment(z, n)
        assert abs(ltp3_moment(p, n) - emp) < 3.0 * se


def test_moments_bounded():
    for params in GRID:
        for n in (1, 2, 4):
            v = ltp3_moment(params, n)
            assert 0.0 < v <= 1.0
    # Moments within rounding of 1, which the series once put at 1 + 3e-15.
    for params, n in ((Pearson3Params(40.0, 0.05, -1.0), 1),
                      (Pearson3Params(40.0, 0.3, -1.0), 2)):
        assert 0.0 < ltp3_moment(params, n) <= 1.0
    # Tiny b < 0 moments, where the binomial reflection cancels: it once gave
    # -1.1e-15 and 2.2e-16 here. Only the absolute error is bounded so far.
    for params, n in ((Pearson3Params(40.0, -1.5, -1.0), 4),
                      (Pearson3Params(10.0, -0.05, 0.0), 2)):
        v = ltp3_moment(params, n)
        assert 0.0 <= v <= 1.0
        assert abs(v - _moment_by_gamma_quadrature(params, n)) <= 1e-15


def _moment_by_gamma_quadrature(params, n):
    # E[logistic(m + G/b)^n] over the gamma variable G of shape a, rate 1,
    # cut where the gamma density has fallen below e^-100 of its peak
    a, b, m = params.a, params.b, params.m
    ref, _ = quad(
        lambda g: expit(m + g / b) ** n
        * math.exp((a - 1.0) * math.log(g) - g - math.lgamma(a)),
        0.0, a + 20.0 * math.sqrt(a) + 100.0, points=[abs(b), 1.0, a], limit=300,
    )
    return ref


def test_mean_closed():
    assert ltp3_mean_closed(Pearson3Params(1.0, 1.0, 0.0)) == pytest.approx(
        math.log(2.0), abs=1e-10
    )
    assert ltp3_mean_closed(Pearson3Params(1.0, 1.0, 30.0)) == pytest.approx(
        1.0, abs=1e-9
    )
    with pytest.raises(DomainError):
        ltp3_mean_closed(Pearson3Params(1.0, -1.0, 0.0))
    with pytest.raises(DomainError):
        ltp3_mean_closed(Pearson3Params(1.0, 1.0, -0.5))


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("b", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("m", [0.0, 0.5, 2.0])
def test_mean_closed_vs_series_grid(a, b, m):
    p = Pearson3Params(a, b, m)
    assert ltp3_mean_closed(p) == pytest.approx(ltp3_moment(p, 1), abs=1e-9)


def test_second_moment_closed():
    p = Pearson3Params(2.0, 1.5, 0.0)
    closed = ltp3_second_moment_closed(p)
    assert closed == pytest.approx(ltp3_moment(p, 2), abs=1e-9)
    assert closed >= ltp3_mean_closed(p) ** 2  # variance nonnegativity
    # a <= 1 falls back to the series
    p1 = Pearson3Params(1.0, 1.5, 0.0)
    assert ltp3_second_moment_closed(p1) == pytest.approx(
        ltp3_moment(p1, 2), abs=1e-12
    )
    with pytest.raises(DomainError):
        ltp3_second_moment_closed(Pearson3Params(2.0, -1.0, 0.0))


def test_second_moment_closed_vs_mc():
    p = Pearson3Params(3.0, 2.0, 1.0)
    z = _logistic(p3_sample(p, 23, 500_000))
    emp, se = empirical_moment(z, 2)
    assert abs(ltp3_second_moment_closed(p) - emp) < 3.0 * se


def test_logit_gamma_delegations():
    # median of the logit exponential
    assert logit_gamma_cdf(1.0, 1.0, 2.0 / 3.0) == pytest.approx(0.5, rel=1e-12)
    assert logit_gamma_pdf(2.0, 1.5, 0.75) == pytest.approx(
        ltp3_pdf(Pearson3Params(2.0, 1.5, 0.0), 0.75), rel=0
    )
    assert logit_gamma_moment(1.0, 1.0, 1) == pytest.approx(math.log(2.0), abs=1e-10)
    with pytest.raises(DomainError):
        logit_gamma_cdf(1.0, -1.0, 0.6)
