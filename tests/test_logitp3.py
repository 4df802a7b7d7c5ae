"""Logit-transform distribution tests."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

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

from properties import PROPERTY_SETTINGS, members


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
    # b < -1 at a subnormal z, where the density of X = logit z underflows:
    # mpmath at 50 digits
    assert ltp3_pdf(Pearson3Params(1.0, -1.05, 0.0), 1e-310) == pytest.approx(
        3.3203915431766927e-16, rel=1e-13, abs=0
    )
    assert ltp3_pdf(Pearson3Params(2.5, -1.3, 0.4), 1e-310) == pytest.approx(
        1.6448264339005185e-89, rel=1e-13, abs=0
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
    # a shift of -1e-300 puts T = 1e-300 between the two pieces
    assert ltp3_moment(Pearson3Params(10.0, 1.0, -1e-300), 1) == pytest.approx(
        ltp3_moment(Pearson3Params(10.0, 1.0, 0.0), 1), rel=1e-15
    )


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
    # Tiny b < 0 moments, where a binomial reflection over b > 0 series
    # cancels: it once gave -1.1e-15 and 2.2e-16 here. References: the
    # one-sided series in mpmath.
    for params, n, ref in ((Pearson3Params(40.0, -1.5, -1.0), 4, 4.910952298984793e-25),
                           (Pearson3Params(10.0, -0.05, 0.0), 2, 7.19136763782913e-17)):
        assert ltp3_moment(params, n) == pytest.approx(ref, rel=1e-12, abs=0)


def test_moment_with_overflowing_prefactors():
    # T = -m b = 167.65 and a = 140: T^a alone is beyond double range. The
    # sum of 16 shape-8 terms at rates 1 + 0.05i, centred on 0, needs such
    # moments. Reference: 40-digit quadrature over the gamma variable.
    assert ltp3_moment(Pearson3Params(140.0, 1.75, -95.8), 1) == pytest.approx(
        0.015255064362163265, rel=1e-12
    )


def _moment_reference(params, n):
    """E[Z^n] at 20 digits without the library's series.

    When T = -m b <= 0 the support lies on one side of X = 0 and the
    reference is the one-sided series sum_l (-1)^l C(n+l-1, l) e^(cm)
    (1 - c/b)^(-a), with c = -l (b > 0) or n + l (b < 0), summed by
    mpmath. Otherwise it is quadrature over the gamma variable G, split at
    T, with breakpoints around the tilted modes (a-1)/r of the two sides
    (rates r = 1 and 1 - n/b) and past T in steps of |b|; a second
    breakpoint set must agree with the first. mpmath stops on an absolute
    tolerance, so the terms and the integrand are scaled to order 1 first.
    """
    with mp.workdps(20):
        a, b, m = mp.mpf(params.a), mp.mpf(params.b), mp.mpf(params.m)
        T = -m * b
        if T <= 0:
            def log_term(l):
                c = -l if b > 0 else n + l
                return mp.log(mp.binomial(n + l - 1, l)) + c * m - a * mp.log1p(-c / b)
            first = log_term(0)
            return float(mp.exp(first) * mp.nsum(
                lambda l: (-1) ** l * mp.exp(log_term(l) - first), [0, mp.inf]))

        def log_zn(g):
            return -n * mp.log1p(mp.exp(-(m + g / b)))

        def log_g_integrand(g):  # over g, without the 1/Gamma(a)
            return log_zn(g) + (a - 1) * mp.log(g) - g

        def log_u_integrand(u):  # over u = g^a, without the 1/(a Gamma(a))
            return log_zn(u ** (1 / a)) - u ** (1 / a)

        values = []
        for steps in ((-6, -3, -1, 0, 1, 3, 6, 12, 24, 48),
                      (-5, -2, -0.5, 0.5, 2, 4.5, 9, 18, 36)):
            pts = {mp.mpf(1)} | {T + k * abs(b) for k in steps if k >= 0}
            for rate in (mp.mpf(1), 1 - n / b):
                if rate > 0:
                    pts.update(max(a - 1, 0) / rate + k * mp.sqrt(a) / rate for k in steps)
            pts = sorted(p for p in pts if p > 0)
            if a <= 1:
                # g = u^(1/a) on [0, 1] takes out the g^(a-1) singularity at 0
                pieces = [(log_u_integrand, [0] + [p ** a for p in pts if p <= 1], 1 / a),
                          (log_g_integrand, [p for p in pts if p >= 1] + [mp.inf], 1)]
            else:
                pieces = [(log_g_integrand, [0] + pts + [mp.inf], 1)]
            total = 0
            for log_h, nodes, weight in pieces:
                scale = max(log_h(x) for x in nodes if x != mp.inf)
                total += weight * mp.exp(scale) * mp.quad(lambda x: mp.exp(log_h(x) - scale), nodes)
            values.append(total / mp.gamma(a))
        assert abs(values[0] - values[1]) <= 1e-14 * abs(values[0])
        return float(values[0])


@PROPERTY_SETTINGS
@given(params=members, n=st.integers(1, 4))
def test_moment_property_vs_mpmath(params, n):
    value = ltp3_moment(params, n)
    assert value == pytest.approx(
        _moment_reference(params, n), rel=1e-12 if n <= 2 else 1e-9, abs=1e-300
    )
    # Z lies in (0, 1), so E[Z^n] does not increase with n
    moments = [ltp3_moment(params, k) for k in range(1, 5)]
    assert all(0.0 <= v <= 1.0 for v in moments)
    assert all(hi <= lo * (1.0 + 1e-9) for lo, hi in zip(moments, moments[1:]))


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
