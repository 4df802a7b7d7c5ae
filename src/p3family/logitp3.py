"""The logit Pearson type III distribution: Z = 1 / (1 + exp(-X)).

Support is (logistic(m), 1) for b > 0 and (0, logistic(m)) for b < 0.
Moments for b > 0 come from an alternating series (with an incomplete
gamma split when m < 0); the first and second moments also have closed
forms in terms of the Lerch transcendent when m >= 0. Moments for b < 0
are obtained by the exact reflection Z = 1 - Z' with Z' the mirrored
(b > 0) variate. The logit gamma distribution is the b > 0, m = 0 special
case.
"""

import math

import numpy as np
from scipy.special import xlogy

from .errors import DomainError, SupportError
from .pearson3 import Pearson3Params, p3_cdf
from .series import DEFAULT_CONTROL, SeriesControl, sum_alternating
from .specfun import (
    gamma_integral_lower_scaled,
    gamma_integral_upper_scaled,
    lerch_phi,
    ln_gamma,
    neg_binom_coeff,
    reg_lower_gamma,
)

__all__ = [
    "ltp3_support",
    "ltp3_cdf",
    "ltp3_pdf",
    "ltp3_moment",
    "ltp3_mean_closed",
    "ltp3_second_moment_closed",
    "logit_gamma_cdf",
    "logit_gamma_pdf",
    "logit_gamma_moment",
]


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def ltp3_support(params: Pearson3Params):
    """Open support of Z = logistic(X)."""
    mid = _logistic(params.m)
    if params.b > 0:
        return (mid, 1.0)
    return (0.0, mid)


def _check_unit_interval(name: str, z):
    bad = ~((0.0 < z) & (z < 1.0))
    if bad.any():
        raise DomainError(f"{name} requires z in (0, 1), got z={z[bad][0]}")


def ltp3_cdf(params: Pearson3Params, z):
    """CDF at z (a float or an array of them): the base CDF at logit(z);
    saturates at the support edges."""
    z = np.asarray(z, dtype=float)
    _check_unit_interval("ltp3_cdf", z)
    return p3_cdf(params, np.log(z / (1.0 - z)))


def ltp3_pdf(params: Pearson3Params, z):
    """Density |b| e^(bm)/Gamma(a) (b(logit z - m))^(a-1) z^(-b-1) (1-z)^(b-1)
    at interior points z (a float or an array of them)."""
    z = np.asarray(z, dtype=float)
    _check_unit_interval("ltp3_pdf", z)
    lo, hi = ltp3_support(params)
    outside = ~((lo < z) & (z < hi))
    if outside.any():
        raise SupportError(
            f"z={z[outside][0]} is outside the open support ({lo}, {hi}) of {params}"
        )
    u = params.b * (np.log(z / (1.0 - z)) - params.m)
    out = np.exp(
        math.log(abs(params.b))
        + params.b * params.m
        + xlogy(params.a - 1.0, u)
        - (params.b + 1.0) * np.log(z)
        + (params.b - 1.0) * np.log1p(-z)
        - ln_gamma(params.a)
    )
    return out if out.ndim else float(out)


def _moment_series_pos_shift(params: Pearson3Params, n: int, ctl: SeriesControl) -> float:
    # b > 0, m >= 0: sum_l C(n+l-1, l) (-1)^l e^(-m l) (1 + l/b)^(-a)
    a, b, m = params.a, params.b, params.m

    def _terms():
        l = 0
        while True:
            yield (
                neg_binom_coeff(n, l)
                * (-1.0) ** l
                * math.exp(-m * l)
                * (1.0 + l / b) ** (-a)
            )
            l += 1

    return sum_alternating(_terms(), ctl)


def _moment_series_neg_shift(params: Pearson3Params, n: int, ctl: SeriesControl) -> float:
    # b > 0, m < 0: two-piece incomplete-gamma form, split at T = -m b.
    # Written via the exponentially scaled truncated integrals: the exp
    # factors of both pieces collapse to the l-independent e^(m b), so the
    # terms never overflow however deep the series runs. For a positive
    # lower rate s, e^(m b) e^(s T) = e^((n+l) m) exactly and the lower
    # piece is e^((n+l) m) s^(-a) P(a, s T): one exponential, which stays
    # finite where e^(s T) alone would overflow.
    a, b, m = params.a, params.b, params.m
    T = -m * b
    front = math.exp(m * b - ln_gamma(a))

    def _terms():
        l = 0
        while True:
            s = 1.0 - (n + l) / b
            if s > 0:
                lower = math.exp((n + l) * m - a * math.log(s)) * reg_lower_gamma(a, s * T)
            else:
                lower = front * gamma_integral_lower_scaled(a, s, T)
            upper = front * gamma_integral_upper_scaled(a, 1.0 + l / b, T)
            yield neg_binom_coeff(n, l) * (-1.0) ** l * (lower + upper)
            l += 1

    return sum_alternating(_terms(), ctl)


def ltp3_moment(params: Pearson3Params, n: int,
                ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Raw moment E[Z^n].

    For b > 0 this is the alternating series (m >= 0) or its split
    incomplete-gamma form (m < 0). For b < 0 the mirror identity
    Z = 1 - Z', with Z' logit-Pearson III of parameters (a, -b, -m), is
    expanded binomially.
    """
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    if n == 0:
        return 1.0
    if params.b < 0:
        mirrored = Pearson3Params(params.a, -params.b, -params.m)
        value = math.fsum(
            math.comb(n, k) * (-1.0) ** k * ltp3_moment(mirrored, k, ctl)
            for k in range(n + 1)
        )
    elif params.m >= 0:
        value = _moment_series_pos_shift(params, n, ctl)
    else:
        value = _moment_series_neg_shift(params, n, ctl)
    # Z lies in (0, 1): rounding in the series, or cancellation in the
    # reflection, may not push E[Z^n] past it.
    return min(max(value, 0.0), 1.0)


def ltp3_mean_closed(params: Pearson3Params,
                     ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Closed-form mean b^a * Phi(-e^(-m), a, b); requires b > 0 and m >= 0."""
    if params.b <= 0 or params.m < 0:
        raise DomainError(
            f"closed-form mean requires b > 0 and m >= 0, got b={params.b}, m={params.m}"
        )
    return params.b ** params.a * lerch_phi(-math.exp(-params.m), params.a, params.b, ctl)


def ltp3_second_moment_closed(params: Pearson3Params,
                              ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Closed-form second moment
    b^a (Phi(-e^(-m), a-1, b) - (b-1) Phi(-e^(-m), a, b)).

    Requires b > 0 and m >= 0. For a <= 1 the Phi(., a-1, .) term leaves
    the Lerch evaluator's domain, so the series moment is used instead.
    """
    if params.b <= 0 or params.m < 0:
        raise DomainError(
            f"closed-form second moment requires b > 0 and m >= 0, "
            f"got b={params.b}, m={params.m}"
        )
    if params.a <= 1:
        return ltp3_moment(params, 2, ctl)
    z = -math.exp(-params.m)
    return params.b ** params.a * (
        lerch_phi(z, params.a - 1.0, params.b, ctl)
        - (params.b - 1.0) * lerch_phi(z, params.a, params.b, ctl)
    )


def logit_gamma_cdf(a: float, b: float, z: float) -> float:
    """Logit gamma CDF: the b > 0, m = 0 member; support (0.5, 1)."""
    _check_logit_gamma(a, b)
    return ltp3_cdf(Pearson3Params(a, b, 0.0), z)


def logit_gamma_pdf(a: float, b: float, z: float) -> float:
    """Logit gamma density."""
    _check_logit_gamma(a, b)
    return ltp3_pdf(Pearson3Params(a, b, 0.0), z)


def logit_gamma_moment(a: float, b: float, n: int,
                       ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Logit gamma raw moment."""
    _check_logit_gamma(a, b)
    return ltp3_moment(Pearson3Params(a, b, 0.0), n, ctl)


def _check_logit_gamma(a: float, b: float):
    if a <= 0 or b <= 0:
        raise DomainError(f"logit gamma requires a > 0 and b > 0, got a={a}, b={b}")
