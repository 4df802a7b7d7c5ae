"""The logit Pearson type III distribution: Z = 1 / (1 + exp(-X)).

Support is (logistic(m), 1) for b > 0 and (0, logistic(m)) for b < 0.
The density and CDF are `pearson3.evaluate` through the logit map `LOGIT`.
Moments of either sign of b come from one alternating series, split where
X changes sign: Z^n is expanded in powers of e^(-X) on X > 0 and of e^X on
X < 0, and each side is a truncated gamma integral. The first and second
moments also have closed forms in terms of the Lerch transcendent when
b > 0 and m >= 0. The logit gamma distribution is the b > 0, m = 0 special
case.
"""

import math
from itertools import count

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import DomainError
from .pearson3 import Pearson3Params, Transform, evaluate
from .series import sum_alternating
from .specfun import (
    gamma_integral_lower_scaled,
    gamma_integral_upper_scaled,
    lerch_phi,
    ln_gamma,
    neg_binom_coeff,
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


# z = 1/(1 + e^-x): x - m = ln(z/(1-z)) - m, and dz/dx = z (1 - z)
LOGIT = Transform((0.0, 1.0), lambda z, m: np.log(z / (1.0 - z)) - m, lambda z: z * (1.0 - z))


def ltp3_cdf(params: Pearson3Params, z):
    """CDF at z in (0, 1) (a float or an array of them): the base CDF at
    logit(z); saturates at the support edges."""
    return evaluate(params, LOGIT, z)


def ltp3_pdf(params: Pearson3Params, z):
    """Density |b| e^(bm)/Gamma(a) (b(logit z - m))^(a-1) z^(-b-1) (1-z)^(b-1)
    at interior points z (a float or an array of them)."""
    return evaluate(params, LOGIT, z, density=True)


def _moment_series(params: Pearson3Params, n: int) -> float:
    # E[Z^n] with X = m + G/b, G ~ Gamma(a, 1), split at X = 0, which is
    # G = T = -m b. Z^n = sum_l C(n+l-1, l) (-1)^l e^(cX), with c = -l on
    # X > 0 and c = n + l on X < 0. A side over [u, v] in G contributes
    # e^(cm) / Gamma(a) int_u^v g^(a-1) e^(-s g) dg, s = 1 - c/b. [T, inf)
    # is the side X > 0 for b > 0 and X < 0 for b < 0; [0, T] is the other.
    a, b, m = params.a, params.b, params.m
    T = -m * b
    positive, negative = count(0, -1), count(n)  # c for l = 0, 1, ...
    upper, lower = (positive, negative) if b > 0 else (negative, positive)
    if T <= 0:
        # the whole support lies in [T, inf): e^(cm) s^(-a), one exp a term
        terms = (neg_binom_coeff(n, l) * (-1.0) ** l * math.exp(c * m - a * math.log1p(-c / b))
                 for l, c in enumerate(upper))
        return sum_alternating(terms)
    # e^(cm - sT) = e^(-T) for every c, so a piece is also e^(-T) T^a / Gamma(a)
    # times the scaled integral over [0, 1] or [1, inf) at rate sT: the form
    # used for s <= 0 and where e^(cm) s^(-a) P(a, sT) (or Q) underflows.
    front = math.exp(a * math.log(T) - T - ln_gamma(a))

    def _piece(c, above):
        s = 1.0 - c / b
        sT = s * T
        if s > 0:
            # e^(cm) = e^(sT - T). Above T the second form lets the rounding
            # of sT cancel against Q(a, sT), which falls like e^(-sT).
            p = float(gammaincc(a, sT) if above else gammainc(a, sT))
            if p > 0:
                return math.exp((sT - T if above else c * m) - a * math.log(s) + math.log(p))
        scaled = gamma_integral_upper_scaled if above else gamma_integral_lower_scaled
        return front * scaled(a, sT, 1.0)

    terms = (neg_binom_coeff(n, l) * (-1.0) ** l * (_piece(cl, False) + _piece(cu, True))
             for l, cl, cu in zip(count(), lower, upper))
    return sum_alternating(terms)


def ltp3_moment(params: Pearson3Params, n: int) -> float:
    """Raw moment E[Z^n], for either sign of b.

    One alternating series of truncated gamma integrals, split where X
    changes sign: Z^n is expanded in e^(-X) for X > 0 and in e^X for
    X < 0. When the support of X lies on one side of 0 each term is a
    single exponential; otherwise it is a lower and an upper incomplete
    gamma piece.
    """
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    if n == 0:
        return 1.0
    # Z lies in (0, 1): rounding in the series may not push E[Z^n] past it.
    return min(max(_moment_series(params, n), 0.0), 1.0)


def ltp3_mean_closed(params: Pearson3Params) -> float:
    """Closed-form mean b^a * Phi(-e^(-m), a, b); requires b > 0 and m >= 0."""
    if params.b <= 0 or params.m < 0:
        raise DomainError(
            f"closed-form mean requires b > 0 and m >= 0, got b={params.b}, m={params.m}"
        )
    return params.b ** params.a * lerch_phi(-math.exp(-params.m), params.a, params.b)


def ltp3_second_moment_closed(params: Pearson3Params) -> float:
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
        return ltp3_moment(params, 2)
    z = -math.exp(-params.m)
    return params.b ** params.a * (
        lerch_phi(z, params.a - 1.0, params.b)
        - (params.b - 1.0) * lerch_phi(z, params.a, params.b)
    )


def logit_gamma_cdf(a: float, b: float, z: float) -> float:
    """Logit gamma CDF: the b > 0, m = 0 member; support (0.5, 1)."""
    _check_logit_gamma(a, b)
    return ltp3_cdf(Pearson3Params(a, b, 0.0), z)


def logit_gamma_pdf(a: float, b: float, z: float) -> float:
    """Logit gamma density."""
    _check_logit_gamma(a, b)
    return ltp3_pdf(Pearson3Params(a, b, 0.0), z)


def logit_gamma_moment(a: float, b: float, n: int) -> float:
    """Logit gamma raw moment."""
    _check_logit_gamma(a, b)
    return ltp3_moment(Pearson3Params(a, b, 0.0), n)


def _check_logit_gamma(a: float, b: float):
    if a <= 0 or b <= 0:
        raise DomainError(f"logit gamma requires a > 0 and b > 0, got a={a}, b={b}")
