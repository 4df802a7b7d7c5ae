"""The logit Pearson type III distribution: Z = 1 / (1 + exp(-X)).

Support is (logistic(m), 1) for b > 0 and (0, logistic(m)) for b < 0.
The density and CDF are `pearson3.evaluate` through the logit map `LOGIT`.
Moments of either sign of b are one positive integral of logistic(X)^n
against the law, `series.expect`, which takes a `sums.SumSpec` mixture as
well. The paper's closed forms of the first and second moments in terms of
the Lerch transcendent (b > 0, m >= 0) keep their names and domain, and
take that same integral. The logit gamma distribution is the b > 0, m = 0
special case.
"""

import math

import numpy as np
from scipy.special import expit

from .errors import DomainError
from .pearson3 import Pearson3Params, Transform, evaluate
from .series import expect

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
    """Open support of Z = logistic(X), the law's through the logistic."""
    return tuple(map(_logistic, params.support()))


# z = 1/(1 + e^-x): x - m = ln(z/(1-z)) - m, and ln(dz/dx) = ln(z (1 - z))
LOGIT = Transform((0.0, 1.0), lambda z, m: np.log(z / (1.0 - z)) - m,
                  lambda z: np.log(z * (1.0 - z)))


def ltp3_cdf(params: Pearson3Params, z):
    """CDF at z in (0, 1) (a float or an array of them): the base CDF at
    logit(z); saturates at the support edges."""
    return evaluate(params, LOGIT, z)


def ltp3_pdf(params: Pearson3Params, z):
    """Density |b| e^(bm)/Gamma(a) (b(logit z - m))^(a-1) z^(-b-1) (1-z)^(b-1)
    at interior points z (a float or an array of them)."""
    return evaluate(params, LOGIT, z, density=True)


def ltp3_moment(params: Pearson3Params, n: int) -> float:
    """Raw moment E[Z^n], for either sign of b.

    `series.expect` of logistic(x)^n at x = m + sign(b) g over the offsets
    g into the support. `params` may also be any law that `series.expect`
    takes, such as a `sums.SumSpec`.
    """
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    if n == 0:
        return 1.0
    lo, hi = params.support()
    edge, sign = (lo, 1.0) if hi == math.inf else (hi, -1.0)
    # Z lies in (0, 1): rounding in the quadrature may not push E[Z^n] past 1.
    return min(expect(params, lambda g: expit(edge + sign * g) ** n), 1.0)


def ltp3_mean_closed(params: Pearson3Params) -> float:
    """Closed-form mean b^a * Phi(-e^(-m), a, b); requires b > 0 and m >= 0.

    With b^a cancelled against the Lerch factor b^(-a) it is the integral
    that `ltp3_moment` takes for n = 1.
    """
    if params.b <= 0 or params.m < 0:
        raise DomainError(
            f"closed-form mean requires b > 0 and m >= 0, got b={params.b}, m={params.m}"
        )
    return ltp3_moment(params, 1)


def ltp3_second_moment_closed(params: Pearson3Params) -> float:
    """Closed-form second moment
    b^a (Phi(-e^(-m), a-1, b) - (b-1) Phi(-e^(-m), a, b)); requires b > 0
    and m >= 0.

    It is E[logistic(X)^2], the integral that `ltp3_moment` takes for
    n = 2: a positive integrand, where the difference of the two Lerch
    terms would cancel about b-fold.
    """
    if params.b <= 0 or params.m < 0:
        raise DomainError(
            f"closed-form second moment requires b > 0 and m >= 0, "
            f"got b={params.b}, m={params.m}"
        )
    return ltp3_moment(params, 2)


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
