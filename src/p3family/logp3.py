"""The log Pearson type III distribution: Y = exp(X).

Support is (e^m, inf) for b > 0 and (0, e^m) for b < 0. Moments require
b > n when b is positive; the formal-power-series characteristic function
is valid only for b < 0.
"""

import math

import numpy as np
from scipy.special import xlogy

from .errors import DomainError, MomentDivergenceError, SupportError
from .pearson3 import Pearson3Params, p3_cdf
from .series import DEFAULT_CONTROL, SeriesControl, sum_series
from .specfun import ln_gamma

__all__ = ["lp3_pdf", "lp3_cdf", "lp3_moment", "lp3_char_fn_series", "lp3_support"]


def lp3_support(params: Pearson3Params):
    """Open support of Y = exp(X)."""
    if params.b > 0:
        return (math.exp(params.m), math.inf)
    return (0.0, math.exp(params.m))


def lp3_pdf(params: Pearson3Params, y):
    """Density |b| e^(b m) / Gamma(a) * (b (ln y - m))^(a-1) * y^(-b-1) at
    interior points y (a float or an array of them)."""
    y = np.asarray(y, dtype=float)
    lo, hi = lp3_support(params)
    outside = ~((lo < y) & (y < hi))
    if outside.any():
        raise SupportError(
            f"y={y[outside][0]} is outside the open support ({lo}, {hi}) of {params}"
        )
    log_y = np.log(y)
    u = params.b * (log_y - params.m)
    out = np.exp(
        math.log(abs(params.b))
        + params.b * params.m
        + xlogy(params.a - 1.0, u)
        - (params.b + 1.0) * log_y
        - ln_gamma(params.a)
    )
    return out if out.ndim else float(out)


def lp3_cdf(params: Pearson3Params, y):
    """CDF of Y = exp(X): the base CDF evaluated at ln y."""
    y = np.asarray(y, dtype=float)
    bad = y <= 0
    if bad.any():
        raise DomainError(f"lp3_cdf requires y > 0, got y={y[bad][0]}")
    return p3_cdf(params, np.log(y))


def lp3_moment(params: Pearson3Params, n: int) -> float:
    """Raw moment e^(m n) (b / (b - n))^a; requires b > n when b > 0."""
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    if n == 0:
        return 1.0
    if params.b > 0 and params.b <= n:
        raise MomentDivergenceError(
            f"moment of order n={n} diverges: requires b > n, got b={params.b}"
        )
    return math.exp(params.m * n) * (params.b / (params.b - n)) ** params.a


def lp3_char_fn_series(params: Pearson3Params, t: float,
                       ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Formal power series sum_n (j t)^n / n! * e^(m n) (b/(b-n))^a.

    Valid only for b < 0 (every moment exists there); term ratios vanish,
    so plain truncation suffices.
    """
    if params.b >= 0:
        raise DomainError(
            f"series characteristic function requires b < 0, got b={params.b}"
        )

    def _terms():
        c = complex(1.0)  # (j t)^n e^(m n) / n!
        n = 0
        while True:
            yield c * (params.b / (params.b - n)) ** params.a
            n += 1
            c *= 1j * t * math.exp(params.m) / n

    return sum_series(_terms(), ctl)
