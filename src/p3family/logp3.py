"""The log Pearson type III distribution: Y = exp(X).

Support is (e^m, inf) for b > 0 and (0, e^m) for b < 0. The density and
CDF are `pearson3.evaluate` through the log map `LOG`. Moments require
b > n when b is positive; the formal-power-series characteristic function
is valid only for b < 0.
"""

import math

import numpy as np

from .errors import DomainError, MomentDivergenceError
from .pearson3 import Pearson3Params, Transform, evaluate
from .series import sum_series

__all__ = ["lp3_pdf", "lp3_cdf", "lp3_moment", "lp3_char_fn_series", "lp3_support"]

# y = e^x: x - m = ln y - m, and dy/dx = y
LOG = Transform((0.0, math.inf), lambda y, m: np.log(y) - m, lambda y: y)


def lp3_support(params: Pearson3Params):
    """Open support of Y = exp(X); DomainError where e^m overflows."""
    edge = _exp(params.m)
    return (edge, math.inf) if params.b > 0 else (0.0, edge)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"e^{x} exceeds the double range") from None


def lp3_pdf(params: Pearson3Params, y):
    """Density |b| e^(b m) / Gamma(a) * (b (ln y - m))^(a-1) * y^(-b-1) at
    interior points y (a float or an array of them)."""
    return evaluate(params, LOG, y, density=True)


def lp3_cdf(params: Pearson3Params, y):
    """CDF of Y = exp(X) at y > 0 (a float or an array): the base CDF at ln y."""
    return evaluate(params, LOG, y)


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
    try:
        value = math.exp(params.m * n) * (params.b / (params.b - n)) ** params.a
    except OverflowError:  # a factor overflows: the product in log space
        value = _exp(params.m * n + params.a * math.log(params.b / (params.b - n)))
    if not math.isfinite(value):  # m n overflows, or the product does
        raise DomainError(f"moment of order n={n} of {params} exceeds the double range")
    return value


def lp3_char_fn_series(params: Pearson3Params, t: float) -> complex:
    """Formal power series sum_n (j t)^n / n! * e^(m n) (b/(b-n))^a.

    Valid only for b < 0 (every moment exists there); term ratios vanish,
    so plain truncation suffices.
    """
    if params.b >= 0:
        raise DomainError(
            f"series characteristic function requires b < 0, got b={params.b}"
        )

    step = 1j * t * _exp(params.m)

    def _terms():
        c = complex(1.0)  # (j t)^n e^(m n) / n!
        n = 0
        while True:
            yield c * (params.b / (params.b - n)) ** params.a
            n += 1
            c *= step / n

    return sum_series(_terms())
