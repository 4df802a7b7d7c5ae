"""The base Pearson type III distribution.

A three-parameter generalization of the gamma distribution: shape ``a > 0``,
inverse scale ``b != 0`` and shift ``m``. For ``b > 0`` the support is
``(m, inf)``; for ``b < 0`` it is ``(-inf, m)`` (a mirrored gamma).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, xlogy

from .errors import DomainError, SupportError
from .specfun import ln_gamma, pochhammer

__all__ = [
    "Pearson3Params",
    "p3_pdf",
    "p3_cdf",
    "p3_moment",
    "p3_char_fn",
    "p3_scale",
    "p3_sample",
]


@dataclass(frozen=True)
class Pearson3Params:
    """Parameter triple (shape a, inverse scale b, shift m)."""

    a: float
    b: float
    m: float = 0.0

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError(f"shape a must be positive, got a={self.a}")
        if self.b == 0:
            raise DomainError("inverse scale b must be nonzero")

    def support(self):
        """Open support interval (lo, hi)."""
        if self.b > 0:
            return (self.m, math.inf)
        return (-math.inf, self.m)

    def contains(self, x: float) -> bool:
        """True when x lies strictly inside the support."""
        lo, hi = self.support()
        return lo < x < hi


def p3_pdf(params: Pearson3Params, x):
    """Density at interior points x (a float or an array of them).

    Raises SupportError if any point lies outside or on the boundary of the
    open support, where the density is not defined. A scalar x gives a
    float, an array the array of values.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = params.support()
    outside = ~((lo < x) & (x < hi))
    if outside.any():
        raise SupportError(
            f"x={x[outside][0]} is outside the open support {params.support()} of {params}"
        )
    u = params.b * (x - params.m)  # positive on both support branches
    out = np.exp(
        math.log(abs(params.b)) + xlogy(params.a - 1.0, u) - u - ln_gamma(params.a)
    )
    return out if out.ndim else float(out)


def p3_cdf(params: Pearson3Params, x):
    """Distribution function at x (a float or an array of them); saturates
    to 0/1 outside the open support."""
    x = np.asarray(x, dtype=float)
    u = np.maximum(params.b * (x - params.m), 0.0)
    out = gammainc(params.a, u) if params.b > 0 else gammaincc(params.a, u)
    return out if out.ndim else float(out)


def p3_moment(params: Pearson3Params, n: int) -> float:
    """Raw moment E[X^n] = sum_k C(n,k) m^(n-k) (a)_k / b^k."""
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    return math.fsum(
        math.comb(n, k) * params.m ** (n - k) * pochhammer(params.a, k) / params.b ** k
        for k in range(n + 1)
    )


def p3_char_fn(params: Pearson3Params, t: float) -> complex:
    """Characteristic function exp(j m t) / (1 - j t / b)^a (principal branch)."""
    return np.exp(1j * params.m * t) / (1.0 - 1j * t / params.b) ** params.a


def p3_scale(params: Pearson3Params, c: float) -> Pearson3Params:
    """Parameters of c*X: (a, b/c, m*c). c must be nonzero."""
    if c == 0:
        raise DomainError("scaling by c=0 gives a degenerate distribution")
    return Pearson3Params(params.a, params.b / c, params.m * c)


def p3_sample(params: Pearson3Params, rng_seed: int, count: int) -> np.ndarray:
    """Deterministic i.i.d. draws: m + sign(b) * Gamma(a, rate |b|)."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(rng_seed)
    g = rng.gamma(shape=params.a, scale=1.0 / abs(params.b), size=count)
    return params.m + math.copysign(1.0, params.b) * g
