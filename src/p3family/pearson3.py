"""The base Pearson type III distribution.

A three-parameter generalization of the gamma distribution: shape ``a > 0``,
inverse scale ``b != 0`` and shift ``m``. For ``b > 0`` the support is
``(m, inf)``; for ``b < 0`` it is ``(-inf, m)`` (a mirrored gamma).

Every pdf and CDF of the library is one evaluator, `evaluate`: a law (this
one, or a `sums.SumSpec` mixture of them) seen through a monotone
`Transform` y(x), here the identity, in `logp3` and `logitp3` the log and
logit maps, in `wpt` the harvested power.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincc, poch, xlogy

from .errors import DomainError, SupportError

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
        if not (0 < self.a < math.inf and 0 < abs(self.b) < math.inf and abs(self.m) < math.inf):
            raise DomainError(f"a law needs finite a > 0, b != 0 and m, got {self}")

    def support(self):
        """Open support interval (lo, hi)."""
        if self.b > 0:
            return (self.m, math.inf)
        return (-math.inf, self.m)

    def contains(self, x: float) -> bool:
        """True when x lies strictly inside the support."""
        lo, hi = self.support()
        return lo < x < hi

    def mean_offset(self, rate=None) -> float:
        """Mean offset E|X - m| = a/|b| of X from the support edge; a/rate
        for the law rescaled to inverse scale `rate` (`at_offsets`)."""
        return self.a / (abs(self.b) if rate is None else rate)

    def draw_into(self, rng, out):
        """Fill the float64 array `out` in place with i.i.d. draws from the
        numpy Generator `rng` and return it. They are the draws of
        m + sign(b) rng.gamma(a, 1/|b|), from the same stream and to the last
        bit: rng.gamma scales a standard gamma draw by 1/|b|, and g + m and
        -g + m are m + g and m - g."""
        rng.standard_gamma(self.a, out.size, out=out)
        out *= 1.0 / abs(self.b)
        if self.b < 0:
            np.negative(out, out=out)
        out += self.m
        return out

    def at_offsets(self, g, density=False, slope=1.0, rate=None):
        """CDF, or with `density` the density of y(X) where dy/dx = `slope`,
        at offsets g = sign(b)(x - m) into the support: g >= 0 for the CDF,
        0 < g < inf for the density. ln(slope) enters the exponent, so that
        the density of y keeps its digits where that of X leaves double range.
        A `rate` (a float or an array broadcast against g) stands for |b|:
        the law of X rescaled to that inverse scale, whose density is that
        of the law built at it to the last bit."""
        u = (abs(self.b) if rate is None else rate) * g
        if density:
            log_rate = math.log(abs(self.b)) if rate is None else _log(rate)
            return np.exp(log_rate + xlogy(self.a - 1.0, u) - u - math.lgamma(self.a)
                          - np.log(slope))
        return gammainc(self.a, u) if self.b > 0 else gammaincc(self.a, u)


def _log(x):
    """math.log of each distinct value of the array x. numpy's vector log
    may round a value apart from it, and a law rescaled to a rate is to have
    the density of the law built at that rate."""
    values, where = np.unique(x, return_inverse=True)
    return np.array([math.log(v) for v in values.tolist()])[where].reshape(np.shape(x))


class Transform(NamedTuple):
    """A monotone map y(x) of the variable x of a law, as `evaluate` uses it.

    domain: the open interval (lo, hi) of the points y the map takes, an
        infinite hi admitting y = inf; None for every point.
    offset: offset(y, m) = x(y) - m, formed from y directly, so that it
        keeps its digits near the support edge x = m.
    slope: slope(y) = dy/dx, the Jacobian by which a density of x becomes
        one of y.
    """

    domain: tuple | None
    offset: Callable
    slope: Callable


IDENTITY = Transform(None, lambda x, m: x - m, lambda x: 1.0)


def evaluate(law, transform: Transform, y, density=False, rate=None):
    """CDF, or with `density` the density, of y(X) at points y (a float or
    an array of them), where X follows `law`, a Pearson3Params or a
    `sums.SumSpec`, and y(x) is `transform`.

    Raises DomainError for a point outside the transform's domain and, for
    a density, SupportError for a point outside or on the boundary of the
    open support. A CDF saturates to 0/1 outside the support. A float gives
    a float, an array the array of values. An array of rates, with a float
    y, gives the values of the law rescaled to each (`law.at_offsets`).
    """
    y = np.asarray(y, dtype=float)
    if transform.domain is not None:
        lo, hi = transform.domain
        inside = (y > lo) & (y < hi) if hi < math.inf else y > lo
        if not inside.all():
            raise DomainError(f"y={y[~inside][0]} is outside the domain ({lo}, {hi})")
    lo, hi = law.support()
    g = transform.offset(y, lo) if hi == math.inf else -transform.offset(y, hi)
    if not density:
        out = law.at_offsets(np.maximum(g, 0.0), rate=rate)
    else:
        inside = (g > 0.0) & (g < math.inf)
        if not inside.all():
            raise SupportError(f"y={y[~inside][0]} is outside the open support of {law}")
        out = law.at_offsets(g, density=True, slope=transform.slope(y), rate=rate)
        if not np.isfinite(out).all():
            raise DomainError(f"the density of {law} is beyond the double range at some y")
    return out if out.ndim else float(out)


def p3_pdf(params: Pearson3Params, x):
    """Density at interior points x (a float or an array of them);
    SupportError on or outside the open support."""
    return evaluate(params, IDENTITY, x, density=True)


def p3_cdf(params: Pearson3Params, x):
    """Distribution function at x (a float or an array of them); saturates
    to 0/1 outside the open support."""
    return evaluate(params, IDENTITY, x)


def p3_moment(params: Pearson3Params, n: int) -> float:
    """Raw moment E[X^n] = sum_k C(n,k) m^(n-k) (a)_k / b^k."""
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    try:  # a term overflows, b^k underflows to 0, or terms are inf and -inf
        value = math.fsum(
            math.comb(n, k) * params.m ** (n - k) * float(poch(params.a, k)) / params.b ** k
            for k in range(n + 1)
        )
    except (OverflowError, ZeroDivisionError, ValueError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"moment of order n={n} of {params} exceeds the double range")
    return value


def p3_char_fn(params: Pearson3Params, t: float) -> complex:
    """Characteristic function exp(j m t) / (1 - j t / b)^a (principal branch);
    DomainError where m t or t / b is not finite, leaving the phase undefined."""
    if not (math.isfinite(params.m * t) and math.isfinite(t / params.b)):
        raise DomainError(f"the phase of the characteristic function at t={t} is undefined")
    try:
        return np.exp(1j * params.m * t) / (1.0 - 1j * t / params.b) ** params.a
    except OverflowError:  # |phi| is below the least normal double
        return 0j


def p3_scale(params: Pearson3Params, c: float) -> Pearson3Params:
    """Parameters of c*X: (a, b/c, m*c). c must be nonzero."""
    if c == 0:
        raise DomainError("scaling by c=0 gives a degenerate distribution")
    return Pearson3Params(params.a, params.b / c, params.m * c)


def p3_sample(params: Pearson3Params, rng_seed: int, count: int) -> np.ndarray:
    """Deterministic i.i.d. draws: m + sign(b) * Gamma(a, rate |b|).

    The draws fill one buffer, which is scaled, mirrored and shifted in
    place and returned: the values and the stream of `rng.gamma`."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    out = params.draw_into(np.random.default_rng(rng_seed), np.empty(count))
    if not (math.isfinite(out.min()) and math.isfinite(out.max())):  # no sample-sized mask
        raise DomainError(f"draws of {params} leave the double range")
    return out
