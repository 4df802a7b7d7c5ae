"""The base Pearson type III distribution.

A three-parameter generalization of the gamma distribution: shape ``a > 0``,
inverse scale ``b != 0`` and shift ``m``. For ``b > 0`` the support is
``(m, inf)``; for ``b < 0`` it is ``(-inf, m)`` (a mirrored gamma).

Every pdf and CDF of the library is one evaluator, `evaluate`: a law (this
one, or a `sums.SumSpec` mixture of them) seen through a monotone
`Transform` y(x), here the identity, in `logp3` and `logitp3` the log and
logit maps, in `wpt` the harvested power. It and the density of
`series.expect` take a law's values through `blockwise`, 2^14 points at a
time, so that the memory of a call is its output and one block's work.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincc, xlogy

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

    def rising_offset(self, rate=None):
        """(offset, power): below the offset the density f of the law (at
        `rate`, as in `mean_offset`) has g f(g) = c g^a e^(-rate g) not
        decreasing, and near g = 0 it rises as g^power: the mean offset and
        the shape. `series.expect` evaluates the density from a margin below
        the offset on."""
        return self.mean_offset(rate), self.a

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
    """math.log of each value of the array x, taken once per run of equal
    values, as a batch repeats each rate over its points. numpy's vector log
    may round a value apart from it, and a law rescaled to a rate is to have
    the density of the law built at that rate."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    first = np.flatnonzero(np.concatenate(([flat.size > 0], flat[1:] != flat[:-1])))
    logs = [math.log(v) for v in flat[first].tolist()]
    return np.repeat(logs, np.diff(first, append=flat.size)).reshape(x.shape)


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
    open support, naming the first such point. A CDF saturates to 0/1
    outside the support. A float gives a float, an array the array of
    values. An array of rates, with a float y, gives the values of the law
    rescaled to each (`law.at_offsets`). The points, or the rates, go to
    `blockwise`: up to 2^14 in one call, more a block of 2^14 at a time.
    """
    # a float as a numpy float, for scalar arithmetic
    y = np.float64(y) if isinstance(y, float) else np.asarray(y, dtype=float)[()]
    if transform.domain is not None:
        lo, hi = transform.domain
        inside = (y > lo) & (y < hi) if hi < math.inf else y > lo
        if not inside.all():
            raise DomainError(f"y={y[~inside][0]} is outside the domain ({lo}, {hi})")
    out = blockwise(_values, y, rate, law, transform, density)
    return out if out.ndim else float(out)


def _values(y, law, transform, density, rate):
    """`evaluate` at the points y of one block."""
    lo, hi = law.support()
    g = transform.offset(y, lo) if hi == math.inf else -transform.offset(y, hi)
    if not density:  # np.maximum, at a tenth of its cost on a float, NaN and -0.0 kept
        g = np.maximum(g, 0.0) if g.ndim else (0.0 if g < 0.0 else g)
        return law.at_offsets(g, rate=rate)
    inside = (g > 0.0) & (g < math.inf)
    if not inside.all():
        raise SupportError(f"y={y[~inside][0]} is outside the open support of {law}")
    out = law.at_offsets(g, density=True, slope=transform.slope(y), rate=rate)
    if not (out < math.inf).all():  # a density is >= 0, or NaN where b g is inf
        out = np.fmax(out, 0.0)  # e^(-b g) wins the exponent's inf - inf there
        if not (out < math.inf).all():
            raise DomainError(f"the density of {law} is beyond the double range at some y")
    return out


# Points per block of an evaluation, so that its work arrays stay in cache
# and its memory does not grow with the number of points.
_BLOCK = 1 << 14


@np.errstate(over="ignore", invalid="ignore")
def blockwise(values, x, rate, *args):
    """values(x, *args, rate=rate) over the points x, an array or a numpy
    float, and `rate`: None, a float, or an array of x's shape (of any
    shape for a float x). Up to _BLOCK points or rates go to one call; more
    go _BLOCK at a time into one array, a float x or rate whole to each
    block. A law's values do not depend on the other points of a call, so
    they are those of one call, at the memory of one block.

    numpy's overflow and invalid-value warnings are off: b g may overflow
    to inf, where a CDF is 0 or 1 and a density's exponent inf - inf is
    NaN, which `evaluate` and `series.expect` take as the density 0."""
    points = x if rate is None or np.ndim(rate) == 0 else rate
    if points.size <= _BLOCK:
        return values(x, *args, rate=rate)
    out = np.empty(points.shape)
    flat = out.reshape(-1)
    x, rate = (np.reshape(v, -1) if np.ndim(v) else v for v in (x, rate))
    for start in range(0, flat.size, _BLOCK):
        part = slice(start, start + _BLOCK)
        flat[part] = values(x[part] if np.ndim(x) else x, *args,
                            rate=rate[part] if np.ndim(rate) else rate)
    return out


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
    try:  # a term overflows, or terms are inf and -inf
        value = math.fsum(_moment_term(params, n, k) for k in range(n + 1))
    except (OverflowError, ValueError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"moment of order n={n} of {params} exceeds the double range")
    return value


def _moment_term(params, n, k):
    """C(n,k) m^(n-k) (a)_k / b^k, with (a)_k / b^k as one product in log
    space (base 2) where b^k or (a)_k leaves the double range, so that a term
    in range survives a factor that does not. OverflowError where it
    overflows."""
    a, b = params.a, params.b
    factor = math.comb(n, k) * params.m ** (n - k)
    # (a)_k as (a + k - 1) ... (a + 1) a: the same double as scipy's poch(a, k)
    # for a in [1e-15, 1e3], k <= 8, and exact at a = 1e-300 where poch is not
    rising = math.prod(a + j for j in range(k - 1, -1, -1))
    try:
        power = b ** k
    except OverflowError:  # b^k keeps the sign of b for odd k
        power = math.copysign(math.inf, b) if k % 2 else math.inf
    if 0.0 < abs(power) < math.inf and 0.0 < rising < math.inf:
        return factor * rising / power
    # prod_j (a + j)/|b| on the mantissas, the binary exponents summed apart
    mantissa, exponent = 1.0, 0
    scale, shift = math.frexp(abs(b))
    for j in range(k):
        step, up = math.frexp(a + j)
        mantissa, renorm = math.frexp(mantissa * (step / scale))
        exponent += renorm + up - shift
    return factor * math.copysign(math.ldexp(mantissa, exponent), power)


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
    with np.errstate(over="ignore"):  # a draw beyond the double range is inf
        out = params.draw_into(np.random.default_rng(rng_seed), np.empty(count))
    if not (math.isfinite(out.min()) and math.isfinite(out.max())):  # no sample-sized mask
        raise DomainError(f"draws of {params} leave the double range")
    return out
