"""Sums of independent Pearson type III variates with integer shapes.

A sum with a common inverse scale collapses to a single Pearson III
density. With pairwise-distinct inverse scales the density is a finite
mixture of Pearson III densities whose weights come from the partial
fraction expansion of the product of the component Laplace transforms;
the weights are available both as a nested closed-form sum and through a
numerically gentler recursion. The log and logit transforms of the sum
reuse the same weights.

Weights use the 1-based index convention of the mixture: ``i`` selects the
component whose inverse scale is ``b_i`` and ``k`` in ``1..a_i`` its
effective shape.
"""

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.special import gammainc, xlogy

from .errors import ConvergenceError, DomainError, SupportError
from .logitp3 import ltp3_moment, ltp3_pdf, ltp3_support
from .logp3 import lp3_moment, lp3_pdf, lp3_support
from .pearson3 import Pearson3Params, p3_cdf, p3_moment, p3_pdf
from .series import DEFAULT_CONTROL, SeriesControl

__all__ = [
    "EQUAL_RATES",
    "DISTINCT_RATES",
    "SumSpec",
    "xi0_closed",
    "xi0_recursive",
    "xi_shifted",
    "sum_pdf",
    "sum_cdf",
    "sum_moment",
    "logsum_pdf",
    "logsum_cdf",
    "logsum_moment",
    "logitsum_pdf",
    "logitsum_cdf",
    "logitsum_moment",
    "spec_to_json",
    "spec_from_json",
]

EQUAL_RATES = "equal_rates"
DISTINCT_RATES = "distinct_rates"

# Rates closer than this (relative) are treated as exactly equal.
_EQUAL_TOL = 1e-9


def _rel_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y))


@dataclass(frozen=True)
class SumSpec:
    """Ordered component parameters of SX_L = X_1 + ... + X_L.

    Shapes must be positive integers and the inverse scales must share one
    sign. Rates within ``snap_tol`` (relative) of each other are snapped to
    the equal-rate regime (flagged via ``snapped``); partially coincident
    rates are rejected, since the weight machinery covers only the
    all-equal and all-distinct regimes.
    """

    terms: tuple
    snap_tol: float = 1e-6
    regime: str = field(init=False)
    snapped: bool = field(init=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if len(terms) < 1:
            raise DomainError("a sum needs at least one component")
        for t in terms:
            if not isinstance(t, Pearson3Params):
                raise DomainError(f"components must be Pearson3Params, got {t!r}")
            if abs(t.a - round(t.a)) > 1e-9 or round(t.a) < 1:
                raise DomainError(f"component shapes must be positive integers, got a={t.a}")
        signs = {t.b > 0 for t in terms}
        if len(signs) > 1:
            raise DomainError("component inverse scales must all share one sign")

        bs = [t.b for t in terms]
        L = len(terms)
        max_gap = max(
            (_rel_gap(bs[i], bs[j]) for i in range(L) for j in range(i + 1, L)),
            default=0.0,
        )
        min_gap = min(
            (_rel_gap(bs[i], bs[j]) for i in range(L) for j in range(i + 1, L)),
            default=0.0,
        )
        if max_gap <= self.snap_tol:
            object.__setattr__(self, "regime", EQUAL_RATES)
            object.__setattr__(self, "snapped", max_gap > _EQUAL_TOL)
        elif min_gap <= self.snap_tol:
            pair = next(
                (i, j)
                for i in range(L)
                for j in range(i + 1, L)
                if _rel_gap(bs[i], bs[j]) <= self.snap_tol
            )
            raise DomainError(
                f"mixed rates: components {pair[0] + 1} and {pair[1] + 1} have "
                f"coincident inverse scales ({bs[pair[0]]}, {bs[pair[1]]}) while "
                "others are distinct; only all-equal or all-distinct rates are supported"
            )
        else:
            object.__setattr__(self, "regime", DISTINCT_RATES)
            object.__setattr__(self, "snapped", False)

        object.__setattr__(self, "_shapes", tuple(int(round(t.a)) for t in terms))
        if self.regime == DISTINCT_RATES:
            fracs = _weights_recursive(self._shapes, bs)
            object.__setattr__(self, "_weights_frac", fracs)
            object.__setattr__(
                self, "_weights", [[float(v) for v in row] for row in fracs]
            )
            object.__setattr__(
                self,
                "_weight_scale",
                max(abs(v) for row in self._weights for v in row),
            )
        else:
            object.__setattr__(self, "_weights_frac", None)
            object.__setattr__(self, "_weights", None)
            object.__setattr__(self, "_weight_scale", 0.0)

    @property
    def L(self) -> int:
        return len(self.terms)

    @property
    def sa(self) -> int:
        """Total shape, sum of the component shapes."""
        return sum(self._shapes)

    @property
    def sm(self) -> float:
        """Total shift, sum of the component shifts."""
        return math.fsum(t.m for t in self.terms)

    @property
    def reduced(self) -> Pearson3Params:
        """Single-density parameters in the equal-rate regime."""
        if self.regime != EQUAL_RATES:
            raise DomainError("reduced parameters exist only in the equal-rate regime")
        b = math.fsum(t.b for t in self.terms) / self.L
        return Pearson3Params(float(self.sa), b, self.sm)

    def support(self):
        """Open support of the sum."""
        if self.terms[0].b > 0:
            return (self.sm, math.inf)
        return (-math.inf, self.sm)

    def shape(self, i: int) -> int:
        return self._shapes[i - 1]

    def rate(self, i: int) -> float:
        return self.terms[i - 1].b


def _check_indices(spec: SumSpec, i: int, k: int):
    if spec.regime != DISTINCT_RATES:
        raise DomainError("mixture weights are defined only in the distinct-rate regime")
    if not (1 <= i <= spec.L):
        raise DomainError(f"component index i={i} out of range 1..{spec.L}")
    if not (1 <= k <= spec.shape(i)):
        raise DomainError(f"stage index k={k} out of range 1..{spec.shape(i)}")


def _weights_recursive(shapes, bs):
    """All mixture weights by the base-case product plus descent recursion.

    Returns exact Fraction values w[i][k-1] for 0-based component i. The
    recursion runs in rational arithmetic (the float inputs are exact
    rationals), so each weight is correctly rounded even when
    alternating-sign cancellation is severe.
    """
    L = len(shapes)
    bq = [Fraction(b) for b in bs]
    rate_prod = Fraction(1)
    for a, b in zip(shapes, bq):
        rate_prod *= b ** a
    weights = []
    for i in range(L):
        ai, bi = shapes[i], bq[i]
        # Base case k = a_i: prod_w b_w^a_w / b_i^a_i * prod_{j!=i} (b_j - b_i)^(-a_j)
        base = rate_prod / bi ** ai
        for j in range(L):
            if j != i:
                base *= (bq[j] - bi) ** (-shapes[j])
        w = [Fraction(0)] * ai
        w[ai - 1] = base
        # Descent: w(i, a_i - k) from the k previously computed values.
        ratios = [
            (shapes[q], bi / (bi - bq[q])) for q in range(L) if q != i
        ]
        for k in range(1, ai):
            w[ai - 1 - k] = (
                sum(
                    sum(aq * r ** j for aq, r in ratios) * w[ai - 1 - k + j]
                    for j in range(1, k + 1)
                )
                / k
            )
        weights.append(w)
    return weights


# Above this weight magnitude the float mixture loses enough digits to
# alternating-sign cancellation that the Decimal path takes over.
_HP_WEIGHT_SCALE = 1e6

# A float mixture value below 2^26 units of rounding of its absolute terms,
# c eps sum |w_ik F_ik| with c = 2^26, is recomputed in Decimal: near the
# support edge each term is O(u^k) while the sum is O(u^sa), so the float
# sum there is rounding noise. Above the bound the float value keeps about
# 7 significant digits at worst; with moderate weights the bound is reached
# only near the edge.
_ROUNDING_BOUND = 2.0 ** 26 * np.finfo(float).eps


def _hp_context_prec(scale: float) -> int:
    return 30 + max(0, int(math.log10(max(scale, 1.0))) + 1)


def _edge_digits(spec, g: float, order: int) -> int:
    """Decimal digits lost to cancellation at gamma-direction offset g:
    -log10 of a lower bound of the mixture CDF (order = total shape sa) or
    density (order = sa - 1). Each component density b^a x^(a-1) e^(-b x)
    / Gamma(a) is at least its copy with the largest rate in the
    exponential; those copies convolve to prod b_i^a_i g^(sa-1)
    e^(-b_max g) / Gamma(sa), and its integral bounds the CDF. A value far
    below the smallest double needs no more than 340 digits to round to 0.
    """
    rates = [abs(t.b) for t in spec.terms]
    log_lower = (
        math.fsum(a * math.log(b) for a, b in zip(spec._shapes, rates))
        - max(rates) * g + order * math.log(g) - math.lgamma(order + 1)
    )
    return min(340, max(0, math.ceil(-log_lower / math.log(10.0))))


def _reg_lower_decimal(spec, g: float, prec: int) -> float:
    """Sum_{i,k} Xi(i,k) P(k, |b_i| g) at one point g > 0, from the
    exact-rational weights in Decimal arithmetic of `prec` digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        gd = Decimal(g)
        total = Decimal(0)
        for i, row in enumerate(spec._weights_frac):
            u = Decimal(abs(spec.terms[i].b)) * gd
            eu = (-u).exp()
            # Q(k+1, u) = e^-u sum_{j<=k} u^j/j!; accumulate the inner
            # polynomial against the cumulative weight rows.
            pow_term = Decimal(1)
            s_k = Decimal(1)
            inner = Decimal(0)
            for k, wf in enumerate(row):
                if k > 0:
                    pow_term = pow_term * u / k
                    s_k += pow_term
                inner += Decimal(wf.numerator) / Decimal(wf.denominator) * s_k
            total += eu * inner
        return float(1 - total)


def _gamma_pdf_decimal(spec, g: float, prec: int) -> float:
    """Sum_{i,k} Xi(i,k) |b_i| gammapdf(k, |b_i| g) at one point g > 0, in
    Decimal arithmetic of `prec` digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        gd = Decimal(g)
        total = Decimal(0)
        for i, row in enumerate(spec._weights_frac):
            b_abs = Decimal(abs(spec.terms[i].b))
            u = b_abs * gd
            eu = (-u).exp()
            pow_term = Decimal(1)  # u^k / k!
            inner = Decimal(0)
            for k, wf in enumerate(row):
                if k > 0:
                    pow_term = pow_term * u / k
                inner += Decimal(wf.numerator) / Decimal(wf.denominator) * pow_term
            total += eu * b_abs * inner
        return float(total)


def _cdf_component(k: int, b: float, u, out):
    gammainc(k, u, out=out)


def _pdf_component(k: int, b: float, u, out):
    np.exp(math.log(b) + xlogy(k - 1.0, u) - u - math.lgamma(k), out=out)


def _float_mixture(spec, g, component):
    """Sum_{i,k} Xi(i,k) component(k, |b_i|, |b_i| g) over a 1-d block of
    points g, and the sum of the absolute terms.

    The weighted components are accumulated one at a time by Knuth's
    two-sum, with the rounding error of each addition carried apart, so
    the result is the correctly rounded sum of the terms up to a few units
    of eps^2 times their absolute sum, as math.fsum would give it.
    """
    total = np.zeros_like(g)
    carry = np.zeros_like(g)
    bound = np.zeros_like(g)
    term, u, t, z = (np.empty_like(g) for _ in range(4))
    for i, row in enumerate(spec._weights):
        b = abs(spec.terms[i].b)
        np.multiply(g, b, out=u)
        for k, w in enumerate(row, start=1):
            component(k, b, u, term)
            term *= w
            bound += np.abs(term, out=z)
            # two-sum: with t = fl(total + term) and z = t - total, the
            # rounding error of t is (total - (t - z)) + (term - z)
            np.add(total, term, out=t)
            np.subtract(t, total, out=z)
            term -= z
            np.subtract(t, z, out=z)
            total -= z
            total += term
            carry += total
            total, t = t, total
    total += carry
    return total, bound


# Points per block of the float mixture, so that its work vectors stay in
# cache and its memory does not grow with the number of points.
_BLOCK = 1 << 14


def _mixture(spec, g, component, decimal, order):
    """Sum_{i,k} Xi(i,k) component(k, |b_i|, |b_i| g) over an array of
    finite gamma-direction offsets g > 0, or g >= 0 for the CDF, which is 0
    at g = 0.

    The float path sums block by block (_float_mixture). Points whose value
    falls below _ROUNDING_BOUND times the absolute sum of their terms are
    recomputed by `decimal` with the digits the cancellation costs. Above
    _HP_WEIGHT_SCALE every point takes the Decimal path.
    """
    base_prec = _hp_context_prec(spec._weight_scale)
    flat = g.reshape(-1)
    if spec._weight_scale > _HP_WEIGHT_SCALE:
        return np.array(
            [decimal(spec, v, base_prec) if v > 0 else 0.0 for v in flat]
        ).reshape(g.shape)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        total, bound = _float_mixture(spec, block, component)
        for j in np.flatnonzero(total < _ROUNDING_BOUND * bound):
            v = float(block[j])
            total[j] = decimal(spec, v, base_prec + _edge_digits(spec, v, order))
        out[start:start + _BLOCK] = total
    return out.reshape(g.shape)


def xi0_recursive(spec: SumSpec, i: int, k: int) -> float:
    """Mixture weight for component i at stage k, from the recursion."""
    _check_indices(spec, i, k)
    return spec._weights[i - 1][k - 1]


def xi0_closed(spec: SumSpec, i: int, k: int) -> float:
    """Mixture weight for component i at stage k, from the nested closed form.

    Retained as a cross-check of the recursion; the nested sums chain a
    nonincreasing index from a_i down to k, consuming one alien component
    per stage.
    """
    if spec.regime == EQUAL_RATES and spec.L == 1:
        return 1.0 if k == spec.shape(1) else 0.0
    _check_indices(spec, i, k)
    L = spec.L
    ai = spec.shape(i)
    bi = spec.rate(i)
    others = [q for q in range(1, L + 1) if q != i]

    def G(u: int, v: int, w: int) -> float:
        aw = spec.shape(w)
        d = bi - spec.rate(w)
        return (
            math.factorial(u + aw - v - 1)
            / (math.factorial(aw - 1) * math.factorial(u - v))
            * d ** (v - u - aw)
        )

    # Chain j_0 = a_i >= j_1 >= ... >= j_(L-1) = k; one factor per stage.
    f = {ai: 1.0}
    for w in others[:-1]:
        nxt = {}
        for v in range(k, ai + 1):
            nxt[v] = math.fsum(f[u] * G(u, v, w) for u in f if u >= v)
        f = nxt
    total = math.fsum(f[u] * G(u, k, others[-1]) for u in f if u >= k)

    pref = (-1.0) ** (spec.sa - ai) / bi ** k
    for q in range(1, L + 1):
        pref *= spec.rate(q) ** spec.shape(q)
    return pref * total


def xi_shifted(spec: SumSpec, i: int, k: int, l: int) -> float:
    """Weight of the shift-expanded mixture over the original components.

    Expands each sum-shift density back onto components anchored at their
    own shifts m_i; reduces to the unshifted weights when every m_i = 0.
    """
    _check_indices(spec, i, k)
    if not (1 <= l <= k):
        raise DomainError(f"inner index l={l} out of range 1..{k}")
    mi = spec.terms[i - 1].m
    bi = spec.rate(i)
    sm = spec.sm
    shift = (
        math.exp((sm - mi) * bi)
        * (mi - sm) ** (k - l)
        / math.factorial(k - l)
        * bi ** (k - l)
    )
    return shift * xi0_recursive(spec, i, k)


def sum_pdf(spec: SumSpec, x):
    """Density of the sum at interior points x (a float or an array)."""
    x = np.asarray(x, dtype=float)
    lo, hi = spec.support()
    outside = ~((lo < x) & (x < hi))
    if outside.any():
        raise SupportError(
            f"x={x[outside][0]} is outside the open support ({lo}, {hi}) of the sum"
        )
    if spec.regime == EQUAL_RATES:
        return p3_pdf(spec.reduced, x)
    g = np.asarray(np.abs(x - spec.sm))
    out = _mixture(spec, g, _pdf_component, _gamma_pdf_decimal, spec.sa - 1)
    # rounding may not push a density below 0
    np.maximum(out, 0.0, out=out)
    return out if out.ndim else float(out)


def sum_cdf(spec: SumSpec, x):
    """CDF of the sum at x (a float or an array); saturates outside the
    support."""
    if spec.regime == EQUAL_RATES:
        return p3_cdf(spec.reduced, x)
    x = np.asarray(x, dtype=float)
    # offset into the support in the gamma direction, 0 outside it
    g = np.asarray(x - spec.sm if spec.terms[0].b > 0 else spec.sm - x)
    np.maximum(g, 0.0, out=g)
    far = g == math.inf
    g[far] = 0.0
    out = _mixture(spec, g, _cdf_component, _reg_lower_decimal, spec.sa)
    out[far] = 1.0
    # rounding may not push a CDF out of [0, 1]
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    if spec.terms[0].b < 0:
        np.subtract(1.0, out, out=out)
    return out if out.ndim else float(out)


def sum_moment(spec: SumSpec, n: int) -> float:
    """Raw moment E[(X_1 + ... + X_L)^n], folding in one component at a
    time by E[(S + X)^j] = sum_k C(j, k) E[S^k] E[X^(j-k)]."""
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    moments = [1.0] + [0.0] * n
    for t in spec.terms:
        own = [p3_moment(t, k) for k in range(n + 1)]
        moments = [
            math.fsum(math.comb(j, k) * moments[k] * own[j - k] for k in range(j + 1))
            for j in range(n + 1)
        ]
    return moments[n]


def logsum_cdf(spec: SumSpec, y):
    """CDF of exp(SX_L) at y (a float or an array)."""
    y = np.asarray(y, dtype=float)
    bad = y <= 0
    if bad.any():
        raise DomainError(f"logsum_cdf requires y > 0, got y={y[bad][0]}")
    return sum_cdf(spec, np.log(y))


def logsum_pdf(spec: SumSpec, y):
    """Density of exp(SX_L) at interior points y (a float or an array)."""
    if spec.regime == EQUAL_RATES:
        return lp3_pdf(spec.reduced, y)
    y = np.asarray(y, dtype=float)
    lo, hi = lp3_support(Pearson3Params(1.0, spec.terms[0].b, spec.sm))
    outside = ~((lo < y) & (y < hi))
    if outside.any():
        raise SupportError(f"y={y[outside][0]} is outside the open support ({lo}, {hi})")
    out = sum_pdf(spec, np.log(y)) / y
    return out if out.ndim else float(out)


def logsum_moment(spec: SumSpec, n: int) -> float:
    """Raw moment E[exp(SX_L)^n], the product of the component moments;
    positive rates must all exceed n."""
    return math.prod(lp3_moment(t, n) for t in spec.terms)


def logitsum_cdf(spec: SumSpec, z):
    """CDF of logistic(SX_L) at z (a float or an array)."""
    z = np.asarray(z, dtype=float)
    bad = ~((0.0 < z) & (z < 1.0))
    if bad.any():
        raise DomainError(f"logitsum_cdf requires z in (0, 1), got z={z[bad][0]}")
    return sum_cdf(spec, np.log(z / (1.0 - z)))


def logitsum_pdf(spec: SumSpec, z):
    """Density of logistic(SX_L) at interior points z (a float or an array)."""
    if spec.regime == EQUAL_RATES:
        return ltp3_pdf(spec.reduced, z)
    z = np.asarray(z, dtype=float)
    bad = ~((0.0 < z) & (z < 1.0))
    if bad.any():
        raise DomainError(f"logitsum_pdf requires z in (0, 1), got z={z[bad][0]}")
    lo, hi = ltp3_support(Pearson3Params(1.0, spec.terms[0].b, spec.sm))
    outside = ~((lo < z) & (z < hi))
    if outside.any():
        raise SupportError(f"z={z[outside][0]} is outside the open support ({lo}, {hi})")
    out = sum_pdf(spec, np.log(z / (1.0 - z))) / (z * (1.0 - z))
    return out if out.ndim else float(out)


def logitsum_moment(spec: SumSpec, n: int,
                    ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Raw moment E[logistic(SX_L)^n]; requires every b_i > 0."""
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    if n == 0:
        return 1.0
    if spec.terms[0].b < 0:
        raise DomainError("logit-sum moments require positive rates on every component")
    if spec.regime == EQUAL_RATES:
        return ltp3_moment(spec.reduced, n, ctl)
    if spec._weight_scale > _HP_WEIGHT_SCALE:
        raise ConvergenceError(
            f"logit-sum moment lost to cancellation: mixture weights reach "
            f"{spec._weight_scale:.3g}, above {_HP_WEIGHT_SCALE:.0e}"
        )
    sm = spec.sm
    return math.fsum(
        spec._weights[i][k] * ltp3_moment(Pearson3Params(float(k + 1), spec.terms[i].b, sm), n, ctl)
        for i in range(spec.L)
        for k in range(spec._shapes[i])
    )


def spec_to_json(spec: SumSpec) -> str:
    """Serialize as {"terms": [{"a": int, "b": num, "m": num}, ...]}."""
    return json.dumps(
        {"terms": [{"a": int(round(t.a)), "b": t.b, "m": t.m} for t in spec.terms]}
    )


def spec_from_json(doc: str) -> SumSpec:
    """Parse the JSON document produced by spec_to_json."""
    try:
        payload = json.loads(doc)
        terms = tuple(
            Pearson3Params(float(t["a"]), float(t["b"]), float(t.get("m", 0.0)))
            for t in payload["terms"]
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise DomainError(f"malformed sum spec document: {exc}") from exc
    return SumSpec(terms)
