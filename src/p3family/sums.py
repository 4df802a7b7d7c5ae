"""Sums of independent Pearson type III variates with integer shapes.

A sum with a common inverse scale collapses to a single Pearson III
density. With pairwise-distinct inverse scales the density is a finite
mixture of Pearson III densities whose weights come from the partial
fraction expansion of the product of the component Laplace transforms;
the weights are available both as a nested closed-form sum and through a
numerically gentler recursion; where they cancel, Moschopoulos' series of
positive weights takes over. The log and logit transforms of the sum
reuse the same mixtures.

Weights use the 1-based index convention of the mixture: ``i`` selects the
component whose inverse scale is ``b_i`` and ``k`` in ``1..a_i`` its
effective shape.
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammainc, xlogy

from .errors import DomainError, SupportError
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
        gaps = {
            (i, j): _rel_gap(bs[i], bs[j])
            for i in range(len(bs)) for j in range(i + 1, len(bs))
        }
        max_gap = max(gaps.values(), default=0.0)
        if max_gap <= self.snap_tol:
            object.__setattr__(self, "regime", EQUAL_RATES)
            object.__setattr__(self, "snapped", max_gap > _EQUAL_TOL)
        elif min(gaps.values()) <= self.snap_tol:
            i, j = next(pair for pair, gap in gaps.items() if gap <= self.snap_tol)
            raise DomainError(
                f"mixed rates: components {i + 1} and {j + 1} have "
                f"coincident inverse scales ({bs[i]}, {bs[j]}) while "
                "others are distinct; only all-equal or all-distinct rates are supported"
            )
        else:
            object.__setattr__(self, "regime", DISTINCT_RATES)
            object.__setattr__(self, "snapped", False)

        object.__setattr__(self, "_shapes", tuple(int(round(t.a)) for t in terms))
        if self.regime == DISTINCT_RATES:
            weights = [[float(v) for v in row] for row in _weights_recursive(self._shapes, bs)]
            object.__setattr__(self, "_weights", weights)
            object.__setattr__(
                self, "_weight_scale", max(abs(v) for row in weights for v in row)
            )
            # Moschopoulos' series (_series): its rate and its first delta
            object.__setattr__(self, "_b_max", max(abs(b) for b in bs))
            object.__setattr__(self, "_deltas", np.ones(1))
        else:
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


# Above this weight magnitude the partial fractions lose enough digits to
# alternating-sign cancellation that the positive series takes over.
_HP_WEIGHT_SCALE = 1e6

# A partial-fraction value below 2^26 units of rounding of its absolute
# terms, c eps sum |w_ik F_ik| with c = 2^26, is recomputed from the series:
# near the support edge each term is O(u^k) while the sum is O(u^sa), so the
# float sum there is rounding noise. Above the bound it keeps about 7
# significant digits at worst; with moderate weights the bound is reached
# only near the edge.
_ROUNDING_BOUND = 2.0 ** 26 * np.finfo(float).eps

# The series stops once its tail bound falls below this fraction of its sum.
_SERIES_TOL = 2.0 ** -60


def _series(spec):
    """Yield shape sa + k, weight C delta_k and a bound on the sum of the
    later weights, k = 0, 1, ...: Moschopoulos' series (Ann. Inst. Stat.
    Math. 37 (1985) 541-544), the law as Pearson III components at the
    largest rate b_max with positive weights.

    C = prod_j (|b_j|/b_max)^a_j is kept in log space. delta_0 = 1 and
    k delta_k = sum_{i=1..k} delta_(k-i) sum_j a_j rho_j^i with
    rho_j = 1 - |b_j|/b_max, positive terms only; the deltas are cached on
    the spec and extended on demand. They are the coefficients of
    prod_j (1 - rho_j z)^(-a_j), log-concave for shapes >= 1: once
    r = delta_(k+1)/delta_k < 1 the later weights sum to at most
    C delta_k r/(1 - r). All the weights sum to 1.
    """
    b_max = spec._b_max
    log_c = math.fsum(a * math.log(abs(t.b) / b_max)
                      for a, t in zip(spec._shapes, spec.terms))
    for k in itertools.count():
        d = spec._deltas
        if d.size < k + 2:
            n = max(k + 2, 2 * d.size)
            rho = np.array([b_max - abs(t.b) for t in spec.terms]) / b_max
            i_gamma = np.array(spec._shapes, dtype=float) @ rho[:, None] ** np.arange(1, n)
            d = np.concatenate((d, np.empty(n - d.size)))
            for j in range(spec._deltas.size, n):
                d[j] = (i_gamma[:j] @ d[j - 1::-1]) / j
            object.__setattr__(spec, "_deltas", d)
        weight = math.exp(log_c + math.log(d[k])) if d[k] > 0.0 else 0.0
        r = d[k + 1] / d[k] if d[k] > 0.0 else 0.0
        tail = weight * r / (1.0 - r) if r < 1.0 else 1.0
        yield spec.sa + k, weight, min(1.0, tail)


def _cdf_component(k: int, b: float, u, out):
    gammainc(k, u, out=out)


def _pdf_component(k: int, b: float, u, out):
    np.exp(math.log(b) + xlogy(k - 1.0, u) - u - math.lgamma(k), out=out)


def _partial_fraction_terms(spec, g, component):
    """Yield Xi(i,k) component(k, |b_i|, |b_i| g) for every (i, k) over a
    1-d block of points g: weights of both signs."""
    term, u = np.empty_like(g), np.empty_like(g)
    for i, row in enumerate(spec._weights):
        b = abs(spec.terms[i].b)
        np.multiply(g, b, out=u)
        for k, w in enumerate(row, start=1):
            component(k, b, u, term)
            term *= w
            yield term


def _series_terms(spec, g, component):
    """Yield C delta_k component(sa + k, b_max, u = b_max g), k = 0, 1, ...,
    over a 1-d block of points g. The components fall with k from some k
    on (the CDF from k = 0, the density once sa + k >= u); from there the
    terms after k sum to at most component_k times the weight bound of
    _series. Once that is below _SERIES_TOL of a point's partial sum its
    later terms are 0, so that its value does not depend on the others.
    """
    u = g * spec._b_max
    comp, prev, term = np.empty_like(g), np.zeros_like(g), np.empty_like(g)
    partial = np.zeros_like(g)
    live = np.ones(g.shape, dtype=bool)
    for shape, weight, tail in _series(spec):
        component(shape, spec._b_max, u, comp)
        np.multiply(comp, weight, out=term)
        term *= live
        partial += term
        # a density that underflows before its peak does not fall yet
        falling = (shape >= u) | ((comp <= prev) & (comp > 0.0))
        live &= ~falling | (comp * tail > _SERIES_TOL * partial)
        yield term
        if tail == 0.0 or not live.any():
            return
        comp, prev = prev, comp


def _float_mixture(g, terms):
    """Sum of the term arrays that `terms` yields over a 1-d block of points
    g, and the sum of their absolute values.

    The terms are accumulated one at a time by Knuth's two-sum, with the
    rounding error of each addition carried apart, so the result is the
    correctly rounded sum of the terms up to a few units of eps^2 times
    their absolute sum, as math.fsum would give it.
    """
    total = np.zeros_like(g)
    carry = np.zeros_like(g)
    bound = np.zeros_like(g)
    t, z = np.empty_like(g), np.empty_like(g)
    for term in terms:
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


def _mixture(spec, g, component):
    """Sum_{i,k} Xi(i,k) component(k, |b_i|, |b_i| g) over an array of
    finite gamma-direction offsets g > 0, or g >= 0 for the CDF, which is 0
    at g = 0.

    Each block of points is summed by _float_mixture over the partial
    fractions up to _HP_WEIGHT_SCALE, and over Moschopoulos' series above
    it and, in one call, at the points whose value falls below
    _ROUNDING_BOUND times the absolute sum of their terms.
    """
    flat = g.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        if spec._weight_scale > _HP_WEIGHT_SCALE:
            total, edge = np.empty_like(block), np.ones(block.shape, dtype=bool)
        else:
            terms = _partial_fraction_terms(spec, block, component)
            total, bound = _float_mixture(block, terms)
            edge = total < _ROUNDING_BOUND * bound
        if edge.any():
            near = block[edge]
            total[edge], _ = _float_mixture(near, _series_terms(spec, near, component))
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
    out = _mixture(spec, g, _pdf_component)
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
    out = _mixture(spec, g, _cdf_component)
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
    sm = spec.sm
    if spec._weight_scale > _HP_WEIGHT_SCALE:
        # each logit moment lies in (0, 1], so the weight bound of _series
        # bounds the remaining terms
        terms = []
        for shape, weight, tail in _series(spec):
            terms.append(weight * ltp3_moment(Pearson3Params(shape, spec._b_max, sm), n, ctl))
            if tail <= _SERIES_TOL * math.fsum(terms):
                return math.fsum(terms)
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
