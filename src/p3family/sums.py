"""Sums of independent Pearson type III variates.

A sum whose inverse scales agree (within relative _EQUAL_TOL) is one
Pearson III law, `SumSpec.reduced`, for any positive shapes. Any other sum
of members of one sign is a mixture of Pearson III densities. With integer
shapes at pairwise-distinct rates its weights come from the partial
fraction expansion of the product of the component Laplace transforms,
both as a nested closed-form sum and through a numerically gentler
recursion, run exactly in integer arithmetic at the sum's first evaluation
and rounded once. Moschopoulos' series of positive weights, summed in
chunks of its index sized by the points still live and the weights formed
(up to 256 terms at once for a single point), serves every other sum,
those whose partial-fraction weights pass 1e6, and the points where the
partial fractions cancel. Every mixture CDF sums P up to the mean offset
and Q above it. Each term of either is `pearson3.gamma_term`, the one
kernel of the library's gamma terms, whose density takes ln(dy/dx) in its
exponent. `SumSpec.at_offsets` picks the reduced law or the mixture, so
the densities and CDFs of the sum and of its log and logit transforms are
`pearson3.evaluate` calls.

Weights use the 1-based index convention of the mixture: ``i`` selects the
component whose inverse scale is ``b_i`` and ``k`` in ``1..a_i`` its
effective shape.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .errors import ConvergenceError, DomainError
from .logitp3 import LOGIT, ltp3_moment
from .logp3 import LOG, lp3_moment
from .pearson3 import DENSITY, IDENTITY, P, Q, Pearson3Params, evaluate, gamma_term, p3_moment

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
"""The regime of a sum whose rates are not all equal; some may coincide."""

# Rates closer than this (relative) are treated as exactly equal.
_EQUAL_TOL = 1e-9


def _rel_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y))


@dataclass(frozen=True)
class SumSpec:
    """Ordered component parameters of SX_L = X_1 + ... + X_L.

    The inverse scales must share one sign; the shapes may be any positive
    numbers. When the rates all agree within relative _EQUAL_TOL the sum is
    its `reduced` Pearson III law, formed at build. Otherwise, with integer
    shapes at pairwise-distinct rates, the mixture weights (`_weights`) are
    the exact values rounded once, from integer arithmetic. A sum whose
    weights pass _HP_WEIGHT_SCALE, by a log bound on them or else by their
    values, and every other sum, is `_series_only`. The bound and the
    weights are formed at the sum's first evaluation, never at build.

    Every cached weight, the partial fractions `_weights` as the series
    weights `_series` and their factor C, depends only on the ratios
    of the rates. So these weights also serve the sum with every rate scaled
    by one factor, which `at_offsets` evaluates given its mean rate.
    """

    terms: tuple
    regime: str = field(init=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if len(terms) < 1:
            raise DomainError("a sum needs at least one component")
        for t in terms:
            if not isinstance(t, Pearson3Params):
                raise DomainError(f"components must be Pearson3Params, got {t!r}")
        signs = {t.b > 0 for t in terms}
        if len(signs) > 1:
            raise DomainError("component inverse scales must all share one sign")

        bs = [t.b for t in terms]
        if _rel_gap(max(bs), min(bs)) <= _EQUAL_TOL:
            object.__setattr__(self, "regime", EQUAL_RATES)
            object.__setattr__(self, "_shapes", tuple(t.a for t in terms))
            object.__setattr__(self, "_reduced", Pearson3Params(
                math.fsum(self._shapes), sum(bs) / len(bs), self.sm))
            return
        integer = all(abs(t.a - round(t.a)) <= 1e-9 and round(t.a) >= 1 for t in terms)
        object.__setattr__(self, "regime", DISTINCT_RATES)
        object.__setattr__(self, "_shapes", tuple(round(t.a) if integer else t.a for t in terms))
        object.__setattr__(self, "_fractions", integer and all(
            _rel_gap(x, y) > _EQUAL_TOL for x, y in itertools.combinations(bs, 2)))
        # Moschopoulos' series (_series_chunk): its rate, and its shapes,
        # their log-gammas, its weights and their tail bounds
        object.__setattr__(self, "_b_max", max(abs(b) for b in bs))
        object.__setattr__(self, "_series", (np.empty(0),) * 4)

    @functools.cached_property
    def _series_only(self):
        return (not self._fractions
                or _log_weight_bound(self._shapes, [t.b for t in self.terms]) > _LOG_HP_SCALE
                or self._weight_scale > _HP_WEIGHT_SCALE)

    @functools.cached_property
    def _weights(self):
        return _weights_recursive(self._shapes, [t.b for t in self.terms])

    @functools.cached_property
    def _weight_scale(self):
        return max(abs(v) for row in self._weights for v in row)

    @property
    def L(self) -> int:
        return len(self.terms)

    @property
    def sa(self):
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
        return self._reduced

    def support(self):
        """Open support of the sum."""
        if self.terms[0].b > 0:
            return (self.sm, math.inf)
        return (-math.inf, self.sm)

    def shape(self, i: int):
        return self._shapes[i - 1]

    def rate(self, i: int) -> float:
        return self.terms[i - 1].b

    @property
    def mean_rate(self) -> float:
        """Mean inverse scale sum |b_i| / L: the reduced law's |b| for
        equal rates. The rates are added in order, one at a time, as a sweep
        adds the arrays of its branch rates (`wpt.MisoScenario`), so that it
        forms the same mean rate at each point as a law built there."""
        return sum(abs(t.b) for t in self.terms) / self.L

    def mean_offset(self, rate=None) -> float:
        """Mean offset E|X - sm| of the sum from its support edge: the
        reduced law's for equal rates, else sum a_i/|b_i|; for the sum
        rescaled to mean rate `rate` (`at_offsets`), that of its law."""
        if self.regime == EQUAL_RATES:
            return self._reduced.mean_offset(rate)
        offset = math.fsum(t.a / abs(t.b) for t in self.terms)
        return offset if rate is None else offset * (self.mean_rate / rate)

    def rising_offset(self, rate=None):
        """(offset, power): below the offset the density f of the sum (at
        mean rate `rate`, as in `mean_offset`) has g f(g) not decreasing, and
        near g = 0 it rises as g^power, the total shape. For equal rates they
        are the reduced law's; else the offset is sa/b_max, at which every
        component g^(sa+k) e^(-b_max g) of Moschopoulos' series, of positive
        weights, still rises, rescaled as the mean offset is."""
        if self.regime == EQUAL_RATES:
            return self._reduced.rising_offset(rate)
        offset = self.sa / self._b_max
        return (offset if rate is None else offset * (self.mean_rate / rate)), self.sa

    def at_offsets(self, g, density=False, log_slope=None, rate=None):
        """CDF, or with `density` the density of y(X) where ln(dy/dx) =
        `log_slope`, at offsets g = sign(b)(x - sm) into the support: the
        reduced law's for equal rates, else the mixture's, its terms from
        `gamma_term`. A `rate` (a float or an array broadcast against g)
        stands for `mean_rate`: the sum with every rate scaled by s =
        rate/mean_rate, whose CDF at g is this one's at s g and whose
        density there is s times this one's, on the same weights."""
        if self.regime == EQUAL_RATES:
            return self._reduced.at_offsets(g, density, log_slope, rate)
        scale = 1.0 if rate is None else rate / self.mean_rate
        g = np.asarray(g if rate is None else scale * g)
        flat = g.reshape(-1)
        if density:  # s times the density at s g; rounding may not take it below 0
            if log_slope is not None:  # one per point: a float y's goes with every rate
                log_slope = np.broadcast_to(log_slope, g.shape).reshape(-1)
            values = _mixture(self, flat, ((DENSITY, slice(0, flat.size)),), log_slope)
            return np.maximum(values.reshape(g.shape) / (1.0 / scale), 0.0)
        # P below the mean offset and Q = 1 - P above it, each tail summed
        # directly, not as 1 minus a sum near 1: one pass, lower points first
        upper = flat > self.mean_offset()
        lower = flat.size - np.count_nonzero(upper)
        sides = ((P, slice(0, lower)), (Q, slice(lower, flat.size)))
        parts = [(kind, part) for kind, part in sides if part.stop > part.start]
        order = np.argsort(upper, kind="stable") if len(parts) > 1 else slice(None)
        out = np.empty_like(flat)
        out[order] = _mixture(self, flat[order], parts)
        np.subtract(1.0, out, out=out, where=upper if self.terms[0].b > 0 else ~upper)
        # rounding may not push a CDF out of [0, 1]
        np.maximum(out, 0.0, out=out)
        return np.minimum(out, 1.0, out=out).reshape(g.shape)


def _check_indices(spec: SumSpec, i: int, k: int):
    if spec.regime != DISTINCT_RATES or not spec._fractions:
        raise DomainError("mixture weights need integer shapes at pairwise-distinct rates")
    if not (1 <= i <= spec.L):
        raise DomainError(f"component index i={i} out of range 1..{spec.L}")
    if not (1 <= k <= spec.shape(i)):
        raise DomainError(f"stage index k={k} out of range 1..{spec.shape(i)}")


def _weights_recursive(shapes, bs):
    """All mixture weights by the base-case product plus descent recursion.

    Returns w[i][k-1] for 0-based component i. The recursion runs in
    integers: the rates are scaled by their common power of two to integers
    B (the weights depend only on rate ratios), and the weight k steps below
    a_i is an integer n_k over D0 P^k k!, D0 = prod_(j!=i) (B_j - B_i)^a_j,
    P = prod_(q!=i) (B_i - B_q). Only the last division, int by int, rounds,
    so each weight is correctly rounded whatever the cancellation.
    """
    ratios = [b.as_integer_ratio() for b in map(float, bs)]
    den = max(d for _, d in ratios)
    rates = [n * (den // d) for n, d in ratios]
    weights = []
    for i, (ai, bi) in enumerate(zip(shapes, rates)):
        others = [(a, b) for j, (a, b) in enumerate(zip(shapes, rates)) if j != i]
        p = math.prod(bi - b for _, b in others)
        d0 = math.prod((b - bi) ** a for a, b in others)
        # base case n_0 = prod_(w!=i) B_w^a_w; descent n_k = sum_(j=1..k)
        # (k-1)!/(k-j)! B_i^j T_j n_(k-j) with T_j = sum_q a_q (P/(B_i - B_q))^j
        cofactors = [(a, p // (bi - b)) for a, b in others]
        t = [bi ** j * sum(a * c ** j for a, c in cofactors) for j in range(ai)]
        n = [math.prod(b ** a for a, b in others)]
        for k in range(1, ai):
            n.append(sum(math.perm(k - 1, j - 1) * t[j] * n[k - j] for j in range(1, k + 1)))
        weights.append([n[k] / (d0 * p ** k * math.factorial(k)) for k in reversed(range(ai))])
    return weights


def _log_weight_bound(shapes, bs):
    """max_i ln |w(i, a_i)| <= ln max |w|: the base cases of the recursion,
    prod_w |b_w|^a_w / |b_i|^a_i prod_(j!=i) |b_j - b_i|^(-a_j), in logs."""
    a, b = np.array(shapes, dtype=float), np.array(bs)
    gaps = np.abs(b[:, None] - b) + np.eye(b.size)
    log_b = np.log(np.abs(b))
    return float(np.max(a @ log_b - a * log_b - np.log(gaps) @ a))


# Above this weight magnitude the partial fractions lose enough digits to
# alternating-sign cancellation that the positive series takes over. A log
# bound above _LOG_HP_SCALE (with a margin) decides it without the exact
# weights, which take 0.3 ms at a total shape of 32 and 15 ms at 128 (2-vCPU Xeon).
_HP_WEIGHT_SCALE = 1e6
_LOG_HP_SCALE = math.log(_HP_WEIGHT_SCALE) + 1e-6

# A partial-fraction value below 2^26 units of rounding of its absolute
# terms, c eps sum |w_ik F_ik| with c = 2^26, is recomputed from the series:
# near the support edge each term is O(u^k) while the sum is O(u^sa), so the
# float sum there is rounding noise. Above the bound it keeps about 7
# significant digits at worst; with moderate weights the bound is reached
# only near the edge.
_ROUNDING_BOUND = 2.0 ** 26 * np.finfo(float).eps

# The series stops once its tail bound falls below this fraction of its sum.
_SERIES_TOL = 2.0 ** -60

# The series is summed in chunks of k, a pass of numpy calls each, whose
# fixed cost is worth about 10^3 values of its (points x k) grid (35-40 us
# against 30-45 ns a value on a 2-vCPU Xeon). A chunk holds twice the terms
# of the last (_CHUNK first, enough near the support edge), or _GRID_MIN
# grid values if that is more and the spec has formed the weights, within
# _CHUNK_MAX terms and _GRID values: a new spec forms only the weights the
# doubling asks for, and one point on a spec that has them takes one pass.
# Neither the chunks nor the steps in which the weights grow change a value.
# It raises once _SERIES_MAX terms leave points live: rates far apart need
# about b_max/b_min ln(1/_SERIES_TOL), and the weights cost their number squared.
_CHUNK, _CHUNK_MAX, _GRID_MIN, _GRID, _SERIES_MAX = 8, 256, 1 << 9, 1 << 14, 1 << 16

_TINY = np.finfo(float).tiny


def _series_chunk(spec, k0, k1):
    """Shapes sa + k, their log-gammas, weights C delta_k and bounds on the
    sum of the later weights, k0 <= k < k1: Moschopoulos' series (Ann. Inst.
    Stat. Math. 37 (1985) 541-544), the law as Pearson III components at the
    largest rate b_max with positive weights.

    C = prod_j (|b_j|/b_max)^a_j, a plain product, delta_0 = 1 and
    k delta_k = sum_{i=1..k} delta_(k-i) sum_j a_j rho_j^i with
    rho_j = 1 - |b_j|/b_max, positive terms only; the weights C delta_k,
    by the same recursion from C, are cached on the spec with the shapes,
    log-gammas and bounds, and extended on demand, each weight the same
    whatever earlier calls formed. C and the deltas depend
    only on the rate ratios |b_j|/b_max, so they serve the sum at every
    common rescaling of its rates. The deltas are the coefficients of
    prod_j (1 - rho_j z)^(-a_j), log-concave for shapes >= 1: once
    r = delta_(k+1)/delta_k < 1 the later weights sum to at most
    C delta_k r/(1 - r). With a shape below 1, delta_k <= (sa)_k rho_max^k / k!,
    the coefficients of (1 - rho_max z)^(-sa), whose sum past k is
    (1 - rho_max)^(-sa) I_rho_max(k + 1, sa) (`betainc`). All the weights sum to 1.
    """
    shapes, log_gamma, w, tail = spec._series
    if w.size <= k1:
        n = min(max(k1 + 1, 2 * w.size), _SERIES_MAX + 1)
        rho = np.array([spec._b_max - abs(t.b) for t in spec.terms]) / spec._b_max
        w = np.concatenate((w, np.empty(n - w.size)))
        w[0] = math.prod((abs(t.b) / spec._b_max) ** a for t, a in zip(spec.terms, spec._shapes))
        # a running sum over the components adds in one order at any n (a reduce may not)
        terms = np.array(spec._shapes, dtype=float)[:, None] * rho[:, None] ** np.arange(1.0, n)
        i_gamma = np.cumsum(terms, axis=0)[-1]
        for j in range(max(shapes.size, 1), n):
            w[j] = (i_gamma[:j] @ w[j - 1::-1]) / j
        more = spec.sa + np.arange(shapes.size, n, dtype=float)
        # the bound at k needs w[k + 1]: the last one waits for the next extension
        before, after = w[tail.size:n - 1], w[tail.size + 1:n]
        if min(spec._shapes) >= 1:
            r = np.divide(after, before, out=np.zeros_like(before), where=before > 0.0)
            bound = np.divide(before * r, 1.0 - r, out=np.ones_like(before), where=r < 1.0)
        else:  # in logs, as C (1 - rho_max)^(-sa) = prod_j (|b_j|/b_min)^a_j may overflow
            log_b = np.log(np.abs([t.b for t in spec.terms]))
            beta = betainc(np.arange(tail.size + 1, n, dtype=float), spec.sa, rho.max())
            log_beta = np.log(beta, out=np.full_like(beta, -math.inf), where=beta > 0.0)
            bound = np.exp(np.minimum(spec._shapes @ (log_b - log_b.min()) + log_beta, 0.0))
        object.__setattr__(spec, "_series", (
            np.concatenate((shapes, more)),
            np.concatenate((log_gamma, [math.lgamma(v) for v in more.tolist()])),
            w,
            np.concatenate((tail, np.minimum(bound, 1.0))),
        ))
    return tuple(x[k0:k1] for x in spec._series)


def _partial_fraction_terms(spec, g, parts, log_slope):
    """Yield Xi(i,k) gamma_term(kind, k, |b_i| g) for every (i, k) over a
    1-d array of points g, each (kind, slice) of `parts` on its slice of
    the points, a density with `log_slope`: weights of both signs."""
    term, u = np.empty_like(g), np.empty_like(g)
    views = [(kind, u[part], term[part]) for kind, part in parts]
    for i, row in enumerate(spec._weights):
        b = abs(spec.terms[i].b)
        np.multiply(g, b, out=u)
        for k, w in enumerate(row, start=1):
            for kind, u_part, term_part in views:
                gamma_term(kind, k, u_part, math.log(b), math.lgamma(k), log_slope, term_part)
            term *= w
            yield term


def _series_sum(spec, g, kind, log_slope):
    """Sum of C delta_k gamma_term(kind, sa + k, u), u = b_max g, k = 0, 1, ...,
    at a 1-d array of points g with its `log_slope`, in chunks of k (one where
    a point needs at most _CHUNK_MAX terms and the weights are formed).

    A point stops at the first k where the bound of _series_chunk on the
    later weights is 0, or where component_k times it is at most
    _SERIES_TOL of the running sum (`cumsum` adds in order) and the
    components no longer rise: P at every k, as P falls with k; the density
    and Q once sa + k >= u, where the density falls and Q has passed about
    1/2. Its value is that running sum, whatever the chunks and points.
    """
    u = g * spec._b_max
    partial = np.zeros_like(u)
    live = np.flatnonzero(u != math.inf)  # Q, the one component taken there, is 0 at inf
    k, width = 0, _CHUNK // 2
    while live.size:
        if k == _SERIES_MAX:
            raise ConvergenceError(f"Moschopoulos' series of {spec} needs over {_SERIES_MAX} terms")
        least = min(_GRID_MIN // live.size, spec._series[3].size - k)  # the weights formed
        width = max(1, min(max(2 * width, least), _CHUNK_MAX, _GRID // live.size, _SERIES_MAX - k))
        shape, log_gamma, weight, tail = _series_chunk(spec, k, k + width)
        v = u[live, None]
        comp = gamma_term(kind, shape, v, math.log(spec._b_max), log_gamma,
                          None if log_slope is None else log_slope[live, None])
        run = np.cumsum(np.concatenate((partial[live, None], comp * weight), axis=1), axis=1)
        rising = kind != P and shape < v  # P falls with k
        on = ((comp * tail > _SERIES_TOL * run[:, 1:]) | rising) & (tail > 0.0)
        np.logical_and.accumulate(on, axis=1, out=on)
        # the term after the last live one is the last that counts
        counted = np.minimum(on.sum(axis=1) + 1, width)
        partial[live] = run[np.arange(live.size), counted]
        live = live[on[:, -1]]
        k += width
    return partial


def _float_mixture(g, terms):
    """Sum of the term arrays that `terms` yields over a 1-d array of points
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


def _mixture(spec, g, parts, log_slope=None):
    """Sum_{i,k} Xi(i,k) gamma_term(kind, k, |b_i| g) over a 1-d array of
    finite gamma-direction offsets g > 0, or g >= 0 for the CDF, which is 0
    at g = 0, each (kind, slice) of `parts` on its slice of the points; a
    density, one part of them all, with `log_slope` (None, or over g).

    The points are summed by _float_mixture over the partial fractions,
    unless the spec is series-only, and over Moschopoulos' series, one call
    a part, at the points whose value falls below _ROUNDING_BOUND times the
    absolute sum of their terms and at those where some |b_i| g is
    subnormal, where scipy's gammainc(1, u) is u or 0.
    """
    tiny = _TINY / min(abs(t.b) for t in spec.terms)
    if spec._series_only:
        total, edge = np.empty_like(g), np.ones(g.shape, dtype=bool)
    else:
        total, bound = _float_mixture(g, _partial_fraction_terms(spec, g, parts, log_slope))
        edge = (total < _ROUNDING_BOUND * bound) | (g < tiny)
    for kind, part in parts:
        side = edge[part]
        if np.count_nonzero(side):
            total[part][side] = _series_sum(
                spec, g[part][side], kind, None if log_slope is None else log_slope[side])
    return total


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
    return evaluate(spec, IDENTITY, x, density=True)


def sum_cdf(spec: SumSpec, x):
    """CDF of the sum at x (a float or an array); saturates outside the
    support."""
    return evaluate(spec, IDENTITY, x)


def _addends(spec: SumSpec):
    """The independent laws the sum adds: its reduced law for equal rates."""
    return (spec._reduced,) if spec.regime == EQUAL_RATES else spec.terms


def sum_moment(spec: SumSpec, n: int) -> float:
    """Raw moment E[(X_1 + ... + X_L)^n], folding in one addend at a time
    by E[(S + X)^j] = sum_k C(j, k) E[S^k] E[X^(j-k)]."""
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got n={n}")
    moments = [1.0] + [0.0] * n
    for t in _addends(spec):
        own = [p3_moment(t, k) for k in range(n + 1)]
        moments = [
            math.fsum(math.comb(j, k) * moments[k] * own[j - k] for k in range(j + 1))
            for j in range(n + 1)
        ]
    return moments[n]


def logsum_cdf(spec: SumSpec, y):
    """CDF of exp(SX_L) at y > 0 (a float or an array)."""
    return evaluate(spec, LOG, y)


def logsum_pdf(spec: SumSpec, y):
    """Density of exp(SX_L) at interior points y (a float or an array)."""
    return evaluate(spec, LOG, y, density=True)


def logsum_moment(spec: SumSpec, n: int) -> float:
    """Raw moment E[exp(SX_L)^n], the product of the addend moments;
    positive rates must all exceed n."""
    return math.prod(lp3_moment(t, n) for t in _addends(spec))


def logitsum_cdf(spec: SumSpec, z):
    """CDF of logistic(SX_L) at z in (0, 1) (a float or an array)."""
    return evaluate(spec, LOGIT, z)


def logitsum_pdf(spec: SumSpec, z):
    """Density of logistic(SX_L) at interior points z (a float or an array)."""
    return evaluate(spec, LOGIT, z, density=True)


def logitsum_moment(spec: SumSpec, n: int) -> float:
    """Raw moment E[logistic(SX_L)^n]; requires every b_i > 0.

    `logitp3.ltp3_moment` of the sum's law: one positive integral against
    its density, the reduced law's for equal rates, else the mixture's.
    """
    if n > 0 and spec.terms[0].b < 0:
        raise DomainError("logit-sum moments require positive rates on every component")
    return ltp3_moment(spec, n)


def spec_to_json(spec: SumSpec) -> str:
    """Serialize as {"terms": [{"a": num, "b": num, "m": num}, ...]}, an
    integer shape as an int."""
    return json.dumps({"terms": [
        {"a": int(t.a) if float(t.a).is_integer() else t.a, "b": t.b, "m": t.m}
        for t in spec.terms
    ]})


def spec_from_json(doc: str) -> SumSpec:
    """Parse the JSON document produced by spec_to_json."""
    try:
        payload = json.loads(doc)
        fields = [(float(t["a"]), float(t["b"]), float(t.get("m", 0.0))) for t in payload["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed sum spec document: {exc}") from exc
    return SumSpec(tuple(Pearson3Params(*f) for f in fields))
