"""Series summation and expectations against a law.

`sum_series` sums a series whose terms eventually decay monotonically, by
plain truncation. `expect` is the one rule for the moments that have no
closed form: the integral of a function of the offset into the support
against the positive density of a law, by fixed Gauss-Legendre panels in
the log of the offset.
"""

import math
from itertools import accumulate, islice

import numpy as np

from .errors import ConvergenceError, DomainError
from .pearson3 import blockwise

_TINY = 1e-300

# Truncation policy of every series: relative tolerance on the term, a cap
# on the terms consumed, and the number of successive below-tolerance terms
# that stops.
_REL_TOL = 1e-12
_MAX_TERMS = 10_000
_CONSECUTIVE_SMALL = 3


def sum_series(terms):
    """Sum an iterable of (real or complex) terms by plain truncation.

    Stops once `_CONSECUTIVE_SMALL` successive terms are below `_REL_TOL`
    relative to the running partial sum. Where the terms run out, reach
    `_MAX_TERMS` or make the partial sum inf or NaN before that, raises
    ConvergenceError naming the terms consumed, the last partial sum and
    the last term.
    """
    total = 0.0
    small = count = 0
    t = None
    for count, t in enumerate(islice(terms, _MAX_TERMS), start=1):
        total = total + t
        if not abs(total) < math.inf:
            break
        if abs(t) <= _REL_TOL * max(abs(total), _TINY):
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"series did not converge: {count} terms consumed (at most {_MAX_TERMS}), "
        f"last partial sum {total!r}, last term {t!r}"
    )


# The grid of `expect`, in t = ln g: steps of _STEP from _GRID_LOW below the
# log of the mean offset (or from the least normal double) to _GRID_HIGH
# above it, or above x = 0 where that lies further out. A unit step finds
# peaks up to a shape of about 4000 before they underflow between grid
# points. The density is evaluated from a rising start on, where g f(g)
# still rises (`law.rising_offset`) less a margin of 2 _BRACKET/power + 2
# in t, below which h f g stays under the bracket; where a check on the
# grid cannot show that, from the bottom of the grid.
_STEP = 1.0
_GRID_LOW, _GRID_HIGH = 720.0, 8.0
_T_MIN = math.log(np.finfo(float).tiny)
_SMALLEST = np.finfo(float).smallest_subnormal
# The integral runs over the grid cells where the integrand is above
# e^(-_BRACKET) of its largest grid value, and one cell beyond each end.
_BRACKET = 40.0
_FLOOR = math.exp(-_BRACKET)
# Each cell is split into panels of at most _LOG_SPAN change in the log of
# the integrand between its ends (a change beyond the bracket counting as
# _BRACKET + _LOG_SPAN), and of at most _CURVE_SPAN widths of a peak, the
# width 1/sqrt(curvature) read from the log of the integrand on the grid,
# with the Gauss-Legendre rule of _NODES nodes on each panel. The panels of
# every rate of a batch are built in one pass over their brackets.
_LOG_SPAN, _CURVE_SPAN = 6.0, 2.0
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(10)
# The integrands bend at x = 0, where the logistic turns, over a width of
# order 1 in x: panels also end at these distances from it in x.
_BENDS = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
_AROUND = np.concatenate((-_BENDS, [0.0], _BENDS))
# Rates per batch of `expect`: each adds about 55 kB to the batch's arrays,
# and the time per rate stops falling at a few dozen.
_RATES = 64


def expect(law, h, rate=None):
    """E[h(g)] for the offset g = sign(b)(X - edge) of X from the support
    edge of `law`, a `pearson3.Pearson3Params` or a `sums.SumSpec`.

    `h` maps an array of offsets g > 0 to finite values >= 0. The integral
    of h against the density that `law.at_offsets(g, density=True)` gives
    is taken in t = ln g, where the integrand h(g) f(g) g has no g^(a-1)
    singularity at the edge, over the bracket that a grid of fixed step in
    t finds around `law.mean_offset()`, by fixed Gauss-Legendre panels. A
    positive integrand has no cancellation. Returns 0.0 where the
    integrand underflows on the whole grid.

    h is evaluated on the whole grid, the density only from a rising start
    below the bracket: below `law.rising_offset()`, g f(g) does not
    decrease, so where twice the largest h below the start times f g at the
    start is under e^(-_BRACKET) of the peak, and the bracket begins above
    the start, no point below it can join the bracket or the peak. Where
    that does not hold, the density is evaluated on the rest of the grid
    too. Either way the values are those of the whole grid, to the last bit.

    An array of rates gives an array of one expectation per rate, each for
    the law rescaled to that rate as `law.at_offsets(..., rate=)` does: the
    density is evaluated over all their grids together and over all their
    nodes together, by `pearson3.blockwise`, for each batch of _RATES
    rates, whose panels are built in one pass. An empty array of rates
    gives an empty array. A float rate, or None for the law itself, gives a
    float. DomainError where the mean offset or the integrand on the grid
    leaves the double range.
    """
    if np.size(rate) == 0:
        return np.empty(0)
    if np.size(rate) > _RATES:
        rates = np.ravel(rate)
        return np.concatenate([expect(law, h, rates[i:i + _RATES])
                               for i in range(0, rates.size, _RATES)])
    lo, hi = law.support()
    bend = -lo if hi == math.inf else hi  # the offset of x = 0
    log_bend, near = -math.inf, np.empty(0)
    if bend > 0.0:
        log_bend = math.log(bend)
        near = np.log(bend + _AROUND[_AROUND > -bend])
    batch = [None] if rate is None else np.ravel(rate).tolist()

    def integrand(g, h_g, rates, sizes):
        # h f g and f at the offsets g, where h is h_g, the first sizes[0] at
        # rates[0] and so on: an array of each per rate
        f = blockwise(law.at_offsets, g, None if rate is None else np.repeat(rates, sizes), True)
        np.fmax(f, 0.0, out=f)  # NaN where b g is inf: there e^(-b g) makes f 0
        ends = list(accumulate(sizes))
        return [[x[end - n:end] for n, end in zip(sizes, ends)] for x in (_weigh(h_g, f, g), f)]

    grids, starts = [], []
    for r in batch:
        mean = law.mean_offset(r)
        if not 0.0 < mean < math.inf:
            raise DomainError(f"the mean offset {mean} of {law} is beyond the double range")
        centre = math.log(mean)
        top = max(centre, log_bend) + _GRID_HIGH
        bottom = max(centre - _GRID_LOW, _T_MIN)
        grids.append(np.arange(bottom, top + _STEP, _STEP))
        offset, power = law.rising_offset(r)
        rise = 0.0
        if 0.0 < offset < math.inf:  # in steps, from the bottom of the grid
            rise = (math.log(offset) - bottom) / _STEP - 2.0 * _BRACKET / power - 2.0
        starts.append(math.floor(rise) if rise > 0.0 else 0)
    sizes = [t.size for t in grids]
    g = np.exp(np.concatenate(grids))
    h_g = h(g)
    # each rate's values from its start on, then below the starts that fail
    # the check, all rates together each time
    spans = [slice(end - size + s, end) for size, end, s in zip(sizes, accumulate(sizes), starts)]
    values, densities = integrand(_gather(g, spans), _gather(h_g, spans), batch,
                                  [size - s for size, s in zip(sizes, starts)])
    brackets = [_bracket(v, law) for v in values]
    redo = [i for i, (j, s, f, (peak, inside)) in enumerate(zip(spans, starts, densities, brackets))
            if s and not (inside[0] >= 1 and 2.0 * h_g[j.start - s:j.start].max() * f[0]
                          * g[j.start] < _FLOOR * peak)]
    if redo:
        spans = [slice(spans[i].start - starts[i], spans[i].start) for i in redo]
        below, _ = integrand(_gather(g, spans), _gather(h_g, spans), [batch[i] for i in redo],
                             [starts[i] for i in redo])
        for i, v in zip(redo, below):
            values[i] = np.concatenate((v, values[i]))
            brackets[i] = _bracket(values[i], law)
            starts[i] = 0
    out = np.zeros(len(batch))
    cells, served = [], []
    for i, (t, v, s, (peak, inside)) in enumerate(zip(grids, values, starts, brackets)):
        if peak == 0.0:  # no panels: the value is 0.0
            continue
        first, last = max(inside[0] - 1, 0), min(inside[-1] + 1, v.size - 1) + 1
        cells.append((t[s + first:s + last], v[first:last]))
        served.append(i)
        # A law of shape a below about 40/_GRID_LOW still carries weight at
        # the bottom of the grid, where the integrand is c e^(k t) with
        # k >= a: the rest of it is v[0] / k.
        if s == 0 and first == 0 and v[1] > v[0]:
            out[i] = v[0] * _STEP / math.log(v[1] / v[0])
    if served:
        half, nodes, counts = _panels(cells, near)
        g = np.exp(nodes.ravel())
        values, _ = integrand(g, h(g), [batch[i] for i in served],
                              [n * _NODES.size for n in counts])
        for i, v, end, n in zip(served, values, accumulate(counts), counts):
            out[i] += half[end - n:end] @ (v.reshape(n, _NODES.size) @ _WEIGHTS)
    return float(out[0]) if rate is None or np.ndim(rate) == 0 else out


@np.errstate(invalid="ignore")  # 0 inf, where the density f overflows, is a NaN _bracket raises
def _weigh(h, f, g):
    return h * f * g


def _gather(x, spans):
    """The slices `spans` of the array x, one after another."""
    return x[spans[0]] if len(spans) == 1 else np.concatenate([x[j] for j in spans])


def _bracket(v, law):
    """The largest of the integrand values v and the indices of those
    within e^(-_BRACKET) of it; DomainError where it is not finite."""
    peak = v.max()
    if not peak < math.inf:  # inf, or NaN where the density overflows
        raise DomainError(f"the integrand against {law} is beyond the double range")
    return peak, (v >= _FLOOR * peak).nonzero()[0]


def _panels(cells, near):
    """Half-widths and Gauss-Legendre nodes, a row per panel, of the panels
    that split the grid cells of each (t, values) of `cells`, a rate's
    bracket with the integrand there, and end at the points `near` inside
    them; and the number of panels of each bracket.

    The brackets are built in one pass over their points, concatenated:
    the last point of a bracket is a cell of one panel edge, its own. The
    points `near` each bracket holds join its edges in one lexsort by
    bracket and value, which drops repeats, as a union per bracket would;
    a lone bracket needs only a sort."""
    sizes = [c[0].size for c in cells]
    ends = list(accumulate(sizes))
    first, last = np.array([0] + ends[:-1]), np.array(ends) - 1
    t, values = cells[0] if len(cells) == 1 else map(np.concatenate, zip(*cells))
    log_values = np.log(np.maximum(values, _SMALLEST))
    step = log_values[1:] - log_values[:-1]
    curve = np.concatenate(([0.0], np.abs(step[1:] - step[:-1]), [0.0]))
    curve[first] = curve[last] = 0.0  # no curvature at the ends of a bracket
    splits = np.ones(t.size, dtype=int)
    splits[:-1] = np.maximum(np.ceil(np.maximum(
        np.minimum(np.abs(step), _BRACKET + _LOG_SPAN) / _LOG_SPAN,
        np.sqrt(np.maximum(curve[:-1], curve[1:])) / _CURVE_SPAN)), 1.0)
    splits[last] = 1
    cell = np.repeat(np.arange(t.size), splits)
    part = np.arange(cell.size) - (np.cumsum(splits) - splits)[cell]
    edges = t[cell] + _STEP * part / splits[cell]
    if len(cells) == 1:  # the lexsort below makes a single call 10-15% slower
        if near.size:
            edges = np.concatenate((edges, near[(near > t[0]) & (near < t[-1])]))
            edges.sort()
            edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
        keep, counts = slice(None), [edges.size - 1]
    else:
        owner = np.searchsorted(last, cell)
        which, at = np.nonzero((near > t[first][:, None]) & (near < t[last][:, None]))
        edges = np.concatenate((edges, near[at]))
        owner = np.concatenate((owner, which))
        order = np.lexsort((edges, owner))
        edges, owner = edges[order], owner[order]
        fresh = np.ones(edges.size, dtype=bool)
        fresh[1:] = (edges[1:] != edges[:-1]) | (owner[1:] != owner[:-1])
        edges, owner = edges[fresh], owner[fresh]
        keep, counts = owner[1:] == owner[:-1], np.bincount(owner, minlength=last.size) - 1
    lower = edges[:-1][keep]
    half = 0.5 * (edges[1:][keep] - lower)
    return half, (lower + half)[:, None] + half[:, None] * _NODES, counts
