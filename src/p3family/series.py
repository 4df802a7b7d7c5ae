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

from .errors import ConvergenceError

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
    relative to the running partial sum. Where the terms run out, or reach
    `_MAX_TERMS`, before that, raises ConvergenceError naming the terms
    consumed, the last partial sum and the last term.
    """
    total = 0.0
    small = count = 0
    t = None
    for count, t in enumerate(islice(terms, _MAX_TERMS), start=1):
        total = total + t
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
# points.
_STEP = 1.0
_GRID_LOW, _GRID_HIGH = 720.0, 8.0
_T_MIN = math.log(np.finfo(float).tiny)
_SMALLEST = np.finfo(float).smallest_subnormal
# The integral runs over the grid cells where the integrand is above
# e^(-_BRACKET) of its largest grid value, and one cell beyond each end.
_BRACKET = 40.0
# Each cell is split into panels of at most _LOG_SPAN change in the log of
# the integrand between its ends (a change beyond the bracket counting as
# _BRACKET + _LOG_SPAN), and of at most _CURVE_SPAN widths of a peak, the
# width 1/sqrt(curvature) read from the log of the integrand on the grid,
# with the Gauss-Legendre rule of _NODES nodes on each panel.
_LOG_SPAN, _CURVE_SPAN = 6.0, 2.0
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(10)
# The integrands bend at x = 0, where the logistic turns, over a width of
# order 1 in x: panels also end at these distances from it in x.
_BENDS = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
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

    An array of rates gives an array of one expectation per rate, each for
    the law rescaled to that rate as `law.at_offsets(..., rate=)` does: the
    density is evaluated in one call over all their grids and one over all
    their nodes, for each batch of _RATES rates. An empty array of rates
    gives an empty array. A float rate, or None for the law itself, gives a
    float.
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
        near = np.log(np.concatenate((bend - _BENDS[_BENDS < bend], [bend], bend + _BENDS)))
    batch = [None] if rate is None else np.ravel(rate).tolist()

    def integrand(pieces):
        # h f g at t = ln g for each rate's array of t, in one call
        sizes = [u.size for u in pieces]
        g = np.exp(np.concatenate(pieces))
        rates = None if rate is None else np.repeat(batch, sizes)
        out = h(g) * law.at_offsets(g, density=True, rate=rates) * g
        return [out[end - size:end] for size, end in zip(sizes, accumulate(sizes))]

    grids = []
    for r in batch:
        centre = math.log(law.mean_offset(r))
        top = max(centre, log_bend) + _GRID_HIGH
        grids.append(np.arange(max(centre - _GRID_LOW, _T_MIN), top + _STEP, _STEP))
    panels, tails = [], []
    for t, v in zip(grids, integrand(grids)):
        peak = v.max()
        if peak == 0.0:  # no panels: the value is 0.0
            panels.append((np.empty(0), np.empty((0, _NODES.size))))
            tails.append(0.0)
            continue
        inside = np.flatnonzero(v >= math.exp(-_BRACKET) * peak)
        cells = slice(max(inside[0] - 1, 0), min(inside[-1] + 1, t.size - 1) + 1)
        panels.append(_panels(t[cells], v[cells], near))
        # A law of shape a below about 40/_GRID_LOW still carries weight at
        # the bottom of the grid, where the integrand is c e^(k t) with
        # k >= a: the rest of it is v[0] / k.
        low = cells.start == 0 and v[1] > v[0]
        tails.append(v[0] * _STEP / math.log(v[1] / v[0]) if low else 0.0)
    nodes = integrand([n.ravel() for _, n in panels])
    out = [half @ (f.reshape(n.shape) @ _WEIGHTS) + tail
           for (half, n), f, tail in zip(panels, nodes, tails)]
    return float(out[0]) if rate is None or np.ndim(rate) == 0 else np.array(out)


def _panels(t, values, near):
    """Half-widths and Gauss-Legendre nodes, a row per panel, of the panels
    that split the grid cells of t, with integrand `values` there, and end
    at the points `near` inside them."""
    log_values = np.log(np.maximum(values, _SMALLEST))
    curve = np.zeros_like(log_values)
    curve[1:-1] = np.abs(np.diff(log_values, 2))
    change = np.minimum(np.abs(np.diff(log_values)), _BRACKET + _LOG_SPAN)
    splits = np.ceil(np.maximum(change / _LOG_SPAN,
                                np.sqrt(np.maximum(curve[:-1], curve[1:])) / _CURVE_SPAN))
    splits = np.maximum(splits, 1.0).astype(int)
    cell = np.repeat(np.arange(splits.size), splits)
    part = np.arange(cell.size) - np.repeat(np.cumsum(splits) - splits, splits)
    edges = np.append(t[cell] + _STEP * part / splits[cell], t[-1])
    if near.size:
        edges = np.union1d(edges, near[(near > t[0]) & (near < t[-1])])
    half = 0.5 * np.diff(edges)
    return half, (edges[:-1] + half)[:, None] + half[:, None] * _NODES
