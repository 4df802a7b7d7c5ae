"""Infinite-series summation with a uniform truncation policy.

Two evaluators are provided: plain truncation for series whose terms
eventually decay monotonically, and an Euler-transform accelerator for
alternating series, which also handles the conditionally convergent
boundary cases. The Euler estimate is the repeated pairwise average of the
last partial sums, taken as one dot product with cached binomial weights.
"""

import math
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import ConvergenceError

_TINY = 1e-300

# Truncation policy of every series: relative tolerance on the term (plain)
# or on successive accelerated estimates (alternating), a cap on the terms
# consumed, and the number of successive below-tolerance steps that stops.
_REL_TOL = 1e-12
_MAX_TERMS = 10_000
_CONSECUTIVE_SMALL = 3
# The alternating evaluator averages the last _WINDOW partial sums after
# every _BLOCK terms.
_BLOCK = 16
_WINDOW = 256


def sum_series(terms):
    """Sum an iterable of (real or complex) terms by plain truncation.

    Stops once `_CONSECUTIVE_SMALL` successive terms are below `_REL_TOL`
    relative to the running partial sum.
    """
    total = 0.0
    small = 0
    exhausted = True
    for t in islice(terms, _MAX_TERMS):
        total = total + t
        if abs(t) <= _REL_TOL * max(abs(total), _TINY):
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                exhausted = False
                break
        else:
            small = 0
    if exhausted:
        raise ConvergenceError(
            f"series did not converge within {_MAX_TERMS} terms"
        )
    return total


@lru_cache(maxsize=None)
def _euler_weights(n: int):
    # Repeated pairwise averaging of n partial sums collapsed to a single
    # value: the binomially weighted mean with weights C(n-1, k) / 2^(n-1).
    return np.array([math.comb(n - 1, k) for k in range(n)], dtype=float) / 2.0 ** (n - 1)


def sum_alternating(terms):
    """Sum an alternating series with Euler-transform acceleration.

    `terms` yields the signed terms. Partial sums are accumulated in
    blocks; after each block the averaging transform is applied and
    the run stops once `_CONSECUTIVE_SMALL` successive estimates agree
    to `_REL_TOL`. Handles conditionally convergent and Abel-summable
    alternating series that plain truncation cannot.
    """
    it = iter(terms)
    partials = []
    total = 0.0
    prev = None
    small = 0
    eps = 2.220446049250313e-16
    while len(partials) < _MAX_TERMS:
        produced = 0
        for t in islice(it, _BLOCK):
            total += t
            partials.append(total)
            produced += 1
        if produced == 0:
            # Finite series: the plain sum is exact.
            return total
        recent = np.asarray(partials[-_WINDOW:], dtype=float)
        est = float(_euler_weights(recent.size) @ recent)
        if prev is not None:
            tol = _REL_TOL * max(abs(est), _TINY)
            # Abel-summable series with growing terms (e.g. (-1)^l times a
            # polynomial) stabilize to the roundoff floor of the averaged
            # partial sums, not to an arbitrary relative tolerance; accept
            # that floor while it is still far below the estimate.
            floor = 64.0 * eps * float(np.abs(recent).max())
            if floor <= 1e-8 * max(abs(est), _TINY):
                tol = max(tol, floor)
            if abs(est - prev) <= tol:
                small += 1
                if small >= _CONSECUTIVE_SMALL:
                    return est
            else:
                small = 0
        prev = est
    raise ConvergenceError(
        f"alternating series did not stabilize within {_MAX_TERMS} terms"
    )
