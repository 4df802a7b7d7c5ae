"""Infinite-series summation with a uniform truncation policy.

Two evaluators are provided: plain truncation for series whose terms
eventually decay monotonically, and an Euler-transform accelerator for
alternating series, which also handles the conditionally convergent
boundary cases. The Euler estimate is the repeated pairwise average of the
last partial sums, taken as one dot product with cached binomial weights.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import ConvergenceError

_TINY = 1e-300


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for every infinite series in the library.

    rel_tol: relative tolerance on the term (plain) or on successive
        accelerated estimates (alternating).
    max_terms: hard cap on the number of terms consumed.
    consecutive_small: number of successive below-tolerance steps required
        before stopping.
    """

    rel_tol: float = 1e-12
    max_terms: int = 10_000
    consecutive_small: int = 3

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.consecutive_small < 1:
            raise ValueError("consecutive_small must be >= 1")


DEFAULT_CONTROL = SeriesControl()


def sum_series(terms, ctl: SeriesControl = DEFAULT_CONTROL):
    """Sum an iterable of (real or complex) terms by plain truncation.

    Stops once `ctl.consecutive_small` successive terms are below
    `ctl.rel_tol` relative to the running partial sum.
    """
    total = 0.0
    small = 0
    exhausted = True
    for t in islice(terms, ctl.max_terms):
        total = total + t
        if abs(t) <= ctl.rel_tol * max(abs(total), _TINY):
            small += 1
            if small >= ctl.consecutive_small:
                exhausted = False
                break
        else:
            small = 0
    if exhausted:
        raise ConvergenceError(
            f"series did not converge within {ctl.max_terms} terms"
        )
    return total


@lru_cache(maxsize=None)
def _euler_weights(n: int):
    # Repeated pairwise averaging of n partial sums collapsed to a single
    # value: the binomially weighted mean with weights C(n-1, k) / 2^(n-1).
    return np.array([math.comb(n - 1, k) for k in range(n)], dtype=float) / 2.0 ** (n - 1)


def sum_alternating(terms, ctl: SeriesControl = DEFAULT_CONTROL,
                    block: int = 16, window: int = 256):
    """Sum an alternating series with Euler-transform acceleration.

    `terms` yields the signed terms. Partial sums are accumulated in
    blocks; after each block the averaging transform is applied and
    the run stops once `ctl.consecutive_small` successive estimates agree
    to `ctl.rel_tol`. Handles conditionally convergent and Abel-summable
    alternating series that plain truncation cannot.
    """
    it = iter(terms)
    partials = []
    total = 0.0
    prev = None
    small = 0
    eps = 2.220446049250313e-16
    while len(partials) < ctl.max_terms:
        produced = 0
        for t in islice(it, block):
            total += t
            partials.append(total)
            produced += 1
        if produced == 0:
            # Finite series: the plain sum is exact.
            return total
        recent = np.asarray(partials[-window:], dtype=float)
        est = float(_euler_weights(recent.size) @ recent)
        if prev is not None:
            tol = ctl.rel_tol * max(abs(est), _TINY)
            # Abel-summable series with growing terms (e.g. (-1)^l times a
            # polynomial) stabilize to the roundoff floor of the averaged
            # partial sums, not to an arbitrary relative tolerance; accept
            # that floor while it is still far below the estimate.
            floor = 64.0 * eps * float(np.abs(recent).max())
            if floor <= 1e-8 * max(abs(est), _TINY):
                tol = max(tol, floor)
            if abs(est - prev) <= tol:
                small += 1
                if small >= ctl.consecutive_small:
                    return est
            else:
                small = 0
        prev = est
    raise ConvergenceError(
        f"alternating series did not stabilize within {ctl.max_terms} terms"
    )
