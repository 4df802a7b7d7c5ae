"""Robustness gate: every public function returns a finite value or raises
a library error.

A fixed grid of parameters and points, with 0, +-1e-300, +-1e300, +-inf and
NaN among them, goes to the `Pearson3Params` constructor and to every
public function of `pearson3`, `logp3`, `logitp3` and `specfun`. Each call
runs under a 1 s alarm. It must return, or raise `DomainError` or
`ConvergenceError` (or a subclass). Where every argument is finite, what it
returns must be finite: a float, both parts of a complex value and each
element of an array. A law returned has finite fields whatever the
arguments, and a support interval may have an infinite end, but not a NaN
one. A numpy RuntimeWarning, which the suite raises as an error, is a
fault too.
"""

import math
import signal
from itertools import product

import numpy as np

from p3family import logitp3, logp3, pearson3, specfun
from p3family.errors import ConvergenceError, DomainError
from p3family.pearson3 import Pearson3Params

EXTREMES = (0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan)
POINTS = EXTREMES + (0.5, 1.0, -1.0, 2.5)
ORDERS = (-1, 0, 1, 2)
SHAPES = (1e-300, 2.5, 1e300)
RATES = (1e-300, -1e-300, 1.5, -1.5, 1e300, -1e300)
SHIFTS = (0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0)


def _calls():
    """(function, args) for every call of the gate."""
    for args in product(EXTREMES + (2.5,), repeat=3):
        yield Pearson3Params, args
    for law in (Pearson3Params(*p) for p in product(SHAPES, RATES, SHIFTS)):
        for f in (pearson3.p3_pdf, pearson3.p3_cdf, pearson3.p3_char_fn, pearson3.p3_scale,
                  logp3.lp3_pdf, logp3.lp3_cdf, logp3.lp3_char_fn_series,
                  logitp3.ltp3_pdf, logitp3.ltp3_cdf):
            for x in POINTS:
                yield f, (law, x)
        for f in (pearson3.p3_moment, logp3.lp3_moment, logitp3.ltp3_moment):
            for n in ORDERS:
                yield f, (law, n)
        for f in (logp3.lp3_support, logitp3.ltp3_support,
                  logitp3.ltp3_mean_closed, logitp3.ltp3_second_moment_closed):
            yield f, (law,)
        for count in (0, 3):
            yield pearson3.p3_sample, (law, 7, count)
    for a, b in product(EXTREMES + (2.5,), repeat=2):
        for z in POINTS:
            yield logitp3.logit_gamma_cdf, (a, b, z)
            yield logitp3.logit_gamma_pdf, (a, b, z)
        for n in ORDERS:
            yield logitp3.logit_gamma_moment, (a, b, n)
    for args in product(EXTREMES + (0.5, 2.5), repeat=3):
        yield specfun.gamma_integral_lower, args
        yield specfun.gamma_integral_upper, args
    for z in (0.0, -1e-300, -0.5, -1.0, 0.5, math.nan, -math.inf):
        for s, alpha in product(EXTREMES + (2.5,), repeat=2):
            yield specfun.lerch_phi, (z, s, alpha)


def _finite(x) -> bool:
    if isinstance(x, Pearson3Params):
        return _finite((x.a, x.b, x.m))
    return bool(np.isfinite(np.asarray(x, dtype=complex)).all())


def _fault(f, args):
    """None where the call keeps the rule, else what went wrong."""
    try:
        out = f(*args)
    except (DomainError, ConvergenceError):
        return None
    except Exception as e:  # noqa: BLE001 -- any other exception is the fault
        return f"raised {type(e).__name__}: {e}"
    if isinstance(out, tuple):  # a support interval
        return f"returned {out}" if any(map(math.isnan, out)) else None
    # a law is never returned with a non-finite field, whatever the arguments
    if (isinstance(out, Pearson3Params) or all(map(_finite, args))) and not _finite(out):
        return f"returned {out!r}"
    return None


def _timeout(signum, frame):
    raise TimeoutError("no return within 1 s")


def test_public_functions_return_finite_values_or_library_errors():
    called, faults = set(), []
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for f, args in _calls():
            called.add(f.__name__)
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                fault = _fault(f, args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            if fault:
                faults.append(f"{f.__name__}{args} {fault}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    public = {name for mod in (pearson3, logp3, logitp3, specfun) for name in mod.__all__}
    assert called == public
    assert not faults, f"{len(faults)} faults, the first: " + "; ".join(faults[:5])
