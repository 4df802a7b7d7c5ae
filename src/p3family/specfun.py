"""Special functions: the Lerch transcendent on ``z in [-1, 0]``, as the
gamma integral of a logistic that `series.expect` takes, and the truncated
gamma integrals ``int_0^T x^(a-1) exp(-s x) dx`` and ``int_T^inf`` of any
real rate ``s``: ``gammainc`` for positive rates, the Kummer function
``hyp1f1`` in closed form for the rest, and a Watson-lemma tail where
``Q(a, s T)`` underflows. The two integrals are the package's public
incomplete-gamma functions of any rate; no moment is computed from them.
"""

import math
import sys

from scipy import special as _sp

from .errors import DomainError
from .pearson3 import Pearson3Params
from .series import expect

__all__ = ["gamma_integral_lower", "gamma_integral_upper", "lerch_phi"]


def gamma_integral_lower(a: float, s: float, T: float) -> float:
    """Evaluate int_0^T x^(a-1) exp(-s x) dx for any real rate s.

    For s > 0 this is s^(-a) * gamma_lower(a, s T); for s <= 0, and where
    P(a, s T) underflows, it is exp(-s T) (T^a / a) M(1, a+1, s T), the
    integral (T^a / a) M(a, a+1, -s T) of DLMF 8.5.1 after Kummer's
    transformation (DLMF 13.2.39). Either is combined in log space, so
    that only an integral beyond double range fails, with DomainError. At
    T = inf it is the complete integral Gamma(a) s^(-a), which diverges
    unless s > 0.
    """
    _check_integral("gamma_integral_lower", a, s, T)
    if T == 0.0:
        return 0.0
    p = float(_sp.gammainc(a, s * T)) if s > 0 else 0.0
    if p == 0.0:
        # s <= 0, or P(a, s T) underflows; M(1, a+1, s T) is 0 or NaN only
        # where -s T, and so the integral, is far beyond double range or inf
        m1 = _kummer_m1(a, s * T)
        log_value = a * math.log(T) - math.log(a) - s * T + math.log(m1) if m1 > 0 else math.inf
    else:
        log_value = math.lgamma(a) - a * math.log(s) + math.log(p)
    return _exp_in_range(log_value, "gamma_integral_lower", a, s, T)


def _check_integral(name: str, a: float, s: float, T: float):
    if not (0 < a < math.inf and math.isfinite(s) and T >= 0):  # NaN fails each test
        raise DomainError(f"{name} needs finite a > 0 and s, and T >= 0; got a={a}, s={s}, T={T}")


def _kummer_m1(a: float, x: float) -> float:
    # M(1, a+1, x) is 1 to double precision for |x| <= 2^-54, where scipy's
    # hyp1f1 returns nan for some x < 0 (below about 1e-238 at a = 10)
    return 1.0 if abs(x) <= 2.0 ** -54 else float(_sp.hyp1f1(1.0, a + 1.0, x))


def _exp_in_range(log_value: float, name: str, a: float, s: float, T: float) -> float:
    if log_value < math.inf:  # not inf or NaN, where s T or a ln T overflows
        try:
            return math.exp(log_value)
        except OverflowError:
            pass
    raise DomainError(f"{name}(a={a}, s={s}, T={T}) exceeds the double range")


def gamma_integral_upper(a: float, s: float, T: float) -> float:
    """Evaluate int_T^inf x^(a-1) exp(-s x) dx = s^(-a) Gamma(a, s T).

    Divergent unless s > 0. Formed in log space as ln Gamma(a) - a ln s +
    ln Q(a, s T), and where Q is below the normal range (s T far above a)
    as -s T plus the log of the Watson tail, so that only an integral
    beyond double range fails, with DomainError. It is 0.0 at T = inf.
    """
    _check_integral("gamma_integral_upper", a, s, T)
    if s <= 0:
        raise DomainError(f"gamma_integral_upper diverges for s <= 0, got s={s}")
    if T == math.inf:
        return 0.0
    sT = s * T
    q = float(_sp.gammaincc(a, sT))
    if q >= sys.float_info.min:
        log_value = math.lgamma(a) - a * math.log(s) + math.log(q)
    else:
        log_value = _log_watson_tail(a, sT, T) - sT
    return _exp_in_range(log_value, "gamma_integral_upper", a, s, T)


def _log_watson_tail(a: float, sT: float, T: float) -> float:
    """Log of the asymptotic value of exp(s T) * int_T^inf x^(a-1) exp(-s x) dx.

    Watson's lemma about the endpoint x = T: substituting x = T + t and
    expanding (T + t)^(a-1) gives T^(a-1)/s * sum_j prod_{i<=j}(a-i)/(sT)^j.
    Truncated at the smallest term. `gamma_integral_upper` takes it only
    where Q(a, s T) underflows, so s T is far above a, and there the
    truncation error is far below double precision.
    """
    term = total = 1.0
    j = 1
    while True:
        nxt = term * (a - j) / sT
        if abs(nxt) >= abs(term) or abs(nxt) <= 1e-18 * abs(total):
            return (a - 1.0) * math.log(T) - math.log(sT / T) + math.log(total + nxt)
        total += nxt
        term = nxt
        j += 1


def lerch_phi(z: float, s: float, alpha: float) -> float:
    """Lerch transcendent Phi(z, s, alpha) = sum_k z^k / (k + alpha)^s.

    Restricted to z in [-1, 0] and finite s > 0, alpha > 0. For z < 0 it is the
    integral of DLMF 25.14.5, alpha^(-s) E[logistic(G/alpha - ln(-z))] for
    G ~ Gamma(s, 1): `series.expect` of the logistic against the Pearson
    III law of G/alpha - ln(-z), a positive integrand also at the
    conditionally convergent endpoint z = -1. DomainError where alpha^(-s)
    exceeds the double range.
    """
    if not (-1.0 <= z <= 0.0):
        raise DomainError(f"lerch_phi requires z in [-1, 0], got z={z}")
    if not (0 < s < math.inf and 0 < alpha < math.inf):
        raise DomainError(f"lerch_phi needs finite s > 0 and alpha > 0, got s={s}, alpha={alpha}")
    try:
        scale = alpha ** (-s)
    except OverflowError:
        raise DomainError(f"lerch_phi(z={z}, s={s}, alpha={alpha}): alpha^(-s) "
                          "exceeds the double range") from None
    if z == 0.0:
        return scale
    shift = -math.log(-z)
    return scale * expect(Pearson3Params(s, alpha, shift), lambda g: _sp.expit(shift + g))
