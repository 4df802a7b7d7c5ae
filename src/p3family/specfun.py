"""Special functions used by the closed-form distribution expressions.

Covers the truncated gamma-type integrals ``int_0^T x^(a-1) exp(-s x) dx``
for any real rate ``s`` (``gammainc`` for positive rates, the Kummer
function ``hyp1f1`` in closed form for negative ones, with no series and
no complex intermediates), the upper integrals with a Watson-lemma tail,
and the Lerch transcendent on ``z in [-1, 0]`` as the gamma integral of a
logistic that `series.expect` takes. No moment is computed from the
truncated integrals; they are the package's incomplete-gamma functions of
any rate.
"""

import math
import sys

from scipy import special as _sp

from .errors import DomainError
from .pearson3 import Pearson3Params
from .series import expect

__all__ = [
    "gamma_integral_lower",
    "gamma_integral_upper",
    "gamma_integral_lower_scaled",
    "gamma_integral_upper_scaled",
    "lerch_phi",
]


def gamma_integral_lower(a: float, s: float, T: float) -> float:
    """Evaluate int_0^T x^(a-1) exp(-s x) dx for any real rate s.

    For s > 0 this is s^(-a) * gamma_lower(a, s T); for s <= 0, and where
    P(a, s T) underflows, it is exp(-s T) times the closed form of
    `gamma_integral_lower_scaled`. Either is combined in log space, so
    that only an integral beyond double range fails, with DomainError.
    """
    if a <= 0:
        raise DomainError(f"gamma_integral_lower requires a > 0, got a={a}")
    if T < 0:
        raise DomainError(f"gamma_integral_lower requires T >= 0, got T={T}")
    if T == 0.0:
        return 0.0
    p = float(_sp.gammainc(a, s * T)) if s > 0 else 0.0
    if p == 0.0:
        # s <= 0, or P(a, s T) underflows
        log_value = a * math.log(T) - math.log(a) - s * T + math.log(_kummer_m1(a, s * T))
    else:
        log_value = math.lgamma(a) - a * math.log(s) + math.log(p)
    return _exp_in_range(log_value, "gamma_integral_lower", a, s, T)


def _kummer_m1(a: float, x: float) -> float:
    # M(1, a+1, x) is 1 to double precision for |x| <= 2^-54, where scipy's
    # hyp1f1 returns nan for some x < 0 (below about 1e-238 at a = 10)
    return 1.0 if abs(x) <= 2.0 ** -54 else float(_sp.hyp1f1(1.0, a + 1.0, x))


def _exp_in_range(log_value: float, name: str, a: float, s: float, T: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"{name}(a={a}, s={s}, T={T}) exceeds the double range") from None


def gamma_integral_upper(a: float, s: float, T: float) -> float:
    """Evaluate int_T^inf x^(a-1) exp(-s x) dx = s^(-a) Gamma(a, s T).

    Divergent unless s > 0. Formed in log space as ln Gamma(a) - a ln s +
    ln Q(a, s T), and where Q is below the normal range (s T far above a)
    as -s T plus the log of the Watson tail, so that only an integral
    beyond double range fails, with DomainError.
    """
    if a <= 0:
        raise DomainError(f"gamma_integral_upper requires a > 0, got a={a}")
    if T < 0:
        raise DomainError(f"gamma_integral_upper requires T >= 0, got T={T}")
    if s <= 0:
        raise DomainError(f"gamma_integral_upper diverges for s <= 0, got s={s}")
    sT = s * T
    q = float(_sp.gammaincc(a, sT))
    if q >= sys.float_info.min:
        log_value = math.lgamma(a) - a * math.log(s) + math.log(q)
    else:
        log_value = _log_watson_tail(a, sT, T) - sT
    return _exp_in_range(log_value, "gamma_integral_upper", a, s, T)


# Beyond this value of s T the direct scaled upper integral hits double
# underflow and the Watson-lemma tail or Stirling's series takes over.
_WATSON_CUTOFF = 600.0


def _log_watson_tail(a: float, sT: float, T: float) -> float:
    """Log of the asymptotic value of exp(s T) * int_T^inf x^(a-1) exp(-s x) dx.

    Watson's lemma about the endpoint x = T: substituting x = T + t and
    expanding (T + t)^(a-1) gives T^(a-1)/s * sum_j prod_{i<=j}(a-i)/(sT)^j.
    Truncated at the smallest term; for sT >= _WATSON_CUTOFF and a < sT the
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


def gamma_integral_lower_scaled(a: float, s: float, T: float) -> float:
    """Evaluate exp(s T) * int_0^T x^(a-1) exp(-s x) dx without overflow.

    The unscaled integral grows like exp(-s T) when s is very negative.
    For s < 0 the scaled value is the closed form (T^a / a) M(1, a+1, s T):
    the integral is (T^a / a) M(a, a+1, -s T) (DLMF 8.5.1), and Kummer's
    transformation (DLMF 13.2.39) absorbs the exp(s T). It stays
    O(T^(a-1)/|s|), so series over large negative rates stay inside double
    range. Where T^a alone overflows it joins the other factors in log
    space, as do exp(s T), s^(-a), Gamma(a) and P(a, s T) for s > 0, so
    that only a value beyond double range fails, with DomainError.
    """
    if a <= 0:
        raise DomainError(f"gamma_integral_lower_scaled requires a > 0, got a={a}")
    if T < 0:
        raise DomainError(f"gamma_integral_lower_scaled requires T >= 0, got T={T}")
    if T == 0.0:
        return 0.0
    p = float(_sp.gammainc(a, s * T)) if s > 0 else 0.0
    if p == 0.0:
        # s <= 0, or P(a, s T) underflows (s T far below a), where the
        # hypergeometric series converges fast
        m1 = _kummer_m1(a, s * T)
        try:
            return T ** a / a * m1  # within an ulp, and cheaper than the logs
        except OverflowError:
            log_value = a * math.log(T) - math.log(a) + math.log(m1)
    else:
        log_value = s * T + math.lgamma(a) - a * math.log(s) + math.log(p)
    return _exp_in_range(log_value, "gamma_integral_lower_scaled", a, s, T)


def gamma_integral_upper_scaled(a: float, s: float, T: float) -> float:
    """Evaluate exp(s T) * int_T^inf x^(a-1) exp(-s x) dx; requires s > 0.

    The unscaled integral decays like exp(-s T); the scaled form stays
    O(T^(a-1)/s) for arbitrarily large rates. Beyond _WATSON_CUTOFF it is
    formed in log space, so that only a value beyond double range fails,
    with DomainError: from the Watson tail for a < s T, else as
    T^a Q(a, sT) Gamma(a) e^(sT) (sT)^(-a), whose last three factors
    Stirling's series gives without cancelling their logs.
    """
    if a <= 0:
        raise DomainError(f"gamma_integral_upper_scaled requires a > 0, got a={a}")
    if T < 0:
        raise DomainError(f"gamma_integral_upper_scaled requires T >= 0, got T={T}")
    if s <= 0:
        raise DomainError(f"gamma_integral_upper_scaled diverges for s <= 0, got s={s}")
    sT = s * T
    if sT < _WATSON_CUTOFF:
        return math.exp(sT) * gamma_integral_upper(a, s, T)
    if a < sT:  # where the tail's expansion in (a - j)/(sT) converges
        log_value = _log_watson_tail(a, sT, T)
    else:  # a >= 600, where these four terms of Stirling's series are exact
        d, a2 = sT - a, a * a
        log_value = (a * math.log(T) + math.log(_sp.gammaincc(a, sT)) + d - a * math.log1p(d / a)
                     - 0.5 * math.log(a / (2.0 * math.pi))
                     + (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * a2)) / a2) / a2) / a)
    return _exp_in_range(log_value, "gamma_integral_upper_scaled", a, s, T)


def lerch_phi(z: float, s: float, alpha: float) -> float:
    """Lerch transcendent Phi(z, s, alpha) = sum_k z^k / (k + alpha)^s.

    Restricted to z in [-1, 0], s > 0, alpha > 0. For z < 0 it is the
    integral of DLMF 25.14.5, alpha^(-s) E[logistic(G/alpha - ln(-z))] for
    G ~ Gamma(s, 1): `series.expect` of the logistic against the Pearson
    III law of G/alpha - ln(-z), a positive integrand also at the
    conditionally convergent endpoint z = -1. DomainError where alpha^(-s)
    exceeds the double range.
    """
    if not (-1.0 <= z <= 0.0):
        raise DomainError(f"lerch_phi requires z in [-1, 0], got z={z}")
    if s <= 0 or alpha <= 0:
        raise DomainError(f"lerch_phi requires s > 0 and alpha > 0, got s={s}, alpha={alpha}")
    try:
        scale = alpha ** (-s)
    except OverflowError:
        raise DomainError(f"lerch_phi(z={z}, s={s}, alpha={alpha}): alpha^(-s) "
                          "exceeds the double range") from None
    if z == 0.0:
        return scale
    shift = -math.log(-z)
    return scale * expect(Pearson3Params(s, alpha, shift), lambda g: _sp.expit(shift + g))
