"""Special functions used by the closed-form distribution expressions.

Covers log-gamma, regularized incomplete gammas, the truncated gamma-type
integrals ``int_0^T x^(a-1) exp(-s x) dx`` for any real rate ``s``
(``gammainc`` for positive rates, the Kummer function ``hyp1f1`` in
closed form for negative ones, with no series and no complex
intermediates), the upper integrals with a Watson-lemma tail, the Lerch
transcendent on ``z in [-1, 0]``, generalized binomial coefficients, and
Pochhammer symbols.
"""

import math
import sys

from scipy import special as _sp

from .errors import ConvergenceError, DomainError
from .series import sum_alternating

__all__ = [
    "ln_gamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "gamma_integral_lower",
    "gamma_integral_upper",
    "gamma_integral_lower_scaled",
    "gamma_integral_upper_scaled",
    "lerch_phi",
    "neg_binom_coeff",
    "pochhammer",
]


def ln_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0."""
    if a <= 0:
        raise DomainError(f"ln_gamma requires a > 0, got a={a}")
    return math.lgamma(a)


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) in [0, 1]."""
    if a <= 0 or x < 0:
        raise DomainError(f"reg_lower_gamma requires a > 0, x >= 0, got a={a}, x={x}")
    return float(_sp.gammainc(a, x))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0 or x < 0:
        raise DomainError(f"reg_upper_gamma requires a > 0, x >= 0, got a={a}, x={x}")
    return float(_sp.gammaincc(a, x))


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
# underflow and the Watson-lemma tail expansion takes over.
_WATSON_CUTOFF = 600.0


def _log_watson_tail(a: float, sT: float, T: float) -> float:
    """Log of the asymptotic value of exp(s T) * int_T^inf x^(a-1) exp(-s x) dx.

    Watson's lemma about the endpoint x = T: substituting x = T + t and
    expanding (T + t)^(a-1) gives T^(a-1)/s * sum_j prod_{i<=j}(a-i)/(sT)^j.
    Truncated at the smallest term; for sT >= _WATSON_CUTOFF the truncation
    error is far below double precision.
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
    O(T^(a-1)/s) for arbitrarily large rates. Beyond _WATSON_CUTOFF the
    Watson tail is formed in log space, so that only a value beyond double
    range fails, with DomainError.
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
    return _exp_in_range(_log_watson_tail(a, sT, T),
                         "gamma_integral_upper_scaled", a, s, T)


def lerch_phi(z: float, s: float, alpha: float) -> float:
    """Lerch transcendent Phi(z, s, alpha) = sum_k z^k / (k + alpha)^s.

    Restricted to z in [-1, 0] (the alternating regime), s > 0, alpha > 0.
    Evaluated with Euler acceleration, which remains accurate at the
    conditionally convergent endpoint z = -1.
    """
    if not (-1.0 <= z <= 0.0):
        raise DomainError(f"lerch_phi requires z in [-1, 0], got z={z}")
    if s <= 0 or alpha <= 0:
        raise DomainError(f"lerch_phi requires s > 0 and alpha > 0, got s={s}, alpha={alpha}")
    if z == 0.0:
        return alpha ** (-s)

    def _terms():
        zk = 1.0
        k = 0
        while True:
            yield zk / (k + alpha) ** s
            k += 1
            zk *= z

    try:
        return sum_alternating(_terms())
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"lerch_phi(z={z}, s={s}, alpha={alpha}) failed to converge"
        ) from exc


def neg_binom_coeff(n: int, l: int) -> float:
    """Binomial coefficient C(n + l - 1, l) from the negative-exponent
    binomial expansion, computed in log space when the exact integer would
    overflow a double."""
    if n < 1 or l < 0:
        raise DomainError(f"neg_binom_coeff requires n >= 1, l >= 0, got n={n}, l={l}")
    if n + l - 1 <= 1000:
        return float(math.comb(n + l - 1, l))
    return math.exp(math.lgamma(n + l) - math.lgamma(l + 1) - math.lgamma(n))


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = Gamma(a + k) / Gamma(a)."""
    if k < 0:
        raise DomainError(f"pochhammer requires k >= 0, got k={k}")
    return float(_sp.poch(a, k))
