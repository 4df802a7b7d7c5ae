"""Special-function tests against quadrature and high-precision oracles.

Frozen reference values were produced with mpmath at 30 digits and
adaptive quadrature; each is tagged with the oracle that produced it.
"""

import math
import signal

import mpmath as mp
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from p3family.errors import DomainError
from p3family.specfun import gamma_integral_lower, gamma_integral_upper, lerch_phi


def test_gamma_integral_lower_closed_cases():
    assert gamma_integral_lower(1.0, -1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert gamma_integral_lower(2.0, 0.0, 3.0) == pytest.approx(4.5, rel=1e-14)
    # adaptive quadrature oracle of int_0^2 x^2 e^(x/2) dx
    assert gamma_integral_lower(3.0, -0.5, 2.0) == pytest.approx(
        5.746254627672362, rel=1e-12
    )
    assert gamma_integral_lower(3.0, 1.0, 0.0) == 0.0
    # M(1, a+1, sT) is 1 here; scipy's hyp1f1 gives nan at such tiny sT < 0
    assert gamma_integral_lower(10.0, -1e-300, 1.0) == pytest.approx(0.1, rel=1e-15)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("s", [-2.0, -0.5, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
def test_gamma_integral_lower_vs_quadrature(a, s, T):
    ref, err = quad(lambda x: x ** (a - 1.0) * math.exp(-s * x), 0.0, T,
                    points=[0.0], limit=200)
    assert gamma_integral_lower(a, s, T) == pytest.approx(ref, rel=1e-9)


def test_gamma_integral_upper_values():
    assert gamma_integral_upper(1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_integral_upper(1.0, 2.0, 1.0) == pytest.approx(
        math.exp(-2.0) / 2.0, rel=1e-12
    )
    # adaptive quadrature oracle of int_2.1^inf x^2 e^(-1.5 x) dx
    assert gamma_integral_upper(3.0, 1.5, 2.1) == pytest.approx(
        0.23136974276581915, rel=1e-12
    )
    with pytest.raises(DomainError):
        gamma_integral_upper(3.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        gamma_integral_upper(3.0, 0.0, 2.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("s", [0.5, 2.0])
@pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
def test_gamma_integral_split_identity(a, s, T):
    total = gamma_integral_lower(a, s, T) + gamma_integral_upper(a, s, T)
    assert total == pytest.approx(math.gamma(a) / s ** a, rel=1e-12)


@pytest.mark.parametrize("a", [0.3, 1.0, 2.7, 40.0])
@pytest.mark.parametrize("sT", [1e-3, 1.0, 50.0, 300.0, 700.0])
def test_gamma_integral_lower_negative_rate_vs_mpmath(a, sT):
    # Unscaled, so the value grows like e^(|s| T): up to about 1e304 at |sT| = 700.
    # The oracle is DLMF 8.5.1 itself, M(a, a+1, -s T), without the Kummer
    # transformation the library applies.
    T = 0.5
    s = -sT / T
    with mp.workdps(40):
        ref = float(mp.mpf(T) ** a / a * mp.hyp1f1(a, a + 1, -mp.mpf(s) * T))
    assert gamma_integral_lower(a, s, T) == pytest.approx(ref, rel=1e-12)


def test_gamma_integral_lower_negative_rate_overflow():
    # e^800: beyond double range, a library error rather than inf or OverflowError
    with pytest.raises(DomainError):
        gamma_integral_lower(1.0, -1.0, 800.0)
    with pytest.raises(DomainError):
        gamma_integral_lower(40.0, -700.0 / 2.19, 2.19)


def test_gamma_integrals_large_shape():
    # Gamma(300) overflows a double while int_0^0.5 x^299 e^(-x) dx does not
    with mp.workdps(40):
        ref = float(mp.quad(lambda x: x ** 299 * mp.e ** (-x), [0, 0.5]))
    assert gamma_integral_lower(300.0, 1.0, 0.5) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        gamma_integral_upper(300.0, 1.0, 0.5)
    # Gamma(300, 2000) = e^272.83... is in range although Gamma(300) is not
    # and Q(300, 2000) underflows (mpmath: 272.83166307949249...)
    assert gamma_integral_upper(300.0, 1.0, 2000.0) == pytest.approx(
        math.exp(272.8316630794925), rel=1e-13
    )


@pytest.mark.parametrize("a, s, T", [(300.0, 1.0, 2500.0), (400.0, 1.0, 2500.0),
                                     (250.0, 2.0, 1000.0), (40.0, 3.0, 300.0)])
def test_gamma_integral_upper_where_q_underflows(a, s, T):
    # Q(a, sT) underflows to 0 while the integral is in range: the Watson tail
    assert gammaincc(a, s * T) == 0.0
    with mp.workdps(40):
        ref = float(mp.gammainc(a, s * T) / mp.mpf(s) ** a)
    assert gamma_integral_upper(a, s, T) == pytest.approx(ref, rel=5e-13, abs=0)


def _timeout(signum, frame):
    raise TimeoutError("no return within 1 s")


@pytest.fixture
def one_second():
    """Fail a call that does not return within 1 s, rather than hang."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("f, args", [
    # a NaN rate or limit sent the upper integral into the Watson tail,
    # whose stop tests are never true for NaN terms: it did not return
    (gamma_integral_upper, (0.5, 2.0, math.nan)),
    (gamma_integral_upper, (0.5, math.nan, 1.0)),
    (gamma_integral_upper, (math.nan, 2.0, 0.0)),  # raised ZeroDivisionError
    (gamma_integral_upper, (0.5, math.inf, 1.0)),  # at T = 0, s T is NaN
    (gamma_integral_lower, (0.5, -2.0, math.nan)),  # these returned nan
    (gamma_integral_lower, (0.5, math.nan, 1.0)),
    (gamma_integral_lower, (math.nan, 2.0, 1.0)),
    (gamma_integral_lower, (0.5, 0.0, math.inf)),  # diverges
    (gamma_integral_lower, (0.5, -2.0, math.inf)),
    (gamma_integral_lower, (0.5, -1e300, 2.5)),  # raised ValueError
    (gamma_integral_lower, (0.5, -1e300, 1e300)),  # returned inf
])
def test_gamma_integrals_reject_nan_and_divergence(one_second, f, args):
    with pytest.raises(DomainError):
        f(*args)


def test_gamma_integrals_at_an_infinite_limit(one_second):
    # the complete integral Gamma(a) s^(-a), and an empty upper integral
    assert gamma_integral_lower(0.5, 2.0, math.inf) == pytest.approx(
        math.sqrt(math.pi / 2.0), rel=1e-15)
    assert gamma_integral_upper(0.5, 2.0, math.inf) == 0.0  # it returned nan


def test_lerch_values():
    assert lerch_phi(0.0, 3.0, 2.0) == pytest.approx(0.125, abs=0)
    assert lerch_phi(-1.0, 1.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-10)
    # mpmath oracle for Phi(-e^(-1), 2, 1.5)
    assert lerch_phi(-math.exp(-1.0), 2.0, 1.5) == pytest.approx(
        0.3946531942006258, abs=1e-10
    )
    with pytest.raises(DomainError):
        lerch_phi(0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        lerch_phi(-0.5, -1.0, 1.0)
    # alpha^(-s) = 1e600 is beyond double range; it raised OverflowError
    with pytest.raises(DomainError):
        lerch_phi(-0.5, 200.0, 1e-3)
    with pytest.raises(DomainError):
        lerch_phi(0.0, 200.0, 1e-3)


@pytest.mark.parametrize("z, s, alpha", [
    (-1.0, 0.5, math.nan), (-0.5, 0.5, math.inf),  # raised a raw ValueError
    (-0.5, math.nan, 1.0), (-0.5, math.inf, 1.0),
    (0.0, 0.5, math.nan),  # returned nan
])
def test_lerch_rejects_non_finite_order_and_shift(z, s, alpha):
    with pytest.raises(DomainError):
        lerch_phi(z, s, alpha)


@pytest.mark.parametrize("z", [-0.3, -0.9])
@pytest.mark.parametrize("s", [0.5, 2.0])
@pytest.mark.parametrize("alpha", [0.7, 1.5, 4.0])
def test_lerch_vs_mpmath_grid(z, s, alpha):
    ref = float(mp.lerchphi(z, s, alpha))
    assert lerch_phi(z, s, alpha) == pytest.approx(ref, rel=1e-10)
