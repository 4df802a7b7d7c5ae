"""Special-function tests against quadrature and high-precision oracles.

Frozen reference values were produced with mpmath at 30 digits and
adaptive quadrature; each is tagged with the oracle that produced it.
"""

import math

import mpmath as mp
import pytest
from scipy.integrate import quad

from p3family.errors import DomainError
from p3family.specfun import (
    gamma_integral_lower,
    gamma_integral_lower_scaled,
    gamma_integral_upper,
    gamma_integral_upper_scaled,
    lerch_phi,
)


def test_gamma_integral_lower_closed_cases():
    assert gamma_integral_lower(1.0, -1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert gamma_integral_lower(2.0, 0.0, 3.0) == pytest.approx(4.5, rel=1e-14)
    # adaptive quadrature oracle of int_0^2 x^2 e^(x/2) dx
    assert gamma_integral_lower(3.0, -0.5, 2.0) == pytest.approx(
        5.746254627672362, rel=1e-12
    )
    assert gamma_integral_lower(3.0, 1.0, 0.0) == 0.0


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


@pytest.mark.parametrize("a", [0.3, 1.0, 2.7, 3.0, 40.0])
@pytest.mark.parametrize("sT", [5.0, 300.0, 599.0, 601.0, 900.0, 5000.0, 1e5])
def test_scaled_gamma_integrals_vs_mpmath(a, sT):
    T = 2.19
    s = sT / T
    with mp.workdps(40):
        ref_up = float(mp.e ** (s * T) * mp.gammainc(a, s * T) / mp.mpf(s) ** a)
        # quadrature with breakpoints where e^(-s t) has decayed by e, e^10, e^100
        ref_low = float(mp.quad(lambda t: (T - t) ** (a - 1) * mp.e ** (-s * t),
                                [0] + [k / s for k in (1, 10, 100) if k / s < T] + [T]))
        # DLMF 8.5.1 with Kummer's transformation, evaluated by mpmath
        ref_kummer = float(mp.mpf(T) ** a / a * mp.hyp1f1(1, a + 1, -mp.mpf(s) * T))
    assert gamma_integral_upper_scaled(a, s, T) == pytest.approx(ref_up, rel=1e-11)
    low = gamma_integral_lower_scaled(a, -s, T)
    assert low == pytest.approx(ref_low, rel=1e-11)
    assert low == pytest.approx(ref_kummer, rel=1e-13)


@pytest.mark.parametrize("a", [600.5, 620.0, 700.0])
def test_scaled_upper_integral_with_shape_near_or_above_sT(a):
    # Watson's tail is an expansion in (a - j)/(s T): with s T = 600 it gave
    # 1.833e-158 at a = 700, where the integral is 1.305e-153
    s, T = 1000.0, 0.6
    with mp.workdps(40):
        ref = float(mp.e ** (s * T) * mp.gammainc(a, s * T) / mp.mpf(s) ** a)
    assert gamma_integral_upper_scaled(a, s, T) == pytest.approx(ref, rel=1e-13, abs=0)


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
    # T^a = 168^140 and T^(a-1) are beyond double range as prefactors, and so
    # are these scaled integrals
    with pytest.raises(DomainError):
        gamma_integral_lower_scaled(140.0, -1.0, 168.0)
    with pytest.raises(DomainError):
        gamma_integral_lower_scaled(140.0, 1e-9, 168.0)
    with pytest.raises(DomainError):
        gamma_integral_upper_scaled(140.0, 4.0, 168.0)


def test_gamma_integrals_large_shape():
    # Gamma(300) overflows a double while int_0^0.5 x^299 e^(-x) dx does not
    with mp.workdps(40):
        ref = float(mp.quad(lambda x: x ** 299 * mp.e ** (-x), [0, 0.5]))
    assert gamma_integral_lower(300.0, 1.0, 0.5) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        gamma_integral_upper(300.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        gamma_integral_upper_scaled(300.0, 1.0, 0.5)
    # Gamma(300, 2000) = e^272.83... is in range although Gamma(300) is not
    # and Q(300, 2000) underflows (mpmath: 272.83166307949249...)
    assert gamma_integral_upper(300.0, 1.0, 2000.0) == pytest.approx(
        math.exp(272.8316630794925), rel=1e-13
    )


def test_gamma_integral_lower_scaled_positive_rate():
    # e^(sT) s^(-a) Gamma(a) P(a, sT), combined in log space: e^100 alone is
    # fine, e^1000 is beyond double range and must be a library error
    with mp.workdps(40):
        ref = float(mp.e ** 100 * mp.gammainc(2, 0, 100) / mp.mpf(100) ** 2)
    assert gamma_integral_lower_scaled(2.0, 100.0, 1.0) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        gamma_integral_lower_scaled(2.0, 1000.0, 1.0)
    # P(40, 2e-20) underflows to 0 while the scaled integral is about T^a / a
    assert gamma_integral_lower_scaled(40.0, 1e-20, 2.0) == pytest.approx(
        2.0 ** 40 / 40.0, rel=1e-13
    )


def test_scaled_gamma_integrals_small_rates():
    # Positive and zero rates route through the unscaled evaluators.
    assert gamma_integral_lower_scaled(2.0, 0.0, 3.0) == pytest.approx(4.5, rel=1e-13)
    assert gamma_integral_lower_scaled(2.0, 0.5, 3.0) == pytest.approx(
        math.exp(1.5) * gamma_integral_lower(2.0, 0.5, 3.0), rel=1e-13
    )
    assert gamma_integral_lower_scaled(2.0, 1.0, 0.0) == 0.0
    # M(1, a+1, sT) is 1 here; scipy's hyp1f1 gives nan at such tiny sT < 0
    assert gamma_integral_lower_scaled(10.0, -1e-300, 1.0) == pytest.approx(0.1, rel=1e-15)
    assert gamma_integral_lower(10.0, -1e-300, 1.0) == pytest.approx(0.1, rel=1e-15)


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


@pytest.mark.parametrize("z", [-0.3, -0.9])
@pytest.mark.parametrize("s", [0.5, 2.0])
@pytest.mark.parametrize("alpha", [0.7, 1.5, 4.0])
def test_lerch_vs_mpmath_grid(z, s, alpha):
    ref = float(mp.lerchphi(z, s, alpha))
    assert lerch_phi(z, s, alpha) == pytest.approx(ref, rel=1e-10)
