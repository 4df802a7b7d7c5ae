"""Sum-machinery tests: regimes, mixture weights, densities, transforms."""

import collections
import functools
import json
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from properties import PROPERTY_SETTINGS, any_sums
from scipy.special import gammainc, gammaincc

from p3family.errors import ConvergenceError, DomainError, MomentDivergenceError, SupportError
from p3family.mc import empirical_moment, ks_distance, ks_threshold, sample_sum
from p3family import sums
from p3family.logitp3 import ltp3_moment, ltp3_pdf
from p3family.logp3 import lp3_cdf, lp3_moment
from p3family.pearson3 import Pearson3Params, p3_cdf, p3_moment, p3_pdf
from p3family.sums import (
    DISTINCT_RATES,
    EQUAL_RATES,
    SumSpec,
    logitsum_cdf,
    logitsum_moment,
    logitsum_pdf,
    logsum_cdf,
    logsum_moment,
    logsum_pdf,
    spec_from_json,
    spec_to_json,
    sum_cdf,
    sum_moment,
    sum_pdf,
    xi0_closed,
    xi0_recursive,
    xi_shifted,
)
from p3family.wpt import (
    EHModel, LinkBudget, MisoScenario, q_cdf_miso, scenario_from_json, scenario_to_json)

P = Pearson3Params

HYPOEXP = SumSpec((P(1.0, 1.0, 0.0), P(1.0, 2.0, 0.0)))
MIXED_L3 = SumSpec((P(2.0, 1.3, 0.5), P(1.0, 2.2, -0.2), P(3.0, 3.7, 1.0)))
NEG_L2 = SumSpec((P(2.0, -1.1, 0.0), P(1.0, -2.5, -1.0)))


def test_construction_rejections():
    with pytest.raises(DomainError):
        SumSpec(())
    with pytest.raises(DomainError):
        SumSpec((P(1.0, 1.0, 0.0), P(1.0, -2.0, 0.0)))  # mixed signs
    with pytest.raises(DomainError):
        SumSpec((P(1.0, 1.0, 0.0), (1.0, 2.0, 0.0)))  # not a Pearson3Params


def test_regime_classification():
    assert HYPOEXP.regime == DISTINCT_RATES
    eq = SumSpec((P(1.0, 2.0, 0.0), P(3.0, 2.0, 1.0)))
    assert eq.regime == EQUAL_RATES
    close = SumSpec((P(1.0, 1.0, 0.0), P(1.0, 1.0 + 1e-7, 0.0)))
    assert close.regime == DISTINCT_RATES
    single = SumSpec((P(2.0, -1.0, 0.5),))
    assert single.regime == EQUAL_RATES and single.L == 1
    assert eq.reduced == P(4.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        HYPOEXP.reduced


def test_equal_rates_with_non_integer_shapes_are_one_law():
    # rates within 1e-9 (relative) are equal: the sum is one Pearson III law
    # of the total shape at the mean rate, whatever the shapes
    spec = SumSpec((P(1.5, 4.0, 0.25), P(0.7, 4.0 * (1 + 5e-10), -1.0), P(2.3, 4.0, 0.5)))
    law = spec.reduced
    assert spec.regime == EQUAL_RATES
    assert law == P(math.fsum((1.5, 0.7, 2.3)), math.fsum(t.b for t in spec.terms) / 3, spec.sm)
    x = spec.sm + np.array([1e-3, 0.5, 2.0, 6.0])
    for mine, its in ((sum_pdf, p3_pdf), (sum_cdf, p3_cdf)):
        np.testing.assert_array_equal(mine(spec, x), its(law, x))
    np.testing.assert_array_equal(logsum_cdf(spec, np.exp(x)), lp3_cdf(law, np.exp(x)))
    np.testing.assert_array_equal(logitsum_pdf(spec, 1 / (1 + np.exp(-x))),
                                  ltp3_pdf(law, 1 / (1 + np.exp(-x))))
    for n in (1, 2, 3):
        assert sum_moment(spec, n) == p3_moment(law, n)
        assert logsum_moment(spec, n) == lp3_moment(law, n)
        assert logitsum_moment(spec, n) == ltp3_moment(law, n)
    # no mixture weights exist, for one term or several
    for s in (spec, SumSpec((P(1.5, 2.0, 0.0),))):
        for weight in (xi0_closed, xi0_recursive):
            with pytest.raises(DomainError):
                weight(s, 1, 1)
        with pytest.raises(DomainError):
            xi_shifted(s, 1, 1, 1)


def test_sums_without_partial_fractions_are_series_only():
    # real shapes at distinct rates, and integer shapes at partly coincident
    # rates, have no partial fractions: Moschopoulos' series serves them
    for spec in (SumSpec((P(1.5, 1.0), P(1.0, 2.0))),
                 SumSpec((P(1.0, 1.0), P(1.0, 1.0 + 1e-10), P(1.0, 3.0))),
                 SumSpec((P(0.4, -2.0, 1.0), P(2.5, -2.0), P(0.7, -5.0)))):
        assert spec.regime == DISTINCT_RATES and spec._series_only
        for weight in (xi0_closed, xi0_recursive):
            with pytest.raises(DomainError):
                weight(spec, 1, 1)
        with pytest.raises(DomainError):
            xi_shifted(spec, 1, 1, 1)
    assert type(SumSpec((P(1.0, 1.0), P(2.0, 1.0), P(1.0, 3.0))).sa) is int


@pytest.mark.parametrize("l", [0, 3])
def test_shifted_weight_rejects_an_inner_index_out_of_range(l):
    spec = SumSpec((P(2.0, 1.0, 0.5), P(1.0, 3.0)))
    with pytest.raises(DomainError, match=f"^inner index l={l} out of range 1..2$"):
        xi_shifted(spec, 1, 2, l)


def test_sum_moment_rejects_a_negative_order():
    with pytest.raises(DomainError, match="^moment order must be nonnegative, got n=-1$"):
        sum_moment(SumSpec((P(2.0, 1.0), P(1.0, 3.0))), -1)


def test_coincident_exponential_rates_vs_closed_form():
    # Exp(1) + Exp(1) + Exp(3) has the transform 3/((1 + s)^2 (3 + s)): density
    # (3/2 x - 3/4) e^(-x) + 3/4 e^(-3x), CDF 1 - (3/4 + 3/2 x) e^(-x) - 1/4 e^(-3x)
    spec = SumSpec((P(1.0, 1.0), P(1.0, 1.0), P(1.0, 3.0)))
    x = np.array([0.5, 1.0, 2.0, 5.0])
    pdf = (1.5 * x - 0.75) * np.exp(-x) + 0.75 * np.exp(-3.0 * x)
    cdf = 1.0 - (0.75 + 1.5 * x) * np.exp(-x) - 0.25 * np.exp(-3.0 * x)
    np.testing.assert_allclose(sum_pdf(spec, x), pdf, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(sum_cdf(spec, x), cdf, rtol=1e-13, atol=0.0)
    assert sum_moment(spec, 1) == pytest.approx(7.0 / 3.0, rel=1e-15)


@PROPERTY_SETTINGS
@given(spec=any_sums)
def test_any_sum_vs_moschopoulos(spec):
    # any real shapes, rates that may coincide, either sign: within 1e-12 of
    # the 50-digit series from 0.02 to 4 mean offsets; for b < 0 the CDF is
    # 1 minus that of the offset
    sign = 1.0 if spec.terms[0].b > 0 else -1.0
    x = spec.sm + sign * spec.mean_offset() * np.array([0.02, 0.1, 0.5, 1.0, 2.0, 4.0])
    g = sign * (x - spec.sm)  # the offsets the library sees
    cdf = [_moschopoulos(spec, v, False, complement=sign < 0) for v in g]
    np.testing.assert_allclose(sum_cdf(spec, x), cdf, rtol=1e-12, atol=0.0)
    pdf = [_moschopoulos(spec, v, True) for v in g]
    np.testing.assert_allclose(sum_pdf(spec, x), pdf, rtol=1e-12, atol=0.0)


def test_rates_a_millionth_apart_are_summed_exactly():
    # rates 9e-7 apart are distinct: one law at their mean rate would be
    # 8.9e-7 off at x = 0.05 (CDF) and 5.9e-6 off at x = 30 (pdf)
    spec = SumSpec((P(1.0, 1.0, 0.0), P(3.0, 1.0 + 9e-7, 0.0)))
    assert spec.regime == DISTINCT_RATES
    x = np.array([0.05, 0.5, 2.0, 4.0, 10.0, 30.0])
    np.testing.assert_allclose(sum_cdf(spec, x), [_moschopoulos(spec, v, False) for v in x],
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(sum_pdf(spec, x), [_moschopoulos(spec, v, True) for v in x],
                               rtol=1e-12, atol=0.0)


def test_hypoexp_weights():
    # partial-fraction oracle: b1 b2/(b2-b1) (e^(-b1 x) - e^(-b2 x))
    assert xi0_recursive(HYPOEXP, 1, 1) == pytest.approx(2.0, rel=1e-13)
    assert xi0_recursive(HYPOEXP, 2, 1) == pytest.approx(-1.0, rel=1e-13)
    assert xi0_closed(HYPOEXP, 1, 1) == pytest.approx(2.0, rel=1e-13)
    assert xi0_closed(HYPOEXP, 2, 1) == pytest.approx(-1.0, rel=1e-13)


def test_three_exponential_weights_partial_fractions():
    # symbolic partial fractions of prod b_i/(s + b_i) for b = (1, 2, 3):
    # residues give weights 3, -3, 1.
    spec = SumSpec((P(1.0, 1.0, 0.0), P(1.0, 2.0, 0.0), P(1.0, 3.0, 0.0)))
    assert xi0_recursive(spec, 1, 1) == pytest.approx(3.0, rel=1e-12)
    assert xi0_recursive(spec, 2, 1) == pytest.approx(-3.0, rel=1e-12)
    assert xi0_recursive(spec, 3, 1) == pytest.approx(1.0, rel=1e-12)


def _random_distinct_spec(rng, L=None, sign=None, with_shifts=True):
    L = L if L is not None else int(rng.integers(2, 6))
    sign = sign if sign is not None else (1.0 if rng.random() < 0.5 else -1.0)
    # well separated rates: geometric spacing keeps the partial fractions
    # away from the catastrophic-cancellation zone
    bs = [sign * (1.5 + rng.random()) * 2.2 ** i for i in range(L)]
    return SumSpec(
        tuple(
            P(
                float(rng.integers(1, 5)),
                bs[i],
                float(rng.normal() if with_shifts else 0.0),
            )
            for i in range(L)
        )
    )


def test_weight_sum_and_recursion_vs_closed_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        spec = _random_distinct_spec(rng)
        total = math.fsum(
            xi0_recursive(spec, i, k)
            for i in range(1, spec.L + 1)
            for k in range(1, spec.shape(i) + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)
        for i in range(1, spec.L + 1):
            for k in range(1, spec.shape(i) + 1):
                assert xi0_recursive(spec, i, k) == pytest.approx(
                    xi0_closed(spec, i, k), rel=1e-10
                )


def test_weight_index_errors():
    with pytest.raises(DomainError):
        xi0_recursive(HYPOEXP, 3, 1)
    with pytest.raises(DomainError):
        xi0_recursive(HYPOEXP, 1, 2)
    eq = SumSpec((P(1.0, 2.0, 0.0), P(1.0, 2.0, 0.0)))
    with pytest.raises(DomainError):
        xi0_recursive(eq, 1, 1)


def test_xi_shifted_collapse_and_reconstruction():
    # all m_i = 0: only l = k survives
    assert xi_shifted(HYPOEXP, 1, 1, 1) == pytest.approx(
        xi0_recursive(HYPOEXP, 1, 1), rel=0
    )
    spec = SumSpec((P(1.0, 1.0, 1.0), P(1.0, 2.0, -1.0)))
    # expanding every component back onto its own shift reproduces the sum
    # density; the identity is an analytic rearrangement, valid where the
    # component formulas are all live (x above every shift)
    x_min = max(t.m for t in spec.terms)
    for x in np.linspace(x_min + 0.1, x_min + 6.0, 20):
        recon = math.fsum(
            xi_shifted(spec, i, k, l)
            * p3_pdf(P(float(l), spec.rate(i), spec.terms[i - 1].m), float(x))
            for i in range(1, spec.L + 1)
            for k in range(1, spec.shape(i) + 1)
            for l in range(1, k + 1)
        )
        assert recon == pytest.approx(sum_pdf(spec, float(x)), abs=1e-10)


def test_sum_pdf_values():
    # analytic hypoexponential convolution at x = 1
    assert sum_pdf(HYPOEXP, 1.0) == pytest.approx(
        2.0 * (math.exp(-1.0) - math.exp(-2.0)), rel=1e-12
    )
    # equal-rate reduction
    eq = SumSpec((P(1.0, 2.0, 0.0), P(2.0, 2.0, 0.0), P(3.0, 2.0, 1.0)))
    assert sum_pdf(eq, 2.0) == pytest.approx(p3_pdf(P(6.0, 2.0, 1.0), 2.0), rel=0)
    with pytest.raises(SupportError):
        sum_pdf(HYPOEXP, -0.5)


def test_sum_cdf_values():
    # analytic hypoexponential CDF at x = 1
    assert sum_cdf(HYPOEXP, 1.0) == pytest.approx(
        1.0 - 2.0 * math.exp(-1.0) + math.exp(-2.0), rel=1e-12
    )
    assert sum_cdf(HYPOEXP, 0.0) == 0.0
    assert sum_cdf(HYPOEXP, 1e9) == 1.0
    assert sum_cdf(NEG_L2, 5.0) == 1.0


@pytest.mark.parametrize("spec", [
    MIXED_L3,
    NEG_L2,
    SumSpec((P(1.0, 1.0, 0.1), P(2.0, 1.8, -0.2), P(3.0, 3.1, 0.05))),
])
def test_mixture_cdf_is_the_correctly_rounded_sum(spec):
    # The float mixture adds its weighted terms Xi(i,k) P(k, |b_i| g) with
    # two-sum, so it is their correctly rounded sum, as math.fsum gives it,
    # to within one ulp; plain accumulation is off by up to eps sum |terms|.
    # Up to the mean offset the CDF is that sum F (1 - F for b < 0), and
    # beyond it 1 - G for the sum G of the terms Xi(i,k) Q(k, |b_i| g) (G for
    # b < 0), so that each tail keeps relative accuracy.
    sign = math.copysign(1.0, spec.terms[0].b)
    mean = math.fsum(t.a / abs(t.b) for t in spec.terms)
    xs = spec.sm + sign * np.linspace(0.5, 12.0, 200)
    for x, v in zip(xs, sum_cdf(spec, xs)):
        g = sign * (x - spec.sm)

        def mixture(component):
            return math.fsum(
                xi0_recursive(spec, i, k) * component(k, abs(spec.rate(i)) * g)
                for i in range(1, spec.L + 1) for k in range(1, spec.shape(i) + 1)
            )

        lower = g <= mean
        ref = min(1.0, max(0.0, mixture(gammainc if lower else gammaincc)))
        if lower != (sign > 0):
            ref = 1.0 - ref
        assert abs(v - ref) <= math.ulp(ref)


@pytest.mark.parametrize("spec", [HYPOEXP, MIXED_L3, NEG_L2])
def test_sum_cdf_vs_mc(spec):
    samples = sample_sum(spec, 404, 300_000)
    assert ks_distance(samples, lambda x: sum_cdf(spec, x)) < ks_threshold(samples.size)


@pytest.mark.parametrize("spec", [
    SumSpec((P(1.5, 1.0, 0.3), P(2.5, 1.3), P(0.7, 1.6))),
    SumSpec((P(2.0, 1.0), P(3.0, 1.0, -1.0), P(1.0, 1.5))),
    SumSpec((P(0.5, -1.0, 0.5), P(1.5, -1.4), P(2.0, -1.4))),
], ids=["real_shapes", "coincident", "negative"])
def test_series_only_sums_vs_mc(spec):
    # sums that only Moschopoulos' series serves, two with a shape below 1
    assert spec._series_only
    samples = sample_sum(spec, 22, 1_000_000)
    assert ks_distance(samples, lambda x: sum_cdf(spec, x)) < ks_threshold(samples.size)


def test_far_apart_rates_past_the_density_underflow(monkeypatch):
    # at u = 500 g of 5000 and more the series components underflow before
    # their peak, into subnormals that round to equal steps: they do not
    # fall there, and the density is not 0
    spec = SumSpec((P(1.5, 1.0), P(2.0, 500.0)))
    with mp.workdps(30):
        def density(g):
            return mp.quad(lambda t: (g - t) ** 0.5 * mp.exp(t - g) / mp.gamma(1.5)
                           * 500 ** 2 * t * mp.exp(-500 * t), [0, 0.004, 0.04, 0.2, g])

        ref = [float(density(mp.mpf(g))) for g in (10.0, 12.0)]
    np.testing.assert_allclose(sum_pdf(spec, np.array([10.0, 12.0])), ref, rtol=1e-11, atol=0.0)
    # rates too far apart for the series raise, rather than run on
    monkeypatch.setattr(sums, "_SERIES_MAX", 1 << 10)
    with pytest.raises(ConvergenceError):
        sum_cdf(SumSpec((P(1.5, 1.0), P(2.0, 1e20))), 1.0)


@pytest.mark.parametrize("spec", [HYPOEXP, MIXED_L3, NEG_L2])
def test_sum_moment_linearity_and_mc(spec):
    expected = math.fsum(t.a / t.b + t.m for t in spec.terms)
    assert sum_moment(spec, 1) == pytest.approx(expected, rel=1e-10)
    assert sum_moment(spec, 0) == pytest.approx(1.0, abs=1e-12)
    samples = sample_sum(spec, 505, 300_000)
    emp, se = empirical_moment(samples, 2)
    assert abs(sum_moment(spec, 2) - emp) < 3.0 * se


def test_near_equal_rate_stability():
    # rates 1 and 1.001: still distinct, but the mixture must hug the
    # equal-rate density to the genuine O(rate gap) offset
    close = SumSpec((P(1.0, 1.0, 0.0), P(1.0, 1.001, 0.0)))
    assert close.regime == DISTINCT_RATES
    ref = SumSpec((P(1.0, 1.0, 0.0), P(1.0, 1.0, 0.0)))
    xs = np.linspace(0.05, 10.0, 100)  # central 99% of mass
    gap = max(abs(sum_pdf(close, float(x)) - sum_pdf(ref, float(x))) for x in xs)
    assert gap < 1e-3


def test_near_coincident_rates_high_precision_path():
    # a 1e-5 relative gap with shape-3 components drives the weights past
    # 1e12; the evaluation must stay a valid CDF and hug the equal-rate one
    close = SumSpec((P(3.0, 2.0, 0.0), P(3.0, 2.0 * (1 + 1e-5), 0.0)))
    assert close.regime == DISTINCT_RATES
    assert close._weight_scale > 1e10
    ref = SumSpec((P(3.0, 2.0, 0.0), P(3.0, 2.0, 0.0)))
    for x in (0.5, 1.5, 3.0, 6.0):
        v = sum_cdf(close, x)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(sum_cdf(ref, x), abs=1e-4)
        assert sum_pdf(close, x) == pytest.approx(sum_pdf(ref, x), abs=1e-4)


def test_mixture_cdf_and_pdf_nonnegative_near_support_edge():
    # float-path rounding noise of about 1e-16 must not push the CDF below 0
    spec = SumSpec((
        P(2.0, 1.008877774538321, -0.16439041891017916),
        P(3.0, 1.710222831979049, 0.04623136823211216),
        P(1.0, 3.3856764543480886, -0.126364454112212),
    ))
    assert spec._weight_scale <= 1e6
    for dx in (0.001, 0.002, 0.003):
        assert 0.0 <= sum_cdf(spec, spec.sm + dx) < 1e-15
        assert sum_pdf(spec, spec.sm + dx) >= 0.0


@functools.lru_cache(maxsize=None)
def _moschopoulos_weights(spec):
    """The scale C of Moschopoulos' series for `spec`, its (a_j, rho_j), and
    its deltas with the sums sum_j a_j rho_j^i that extend them, at 50
    digits, for any real shapes: `_moschopoulos` extends the deltas as far
    as a point needs."""
    with mp.workdps(50):
        rates = [mp.mpf(abs(t.b)) for t in spec.terms]
        terms = [(mp.mpf(t.a), 1 - r / max(rates)) for t, r in zip(spec.terms, rates)]
        scale = mp.fprod((1 - rho) ** a for a, rho in terms)
    return scale, terms, [mp.mpf(1)], [None]


def _delta(weights, k):
    """delta_k of `weights`: k delta_k = sum_(i=1..k) delta_(k-i) sum_j a_j rho_j^i."""
    _, terms, deltas, sums = weights
    while len(deltas) <= k:
        j = len(deltas)
        sums.append(mp.fsum(a * rho ** j for a, rho in terms))
        deltas.append(mp.fsum(sums[i] * deltas[j - i] for i in range(1, j + 1)) / j)
    return deltas[k]


def _moschopoulos(spec, g, density, weights=None, complement=False):
    """CDF (or density, or with `complement` 1 minus the CDF) of the
    gamma-direction offset g of a sum of gammas by Moschopoulos' series,
    `_moschopoulos_exact` rounded to a float."""
    value = _moschopoulos_exact(spec, g, density, weights)
    with mp.workdps(50):
        return float(1 - value if complement else value)


def _moschopoulos_exact(spec, g, density, weights=None):
    """CDF (or density) of the gamma-direction offset g of a sum of gammas
    by Moschopoulos' series (Ann. Inst. Stat. Math. 37 (1985) 541-544): one
    gamma mixture with positive weights, at 50 digits, independent of the
    library, as an mpmath number. C and the deltas depend only on the rate
    ratios: `weights`, the `_moschopoulos_weights` of a sum with the same
    ratios, stand in for this one's.

    The terms are summed until the components fall (the CDF's from the
    start, the density's once sa + k >= u) and the component at k times a
    bound on the deltas after k is below 1e-40 of the sum. The bound is the
    tail of the majorant delta_k <= (sa)_k rho_max^k / k!, whose ratios
    (sa + k) rho_max / (k + 1) stay below q after k."""
    weights = weights or _moschopoulos_weights(spec)
    scale, terms = weights[:2]
    with mp.workdps(50):
        top = mp.mpf(max(abs(t.b) for t in spec.terms))
        sa = mp.fsum(a for a, _ in terms)
        rho = max(r for _, r in terms)
        u = top * mp.mpf(g)
        # P(sa + k, u) and the density at k by their recurrences in k
        cdf = mp.gammainc(sa, 0, u, regularized=True)
        pdf = top * mp.exp((sa - 1) * mp.log(u) - u - mp.loggamma(sa))
        total, major, k = mp.mpf(0), mp.mpf(1), 0
        while True:
            shape = sa + k
            comp = pdf if density else cdf
            total += _delta(weights, k) * comp
            major *= shape * rho / (k + 1)  # the majorant at k + 1
            q = rho * max((shape + 1) / (k + 2), 1)
            if (shape >= u or not density) and q < 1 and (
                    comp * major / (1 - q) <= mp.mpf(10) ** -40 * total):
                break
            cdf -= pdf * u / (top * shape)
            pdf *= u / shape
            k += 1
        return scale * total


def test_mixture_near_support_edge_vs_moschopoulos():
    # near the edge each weighted term is O(u^k) and the sum O(u^6): the float
    # mixture was rounding noise (2.7e-18, 2.3e-16, 0.0 for the CDF) there
    spec = SumSpec((
        P(2.0, 1.008877774538321, -0.16439041891017916),
        P(3.0, 1.710222831979049, 0.04623136823211216),
        P(1.0, 3.3856764543480886, -0.126364454112212),
    ))
    offsets = (0.001, 0.002, 0.003)
    cdf = sum_cdf(spec, spec.sm + np.array(offsets))
    pdf = sum_pdf(spec, spec.sm + np.array(offsets))
    assert np.all(np.diff(cdf) > 0.0) and np.all(np.diff(pdf) > 0.0)
    for g, c, f in zip(offsets, cdf, pdf):
        g = (spec.sm + g) - spec.sm  # the offset the library sees
        assert c == pytest.approx(_moschopoulos(spec, g, False), rel=1e-12)
        assert f == pytest.approx(_moschopoulos(spec, g, True), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_series_weights_vs_50_digits(seed):
    # the cached weights C delta_k, k < 300, formed in a few extensions, of
    # seeded sums of 4 to 16 terms, integer shapes at even seeds and real
    # ones at odd seeds, hold to 1e-13 wherever they are normal doubles
    rng = random.Random(seed)
    sign = rng.choice([1.0, -1.0])
    spec = SumSpec(tuple(
        P(float(rng.randint(1, 6)) if seed % 2 == 0 else rng.uniform(0.3, 6.0),
          sign * rng.uniform(1.0, 5.0))
        for _ in range(rng.randint(4, 16))))
    for k1 in (1, 9, 40, 300):
        weights = sums._series_chunk(spec, 0, k1)[2]
    weights_50 = _moschopoulos_weights(spec)
    ref = np.array([float(weights_50[0] * _delta(weights_50, k)) for k in range(300)])
    normal = ref >= np.finfo(float).tiny
    assert normal.sum() > 100
    np.testing.assert_allclose(weights[normal], ref[normal], rtol=1e-13, atol=0)


@pytest.mark.parametrize("L, a", [(8, 4), (16, 8)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_close_rate_mixtures_vs_moschopoulos(L, a, sign):
    # rates 5% apart: weights of 1e30 and more, so every point sums the
    # positive series; each term is shifted so that the sum centres on 0
    rates = [1.0 + 0.05 * i for i in range(L)]
    spec = SumSpec(tuple(P(float(a), sign * b, -sign * a / b) for b in rates))
    assert spec._weight_scale > 1e6
    mean = math.fsum(a / b for b in rates)
    sd = math.sqrt(math.fsum(a / b ** 2 for b in rates))
    x = spec.sm + sign * np.geomspace(1e-3 * mean, mean + 10.0 * sd, 16)
    cdf, pdf = sum_cdf(spec, x), sum_pdf(spec, x)
    g = sign * (x - spec.sm)  # the offsets the library sees
    ref_pdf = [_moschopoulos(spec, v, True) for v in g]
    ref_cdf = np.array([_moschopoulos(spec, v, False) for v in g])
    # relative accuracy ends at the subnormals
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(pdf, ref_pdf, rtol=1e-12, atol=tiny)
    if sign > 0:
        np.testing.assert_allclose(cdf, ref_cdf, rtol=1e-12, atol=tiny)
    else:
        # the CDF is the complement 1 - F: near F = 1 the relative error
        # of F becomes an absolute one
        np.testing.assert_allclose(cdf, 1.0 - ref_cdf, rtol=1e-12, atol=1e-14)
    # the transforms at the centre of the sum
    y = math.exp(spec.sm + sign * mean)
    density = _moschopoulos(spec, sign * (math.log(y) - spec.sm), True)
    assert logsum_pdf(spec, y) == pytest.approx(density / y, rel=1e-12)
    z = 1.0 / (1.0 + math.exp(-(spec.sm + sign * mean)))
    density = _moschopoulos(spec, sign * (math.log(z / (1.0 - z)) - spec.sm), True)
    assert logitsum_pdf(spec, z) == pytest.approx(density / (z * (1.0 - z)), rel=1e-12)


@pytest.mark.parametrize("law, shapes, rates, y", [
    ("log", (2.0, 3.0), (-1.0, -1.5), 5e-324),
    ("log", (2.0, 3.0), (-1.0, -1.5), 1e-318),
    ("log", (2.5, 3.0), (-1.0, -1.5), 5e-324),
    ("logit", (2.0, 3.0), (20.0, 25.0), 1.0 - 2.0 ** -53),
], ids=["fractions_min_subnormal", "fractions_subnormal", "series_only", "logit_near_1"])
def test_transformed_densities_take_the_jacobian_in_the_exponent(law, shapes, rates, y):
    # the density of X is subnormal where dy/dx is tiny: the summed density
    # divided by dy/dx is 6.0e-4, 3.0e-9, 1.6e-5 and 9.0e-10 off there
    spec = SumSpec(tuple(P(a, b) for a, b in zip(shapes, rates)))
    assert spec._series_only == (shapes[0] != 2.0)
    if law == "log":
        g, slope, value = -(np.log(y) - spec.sm), y, logsum_pdf(spec, y)
    else:
        g, slope, value = np.log(y / (1.0 - y)) - spec.sm, y * (1.0 - y), logitsum_pdf(spec, y)
    with mp.workdps(50):
        ref = _moschopoulos_exact(spec, float(g), True) / mp.mpf(slope)
        assert abs(value - ref) <= 1e-12 * ref


def test_moments_with_huge_mixture_weights():
    # 16 shape-8 terms with rates 1 + 0.05 i: weights reach 1e118, so any
    # moment formed from them would cancel every digit
    spec = SumSpec(tuple(P(8.0, 1.0 + 0.05 * i) for i in range(16)))
    assert spec._weight_scale > 1e100
    mean = math.fsum(t.a / t.b for t in spec.terms)
    var = math.fsum(t.a / t.b ** 2 for t in spec.terms)
    assert mean == pytest.approx(95.8467, rel=1e-6)
    assert sum_moment(spec, 1) == pytest.approx(mean, rel=1e-13)
    assert sum_moment(spec, 2) == pytest.approx(var + mean ** 2, rel=1e-13)
    # logit moments sum Moschopoulos' positive weights: 16 exponentials
    # with weights past 1e13, each shifted so that the sum centres on 0
    centred = SumSpec(tuple(P(1.0, 1.0 + 0.05 * i, -1.0 / (1.0 + 0.05 * i)) for i in range(16)))
    assert centred._weight_scale > 1e13
    z = 1.0 / (1.0 + np.exp(-sample_sum(centred, 808, 300_000)))
    for n in (1, 2):
        value = logitsum_moment(centred, n)
        assert 0.3 < value < 0.6
        emp, se = empirical_moment(z, n)
        assert abs(value - emp) < 3.0 * se
    # the same shape-8 terms, each shifted by -8/b_i so that the sum centres
    # on 0: the series shapes 128 + k meet T = 168, where T^a overflows
    centred = SumSpec(tuple(P(8.0, 1.0 + 0.05 * i, -8.0 / (1.0 + 0.05 * i)) for i in range(16)))
    z = 1.0 / (1.0 + np.exp(-sample_sum(centred, 809, 400_000)))
    emp, se = empirical_moment(z, 1)
    assert abs(logitsum_moment(centred, 1) - emp) < 3.0 * se
    # the log transform's moment is a product of the component moments
    shifted = SumSpec(tuple(P(8.0, 2.0 + 0.05 * i, 0.01 * i) for i in range(16)))
    expected = math.prod(
        math.exp(t.m) * (t.b / (t.b - 1.0)) ** t.a for t in shifted.terms
    )
    assert logsum_moment(shifted, 1) == pytest.approx(expected, rel=1e-13)


def test_logsum():
    assert logsum_cdf(HYPOEXP, 1.0) == 0.0  # e^(sm) endpoint
    assert logsum_cdf(NEG_L2, math.exp(NEG_L2.sm)) == 1.0
    with pytest.raises(DomainError):
        logsum_cdf(HYPOEXP, 0.0)
    # transform coherence: exact reuse of the base CDF
    for x in (0.3, 1.0, 2.5):
        assert logsum_cdf(HYPOEXP, math.exp(x)) == sum_cdf(HYPOEXP, x)
    # equal-rate moment reduction
    eq = SumSpec((P(1.0, 5.0, 0.1), P(2.0, 5.0, 0.2)))
    assert logsum_moment(eq, 1) == pytest.approx(
        math.exp(eq.sm) * (5.0 / 4.0) ** 3.0, rel=1e-12
    )
    with pytest.raises(MomentDivergenceError):
        logsum_moment(HYPOEXP, 1)  # b_1 = 1 <= n
    # b < 0 distinct: moment vs MC
    emp, se = empirical_moment(np.exp(sample_sum(NEG_L2, 606, 300_000)), 1)
    assert abs(logsum_moment(NEG_L2, 1) - emp) < 3.0 * se
    # pdf change of variables
    for y in (1.5, 3.0):
        assert logsum_pdf(HYPOEXP, y) == pytest.approx(
            sum_pdf(HYPOEXP, math.log(y)) / y, rel=1e-12
        )
    # a subnormal point: 2 (y - y^2) / y for rates -1, -2, where the density of
    # the sum at ln y is itself subnormal and 1/y overflows
    neg = SumSpec((P(1.0, -1.0, 0.0), P(1.0, -2.0, 0.0)))
    assert logsum_pdf(neg, 1e-310) == pytest.approx(2.0, rel=1e-12)


def test_logitsum():
    for x in (0.3, 1.0, 2.5):
        z = 1.0 / (1.0 + math.exp(-x))
        # logit(logistic(x)) round-trips only to rounding
        assert logitsum_cdf(HYPOEXP, z) == pytest.approx(sum_cdf(HYPOEXP, x), rel=1e-12)
    with pytest.raises(DomainError):
        logitsum_cdf(HYPOEXP, 1.0)
    # equal-rate regime delegates to the reduced logit distribution
    eq = SumSpec((P(1.0, 2.0, 0.0), P(2.0, 2.0, 0.0)))
    assert logitsum_moment(eq, 1) == pytest.approx(
        ltp3_moment(P(3.0, 2.0, 0.0), 1), rel=0
    )
    # distinct: moment vs MC
    z = 1.0 / (1.0 + np.exp(-sample_sum(HYPOEXP, 707, 300_000)))
    emp, se = empirical_moment(z, 1)
    assert abs(logitsum_moment(HYPOEXP, 1) - emp) < 3.0 * se
    with pytest.raises(DomainError):
        logitsum_moment(NEG_L2, 1)
    # pdf change of variables
    for zz in (0.75, 0.9):
        x = math.log(zz / (1.0 - zz))
        assert logitsum_pdf(HYPOEXP, zz) == pytest.approx(
            sum_pdf(HYPOEXP, x) / (zz * (1.0 - zz)), rel=1e-12
        )


def test_json_round_trip():
    doc = spec_to_json(MIXED_L3)
    back = spec_from_json(doc)
    assert back.terms == MIXED_L3.terms
    assert json.loads(doc)["terms"][0]["a"] == 2
    # a non-integer shape is written as given, not rounded
    single = SumSpec((P(2.5, 1.5, 0.25),))
    doc = spec_to_json(single)
    assert json.loads(doc)["terms"][0]["a"] == 2.5
    assert spec_from_json(doc) == single
    with pytest.raises(DomainError):
        spec_from_json("{not json")
    with pytest.raises(DomainError):
        spec_from_json('{"no_terms": []}')


def _close_rate_spec(L, seed):
    """Shape L/2 terms with rates about 5% apart around L (L/2) / mu, as the
    benchmark's sum_mixtures workload draws them."""
    rng = random.Random(seed)
    a = L // 2
    base = L * a / rng.uniform(1.5, 3.0)
    rates = [base * (1.0 + 0.05 * (i - (L - 1) / 2) + 0.01 * rng.uniform(-1.0, 1.0))
             for i in range(L)]
    rng.shuffle(rates)
    return SumSpec(tuple(P(float(a), b, rng.uniform(-0.05, 0.05)) for b in rates))


@pytest.mark.parametrize("L", [8, 12, 16])
def test_close_rate_sums_need_no_exact_weights(L, monkeypatch):
    # the log bound on the weights picks the series, so building and
    # evaluating the sum forms no exact weight
    def refuse(shapes, bs):
        raise AssertionError("the exact mixture weights were computed")

    monkeypatch.setattr(sums, "_weights_recursive", refuse)
    spec = _close_rate_spec(L, L)
    assert spec._series_only
    mean = math.fsum(t.a / t.b for t in spec.terms)
    sd = math.sqrt(math.fsum(t.a / t.b ** 2 for t in spec.terms))
    g = np.array([mean - 2.0 * sd, mean, mean + 2.0 * sd])
    x = spec.sm + g
    for cdf, pdf, y in ((sum_cdf, sum_pdf, x), (logsum_cdf, logsum_pdf, np.exp(x)),
                        (logitsum_cdf, logitsum_pdf, 1.0 / (1.0 + np.exp(-x)))):
        values, density = cdf(spec, y), pdf(spec, y)
        assert np.all(np.diff(values) > 0.0) and np.all(density > 0.0)
    assert 0.0 < logitsum_moment(spec, 1) < 1.0
    for v, ref in zip(sum_cdf(spec, x), (_moschopoulos(spec, v, False) for v in g)):
        assert v == pytest.approx(ref, rel=1e-12)
    monkeypatch.undo()
    # a weight asked for afterwards is the exact one, correctly rounded
    assert xi0_recursive(spec, 1, 1) == float(sums._weights_recursive(
        spec._shapes, [t.b for t in spec.terms])[0][0])


@pytest.mark.parametrize("spec", [
    HYPOEXP, MIXED_L3, NEG_L2,
    SumSpec((P(3.0, 2.0, 0.0), P(3.0, 2.0 * (1 + 1e-5), 0.0))),
    SumSpec((P(1.0, 1.0, 0.0), P(1.0, 1.001, 0.0))),
    SumSpec(tuple(P(4.0, 1.0 + 0.05 * i) for i in range(8))),
    SumSpec(tuple(P(8.0, -(1.0 + 0.05 * i)) for i in range(16))),
    SumSpec(tuple(P(1.0, 1.0 + 0.05 * i, -1.0 / (1.0 + 0.05 * i)) for i in range(16))),
    SumSpec(tuple(P(2.0, 1.0 + 0.3 * i) for i in range(7))),
    SumSpec(tuple(P(3.0, 1.0 + 0.08 * i) for i in range(5))),
    _close_rate_spec(8, 1), _close_rate_spec(12, 2), _close_rate_spec(16, 3),
])
def test_series_choice_matches_the_exact_weights(spec):
    assert spec._series_only == (spec._weight_scale > sums._HP_WEIGHT_SCALE)


def test_weights_asked_for_later_are_unchanged():
    # the exact weights, computed on first use, round to the same floats
    spec = SumSpec(tuple(P(4.0, 1.0 + 0.05 * i) for i in range(8)))
    assert spec._series_only and "_weights" not in vars(spec)
    assert [xi0_recursive(spec, i, k) for i, k in ((1, 4), (1, 1), (8, 4), (5, 2))] == [
        6.218856714428704e+23, -1.0889783505191232e+30, 1.872300169367027e+23,
        1.5733638509059195e+33]
    assert spec._weight_scale == 3.7373770384189097e+34


def _xi0_exact(spec, i):
    """Weights k = 1..a_i of component i by xi0_closed's nested closed form,
    in exact rational arithmetic: the rates scaled by one power of two,
    which leaves every weight unchanged, and each G(u, v, w) =
    (u + a_w - v - 1)! / ((a_w - 1)! (u - v)!) (b_i - b_w)^(v - u - a_w)
    tabulated by u - v."""
    e = math.frexp(spec.terms[0].b)[1]
    b = [Fraction(math.ldexp(t.b, -e)) for t in spec.terms]
    a = [spec.shape(q) for q in range(1, spec.L + 1)]
    ai, bi = a[i - 1], b[i - 1]
    G = [[math.comb(n + a[w] - 1, n) / (bi - b[w]) ** (n + a[w]) for n in range(ai)]
         for w in range(spec.L) if w != i - 1]
    f = {ai: Fraction(1)}
    for g in G[:-1]:
        f = {v: sum(f[u] * g[u - v] for u in f if u >= v) for v in range(1, ai + 1)}
    pref = (-1) ** (sum(a) - ai) * math.prod(bq ** aq for bq, aq in zip(b, a))
    return [pref / bi ** k * sum(f[u] * G[-1][u - k] for u in f if u >= k)
            for k in range(1, ai + 1)]


def test_recursive_weights_are_the_closed_form_rounded_once():
    # L 2-5, shapes 1-8, one scale of 10^-300..10^300 and either sign, rates
    # up to 10^3 either side of it: every weight of one component a spec is
    # the exact closed-form value, correctly rounded
    rng = random.Random(27)
    for _ in range(1000):
        L = rng.randint(2, 5)
        scale = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
        spec = SumSpec(tuple(P(float(rng.randint(1, 8)), scale * 10.0 ** rng.uniform(-3.0, 3.0))
                             for _ in range(L)))
        i = rng.randint(1, L)
        exact = [float(v) for v in _xi0_exact(spec, i)]
        assert [xi0_recursive(spec, i, k) for k in range(1, spec.shape(i) + 1)] == exact, spec


def test_exact_weights_wait_for_the_first_evaluation(monkeypatch):
    # building a sum or a scenario, directly, from JSON or by `at`, forms
    # neither the log weight bound nor the exact weights; the first
    # evaluation forms each once, and a sum the bound sends to the series
    # never forms the weights
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in ("_weights_recursive", "_log_weight_bound"):
        monkeypatch.setattr(sums, name, counted(name, getattr(sums, name)))
    spec = SumSpec(MIXED_L3.terms)
    parsed = spec_from_json(spec_to_json(spec))
    close = _close_rate_spec(8, 1)
    model = EHModel(150.0, 0.014, 0.024)
    sc = MisoScenario(model, tuple(LinkBudget(0.5, 0.01, 2.4e9, d, 2.0 / 3.0, P(3.0, 1.0))
                                   for d in (12.0, 10.0, 8.0)))
    loaded = scenario_from_json(scenario_to_json(sc))
    moved = sc.at(power=3.0)
    assert not calls
    both = {"_weights_recursive": 1, "_log_weight_bound": 1}
    for evaluate, formed in (
            (lambda: sum_cdf(spec, [2.0, 5.0]), both),
            (lambda: sum_cdf(parsed, 3.0), both),
            (lambda: sum_cdf(close, close.sm + close.mean_offset()), {"_log_weight_bound": 1}),
            (lambda: q_cdf_miso(sc, model.Ps / 10.0), both),
            (lambda: q_cdf_miso(loaded, model.Ps / 10.0), both),
            (lambda: q_cdf_miso(moved, model.Ps / 10.0), both)):
        calls.clear()
        evaluate()
        assert calls == formed
        evaluate()
        assert calls == formed
    assert not spec._series_only and not sc._law._series_only and close._series_only


@pytest.mark.parametrize("seed", range(8))
def test_one_pass_cdf_equals_the_two_call_split(seed):
    # a CDF array spanning the mean offset sums P below it and Q above it in
    # one pass, each point the value that a call on its own side gives
    rng = np.random.default_rng(seed)
    sign = 1.0 if seed % 2 else -1.0
    if seed < 4:
        spec = _random_distinct_spec(rng, sign=sign)
    else:
        spec = SumSpec(tuple(P(rng.uniform(0.4, 3.0), sign * rng.uniform(1.0, 3.0),
                               rng.normal()) for _ in range(3)))
    mean = spec.mean_offset()
    # the mean offset itself, and points near the support edge, which the
    # partial fractions send to the series
    g = rng.permutation(np.concatenate((mean * rng.uniform(0.0, 4.0, 24),
                                        [mean, mean * 1e-3, 1e-9, 5e-324, 0.0])))
    lower = g <= mean
    assert lower.sum() >= 5 and (~lower).sum() >= 5
    split = np.empty_like(g)
    split[lower], split[~lower] = spec.at_offsets(g[lower]), spec.at_offsets(g[~lower])
    assert np.array_equal(spec.at_offsets(g), split)
    # at another mean rate the sides are those of the rescaled points
    for rate in (0.7, 1.9):
        lower = (rate / spec.mean_rate) * g <= mean
        split[lower] = spec.at_offsets(g[lower], rate=rate)
        split[~lower] = spec.at_offsets(g[~lower], rate=rate)
        assert np.array_equal(spec.at_offsets(g, rate=rate), split)


def test_series_tails_reach_0_and_1():
    # the weights of the series sum to 1 only to rounding, so far in the
    # tails the CDF comes from the smaller of F and 1 - F
    spec = SumSpec(tuple(P(8.0, 1.0 + 0.05 * i) for i in range(16)))
    assert sum_cdf(spec, 1e3) == 1.0 and sum_cdf(spec, 1e4) == 1.0
    mirror = SumSpec(tuple(P(8.0, -(1.0 + 0.05 * i)) for i in range(16)))
    assert 0.0 <= sum_cdf(mirror, -1e3) <= 1e-16
    assert 0.0 <= sum_cdf(mirror, -1e4) <= 1e-16


def test_negative_rate_left_tail_keeps_relative_accuracy():
    # 1 - (the mixture CDF in the gamma direction) read 4.122307162e-9 at
    # -20 and 0.0 at -40; the CDF is 2 e^x - e^(2x)
    spec = SumSpec((P(1.0, -1.0), P(1.0, -2.0)))
    for x in (-20.0, -40.0):
        assert sum_cdf(spec, x) == pytest.approx(2.0 * math.exp(x) - math.exp(2.0 * x),
                                                 rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", [
    MIXED_L3,
    NEG_L2,
    SumSpec((P(1.5, 1.0, 0.3), P(2.5, 1.3), P(0.7, 1.6))),
    SumSpec((P(0.5, -1.0, 0.5), P(1.5, -1.4), P(2.0, -1.4))),
], ids=["fractions", "negative_fractions", "series", "negative_series"])
def test_cdf_at_infinite_and_nan_points(spec):
    # Q is 0 at g = inf, from the partial fractions as from the series: the
    # CDF is 0 and 1 at the ends and NaN at NaN, and the points beside them
    # keep the values they have alone
    edge, sign = spec.sm, math.copysign(1.0, spec.terms[0].b)
    inside = [edge + sign * g for g in (0.5, 2.0, 7.0)]
    x = np.array([-math.inf, math.inf, math.nan] + inside)
    for rate in (None, 2.5):
        assert spec.at_offsets(math.inf, rate=rate) == float(sign > 0)
    np.testing.assert_array_equal(
        sum_cdf(spec, x), [0.0, 1.0, math.nan] + [sum_cdf(spec, v) for v in inside])
    assert sum_cdf(spec, math.inf) == 1.0 and sum_cdf(spec, -math.inf) == 0.0
    assert math.isnan(sum_cdf(spec, math.nan))
