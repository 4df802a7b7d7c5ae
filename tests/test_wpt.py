"""Harvested-power layer tests: transforms, closed forms, MC agreement."""

import math
import pickle
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma

from p3family.errors import DomainError, SupportError
from p3family.logitp3 import ltp3_cdf, ltp3_pdf
from p3family.mc import empirical_cdf, empirical_moment, sample_harvested
from p3family.pearson3 import Pearson3Params
from p3family.presets import (
    FIG_D_GRID,
    FIG_P_GRID,
    beacon_field_scenario,
    equal_split_scenario,
)
from p3family.sums import DISTINCT_RATES, EQUAL_RATES
from p3family.wpt import (
    EHModel,
    LinkBudget,
    MisoScenario,
    harvested_power_miso,
    harvested_power_siso,
    outage_probability,
    path_loss,
    q_cdf_miso,
    q_cdf_siso,
    q_mean_miso,
    q_mean_siso,
    q_moment_miso,
    q_moment_siso,
    q_pdf_miso,
    q_pdf_siso,
    scenario_from_json,
    scenario_to_json,
    _q_power,
)

from test_sums import _moschopoulos, _moschopoulos_weights

MODEL = EHModel(150.0, 0.014, 0.024)
FADING = Pearson3Params(3.0, 1.0, 0.0)


def link(d=10.0, p=2.0, fading=FADING):
    return LinkBudget(0.5, 0.01, 2.4e9, d, p, fading)


LINK = link()


def equal_scenario(L, d=10.0, ptot=2.0):
    return MisoScenario(MODEL, tuple(link(d, ptot / L) for _ in range(L)))


def distinct_scenario(L, ptot=2.0):
    return MisoScenario(
        MODEL, tuple(link(d, ptot / L) for d in (12.0, 10.0, 8.0)[:L])
    )


@pytest.mark.parametrize("L", [0, 4, 5])
def test_beacon_field_has_one_to_three_beacons(L):
    with pytest.raises(DomainError, match=f"^the beacon field has 1..3 beacons, got L={L}$"):
        beacon_field_scenario(L)


def test_scenario_needs_a_branch():
    with pytest.raises(DomainError, match="^a scenario needs at least one branch$"):
        MisoScenario(MODEL, ())


def test_scenario_branches_must_be_link_budgets():
    with pytest.raises(DomainError, match="^branches must be LinkBudget values, got Pearson3Params"):
        MisoScenario(MODEL, (LINK, FADING))


def test_model_validation():
    with pytest.raises(DomainError):
        EHModel(-1.0, 0.014, 0.024)
    with pytest.raises(DomainError):
        LinkBudget(0.5, 0.01, 2.4e9, -1.0, 2.0, FADING)
    with pytest.raises(DomainError):
        link(fading=Pearson3Params(3.0, -1.0, 0.0))
    with pytest.raises(DomainError):
        link(fading=Pearson3Params(3.0, 1.0, 0.5))
    # a NaN inverse scale is rejected by the law itself, before the link sees it
    with pytest.raises(DomainError, match="a law needs finite a > 0, b != 0 and m"):
        link(fading=Pearson3Params(3.0, math.nan, 0.0))
    # NaN compares false with 0 and is rejected with the non-positive values
    for i, field in enumerate(("at", "ar", "fc", "d", "p")):
        fields = [0.5, 0.01, 2.4e9, 10.0, 2.0]
        fields[i] = math.nan
        with pytest.raises(DomainError, match=f"LinkBudget field {field} must be positive"):
            LinkBudget(*fields, FADING)
    for i in range(3):
        with pytest.raises(DomainError, match="EH constants must be positive"):
            EHModel(*[math.nan if j == i else v for j, v in enumerate((150.0, 0.014, 0.024))])
    assert MODEL.c == pytest.approx(0.024 * math.exp(-2.1), rel=1e-13)


@pytest.mark.parametrize("constants", [
    (math.inf, 0.014, 0.024), (150.0, math.inf, 0.024), (150.0, 0.014, math.inf),
    (150.0, 10.0, 0.024), (1e200, 1e200, 0.024), (700.0, 1.0, 1e-20),
], ids=["A", "B", "Ps", "AB", "AB_inf", "c"])
def test_model_rejects_constants_the_harvester_cannot_evaluate(constants):
    # e^(A B) overflows at A B = 1500, and c = Ps e^(-A B) underflows to 0
    # at Ps = 1e-20, A B = 700: span and harvest would raise OverflowError,
    # and the CDF and density would divide by c = 0
    with pytest.raises(DomainError):
        EHModel(*constants)
    # just inside the double range the constants stay usable
    model = EHModel(700.0, 1.0, 0.024)
    assert 0.0 < model.c and model.span == pytest.approx(0.024, rel=1e-13)


def test_path_loss():
    # direct formula evaluation at the reference antenna parameters
    assert path_loss(LINK) == pytest.approx(3.1991427398e-3, rel=1e-9)
    assert type(path_loss(LINK)) is float and type(LINK.loss) is float
    assert 0.0 < path_loss(LINK) < 1.0
    # d -> 0 saturates to 1
    assert path_loss(link(d=1e-6)) == pytest.approx(1.0, abs=1e-12)
    # inverse-square law on the exponent argument
    l1, l2 = path_loss(link(d=5.0)), path_loss(link(d=10.0))
    e1, e2 = -math.log1p(-l1), -math.log1p(-l2)
    assert e1 == pytest.approx(4.0 * e2, rel=1e-12)
    # monotone decreasing in d
    assert path_loss(link(d=6.0)) > path_loss(link(d=7.0))


def test_harvested_power_map():
    assert harvested_power_siso(MODEL, LINK, 0.0) == pytest.approx(0.0, abs=1e-18)
    assert harvested_power_siso(MODEL, LINK, 1e9) == pytest.approx(0.024, rel=1e-9)
    # received power exactly at the turn-on constant
    h2_at_B = MODEL.B / (LINK.loss * LINK.p)
    assert harvested_power_siso(MODEL, LINK, h2_at_B) == pytest.approx(
        0.024 * (1.0 - math.exp(-2.1)) / 2.0, rel=1e-12
    )
    # monotone in h2
    hs = [harvested_power_siso(MODEL, LINK, h) for h in (0.5, 1.0, 2.0, 5.0)]
    assert all(x < y for x, y in zip(hs, hs[1:]))
    with pytest.raises(DomainError):
        harvested_power_siso(MODEL, LINK, -0.1)


# the figure constants, and A B = 400 and 700, where e^(A B) is a double
# but e^(2 A B) is not
HARVESTERS = [MODEL, EHModel(400.0, 1.0, 0.024), EHModel(700.0, 1.0, 0.024)]


@pytest.mark.parametrize("model", HARVESTERS, ids=["fig", "AB400", "AB700"])
def test_harvest_vs_40_digits(model):
    # Q = Ps (1 - e^(-g)) / (1 + e^(A B - g)) at the rounded g = A r and A B,
    # at every r where Q is a normal double; Ps (1 + e^(A B)) / (e^(A B)
    # (1 + e^(-A (r - B)))) - Ps e^(-A B) loses every digit there as r -> 0
    r = np.geomspace(1e-300, 10.0 * model.B, 400)
    q = model.harvest(r)
    with mp.workdps(40):
        ab = mp.mpf(model.A * model.B)
        for rv, qv in zip(r.tolist(), q.tolist()):
            g = mp.mpf(model.A * rv)
            exact = model.Ps * -mp.expm1(-g) / (1 + mp.exp(ab - g))
            if exact >= sys.float_info.min:
                assert abs(qv - exact) <= 1e-15 * exact, rv


@pytest.mark.parametrize("model", HARVESTERS, ids=["fig", "AB400", "AB700"])
def test_harvest_ends_and_the_moment_integrand_are_one_map(model):
    # the suite turns a RuntimeWarning into an error: the cancelling form
    # overflowed at r = 0 for A B = 400
    assert model.harvest(0.0) == 0.0
    assert model.harvest(math.inf) == model.Ps
    r = np.concatenate([[0.0], np.geomspace(1e-300, 1e3, 400), [math.inf]])
    assert np.array_equal(model.harvest(r), model.Ps * _q_power(model, 1)(model.A * r))


def test_harvest_leaves_its_input_and_keeps_scalars():
    # the map reads r a block at a time: the caller's array is left as it
    # was, each value is that of the one-point map, and a scalar r gives a
    # numpy scalar
    r = np.geomspace(1e-6, 1.0, 50)
    before = r.copy()
    q = MODEL.harvest(r)
    assert np.array_equal(r, before)
    assert q.dtype == np.float64 and q.shape == r.shape
    assert q.tolist() == [MODEL.harvest(v) for v in r.tolist()]
    assert MODEL.harvest(r.tolist()).tolist() == q.tolist()
    assert type(MODEL.harvest(0.01)) is np.float64
    assert MODEL.harvest(1) == MODEL.harvest(1.0)


def test_harvested_power_miso():
    sc = equal_scenario(2)
    assert harvested_power_miso(sc, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-18)
    # aggregate-power equivalence with the SISO map
    br = sc.branches[0]
    h2 = MODEL.B / (br.loss * br.p)
    assert harvested_power_miso(sc, [h2 / 2, h2 / 2]) == pytest.approx(
        0.024 * (1.0 - math.exp(-2.1)) / 2.0, rel=1e-12
    )
    with pytest.raises(DomainError):
        harvested_power_miso(sc, [1.0])
    with pytest.raises(DomainError):
        harvested_power_miso(sc, [1.0, -1.0])


def test_cdf_saturation_and_composition():
    assert q_cdf_siso(MODEL, LINK, 0.0) == 0.0
    assert q_cdf_siso(MODEL, LINK, -1.0) == 0.0
    assert q_cdf_siso(MODEL, LINK, MODEL.Ps) == 1.0
    assert q_cdf_siso(MODEL, LINK, 1e-12) == pytest.approx(0.0, abs=1e-9)
    assert q_cdf_siso(MODEL, LINK, MODEL.Ps - 1e-12) == pytest.approx(1.0, abs=1e-9)
    # transform-chain identity against the logit distribution
    AB = MODEL.A * MODEL.B
    wparams = Pearson3Params(FADING.a, LINK.bhat(MODEL), -AB)
    for q in (MODEL.Ps / 10, MODEL.Ps / 2, MODEL.Ps * 0.9):
        z = (q + MODEL.c) / (MODEL.c * (1.0 + math.exp(AB)))
        assert q_cdf_siso(MODEL, LINK, q) == pytest.approx(
            ltp3_cdf(wparams, z), abs=1e-12
        )
        assert q_pdf_siso(MODEL, LINK, q) == pytest.approx(
            ltp3_pdf(wparams, z) / (MODEL.c * (1.0 + math.exp(AB))), rel=1e-12
        )


def _near_zero_reference(scenario, q):
    """CDF and density at q, at 50 digits: the law at the offset
    g = log1p(q/c) - log1p(-q/Ps) from its edge -A B, times dg/dq for the
    density."""
    law, model = scenario._law, scenario.model
    with mp.workdps(50):
        q, c, ps = mp.mpf(q), mp.mpf(model.c), mp.mpf(model.Ps)
        g = mp.log1p(q / c) - mp.log1p(-q / ps)
        slope = 1 / (q + c) + 1 / (ps - q)
        return _moschopoulos(law, g, False), float(_moschopoulos(law, g, True) * slope)


@pytest.mark.parametrize("scenario", [
    equal_split_scenario(1, 10.0),
    beacon_field_scenario(3, 2.0),
], ids=["L1", "L3"])
def test_cdf_and_pdf_near_zero_power(scenario):
    # x = ln((q + c)/(Ps - q)) loses q against the edge -A B: at 1e-17 the CDF
    # was 15% off, and below about 1e-19 the density raised SupportError
    for q in (1e-25, 1e-19, 1e-17, 1e-12):
        cdf, pdf = _near_zero_reference(scenario, q)
        assert q_cdf_miso(scenario, q) == pytest.approx(cdf, rel=1e-12, abs=0)
        assert q_pdf_miso(scenario, q) == pytest.approx(pdf, rel=1e-12, abs=0)


def test_cdf_monotone_at_subnormal_offsets():
    # scipy's gammainc(1, u) is u for some subnormal u and 0 for others, so
    # the partial fractions read 5.73e-306 at q = 4e-312 and 0.0 at 1e-311
    scenario = beacon_field_scenario(3, 2.0)
    q = np.geomspace(5e-324, 1e-300, 2000)
    cdf = q_cdf_miso(scenario, q)
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.all(cdf <= q_cdf_miso(scenario, 1e-300))
    assert q_cdf_miso(scenario, 4e-312) <= q_cdf_miso(scenario, 1e-311)


def test_pdf_normalization_and_cdf_derivative():
    total, _ = quad(lambda q: q_pdf_siso(MODEL, LINK, q), 0.0, MODEL.Ps, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)
    h = MODEL.Ps * 1e-7
    for q in (MODEL.Ps / 4, MODEL.Ps / 2, 3 * MODEL.Ps / 4):
        fd = (q_cdf_siso(MODEL, LINK, q + h) - q_cdf_siso(MODEL, LINK, q - h)) / (2 * h)
        assert fd == pytest.approx(q_pdf_siso(MODEL, LINK, q), rel=1e-6)
    with pytest.raises(SupportError):
        q_pdf_siso(MODEL, LINK, MODEL.Ps + 1e-6)
    with pytest.raises(SupportError):
        q_pdf_siso(MODEL, LINK, 0.0)


def test_siso_moment_identities():
    # the double-series n=1 moment equals the single-series mean
    assert q_moment_siso(MODEL, LINK, 1) == pytest.approx(
        q_mean_siso(MODEL, LINK), abs=1e-9
    )
    # same identity across the distance grid of the mean-vs-distance sweep
    for d in (4.0, 8.0, 16.0, 20.0):
        lk = link(d=d)
        assert q_moment_siso(MODEL, lk, 1) == pytest.approx(
            q_mean_siso(MODEL, lk), abs=1e-9
        )
    # moments live inside the saturation bounds
    m1 = q_moment_siso(MODEL, LINK, 1)
    m2 = q_moment_siso(MODEL, LINK, 2)
    assert 0.0 < m1 < MODEL.Ps
    assert m1 ** 2 <= m2 < MODEL.Ps ** 2
    with pytest.raises(DomainError):
        q_moment_siso(MODEL, LINK, 0)


def test_siso_moments_vs_quadrature():
    # independent oracle: quadrature of q^n against the density
    for n in (1, 2):
        ref, _ = quad(
            lambda q: q ** n * q_pdf_siso(MODEL, LINK, q), 0.0, MODEL.Ps, limit=300
        )
        assert q_moment_siso(MODEL, LINK, n) == pytest.approx(ref, rel=1e-8)


def test_siso_vs_mc():
    sc = MisoScenario(MODEL, (LINK,))
    samples = sample_harvested(sc, 2025, 400_000)
    for qt in (MODEL.Ps / 10, MODEL.Ps / 20):
        p_an = q_cdf_siso(MODEL, LINK, qt)
        sigma = math.sqrt(p_an * (1.0 - p_an) / samples.size)
        assert abs(p_an - empirical_cdf(samples, qt)) < 3.0 * sigma
    emp, se = empirical_moment(samples, 1)
    assert abs(q_mean_siso(MODEL, LINK) - emp) < 0.01 * emp
    emp2, se2 = empirical_moment(samples, 2)
    assert abs(q_moment_siso(MODEL, LINK, 2) - emp2) < 3.0 * se2


def test_far_link_concentrated_fading_moments_vs_quadrature():
    # b_hat near 375 (a = 10) and 1500 (a = 40): narrow laws far below the
    # threshold A B, where a moment series once met rates with s T near 784,
    # beyond double range for e^(s T) alone
    for a in (10.0, 40.0):
        lk = link(d=60.0, fading=Pearson3Params(a, a))
        sc = MisoScenario(MODEL, (lk,))
        scale = lk.loss * lk.p / a  # gamma scale of the received power
        r_hi = gamma.isf(1e-20, a, scale=scale)
        for n, value in ((1, q_mean_miso(sc)), (2, q_moment_miso(sc, 2))):
            ref, _ = quad(
                lambda r: MODEL.harvest(r) ** n * gamma.pdf(r, a, scale=scale),
                0.0, r_hi, points=[a * scale], limit=200, epsabs=0.0, epsrel=1e-13,
            )
            assert value == pytest.approx(ref, rel=1e-9)
        if a == 10.0:
            assert q_mean_miso(sc) == pytest.approx(7.0719281353e-5, rel=1e-10)


@pytest.mark.parametrize("d", [320.0, 640.0, 1280.0])
def test_far_link_moments_vs_mpmath(d):
    # Far links harvest little: a binomial expansion of Q = span Z - c over
    # the logit moments cancelled here, 2.1e-4 off at n = 3 and 1280 m.
    # Oracle: 40-digit quadrature over the fading gain G ~ Gamma(3, 1) of the
    # harvester formula itself.
    sc = equal_split_scenario(1, d)
    (br,) = sc.branches
    a, b = br.fading.a, br.fading.b
    with mp.workdps(40):
        A, B, Ps = (mp.mpf(v) for v in (sc.model.A, sc.model.B, sc.model.Ps))
        eab = mp.exp(A * B)

        def q(G):
            r = G * mp.mpf(br.loss) * br.p / b
            return Ps * (1 + eab) / (eab * (1 + mp.exp(-A * (r - B)))) - Ps / eab

        nodes = [0] + [a - 1 + k * mp.sqrt(a) for k in (-1, 0, 1, 3, 6, 12)] + [mp.inf]
        for n in (2, 3):
            ref = mp.quad(lambda G: q(G) ** n * G ** (a - 1) * mp.exp(-G), nodes) / mp.gamma(a)
            assert q_moment_miso(sc, n) == pytest.approx(float(ref), rel=1e-12, abs=0)


def test_close_rate_moments():
    # b_hat 2e-4 apart: mixture weights near 2e19 would cancel every digit
    # of partial-fraction logit moments; the positive series keeps them.
    # Oracle: nested quadrature over the two branch gains, Gamma(3, 1) each.
    branches = (link(10.0, 1.0), link(10.001, 1.0))
    sc = MisoScenario(MODEL, branches)
    assert sc.regime == DISTINCT_RATES
    assert 0.0 <= q_cdf_miso(sc, MODEL.Ps / 10) <= 1.0
    g1, g2 = (br.loss * br.p for br in branches)
    A, B = MODEL.A, MODEL.B

    def fading_pdf(h):
        return 0.5 * h * h * math.exp(-h)

    def moment(n):
        def q(h1, h2):
            return (MODEL.span / (1.0 + math.exp(-A * (g1 * h1 + g2 * h2 - B))) - MODEL.c) ** n

        def inner(h1):
            return quad(lambda h2: q(h1, h2) * fading_pdf(h2), 0.0, math.inf,
                        epsabs=0.0, epsrel=1e-11)[0]

        return quad(lambda h1: inner(h1) * fading_pdf(h1), 0.0, math.inf,
                    epsabs=0.0, epsrel=1e-11)[0]

    assert q_mean_miso(sc) == pytest.approx(moment(1), rel=1e-9)
    assert q_moment_miso(sc, 2) == pytest.approx(moment(2), rel=1e-9)


def test_miso_regimes_and_reduction():
    assert equal_scenario(3).regime == EQUAL_RATES
    assert distinct_scenario(3).regime == DISTINCT_RATES
    # two branches equal, one distinct: Moschopoulos' series serves the law
    mixed = MisoScenario(MODEL, (link(10.0, 1.0), link(10.0, 1.0), link(8.0, 1.0)))
    assert mixed.regime == DISTINCT_RATES and mixed._law._series_only
    # L=1 reduces exactly to SISO
    sc1 = MisoScenario(MODEL, (LINK,))
    qt = MODEL.Ps / 10
    assert q_cdf_miso(sc1, qt) == q_cdf_siso(MODEL, LINK, qt)
    assert q_pdf_miso(sc1, qt) == q_pdf_siso(MODEL, LINK, qt)
    assert q_mean_miso(sc1) == q_mean_siso(MODEL, LINK)
    assert q_moment_miso(sc1, 2) == q_moment_siso(MODEL, LINK, 2)


def test_equal_scales_with_non_integer_fading_are_one_law():
    # two identical Nakagami-1.5 branches share one scale: their harvested
    # power is that of one branch of shape 3.0 at the same scale
    sc = MisoScenario(MODEL, (link(10.0, 1.0, Pearson3Params(1.5, 1.0)),) * 2)
    one = MisoScenario(MODEL, (link(10.0, 1.0, Pearson3Params(3.0, 1.0)),))
    assert sc.regime == EQUAL_RATES
    q = MODEL.Ps * np.array([1e-3, 0.05, 0.1, 0.5, 0.9])
    np.testing.assert_array_equal(q_cdf_miso(sc, q), q_cdf_miso(one, q))
    assert q_mean_miso(sc) == q_mean_miso(one)
    # and that law is gamma(3) in A r, at the scale of one branch
    scale = LINK.loss * 1.0 * MODEL.A
    x = np.log((q + MODEL.c) / (MODEL.Ps - q)) + MODEL.A * MODEL.B
    np.testing.assert_allclose(q_cdf_miso(sc, q), gamma.cdf(x, 3.0, scale=scale), rtol=1e-9)


def test_miso_equal_regime_brackets_perturbed_distinct():
    # perturbing the rates by +-1e-3 relative puts the distinct-regime CDF
    # within 1e-3 of the equal-regime value
    qt = MODEL.Ps / 10
    eq = equal_scenario(2)
    v_eq = q_cdf_miso(eq, qt)
    perturbed = MisoScenario(
        MODEL, (link(10.0, 1.0 * (1 + 1e-3)), link(10.0, 1.0 * (1 - 1e-3)))
    )
    assert perturbed.regime == DISTINCT_RATES
    assert abs(q_cdf_miso(perturbed, qt) - v_eq) < 1e-3


@pytest.mark.parametrize("sc_fn", [equal_scenario, distinct_scenario])
@pytest.mark.parametrize("L", [2, 3])
def test_miso_vs_mc(sc_fn, L):
    sc = sc_fn(L)
    samples = sample_harvested(sc, 3131, 400_000)
    qt = MODEL.Ps / 10
    p_an = q_cdf_miso(sc, qt)
    sigma = math.sqrt(max(p_an * (1.0 - p_an), 4.0 / samples.size) / samples.size)
    assert abs(p_an - empirical_cdf(samples, qt)) < 3.0 * sigma
    emp, _ = empirical_moment(samples, 1)
    assert abs(q_mean_miso(sc) - emp) < 0.01 * emp
    assert q_moment_miso(sc, 1) == pytest.approx(q_mean_miso(sc), abs=1e-9)


def test_non_integer_fading_at_distinct_distances_vs_mc():
    # Nakagami-1.5 fading at the beacon-field distances: real shapes at
    # distinct rates, which Moschopoulos' series serves
    sc = MisoScenario(MODEL, tuple(link(d, 2.0 / 3.0, Pearson3Params(1.5, 1.5))
                                   for d in (12.0, 10.0, 8.0)))
    assert sc.regime == DISTINCT_RATES and sc._law._series_only
    samples = sample_harvested(sc, 1515, 400_000)
    qt = MODEL.Ps / 10
    p_an = q_cdf_miso(sc, qt)
    sigma = math.sqrt(p_an * (1.0 - p_an) / samples.size)
    assert abs(p_an - empirical_cdf(samples, qt)) < 3.0 * sigma
    emp, se = empirical_moment(samples, 1)
    assert abs(q_mean_miso(sc) - emp) < 3.0 * se


def test_miso_pdf_normalization():
    for sc in (equal_scenario(3), distinct_scenario(3)):
        total, _ = quad(lambda q: q_pdf_miso(sc, q), 0.0, MODEL.Ps, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)
        assert q_cdf_miso(sc, 0.0) == 0.0
        assert q_cdf_miso(sc, MODEL.Ps) == 1.0


def test_stochastic_dominance():
    qt = MODEL.Ps / 10
    # more transmit power shifts mass upward
    assert q_cdf_siso(MODEL, link(p=3.0), qt) < q_cdf_siso(MODEL, link(p=2.0), qt)
    # larger distance shifts mass downward
    assert q_cdf_siso(MODEL, link(d=12.0), qt) > q_cdf_siso(MODEL, link(d=10.0), qt)


def test_outage_probability_dispatch():
    qt = MODEL.Ps / 20
    assert outage_probability(MODEL, LINK, qt) == q_cdf_siso(MODEL, LINK, qt)
    sc = distinct_scenario(2)
    assert outage_probability(MODEL, sc, qt) == q_cdf_miso(sc, qt)
    assert outage_probability(MODEL, LINK, MODEL.Ps * 2) == 1.0
    with pytest.raises(DomainError):
        outage_probability(MODEL, "not a link", qt)
    with pytest.raises(DomainError):
        outage_probability(EHModel(100.0, 0.014, 0.024), sc, qt)


def test_scenario_json_round_trip():
    sc = distinct_scenario(3)
    back = scenario_from_json(scenario_to_json(sc))
    assert back.model == sc.model
    assert back.branches == sc.branches
    assert back.regime == sc.regime
    with pytest.raises(DomainError):
        scenario_from_json("{}")


def test_scenario_pickle_round_trip():
    # a scenario crosses process boundaries, e.g. to multiprocessing workers
    for sc in (equal_split_scenario(2, 10.0), distinct_scenario(3)):
        back = pickle.loads(pickle.dumps(sc))
        assert back == sc
        q = np.linspace(0.0, sc.model.Ps, 7)
        np.testing.assert_array_equal(q_cdf_miso(back, q), q_cdf_miso(sc, q))
        assert q_pdf_miso(back, 1e-4) == q_pdf_miso(sc, 1e-4)


# ------------------------------------------------- one law per curve

FIG_THRESHOLDS = (MODEL.Ps / 10, MODEL.Ps / 20)


def _per_point(scenario, var, points, q, density=False):
    value = q_pdf_miso if density else q_cdf_miso
    return np.array([value(scenario.at(**{var: x}), q) for x in points])


@pytest.mark.parametrize("L", [1, 2, 3])
def test_fig3_curve_equals_per_point(L):
    # equal rates: the law of the first distance, at each point's mean rate,
    # forms the same gamma argument as a law built there
    sc = equal_split_scenario(L, FIG_D_GRID[0])
    for qt in FIG_THRESHOLDS:
        for density in (False, True):
            np.testing.assert_array_equal(sc.curve("distance", FIG_D_GRID, qt, density),
                                          _per_point(sc, "distance", FIG_D_GRID, qt, density))


def test_fig4_curves_vs_series():
    # the rescaled law moves the partial-fraction rounding noise, which is
    # the error of both: 1.48e-8 at worst, against the 50-digit series
    for L in (2, 3):
        sc = beacon_field_scenario(L)
        weights = _moschopoulos_weights(sc._law)
        for qt in FIG_THRESHOLDS:
            with mp.workdps(50):
                g = mp.log1p(mp.mpf(qt) / MODEL.c) - mp.log1p(-mp.mpf(qt) / MODEL.Ps)
            ref = [_moschopoulos(sc.at(power=p)._law, g, False, weights) for p in FIG_P_GRID]
            np.testing.assert_allclose(sc.curve("power", FIG_P_GRID, qt), ref,
                                       rtol=2e-8, atol=0.0)
            np.testing.assert_allclose(_per_point(sc, "power", FIG_P_GRID, qt), ref,
                                       rtol=2e-8, atol=0.0)


@pytest.mark.parametrize("L", [2, 3])
def test_power_density_curve_of_a_beacon_field(L):
    # one mixture law serves the sweep, and its one log-slope, that of the
    # float q, goes with every rate: at small q to the series, where the
    # curve keeps 2.3e-14, at the thresholds to the partial fractions, where
    # their rounding moves with the rate, as in test_fig4_curves_vs_series
    sc = beacon_field_scenario(L)
    for q, rtol in ((1e-9, 1e-13), (1e-6, 1e-13), (1e-4, 1e-13),
                    *((qt, 2e-8) for qt in FIG_THRESHOLDS)):
        np.testing.assert_allclose(sc.curve("power", FIG_P_GRID, q, density=True),
                                   _per_point(sc, "power", FIG_P_GRID, q, density=True),
                                   rtol=rtol, atol=0.0)


def test_distance_curve_with_distinct_apertures_equals_per_point():
    # distinct apertures change the rate ratios with distance: a law per point
    branches = (LinkBudget(0.5, 0.01, 2.4e9, 10.0, 1.0, FADING),
                LinkBudget(0.2, 0.02, 0.9e9, 6.0, 1.0, FADING))
    sc = MisoScenario(MODEL, branches)
    points = [3.0, 5.5, 8.0, 12.0]
    assert {sc.at(distance=d).regime for d in points} == {DISTINCT_RATES}
    for density in (False, True):
        np.testing.assert_array_equal(sc.curve("distance", points, MODEL.Ps / 10, density),
                                      _per_point(sc, "distance", points, MODEL.Ps / 10, density))


def test_distance_curve_with_coincident_rates_near_the_transmitter():
    # the path losses saturate to 1 near the transmitter, where the first two
    # branches share a rate and the third does not
    sc = _sweep_scenarios()[-1]
    points = [1e-3, 0.05, 0.5, 3.0, 12.0]
    near = sc.at(distance=1e-3)._law
    assert near.rate(1) == near.rate(2) != near.rate(3) and near._series_only
    for density in (False, True):
        np.testing.assert_array_equal(sc.curve("distance", points, MODEL.Ps / 10, density),
                                      _per_point(sc, "distance", points, MODEL.Ps / 10, density))
    for d in points[:2]:
        at = sc.at(distance=d)
        cdf, pdf = _near_zero_reference(at, MODEL.Ps / 10)
        assert q_cdf_miso(at, MODEL.Ps / 10) == pytest.approx(cdf, rel=1e-12)
        assert q_pdf_miso(at, MODEL.Ps / 10) == pytest.approx(pdf, rel=1e-12)


def test_pdf_curve_and_support():
    points = [0.5, 1.0, 2.5, 4.0]
    sc = equal_split_scenario(3, 10.0)
    for q in (1e-19, MODEL.Ps / 20, MODEL.Ps / 2):
        np.testing.assert_allclose(sc.curve("power", points, q, density=True),
                                   _per_point(sc, "power", points, q, density=True),
                                   rtol=1e-13, atol=0.0)
    for sc in (sc, distinct_scenario(3)):
        for q in (0.0, -1e-3, MODEL.Ps, 2 * MODEL.Ps):
            with pytest.raises(SupportError) as per_point:
                q_pdf_miso(sc.at(power=points[0]), q)
            with pytest.raises(SupportError, match=re.escape(str(per_point.value))):
                sc.curve("power", points, q, density=True)
        # the CDF saturates there, as at each point
        np.testing.assert_array_equal(sc.curve("power", points, 2 * MODEL.Ps), 1.0)
        np.testing.assert_array_equal(sc.curve("power", points, -1e-3), 0.0)


def test_curve_rejects_other_variables_and_arrays_of_q():
    with pytest.raises(DomainError):
        distinct_scenario(2).curve("speed", [1.0, 2.0], MODEL.Ps / 10)
    # an array of q the length of the sweep would pair each q with one point
    with pytest.raises(DomainError):
        distinct_scenario(2).curve("power", [1.0, 2.0], np.array([1e-3, 2e-3]))


# ---------------------------------------------- one law per moment curve

def _moments_per_point(scenario, var, points, n):
    return np.array([q_moment_miso(scenario.at(**{var: x}), n) for x in points])


@pytest.mark.parametrize("L", [1, 2, 3])
def test_fig5_moments_equal_per_point(L):
    # equal rates: one law for the curve, rescaled to each point's mean rate,
    # integrates on the grid and with the density of a law built there
    sc = equal_split_scenario(L, FIG_D_GRID[0])
    for n in (1, 2):
        np.testing.assert_array_equal(sc.moments("distance", FIG_D_GRID, n),
                                      _moments_per_point(sc, "distance", FIG_D_GRID, n))


def test_distance_moments_with_distinct_apertures_equal_per_point():
    branches = (LinkBudget(0.5, 0.01, 2.4e9, 10.0, 1.0, FADING),
                LinkBudget(0.2, 0.02, 0.9e9, 6.0, 1.0, FADING))
    sc = MisoScenario(MODEL, branches)
    points = [3.0, 5.5, 8.0, 12.0]
    for n in (1, 2):
        np.testing.assert_array_equal(sc.moments("distance", points, n),
                                      _moments_per_point(sc, "distance", points, n))


@pytest.mark.parametrize("L", [2, 3])
def test_fig6_moments_near_per_point(L):
    # distinct rates: the rescaled mixture rounds apart from a law built at
    # each point, by at most 1.4e-13 here
    sc = beacon_field_scenario(L)
    assert sc.regime == DISTINCT_RATES
    for n in (1, 2):
        np.testing.assert_allclose(sc.moments("power", FIG_P_GRID, n),
                                   _moments_per_point(sc, "power", FIG_P_GRID, n),
                                   rtol=1e-12, atol=0.0)


# ----------------------------------------------- sweep rates as arrays

def _sweep_scenarios():
    apertures = MisoScenario(MODEL, (
        LinkBudget(0.5, 0.01, 2.4e9, 10.0, 1.0, FADING),
        LinkBudget(0.2, 0.02, 0.9e9, 6.0, 1.0, FADING),
        LinkBudget(0.3, 0.05, 5.8e9, 3.0, 0.5, Pearson3Params(2.0, 1.5, 0.0)),
    ))
    return ([beacon_field_scenario(L) for L in (1, 2, 3)]
            + [equal_split_scenario(L, 7.0) for L in (1, 2, 3)] + [apertures])


@pytest.mark.parametrize("sc", _sweep_scenarios(),
                         ids=["beacons1", "beacons2", "beacons3",
                              "split1", "split2", "split3", "apertures"])
def test_sweep_rates_equal_the_law_at_each_point(sc):
    # the mean rate that a sweep forms from arrays at each point is == to
    # that of the law built there
    rng = np.random.default_rng(16)
    sweeps = {
        "power": np.concatenate([FIG_P_GRID, rng.uniform(1e-3, 50.0, 300), [1e-9, 1e6]]),
        "distance": np.concatenate([FIG_D_GRID, rng.uniform(0.5, 200.0, 300), [0.5, 1e4]]),
    }
    for var, points in sweeps.items():
        rates = sc._per_law(var, points, lambda law, rates: rates)
        assert rates.tolist() == [sc.at(**{var: x})._law.mean_rate for x in points]


@pytest.mark.parametrize("L", [5, 7, 9, 11, 13])
def test_equal_split_curve_of_more_branches_equals_per_point(L):
    # the L equal branch rates of a point add in branch order, in the sweep
    # as in the reduced law built there, where math.fsum may round apart
    sc = equal_split_scenario(L, 4.0)
    points = np.linspace(4.0, 20.0, 66)
    for density in (False, True):
        np.testing.assert_array_equal(sc.curve("distance", points, MODEL.Ps / 10, density),
                                      _per_point(sc, "distance", points, MODEL.Ps / 10, density))


def test_one_point_sweep_of_many_distinct_branches_equals_per_point():
    # the rates of 8 or more branches at one point add in branch order: a
    # numpy sum over the branch axis would add them pairwise, and round apart
    # from the mean rate of the law built there at some of these points
    rng = np.random.default_rng(25)
    pairwise = 0
    for L in (8, 9, 12):
        sc = MisoScenario(MODEL, tuple(
            LinkBudget(rng.uniform(0.1, 1.0), rng.uniform(0.005, 0.05),
                       rng.uniform(0.9e9, 5.8e9), 10.0, 1.0, FADING) for _ in range(L)))
        for d in rng.uniform(2.0, 30.0, 6).tolist():
            at = sc.at(distance=d)
            rates = [br.bhat(MODEL) for br in at.branches]
            pairwise += np.sum(np.array(rates)[:, None], axis=0)[0] != sum(rates)
            for density, value in ((False, q_cdf_miso), (True, q_pdf_miso)):
                assert sc.curve("distance", [d], MODEL.Ps / 10, density).tolist() == [
                    value(at, MODEL.Ps / 10)]
    assert pairwise > 0


def test_sweep_of_non_positive_points_raises():
    sc = beacon_field_scenario(3)
    q = sc.model.Ps / 10
    for var, field in (("power", "p"), ("distance", "d")):
        for points in ([1.0, 0.0], [-2.0], [1.0, 2.0, -0.0], np.array([3.0, -1e-300])):
            with pytest.raises(DomainError, match=f"LinkBudget field {field} must be positive"):
                sc.curve(var, points, q)
            with pytest.raises(DomainError, match=f"LinkBudget field {field} must be positive"):
                sc.moments(var, points, 1)
    # a positive total power that the split across L = 3 rounds to 0
    with pytest.raises(DomainError, match="LinkBudget field p must be positive"):
        sc.curve("power", [1.0, 5e-324], q)
    # a NaN point, in a sweep as at one point
    for var, field in (("power", "p"), ("distance", "d")):
        for points in ([1.0, math.nan], [math.nan]):
            with pytest.raises(DomainError, match=f"LinkBudget field {field} must be positive"):
                sc.curve(var, points, q)
            with pytest.raises(DomainError, match=f"LinkBudget field {field} must be positive"):
                sc.moments(var, points, 1)
        with pytest.raises(DomainError, match=f"LinkBudget field {field} must be positive"):
            sc.at(**{var: math.nan})
    # a received power that underflows, in a sweep as at one point
    with pytest.raises(DomainError, match="underflows"):
        sc.curve("distance", [5.0, math.inf], q)
    with pytest.raises(DomainError, match="underflows"):
        sc.at(distance=math.inf)


def test_sweep_of_no_points_is_empty():
    for sc in _sweep_scenarios():
        for var in ("power", "distance"):
            assert sc._per_law(var, [], lambda law, rates: rates).shape == (0,)
            assert sc.curve(var, np.empty(0), MODEL.Ps / 10).shape == (0,)
            assert sc.moments(var, [], 2).shape == (0,)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_sweep_builds_link_budgets_at_its_first_point_only(L, monkeypatch):
    # one law serves the sweep: its L branches are built once, not per point
    scenarios = {"power": beacon_field_scenario(L), "distance": equal_split_scenario(L, 5.0)}
    builds = []
    build = LinkBudget.__post_init__

    def counted(link):
        builds.append(link)
        build(link)

    monkeypatch.setattr(LinkBudget, "__post_init__", counted)
    for var, points in (("power", np.linspace(0.1, 10.0, 1000)),
                        ("distance", np.linspace(2.0, 40.0, 1000))):
        builds.clear()
        scenarios[var].curve(var, points, MODEL.Ps / 10)
        assert 0 < len(builds) <= L


def test_moments_reject_other_variables_and_orders():
    with pytest.raises(DomainError):
        distinct_scenario(2).moments("speed", [1.0, 2.0], 1)
    for n in (0, -1):
        with pytest.raises(DomainError):
            distinct_scenario(2).moments("power", [1.0, 2.0], n)
