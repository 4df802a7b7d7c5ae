"""Harvested-power layer tests: transforms, closed forms, MC agreement."""

import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma

from p3family.cli import beacon_field_scenario, equal_split_scenario
from p3family.errors import DomainError, SupportError
from p3family.logitp3 import ltp3_cdf, ltp3_pdf
from p3family.mc import empirical_cdf, empirical_moment, sample_harvested
from p3family.pearson3 import Pearson3Params
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
)

from test_sums import _moschopoulos

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


def test_model_validation():
    with pytest.raises(DomainError):
        EHModel(-1.0, 0.014, 0.024)
    with pytest.raises(DomainError):
        LinkBudget(0.5, 0.01, 2.4e9, -1.0, 2.0, FADING)
    with pytest.raises(DomainError):
        link(fading=Pearson3Params(3.0, -1.0, 0.0))
    with pytest.raises(DomainError):
        link(fading=Pearson3Params(3.0, 1.0, 0.5))
    assert MODEL.c == pytest.approx(0.024 * math.exp(-2.1), rel=1e-13)


def test_path_loss():
    # direct formula evaluation at the reference antenna parameters
    assert path_loss(LINK) == pytest.approx(3.1991427398e-3, rel=1e-9)
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
    # b_hat near 375 (a = 10) and 1500 (a = 40): the m < 0 moment series
    # meets rates with s T near 784, beyond double range for e^(s T) alone
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
    # mixed coincidence: two branches equal, one distinct
    with pytest.raises(DomainError):
        MisoScenario(MODEL, (link(10.0, 1.0), link(10.0, 1.0), link(8.0, 1.0)))
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
