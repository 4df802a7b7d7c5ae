"""Acceptance gate: the seven primary criteria, at their stated tolerances.

Each test prints one summary line so the gate's pass conditions are
visible in verbose runs. Monte Carlo draws are seeded, so every check is
deterministic.
"""

import functools
import math
import time

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from p3family.logitp3 import (
    ltp3_cdf,
    ltp3_mean_closed,
    ltp3_pdf,
    ltp3_second_moment_closed,
    ltp3_support,
)
from p3family.logp3 import lp3_moment, lp3_pdf
from p3family.mc import (
    convolve_p3_components,
    empirical_cdf,
    empirical_moment,
    ks_distance,
    sample_harvested,
)
from p3family.pearson3 import Pearson3Params, p3_cdf, p3_pdf, p3_sample
from p3family.presets import (
    FIG_D_GRID,
    FIG_MODEL,
    FIG_P_GRID,
    beacon_field_scenario,
    equal_split_scenario,
)
from p3family.sums import (
    SumSpec,
    logitsum_pdf,
    logsum_pdf,
    sum_cdf,
    sum_pdf,
    xi0_closed,
    xi0_recursive,
)
from p3family.wpt import (
    EHModel,
    LinkBudget,
    MisoScenario,
    q_cdf_miso,
    q_cdf_siso,
    q_mean_siso,
    q_moment_siso,
    q_pdf_miso,
    q_pdf_siso,
)

P = Pearson3Params


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_criterion_1_figure_curve_reproduction():
    start = time.perf_counter()
    n = 1_000_000
    for seed, (a, b) in enumerate([(3.0, 1.5), (3.0, -1.5), (2.0, 1.5), (2.0, -1.5)]):
        params = P(a, b, 0.0)
        z = _logistic(p3_sample(params, 1000 + seed, n))
        ks = ks_distance(z, functools.partial(ltp3_cdf, params))
        assert ks < 0.005, (a, b, ks)
        # 100-bin histogram against analytic bin masses, 3 SE per bin
        lo, hi = ltp3_support(params)
        edges = np.linspace(lo, hi, 101)
        counts, _ = np.histogram(z, bins=edges)
        cdf_vals = np.concatenate(([0.0], ltp3_cdf(params, edges[1:-1]), [1.0]))
        masses = np.diff(cdf_vals)
        expected = n * masses
        se = np.sqrt(n * masses * (1.0 - masses))
        bad = np.abs(counts - expected) > 3.0 * np.maximum(se, 1.0)
        assert not bad.any(), (a, b, np.nonzero(bad))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 1 pass: KS < 0.005 and 100-bin histograms within "
          f"3 SE for 4 parameter pairs in {elapsed:.1f}s")


def test_criterion_2_closed_form_vs_series_moments():
    # both closed forms are `ltp3_moment` integrals; the reference is the
    # paper's Lerch formulas with Phi from mpmath at 30 digits, formed
    # outside the timed part
    grid = [P(a, b, m) for a in (2.0, 3.0) for b in (0.5, 1.5, 3.0) for m in (0.0, 0.5, 2.0)]
    reference = []
    with mp.workdps(30):
        for p in grid:
            z = -mp.exp(-p.m)
            # at z = -1, b = 0.5 mpmath returns Phi with an imaginary part of
            # rounding size
            phi = [mp.re(mp.lerchphi(z, s, p.b)) for s in (p.a, p.a - 1)]
            reference.append((float(p.b ** p.a * phi[0]),
                              float(p.b ** p.a * (phi[1] - (p.b - 1) * phi[0]))))
    start = time.perf_counter()
    worst = 0.0
    for params, (mean, second) in zip(grid, reference):
        worst = max(
            worst,
            abs(ltp3_mean_closed(params) - mean),
            abs(ltp3_second_moment_closed(params) - second),
        )
    assert worst < 1e-9
    assert abs(ltp3_mean_closed(P(1.0, 1.0, 0.0)) - math.log(2.0)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 2 pass: closed forms vs 30-digit Lerch within {worst:.2e} "
          f"over the 18-point grid, ln 2 reproduced, in {elapsed:.1f}s")


def _random_spec(rng, L):
    sign = 1.0 if rng.random() < 0.5 else -1.0
    # geometric rate separation keeps the exact-weight mixture well away
    # from the near-coincident cancellation regime
    return SumSpec(
        tuple(
            P(
                float(rng.integers(1, 5)),
                sign * (1.5 + rng.random()) * 2.2 ** i,
                float(rng.normal()),
            )
            for i in range(L)
        )
    )


def test_criterion_3_sum_machinery():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    conv_checked = 0
    for trial in range(50):
        L = int(rng.integers(2, 6))
        spec = _random_spec(rng, L)
        total = math.fsum(
            xi0_recursive(spec, i, k)
            for i in range(1, spec.L + 1)
            for k in range(1, spec.shape(i) + 1)
        )
        assert abs(total - 1.0) < 1e-10, (trial, total)
        for i in range(1, spec.L + 1):
            for k in range(1, spec.shape(i) + 1):
                r = xi0_recursive(spec, i, k)
                c = xi0_closed(spec, i, k)
                assert abs(r - c) <= 1e-10 * max(abs(r), abs(c)), (trial, i, k)
        if spec.L in (2, 3) and conv_checked < 12:
            conv_checked += 1
            conv = convolve_p3_components(spec)
            sign = math.copysign(1.0, spec.terms[0].b)
            probes = spec.sm + sign * np.linspace(0.05, 8.0, 200)
            sup = np.max(np.abs(conv.at(probes) - sum_pdf(spec, probes)))
            assert sup < 1e-6, (trial, sup)
    assert conv_checked >= 10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 3 pass: 50 randomized specs (weights sum to 1, "
          f"recursion = closed form, {conv_checked} convolution sup-norm "
          f"checks < 1e-6) in {elapsed:.1f}s")


def test_criterion_4_wpt_siso():
    start = time.perf_counter()
    model = EHModel(150.0, 0.014, 0.024)
    link = LinkBudget(0.5, 0.01, 2.4e9, 10.0, 2.0, P(3.0, 1.0, 0.0))
    scenario = MisoScenario(model, (link,))
    n = 1_000_000
    samples = sample_harvested(scenario, 2024, n)
    for qt in (model.Ps / 10, model.Ps / 20):
        analytic = q_cdf_siso(model, link, qt)
        emp = empirical_cdf(samples, qt)
        sigma = math.sqrt(max(analytic * (1.0 - analytic), 1.0 / n) / n)
        assert abs(analytic - emp) < 3.0 * sigma, (qt, analytic, emp)
    mean = q_mean_siso(model, link)
    emp_mean, _ = empirical_moment(samples, 1)
    assert abs(mean - emp_mean) < 0.01 * abs(emp_mean)
    gap = abs(q_moment_siso(model, link, 1) - mean)
    assert gap < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4 pass: SISO CDF within 3 sigma, mean within 1% of "
          f"1e6-trial MC, moment/mean gap {gap:.2e}, in {elapsed:.1f}s")


def test_criterion_5_wpt_miso_sweeps():
    start = time.perf_counter()
    n = 1_000_000
    qt = FIG_MODEL.Ps / 10
    checked = 0

    def check(scenario, seed):
        nonlocal checked
        analytic = q_cdf_miso(scenario, qt)
        samples = sample_harvested(scenario, seed, n)
        emp = empirical_cdf(samples, qt)
        sigma = math.sqrt(max(analytic * (1.0 - analytic), 1.0 / n) / n)
        assert abs(analytic - emp) < 3.0 * sigma, (seed, analytic, emp)
        checked += 1

    # multi-antenna preset: equal regime, outage vs distance
    for L in (2, 3):
        for j, d in enumerate(FIG_D_GRID):
            check(equal_split_scenario(L, d), 7000 + 100 * L + j)
    # beacon-field preset: distinct regime, outage vs total power
    for j, p in enumerate(FIG_P_GRID):
        check(beacon_field_scenario(3, p), 9000 + j)
    # pointwise ordering of the analytic curves on both sweeps
    for d in FIG_D_GRID:
        o = [q_cdf_miso(equal_split_scenario(L, d), qt) for L in (1, 2, 3)]
        assert o[2] <= o[1] <= o[0], (d, o)
    for p in FIG_P_GRID:
        o = [q_cdf_miso(beacon_field_scenario(L, p), qt) for L in (1, 2, 3)]
        assert o[2] <= o[1] <= o[0], (p, o)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 5 pass: {checked} swept MISO points within 3 sigma of "
          f"1e6-trial MC, outage ordering L3 <= L2 <= L1, in {elapsed:.1f}s")


def test_criterion_6_calculus_and_normalization():
    start = time.perf_counter()
    checks = []

    def register(name, pdf, cdf, lo, hi, probes):
        total, _ = quad(pdf, lo, hi, limit=400)
        assert abs(total - 1.0) < 1e-8, (name, total)
        span = (hi - lo) if math.isfinite(hi - lo) else 1.0
        # central difference: large enough to beat CDF roundoff, small
        # enough that the O(h^2) truncation stays below 1e-6 relative
        h = 1e-5 * span
        for x in probes:
            fd = (cdf(x + h) - cdf(x - h)) / (2.0 * h)
            assert abs(fd - pdf(x)) <= 1e-6 * abs(pdf(x)), (name, x)
        checks.append(name)

    p = P(3.0, 1.5, 0.0)
    register("p3", lambda x: p3_pdf(p, x), lambda x: p3_cdf(p, x),
             0.0, np.inf, (0.5, 2.0, 4.0))
    pl = P(1.0, -1.0, 0.0)
    register("logp3", lambda y: lp3_pdf(pl, y), None, 0.0, 1.0, ())
    from p3family.logp3 import lp3_cdf
    for y in (0.2, 0.6, 0.9):
        h = 1e-7
        fd = (lp3_cdf(pl, y + h) - lp3_cdf(pl, y - h)) / (2.0 * h)
        assert abs(fd - lp3_pdf(pl, y)) <= 1e-6 * lp3_pdf(pl, y)
    pz = P(2.0, 1.5, -0.5)
    lo, hi = ltp3_support(pz)
    register("logitp3", lambda z: ltp3_pdf(pz, z), lambda z: ltp3_cdf(pz, z),
             lo, hi, (lo + 0.2 * (hi - lo), lo + 0.7 * (hi - lo)))
    for name, spec in (
        ("sum_distinct_pos", SumSpec((P(1.0, 1.0, 0.0), P(2.0, 2.5, 0.5)))),
        ("sum_distinct_neg", SumSpec((P(2.0, -1.2, 0.0), P(1.0, -2.6, -0.5)))),
        ("sum_equal", SumSpec((P(1.0, 2.0, 0.0), P(2.0, 2.0, 0.5)))),
    ):
        slo, shi = spec.support()
        sign = math.copysign(1.0, spec.terms[0].b)
        register(
            name,
            lambda x, s=spec: sum_pdf(s, x),
            lambda x, s=spec: sum_cdf(s, x),
            min(spec.sm, spec.sm + sign * 60.0),
            max(spec.sm, spec.sm + sign * 60.0),
            (spec.sm + sign * 0.7, spec.sm + sign * 2.0),
        )
    hspec = SumSpec((P(1.0, 4.5, 0.0), P(1.0, 9.0, 0.1)))
    total, _ = quad(lambda y: logsum_pdf(hspec, y), math.exp(hspec.sm), np.inf,
                    limit=400)
    assert abs(total - 1.0) < 1e-8
    lo_z = 1.0 / (1.0 + math.exp(-hspec.sm))
    total, _ = quad(lambda z: logitsum_pdf(hspec, z), lo_z, 1.0, limit=400)
    assert abs(total - 1.0) < 1e-8
    checks += ["logsum", "logitsum"]

    model = EHModel(150.0, 0.014, 0.024)
    link = LinkBudget(0.5, 0.01, 2.4e9, 10.0, 2.0, P(3.0, 1.0, 0.0))
    register("wpt_siso",
             lambda q: q_pdf_siso(model, link, q),
             lambda q: q_cdf_siso(model, link, q),
             0.0, model.Ps, (model.Ps / 4, model.Ps / 2))
    for name, sc in (
        ("wpt_miso_equal", equal_split_scenario(3, 10.0)),
        ("wpt_miso_distinct", beacon_field_scenario(3)),
    ):
        register(name,
                 lambda q, s=sc: q_pdf_miso(s, q),
                 lambda q, s=sc: q_cdf_miso(s, q),
                 0.0, FIG_MODEL.Ps,
                 (FIG_MODEL.Ps / 4, FIG_MODEL.Ps / 2))
        assert q_cdf_miso(sc, 0.0) == 0.0
        assert q_cdf_miso(sc, FIG_MODEL.Ps) == 1.0
    assert q_cdf_siso(model, link, 0.0) == 0.0
    assert q_cdf_siso(model, link, model.Ps) == 1.0
    elapsed = time.perf_counter() - start
    print(f"criterion 6 pass: {len(checks)} densities normalized to 1e-8 "
          f"with CDF-derivative agreement to 1e-6, harvested CDF endpoints "
          f"exact, in {elapsed:.1f}s")


def test_criterion_7_log_member_mean_guard():
    # The n=1 moment formula e^m (b/(b-1))^a governs the mean of the log
    # member; the a/b + m shortcut does not, and the suite pins that down.
    p = P(1.0, 2.0, 0.0)
    samples = np.exp(p3_sample(p, 31, 1_000_000))
    emp, se = empirical_moment(samples, 1)
    formula = lp3_moment(p, 1)
    shortcut = p.a / p.b + p.m
    assert abs(formula - emp) < 3.0 * se
    assert abs(shortcut - emp) > 30.0 * se
    print(f"criterion 7 pass: log-member mean formula {formula:.6f} matches "
          f"MC {emp:.6f} (3 SE); the location shortcut {shortcut:.2f} is "
          f"rejected at 30 SE")
