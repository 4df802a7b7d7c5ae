"""Monte Carlo / convolution oracle tests plus the oracle-coverage manifest."""

import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import p3family.logitp3
import p3family.logp3
import p3family.pearson3
import p3family.specfun
import p3family.sums
import p3family.wpt
from p3family.errors import DomainError
from p3family.mc import (
    GriddedPdf,
    OracleReport,
    convolve_p3_components,
    convolve_pdfs_numeric,
    empirical_cdf,
    empirical_moment,
    ks_distance,
    ks_threshold,
    sample_channel_gain,
    sample_harvested,
    sample_pdf_on_grid,
    sample_sum,
)
from p3family.logitp3 import ltp3_cdf
from p3family.logp3 import lp3_cdf
from p3family.pearson3 import Pearson3Params, p3_cdf, p3_pdf, p3_sample
from p3family.presets import beacon_field_scenario
from p3family.sums import SumSpec, spec_to_json, sum_cdf, sum_pdf

P = Pearson3Params


def test_sampler_determinism():
    f = P(3.0, 1.0, 0.0)
    assert np.array_equal(
        sample_channel_gain(f, 5, 1000), sample_channel_gain(f, 5, 1000)
    )
    spec = SumSpec((P(1.0, 1.0, 0.0), P(1.0, 2.0, 0.0)))
    assert np.array_equal(sample_sum(spec, 5, 1000), sample_sum(spec, 5, 1000))
    with pytest.raises(DomainError):
        sample_channel_gain(P(3.0, -1.0, 0.0), 5, 10)
    with pytest.raises(DomainError):
        sample_channel_gain(P(3.0, 1.0, 0.5), 5, 10)


def test_sample_harvested_determinism_and_range():
    from p3family.wpt import EHModel, LinkBudget, MisoScenario

    model = EHModel(150.0, 0.014, 0.024)
    sc = MisoScenario(
        model,
        (LinkBudget(0.5, 0.01, 2.4e9, 10.0, 2.0, P(3.0, 1.0, 0.0)),),
    )
    s1 = sample_harvested(sc, 9, 10_000)
    s2 = sample_harvested(sc, 9, 10_000)
    assert np.array_equal(s1, s2)
    assert np.all(s1 > 0.0) and np.all(s1 < model.Ps)


# Draws pinned at the commit before the samplers drew into one reused
# buffer: the first three by repr, and math.fsum of the first 10^4.
STREAM_PINS = {
    "p3_sample b>0": (
        lambda n: p3_sample(P(2.5, 1.5, 0.3), 11, n),
        ("1.778258518848665", "3.3104067854539565", "1.4713313557815926"),
        "19750.333768297056",
    ),
    "p3_sample b<0": (
        lambda n: p3_sample(P(1.7, -0.8, -0.4), 12, n),
        ("-2.09837672170742", "-3.4373197147963768", "-5.733696958072015"),
        "-25429.30950753162",
    ),
    "sample_sum b<0": (
        lambda n: sample_sum(SumSpec((P(2.0, -1.2, 0.0), P(1.0, -2.6, -0.5),
                                      P(1.0, -5.0, 1.0))), 13, n),
        ("-4.193330256497391", "-3.2676898932312506", "-3.4687160533163466"),
        "-17633.69297676296",
    ),
    "sample_harvested L3": (
        lambda n: sample_harvested(beacon_field_scenario(3), 14, n),
        ("0.015236014384618284", "0.011567672661940672", "0.009690435392908177"),
        "157.52647461360792",
    ),
}


@pytest.mark.parametrize("name", STREAM_PINS)
def test_sampler_streams_are_pinned(name):
    draw, first, total = STREAM_PINS[name]
    samples = draw(10_000)
    assert samples.dtype == np.float64 and samples.shape == (10_000,)
    assert tuple(map(repr, samples[:3].tolist())) == first
    assert repr(math.fsum(samples.tolist())) == total


def test_empirical_statistics():
    samples = np.array([1.0, 2.0, 3.0])
    assert empirical_cdf(samples, 2.0) == pytest.approx(2.0 / 3.0)
    assert empirical_cdf(samples, 0.0) == 0.0
    assert empirical_cdf(samples, 5.0) == 1.0
    mean, se = empirical_moment(samples, 1)
    assert mean == pytest.approx(2.0)
    assert se == pytest.approx(1.0 / math.sqrt(3.0))
    with pytest.raises(DomainError):
        empirical_cdf(np.array([]), 0.0)
    # an array x, of the samples' length or another, gives the value at
    # each point, == to the one-point value; a NaN point gives 0
    with_nan = np.array([3.0, np.nan, 1.0, 2.0, 2.0, -np.inf])
    xs = np.array([[-np.inf, 0.0, 1.0, 1.5], [2.0, 2.5, 3.0, np.inf], [np.nan, 5.0, -0.0, 2.0]])
    for data in (samples, with_nan, np.linspace(-1.0, 3.0, 1001)):
        for x in (xs, xs[0], xs[1, :3], [0.0, 2.0], np.empty(0)):
            got = empirical_cdf(data, x)
            assert got.shape == np.shape(x)
            assert got.tolist() == np.vectorize(lambda v: empirical_cdf(data, v), otypes=[float])(x).tolist()
    assert empirical_cdf(samples, np.nan) == 0.0
    assert empirical_cdf(samples, np.array([np.nan, 2.0])).tolist() == [0.0, 2.0 / 3.0]
    with pytest.raises(DomainError):
        empirical_moment(np.array([]), 1)


def test_ks_self_distance():
    # KS distance of a sample against its own empirical quantiles is <= 1/n
    n = 1000
    samples = np.sort(np.random.default_rng(1).exponential(size=n))
    ecdf = lambda x: np.searchsorted(samples, x, side="right") / n
    assert ks_distance(samples, ecdf) <= 1.0 / n + 1e-12
    assert ks_threshold(10_000) == pytest.approx(0.0163)
    # a CDF that is not vectorized returns the wrong shape: a library error
    with pytest.raises(DomainError):
        ks_distance(samples, lambda x: float(np.mean(samples <= x[0])))


def _full_ks(samples, cdf_fn):
    # the staircase at every draw: the reference for ks_distance
    x = np.sort(samples)
    n = x.size
    f = np.asarray(cdf_fn(x), dtype=float)
    i = np.arange(n)
    return float(max(np.max((i + 1.0) / n - f), np.max(f - i / n)))


def _counting(cdf_fn, points):
    def counted(x):
        points.append(x.size)
        return cdf_fn(x)

    return counted


_P3 = P(2.5, 1.3, 0.4)
_PF_SUM = SumSpec((P(1.0, 1.0), P(2.0, 1.7), P(3.0, 3.1)))
# the series-only sum of the tier-1 KS test
_SERIES_SUM = SumSpec((P(1.5, 1.0, 0.3), P(2.5, 1.3), P(0.7, 1.6)))
_EDGE_SUM = SumSpec((P(2.0, 1.0), P(2.0, 1.1), P(2.0, 1.2)))
_KS_CASES = {
    "p3_b_pos": (lambda: p3_sample(_P3, 1, 100_000), functools.partial(p3_cdf, _P3)),
    "p3_b_neg": (lambda: p3_sample(P(1.7, -0.8, 1.0), 2, 100_000),
                 functools.partial(p3_cdf, P(1.7, -0.8, 1.0))),
    "ltp3": (lambda: 1.0 / (1.0 + np.exp(-p3_sample(P(3.0, -1.5, 0.0), 3, 100_000))),
             functools.partial(ltp3_cdf, P(3.0, -1.5, 0.0))),
    "lp3": (lambda: np.exp(p3_sample(P(2.0, 1.5, -0.5), 4, 100_000)),
            functools.partial(lp3_cdf, P(2.0, 1.5, -0.5))),
    "partial_fractions": (lambda: sample_sum(_PF_SUM, 5, 100_000),
                          functools.partial(sum_cdf, _PF_SUM)),
    "series_only": (lambda: sample_sum(_SERIES_SUM, 6, 50_000),
                    functools.partial(sum_cdf, _SERIES_SUM)),
    "edge_to_series": (lambda: sample_sum(_EDGE_SUM, 5, 100_000),
                       functools.partial(sum_cdf, _EDGE_SUM)),
    "ties": (lambda: np.round(p3_sample(_P3, 7, 20_000), 2), functools.partial(p3_cdf, _P3)),
    **{f"n={n}": (lambda n=n: p3_sample(_P3, 8, n), functools.partial(p3_cdf, _P3))
       for n in (1, 2, 500, 1025)},
}


@pytest.mark.parametrize("case", list(_KS_CASES))
def test_ks_distance_equals_the_whole_staircase(case, monkeypatch):
    draw, cdf_fn = _KS_CASES[case]
    samples = draw()
    edge_points = []
    if case == "edge_to_series":
        assert not _EDGE_SUM._series_only
        series_sum = p3family.sums._series_sum
        monkeypatch.setattr(p3family.sums, "_series_sum", lambda spec, g, *rest: (
            edge_points.append(g.size) or series_sum(spec, g, *rest)))
    ks = ks_distance(samples, cdf_fn)
    if case == "edge_to_series":
        # the sample minimum is evaluated, and the mixture sends it to the series
        assert edge_points
    assert ks == _full_ks(samples, cdf_fn)


def test_ks_distance_evaluates_every_draw_of_a_cdf_it_cannot_trust():
    samples = p3_sample(_P3, 9, 100_000)
    lo, hi = np.quantile(samples, [0.4, 0.6])
    spike = np.sort(samples)[1500]  # between two of the first evaluated draws

    def dipping(x):
        # the dip shows among the first evaluated draws; the spike sets the
        # distance, and only the evaluation of every draw finds it
        return p3_cdf(_P3, x) - 0.2 * ((x > lo) & (x < hi)) - 0.5 * (x == spike)

    def nan_above(x):
        return np.where(x > hi, np.nan, p3_cdf(_P3, x))

    points = []
    assert ks_distance(samples, _counting(dipping, points)) == _full_ks(samples, dipping)
    assert sum(points) == samples.size
    points.clear()
    assert math.isnan(ks_distance(samples, _counting(nan_above, points)))
    assert math.isnan(_full_ks(samples, nan_above))
    assert sum(points) == samples.size


def test_ks_distance_evaluates_few_draws():
    # a cost guard without a timer, on the draws of the tier-1 KS test
    samples = sample_sum(_SERIES_SUM, 22, 1_000_000)
    points = []
    ks = ks_distance(samples, _counting(functools.partial(sum_cdf, _SERIES_SUM), points))
    assert ks < ks_threshold(samples.size)
    assert sum(points) <= 0.05 * samples.size


def test_oracle_report():
    rep = OracleReport.build("mean", 1.0, 1.001, 0.01, 1000, 7, 3.0)
    assert rep.passed
    bad = OracleReport.build("mean", 1.0, 1.5, 0.01, 1000, 7, 3.0)
    assert not bad.passed
    doc = rep.to_json()
    assert '"statistic": "mean"' in doc and '"passed": true' in doc


def test_gridded_pdf_basics():
    g = sample_pdf_on_grid(lambda x: np.exp(-x), 0.0, 40.0, 1e-3)
    assert g.integral() == pytest.approx(1.0, abs=1e-6)
    assert g.at(1.0) == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_convolution_exponentials():
    # exp(1) * exp(2) density at x = 1 equals 2(e^-1 - e^-2)
    dx = 2e-4
    g1 = sample_pdf_on_grid(lambda x: np.exp(-x), 0.0, 30.0, dx)
    g2 = sample_pdf_on_grid(lambda x: 2.0 * np.exp(-2.0 * x), 0.0, 15.0, dx)
    conv = convolve_pdfs_numeric([g1, g2])
    assert float(conv.at(1.0)) == pytest.approx(0.46508831586965926, abs=1e-6)


def test_convolution_gamma_closure():
    # gamma(1,b) * gamma(2,b) = gamma(3,b)
    spec = SumSpec((P(1.0, 1.5, 0.0), P(2.0, 1.5, 0.0)))
    conv = convolve_p3_components(spec)
    target = P(3.0, 1.5, 0.0)
    for x in (0.5, 1.0, 2.0, 4.0):
        assert float(conv.at(x)) == pytest.approx(p3_pdf(target, x), abs=1e-6)


@pytest.mark.parametrize(
    "spec",
    [
        SumSpec((P(1.0, 1.0, 0.0), P(1.0, 2.0, 0.0), P(2.0, 4.0, 0.5))),
        SumSpec((P(2.0, -1.2, 0.0), P(1.0, -2.6, -0.5), P(1.0, -5.0, 1.0))),
    ],
)
def test_threefold_convolution_vs_mixture_density(spec):
    conv = convolve_p3_components(spec)
    sign = math.copysign(1.0, spec.terms[0].b)
    # probe away from the support edge where the smoothing bias lives
    probes = spec.sm + sign * np.linspace(0.05, 8.0, 120)
    gap = np.max(np.abs(conv.at(probes) - sum_pdf(spec, probes)))
    assert gap < 1e-6


def test_convolution_equals_fftconvolve():
    # the midpoint convolution is scipy.signal's fftconvolve scaled by dx
    # and clipped at 0, bit for bit, at sizes 1, 2, a prime and 2e5
    from scipy.signal import fftconvolve

    dx = 1e-3
    sizes = (1, 2, 1009, 200_000)
    for n1 in sizes:
        for n2 in sizes:
            rng = np.random.default_rng(n1 + 7 * n2)
            a, b = rng.standard_normal(n1), rng.random(n2)
            conv = convolve_pdfs_numeric([GriddedPdf(0.25, dx, a), GriddedPdf(-1.0, dx, b)])
            assert conv.x0 == -0.75
            expected = np.maximum(fftconvolve(a, b) * dx, 0.0)
            assert np.array_equal(conv.values, expected), (n1, n2)


@pytest.mark.parametrize("term", [P(2.0, -1.2, 0.0), P(1.0, -2.6, -0.5), P(1.0, -5.0, 1.0),
                                  P(2.0, 4.0, 0.5), P(0.3, 40.0, 0.0)])
def test_convolution_cells_are_gamma_masses(term):
    # each component's cells hold the masses of scipy.stats' gamma CDF, the
    # grid reaching its 1 - mass_tol quantile; mirrored for b < 0
    from scipy import stats

    dx, mass_tol = 2e-4, 1e-13
    grid = convolve_p3_components(SumSpec((term,)), dx, mass_tol)
    n = math.ceil(float(stats.gamma.ppf(1.0 - mass_tol, term.a) / abs(term.b)) / dx)
    masses = np.diff(stats.gamma.cdf(np.arange(n + 1) * dx * abs(term.b), term.a))
    if term.b > 0:
        assert grid.x0 == term.m + 0.5 * dx
        assert np.array_equal(grid.values, masses / dx)
    else:
        assert grid.x0 == term.m - (n - 0.5) * dx
        assert np.array_equal(grid.values, masses[::-1] / dx)


def test_oracles_import_neither_scipy_stats_nor_signal(tmp_path):
    # a fresh interpreter runs the convolution oracle and one comparison of
    # each op; scipy.stats and scipy.signal take about 90 MB between them
    spec = tmp_path / "spec.json"
    spec.write_text(spec_to_json(SumSpec((P(1.0, 1.0, 0.0), P(2.0, 3.0, 0.5)))))
    script = f"""
import contextlib, io, sys
from p3family import cli
from p3family.mc import convolve_p3_components
from p3family.pearson3 import Pearson3Params as P
from p3family.sums import SumSpec

convolve_p3_components(SumSpec((P(2.0, -1.2, 0.0), P(1.0, -2.6, -0.5))))
ops = [["--op", "dist.cdf", "--family", f] for f in ("p3", "logp3", "logitp3")] + [
    ["--op", "sums.cdf", "--spec", {str(spec)!r}],
    ["--op", "sums.mean", "--spec", {str(spec)!r}],
    ["--op", "wpt.cdf", "--preset", "fig3", "--L", "2", "--qt-frac", "0.1"],
    ["--op", "wpt.mean", "--preset", "fig4", "--L", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["compare", *op, "--samples", "2000", "--seed", "5"]) for op in ops]
print(codes, sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.signal"))))
"""
    src = str(Path(p3family.pearson3.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path}, timeout=120, check=False)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == f"{[0] * 7} []"


def test_convolution_incompatible_grids():
    g1 = GriddedPdf(0.0, 1e-3, np.ones(10))
    g2 = GriddedPdf(0.0, 2e-3, np.ones(10))
    with pytest.raises(DomainError):
        convolve_pdfs_numeric([g1, g2])
    with pytest.raises(DomainError):
        convolve_pdfs_numeric([])


# ---------------------------------------------------------------------------
# Oracle-coverage manifest: every analytic operation exported by the five
# distribution modules and by `specfun` must be wired to at least one oracle
# comparison in this suite. Types, constants, serialization helpers, and
# support descriptors are structural and carry no numbers to cross-check.
# ---------------------------------------------------------------------------

STRUCTURAL = {
    "Pearson3Params",
    "lp3_support",
    "ltp3_support",
    "SumSpec",
    "EQUAL_RATES",
    "DISTINCT_RATES",
    "spec_to_json",
    "spec_from_json",
    "SPEED_OF_LIGHT",
    "EHModel",
    "LinkBudget",
    "MisoScenario",
    "scenario_to_json",
    "scenario_from_json",
}

ORACLE_MANIFEST = {
    # pearson3
    "p3_pdf": "test_pearson3.py::test_pdf_cdf_match_scipy",
    "p3_cdf": "test_pearson3.py::test_pdf_cdf_match_scipy",
    "p3_moment": "test_pearson3.py::test_moments_vs_quadrature",
    "p3_char_fn": "test_pearson3.py::test_char_fn_vs_numeric_transform",
    "p3_scale": "test_pearson3.py::test_sampling_negative_support_and_scaling_coherence",
    "p3_sample": "test_pearson3.py::test_sampling_ks_and_determinism",
    # logp3
    "lp3_pdf": "test_logp3.py::test_change_of_variables_identity",
    "lp3_cdf": "test_logp3.py::test_change_of_variables_identity",
    "lp3_moment": "test_logp3.py::test_moment_vs_mc",
    "lp3_char_fn_series": "test_logp3.py::test_char_fn_series",
    # logitp3
    "ltp3_cdf": "test_logitp3.py::test_change_of_variables_identity",
    "ltp3_pdf": "test_logitp3.py::test_change_of_variables_identity",
    "ltp3_moment": "test_logitp3.py::test_moment_vs_quadrature",
    "ltp3_mean_closed": "test_logitp3.py::test_closed_forms_vs_mpmath_lerch",
    "ltp3_second_moment_closed": "test_logitp3.py::test_second_moment_closed_vs_mc",
    "logit_gamma_cdf": "test_logitp3.py::test_logit_gamma_delegations",
    "logit_gamma_pdf": "test_logitp3.py::test_logit_gamma_delegations",
    "logit_gamma_moment": "test_logitp3.py::test_logit_gamma_delegations",
    # sums
    "xi0_closed": "test_sums.py::test_hypoexp_weights",
    "xi0_recursive": "test_sums.py::test_weight_sum_and_recursion_vs_closed_randomized",
    "xi_shifted": "test_sums.py::test_xi_shifted_collapse_and_reconstruction",
    "sum_pdf": "test_mc_oracle.py::test_threefold_convolution_vs_mixture_density",
    "sum_cdf": "test_sums.py::test_sum_cdf_vs_mc",
    "sum_moment": "test_sums.py::test_sum_moment_linearity_and_mc",
    "logsum_pdf": "test_sums.py::test_logsum",
    "logsum_cdf": "test_sums.py::test_logsum",
    "logsum_moment": "test_sums.py::test_logsum",
    "logitsum_pdf": "test_sums.py::test_logitsum",
    "logitsum_cdf": "test_sums.py::test_logitsum",
    "logitsum_moment": "test_sums.py::test_logitsum",
    # wpt
    "path_loss": "test_wpt.py::test_path_loss",
    "harvested_power_siso": "test_wpt.py::test_harvested_power_map",
    "harvested_power_miso": "test_wpt.py::test_harvested_power_miso",
    "q_cdf_siso": "test_wpt.py::test_siso_vs_mc",
    "q_pdf_siso": "test_wpt.py::test_pdf_normalization_and_cdf_derivative",
    "q_moment_siso": "test_wpt.py::test_siso_moments_vs_quadrature",
    "q_mean_siso": "test_wpt.py::test_siso_vs_mc",
    "q_cdf_miso": "test_wpt.py::test_miso_vs_mc",
    "q_pdf_miso": "test_wpt.py::test_miso_pdf_normalization",
    "q_moment_miso": "test_wpt.py::test_miso_vs_mc",
    "q_mean_miso": "test_wpt.py::test_miso_vs_mc",
    "outage_probability": "test_wpt.py::test_outage_probability_dispatch",
    # specfun
    "gamma_integral_lower": "test_specfun.py::test_gamma_integral_lower_vs_quadrature",
    "gamma_integral_upper": "test_specfun.py::test_gamma_integral_split_identity",
    "lerch_phi": "test_specfun.py::test_lerch_vs_mpmath_grid",
}


def test_every_analytic_op_has_an_oracle():
    modules = (
        p3family.pearson3,
        p3family.logp3,
        p3family.logitp3,
        p3family.sums,
        p3family.wpt,
        p3family.specfun,
    )
    required = set()
    for mod in modules:
        required |= set(mod.__all__) - STRUCTURAL
    assert set(ORACLE_MANIFEST) == required


def test_manifest_targets_exist():
    here = Path(__file__).parent
    for op, target in ORACLE_MANIFEST.items():
        fname, test_name = target.split("::")
        source = (here / fname).read_text()
        assert re.search(rf"^def {test_name}\(", source, re.M), (op, target)
