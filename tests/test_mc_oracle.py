"""Monte Carlo / convolution oracle tests plus the oracle-coverage manifest."""

import math
import re
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
from p3family.pearson3 import Pearson3Params, p3_pdf
from p3family.sums import SumSpec, sum_pdf

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
    "gamma_integral_lower_scaled": "test_specfun.py::test_scaled_gamma_integrals_vs_mpmath",
    "gamma_integral_upper_scaled": "test_specfun.py::test_scaled_gamma_integrals_vs_mpmath",
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
