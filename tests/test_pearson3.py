"""Base-distribution tests against scipy.stats.gamma and sampling oracles."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from p3family.errors import DomainError, SupportError
from p3family.logitp3 import ltp3_moment
from p3family.mc import ks_distance, ks_threshold
from p3family.pearson3 import (
    Pearson3Params,
    p3_cdf,
    p3_char_fn,
    p3_moment,
    p3_pdf,
    p3_sample,
    p3_scale,
)
from p3family.sums import SumSpec, sum_pdf

GRID = [
    Pearson3Params(1.0, 1.0, 0.0),
    Pearson3Params(3.0, 1.5, 0.0),
    Pearson3Params(2.0, 0.7, -1.0),
    Pearson3Params(3.0, -1.5, 0.0),
    Pearson3Params(1.0, -2.0, 2.5),
]


def test_params_validation():
    with pytest.raises(DomainError):
        Pearson3Params(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        Pearson3Params(1.0, 0.0, 0.0)
    p = Pearson3Params(2.0, -1.0, 3.0)
    assert p.support() == (-math.inf, 3.0)
    assert p.contains(2.0) and not p.contains(3.0)


@pytest.mark.parametrize("a, b, m", [
    (math.nan, 1.0, 0.0), (2.0, math.nan, 0.0), (2.0, 1.0, math.nan),
    (math.inf, 1.0, 0.0), (2.0, -math.inf, 0.0), (2.0, 1.0, math.inf),
])
def test_params_reject_non_finite_fields(a, b, m):
    # a NaN law was accepted: p3_cdf(P(nan, 1), 1) was nan and
    # p3_sample(P(2, nan), 1, 3) all nan
    with pytest.raises(DomainError):
        Pearson3Params(a, b, m)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("params, x", [
    # (b g)^(a-1) overflows where b g underflows to 0: it returned inf
    (Pearson3Params(1e-300, 1e-300, 0.0), 1e-300),
    (Pearson3Params(0.1, 1e300, 0.0), 1e-320),  # the density is about 1e317
])
def test_pdf_beyond_double_range_is_a_library_error(params, x):
    with pytest.raises(DomainError, match="beyond the double range"):
        p3_pdf(params, x)


def test_density_where_b_g_overflows_is_zero():
    # u = b g = inf makes the exponent inf - inf, NaN: e^(-u) wins, and the
    # density there is 0; it raised DomainError
    law = Pearson3Params(2.5, 1e300, 0.0)
    assert p3_pdf(law, 1e10) == 0.0
    np.testing.assert_array_equal(p3_pdf(law, np.array([1e10, 1e-300])),
                                  [0.0, p3_pdf(law, 1e-300)])
    assert ltp3_moment(Pearson3Params(2.5, 1e300, -1e300), 1) == 0.0
    P = Pearson3Params
    assert sum_pdf(SumSpec((P(2.0, 1e300), P(3.0, 2e300))), 1e10) == 0.0
    assert sum_pdf(SumSpec((P(2.5, 1e300), P(3.0, 2e300))), 1e10) == 0.0
    # a component whose u overflows adds 0 to the others: X_1 at 1e300 is
    # 1e-300 e^(-1), and X_2 is about 3e-10
    spec = SumSpec((P(2.0, 1e-300), P(3.0, 1e10)))
    assert sum_pdf(spec, 1e300) == pytest.approx(1e-300 * math.exp(-1.0), rel=1e-9)


def test_pdf_values():
    assert p3_pdf(Pearson3Params(1.0, 1.0, 0.0), 1e-12) == pytest.approx(1.0, rel=1e-9)
    assert p3_pdf(Pearson3Params(1.0, -1.0, 0.0), -1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )
    # direct formula value, cross-checked against scipy below
    assert p3_pdf(Pearson3Params(3.0, 1.5, 0.0), 2.0) == pytest.approx(
        0.3360627114830816, rel=1e-12
    )


@pytest.mark.parametrize("params", GRID)
def test_pdf_cdf_match_scipy(params):
    # Independent oracle: gamma density/CDF composed with the mirror map.
    sign = math.copysign(1.0, params.b)
    dist = stats.gamma(params.a, scale=1.0 / abs(params.b))
    lo, hi = params.support()
    probe_g = [0.05, 0.3, 1.0, 2.7]
    for g in probe_g:
        x = params.m + sign * g
        assert p3_pdf(params, x) == pytest.approx(dist.pdf(g), rel=1e-12)
        ref_cdf = dist.cdf(g) if sign > 0 else dist.sf(g)
        assert p3_cdf(params, x) == pytest.approx(ref_cdf, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("params", GRID)
def test_pdf_normalization_and_cdf_derivative(params):
    sign = math.copysign(1.0, params.b)
    total, _ = quad(
        lambda g: p3_pdf(params, params.m + sign * g), 0.0, np.inf, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-9)
    h = 1e-6
    for g in (0.4, 1.1, 2.3):
        x = params.m + sign * g
        fd = (p3_cdf(params, x + h) - p3_cdf(params, x - h)) / (2 * h)
        assert fd == pytest.approx(p3_pdf(params, x), rel=1e-6)


def test_pdf_support_error():
    p = Pearson3Params(2.0, 1.5, 1.0)
    with pytest.raises(SupportError):
        p3_pdf(p, 1.0)  # boundary
    with pytest.raises(SupportError):
        p3_pdf(p, 0.0)
    assert p3_cdf(p, 1.0) == 0.0
    assert p3_cdf(p, -5.0) == 0.0
    assert p3_cdf(Pearson3Params(2.0, -1.5, 0.0), 0.0) == 1.0


def test_cdf_median_exponential():
    assert p3_cdf(Pearson3Params(1.0, 1.0, 0.0), math.log(2.0)) == pytest.approx(
        0.5, rel=1e-13
    )


def test_mirror_symmetry():
    p = Pearson3Params(2.3, 1.1, 0.4)
    q = Pearson3Params(2.3, -1.1, -0.4)
    for x in (0.6, 1.5, 4.0):
        assert p3_pdf(p, x) == pytest.approx(p3_pdf(q, -x), rel=1e-13)


def test_moments():
    assert p3_moment(Pearson3Params(5.0, 2.0, 1.0), 0) == 1.0
    assert p3_moment(Pearson3Params(3.0, 1.5, 2.0), 1) == pytest.approx(4.0, rel=1e-13)
    assert p3_moment(Pearson3Params(2.0, 2.0, 0.0), 2) == pytest.approx(1.5, rel=1e-13)
    with pytest.raises(DomainError):
        p3_moment(Pearson3Params(2.0, 2.0, 0.0), -1)


@pytest.mark.parametrize("params", GRID)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_moments_vs_quadrature(params, n):
    sign = math.copysign(1.0, params.b)
    ref, _ = quad(
        lambda g: (params.m + sign * g) ** n * p3_pdf(params, params.m + sign * g),
        0.0,
        np.inf,
        limit=300,
    )
    assert p3_moment(params, n) == pytest.approx(ref, rel=1e-8)


def test_char_fn():
    p = Pearson3Params(2.0, 3.0, 0.5)
    assert p3_char_fn(p, 0.0) == pytest.approx(1.0 + 0.0j)
    v = p3_char_fn(Pearson3Params(1.0, 1.0, 0.0), 1.0)
    assert v == pytest.approx(0.5 + 0.5j, rel=1e-13)
    # modulus identity |1 - jt/b|^(-a)
    v = p3_char_fn(Pearson3Params(2.0, 1.0, 1.0), 0.7)
    assert abs(v) == pytest.approx((1.0 + 0.49) ** -1.0, rel=1e-12)
    assert abs(p3_char_fn(p, 5.0)) <= 1.0


def test_char_fn_vs_numeric_transform():
    # oracle: numeric Fourier transform of the density
    p = Pearson3Params(2.0, -1.5, 0.3)
    t = 0.8
    re, _ = quad(lambda g: math.cos(t * (p.m - g)) * p3_pdf(p, p.m - g), 0, np.inf)
    im, _ = quad(lambda g: math.sin(t * (p.m - g)) * p3_pdf(p, p.m - g), 0, np.inf)
    assert p3_char_fn(p, t) == pytest.approx(complex(re, im), rel=1e-9)


def test_char_fn_where_the_power_overflows_is_zero():
    # |1 - j t/b|^a = (2e300/3)^2 overflows; it raised a raw OverflowError
    assert p3_char_fn(Pearson3Params(2.0, 1.5, 0.0), 1e300) == 0j
    assert p3_char_fn(Pearson3Params(2.0, 1.5, 0.0), -1e300) == 0j


@pytest.mark.parametrize("params, t", [
    (Pearson3Params(1e-300, 1e300, 1e300), 1e300),  # m t overflows: it returned nan
    (Pearson3Params(1e-300, 1e-300, 0.0), 1e300),  # t / b overflows
    (Pearson3Params(2.0, 1.5, 0.0), math.inf),
    (Pearson3Params(2.0, 1.5, 0.0), math.nan),
])
def test_char_fn_with_an_undefined_phase_is_a_library_error(params, t):
    with pytest.raises(DomainError):
        p3_char_fn(params, t)


@pytest.mark.parametrize("params, n", [
    (Pearson3Params(1e-300, 1e-300, 1e300), 2),  # m^2 overflows: raw OverflowError
    (Pearson3Params(1e-300, 1e-310, 0.0), 2),  # b^2 underflows, a(a+1)/b^2 = 1e320
    (Pearson3Params(1e300, 1e-300, 0.0), 1),  # a / b overflows: it returned inf
])
def test_moment_beyond_double_range_is_a_library_error(params, n):
    with pytest.raises(DomainError, match="exceeds the double range"):
        p3_moment(params, n)


@pytest.mark.parametrize("params, n, value", [
    (Pearson3Params(1e-300, 1e-300, 0.0), 2, 1e300),  # b^2 underflows to 0
    (Pearson3Params(1e-300, -1e-300, 0.0), 2, 1e300),
    (Pearson3Params(2.0, -1e200, 1.0), 3, 1.0),  # b^2 and b^3 overflow
    (Pearson3Params(1e200, 1e200, 0.0), 2, 1.0),  # (a)_2 overflows
    (Pearson3Params(1e100, -1e103, 0.0), 3, -1e-9),  # b^3 overflows below -1e308
    (Pearson3Params(1e200, -1e200, 0.0), 3, -1.0),  # (a)_3 and b^3 overflow
    (Pearson3Params(1e-300, -1e-200, 0.0), 3, -2e300),  # b^3 underflows to -0
])
def test_moment_where_only_a_factor_leaves_double_range(params, n, value):
    # (a)_k / b^k is formed in log space where b^k or (a)_k is out of range
    assert p3_moment(params, n) == pytest.approx(value, rel=1e-15)


def test_moment_at_a_tiny_shape_is_exact():
    # a / b = -1 exactly; scipy's poch(1e-300, 1) made it -1.0000000000000238
    assert p3_moment(Pearson3Params(1e-300, -1e-300, 0.0), 1) == -1.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sample_beyond_double_range_is_a_library_error():
    # draws of about a / b = 1e600: they were returned as inf
    with pytest.raises(DomainError, match="leave the double range"):
        p3_sample(Pearson3Params(1e300, 1e-300, 0.0), 1, 3)


def test_rescaled_member_is_the_member_built_at_each_rate():
    # |b| and an array of rates take one numpy log, however the array is laid
    # out: the rescaled member has the density and CDF of the member built
    # at each rate, also at the rates where math.log rounds apart
    rates = 10 ** np.random.default_rng(25).uniform(-3.0, 3.0, 20_000)
    strided = rates[::2]
    assert any(np.log(r) != math.log(r) for r in strided.tolist())
    for law in (Pearson3Params(2.5, 1.3, -0.4), Pearson3Params(0.7, -2.0, 1.0)):
        sign = math.copysign(1.0, law.b)
        for density in (False, True):
            built = np.array([Pearson3Params(law.a, sign * r, law.m).at_offsets(0.8, density, 1.7)
                              for r in strided.tolist()])
            for rate in (strided.copy(), strided):
                assert np.array_equal(law.at_offsets(0.8, density, 1.7, rate=rate), built)
            assert np.array_equal([law.at_offsets(0.8, density, 1.7, rate=r)
                                   for r in strided.tolist()], built)


def test_scale():
    p = Pearson3Params(2.0, 3.0, 1.0)
    assert p3_scale(p, 1.0) == p
    assert p3_scale(p, 2.0) == Pearson3Params(2.0, 1.5, 2.0)
    assert p3_scale(Pearson3Params(2.0, 3.0, 0.0), -1.0) == Pearson3Params(2.0, -3.0, 0.0)
    with pytest.raises(DomainError):
        p3_scale(p, 0.0)


def test_sampling_ks_and_determinism():
    p = Pearson3Params(3.0, 1.5, 0.0)
    s1 = p3_sample(p, 1234, 200_000)
    s2 = p3_sample(p, 1234, 200_000)
    assert np.array_equal(s1, s2)
    assert ks_distance(s1, lambda x: p3_cdf(p, x)) < ks_threshold(s1.size)


def test_sampling_negative_support_and_scaling_coherence():
    p = Pearson3Params(3.0, -2.0, 5.0)
    s = p3_sample(p, 7, 50_000)
    assert np.all(s < 5.0)
    # scaling coherence: c * samples ~ p3_scale(params, c)
    c = 2.5
    scaled = p3_scale(p, c)
    assert ks_distance(c * s, lambda x: p3_cdf(scaled, x)) < ks_threshold(s.size)
    with pytest.raises(DomainError):
        p3_sample(p, 7, 0)
