"""Property tests of array evaluation: for every pdf and CDF of the plain,
log and logit members, of the sums and of the harvested power, an array of
points gives, element by element, exactly what the points give one at a
time.

Along the way: CDFs lie in [0, 1] and do not decrease along sorted points,
densities are >= 0, a scalar point gives a Python float, and a point
outside the domain raises the library error that the scalar call raises.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from p3family.errors import DomainError
from p3family.logitp3 import ltp3_cdf, ltp3_pdf
from p3family.logp3 import lp3_cdf, lp3_pdf
from p3family.pearson3 import Pearson3Params, p3_cdf, p3_pdf
from p3family.presets import FIG_MODEL, beacon_field_scenario, equal_split_scenario
from p3family.sums import (
    SumSpec,
    logitsum_cdf,
    logitsum_pdf,
    logsum_cdf,
    logsum_pdf,
    sum_cdf,
    sum_pdf,
    xi0_recursive,
)
from p3family.wpt import q_cdf_miso, q_pdf_miso

from properties import PROPERTY_SETTINGS, members, signs

# Distinct rates at least 30% apart keep the mixture weights moderate.
sums = st.builds(
    lambda shapes, sign, b1, r2, r3, ms: SumSpec(tuple(
        Pearson3Params(float(a), sign * b, m)
        for a, b, m in zip(shapes, (b1, b1 * r2, b1 * r2 * r3), ms)
    )),
    st.tuples(*[st.integers(1, 3)] * 3),
    signs,
    st.floats(0.05, 20.0),
    st.floats(1.3, 3.0),
    st.floats(1.3, 3.0),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
# Shape-4 terms with rates 5% apart: weights past 1e30, so every point sums
# Moschopoulos' series.
close_sums = st.builds(
    lambda sign, b1, ms: SumSpec(tuple(
        Pearson3Params(4.0, sign * b1 * (1.0 + 0.05 * i), m) for i, m in enumerate(ms)
    )),
    signs,
    st.floats(0.05, 20.0),
    st.tuples(*[st.floats(-2.0, 2.0)] * 8),
)
# Offsets into the support in units of the gamma variable; negative ones
# lie outside it.
offsets = st.lists(st.floats(-10.0, 100.0), min_size=1, max_size=12)

PS = FIG_MODEL.Ps
# Harvested power from 1 mW below 0 to 1 mW above the saturation level Ps,
# with the support edges 0 and Ps themselves.
powers = st.lists(st.one_of(st.sampled_from((0.0, PS)), st.floats(-1e-3, PS + 1e-3)),
                  min_size=1, max_size=12)

CDFS = (p3_cdf, lp3_cdf, ltp3_cdf, sum_cdf, logsum_cdf, logitsum_cdf, q_cdf_miso)


def _points(x, transform):
    if transform == "log":
        return np.exp(np.clip(x, -700.0, 700.0))
    if transform == "logit":
        return expit(x)
    return x


def _check(fn, law, points, monotone_tol):
    scalar, errors = [], set()
    for p in points:
        try:
            v = fn(law, float(p))
        except DomainError as exc:
            errors.add((type(exc), str(exc)))
            continue
        assert type(v) is float
        scalar.append(v)
    if errors:
        with pytest.raises(DomainError) as info:
            fn(law, points)
        assert (type(info.value), str(info.value)) in errors
        return
    values = fn(law, points)
    assert isinstance(values, np.ndarray) and values.shape == points.shape
    np.testing.assert_array_equal(values, scalar)
    if fn in CDFS:
        assert np.all((values >= 0.0) & (values <= 1.0))
        ordered = values[np.argsort(points, kind="stable")]
        assert np.all(np.diff(ordered) >= -monotone_tol)
    else:
        assert np.all(values >= 0.0)


@pytest.mark.parametrize("cdf, pdf, transform", [
    (p3_cdf, p3_pdf, None),
    (lp3_cdf, lp3_pdf, "log"),
    (ltp3_cdf, ltp3_pdf, "logit"),
])
@PROPERTY_SETTINGS
@given(params=members, t=offsets)
def test_member_array_equals_scalar(cdf, pdf, transform, params, t):
    points = _points(params.m + np.array(t) / params.b, transform)
    for fn in (cdf, pdf):
        _check(fn, params, points, 1e-14)


@pytest.mark.parametrize("cdf, pdf, transform", [
    (sum_cdf, sum_pdf, None),
    (logsum_cdf, logsum_pdf, "log"),
    (logitsum_cdf, logitsum_pdf, "logit"),
])
@PROPERTY_SETTINGS
@given(spec=sums, t=offsets)
def test_sum_array_equals_scalar(cdf, pdf, transform, spec, t):
    points = _points(spec.sm + np.array(t) / spec.terms[0].b, transform)
    # the float mixture is exact to a few units of rounding of its weights
    weights = math.fsum(
        abs(xi0_recursive(spec, i, k))
        for i in range(1, spec.L + 1) for k in range(1, spec.shape(i) + 1)
    )
    for fn in (cdf, pdf):
        _check(fn, spec, points, 1e-14 * weights)


@pytest.mark.parametrize("cdf, pdf, transform", [
    (sum_cdf, sum_pdf, None),
    (logsum_cdf, logsum_pdf, "log"),
    (logitsum_cdf, logitsum_pdf, "logit"),
])
@PROPERTY_SETTINGS
@given(spec=close_sums, t=offsets)
def test_close_rate_sum_array_equals_scalar(cdf, pdf, transform, spec, t):
    points = _points(spec.sm + np.array(t) / spec.terms[0].b, transform)
    for fn in (cdf, pdf):
        _check(fn, spec, points, 1e-14)


@pytest.mark.parametrize("scenario", [
    equal_split_scenario(1, 10.0),  # one Pearson III law
    beacon_field_scenario(3, 2.0),  # a distinct-rate mixture
], ids=["L1", "L3"])
@PROPERTY_SETTINGS
@given(q=powers)
def test_harvest_array_equals_scalar(scenario, q):
    for fn in (q_cdf_miso, q_pdf_miso):
        _check(fn, scenario, np.array(q), 1e-12)
