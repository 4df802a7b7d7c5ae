"""Hypothesis settings and parameter strategies shared by the property tests.

`members` draws Pearson III parameters over the domain the library
covers: a in [0.3, 40], |b| in [0.05, 60] of either sign, m in [-8, 8].
Hypothesis runs derandomized, so the suite stays deterministic.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from p3family.pearson3 import Pearson3Params

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

signs = st.sampled_from((-1.0, 1.0))
members = st.builds(
    lambda a, sign, b, m: Pearson3Params(a, sign * b, m),
    st.floats(0.3, 40.0),
    signs,
    st.floats(0.05, 60.0),
    st.floats(-8.0, 8.0),
)
