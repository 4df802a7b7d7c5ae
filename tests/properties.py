"""Hypothesis settings and parameter strategies shared by the property tests.

`members` draws Pearson III parameters over the domain the library
covers: a in [0.3, 40], |b| in [0.05, 60] of either sign, m in [-8, 8].
`any_sums` draws sums of 2 to 4 of them with shapes log-uniform in
[0.3, 6] and rates from three values, so that some coincide.
Hypothesis runs derandomized, so the suite stays deterministic.
"""

import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from p3family.pearson3 import Pearson3Params
from p3family.sums import SumSpec

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
any_sums = st.builds(
    lambda stages, sign, m: SumSpec(tuple(
        Pearson3Params(a, sign * b, m if i == 0 else 0.0) for i, (a, b) in enumerate(stages))),
    st.lists(st.tuples(st.floats(math.log(0.3), math.log(6.0)).map(math.exp),
                       st.sampled_from((1.0, 1.7, 3.1))), min_size=2, max_size=4),
    signs,
    st.floats(-2.0, 2.0),
)
