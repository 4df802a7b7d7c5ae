"""Pearson type III distribution family and harvested-power statistics.

Submodules:
  pearson3  the base shifted-gamma law (pdf/cdf/moments/char fn/sampling)
  logp3     the exponential transform Y = exp(X)
  logitp3   the logistic transform Z = 1/(1 + exp(-X)) and logit gamma
  sums      sums of independent components and their mixture weights
  wpt       harvested power as an affine/logit map over pearson3/sums
  specfun   truncated incomplete-gamma integrals, Lerch transcendent
  series    series truncation, and expectations against a law
  mc        seeded Monte Carlo and numeric-convolution oracles
  presets   the reference-figure constants and scenarios
  cli       command-line front end
"""

from .errors import (
    ConvergenceError,
    DomainError,
    MomentDivergenceError,
    SupportError,
)
from .logitp3 import (
    logit_gamma_cdf,
    logit_gamma_moment,
    logit_gamma_pdf,
    ltp3_cdf,
    ltp3_mean_closed,
    ltp3_moment,
    ltp3_pdf,
    ltp3_second_moment_closed,
    ltp3_support,
)
from .logp3 import lp3_cdf, lp3_char_fn_series, lp3_moment, lp3_pdf, lp3_support
from .pearson3 import (
    Pearson3Params,
    p3_cdf,
    p3_char_fn,
    p3_moment,
    p3_pdf,
    p3_sample,
    p3_scale,
)
from .specfun import (
    gamma_integral_lower,
    gamma_integral_upper,
    lerch_phi,
)
from .sums import (
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
from .wpt import (
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

__version__ = "0.1.0"
