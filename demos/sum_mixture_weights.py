"""Sums of independent gamma-family variates as finite mixtures.

With a common inverse scale the sum collapses to one density of the same
family. With integer shapes at pairwise-distinct inverse scales the
density becomes a finite mixture whose weights come from the
partial-fraction expansion of the product of Laplace transforms — the
classic hypoexponential result, generalized to integer shapes and shifts.
Any other shapes and scales, coincident ones included, take Moschopoulos'
series of positive weights. A numeric convolution oracle cross-checks
both mixtures at the end.

Run:  python3 demos/sum_mixture_weights.py
"""

import math

import numpy as np

from p3family.mc import convolve_p3_components, empirical_moment, sample_sum
from p3family.pearson3 import Pearson3Params
from p3family.sums import (
    SumSpec,
    sum_cdf,
    sum_moment,
    sum_pdf,
    xi0_closed,
    xi0_recursive,
)

P = Pearson3Params

print("=== equal rates collapse ===")
eq = SumSpec((P(1.0, 2.0, 0.0), P(2.0, 2.0, 0.5)))
print(f"regime: {eq.regime};  reduced single density: {eq.reduced}")

print("\n=== distinct rates: hypoexponential weights ===")
hypo = SumSpec((P(1.0, 1.0, 0.0), P(1.0, 2.0, 0.0)))
# partial fractions of b1 b2 / ((s+b1)(s+b2)) give weights 2 and -1
for i in (1, 2):
    r = xi0_recursive(hypo, i, 1)
    c = xi0_closed(hypo, i, 1)
    print(f"weight(component {i}) = {r:+.12g}  (closed form {c:+.12g})")
print(f"density at 1: {sum_pdf(hypo, 1.0):.12g}  "
      f"(analytic 2(e^-1 - e^-2) = {2*(math.exp(-1)-math.exp(-2)):.12g})")

print("\n=== three components, mixed shapes and shifts ===")
spec = SumSpec((P(2.0, 1.3, 0.5), P(1.0, 2.2, -0.2), P(3.0, 3.7, 1.0)))
total = math.fsum(
    xi0_recursive(spec, i, k)
    for i in range(1, spec.L + 1)
    for k in range(1, spec.shape(i) + 1)
)
print(f"weights sum to {total:.15f} (must be 1)")
print(f"mean = {sum_moment(spec, 1):.12g}  "
      f"(linearity: {math.fsum(t.a/t.b + t.m for t in spec.terms):.12g})")

samples = sample_sum(spec, seed=11, count=200_000)
emp, se = empirical_moment(samples, 2)
print(f"second moment: analytic {sum_moment(spec, 2):.6f}, "
      f"Monte Carlo {emp:.6f} +- {se:.1e}")

print("\n=== convolution oracle ===")
conv = convolve_p3_components(spec, dx=2e-4)
probes = spec.sm + np.linspace(0.1, 6.0, 60)
sup = max(abs(float(conv.at(x)) - sum_pdf(spec, float(x))) for x in probes)
print(f"sup |mixture - numeric convolution| over 60 probes: {sup:.2e}")

mixed = SumSpec((P(1.5, 1.0, 0.0), P(0.7, 1.0, 0.0), P(2.5, 3.1, 0.0)))
conv = convolve_p3_components(mixed, dx=2e-4)
sup = max(abs(float(conv.at(x)) - sum_pdf(mixed, float(x))) for x in probes)
print(f"shapes 1.5, 0.7, 2.5 at rates 1, 1, 3.1 (Moschopoulos' series): {sup:.2e}")

print("\n=== the CDF is a proper distribution function ===")
for x in (spec.sm, spec.sm + 1.0, spec.sm + 3.0, spec.sm + 10.0):
    print(f"F({x:6.3f}) = {sum_cdf(spec, x):.9f}")
