"""Harvested-power statistics for a nonlinear RF energy harvester.

A logistic rectifier saturating at Ps = 24 mW receives power from one or
more transmit branches over gamma-faded channels. The harvested power is
then an affine image of a logistic-transformed gamma-family variate, so
outage probabilities, densities and mean harvested power all have closed
forms — checked here against seeded Monte Carlo.

Run:  python3 demos/harvested_power_outage.py
"""

import math

from p3family.mc import empirical_cdf, empirical_moment, sample_harvested
from p3family.pearson3 import Pearson3Params
from p3family.presets import beacon_field_scenario, equal_split_scenario
from p3family.wpt import (
    EHModel,
    LinkBudget,
    harvested_power_siso,
    outage_probability,
    path_loss,
    q_cdf_miso,
    q_mean_miso,
    q_mean_siso,
)

model = EHModel(A=150.0, B=0.014, Ps=0.024)
link = LinkBudget(at=0.5, ar=0.01, fc=2.4e9, d=10.0, p=2.0,
                  fading=Pearson3Params(3.0, 1.0, 0.0))

print("=== single link, 2 W at 10 m ===")
print(f"path loss l(d)            = {path_loss(link):.6e}")
print(f"harvest at the knee r = B = "
      f"{1e3 * harvested_power_siso(model, link, model.B / (link.loss * link.p)):.3f} mW")
qt = model.Ps / 10
print(f"outage P(Q < Ps/10)       = {outage_probability(model, link, qt):.6f}")
print(f"mean harvested power      = {1e3 * q_mean_siso(model, link):.4f} mW")

# Monte Carlo replay of the same link
from p3family.wpt import MisoScenario

sc1 = MisoScenario(model, (link,))
samples = sample_harvested(sc1, seed=42, count=300_000)
emp_out = empirical_cdf(samples, qt)
emp_mean, se = empirical_moment(samples, 1)
print(f"MC (300k draws): outage {emp_out:.6f}, mean {1e3 * emp_mean:.4f} mW")

print("\n=== outage vs distance: one beacon, L antennas, 2 W split ===")
print("  d(m)   L=1        L=2        L=3")
for d in (6.0, 10.0, 14.0, 18.0):
    row = [q_cdf_miso(equal_split_scenario(L, d), qt) for L in (1, 2, 3)]
    print(f"  {d:4.0f}  {row[0]:.3e}  {row[1]:.3e}  {row[2]:.3e}")

print("\n=== outage vs total power: beacons at 12/10/8 m ===")
print("  P(W)   L=1        L=2        L=3")
for p in (1.0, 2.0, 3.0, 4.0):
    row = [q_cdf_miso(beacon_field_scenario(L, p), qt) for L in (1, 2, 3)]
    print(f"  {p:4.1f}  {row[0]:.3e}  {row[1]:.3e}  {row[2]:.3e}")

print("\nMore branches never hurt: each row is nonincreasing in L.")

print("\n=== mean harvested power saturates with power ===")
for p in (0.5, 1.0, 2.0, 4.0):
    sc = beacon_field_scenario(3, p)
    print(f"  total {p:3.1f} W -> mean {1e3 * q_mean_miso(sc):.4f} mW "
          f"(cap Ps = {1e3 * model.Ps:.0f} mW)")
