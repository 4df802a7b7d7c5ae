"""Nonlinear wireless-power-transfer statistics.

A logistic energy-harvesting circuit maps the received RF power r to

    Q(r) = Ps (1 + e^(A B)) / (e^(A B) (1 + e^(-A (r - B)))) - Ps e^(-A B),

which rises from 0 at r = 0 to the saturation level Ps. With
c = Ps e^(-A B) and span = c (1 + e^(A B)) this is the affine map
Q = span Z - c of the logistic Z = 1/(1 + e^(-X)) of X = A r - A B.
Under gamma (Nakagami power) fading A r is gamma with inverse scale
b_hat = b/(A l p), so X is the `sums.SumSpec` of the branch terms with
shift -A B: one Pearson III law when every branch shares b_hat, a mixture
when the b_hat are pairwise distinct. The harvested-power CDF and
density, for a float or an array of q, are `pearson3.evaluate` of that
law through the map x -> q; the moments expand binomially over its logit
moments from `sums.logitsum_moment`.
"""

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import log1p

from .errors import DomainError
from .pearson3 import Pearson3Params, Transform, evaluate
from .sums import SumSpec, logitsum_moment

__all__ = [
    "SPEED_OF_LIGHT",
    "EHModel",
    "LinkBudget",
    "MisoScenario",
    "path_loss",
    "harvested_power_siso",
    "harvested_power_miso",
    "q_cdf_siso",
    "q_pdf_siso",
    "q_moment_siso",
    "q_mean_siso",
    "q_cdf_miso",
    "q_pdf_miso",
    "q_moment_miso",
    "q_mean_miso",
    "outage_probability",
    "scenario_to_json",
    "scenario_from_json",
]

SPEED_OF_LIGHT = 2.998e8  # m/s


@dataclass(frozen=True)
class EHModel:
    """Logistic harvester constants: rate A (1/W), threshold B (W),
    saturation Ps (W)."""

    A: float
    B: float
    Ps: float

    def __post_init__(self):
        if self.A <= 0 or self.B <= 0 or self.Ps <= 0:
            raise DomainError(
                f"EH constants must be positive, got A={self.A}, B={self.B}, Ps={self.Ps}"
            )
        # x -> q = span logistic(x) - c; module-level functions pickle
        c, ps = self.c, self.Ps
        harvest = Transform(None, partial(_harvest_offset, c, ps, -self.A * self.B),
                            partial(_harvest_slope, c, ps))
        object.__setattr__(self, "_harvest", harvest)

    @property
    def c(self) -> float:
        """Offset Ps e^(-A B), the harvested-power origin shift."""
        return self.Ps * math.exp(-self.A * self.B)

    @property
    def span(self) -> float:
        """Affine gain c (1 + e^(A B)) mapping the logit variate onto (0, Ps)."""
        return self.c * (1.0 + math.exp(self.A * self.B))

    def harvest(self, r):
        """The logistic harvester applied to received power r (scalar or array)."""
        eab = math.exp(self.A * self.B)
        num = self.Ps * (1.0 + eab)
        return num / (eab * (1.0 + np.exp(-self.A * (np.asarray(r) - self.B)))) - self.c


@dataclass(frozen=True)
class LinkBudget:
    """One transmit branch: apertures (m^2), carrier (Hz), distance (m),
    transmit power (W) and the gamma fading of the power gain."""

    at: float
    ar: float
    fc: float
    d: float
    p: float
    fading: Pearson3Params

    def __post_init__(self):
        for name in ("at", "ar", "fc", "d", "p"):
            if getattr(self, name) <= 0:
                raise DomainError(f"LinkBudget field {name} must be positive")
        if self.fading.b <= 0 or self.fading.m != 0:
            raise DomainError(
                f"fading must be a gamma law (b > 0, m = 0), got {self.fading}"
            )

    @property
    def loss(self) -> float:
        return path_loss(self)

    def bhat(self, model: EHModel) -> float:
        """Effective inverse scale of the received-power gamma after the
        harvester's A factor: b / (A l p)."""
        return self.fading.b / (model.A * self.loss * self.p)


def path_loss(link: LinkBudget) -> float:
    """Aperture path loss 1 - exp(-at ar / ((c0/fc)^2 d^2)), in (0, 1)."""
    lam = SPEED_OF_LIGHT / link.fc
    return -math.expm1(-link.at * link.ar / (lam * lam * link.d * link.d))


def harvested_power_siso(model: EHModel, link: LinkBudget, h2: float) -> float:
    """Harvested power for one branch at realized power gain h2 >= 0."""
    if h2 < 0:
        raise DomainError(f"power gain must be nonnegative, got h2={h2}")
    return float(model.harvest(link.loss * link.p * h2))


@dataclass(frozen=True)
class MisoScenario:
    """A harvester fed by L independent branches.

    Construction builds the law of X = A r - A B for the aggregate received
    power r: the `SumSpec` of one term per branch, of its fading shape and
    effective inverse scale b/(A l p), the first term carrying the shift
    -A B. So equal scales give one Pearson III law of the total shape (any
    positive fading shapes), pairwise-distinct scales a mixture (integer
    fading shapes), and partially coincident scales are rejected.
    """

    model: EHModel
    branches: tuple

    def __post_init__(self):
        branches = tuple(self.branches)
        object.__setattr__(self, "branches", branches)
        if len(branches) < 1:
            raise DomainError("a scenario needs at least one branch")
        for br in branches:
            if not isinstance(br, LinkBudget):
                raise DomainError(f"branches must be LinkBudget values, got {br!r}")
        shift = -self.model.A * self.model.B
        object.__setattr__(self, "_law", SumSpec(tuple(
            Pearson3Params(br.fading.a, br.bhat(self.model), shift if i == 0 else 0.0)
            for i, br in enumerate(branches)
        )))

    @property
    def L(self) -> int:
        return len(self.branches)

    @property
    def regime(self) -> str:
        return self._law.regime


def _harvest_offset(c, ps, edge, q, m):
    # x - m = log1p(q/c) - log1p(-q/Ps) + (-A B - m) from q directly, as
    # ln((q + c)/(Ps - q)) rounds -A B + q/c + q/Ps onto -A B below about
    # 1e-19 W. q is clipped into [-c, Ps], mapped to x = -inf and inf.
    q = np.minimum(np.maximum(q, -c), ps)
    # scipy's log1p(-1) is -inf without a divide-by-zero warning
    return log1p(q / c) - log1p(q / -ps) + (edge - m)


def _harvest_slope(c, ps, q):
    return (q + c) * (ps - q) / (ps + c)


def harvested_power_miso(scenario: MisoScenario, h2s) -> float:
    """Harvested power at realized per-branch power gains."""
    h2s = list(h2s)
    if len(h2s) != scenario.L:
        raise DomainError(
            f"expected {scenario.L} power gains, got {len(h2s)}"
        )
    if any(h < 0 for h in h2s):
        raise DomainError("power gains must be nonnegative")
    r = math.fsum(
        br.loss * br.p * h for br, h in zip(scenario.branches, h2s)
    )
    return float(scenario.model.harvest(r))


def q_cdf_siso(model: EHModel, link: LinkBudget, q):
    """Harvested-power CDF for a single branch."""
    return q_cdf_miso(MisoScenario(model, (link,)), q)


def q_pdf_siso(model: EHModel, link: LinkBudget, q):
    """Harvested-power density for a single branch; support (0, Ps)."""
    return q_pdf_miso(MisoScenario(model, (link,)), q)


def q_moment_siso(model: EHModel, link: LinkBudget, n: int) -> float:
    """Raw moment E[Q^n] for a single branch."""
    return q_moment_miso(MisoScenario(model, (link,)), n)


def q_mean_siso(model: EHModel, link: LinkBudget) -> float:
    """Mean harvested power for a single branch."""
    return q_mean_miso(MisoScenario(model, (link,)))


def q_cdf_miso(scenario: MisoScenario, q):
    """Harvested-power CDF for the aggregate of all branches at q (a float
    or an array); 0 up to q = 0 and 1 from q = Ps on."""
    return evaluate(scenario._law, scenario.model._harvest, q)


def q_pdf_miso(scenario: MisoScenario, q):
    """Harvested-power density for the aggregate of all branches at q in
    (0, Ps) (a float or an array)."""
    return evaluate(scenario._law, scenario.model._harvest, q, density=True)


def q_moment_miso(scenario: MisoScenario, n: int) -> float:
    """Raw moment E[Q^n] for the aggregate of all branches: the binomial
    expansion of Q = span Z - c over the logit moments E[Z^k]."""
    if n < 1:
        raise DomainError(f"moment order must be >= 1, got n={n}")
    model = scenario.model
    return math.fsum(
        math.comb(n, k) * model.span ** k * (-model.c) ** (n - k)
        * logitsum_moment(scenario._law, k)
        for k in range(n + 1)
    )


def q_mean_miso(scenario: MisoScenario) -> float:
    """Mean harvested power for the aggregate of all branches."""
    return q_moment_miso(scenario, 1)


def outage_probability(model: EHModel, target, q_t):
    """P(Q < q_t) for a LinkBudget or a MisoScenario target, at q_t (a
    float or an array)."""
    if isinstance(target, MisoScenario):
        if target.model != model:
            raise DomainError("scenario carries a different EH model")
        return q_cdf_miso(target, q_t)
    if isinstance(target, LinkBudget):
        return q_cdf_siso(model, target, q_t)
    raise DomainError(f"target must be LinkBudget or MisoScenario, got {target!r}")


def scenario_to_json(scenario: MisoScenario) -> str:
    """Serialize using SI units (W, m, Hz)."""
    return json.dumps(
        {
            "model": {
                "A": scenario.model.A,
                "B": scenario.model.B,
                "Ps": scenario.model.Ps,
            },
            "branches": [
                {
                    "at": br.at,
                    "ar": br.ar,
                    "fc": br.fc,
                    "d": br.d,
                    "p": br.p,
                    "fading": {"a": br.fading.a, "b": br.fading.b},
                }
                for br in scenario.branches
            ],
        }
    )


def scenario_from_json(doc: str) -> MisoScenario:
    """Parse the JSON document produced by scenario_to_json."""
    try:
        payload = json.loads(doc)
        model = EHModel(
            float(payload["model"]["A"]),
            float(payload["model"]["B"]),
            float(payload["model"]["Ps"]),
        )
        branches = tuple(
            LinkBudget(
                at=float(br["at"]),
                ar=float(br["ar"]),
                fc=float(br["fc"]),
                d=float(br["d"]),
                p=float(br["p"]),
                fading=Pearson3Params(
                    float(br["fading"]["a"]), float(br["fading"]["b"]), 0.0
                ),
            )
            for br in payload["branches"]
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise DomainError(f"malformed scenario document: {exc}") from exc
    return MisoScenario(model, branches)
