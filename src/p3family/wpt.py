"""Nonlinear wireless-power-transfer statistics.

A logistic energy-harvesting circuit maps the received RF power r to

    Q(r) = Ps (1 + e^(A B)) / (e^(A B) (1 + e^(-A (r - B)))) - Ps e^(-A B),

which rises from 0 at r = 0 to the saturation level Ps. With
c = Ps e^(-A B) and span = c (1 + e^(A B)) this is the affine map
Q = span Z - c of the logistic Z = 1/(1 + e^(-X)) of X = A r - A B.
Under gamma (Nakagami power) fading A r is gamma with inverse scale
b_hat = b/(A l p), so X is Pearson III with shift -A B: one `pearson3`
law when every branch shares b_hat, a `sums.SumSpec` when the b_hat are
pairwise distinct. The harvested-power CDF and density are that law's
at x = ln((q + c)/(Ps - q)); the moments expand binomially over its
logit moments from `logitp3` or `sums`.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SupportError
from .logitp3 import ltp3_moment
from .pearson3 import Pearson3Params, p3_cdf, p3_pdf
from .series import DEFAULT_CONTROL, SeriesControl
from .sums import (
    DISTINCT_RATES,
    EQUAL_RATES,
    SumSpec,
    logitsum_moment,
    sum_cdf,
    sum_pdf,
)

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
    power r. When every effective inverse scale b/(A l p) agrees within
    relative 1e-9 it is one Pearson III of total shape (any positive fading
    shapes); when the scales are pairwise distinct it is a `SumSpec`
    mixture, which requires integer fading shapes. Partially coincident
    scales are rejected.
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
        bhats = [br.bhat(self.model) for br in branches]
        shift = -self.model.A * self.model.B
        if (max(bhats) - min(bhats)) / max(bhats) <= 1e-9:
            law = Pearson3Params(
                math.fsum(br.fading.a for br in branches),
                math.fsum(bhats) / len(bhats),
                shift,
            )
        else:
            # The first term carries the whole shift, so the sum's total
            # shift is exactly -A B.
            law = SumSpec(
                tuple(
                    Pearson3Params(br.fading.a, bh, shift if i == 0 else 0.0)
                    for i, (br, bh) in enumerate(zip(branches, bhats))
                ),
                snap_tol=1e-9,
            )
        object.__setattr__(self, "_law", law)

    @property
    def L(self) -> int:
        return len(self.branches)

    @property
    def regime(self) -> str:
        return EQUAL_RATES if isinstance(self._law, Pearson3Params) else DISTINCT_RATES


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


def q_cdf_siso(model: EHModel, link: LinkBudget, q: float) -> float:
    """Harvested-power CDF for a single branch."""
    return q_cdf_miso(MisoScenario(model, (link,)), q)


def q_pdf_siso(model: EHModel, link: LinkBudget, q: float) -> float:
    """Harvested-power density for a single branch; support (0, Ps)."""
    return q_pdf_miso(MisoScenario(model, (link,)), q)


def q_moment_siso(model: EHModel, link: LinkBudget, n: int,
                  ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Raw moment E[Q^n] for a single branch."""
    return q_moment_miso(MisoScenario(model, (link,)), n, ctl)


def q_mean_siso(model: EHModel, link: LinkBudget,
                ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Mean harvested power for a single branch."""
    return q_mean_miso(MisoScenario(model, (link,)), ctl)


def q_cdf_miso(scenario: MisoScenario, q: float) -> float:
    """Harvested-power CDF for the aggregate of all branches."""
    model = scenario.model
    if q <= 0:
        return 0.0
    if q >= model.Ps:
        return 1.0
    cdf = p3_cdf if scenario.regime == EQUAL_RATES else sum_cdf
    return cdf(scenario._law, math.log((q + model.c) / (model.Ps - q)))


def q_pdf_miso(scenario: MisoScenario, q: float) -> float:
    """Harvested-power density for the aggregate of all branches."""
    model = scenario.model
    if not (0.0 < q < model.Ps):
        raise SupportError(
            f"q={q} is outside the open support (0, {model.Ps}) of the harvested power"
        )
    pdf = p3_pdf if scenario.regime == EQUAL_RATES else sum_pdf
    # dx/dq = 1/(q + c) + 1/(Ps - q) carries the density of X over to Q
    gprime = 1.0 / (q + model.c) + 1.0 / (model.Ps - q)
    return gprime * pdf(scenario._law, math.log((q + model.c) / (model.Ps - q)))


def q_moment_miso(scenario: MisoScenario, n: int,
                  ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Raw moment E[Q^n] for the aggregate of all branches: the binomial
    expansion of Q = span Z - c over the logit moments E[Z^k]."""
    if n < 1:
        raise DomainError(f"moment order must be >= 1, got n={n}")
    model = scenario.model
    z_moment = ltp3_moment if scenario.regime == EQUAL_RATES else logitsum_moment
    return math.fsum(
        math.comb(n, k) * model.span ** k * (-model.c) ** (n - k)
        * z_moment(scenario._law, k, ctl)
        for k in range(n + 1)
    )


def q_mean_miso(scenario: MisoScenario,
                ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Mean harvested power for the aggregate of all branches."""
    return q_moment_miso(scenario, 1, ctl)


def outage_probability(model: EHModel, target, q_t: float) -> float:
    """P(Q < q_t) for a LinkBudget or a MisoScenario target."""
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
