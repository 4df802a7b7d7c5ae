"""Nonlinear wireless-power-transfer statistics.

A logistic energy-harvesting circuit maps the received RF power r to

    Q(r) = Ps (1 - e^(-A r)) / (1 + e^(A B) e^(-A r)),

which rises from 0 at r = 0 to the saturation level Ps. Its factors are
positive and it subtracts nothing, so this one form, `_q_fraction` of
g = A r, keeps its digits as r -> 0 and stays finite for every A B that
an `EHModel` admits; `EHModel.harvest` and the moments both take it. Q is
the affine map span Z - c, with c = Ps e^(-A B) and span = c (1 + e^(A B)),
of the logistic Z = 1/(1 + e^(-X)) of X = A r - A B. Under gamma
(Nakagami power) fading A r is gamma with inverse scale b_hat = b/(A l p),
so X is the `sums.SumSpec` of the branch terms with shift -A B: one
Pearson III law when every branch shares b_hat, else a mixture, for any
positive fading shapes. The harvested-power CDF and density, for a float
or an array of q, are `pearson3.evaluate` of that law through the map
x -> q; its moments E[Q^n] are one positive integral of (Q/Ps)^n against
that law, `series.expect`.
"""

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import log1p

from .errors import DomainError
from .pearson3 import Pearson3Params, Transform, blockwise, evaluate
from .series import expect
from .sums import SumSpec

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
        if not (0 < self.A < math.inf and 0 < self.B < math.inf and 0 < self.Ps < math.inf
                and self.A * self.B < math.log(np.finfo(float).max) and self.c > 0.0):
            raise DomainError(f"EH constants must be positive and keep e^(A B) and Ps e^(-A B) "
                              f"in the double range, got A={self.A}, B={self.B}, Ps={self.Ps}")
        # x -> q = span logistic(x) - c; module-level functions pickle
        c, ps = self.c, self.Ps
        harvest = Transform(None, partial(_harvest_offset, c, ps, -self.A * self.B),
                            partial(_harvest_log_slope, c, ps))
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
        """Q(r), Ps times `_q_fraction` at g = A r, at received powers
        r >= 0 (scalar or array): 0 at r = 0 and Ps at r = inf. It takes r
        2^14 points at a time (`pearson3.blockwise`), so an array call holds
        its output and one block. A scalar gives a numpy scalar."""
        return blockwise(lambda part, rate: self.Ps * _q_fraction(self, self.A * part),
                         np.asarray(r, dtype=float), None)[()]


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
            if not getattr(self, name) > 0:
                raise DomainError(f"LinkBudget field {name} must be positive")
        if not self.fading.b > 0 or self.fading.m != 0:
            raise DomainError(
                f"fading must be a gamma law (b > 0, m = 0), got {self.fading}"
            )

    @property
    def loss(self) -> float:
        return path_loss(self)

    def bhat(self, model: EHModel) -> float:
        """Effective inverse scale of the received-power gamma after the
        harvester's A factor: b / (A l p)."""
        return _rate(self.fading.b, model, self.loss, self.p)


def path_loss(link: LinkBudget) -> float:
    """Aperture path loss 1 - exp(-at ar / ((c0/fc)^2 d^2)), in (0, 1)."""
    return float(_loss(link.at, link.ar, link.fc, link.d))


def _loss(at, ar, fc, d):
    # `path_loss` at a distance d or at each of an array of them, by one
    # numpy expm1 for both, so that a sweep's losses are those of its points;
    # where lam^2 d^2 underflows, to 0 or near it, the quotient overflows to
    # -inf and the loss is 1
    lam = SPEED_OF_LIGHT / fc
    with np.errstate(divide="ignore", over="ignore"):
        return -np.expm1(np.divide(-at * ar, lam * lam * d * d))


def _rate(b, model, loss, p):
    # `bhat` from floats or arrays, in one order of operations
    received = model.A * loss * p
    if np.any(received == 0):
        raise DomainError("received power A l p underflows to 0")
    return b / received


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
    -A B. So equal scales give one Pearson III law of the total shape, and
    any other scales a mixture, for any positive fading shapes.

    `at` moves every branch to one distance or one total power; `curve`
    gives the harvested-power CDF or density at one q, and `moments` the
    raw moment E[Q^n], over a sweep of such moves. A power sweep, or a
    distance sweep of branches that share at, ar and fc, scales every
    effective rate by one factor, so the law of the first point, rescaled
    to each point's mean rate, serves the whole sweep: one array evaluation
    for a curve, one batched integral for the moments. Another distance
    sweep builds a law per point. The effective rates of a sweep are formed
    as arrays, so no point but the first of a law builds a `LinkBudget`.
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

    def _branches_at(self, distance=None, power=None):
        return tuple(
            LinkBudget(at=br.at, ar=br.ar, fc=br.fc,
                       d=br.d if distance is None else distance,
                       p=br.p if power is None else power / self.L,
                       fading=br.fading)
            for br in self.branches
        )

    def at(self, distance=None, power=None):
        """This scenario with every branch at `distance` and/or the total
        `power` split equally across the branches."""
        return MisoScenario(self.model, self._branches_at(distance, power))

    def curve(self, var, points, q, density=False):
        """CDF, or with `density` the density, of the harvested power at q
        (a float) in the scenario `at` each of `points` of `var`, "distance"
        or "power": an array with one value per point, each equal to what
        `q_cdf_miso` or `q_pdf_miso` gives there, up to rounding at distinct
        rates. Each law evaluates all the points it serves in one call."""
        if np.ndim(q):
            raise DomainError("a curve is taken at one harvested power q, not an array")
        return self._per_law(var, points, lambda law, rates: evaluate(
            law, self.model._harvest, q, density, rate=rates))

    def moments(self, var, points, n):
        """Raw moments E[Q^n] of the harvested power in the scenario `at`
        each of `points` of `var`, "distance" or "power": an array with one
        value per point, each equal to what `q_moment_miso` gives there, up
        to rounding at distinct rates. Each law integrates all the points
        it serves in one `series.expect` call."""
        if n < 1:
            raise DomainError(f"moment order must be >= 1, got n={n}")
        h = _q_power(self.model, n)
        return self.model.Ps ** n * self._per_law(
            var, points, lambda law, rates: expect(law, h, rate=rates))

    def _per_law(self, var, points, value):
        """value(law, rates) of each law of the sweep of `var` over `points`
        at the mean rates of the points it serves, as one array.

        The effective rate of each branch is one float64 array over the
        points, formed as `bhat` and `path_loss` form it at each point, and
        each point's mean rate is the sum of these arrays, added in branch
        order, over L, as `SumSpec.mean_rate` adds the rates of its terms: a
        law evaluated at its own point gives what the per-point functions
        do. Each law is built once, at the first point it serves: one law
        for a power sweep, or a distance sweep of branches that share at, ar
        and fc, where the rates keep their ratios; else one law per point.
        A point that would give a branch a non-positive d or p raises the
        `LinkBudget` DomainError.
        """
        if var not in ("distance", "power"):
            raise DomainError(f"sweep variable must be distance or power, got {var!r}")
        # the laws are built at the caller's points, the rates from floats
        x = np.asarray(points, dtype=float)
        n = x.size
        field = x / self.L if var == "power" else x
        bad = np.flatnonzero(~(field > 0))
        if bad.size:
            self._branches_at(**{var: points[bad[0]]})  # raises the DomainError
        # Python's sum adds the branch rows in order; numpy's may add 8 or more pairwise
        rates = sum(_rate(br.fading.b, self.model, br.loss, field) if var == "power"
                    else _rate(br.fading.b, self.model, _loss(br.at, br.ar, br.fc, x), br.p)
                    for br in self.branches) / self.L
        one_law = var == "power" or len({(br.at, br.ar, br.fc) for br in self.branches}) == 1
        starts = list(range(min(n, 1) if one_law else n))
        out = np.empty(n)
        for start, stop in zip(starts, starts[1:] + [n]):
            law = self.at(**{var: points[start]})._law
            out[start:stop] = value(law, rates[start:stop])
        return out


def _harvest_offset(c, ps, edge, q, m):
    # x - m = log1p(q/c) - log1p(-q/Ps) + (-A B - m) from q directly, as
    # ln((q + c)/(Ps - q)) rounds -A B + q/c + q/Ps onto -A B below about
    # 1e-19 W. q is clipped into [-c, Ps], mapped to x = -inf and inf.
    q = np.minimum(np.maximum(q, -c), ps)
    # scipy's log1p(-1) is -inf without a divide-by-zero warning
    return log1p(q / c) - log1p(q / -ps) + (edge - m)


def _harvest_log_slope(c, ps, q):
    return np.log((q + c) * (ps - q) / (ps + c))


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
    """Raw moment E[Q^n] for the aggregate of all branches: Ps^n times
    `series.expect` of (Q/Ps)^n over the offsets g = A r of the law."""
    if n < 1:
        raise DomainError(f"moment order must be >= 1, got n={n}")
    return scenario.model.Ps ** n * expect(scenario._law, _q_power(scenario.model, n))


def _q_fraction(model, g):
    """Q/Ps at the offset g = A r >= 0 of the law from its edge -A B:
    (1 - e^(-g)) / (1 + e^(A B) e^(-g)), taken as (e^(-g) - 1) /
    (-1 - e^(A B) e^(-g)), which rounds alike and saves a negation."""
    t = -g
    return np.expm1(t) / (-1.0 - math.exp(model.A * model.B) * np.exp(t))


def _q_power(model, n):
    """(Q/Ps)^n as a function of the offset g = A r of the law from its edge."""
    return lambda g: _q_fraction(model, g) ** n


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
        model = [float(payload["model"][k]) for k in ("A", "B", "Ps")]
        branches = [
            ([float(br[k]) for k in ("at", "ar", "fc", "d", "p")],
             [float(br["fading"][k]) for k in ("a", "b")])
            for br in payload["branches"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed scenario document: {exc}") from exc
    return MisoScenario(EHModel(*model), tuple(
        LinkBudget(*fields, fading=Pearson3Params(*fading, 0.0)) for fields, fading in branches))
