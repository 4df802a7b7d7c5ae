"""Inputs of the paper's reference figures.

The logistic harvester constants, antenna apertures and carrier, and the
common gamma fading of every branch; the distance and power grids that
fig3-fig6 sweep, the (a, b) pairs of fig1 and fig2, and the two
scenarios the harvesting figures are drawn for.
"""

from .errors import DomainError
from .pearson3 import Pearson3Params
from .wpt import EHModel, LinkBudget, MisoScenario

FIG_MODEL = EHModel(A=150.0, B=0.014, Ps=0.024)
FIG_FADING = Pearson3Params(3.0, 1.0, 0.0)
FIG_AT, FIG_AR, FIG_FC = 0.5, 0.01, 2.4e9
FIG_TOTAL_POWER = 2.0
FIG_PB_DISTANCES = (12.0, 10.0, 8.0)
FIG_D_GRID = [4.0 + i for i in range(17)]           # 4..20 m
FIG_P_GRID = [0.5 + 0.25 * i for i in range(15)]    # 0.5..4 W
FIG_AB_PAIRS = ((3.0, 1.5), (3.0, -1.5), (2.0, 1.5), (2.0, -1.5))


def _fig_link(d, p):
    return LinkBudget(FIG_AT, FIG_AR, FIG_FC, d, p, FIG_FADING)


def equal_split_scenario(L: int, d: float, total_power: float = FIG_TOTAL_POWER):
    """One power beacon with L antennas at distance d, power split equally."""
    return MisoScenario(
        FIG_MODEL, tuple(_fig_link(d, total_power / L) for _ in range(L))
    )


def beacon_field_scenario(L: int, total_power: float = FIG_TOTAL_POWER):
    """L = 1..3 single-antenna power beacons at the staggered reference distances."""
    if not 1 <= L <= len(FIG_PB_DISTANCES):
        raise DomainError(f"the beacon field has 1..3 beacons, got L={L}")
    return MisoScenario(
        FIG_MODEL,
        tuple(_fig_link(d, total_power / L) for d in FIG_PB_DISTANCES[:L]),
    )
