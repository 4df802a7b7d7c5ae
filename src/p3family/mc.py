"""Seeded Monte Carlo and numeric-convolution oracles.

Everything here is an independent cross-check for the closed forms:
gamma/channel sampling, empirical CDFs and moments, KS distances, and
trapezoid-grid convolution of densities. A KS distance calls the CDF
several times, on sorted subsets of the sample, and evaluates it only
where the largest deviation can lie; this assumes the CDF is monotone to
within 1e-12 and gives each point the value a call on it alone would.
Samplers are deterministic per seed (PCG64 streams) so comparison
artifacts are reproducible. Their draws fill one reused buffer, scaled
and shifted in place: a sampler holds the buffer and its result,
whatever the number of components, and gives the values of `rng.gamma`
from the same stream. The convolution takes its
gamma masses from `scipy.special` and its transforms from `scipy.fft`, as
`scipy.stats.gamma` and `scipy.signal.fftconvolve` do, without importing
either.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .pearson3 import Pearson3Params, p3_sample
from .sums import SumSpec

__all__ = [
    "OracleReport",
    "sample_channel_gain",
    "sample_sum",
    "sample_harvested",
    "empirical_cdf",
    "ks_distance",
    "ks_threshold",
    "empirical_moment",
    "GriddedPdf",
    "sample_pdf_on_grid",
    "convolve_pdfs_numeric",
    "convolve_p3_components",
]


@dataclass(frozen=True)
class OracleReport:
    """Result of one analytic-vs-empirical comparison."""

    statistic: str
    analytic: float
    empirical: float
    scale: float  # standard error or sup-distance threshold
    count: int
    seed: int
    tolerance: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def build(statistic, analytic, empirical, scale, count, seed, tolerance):
        """The pass flag is |analytic - empirical| <= tolerance * scale."""
        passed = abs(analytic - empirical) <= tolerance * scale
        return OracleReport(statistic, float(analytic), float(empirical),
                            float(scale), int(count), int(seed),
                            float(tolerance), bool(passed))


def sample_channel_gain(fading: Pearson3Params, seed: int, count: int) -> np.ndarray:
    """i.i.d. squared channel gains: gamma draws for a (a, b>0, m=0) triple."""
    if fading.b <= 0 or fading.m != 0:
        raise DomainError("channel gains require b > 0 and m = 0")
    return p3_sample(fading, seed, count)


def sample_sum(spec: SumSpec, seed: int, count: int) -> np.ndarray:
    """Draws of SX_L: the components' draws, one after another from one
    stream, each into one reused buffer, summed."""
    rng = np.random.default_rng(seed)
    out = np.zeros(count)
    g = np.empty(count)
    for t in spec.terms:
        out += t.draw_into(rng, g)
    return out


def sample_harvested(scenario, seed: int, count: int) -> np.ndarray:
    """Draws of the harvested power: per-branch gamma gains, each drawn
    into one reused buffer, through the nonlinear harvester, fully
    independent of the closed forms."""
    rng = np.random.default_rng(seed)
    r = np.zeros(count)
    g = np.empty(count)
    for br in scenario.branches:
        br.fading.draw_into(rng, g)
        g *= br.loss * br.p
        r += g
    del g  # not held while the harvester maps r
    return scenario.model.harvest(r)


def empirical_cdf(samples, x):
    """Fraction of samples <= x, at a point x (a float) or at each point of
    an array x (an array of that shape); 0 at a NaN x."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise DomainError("empirical_cdf needs at least one sample")
    if np.ndim(x) == 0:
        return float(np.count_nonzero(samples <= x)) / samples.size
    # NaN samples sort last, above every x, as they compare false with it
    counts = np.searchsorted(np.sort(samples, axis=None), x, side="right")
    return np.where(np.isnan(x), 0, counts) / samples.size


# ks_distance first evaluates every _KS_STRIDE-th draw, then splits each gap
# that may hold the largest deviation into _KS_SPLIT parts; past a step
# down of more than _KS_SLACK it evaluates every draw.
_KS_STRIDE = 1024
_KS_SPLIT = 4
_KS_SLACK = 1e-12


def ks_distance(samples, cdf_fn) -> float:
    """Sup distance between the empirical CDF and an analytic CDF.

    `cdf_fn` must be vectorized: it is called several times, each time on
    an array of some of the sorted draws in ascending order, and must
    return an array of that shape (the library CDFs do); any other shape
    raises DomainError. The draws it is first called on, every 1024th
    and the last, include the sample's minimum and maximum.

    On a sorted sample a monotone F keeps a draw i that lies between the
    evaluated draws j < k within max(k/n - F_j, F_k - (j+1)/n) of the
    empirical CDF. Only the draws of a gap whose bound could still exceed
    the largest deviation found are evaluated, so the distance is the one
    of the whole staircase, bit for bit, from some 1-3% of the draws. This
    assumes that F is monotone to within 1e-12 and that each element's
    value does not depend on the other points of a call. Where the
    evaluated values hold a NaN or step down by more than 1e-12, every
    draw is evaluated, so a NaN gives NaN and a non-monotone `cdf_fn` the
    distance of the whole staircase.
    """
    samples = np.sort(np.asarray(samples), axis=None)
    n = samples.size
    if n == 0:
        raise DomainError("ks_distance needs at least one sample")
    f = np.empty(n)
    done = np.zeros(n, dtype=bool)
    new = np.unique(np.r_[0:n:_KS_STRIDE, n - 1])
    while new.size:
        x = samples[new]
        fx = np.asarray(cdf_fn(x), dtype=float)
        if fx.shape != x.shape:
            raise DomainError(
                f"cdf_fn returned shape {fx.shape} for samples of shape {x.shape}; "
                "it must be vectorized"
            )
        f[new] = fx
        done[new] = True
        # both staircase differences at each evaluated draw i: (i+1)/n - F_i
        # and F_i - i/n (the integers are exact in floating point)
        at = np.flatnonzero(done)
        fa = f[at]
        ks = float(max(np.max((at + 1.0) / n - fa), np.max(fa - at / n)))
        if np.isnan(ks) or np.any(np.diff(fa) < -_KS_SLACK):
            new = np.flatnonzero(~done)
            continue
        j, k = at[:-1], at[1:]
        bound = np.maximum(k / n - fa[:-1], fa[1:] - (j + 1.0) / n)
        wide = (k - j > 1) & (bound + _KS_SLACK > ks)
        j, k = j[wide, None], k[wide, None]
        new = np.unique(j + (k - j) * np.arange(1, _KS_SPLIT) // _KS_SPLIT)
        new = new[~done[new]]
    return ks


def ks_threshold(count: int, critical: float = 1.63) -> float:
    """Asymptotic KS pass threshold (default alpha ~ 0.01)."""
    return critical / math.sqrt(count)


def empirical_moment(samples, n: int):
    """Mean of x^n with its standard error; returns (moment, stderr)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("empirical_moment needs at least one sample")
    powers = samples if n == 1 else samples ** n
    mean = float(np.mean(powers))
    if samples.size == 1:
        return mean, math.inf
    se = float(np.std(powers, ddof=1) / math.sqrt(samples.size))
    return mean, se


@dataclass(frozen=True)
class GriddedPdf:
    """A density sampled at uniformly spaced cell midpoints."""

    x0: float  # first midpoint
    dx: float
    values: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    def integral(self) -> float:
        return float(np.sum(self.values) * self.dx)

    def at(self, x) -> np.ndarray:
        """Linear interpolation onto arbitrary points."""
        return np.interp(x, self.x, self.values)


def sample_pdf_on_grid(pdf, lo: float, hi: float, dx: float) -> GriddedPdf:
    """Sample a vectorized density at midpoints of [lo, hi] cells of width
    dx, in one call on the array of midpoints."""
    n = max(1, int(round((hi - lo) / dx)))
    xs = lo + dx * (np.arange(n) + 0.5)
    return GriddedPdf(float(xs[0]), dx, np.asarray(pdf(xs), dtype=float))


def convolve_pdfs_numeric(gridded) -> GriddedPdf:
    """Convolve midpoint-sampled densities on a common spacing.

    Midpoint-rule convolution: exact up to O(dx^2); the result integrates
    to the product of the input integrals.
    """
    gridded = list(gridded)
    if len(gridded) < 1:
        raise DomainError("need at least one density")
    dxs = {g.dx for g in gridded}
    if len(dxs) > 1:
        raise DomainError(f"incompatible grids: spacings {sorted(dxs)} differ")
    out = gridded[0]
    for g in gridded[1:]:
        vals = _fftconvolve(out.values, g.values) * out.dx
        # Discrete index k = i + j lands at x0a + x0b + k*dx.
        out = GriddedPdf(out.x0 + g.x0, out.dx, np.maximum(vals, 0.0, out=vals))
    return out


def _fftconvolve(x, y):
    """The full linear convolution of two 1-d arrays, as
    `scipy.signal.fftconvolve` forms it: the product of their real
    transforms at the next fast length, transformed back, or for an input
    of one value the plain product."""
    from scipy.fft import irfft, next_fast_len, rfft

    if x.size == 1 or y.size == 1:
        return x * y
    n = x.size + y.size - 1
    s = next_fast_len(n, True)
    return irfft(rfft(x, s) * rfft(y, s), s)[:n]


def convolve_p3_components(spec: SumSpec, dx: float = 2e-4,
                           mass_tol: float = 1e-13) -> GriddedPdf:
    """Numeric convolution oracle for the density of SX_L.

    Components are discretized to exact per-cell masses using the scipy
    regularized gamma function and its inverse (the ufuncs behind
    `scipy.stats.gamma`, independent of the closed forms under test), so support
    edges are handled exactly; the convolved result is the true density
    smoothed by L uniform kernels of width dx, an O(dx^2) effect at
    points further than L*dx from the support edge. Mirrored supports
    (b < 0) convolve the same way, the grids simply run over negative
    offsets.
    """
    from scipy.special import gammainc, gammaincinv

    grids = []
    for t in spec.terms:
        width = float(gammaincinv(t.a, 1.0 - mass_tol) / abs(t.b))
        n = int(math.ceil(width / dx))
        edges_u = np.arange(n + 1) * dx * abs(t.b)  # gamma-variate units
        masses = np.diff(gammainc(t.a, edges_u))
        if t.b > 0:
            x0 = t.m + 0.5 * dx
            vals = masses / dx
        else:
            x0 = t.m - (n - 0.5) * dx
            vals = masses[::-1] / dx
        grids.append(GriddedPdf(x0, dx, vals))
    return convolve_pdfs_numeric(grids)
