"""Seeded Monte Carlo and numeric-convolution oracles.

Everything here is an independent cross-check for the closed forms:
gamma/channel sampling, empirical CDFs and moments, KS distances, and
trapezoid-grid convolution of densities. A KS distance calls the CDF
several times, on sorted subsets of the sample, and evaluates it only
where the largest deviation can lie; this assumes the CDF is monotone to
within 1e-12 and gives each point the value a call on it alone would.
Samplers are deterministic per seed (PCG64 streams) so comparison
artifacts are reproducible.

Memory: the samplers and `empirical_moment` hold their result and blocks
of _DRAWS = 2^16 values, never a second whole-sample array (a KS distance
and an empirical CDF at an array of points sort a copy of the sample,
which they must not reorder in place). A sampler draws its first
component straight into the result and adds each later one through one
_DRAWS buffer, scaled and shifted in place; consecutive `standard_gamma`
calls continue one stream, so the draws are those of `rng.gamma` on the
whole sample, to the last bit. `sample_harvested` maps its received power
through the harvester in place, a block at a time, and `empirical_moment`
forms its powers and squared deviations a block at a time. The
convolution multiplies the real spectra of all its densities at one
length and inverts once. It takes its gamma masses from `scipy.special`
and its transforms from `scipy.fft`, as `scipy.stats.gamma` and
`scipy.signal.fftconvolve` do, without importing either; `scipy.fft` is
imported at its first call.
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
        """Strict JSON: an infinite or NaN value is written as null."""
        return json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                           for k, v in asdict(self).items()}, allow_nan=False)

    @staticmethod
    def build(statistic, analytic, empirical, scale, count, seed, tolerance):
        """The pass flag is |analytic - empirical| <= tolerance * scale, with
        the analytic value, the empirical value and the scale finite."""
        analytic, empirical, scale = float(analytic), float(empirical), float(scale)
        passed = (all(map(math.isfinite, (analytic, empirical, scale)))
                  and abs(analytic - empirical) <= tolerance * scale)
        return OracleReport(statistic, analytic, empirical, scale, int(count), int(seed),
                            float(tolerance), bool(passed))


_DRAWS = 1 << 16  # values of one block of a sampler or a moment


def sample_channel_gain(fading: Pearson3Params, seed: int, count: int) -> np.ndarray:
    """i.i.d. squared channel gains: gamma draws for a (a, b>0, m=0) triple."""
    if fading.b <= 0 or fading.m != 0:
        raise DomainError("channel gains require b > 0 and m = 0")
    return p3_sample(fading, seed, count)


def _summed_draws(seed, count, laws, scales=None):
    """The sum of `count` draws of each of `laws`, one law after another
    from the stream of `seed`, each law's draws times its factor of
    `scales` if given. The first law draws into the result, each later one
    _DRAWS at a time into one buffer that is added in."""
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    buf = np.empty(min(count, _DRAWS))
    for i, law in enumerate(laws):
        step = _DRAWS if i else max(count, 1)
        for start in range(0, count, step):
            part = out[start:start + step]
            g = law.draw_into(rng, buf[:part.size] if i else part)
            if scales is not None:
                g *= scales[i]
            if i:
                part += g
    return out


def sample_sum(spec: SumSpec, seed: int, count: int) -> np.ndarray:
    """Draws of SX_L: the components' draws, one after another from one
    stream, summed."""
    return _summed_draws(seed, count, spec.terms)


def sample_harvested(scenario, seed: int, count: int) -> np.ndarray:
    """Draws of the harvested power: per-branch gamma gains, one branch
    after another from one stream, each times its l p, summed and mapped
    through the nonlinear harvester in place, fully independent of the
    closed forms."""
    branches = scenario.branches
    r = _summed_draws(seed, count, [br.fading for br in branches],
                      [br.loss * br.p for br in branches])
    for start in range(0, count, _DRAWS):
        part = r[start:start + _DRAWS]
        part[...] = scenario.model.harvest(part)
    return r


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
    """Mean of x^n with its standard error; returns (moment, stderr).

    For n = 1 the mean is numpy's mean of the sample where that cannot
    overflow. The powers and their squared deviations from the mean are
    formed _DRAWS at a time, scaled by a power of two at or above the
    largest |x^n|: the scaling is exact, and neither a sum of powers nor
    one of squares overflows where the moment and its error are finite.
    A sample with an infinite or NaN power gives a NaN error."""
    x = np.asarray(samples, dtype=float).reshape(-1)
    size = x.size
    if size == 0:
        raise DomainError("empirical_moment needs at least one sample")
    blocks = [x[i:i + _DRAWS] for i in range(0, size, _DRAWS)]
    power = (lambda b: b) if n == 1 else (lambda b: b ** n)
    top = max(float(np.max(np.abs(power(b)))) for b in blocks)
    # |x^n| < 2^e, and the powers times 2^-e are the powers to the last bit
    e = max(math.frexp(top)[1], -1000) if top < math.inf else 0
    shrink = math.ldexp(1.0, -e)
    if n == 1 and top < np.finfo(float).max / size:
        mean = float(np.mean(x))
    else:
        mean = float(np.ldexp(sum(float(np.sum(power(b) * shrink)) for b in blocks) / size, e))
    if size == 1:
        return mean, math.inf
    if not top < math.inf:
        return mean, math.nan
    squares = 0.0
    for b in blocks:
        d = power(b) * shrink
        d -= mean * shrink
        squares += float(np.sum(np.square(d, out=d)))
    return mean, float(np.ldexp(math.sqrt(squares / (size - 1)) / math.sqrt(size), e))


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
    to the product of the input integrals. The densities of more than one
    value are convolved as `scipy.signal.fftconvolve` convolves two: the
    product of all their real transforms at the next fast length of the
    full result, transformed back once. A density of one value multiplies
    the result, as in `fftconvolve`. The result is scaled by dx per
    convolution and clipped at 0, so for two densities it is
    `fftconvolve`'s times dx, clipped, to the last bit.
    """
    gridded = list(gridded)
    if len(gridded) < 1:
        raise DomainError("need at least one density")
    dxs = {g.dx for g in gridded}
    if len(dxs) > 1:
        raise DomainError(f"incompatible grids: spacings {sorted(dxs)} differ")
    if len(gridded) == 1:
        return gridded[0]
    dx = gridded[0].dx
    # discrete index k = i + j + ... lands at the sum of the first midpoints + k*dx
    x0 = sum((g.x0 for g in gridded[1:]), gridded[0].x0)
    wide = [g.values for g in gridded if g.values.size != 1]
    ones = [g.values for g in gridded if g.values.size == 1]
    if len(wide) > 1:
        from scipy.fft import irfft, next_fast_len, rfft

        n = sum(v.size for v in wide) - len(wide) + 1
        s = next_fast_len(n, True)
        spectrum = rfft(wide[0], s)
        for v in wide[1:]:
            spectrum *= rfft(v, s)
        vals = irfft(spectrum, s)[:n]
    else:  # the product of two inputs, one of them of one value: a new array
        vals = (wide[0] if wide else ones.pop(0)) * ones.pop(0)
    for one in ones:
        vals *= one
    vals *= dx ** (len(gridded) - 1)
    return GriddedPdf(x0, dx, np.maximum(vals, 0.0, out=vals))


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
