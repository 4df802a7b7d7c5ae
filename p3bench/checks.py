"""Correctness checks, run after the timed passes.

Every reference is computed apart from the program: scipy.stats.gamma on
logit(z) for the Pearson III family, scipy.integrate.quad of the paper's
harvester formula (or of logistic(x)^n) against the gamma density,
Gil-Pelaez inversion of the characteristic function for sums, and seeded
numpy Monte Carlo where no one-dimensional reference exists. On top
of these come properties the method must have: CDFs in [0, 1] and
monotone, densities >= 0, logit moments in [0, 1] and not increasing with
n, mixture weights summing to 1, closed forms equal to their series.

Monte Carlo bounds are Z_MC standard errors, applied only where both tails
of the binomial count hold at least MIN_COUNT expected draws, so that the
normal approximation holds. With a few hundred such comparisons per run a
correct program fails one by chance far less than once in 10^6 runs.
"""

import cmath
import json
import math

import numpy as np
from scipy import integrate, special, stats

from p3family import logitp3, mc, sums
from p3family.pearson3 import Pearson3Params
from workloads import AR, AT, FC, MODEL

Z_MC = 6.5
MIN_COUNT = 100
KS_C = 3.27  # Kolmogorov bound with P(exceed) ~ 1e-9
MC_DRAWS = 400_000

SPEED_OF_LIGHT = 2.998e8
FIG_AB_PAIRS = ((3.0, 1.5), (3.0, -1.5), (2.0, 1.5), (2.0, -1.5))
FIG_PB_DISTANCES = (12.0, 10.0, 8.0)
FIG_FADING = (3.0, 1.0)


class Problems(list):
    def close(self, what, got, ref, rtol, atol=0.0):
        got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
        bad = ~(np.abs(got - ref) <= rtol * np.abs(ref) + atol)
        if got.shape != ref.shape:
            self.append(f"{what}: {got.shape[0] if got.ndim else 1} values, "
                        f"expected {ref.shape[0] if ref.ndim else 1}")
        elif np.any(bad):
            i = int(np.argmax(bad)) if got.ndim else 0
            g, r = got.ravel()[i], ref.ravel()[i]
            self.append(f"{what}: {np.count_nonzero(bad)} values off, e.g. {g!r} vs {r!r}")

    def require(self, what, ok):
        if not ok:
            self.append(what)

    def cdf_shape(self, what, values, increasing=True):
        v = np.asarray(values, dtype=float)
        self.require(f"{what}: CDF outside [0, 1]", np.all((v >= 0.0) & (v <= 1.0)))
        d = np.diff(v) if increasing else -np.diff(v)
        self.require(f"{what}: CDF not monotone", np.all(d >= -1e-15))

    def mc_fraction(self, what, value, hits, n):
        """Program probability `value` against a Monte Carlo fraction."""
        expected = value * n
        if min(expected, n - expected) < MIN_COUNT:
            return
        sigma = math.sqrt(value * (1.0 - value) / n)
        if abs(hits / n - value) > Z_MC * sigma:
            self.append(f"{what}: {value!r} vs Monte Carlo {hits / n!r} "
                        f"({abs(hits / n - value) / sigma:.1f} sigma)")

    def mc_mean(self, what, value, draws):
        sigma = float(np.std(draws, ddof=1)) / math.sqrt(draws.size)
        emp = float(np.mean(draws))
        if abs(emp - value) > Z_MC * sigma:
            self.append(f"{what}: {value!r} vs Monte Carlo {emp!r} "
                        f"({abs(emp - value) / sigma:.1f} sigma)")


# --------------------------------------------------------- references

def parse_csv(text):
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    return np.array(rows, dtype=float).reshape(-1, 2)


def figure_csv(res, fig, name):
    """The curve in file `name` as the `figure --id fig` operation wrote it."""
    files = dict(res[f"figure.{fig}"].files)
    if name not in files:
        raise KeyError(f"figure {fig} wrote no {name}")
    return parse_csv(files[name])


def sweep_curve(w, res, name):
    """(points, values) of a `--sweep` operation. The points are rebuilt
    from the sweep argument as the CLI builds them, since the CSV prints
    them to 12 digits only and densities near a support edge are sensitive
    to the last digits of their argument."""
    (op,) = [op for op in w.ops if op.name == name]
    (arg,) = [a for a in op.argv if a.startswith("--sweep=")]
    lo, hi, step = (float(v) for v in arg[len("--sweep="):].split(":")[-3:])
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    points = np.array([lo + step * i for i in range(count)])
    curve = parse_csv(res[name].out)
    if curve.shape[0] != count or not np.allclose(curve[:, 0], points, rtol=1e-11, atol=0.0):
        raise AssertionError(f"{name}: CSV points differ from the sweep argument")
    return points, curve[:, 1]


def report(result):
    return json.loads(result.out.strip().splitlines()[-1])


def p3_cdf_ref(a, b, m, x):
    """CDF of m + sign(b) Gamma(a)/|b| from scipy.stats.gamma."""
    u = b * (np.asarray(x, dtype=float) - m)
    return stats.gamma.cdf(u, a) if b > 0 else stats.gamma.sf(u, a)


def p3_pdf_ref(a, b, m, x):
    return abs(b) * stats.gamma.pdf(b * (np.asarray(x, dtype=float) - m), a)


def gamma_expect(fn, a, rate=1.0):
    """E[fn(G)] for G ~ Gamma(a, rate) by quad; the x^(a-1) factor near 0
    is the quadrature weight."""
    c = a * math.log(rate) - special.gammaln(a)
    head, _ = integrate.quad(lambda g: fn(g) * math.exp(c - rate * g), 0.0, 1.0,
                             weight="alg", wvar=(a - 1.0, 0.0), epsabs=0.0, epsrel=1e-12,
                             limit=200)
    tail, _ = integrate.quad(lambda g: fn(g) * math.exp(c + (a - 1.0) * math.log(g) - rate * g),
                             1.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return head + tail


def logistic(x):
    return special.expit(x)


def _shifted_cf(terms, x):
    """t -> E[exp(i t (S - x))] for S a sum of independent m + Gamma(a)/b terms."""
    def cf(t):
        return cmath.exp(sum(-u["a"] * cmath.log(1.0 - 1j * t / u["b"]) + 1j * t * u["m"]
                             for u in terms) - 1j * t * x)

    return cf


# Gil-Pelaez gives the CDF as 1/2 minus an integral, so its error is absolute:
# up to 2.2e-11 against a 40-digit evaluation over 370 points of these
# workloads. Small CDF values are compared to this floor, not relatively.
INVERSION_CDF_ATOL = 1e-9


def sum_cdf_ref(terms, x):
    """CDF of the sum at x by Gil-Pelaez inversion of its characteristic
    function (quad); the program uses the partial-fraction mixture instead."""
    cf = _shifted_cf(terms, x)
    v, _ = integrate.quad(lambda t: cf(t).imag / t if t > 0.0 else 0.0, 0.0, math.inf,
                          epsabs=1e-14, epsrel=1e-12, limit=1000)
    return 0.5 - v / math.pi


def sum_pdf_ref(terms, x):
    """Density of the sum at x by Fourier inversion (quad)."""
    cf = _shifted_cf(terms, x)
    v, _ = integrate.quad(lambda t: cf(t).real, 0.0, math.inf,
                          epsabs=1e-14, epsrel=1e-12, limit=1000)
    return v / math.pi


class Harvester:
    """The paper's logistic harvester and aperture path loss, with the
    constants of its reference figures."""

    def __init__(self):
        self.A, self.B, self.Ps = MODEL["A"], MODEL["B"], MODEL["Ps"]
        self.at, self.ar, self.fc = AT, AR, FC
        self.eab = math.exp(self.A * self.B)
        self.c = self.Ps / self.eab

    def q(self, r):
        """Harvested power at received power r."""
        return (self.Ps * (1.0 + self.eab)
                / (self.eab * (1.0 + np.exp(-self.A * (np.asarray(r) - self.B)))) - self.c)

    def r_at(self, q):
        """Received power at which the harvester delivers q."""
        return self.B - math.log(self.Ps * (1.0 + self.eab) / (self.eab * (q + self.c)) - 1.0) / self.A

    def loss(self, d):
        lam = SPEED_OF_LIGHT / self.fc
        return -math.expm1(-self.at * self.ar / (lam * lam * d * d))


def rng_for(w, tag):
    """A Monte Carlo stream of the checks, apart from any the program uses."""
    return np.random.default_rng([w.seed, sum(map(ord, w.name)), sum(map(ord, tag)), 7])


def mc_received(h, rng, distances, fading):
    """Per-branch l_i g_i draws (without transmit power)."""
    a, b = fading
    return [h.loss(d) * rng.gamma(a, 1.0 / b, MC_DRAWS) for d in distances]


# --------------------------------------------------------- workloads

def check_figure_curves(w, res, p):
    h = Harvester()
    for a, b in FIG_AB_PAIRS:
        tag = f"a{a:.12g}_b{b:.12g}".replace("-", "neg").replace(".", "p")
        cdf = figure_csv(res, "fig1", f"fig1_{tag}.csv")
        z = cdf[:, 0]
        p.close(f"fig1 {tag}", cdf[:, 1], p3_cdf_ref(a, b, 0.0, special.logit(z)), 1e-9, 1e-14)
        p.cdf_shape(f"fig1 {tag}", cdf[:, 1])
        pdf = figure_csv(res, "fig2", f"fig2_{tag}.csv")
        z = pdf[:, 0]
        p.close(f"fig2 {tag}", pdf[:, 1],
                p3_pdf_ref(a, b, 0.0, special.logit(z)) / (z * (1.0 - z)), 1e-9, 1e-14)
    fa, fb = FIG_FADING
    draws = mc_received(h, rng_for(w, "fig4"), FIG_PB_DISTANCES, FIG_FADING)
    for frac_name, frac in (("qt_ps_1_10", 0.1), ("qt_ps_1_20", 0.05)):
        r_t = h.r_at(frac * h.Ps)
        for L in (1, 2, 3):
            fig3 = figure_csv(res, "fig3", f"fig3_L{L}_{frac_name}.csv")
            ref = [stats.gamma.cdf(fb * r_t / (h.loss(d) * 2.0 / L), fa * L) for d in fig3[:, 0]]
            p.close(f"fig3 L={L} {frac_name}", fig3[:, 1], ref, 1e-9, 1e-14)
            p.cdf_shape(f"fig3 L={L} {frac_name}", fig3[:, 1])
            fig4 = figure_csv(res, "fig4", f"fig4_L{L}_{frac_name}.csv")
            p.cdf_shape(f"fig4 L={L} {frac_name}", fig4[:, 1], increasing=False)
            for power, value in fig4:
                if L == 1:
                    ref = stats.gamma.cdf(fb * r_t / (h.loss(FIG_PB_DISTANCES[0]) * power), fa)
                    p.close(f"fig4 L=1 P={power}", value, ref, 1e-9, 1e-14)
                else:
                    hits = np.count_nonzero(sum(draws[:L]) * (power / L) <= r_t)
                    p.mc_fraction(f"fig4 L={L} P={power}", value, hits, MC_DRAWS)

    for k, (a, b, m) in enumerate(w.data["logitp3"], start=1):
        z, cdf = sweep_curve(w, res, f"dist.logitp3.cdf.{k}")
        p.close(f"logitp3 cdf {k}", cdf, p3_cdf_ref(a, b, m, special.logit(z)), 1e-9, 1e-14)
        p.cdf_shape(f"logitp3 cdf {k}", cdf)
        z, pdf = sweep_curve(w, res, f"dist.logitp3.pdf.{k}")
        p.close(f"logitp3 pdf {k}", pdf,
                p3_pdf_ref(a, b, m, special.logit(z)) / (z * (1.0 - z)), 1e-9, 1e-14)
    a, b, m = w.data["logp3"]
    y, cdf = sweep_curve(w, res, "dist.logp3.cdf")
    p.close("logp3 cdf", cdf, p3_cdf_ref(a, b, m, np.log(y)), 1e-9, 1e-14)
    a, b, m = w.data["logitp3"][0]
    ref = gamma_expect(lambda g: logistic(m + g / b), a)
    p.close("logitp3 moment", float(res["dist.logitp3.moment"].out), ref, 1e-8)

    terms = w.data["sum3"]
    spec = sums.SumSpec(tuple(Pearson3Params(t["a"], t["b"], t["m"]) for t in terms))
    total = math.fsum(sums.xi0_recursive(spec, i, k)
                      for i in range(1, spec.L + 1) for k in range(1, spec.shape(i) + 1))
    p.close("sum3 weights sum", total, 1.0, 1e-9)
    xs, cdf = sweep_curve(w, res, "sum.cdf")
    p.cdf_shape("sum3 cdf", cdf)
    rng = rng_for(w, "sum3")
    s = sum(t["m"] + rng.gamma(t["a"], 1.0 / t["b"], MC_DRAWS) for t in terms)
    s.sort()
    step = max(1, len(xs) // 50)
    for x, value in zip(xs[::step], cdf[::step]):
        p.mc_fraction(f"sum3 cdf x={x}", value, np.searchsorted(s, x, side="right"), MC_DRAWS)
        p.close(f"sum3 cdf x={x} vs inversion", value, sum_cdf_ref(terms, x), 1e-9,
                INVERSION_CDF_ATOL)

    fa, fb = w.data["wpt"]["fading"]
    distances = w.data["wpt"]["distances"]
    r_t = h.r_at(w.data["wpt"]["qt_frac"] * h.Ps)
    draws = mc_received(h, rng_for(w, "wpt"), distances, (fa, fb))
    for L in (1, 2, 3):
        ds, by_d = sweep_curve(w, res, f"wpt.outage.distance.L{L}")
        p.cdf_shape(f"outage L={L} over distance", by_d)
        ref = [stats.gamma.cdf(fb * r_t / (h.loss(d) * 2.0 / L), fa * L) for d in ds]
        p.close(f"outage L={L} over distance", by_d, ref, 1e-9, 1e-14)
        powers, by_p = sweep_curve(w, res, f"wpt.outage.power.L{L}")
        p.cdf_shape(f"outage L={L} over power", by_p, increasing=False)
        if L == 1:
            ref = [stats.gamma.cdf(fb * r_t / (h.loss(distances[0]) * power), fa)
                   for power in powers]
            p.close("outage L=1 over power", by_p, ref, 1e-9, 1e-14)
        else:
            received = sum(draws[:L])
            for power, value in zip(powers, by_p):
                hits = np.count_nonzero(received * (power / L) <= r_t)
                p.mc_fraction(f"outage L={L} P={power}", value, hits, MC_DRAWS)


def check_moment_series(w, res, p):
    h = Harvester()
    fa, fb = FIG_FADING
    draws = mc_received(h, rng_for(w, "fig6"), FIG_PB_DISTANCES, FIG_FADING)
    for fig in ("fig5", "fig6"):
        if f"figure.{fig}" not in res:
            continue
        for L in (1, 2, 3):
            curve = figure_csv(res, fig, f"{fig}_L{L}.csv")
            for x, value in curve:
                if fig == "fig5":  # L equal branches at distance x share one gamma
                    ref = gamma_expect(lambda g: h.q(h.loss(x) * 2.0 / L * g / fb), fa * L)
                    p.close(f"fig5 L={L} d={x}", value, ref, 1e-8)
                elif L == 1:
                    ref = gamma_expect(lambda g: h.q(h.loss(FIG_PB_DISTANCES[0]) * x * g / fb), fa)
                    p.close(f"fig6 L=1 P={x}", value, ref, 1e-8)
                else:
                    p.mc_mean(f"fig6 L={L} P={x}", value, h.q(sum(draws[:L]) * (x / L)))
    fa, fb = w.data["wpt"]["fading"]
    distances = w.data["wpt"]["distances"]
    draws = mc_received(h, rng_for(w, "wpt"), distances, (fa, fb))
    for L in (1, 2, 3):
        value = float(res[f"wpt.moment.L{L}"].out)
        if L == 1:
            ref = gamma_expect(lambda g: h.q(h.loss(distances[0]) * 2.0 * g / fb) ** 2, fa)
            p.close("wpt moment n=2 L=1", value, ref, 1e-8)
        else:
            p.mc_mean(f"wpt moment n=2 L={L}", value, h.q(sum(draws[:L]) * (2.0 / L)) ** 2)

    for kind, triples in w.data["ltp3"].items():
        for j, (a, b, m) in enumerate(triples):
            got = [res[f"ltp3_moment.{kind}.{j}.n{n}"] for n in (1, 2, 3)]
            where = f"ltp3_moment({a!r}, {b!r}, {m!r})"
            p.require(f"{where}: moments outside [0, 1]: {got}",
                      all(0.0 <= v <= 1.0 for v in got))
            p.require(f"{where}: moments increase with n: {got}",
                      got[0] >= got[1] >= got[2])
            for n, v in zip((1, 2, 3), got):
                ref = gamma_expect(lambda g: logistic(m + math.copysign(g, b) / abs(b)) ** n, a)
                p.close(f"{where} n={n}", v, ref, 1e-8, 1e-13)
    for j, (a, b, m) in enumerate(w.data["ltp3"]["pos_shift"]):
        p.close(f"ltp3_mean_closed({a!r}, {b!r}, {m!r}) vs series",
                res[f"ltp3_mean_closed.{j}"], res[f"ltp3_moment.pos_shift.{j}.n1"], 1e-9)
        p.close(f"ltp3_second_moment_closed({a!r}, {b!r}, {m!r}) vs series",
                res[f"ltp3_second_moment_closed.{j}"], res[f"ltp3_moment.pos_shift.{j}.n2"], 1e-9)
    for j, (z, s, alpha) in enumerate(w.data["lerch"]):
        # Phi(z, s, alpha) = (1/Gamma(s)) int_0^inf t^(s-1) e^(-alpha t) / (1 - z e^(-t)) dt
        ref = gamma_expect(lambda t: 1.0 / (1.0 - z * math.exp(-t)), s, alpha) * alpha ** (-s)
        p.close(f"lerch_phi({z!r}, {s!r}, {alpha!r})", res[f"lerch_phi.{j}"], ref, 1e-9)
    a, b, m = w.data["p3_moment"]
    p.close("p3 moment n=3", float(res["dist.p3.moment"].out),
            stats.gamma(a, loc=m, scale=1.0 / b).moment(3), 1e-10)
    p.close("logp3 moment n=1", float(res["dist.logp3.moment"].out),
            gamma_expect(lambda g: math.exp(min(m + g / b, 700.0)), a), 1e-9)


def check_mc_oracle(w, res, p):
    h = Harvester()
    for name in ("compare.dist.logitp3", "compare.dist.logp3", "compare.sums.cdf"):
        r = report(res[name])
        p.require(f"{name}: KS distance {r['empirical']!r} above {KS_C}/sqrt({r['count']})",
                  r["empirical"] <= KS_C / math.sqrt(r["count"]))
    a, b, m = w.data["dist.logitp3"]
    zs = np.linspace(0.02, 0.98, 25)
    p.close("ltp3_cdf spot values", [logitp3.ltp3_cdf(Pearson3Params(a, b, m), z) for z in zs],
            p3_cdf_ref(a, b, m, special.logit(zs)), 1e-9, 1e-14)

    terms = w.data["sum3"]
    exact_mean = math.fsum(t["m"] + t["a"] / t["b"] for t in terms)
    r = report(res["compare.sums.mean"])
    p.close("sums.mean analytic", r["analytic"], exact_mean, 1e-10)
    p.require(f"sums.mean: {r['empirical']!r} vs {r['analytic']!r} beyond {Z_MC} sigma",
              abs(r["empirical"] - r["analytic"]) <= Z_MC * r["scale"])

    d, qt_frac, power = (w.data["wpt"][k] for k in ("d", "qt_frac", "power"))
    fa, fb = FIG_FADING
    r = report(res["compare.wpt.cdf"])
    ref = stats.gamma.cdf(fb * h.r_at(qt_frac * h.Ps) / (h.loss(d) * 2.0 / 3), fa * 3)
    p.close("wpt.cdf analytic", r["analytic"], ref, 1e-9, 1e-14)
    p.mc_fraction("wpt.cdf empirical", r["analytic"], round(r["empirical"] * r["count"]), r["count"])
    r = report(res["compare.wpt.mean"])
    q = h.q(sum(mc_received(h, rng_for(w, "wpt.mean"), FIG_PB_DISTANCES, FIG_FADING))
            * (power / 3))
    p.mc_mean("wpt.mean analytic", r["analytic"], q)
    p.mc_mean("wpt.mean empirical", r["empirical"], q)

    grid = res["convolve_p3_components"]
    p.close("convolution mass", grid.integral(), 1.0, 0.0, 1e-6)
    p.close("convolution mean", float(np.sum(grid.x * grid.values) * grid.dx), exact_mean,
            0.0, 3 * grid.dx)
    spec = sums.SumSpec(tuple(Pearson3Params(t["a"], t["b"], t["m"]) for t in terms))
    sd = math.sqrt(math.fsum(t["a"] / t["b"] ** 2 for t in terms))
    xs = exact_mean + sd * np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    xs = xs[xs > spec.sm + 0.1]
    p.close("convolution density", grid.at(xs), [sums.sum_pdf(spec, x) for x in xs], 1e-3)


def check_sum_mixtures(w, res, p):
    for L, spec_data in w.data["specs"].items():
        spec = res[f"SumSpec.L{L}"]
        p.require(f"L={L}: regime {spec.regime}", spec.regime == sums.DISTINCT_RATES)
        terms = spec_data["terms"]
        rng = rng_for(w, f"L{L}")
        s = sum(t["m"] + rng.gamma(t["a"], 1.0 / t["b"], MC_DRAWS) for t in terms)
        s.sort()
        sd = math.sqrt(math.fsum(t["a"] / t["b"] ** 2 for t in terms))
        half = 0.25 * sd
        xs = spec_data["xs"]
        for fname in ("sum_cdf", "logsum_cdf", "logitsum_cdf"):
            p.cdf_shape(f"{fname} L={L}", [res[f"{fname}.L{L}.{j}"] for j in range(len(xs))])
        for j, x in enumerate(xs):
            hits = np.searchsorted(s, x, side="right")
            ref_cdf = sum_cdf_ref(terms, x)
            for fname in ("sum_cdf", "logsum_cdf", "logitsum_cdf"):
                p.mc_fraction(f"{fname} L={L} x={x}", res[f"{fname}.L{L}.{j}"], hits, MC_DRAWS)
                p.close(f"{fname} L={L} x={x} vs inversion", res[f"{fname}.L{L}.{j}"], ref_cdf,
                        1e-9, INVERSION_CDF_ATOL)
            f = res[f"sum_pdf.L{L}.{j}"]
            p.close(f"sum_pdf L={L} x={x} vs inversion", f, sum_pdf_ref(terms, x), 1e-9, 1e-13)
            p.require(f"sum_pdf L={L} x={x} negative", f >= 0.0)
            # Mass of [x - half, x + half] by Simpson's rule against the draws.
            mass = half / 3.0 * (sums.sum_pdf(spec, x - half) + 4.0 * f
                                 + sums.sum_pdf(spec, x + half))
            hits = np.searchsorted(s, x + half) - np.searchsorted(s, x - half)
            p.mc_fraction(f"sum_pdf L={L} x={x} bin mass", mass, hits, MC_DRAWS)
            z = logistic(x)
            p.close(f"logsum_pdf L={L} x={x} Jacobian", res[f"logsum_pdf.L{L}.{j}"] * math.exp(x),
                    f, 1e-9, 1e-300)
            p.close(f"logitsum_pdf L={L} x={x} Jacobian",
                    res[f"logitsum_pdf.L{L}.{j}"] * z * (1.0 - z), f, 1e-9, 1e-300)
    L = w.data["cli_L"]
    p.close("sum cdf through the CLI", float(res["sum.cdf.cli"].out), res[f"sum_cdf.L{L}.1"], 1e-11)
    p.close("sum logit pdf through the CLI", float(res["sum.logit.pdf.cli"].out),
            res[f"logitsum_pdf.L{L}.1"], 1e-11)


_CHECKS = {
    "figure_curves": check_figure_curves,
    "moment_series": check_moment_series,
    "mc_oracle": check_mc_oracle,
    "sum_mixtures": check_sum_mixtures,
}


def check(w, results):
    """Problems found in the results of one pass of workload `w`."""
    p = Problems()
    failed = [name for name, r in results.items() if isinstance(r, Exception)]
    if failed:
        return [f"operations raised: {', '.join(failed)}"]
    _CHECKS[w.name](w, results, p)
    return list(p)
