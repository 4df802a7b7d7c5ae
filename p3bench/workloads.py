"""Workload inputs generated from a seed, and the operations of one pass.

Every workload draws its parameters from fixed strata (a fixed cell, a
uniform draw inside it), so a seed changes the values the program sees but
not how much work a pass holds. Parameter ranges stay inside the safe
domain described in README.md.

A pass is a fixed list of operations. A CLI operation calls
`p3family.cli.main` in-process with its output captured; a library
operation calls a public function. Functions are looked up through their
module at call time, so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from p3family import cli, logitp3, mc, specfun, sums
from p3family.pearson3 import Pearson3Params

# The reference-figure setup of the paper: logistic harvester constants,
# antenna apertures and carrier.
MODEL = {"A": 150.0, "B": 0.014, "Ps": 0.024}
AT, AR, FC = 0.5, 0.01, 2.4e9
TOTAL_POWER = 2.0


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str
    files: tuple = ()  # (name, contents) of the files the call wrote


@dataclass
class Op:
    """One user-level operation of a pass."""

    name: str
    fn: object
    argv: list = None  # set for CLI operations
    writes: tuple = ()  # (directory, file-name prefix) of the files a CLI call writes

    def written(self):
        """Paths of the files this operation writes, as they exist now."""
        if not self.writes:
            return []
        directory, prefix = self.writes
        if not os.path.isdir(directory):
            return []
        return sorted(os.path.join(directory, f) for f in os.listdir(directory)
                      if f.startswith(prefix))


def cli_op(name, argv, writes=()):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    return Op(name, run, argv, writes)


def op_failed(op, result):
    """A CLI call fails when it exits with a library error (2 or 3).

    Exit code 4 of `compare` is the oracle's verdict, checked apart with
    the benchmark's own bounds, not a failure to run the operation.
    """
    return op.argv is not None and result.code not in (0, 4)


def _same(a, b):
    if isinstance(a, mc.GriddedPdf):
        return a.x0 == b.x0 and a.dx == b.dx and np.array_equal(a.values, b.values)
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def differing_outputs(first, later):
    """Names of the operations whose output differs between two passes;
    the program is deterministic, so there must be none."""
    return {name for name in first if not _same(first[name], later[name])}


@dataclass
class Workload:
    name: str
    seed: int
    ops: list = field(default_factory=list)
    data: dict = field(default_factory=dict)  # inputs the checks need

    def add_cli(self, name, *argv, writes=()):
        self.ops.append(cli_op(name, [str(a) for a in argv], writes))

    def add_figure(self, fig, fig_dir):
        """`figure --id fig`, which writes the files `fig_*.csv`."""
        self.add_cli(f"figure.{fig}", "figure", "--id", fig, "--out", fig_dir,
                     writes=(fig_dir, f"{fig}_"))

    def add_call(self, name, fn):
        self.ops.append(Op(name, fn))


# ------------------------------------------------------------- helpers

def sweep(lo, hi, n):
    """A `start:stop:step` argument with exactly n points."""
    return f"{lo!r}:{hi!r}:{(hi - lo) / (n - 1)!r}"


def sweep_arg(lo, hi, n):
    # `--sweep=...` keeps argparse from reading a negative start as an option.
    return f"--sweep={sweep(lo, hi, n)}"


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def scenario_doc(distances, power_each, fading_a, fading_b):
    return {
        "model": MODEL,
        "branches": [
            {"at": AT, "ar": AR, "fc": FC, "d": d, "p": power_each,
             "fading": {"a": fading_a, "b": fading_b}}
            for d in distances
        ],
    }


def staggered_distances(rng, strata):
    """One distance per stratum, in seeded order."""
    ds = [rng.uniform(lo, hi) for lo, hi in strata]
    rng.shuffle(ds)
    return ds


def sum3_terms(rng):
    """L = 3 terms with shapes (1, 2, 3) and well separated rates, so the
    mixture weights stay small and the float mixture path is used."""
    b1 = rng.uniform(0.8, 1.25)
    rates = [b1, b1 * rng.uniform(1.6, 2.0), b1 * rng.uniform(2.8, 3.4)]
    return [{"a": a, "b": b, "m": rng.uniform(-0.3, 0.3)} for a, b in zip((1, 2, 3), rates)]


def cells(rng, ranges, splits):
    """One uniform draw in each cell of a `splits`-per-axis grid."""
    out = [[]]
    for lo, hi in ranges:
        width = (hi - lo) / splits
        out = [prev + [lo + width * (j + rng.random())] for prev in out for j in range(splits)]
    return out


# ----------------------------------------------------------- workloads

def figure_curves(w, rng, out_dir, tiny):
    n_dist, n_sum, n_wpt = (600, 200, 12) if tiny else (30000, 10000, 200)
    fig_dir = os.path.join(out_dir, "figs")
    for fig in ("fig1", "fig2", "fig3", "fig4"):
        w.add_figure(fig, fig_dir)

    dists = []
    for sign in (1.0, -1.0):
        a, b, m = rng.uniform(1.5, 4.0), sign * rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5)
        dists.append((a, b, m))
        params = ("--a", a, "--b", b, "--m", m)
        w.add_cli(f"dist.logitp3.cdf.{len(dists)}", "dist", "logitp3", "cdf", *params,
                  sweep_arg(0.0005, 0.9995, n_dist))
        lo, hi = (logistic(m), 1.0) if b > 0 else (0.0, logistic(m))
        w.add_cli(f"dist.logitp3.pdf.{len(dists)}", "dist", "logitp3", "pdf", *params,
                  sweep_arg(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), n_dist))
    w.data["logitp3"] = dists
    a, b, m = rng.uniform(1.5, 4.0), rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5)
    w.data["logp3"] = (a, b, m)
    w.add_cli("dist.logp3.cdf", "dist", "logp3", "cdf", "--a", a, "--b", b, "--m", m,
              sweep_arg(0.5 * math.exp(m), 8.0 * math.exp(m), n_dist // 6))
    a, b, m = dists[0]
    w.add_cli("dist.logitp3.moment", "dist", "logitp3", "moment",
              "--a", a, "--b", b, "--m", m, "--n", 1)

    terms = sum3_terms(rng)
    w.data["sum3"] = terms
    spec_path = write_json(os.path.join(out_dir, "sum3.json"), {"terms": terms})
    sm = math.fsum(t["m"] for t in terms)
    span = 3.0 * math.fsum(t["a"] / t["b"] for t in terms)
    # The sweep starts 2% of its span above the support edge: closer in, the
    # float mixture's rounding error exceeds the CDF (see CHANGES.md).
    w.add_cli("sum.cdf", "sum", "--spec", spec_path, "--quantity", "cdf",
              sweep_arg(sm + 0.02 * span, sm + span, n_sum))

    fading_b = 3.0 * rng.uniform(0.8, 1.25)
    distances = staggered_distances(rng, ((7.0, 8.5), (9.5, 11.0), (12.0, 13.5)))
    qt_frac = rng.uniform(0.05, 0.15)
    w.data["wpt"] = {"fading": (3.0, fading_b), "distances": distances, "qt_frac": qt_frac}
    for L in (1, 2, 3):
        path = write_json(os.path.join(out_dir, f"scenario_L{L}.json"),
                          scenario_doc(distances[:L], TOTAL_POWER / L, 3.0, fading_b))
        for var, lo, hi in (("distance", 4.0, 20.0), ("power", 0.5, 4.0)):
            w.add_cli(f"wpt.outage.{var}.L{L}", "wpt", "--scenario", path,
                      "--quantity", "outage", "--qt-frac", qt_frac,
                      f"--sweep={var}:{sweep(lo, hi, n_wpt)}")


def moment_series(w, rng, out_dir, tiny):
    fig_dir = os.path.join(out_dir, "figs")
    for fig in ("fig5",) if tiny else ("fig5", "fig6"):
        w.add_figure(fig, fig_dir)

    fading_b = 3.0 * rng.uniform(0.8, 1.25)
    distances = staggered_distances(rng, ((4.5, 6.0), (7.0, 9.0), (10.0, 12.0)))
    w.data["wpt"] = {"fading": (3.0, fading_b), "distances": distances}
    for L in (1, 2, 3):
        path = write_json(os.path.join(out_dir, f"scenario_L{L}.json"),
                          scenario_doc(distances[:L], TOTAL_POWER / L, 3.0, fading_b))
        w.add_cli(f"wpt.moment.L{L}", "wpt", "--scenario", path, "--quantity", "moment",
                  "--n", 2)

    # (a, b, m) strata of ltp3_moment: m >= 0 (positive-shift series),
    # m < 0 (split incomplete-gamma series) and b < 0 (reflection). Shifts
    # stay above -0.7 on both split paths: below it the cost of one call
    # jumps up to tenfold at scattered points (see CHANGES.md), which would
    # make a pass's work depend on the seed.
    splits = 1 if tiny else 2
    strata = {
        "pos_shift": cells(rng, ((0.5, 5.0), (0.8, 5.0), (0.0, 1.5)), splits),
        "split": cells(rng, ((0.5, 5.0), (0.8, 5.0), (-0.7, -0.1)), splits),
        "reflection": [(a, -b, m) for a, b, m in
                       cells(rng, ((0.5, 3.0), (1.5, 5.0), (0.0, 0.6)), splits)],
    }
    w.data["ltp3"] = strata
    for kind, triples in strata.items():
        for j, (a, b, m) in enumerate(triples):
            p = Pearson3Params(a, b, m)
            for n in (1, 2, 3):
                w.add_call(f"ltp3_moment.{kind}.{j}.n{n}",
                           lambda p=p, n=n: logitp3.ltp3_moment(p, n))
    for j, (a, b, m) in enumerate(strata["pos_shift"]):
        p = Pearson3Params(a, b, m)
        w.add_call(f"ltp3_mean_closed.{j}", lambda p=p: logitp3.ltp3_mean_closed(p))
        w.add_call(f"ltp3_second_moment_closed.{j}",
                   lambda p=p: logitp3.ltp3_second_moment_closed(p))
    lerch = [(-z, s, alpha) for z, s, alpha in
             cells(rng, ((0.2, 1.0), (0.5, 4.0), (0.5, 8.0)), splits)]
    w.data["lerch"] = lerch
    for j, (z, s, alpha) in enumerate(lerch):
        w.add_call(f"lerch_phi.{j}", lambda z=z, s=s, alpha=alpha: specfun.lerch_phi(z, s, alpha))

    a, b, m = rng.uniform(1.5, 4.0), rng.uniform(1.5, 3.0), rng.uniform(-0.5, 0.5)
    w.data["p3_moment"] = (a, b, m)
    w.add_cli("dist.p3.moment", "dist", "p3", "moment", "--a", a, "--b", b, "--m", m, "--n", 3)
    w.add_cli("dist.logp3.moment", "dist", "logp3", "moment", "--a", a, "--b", b, "--m", m,
              "--n", 1)


def mc_oracle(w, rng, out_dir, tiny):
    n_ks, n_vec = (2000, 5000) if tiny else (100_000, 1_000_000)
    seeds = [rng.randrange(2 ** 31) for _ in range(6)]
    a, b, m = rng.uniform(1.5, 4.0), rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5)
    w.data["dist.logitp3"] = (a, b, m)
    w.add_cli("compare.dist.logitp3", "compare", "--op", "dist.cdf", "--family", "logitp3",
              "--a", a, "--b", b, "--m", m, "--samples", n_ks, "--seed", seeds[0])
    a, b, m = rng.uniform(1.5, 4.0), -rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5)
    w.add_cli("compare.dist.logp3", "compare", "--op", "dist.cdf", "--family", "logp3",
              "--a", a, "--b", b, "--m", m, "--samples", n_ks // 2, "--seed", seeds[1])

    terms = sum3_terms(rng)
    w.data["sum3"] = terms
    spec_path = write_json(os.path.join(out_dir, "sum3.json"), {"terms": terms})
    w.add_cli("compare.sums.cdf", "compare", "--op", "sums.cdf", "--spec", spec_path,
              "--samples", n_ks, "--seed", seeds[2])
    w.add_cli("compare.sums.mean", "compare", "--op", "sums.mean", "--spec", spec_path,
              "--samples", n_vec, "--seed", seeds[3])

    d, qt_frac, power = rng.uniform(6.0, 14.0), rng.uniform(0.05, 0.15), rng.uniform(1.0, 3.0)
    w.data["wpt"] = {"d": d, "qt_frac": qt_frac, "power": power}
    w.add_cli("compare.wpt.cdf", "compare", "--op", "wpt.cdf", "--preset", "fig3", "--L", 3,
              "--d", d, "--qt-frac", qt_frac, "--samples", n_vec, "--seed", seeds[4])
    w.add_cli("compare.wpt.mean", "compare", "--op", "wpt.mean", "--preset", "fig6", "--L", 3,
              "--p", power, "--samples", n_vec, "--seed", seeds[5])

    spec = sums.SumSpec(tuple(Pearson3Params(t["a"], t["b"], t["m"]) for t in terms))
    w.add_call("convolve_p3_components", lambda: mc.convolve_p3_components(spec))


def sum_mixtures(w, rng, out_dir, tiny):
    """Integer shapes and close distinct rates: the weights reach 1e30 and
    more, so every evaluation takes the Decimal fallback."""
    built = {}
    specs = {}
    for L in (4, 6) if tiny else (8, 12, 16):
        a = L // 2
        mu = rng.uniform(1.5, 3.0)  # mean of the sum above its shift
        base = L * a / mu
        gap = 0.05
        rates = [base * (1.0 + gap * (i - (L - 1) / 2) + gap * rng.uniform(-0.2, 0.2))
                 for i in range(L)]
        rng.shuffle(rates)
        terms = [{"a": a, "b": b, "m": rng.uniform(-0.05, 0.05)} for b in rates]
        sm = math.fsum(t["m"] for t in terms)
        mean = sm + math.fsum(a / b for b in rates)
        sd = math.sqrt(math.fsum(a / (b * b) for b in rates))
        xs = [mean + sd * (-2.0 + j + rng.random()) for j in range(4)]
        specs[L] = {"terms": terms, "xs": xs}
        params = tuple(Pearson3Params(t["a"], t["b"], t["m"]) for t in terms)

        def build(L=L, params=params):
            built[L] = sums.SumSpec(params)
            return built[L]

        w.add_call(f"SumSpec.L{L}", build)
        for j, x in enumerate(xs):
            y, z = math.exp(x), logistic(x)
            for fname, at in (("sum_cdf", x), ("sum_pdf", x), ("logsum_cdf", y),
                              ("logsum_pdf", y), ("logitsum_cdf", z), ("logitsum_pdf", z)):
                w.add_call(f"{fname}.L{L}.{j}",
                           lambda L=L, fname=fname, at=at: getattr(sums, fname)(built[L], at))
    w.data["specs"] = specs

    L = sorted(specs)[1]
    path = write_json(os.path.join(out_dir, f"sum_L{L}.json"), {"terms": specs[L]["terms"]})
    x = specs[L]["xs"][1]
    w.data["cli_L"] = L
    w.add_cli("sum.cdf.cli", "sum", "--spec", path, "--quantity", "cdf", "--at", x)
    w.add_cli("sum.logit.pdf.cli", "sum", "--spec", path, "--transform", "logit",
              "--quantity", "pdf", "--at", logistic(x))


_BUILDERS = {
    "figure_curves": figure_curves,
    "moment_series": moment_series,
    "mc_oracle": mc_oracle,
    "sum_mixtures": sum_mixtures,
}
WORKLOADS = tuple(_BUILDERS)

# How strongly each workload's pass time follows the host probe in
# worker.py: the slope of log pass time against log probe time across runs
# of the benchmark, as calibrate.py measures it, rounded to a quarter
# (README.md). Interpreted float code slows with the host as the probe
# does; the Decimal and Fraction arithmetic of sum_mixtures much less.
HOST_EXPONENT = {
    "figure_curves": 1.0,
    "moment_series": 1.25,
    "mc_oracle": 1.0,
    "sum_mixtures": 0.25,
}


def make(name, seed, out_dir, tiny=False):
    """Generate the inputs of workload `name` from `seed`."""
    os.makedirs(out_dir, exist_ok=True)
    w = Workload(name, seed)
    _BUILDERS[name](w, random.Random(f"{name}:{seed}"), out_dir, tiny)
    names = [op.name for op in w.ops]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate operation names in {name}")
    return w

