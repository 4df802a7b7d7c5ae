"""Command-line front end.

Verbs:
  dist     evaluate the plain/log/logit Pearson III pdf, cdf or moment
  sum      evaluate sum-of-components quantities from a JSON spec file
  wpt      harvested-power quantities from a JSON scenario file
  figure   write the reference figure curves as CSV files
  compare  analytic-vs-Monte-Carlo check, emitting an OracleReport JSON

All outputs are deterministic for fixed inputs and seeds. Scalars print
with 12 significant digits; sweeps print CSV with '#' metadata headers.
Exit codes: 0 success, 2 argument or domain error, 3 convergence error,
4 oracle-comparison failure.
"""

import argparse
import functools
import hashlib
import math
import os
import sys

import numpy as np

from . import logitp3, logp3, mc, pearson3, sums, wpt
from .errors import ConvergenceError, DomainError
from .pearson3 import Pearson3Params

__all__ = ["main"]

_MAX_SWEEP_POINTS = 10 ** 6

# Reference-figure inputs: logistic harvester circuit constants, antenna
# apertures and carrier, and the common gamma fading of every branch.
FIG_MODEL = wpt.EHModel(A=150.0, B=0.014, Ps=0.024)
FIG_FADING = Pearson3Params(3.0, 1.0, 0.0)
FIG_AT, FIG_AR, FIG_FC = 0.5, 0.01, 2.4e9
FIG_TOTAL_POWER = 2.0
FIG_PB_DISTANCES = (12.0, 10.0, 8.0)
FIG_D_GRID = [4.0 + i for i in range(17)]           # 4..20 m
FIG_P_GRID = [0.5 + 0.25 * i for i in range(15)]    # 0.5..4 W
FIG_AB_PAIRS = ((3.0, 1.5), (3.0, -1.5), (2.0, 1.5), (2.0, -1.5))


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _parse_sweep(text: str):
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise DomainError(f"sweep must be start:stop:step, got {text!r}") from exc
    if not (lo < hi) or step <= 0:
        raise DomainError(f"sweep needs start < stop and step > 0, got {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if count > _MAX_SWEEP_POINTS:
        raise DomainError(f"sweep has {count} points, limit is {_MAX_SWEEP_POINTS}")
    return [lo + step * i for i in range(count)]


def _print_csv(out, headers, rows):
    for h in headers:
        print(f"# {h}", file=out)
    for row in rows:
        print(",".join(_fmt(v) for v in row), file=out)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------- dist

def _dist_tables(family):
    if family == "p3":
        return pearson3.p3_pdf, pearson3.p3_cdf, pearson3.p3_moment
    if family == "logp3":
        return logp3.lp3_pdf, logp3.lp3_cdf, logp3.lp3_moment
    if family == "logitgamma":
        return (
            lambda p, z: logitp3.logit_gamma_pdf(p.a, p.b, z),
            lambda p, z: logitp3.logit_gamma_cdf(p.a, p.b, z),
            lambda p, n: logitp3.logit_gamma_moment(p.a, p.b, n),
        )
    return logitp3.ltp3_pdf, logitp3.ltp3_cdf, logitp3.ltp3_moment


def _fmt_complex(v: complex) -> str:
    return f"{v.real:.12g}{v.imag:+.12g}j"


def _answer(args, law, table, header):
    """Print the moment of order --n, or the pdf or CDF at --at or as a CSV
    over --sweep, of `law` from its (pdf, cdf, moment) `table`."""
    pdf, cdf, moment = table
    if args.quantity == "moment":
        if args.n is None:
            raise DomainError("moment queries need --n")
        print(_fmt(moment(law, args.n)))
        return 0
    fn = pdf if args.quantity == "pdf" else cdf
    if args.sweep is not None:
        points = _parse_sweep(args.sweep)
        _print_csv(sys.stdout, [header, "columns: point, value"],
                   zip(points, fn(law, np.array(points))))
        return 0
    if args.at is None:
        raise DomainError(f"{args.quantity} queries need --at or --sweep")
    print(_fmt(fn(law, args.at)))
    return 0


def cmd_dist(args) -> int:
    if args.family == "logitgamma" and args.m != 0.0:
        raise DomainError("logit gamma requires m = 0")
    params = Pearson3Params(args.a, args.b, args.m)
    if args.quantity == "charfn":
        if args.at is None:
            raise DomainError("charfn queries need --at (the argument t)")
        if args.family == "p3":
            print(_fmt_complex(pearson3.p3_char_fn(params, args.at)))
            return 0
        if args.family == "logp3":
            print(_fmt_complex(logp3.lp3_char_fn_series(params, args.at)))
            return 0
        raise DomainError(
            "charfn is available for p3, and for logp3 with b < 0 only"
        )
    return _answer(args, params, _dist_tables(args.family),
                   f"p3family.{args.family} {args.quantity} a={_fmt(args.a)} "
                   f"b={_fmt(args.b)} m={_fmt(args.m)}")


# ----------------------------------------------------------------- sum

def cmd_sum(args) -> int:
    spec = sums.spec_from_json(_read_file(args.spec))
    table = {
        "none": (sums.sum_pdf, sums.sum_cdf, sums.sum_moment),
        "log": (sums.logsum_pdf, sums.logsum_cdf, sums.logsum_moment),
        "logit": (sums.logitsum_pdf, sums.logitsum_cdf, sums.logitsum_moment),
    }
    return _answer(args, spec, table[args.transform],
                   f"p3family.sums {args.transform} {args.quantity} "
                   f"spec={os.path.basename(args.spec)} L={spec.L} regime={spec.regime}")


# ----------------------------------------------------------------- wpt

def _scenario_hash(scenario) -> str:
    doc = wpt.scenario_to_json(scenario)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


def _scenario_with(scenario, distance=None, power=None):
    """Scenario with every branch at the given distance and/or the given
    total power split equally across branches."""
    branches = []
    for br in scenario.branches:
        branches.append(
            wpt.LinkBudget(
                at=br.at, ar=br.ar, fc=br.fc,
                d=br.d if distance is None else distance,
                p=br.p if power is None else power / len(scenario.branches),
                fading=br.fading,
            )
        )
    return wpt.MisoScenario(scenario.model, tuple(branches))


def _sweep(scenario, var, points, value):
    """Yield (x, value(scenario with its `var`, distance or power, at x))
    for each point x."""
    for x in points:
        yield x, value(_scenario_with(scenario, **{var: x}))


def _wpt_value(scenario, quantity, args) -> float:
    model = scenario.model
    if quantity == "outage":
        if args.qt_frac is None or not (0.0 < args.qt_frac < 1.0):
            raise DomainError("outage queries need --qt-frac in (0, 1)")
        return wpt.q_cdf_miso(scenario, args.qt_frac * model.Ps)
    if quantity == "mean":
        return wpt.q_mean_miso(scenario)
    if quantity == "moment":
        if args.n is None:
            raise DomainError("moment queries need --n")
        return wpt.q_moment_miso(scenario, args.n)
    if args.at is None:
        raise DomainError(f"{quantity} queries need --at (harvested power, W)")
    if quantity == "cdf":
        return wpt.q_cdf_miso(scenario, args.at)
    return wpt.q_pdf_miso(scenario, args.at)


def cmd_wpt(args) -> int:
    scenario = wpt.scenario_from_json(_read_file(args.scenario))
    if args.sweep is None:
        print(_fmt(_wpt_value(scenario, args.quantity, args)))
        return 0
    try:
        var, grid_text = args.sweep.split(":", 1)
    except ValueError as exc:
        raise DomainError("wpt sweep must be {distance,power}:start:stop:step") from exc
    if var not in ("distance", "power"):
        raise DomainError(f"sweep variable must be distance or power, got {var!r}")
    points = _parse_sweep(grid_text)
    rows = list(_sweep(scenario, var, points, lambda sc: _wpt_value(sc, args.quantity, args)))
    _print_csv(
        sys.stdout,
        [f"scenario-hash: {_scenario_hash(scenario)}, seed: n/a",
         f"p3family.wpt {args.quantity} sweep={var} L={scenario.L}",
         f"columns: {var}, value"],
        rows,
    )
    return 0


# -------------------------------------------------------------- figure

def _fig_link(d, p):
    return wpt.LinkBudget(FIG_AT, FIG_AR, FIG_FC, d, p, FIG_FADING)


def equal_split_scenario(L: int, d: float, total_power: float = FIG_TOTAL_POWER):
    """One power beacon with L antennas at distance d, power split equally."""
    return wpt.MisoScenario(
        FIG_MODEL, tuple(_fig_link(d, total_power / L) for _ in range(L))
    )


def beacon_field_scenario(L: int, total_power: float = FIG_TOTAL_POWER):
    """L single-antenna power beacons at the staggered reference distances."""
    return wpt.MisoScenario(
        FIG_MODEL,
        tuple(_fig_link(d, total_power / L) for d in FIG_PB_DISTANCES[:L]),
    )


def _write_curve(out_dir, name, headers, rows):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        _print_csv(fh, headers, rows)
    return path


def _figure_curves(fig_id):
    """Yield (file name, provenance headers, row iterable) per curve."""
    if fig_id in ("fig1", "fig2"):
        quantity = "cdf" if fig_id == "fig1" else "pdf"
        fn = logitp3.ltp3_cdf if fig_id == "fig1" else logitp3.ltp3_pdf
        for a, b in FIG_AB_PAIRS:
            params = Pearson3Params(a, b, 0.0)
            lo, hi = (0.5, 1.0) if b > 0 else (0.0, 0.5)
            if quantity == "cdf":
                zs = [0.001 + 0.001 * i for i in range(999)]
            else:
                span = hi - lo
                zs = [lo + span * (i + 0.5) / 400 for i in range(400)]
            tag = f"a{_fmt(a)}_b{_fmt(b)}".replace("-", "neg").replace(".", "p")
            yield (
                f"{fig_id}_{tag}.csv",
                [f"p3family.logitp3 ltp3_{quantity} a={_fmt(a)} b={_fmt(b)} m=0",
                 "columns: z, value"],
                zip(zs, fn(params, np.array(zs))),
            )
        return
    if fig_id in ("fig3", "fig4", "fig5", "fig6"):
        # fig3 and fig5 sweep the distance of one beacon with L antennas,
        # fig4 and fig6 the total power of L beacons
        by_distance = fig_id in ("fig3", "fig5")
        var, points = ("distance", FIG_D_GRID) if by_distance else ("power", FIG_P_GRID)
        for L in (1, 2, 3):
            sc = equal_split_scenario(L, points[0]) if by_distance else beacon_field_scenario(L)
            if fig_id in ("fig5", "fig6"):
                yield (
                    f"{fig_id}_L{L}.csv",
                    [f"p3family.wpt q_mean_miso L={L}",
                     f"columns: {var}, mean_harvested_W"],
                    _sweep(sc, var, points, wpt.q_mean_miso),
                )
                continue
            for frac_name, frac in (("qt_ps_1_10", 0.1), ("qt_ps_1_20", 0.05)):
                qt = frac * FIG_MODEL.Ps
                yield (
                    f"{fig_id}_L{L}_{frac_name}.csv",
                    [f"p3family.wpt q_cdf_miso L={L} qt={_fmt(qt)}",
                     f"columns: {var}, outage"],
                    _sweep(sc, var, points, functools.partial(wpt.q_cdf_miso, q=qt)),
                )
        return
    raise DomainError(f"unknown figure id {fig_id!r}, expected fig1..fig6")


def cmd_figure(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, headers, rows in _figure_curves(args.id):
        written.append(_write_curve(args.out, name, headers, rows))
    if args.gnuplot:
        gp = os.path.join(args.out, f"{args.id}.gp")
        with open(gp, "w", encoding="utf-8") as fh:
            fh.write("set datafile separator ','\n")
            if args.id in ("fig3", "fig4"):
                fh.write("set logscale y\n")
            fh.write(
                "plot "
                + ", \\\n     ".join(
                    f"'{os.path.basename(p)}' using 1:2 with lines title "
                    f"'{os.path.basename(p)[:-4]}'"
                    for p in written
                )
                + "\n"
            )
        written.append(gp)
    for p in written:
        print(p)
    return 0


# ------------------------------------------------------------- compare

def _compare_scenario(args):
    if args.scenario is not None:
        sc = wpt.scenario_from_json(_read_file(args.scenario))
    elif args.preset in ("fig3", "fig5"):
        sc = equal_split_scenario(args.L, 10.0)
    elif args.preset in ("fig4", "fig6"):
        sc = beacon_field_scenario(args.L)
    else:
        raise DomainError("wpt comparisons need --scenario or --preset fig3..fig6")
    if args.d is not None:
        sc = _scenario_with(sc, distance=args.d)
    if args.p is not None:
        sc = _scenario_with(sc, power=args.p)
    return sc


def cmd_compare(args) -> int:
    if args.samples < 1000:
        raise DomainError(
            f"comparisons need at least 1000 samples, got {args.samples}"
        )
    count = int(args.samples)
    seed = args.seed

    if args.op == "dist.cdf":
        params = Pearson3Params(args.a, args.b, args.m)
        samples = pearson3.p3_sample(params, seed, count)
        if args.family == "logitp3":
            samples = 1.0 / (1.0 + np.exp(-samples))
            cdf = logitp3.ltp3_cdf
        elif args.family == "logp3":
            samples = np.exp(samples)
            cdf = logp3.lp3_cdf
        else:
            cdf = pearson3.p3_cdf
        ks = mc.ks_distance(samples, functools.partial(cdf, params))
        report = mc.OracleReport.build(
            f"{args.family} cdf KS a={_fmt(args.a)} b={_fmt(args.b)} m={_fmt(args.m)}",
            0.0, ks, mc.ks_threshold(count), count, seed, 1.0,
        )
    elif args.op == "sums.cdf":
        spec = sums.spec_from_json(_read_file(args.spec))
        samples = mc.sample_sum(spec, seed, count)
        ks = mc.ks_distance(samples, functools.partial(sums.sum_cdf, spec))
        report = mc.OracleReport.build(
            f"sum cdf KS L={spec.L}", 0.0, ks, mc.ks_threshold(count),
            count, seed, 1.0,
        )
    elif args.op == "sums.mean":
        spec = sums.spec_from_json(_read_file(args.spec))
        samples = mc.sample_sum(spec, seed, count)
        emp, se = mc.empirical_moment(samples, 1)
        report = mc.OracleReport.build(
            f"sum mean L={spec.L}", sums.sum_moment(spec, 1), emp, se,
            count, seed, 3.0,
        )
    elif args.op == "wpt.cdf":
        sc = _compare_scenario(args)
        if args.qt_frac is None:
            raise DomainError("wpt.cdf comparisons need --qt-frac")
        qt = args.qt_frac * sc.model.Ps
        analytic = wpt.q_cdf_miso(sc, qt)
        samples = mc.sample_harvested(sc, seed, count)
        emp = mc.empirical_cdf(samples, qt)
        sigma = math.sqrt(max(analytic * (1.0 - analytic), 1.0 / count) / count)
        report = mc.OracleReport.build(
            f"wpt outage L={sc.L} qt={_fmt(qt)}", analytic, emp, sigma,
            count, seed, 3.0,
        )
    elif args.op == "wpt.mean":
        sc = _compare_scenario(args)
        analytic = wpt.q_mean_miso(sc)
        samples = mc.sample_harvested(sc, seed, count)
        emp, _ = mc.empirical_moment(samples, 1)
        report = mc.OracleReport.build(
            f"wpt mean L={sc.L}", analytic, emp, abs(emp), count, seed, 0.01,
        )
    else:
        raise DomainError(
            f"unknown comparison op {args.op!r}; expected one of "
            "dist.cdf, sums.cdf, sums.mean, wpt.cdf, wpt.mean"
        )

    print(report.to_json())
    return 0 if report.passed else 4


# ---------------------------------------------------------------- main

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="p3family",
        description="Pearson type III family, sums, and harvested-power statistics.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    d = subs.add_parser("dist", help="plain/log/logit Pearson III quantities")
    d.add_argument("family", choices=("p3", "logp3", "logitp3", "logitgamma"))
    d.add_argument("quantity", choices=("pdf", "cdf", "moment", "charfn"))
    d.add_argument("--a", type=float, required=True)
    d.add_argument("--b", type=float, required=True)
    d.add_argument("--m", type=float, default=0.0)
    d.add_argument("--at", "--x", "--y", "--z", "--t", dest="at", type=float,
                   help="evaluation point")
    d.add_argument("--n", type=int, help="moment order")
    d.add_argument("--sweep", help="start:stop:step over the evaluation point")
    d.set_defaults(func=cmd_dist)

    s = subs.add_parser("sum", help="sum-of-components quantities")
    s.add_argument("--spec", required=True, help="JSON spec file")
    s.add_argument("--transform", choices=("none", "log", "logit"), default="none")
    s.add_argument("--quantity", choices=("pdf", "cdf", "moment"), required=True)
    s.add_argument("--at", type=float)
    s.add_argument("--n", type=int)
    s.add_argument("--sweep", help="start:stop:step over the evaluation point")
    s.set_defaults(func=cmd_sum)

    w = subs.add_parser("wpt", help="harvested-power quantities")
    w.add_argument("--scenario", required=True, help="JSON scenario file")
    w.add_argument("--quantity",
                   choices=("outage", "mean", "cdf", "pdf", "moment"),
                   required=True)
    w.add_argument("--qt-frac", dest="qt_frac", type=float,
                   help="outage threshold as a fraction of Ps")
    w.add_argument("--at", type=float, help="harvested power point (W)")
    w.add_argument("--n", type=int, help="moment order")
    w.add_argument("--sweep", help="{distance,power}:start:stop:step")
    w.set_defaults(func=cmd_wpt)

    f = subs.add_parser("figure", help="write reference figure CSV curves")
    f.add_argument("--id", required=True, help="fig1..fig6")
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--gnuplot", action="store_true",
                   help="also write a gnuplot script")
    f.set_defaults(func=cmd_figure)

    c = subs.add_parser("compare", help="analytic vs Monte Carlo oracle check")
    c.add_argument("--op", required=True)
    c.add_argument("--samples", type=int, default=1_000_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--family", choices=("p3", "logp3", "logitp3"), default="p3")
    c.add_argument("--a", type=float, default=3.0)
    c.add_argument("--b", type=float, default=1.0)
    c.add_argument("--m", type=float, default=0.0)
    c.add_argument("--spec", help="JSON sum spec file")
    c.add_argument("--scenario", help="JSON scenario file")
    c.add_argument("--preset", choices=("fig3", "fig4", "fig5", "fig6"))
    c.add_argument("--L", type=int, default=1)
    c.add_argument("--d", type=float, help="override distance (m)")
    c.add_argument("--p", type=float, help="override total power (W)")
    c.add_argument("--qt-frac", dest="qt_frac", type=float)
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
