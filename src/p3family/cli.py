"""Command-line front end.

Verbs:
  dist     evaluate the plain/log/logit Pearson III pdf, cdf or moment
  sum      evaluate sum-of-components quantities from a JSON spec file
  wpt      harvested-power quantities from a JSON scenario file
  figure   write the reference figure curves as CSV files
  compare  analytic-vs-Monte-Carlo check, emitting an OracleReport JSON

All outputs are deterministic for fixed inputs and seeds. Every number
prints as "%.12g" (12 significant digits). A sweep prints CSV: its
metadata lines first, each starting with "# ", then one "point,value" row
of two "%.12g" numbers per point, in sweep order; `csvrows` formats the
rows in numpy, to the bytes of Python's % operator. Negative values,
exponent notation included, may be given as separate arguments
(--m -1e-05, --sweep -0.5:1:0.5): no option starts with "-" and a digit
or ".", so such a token is always a value.
Exit codes: 0 success, 2 argument or domain error, 3 convergence error,
4 oracle-comparison failure.
"""

import argparse
import functools
import hashlib
import math
import os
import re
import sys

import numpy as np

from . import csvrows, logitp3, logp3, mc, pearson3, sums, wpt
from .errors import ConvergenceError, DomainError
from .pearson3 import Pearson3Params
from .presets import (
    FIG_AB_PAIRS,
    FIG_D_GRID,
    FIG_MODEL,
    FIG_P_GRID,
    beacon_field_scenario,
    equal_split_scenario,
)

__all__ = ["main"]

_MAX_SWEEP_POINTS = 10 ** 6
_NUM = "%.12g"


def _fmt(x: float) -> str:
    return _NUM % x


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
    return lo + step * np.arange(count)


def _print_csv(out, headers, points, values):
    """Write the "# " headers, then one "%.12g,%.12g" line per point and
    its value, from two sequences of numbers of one length (see
    `csvrows.write_rows`)."""
    out.write("".join(f"# {h}\n" for h in headers))
    csvrows.write_rows(out, points, values)


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
        _print_csv(sys.stdout, [header, "columns: point, value"], points, fn(law, points))
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


def _wpt_order(args) -> int:
    """The moment order of a mean or moment query."""
    if args.quantity == "mean":
        return 1
    if args.n is None:
        raise DomainError("moment queries need --n")
    return args.n


def _wpt_point(model, args):
    """The harvested power q of an outage, cdf or pdf query, and whether it
    asks for the density."""
    if args.quantity == "outage":
        if args.qt_frac is None or not (0.0 < args.qt_frac < 1.0):
            raise DomainError("outage queries need --qt-frac in (0, 1)")
        return args.qt_frac * model.Ps, False
    if args.at is None:
        raise DomainError(f"{args.quantity} queries need --at (harvested power, W)")
    return args.at, args.quantity == "pdf"


def cmd_wpt(args) -> int:
    scenario = wpt.scenario_from_json(_read_file(args.scenario))
    moment = args.quantity in ("mean", "moment")
    if args.sweep is None:
        if moment:
            print(_fmt(wpt.q_mean_miso(scenario) if args.quantity == "mean"
                       else wpt.q_moment_miso(scenario, _wpt_order(args))))
            return 0
        q, density = _wpt_point(scenario.model, args)
        print(_fmt(wpt.q_pdf_miso(scenario, q) if density else wpt.q_cdf_miso(scenario, q)))
        return 0
    try:
        var, grid_text = args.sweep.split(":", 1)
    except ValueError as exc:
        raise DomainError("wpt sweep must be {distance,power}:start:stop:step") from exc
    if var not in ("distance", "power"):
        raise DomainError(f"sweep variable must be distance or power, got {var!r}")
    points = _parse_sweep(grid_text)
    if moment:
        values = scenario.moments(var, points, _wpt_order(args))
    else:
        q, density = _wpt_point(scenario.model, args)
        values = scenario.curve(var, points, q, density)
    _print_csv(
        sys.stdout,
        [f"scenario-hash: {_scenario_hash(scenario)}, seed: n/a",
         f"p3family.wpt {args.quantity} sweep={var} L={scenario.L}",
         f"columns: {var}, value"],
        points, values,
    )
    return 0


# -------------------------------------------------------------- figure

def _write_curve(out_dir, name, headers, points, values):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        _print_csv(fh, headers, points, values)
    return path


def _figure_curves(fig_id):
    """Yield (file name, provenance headers, points, values) per curve."""
    if fig_id in ("fig1", "fig2"):
        quantity = "cdf" if fig_id == "fig1" else "pdf"
        fn = logitp3.ltp3_cdf if fig_id == "fig1" else logitp3.ltp3_pdf
        for a, b in FIG_AB_PAIRS:
            params = Pearson3Params(a, b, 0.0)
            lo, hi = (0.5, 1.0) if b > 0 else (0.0, 0.5)
            if quantity == "cdf":
                zs = 0.001 + 0.001 * np.arange(999)
            else:
                span = hi - lo
                zs = lo + span * (np.arange(400) + 0.5) / 400
            tag = f"a{_fmt(a)}_b{_fmt(b)}".replace("-", "neg").replace(".", "p")
            yield (
                f"{fig_id}_{tag}.csv",
                [f"p3family.logitp3 ltp3_{quantity} a={_fmt(a)} b={_fmt(b)} m=0",
                 "columns: z, value"],
                zs, fn(params, zs),
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
                    points, sc.moments(var, points, 1),
                )
                continue
            for frac_name, frac in (("qt_ps_1_10", 0.1), ("qt_ps_1_20", 0.05)):
                qt = frac * FIG_MODEL.Ps
                yield (
                    f"{fig_id}_L{L}_{frac_name}.csv",
                    [f"p3family.wpt q_cdf_miso L={L} qt={_fmt(qt)}",
                     f"columns: {var}, outage"],
                    points, sc.curve(var, points, qt),
                )
        return
    raise DomainError(f"unknown figure id {fig_id!r}, expected fig1..fig6")


def cmd_figure(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, headers, points, values in _figure_curves(args.id):
        written.append(_write_curve(args.out, name, headers, points, values))
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
        sc = sc.at(distance=args.d)
    if args.p is not None:
        sc = sc.at(power=args.p)
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
        # the transforms act in place on the draws, by the IEEE operations of
        # 1 / (1 + exp(-x)) and exp(x)
        if args.family == "logitp3":
            np.exp(np.negative(samples, out=samples), out=samples)
            samples += 1.0
            np.divide(1.0, samples, out=samples)
            cdf = logitp3.ltp3_cdf
        elif args.family == "logp3":
            np.exp(samples, out=samples)
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
        emp = float(np.mean(samples))
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

class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with "-" and a digit or "." as a
    value: no option of this CLI starts that way. argparse's own
    negative-number pattern has no exponent and no ":", so it would read
    the -1e-05 of `--m -1e-05` as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")


@functools.cache
def _build_parser():
    parser = _Parser(
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
    args = _build_parser().parse_args(argv)
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
