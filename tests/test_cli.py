"""Command-line interface tests, driven in-process through main(), and
one run of the module in a child process for the real stdout path."""

import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import p3family
from p3family import cli, csvrows, mc
from p3family.cli import _build_parser, _parse_sweep, _print_csv, main
from p3family.logitp3 import ltp3_cdf
from p3family.logp3 import lp3_char_fn_series
from p3family.pearson3 import Pearson3Params, p3_cdf, p3_sample
from p3family.presets import beacon_field_scenario, equal_split_scenario
from p3family.sums import SumSpec, spec_to_json, sum_cdf
from p3family.wpt import q_cdf_miso, q_mean_miso


@pytest.fixture
def spec_file(tmp_path):
    spec = SumSpec((Pearson3Params(1.0, 1.0, 0.0), Pearson3Params(1.0, 2.0, 0.0)))
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec))
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    doc = {
        "model": {"A": 150.0, "B": 0.014, "Ps": 0.024},
        "branches": [
            {"at": 0.5, "ar": 0.01, "fc": 2.4e9, "d": 10.0, "p": 2.0,
             "fading": {"a": 3.0, "b": 1.0}},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------- dist

def test_dist_scalar(capsys):
    code, out = run(capsys, "dist", "logitp3", "cdf",
                    "--a", "3", "--b", "1.5", "--m", "0", "--z", "0.8")
    assert code == 0
    assert float(out) == pytest.approx(0.3448149869610322, rel=1e-11)


def test_dist_all_families(capsys):
    for family, at, expected in (
        ("p3", "0.6931471805599453", 0.5),
        ("logp3", "2.0", 0.5),
        ("logitgamma", "0.6666666666666666", 0.5),
    ):
        code, out = run(capsys, "dist", family, "cdf",
                        "--a", "1", "--b", "1", "--at", at)
        assert code == 0
        assert float(out) == pytest.approx(expected, rel=1e-9)


def test_dist_moment_and_charfn(capsys):
    code, out = run(capsys, "dist", "p3", "moment",
                    "--a", "3", "--b", "1.5", "--m", "2", "--n", "1")
    assert code == 0 and float(out) == pytest.approx(4.0)
    code, out = run(capsys, "dist", "p3", "charfn",
                    "--a", "1", "--b", "1", "--t", "1")
    assert code == 0
    assert out.strip() == "0.5+0.5j"


def test_dist_logp3_charfn_is_the_series_for_negative_rates(capsys):
    code, out = run(capsys, "dist", "logp3", "charfn",
                    "--a", "2", "--b", "-1.5", "--m", "0.3", "--t", "0.7")
    assert code == 0
    assert out.strip() == cli._fmt_complex(lp3_char_fn_series(Pearson3Params(2.0, -1.5, 0.3), 0.7))
    # the series needs b < 0: every moment of exp(X) exists only there
    assert run(capsys, "dist", "logp3", "charfn",
               "--a", "2", "--b", "1.5", "--t", "0.7")[0] == 2


def test_dist_high_order_logit_moment(capsys):
    # an alternating series once exited 3 here ("did not stabilize")
    code, out = run(capsys, "dist", "logitp3", "moment", "--a", "17.098",
                    "--b", "5.051", "--m", "-5.670", "--n", "6")
    assert code == 0
    assert 0.0 < float(out) < 1.0


def test_dist_sweep_csv(capsys):
    code, out = run(capsys, "dist", "p3", "cdf",
                    "--a", "1", "--b", "1", "--sweep", "0.5:2.5:0.5")
    assert code == 0
    lines = out.strip().split("\n")
    headers = [l for l in lines if l.startswith("# ")]
    data = [l for l in lines if not l.startswith("#")]
    assert len(headers) == 2 and "columns: point, value" in headers[1]
    assert len(data) == 5
    x, v = (float(t) for t in data[1].split(","))
    assert x == 1.0 and v == pytest.approx(1.0 - math.exp(-1.0), rel=1e-11)
    # the points are one float64 array, each lo + step * i
    points = _parse_sweep("-0.5:1:0.3")
    assert points.dtype == np.float64
    assert points.tolist() == [-0.5 + 0.3 * i for i in range(6)]


def test_dist_errors(capsys):
    # domain error in parameters
    assert run(capsys, "dist", "p3", "cdf", "--a", "-1", "--b", "1",
               "--at", "1")[0] == 2
    # divergent moment
    assert run(capsys, "dist", "logp3", "moment", "--a", "2", "--b", "1.5",
               "--n", "2")[0] == 2
    # charfn unavailable for the logit member
    assert run(capsys, "dist", "logitp3", "charfn", "--a", "1", "--b", "1",
               "--t", "1")[0] == 2
    # logit gamma requires m = 0
    assert run(capsys, "dist", "logitgamma", "cdf", "--a", "1", "--b", "1",
               "--m", "0.5", "--at", "0.8")[0] == 2
    # missing evaluation point
    assert run(capsys, "dist", "p3", "cdf", "--a", "1", "--b", "1")[0] == 2
    # malformed sweep
    assert run(capsys, "dist", "p3", "cdf", "--a", "1", "--b", "1",
               "--sweep", "2:1:0.5")[0] == 2


def error_of(capsys, *argv):
    """(exit code, stdout, stderr) of one CLI call."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("sweep", ["0:inf:1", "-inf:1:1", "0:1:nan", "0:1:inf", "nan:1:1"])
def test_non_finite_sweep_exits_2(capsys, scenario_file, sweep):
    # 0:inf:1 and -inf:1:1 overflowed converting the point count, 0:1:nan
    # raised in numpy, and 0:1:inf printed the row nan,nan
    for argv in (("dist", "p3", "cdf", "--a", "2", "--b", "1", f"--sweep={sweep}"),
                 ("wpt", "--scenario", scenario_file, "--quantity", "outage", "--qt-frac", "0.1",
                  f"--sweep=distance:{sweep}")):
        assert error_of(capsys, *argv) == (
            2, "", f"error: sweep needs finite start < stop and step > 0, got {sweep!r}\n")


@pytest.mark.parametrize("sweep", ["0:1e300:1e-300", "0:1000000:1", "-1e308:1e308:1"])
def test_oversized_sweep_exits_2(capsys, scenario_file, sweep):
    # the point count overflows a float at 0:1e300:1e-300 and -1e308:1e308:1
    for argv in (("dist", "p3", "cdf", "--a", "2", "--b", "1", f"--sweep={sweep}"),
                 ("wpt", "--scenario", scenario_file, "--quantity", "mean",
                  f"--sweep=distance:{sweep}")):
        assert error_of(capsys, *argv) == (
            2, "", f"error: sweep has over 1000000 points, got {sweep!r}\n")
    assert _parse_sweep("0:999999:1").size == 10 ** 6


@pytest.mark.parametrize("sweep", ["1:2", "1:2:3:4", "a:2:1", ""])
def test_malformed_sweep_exits_2(capsys, sweep):
    assert error_of(capsys, "dist", "p3", "cdf", "--a", "2", "--b", "1", f"--sweep={sweep}") == (
        2, "", f"error: sweep must be start:stop:step, got {sweep!r}\n")


def test_moment_without_order_exits_2(capsys, spec_file, scenario_file):
    for argv in (("dist", "p3", "moment", "--a", "2", "--b", "1"),
                 ("sum", "--spec", spec_file, "--quantity", "moment"),
                 ("wpt", "--scenario", scenario_file, "--quantity", "moment"),
                 ("wpt", "--scenario", scenario_file, "--quantity", "moment",
                  "--sweep", "distance:4:8:1")):
        assert error_of(capsys, *argv) == (2, "", "error: moment queries need --n\n")


def test_charfn_without_point_exits_2(capsys):
    assert error_of(capsys, "dist", "p3", "charfn", "--a", "2", "--b", "1") == (
        2, "", "error: charfn queries need --at (the argument t)\n")


def test_negative_values_as_separate_arguments(capsys):
    base = ("dist", "logp3", "cdf", "--a", "2", "--b", "3")
    joined = run(capsys, *base, "--m=-1e-05", "--at", "1.0")
    assert joined[0] == 0
    assert run(capsys, *base, "--m", "-1e-05", "--at", "1.0") == joined
    code, out = run(capsys, "dist", "p3", "cdf", "--a", "1", "--b", "1",
                    "--m", "-1", "--sweep", "-0.5:1:0.5")
    assert code == 0
    assert [l.split(",")[0] for l in out.splitlines()[2:]] == ["-0.5", "0", "0.5", "1"]
    with pytest.raises(SystemExit) as exc:
        main([*base, "--bogus", "1", "--at", "1.0"])
    assert exc.value.code == 2


# ----------------------------------------------------------------- sum

def test_sum_scalar_and_sweep(capsys, spec_file):
    code, out = run(capsys, "sum", "--spec", spec_file,
                    "--quantity", "cdf", "--at", "1.0")
    assert code == 0
    assert float(out) == pytest.approx(1.0 - 2.0 * math.exp(-1.0) + math.exp(-2.0),
                                       rel=1e-11)
    code, out = run(capsys, "sum", "--spec", spec_file, "--transform", "logit",
                    "--quantity", "moment", "--n", "1")
    assert code == 0 and 0.0 < float(out) < 1.0
    code, out = run(capsys, "sum", "--spec", spec_file,
                    "--quantity", "pdf", "--sweep", "0.5:2:0.5")
    assert code == 0
    data = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert len(data) == 4


def test_sum_with_coincident_rates(capsys, tmp_path):
    # Exp(1) + Exp(1) + Exp(3): CDF 1 - (3/4 + 3/2 x) e^(-x) - 1/4 e^(-3x)
    doc = {"terms": [{"a": 1, "b": 1.0, "m": 0.0}, {"a": 1, "b": 1.0, "m": 0.0},
                     {"a": 1, "b": 3.0, "m": 0.0}]}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "sum", "--spec", str(path), "--quantity", "cdf", "--at", "1")
    assert code == 0
    assert float(out) == pytest.approx(1.0 - 2.25 * math.exp(-1.0) - 0.25 * math.exp(-3.0),
                                       rel=1e-12)


def test_sum_missing_file(capsys):
    assert run(capsys, "sum", "--spec", "/nonexistent.json",
               "--quantity", "cdf", "--at", "1")[0] == 2


@pytest.mark.parametrize("doc", [
    {"terms": [{"a": "x", "b": 1}]},
    {"terms": [{"a": 1, "b": 1, "m": "left"}]},
    "not json",
], ids=["shape", "shift", "not_json"])
def test_sum_malformed_spec_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main(["sum", "--spec", str(path), "--quantity", "cdf", "--at", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: malformed sum spec document: ")


# ----------------------------------------------------------------- wpt

def test_wpt_point_queries(capsys, scenario_file):
    from p3family.wpt import scenario_from_json

    sc = scenario_from_json(pathlib.Path(scenario_file).read_text())
    code, out = run(capsys, "wpt", "--scenario", scenario_file,
                    "--quantity", "outage", "--qt-frac", "0.1")
    assert code == 0
    assert float(out) == pytest.approx(q_cdf_miso(sc, 0.1 * 0.024), rel=1e-11)
    code, out = run(capsys, "wpt", "--scenario", scenario_file,
                    "--quantity", "mean")
    assert code == 0
    assert float(out) == pytest.approx(q_mean_miso(sc), rel=1e-11)
    code, out = run(capsys, "wpt", "--scenario", scenario_file,
                    "--quantity", "cdf", "--at", "0.01")
    assert code == 0 and 0.0 < float(out) < 1.0


def test_wpt_sweep_headers(capsys, scenario_file):
    code, out = run(capsys, "wpt", "--scenario", scenario_file,
                    "--quantity", "outage", "--qt-frac", "0.1",
                    "--sweep", "distance:4:8:1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# scenario-hash: ")
    assert "seed: n/a" in lines[0]
    assert any("columns: distance, value" in l for l in lines[:3])
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 5
    # outage grows with distance
    vals = [float(l.split(",")[1]) for l in data]
    assert vals == sorted(vals)


def test_wpt_errors(capsys, scenario_file):
    # qt-frac outside (0, 1)
    assert run(capsys, "wpt", "--scenario", scenario_file,
               "--quantity", "outage", "--qt-frac", "1.5")[0] == 2
    # bad sweep variable
    assert run(capsys, "wpt", "--scenario", scenario_file,
               "--quantity", "mean", "--sweep", "speed:1:2:1")[0] == 2
    for quantity in ("outage", "cdf", "pdf"):
        # a sweep without --qt-frac or --at, and one of a bad variable
        assert run(capsys, "wpt", "--scenario", scenario_file,
                   "--quantity", quantity, "--sweep", "distance:4:8:1")[0] == 2
        assert run(capsys, "wpt", "--scenario", scenario_file, "--quantity", quantity,
                   "--qt-frac", "0.1", "--at", "0.004", "--sweep", "speed:1:2:1")[0] == 2


def test_wpt_sweep_without_a_variable_exits_2(capsys, scenario_file):
    assert error_of(capsys, "wpt", "--scenario", scenario_file, "--quantity", "mean",
                    "--sweep", "4") == (
        2, "", "error: wpt sweep must be {distance,power}:start:stop:step\n")


def test_wpt_scenario_with_a_nan_field_exits_2(capsys, scenario_file):
    # Python's json reads NaN; the branch is rejected for its field
    path = pathlib.Path(scenario_file)
    path.write_text(path.read_text().replace('"d": 10.0', '"d": NaN'))
    code = main(["wpt", "--scenario", scenario_file, "--quantity", "outage", "--qt-frac", "0.1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: LinkBudget field d must be positive\n"


@pytest.mark.parametrize("value", ["Infinity", "10.0"])
def test_scenario_with_constants_the_harvester_cannot_evaluate_exits_2(capsys, scenario_file,
                                                                       value):
    # B = 10 takes A B to 1500, where e^(A B) overflows, and B = inf is not finite
    path = pathlib.Path(scenario_file)
    path.write_text(path.read_text().replace('"B": 0.014', f'"B": {value}'))
    for argv in (["compare", "--op", "wpt.mean", "--scenario", scenario_file, "--samples", "1000"],
                 ["wpt", "--scenario", scenario_file, "--quantity", "mean"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: EH constants must be positive and keep e^(A B)")


@pytest.mark.parametrize("field, value", [
    ('"d": 10.0', '"d": "far"'), ('"A": 150.0', '"A": "x"'), ('"a": 3.0', '"a": "3 0"'),
], ids=["distance", "model", "fading"])
def test_wpt_malformed_scenario_exits_2(capsys, scenario_file, field, value):
    path = pathlib.Path(scenario_file)
    assert field in path.read_text()
    path.write_text(path.read_text().replace(field, value))
    code = main(["wpt", "--scenario", scenario_file, "--quantity", "outage", "--qt-frac", "0.1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: malformed scenario document: ")


def test_wpt_sweep_of_non_positive_points_exits_2(capsys, scenario_file):
    for quantity, query in (("outage", ("--qt-frac", "0.1")), ("mean", ())):
        for sweep in ("power:-1:1:0.5", "distance:0:4:1"):
            code = main(["wpt", "--scenario", scenario_file, "--quantity", quantity,
                         *query, f"--sweep={sweep}"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("error: LinkBudget field ")


@pytest.fixture
def apertures_file(tmp_path):
    # two branches of different apertures and carriers: their effective
    # rates change ratio with distance
    doc = {
        "model": {"A": 150.0, "B": 0.014, "Ps": 0.024},
        "branches": [
            {"at": 0.5, "ar": 0.01, "fc": 2.4e9, "d": 10.0, "p": 1.0,
             "fading": {"a": 3.0, "b": 1.0}},
            {"at": 0.2, "ar": 0.02, "fc": 0.9e9, "d": 6.0, "p": 1.0,
             "fading": {"a": 2.0, "b": 1.0}},
        ],
    }
    path = tmp_path / "apertures.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("quantity, query", [
    ("outage", ("--qt-frac", "0.1")),
    ("cdf", ("--at", "0.004")),
    ("pdf", ("--at", "0.004")),
    ("mean", ()),
    ("moment", ("--n", "2")),
])
def test_wpt_sweep_rows_match_point_queries(capsys, tmp_path, scenario_file, apertures_file,
                                            quantity, query):
    from p3family.wpt import scenario_from_json, scenario_to_json

    for path, sweep in ((scenario_file, "distance:4:8:1"), (scenario_file, "power:0.5:3:0.5"),
                        (apertures_file, "distance:3:12:1.5")):
        code, out = run(capsys, "wpt", "--scenario", path, "--quantity", quantity, *query,
                        "--sweep", sweep)
        assert code == 0
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
        var, lo, hi, step = sweep.split(":")
        sc = scenario_from_json(pathlib.Path(path).read_text())
        points = np.arange(float(lo), float(hi) + 1e-9, float(step))
        assert len(rows) == len(points)
        for x, row in zip(points, rows):
            point_file = tmp_path / "point.json"
            point_file.write_text(scenario_to_json(sc.at(**{var: float(x)})))
            code, value = run(capsys, "wpt", "--scenario", str(point_file),
                              "--quantity", quantity, *query)
            assert code == 0
            assert row == f"{float(x):.12g},{value.strip()}"


def test_figure_curves_build_one_law_each(capsys, tmp_path, monkeypatch):
    # a curve's law is built once, at its first point, not at every point
    from p3family.sums import SumSpec

    builds = []
    build = SumSpec.__post_init__

    def counted(spec):
        builds.append(spec)
        build(spec)

    monkeypatch.setattr(SumSpec, "__post_init__", counted)
    for fig, count in (("fig3", 6), ("fig4", 6), ("fig5", 3), ("fig6", 3)):
        builds.clear()
        code, out = run(capsys, "figure", "--id", fig, "--out", str(tmp_path / fig))
        assert code == 0
        curves = out.strip().split("\n")
        assert len(curves) == count
        assert 0 < len(builds) <= 2 * len(curves)


# -------------------------------------------------------------- figure

def test_figure_fig1(capsys, tmp_path):
    out_dir = tmp_path / "fig1"
    code, out = run(capsys, "figure", "--id", "fig1", "--out", str(out_dir))
    assert code == 0
    written = out.strip().split("\n")
    assert len(written) == 4  # one curve per (a, b) pair
    for path in written:
        rows = [l for l in pathlib.Path(path).read_text().strip().split("\n")
                if not l.startswith("#")]
        assert len(rows) == 999
        vals = [float(r.split(",")[1]) for r in rows]
        assert vals[0] < 0.01
        assert vals[-1] > 0.99
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def test_figure_fig2_mirror_symmetry(capsys, tmp_path):
    out_dir = tmp_path / "fig2"
    code, out = run(capsys, "figure", "--id", "fig2", "--out", str(out_dir))
    assert code == 0
    written = out.strip().split("\n")
    curves = {}
    for path in written:
        rows = [l for l in pathlib.Path(path).read_text().strip().split("\n")
                if not l.startswith("#")]
        name = path.split("/")[-1]
        curves[name] = [tuple(map(float, r.split(","))) for r in rows]
    # m = 0: the b < 0 density is the b > 0 one reflected through z = 0.5
    pos = curves["fig2_a3_b1p5.csv"]
    neg = curves["fig2_a3_bneg1p5.csv"]
    for (zp, vp), (zn, vn) in zip(pos, reversed(neg)):
        assert zp == pytest.approx(1.0 - zn, abs=1e-12)
        assert vp == pytest.approx(vn, rel=1e-9)


def test_figure_fig3_ordering_and_determinism(capsys, tmp_path):
    out_a = tmp_path / "a"
    code, out = run(capsys, "figure", "--id", "fig3", "--out", str(out_a))
    assert code == 0
    files = {p.split("/")[-1]: pathlib.Path(p).read_text() for p in out.strip().split("\n")}
    assert len(files) == 6  # L in 1..3 x two thresholds

    def outages(name):
        rows = [l for l in files[name].strip().split("\n") if not l.startswith("#")]
        return [float(r.split(",")[1]) for r in rows]

    o1 = outages("fig3_L1_qt_ps_1_10.csv")
    o2 = outages("fig3_L2_qt_ps_1_10.csv")
    o3 = outages("fig3_L3_qt_ps_1_10.csv")
    assert len(o1) == 17
    # more branches never increase the outage
    assert all(c <= b <= a for a, b, c in zip(o1, o2, o3))
    # reruns are byte-identical
    out_b = tmp_path / "b"
    code, out2 = run(capsys, "figure", "--id", "fig3", "--out", str(out_b))
    assert code == 0
    for p in out2.strip().split("\n"):
        assert pathlib.Path(p).read_text() == files[p.split("/")[-1]]


# SHA-256 of each file of `figure --id fig1..fig6`. A change that moves
# figure values on purpose updates the table with them.
FIGURE_DIGESTS = {
    "fig1_a2_b1p5.csv": "d2a200e5f08d366962afdc5a7c5a546f42fff31e1a2ef09637d979ae54cde844",
    "fig1_a2_bneg1p5.csv": "ab271ebb761a4eda4359b6d97f5b3bde5f35fba40596db016daaf62b3ff42f95",
    "fig1_a3_b1p5.csv": "44d5119021d8662b879765f71c8c41e093f16bfa742f9c13efc8ad08d7083da0",
    "fig1_a3_bneg1p5.csv": "12a95d6e1343718880cd7794eb4682a032bec48b2bc366f13604590d67a6e9bc",
    "fig2_a2_b1p5.csv": "29248e5c94745f67ca8ebe17142a627c1597c19263f5d62719e34801cbcabe72",
    "fig2_a2_bneg1p5.csv": "b8a5f0f26ca7465c96a97b75d42a0c569420c160b18d122d7bdbbf2413c1eba1",
    "fig2_a3_b1p5.csv": "57d0eac5c872e07d814260d989aea3c304e5f888526fa52d2a7e53a68800aa94",
    "fig2_a3_bneg1p5.csv": "a960644c959df5987f435f210dda054055f99119bbf762cfac646b463bbf5695",
    "fig3_L1_qt_ps_1_10.csv": "b4913f25f495d531104d74be3f568fafca5bf3f3974ef0fa3006fa293b99f9e8",
    "fig3_L1_qt_ps_1_20.csv": "7c41607407f3ad22762399fb768a6bffdd5e59fb9107e566ed7b270f7532a1e4",
    "fig3_L2_qt_ps_1_10.csv": "fbfbc2728a4d7896c292bad62a367fd167b26f82228d5e61dd0fd4a7b0e4c18c",
    "fig3_L2_qt_ps_1_20.csv": "525e202b8ef0f8d00a6ac60b5a81bb484791e606bcffc66e7579c448f7bfcaea",
    "fig3_L3_qt_ps_1_10.csv": "d587d4c05566fa1f50edf1535109ee9c9753d65b790e0060338471779406fee8",
    "fig3_L3_qt_ps_1_20.csv": "da53b096b0b610c46c4fd7619ca10a8120445c1830c772e3bd31eb10e4df9f88",
    "fig4_L1_qt_ps_1_10.csv": "a6e16f96c2888c3bb32aa4558be00b7c7227cf4e8ef5d7ad505d3c3b280a7dcd",
    "fig4_L1_qt_ps_1_20.csv": "960b3e53e65b0db47641595a0fac3c7fb120501510851d840bc66bcd640c6ca7",
    "fig4_L2_qt_ps_1_10.csv": "522d1dd31319ccb122bfbb6a42be30e4c74919bb31e815070bb609c585fcb3e8",
    "fig4_L2_qt_ps_1_20.csv": "ead9afab3e15b81632d314482a8147b3fa8c2d0d7d4a385c3b9be09ac3c0c84a",
    "fig4_L3_qt_ps_1_10.csv": "af5a75e1a376748e6edecfe776eb2a81ac73e1a2f9e2bc1228f59ea6f6f60269",
    "fig4_L3_qt_ps_1_20.csv": "cbc858d837b6442b726b66f30c983724cd6b0ea1b3445b1b75d5ede54b8596f9",
    "fig5_L1.csv": "c6135f20b89af745246b0844e47e6b00e3ea8e73d071d9453d7ea10efb026280",
    "fig5_L2.csv": "d8f78dd879c45ad226b11f6e5cd18d1610b6ab49dd1acc763498a04d72aee052",
    "fig5_L3.csv": "ee9dbf3e33c7408444362f93075a57aeadab315bf0794521645eca069a1ea857",
    "fig6_L1.csv": "57aac97e86124792970c221709ae044b1e3b688720e0adb049b7594502bb76eb",
    "fig6_L2.csv": "78d45e181fedf0a43c98f86046954651b4461cfe0dce41cf0355166fc639b632",
    "fig6_L3.csv": "ea8026fda7516a48c8dd3588e9568c67ca2ed2877aa774cd4a44bc607a401dbc",
}


def test_figure_files_match_their_pinned_digests(capsys, tmp_path):
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
        assert run(capsys, "figure", "--id", fig, "--out", str(tmp_path))[0] == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert sorted(digests) == sorted(FIGURE_DIGESTS)
    moved = [name for name in sorted(digests) if digests[name] != FIGURE_DIGESTS[name]]
    assert not moved, f"figure files differ from their pinned digests: {moved}"


def test_figure_gnuplot_script(capsys, tmp_path):
    out_dir = tmp_path / "g"
    code, out = run(capsys, "figure", "--id", "fig4", "--out", str(out_dir),
                    "--gnuplot")
    assert code == 0
    written = out.strip().split("\n")
    assert written[-1].endswith("fig4.gp")
    script = pathlib.Path(written[-1]).read_text()
    assert "set logscale y" in script and "plot" in script


def test_figure_unknown_id(capsys, tmp_path):
    assert run(capsys, "figure", "--id", "fig9", "--out", str(tmp_path))[0] == 2


# ------------------------------------------------------------- compare

def test_compare_dist_pass(capsys):
    code, out = run(capsys, "compare", "--op", "dist.cdf", "--family", "logitp3",
                    "--a", "3", "--b", "1.5", "--samples", "20000", "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["count"] == 20000 and report["seed"] == 4


def test_compare_dist_logp3_pass(capsys):
    code, out = run(capsys, "compare", "--op", "dist.cdf", "--family", "logp3",
                    "--a", "3", "--b", "1.5", "--samples", "20000", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["statistic"].startswith("logp3 cdf KS") and report["passed"] is True


@pytest.mark.parametrize("preset, op, query", [
    ("fig4", "wpt.cdf", ("--qt-frac", "0.1")),
    ("fig6", "wpt.mean", ()),
], ids=["fig4", "fig6"])
def test_compare_beacon_field_presets(capsys, preset, op, query):
    code, out = run(capsys, "compare", "--op", op, "--preset", preset, "--L", "2", *query,
                    "--samples", "20000", "--seed", "6")
    assert code == 0
    report = json.loads(out)
    scenario = beacon_field_scenario(2)
    analytic = (q_cdf_miso(scenario, 0.1 * scenario.model.Ps) if op == "wpt.cdf"
                else q_mean_miso(scenario))
    assert report["analytic"] == analytic and report["passed"] is True


def test_compare_moves_the_preset_to_a_distance(capsys):
    code, out = run(capsys, "compare", "--op", "wpt.cdf", "--preset", "fig3", "--L", "2",
                    "--d", "7.5", "--qt-frac", "0.1", "--samples", "20000", "--seed", "6")
    report = json.loads(out)
    scenario = equal_split_scenario(2, 10.0).at(distance=7.5)
    assert code == 0 and report["passed"] is True
    assert report["analytic"] == q_cdf_miso(scenario, 0.1 * scenario.model.Ps)


def test_compare_moves_the_preset_to_a_total_power(capsys):
    code, out = run(capsys, "compare", "--op", "wpt.mean", "--preset", "fig6", "--L", "2",
                    "--p", "3.5", "--samples", "20000", "--seed", "6")
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["analytic"] == q_mean_miso(beacon_field_scenario(2).at(power=3.5))


def test_compare_dist_defaults_to_the_plain_family(capsys):
    code, out = run(capsys, "compare", "--op", "dist.cdf", "--a", "3", "--b", "1.5",
                    "--samples", "20000", "--seed", "4")
    report = json.loads(out)
    params = Pearson3Params(3.0, 1.5)
    ks = mc.ks_distance(p3_sample(params, 4, 20000), lambda x: p3_cdf(params, x))
    assert code == 0 and report["passed"] is True
    assert report["statistic"] == "p3 cdf KS a=3 b=1.5 m=0" and report["empirical"] == ks


def test_compare_beacon_field_beyond_three_beacons_exits_2(capsys):
    # the field has three beacons: --L 5 once ran the L = 3 field
    assert error_of(capsys, "compare", "--op", "wpt.mean", "--preset", "fig6", "--L", "5",
                    "--samples", "1000") == (
        2, "", "error: the beacon field has 1..3 beacons, got L=5\n")


def test_compare_wpt_without_a_scenario_exits_2(capsys):
    assert error_of(capsys, "compare", "--op", "wpt.mean", "--samples", "1000") == (
        2, "", "error: wpt comparisons need --scenario or --preset fig3..fig6\n")


def test_compare_wpt_cdf_without_a_threshold_exits_2(capsys):
    assert error_of(capsys, "compare", "--op", "wpt.cdf", "--preset", "fig4", "--L", "2",
                    "--samples", "1000") == (
        2, "", "error: outage thresholds need --qt-frac in (0, 1)\n")


@pytest.mark.parametrize("qt_frac", ["2", "-0.5", "nan"])
def test_compare_wpt_cdf_threshold_outside_0_1_exits_2(capsys, scenario_file, qt_frac):
    # the wpt verb's rule in both verbs; compare ran 2 and -0.5, and printed
    # a report with NaN for nan, exit 4
    for argv in (("compare", "--op", "wpt.cdf", "--preset", "fig4", "--L", "2",
                  "--samples", "1000"),
                 ("wpt", "--scenario", scenario_file, "--quantity", "outage")):
        assert error_of(capsys, *argv, "--qt-frac", qt_frac) == (
            2, "", "error: outage thresholds need --qt-frac in (0, 1)\n")


@pytest.mark.parametrize("op", ["sums.cdf", "sums.mean"])
def test_compare_sums_without_a_spec_exits_2(capsys, op):
    # both ops were a TypeError traceback from open(None)
    assert error_of(capsys, "compare", "--op", op, "--samples", "1000") == (
        2, "", "error: sums comparisons need --spec\n")


@pytest.mark.parametrize("family, b, m", [
    ("logp3", 1.0, 800.0), ("logp3", -1.0, 800.0), ("logitp3", 1.0, -800.0),
])
def test_compare_draws_beyond_the_double_range_exit_2(capsys, family, b, m):
    # e^X overflowed to inf (a RuntimeWarning, and a KS distance of 1), and
    # the logistic of -800 to 0
    assert error_of(capsys, "compare", "--op", "dist.cdf", "--family", family, "--a", "2",
                    "--b", str(b), "--m", str(m), "--samples", "1000") == (
        2, "", f"error: {family} draws of {Pearson3Params(2.0, b, m)} leave the double range\n")


def test_compare_sums_ops(capsys, spec_file):
    for op in ("sums.cdf", "sums.mean"):
        code, out = run(capsys, "compare", "--op", op, "--spec", spec_file,
                        "--samples", "20000", "--seed", "8")
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_compare_wpt_ops(capsys, scenario_file):
    code, out = run(capsys, "compare", "--op", "wpt.cdf", "--scenario",
                    scenario_file, "--qt-frac", "0.1",
                    "--samples", "50000", "--seed", "12")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out = run(capsys, "compare", "--op", "wpt.mean", "--preset", "fig3",
                    "--L", "2", "--samples", "50000", "--seed", "12")
    assert code == 0 and json.loads(out)["passed"] is True


def test_compare_sample_floor(capsys):
    assert run(capsys, "compare", "--op", "dist.cdf", "--samples", "999")[0] == 2


def test_compare_failure_exit_code(capsys, monkeypatch, scenario_file):
    # bias the analytic value so the oracle must flag a mismatch
    import p3family.cli as cli

    monkeypatch.setattr(cli.wpt, "q_cdf_miso", lambda sc, q: 0.5)
    code, out = run(capsys, "compare", "--op", "wpt.cdf", "--scenario",
                    scenario_file, "--qt-frac", "0.1",
                    "--samples", "20000", "--seed", "3")
    assert code == 4
    assert json.loads(out)["passed"] is False


def test_compare_unknown_op(capsys):
    assert run(capsys, "compare", "--op", "nope.cdf")[0] == 2


def test_convergence_exit_code(capsys, monkeypatch, scenario_file):
    from p3family.errors import ConvergenceError
    import p3family.cli as cli

    def boom(sc):
        raise ConvergenceError("stub: series failed")

    monkeypatch.setattr(cli.wpt, "q_mean_miso", boom)
    assert run(capsys, "wpt", "--scenario", scenario_file,
               "--quantity", "mean")[0] == 3


# ------------------------------------------------------ output, parsing

def test_print_csv_bytes(tmp_path):
    rows = [
        (math.nan, math.inf),
        (-math.inf, -0.0),
        (5e-324, 1e300),
        (0.1 + 0.2, 2.99999999999951),  # the second rounds up at the 12th digit
        (1.23456789012567, -2.5e-7),
        (7, np.float64(1.0) / 3.0),
    ]
    expected = (
        "# p3family.test header\n"
        "# columns: point, value\n"
        "nan,inf\n"
        "-inf,-0\n"
        "4.94065645841e-324,1e+300\n"
        "0.3,3\n"
        "1.23456789013,-2.5e-07\n"
        "7,0.333333333333\n"
    )
    headers = ["p3family.test header", "columns: point, value"]
    text = io.StringIO()
    _print_csv(text, headers, *zip(*rows))
    assert text.getvalue() == expected
    path = tmp_path / "curve.csv"
    with open(path, "w", encoding="utf-8") as fh:
        _print_csv(fh, headers, *zip(*rows))
    assert path.read_bytes() == expected.encode()


def _rows_by_percent(points, values):
    return "".join("%.12g,%.12g\n" % row for row in zip(np.asarray(points, float).tolist(),
                                                        np.asarray(values, float).tolist()))


def _assert_csv_body_is_percent(points, values):
    text = io.StringIO()
    _print_csv(text, ["h"], points, values)
    assert text.getvalue() == "# h\n" + _rows_by_percent(points, values)
    assert text.getvalue().count("\n") == len(points) + 1


# bodies on both sides of the smallest block the kernel formats, of one
# kernel block, and of a final block too short for it; 1023..2049 were the
# block bounds of the one-% format per 1024 rows
_SMALL, _BLOCK = csvrows.SMALL_ROWS, csvrows.BLOCK_ROWS


@pytest.mark.parametrize("count", sorted({
    1, 1023, 1024, 1025, 2049, _SMALL - 1, _SMALL, _BLOCK - 1, _BLOCK, _BLOCK + 1,
    _BLOCK + _SMALL - 1, _BLOCK + _SMALL}))
def test_print_csv_blocks_match_rows(count):
    rng = np.random.default_rng(count)
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-310, 7, -12]
    spread = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    points = [specials[i % len(specials)] if i % 3 == 0 else float(x)
              for i, x in enumerate(spread)]
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-20, 20, count)
    values[count // 2] = -0.0
    values[-1] = 2.99999999999951
    _assert_csv_body_is_percent(points, values)


def test_print_csv_matches_percent_on_random_bit_patterns():
    # every float64 is as likely as its bit pattern: NaNs, infinities,
    # subnormals and magnitudes up to 1.8e308 of both signs
    rng = np.random.default_rng(20)
    numbers = rng.integers(0, 2 ** 64, 2 * (2 * _BLOCK + 3 * _SMALL), dtype=np.uint64).view(float)
    _assert_csv_body_is_percent(numbers[0::2], numbers[1::2])


def _thirteen_digit_ties():
    # x = m / 2^j is the decimal m 5^j / 10^j; with m odd, m 5^j ends in 5,
    # and with 13 digits "%.12g" rounds x half to even
    ties = []
    for j in range(19):
        lo, hi = -(-10 ** 12 // 5 ** j), 10 ** 13 // 5 ** j
        for m in (lo, (lo + hi) // 2, hi - 1):
            m += (5 - m % 10) % 10 if j == 0 else 1 - m % 2
            if m * 5 ** j < 10 ** 13:
                ties.append(m / 2 ** j)
    ties += [100.0 * x for x in ties[:3]]
    return ties + [-x for x in ties]


@pytest.mark.parametrize("count", [_SMALL - 1, _SMALL, _BLOCK + 1])
def test_print_csv_boundaries_ties_and_specials(count):
    # the fixed/exponent and 2/3-digit exponent bounds, every power of ten
    # (log10 may round across it), 13-digit ties, zeros, subnormals,
    # infinities and NaN, in bodies of `count` rows
    edges = [9.999999999995e-5, 1e-4, 99999999999.95, 999999999999.5, 1e12,
             9.9999999999995e99, 1.7976931348623157e308, 2.2250738585072014e-308, 2.2e-310]
    edges += [float(f"1e{k}") for k in range(-323, 309)]
    near = [y for x in edges for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf), -x)]
    ties = _thirteen_digit_ties()
    assert all(Decimal(x).normalize().as_tuple().digits[12:] == (5,) for x in ties)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324]
    cases = np.array(near + ties + specials)
    cases = np.resize(cases, -(-cases.size // (2 * count)) * 2 * count).reshape(-1, count, 2)
    for body in cases:
        _assert_csv_body_is_percent(body[:, 0], body[:, 1])
        _assert_csv_body_is_percent(body[:, 1], body[:, 0])


def test_figure_csvs_are_percent_rows(tmp_path):
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
        for name, headers, points, values in cli._figure_curves(fig):
            path = cli._write_curve(str(tmp_path), name, headers, points, values)
            head = "".join(f"# {h}\n" for h in headers)
            assert pathlib.Path(path).read_text() == head + _rows_by_percent(points, values), name


def test_print_csv_memory_is_one_block():
    # a future change must not hold a whole sweep's temporaries: one float64
    # array over the 4e5 numbers of this sweep is 3.2 MB, its text 6 MB
    class Sink:
        def write(self, text):
            pass

    points = np.linspace(-3.0, 1e6, 200_000)
    values = np.exp(-np.linspace(0.0, 700.0, points.size))
    _print_csv(Sink(), ["h"], points[:_BLOCK], values[:_BLOCK])  # builds the kernel's tables
    tracemalloc.start()
    try:
        _print_csv(Sink(), ["h"], points, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_parser_keeps_no_state_between_calls(capsys, tmp_path):
    assert _build_parser() is _build_parser()
    base = ("dist", "p3", "cdf", "--a", "2", "--b", "1", "--at", "1")
    with_m = run(capsys, *base, "--m", "0.5")
    without_m = run(capsys, *base)
    assert without_m == run(capsys, *base, "--m", "0") != with_m
    assert float(without_m[1]) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-11)

    first, second = tmp_path / "first", tmp_path / "second"
    assert run(capsys, "figure", "--id", "fig1", "--out", str(first), "--gnuplot")[0] == 0
    assert run(capsys, "figure", "--id", "fig1", "--out", str(second))[0] == 0
    assert (first / "fig1.gp").exists()
    assert not list(second.glob("*.gp"))

    with pytest.raises(SystemExit) as exc:
        main(["dist", "p3", "cdf", "--a"])
    assert exc.value.code == 2
    assert run(capsys, *base) == without_m


def test_stdout_pipe_matches_in_process(capsys):
    argv = ["dist", "logitp3", "cdf", "--a", "3", "--b", "1.5", "--m", "-1e-05",
            "--sweep", "0.05:0.95:0.05"]
    code, expected = run(capsys, *argv)
    assert code == 0
    src = str(pathlib.Path(p3family.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-m", "p3family.cli", *argv],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           env={**os.environ, "PYTHONPATH": path}, timeout=60, check=False)
    assert child.returncode == 0, child.stderr
    assert child.stdout == expected.encode()
