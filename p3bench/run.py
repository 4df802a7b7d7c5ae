"""Benchmark of the p3family library: one workload per run.

    python3 p3bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 p3bench/run.py --workload all --seed N --seconds S

Run from the root of a p3family checkout. The workload runs in a fresh
interpreter with `src` on PYTHONPATH and BLAS/OpenMP threads pinned to 1;
set-up is timed over further fresh interpreters started after it. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. `--workload all`
runs every workload both ways and prints each metric by name and unit.
See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170  # one workload run, all of its processes together
SETUP_SAMPLES = 3  # fresh interpreters whose median set-up time is reported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_spec():
    """Workload names, the units of the end-to-end and per-layer metrics,
    and the run length."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (tuple(w["name"] for w in spec["workloads"]),
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            spec["run_seconds"])


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildError(RuntimeError):
    pass


def run_child(args, env, root, deadline):
    """Start worker.py, wait for it until `deadline` (monotonic), return
    (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{' '.join(args)}: no result within {RUN_TIMEOUT_S} s of the run's start")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(args)}: exit code {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, size, root):
    out_dir = os.path.join(HERE, "_out", name)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--size", size, "--out", out_dir]
    env = child_env(root)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # The workload process runs first and leaves the page cache warm for
    # the set-up processes that follow.
    _, res = run_child(common, env, root, deadline)
    setups = []
    for _ in range(SETUP_SAMPLES):
        t_spawn, probe = run_child(common + ["--setup-only"], env, root, deadline)
        probe["setup_s"] = probe.pop("ready") - t_spawn
        setups.append(probe)
    for key in setups[0]:
        res[key] = statistics.median(s[key] for s in setups)
    return res


def result_line(res, units):
    return {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": res[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    workloads, end_to_end, per_layer, run_seconds = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few points per operation, for the self-test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "p3family", "__init__.py")):
        print("error: run from the root of a p3family checkout (src/p3family not found)",
              file=sys.stderr)
        return 2

    runs = [(args.workload, args.trace)] if args.workload != "all" else \
        [(name, trace) for name in workloads for trace in (0, 1)]
    lines = {}
    try:
        for name, trace in runs:
            res = run_workload(name, args.seed, args.seconds, trace, args.size, root)
            line = result_line(res, per_layer if trace else end_to_end)
            lines[(name, trace)] = line
            with open(os.path.join(HERE, "_out", f"{name}-trace{trace}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"seed": args.seed, "seconds": args.seconds, "size": args.size,
                           **line, "raw": res}, fh, indent=1)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        print(json.dumps(lines[runs[0]]))
        return 0
    for (name, trace), line in lines.items():
        print(f"{name} ({'per layer' if trace else 'end to end'}): correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}")
        for metric, m in line["metrics"].items():
            print(f"  {metric:22s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(l["correct"] for l in lines.values()),
        "attempted": sum(l["attempted"] for l in lines.values()),
        "failed": sum(l["failed"] for l in lines.values()),
        "metrics": {f"{name}.{metric}": m for (name, trace), line in lines.items() if not trace
                    for metric, m in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
