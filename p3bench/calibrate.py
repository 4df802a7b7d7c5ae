"""Measure the reference values of the host-speed scaling.

    python3 p3bench/calibrate.py [--seeds 10]

Run from the root of a p3family checkout, on an otherwise idle machine;
takes about 25 s per seed and workload. For each workload it runs the
benchmark untraced with seeds 1..N, reads each run's unscaled mean pass
time (`run_wall_s`) and mean probe time (`probe_s`) from its result file,
and prints the slope of log pass time against log probe time across the
runs, with the spread of `run_s` (quartile distance over median) unscaled,
at the current HOST_EXPONENT and at the fitted slope. The slopes, rounded
to a quarter, are HOST_EXPONENT in workloads.py; the mean probe time over
all runs is PROBE_REF_S in worker.py.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from workloads import HOST_EXPONENT, WORKLOADS  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402


def run_once(name, seed):
    """(run_wall_s, probe_s) of one untraced run."""
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                    "--seed", str(seed), "--trace", "0"],
                   check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(HERE, "_out", f"{name}-trace0.json"), encoding="utf-8") as fh:
        raw = json.load(fh)["raw"]
    return raw["run_wall_s"], raw["probe_s"]


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    probes = []
    for name in WORKLOADS:
        runs = [run_once(name, seed) for seed in range(1, args.seeds + 1)]
        log_wall = [math.log(w) for w, _ in runs]
        log_probe = [math.log(p) for _, p in runs]
        slope = statistics.linear_regression(log_probe, log_wall).slope
        probes.extend(p for _, p in runs)

        def scaled(e):
            return spread([w * (PROBE_REF_S / p) ** e for w, p in runs])

        print(f"{name}: slope {slope:.2f}, correlation "
              f"{statistics.correlation(log_probe, log_wall):.2f}; spread unscaled "
              f"{scaled(0.0):.3f}, at {HOST_EXPONENT[name]} {scaled(HOST_EXPONENT[name]):.3f}, "
              f"at the slope {scaled(slope):.3f}", flush=True)
    print(f"mean probe time: {statistics.fmean(probes) * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
