"""Self-test of the benchmark.

    python3 p3bench/selftest.py

Run from the root of a p3family checkout; takes about three minutes. Every
workload runs at the tiny size: once untraced, twice traced with the same
seed. The test checks that

- each run exits 0 and prints the result line with the metrics that
  BENCHMARK.json names, all operations correct and none failed;
- every count metric repeats exactly between the two traced runs;
- the per-layer self times plus the harness's own add up to the traced
  pass time;
- in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5


def run(cwd, *args):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "p3bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def run_tiny(workload, trace, problems):
    code, out, err = run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                         "--trace", str(trace), "--size", "tiny")
    where = f"{workload} trace={trace}"
    if code != 0:
        problems.append(f"{where}: exit code {code}\n{err[-2000:]}")
        return None
    line = json.loads(out.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        problems.append(f"{where}: correct={line['correct']} failed={line['failed']} "
                        f"attempted={line['attempted']}\n{err[-2000:]}")
    return line


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        line = run_tiny(w, 0, problems)
        if line is not None:
            if set(line["metrics"]) != end_to_end:
                problems.append(f"{w}: end-to-end metrics {sorted(line['metrics'])}")
            elif any(m["value"] <= 0 for m in line["metrics"].values()):
                problems.append(f"{w}: an end-to-end metric is not positive")
        traced = [run_tiny(w, 1, problems) for _ in range(2)]
        if None in traced:
            continue
        first, second = (t["metrics"] for t in traced)
        if set(first) != set(per_layer):
            problems.append(f"{w}: per-layer metrics {sorted(first)}")
            continue
        for name, unit in per_layer.items():
            if unit == "count" and first[name]["value"] != second[name]["value"]:
                problems.append(f"{w}: {name} differs between runs: "
                                f"{first[name]['value']} vs {second[name]['value']}")
        for metrics in (first, second):
            total = sum(m["value"] for name, m in metrics.items()
                        if name.endswith(".self_s"))
            wall = metrics["trace.run_s"]["value"]
            if abs(total - wall) > 1e-9 * wall + 1e-12:
                problems.append(f"{w}: self times add up to {total!r}, pass time {wall!r}")
        print(f"{w}: ok" if not problems else f"{w}: {len(problems)} problem(s) so far",
              flush=True)

    bare = os.path.join(HERE, "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "p3bench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    code, out, _ = run(bare, "--workload", "figure_curves", "--seed", "1", "--seconds", "1",
                       "--trace", "0")
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        problems.append(f"bare directory: exit code {code}, output {out.strip()[:200]!r}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
