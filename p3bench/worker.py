"""One workload in a fresh interpreter: set up, time, trace and check.

    python3 p3bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 p3bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --setup-only

`run.py` starts this with `src` on PYTHONPATH and thread counts pinned to
1, and reads the JSON object printed as the last line. With
`--setup-only` the process imports the package, generates the inputs and
reports when it was ready; `run.py` times set-up from these processes.
"""

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_GAP_S = 0.1  # least time between two host-speed probes
PROBE_REF_S = 4.3e-3  # the probe's mean time on the reference machine (README.md)


def probe_loop():
    """Time a fixed pure-Python loop: the host's speed at this moment."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(25_000):
        acc += math.exp(-i * 1e-6)
    return time.perf_counter() - t0


class HostProbe:
    """Host-speed probes taken between the operations of a phase, outside
    their timed intervals.

    The shared host runs the same code up to 1.6 times slower for seconds
    to minutes at a time, and the probe slows with it. `factor` scales a
    phase's times to the reference host speed: (PROBE_REF_S / mean probe
    time) to the power of the workload's host exponent, the measured
    sensitivity of its pass time to the probe's (calibrate.py).
    """

    def __init__(self):
        self.times = []
        self._last = -math.inf

    def after_op(self):
        if time.perf_counter() - self._last >= PROBE_GAP_S:
            self.times.append(probe_loop())
            self._last = time.perf_counter()

    def factor(self, exponent):
        return (PROBE_REF_S / statistics.fmean(self.times)) ** exponent


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True, help="directory for inputs and figure CSVs")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def import_package():
    """Import the package layer by layer; return each import's wall time."""
    t0 = time.perf_counter()
    import p3family  # noqa: F401
    t1 = time.perf_counter()
    import p3family.mc  # noqa: F401
    t2 = time.perf_counter()
    import p3family.cli  # noqa: F401
    t3 = time.perf_counter()
    return {"import.p3family_s": t1 - t0, "import.mc_s": t2 - t1, "import.cli_s": t3 - t2}


def read_written(op, res):
    """`res` with the contents of the files `op` wrote."""
    files = []
    for path in op.written():
        with open(path, encoding="utf-8") as fh:
            files.append((os.path.basename(path), fh.read()))
    return dataclasses.replace(res, files=tuple(files))


def run_pass(ops, probe=None):
    """Run every operation once.

    Returns the results by operation name, the number of failures and the
    (wall, CPU) time of each operation in order. The files an operation
    writes are removed before it runs and read into its result after its
    time is taken; so is the host probe, if one is given.
    """
    from workloads import op_failed

    results = {}
    failed = 0
    times = []
    for op in ops:
        for path in op.written():
            os.remove(path)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            res = op.fn()
        except Exception as exc:  # a failed operation must not stop the run
            res = exc
        times.append((time.perf_counter() - t0, time.process_time() - c0))
        if op.writes and not isinstance(res, Exception):
            res = read_written(op, res)
        results[op.name] = res
        if probe is not None:
            probe.after_op()
        if isinstance(res, Exception):
            print(f"operation {op.name} raised {res!r}", file=sys.stderr)
            traceback.print_exception(res, limit=3, file=sys.stderr)
            failed += 1
        elif op_failed(op, res):
            print(f"operation {op.name} exited {res.code}: {res.err.strip()}", file=sys.stderr)
            failed += 1
    return results, failed, times


class Passes:
    """Timed passes of one phase (untraced or traced)."""

    def __init__(self, probe=None):
        self.walls = []  # whole-pass wall times
        self.op_times = []  # per pass, the (wall, CPU) time of each operation
        self.snaps = []  # per pass, tracer totals before and after
        self.failed = 0
        self.differing = set()  # operations whose output differed from the warm-up pass
        self.probe = probe

    def wall_s(self):
        """Mean time of a pass: the sum of its operations' wall times."""
        return statistics.fmean(math.fsum(w for w, _ in t) for t in self.op_times)

    def cpu_time_s(self):
        return statistics.fmean(math.fsum(c for _, c in t) for t in self.op_times)


def timed_passes(ops, seconds, warm_results, tracer=None):
    """Whole passes until `seconds` have elapsed, at least one; each pass's
    outputs are compared with the warm-up pass's outside the timed interval.
    Untraced passes take host probes between operations."""
    from workloads import differing_outputs

    ph = Passes(probe=None if tracer else HostProbe())
    start = time.perf_counter()
    while not ph.walls or time.perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            before = tracer.snapshot()
            t0 = tracer.open_root()
            results, f, times = run_pass(ops)
            ph.walls.append(tracer.close_root(t0))
            ph.snaps.append((before, tracer.snapshot()))
        else:
            t0 = time.perf_counter()
            results, f, times = run_pass(ops, ph.probe)
            ph.walls.append(time.perf_counter() - t0)
        ph.op_times.append(times)
        ph.failed += f
        ph.differing |= differing_outputs(warm_results, results)
    return ph


def layer_metrics(traced, untraced):
    """Per-pass means over the traced passes, and whether every traced pass
    made the same counts."""
    from tracing import COUNTERS, LAYERS, ROOT

    n = len(traced.snaps)
    self_s = dict.fromkeys(LAYERS + (ROOT,), 0.0)
    build_s = 0.0
    per_pass_counts = []
    for (s0, c0, k0, b0), (s1, c1, k1, b1) in traced.snaps:
        for layer in self_s:
            self_s[layer] += (s1[layer] - s0[layer]) / n
        build_s += (b1 - b0) / n
        per_pass_counts.append(
            tuple(c1[layer] - c0[layer] for layer in LAYERS)
            + tuple(k1[c] - k0[c] for c in COUNTERS)
        )
    counts = dict(zip([f"{layer}.calls" for layer in LAYERS] + list(COUNTERS),
                      per_pass_counts[0]))
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update(counts)
    out["sums.spec_build_s"] = build_s
    out["bench.self_s"] = self_s[ROOT]
    out["trace.run_s"] = statistics.fmean(traced.walls)
    out["trace.overhead_s"] = traced.wall_s() - untraced.wall_s()
    return out, len(set(per_pass_counts)) == 1


def main(argv=None):
    args = parse_args(argv)
    imports = import_package()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.make(args.workload, args.seed, args.out, tiny=args.size == "tiny")
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, **imports}))
        return 0

    warm_results, failed, _ = run_pass(w.ops)
    passes = 1
    timed = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_passes(w.ops, timed, warm_results)
    failed += untraced.failed
    passes += len(untraced.walls)
    factor = untraced.probe.factor(workloads.HOST_EXPONENT[w.name])
    result = {
        "run_s": untraced.wall_s() * factor,
        "cpu_s": untraced.cpu_time_s() * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_wall_s": untraced.wall_s(),
        "cpu_time_s": untraced.cpu_time_s(),
        "probe_s": statistics.fmean(untraced.probe.times),
        "host_factor": factor,
        "pass_walls": untraced.walls,
    }
    differing = untraced.differing
    problems = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced = timed_passes(w.ops, timed, warm_results, tracer)
        failed += traced.failed
        passes += len(traced.walls)
        layers, repeats = layer_metrics(traced, untraced)
        result.update(layers)
        result["traced_pass_walls"] = traced.walls
        if not repeats:
            problems.append("per-pass counts differ between traced passes")
        differing |= traced.differing

    import checks

    problems += [f"{name}: output differs between passes" for name in sorted(differing)]
    try:
        problems += checks.check(w, warm_results)
    except Exception as exc:  # an output the checks cannot read is a failed check
        traceback.print_exc(file=sys.stderr)
        problems.append(f"checks raised {exc!r}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result.update({
        "correct": not problems,
        "attempted": passes * len(w.ops),
        "failed": failed,
        "ops_per_pass": len(w.ops),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
