"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces every public function of each p3family layer
module, in every p3family namespace that binds it, with a wrapper that
times the call. The wrapper keeps a stack of open spans; when a span
closes, its duration minus the time of its child spans is added to the
self time of its layer, and its duration to the child time of its parent.
Spans are folded into these per-layer totals as they close instead of
being kept as records: the `mc_oracle` workload closes about 10^6 spans
per pass, and keeping each would cost more memory than the workload
itself uses.

The harness opens a root span ("bench") around each pass, so the self
times of all layers plus the root add up to the pass wall time.
"""

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# Call-stack order, innermost first.
LAYERS = ("specfun", "series", "pearson3", "logp3", "logitp3", "sums", "wpt", "mc", "cli")
ROOT = "bench"
COUNTERS = ("series.terms", "mc.samples", "mc.ks_cdf_calls", "sums.spec_builds")
_SAMPLERS = ("sample_sum", "sample_harvested", "sample_channel_gain", "p3_sample")


def _public_functions(module):
    """Public functions defined in `module` itself (not re-exported ones)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Per-layer self time, call counts and work counters for traced passes."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.spec_build_s = 0.0
        self._stack = []

    # --------------------------------------------------------- wrapping

    def _wrap(self, layer, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            stack = tracer._stack
            frame = [0.0]  # time of child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tracer.self_s[layer] += dur - frame[0]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][0] += dur

        return traced

    def _count_terms(self, args, kwargs):
        counts = self.counts
        terms = args[0]

        def counted():
            for t in terms:
                counts["series.terms"] += 1
                yield t

        return (counted(),) + tuple(args[1:]), kwargs

    def _count_ks_calls(self, args, kwargs):
        counts = self.counts
        samples, cdf_fn = args[0], args[1]

        def counted_cdf(x):
            counts["mc.ks_cdf_calls"] += 1
            return cdf_fn(x)

        return (samples, counted_cdf) + tuple(args[2:]), kwargs

    def _count_samples(self, args, kwargs):
        self.counts["mc.samples"] += int(kwargs.get("count", args[2] if len(args) > 2 else 0))
        return args, kwargs

    def _hook_for(self, layer, name):
        if layer == "series" and name in ("sum_series", "sum_alternating"):
            return self._count_terms
        if layer == "mc" and name == "ks_distance":
            return self._count_ks_calls
        if name in _SAMPLERS:
            return self._count_samples
        return None

    def install(self):
        """Wrap every public layer function wherever p3family binds it."""
        from p3family import sums

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"p3family.{layer}"]
            for name, fn in _public_functions(module).items():
                wrapped[fn] = self._wrap(layer, fn, self._hook_for(layer, name))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "p3family" or n.startswith("p3family.")]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])

        build = sums.SumSpec.__post_init__
        traced_build = self._wrap("sums", build)
        tracer = self

        def post_init(spec):
            t0 = perf_counter()
            try:
                return traced_build(spec)
            finally:
                tracer.spec_build_s += perf_counter() - t0
                tracer.counts["sums.spec_builds"] += 1

        sums.SumSpec.__post_init__ = post_init

    # ------------------------------------------------------------ passes

    def open_root(self):
        self._stack.append([0.0])
        return perf_counter()

    def close_root(self, t0):
        wall = perf_counter() - t0
        frame = self._stack.pop()
        self.self_s[ROOT] += wall - frame[0]
        return wall

    def snapshot(self):
        """Current totals, to difference between passes."""
        return (Counter(self.self_s), Counter(self.calls), Counter(self.counts),
                self.spec_build_s)
