"""Per-layer tracing of revineq from outside the package.

``Tracer.install`` replaces every binding of the traced public functions in
every loaded ``revineq`` module (a function imported by name into another
module is a separate binding) and patches the traced methods on their
classes.  Each wrapper records a span (name, start, end, parent) in memory
and a few counts taken from the call's arguments or result; nothing is
written until the run ends.  ``uninstall`` restores the originals.

Self time of a span is its duration minus the part of it covered by its
direct child spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time
from pathlib import Path

import numpy as np

# (defining module, attribute, span name); the three reverse radial
# verifiers share one span name so their time is summed
FUNCTIONS = [
    ("revineq.groups", "group_mul", "groups.group_mul"),
    ("revineq.groups", "dilate", "groups.dilate"),
    ("revineq.groups", "check_group_axioms", "groups.check_group_axioms"),
    ("revineq.groups", "check_quasi_norm_axioms",
     "groups.check_quasi_norm_axioms"),
    ("revineq.quadrature", "sample_group_points",
     "quadrature.sample_group_points"),
    ("revineq.quadrature", "integrate_radial_err",
     "quadrature.integrate_radial_err"),
    ("revineq.quadrature", "sphere_measure", "quadrature.sphere_measure"),
    ("revineq.quadrature", "sphere_measure_direct",
     "quadrature.sphere_measure_direct"),
    ("revineq.quadrature", "integrate_cartesian",
     "quadrature.integrate_cartesian"),
    ("revineq.operators", "stein_weiss_form", "operators.stein_weiss_form"),
    ("revineq.operators", "lp_functional", "operators.lp_functional"),
    ("revineq.operators", "weighted_p_integral",
     "operators.weighted_p_integral"),
    ("revineq.operators", "kernel_bound_report",
     "operators.kernel_bound_report"),
    ("revineq.inequalities", "verify_stein_weiss",
     "inequalities.verify_stein_weiss"),
    ("revineq.inequalities", "verify_reverse_hardy",
     "inequalities.verify_reverse_radial"),
    ("revineq.inequalities", "verify_reverse_sobolev",
     "inequalities.verify_reverse_radial"),
    ("revineq.inequalities", "verify_reverse_ckn",
     "inequalities.verify_reverse_radial"),
    ("revineq.trials", "estimate_best_constant",
     "trials.estimate_best_constant"),
    ("revineq.cli", "run", "cli.run"),
]

# (defining module, class, method, span name)
METHODS = [
    ("revineq.groups", "QuasiNorm", "__call__", "groups.norm_eval"),
    ("revineq.quadrature", "RadialSampler", "__init__",
     "quadrature.RadialSampler.init"),
    ("revineq.quadrature", "RadialSampler", "sample",
     "quadrature.RadialSampler.sample"),
    ("revineq.quadrature", "RadialSampler", "pdf",
     "quadrature.RadialSampler.pdf"),
    ("revineq.operators", "RadialProfile", "check_decreasing",
     "operators.RadialProfile.check_decreasing"),
]

SELF_MS = [
    "groups.group_mul", "groups.dilate", "groups.norm_eval",
    "groups.check_group_axioms", "groups.check_quasi_norm_axioms",
    "quadrature.RadialSampler.init", "quadrature.RadialSampler.pdf",
    "quadrature.sample_group_points", "quadrature.integrate_radial_err",
    "quadrature.sphere_measure_direct", "quadrature.integrate_cartesian",
    "operators.stein_weiss_form", "operators.lp_functional",
    "operators.weighted_p_integral",
    "operators.RadialProfile.check_decreasing",
    "operators.kernel_bound_report", "inequalities.verify_stein_weiss",
    "inequalities.verify_reverse_radial", "trials.estimate_best_constant",
    "cli.run",
]
CALLS = ["quadrature.RadialSampler.init", "quadrature.integrate_radial_err",
         "quadrature.sphere_measure"]

# per-layer metric names and units, in output order
LAYER_METRICS = (
    [(f"{s}.self_ms", "ms/op") for s in SELF_MS]
    + [(f"{s}.calls", "1/op") for s in CALLS]
    + [("groups.norm_eval.points_per_s", "1/s"),
       ("quadrature.RadialSampler.sample.draws_per_s", "1/s"),
       ("quadrature.integrate_radial_err.integrand_evals_per_call", "1/call"),
       ("quadrature.sphere_measure.misses", "1/op"),
       ("quadrature.sphere_measure.miss_ms", "ms/op"),
       ("trials.estimate_best_constant.evaluations", "1/op"),
       ("trials.estimate_best_constant.degenerate_share", "1"),
       ("cli.run.bytes_written", "B/op"),
       ("trace_overhead_share", "1")]
)


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its direct
    children's intervals, clipped to the span."""
    children = collections.defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append((end - start) - covered)
    return out


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if shape else 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (name, start, end, parent)
        self.counts: collections.Counter = collections.Counter()
        self.recording = False
        self._stack: list[int] = []
        self._sphere_keys: set = set()        # |S| keys seen since install
        self._patches: list[tuple] = []

    # -- span recording ---------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        """Wrap ``fn`` in a span.  ``hook(args, kwargs)`` returns the
        arguments to call with and an optional ``after(result, seconds,
        recorded)`` callback."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if hook:
                args, kwargs, after = hook(args, kwargs)
            if not tracer.recording:
                result = fn(*args, **kwargs)
                if after:
                    after(result, 0.0, False)
                return result
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            if after:
                after(result, end - start, True)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- counts taken at the boundaries -------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def norm_eval(args, kwargs):
            if self.recording:
                counts["norm_points"] += _points(args[1])
            return args, kwargs, None

        def sample(args, kwargs):
            if self.recording:
                counts["draws"] += int(args[1])
            return args, kwargs, None

        def integrate_radial_err(args, kwargs):
            if not self.recording:
                return args, kwargs, None
            profile, evals = args[0], 0

            def counted(r):
                nonlocal evals
                evals += 1
                return profile(r)

            def total(result, seconds, recorded):
                counts["integrand_evals"] += evals

            return (counted,) + args[1:], kwargs, total

        def sphere_measure(args, kwargs):
            # a miss is a key not seen before; keys are tracked even while
            # not recording, so warm-up calls count as cache fills
            group, norm, spec = args
            key = (group.name, group.weights, norm.name, spec)
            if key in self._sphere_keys:
                return args, kwargs, None
            self._sphere_keys.add(key)

            def miss(result, seconds, recorded):
                if recorded:
                    counts["sphere_misses"] += 1
                    counts["sphere_miss_s"] += seconds

            return args, kwargs, miss

        def estimate(args, kwargs):
            def record(rec, seconds, recorded):
                if recorded:
                    counts["evaluations"] += rec.evaluations
                    counts["degenerate"] += rec.degenerate_evaluations
            return args, kwargs, record

        def cli_run(args, kwargs):
            out = Path(args[2] if len(args) > 2 else kwargs.get("out_dir", "."))

            def written(code, seconds, recorded):
                if recorded:
                    counts["bytes_written"] += sum(
                        p.stat().st_size for p in out.iterdir() if p.is_file())
            return args, kwargs, written

        return {"groups.norm_eval": norm_eval,
                "quadrature.RadialSampler.sample": sample,
                "quadrature.integrate_radial_err": integrate_radial_err,
                "quadrature.sphere_measure": sphere_measure,
                "trials.estimate_best_constant": estimate,
                "cli.run": cli_run}

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "revineq"
                                         or n.startswith("revineq."))]
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span, orig, hooks.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[method]
            self._patches.append((cls, method, orig))
            setattr(cls, method, self._wrap(span, orig, hooks.get(span)))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def reset(self) -> None:
        """Drop spans and counts, keeping the |S| keys already seen."""
        self.spans.clear()
        self.counts.clear()

    # -- per-layer metrics -------------------------------------------------

    def _totals(self):
        """Self seconds and call count per span name."""
        selfs = collections.defaultdict(float)
        calls = collections.Counter()
        for (name, *_), t in zip(self.spans, self_times(self.spans)):
            selfs[name] += t
            calls[name] += 1
        return selfs, calls

    def span_table(self) -> list[str]:
        """One line per span name: calls and self time over the traced run."""
        selfs, calls = self._totals()
        return [f"span {name}: {calls[name]} calls, "
                f"{1e3 * selfs[name]:.3f} ms self"
                for name in sorted(calls, key=lambda n: -selfs[n])]

    def layer_metrics(self, n_ops: int, overhead: float) -> dict:
        """Per-layer metrics over the recorded spans, per operation."""
        selfs, calls = self._totals()
        c = self.counts

        def rate(count, span):
            return count / selfs[span] if selfs[span] > 0 else 0.0

        values = {f"{s}.self_ms": 1e3 * selfs[s] / n_ops for s in SELF_MS}
        values.update({f"{s}.calls": calls[s] / n_ops for s in CALLS})
        n_radial = calls["quadrature.integrate_radial_err"]
        values.update({
            "groups.norm_eval.points_per_s":
                rate(c["norm_points"], "groups.norm_eval"),
            "quadrature.RadialSampler.sample.draws_per_s":
                rate(c["draws"], "quadrature.RadialSampler.sample"),
            "quadrature.integrate_radial_err.integrand_evals_per_call":
                c["integrand_evals"] / n_radial if n_radial else 0.0,
            "quadrature.sphere_measure.misses": c["sphere_misses"] / n_ops,
            "quadrature.sphere_measure.miss_ms":
                1e3 * c["sphere_miss_s"] / n_ops,
            "trials.estimate_best_constant.evaluations":
                c["evaluations"] / n_ops,
            "trials.estimate_best_constant.degenerate_share":
                c["degenerate"] / c["evaluations"] if c["evaluations"] else 0.0,
            "cli.run.bytes_written": c["bytes_written"] / n_ops,
            "trace_overhead_share": overhead,
        })
        return {name: (values[name], unit) for name, unit in LAYER_METRICS}
