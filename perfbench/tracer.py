"""Span tracing of fpplab's layers from outside the package.

Each hook names a layer function by the dotted name under which its
*caller* looks it up, e.g. ``fpplab.scenarios.solve`` (scenarios imports
``solve`` into its own namespace) or ``fpplab.oracle.sigma`` (the oracle's
integrand calls ``sigma`` through the oracle module).  Patching the
caller's binding is what makes the wrapper run; patching the defining
module alone would miss calls through a ``from x import y`` binding.  A
site that no longer exists is reported as missing and skipped, so a
refactor that renames or deletes a function degrades the trace instead of
crashing it.

Spans (id, parent id, run id, hook, start, end) are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; calls are strictly nested because
the workload is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time

# (metric prefix, caller-side dotted names, observer).  The prefix is
# "<defining module>.<function>"; its first part is the layer the span's
# self time is charged to.  An observer maps (args, result) to a number
# kept per call.
HOOKS = (
    ("cli.main", ("fpplab.cli.main",), None),
    ("scenarios.run_scenario", ("fpplab.cli.run_scenario",), None),
    ("scenarios.parse_config", ("fpplab.scenarios.parse_config",), None),
    ("scenarios.write_series_csv", ("fpplab.scenarios.write_series_csv",), None),
    ("scenarios.emit_plots", ("fpplab.scenarios.emit_plots",), None),
    ("solver.solve", ("fpplab.scenarios.solve",), None),
    ("oracle.radial_weighted_l2", ("fpplab.scenarios.radial_weighted_l2",
                                   "fpplab.propagator.radial_weighted_l2"), None),
    ("oracle.quad", ("fpplab.oracle.quad",), None),
    ("model.sigma", ("fpplab.oracle.sigma",), None),
    ("propagator.probe_low_band", ("fpplab.scenarios.probe_low_band",), None),
    ("propagator.probe_high_band", ("fpplab.scenarios.probe_high_band",), None),
    ("grid.pointwise_power", ("fpplab.grid.pointwise_power",), None),
    # the padded sample array is the first element of the returned tuple
    ("grid.padded_physical", ("fpplab.grid.padded_physical",),
     lambda args, result: result[0].size),
    ("grid.hermitian_symmetrize", ("fpplab.grid.hermitian_symmetrize",), None),
    ("grid.sobolev_seminorm", ("fpplab.grid.sobolev_seminorm",), None),
    ("grid.split_low_high", ("fpplab.grid.split_low_high",), None),
    ("grid.lp_norm", ("fpplab.grid.lp_norm",), None),
    # the first argument is the trajectory: one entry per kept snapshot
    ("diagnostics.record", ("fpplab.diagnostics.record",),
     lambda args, result: len(args[0])),
    ("diagnostics.weighted_functionals", ("fpplab.scenarios.weighted_functionals",), None),
    ("diagnostics.fit_decay", ("fpplab.scenarios.fit_decay",), None),
)

# Highest percentile reported, in permille: the largest of these with at
# least 10 samples above its nearest-rank position.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_SAMPLES_BEYOND = 10


def rank(permille: int, n: int) -> int:
    """1-based nearest-rank position of a percentile, in exact integer arithmetic."""
    return max(1, -(-permille * n // 1000))


def tail_permille(n: int) -> int:
    """Largest reportable percentile for n samples, or 0 when there is none."""
    for p in TAIL_PERMILLE:
        if n - rank(p, n) >= MIN_SAMPLES_BEYOND:
            return p
    return 0


def nearest_rank(sorted_values, permille: int):
    return sorted_values[rank(permille, len(sorted_values)) - 1] if sorted_values else 0.0


class Tracer:
    """Wraps the hooked functions while installed and records one span per call."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.run_id = 0
        self.spans = []
        self.errors = [0] * len(hooks)
        self.observed = [[] for _ in hooks]
        self.missing = []
        self._stack = [-1]
        self._ids = itertools.count()
        self._patched = []

    def __enter__(self):
        for idx, (_, sites, observe) in enumerate(self.hooks):
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    continue
                setattr(module, attr, self._wrap(original, idx, observe))
                self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, idx, observe):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[idx] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.run_id, idx, start, end))
            if observe is not None:
                try:
                    tracer.observed[idx].append(observe(args, result))
                except (TypeError, IndexError, AttributeError):
                    pass  # a changed signature loses the observation, never the run
            return result

        return traced

    def missing_hooks(self) -> list:
        """Metric prefixes none of whose sites could be patched."""
        return [name for name, sites, _ in self.hooks
                if all(site in self.missing for site in sites)]

    def summary(self) -> dict:
        """Per-hook calls, busy and self seconds, p50 and tail percentile."""
        child_ns = {}
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        durations = [[] for _ in self.hooks]
        self_ns = [0] * len(self.hooks)
        for sid, _, _, idx, start, end in self.spans:
            dur = end - start
            durations[idx].append(dur)
            self_ns[idx] += dur - child_ns.get(sid, 0)
        hooks = {}
        for idx, (name, _, _) in enumerate(self.hooks):
            d = sorted(durations[idx])
            p = tail_permille(len(d))
            hooks[name] = {
                "calls": len(d),
                "busy_s": sum(d) * 1e-9,
                "self_s": self_ns[idx] * 1e-9,
                "p50_ms": nearest_rank(d, 500) * 1e-6,
                "ptail_ms": nearest_rank(d, p) * 1e-6 if p else 0.0,
                "ptail_pct": p / 10.0,
                "errors": self.errors[idx],
                "observed": self.observed[idx],
            }
        return {"hooks": hooks, "missing_sites": list(self.missing),
                "missing": self.missing_hooks(), "spans": len(self.spans)}

    def write_spans(self, path):
        """CSV of every span: id, parent (-1 for a root), run id, hook, start/end ns."""
        names = [name for name, _, _ in self.hooks]
        with open(path, "w") as fh:
            fh.write("id,parent,run,name,start_ns,end_ns\n")
            for sid, parent, run, idx, start, end in self.spans:
                fh.write(f"{sid},{parent},{run},{names[idx]},{start},{end}\n")
