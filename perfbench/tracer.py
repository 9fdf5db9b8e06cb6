"""Span tracer for the benchmark's traced run.

It wraps the public functions of gsaudit named in LAYERS from outside the
package. Each call records a span (id, parent id, name, start, end, extra
counts) in memory. The spans are written out when the run ends. Worker
threads started by `uncertainty`'s per-ball pool inherit the span that
submitted their task, so their spans keep a parent.

`self_times` turns the span list into per-name call counts and self time:
the span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter


def _interval_nodes(args, kwargs, result):
    order = args[2] if len(args) > 2 else kwargs.get("order", 20)
    return {"nodes": len(result[0]), "order": order}


def _good_ball(args, kwargs, result):
    return {"good": bool(result.is_good and not result.degenerate)}


def _witness(args, kwargs, result):
    return {"refined": bool(result.refined)}


def _mk_bruteforce(args, kwargs, result):
    return {"samples": result.n_samples, "rounds": result.rounds}


def _series(args, kwargs, result):
    return {"terms": result.terms_used}


def _cover(args, kwargs, result):
    return {"balls": len(result)}


def _outputs(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(path) for path in result)}


# (module, function, span name, extra-count extractor). Both uncertainty
# entry points share one span name: one span per pipeline instance.
LAYERS = [
    ("hermite", "interval_nodes", "hermite.interval_nodes", _interval_nodes),
    ("hermite", "weighted_norm", "hermite.weighted_norm", None),
    ("hermite", "norm_squared_on_ball", "hermite.norm_squared_on_ball", None),
    ("hermite", "norm_squared_on_intervals", "hermite.norm_squared_on_intervals", None),
    ("hermite", "gauss_hermite", "hermite.gauss_hermite", None),
    ("hermite", "evaluate", "hermite.evaluate", None),
    ("local_estimates", "good_ball_test", "local_estimates.good_ball_test", _good_ball),
    ("local_estimates", "pointwise_witness", "local_estimates.pointwise_witness", _witness),
    ("local_estimates", "mk_bruteforce", "local_estimates.mk_bruteforce", _mk_bruteforce),
    ("local_estimates", "local_estimate_check", "local_estimates.local_estimate_check", None),
    ("local_estimates", "series_bound", "local_estimates.series_bound", _series),
    ("local_estimates", "bad_mass_bound", "local_estimates.bad_mass_bound", None),
    ("local_estimates", "derivative_family", "local_estimates.derivative_family", None),
    ("geometry", "besicovitch_cover", "geometry.besicovitch_cover", _cover),
    ("geometry", "certify_density", "geometry.certify_density", None),
    ("semigroup", "fit_gs_bound", "semigroup.fit_gs_bound", None),
    ("semigroup", "tail_mass_check", "semigroup.tail_mass_check", None),
    ("semigroup", "shubin_galerkin_flow", "semigroup.shubin_galerkin_flow", None),
    ("semigroup", "fit_smoothing_certificate", "semigroup.fit_smoothing_certificate", None),
    ("semigroup", "validate_smoothing", "semigroup.validate_smoothing", None),
    ("uncertainty", "verify_uncertainty", "uncertainty.instance", None),
    ("uncertainty", "verify_uncertainty_decay", "uncertainty.instance", None),
    ("observability", "mass_matrix", "observability.mass_matrix", None),
    ("observability", "observability_scan", "observability.observability_scan", None),
    ("experiments", "resolve_config", "experiments.resolve_config", None),
    ("experiments", "run_experiment", "experiments.run_experiment", None),
    ("cli", "write_outputs", "cli.write_outputs", _outputs),
]


class Tracer:
    """Records spans in memory; `install` patches gsaudit to feed it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def wrap(self, name, fn, extract=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), stack[-1], name, 0.0, 0.0, None]
            stack.append(span[0])
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
                self.spans.append(span)
            if extract is not None:
                span[5] = extract(args, kwargs, result)
            return result

        return traced

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn in this thread with `parent` as the enclosing span."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def install(self):
        """Wrap every LAYERS function under each name gsaudit binds it to.

        Modules that did `from .x import f` hold their own reference, so the
        patch replaces every module attribute that is the original function.
        """
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("gsaudit.")]
        for module_name, fn_name, span_name, extract in LAYERS:
            original = getattr(sys.modules[f"gsaudit.{module_name}"], fn_name)
            traced = self.wrap(span_name, original, extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]
                return super().submit(tracer.run_under, parent, fn, *args, **kwargs)

        sys.modules["gsaudit.uncertainty"].ThreadPoolExecutor = TracedPool


def _covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: (name, duration, self time, extra)."""
    children = {}
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for span_id, _, name, start, end, extra in spans:
        busy = _covered(children.get(span_id, ()), start, end)
        out.append((name, end - start, end - start - busy, extra))
    return out
