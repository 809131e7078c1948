"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of the hbcycles modules from outside the
program.  The modules import names from each other directly, so each name
is patched where its caller looks it up (``hbcycles.cli.lp_margin``, not
``hbcycles.cycle_lp.lp_margin``).  Spans nest: a span's self time is its
duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module whose global is patched, attribute, span name).  A span name may
# be patched at several lookup sites.
PATCH_SITES = (
    ("hbcycles.cli", "lp_margin", "cycle_lp.lp_margin"),
    ("hbcycles.cycle_lp", "build_lp_matrix", "cycle_lp.build_lp_matrix"),
    ("hbcycles.cycle_lp", "lift_matrices", "cycle_lp.lift_matrices"),
    ("hbcycles.cycle_lp", "solve_canonical", "simplex.solve_canonical"),
    ("hbcycles.rou_region", "polygon_project_batch", "rou_region.polygon_project_batch"),
    ("hbcycles.cli", "build_counterexample", "rou_region.build_counterexample"),
    ("hbcycles.cli", "member_any_grid", "rou_region.member_any_grid"),
    ("hbcycles.cli", "rate_grid", "quad_rates.rate_grid"),
    ("hbcycles.cli", "perturbed_run", "hb_engine.perturbed_run"),
    ("hbcycles.cli", "noise_budget", "hb_engine.noise_budget"),
    ("hbcycles.hb_engine", "noise_budget", "hb_engine.noise_budget"),
    ("hbcycles.cli", "run", "hb_engine.run"),
    ("hbcycles.smoothing", "run", "hb_engine.run"),
    ("hbcycles.smoothing", "smoothed_grad", "smoothing.smoothed_grad"),
    ("hbcycles.cli", "smooth_counterexample", "smoothing.smooth_counterexample"),
    ("hbcycles.cli", "third_derivative_estimate", "smoothing.third_derivative_estimate"),
    ("hbcycles.cli", "render_svg", "cli.render_svg"),
)

# Per-layer metric -> (unit, better).  Every traced run reports all of them,
# as the median over its traced rounds of the per-round value.
LAYER_METRICS = {
    "cycle_lp.lp_margin.calls": ("count", "lower"),
    "cycle_lp.lp_margin.s": ("s", "lower"),
    "cycle_lp.build_lp_matrix.s": ("s", "lower"),
    "cycle_lp.lift_matrices.s": ("s", "lower"),
    "simplex.solve_canonical.calls": ("count", "lower"),
    "simplex.solve_canonical.s": ("s", "lower"),
    "simplex.pivots": ("count", "lower"),
    "rou_region.polygon_project_batch.calls": ("count", "lower"),
    "rou_region.polygon_project_batch.s": ("s", "lower"),
    "rou_region.polygon_project_batch.points": ("count", "lower"),
    "hb_engine.perturbed_run.calls": ("count", "lower"),
    "hb_engine.perturbed_run.self_s": ("s", "lower"),
    "hb_engine.noise_budget.calls": ("count", "lower"),
    "hb_engine.run.self_s": ("s", "lower"),
    "smoothing.smoothed_grad.calls": ("count", "lower"),
    "smoothing.smoothed_grad.self_s": ("s", "lower"),
    "smoothing.smooth_counterexample.s": ("s", "lower"),
    "smoothing.third_derivative_estimate.s": ("s", "lower"),
    "rou_region.build_counterexample.s": ("s", "lower"),
    "rou_region.member_any_grid.s": ("s", "lower"),
    "quad_rates.rate_grid.s": ("s", "lower"),
    "cli.render_svg.s": ("s", "lower"),
    "cli.rows_written": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """Span totals, self times and counters of one traced round."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._children = []  # child time of each open span, innermost last

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(tracer, result)`` adds counters."""
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - inner
                self.calls[name] += 1
            if after is not None:
                after(self, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def layer_values(self) -> dict:
        """Per-layer metrics of this round, except rows and overhead."""
        out = {}
        for name in LAYER_METRICS:
            if name.endswith(".calls"):
                out[name] = self.calls[name[:-len(".calls")]]
            elif name.endswith(".self_s"):
                out[name] = self.self_time[name[:-len(".self_s")]]
            elif name.endswith(".s"):
                out[name] = self.total[name[:-len(".s")]]
        out["simplex.pivots"] = self.counts["simplex.pivots"]
        out["rou_region.polygon_project_batch.points"] = self.counts["polygon.points"]
        return out


def _count_pivots(tracer, result):
    tracer.counts["simplex.pivots"] += result.iterations


def _count_points(tracer, result):
    tracer.counts["polygon.points"] += len(result)  # one projection per point


_COUNTERS = {
    "simplex.solve_canonical": _count_pivots,
    "rou_region.polygon_project_batch": _count_points,
}


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers at every patch site; restore on exit."""
    saved = []
    try:
        for module_name, attr, span in PATCH_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, _COUNTERS.get(span)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
