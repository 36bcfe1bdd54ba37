"""Span tracing from outside the program.

`Tracer` replaces the public callables at the names their callers resolve
(a module global such as `nurbsnav.planner.path_vo_violation`, or a method
on its class such as `NurbsCurve.project`) with timing wrappers, and puts
the originals back on exit. Each call leaves one span: name, start, end,
index of the enclosing span, replan-cycle id, and for a few layers a
small annotation taken from the arguments or the result. Spans stay in
memory; `layer_stats` folds them into per-layer totals.
"""

from __future__ import annotations

import time
from collections import defaultdict

import nurbsnav.geometry as geometry
import nurbsnav.lshade as lshade
import nurbsnav.planner as planner
import nurbsnav.scenario as scenario
import nurbsnav.world as world

CYCLE = "planner.replan_cycle"
OPTIMIZE = "lshade.optimize"
EVALUATE = "planner.candidate_eval"
VO = "velocity_obstacle.path_vo_violation"
CUT = "planner.cut"


def _vo_info(args, kwargs, result):
    return len(args[2])


def _optimize_info(args, kwargs, result):
    config = args[1]
    stats = result[1]
    return (stats.evaluations, stats.generations, config.deadline is not None,
            config.budget)


def _cycle_info(args, kwargs, result):
    return result is not None


# (owner, attribute, span name, annotation). Owners are where callers look
# the name up at call time, so patching them catches every call.
PATCH_POINTS = (
    (geometry, "apply_delta", "geometry.apply_delta", None),
    (geometry.NurbsCurve, "total_length", "geometry.total_length", None),
    (geometry.NurbsCurve, "positions_and_curvatures",
     "geometry.positions_and_curvatures", None),
    (geometry.NurbsCurve, "param_at_length", "geometry.param_at_length", None),
    (geometry.NurbsCurve, "split", "geometry.split", None),
    (geometry.NurbsCurve, "project", "geometry.project", None),
    (geometry.NurbsCurve, "max_curvature", "geometry.max_curvature", None),
    (planner, "path_vo_violation", VO, _vo_info),
    (planner, "optimize", OPTIMIZE, _optimize_info),
    (lshade.ProblemDef, "evaluate", EVALUATE, None),
    (planner, "replan_cycle", CYCLE, _cycle_info),
    (planner, "cut_path_at_projection", CUT, None),
    (planner, "initial_path", "planner.initial_path", None),
    (planner, "vector_field", "tracking.vector_field", None),
    (planner, "step_dubins", "tracking.step_dubins", None),
    (world.World, "sense", "world.sense", None),
    (world.World, "visible_statics", "world.visible_statics", None),
    (world.World, "check_collision", "world.check_collision", None),
    (world.World, "min_clearance", "world.min_clearance", None),
    (scenario, "parse_scenario", "scenario.parse", None),
)

LAYER_NAMES = tuple(p[2] for p in PATCH_POINTS)


class Tracer:
    """Context manager that records spans while its patches are installed."""

    def __init__(self):
        # (name, start, end, parent index or -1, cycle id, annotation)
        self.spans: list = []
        self.cycle = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_cycle = name == CYCLE

        def wrapper(*args, **kwargs):
            if starts_cycle:
                self.cycle += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.cycle, None)
            if annotate is not None:
                spans[idx] = spans[idx][:5] + (annotate(args, kwargs, result),)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for owner, attr, name, annotate in PATCH_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, annotate))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def layer_stats(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, t0, t1, _, _, _) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += t1 - t0 - child[i]
    return dict(out)


def cycle_breakdown(spans) -> list[dict]:
    """Cut and optimize time inside each replan cycle that returned a plan."""
    cycles = {i: {"total_s": t1 - t0, "cut_s": 0.0, "optimize_s": 0.0}
              for i, (name, t0, t1, _, _, returned) in enumerate(spans)
              if name == CYCLE and returned}
    for name, t0, t1, parent, _, _ in spans:
        rec = cycles.get(parent)
        if rec is not None and name == CUT:
            rec["cut_s"] += t1 - t0
        elif rec is not None and name == OPTIMIZE:
            rec["optimize_s"] += t1 - t0
    return list(cycles.values())
