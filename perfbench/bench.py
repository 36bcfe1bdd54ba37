"""Closed-loop benchmark of nurbsnav through its public API.

One process, one caller: every call waits for the previous one. A run
generates its inputs from the seed (see `workloads`), measures for the
requested number of seconds, checks the program's outputs, prints every
metric with its unit and sample count, and ends with one JSON line
(`correct`, `attempted`, `failed`, `metrics`). `--trace 0` runs untraced
and reports the end-to-end metrics; `--trace 1` runs each unit once
untraced and once under `tracer.Tracer` and reports the per-layer
metrics, including the tracing overhead.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import nurbsnav.planner as planner
import nurbsnav.scenario as scenario_mod
from nurbsnav.geometry import NurbsCurve
from nurbsnav.tracking import UavState

import oracle
import tracer
import workloads

# (name, unit, better). Regressions are gated on these; see BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("replan_ms_p50", "ms", "lower"),
    ("replan_ms_p90", "ms", "lower"),
    ("deadline_evals_p50", "count", "higher"),
    ("deadline_evals_p10", "count", "higher"),
    ("deadline_cycle_ms_p90", "ms", "lower"),
    ("mission_rtf", "s/s", "lower"),
)

# Printed and stored, but not gated: search quality and flight safety,
# which the program's speed should not move; some are undefined on
# replan-movers.
REPORTED = (
    ("deadline_violation_p50", "sum", "lower"),
    ("budget_violation_p50", "sum", "lower"),
    ("unflyable_flown_frac", "frac", "lower"),
    ("min_clearance_m_p50", "m", "higher"),
)

# Per layer: calls per replan cycle, inclusive microseconds per call, and
# inclusive and self shares of the traced wall time.
LAYER_FIELDS = (
    ("calls_per_cycle", "count", "lower"),
    ("us_per_call", "us", "lower"),
    ("share", "frac", "lower"),
    ("self_share", "frac", "lower"),
)
DERIVED = (
    ("velocity_obstacle.obstacles_per_call", "count", "lower"),
    ("lshade.self_us_per_eval", "us", "lower"),
    ("lshade.generations_per_cycle", "count", "higher"),
    ("lshade.deadline_hit_frac", "frac", "lower"),
    ("planner.verify_ms", "ms", "lower"),
    ("planner.cycles_without_search_frac", "frac", "lower"),
    ("planner.verified_feasible_frac", "frac", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    return [(f"{layer}.{field}", unit, better)
            for layer in tracer.LAYER_NAMES
            for field, unit, better in LAYER_FIELDS] + list(DERIVED)


SETUP_REPEATS = 9
# Steps flown per tour on mission-statics-tour: the opening 2.5 simulated
# seconds, in which every cycle searches. Later in a tour the share of
# cycles that search, and so the wall time per simulated second, depends on
# the tour's outcome (success, collision, circling until the step cap): on
# a tour scaled down to legs of 80, 60 and 60 m, mission_rtf spread by 25 %
# over five seeds of 50 s runs, with full tours and 8 s windows alike.
WINDOW_STEPS = 250
# Wall seconds one untraced unit takes on the reference host (2-vCPU x86_64
# VM). A run measures a fixed number of units, seconds / UNIT_WALL_S, so two
# runs of one seed measure the same inputs whatever the program's speed.
UNIT_WALL_S = {"replan-movers": 0.85, "mission-statics-tour": 4.7}
# No unit starts once a run has taken this multiple of its seconds, so a
# much slower program still ends in time (with fewer units).
TIME_CAP = 2.5

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
from nurbsnav import planner, scenario
with open(sys.argv[2]) as fh:
    sc = scenario.parse_scenario(json.load(fh))
world = sc.make_world()
wps = sc.mission_waypoints()
planner.initial_path(wps[0], wps[1], sc.planner)
print(repr(time.perf_counter() - t0))
"""


def percentile(values, q: float) -> float | None:
    return float(np.percentile(values, q)) if len(values) else None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def measure_setup(src: Path, scenario_path: Path) -> float:
    """Import, parse and first-path build in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(src), str(scenario_path)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def finite_curve(curve: NurbsCurve) -> bool:
    return bool(np.all(np.isfinite(curve.control_points))
                and np.all(np.isfinite(curve.weights)))


def same_curve(a: NurbsCurve, b: NurbsCurve) -> bool:
    return (np.array_equal(a.control_points, b.control_points)
            and np.array_equal(a.weights, b.weights)
            and np.array_equal(a.knots, b.knots))


class Run:
    """Samples, counts and check failures collected over one run."""

    def __init__(self, workload: str, seed: int, trace: bool, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.samples = {k: [] for k in (
            "replan_ms", "budget_violation", "deadline_evals",
            "deadline_cycle_ms", "deadline_violation", "min_clearance")}
        self.loop_wall = 0.0  # untraced wall of the measured loop
        self.loop_sim = 0.0  # simulated seconds it stands for
        self.traced_wall = 0.0
        self.traced_sim = 0.0
        self.traced_loop_wall = 0.0  # traced counterpart of loop_wall
        self.missions = 0
        self.plans_flown = 0
        self.plans_unflyable = 0
        self.cycle_evals: list[int] = []
        self.cycle_feasible: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_errors: list[str] = []
        self.tracer = tracer.Tracer() if trace else None
        # (index, trajectory or plan) of the first completed unit, for the
        # repeat check.
        self.first_output = None
        self.units: list[dict] = []  # one record per completed mission

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.check_errors.append(what)

    def scenario_file(self, index: int) -> Path:
        return self.out_dir / "scenarios" / f"{self.workload}-{self.seed}-{index:04d}.json"

    def load(self, index: int):
        doc = workloads.generate(self.workload, self.seed, index)
        path = self.scenario_file(index)
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return doc, scenario_mod.parse_scenario(doc, name=str(path))


# -- replan-movers --------------------------------------------------------

def snapshot_inputs(sc, doc: dict, budget_mode: bool):
    """Fresh path, vehicle state and sensed world for one snapshot."""
    config = replace(sc.planner, budget_mode=budget_mode)
    wps = sc.mission_waypoints()
    arc = doc["snapshot"]["arc"]
    if arc > 0.0:
        probe = planner.initial_path(wps[0], wps[1], config)
        c0, c1 = probe.derivatives(np.array([probe.param_at_length(arc)]),
                                   order=1)
        state = UavState(position=c0[0], heading=math.atan2(c1[0, 1], c1[0, 0]),
                         speed=sc.uav_speed)
    else:
        state = sc.initial_state()
    world = sc.make_world()
    world.clock = doc["snapshot"]["t"]
    sensed = world.sense(state.position, config.r_view)
    statics = world.visible_statics(state.position, config.r_view)
    curve = planner.initial_path(wps[0], wps[1], config)
    return curve, state, sensed, statics, config


def snapshot_cycle(sc, doc: dict, budget_mode: bool):
    curve, state, sensed, statics, config = snapshot_inputs(sc, doc, budget_mode)
    t0 = time.perf_counter()
    result = planner.replan_cycle(curve, state, sensed, config, seed=sc.seed,
                                  statics=statics)
    return result, time.perf_counter() - t0


def traced_snapshot(run: Run, doc: dict):
    """Budget- and deadline-mode replan of one snapshot under the tracer.
    Returns the budget-mode (result, wall), or None if a call raised."""
    t0 = time.perf_counter()
    try:
        with run.tracer:
            sc = scenario_mod.parse_scenario(doc)
            out = snapshot_cycle(sc, doc, budget_mode=True)
            snapshot_cycle(sc, doc, budget_mode=False)
    except Exception:
        out = None
    run.traced_wall += time.perf_counter() - t0
    return out


def run_snapshot(run: Run, index: int) -> None:
    doc, sc = run.load(index)
    budget = sc.planner.optimizer.budget
    # Traced runs alternate which of the pair goes first, so that drift in
    # machine speed does not bias trace.overhead_frac.
    traced = traced_snapshot(run, doc) if run.tracer is not None and index % 2 else None
    run.attempted += 1
    result = None
    try:
        result, wall = snapshot_cycle(sc, doc, budget_mode=True)
    except Exception:
        run.fail(f"snapshot {index} budget: {traceback.format_exc(limit=3)}")
    else:
        if result is None:
            run.fail(f"snapshot {index} budget: no plan")
    if result is not None:
        run.check(result.evals == budget,
                  f"snapshot {index}: budget-mode evals {result.evals} != {budget}")
        run.check(finite_curve(result.curve), f"snapshot {index}: non-finite plan")
        run.samples["replan_ms"].append(1e3 * wall)
        run.samples["budget_violation"].append(sum(result.violations.values()))
        run.cycle_evals.append(result.evals)
        run.cycle_feasible.append(result.feasible)
        run.loop_wall += wall
        run.loop_sim += sc.planner.t_replan
        if run.first_output is None:
            run.first_output = (index, result.curve)

    if run.tracer is not None:
        if not index % 2:
            traced = traced_snapshot(run, doc)
        if result is not None:
            run.check(traced is not None and same_curve(traced[0].curve, result.curve),
                      f"snapshot {index}: traced replan raised or differs from untraced")
            if traced is not None:
                run.traced_loop_wall += traced[1]
                run.traced_sim += sc.planner.t_replan
        return

    run.attempted += 1
    try:
        dl, wall = snapshot_cycle(sc, doc, budget_mode=False)
    except Exception:
        run.fail(f"snapshot {index} deadline: {traceback.format_exc(limit=3)}")
        return
    if dl is None:
        run.fail(f"snapshot {index} deadline: no plan")
        return
    run.check(1 <= dl.evals <= budget and finite_curve(dl.curve),
              f"snapshot {index}: deadline cycle evals {dl.evals}")
    run.samples["deadline_evals"].append(dl.evals)
    run.samples["deadline_cycle_ms"].append(1e3 * wall)
    run.samples["deadline_violation"].append(sum(dl.violations.values()))


def check_snapshot_repeat(run: Run) -> None:
    index, plan = run.first_output
    doc, sc = run.load(index)
    repeat, _ = snapshot_cycle(sc, doc, budget_mode=True)
    run.check(same_curve(repeat.curve, plan),
              "budget-mode replan repeated on one seed gave a different plan")


# -- missions -------------------------------------------------------------

class CycleProbe:
    """Wraps `planner.replan_cycle` during an untraced mission: times each
    cycle and keeps the inputs of every searched cycle for a deadline-mode
    replay. One wrapper call per 0.1 s cycle."""

    def __init__(self):
        self.cycles: list[tuple] = []  # (wall_s, evals, violation)
        self.captured: list[tuple] = []
        self.errors: list[str] = []
        self._original = None

    def __enter__(self):
        self._original = vars(planner)["replan_cycle"]
        original = self._original

        def probe(curve, state, sensed, config, **kwargs):
            t0 = time.perf_counter()
            try:
                result = original(curve, state, sensed, config, **kwargs)
            except Exception:
                self.errors.append(traceback.format_exc(limit=3))
                raise
            wall = time.perf_counter() - t0
            if result is not None:
                self.cycles.append((wall, result.evals,
                                    sum(result.violations.values())))
                if result.evals > 0:
                    kw = dict(kwargs)
                    if kw.get("warm_delta") is not None:
                        kw["warm_delta"] = np.array(kw["warm_delta"])
                    self.captured.append((
                        NurbsCurve.from_dict(curve.to_dict()), state,
                        list(sensed), config, kw))
            return result

        planner.replan_cycle = probe
        return self

    def __exit__(self, *exc):
        planner.replan_cycle = self._original
        return False


def fly(sc, max_steps: int):
    return planner.mission_loop(
        sc.mission_waypoints(), sc.make_world(), sc.planner, seed=sc.seed,
        uav0=sc.initial_state(), dt_sim=sc.dt_sim, max_steps=max_steps)


def window_steps(sc) -> int:
    return min(WINDOW_STEPS, sc.max_steps)


def trajectory(log) -> np.ndarray:
    return np.column_stack([np.array(log.positions), np.array(log.headings),
                            np.array(log.anchors), np.array(log.commands)])


def shadow_cycle(run: Run, snap, label: str) -> None:
    curve, state, sensed, config, kwargs = snap
    run.attempted += 1
    # The paper's cycle: 512-evaluation cap, stopped at the 80 ms deadline,
    # as on replan-movers (the mission budget would cap the count instead).
    config = replace(config, budget_mode=False, optimizer=replace(
        config.optimizer, budget=workloads.SNAPSHOT_BUDGET,
        n_init=workloads.SNAPSHOT_N_INIT))
    try:
        t0 = time.perf_counter()
        result = planner.replan_cycle(NurbsCurve.from_dict(curve.to_dict()),
                                      state, sensed, config, **kwargs)
        wall = time.perf_counter() - t0
    except Exception:
        run.fail(f"{label}: {traceback.format_exc(limit=3)}")
        return
    if result is None:
        run.fail(f"{label}: no plan")
        return
    if run.tracer is None:
        run.check(1 <= result.evals <= config.optimizer.budget
                  and finite_curve(result.curve), f"{label}: evals {result.evals}")
        run.samples["deadline_evals"].append(result.evals)
        run.samples["deadline_cycle_ms"].append(1e3 * wall)
        run.samples["deadline_violation"].append(sum(result.violations.values()))


def traced_flight(run: Run, doc: dict):
    """Fly a tour window under the tracer: (log, wall), or None if it raised."""
    t0 = time.perf_counter()
    try:
        with run.tracer:
            sc = scenario_mod.parse_scenario(doc)
            log = fly(sc, window_steps(sc))
    except Exception:
        log = None
    wall = time.perf_counter() - t0
    run.traced_wall += wall
    if log is None:
        return None
    run.cycle_evals += [r["evals"] for r in log.replans]
    run.cycle_feasible += [r["feasible"] for r in log.replans]
    return log, wall


def run_mission(run: Run, index: int) -> None:
    """Fly the opening window of one tour, then replay each searched cycle
    in deadline mode; with tracing, fly the window again traced."""
    doc, sc = run.load(index)
    budget = sc.planner.optimizer.budget
    label = f"tour {index}"
    # Traced runs alternate which flight goes first (see run_snapshot).
    traced = traced_flight(run, doc) if run.tracer is not None and index % 2 else None
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        with CycleProbe() as probe:
            log = fly(sc, window_steps(sc))
    except Exception:
        run.fail(f"{label}: {traceback.format_exc(limit=3)}")
        return
    wall = time.perf_counter() - t0
    sim = log.times[-1] - log.times[0]
    run.missions += 1
    traj = trajectory(log)
    run.check(not np.isnan(traj).any() and not np.isnan(log.clearances).any(),
              f"{label}: NaN in trajectory")
    run.check(all(r["evals"] in (0, budget) for r in log.replans),
              f"{label}: budget-mode cycle evals not in (0, {budget})")
    if probe.errors or log.collisions:
        run.fail(f"{label}: {'replan error' if probe.errors else 'collision'}")
    run.loop_wall += wall
    run.loop_sim += sim
    run.units.append({
        "index": index, "collision": bool(log.collisions),
        "wall_s": wall, "sim_s": sim, "cycles": len(log.replans),
        "searched": sum(r["evals"] > 0 for r in log.replans)})

    if run.tracer is None:
        if run.first_output is None:
            run.first_output = (index, traj)
        run.samples["replan_ms"] += [1e3 * w for w, e, _ in probe.cycles if e > 0]
        run.samples["budget_violation"] += [v for _, e, v in probe.cycles if e > 0]
        verdicts = oracle.check_mission(log, sc)
        run.plans_flown += len(verdicts)
        run.plans_unflyable += sum(not v["flyable"] for v in verdicts)
        run.units[-1]["plans"] = len(verdicts)
        run.units[-1]["unflyable_plans"] = sum(not v["flyable"] for v in verdicts)
        finite = [c for c in log.clearances if math.isfinite(c)]
        if finite:
            run.samples["min_clearance"].append(min(finite))
        for k, snap in enumerate(probe.captured):
            shadow_cycle(run, snap, f"{label} shadow {k}")
        return

    if not index % 2:
        traced = traced_flight(run, doc)
    run.check(traced is not None and np.array_equal(trajectory(traced[0]), traj),
              f"{label}: repeated mission (traced) gave a different trajectory")
    if traced is not None:
        run.traced_loop_wall += traced[1]
        run.traced_sim += sim
    for k, snap in enumerate(probe.captured):
        t0 = time.perf_counter()
        with run.tracer:
            shadow_cycle(run, snap, f"{label} shadow {k}")
        run.traced_wall += time.perf_counter() - t0


def check_mission_repeat(run: Run) -> None:
    """Fly the first completed window again; the trajectory must match."""
    index, reference = run.first_output
    _, sc = run.load(index)
    repeat = trajectory(fly(sc, window_steps(sc)))
    run.check(np.array_equal(reference, repeat),
              "budget-mode mission repeated on one seed gave a different trajectory")


# -- metrics --------------------------------------------------------------

def end_to_end(run: Run, setup: list[float]) -> dict:
    s = run.samples
    return {
        "setup_s": (float(np.median(setup)), len(setup)),
        "replan_ms_p50": (percentile(s["replan_ms"], 50), len(s["replan_ms"])),
        "replan_ms_p90": (percentile(s["replan_ms"], 90), len(s["replan_ms"])),
        "deadline_evals_p50": (percentile(s["deadline_evals"], 50),
                               len(s["deadline_evals"])),
        "deadline_evals_p10": (percentile(s["deadline_evals"], 10),
                               len(s["deadline_evals"])),
        "deadline_cycle_ms_p90": (percentile(s["deadline_cycle_ms"], 90),
                                  len(s["deadline_cycle_ms"])),
        "mission_rtf": (run.loop_wall / run.loop_sim if run.loop_sim else None,
                        run.missions if run.missions else len(s["replan_ms"])),
        "deadline_violation_p50": (percentile(s["deadline_violation"], 50),
                                   len(s["deadline_violation"])),
        "budget_violation_p50": (percentile(s["budget_violation"], 50),
                                 len(s["budget_violation"])),
        "unflyable_flown_frac": (run.plans_unflyable / run.plans_flown
                                 if run.plans_flown else None, run.plans_flown),
        "min_clearance_m_p50": (percentile(s["min_clearance"], 50),
                                len(s["min_clearance"])),
    }


def per_layer(run: Run) -> dict:
    spans = run.tracer.spans
    stats = tracer.layer_stats(spans)
    wall = max(run.traced_wall, 1e-12)
    n_cycles = max(stats.get(tracer.CYCLE, {}).get("calls", 0), 1)
    out = {}
    for layer in tracer.LAYER_NAMES:
        rec = stats.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls = rec["calls"]
        out[f"{layer}.calls_per_cycle"] = (calls / n_cycles, calls)
        out[f"{layer}.us_per_call"] = (1e6 * rec["total_s"] / calls if calls else 0.0, calls)
        out[f"{layer}.share"] = (rec["total_s"] / wall, calls)
        out[f"{layer}.self_share"] = (rec["self_s"] / wall, calls)

    vo = [info for name, *_, info in spans if name == tracer.VO]
    opt = [info for name, *_, info in spans if name == tracer.OPTIMIZE and info]
    evals = sum(o[0] for o in opt)
    deadline = [o for o in opt if o[2]]
    cycles = tracer.cycle_breakdown(spans)
    opt_self = stats.get(tracer.OPTIMIZE, {}).get("self_s", 0.0)
    out.update({
        "velocity_obstacle.obstacles_per_call": (float(np.mean(vo)) if vo else 0.0, len(vo)),
        "lshade.self_us_per_eval": (1e6 * opt_self / evals if evals else 0.0, evals),
        "lshade.generations_per_cycle": (
            float(np.mean([o[1] for o in deadline])) if deadline else 0.0, len(deadline)),
        "lshade.deadline_hit_frac": (
            float(np.mean([o[0] < o[3] for o in deadline])) if deadline else 0.0,
            len(deadline)),
        "planner.verify_ms": (
            1e3 * float(np.mean([c["total_s"] - c["cut_s"] - c["optimize_s"]
                                 for c in cycles])) if cycles else 0.0, len(cycles)),
        "planner.cycles_without_search_frac": (
            float(np.mean([e == 0 for e in run.cycle_evals])) if run.cycle_evals else 0.0,
            len(run.cycle_evals)),
        "planner.verified_feasible_frac": (
            float(np.mean(run.cycle_feasible)) if run.cycle_feasible else 0.0,
            len(run.cycle_feasible)),
        "trace.overhead_frac": (
            (run.traced_loop_wall / run.traced_sim) / (run.loop_wall / run.loop_sim)
            if run.loop_sim and run.traced_sim else None, len(run.cycle_evals)),
    })
    return out


def write_spans(spans, path: Path) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("name,start,end,parent,cycle\n")
        for name, t0, t1, parent, cycle, _ in spans:
            fh.write(f"{name},{t0!r},{t1!r},{parent},{cycle}\n")


# -- one run --------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path) -> int:
    out_dir = root / "perfbench" / "results" / f"{workload}-seed{seed}-trace{int(trace)}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    (out_dir / "scenarios").mkdir(parents=True)
    bench_run = Run(workload, seed, trace, out_dir)
    env_start = environment()

    bench_run.load(0)
    setup: list[float] = []

    def sample_setup(until: int) -> None:
        # Spread evenly over the run: the machine drifts between fast and
        # slow phases that last longer than one sample.
        while not trace and len(setup) < until:
            setup.append(measure_setup(root / "src", bench_run.scenario_file(0)))

    unit = run_snapshot if workload == "replan-movers" else run_mission
    # A traced unit runs untraced and traced, so it takes about twice as long.
    n_units = max(1, round(seconds / (UNIT_WALL_S[workload] * (2 if trace else 1))))
    t_begin = time.perf_counter()
    index = 0
    while index < n_units and (index == 0 or
                               time.perf_counter() - t_begin < TIME_CAP * seconds):
        sample_setup(1 + SETUP_REPEATS * index // n_units)
        unit(bench_run, index)
        index += 1
    measured_s = time.perf_counter() - t_begin
    sample_setup(SETUP_REPEATS)
    # Traced runs compared every traced unit with its untraced run already.
    if not trace and bench_run.first_output is not None:
        if workload == "replan-movers":
            check_snapshot_repeat(bench_run)
        else:
            check_mission_repeat(bench_run)

    if trace:
        metrics = per_layer(bench_run)
        spec = per_layer_spec()
        write_spans(bench_run.tracer.spans, out_dir / "spans.csv.gz")
    else:
        metrics = end_to_end(bench_run, setup)
        spec = list(END_TO_END) + list(REPORTED)
        # The deadline cycle, verification included, must fit in one period.
        p90 = metrics["deadline_cycle_ms_p90"][0]
        bench_run.check(p90 is not None and p90 < 1e3 * workloads.T_S,
                        f"deadline_cycle_ms_p90 {p90} ms is not under T_s")
    correct = not bench_run.check_errors
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "measured_s": measured_s, "items": index,
        "correct": correct, "attempted": bench_run.attempted,
        "failed": bench_run.failed, "failures": bench_run.failures,
        "check_errors": bench_run.check_errors,
        "missions": bench_run.units,
        "environment": {"start": env_start, "end": environment()},
        "metrics": {name: {"value": metrics[name][0], "unit": unit,
                           "better": better, "samples": metrics[name][1]}
                    for name, unit, better in spec},
    }
    if not trace:
        result["setup_samples_s"] = setup
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    env = result["environment"]["start"]
    print(f"# {workload} seed={seed} trace={int(trace)} items={index} "
          f"measured={measured_s:.1f}s nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"loadavg={env['loadavg'][0]:.2f}")
    for name, unit, _ in spec:
        value, n = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:22s} {name:48s} {shown:>12s} {unit:6s} n={n}")
    print(f"# attempted={bench_run.attempted} failed={bench_run.failed} "
          f"correct={correct} results={out_dir.relative_to(root)}")
    for err in bench_run.check_errors:
        print(f"# CHECK FAILED: {err}")

    gated = list(END_TO_END) if not trace else spec
    print(json.dumps({
        "correct": correct,
        "attempted": bench_run.attempted,
        "failed": bench_run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit, _ in gated},
    }))
    return 0
