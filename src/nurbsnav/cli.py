"""Command-line harness: run missions, benchmark isolated replans, or
validate scenario files, emitting trajectory CSV, metrics JSON, serialized
curves and an optional SVG overview.

Exit codes: 0 success, 2 mission failure (collision or step cap),
3 bad input (including an output file that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .geometry import delta_dimension
from .planner import (cycle_seed, initial_path, replan_cycle,
                      wall_time_summary)
from .plot import emit_plot
from .scenario import ScenarioError, load_scenario, run_mission

EXIT_OK = 0
EXIT_MISSION_FAILED = 2
EXIT_BAD_INPUT = 3

CSV_HEADER = "t,x,y,heading,s_anchor,clearance"


def _g9(x: float) -> str:
    return f"{x:.9g}"


def _seconds(x: float | None) -> str:
    """A wall time for the summary line; n/a when no cycle returned a plan."""
    return "n/a" if x is None else f"{x:.4f}s"


def write_trajectory_csv(log, path: Path) -> None:
    rows = [CSV_HEADER]
    for i in range(len(log.times)):
        p = log.positions[i]
        rows.append(",".join([
            _g9(log.times[i]), _g9(p[0]), _g9(p[1]), _g9(log.headings[i]),
            _g9(log.anchors[i]), _g9(log.clearances[i]),
        ]))
    path.write_text("\n".join(rows) + "\n")


def write_metrics(metrics: dict, path: Path) -> None:
    path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def write_curves(log, path: Path) -> None:
    with open(path, "w") as fh:
        for record in log.curves:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _bench_replan(scenario, seed: int, n_replans: int,
                  disable_vo: bool, disable_curvature: bool) -> dict:
    """Time isolated replan cycles on the initial snapshot of a scenario."""
    config = replace(scenario.planner, budget_mode=False,
                     disable_vo=disable_vo,
                     disable_curvature=disable_curvature)
    world = scenario.make_world()
    state = scenario.initial_state()
    wps = scenario.mission_waypoints()
    curve = initial_path(wps[0], wps[1], config)
    sensed = world.sense(state.position, config.r_view)
    statics = world.visible_statics(state.position, config.r_view)
    walls, evals, feasible, dimension = [], [], 0, None
    for i in range(n_replans):
        result = replan_cycle(curve, state, sensed, config,
                              seed=cycle_seed(seed, i), statics=statics)
        if result is None:
            continue
        # A plan keeps its cut's control-point layout, so this is the
        # dimension the search ran in.
        dimension = delta_dimension(result.curve)
        walls.append(result.wall_time)
        evals.append(result.evals)
        feasible += int(result.feasible)
    return {
        "mode": "bench-replan",
        "replans": len(walls),
        "sensed_obstacles": len(sensed),
        "decision_dimension": dimension,
        "feasible_count": feasible,
        "wall_time": wall_time_summary(walls),
        "evals": {"mean": float(np.mean(evals)) if evals else None},
    }


class _UsageError(Exception):
    """Malformed command-line arguments."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, the mission-failure code.
        raise _UsageError(message)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {minimum}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nurbsnav",
        description="Online NURBS replanning missions for Dubins vehicles")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", default="out", help="output directory")
    # numpy's generators take no negative seed.
    parser.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="override the scenario seed")
    parser.add_argument("--mode", default="mission",
                        choices=["mission", "bench-replan", "validate"])
    parser.add_argument("--disable-vo", action="store_true",
                        help="drop the velocity-obstacle constraint")
    parser.add_argument("--disable-curvature", action="store_true",
                        help="drop the curvature constraint")
    parser.add_argument("--plot", action="store_true",
                        help="also write plot.svg")
    parser.add_argument("--replans", type=_int_at_least(1), default=50,
                        help="replan cycles in bench-replan mode")
    return parser


def main(argv=None) -> int:
    """Run the command line and return its exit code. Every input fault,
    in the arguments, the scenario file or an output file, prints one
    `error:` line and returns EXIT_BAD_INPUT."""
    try:
        return _run(build_parser().parse_args(argv))
    except (_UsageError, ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def _out_dir(path: str) -> Path:
    """The output directory, made if missing; a failure names --out."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"--out: {exc}") from exc
    return out


def _run(args) -> int:
    """One parsed command line's run; input faults propagate to main."""
    scenario = load_scenario(args.scenario)
    if args.mode == "validate":
        print(f"scenario ok: {scenario.name} "
              f"({len(scenario.waypoints)} waypoints, "
              f"{len(scenario.statics)} static, "
              f"{len(scenario.dynamics)} dynamic obstacles)")
        return EXIT_OK

    out_dir = _out_dir(args.out)
    seed = scenario.seed if args.seed is None else args.seed

    if args.mode == "bench-replan":
        metrics = _bench_replan(scenario, seed, args.replans,
                                args.disable_vo, args.disable_curvature)
        write_metrics(metrics, out_dir / "metrics.json")
        wt = metrics["wall_time"]
        print(f"bench-replan: {metrics['replans']} cycles, "
              f"median {_seconds(wt['median'])}, p95 {_seconds(wt['p95'])}")
        return EXIT_OK

    log = run_mission(scenario, seed=seed, disable_vo=args.disable_vo,
                      disable_curvature=args.disable_curvature)
    write_trajectory_csv(log, out_dir / "trajectory.csv")
    write_metrics(log.metrics, out_dir / "metrics.json")
    write_curves(log, out_dir / "curves.jsonl")
    if args.plot:
        emit_plot(log, scenario.make_world(), scenario.mission_waypoints(),
                  out_dir / "plot.svg")
    status = "success" if log.success else "failure"
    print(f"mission {status}: length "
          f"{log.metrics['executed_path_length']:.1f} m, "
          f"collisions {log.metrics['collision_count']}")
    return EXIT_OK if log.success else EXIT_MISSION_FAILED


if __name__ == "__main__":
    sys.exit(main())
