"""Scenario files: load, validate, and run complete missions.

A scenario is a JSON document describing the vehicle, the waypoint
sequence, the obstacle field, the planner configuration, and the
simulation step. All units are SI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lshade import OptimizerConfig
from .planner import PlannerConfig, Waypoint, mission_loop
from .tracking import UavState
from .world import DynamicObstacle, SimLog, StaticObstacle, World


class ScenarioError(ValueError):
    """Malformed scenario file; the message names the offending field."""


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ScenarioError(f"{context}: missing required field '{key}'")
    return data[key]


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ScenarioError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _positive(value, context: str) -> float:
    out = _number(value, context)
    if out <= 0.0:
        raise ScenarioError(f"{context}: must be positive, got {value!r}")
    return out


def _integer(value, context: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(value).is_integer():
        raise ScenarioError(f"{context}: expected an integer, got {value!r}")
    if value < minimum:
        raise ScenarioError(f"{context}: must be at least {minimum}, got {value!r}")
    return int(value)


def _point(value, context: str) -> np.ndarray:
    if (not isinstance(value, (list, tuple)) or len(value) != 2):
        raise ScenarioError(f"{context}: expected [x, y]")
    return np.array([_number(v, context) for v in value])


@dataclass
class Scenario:
    uav_start: np.ndarray
    uav_heading: float
    uav_speed: float
    waypoints: list
    statics: list
    dynamics: list
    planner: PlannerConfig
    seed: int
    dt_sim: float
    max_steps: int
    name: str = "scenario"

    def make_world(self) -> World:
        return World(statics=list(self.statics), dynamics=list(self.dynamics))

    def initial_state(self) -> UavState:
        return UavState(position=np.array(self.uav_start),
                        heading=self.uav_heading, speed=self.uav_speed)

    def mission_waypoints(self) -> list:
        return [Waypoint(position=np.array(self.uav_start),
                         heading=self.uav_heading)] + list(self.waypoints)


def parse_scenario(data: dict, name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    uav = _require(data, "uav", "scenario")
    start = _point(_require(uav, "start", "uav"), "uav.start")
    heading = _number(_require(uav, "heading", "uav"), "uav.heading")
    speed = _number(_require(uav, "speed", "uav"), "uav.speed")
    if speed <= 0.0:
        raise ScenarioError("uav.speed: must be positive")
    kappa_max = _number(_require(uav, "kappa_max", "uav"), "uav.kappa_max")
    r_safe = _number(_require(uav, "r_safe", "uav"), "uav.r_safe")
    r_view = _number(_require(uav, "r_view", "uav"), "uav.r_view")
    r_u = _number(uav.get("r_u", 0.0), "uav.r_u")

    wps_raw = _require(data, "waypoints", "scenario")
    if not isinstance(wps_raw, list) or not wps_raw:
        raise ScenarioError("waypoints: expected a non-empty list")
    waypoints = []
    for i, wp in enumerate(wps_raw):
        ctx = f"waypoints[{i}]"
        waypoints.append(Waypoint(
            position=_point(_require(wp, "pos", ctx), f"{ctx}.pos"),
            heading=_number(_require(wp, "heading", ctx), f"{ctx}.heading")))

    statics = []
    for i, s in enumerate(data.get("static_obstacles", [])):
        ctx = f"static_obstacles[{i}]"
        statics.append(StaticObstacle(
            center=_point(_require(s, "center", ctx), f"{ctx}.center"),
            radius=_positive(_require(s, "radius", ctx), f"{ctx}.radius"),
            known=bool(s.get("known", True))))

    dynamics = []
    for i, d in enumerate(data.get("dynamic_obstacles", [])):
        ctx = f"dynamic_obstacles[{i}]"
        dynamics.append(DynamicObstacle(
            position0=_point(_require(d, "pos", ctx), f"{ctx}.pos"),
            velocity=_point(_require(d, "vel", ctx), f"{ctx}.vel"),
            radius=_positive(_require(d, "radius", ctx), f"{ctx}.radius"),
            spawn_time=_number(d.get("spawn_time", 0.0), f"{ctx}.spawn_time")))

    pl = data.get("planner", {})
    if not isinstance(pl, dict):
        raise ScenarioError("planner: expected an object")
    try:
        opt = OptimizerConfig(
            budget=_integer(pl.get("budget", 512), "planner.budget", 1),
            n_init=_integer(pl.get("n_init", 40), "planner.n_init", 1),
            n_min=_integer(pl.get("n_min", 4), "planner.n_min", 4),
            memory_size=_integer(pl.get("memory_size", 6),
                                 "planner.memory_size", 1),
            p_best=_number(pl.get("p_best", 0.11), "planner.p_best"),
            archive_rate=_number(pl.get("archive_rate", 1.4),
                                 "planner.archive_rate"),
        )
        planner = PlannerConfig(
            t_replan=_number(pl.get("T_s", 0.1), "planner.T_s"),
            tau=_number(pl.get("tau", 3.0), "planner.tau"),
            kappa_max=kappa_max,
            r_u=r_u,
            r_safe=r_safe,
            r_view=r_view,
            n_interior=_integer(pl.get("n_interior", 8), "planner.n_interior", 1),
            n_curv_samples=_integer(pl.get("n_curv_samples", 64),
                                    "planner.n_curv_samples", 2),
            n_vo_samples=_integer(pl.get("n_vo_samples", 20),
                                  "planner.n_vo_samples", 2),
            n_obs_samples=_integer(pl.get("n_obs_samples", 64),
                                   "planner.n_obs_samples", 1),
            waypoint_tolerance=_number(pl.get("waypoint_tolerance", 3.0),
                                       "planner.waypoint_tolerance"),
            budget_mode=bool(pl.get("budget_mode", False)),
            optimizer=opt,
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"planner: {exc}") from exc

    sim = data.get("sim", {})
    dt_sim = _number(sim.get("dt", planner.t_replan / 10.0), "sim.dt")
    if dt_sim <= 0.0:
        raise ScenarioError("sim.dt: must be positive")
    max_steps = _integer(sim.get("max_steps", 20000), "sim.max_steps", 1)

    return Scenario(uav_start=start, uav_heading=heading, uav_speed=speed,
                    waypoints=waypoints, statics=statics, dynamics=dynamics,
                    planner=planner,
                    seed=_integer(pl.get("seed", 0), "planner.seed", 0),
                    dt_sim=dt_sim, max_steps=max_steps, name=name)


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(data, name=str(path))


def run_mission(scenario: Scenario, seed: int | None = None,
                disable_vo: bool = False,
                disable_curvature: bool = False) -> SimLog:
    """Run the scenario's mission on a fresh world and return the log."""
    config = replace(scenario.planner, disable_vo=disable_vo,
                     disable_curvature=disable_curvature)
    world = scenario.make_world()
    return mission_loop(scenario.mission_waypoints(), world, config,
                        seed=scenario.seed if seed is None else seed,
                        uav0=scenario.initial_state(),
                        dt_sim=scenario.dt_sim,
                        max_steps=scenario.max_steps)
