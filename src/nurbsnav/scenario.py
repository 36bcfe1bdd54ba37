"""Scenario files: load, validate, and run complete missions.

A scenario is a JSON document describing the vehicle, the waypoint
sequence, the obstacle field, the planner configuration, and the
simulation step. All units are SI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .planner import PlannerConfig, Waypoint, mission_loop
from .tracking import UavState
from .world import DynamicObstacle, SimLog, StaticObstacle, World


class ScenarioError(ValueError):
    """Malformed scenario file; the message names the offending field."""


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ScenarioError(f"{context}: missing required field '{key}'")
    return data[key]


def _as_float(value) -> float:
    """A JSON number as a float: JSON integers have no size limit, and one
    beyond the float range reads as inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(_as_float(value)):
        raise ScenarioError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _positive(value, context: str) -> float:
    out = _number(value, context)
    if out <= 0.0:
        raise ScenarioError(f"{context}: must be positive, got {value!r}")
    return out


def _non_negative(value, context: str) -> float:
    out = _number(value, context)
    if out < 0.0:
        raise ScenarioError(f"{context}: must be non-negative, got {value!r}")
    return out


def _integer(value, context: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not _as_float(value).is_integer():
        raise ScenarioError(f"{context}: expected an integer, got {value!r}")
    if value < minimum:
        raise ScenarioError(f"{context}: must be at least {minimum}, got {value!r}")
    return int(value)


def _at_least(minimum: int):
    return lambda value, context: _integer(value, context, minimum)


def _boolean(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{context}: expected true or false, got {value!r}")
    return value


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected an object")
    return value


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{context}: expected a list")
    return value


def _point(value, context: str) -> np.ndarray:
    if (not isinstance(value, (list, tuple)) or len(value) != 2):
        raise ScenarioError(f"{context}: expected [x, y]")
    return np.array([_number(v, context) for v in value])


# Optional keys: file key -> (field it sets, validator). A key the file
# leaves out is not passed, so the field keeps its class default.
_PLANNER_KEYS = {"T_s": ("t_replan", _number), "tau": ("tau", _number),
                 "n_interior": ("n_interior", _at_least(1)),
                 "waypoint_tolerance": ("waypoint_tolerance", _positive),
                 "budget_mode": ("budget_mode", _boolean)}
_OPTIMIZER_KEYS = {"budget": ("budget", _at_least(1)),
                   "n_init": ("n_init", _at_least(1))}
_SIM_KEYS = {"dt": ("dt_sim", _positive), "max_steps": ("max_steps", _at_least(1))}


def _given(data: dict, keys: dict, context: str) -> dict:
    """Validated values of the optional keys that `data` sets, by field."""
    return {name: check(data[key], f"{context}.{key}")
            for key, (name, check) in keys.items() if key in data}


@dataclass
class Scenario:
    uav_start: np.ndarray
    uav_heading: float
    uav_speed: float
    waypoints: list
    statics: list
    dynamics: list
    planner: PlannerConfig
    name: str
    seed: int = 0
    dt_sim: float = None  # simulation step, s; a tenth of t_replan if None
    max_steps: int = 20000  # simulation step cap

    def __post_init__(self):
        if self.dt_sim is None:
            self.dt_sim = self.planner.t_replan / 10.0

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
    uav = _object(_require(data, "uav", "scenario"), "uav")
    start = _point(_require(uav, "start", "uav"), "uav.start")
    heading = _number(_require(uav, "heading", "uav"), "uav.heading")
    speed = _positive(_require(uav, "speed", "uav"), "uav.speed")
    kappa_max = _positive(_require(uav, "kappa_max", "uav"), "uav.kappa_max")
    r_safe = _positive(_require(uav, "r_safe", "uav"), "uav.r_safe")
    r_view = _positive(_require(uav, "r_view", "uav"), "uav.r_view")
    own_radius = _given(uav, {"r_u": ("r_u", _non_negative)}, "uav")

    wps_raw = _list(_require(data, "waypoints", "scenario"), "waypoints")
    if not wps_raw:
        raise ScenarioError("waypoints: expected a non-empty list")
    waypoints = []
    prev = start
    for i, wp in enumerate(wps_raw):
        ctx = f"waypoints[{i}]"
        wp = _object(wp, ctx)
        pos = _point(_require(wp, "pos", ctx), f"{ctx}.pos")
        # The same closeness test build_path_with_headings rejects a leg by.
        if np.allclose(pos, prev):
            raise ScenarioError(f"{ctx}.pos: must differ from the "
                                + ("previous waypoint" if i else "uav.start"))
        waypoints.append(Waypoint(
            position=pos,
            heading=_number(_require(wp, "heading", ctx), f"{ctx}.heading")))
        prev = pos

    statics = []
    for i, s in enumerate(_list(data.get("static_obstacles", []),
                                "static_obstacles")):
        ctx = f"static_obstacles[{i}]"
        s = _object(s, ctx)
        statics.append(StaticObstacle(
            center=_point(_require(s, "center", ctx), f"{ctx}.center"),
            radius=_positive(_require(s, "radius", ctx), f"{ctx}.radius"),
            **_given(s, {"known": ("known", _boolean)}, ctx)))

    dynamics = []
    for i, d in enumerate(_list(data.get("dynamic_obstacles", []),
                                "dynamic_obstacles")):
        ctx = f"dynamic_obstacles[{i}]"
        d = _object(d, ctx)
        dynamics.append(DynamicObstacle(
            position0=_point(_require(d, "pos", ctx), f"{ctx}.pos"),
            velocity=_point(_require(d, "vel", ctx), f"{ctx}.vel"),
            radius=_positive(_require(d, "radius", ctx), f"{ctx}.radius"),
            **_given(d, {"spawn_time": ("spawn_time", _number)}, ctx)))

    # PlannerConfig holds every planner default, its optimizer's included;
    # keys a file leaves out keep them. Other keys, such as the p_best and
    # n_min of older files, are ignored.
    pl = _object(data.get("planner", {}), "planner")
    optimizer = _given(pl, _OPTIMIZER_KEYS, "planner")
    settings = _given(pl, _PLANNER_KEYS, "planner")
    base = PlannerConfig()
    try:
        planner = replace(base, kappa_max=kappa_max, r_safe=r_safe,
                          r_view=r_view, **own_radius, **settings,
                          optimizer=replace(base.optimizer, **optimizer))
    except ValueError as exc:
        raise ScenarioError(f"planner: {exc}") from exc

    sim = _object(data.get("sim", {}), "sim")
    return Scenario(uav_start=start, uav_heading=heading, uav_speed=speed,
                    waypoints=waypoints, statics=statics, dynamics=dynamics,
                    planner=planner, name=name,
                    **_given(pl, {"seed": ("seed", _at_least(0))}, "planner"),
                    **_given(sim, _SIM_KEYS, "sim"))


def load_scenario(path) -> Scenario:
    try:
        # JSON is UTF-8 (RFC 8259); the locale's default encoding may not be.
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ScenarioError("scenario JSON is nested too deeply") from exc
    except ValueError as exc:
        # The interpreter's limit on the digits of an integer literal.
        raise ScenarioError(f"invalid JSON: {exc}") from exc
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
