"""Seeded scenario generators for the benchmark workloads.

Every generator returns a plain scenario document (the JSON format that
`nurbsnav.scenario.parse_scenario` reads), so each generated input can be
written to disk and replayed with `nurbsnav --scenario FILE --mode mission`.
Item `i` of a workload depends only on (workload, seed, i), so two runs of
one seed measure the same items, whatever the program's speed.

Properties that set the cost of a replan follow a fixed schedule over the
item index rather than the seed: the snapshot's mover count, start-of-leg
versus part-way cut and cut depth, and the number of discs on a tour. Two seeds
give runs with the same cost mix, and only obstacles and geometry differ.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("replan-movers", "mission-statics-tour")

SPEED = 15.0
KAPPA_MAX = 0.05
R_SAFE = 5.0
R_VIEW = 80.0
TAU = 3.0
T_S = 0.1
DT = 0.01

# Fixed-budget search sizes: the 512-evaluation replan of the paper's cycle
# for isolated snapshots, and the bundled mission scenarios' settings for
# closed-loop missions.
SNAPSHOT_BUDGET = 512
SNAPSHOT_N_INIT = 40
MISSION_BUDGET = 96
MISSION_N_INIT = 24
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Tour geometry is fixed and only the obstacles are seeded: the leg layout
# sets how many cycles search, so varying it would make a run's mission_rtf
# depend on which tours it drew more than on the program. The legs are those
# of the bundled three_waypoints scenario, unscaled.
TOUR_LEGS = (150.0, 120.0, 120.0)
# Step cap as a multiple of the nominal flight time along the leg chords.
STEP_CAP = 1.5


def item_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


def _uav(start, heading: float) -> dict:
    return {"start": [float(start[0]), float(start[1])],
            "heading": float(heading), "speed": SPEED,
            "kappa_max": KAPPA_MAX, "r_safe": R_SAFE, "r_view": R_VIEW,
            "r_u": 0.0}


def _planner(budget: int, n_init: int, seed: int, tolerance: float) -> dict:
    return {"T_s": T_S, "tau": TAU, "n_interior": 8, "seed": seed,
            "budget_mode": True, "budget": budget, "n_init": n_init,
            "waypoint_tolerance": tolerance}


def _crossing_mover(rng, cross, direction: float, t_cross: float,
                    speed_range, radius_range) -> dict:
    """A constant-velocity mover that passes `cross` at time `t_cross`."""
    speed = rng.uniform(*speed_range)
    vel = speed * np.array([math.cos(direction), math.sin(direction)])
    pos0 = np.asarray(cross) - vel * t_cross
    return {"pos": [float(pos0[0]), float(pos0[1])],
            "vel": [float(vel[0]), float(vel[1])],
            "radius": float(rng.uniform(*radius_range))}


def _point_on_chord(start, goal, arc: float):
    d = goal - start
    return start + d * (arc / float(np.linalg.norm(d)))


def replan_snapshot(seed: int, index: int) -> dict:
    """One replan snapshot: a leg, where the vehicle is on it, and 3-6
    movers that cross the first tau seconds of the path ahead.

    The vehicle sits at arc length `snapshot.arc` along the leg's initial
    path at time `snapshot.t`; arc 0 is a start-of-leg snapshot, arc > 0 a
    part-way cut with a smaller decision vector. Mover positions are given
    at t = 0, so the world clock places them at snapshot time.
    """
    rng = item_rng("replan-movers", seed, index)
    n_movers = 3 + (index // 2) % 4
    part_way = index % 2 == 1
    length = rng.uniform(160.0, 240.0)
    bearing = rng.uniform(-0.5, 0.5)
    start = np.zeros(2)
    goal = length * np.array([math.cos(bearing), math.sin(bearing)])
    goal_heading = bearing + rng.uniform(-0.5, 0.5)
    # Cut depth sets the decision dimension; a golden-ratio sequence over the
    # index spreads it evenly over [0.15, 0.4] of the leg in any prefix.
    depth = 0.15 + 0.25 * ((index // 2) * GOLDEN % 1.0)
    arc = depth * length if part_way else 0.0
    t_snap = arc / SPEED
    movers = []
    while len(movers) < n_movers:
        ahead = rng.uniform(10.0, SPEED * TAU)
        cross = _point_on_chord(start, goal, arc + ahead)
        side = 1.0 if rng.random() < 0.5 else -1.0
        direction = bearing + side * rng.uniform(math.pi / 3, 2 * math.pi / 3)
        t_cross = t_snap + ahead / SPEED + rng.uniform(-0.4, 0.4)
        mover = _crossing_mover(rng, cross, direction, t_cross,
                                (3.0, 10.0), (2.0, 3.5))
        here = np.asarray(mover["pos"]) + np.asarray(mover["vel"]) * t_snap
        vehicle = _point_on_chord(start, goal, arc)
        if np.linalg.norm(here - vehicle) > mover["radius"] + R_SAFE + 2.0:
            movers.append(mover)
    return {
        "uav": _uav(start, rng.uniform(-0.3, 0.3) + bearing),
        "waypoints": [{"pos": goal.tolist(), "heading": float(goal_heading)}],
        "static_obstacles": [],
        "dynamic_obstacles": movers,
        "planner": _planner(SNAPSHOT_BUDGET, SNAPSHOT_N_INIT,
                            seed=int(rng.integers(1 << 30)), tolerance=3.0),
        "sim": {"dt": DT, "max_steps": 6000},
        "snapshot": {"arc": float(arc), "t": float(t_snap)},
    }


def statics_tour(seed: int, index: int) -> dict:
    """The three-waypoint tour through 3-5 seeded static discs, about half
    of them unknown until sensed.

    Discs are scattered over the tour's bounding box. A disc is redrawn
    when it leaves less than one turning radius of free space around the
    start, or less than 15 m around a waypoint: no planner could fly such
    a tour.
    """
    rng = item_rng("mission-statics-tour", seed, index)
    d1, d2, d3 = TOUR_LEGS
    start = np.zeros(2)
    wps = [(np.array([d1, 0.0]), math.pi / 4),
           (np.array([d1, d2]), math.pi / 2),
           (np.array([d1 - d3, d2]), math.pi)]
    gaps = [(start, 1.0 / KAPPA_MAX)] + [(p, 15.0) for p, _ in wps]
    lo = np.array([-10.0, -20.0])
    hi = np.array([d1 + 20.0, d2 + 20.0])
    statics = []
    while len(statics) < 3 + index % 3:
        center = rng.uniform(lo, hi)
        radius = rng.uniform(4.0, 8.0)
        known = bool(rng.random() < 0.5)
        if all(np.linalg.norm(center - p) > radius + R_SAFE + gap
               for p, gap in gaps):
            statics.append({"center": center.tolist(), "radius": float(radius),
                            "known": known})
    length = d1 + d2 + d3
    return {
        "uav": _uav(start, 0.0),
        "waypoints": [{"pos": p.tolist(), "heading": float(h)} for p, h in wps],
        "static_obstacles": statics,
        "dynamic_obstacles": [],
        "planner": _planner(MISSION_BUDGET, MISSION_N_INIT,
                            seed=int(rng.integers(1 << 30)), tolerance=5.0),
        "sim": {"dt": DT, "max_steps": int(STEP_CAP * length / SPEED / DT)},
    }


GENERATORS = {
    "replan-movers": replan_snapshot,
    "mission-statics-tour": statics_tour,
}


def generate(workload: str, seed: int, index: int) -> dict:
    return GENERATORS[workload](seed, index)
