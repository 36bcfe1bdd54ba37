"""Deterministic 2D world: static no-fly discs, constant-velocity dynamic
obstacles, range-limited sensing, and collision checking.

The world owns its clock; dynamic obstacle positions are derived from it,
so stepping by dt/2 twice equals stepping by dt exactly. Obstacles are
hazards, not agents: they pass through each other and through statics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .velocity_obstacle import ObstacleState


@dataclass(frozen=True)
class StaticObstacle:
    center: np.ndarray
    radius: float
    known: bool = True

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("static obstacle radius must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class DynamicObstacle:
    position0: np.ndarray  # position at spawn time
    velocity: np.ndarray
    radius: float
    spawn_time: float = 0.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("dynamic obstacle radius must be positive")
        object.__setattr__(self, "position0", np.asarray(self.position0, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))

    def active(self, t: float) -> bool:
        return t >= self.spawn_time

    def position(self, t: float) -> np.ndarray:
        return self.position0 + self.velocity * max(t - self.spawn_time, 0.0)


@dataclass(frozen=True)
class CollisionEvent:
    time: float
    obstacle_index: int
    dynamic: bool
    penetration: float


@dataclass
class World:
    statics: list = field(default_factory=list)
    dynamics: list = field(default_factory=list)
    clock: float = 0.0

    def step(self, dt: float) -> None:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.clock += dt

    def sense(self, uav_pos, r_view: float) -> list[ObstacleState]:
        """Exact states of active dynamic obstacles within sensing range."""
        if r_view <= 0.0:
            raise ValueError("sensing range must be positive")
        uav_pos = np.asarray(uav_pos, dtype=float)
        out = []
        for d in self.dynamics:
            if not d.active(self.clock):
                continue
            pos = d.position(self.clock)
            if np.linalg.norm(pos - uav_pos) <= r_view:
                out.append(ObstacleState(position=pos, velocity=d.velocity,
                                         radius=d.radius))
        return out

    def visible_statics(self, uav_pos, r_view: float) -> list[StaticObstacle]:
        """Known statics plus unknown ones inside the sensing range."""
        uav_pos = np.asarray(uav_pos, dtype=float)
        out = []
        for s in self.statics:
            if s.known or np.linalg.norm(s.center - uav_pos) <= r_view + s.radius:
                out.append(s)
        return out

    def _distances(self, uav_pos):
        """(index, dynamic, distance, radius) of every active obstacle,
        statics first: the distance from uav_pos to its centre."""
        uav_pos = np.asarray(uav_pos, dtype=float)
        for i, s in enumerate(self.statics):
            yield i, False, float(np.linalg.norm(s.center - uav_pos)), s.radius
        for i, d in enumerate(self.dynamics):
            if d.active(self.clock):
                yield (i, True, float(np.linalg.norm(d.position(self.clock)
                                                     - uav_pos)), d.radius)

    def check_collision(self, uav_pos, margin: float) -> CollisionEvent | None:
        """Strict-inequality overlap of every active obstacle's disc,
        grown by `margin` (the vehicle's radius plus its safety radius)."""
        for i, dynamic, dist, radius in self._distances(uav_pos):
            if dist < radius + margin:
                return CollisionEvent(time=self.clock, obstacle_index=i,
                                      dynamic=dynamic,
                                      penetration=radius + margin - dist)
        return None

    def min_clearance(self, uav_pos, margin: float) -> float:
        """Smallest signed clearance to any active obstacle's disc grown by
        `margin` (inf if none)."""
        return min((dist - radius - margin
                    for _, _, dist, radius in self._distances(uav_pos)),
                   default=float("inf"))


@dataclass
class SimLog:
    """Complete record of one mission run."""

    times: list = field(default_factory=list)
    positions: list = field(default_factory=list)
    headings: list = field(default_factory=list)
    commands: list = field(default_factory=list)
    anchors: list = field(default_factory=list)  # projection parameter
    clearances: list = field(default_factory=list)
    replans: list = field(default_factory=list)  # dict summaries per cycle
    curves: list = field(default_factory=list)  # serialized activated curves
    collisions: list = field(default_factory=list)
    # {"waypoint", "t", "heading_error"} per waypoint reached; the error is
    # the signed arrival heading minus the waypoint heading, rad.
    waypoint_times: list = field(default_factory=list)
    success: bool = False
    metrics: dict = field(default_factory=dict)
