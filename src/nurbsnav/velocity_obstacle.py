"""Truncated velocity-obstacle construction and the along-path VO constraint.

A velocity lies inside the truncated VO of an obstacle when, under constant
velocities, the combined-radius discs overlap within the horizon. The
constraint helper walks a candidate path at constant speed, propagates the
obstacles on the same clock, and accumulates violation depths so the
optimizer can rank infeasible candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NurbsCurve


@dataclass(frozen=True)
class ObstacleState:
    """One sensed disc obstacle: position (m), velocity (m/s), radius (m)."""

    position: np.ndarray
    velocity: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("obstacle radius must be positive")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))


@dataclass(frozen=True)
class VOCheck:
    """Membership result: inside flag, time to collision, violation depth."""

    in_vo: bool
    time_to_collision: float | None
    depth: float


def time_to_collision(rel_pos, rel_vel, radius: float) -> float | None:
    """Smallest t >= 0 with ||rel_pos - rel_vel * t|| = radius, else None.

    Returns 0 when the discs already overlap. rel_pos is obstacle minus
    agent, rel_vel is agent minus obstacle, so closure shrinks the gap.
    The one-pair form of _ttc_array, the kernel the search uses.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    t = float(_ttc_array(np.asarray(rel_pos, dtype=float),
                         np.asarray(rel_vel, dtype=float), radius))
    return None if math.isnan(t) else t


def _ttc_array(rel_pos: np.ndarray, rel_vel: np.ndarray,
               radius) -> np.ndarray:
    """Vectorized time_to_collision with x, y on the first axis of rel_pos
    and rel_vel (shape (2, ...)); NaN where no collision occurs. `radius`
    broadcasts against the remaining axes."""
    c = rel_pos[0] * rel_pos[0] + rel_pos[1] * rel_pos[1] - radius * radius
    a = rel_vel[0] * rel_vel[0] + rel_vel[1] * rel_vel[1]
    b = rel_pos[0] * rel_vel[0] + rel_pos[1] * rel_vel[1]
    disc = b * b - a * c
    ok = (disc >= 0.0) & (a > 0.0)
    t = np.where(ok, (b - np.sqrt(np.where(ok, disc, 0.0))) / np.where(a > 0.0, a, 1.0), np.nan)
    t = np.where(ok & (t >= 0.0), t, np.nan)
    return np.where(c < 0.0, 0.0, t)


def obstacle_arrays(obstacles, r_u: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions (2, K), velocities (2, K) and combined radii (K,)."""
    obstacles = list(obstacles)
    return (np.array([o.position for o in obstacles], dtype=float).reshape(-1, 2).T,
            np.array([o.velocity for o in obstacles], dtype=float).reshape(-1, 2).T,
            np.array([o.radius + r_u for o in obstacles], dtype=float))


def vo_depth(points: np.ndarray, tangents: np.ndarray, times: np.ndarray,
             speed: float, obstacles: tuple, tau: float) -> np.ndarray:
    """Summed truncated-VO violation depth of sampled agent states.

    points and tangents (2, ..., J), components first, are the path
    samples reached at `times` (..., J) flying at `speed`; `obstacles`
    comes from obstacle_arrays. Each sample is checked against every
    obstacle propagated to its time, with the horizon shrunk to tau - t.
    Returns the sum over samples and obstacles, shape (...).
    """
    positions, velocities, radii = obstacles
    norms = np.maximum(np.sqrt(tangents[0] * tangents[0]
                               + tangents[1] * tangents[1]), 1e-12)
    t = times[..., None]
    rel_pos = [positions[k] + t * velocities[k] - points[k][..., None]
               for k in range(2)]
    rel_vel = [(speed * tangents[k] / norms)[..., None] - velocities[k]
               for k in range(2)]
    t_star = _ttc_array(rel_pos, rel_vel, radii)
    horizons = tau - t
    hit = (horizons > 0.0) & (t_star <= horizons)
    depth = np.where(hit, horizons - t_star, 0.0) / np.where(hit, horizons, 1.0)
    return depth.sum(axis=(-2, -1))


def in_truncated_vo(v_u, p_u, obs: ObstacleState, r_u: float,
                    tau: float) -> VOCheck:
    """Check whether a velocity falls inside the obstacle's truncated VO."""
    if tau <= 0.0:
        raise ValueError("horizon tau must be positive")
    rel_pos = obs.position - np.asarray(p_u, dtype=float)
    rel_vel = np.asarray(v_u, dtype=float) - obs.velocity
    t_star = time_to_collision(rel_pos, rel_vel, obs.radius + r_u)
    if t_star is None or t_star > tau:
        return VOCheck(in_vo=False, time_to_collision=t_star, depth=0.0)
    return VOCheck(in_vo=True, time_to_collision=t_star,
                   depth=(tau - t_star) / tau)


def s_tau(curve: NurbsCurve, speed: float, tau: float) -> float:
    """Parameter reached after travelling speed * tau along the curve.

    Returns 1 when the whole path is shorter than the travelled distance.
    """
    if speed <= 0.0:
        raise ValueError("speed must be positive")
    target = speed * tau
    if target >= curve.total_length():
        return 1.0
    return float(curve.param_at_length(target))


def path_vo_violation(curve: NurbsCurve, speed: float, obstacles,
                      r_u: float, tau: float, n_samples: int = 20) -> float:
    """Total truncated-VO violation depth along the path up to s_tau.

    Samples are uniform in arc length; each sample j is an agent state at
    time t_j = arclen_j / speed, checked against every obstacle propagated
    to t_j with the horizon shrunk to tau - t_j. Zero iff the sampled
    constraint holds.
    """
    if n_samples < 2:
        raise ValueError("need at least two VO samples")
    obstacles = list(obstacles)
    if not obstacles:
        return 0.0
    arc_end = min(speed * tau, curve.total_length())
    arcs = np.linspace(0.0, arc_end, n_samples)
    # Grid-interpolated inversion: sampling positions need far less
    # precision than the obstacle radii they are compared against.
    s_vals = np.atleast_1d(curve.param_at_length(arcs, polish=False))
    c0, c1 = curve.derivatives(s_vals, order=1)
    return float(vo_depth(c0.T, c1.T, arcs / speed, speed,
                          obstacle_arrays(obstacles, r_u), tau))
