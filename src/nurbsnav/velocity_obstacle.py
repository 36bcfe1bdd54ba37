"""Truncated velocity-obstacle construction and the along-path VO constraint.

A velocity lies inside the truncated VO of an obstacle when, under constant
velocities, the combined-radius discs overlap within the horizon. The
constraint helper walks a candidate path at constant speed, propagates the
obstacles on the same clock, and accumulates violation depths so the
optimizer can rank infeasible candidates.

One time-to-collision kernel serves every caller: `_ttc_array` solves the
closing quadratic on whole arrays, +inf where no collision lies ahead, and
`time_to_collision` is its one-pair form. `vo_depth` scores P candidates'
J samples against K movers, held per replan cycle by `obstacle_arrays`, in
a fixed number of array operations on (K, P, J) arrays.

One sampling rule serves every path, and it is the only curve knowledge
here: `path_depth` spreads the samples uniformly over the first
min(speed * tau, length) metres and times them at arc length / speed;
`geometry.derivatives_at_lengths` finds and evaluates them. Both callers
pass control-point rows and their length grids: the planner's search
kernel a chunk of candidates', `path_vo_violation` one curve's
`homogeneous.T` and `length_grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NurbsCurve, derivatives_at_lengths

_TINY = np.finfo(float).tiny


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

    Returns 0 when the discs already touch or overlap. rel_pos is obstacle
    minus agent, rel_vel is agent minus obstacle, so closure shrinks the
    gap. The one-pair form of _ttc_array, the kernel the search uses.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    t = float(_ttc_array(np.asarray(rel_pos, dtype=float),
                         np.asarray(rel_vel, dtype=float), radius * radius))
    return None if math.isinf(t) else t


def _ttc_array(rel_pos: np.ndarray, rel_vel: np.ndarray,
               rr) -> np.ndarray:
    """Vectorized time_to_collision with x, y on the first axis of rel_pos
    and rel_vel (shape (2, ...)) and the squared combined radius `rr`,
    which broadcasts against the remaining axes; +inf where no collision
    occurs.

    The first root of |p - v t|^2 = rr is (b - sqrt(disc)) / a with
    a = |v|^2, b = p.v, c = |p|^2 - rr and disc = b^2 - a c. Touching or
    overlapping discs (c <= 0) have a root at or before 0, clamped to 0.
    Apart (c > 0), a root exists ahead iff b > 0 and disc >= 0; no root
    (disc < 0), roots behind (b <= 0) and no relative motion (a = 0, so
    b = 0) all give +inf. The floor on a only keeps a = 0 from dividing
    by zero: then b = disc = 0 and the root is 0.
    """
    sq = rel_pos * rel_pos
    c = sq[0] + sq[1] - rr
    sq = rel_vel * rel_vel
    a = sq[0] + sq[1]
    sq = rel_pos * rel_vel
    b = sq[0] + sq[1]
    disc = b * b - a * c
    t = np.maximum((b - np.sqrt(np.maximum(disc, 0.0))) / np.maximum(a, _TINY),
                   0.0)
    return np.where((c <= 0.0) | (b > 0.0) & (disc >= 0.0), t, np.inf)


def obstacle_arrays(obstacles, margin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and velocities (2, K, 1, 1) and squared combined radii
    (K, 1, 1), each obstacle's radius plus `margin`
    (`PlannerConfig.margin`, r_safe + r_u), obstacles on the leading axis
    so that they broadcast against samples (2, 1, P, J)."""
    obstacles = list(obstacles)
    pos = np.array([o.position for o in obstacles], dtype=float).reshape(-1, 2)
    vel = np.array([o.velocity for o in obstacles], dtype=float).reshape(-1, 2)
    radii = np.array([o.radius + margin for o in obstacles], dtype=float)
    return (pos.T[:, :, None, None], vel.T[:, :, None, None],
            (radii * radii)[:, None, None])


def vo_depth(points: np.ndarray, tangents: np.ndarray, times: np.ndarray,
             speed: float, obstacles: tuple, tau: float) -> np.ndarray:
    """Summed truncated-VO violation depth of sampled agent states.

    points and tangents (2, P, J), components first, are the path
    samples reached at `times` (P, J) flying at `speed`; `obstacles`
    comes from obstacle_arrays. Each sample is checked against every
    obstacle propagated to its time, with the horizon shrunk to
    h = tau - t: a time to collision t* adds (h - min(t*, h)) / h, which
    is 0 for t* = +inf and for h <= 0. Returns the sum over samples and
    obstacles, shape (P,).
    """
    positions, velocities, rr = obstacles
    v_u = tangents * (speed / np.maximum(np.hypot(tangents[0], tangents[1]),
                                         1e-12))
    # (2, K, P, J): movers lead, so the sum over them runs over whole planes.
    rel_pos = positions + times * velocities - points[:, None]
    t_star = _ttc_array(rel_pos, v_u[:, None] - velocities, rr)
    h = tau - times
    inv_h = 1.0 / np.where(h > 0.0, h, np.inf)
    return np.einsum("kpj,pj->p", h - np.minimum(t_star, h), inv_h)


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


def path_depth(knots, degree: int, hom_rows, cum, speed: float,
               obstacles: tuple, tau: float, n_samples: int) -> np.ndarray:
    """Truncated-VO depth (P,) of P paths on one knot vector flown at
    `speed`, from their control-point rows (3P, n) and length grids
    (P, E), which `geometry.derivatives_at_lengths` takes as they are.

    Each path is sampled n_samples times uniformly in arc length up to
    min(speed * tau, its length), at time arclen / speed; `vo_depth`
    scores the samples against `obstacles` (from obstacle_arrays).
    """
    arc_end = np.minimum(speed * tau, cum[:, -1])
    arcs = arc_end[:, None] * np.linspace(0.0, 1.0, n_samples)
    pos, tan = derivatives_at_lengths(knots, degree, hom_rows, cum, arcs)
    return vo_depth(pos, tan, arcs / speed, speed, obstacles, tau)


def path_vo_violation(curve: NurbsCurve, speed: float, obstacles,
                      margin: float, tau: float, n_samples: int) -> float:
    """Total truncated-VO violation depth along the first speed * tau
    metres of the path (all of it, when shorter): `path_depth` on the
    curve's own control points and length grid, with n_samples samples
    (planner.N_VO_SAMPLES in constraint_violations). Zero iff the sampled
    constraint holds.
    """
    if n_samples < 2:
        raise ValueError("need at least two VO samples")
    return float(path_depth(curve.knots, curve.degree, curve.homogeneous.T,
                            curve.length_grid[1][None], speed,
                            obstacle_arrays(obstacles, margin), tau, n_samples)[0])
