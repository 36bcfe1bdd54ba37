"""Constant-speed Dubins kinematics and vector-field curve following.

The tracker composes a convergence component toward the closest curve
point with the curve tangent, maps the resulting direction to a bounded
heading-rate command, and integrates the Dubins model with exact arcs so
the constant-speed invariant holds to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NurbsCurve

K_HEADING = 2.0  # heading-rate gain on the heading error, 1/s


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = a - 2.0 * math.pi * math.floor((a + math.pi) / (2.0 * math.pi))
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


@dataclass(frozen=True)
class UavState:
    """Planar pose at constant speed."""

    position: np.ndarray
    heading: float  # radians, (-pi, pi]
    speed: float  # m/s, fixed for the whole mission

    def __post_init__(self):
        if self.speed <= 0.0:
            raise ValueError("speed must be positive")
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=float))


def vector_field(curve: NurbsCurve, p, kappa_max: float,
                 hint: float | None = None) -> tuple[np.ndarray, float]:
    """Unit guidance direction toward and along the curve.

    Blends the normal toward the closest curve point (weight
    (2/pi) atan(kappa_max * d)) with the unit tangent there; the two
    components are orthogonalized so the output norm is exactly one. Also
    returns the projection parameter so callers can reuse it as the next
    hint.
    """
    p = np.asarray(p, dtype=float)
    s_star, dist = curve.project(p, hint=hint)
    # One point: float arithmetic costs less than numpy's per-call overhead.
    (fx, fy), (tx, ty) = curve.derivatives_at(s_star, 1)
    ox, oy = fx - float(p[0]), fy - float(p[1])
    t_norm = math.hypot(tx, ty)
    if t_norm < 1e-12:
        # Degenerate tangent: head straight for the projection point.
        n = math.hypot(ox, oy)
        return (np.array([ox / n, oy / n]) if n > 0 else np.array([1.0, 0.0])), s_star
    tx, ty = tx / t_norm, ty / t_norm
    along = ox * tx + oy * ty
    nx, ny = ox - along * tx, oy - along * ty
    n_norm = math.hypot(nx, ny)
    if n_norm < 1e-12 or dist < 1e-12:
        return np.array([tx, ty]), s_star
    # The normal blend saturates over the turning-radius scale, not over
    # one meter, or the tracker limit-cycles.
    g = (2.0 / math.pi) * math.atan(kappa_max * dist)
    h = math.sqrt(max(1.0 - g * g, 0.0))
    return np.array([g * (nx / n_norm) + h * tx,
                     g * (ny / n_norm) + h * ty]), s_star


def heading_rate_command(state: UavState, desired_dir,
                         kappa_max: float) -> float:
    """Proportional heading-rate command, clamped to the turn limit
    speed * kappa_max."""
    desired_dir = np.asarray(desired_dir, dtype=float)
    err = wrap_angle(math.atan2(desired_dir[1], desired_dir[0]) - state.heading)
    u_max = state.speed * kappa_max
    return float(np.clip(K_HEADING * err, -u_max, u_max))


def step_dubins(state: UavState, u: float, dt: float,
                kappa_max: float) -> UavState:
    """Advance the Dubins model by dt with exact arc integration, the
    heading rate clamped to speed * kappa_max."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u_max = state.speed * kappa_max
    u = float(np.clip(u, -u_max, u_max))
    v = state.speed
    gamma = state.heading
    if abs(u) < 1e-9:
        pos = state.position + v * dt * np.array([math.cos(gamma), math.sin(gamma)])
        new_heading = gamma
    else:
        radius = v / u
        new_heading = gamma + u * dt
        pos = state.position + radius * np.array(
            [math.sin(new_heading) - math.sin(gamma),
             -math.cos(new_heading) + math.cos(gamma)]
        )
    return UavState(position=pos, heading=wrap_angle(new_heading), speed=v)
