"""Flyability oracle for the plans a mission actually flew.

Independent of the planner: curves are evaluated here from their serialized
control points, weights and knots with a separate Cox-de Boor recursion, and
the planner's own `feasible` flag and verification are never consulted. A
plan is unflyable when any of these holds:

- dense curvature (circumscribed-circle curvature of consecutive points of a
  dense parameter grid) exceeds kappa_max by more than KAPPA_REL_TOL;
- a dense point lies inside a static disc inflated by r_safe + r_u, for the
  discs the vehicle could see when the plan was activated;
- flying the plan at constant speed from its activation time, a brute-force
  1 ms time step over tau finds the vehicle inside a sensed mover's disc
  inflated by r_safe + r_u.
"""

from __future__ import annotations

import bisect

import numpy as np

N_DENSE = 4001
STEP_S = 1e-3
# Slack for the discrete curvature estimate: at N_DENSE points its error on
# the generated paths is far below this.
KAPPA_REL_TOL = 1e-3
CLEAR_TOL = 1e-6


def basis(knots: np.ndarray, degree: int, u: np.ndarray) -> np.ndarray:
    """Clamped B-spline basis values, shape (len(u), n_control_points)."""
    knots = np.asarray(knots, dtype=float)
    col = u[:, None]
    table = ((knots[:-1] <= col) & (col < knots[1:])).astype(float)
    at_end = u >= knots[-1]
    if at_end.any():
        last = np.nonzero(knots[:-1] < knots[1:])[0][-1]
        table[at_end] = 0.0
        table[at_end, last] = 1.0
    for p in range(1, degree + 1):
        left_den = knots[p:-1] - knots[:-p - 1]
        right_den = knots[p + 1:] - knots[1:-p]
        left = np.divide(col - knots[:-p - 1], left_den,
                         out=np.zeros((u.size, left_den.size)),
                         where=left_den > 0.0)
        right = np.divide(knots[p + 1:] - col, right_den,
                          out=np.zeros((u.size, right_den.size)),
                          where=right_den > 0.0)
        table = left * table[:, :-1] + right * table[:, 1:]
    return table


def dense_points(curve: dict, n: int = N_DENSE) -> np.ndarray:
    """Points of a serialized rational B-spline on a uniform parameter grid."""
    u = np.linspace(0.0, 1.0, n)
    b = basis(np.asarray(curve["knots"]), int(curve["degree"]), u)
    w = np.asarray(curve["weights"], dtype=float)
    pts = np.asarray(curve["control_points"], dtype=float)
    return (b @ (w[:, None] * pts)) / (b @ w)[:, None]


def discrete_curvature(pts: np.ndarray) -> np.ndarray:
    """Curvature of the circle through each three consecutive points."""
    a = pts[1:-1] - pts[:-2]
    b = pts[2:] - pts[1:-1]
    c = pts[2:] - pts[:-2]
    cross = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    den = (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
           * np.linalg.norm(c, axis=1))
    return np.divide(2.0 * cross, den, out=np.zeros_like(den), where=den > 0.0)


def _state_at(log, t: float) -> np.ndarray:
    i = min(bisect.bisect_left(log.times, t - 1e-9), len(log.times) - 1)
    return np.asarray(log.positions[i], dtype=float)


def check_plan(curve: dict, t_act: float, pos, scenario) -> dict:
    """Oracle verdict for one plan activated at time t_act at position pos."""
    cfg = scenario.planner
    margin = cfg.r_safe + cfg.r_u
    pts = dense_points(curve)
    kappa_peak = float(np.max(discrete_curvature(pts)))

    static_pen = 0.0
    for s in scenario.statics:
        visible = s.known or np.linalg.norm(s.center - pos) <= cfg.r_view + s.radius
        if visible:
            d = np.linalg.norm(pts - s.center, axis=1)
            static_pen = max(static_pen, float(np.max(s.radius + margin - d)))

    mover_pen = 0.0
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    times = np.arange(0.0, cfg.tau + 0.5 * STEP_S, STEP_S)
    arcs = scenario.uav_speed * times
    flown = arcs <= cum[-1]
    times, arcs = times[flown], arcs[flown]
    path = np.column_stack([np.interp(arcs, cum, pts[:, 0]),
                            np.interp(arcs, cum, pts[:, 1])])
    for d in scenario.dynamics:
        if not d.active(t_act) or \
                np.linalg.norm(d.position(t_act) - pos) > cfg.r_view:
            continue
        mover = d.position(t_act)[None, :] + times[:, None] * d.velocity[None, :]
        dist = np.linalg.norm(path - mover, axis=1)
        mover_pen = max(mover_pen, float(np.max(d.radius + margin - dist)))

    flyable = (kappa_peak <= cfg.kappa_max * (1.0 + KAPPA_REL_TOL)
               and static_pen <= CLEAR_TOL and mover_pen <= CLEAR_TOL)
    return {"t": t_act, "flyable": bool(flyable), "kappa_peak": kappa_peak,
            "static_penetration": static_pen, "mover_penetration": mover_pen}


def check_mission(log, scenario) -> list[dict]:
    """Verdicts for every activated plan in `log.curves`, in flight order."""
    return [check_plan(rec["curve"], rec["t"], _state_at(log, rec["t"]),
                       scenario)
            for rec in log.curves]
