"""Deliberative replanning: project, cut, optimize a path variation under
length/curvature/velocity-obstacle constraints, and orchestrate missions.

Each cycle cuts the active curve at the position the tracker is predicted
to reach one replanning interval ahead, then searches a box of variations
(interior control-point moves, weight shifts, endpoint spacing factors)
with the constrained differential-evolution solver. The tracker keeps
following the previous curve while the next one is computed; in tests the
two are interleaved on a fixed deterministic schedule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, velocity_obstacle
from .geometry import HeadingSpec, NurbsCurve
from .lshade import OptimizerConfig, ProblemDef, optimize
from .tracking import (FieldGains, UavState, VehicleLimits,
                       heading_rate_command, step_dubins, vector_field)
from .velocity_obstacle import path_vo_violation
from .world import SimLog, World

FEAS_EPS = 1e-12
GAIN_RTOL = 1e-9  # relative gain below which a variation is not flown


@dataclass(frozen=True)
class Waypoint:
    position: np.ndarray
    heading: float

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if not np.all(np.isfinite(pos)) or not math.isfinite(self.heading):
            raise ValueError("waypoint fields must be finite")
        object.__setattr__(self, "position", pos)


@dataclass
class PlannerConfig:
    t_replan: float = 0.1  # seconds between replans
    tau: float = 3.0  # VO horizon, seconds
    kappa_max: float = 0.05  # 1/m
    r_u: float = 0.0  # vehicle radius, m
    r_safe: float = 5.0  # safety radius, m
    r_view: float = 80.0  # sensing range, m
    n_interior: int = 8
    n_curv_samples: int = 64
    n_vo_samples: int = 20
    waypoint_tolerance: float = 3.0
    budget_mode: bool = False  # True: deterministic, no wall deadline
    disable_vo: bool = False
    disable_curvature: bool = False
    gains: FieldGains = None  # defaults to beta matched to the turn radius
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(budget=512, n_init=40))

    def __post_init__(self):
        if self.t_replan <= 0.0:
            raise ValueError("t_replan must be positive")
        if self.tau <= self.t_replan:
            raise ValueError("VO horizon tau must exceed t_replan")
        if min(self.r_safe, self.r_view) <= 0.0 or self.r_u < 0.0:
            raise ValueError("radii must be positive (r_u may be zero)")
        if self.n_interior < 1:
            raise ValueError("need at least one movable interior point")
        if self.gains is None:
            # The normal blend should saturate over the turning-radius
            # scale, not over one meter, or the tracker limit-cycles.
            self.gains = FieldGains(beta=self.kappa_max)

    @property
    def rho_min(self) -> float:
        return 1.0 / self.kappa_max


@dataclass
class ReplanResult:
    curve: NurbsCurve
    feasible: bool
    f: float  # path length of the returned curve, m
    violations: dict  # {"obstacle", "curvature", "vo"} at 4x density
    wall_time: float
    evals: int
    delta: np.ndarray | None = None
    anchor: float = 0.0  # projection parameter on the previous curve
    remaining_length: float = 0.0


def delta_bounds(curve: NurbsCurve, config: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-cycle variation box: local point moves, small weight shifts,
    spacing factors within the turning-radius scale."""
    n_mov = geometry.movable_count(curve)
    rho = config.rho_min
    # Point moves are kept well inside the turning-radius scale: the box
    # bounds one cycle's change, and plans are re-optimized every t_replan,
    # so a small box still yields fast lateral authority while keeping
    # consecutive plans close enough for the warm start to converge.
    lower = np.concatenate([
        np.full(2 * n_mov, -0.5 * rho),
        np.full(n_mov, -0.5),
        [0.05 * rho, 0.05 * rho],
    ])
    upper = np.concatenate([
        np.full(2 * n_mov, 0.5 * rho),
        np.full(n_mov, 0.5),
        [2.0 * rho, 2.0 * rho],
    ])
    return lower, upper


def initial_path(wp_from: Waypoint, wp_to: Waypoint,
                 config: PlannerConfig) -> NurbsCurve:
    """Straight-chord heading path between two waypoints."""
    chord = float(np.linalg.norm(wp_to.position - wp_from.position))
    if chord == 0.0:
        raise ValueError("waypoints must be distinct")
    rho = config.rho_min
    # Keep the rigid collinear triples short: everything within 3 * lam0 of
    # an endpoint can only stretch along the heading, so a long spacing
    # would leave the near portion of the path unable to move sideways.
    lam0 = min(0.25 * rho, 0.1 * chord)
    lam0 = min(max(lam0, 0.05 * rho), 2.0 * rho)
    spec = HeadingSpec(gamma_init=wp_from.heading, gamma_goal=wp_to.heading,
                       lam1=lam0, lam2=lam0)
    return geometry.build_path_with_headings(wp_from.position, wp_to.position,
                                             spec, config.n_interior)


def cut_path_at_projection(curve: NurbsCurve, uav_state: UavState,
                           t_s: float, hint: float | None = None
                           ) -> tuple[NurbsCurve | None, float]:
    """Cut the curve at the tracker's predicted position t_s ahead.

    Returns (remaining curve, anchor parameter). The remaining curve is
    None when the advanced anchor reaches the end of the path, signalling
    the mission loop to switch waypoints.
    """
    s_star, _ = curve.project(uav_state.position, hint=hint)
    arc_anchor = float(curve.length_from_start(s_star))
    target = arc_anchor + uav_state.speed * t_s
    total = curve.total_length()
    if target >= total - 1e-9:
        return None, s_star
    s_split = float(curve.param_at_length(target))
    if s_split <= 1e-9:
        return curve, s_star
    if s_split >= 1.0 - 1e-9:
        return None, s_star
    _, right = curve.split(s_split)
    return right, s_star


def constraint_violations(candidate: NurbsCurve, statics, dynamics,
                          config: PlannerConfig, speed: float,
                          scale: int = 1) -> np.ndarray:
    """[static-obstacle, curvature, velocity-obstacle] violation magnitudes.

    All components are non-negative and zero iff the sampled constraint
    holds; `scale` multiplies every sampling density (used for the 4x
    post-check of accepted plans). Static clearance is sampled on the
    curvature grid.
    """
    curv_grid = np.linspace(0.0, 1.0, config.n_curv_samples * scale)
    c0, kappa = candidate.positions_and_curvatures(curv_grid)

    v_obs = 0.0
    for s in statics:
        d = np.linalg.norm(c0 - s.center, axis=1)
        v_obs += float(np.sum(np.maximum(
            0.0, (s.radius + config.r_safe + config.r_u) - d)))

    v_curv = 0.0
    if not config.disable_curvature:
        # The tiny slack keeps a plan that rides the curvature bound from
        # flipping infeasible when it is re-sampled on the next cycle.
        v_curv = float(np.sum(np.maximum(0.0,
                                         kappa - config.kappa_max - 1e-9))
                       / (curv_grid.size - 1))

    v_vo = 0.0
    if not config.disable_vo and dynamics:
        v_vo = path_vo_violation(candidate, speed, dynamics,
                                 r_u=config.r_u + config.r_safe,
                                 tau=config.tau,
                                 n_samples=config.n_vo_samples * scale)
    return np.array([v_obs, v_curv, v_vo])


def _verify(candidate: NurbsCurve, statics, dynamics, config: PlannerConfig,
            speed: float) -> tuple[bool, dict]:
    """Re-check all constraint families at 4x sampling density."""
    v = constraint_violations(candidate, statics, dynamics, config, speed,
                              scale=4)
    if not config.disable_curvature:
        k_peak, _ = candidate.max_curvature(4 * config.n_curv_samples)
        v[1] = max(v[1], max(0.0, k_peak - config.kappa_max - 1e-9))
    violations = {"obstacle": float(v[0]), "curvature": float(v[1]),
                  "vo": float(v[2])}
    return bool(np.all(v <= FEAS_EPS)), violations


class _CycleKernel:
    """Objective and constraint violations for a batch of candidates.

    Built once per replan cycle on the cut path. apply_delta keeps the knot
    vector, so every candidate of the cycle shares one B-spline basis: its
    values and derivatives are tabulated here at the arc-length Gauss nodes
    and on the curvature grid, which static clearance shares, and a chunk
    of P candidates then costs a few B @ H products on the (P, n, 3)
    homogeneous control points. Agrees with apply_delta + total_length +
    constraint_violations to rounding.
    """

    def __init__(self, base: NurbsCurve, lower, upper, statics, dynamics,
                 config: PlannerConfig, speed: float):
        self.base = base
        self.lower = lower
        self.upper = upper
        self.config = config
        self.speed = speed
        knots, degree = base.knots, base.degree
        self.edges, self.half, gl_nodes = geometry.arclen_cells(knots)
        self.gl_basis = geometry.basis_matrices(knots, degree, gl_nodes, 1)
        self.curv_grid = np.linspace(0.0, 1.0, config.n_curv_samples)
        self.curv_basis = geometry.basis_matrices(knots, degree,
                                                  self.curv_grid, 2)
        statics = list(statics)
        self.centers = np.array([s.center for s in statics]).reshape(-1, 2)
        self.clearance = np.array([s.radius + config.r_safe + config.r_u
                                   for s in statics])
        self.movers = None
        if not config.disable_vo and dynamics:
            self.movers = velocity_obstacle.obstacle_arrays(
                dynamics, config.r_u + config.r_safe)

    @staticmethod
    def _derivs(mats, hom_rows):
        """Rational derivatives of every candidate at shared parameters,
        shape (2, P, m), from (m, n) basis matrices and the (3P, n)
        component-major homogeneous control points."""
        n_var = hom_rows.shape[0] // 3
        return geometry.rational_derivatives(
            [(hom_rows @ b.T).reshape(3, n_var, -1) for b in mats])

    def evaluate(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Path lengths (P,) and [static, curvature, VO] violations (P, 3)."""
        config = self.config
        hom = geometry.apply_delta_batch(self.base, xs, self.lower, self.upper)
        # One (3P, n) matrix: every product below is a single matmul, and
        # the x, y, w planes of its result are contiguous.
        hom_rows = hom.transpose(2, 0, 1).reshape(-1, hom.shape[1])
        _, c1 = self._derivs(self.gl_basis, hom_rows)
        cum = geometry.cumulative_length(
            self.half, np.sqrt(c1[0] * c1[0] + c1[1] * c1[1]))
        lengths = cum[:, -1]
        c0, c1, c2 = self._derivs(self.curv_basis, hom_rows)
        kappa, ok = geometry.curvature_values(c1, c2)
        for p in np.nonzero(~ok.all(axis=1))[0]:
            # A vanishing tangent: the scalar path's offset rule, this row only.
            kappa[p] = geometry.apply_delta(self.base, xs[p], self.lower,
                                            self.upper).curvatures(self.curv_grid)

        v = np.zeros((xs.shape[0], 3))
        if self.clearance.size:
            d = np.sqrt((c0[0][..., None] - self.centers[:, 0]) ** 2
                        + (c0[1][..., None] - self.centers[:, 1]) ** 2)
            v[:, 0] = np.maximum(0.0, self.clearance - d).sum(axis=(1, 2))
        if not config.disable_curvature:
            v[:, 1] = np.maximum(0.0, kappa - config.kappa_max - 1e-9).sum(axis=1) \
                / (self.curv_grid.size - 1)
        if self.movers is not None:
            arc_end = np.minimum(self.speed * config.tau, lengths)
            arcs = np.linspace(0.0, arc_end, config.n_vo_samples, axis=-1)
            s_vals = geometry.invert_length(self.edges, cum, arcs)
            mats = geometry.basis_matrices(self.base.knots, self.base.degree,
                                           s_vals.ravel(), 1)
            shape = s_vals.shape + (-1,)
            pos, tan = geometry.rational_derivatives(
                [np.moveaxis(b.reshape(shape) @ hom, -1, 0) for b in mats])
            v[:, 2] = velocity_obstacle.vo_depth(pos, tan, arcs / self.speed,
                                                 self.speed, self.movers,
                                                 config.tau)
        return lengths, v


def _align_delta(old: np.ndarray, new_dim: int) -> np.ndarray:
    """Map a previous cycle's delta onto a (possibly shrunk) layout.

    Points are consumed from the front of the path, so blocks align on
    their trailing entries; new leading entries start at zero.
    """
    n_old = (old.size - 2) // 3
    n_new = (new_dim - 2) // 3
    out = np.zeros(new_dim)
    k = min(n_old, n_new)
    if k:
        out[2 * (n_new - k): 2 * n_new] = old[2 * (n_old - k): 2 * n_old]
        out[2 * n_new + (n_new - k): 3 * n_new] = \
            old[2 * n_old + (n_old - k): 3 * n_old]
    out[-2:] = old[-2:]
    return out


def _real_gain(best, f0: float, v0: float) -> bool:
    """Whether an optimized candidate beats the neutral delta by more than
    rounding: less total violation, or as little and a shorter path.

    Many variations leave the curve itself unchanged (collinear control
    points slid along their line, their weights, an inert spacing factor)
    and differ in length or violation by rounding only. Flying such a
    variation would let the control-point layout random-walk from cycle to
    cycle and bunch the movable points away from where they are needed.
    """
    if best.violation < v0 * (1.0 - GAIN_RTOL):
        return True
    return best.violation <= v0 * (1.0 + GAIN_RTOL) \
        and best.f < f0 * (1.0 - GAIN_RTOL)


def replan_cycle(curve: NurbsCurve, uav_state: UavState, sensed, config:
                 PlannerConfig, seed: int, statics=(), warm_delta=None,
                 anchor_hint: float | None = None) -> ReplanResult | None:
    """One deliberative cycle: cut, optimize the variation, verify.

    Returns None when the path is exhausted (the caller switches to the
    next waypoint). The cut is flown unchanged when it has no movable
    points to search, or when the search does not beat it by more than
    rounding (see _real_gain). An infeasible plan is returned flagged
    infeasible; the tracker keeps following it and retries next cycle.
    """
    t0 = time.perf_counter()
    cut, anchor = cut_path_at_projection(curve, uav_state, config.t_replan,
                                         hint=anchor_hint)
    if cut is None:
        return None

    remaining = cut.total_length()
    plan, f, evals, delta = cut, remaining, 0, None
    if geometry.movable_count(cut) >= 1:
        lower, upper = delta_bounds(cut, config)
        kernel = _CycleKernel(cut, lower, upper, statics, sensed, config,
                              uav_state.speed)
        problem = ProblemDef(dimension=lower.size, lower=lower, upper=upper,
                             batch=kernel.evaluate)
        deadline = None if config.budget_mode else 0.8 * config.t_replan
        opt_cfg = replace(config.optimizer, seed=seed, deadline=deadline)
        warm = [geometry.neutral_delta(cut)]
        if warm_delta is not None:
            warm.append(_align_delta(np.asarray(warm_delta, dtype=float),
                                     lower.size))
        best, stats = optimize(problem, opt_cfg, warm_start=warm)
        evals = stats.evaluations
        f0, v0 = problem.evaluate_batch(warm[0][None])
        f, delta = float(f0[0]), warm[0]
        if _real_gain(best, f0[0], v0[0]):
            plan = geometry.apply_delta(cut, best.x, lower, upper)
            f, delta = best.f, np.array(best.x)

    feasible, violations = _verify(plan, statics, sensed, config,
                                   uav_state.speed)
    return ReplanResult(curve=plan, feasible=feasible, f=f,
                        violations=violations,
                        wall_time=time.perf_counter() - t0, evals=evals,
                        delta=delta, anchor=anchor,
                        remaining_length=remaining)


def mission_loop(waypoints: list, world: World, config: PlannerConfig,
                 seed: int, uav0: UavState | None = None,
                 dt_sim: float | None = None,
                 max_steps: int = 20000) -> SimLog:
    """Fly the waypoint sequence: track with the vector field at the
    simulation rate, replan every t_replan, stop on success, collision or
    the step cap."""
    if len(waypoints) < 2:
        raise ValueError("a mission needs at least two waypoints")
    dt = dt_sim if dt_sim is not None else config.t_replan / 10.0
    steps_per_replan = max(1, int(round(config.t_replan / dt)))
    limits = VehicleLimits(config.kappa_max)
    gains = config.gains

    if uav0 is None:
        uav0 = UavState(position=np.array(waypoints[0].position),
                        heading=waypoints[0].heading, speed=15.0)
    state = uav0
    log = SimLog()
    log.times.append(world.clock)
    log.positions.append(np.array(state.position))
    log.headings.append(state.heading)
    log.commands.append(0.0)
    log.anchors.append(0.0)
    log.clearances.append(world.min_clearance(state.position, config.r_u,
                                              config.r_safe))

    cycle = 0
    total_steps = 0
    for wp_idx in range(1, len(waypoints)):
        target = waypoints[wp_idx]
        leg_from = Waypoint(position=np.array(state.position),
                            heading=state.heading)
        active = initial_path(leg_from, target, config)
        log.curves.append({"t": world.clock, "leg": wp_idx,
                           "curve": active.to_dict()})
        pending: ReplanResult | None = None
        warm_delta = None
        anchor_hint: float | None = 0.0
        leg_steps = 0
        while True:
            dist_to_go = float(np.linalg.norm(state.position - target.position))
            if dist_to_go <= config.waypoint_tolerance:
                log.waypoint_times.append({"waypoint": wp_idx,
                                           "t": world.clock})
                break
            if total_steps >= max_steps:
                log.success = False
                _finalize(log, config)
                return log

            if leg_steps % steps_per_replan == 0:
                if pending is not None:
                    active = pending.curve
                    anchor_hint = 0.0
                    log.curves.append({"t": world.clock, "leg": wp_idx,
                                       "curve": active.to_dict()})
                sensed = world.sense(state.position, config.r_view)
                statics = world.visible_statics(state.position, config.r_view)
                result = replan_cycle(active, state, sensed, config,
                                      seed=seed * 100003 + cycle,
                                      statics=statics,
                                      warm_delta=warm_delta,
                                      anchor_hint=anchor_hint)
                cycle += 1
                pending = result
                if result is None and dist_to_go > config.waypoint_tolerance:
                    # The path is consumed but the waypoint was missed
                    # (tracking overshoot): start a fresh leg path from the
                    # current state so the field can steer back.
                    leg_from = Waypoint(position=np.array(state.position),
                                        heading=state.heading)
                    active = initial_path(leg_from, target, config)
                    log.curves.append({"t": world.clock, "leg": wp_idx,
                                       "curve": active.to_dict()})
                    warm_delta = None
                    anchor_hint = 0.0
                if result is not None:
                    warm_delta = result.delta
                    log.replans.append({
                        "t": world.clock, "leg": wp_idx,
                        "feasible": result.feasible, "f": result.f,
                        "violations": result.violations,
                        "wall_time": result.wall_time,
                        "evals": result.evals,
                        "remaining_length": result.remaining_length,
                    })

            direction, s_anchor = vector_field(active, state.position, gains,
                                               hint=anchor_hint)
            anchor_hint = s_anchor
            u = heading_rate_command(state, direction, limits, gains)
            state = step_dubins(state, u, dt, limits)
            world.step(dt)

            log.times.append(world.clock)
            log.positions.append(np.array(state.position))
            log.headings.append(state.heading)
            log.commands.append(u)
            log.anchors.append(s_anchor)
            log.clearances.append(world.min_clearance(state.position,
                                                      config.r_u,
                                                      config.r_safe))
            event = world.check_collision(state.position, config.r_u,
                                          config.r_safe)
            if event is not None:
                log.collisions.append(event)
                log.success = False
                _finalize(log, config)
                return log
            leg_steps += 1
            total_steps += 1

    log.success = True
    _finalize(log, config)
    return log


def _finalize(log: SimLog, config: PlannerConfig) -> None:
    pos = np.array(log.positions)
    length = float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1))) \
        if len(pos) > 1 else 0.0
    finite = [c for c in log.clearances if math.isfinite(c)]
    walls = sorted(r["wall_time"] for r in log.replans)
    stats = {}
    if walls:
        stats = {
            "median": walls[len(walls) // 2],
            "p95": walls[min(len(walls) - 1, int(math.ceil(0.95 * len(walls))) - 1)],
            "max": walls[-1],
        }
    log.metrics = {
        "success": log.success,
        "executed_path_length": length,
        "min_clearance": min(finite) if finite else None,
        "replan_wall_time": stats,
        "replan_count": len(log.replans),
        "total_evals": int(sum(r["evals"] for r in log.replans)),
        "collision_count": len(log.collisions),
        "sim_time": log.times[-1] - log.times[0] if log.times else 0.0,
    }
