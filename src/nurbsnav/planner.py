"""Deliberative replanning: project, cut, optimize a path variation under
length/curvature/velocity-obstacle constraints, and orchestrate missions.

Each cycle cuts the active curve at the position the tracker is predicted
to reach one replanning interval ahead, then searches a box of variations
(interior control-point moves, weight shifts, endpoint spacing factors)
with the constrained differential-evolution solver. One evaluator per
cycle, `_CycleKernel`, built on the cut, scores the search's candidates and
verifies the plan the cycle returns through one sampler. `replan_cycle` is
the one place that chooses what the vehicle flies next, and labels the
choice with its `outcome`. `mission_loop` is one loop over simulation
steps: the tracker keeps following the previous curve while the next one
is computed, on a fixed deterministic schedule of one cycle every
`steps_per_replan` steps. A leg starts in one place in that loop, and only
when the flight goes on, so every curve the loop logs is flown.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from . import geometry, velocity_obstacle
from .geometry import HeadingSpec, NurbsCurve
from .lshade import OptimizerConfig, ProblemDef, optimize
from .tracking import (UavState, heading_rate_command, step_dubins,
                       vector_field, wrap_angle)
# Not called here: the benchmark's tracer (perfbench/tracer.py) patches
# this name until ROADMAP item 1 re-points its spans at the kernel's stages.
from .velocity_obstacle import path_vo_violation  # noqa: F401
from .world import SimLog, World

FEAS_EPS = 1e-12
GAIN_RTOL = 1e-9  # relative gain below which a variation is not flown
N_CURV_SAMPLES = 64  # curvature and static-clearance grid of a candidate
N_VO_SAMPLES = 20  # VO samples along a candidate, uniform in arc length
# Curvature allowed above kappa_max: the slack keeps a plan that rides the
# bound from flipping infeasible when it is re-sampled on the next cycle.
KAPPA_SLACK = 1e-9


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
    waypoint_tolerance: float = 3.0
    budget_mode: bool = False  # True: deterministic, no wall deadline
    disable_vo: bool = False
    disable_curvature: bool = False
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(budget=512, n_init=40))
    # The fixed curvature-grid density, read-only, for callers that size
    # their own checks by it.
    n_curv_samples = property(lambda self: N_CURV_SAMPLES)
    # Clearance the path keeps from every obstacle's edge, r_safe + r_u.
    margin = property(lambda self: self.r_safe + self.r_u)

    def __post_init__(self):
        # Each bound is written so that NaN fails it, as infinity does.
        if not 0.0 < self.t_replan < math.inf:
            raise ValueError("t_replan must be positive and finite")
        if not self.t_replan < self.tau < math.inf:
            raise ValueError("VO horizon tau must exceed t_replan and be finite")
        if not 0.0 < self.kappa_max < math.inf:
            raise ValueError("kappa_max must be positive and finite")
        if not (0.0 < self.r_safe < math.inf and 0.0 < self.r_view < math.inf
                and 0.0 <= self.r_u < math.inf):
            raise ValueError("radii must be positive and finite (r_u may be zero)")
        if self.n_interior < 1:
            raise ValueError("need at least one movable interior point")
        if not 0.0 < self.waypoint_tolerance < math.inf:
            raise ValueError("waypoint_tolerance must be positive and finite")

    @property
    def rho_min(self) -> float:
        return 1.0 / self.kappa_max


# What a cycle returned: the search's best, the cut because the search
# did not beat it (`_real_gain`), or the cut because it had nothing to move.
OUTCOMES = ("searched", "kept-cut", "no-movable-points")


@dataclass
class ReplanResult:
    """The plan one cycle returns, verified by the cycle's kernel, and
    `outcome`, the one of OUTCOMES that chose it."""
    curve: NurbsCurve
    feasible: bool
    f: float  # path length of the returned curve, m
    violations: dict  # {"obstacle", "curvature", "vo"} at 4x density
    wall_time: float
    evals: int
    outcome: str
    delta: np.ndarray | None = None
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
    lower = geometry.join_delta(np.full((n_mov, 2), -0.5 * rho),
                                np.full(n_mov, -0.5), [0.05 * rho, 0.05 * rho])
    upper = geometry.join_delta(np.full((n_mov, 2), 0.5 * rho),
                                np.full(n_mov, 0.5), [2.0 * rho, 2.0 * rho])
    return lower, upper


def initial_path(wp_from: Waypoint | UavState, wp_to: Waypoint,
                 config: PlannerConfig) -> NurbsCurve:
    """Straight-chord heading path from a pose, a waypoint or the
    vehicle's state (only `.position` and `.heading` are read), to a
    waypoint; ValueError unless they make a leg (`geometry.is_leg`)."""
    chord = float(np.linalg.norm(wp_to.position - wp_from.position))
    rho = config.rho_min
    # Keep the rigid collinear triples short: everything within 3 * lam0 of
    # an endpoint can only stretch along the heading, so a long spacing
    # would leave the near portion of the path unable to move sideways.
    lam0 = min(0.25 * rho, 0.1 * chord)
    lam0 = max(lam0, 0.05 * rho)
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
                          config: PlannerConfig, speed: float) -> np.ndarray:
    """[static-obstacle, curvature, velocity-obstacle] violation magnitudes.

    All components are non-negative and zero iff the sampled constraint
    holds. Static clearance is sampled on the curvature grid. A one-row
    `_CycleKernel.score`, so it equals the search kernel's row for the same
    candidate bit for bit.
    """
    kernel = _CycleKernel(candidate, statics, dynamics, config, speed)
    return kernel.score(candidate.homogeneous.T,
                        lambda: candidate.length_grid[1][None])[0][0]


def _static_discs(statics, config: PlannerConfig
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Centres (K, 2) of the static discs and the clearance each needs from
    the path, radius + config.margin (K,)."""
    statics = list(statics)
    return (np.array([s.center for s in statics]).reshape(-1, 2),
            np.array([s.radius + config.margin for s in statics]))


def _violations(points: np.ndarray, kappa: np.ndarray, sensed, vo,
                centers: np.ndarray, clearance: np.ndarray,
                config: PlannerConfig) -> np.ndarray:
    """[static, curvature, VO] violations (P, 3) of P paths sampled on the
    curvature grid: points (2, P, m) and curvatures kappa (P, m).

    Static: the summed clearance shortfall against the discs of
    `_static_discs`. Curvature: the mean excess over kappa_max +
    KAPPA_SLACK, zero under `disable_curvature`. VO: `vo()`, the depths
    (P,) against the `sensed` movers, called only when some mover is
    sensed and `disable_vo` is off. The one place that decides which
    families are scored.
    """
    v = np.zeros((kappa.shape[0], 3))
    d = np.sqrt((points[0][..., None] - centers[:, 0]) ** 2
                + (points[1][..., None] - centers[:, 1]) ** 2)
    v[:, 0] = np.maximum(0.0, clearance - d).sum(axis=(1, 2))
    if not config.disable_curvature:
        v[:, 1] = np.maximum(0.0, kappa - config.kappa_max - KAPPA_SLACK
                             ).sum(axis=1) / (kappa.shape[1] - 1)
    if not config.disable_vo and sensed:
        v[:, 2] = vo()
    return v


class _CycleKernel:
    """The one candidate evaluator: objective and constraint violations for
    the search's batches, and the verification of the plan the cycle
    returns, through one sampler, `score`.

    Built once per replan cycle on the cut path. apply_delta keeps the knot
    vector, so every candidate of the cycle, and the plan, shares one
    B-spline basis and one piecewise Bezier table. `score` takes P curves
    as the (3P, n) component-major homogeneous control-point rows that
    `geometry.apply_delta_batch` returns, with a callable that gives their
    length grids from `geometry.edge_lengths`, the one length routine.
    Only the VO reads the grid, so it is built only when the VO is
    scored: one curve's is the cached grid its `total_length` reads, and
    a search chunk's gives its lengths too. Without a sensed mover, a
    chunk's grid is built only for its feasible rows, whose lengths are
    the objective; an infeasible row's objective is NaN, which Deb's
    rules never read. Sampling costs a few products of the basis with
    the rows, each a single matmul whose x, y and w planes are contiguous.
    The basis on the curvature grid, which static clearance shares, is
    read from the piece table once, at the verification's density
    (4 * 63 + 1 parameters); the search reads every fourth row, its
    64-point grid, bit for bit. The curvatures follow
    `geometry.curvature_values`, as a curve's do, so a sample whose
    tangent vanishes reads as infeasible here and on the curve alike, and
    no curve is built while the search runs. The VO samples come from the
    rows themselves through `velocity_obstacle.path_depth`. `_violations`
    scores the samples. The search's rows (`evaluate`), one curve's
    (`constraint_violations`) and the plan's (`verify`) all go through
    `score`, so they agree bit for bit on shared samples. Rows are applied
    as given, unclipped: the optimizer keeps them inside `delta_bounds`.
    """

    def __init__(self, base: NurbsCurve, statics, dynamics,
                 config: PlannerConfig, speed: float):
        self.base = base
        self.config = config
        self.speed = speed
        self.grid = np.linspace(0.0, 1.0, 4 * (N_CURV_SAMPLES - 1) + 1)
        self.basis = geometry.piece_basis(base.knots, base.degree, self.grid, 2)
        self.centers, self.clearance = _static_discs(statics, config)
        self.sensed = dynamics
        self.movers = velocity_obstacle.obstacle_arrays(dynamics,
                                                        config.margin)

    def score(self, hom_rows: np.ndarray, lengths,
              density: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """[static, curvature, VO] violations (P, 3) and grid curvatures
        (P, m) of P curves on the base knot vector, from their rows
        (3P, n), with each gap between the search's curvature-grid and
        between its VO samples split into `density` (1, 2 or 4) gaps.
        `lengths()` gives their length grids (P, K + 1)
        (`geometry.edge_lengths`), called only when the VO is scored.
        Curvatures are `geometry.curvature_values` of the basis's
        derivatives, a vanishing tangent's sample included."""
        n_var = hom_rows.shape[0] // 3
        step = 4 // density
        # Curvature-grid derivatives of every row, shape (2, P, m).
        c0, c1, c2 = geometry.rational_derivatives(
            [(hom_rows @ b[::step].T).reshape(3, n_var, -1)
             for b in self.basis])
        kappa = geometry.curvature_values(c1, c2)
        # Freed before the VO builds the length grid, whose temporaries
        # would otherwise raise the peak of live arrays: every new peak
        # costs minor page faults (ROADMAP item 13).
        del c1, c2
        return _violations(
            c0, kappa, self.sensed,
            lambda: velocity_obstacle.path_depth(
                self.base.knots, self.base.degree, hom_rows, lengths(),
                self.speed, self.movers, self.config.tau,
                density * (N_VO_SAMPLES - 1) + 1),
            self.centers, self.clearance, self.config), kappa

    def evaluate(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Path lengths (P,) and [static, curvature, VO] violations (P, 3)
        of the base's variations xs (P, dim): the search's evaluator.

        The length grid is built only for rows whose lengths something
        reads. When the VO is scored it reads every row's grid, and every
        length is returned. Otherwise only the feasible rows' grid is
        built, and an infeasible row's length is NaN: Deb's rules compare
        objectives only between feasible rows."""
        knots, degree = self.base.knots, self.base.degree
        rows = geometry.apply_delta_batch(self.base, xs)
        cum = None

        def lengths() -> np.ndarray:
            nonlocal cum
            cum = geometry.edge_lengths(knots, degree, rows)
            return cum

        v = self.score(rows, lengths)[0]
        if cum is not None:
            return cum[:, -1], v
        f = np.full(len(xs), np.nan)
        feasible = ~np.any(v > 0.0, axis=1)
        if feasible.any():
            sub = rows.reshape(3, len(xs), -1)[:, feasible]
            f[feasible] = geometry.edge_lengths(
                knots, degree, sub.reshape(-1, rows.shape[1]))[:, -1]
        return f, v

    def verify(self, plan: NurbsCurve) -> tuple[bool, dict]:
        """Re-check a plan on the base knot vector at 4x density: 253
        curvature-grid and 77 VO samples, which hold the search's 64 and 20
        bit for bit. The curvature peak, `geometry.peak_curvature`, starts
        from the same grid's curvatures and zooms through the plan's own
        cached coefficients, which the tracker reads again next cycle. The
        VO reads the plan's own length grid, which the cycle's result and
        the next cycle's cut read anyway."""
        (v,), (kappa,) = self.score(plan.homogeneous.T,
                                    lambda: plan.length_grid[1][None], 4)
        if not self.config.disable_curvature:
            k_peak = geometry.peak_curvature(plan.curvatures, self.grid, kappa)[0]
            # v[1], a mean excess, is never negative.
            v[1] = max(v[1], k_peak - self.config.kappa_max - KAPPA_SLACK)
        violations = {"obstacle": float(v[0]), "curvature": float(v[1]),
                      "vo": float(v[2])}
        return bool(np.all(v <= FEAS_EPS)), violations


def _real_gain(best, length, v0: float, f0: float) -> bool:
    """Whether the search's best beats the neutral delta (violation v0,
    path length f0) by more than rounding: less total violation, or as
    little and a shorter path.

    Only that tie reads the best's length: its objective `best.f` when it
    is feasible, else `length()`, the length of the curve it builds, since
    the search's objective of an infeasible row may be NaN.

    Many variations leave the curve itself unchanged (collinear control
    points slid along their line, their weights, an inert spacing factor)
    and differ in length or violation by rounding only. Flying such a
    variation would let the control-point layout random-walk from cycle to
    cycle and bunch the movable points away from where they are needed.
    """
    if best.violation < v0 * (1.0 - GAIN_RTOL):
        return True
    if best.violation > v0 * (1.0 + GAIN_RTOL):
        return False
    f = best.f if best.violation == 0.0 else length()
    return f < f0 * (1.0 - GAIN_RTOL)


def replan_cycle(curve: NurbsCurve, uav_state: UavState, sensed, config:
                 PlannerConfig, seed: int, statics=(), warm_delta=None,
                 anchor_hint: float | None = None) -> ReplanResult | None:
    """One deliberative cycle: cut, optimize the variation, verify.

    Returns None when the path is exhausted (the caller resets the leg).
    Otherwise it chooses the plan, and sets `outcome` where it chooses:
    the cut with no movable points to search ("no-movable-points"), the
    cut that the search did not beat by more than rounding (`_real_gain`,
    "kept-cut"), or the search's best ("searched"). An infeasible plan is
    returned flagged infeasible; the tracker keeps following it and
    retries next cycle.
    """
    t0 = time.perf_counter()
    cut, _ = cut_path_at_projection(curve, uav_state, config.t_replan,
                                    hint=anchor_hint)
    if cut is None:
        return None

    remaining = cut.total_length()
    kernel = _CycleKernel(cut, statics, sensed, config, uav_state.speed)
    plan, evals, delta, outcome = cut, 0, None, "no-movable-points"
    if geometry.movable_count(cut) >= 1:
        lower, upper = delta_bounds(cut, config)
        problem = ProblemDef(dimension=lower.size, lower=lower, upper=upper,
                             batch=kernel.evaluate)
        deadline = None if config.budget_mode else 0.8 * config.t_replan
        opt_cfg = replace(config.optimizer, seed=seed, deadline=deadline)
        warm = [geometry.neutral_delta(cut)]
        if warm_delta is not None:
            warm.append(geometry.align_delta(warm_delta, cut))
        best, stats = optimize(problem, opt_cfg, warm_start=warm)
        evals, delta, outcome = stats.evaluations, warm[0], "kept-cut"
        candidate = cache(partial(geometry.apply_delta, cut, best.x))
        if _real_gain(best, lambda: candidate().total_length(),
                      stats.first_violation, remaining):
            plan, delta, outcome = candidate(), np.array(best.x), "searched"

    feasible, violations = kernel.verify(plan)
    return ReplanResult(curve=plan, feasible=feasible, f=plan.total_length(),
                        violations=violations,
                        wall_time=time.perf_counter() - t0, evals=evals,
                        delta=delta, remaining_length=remaining,
                        outcome=outcome)


def cycle_seed(seed: int, cycle: int) -> int:
    """Optimizer seed of the `cycle`-th replan of a run seeded `seed`."""
    return seed * 100003 + cycle


def steps_per_replan(t_replan: float, dt: float) -> int:
    """Simulation steps per replan: t_replan / dt, a whole number of at
    least one (to 1e-9 relative), or ValueError. Each cycle's cut advances
    speed * t_replan and its deadline is 0.8 * t_replan, so the loop must
    replan every t_replan of simulated time, not a rounded share of it."""
    ratio = t_replan / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * n:
        raise ValueError(f"must divide the replanning interval ({t_replan:g} s)"
                         f" into a whole number of steps, got {dt!r}")
    return n


def mission_loop(waypoints: list, world: World, config: PlannerConfig,
                 seed: int, uav0: UavState, dt_sim: float,
                 max_steps: int) -> SimLog:
    """Fly the waypoint sequence from uav0: track with the vector field
    every dt_sim seconds, replan every t_replan (`steps_per_replan`), stop
    on the last arrival, a collision or after max_steps simulation steps.

    One loop over simulation steps. Its state: the leg, the flown curve
    `active`, the `pending` plan, the tracker's parameter `hint` and the
    steps since the leg began. An arrival only moves on to the next leg
    and clears the flown curve. A leg starts in one place, after the step
    cap is checked, so its chord path is built and logged only when the
    flight goes on to fly it. A cycle replans the pending plan when there
    is one, else the flown curve; the pending plan is logged and flown only
    if the cycle returns a plan. A cycle that returns None (the path is consumed
    but the waypoint missed: tracking overshoot) resets the leg to a fresh
    chord from the vehicle. So every logged curve is flown. Each replan
    record carries the cycle's `ReplanResult.outcome`.
    """
    if len(waypoints) < 2:
        raise ValueError("a mission needs at least two waypoints")
    period = steps_per_replan(config.t_replan, dt_sim)
    log = SimLog()

    def record(state: UavState, u: float, s_anchor: float) -> None:
        """One trajectory row at the world's clock."""
        log.times.append(world.clock)
        log.positions.append(np.array(state.position))
        log.headings.append(state.heading)
        log.commands.append(u)
        log.anchors.append(s_anchor)
        log.clearances.append(world.min_clearance(state.position,
                                                  config.margin))

    def activate(curve: NurbsCurve) -> NurbsCurve:
        """Log the curve the tracker follows from now on."""
        log.curves.append({"t": world.clock, "leg": leg,
                           "curve": curve.to_dict()})
        return curve

    def chord() -> NurbsCurve:
        """A fresh chord path from the vehicle to the leg's waypoint: at a
        leg's start and at an overshoot reset."""
        return activate(initial_path(state, waypoints[leg], config))

    state, leg, cycle, active = uav0, 1, 0, None
    record(state, 0.0, 0.0)
    while True:
        target = waypoints[leg]
        if float(np.linalg.norm(state.position - target.position)) \
                <= config.waypoint_tolerance:
            # The paper's desired orientation, recorded but not required.
            log.waypoint_times.append({
                "waypoint": leg, "t": world.clock,
                "heading_error": wrap_angle(state.heading - target.heading)})
            if leg == len(waypoints) - 1:
                break
            leg, active = leg + 1, None
            continue
        if len(log.times) > max_steps:
            break
        if active is None:
            active, pending, hint, leg_steps = chord(), None, 0.0, 0
        if leg_steps % period == 0:
            source, source_hint = (active, hint) if pending is None \
                else (pending.curve, 0.0)
            result = replan_cycle(
                source, state, world.sense(state.position, config.r_view),
                config, seed=cycle_seed(seed, cycle),
                statics=world.visible_statics(state.position, config.r_view),
                warm_delta=None if pending is None else pending.delta,
                anchor_hint=source_hint)
            cycle += 1
            if result is None:
                active, hint = chord(), 0.0
            else:
                if pending is not None:
                    active, hint = activate(pending.curve), 0.0
                log.replans.append({
                    "t": world.clock, "leg": leg, "outcome": result.outcome,
                    "feasible": result.feasible, "f": result.f,
                    "violations": result.violations,
                    "wall_time": result.wall_time, "evals": result.evals,
                    "remaining_length": result.remaining_length,
                })
            pending = result

        direction, hint = vector_field(active, state.position,
                                       config.kappa_max, hint=hint)
        u = heading_rate_command(state, direction, config.kappa_max)
        state = step_dubins(state, u, dt_sim, config.kappa_max)
        world.step(dt_sim)
        record(state, u, hint)
        event = world.check_collision(state.position, config.margin)
        if event is not None:
            log.collisions.append(event)
            break
        leg_steps += 1

    log.success = len(log.waypoint_times) == len(waypoints) - 1
    _finalize(log)
    return log


def wall_time_summary(walls) -> dict:
    """Median, p95 and max of replan wall times; None when there are none."""
    walls = sorted(walls)
    n = len(walls)
    if not n:
        return {"median": None, "p95": None, "max": None}
    return {"median": walls[n // 2],
            "p95": walls[min(n - 1, int(math.ceil(0.95 * n)) - 1)],
            "max": walls[-1]}


def _finalize(log: SimLog) -> None:
    pos = np.array(log.positions)
    length = float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1))) \
        if len(pos) > 1 else 0.0
    finite = [c for c in log.clearances if math.isfinite(c)]
    log.metrics = {
        "success": log.success,
        "executed_path_length": length,
        "min_clearance": min(finite) if finite else None,
        "replan_wall_time": wall_time_summary(r["wall_time"]
                                              for r in log.replans),
        "replan_count": len(log.replans),
        "outcomes": {k: sum(r["outcome"] == k for r in log.replans)
                     for k in OUTCOMES},
        "total_evals": int(sum(r["evals"] for r in log.replans)),
        "collision_count": len(log.collisions),
        "sim_time": log.times[-1] - log.times[0] if log.times else 0.0,
        "arrivals": list(log.waypoint_times),
    }
