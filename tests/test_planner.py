"""Planner tests: initial paths, cycle cutting, constraint assembly,
single replan cycles, the mission loop, and scenario parsing."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from nurbsnav import geometry, lshade, planner
from nurbsnav.geometry import NurbsCurve
from nurbsnav.lshade import OptimizerConfig
from nurbsnav.planner import (PlannerConfig, Waypoint, _CycleKernel,
                              constraint_violations,
                              cut_path_at_projection, delta_bounds,
                              initial_path, mission_loop, replan_cycle)
from nurbsnav.scenario import ScenarioError, load_scenario, parse_scenario
from nurbsnav.tracking import UavState, wrap_angle
from nurbsnav.velocity_obstacle import ObstacleState
from nurbsnav.world import StaticObstacle, World


def fast_config(**overrides) -> PlannerConfig:
    defaults = dict(kappa_max=0.05, r_safe=2.0, budget_mode=True,
                    optimizer=OptimizerConfig(budget=512, n_init=40))
    defaults.update(overrides)
    return PlannerConfig(**defaults)


def straight_mission(chord=200.0):
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=0.0)
    w1 = Waypoint(position=np.array([chord, 0.0]), heading=0.0)
    return w0, w1


# -- initial path ----------------------------------------------------------

def test_initial_path_endpoints_and_headings():
    w0 = Waypoint(position=np.array([5.0, -3.0]), heading=0.9)
    w1 = Waypoint(position=np.array([120.0, 40.0]), heading=-0.4)
    curve = initial_path(w0, w1, fast_config())
    p, d, _ = curve.derivatives(np.array([0.0, 1.0]), order=2)
    assert np.allclose(p[0], w0.position, rtol=0, atol=1e-9)
    assert np.allclose(p[1], w1.position, rtol=0, atol=1e-9)
    assert math.atan2(d[0, 1], d[0, 0]) == pytest.approx(0.9, abs=1e-9)
    assert math.atan2(d[1, 1], d[1, 0]) == pytest.approx(-0.4, abs=1e-9)


def test_initial_path_straight_chord_length():
    w0, w1 = straight_mission(240.0)
    curve = initial_path(w0, w1, fast_config())
    assert curve.total_length() == pytest.approx(240.0, rel=1e-2)


def test_initial_path_rejects_coincident_waypoints():
    w = Waypoint(position=np.array([1.0, 1.0]), heading=0.0)
    with pytest.raises(ValueError):
        initial_path(w, w, fast_config())


def test_planner_config_and_waypoint_validation():
    for fields, match in [({"t_replan": 0.0}, "t_replan"),
                          ({"tau": 0.1}, "tau must exceed t_replan"),
                          ({"kappa_max": 0.0}, "kappa_max"),
                          ({"r_safe": 0.0}, "radii"),
                          ({"r_view": -1.0}, "radii"),
                          ({"r_u": -1.0}, "radii"),
                          ({"n_interior": 0}, "interior")]:
        with pytest.raises(ValueError, match=match):
            PlannerConfig(**fields)
    for position, heading in (([0.0, math.nan], 0.0), ([0.0, 0.0], math.inf)):
        with pytest.raises(ValueError, match="finite"):
            Waypoint(position=np.array(position), heading=heading)


def test_delta_bounds_layout():
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    lower, upper = delta_bounds(curve, config)
    n_mov = curve.control_points.shape[0] - 8
    assert lower.size == upper.size == 3 * n_mov + 2
    assert np.all(lower < upper)
    rho = config.rho_min
    assert lower[-1] == pytest.approx(0.05 * rho)
    assert upper[-1] == pytest.approx(2.0 * rho)


# -- cycle cutting ---------------------------------------------------------

def test_cut_removes_travelled_arc():
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=15.0)
    cut, anchor = cut_path_at_projection(curve, state, t_s=0.1)
    assert anchor == pytest.approx(0.0, abs=1e-9)
    travelled = 15.0 * 0.1
    assert cut.total_length() == pytest.approx(
        curve.total_length() - travelled, abs=1e-6)
    assert np.allclose(cut.point(0.0), [travelled, 0.0], rtol=0, atol=1e-6)
    # An advance below 1e-9 in parameter cuts nothing.
    cut, anchor = cut_path_at_projection(curve, state, t_s=1e-13)
    assert cut is curve and anchor == 0.0


def test_cut_returns_none_at_path_end():
    w0, w1 = straight_mission()
    curve = initial_path(w0, w1, fast_config())
    state = UavState(position=np.array([199.5, 0.0]), heading=0.0, speed=15.0)
    cut, _ = cut_path_at_projection(curve, state, t_s=0.1)
    assert cut is None
    # A target 1e-7 m short of the end in length, but within 1e-9 of it
    # in parameter.
    target = curve.total_length() - 1e-7
    assert 1.0 - 1e-9 <= curve.param_at_length(target) < 1.0
    state = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=15.0)
    assert cut_path_at_projection(curve, state, t_s=target / 15.0)[0] is None


# -- constraint assembly ---------------------------------------------------

def test_violations_zero_in_clear_world():
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    v = constraint_violations(curve, [], [], config, speed=15.0)
    assert np.all(np.asarray(v) == 0.0)


def test_violations_flag_static_on_path():
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    blocker = StaticObstacle(center=[100.0, 0.0], radius=4.0)
    v_obs, v_curv, v_vo = constraint_violations(curve, [blocker], [],
                                                config, speed=15.0)
    assert v_obs > 0.0
    assert v_vo == 0.0


def test_violations_flag_crossing_mover():
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    crosser = ObstacleState(position=np.array([30.0, -10.0]),
                            velocity=np.array([0.0, 5.0]), radius=3.0)
    v_obs, _, v_vo = constraint_violations(curve, [], [crosser],
                                           config, speed=15.0)
    assert v_vo > 0.0
    assert v_obs == 0.0


def test_violations_flag_excess_curvature():
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=1.2)
    w1 = Waypoint(position=np.array([100.0, 0.0]), heading=0.0)
    config = fast_config(kappa_max=0.005)  # turn radius 200 m, chord 100 m
    curve = initial_path(w0, w1, config)
    _, v_curv, _ = constraint_violations(curve, [], [], config, speed=15.0)
    assert v_curv > 0.0


def test_verification_keeps_the_search_samples(monkeypatch):
    # The 4x verifier's grid holds the search's 64 curvature-grid
    # parameters, so clearance lost at one of them, here by 1e-5 m at the
    # eleventh, is not verified away between its own samples.
    w0, w1 = straight_mission(100.0)
    config = PlannerConfig()
    curve = initial_path(w0, w1, config)
    s = np.linspace(0.0, 1.0, config.n_curv_samples)[10:11]
    c0, c1 = (d[0] for d in curve.derivatives(s, order=1))
    normal = np.array([-c1[1], c1[0]]) / np.linalg.norm(c1)
    disc = StaticObstacle(center=c0 + (2.0 + config.margin - 1e-5) * normal,
                          radius=2.0)
    v = constraint_violations(curve, [disc], [], config, speed=15.0)
    assert v[0] == pytest.approx(1e-5, rel=1e-6)
    feasible, violations = _CycleKernel(curve, [disc], [], config,
                                        15.0).verify(curve)
    assert not feasible
    assert violations["obstacle"] == pytest.approx(v[0], rel=1e-9)

    # On the kernel-test bases and each of their candidates, scored as one
    # plan is verified, every fourth sample of the 4x grid is the 1x
    # sample bit for bit, points and curvatures alike, and a candidate's
    # 1x samples are those the search scored in its batch: `_violations`
    # sees them as they are scored.
    scored = []

    def spy(points, kappa, *rest):
        scored.append((points, kappa))
        return violations_of(points, kappa, *rest)

    violations_of = planner._violations
    monkeypatch.setattr(planner, "_violations", spy)
    rng = np.random.default_rng(5)
    for base, statics, movers, config in _kernel_cases():
        lower, upper = delta_bounds(base, config)
        kernel = _CycleKernel(base, statics, movers, config, 15.0)
        xs = _kernel_candidates(base, lower, upper, rng)
        kernel.evaluate(xs)
        batch_points, batch_kappa = scored[-1]
        for p, curve in enumerate([geometry.apply_delta(base, x) for x in xs]
                                  + [base]):
            for density in (4, 1):
                kernel.score(curve.homogeneous.T, curve.length_grid[1][None],
                             lambda _: curve, density)
            (points4, kappa4), (points1, kappa1) = scored[-2:]
            assert kappa4.shape == (1, 4 * (config.n_curv_samples - 1) + 1)
            assert np.array_equal(points4[:, :, ::4], points1)
            assert np.array_equal(kappa4[:, ::4], kappa1)
            if p < len(xs):
                assert np.array_equal(points1[:, 0], batch_points[:, p])
                assert np.array_equal(kappa1[0], batch_kappa[p])


# -- batched candidate evaluation -----------------------------------------

def _kernel_cases():
    """A start-of-leg path with interior weights near both ends of the
    weight box, and a part-way cut of it, each with static discs and
    movers crossing the path ahead; then the start-of-leg path against a
    mover that overlaps its start at t = 0 and one that flies along with
    the vehicle, the time-to-collision kernel's zero and near-zero
    relative velocity branches."""
    config = fast_config(r_safe=5.0)
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=0.3)
    w1 = Waypoint(position=np.array([200.0, 20.0]), heading=-0.2)
    path = initial_path(w0, w1, config)
    weights = np.array(path.weights)
    weights[4:8] = [0.2, 9.8, 0.3, 9.7]
    start = NurbsCurve(degree=path.degree, control_points=path.control_points,
                       weights=weights, knots=path.knots)
    state = UavState(position=np.array([60.0, 12.0]), heading=0.2, speed=15.0)
    cut, _ = cut_path_at_projection(start, state, config.t_replan)
    statics = [StaticObstacle(center=[80.0, 15.0], radius=5.0),
               StaticObstacle(center=[120.0, -5.0], radius=4.0)]
    cases = []
    for base in (start, cut):
        movers = []
        for arc, t_cross, vel in ((25.0, 1.7, [1.0, 7.0]),
                                  (40.0, 2.6, [-3.0, -6.0])):
            s = base.param_at_length(arc)
            cross = base.point(s)
            movers.append(ObstacleState(position=cross - t_cross * np.array(vel),
                                        velocity=np.array(vel), radius=2.5))
        cases.append((base, statics, movers, config))
    c0, c1 = start.derivatives(np.array([0.0]), order=1)
    heading = c1[0] / np.linalg.norm(c1[0])
    movers = [ObstacleState(position=c0[0] + [1.0, 2.0], velocity=[0.0, -3.0],
                            radius=2.5),
              ObstacleState(position=c0[0] + 20.0 * heading,
                            velocity=15.0 * heading, radius=2.5)]
    cases.append((start, statics, movers, config))
    return cases


def _kernel_candidates(base, lower, upper, rng):
    xs = lower + rng.random((24, lower.size)) * (upper - lower)
    xs[0] = geometry.neutral_delta(base)
    _, shifts, spacing = geometry.split_delta(xs)
    _, low_shifts, low_spacing = geometry.split_delta(lower)
    _, high_shifts, high_spacing = geometry.split_delta(upper)
    shifts[1] = low_shifts  # weight clip at W_MIN
    shifts[2] = high_shifts  # weight clip at W_MAX
    spacing[3] = low_spacing  # spacing factors on the lam bounds
    spacing[4] = high_spacing
    spacing[5] = [low_spacing[0], high_spacing[1]]
    return xs


def test_batch_kernel_matches_scalar_path():
    cases = _kernel_cases()
    assert cases[0][0]._end_spacing[0] is not None
    assert cases[1][0]._end_spacing[0] is None  # lam1 inert after the cut
    # Each switch drops its family from the search and the per-curve
    # check alike, and both read one sampler: they agree bit for bit.
    for switch in ({}, {"disable_curvature": True}, {"disable_vo": True}):
        rng = np.random.default_rng(5)
        for base, statics, movers, config in cases:
            config = replace(config, **switch)
            lower, upper = delta_bounds(base, config)
            xs = _kernel_candidates(base, lower, upper, rng)
            kernel = _CycleKernel(base, statics, movers, config, 15.0)
            lengths, violations = kernel.evaluate(xs)
            # Every scored family is active on some candidates, and a
            # dropped one on none.
            assert np.array_equal(np.any(violations > 0.0, axis=0),
                                  [True, not config.disable_curvature,
                                   not config.disable_vo])
            for i, (x, f, v) in enumerate(zip(xs, lengths, violations)):
                curve = geometry.apply_delta(base, x)
                if base is cases[0][0] and i in (1, 2):
                    assert np.any(curve.weights
                                  == (geometry.W_MIN, geometry.W_MAX)[i - 1])
                ref = np.concatenate([[curve.total_length()],
                                      constraint_violations(curve, statics,
                                                            movers, config,
                                                            15.0)])
                got = np.concatenate([[f], v])
                assert np.array_equal(got, ref), (got, ref)


def test_length_grid_accuracy_on_search_candidates():
    # The 5-node-per-piece length grid against the adaptive quadrature on
    # every kernel-test candidate. The worst case, the start-of-leg path
    # with extreme weights and spacing factors, is off by 2.61e-4; the
    # bound sits just above it, so a rebuilt length routine cannot lose
    # accuracy unnoticed.
    rng = np.random.default_rng(5)
    errors = []
    for base, _, _, config in _kernel_cases():
        lower, upper = delta_bounds(base, config)
        for x in _kernel_candidates(base, lower, upper, rng):
            curve = geometry.apply_delta(base, x)
            ref = curve.arc_length()
            errors.append(abs(curve.total_length() - ref) / ref)
    assert len(errors) == 72
    assert max(errors) <= 2.7e-4


def test_batch_kernel_matches_scalar_path_on_short_cut():
    # The cut is shorter than speed * tau, so every candidate's VO samples
    # are spread over its own length, not over speed * tau.
    config = fast_config(r_safe=5.0)
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=0.3)
    w1 = Waypoint(position=np.array([70.0, 6.0]), heading=-0.2)
    path = initial_path(w0, w1, config)
    c0, c1 = path.derivatives(path.param_at_length(30.0), order=1)
    state = UavState(position=c0[0], heading=math.atan2(c1[0, 1], c1[0, 0]),
                     speed=15.0)
    base, _ = cut_path_at_projection(path, state, config.t_replan)
    movers = []
    for arc, t_cross, vel in ((12.0, 1.2, [1.0, 6.0]), (28.0, 2.1, [-4.0, -5.0])):
        cross = base.point(base.param_at_length(arc))
        movers.append(ObstacleState(position=cross - t_cross * np.array(vel),
                                    velocity=np.array(vel), radius=2.0))
    beside = base.point(base.param_at_length(20.0)) + [0.0, 6.0]
    statics = [StaticObstacle(center=beside, radius=2.0)]
    lower, upper = delta_bounds(base, config)
    rng = np.random.default_rng(6)
    xs = geometry.neutral_delta(base) \
        + 0.1 * (rng.random((24, lower.size)) - 0.5) * (upper - lower)
    kernel = _CycleKernel(base, statics, movers, config, 15.0)
    lengths, violations = kernel.evaluate(xs)
    assert np.all(lengths < 15.0 * config.tau)
    assert np.all(np.any(violations > 0.0, axis=0))
    for x, f, v in zip(xs, lengths, violations):
        curve = geometry.apply_delta(base, x)
        ref = np.concatenate([[curve.total_length()],
                              constraint_violations(curve, statics, movers,
                                                    config, 15.0)])
        got = np.concatenate([[f], v])
        assert np.array_equal(got, ref), (got, ref)


def test_batch_kernel_zero_tangent_takes_offset_curvature():
    # Moving the first movable point by -C'(u) / B_4'(u) stops the tangent
    # at a curvature-grid parameter u, where the kernel hands the row to
    # the curve's own symmetric-offset rule.
    config = fast_config(n_interior=2)
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=0.3)
    w1 = Waypoint(position=np.array([100.0, 10.0]), heading=-0.2)
    base = initial_path(w0, w1, config)
    u = np.linspace(0.0, 1.0, config.n_curv_samples)[22:23]
    db4 = geometry.piece_basis(base.knots, base.degree, u, 1)[1][0, 4]
    x = geometry.neutral_delta(base)
    geometry.split_delta(x)[0][0] = -base.derivatives(u, order=1)[1][0] / db4
    curve = geometry.apply_delta(base, x)
    assert np.linalg.norm(curve.derivatives(u, order=1)[1]) < geometry.EPS_TANGENT
    lengths, violations = _CycleKernel(base, [], [], config, 15.0).evaluate(x[None])
    got = np.concatenate([lengths, violations[0]])
    ref = np.concatenate([[curve.total_length()],
                          constraint_violations(curve, [], [], config, 15.0)])
    assert ref[2] > 0.0
    assert np.array_equal(got, ref), (got, ref)


def test_piece_form_cache_builds_each_knot_vector_once(monkeypatch):
    # Two snapshot-style cycles (cut, search, verify), each on a fresh
    # start-of-leg path as the benchmark builds them. A fresh path has no
    # coefficients of its own, so the second cycle reads the leg-start
    # knot vector's entry again after the first cycle's cut: the cache
    # must keep both, and builds each knot vector's entry once.
    cached = geometry._piece_form
    keys = []

    def spy(knots_bytes, degree):
        keys.append(knots_bytes)
        return cached(knots_bytes, degree)

    monkeypatch.setattr(geometry, "_piece_form", spy)
    cached.cache_clear()
    config = fast_config(optimizer=OptimizerConfig(budget=40, n_init=20))
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=0.3)
    w1 = Waypoint(position=np.array([200.0, 20.0]), heading=-0.2)
    for arc in (0.0, 60.0):
        path = initial_path(w0, w1, config)
        c0, c1 = path.derivatives(path.param_at_length(arc), order=1)
        state = UavState(position=c0[0], heading=math.atan2(c1[0, 1], c1[0, 0]),
                         speed=15.0)
        result = replan_cycle(path, state, [], config, seed=0)
        assert result.evals > 0
    assert len(set(keys)) == 3  # the leg start and two cuts
    assert cached.cache_info().misses == len(set(keys))


def test_batch_coefficients_read_the_piece_table_in_place():
    # The cached entry holds the piece table once: the batch coefficients,
    # the one source of arc-length samples for the search and its
    # verification, are the table's product with the candidates' control
    # points, every block included, so at piece parameters they give each
    # candidate curve's own C, C' and C''.
    rng = np.random.default_rng(5)
    for base, _, _, config in _kernel_cases():
        form = geometry._piece_form(base.knots.tobytes(), base.degree)
        assert form._fields == ("edges", "table", "half", "gauss_basis")
        n_piece, n_terms, n = form.table.shape
        # 19 floats per piece and control point for a cubic (9 table terms,
        # B and B' at 5 Gauss nodes); a copy of the curve and C' blocks
        # of the table made it 26.
        assert sum(a.size for a in form) == 19 * n_piece * n + 2 * n_piece + 1
        lower, upper = delta_bounds(base, config)
        xs = _kernel_candidates(base, lower, upper, rng)
        rows = geometry.apply_delta_batch(base, xs)
        coef = geometry.batch_piece_coefficients(base.knots, base.degree,
                                                 rows, n_piece)
        assert coef.shape == (3, len(xs) * n_piece, n_terms)
        # Each piece's start and midpoint.
        t = np.array([0.0, 0.5])
        s = (form.edges[:-1, None] + t * np.diff(form.edges)[:, None]).ravel()
        got = geometry.rational_derivatives(geometry.piece_derivatives(
            coef.reshape(3, len(xs), n_piece, 1, n_terms), t, base.degree, 2))
        for p, x in enumerate(xs):
            ref = geometry.apply_delta(base, x).derivatives(s, order=2)
            for g, r in zip(got, ref):
                err = np.abs(g[:, p].reshape(2, -1).T - r)
                assert np.all(err <= 1e-12 * np.abs(r).max()), err.max()


# -- single replan cycles --------------------------------------------------

def test_replan_clear_world_keeps_near_straight_path():
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=15.0)
    result = replan_cycle(curve, state, [], config, seed=0)
    assert result.feasible
    assert all(v == 0.0 for v in result.violations.values())
    assert result.f <= 1.01 * result.remaining_length
    assert result.evals > 0


def test_replan_dodges_corridor_blocker():
    # The start heading is angled away, so the current velocity is outside
    # the mover's velocity obstacle and a feasible plan exists; the plan
    # must stay clear while bending back to the goal.
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=0.4)
    w1 = Waypoint(position=np.array([200.0, 0.0]), heading=0.0)
    config = fast_config()
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([0.0, 0.0]), heading=0.4, speed=15.0)
    blocker = ObstacleState(position=np.array([55.0, 0.0]),
                            velocity=np.array([-2.0, 0.0]), radius=2.0)

    # The same mover makes a straight corridor path infeasible.
    straight = initial_path(Waypoint(w0.position, 0.0), w1, config)
    assert constraint_violations(straight, [], [blocker], config, 15.0)[2] > 0

    result = replan_cycle(curve, state, [blocker], config, seed=0)
    assert result.feasible
    assert result.violations["vo"] == 0.0
    assert result.violations["curvature"] == 0.0


def test_replan_never_worse_than_warm_start():
    # An oncoming mover already inside the start-state's velocity obstacle
    # cannot be cleared within one cycle (the first sample's velocity is
    # fixed), but selection must never return a plan worse than the
    # unmodified cut path it was seeded with.
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=15.0)
    mover = ObstacleState(position=np.array([52.0, -3.5]),
                          velocity=np.array([-2.0, 0.0]), radius=2.0)
    cut, _ = cut_path_at_projection(curve, state, config.t_replan)
    seed_violation = sum(constraint_violations(cut, [], [mover], config,
                                               15.0))
    result = replan_cycle(curve, state, [mover], config, seed=0)
    best_violation = sum(constraint_violations(result.curve, [], [mover],
                                               config, 15.0))
    assert best_violation <= seed_violation + 1e-12


def test_replan_keeps_cut_without_real_gain():
    # A straight path in an empty world is already the shortest. Variations
    # that slide its collinear points or change their weights tie it to
    # rounding; flying one would let the layout drift from cycle to cycle.
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=15.0)
    cut, _ = cut_path_at_projection(curve, state, config.t_replan)
    for seed in range(3):
        result = replan_cycle(curve, state, [], config, seed=seed)
        assert np.array_equal(result.curve.control_points, cut.control_points)
        assert np.array_equal(result.curve.weights, cut.weights)
        assert np.array_equal(result.delta, geometry.neutral_delta(cut))


def test_replan_deterministic_per_seed():
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=15.0)
    crosser = ObstacleState(position=np.array([60.0, -15.0]),
                            velocity=np.array([0.0, 5.0]), radius=2.0)
    a = replan_cycle(curve, state, [crosser], config, seed=7)
    b = replan_cycle(curve, state, [crosser], config, seed=7)
    assert np.array_equal(a.curve.control_points, b.curve.control_points)
    assert a.f == b.f
    assert a.evals == b.evals


def test_replan_returns_none_when_path_exhausted():
    w0, w1 = straight_mission()
    config = fast_config()
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([199.9, 0.0]), heading=0.0,
                     speed=15.0)
    assert replan_cycle(curve, state, [], config, seed=0) is None


def test_replan_deadline_mode_respects_cycle_time():
    w0, w1 = straight_mission()
    config = fast_config(budget_mode=False,
                         optimizer=OptimizerConfig(budget=10**9, n_init=40))
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=15.0)
    for seed in range(5):
        result = replan_cycle(curve, state, [], config, seed=seed)
        assert result.wall_time <= config.t_replan + 0.05
        assert result.evals > 0


class StalledClock:
    """Stands in for the `time` module of nurbsnav.lshade: every reading
    comes 0.2 s after the one before, so each search stalls right after it
    reads its start time, past its 80 ms deadline."""

    def __init__(self):
        self.offset = 0.0

    def perf_counter(self) -> float:
        self.offset += 0.2
        return time.perf_counter() + self.offset


def test_stalled_deadline_cycle_flies_the_cut(monkeypatch):
    # The probe chunk is still evaluated, its first row the cut; on an
    # empty straight leg nothing in it beats the cut.
    monkeypatch.setattr(lshade, "time", StalledClock())
    w0, w1 = straight_mission()
    config = fast_config(budget_mode=False)
    curve = initial_path(w0, w1, config)
    state = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=15.0)
    cut, _ = cut_path_at_projection(curve, state, config.t_replan)
    for seed in range(3):
        result = replan_cycle(curve, state, [], config, seed=seed)
        assert 1 <= result.evals <= lshade.N_MIN
        assert np.array_equal(result.curve.control_points, cut.control_points)
        assert np.array_equal(result.curve.weights, cut.weights)
        assert result.feasible


def test_stalled_deadline_mission_reaches_goal_without_leg_reset(monkeypatch):
    # Every cycle's search stalls. The vehicle still flies the probe's best
    # each cycle; no cycle is taken for an exhausted path, which would
    # reset the leg to a fresh chord and log a curve without a replan.
    monkeypatch.setattr(lshade, "time", StalledClock())
    config = fast_config(budget_mode=False)
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=0.4)
    w1 = Waypoint(position=np.array([100.0, 0.0]), heading=0.0)
    log = mission_loop([w0, w1], World(), config, seed=0,
                       uav0=UavState(w0.position, w0.heading, 15.0),
                       dt_sim=0.01, max_steps=3000)
    assert log.success
    assert not log.collisions
    assert len(log.curves) == len(log.replans)
    # Searched cycles evaluate only the probe chunk; the leg's last cycles
    # have no movable points left and search nothing.
    assert {r["evals"] for r in log.replans} == {0, lshade.N_MIN}


def test_disable_curvature_drops_the_curvature_family():
    # The geometry of test_violations_flag_excess_curvature: a 1.2 rad turn
    # over a 100 m chord at a 200 m turn radius.
    w0 = Waypoint(position=np.array([0.0, 0.0]), heading=1.2)
    w1 = Waypoint(position=np.array([100.0, 0.0]), heading=0.0)
    state = UavState(position=np.array([0.0, 0.0]), heading=1.2, speed=15.0)
    for disable, flagged in ((False, True), (True, False)):
        config = fast_config(kappa_max=0.005, disable_curvature=disable)
        curve = initial_path(w0, w1, config)
        result = replan_cycle(curve, state, [], config, seed=0)
        assert (result.violations["curvature"] > 0.0) == flagged


def test_align_delta_keeps_trailing_blocks():
    old = np.array([1.0, 2.0, 3.0, 4.0,   # two point blocks
                    0.1, 0.2,              # two weight entries
                    5.0, 6.0])             # spacing factors
    w0, w1 = straight_mission()
    one, three = (initial_path(w0, w1, fast_config(n_interior=m))
                  for m in (1, 3))
    out = geometry.align_delta(old, one)
    assert np.array_equal(out, [3.0, 4.0, 0.2, 5.0, 6.0])
    grown = geometry.align_delta(old, three)
    assert np.array_equal(grown, [0.0, 0.0, 1.0, 2.0, 3.0, 4.0,
                                  0.0, 0.1, 0.2, 5.0, 6.0])


# -- mission loop ----------------------------------------------------------

def test_mission_loop_reaches_goal():
    config = fast_config(waypoint_tolerance=3.0,
                         optimizer=OptimizerConfig(budget=96, n_init=24))
    w0, w1 = straight_mission(100.0)
    log = mission_loop([w0, w1], World(), config, seed=0,
                       uav0=UavState(w0.position, w0.heading, 15.0),
                       dt_sim=0.01, max_steps=20000)
    assert log.success
    assert not log.collisions
    final = np.asarray(log.positions[-1])
    assert np.linalg.norm(final - w1.position) <= config.waypoint_tolerance
    assert log.metrics["replan_count"] > 0
    u_max = config.kappa_max * 15.0
    assert max(abs(u) for u in log.commands) <= u_max + 1e-12


def test_arrivals_record_the_heading_error():
    # Each arrival records its signed heading error against the waypoint's
    # desired heading, read from the trajectory row at the arrival time;
    # the metrics carry the list as "arrivals".
    config = fast_config(waypoint_tolerance=3.0,
                         optimizer=OptimizerConfig(budget=96, n_init=24))
    w0, w1 = straight_mission(100.0)
    w2 = Waypoint(position=np.array([160.0, 60.0]), heading=1.2)
    log = mission_loop([w0, w1, w2], World(), config, seed=0,
                       uav0=UavState(w0.position, w0.heading, 15.0),
                       dt_sim=0.01, max_steps=20000)
    assert log.success
    assert log.metrics["arrivals"] == log.waypoint_times
    assert [a["waypoint"] for a in log.waypoint_times] == [1, 2]
    for arrival, wp in zip(log.waypoint_times, (w1, w2)):
        i = log.times.index(arrival["t"])
        assert arrival["heading_error"] == wrap_angle(log.headings[i]
                                                      - wp.heading)
    assert log.waypoint_times[1]["heading_error"] != 0.0


def _check_overshoot_resets(origin, tol: float) -> None:
    # At a 0.5 m tolerance the tracker runs off the end of the leg's path
    # without reaching the waypoint; the cycle then returns no plan, and
    # the loop starts a fresh chord path from the vehicle's state, which
    # `tol` bounds the reset path's start point and heading against.
    config = fast_config(waypoint_tolerance=0.5,
                         optimizer=OptimizerConfig(budget=48, n_init=16))
    w0 = Waypoint(position=np.array(origin), heading=0.0)
    w1 = Waypoint(position=np.array(origin) + [80.0, 20.0], heading=0.0)
    log = mission_loop([w0, w1], World(), config, seed=0,
                       uav0=UavState(w0.position, w0.heading, 15.0),
                       dt_sim=0.01, max_steps=3000)
    assert not log.collisions
    replan_times = {r["t"] for r in log.replans}
    # Every logged curve is flown, so no two share a time; a reset is one
    # logged at a cycle that left no replan record.
    curve_times = [rec["t"] for rec in log.curves]
    assert len(set(curve_times)) == len(curve_times)
    resets = [rec for rec in log.curves if rec["t"] not in replan_times]
    assert resets
    for rec in resets:
        assert rec["leg"] == 1
        i = log.times.index(rec["t"])
        c0, c1 = NurbsCurve.from_dict(rec["curve"]).derivatives(
            np.array([0.0]), order=1)
        assert np.allclose(c0[0], log.positions[i], rtol=0, atol=tol)
        heading = math.atan2(c1[0, 1], c1[0, 0])
        assert abs(wrap_angle(heading - log.headings[i])) <= tol
        # The flight goes on, and the next cycles replan the fresh path.
        assert len(log.times) > i + 1
        assert any(t > rec["t"] for t in replan_times)


def test_overshoot_reset_restarts_leg_from_vehicle():
    _check_overshoot_resets([0.0, 0.0], tol=1e-9)


def test_overshoot_reset_at_utm_scale_coordinates():
    # The same flight at a UTM easting and northing. A reset's chord is
    # tens of metres, inside a closeness tolerance scaled by 4e6 m, yet a
    # leg: every reset flies on. Coordinates of 4e6 m resolve 5e-10 m,
    # so the reset path's start point and heading are checked to 1e-6.
    _check_overshoot_resets([5e5, 4e6], tol=1e-6)


def test_mission_loop_needs_two_waypoints():
    w0, _ = straight_mission()
    with pytest.raises(ValueError):
        mission_loop([w0], World(), fast_config(), seed=0,
                     uav0=UavState(w0.position, w0.heading, 15.0),
                     dt_sim=0.01, max_steps=20000)


# -- scenario parsing ------------------------------------------------------

def minimal_scenario() -> dict:
    return {
        "uav": {"start": [0.0, 0.0], "heading": 0.0, "speed": 15.0,
                "kappa_max": 0.05, "r_safe": 2.0, "r_view": 80.0},
        "waypoints": [{"pos": [100.0, 0.0], "heading": 0.0}],
    }


def test_parse_minimal_scenario():
    scenario = parse_scenario(minimal_scenario())
    assert scenario.uav_speed == 15.0
    assert len(scenario.waypoints) == 1


def test_minimal_scenario_takes_each_default_from_its_home():
    # Only uav and waypoints: every planner setting comes from
    # PlannerConfig(), the seed, step and step cap from Scenario.
    scenario = parse_scenario(minimal_scenario())
    assert scenario.planner == replace(PlannerConfig(), kappa_max=0.05,
                                       r_safe=2.0, r_view=80.0)
    opt = scenario.planner.optimizer
    assert (opt.budget, opt.n_init) == (512, 40)
    assert scenario.seed == 0
    assert scenario.dt_sim == scenario.planner.t_replan / 10.0
    assert scenario.max_steps == 20000
    # A key the file sets replaces that field only.
    data = minimal_scenario()
    data["planner"] = {"budget": 96}
    opt = parse_scenario(data).planner.optimizer
    assert (opt.budget, opt.n_init) == (96, 40)


def test_constant_optimizer_keys_are_ignored():
    # n_min and p_best are LSHADE constants: a file that still sets them,
    # even to values once rejected, parses as one that does not.
    data = minimal_scenario()
    data["planner"] = {"n_min": 3, "p_best": 2.5}
    assert parse_scenario(data).planner == \
        parse_scenario(minimal_scenario()).planner


def test_parse_reports_missing_fields():
    data = minimal_scenario()
    del data["uav"]["start"]
    with pytest.raises(ScenarioError, match="uav"):
        parse_scenario(data)
    data = minimal_scenario()
    data["waypoints"] = []
    with pytest.raises(ScenarioError, match="waypoints"):
        parse_scenario(data)
    data = minimal_scenario()
    data["uav"]["speed"] = 0.0
    with pytest.raises(ScenarioError, match="speed"):
        parse_scenario(data)


def test_load_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"uav": }')
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(bad)
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")


def test_bundled_scenarios_parse(scenario_dir):
    for path in sorted(scenario_dir.glob("*.json")):
        scenario = load_scenario(path)
        assert len(scenario.waypoints) >= 1
        json.loads(path.read_text())  # stays plain JSON
