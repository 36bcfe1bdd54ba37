"""Truncated velocity-obstacle tests against analytic and simulated oracles."""

import math

import numpy as np
import pytest

from nurbsnav.geometry import NurbsCurve
from nurbsnav.planner import N_VO_SAMPLES
from nurbsnav.velocity_obstacle import (ObstacleState, in_truncated_vo,
                                        obstacle_arrays, path_vo_violation,
                                        time_to_collision, vo_depth)


def straight_path(length: float = 100.0) -> NurbsCurve:
    return NurbsCurve(degree=1,
                      control_points=np.array([[0.0, 0.0], [length, 0.0]]),
                      weights=np.ones(2),
                      knots=np.array([0.0, 0.0, 1.0, 1.0]))


# -- time to collision ----------------------------------------------------

def test_ttc_head_on():
    assert time_to_collision([10.0, 0.0], [5.0, 0.0], 1.0) == pytest.approx(1.8)


def test_ttc_receding_is_none():
    assert time_to_collision([10.0, 0.0], [-5.0, 0.0], 1.0) is None


def test_ttc_already_overlapping_is_zero():
    assert time_to_collision([0.5, 0.0], [5.0, 0.0], 1.0) == 0.0


def test_ttc_miss_is_none():
    # Passes 3 m abeam of a combined radius 1 disc.
    assert time_to_collision([10.0, 3.0], [5.0, 0.0], 1.0) is None


def test_ttc_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        time_to_collision([1.0, 0.0], [1.0, 0.0], 0.0)


def test_ttc_touching_is_zero():
    assert time_to_collision([1.0, 0.0], [-5.0, 0.0], 1.0) == 0.0


def test_ttc_zero_relative_velocity():
    assert time_to_collision([10.0, 0.0], [0.0, 0.0], 1.0) is None
    assert time_to_collision([0.5, 0.0], [0.0, 0.0], 1.0) == 0.0


# -- membership -----------------------------------------------------------

def test_in_vo_head_on_depth():
    obs = ObstacleState(position=[10.0, 0.0], velocity=[0.0, 0.0], radius=0.5)
    check = in_truncated_vo([5.0, 0.0], [0.0, 0.0], obs, r_u=0.5, tau=2.0)
    assert check.in_vo
    assert check.time_to_collision == pytest.approx(1.8)
    assert check.depth == pytest.approx(0.1)


def test_in_vo_outside_horizon():
    obs = ObstacleState(position=[10.0, 0.0], velocity=[0.0, 0.0], radius=0.5)
    check = in_truncated_vo([5.0, 0.0], [0.0, 0.0], obs, r_u=0.5, tau=1.5)
    assert not check.in_vo
    assert check.depth == 0.0


def test_in_vo_rejects_bad_horizon():
    obs = ObstacleState(position=[10.0, 0.0], velocity=[0.0, 0.0], radius=1.0)
    with pytest.raises(ValueError):
        in_truncated_vo([1.0, 0.0], [0.0, 0.0], obs, 0.0, tau=0.0)


# -- summed depth over samples --------------------------------------------

def _vo_depth_reference(points, tangents, times, speed, obstacles, r_u, tau):
    """vo_depth as a loop: every sample against every obstacle propagated
    to the sample's time, through in_truncated_vo with horizon tau - t_j."""
    out = np.zeros(times.shape[0])
    for p, j in np.ndindex(times.shape):
        t = times[p, j]
        if tau - t <= 0.0:
            continue
        tangent = tangents[:, p, j]
        v_u = speed * tangent / np.linalg.norm(tangent)
        for o in obstacles:
            moved = ObstacleState(position=o.position + t * o.velocity,
                                  velocity=o.velocity, radius=o.radius)
            out[p] += in_truncated_vo(v_u, points[:, p, j], moved, r_u,
                                      tau - t).depth
    return out


def _assert_depths(points, tangents, times, speed, obstacles, r_u, tau):
    got = vo_depth(points, tangents, times, speed,
                   obstacle_arrays(obstacles, r_u), tau)
    ref = _vo_depth_reference(points, tangents, times, speed, obstacles,
                              r_u, tau)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (got, ref)
    return got


def test_vo_depth_matches_per_sample_reference():
    rng = np.random.default_rng(11)
    n_rows, n_samples, tau, speed = 6, 15, 3.0, 12.0
    times = np.sort(rng.uniform(0.0, tau, (n_rows, n_samples)), axis=1)
    times[:, 0] = 0.0
    times[0, -1] = tau  # a last sample with no horizon left
    heading = rng.uniform(-0.4, 0.4, (n_rows, n_samples))
    tangents = rng.uniform(0.5, 3.0, (n_rows, n_samples)) \
        * np.array([np.cos(heading), np.sin(heading)])
    points = speed * times * np.array([np.cos(heading), np.sin(heading)])
    # Movers that cross the vehicles' track at a random time, some of them
    # far enough off it to miss.
    obstacles = []
    for _ in range(5):
        t_cross = rng.uniform(0.2, tau)
        vel = rng.uniform(-8.0, 8.0, 2)
        cross = [speed * t_cross, rng.uniform(-6.0, 6.0)]
        obstacles.append(ObstacleState(position=cross - t_cross * vel,
                                       velocity=vel,
                                       radius=rng.uniform(1.0, 3.0)))
    got = _assert_depths(points, tangents, times, speed, obstacles, 2.0, tau)
    assert np.all(got > 0.0)


def test_vo_depth_edge_cases():
    # One row per case, a vehicle at the origin flying +x at 10 m/s
    # (tangent length 2, so the heading is exact) against one obstacle,
    # r_u = 1 and tau = 2. Each row holds a sample at t = 0 and one at
    # t = tau, whose horizon is 0, so only the first sample counts.
    cases = [
        (([1.5, 0.0], [-3.0, 0.0], 1.0), 1.0),  # discs already overlap
        (([20.0, 0.0], [10.0, 0.0], 1.0), 0.0),  # zero relative velocity
        (([1.0, 1.0], [10.0, 0.0], 1.0), 1.0),  # overlap, no relative motion
        (([20.0, 0.0], [14.0, 0.0], 1.0), 0.0),  # receding mover
        (([15.0, 3.0], [0.0, 0.0], 1.0), 0.0),  # grazing miss, disc < 0
        (([12.0, 0.0], [0.0, 0.0], 1.0), 0.5),  # head on, t* = 1 of 2
    ]
    times = np.tile([0.0, 2.0], (len(cases), 1))
    points = np.zeros((2, len(cases), 2))
    points[0, :, 1] = 20.0
    tangents = np.zeros((2, len(cases), 2))
    tangents[0] = 2.0
    for row, ((pos, vel, radius), expected) in enumerate(cases):
        obstacles = [ObstacleState(position=pos, velocity=vel, radius=radius)]
        got = _assert_depths(points[:, row: row + 1], tangents[:, row: row + 1],
                             times[row: row + 1], 10.0, obstacles, 1.0, 2.0)
        assert got[0] == pytest.approx(expected, abs=1e-15), (row, got)


# -- path constraint ------------------------------------------------------

def test_path_violation_empty_is_zero():
    assert path_vo_violation(straight_path(), 10.0, [], 1.0, 3.0,
                             n_samples=N_VO_SAMPLES) == 0.0


def test_path_violation_blocking_obstacle():
    obs = ObstacleState(position=[15.0, 0.0], velocity=[0.0, 0.0], radius=3.0)
    v = path_vo_violation(straight_path(), 10.0, [obs], r_u=2.0, tau=3.0,
                          n_samples=N_VO_SAMPLES)
    assert v > 0.0


def _brute_min_clearance(curve, speed, obs, r_u, tau, dt=1e-3):
    """Clearance of the constant-speed path run against the moving disc."""
    times = np.arange(0.0, tau + dt, dt)
    arcs = np.minimum(times * speed, curve.total_length())
    pts = curve.point(curve.param_at_length(arcs))
    centers = obs.position[None, :] + times[:, None] * obs.velocity[None, :]
    dists = np.linalg.norm(pts - centers, axis=1)
    return float(np.min(dists)) - (obs.radius + r_u)


def test_path_violation_agrees_with_brute_force_crossing():
    curve = straight_path(100.0)
    speed = 10.0
    blocking = ObstacleState(position=[30.0, -10.0], velocity=[0.0, 5.0],
                             radius=2.0)
    passing = ObstacleState(position=[30.0, -40.0], velocity=[0.0, 5.0],
                            radius=2.0)
    for obs in (blocking, passing):
        v = path_vo_violation(curve, speed, [obs], r_u=2.0, tau=5.0,
                              n_samples=50)
        clearance = _brute_min_clearance(curve, speed, obs, 2.0, 5.0)
        if clearance > 0.0:
            assert v == 0.0
        else:
            assert v > 0.0


def test_path_violation_last_sample_is_curve_end():
    # The path is shorter than speed * tau, so the samples run to its end:
    # the last is the end point at t = length / speed. The mover flies
    # with the vehicle 0.5 m to the side of the long leg (zero relative
    # velocity, no overlap) and sits on the end point at that time, so
    # that sample alone adds depth, exactly 1 (time to collision 0). Of
    # the 20 samples, only the last lies on the short final leg.
    curve = NurbsCurve(degree=1,
                       control_points=np.array([[0.0, 0.0], [20.0, 0.0],
                                                [20.0, 0.5]]),
                       weights=np.ones(3),
                       knots=np.array([0.0, 0.0, 0.5, 1.0, 1.0]))
    speed, tau = 10.0, 3.0
    length = curve.total_length()
    assert length < speed * tau
    vel = np.array([speed, 0.0])
    mover = ObstacleState(position=curve.point(1.0) - (length / speed) * vel,
                          velocity=vel, radius=0.1)
    v = path_vo_violation(curve, speed, [mover], r_u=0.1, tau=tau,
                          n_samples=N_VO_SAMPLES)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_path_violation_input_validation():
    with pytest.raises(ValueError):
        path_vo_violation(straight_path(), 10.0,
                          [ObstacleState([1.0, 0.0], [0.0, 0.0], 1.0)],
                          1.0, 3.0, n_samples=1)
    with pytest.raises(ValueError):
        ObstacleState(position=[0.0, 0.0], velocity=[0.0, 0.0], radius=0.0)
