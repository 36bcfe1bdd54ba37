"""Dubins kinematics and vector-field guidance tests."""

import math

import numpy as np
import pytest

from nurbsnav.geometry import NurbsCurve, clamped_uniform_knots
from nurbsnav.tracking import (UavState, heading_rate_command, step_dubins,
                               vector_field, wrap_angle)
from test_geometry import four_point_project, random_heading_path, wiggly


def segment(length=200.0) -> NurbsCurve:
    return NurbsCurve(degree=1,
                      control_points=np.array([[0.0, 0.0], [length, 0.0]]),
                      weights=np.ones(2),
                      knots=np.array([0.0, 0.0, 1.0, 1.0]))


def test_wrap_angle_range_and_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    for a in np.linspace(-50.0, 50.0, 1001):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w) - math.sin(a)) < 1e-12


# -- vector field ---------------------------------------------------------

def test_field_on_curve_is_unit_tangent():
    c = segment()
    direction, s_star = vector_field(c, [50.0, 0.0], 1.0)
    assert np.allclose(direction, [1.0, 0.0], rtol=0, atol=1e-12)
    assert s_star == pytest.approx(0.25, abs=1e-9)


def test_field_far_away_mostly_normal():
    c = segment()
    direction, _ = vector_field(c, [100.0, 80.0], 1.0)
    assert direction[1] < -0.9  # points down toward the segment
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)


def test_field_output_always_unit_norm():
    c = segment()
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rng.uniform([-20.0, -60.0], [220.0, 60.0])
        direction, _ = vector_field(c, p, 0.1)
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)


def reference_field(curve: NurbsCurve, p, kappa_max: float, hint=None):
    """vector_field in array operations: the reference projection, then
    the point and tangent from `derivatives`."""
    p = np.asarray(p, dtype=float)
    s_star, dist = four_point_project(curve, p, hint)
    c0, c1 = curve.derivatives(np.array([s_star]), order=1)
    toward = c0[0] - p
    t_norm = np.linalg.norm(c1[0])
    if t_norm < 1e-12:
        n = np.linalg.norm(toward)
        return (toward / n if n > 0 else np.array([1.0, 0.0])), s_star
    t_hat = c1[0] / t_norm
    normal = toward - (toward @ t_hat) * t_hat
    n_norm = np.linalg.norm(normal)
    if n_norm < 1e-12 or dist < 1e-12:
        return t_hat, s_star
    g = (2.0 / math.pi) * math.atan(kappa_max * dist)
    return g * normal / n_norm + math.sqrt(max(1.0 - g * g, 0.0)) * t_hat, s_star


def test_field_matches_array_reference():
    rng = np.random.default_rng(23)
    kappa_max = 0.3
    for c in [wiggly(), segment()] + [random_heading_path(rng) for _ in range(8)]:
        lo, hi = c.control_points.min(axis=0), c.control_points.max(axis=0)
        for _ in range(10):
            p = rng.uniform(lo - 10.0, hi + 10.0)
            hint = float(rng.uniform()) if rng.random() < 0.5 else None
            ref, s_ref = reference_field(c, p, kappa_max, hint)
            direction, s_star = vector_field(c, p, kappa_max, hint=hint)
            assert abs(s_star - s_ref) <= 1e-12
            assert np.max(np.abs(direction - ref)) <= 1e-12


def test_field_degenerate_tangent_heads_for_foot():
    # The tangent vanishes at s = 0, where both query points project.
    c = NurbsCurve(degree=3, control_points=np.array(
        [[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]),
        weights=np.ones(4), knots=clamped_uniform_knots(4, 3))
    direction, s_star = vector_field(c, [-3.0, -4.0], 1.0)
    assert s_star == 0.0
    assert np.allclose(direction, [0.6, 0.8], rtol=0, atol=1e-15)
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-15)
    direction, s_star = vector_field(c, [0.0, 0.0], 1.0)
    assert s_star == 0.0
    assert np.array_equal(direction, [1.0, 0.0])


def test_field_integration_converges_to_curve():
    c = segment()
    kappa_max = 0.5
    rng = np.random.default_rng(11)
    speed = 10.0
    dt = 1e-3
    for _ in range(20):
        p = np.array([rng.uniform(10.0, 50.0), rng.uniform(-20.0, 20.0)])
        hint = None
        dists = [abs(p[1])]
        for _ in range(4000):
            direction, hint = vector_field(c, p, kappa_max, hint=hint)
            p = p + speed * dt * direction
            dists.append(abs(p[1]))
        tail = dists[-1500:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert dists[-1] <= 1e-2


# -- heading-rate command -------------------------------------------------

def test_command_zero_when_aligned():
    state = UavState(position=np.zeros(2), heading=0.3, speed=10.0)
    d = np.array([math.cos(0.3), math.sin(0.3)])
    u = heading_rate_command(state, d, 0.05)
    assert abs(u) <= 1e-12


def test_command_clamped_at_turn_limit():
    state = UavState(position=np.zeros(2), heading=0.0, speed=10.0)
    u = heading_rate_command(state, [0.0, 1.0], 0.05)
    assert u == 10.0 * 0.05  # u_max = speed * kappa_max = 0.5 < k_h * pi/2


def test_command_sign_follows_error():
    state = UavState(position=np.zeros(2), heading=0.0, speed=10.0)
    up = heading_rate_command(state, [1.0, 0.2], 0.05)
    down = heading_rate_command(state, [1.0, -0.2], 0.05)
    assert up > 0.0 > down
    assert up == pytest.approx(-down)


# -- Dubins stepping ------------------------------------------------------

def test_step_straight():
    state = UavState(position=np.array([1.0, 2.0]), heading=0.0, speed=10.0)
    out = step_dubins(state, 0.0, 1.0, 0.05)
    assert np.allclose(out.position, [11.0, 2.0], rtol=0, atol=1e-12)
    assert out.heading == 0.0
    assert out.speed == 10.0


def test_step_full_circle_closes():
    kappa_max = 0.05
    speed = 15.0
    u = speed * kappa_max
    period = 2.0 * math.pi / u
    state = UavState(position=np.zeros(2), heading=0.4, speed=speed)
    n = 500
    for _ in range(n):
        state = step_dubins(state, u, period / n, kappa_max)
    assert np.linalg.norm(state.position) <= 1e-6
    assert wrap_angle(state.heading - 0.4) == pytest.approx(0.0, abs=1e-9)


def test_step_clamps_command_to_limit():
    state = UavState(position=np.zeros(2), heading=0.0, speed=10.0)
    big = step_dubins(state, 100.0, 0.1, 0.05)
    clamped = step_dubins(state, 10.0 * 0.05, 0.1, 0.05)
    assert np.array_equal(big.position, clamped.position)
    assert big.heading == clamped.heading


def test_heading_stays_wrapped_under_random_steps():
    rng = np.random.default_rng(2)
    state = UavState(position=np.zeros(2), heading=0.0, speed=5.0)
    for _ in range(20_000):
        state = step_dubins(state, rng.uniform(-1.0, 1.0), 0.05, 0.2)
        assert -math.pi < state.heading <= math.pi


def test_state_validation():
    with pytest.raises(ValueError):
        UavState(position=np.zeros(2), heading=0.0, speed=0.0)
    with pytest.raises(ValueError):
        step_dubins(UavState(position=np.zeros(2), heading=0.0, speed=1.0),
                    0.0, 0.0, 0.05)
