import math

import numpy as np

import oracle
import workloads
from nurbsnav import planner
from nurbsnav.geometry import NurbsCurve
from nurbsnav.scenario import parse_scenario


def quarter_circle(radius):
    return NurbsCurve(degree=2,
                      control_points=radius * np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                      weights=np.array([1.0, math.sqrt(0.5), 1.0]),
                      knots=np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))


def test_independent_evaluation_agrees_with_the_program():
    curve = planner.initial_path(planner.Waypoint(np.zeros(2), 0.4),
                                 planner.Waypoint(np.array([120.0, 30.0]), -0.3),
                                 planner.PlannerConfig())
    pts = oracle.dense_points(curve.to_dict(), n=257)
    assert np.allclose(pts, curve.point(np.linspace(0.0, 1.0, 257)), atol=1e-9)


def test_discrete_curvature_of_a_circle():
    pts = oracle.dense_points(quarter_circle(20.0).to_dict())
    kappa = oracle.discrete_curvature(pts)
    assert np.allclose(kappa, 1.0 / 20.0, rtol=1e-5)


def scenario_with(statics=(), movers=()):
    doc = workloads.generate("replan-movers", 0, 0)
    doc["static_obstacles"] = list(statics)
    doc["dynamic_obstacles"] = list(movers)
    return parse_scenario(doc)


def straight():
    return planner.initial_path(planner.Waypoint(np.zeros(2), 0.0),
                                planner.Waypoint(np.array([100.0, 0.0]), 0.0),
                                planner.PlannerConfig()).to_dict()


def test_clear_straight_plan_is_flyable():
    v = oracle.check_plan(straight(), 0.0, np.zeros(2), scenario_with())
    assert v["flyable"]


def test_tight_turn_is_unflyable():
    v = oracle.check_plan(quarter_circle(10.0).to_dict(), 0.0, np.zeros(2),
                          scenario_with())
    assert not v["flyable"] and v["kappa_peak"] > 0.05


def test_plan_through_a_static_disc_is_unflyable():
    disc = {"center": [90.0, 3.0], "radius": 2.0, "known": True}
    v = oracle.check_plan(straight(), 0.0, np.zeros(2), scenario_with([disc]))
    assert not v["flyable"] and v["static_penetration"] > 0.0
    hidden = dict(disc, known=False)  # beyond r_view + radius of the start
    v = oracle.check_plan(straight(), 0.0, np.zeros(2), scenario_with([hidden]))
    assert v["flyable"]


def test_mover_on_collision_course_within_tau():
    # Head-on at 10 m/s from 40 m: contact after 40 / 25 = 1.6 s < tau.
    mover = {"pos": [40.0, 0.0], "vel": [-10.0, 0.0], "radius": 2.0}
    v = oracle.check_plan(straight(), 0.0, np.zeros(2), scenario_with(movers=[mover]))
    assert not v["flyable"] and v["mover_penetration"] > 0.0
    late = dict(mover, pos=[140.0, 0.0])  # contact after 5.6 s > tau
    v = oracle.check_plan(straight(), 0.0, np.zeros(2), scenario_with(movers=[late]))
    assert v["flyable"]
