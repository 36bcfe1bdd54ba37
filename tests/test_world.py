"""World model tests: sensing, obstacle propagation, collision checking."""

import numpy as np
import pytest

from nurbsnav.world import (CollisionEvent, DynamicObstacle, StaticObstacle,
                            World)


def test_dynamic_obstacle_propagation():
    d = DynamicObstacle(position0=[0.0, 0.0], velocity=[1.0, 0.0], radius=1.0)
    assert np.allclose(d.position(0.5), [0.5, 0.0], rtol=0, atol=1e-15)


def test_obstacle_inactive_before_spawn():
    d = DynamicObstacle(position0=[5.0, 0.0], velocity=[1.0, 0.0],
                        radius=1.0, spawn_time=2.0)
    world = World(dynamics=[d])
    assert not d.active(1.0)
    assert world.sense([5.0, 0.0], r_view=100.0) == []
    assert world.check_collision([5.0, 0.0], margin=1.0) is None
    assert world.min_clearance([5.0, 0.0], 1.0) == float("inf")
    world.step(2.5)
    assert len(world.sense([5.0, 0.0], r_view=100.0)) == 1
    # Position is measured from the spawn time, not the world epoch.
    assert np.allclose(world.sense([5.0, 0.0], 100.0)[0].position,
                       [5.5, 0.0], atol=1e-12)


def test_sense_range_boundary():
    r_view = 50.0
    eps = 1e-6
    far = DynamicObstacle(position0=[r_view + eps, 0.0],
                          velocity=[2.0, -1.0], radius=1.0)
    near = DynamicObstacle(position0=[r_view - eps, 0.0],
                           velocity=[2.0, -1.0], radius=1.0)
    world = World(dynamics=[far, near])
    sensed = world.sense([0.0, 0.0], r_view)
    assert len(sensed) == 1
    assert np.allclose(sensed[0].position, [r_view - eps, 0.0])
    assert np.array_equal(sensed[0].velocity, [2.0, -1.0])


def test_sense_empty_world():
    assert World().sense([0.0, 0.0], 10.0) == []


def test_visible_statics_known_and_discovered():
    known = StaticObstacle(center=[500.0, 0.0], radius=5.0, known=True)
    hidden_far = StaticObstacle(center=[500.0, 500.0], radius=5.0, known=False)
    hidden_near = StaticObstacle(center=[30.0, 0.0], radius=5.0, known=False)
    world = World(statics=[known, hidden_far, hidden_near])
    visible = world.visible_statics([0.0, 0.0], r_view=50.0)
    assert any(s is known for s in visible)
    assert any(s is hidden_near for s in visible)
    assert not any(s is hidden_far for s in visible)


def test_collision_boundary_is_strict():
    world = World(statics=[StaticObstacle(center=[10.0, 0.0], radius=2.0)])
    # distance 5 equals radius 2 + margin 3 exactly: no collision.
    assert world.check_collision([15.0, 0.0], margin=3.0) is None
    event = world.check_collision([14.9, 0.0], margin=3.0)
    assert isinstance(event, CollisionEvent)
    assert not event.dynamic
    assert event.penetration == pytest.approx(0.1)


def test_collision_empty_world_is_none():
    assert World().check_collision([0.0, 0.0], 1.0) is None


def test_min_clearance_signed():
    world = World(statics=[StaticObstacle(center=[10.0, 0.0], radius=2.0)])
    assert world.min_clearance([0.0, 0.0], margin=3.0) == \
        pytest.approx(5.0)
    assert world.min_clearance([14.0, 0.0], margin=3.0) == \
        pytest.approx(-1.0)


def test_half_steps_compose_exactly():
    d = DynamicObstacle(position0=[0.0, 0.0], velocity=[3.0, -2.0], radius=1.0)
    w1 = World(dynamics=[d])
    w2 = World(dynamics=[d])
    w1.step(0.1)
    w2.step(0.05)
    w2.step(0.05)
    assert w1.clock == w2.clock
    assert np.array_equal(d.position(w1.clock), d.position(w2.clock))


def test_step_validation_and_radii():
    with pytest.raises(ValueError):
        World().step(0.0)
    with pytest.raises(ValueError):
        World().sense([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        StaticObstacle(center=[0.0, 0.0], radius=0.0)
    with pytest.raises(ValueError):
        DynamicObstacle(position0=[0.0, 0.0], velocity=[0.0, 0.0], radius=-1.0)


def test_collision_event_exactly_when_clearance_negative():
    # Collision checking and clearance logging read one distance pass: on
    # seeded positions near 3 statics and 2 movers, an event comes back
    # exactly when the smallest clearance is negative, and its penetration
    # is minus the clearance of the obstacle it names.
    statics = [StaticObstacle(center=c, radius=r) for c, r in
               (([0.0, 0.0], 3.0), ([12.0, 4.0], 2.0), ([5.0, -9.0], 4.0))]
    movers = [DynamicObstacle(position0=[-8.0, 6.0], velocity=[2.0, -1.0],
                              radius=1.5),
              DynamicObstacle(position0=[15.0, -4.0], velocity=[-3.0, 0.5],
                              radius=2.5, spawn_time=0.5)]
    world = World(statics=statics, dynamics=movers)
    world.step(1.0)
    centers = [s.center for s in statics] + [d.position(1.0) for d in movers]
    rng = np.random.default_rng(8)
    named = set()
    for _ in range(200):
        pos = centers[rng.integers(len(centers))] + rng.uniform(-9.0, 9.0, 2)
        event = world.check_collision(pos, margin=3.5)
        clearance = world.min_clearance(pos, margin=3.5)
        assert (event is not None) == (clearance < 0.0)
        if event is not None:
            obs = (movers if event.dynamic else statics)[event.obstacle_index]
            center = obs.position(world.clock) if event.dynamic else obs.center
            own = float(np.linalg.norm(center - pos)) - obs.radius - 3.5
            assert abs(event.penetration + own) <= 1e-12
            named.add(event.dynamic)
    assert named == {False, True}
