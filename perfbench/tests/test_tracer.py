import numpy as np
import pytest

import bench
import nurbsnav.geometry as geometry
import nurbsnav.planner as planner
import nurbsnav.world as world
import tracer
import workloads
from nurbsnav.scenario import parse_scenario


def small(doc, budget=24, n_init=8):
    doc["planner"].update(budget=budget, n_init=n_init)
    return doc, parse_scenario(doc)


def originals():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _, _ in tracer.PATCH_POINTS}


def test_patches_the_names_callers_resolve_and_restores_them():
    before = originals()
    with tracer.Tracer():
        for (owner, attr), fn in before.items():
            assert vars(owner)[attr] is not fn
            assert vars(owner)[attr].__wrapped__ is fn
        assert planner.path_vo_violation is not before[(planner, "path_vo_violation")]
        assert planner.vector_field is not before[(planner, "vector_field")]
    assert originals() == before


def test_restores_after_an_exception():
    before = originals()
    with pytest.raises(ValueError):
        with tracer.Tracer():
            geometry.NurbsCurve.split(
                planner.initial_path(planner.Waypoint(np.zeros(2), 0.0),
                                     planner.Waypoint(np.array([50.0, 0.0]), 0.0),
                                     planner.PlannerConfig()), 2.0)
    assert originals() == before


def test_snapshot_cycle_spans_nest_and_skip_the_tracker():
    doc, sc = small(workloads.generate("replan-movers", 0, 1))
    with tracer.Tracer() as t:
        result, _ = bench.snapshot_cycle(sc, doc, budget_mode=True)
    assert result.evals == 24
    stats = tracer.layer_stats(t.spans)
    assert stats[tracer.EVALUATE]["calls"] == 24
    assert stats[tracer.VO]["calls"] == 24 + 1  # one more in verification
    assert stats[tracer.CYCLE]["calls"] == 1
    assert "tracking.vector_field" not in stats
    names = [s[0] for s in t.spans]
    vo_parents = [names[s[3]] for s in t.spans if s[0] == tracer.VO]
    assert vo_parents.count(tracer.EVALUATE) == 24
    assert vo_parents.count(tracer.CYCLE) == 1  # verification of the best plan
    assert all(t0 <= t1 for _, t0, t1, _, _, _ in t.spans)
    assert {s[4] for s in t.spans if s[0] == tracer.VO} == {0}
    (cycle,) = tracer.cycle_breakdown(t.spans)
    assert 0.0 < cycle["cut_s"] and 0.0 < cycle["optimize_s"] < cycle["total_s"]


def test_statics_mission_calls_the_tracker_but_never_vo():
    doc, sc = small(workloads.generate("mission-statics-tour", 0, 0))
    with tracer.Tracer() as t:
        log = bench.fly(sc, max_steps=30)
    stats = tracer.layer_stats(t.spans)
    assert stats["tracking.vector_field"]["calls"] == len(log.times) - 1
    assert stats["world.check_collision"]["calls"] == len(log.times) - 1
    assert tracer.VO not in stats
    assert np.array_equal(bench.trajectory(log),
                          bench.trajectory(bench.fly(sc, max_steps=30)))


def test_world_methods_are_traced_on_the_class():
    with tracer.Tracer() as t:
        world.World().sense(np.zeros(2), 10.0)
    assert [s[0] for s in t.spans] == ["world.sense"]
