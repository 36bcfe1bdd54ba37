import json

import pytest

import workloads
from nurbsnav.scenario import parse_scenario


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = [json.dumps(workloads.generate(workload, 7, i)) for i in range(6)]
    b = [json.dumps(workloads.generate(workload, 7, i)) for i in reversed(range(6))]
    assert a == b[::-1]
    other = [json.dumps(workloads.generate(workload, 8, i)) for i in range(6)]
    assert all(x != y for x, y in zip(a, other))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_scenarios_parse(workload):
    for i in range(8):
        doc = workloads.generate(workload, 3, i)
        sc = parse_scenario(json.loads(json.dumps(doc)))
        assert sc.planner.budget_mode
        assert sc.max_steps > 0


def test_snapshot_cost_mix_follows_the_index():
    counts = [len(workloads.generate("replan-movers", s, i)["dynamic_obstacles"])
              for s in (0, 1) for i in range(8)]
    assert counts[:8] == counts[8:] == [3, 3, 4, 4, 5, 5, 6, 6]
    arcs = [workloads.generate("replan-movers", 0, i)["snapshot"]["arc"]
            for i in range(4)]
    assert arcs[0] == arcs[2] == 0.0 and arcs[1] > 0.0 and arcs[3] > 0.0


def test_statics_tour_is_the_bundled_tour_without_movers():
    tour = workloads.generate("mission-statics-tour", 0, 0)
    assert tour["dynamic_obstacles"] == [] and tour["static_obstacles"]
    assert [w["pos"] for w in tour["waypoints"]] == [[150.0, 0.0], [150.0, 120.0],
                                                     [30.0, 120.0]]
