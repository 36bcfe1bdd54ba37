"""Command-line interface tests: modes, exit codes, and output files."""

import csv
import json
import xml.etree.ElementTree as ET

import pytest

from nurbsnav.cli import (CSV_HEADER, EXIT_BAD_INPUT, EXIT_MISSION_FAILED,
                          EXIT_OK, main)


def tiny_scenario(**extra) -> dict:
    data = {
        "uav": {"start": [0.0, 0.0], "heading": 0.0, "speed": 15.0,
                "kappa_max": 0.05, "r_safe": 2.0, "r_view": 80.0},
        "waypoints": [{"pos": [100.0, 0.0], "heading": 0.0}],
        "planner": {"budget_mode": True, "budget": 96, "n_init": 24,
                    "waypoint_tolerance": 3.0, "seed": 0},
        "sim": {"dt": 0.01, "max_steps": 2000},
    }
    data.update(extra)
    return data


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_validate_mode_writes_nothing(tmp_path, capsys):
    path = write_scenario(tmp_path, tiny_scenario())
    out = tmp_path / "out"
    code = main(["--scenario", str(path), "--mode", "validate",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "scenario ok" in capsys.readouterr().out
    assert not out.exists()


def test_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["--scenario", str(bad), "--mode", "validate"])
    assert code == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def _patched(section: str, key: str, value, index: int | None = None) -> dict:
    data = tiny_scenario()
    if index is None:
        data[section][key] = value
    else:
        data[section][index][key] = value
    return data


@pytest.mark.parametrize("data, field", [
    (_patched("planner", "budget", "x"), "planner.budget"),
    (_patched("planner", "budget", 0), "planner.budget"),
    (_patched("sim", "max_steps", -5), "sim.max_steps"),
    (tiny_scenario(static_obstacles=[{"center": [50.0, 30.0], "radius": -2.0}]),
     "static_obstacles[0].radius"),
    (tiny_scenario(dynamic_obstacles=[{"pos": [50.0, 30.0], "vel": [0.0, -1.0],
                                       "radius": 0.0}]),
     "dynamic_obstacles[0].radius"),
], ids=["budget-not-a-number", "budget-zero", "max-steps-negative",
        "static-radius-negative", "dynamic-radius-zero"])
def test_invalid_field_exit_code(tmp_path, capsys, data, field):
    path = write_scenario(tmp_path, data)
    code = main(["--scenario", str(path), "--mode", "validate"])
    assert code == EXIT_BAD_INPUT
    assert f"error: {field}" in capsys.readouterr().err


def test_mission_mode_outputs(tmp_path):
    path = write_scenario(tmp_path, tiny_scenario())
    out = tmp_path / "run"
    code = main(["--scenario", str(path), "--mode", "mission",
                 "--out", str(out)])
    assert code == EXIT_OK

    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert ",".join(rows[0]) == CSV_HEADER
    assert len(rows) > 100
    floats = [[float(v) for v in row] for row in rows[1:]]
    times = [row[0] for row in floats]
    assert times == sorted(times)

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["success"] is True
    assert metrics["collision_count"] == 0

    with open(out / "curves.jsonl") as fh:
        curves = [json.loads(line) for line in fh]
    assert curves  # at least the first leg's path was activated


def test_mission_failure_exit_code(tmp_path):
    # A stationary blocker sitting on the goal: the mission cannot finish
    # inside the small step cap and must report failure.
    data = tiny_scenario()
    data["static_obstacles"] = [{"center": [100.0, 0.0], "radius": 6.0}]
    data["sim"]["max_steps"] = 800
    path = write_scenario(tmp_path, data)
    out = tmp_path / "blocked"
    code = main(["--scenario", str(path), "--mode", "mission",
                 "--out", str(out)])
    assert code == EXIT_MISSION_FAILED
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["success"] is False


def test_bench_replan_mode(tmp_path, capsys):
    path = write_scenario(tmp_path, tiny_scenario())
    out = tmp_path / "bench"
    code = main(["--scenario", str(path), "--mode", "bench-replan",
                 "--replans", "5", "--out", str(out)])
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["replans"] == 5
    assert metrics["wall_time"]["median"] > 0.0
    assert "bench-replan" in capsys.readouterr().out
    assert not (out / "trajectory.csv").exists()


def test_repeat_runs_byte_identical(tmp_path):
    path = write_scenario(tmp_path, tiny_scenario())
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--scenario", str(path), "--out", str(out)]) == EXIT_OK
        blobs.append((out / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_plot_is_wellformed_svg(tmp_path):
    path = write_scenario(tmp_path, tiny_scenario())
    out = tmp_path / "plotted"
    code = main(["--scenario", str(path), "--out", str(out), "--plot"])
    assert code == EXIT_OK
    svg = out / "plot.svg"
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    assert float(root.get("width").rstrip("px")) > 0


def test_seed_flag_overrides_scenario_seed(tmp_path):
    # A disc next to the straight line gives the optimizer real work, so
    # the flown path depends on the optimizer seed.
    path = write_scenario(tmp_path, tiny_scenario(
        static_obstacles=[{"center": [60.0, 4.0], "radius": 3.0}]))
    out_a = tmp_path / "s0"
    out_b = tmp_path / "s1"
    assert main(["--scenario", str(path), "--out", str(out_a),
                 "--seed", "0"]) == EXIT_OK
    assert main(["--scenario", str(path), "--out", str(out_b),
                 "--seed", "1"]) == EXIT_OK
    # Different optimizer seeds change the numbers somewhere in the log.
    a = (out_a / "trajectory.csv").read_bytes()
    b = (out_b / "trajectory.csv").read_bytes()
    assert a != b


def test_disable_vo_flag_roundtrip(tmp_path):
    # With no obstacles the flag must not change the outcome.
    path = write_scenario(tmp_path, tiny_scenario())
    out = tmp_path / "novo"
    code = main(["--scenario", str(path), "--out", str(out),
                 "--disable-vo"])
    assert code == EXIT_OK
