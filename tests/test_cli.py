"""Command-line interface tests: modes, exit codes, and output files."""

import copy
import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from nurbsnav.cli import (CSV_HEADER, EXIT_BAD_INPUT, EXIT_MISSION_FAILED,
                          EXIT_OK, main)
from nurbsnav.planner import OUTCOMES, Waypoint
from nurbsnav.plot import CANVAS_H, CANVAS_W, MARGIN, TRAIL_STEPS, emit_plot
from nurbsnav.world import DynamicObstacle, SimLog, StaticObstacle, World


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
    # Malformed JSON, bytes that are not UTF-8, nesting beyond the
    # recursion limit, an integer literal beyond the interpreter's digit
    # limit, and a root that is not an object.
    for content in [b"{not json", b"\xff\xfe{}",
                    b"[" * 100_000 + b"]" * 100_000,
                    b'{"uav": ' + b"1" * 5000 + b"}", b"[]"]:
        bad.write_bytes(content)
        code = main(["--scenario", str(bad), "--mode", "validate"])
        assert code == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--replans", "x"],
    ["--mode", "nope"],
    ["--seed", "1.5"],
    ["--mode", "bench-replan", "--replans", "0"],
    ["--mode", "bench-replan", "--replans", "-3"],
    ["--seed", "-1"],
])
def test_malformed_arguments_exit_bad_input(tmp_path, capsys, args):
    path = write_scenario(tmp_path, tiny_scenario())
    out = tmp_path / "out"
    code = main(["--scenario", str(path), "--out", str(out)] + args)
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_unusable_out_exits_bad_input(tmp_path, capsys):
    path = write_scenario(tmp_path, tiny_scenario())
    blocker = tmp_path / "file"
    blocker.write_text("")
    # An existing file, and a path below one.
    for out in (blocker, blocker / "out"):
        code = main(["--scenario", str(path), "--out", str(out)])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and err.count("\n") == 1, err


def test_unwritable_output_file_exits_bad_input(tmp_path, capsys):
    # The output directory exists, but its trajectory.csv is a directory:
    # the mission runs, then the writer fails and the run exits 3.
    path = write_scenario(tmp_path, tiny_scenario())
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    code = main(["--scenario", str(path), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trajectory.csv" in err, err
    assert err.count("\n") == 1, err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--replans" in capsys.readouterr().out


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
    (_patched("planner", "budget", 1e308), "planner.budget"),
    (_patched("sim", "max_steps", -5), "sim.max_steps"),
    (tiny_scenario(static_obstacles=[{"center": [50.0, 30.0], "radius": -2.0}]),
     "static_obstacles[0].radius"),
    (tiny_scenario(dynamic_obstacles=[{"pos": [50.0, 30.0], "vel": [0.0, -1.0],
                                       "radius": 0.0}]),
     "dynamic_obstacles[0].radius"),
    (tiny_scenario(waypoints=[{"pos": [100.0, 0.0], "heading": 0.0},
                              {"pos": [100.0, 0.0], "heading": 1.0}]),
     "waypoints[1].pos"),
    (tiny_scenario(waypoints=[{"pos": [0.0, 0.0], "heading": 0.0}]),
     "waypoints[0].pos"),
    (tiny_scenario(waypoints=[5]), "waypoints[0]"),
    (tiny_scenario(static_obstacles=3), "static_obstacles"),
    (tiny_scenario(sim=[1]), "sim"),
    (_patched("planner", "budget_mode", "false"), "planner.budget_mode"),
    (tiny_scenario(static_obstacles=[{"center": [50.0, 30.0], "radius": 2.0,
                                      "known": "no"}]),
     "static_obstacles[0].known"),
    (_patched("planner", "waypoint_tolerance", -1.0),
     "planner.waypoint_tolerance"),
    (_patched("planner", "waypoint_tolerance", 0.0),
     "planner.waypoint_tolerance"),
    (_patched("uav", "kappa_max", 0.0), "uav.kappa_max"),
    (_patched("uav", "r_safe", 0.0), "uav.r_safe"),
    (_patched("uav", "r_view", -80.0), "uav.r_view"),
    (_patched("uav", "r_u", -1.0), "uav.r_u"),
    (_patched("uav", "speed", 10**400), "uav.speed"),
    (_patched("planner", "n_interior", 10**400), "planner.n_interior"),
    (_patched("planner", "n_interior", 1e300), "planner.n_interior"),
    (_patched("planner", "n_interior", 101), "planner.n_interior"),
    (_patched("planner", "n_init", 1e300), "planner.n_init"),
    (_patched("planner", "n_init", 1001), "planner.n_init"),
    (_patched("planner", "T_s", 0), "planner.T_s"),
    (_patched("planner", "T_s", -1), "planner.T_s"),
    # Valid alone, but not above the default T_s of 0.1 s.
    (_patched("planner", "tau", 0.05),
     "planner.tau: must exceed planner.T_s (0.1 s), got 0.05"),
    # Valid alone, but not below the default tau of 3 s.
    (_patched("planner", "T_s", 5),
     "planner.tau: must exceed planner.T_s (5 s), got 3"),
    # A replan period of T_s / dt steps, infinite or beyond the step cap.
    (_patched("sim", "dt", 5e-324), "sim.dt"),
    (_patched("sim", "dt", 1e-300), "sim.dt"),
    # T_s / dt not a whole number of steps: 3.33 and 0.05.
    (_patched("sim", "dt", 0.03), "sim.dt"),
    (_patched("sim", "dt", 2.0), "sim.dt"),
], ids=["budget-not-a-number", "budget-zero", "budget-huge",
         "max-steps-negative",
        "static-radius-negative", "dynamic-radius-zero",
        "waypoint-repeats-previous", "waypoint-equals-start",
        "waypoint-not-an-object", "statics-not-a-list", "sim-not-an-object",
        "budget-mode-string", "known-string", "tolerance-negative",
        "tolerance-zero", "kappa-max-zero", "r-safe-zero",
        "r-view-negative", "r-u-negative", "speed-beyond-float-range",
        "n-interior-beyond-float-range", "n-interior-huge",
        "n-interior-above-bound", "n-init-huge", "n-init-above-bound",
        "t-s-zero", "t-s-negative", "tau-not-above-t-s",
        "t-s-not-below-tau", "dt-subnormal", "dt-tiny",
        "dt-not-dividing-t-s", "dt-above-t-s"])
def test_invalid_field_exit_code(tmp_path, capsys, data, field):
    path = write_scenario(tmp_path, data)
    code = main(["--scenario", str(path), "--mode", "validate"])
    assert code == EXIT_BAD_INPUT
    assert f"error: {field}" in capsys.readouterr().err


def test_leg_rule_holds_at_utm_scale_coordinates(tmp_path, capsys):
    # A 30.3 m leg at a UTM northing validates: no tolerance scales with
    # the coordinates (1e-5 of 4e6 m would be 40 m). A waypoint on the
    # start or on the previous waypoint still makes no leg.
    start, goal = [500000.0, 4000000.0], [500004.0, 4000030.0]
    uav = {**tiny_scenario()["uav"], "start": start}

    def validate(*positions) -> int:
        path = write_scenario(tmp_path, tiny_scenario(
            uav=uav, waypoints=[{"pos": p, "heading": 0.0} for p in positions]))
        return main(["--scenario", str(path), "--mode", "validate"])

    assert validate(goal) == EXIT_OK
    assert validate(start) == EXIT_BAD_INPUT
    assert "error: waypoints[0].pos: must differ from the uav.start" \
        in capsys.readouterr().err
    assert validate(goal, goal) == EXIT_BAD_INPUT
    assert "error: waypoints[1].pos: must differ from the previous waypoint" \
        in capsys.readouterr().err


def _with_obstacles() -> dict:
    return tiny_scenario(
        static_obstacles=[{"center": [50.0, 30.0], "radius": 2.0}],
        dynamic_obstacles=[{"pos": [60.0, 40.0], "vel": [0.0, -1.0],
                            "radius": 1.5, "spawn_time": 0.5}])


# One out-of-bound value per bounded field: lengths, times, speeds and
# angles beyond 1e9 in magnitude, and a turning radius 1 / kappa_max beyond
# 1e9 m. The kappa_max, speed and dt values overflowed mid-mission before
# they were bounded.
BOUNDED_FIELDS = [
    ("uav", "start", [1e10, 0.0], "uav.start"),
    ("uav", "heading", -1e10, "uav.heading"),
    ("uav", "speed", 1e200, "uav.speed"),
    ("uav", "kappa_max", 1e-200, "uav.kappa_max"),
    ("uav", "r_safe", 1e10, "uav.r_safe"),
    ("uav", "r_view", 1e10, "uav.r_view"),
    ("uav", "r_u", 1e10, "uav.r_u"),
    ("waypoints", "pos", [1e10, 0.0], "waypoints[0].pos"),
    ("waypoints", "heading", 1e10, "waypoints[0].heading"),
    ("static_obstacles", "center", [0.0, -1e10], "static_obstacles[0].center"),
    ("static_obstacles", "radius", 1e10, "static_obstacles[0].radius"),
    ("dynamic_obstacles", "pos", [-1e10, 0.0], "dynamic_obstacles[0].pos"),
    ("dynamic_obstacles", "vel", [0.0, 1e200], "dynamic_obstacles[0].vel"),
    ("dynamic_obstacles", "radius", 1e10, "dynamic_obstacles[0].radius"),
    ("dynamic_obstacles", "spawn_time", -1e10,
     "dynamic_obstacles[0].spawn_time"),
    ("planner", "T_s", 1e10, "planner.T_s"),
    ("planner", "tau", 1e10, "planner.tau"),
    ("planner", "waypoint_tolerance", 1e10, "planner.waypoint_tolerance"),
    ("sim", "dt", 1e200, "sim.dt"),
]


@pytest.mark.parametrize("mode", ["validate", "mission"])
@pytest.mark.parametrize("section, key, value, field", BOUNDED_FIELDS,
                         ids=[f for *_, f in BOUNDED_FIELDS])
def test_extreme_values_exit_bad_input(tmp_path, capsys, mode, section, key,
                                       value, field):
    data = _with_obstacles()
    node = data[section]
    (node[0] if isinstance(node, list) else node)[key] = value
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    # A RuntimeWarning raised on the way fails the test: the suite turns
    # them into errors.
    code = main(["--scenario", str(path), "--mode", mode, "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_subnormal_sim_dt_exits_bad_input_in_mission_mode(tmp_path, capsys):
    # T_s / dt overflows to inf, which the mission loop once rounded to
    # its replan period: an OverflowError traceback and exit 1.
    path = write_scenario(tmp_path, _patched("sim", "dt", 5e-324))
    out = tmp_path / "out"
    code = main(["--scenario", str(path), "--mode", "mission",
                 "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: sim.dt: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_sim_dt_not_dividing_t_s_exits_bad_input_in_every_mode(tmp_path,
                                                                capsys):
    path = write_scenario(tmp_path, _patched("sim", "dt", 0.03))
    for mode in ("validate", "mission"):
        out = tmp_path / mode
        code = main(["--scenario", str(path), "--mode", mode,
                     "--out", str(out)])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: sim.dt: ") and err.count("\n") == 1, err
        assert not out.exists()


def test_values_at_their_bounds_fly_finite(tmp_path, capsys):
    # The largest step that divides a replanning interval: T_s = dt, with
    # tau, which must exceed T_s, at its bound.
    data = tiny_scenario()
    data["uav"].update(kappa_max=1e-9, speed=1e9)
    data["planner"].update(T_s=5e8, tau=1e9)
    data["sim"].update(dt=5e8, max_steps=20)
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    code = main(["--scenario", str(path), "--mode", "validate"])
    assert code == EXIT_OK
    code = main(["--scenario", str(path), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_MISSION_FAILED)
    metrics = json.loads((out / "metrics.json").read_text(),
                         parse_constant=lambda name: pytest.fail(name))
    assert np.isfinite(metrics["executed_path_length"])
    capsys.readouterr()


# Replacement values for the mutation test: wrong types, out-of-range and
# non-finite numbers, strings that look like booleans, malformed containers.
JUNK = [None, True, False, 0, -1, 2.5, 1e9, float("nan"), float("inf"), "x",
        "false", [], [5], [1.0, 2.0], [0.0, 0.0], {}, {"pos": 1}]


def _mutate(data, rng) -> None:
    """Replace, or drop from an object, one field chosen at any depth."""
    slots = []

    def walk(node):
        for key, value in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(data)
    node, key = slots[rng.integers(len(slots))]
    if isinstance(node, dict) and rng.random() < 0.2:
        del node[key]
    else:
        node[key] = copy.deepcopy(JUNK[rng.integers(len(JUNK))])


def test_mutated_scenarios_validate_or_exit_bad_input(tmp_path, capsys):
    base = tiny_scenario(
        waypoints=[{"pos": [100.0, 0.0], "heading": 0.0},
                   {"pos": [100.0, 80.0], "heading": 1.5}],
        static_obstacles=[{"center": [50.0, 30.0], "radius": 2.0,
                           "known": False}],
        dynamic_obstacles=[{"pos": [60.0, 40.0], "vel": [0.0, -1.0],
                            "radius": 1.5, "spawn_time": 0.5}])
    base["uav"]["r_u"] = 0.5
    rng = np.random.default_rng(20240)
    for trial in range(300):
        data = copy.deepcopy(base)
        for _ in range(rng.integers(1, 4)):
            _mutate(data, rng)
        path = write_scenario(tmp_path, data)
        try:
            code = main(["--scenario", str(path), "--mode", "validate"])
        except Exception as exc:  # report the input that escaped validation
            pytest.fail(f"trial {trial}: {exc!r} on {json.dumps(data)}")
        assert code in (EXIT_OK, EXIT_BAD_INPUT), json.dumps(data)
    capsys.readouterr()


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
    # Every cycle that returned a plan is counted under its outcome.
    assert set(metrics["outcomes"]) == set(OUTCOMES)
    assert sum(metrics["outcomes"].values()) == metrics["replan_count"] > 0
    # The arrival's heading error is that of the trajectory row at its time.
    (arrival,) = metrics["arrivals"]
    assert arrival["waypoint"] == 1
    (row,) = [r for r in floats if r[0] == float(f"{arrival['t']:.9g}")]
    assert arrival["heading_error"] == pytest.approx(row[3], rel=0, abs=1e-8)

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


def test_bench_replan_without_plans_reports_na(tmp_path, capsys):
    # At 2000 m/s every cut lands past the end of a 1 m leg, so no cycle
    # returns a plan: the wall times are null and the summary says n/a.
    data = tiny_scenario(waypoints=[{"pos": [1.0, 0.0], "heading": 0.0}])
    data["uav"]["speed"] = 2000.0
    path = write_scenario(tmp_path, data)
    out = tmp_path / "bench"
    code = main(["--scenario", str(path), "--mode", "bench-replan",
                 "--replans", "3", "--out", str(out)])
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["replans"] == 0
    assert metrics["wall_time"] == {"median": None, "p95": None, "max": None}
    assert "0 cycles, median n/a, p95 n/a" in capsys.readouterr().out


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
    # A log with no positions has nothing to frame: an error, no file.
    empty = tmp_path / "empty.svg"
    with pytest.raises(ValueError, match="cannot plot an empty log"):
        emit_plot(SimLog(), World(), [], empty)
    assert not empty.exists()


def test_plot_leaves_out_movers_that_spawn_after_the_log(tmp_path):
    # In a 1 s log a mover spawning at 50 s is never seen: the plot draws
    # the waypoints and the live mover's trail, and its canvas ignores the
    # late mover's far-off spawn point.
    log = SimLog(times=[0.0, 0.5, 1.0],
                 positions=[np.array([0.0, 0.0]), np.array([7.5, 0.0]),
                            np.array([15.0, 0.0])])
    # A static disc is drawn too, as one circle scaled with the frame.
    world = World(
        statics=[StaticObstacle(center=[8.0, 6.0], radius=2.0)],
        dynamics=[DynamicObstacle(position0=[10.0, -5.0], velocity=[0.0, 2.0],
                                  radius=1.0),
                  DynamicObstacle(position0=[5000.0, 5000.0],
                                  velocity=[1.0, 0.0], radius=1.0,
                                  spawn_time=50.0)])
    waypoints = [Waypoint(position=np.array([0.0, 0.0]), heading=0.0),
                 Waypoint(position=np.array([15.0, 0.0]), heading=0.0)]
    svg = tmp_path / "plot.svg"
    emit_plot(log, world, waypoints, svg)
    circles = list(ET.parse(svg).getroot().iter(
        "{http://www.w3.org/2000/svg}circle"))
    assert len(circles) == 1 + len(waypoints) + TRAIL_STEPS
    for c in circles:
        assert 0.0 <= float(c.get("cx")) <= CANVAS_W
        assert 0.0 <= float(c.get("cy")) <= CANVAS_H
    # The drawn points span x 0..15 m (path) and y -5 m (mover's spawn)
    # to 8 m (the disc's top), so the frame's scale is the smaller of
    # the two axes' pixels per metre.
    scale = min((CANVAS_W - 2 * MARGIN) / 15.0, (CANVAS_H - 2 * MARGIN) / 13.0)
    disc = [c for c in circles if c.get("fill") == "#b0b0b0"]
    assert len(disc) == 1
    cx, cy, r = (float(disc[0].get(k)) for k in ("cx", "cy", "r"))
    assert r == pytest.approx(2.0 * scale, abs=1e-3)
    assert r <= cx <= CANVAS_W - r and r <= cy <= CANVAS_H - r


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


def test_unread_planner_keys_are_ignored(tmp_path):
    # LSHADE's p-best share and the planner's sampling densities are
    # constants; a scenario that still sets them, even to a share above 1
    # or to coarser grids, flies as one that does not. A disc next to the
    # line and a crossing mover make both grids matter to the search.
    plain = tiny_scenario(
        static_obstacles=[{"center": [60.0, 4.0], "radius": 3.0}],
        dynamic_obstacles=[{"pos": [70.0, -40.0], "vel": [0.0, 8.0],
                            "radius": 2.0}])
    odd = copy.deepcopy(plain)
    odd["planner"].update(p_best=2.5, n_curv_samples=7, n_vo_samples=3)
    blobs = []
    for name, data in (("odd", odd), ("plain", plain)):
        path = write_scenario(tmp_path, data, name=f"{name}.json")
        out = tmp_path / name
        assert main(["--scenario", str(path), "--out", str(out)]) == EXIT_OK
        blobs.append((out / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_disable_vo_flag_roundtrip(tmp_path):
    # With no obstacles the flag must not change the outcome.
    path = write_scenario(tmp_path, tiny_scenario())
    out = tmp_path / "novo"
    code = main(["--scenario", str(path), "--out", str(out),
                 "--disable-vo"])
    assert code == EXIT_OK
