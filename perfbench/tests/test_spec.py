import json
import os
import re
import shutil
import subprocess
import sys

import bench
import run
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_metric_names_and_units_follow_the_grammar():
    names = [m[0] for m in bench.END_TO_END + bench.REPORTED]
    names += [m[0] for m in bench.per_layer_spec()]
    assert len(names) == len(set(names))
    for name, unit, better in (list(bench.END_TO_END) + list(bench.REPORTED)
                               + bench.per_layer_spec()):
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_matches_what_the_runner_prints():
    data = spec()
    assert [(m["name"], m["unit"], m["better"]) for m in data["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in data["per_layer"]] \
        == bench.per_layer_spec()
    assert {w["name"] for w in data["workloads"]} <= set(bench.workloads.WORKLOADS)
    assert {"replan-movers", "mission-statics-tour"} <= {w["name"] for w in data["workloads"]}
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_command_line_offers_every_workload():
    assert run.WORKLOADS == bench.workloads.WORKLOADS


def test_pin_threads_sets_every_pool_to_one():
    env = {"OMP_NUM_THREADS": "8"}
    run.pin_threads(env)
    assert all(env[name] == "1" for name in run.THREAD_VARS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replan-movers",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
