"""Seeded mutation fuzz of the command line's input boundary.

Each mutant of a scenario file deletes one key, or sets one number to a
value from a fixed table of edge values. Every mutant goes through
`cli.main` in validate mode, and a seeded sample of the mutants that
validate flies a mission capped at MISSION_STEPS steps. A run passes when
it exits 0, 2 or 3, an exit 3 prints exactly one `error:` line, and no
warning escapes.
"""

import copy
import json
import warnings

import numpy as np
import pytest

from nurbsnav import scenario as scenario_mod
from nurbsnav.cli import EXIT_BAD_INPUT, EXIT_MISSION_FAILED, EXIT_OK, main

from conftest import SCENARIO_DIR
from test_cli import _with_obstacles

EDGE_VALUES = [0, -1, 5e-324, 1e-300, 1e308, float("nan"), True, "x", [], {}]
MISSION_STEPS = 30
MISSIONS_PER_BASE = 4
DELETE = object()

BASES = ["tiny", "empty_world", "three_waypoints", "bench", "head_on"]


def _base(name: str) -> dict:
    if name == "tiny":
        return _with_obstacles()
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def _mutants(data: dict) -> list:
    """(description, mutant) for every key deleted and every number set to
    every edge value, in document order."""
    edits = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            where = path + [key]
            if isinstance(node, dict):
                edits.append((where, DELETE))
            if isinstance(value, (dict, list)):
                walk(value, where)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                edits.extend((where, edge) for edge in EDGE_VALUES)

    walk(data, [])
    mutants = []
    for where, edge in edits:
        mutant = copy.deepcopy(data)
        node = mutant
        for key in where[:-1]:
            node = node[key]
        if edge is DELETE:
            del node[where[-1]]
            mutants.append((f"delete {where}", mutant))
        else:
            node[where[-1]] = copy.deepcopy(edge)
            mutants.append((f"{where} = {edge!r}", mutant))
    return mutants


def _run(tmp_path, capsys, text, mutant, mode) -> int:
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(mutant))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--scenario", str(path), "--mode", mode,
                         "--out", str(tmp_path / "out")])
    except Exception as exc:  # report the mutant that escaped
        pytest.fail(f"{mode}, {text}: {exc!r}")
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_MISSION_FAILED, EXIT_BAD_INPUT), (mode, text)
    if code == EXIT_BAD_INPUT:
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
    return code


@pytest.mark.parametrize("name", BASES)
def test_mutated_scenarios_exit_cleanly(tmp_path, capsys, monkeypatch, name):
    mutants = _mutants(_base(name))
    valid = [i for i, (text, mutant) in enumerate(mutants)
             if _run(tmp_path, capsys, text, mutant, "validate") == EXIT_OK]
    assert 0 < len(valid) < len(mutants)

    fly = scenario_mod.mission_loop

    def capped(*args, max_steps, **kwargs):
        return fly(*args, max_steps=min(max_steps, MISSION_STEPS), **kwargs)

    monkeypatch.setattr(scenario_mod, "mission_loop", capped)
    rng = np.random.default_rng(BASES.index(name))
    for i in rng.choice(valid, min(MISSIONS_PER_BASE, len(valid)),
                        replace=False):
        _run(tmp_path, capsys, *mutants[i], "mission")
