"""The flight-fingerprint tool's `--compare`: the records that differ and
the paired success summary per scenario, on small synthetic record files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "flights.py"


@pytest.fixture(scope="module")
def flights():
    spec = importlib.util.spec_from_file_location("flights", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, successes) -> str:
    path.write_text("".join(
        json.dumps({"scenario": "head_on", "seed": seed, "exit": 0 if ok else 2,
                    "success": ok, "collision": False, "step_cap": not ok,
                    "trajectory_sha256": "t", "curves_sha256": "c"}) + "\n"
        for seed, ok in enumerate(successes)))
    return str(path)


def test_compare_reports_flips_and_sign_test(flights, tmp_path, capsys):
    # Seeds 0-1 fail in A and succeed in B, seeds 2-7 the reverse, and
    # seeds 8-9 succeed in both: +2/-6, the two-sided exact sign test
    # 2 * (1 + 8 + 28) / 2**8.
    a = _write(tmp_path / "a.jsonl", [False] * 2 + [True] * 8)
    b = _write(tmp_path / "b.jsonl", [True] * 2 + [False] * 6 + [True] * 2)
    assert flights.compare(a, b) == 1
    out = capsys.readouterr().out
    assert "8 of 10 flights differ" in out
    assert ("head_on: successes 8/10 -> 4/10, flips +2/-6 of 10 paired,"
            " sign-test p = 0.289") in out
    assert flights.sign_test_p(2, 6) == pytest.approx(74 / 256)
    assert flights.sign_test_p(6, 2) == flights.sign_test_p(2, 6)


def test_compare_of_identical_files_differs_nowhere(flights, tmp_path,
                                                     capsys):
    a = _write(tmp_path / "a.jsonl", [True, False, True])
    assert flights.compare(a, a) == 0
    out = capsys.readouterr().out
    assert "0 of 3 flights differ" in out
    assert "flips +0/-0 of 3 paired, sign-test p = 1" in out
