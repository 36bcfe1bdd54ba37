"""Fly the bundled scenarios and the generated static-disc tours in budget
mode and fingerprint each flight.

Budget mode is deterministic, so two source trees that fly alike write
the same records. Each bundled flight runs `python -m nurbsnav --seed s`
on a copy of the scenario with `planner.budget_mode` set. The tours are
the benchmark's `statics_tour(1, i)` for i = 0-19, read from this
checkout's `perfbench/workloads.py` whatever tree is flown, so two trees
fly the same documents; each is flown as generated (budget mode, its own
`planner.seed`, no `--seed`) and recorded as scenario `statics_tour`,
seed i. Every flight runs under `PYTHONWARNINGS=error::RuntimeWarning`
and gives one JSON line: scenario, seed, exit code, success, collision,
step cap and the sha256 of `trajectory.csv` and `curves.jsonl`.

    python tools/flights.py --out flights.jsonl            # this checkout
    python tools/flights.py --tree ../other --out other.jsonl
    python tools/flights.py --quick                         # seed 0, tour 0
    python tools/flights.py --compare flights.jsonl other.jsonl

`--compare` lists the flights whose records differ, or that only one file
holds, then prints per scenario the successes in each file and, over the
flights both hold, the success flips each way with a two-sided exact sign
test. It exits 1 if any flight differs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
JOBS = 2  # flights run at once
# Scenario file stem -> seeds flown.
SEEDS = {"empty_world": range(10), "three_waypoints": range(10),
         "bench": range(10), "head_on": range(40)}
# Indices of the generated tours flown, statics_tour(TOUR_SEED, i).
TOURS = range(20)
TOUR_SEED = 1


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.exists() else None


def fly(tree: Path, scenario: str, seed: int, data: dict,
        seed_flag: bool) -> dict:
    """One flight of the scenario document `data` with `tree`'s package, as
    the record of (scenario, seed); `--seed seed` is passed if `seed_flag`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.json").write_text(json.dumps(data))
        code = subprocess.run(
            [sys.executable, "-m", "nurbsnav", "--scenario",
             str(tmp / "scenario.json"), "--out", str(tmp / "out")]
            + (["--seed", str(seed)] if seed_flag else []),
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
        metrics = tmp / "out" / "metrics.json"
        record = {"scenario": scenario, "seed": seed, "exit": code,
                  "success": None, "collision": None, "step_cap": None,
                  "trajectory_sha256": _sha256(tmp / "out" / "trajectory.csv"),
                  "curves_sha256": _sha256(tmp / "out" / "curves.jsonl")}
        if metrics.exists():
            m = json.loads(metrics.read_text())
            collision = m["collision_count"] > 0
            # A mission ends in arrival, a collision or the step cap.
            record.update(success=m["success"], collision=collision,
                          step_cap=not (m["success"] or collision))
    return record


def _tours(indices) -> list[dict]:
    """The generated tours, from this checkout's benchmark generator."""
    spec = importlib.util.spec_from_file_location(
        "workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.statics_tour(TOUR_SEED, i) for i in indices]


def fly_all(tree: Path, quick: bool) -> list[dict]:
    flights = []
    for name, seeds in SEEDS.items():
        data = json.loads((tree / "scenarios" / f"{name}.json").read_text())
        data.setdefault("planner", {})["budget_mode"] = True
        flights += [(name, seed, data, True)
                    for seed in (seeds[:1] if quick else seeds)]
    tours = TOURS[:1] if quick else TOURS
    flights += [("statics_tour", i, data, False)
                for i, data in zip(tours, _tours(tours))]
    # Each thread waits on one flight's process.
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(lambda f: fly(tree, *f), flights))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["scenario"], r["seed"]): r for r in records}


def sign_test_p(gains: int, losses: int) -> float:
    """Two-sided exact sign test of `gains` flips one way against `losses`
    the other: min(1, 2 * P(X <= min(gains, losses))), X ~ Bin(n, 1/2)
    with n the flips; 1 when there are none."""
    n = gains + losses
    tail = sum(math.comb(n, i) for i in range(min(gains, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def compare(path_a: str, path_b: str) -> int:
    """Print the flights that differ between two record files and a paired
    success summary per scenario; 1 if any flight differs."""
    a, b = _load(path_a), _load(path_b)
    differ = [key for key in sorted(a.keys() | b.keys())
              if a.get(key) != b.get(key)]
    for key in differ:
        print(f"{key[0]} seed {key[1]}:")
        print(f"  {path_a}: {json.dumps(a.get(key), sort_keys=True)}")
        print(f"  {path_b}: {json.dumps(b.get(key), sort_keys=True)}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} flights differ")
    # Per scenario: successes in each file, and over the flights both
    # files hold, flips to success in B (+) and to failure in B (-). A
    # flight that crashed has success None and counts as a failure.

    def successes(records: dict, scenario: str) -> str:
        runs = [r for k, r in records.items() if k[0] == scenario]
        return f"{sum(r['success'] is True for r in runs)}/{len(runs)}"

    for scenario in sorted({key[0] for key in a.keys() | b.keys()}):
        pairs = [(a[k]["success"] is True, b[k]["success"] is True)
                 for k in a.keys() & b.keys() if k[0] == scenario]
        gains = sum(not sa and sb for sa, sb in pairs)
        losses = sum(sa and not sb for sa, sb in pairs)
        print(f"{scenario}: successes {successes(a, scenario)} ->"
              f" {successes(b, scenario)}, flips +{gains}/-{losses} of"
              f" {len(pairs)} paired, sign-test p ="
              f" {sign_test_p(gains, losses):.3g}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=REPO,
                        help="checkout whose src/ and scenarios/ are flown")
    parser.add_argument("--out", help="record file (default: stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="fly seed 0 of each scenario only")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two record files instead of flying")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    lines = "".join(json.dumps(r, sort_keys=True) + "\n"
                    for r in fly_all(args.tree.resolve(), args.quick))
    if args.out:
        Path(args.out).write_text(lines)
    else:
        sys.stdout.write(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
