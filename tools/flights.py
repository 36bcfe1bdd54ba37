"""Fly the bundled scenarios in budget mode and fingerprint each flight.

Budget mode is deterministic, so two source trees that fly alike write
the same records. Each flight runs `python -m nurbsnav --seed s` on a
copy of the scenario with `planner.budget_mode` set, under
`PYTHONWARNINGS=error::RuntimeWarning`, and gives one JSON line: scenario,
seed, exit code, success, collision, step cap and the sha256 of
`trajectory.csv` and `curves.jsonl`.

    python tools/flights.py --out flights.jsonl            # this checkout
    python tools/flights.py --tree ../other --out other.jsonl
    python tools/flights.py --quick                         # seed 0 of each
    python tools/flights.py --compare flights.jsonl other.jsonl

`--compare` lists the flights whose records differ, or that only one file
holds, and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.exists() else None


def fly(tree: Path, scenario: str, seed: int) -> dict:
    """One budget-mode flight of `tree`'s scenario at `seed`, as a record."""
    data = json.loads((tree / "scenarios" / f"{scenario}.json").read_text())
    data.setdefault("planner", {})["budget_mode"] = True
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.json").write_text(json.dumps(data))
        code = subprocess.run(
            [sys.executable, "-m", "nurbsnav", "--scenario",
             str(tmp / "scenario.json"), "--seed", str(seed),
             "--out", str(tmp / "out")],
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


def fly_all(tree: Path, quick: bool) -> list[dict]:
    flights = [(name, seed) for name, seeds in SEEDS.items()
               for seed in (seeds[:1] if quick else seeds)]
    # Each thread waits on one flight's process.
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(lambda f: fly(tree, *f), flights))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["scenario"], r["seed"]): r for r in records}


def compare(path_a: str, path_b: str) -> int:
    """Print the flights that differ between two record files; 1 if any."""
    a, b = _load(path_a), _load(path_b)
    differ = [key for key in sorted(a.keys() | b.keys())
              if a.get(key) != b.get(key)]
    for key in differ:
        print(f"{key[0]} seed {key[1]}:")
        print(f"  {path_a}: {json.dumps(a.get(key), sort_keys=True)}")
        print(f"  {path_b}: {json.dumps(b.get(key), sort_keys=True)}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} flights differ")
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
