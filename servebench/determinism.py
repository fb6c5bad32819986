"""Check that one seed's deterministic outputs repeat under two hash seeds.

Usage, from the root of a checkout::

    python3 servebench/determinism.py --workload cold-compile --seed 1

Runs the traced benchmark twice on the same workload and seed, once per
``PYTHONHASHSEED`` (0, then 1), and compares the
outputs that must not depend on timing or hashing: both quality ratios
with every program's served dynamic cost and optimised size, the
``served_by`` mix, and every per-layer count (calls and counts of every
span name except GC pauses).  Printed IR is never compared: temp
version numbers may differ between hash seeds while keys, costs and
steps match.  Exits 0 when everything matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: The two ``PYTHONHASHSEED`` values compared.
HASHSEEDS = (0, 1)

#: Span names whose counts depend on timing, not on the input.
TIMING_DEPENDENT = {"runtime.gc"}


def deterministic(report: dict) -> dict:
    layers = {
        phase: {
            name: (row["calls"], row["count"])
            for name, row in sorted(table.items())
            if name not in TIMING_DEPENDENT
        }
        for phase, table in report["layers"].items()
    }
    counts = {
        name: value
        for name, value in report["per_layer"].items()
        if not name.endswith("ms") and name not in ("trace.coverage",
                                                     "trace.overhead_pct")
    }
    quality = report["quality"]
    return {
        "failed": report["failed"],
        "dyn_cost_ratio": quality["dyn_cost_ratio"],
        "static_size_ratio": quality["static_size_ratio"],
        "programs": quality["programs"],
        "served_by": report["served_by"],
        "counts": counts,
        "layers": layers,
    }


def run_once(workload: str, seed: int, hashseed: int) -> dict:
    """One traced run; returns the report it left at run.py's default path."""
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1",
         "--hashseed", str(hashseed)],
        capture_output=True,
        text=True,
        timeout=200,
    )
    if run.returncode:
        sys.exit(f"run failed under hash seed {hashseed}:\n{run.stderr}")
    return json.loads(
        (RESULTS / f"{workload}-seed{seed}-trace1.json").read_text()
    )


def diff(a, b, path: str = "") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            out += diff(a.get(key), b.get(key), f"{path}/{key}")
        return out
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    first, second = (
        deterministic(run_once(args.workload, args.seed, h))
        for h in HASHSEEDS
    )
    problems = diff(first, second)
    if first["failed"]:
        problems.append(f"failed requests: {first['failed']}")
    for line in problems:
        print(line)
    verdict = "differ" if problems else "identical"
    print(f"{args.workload} seed={args.seed} hashseeds={list(HASHSEEDS)}: "
          f"deterministic outputs {verdict} "
          f"({len(first['counts'])} per-layer counts, "
          f"{len(first['programs'])} programs)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
