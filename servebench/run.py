"""Request-level benchmark of the compile-and-run service.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload probes-adapt --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (and writes its Chrome trace).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error and the full report to
``servebench/results/``.  See ``servebench/NOTES.md``.

The run re-executes itself under a ``PYTHONHASHSEED`` derived from the
workload and seed (``--hashseed`` overrides it), so a seed names one
exact run of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "servebench" / "results"
WORKLOADS = ("cold-compile", "probes-adapt")

#: A run must end within this; the child is killed past it.
CHILD_TIMEOUT_S = 175

UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dyn_cost_ratio": "ratio",
    "static_size_ratio": "ratio",
    "store.hit_rate": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "ms" if metric.endswith("ms") else "count"


def hashseed_for(workload: str, seed: int) -> int:
    return zlib.crc32(f"{workload}/{seed}".encode())


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--hashseed", type=int, default=None,
                        help="PYTHONHASHSEED (default: derived from the seed)")
    return parser.parse_args(argv)


def run(args: argparse.Namespace, hashseed: int) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench import loop
    from servebench.workloads import BUILDERS

    stream = BUILDERS[args.workload](args.seed)
    if args.trace:
        metrics, report = loop.trace(
            stream, RESULTS / f"trace-{args.workload}.json"
        )
    else:
        metrics, report = loop.measure(stream, args.seconds)
    report["hashseed"] = hashseed
    report["trace"] = args.trace
    path = RESULTS / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    summarize(report, metrics)
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }


def summarize(report: dict, metrics: dict) -> None:
    """A readable summary on standard error."""
    err = sys.stderr
    print(f"{report['workload']} seed={report['seed']} "
          f"hashseed={report['hashseed']} attempted={report['attempted']} "
          f"failed={report['failed']} {report['failures']} "
          f"served_by={report['served_by']}", file=err)
    if "tail_percentile" in report:
        print(f"latency_tail_ms is p{report['tail_percentile']} "
              f"of {report['tail_samples']} timed requests", file=err)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit(name)}", file=err)
    if "cold" in report:
        print("  program         blocks  compile_ms  dyn_cost  base_cost", file=err)
        for row in report["cold"]["programs"]:
            print(f"  {row['name']:14s} {row['blocks']:6d} "
                  f"{row['compile_ms']:11.1f} {row['dynamic_cost']!s:>9} "
                  f"{row['base_cost']:10d}", file=err)
        print(f"  compile time ~ blocks^"
              f"{report['cold']['curve']['loglog_slope']:.2f}", file=err)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    hashseed = (args.hashseed if args.hashseed is not None
                else hashseed_for(args.workload, args.seed))
    if os.environ.get("PYTHONHASHSEED") != str(hashseed):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        try:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), *argv],
                env=env,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"run exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
            return 3
        return child.returncode
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps(run(args, hashseed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
