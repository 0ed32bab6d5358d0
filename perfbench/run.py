#!/usr/bin/env python3
"""perfbench command line.

One workload, the form the benchmark driver uses (last line of standard
output is one JSON object)::

    python3 perfbench/run.py --workload tpch_hot --seed 7 --seconds 10 --trace 0

All workloads, each in its own subprocess, end-to-end metrics first and —
with ``--traced`` — the per-layer metrics after them::

    python3 perfbench/run.py --seed 19920101 [--traced] [--out numbers.json]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=19920101)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="all-workloads form: add the traced runs")
    parser.add_argument("--runs", type=int, default=1, help="all-workloads form: untraced runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="all-workloads form: write every number to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro not found; nothing to measure", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(names, args)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.harness import Run

    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(names, args) -> int:
    """Each workload in a fresh interpreter, one at a time (peak RSS is per
    process, and the box has two cores).  ``--runs N`` repeats the untraced
    runs with seeds seed, seed+1, ... so that the output carries a spread;
    the traced run is made once, on the first seed."""
    seeds = [args.seed + i for i in range(args.runs)]
    collected = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    status = 0
    plan = [(seed, 0) for seed in seeds] + ([(seeds[0], 1)] if args.traced else [])
    for seed, trace in plan:
        for name in names:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            status = status or proc.returncode
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                print(f"perfbench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
                status = status or 1
                continue
            print(f"# correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}\n", flush=True)
            entry = collected["workloads"].setdefault(
                name, {"attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
            )
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            section = entry["per_layer" if trace else "end_to_end"]
            for metric, reading in result["metrics"].items():
                section.setdefault(metric, []).append(reading["value"])
    if args.out:
        Path(args.out).write_text(json.dumps(collected, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
