#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and record it.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds X
--trace T`` in one checkout, one process at a time, with X the
``run_seconds`` of BENCHMARK.json.  The plan is ten untraced pairs on
every workload of BENCHMARK.json (seeds 1-10, the workloads interleaved,
the side that runs first alternating), then three traced pairs (seed 1)
per workload in the same way.  The output keeps every run's
``perfbench`` record and result line as printed.  Per workload it
summarises the untraced pairs over the end-to-end metrics and the traced
pairs over the per-layer metrics: the medians, the parent's
interquartile range, the median of the per-pair ratios change/parent
(null when the parent reads 0) and the pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # untraced, per workload
TRACED_PAIRS = 3  # per workload, at seed 1


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    record, result = out.splitlines()[-2:]
    if not record.startswith("perfbench "):
        raise RuntimeError(f"no perfbench record from {argv} in {checkout}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "record": json.loads(record.split(" ", 1)[1]), "result": json.loads(result)}


def alternating_pairs(sides: dict[str, Path], plan: list[tuple[str, int]], seconds: float,
                      trace: int) -> list[dict]:
    """One pair of runs per (workload, seed) of ``plan``, the side that runs
    first alternating from pair to pair."""
    headline = "trace.overhead_pct" if trace else "ops_per_s"
    pairs = []
    for index, (workload, seed) in enumerate(plan):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {side: run(sides[side], workload, seed, seconds, trace) for side in order}
        pairs.append({"workload": workload, "seed": seed, "first": order[0], **pair})
        print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
            f"{side} {headline} {pair[side]['result']['metrics'][headline]['value']:.1f}" for side in order
        ), file=sys.stderr)
    return pairs


def summary(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if direction == "higher" else -1
        quartiles = statistics.quantiles(parent, n=4)
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": quartiles[2] - quartiles[0],
            "median_ratio": statistics.median(c / p for p, c in zip(parent, change)) if all(parent) else None,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in bench["per_layer"]}

    workloads = [w["name"] for w in bench["workloads"]]
    plan = [(workload, seed) for seed in range(1, PAIRS + 1) for workload in workloads]
    pairs = alternating_pairs(sides, plan, seconds, 0)
    traced_plan = [(workload, 1) for _ in range(TRACED_PAIRS) for workload in workloads]
    traced = alternating_pairs(sides, traced_plan, seconds, 1)

    report = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds X --trace T",
        "seconds": seconds,
        "env": pairs[0]["parent"]["record"]["env"],
        "summary": {w: summary([p for p in pairs if p["workload"] == w], better) for w in workloads},
        "traced_summary": {
            w: summary([p for p in traced if p["workload"] == w], layer_better) for w in workloads
        },
        "pairs": pairs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
