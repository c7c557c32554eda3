#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark in two checkouts.

    python3 scripts/ab_pairs.py PARENT CHILD --workload expand-emit --seed 1 --pairs 10

PARENT and CHILD are the roots of two checkouts. Each pair runs
``perfbench/run.py --trace 0`` once in each of them, the parent first in
even-numbered pairs and the child first in odd-numbered ones, and reads the
JSON object that ends the run's output. For every end-to-end metric of
BENCHMARK.json it prints the median and quartiles of each side, and the
pairs the child won (ties count as lost). It also prints, pair by pair,
each run's ``failed`` count and every end-to-end metric. Every run lasts
``run_seconds`` of BENCHMARK.json. The checkouts are only read, apart from
what ``perfbench/run.py`` itself leaves in them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at root: its final JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("child", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    bench = json.loads((args.child / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs: list[dict] = []
    for i in range(args.pairs):
        order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
        pair = {}
        for side in order:
            pair[side] = run_bench(getattr(args, side), args.workload, args.seed, seconds)
        runs.append(pair)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): failed "
              f"{pair['parent']['failed']} / {pair['child']['failed']}; "
              + ", ".join(f"{m} {pair['parent']['metrics'][m]['value']:.4g} / "
                          f"{pair['child']['metrics'][m]['value']:.4g}"
                          for m in (spec["name"] for spec in bench["end_to_end"])),
              flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    print(f"{'metric':<14}{'parent q1 / median / q3':>34}{'child q1 / median / q3':>34}  won")
    for spec in bench["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        child = [r["child"]["metrics"][name]["value"] for r in runs]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, child))
        cells = ["{:>10.4g} /{:>10.4g} /{:>10.4g}".format(*quartiles(v)) for v in (parent, child)]
        print(f"{name:<14}{cells[0]:>34}{cells[1]:>34}  {won}/{len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
