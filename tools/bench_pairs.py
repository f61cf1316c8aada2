#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised as one record.

    python3 tools/bench_pairs.py --out BENCH_<n>.json --change "what changed"
        --pairs sweep-dense:401-410 --pairs cli-modes:411-413
        [--claim sweep-dense:wall_s] [--trace sweep-dense:414] [--parent REV]
        [--attach NAME=FILE]

Run from the root of a git checkout. The parent side is the committed tree
of --parent, exported with `git archive` into a temporary directory; the
change side is the working tree. Without --parent, the parent is HEAD when
the working tree differs from it (changed or untracked files), so that an
uncommitted change is measured against the commit it sits on, and HEAD~
when the tree is clean; the commit chosen is printed. Each side runs
`python3 perfbench/run.py` from its own root for BENCHMARK.json's
run_seconds, one run at a time. For every seed the two sides run back to back, the parent first on odd seeds
and the change first on even seeds.

The record gives, per workload and end-to-end metric, both sides' values,
medians and quartiles (statistics.quantiles(n=4)), the pairs the change
wins and loses (lower is better), the parent's quartile distance, whether
the change's median is worse than the metric's BENCHMARK.json bound, and
whether the metric is unresolved: a side's quartile distance over its
median exceeds the bound, so a median within the bound does not show the
metric unchanged, unless every change run is lower than every parent run.
A claim is met when the change wins at least 9 in 10 of its pairs and the
medians differ by more than the parent's quartile distance. Each --trace
runs one --trace 1 run per side. The raw result line of every run is kept.
Each --attach adds the JSON object in FILE to the record under "attached",
by NAME: a deterministic count to pair with the wall times, for example.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

CLAIM_RULE = ("change wins at least 9 of 10 pairs and the medians differ by more than "
              "the parent's quartile distance")


def seed_range(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def export_commit(ref: str, into: Path) -> str:
    """Write the committed files of ref under into; returns its short hash."""
    commit = subprocess.run(["git", "rev-parse", "--short", ref], check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def default_parent(root: Path) -> str:
    """HEAD if the working tree at root differs from it, else HEAD~."""
    status = subprocess.run(["git", "status", "--porcelain"], cwd=root, check=True,
                            capture_output=True, text=True).stdout
    return "HEAD" if status.strip() else "HEAD~"


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench/run.py run from root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "quartile_distance_over_median": (q3 - q1) / median if median else math.inf,
            "values": values}


def compare(parent: list[float], change: list[float], bound: float) -> dict:
    p, c = summary(parent), summary(change)
    ratio = c["median"] / p["median"] if p["median"] else math.nan
    return {"parent": p, "change": c,
            "change_wins": sum(b < a for a, b in zip(parent, change)),
            "change_losses": sum(b > a for a, b in zip(parent, change)),
            "change_over_parent_median": ratio,
            "parent_quartile_distance": p["q3"] - p["q1"],
            "bound": bound, "worse_than_bound": ratio - 1.0 > bound,
            "unresolved": (max(p["quartile_distance_over_median"],
                               c["quartile_distance_over_median"]) > bound
                           and not max(change) < min(parent))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="record to write, BENCH_<n>.json")
    parser.add_argument("--change", required=True, help="one line saying what changed")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD:FIRST-LAST",
                        help="seeds of one workload's pairs; repeatable")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed gain")
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD:SEED",
                        help="one --trace 1 run per side; repeatable")
    parser.add_argument("--parent", help="git revision of the parent side (default: HEAD if the "
                                          "working tree differs from it, else HEAD~)")
    parser.add_argument("--attach", action="append", default=[], metavar="NAME=FILE",
                        help="a JSON object to keep in the record; repeatable")
    args = parser.parse_args(argv)

    root = Path.cwd()
    parent = args.parent or default_parent(root)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    record: dict = {
        "change": args.change,
        "harness": "perfbench/run.py, as committed on each side",
        "command": f"python3 perfbench/run.py --workload <w> --seed <n> --seconds "
                   f"{seconds:g} --trace <0|1>, run from the root of each side",
        "method": "alternating pairs: for each seed the parent and the change run back to "
                  "back, the parent first on odd seeds and the change first on even seeds; "
                  "one run at a time; quartiles are statistics.quantiles(n=4); a pair is "
                  "won when the change's value is lower",
        "machine": f"{os.cpu_count()} vCPUs (the benchmark pins itself to one), CPython "
                   f"{platform.python_version()}, numpy {metadata.version('numpy')}, "
                   f"scipy {metadata.version('scipy')}",
    }
    raw = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp), "change": root}
        record["parent_commit"] = export_commit(parent, sides["parent"])
        print(f"parent: {parent} = {record['parent_commit']}", file=sys.stderr, flush=True)

        def run(side, workload, seed, trace):
            result = bench(sides[side], workload, seed, seconds, trace)
            raw.append({"side": side, "workload": workload, "seed": seed, "trace": trace,
                        "result": result})
            print(f"{side} {workload} seed {seed} trace {trace}: "
                  f"{json.dumps(result['metrics'])}", file=sys.stderr, flush=True)
            return result

        workloads = {}
        for workload, seeds in map(seed_range, args.pairs):
            results = {"parent": [], "change": []}
            first = []
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                first.append(order[0])
                for side in order:
                    results[side].append(run(side, workload, seed, 0))
            metrics = {name: compare([r["metrics"][name]["value"] for r in results["parent"]],
                                     [r["metrics"][name]["value"] for r in results["change"]],
                                     bound)
                       for name, bound in bounds.items()}
            workloads[workload] = {
                "seeds": seeds, "pairs": len(seeds), "first_side": first, "metrics": metrics,
                "failed_over_attempted": {side: [f"{r['failed']}/{r['attempted']}" for r in rs]
                                          for side, rs in results.items()},
                "correct": {side: all(r["correct"] for r in rs) for side, rs in results.items()},
            }
        traces = {}
        for workload, seeds in map(seed_range, args.trace):
            traces[workload] = {"seed": seeds[0]}
            for side in ("parent", "change"):
                traces[workload][side] = run(side, workload, seeds[0], 1)["metrics"]

    if args.claim:
        workload, _, metric = args.claim.partition(":")
        m = workloads[workload]["metrics"][metric]
        difference = m["parent"]["median"] - m["change"]["median"]
        record["claim"] = {
            "metric": metric, "workload": workload, "rule": CLAIM_RULE,
            "change_wins": m["change_wins"], "pairs": len(m["parent"]["values"]),
            f"median_difference_{units[metric]}": difference,
            f"parent_quartile_distance_{units[metric]}": m["parent_quartile_distance"],
            "parent_over_change_median": m["parent"]["median"] / m["change"]["median"],
            "met": (10 * m["change_wins"] >= 9 * len(m["parent"]["values"])
                    and difference > m["parent_quartile_distance"]),
        }
    attached = {}
    for item in args.attach:
        name, _, path = item.partition("=")
        attached[name] = json.loads(Path(path).read_text())
    record.update(workloads=workloads, trace=traces, attached=attached, raw_runs=raw)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
