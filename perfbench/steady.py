#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly with different seeds and
report, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median, flagging any spread above the metric's bound in
BENCHMARK.json (setup_s is reported but, as a median of several set-ups
per run, not flagged). Also checks that every run is correct and that the
share of failed operations is the same in every run.

    python3 perfbench/steady.py [--workload W ...] [--runs 10] [--first-seed 1]

Run from the root of the checkout. Exit code 1 if any run is incorrect,
any spread is flagged, or the failed share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report = {}
    for workload in args.workload or names:
        runs = []
        for i in range(args.runs):
            res = one_run(workload, args.first_seed + i, spec["run_seconds"])
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {args.first_seed + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {vals} "
                  f"({res['elapsed_s']:.0f} s)", flush=True)
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"{workload}: INCORRECT output in some run")
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        report[workload] = {}
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = metric != "setup_s" and spread > bound
            ok = ok and not flag
            report[workload][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                        "bound": bound, "values": vals}
            print(f"  {workload:15s} {metric:12s} median {med:10.4g}  spread {spread:6.1%}  "
                  f"bound {bound:.0%}{'  OVER BOUND' if flag else ''}", flush=True)
    out = BENCH / "out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
