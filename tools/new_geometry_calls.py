#!/usr/bin/env python3
"""Per-call time of planar_cavity_green at geometries no earlier call used,
parent against change, alternating in one process on one CPU.

    python3 tools/new_geometry_calls.py --parent DIR [--root DIR]
        [--calls N] [--blocks B] [--cpu C] [--seed S]

Loads the package of each checkout (<dir>/src/cavityvdw; --root defaults to
the current directory) under a name of its own, so that both run in one
interpreter, and pins the process to CPU --cpu. Every call is at a new
pair of heights (z, z' uniform in 0.05 d ... 0.95 d of a nu = 1, delta =
1e-3 cavity, at a frequency within 2 mode widths of resonance), so none
can reuse a contour layout; the same inputs go to both sides, and the side
that goes first alternates from call to call. For contrast, the same
number of calls at one repeated pair of heights, each at a new frequency
(a spectrum at fixed heights), is timed the same way.

Prints one JSON object: per case and side the median call [us] over all
calls, the median and quartiles of the medians of --blocks consecutive
blocks, the median of the per-call change/parent ratios, and whether the
change's median exceeds the parent's by more than the parent's quartile
distance of block medians (its spread).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path


def load_greens(root: Path, name: str):
    """The greens module of the package at root/src/cavityvdw, imported as
    the package `name`."""
    package = root / "src" / "cavityvdw"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.greens")


def summary(times: list[int], blocks: int) -> dict:
    size = len(times) // blocks
    medians = [statistics.median(times[i * size:(i + 1) * size]) / 1e3 for i in range(blocks)]
    q1, q2, q3 = statistics.quantiles(medians, n=4)
    return {"median_us": statistics.median(times) / 1e3, "block_median_us": q2,
            "block_q1_us": q1, "block_q3_us": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="changed checkout")
    parser.add_argument("--calls", type=int, default=4000, help="calls per case and side")
    parser.add_argument("--blocks", type=int, default=20, help="blocks for the spread")
    parser.add_argument("--cpu", type=int, default=0, help="CPU to pin the process to")
    parser.add_argument("--seed", type=int, default=1, help="seed of the inputs")
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {args.cpu})
    import numpy as np

    sides = {"parent": load_greens(args.parent.resolve(), "cavityvdw_parent"),
             "change": load_greens(args.root.resolve(), "cavityvdw_change")}
    cavities = {name: g.PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1) for name, g in sides.items()}
    cav = cavities["parent"]
    rng = np.random.default_rng(args.seed)
    heights = (rng.uniform(0.05, 0.95, (args.calls, 2)) * cav.d).tolist()
    omegas = (cav.omega_nu + rng.uniform(-2.0, 2.0, args.calls) * cav.gamma_nu).tolist()
    # warm both sides' numpy paths at a height pair no timed call uses
    for name, g in sides.items():
        for _ in range(50):
            g.planar_cavity_green(cavities[name], 0.5e-6, 0.5e-6, cav.omega_nu)

    cases = {"new_geometry": [(z, zp, w) for (z, zp), w in zip(heights, omegas)],
             "repeated_geometry": [(0.3 * cav.d, 0.37 * cav.d, w) for w in omegas]}
    record = {"calls": args.calls, "blocks": args.blocks, "cpu": args.cpu, "seed": args.seed}
    clock = time.perf_counter_ns
    for case, inputs in cases.items():
        times = {name: [] for name in sides}
        order = list(sides)
        for i, (z, zp, w) in enumerate(inputs):
            for name in (order if i % 2 == 0 else order[::-1]):
                g, c = sides[name], cavities[name]
                start = clock()
                g.planar_cavity_green(c, z, zp, w)
                times[name].append(clock() - start)
        result = {name: summary(t, args.blocks) for name, t in times.items()}
        parent, change = result["parent"], result["change"]
        result["median_ratio_change_over_parent"] = statistics.median(
            c / p for c, p in zip(times["change"], times["parent"]))
        result["change_slower_beyond_parent_spread"] = (
            change["block_median_us"] - parent["block_median_us"]
            > parent["block_q3_us"] - parent["block_q1_us"])
        record[case] = result
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
