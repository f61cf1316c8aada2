#!/usr/bin/env python3
"""Quadrature work in one round of the green-spectrum benchmark workload.

    python3 tools/quad_work.py [--root DIR] [--seed N]

Builds the round perfbench/workloads.py makes for the seed, from the
checkout at --root (default: the current directory), and runs the timed
steps of each operation once. greens._gl_quadrature is wrapped from outside
so that every call of an integrand is counted: its nodes and one level.
Prints one JSON object: per operation group (the operation name up to its
first ':', so "green" is the planar_cavity_green calls), the integrand
nodes and levels of the round. Nothing is timed, so the counts are
deterministic and can be compared across commits.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="checkout to count")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed of the round")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from cavityvdw import greens

    import workloads

    counts: dict = defaultdict(lambda: {"nodes": 0, "levels": 0})
    group = [""]
    engine = greens._gl_quadrature

    def counting_quadrature(g, edges, budget):
        tally = counts[group[0]]

        def g_counted(x):
            tally["nodes"] += x.size
            tally["levels"] += 1
            return g(x)

        return engine(g_counted, edges, budget)

    greens._gl_quadrature = counting_quadrature
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build("green-spectrum", args.seed, Path(tmp), root):
            group[0] = op.name.partition(":")[0]
            out = op.steps[0]()
            for step in op.steps[1:]:
                out = step(out)
    print(json.dumps({"seed": args.seed, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
