#!/usr/bin/env python3
"""Quadrature work and result bits in one round of the green-spectrum
benchmark workload.

    python3 tools/quad_work.py [--root DIR] [--seed N]

Builds the round perfbench/workloads.py makes for the seed, from the
checkout at --root (default: the current directory), and runs the timed
steps of each operation once. The panel engine is wrapped from outside
where its callers look it up, so that every call of an integrand is
counted: its nodes and one level. The cavity tensor calls
greens._adaptive_quadrature (its G20/K41 panels, laid out along the
contour) and the principal-value transform quadrature._adaptive_quadrature
(its G20-halving panels); a checkout without the quadrature module runs
both through the greens name. The cavity's contour layouts
(greens._contour_layout) start from an empty cache, and the layouts a
group builds are the cache's misses during it; a checkout without that
cache reports 0.
Prints one JSON object: per operation group (the operation name up to its
first ':', so "green" is the planar_cavity_green calls), the integrand
nodes, levels and layouts of the round, and the SHA-256 of the bytes of
every value its timed steps return, in round order: a tensor's complex
matrix, and the float64 bytes of the KK and coupling floats and of the
fit's fields. Nothing is timed, so the counts and digests are
deterministic: two commits that print the same digests return the same
bits on the round.
"""

from __future__ import annotations

import argparse
import hashlib
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
    import numpy as np

    from cavityvdw import greens

    import workloads

    try:
        from cavityvdw import quadrature
    except ImportError:
        quadrature = None

    counts: dict = defaultdict(lambda: {"nodes": 0, "levels": 0, "layouts": 0})
    digests: dict = defaultdict(hashlib.sha256)
    group = [""]

    def counting(engine):
        def counting_quadrature(g, *args):
            tally = counts[group[0]]

            def g_counted(x):
                tally["nodes"] += x.size
                tally["levels"] += 1
                return g(x)

            return engine(g_counted, *args)

        return counting_quadrature

    def value_bytes(value) -> bytes:
        # a tensor's matrix, else a float or a sequence of floats
        if hasattr(value, "matrix"):
            return value.matrix.tobytes()
        return np.asarray(value, dtype=float).tobytes()

    layouts = getattr(greens, "_contour_layout", None)

    def built() -> int:
        return layouts.cache_info().misses if layouts else 0

    for module in (greens, quadrature):
        if module is not None:
            module._adaptive_quadrature = counting(module._adaptive_quadrature)
    if layouts:
        layouts.cache_clear()
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build("green-spectrum", args.seed, Path(tmp), root):
            group[0] = op.name.partition(":")[0]
            digest = digests[group[0]]
            before = built()
            out = op.steps[0]()
            digest.update(value_bytes(out))
            for step in op.steps[1:]:
                out = step(out)
                digest.update(value_bytes(out))
            counts[group[0]]["layouts"] += built() - before
    print(json.dumps({"seed": args.seed,
                      **{name: {**counts[name], "sha256": digest.hexdigest()}
                         for name, digest in digests.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
