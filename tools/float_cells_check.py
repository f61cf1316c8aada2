#!/usr/bin/env python3
"""The export kernel's float cells against CPython's, on many values.

    python3 tools/float_cells_check.py --seed N --count M [--root DIR]
    python3 tools/float_cells_check.py --round SEED [--root DIR]

With --seed, draws about M values as the tier-1 oracle test does
(tests/oracles.py, float_families), writes them as one column in blocks of
2^16 through cavityvdw._floatcells.block_text, whose cells left to CPython
are spelled with format(v, ".17g") or json.dumps, and compares every cell
with format(v, ".17g") (CSV) and float.__repr__(v) (JSON lines; json.dumps
for a non-finite value). Prints one JSON object with, per format, the
values checked, every mismatch (the value's repr and float.hex and both
spellings) and the cells the kernel left to CPython, in all and per family.

With --round, builds one round of the benchmark's sweep-dense workload for
the seed (perfbench/workloads.py), runs and exports each operation once,
and prints the round's table cells, the values the kernel laid out (each
distinct column of a table once, a constant one as one value), the cells
CPython spelled, the cells the JSON-lines shortest-digit search worked on,
summed over its steps (shortest_cells), and the bytes handed to the
NUL-deleting bytes.translate that reads the rows out (readout_bytes).
Nothing is timed, so both outputs are deterministic.
Runs from the checkout at --root (default: the current directory) on
the standard library and numpy; it takes about a minute per 10^7 values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

BLOCK = 1 << 16
CPYTHON = {"csv": "%.17g".__mod__,
           "jsonl": lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v)}


def check(seed: int, count: int) -> dict:
    from cavityvdw import _floatcells
    from oracles import float_families

    families = float_families(seed, count)
    report: dict = {"seed": seed, "count": count}
    for fmt, spell in CPYTHON.items():
        left = {}
        mismatches = []
        checked = 0
        for name, values in families.items():
            left[name] = 0
            for start in range(0, values.size, BLOCK):
                block = values[start:start + BLOCK]
                left[name] += _floatcells.lay_out(block, fmt)[1].size
                text = _floatcells.block_text(block.size, [block], [(0, False)], [b"", b"\n"], fmt,
                                              lambda v: list(map(spell, v.tolist())))
                cells = text.decode("ascii").split("\n")[:-1]
                if len(cells) != block.size:
                    raise SystemExit(f"error: {len(cells)} cells for {block.size} values")
                for value, cell in zip(block.tolist(), cells):
                    if cell != spell(value):
                        mismatches.append({"family": name, "value": repr(value),
                                           "hex": value.hex(), "kernel": cell,
                                           "cpython": spell(value)})
                checked += block.size
        report[fmt] = {"checked": checked, "mismatches": mismatches,
                       "left_to_cpython": sum(left.values()), "left_by_family": left}
    return report


def sweep_round(seed: int, root: Path) -> dict:
    from cavityvdw import _floatcells, cli

    import workloads

    counts = {"table_cells": 0, "kernel_values": 0, "cpython_cells": 0, "shortest_cells": 0,
              "readout_bytes": 0}
    lay_out, float_cells = _floatcells.lay_out, cli._float_cells
    neighbours, readout = _floatcells._neighbours, _floatcells._readout

    def counted_lay_out(values, fmt):
        counts["kernel_values"] += values.size
        return lay_out(values, fmt)

    def counted_float_cells(values, fmt):
        # the cells of small blocks and those the kernel leaves
        counts["cpython_cells"] += values.size
        return float_cells(values, fmt)

    def counted_neighbours(step, w, state):
        counts["shortest_cells"] += w.size
        return neighbours(step, w, state)

    def counted_readout(block):
        counts["readout_bytes"] += block.size
        return readout(block)

    _floatcells.lay_out, cli._float_cells = counted_lay_out, counted_float_cells
    _floatcells._neighbours, _floatcells._readout = counted_neighbours, counted_readout
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build("sweep-dense", seed, Path(tmp), root):
            result = op.steps[1](op.steps[0]())
            counts["table_cells"] += len(result.table) * len(result.table.columns)
    return {"round_seed": seed, **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="checkout to check")
    parser.add_argument("--seed", type=int, help="seed of the drawn values")
    parser.add_argument("--count", type=int, default=10**6, help="about how many values")
    parser.add_argument("--round", type=int, metavar="SEED",
                        help="count the cells of one sweep-dense round instead")
    args = parser.parse_args(argv)
    if (args.seed is None) == (args.round is None):
        parser.error("give one of --seed and --round")
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]
    if args.round is not None:
        print(json.dumps(sweep_round(args.round, root)))
        return 0
    report = check(args.seed, args.count)
    print(json.dumps(report))
    return 1 if report["csv"]["mismatches"] or report["jsonl"]["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
