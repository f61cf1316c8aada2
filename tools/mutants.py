#!/usr/bin/env python3
"""Mutation probe: how many one-operator changes to a module its tests catch.

    python3 tools/mutants.py --module src/cavityvdw/_floatcells.py
        --tests tests/test_floatcells.py --tests tests/test_cli.py -k "floatcells or export"
        [--sites 40] [--seed 1] [--timeout 120] [--root DIR]

Parses the module with the standard library's ast and lists every mutation
site: a binary, augmented-assignment, comparison, boolean or unary operator
swapped for another (+ and -, * and /, // for *, % for *, << and >>, & and |,
^ for &, ** for *, < and <=, > and >=, == and !=, `and` and `or`; unary -
and ~ dropped, `not` dropped) and each int literal n as n + 1. It samples
--sites of them with random.Random(--seed), ordered by line.

src/, tests/, pyproject.toml and perfbench/checks.py (the oracle that
tests/oracles.py loads) of the checkout at --root (default: the current
directory) are copied into a temporary directory; the checkout is never
written. Each mutant is the module parsed, changed at one site and
written back with ast.unparse into that copy, and its tests run there
(pytest -x, no bytecode written, one numpy thread, under --timeout seconds
and an address-space limit of MEMORY_MB). A failing run kills the mutant,
and so does a run past the time limit; a passing run is a survivor. The
unchanged module, written back the same way, must pass first.

Prints one JSON object: the module, the tests, the seed, the sites found,
the sampled sites, the killed and timed-out counts, and each survivor's
file, line, operator and source line. Takes about one test run per site.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.FloorDiv: ast.Mult, ast.Mod: ast.Mult, ast.LShift: ast.RShift,
          ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
          ast.BitXor: ast.BitAnd, ast.Pow: ast.Mult}
COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
UNARY = (ast.USub, ast.Invert, ast.Not)
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
          ast.Mod: "%", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|",
          ast.BitXor: "^", ast.Pow: "**", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
          ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or", ast.USub: "-",
          ast.Invert: "~", ast.Not: "not"}
# Address-space limit of each test run, against a mutant that allocates without bound.
MEMORY_MB = 2048


def sites(tree: ast.Module) -> list[tuple[int, int, str, int]]:
    """(index of the node in ast.walk order, operator position, operator,
    line) of every site; a comparison with several operators gives one site
    per operator."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
            op = type(node.op)
            found.append((index, 0, f"{SYMBOL[op]} -> {SYMBOL[BINARY[op]]}", node.lineno))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(map(type, node.ops)):
                found.append((index, i, f"{SYMBOL[op]} -> {SYMBOL[COMPARE[op]]}", node.lineno))
        elif isinstance(node, ast.BoolOp):
            op = type(node.op)
            found.append((index, 0, f"{SYMBOL[op]} -> {SYMBOL[BOOLEAN[op]]}", node.lineno))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, UNARY):
            found.append((index, 0, f"{SYMBOL[type(node.op)]} dropped", node.lineno))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and not isinstance(node.value, bool)):
            found.append((index, 0, f"{node.value} -> {node.value + 1}", node.lineno))
    return found


class _Mutate(ast.NodeTransformer):
    """Changes the node at one ast.walk index (and operator position)."""

    def __init__(self, target: ast.AST, position: int):
        self.target, self.position = target, position

    def visit(self, node):
        if node is not self.target:
            return self.generic_visit(node)
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            node.op = BINARY[type(node.op)]()
        elif isinstance(node, ast.Compare):
            node.ops[self.position] = COMPARE[type(node.ops[self.position])]()
        elif isinstance(node, ast.BoolOp):
            node.op = BOOLEAN[type(node.op)]()
        elif isinstance(node, ast.UnaryOp):
            return node.operand
        else:
            node.value += 1
        return node


def mutant_source(source: str, index: int, position: int) -> str:
    tree = ast.parse(source)
    target = next(node for i, node in enumerate(ast.walk(tree)) if i == index)
    return ast.unparse(ast.fix_missing_locations(_Mutate(target, position).visit(tree)))


def run_tests(copy: Path, tests: list[str], keyword: str | None, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in copy."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    if keyword:
        cmd += ["-k", keyword]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", PYTHONPATH=str(copy / "src"))
    limit = MEMORY_MB << 20

    def limits():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, preexec_fn=limits, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="checkout to probe")
    parser.add_argument("--module", required=True, help="module to mutate, from the root")
    parser.add_argument("--tests", action="append", required=True,
                        help="pytest path of the module's tests, from the root; repeatable")
    parser.add_argument("-k", dest="keyword", help="pytest -k expression")
    parser.add_argument("--sites", type=int, default=40, help="sites to sample")
    parser.add_argument("--seed", type=int, default=1, help="seed of the sample")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds per mutant's test run; a run past it kills the mutant")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    source = (root / args.module).read_text(encoding="utf-8")
    found = sites(ast.parse(source))
    sample = sorted(random.Random(args.seed).sample(found, min(args.sites, len(found))),
                    key=lambda site: (site[3], site[0], site[1]))
    lines = source.splitlines()
    report: dict = {"module": args.module, "tests": args.tests, "k": args.keyword,
                    "seed": args.seed, "sites_found": len(found),
                    "sites": [{"line": line, "operator": op} for _, _, op, line in sample]}
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=skip)
        shutil.copy2(root / "pyproject.toml", copy)
        (copy / "perfbench").mkdir()
        shutil.copy2(root / "perfbench" / "checks.py", copy / "perfbench")
        target = copy / args.module
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        baseline = run_tests(copy, args.tests, args.keyword, args.timeout)
        if baseline != "passed":
            raise SystemExit(f"error: the unchanged module's tests {baseline}")
        outcomes = {"failed": 0, "timeout": 0}
        survivors = []
        for index, position, op, line in sample:
            target.write_text(mutant_source(source, index, position), encoding="utf-8")
            outcome = run_tests(copy, args.tests, args.keyword, args.timeout)
            print(f"line {line} {op}: {outcome}", file=sys.stderr, flush=True)
            if outcome == "passed":
                survivors.append({"file": args.module, "line": line, "operator": op,
                                  "source": lines[line - 1].strip()})
            else:
                outcomes[outcome] += 1
    report.update(killed=outcomes["failed"] + outcomes["timeout"], timed_out=outcomes["timeout"],
                  survived=len(survivors), survivors=survivors)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
