#!/usr/bin/env python3
"""Lines of the package that no shipped route runs.

    python3 tools/reach.py [--root DIR]

Traces, with the stdlib trace module, the routes the program ships, on the
checkout at --root (default: the current directory):

- cli.main(argv) for every mode on each tests/goldens/*.yaml config, in
  CSV and in JSON lines;
- the force run with --variant as-printed and the xcheck run with
  --tolerance 1e-3, on planar.yaml;
- one potential run without --out, in a temporary working directory;
- tests/test_acceptance.py, through pytest.main;
- one round of the benchmark's sweep-dense and green-spectrum workloads
  (perfbench/workloads.build, seed 1): every step and every check of every
  operation;
- last, one run as the program runs it, `python -m cavityvdw.cli`: sys.argv
  set and the module run as __main__, which calls main() with no argument.
  As the trace function is set, main returns its exit code instead of
  ending the process, and sys.exit carries the code here.

The package is imported only from <root>/src, inside the trace, so its
import-time lines count; outputs go to a temporary directory and no
bytecode is written. Only frames of <root>/src/cavityvdw are traced line by
line.

Prints one JSON object: the exit code of every route, and per module of
the package, the executable lines (those of trace's own line table) that
never ran: their count, how many of them belong to a raise statement, and
each one as [number, source, raise], where raise is true on every line of
a raise statement, its message lines included. Nothing is timed, so the
output is deterministic and can be compared across commits.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import trace
import warnings
from pathlib import Path

WORKLOADS = ("sweep-dense", "green-spectrum")
SEED = 1


class _PackageOnly:
    """trace's ignore filter, narrowed to the package's own files. trace's
    _Ignore caches its verdict by module basename, so a stdlib errors.py
    seen first would hide the package's errors.py."""

    def __init__(self, package: Path):
        self.prefix = str(package) + os.sep

    def names(self, filename, modulename):
        return not (filename or "").startswith(self.prefix)


def _routes(root: Path, tmp: Path) -> dict:
    """Run every route once; returns each route's exit code."""
    from cavityvdw import cli
    from cavityvdw.config import FORMATS, MODES

    import workloads

    goldens = root / "tests" / "goldens"
    codes = {}

    def run_cli(label, argv):
        codes[label] = cli.main(argv)

    for config in sorted(goldens.glob("*.yaml")):
        for mode in MODES:
            for fmt in FORMATS:
                out = tmp / f"{config.stem}-{mode}.{fmt}"
                run_cli(f"{mode} {config.name} {fmt}",
                        [mode, "--config", str(config), "--out", str(out), "--format", fmt])
    planar = str(goldens / "planar.yaml")
    run_cli("force planar.yaml --variant as-printed",
            ["force", "--config", planar, "--out", str(tmp / "as-printed.csv"),
             "--variant", "as-printed"])
    run_cli("xcheck planar.yaml --tolerance 1e-3",
            ["xcheck", "--config", planar, "--out", str(tmp / "tolerance.csv"),
             "--tolerance", "1e-3"])
    cwd = Path.cwd()
    os.chdir(tmp)
    try:
        run_cli("potential planar.yaml without --out", ["potential", "--config", planar])
    finally:
        os.chdir(cwd)

    import pytest

    codes["pytest tests/test_acceptance.py"] = int(pytest.main(
        [str(root / "tests" / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"]))

    for workload in WORKLOADS:
        ops = workloads.build(workload, SEED, tmp / workload, root)
        for op in ops:
            out = op.steps[0]()
            for step in op.steps[1:]:
                out = step(out)
            op.check(out)
        codes[f"{workload} seed {SEED} ({len(ops)} operations)"] = 0

    argv = sys.argv
    sys.argv = ["cavityvdw", "dressed", "--config", planar, "--out", str(tmp / "program.csv")]
    try:
        with warnings.catch_warnings():
            # runpy warns that cavityvdw.cli is already imported
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("cavityvdw.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes["python -m cavityvdw.cli dressed planar.yaml"] = exc.code
    finally:
        sys.argv = argv
    return codes


def _raise_lines(source: str) -> set[int]:
    """Every line of every raise statement in the source."""
    return {line for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def _unrun(path: Path, counts: dict) -> dict:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    raises = _raise_lines(source)
    ran = {line for (filename, line) in counts if filename == str(path)}
    # line 0 is the module code's start, not a line of the source
    unrun = sorted(set(trace._find_executable_linenos(str(path))) - ran - {0})
    return {"unrun": len(unrun), "raise": sum(line in raises for line in unrun),
            "lines": [[line, lines[line - 1].strip(), line in raises] for line in unrun]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="checkout to trace")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    package = root / "src" / "cavityvdw"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    sys.dont_write_bytecode = True
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _PackageOnly(package)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = tracer.runfunc(_routes, root, Path(tmp))
    imported = Path(sys.modules["cavityvdw"].__file__).resolve()
    if imported.parent != package:
        raise SystemExit(f"cavityvdw was imported from {imported}, not from {package}")

    counts = tracer.results().counts
    modules = {f"cavityvdw/{path.name}": _unrun(path, counts)
               for path in sorted(package.glob("*.py"))}
    print(json.dumps({
        "routes": codes,
        "unrun": sum(m["unrun"] for m in modules.values()),
        "unrun_not_raise": sum(m["unrun"] - m["raise"] for m in modules.values()),
        "modules": modules,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
