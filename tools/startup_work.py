#!/usr/bin/env python3
"""Code compiled, code executed, modules loaded and objects left at exit by
each CLI mode's process, and the way it ended.

    python3 tools/startup_work.py [--root DIR] [--bytecode {off,on}]

Runs every CLI mode on tests/goldens/planar.yaml, plus potential and
xcheck on tests/goldens/free_space.yaml, each in a fresh interpreter, on a
copy of src/ of the checkout at --root (default: the current directory).
The child imports numpy, then installs an audit hook
(sys.addaudithook) that counts the `compile` and `exec` events of two
stages, `import cavityvdw.cli` and the run of `cli.main`, and sums the
source bytes the `compile` events were given (`compile_bytes`, from the
event's source argument: UTF-8 bytes of a str, the length of a buffer, 0
for an AST), and names the package modules whose source the stage
compiles (`package`, from the event's file name). It also counts the
modules each stage loads beyond `import numpy`, so PyYAML's modules count
in the stage that loads them, and names those the run loads.

The run is made as the program runs it: the child sets sys.argv and calls
main() with no argument, which ends the process itself (os._exit) once the
atexit handlers have run and the standard streams are flushed. So the
child reports from an atexit handler it registers before the run: the
`run` stage's counts, and the `exit` stage's `way` and `tracked`. `way` is
"os._exit" when main ended the process, and "return" when main returned to
the child, as it does where interpreter shutdown must run (a trace or
profile function set, a thread left, a failing flush). `tracked` is
len(gc.get_objects()), the objects that interpreter shutdown would trace
and free, and that os._exit leaves to the operating system. These counts,
not times, are the deterministic side of the cli-modes wall time: the time
from main's end to the process's end is spent outside every tracer span.

The copy of src/ starts without bytecode. With --bytecode off (the
default) the children write none (PYTHONDONTWRITEBYTECODE=1), so the
package is compiled from source in every run, as in a fresh checkout: one
`compile` and one `exec` event per module of the package. With --bytecode
on, one unrecorded run of every mode writes the package's bytecode first.
Every other module loads from its installed bytecode either way, so the
remaining `compile` events count code generated at run time. Every mode
runs REPEATS times, and the tool fails unless each run reports the same
counts. Prints one JSON object. Nothing is timed, so the
counts are deterministic and can be compared across commits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = [(mode, "planar") for mode in ("scan-rabi", "dressed", "potential", "force",
                                      "weak-limit", "kk-check", "xcheck")] \
    + [("potential", "free_space"), ("xcheck", "free_space")]

REPEATS = 2

CHILD = """
import atexit, gc, sys
import numpy

config, out, mode, package_dir = sys.argv[1:]
baseline = set(sys.modules)
counts = {"compile": 0, "compile_bytes": 0, "exec": 0}
compiled = []

def hook(event, args):
    if event in ("compile", "exec"):
        counts[event] += 1
    if event == "compile":
        source, filename = args[0], args[1]
        if isinstance(source, str):
            counts["compile_bytes"] += len(source.encode("utf-8", "surrogatepass"))
        elif isinstance(source, (bytes, bytearray, memoryview)):
            counts["compile_bytes"] += memoryview(source).nbytes
        name = str(filename)
        if name.startswith(package_dir) and name.endswith(".py"):
            stem = name[len(package_dir) + 1:-3]
            compiled.append("cavityvdw" if stem == "__init__" else "cavityvdw." + stem)

sys.addaudithook(hook)
import cavityvdw.cli
report = {"import": {**counts, "modules": len(set(sys.modules) - baseline),
                     "package": sorted(compiled)}}
counts.update(compile=0, compile_bytes=0, exec=0)
compiled.clear()
before = set(sys.modules)

def exit_report():
    new = set(sys.modules) - before
    report["run"] = {**counts, "modules": len(new), "package": sorted(compiled),
                     "loaded": sorted(new)}
    report["exit"] = {"way": "return" if returned else "os._exit",
                      "tracked": len(gc.get_objects())}
    import json
    print(json.dumps(report))

returned = False
atexit.register(exit_report)
sys.argv = ["cavityvdw", mode, "--config", config, "--out", out]
code = cavityvdw.cli.main()
returned = True
sys.exit(code)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="checkout to count")
    parser.add_argument("--bytecode", choices=("off", "on"), default="off",
                        help="compile the package from source, or load it from bytecode")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        env["PYTHONPATH"] = str(src)
        if args.bytecode == "off":
            env["PYTHONDONTWRITEBYTECODE"] = "1"

        def child(mode, config):
            cmd = [sys.executable, "-c", CHILD, str(root / "tests" / "goldens" / f"{config}.yaml"),
                   f"{tmp}/{mode}-{config}.csv", mode, str(src / "cavityvdw")]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
            if proc.returncode != 0:
                raise SystemExit(f"error: {mode} on {config} exited {proc.returncode}:\n"
                                 f"{proc.stderr}")
            return {**json.loads(proc.stdout.splitlines()[-1]), "exit_code": proc.returncode}

        if args.bytecode == "on":
            for run in RUNS:
                child(*run)
        runs = {}
        for mode, config in RUNS:
            reports = [child(mode, config) for _ in range(REPEATS)]
            if any(report != reports[0] for report in reports[1:]):
                raise SystemExit(f"error: {mode} on {config} counts differ between runs:\n"
                                 + "\n".join(map(json.dumps, reports)))
            runs[f"{mode}:{config}"] = reports[0]
    print(json.dumps({"bytecode": args.bytecode, "python": sys.version.split()[0],
                      "repeats": REPEATS, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
