"""main() run as the program ends the process itself, and main(argv)
returns.

Run as the program (sys.argv set, main() called with no argument), main
runs the atexit handlers, flushes the standard streams and calls os._exit
with the exit code, so interpreter shutdown does not run. Its exit code,
stdout, stderr, table and manifest are the bytes main(argv) gives with the
same arguments in another interpreter. With a trace or profile function
set, a thread other than the main one alive, or a failing flush, main
returns the code and the interpreter shuts down as usual. Each child
appends to a report file: "atexit" from an atexit handler, and "returned
<code>" once main has returned, which never happens on the program's way
out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cavityvdw import cli

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(cli.__file__).resolve().parents[1]
PLANAR = str(GOLDENS / "planar.yaml")

# the cli-modes benchmark's F2 run: with atom B on the node of the nu = 2
# mode, the sweep of atom A meets Omega_R = Delta = 0, where dressed fails
F2 = """\
scenario: planar
cavity:
  d: 1.0e-6
  delta: 1.0e-3
  nu: 2
atoms:
  z_b: 2.5e-7
sweep:
  points: 201
  span: [0.0, 1.0]
  target: A
"""

CHILD = """
import atexit, sys, threading
from cavityvdw.cli import main

report, how, *args = sys.argv[1:]

def note(line):
    with open(report, "a") as f:
        f.write(line + "\\n")

atexit.register(note, "atexit")
if how == "argv":
    code = main(args)
else:
    sys.argv = ["cavityvdw", *args]
    if how == "trace":
        sys.settrace(lambda *event: None)
    elif how == "profile":
        sys.setprofile(lambda *event: None)
    elif how == "thread":
        release = threading.Event()
        threading.Thread(target=release.wait).start()
    elif how == "flush":
        class FlushFailsOnce:
            def __init__(self, stream):
                self.stream, self.failed = stream, False

            def write(self, text):
                return self.stream.write(text)

            def flush(self):
                if not self.failed:
                    self.failed = True
                    raise OSError("flush failed")
                self.stream.flush()

        sys.stdout = FlushFailsOnce(sys.stdout)
    code = main()
    sys.settrace(None)
    sys.setprofile(None)
    if how == "thread":
        release.set()
note(f"returned {code}")
sys.exit(code)
"""


def _child(how, args, cwd):
    cwd.mkdir()
    report = cwd.parent / f"{cwd.name}.report"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    # stdout to a pipe stays block-buffered, so output main does not flush is lost
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(report), how, *args], cwd=cwd,
                          capture_output=True, env=env, timeout=120)
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return proc, report.read_text().splitlines(), files


@pytest.mark.parametrize("args, code", [
    (["scan-rabi", "--config", PLANAR, "--out", "table.csv"], 0),
    (["dressed", "--config", "../f2.yaml", "--out", "table.csv"], 1),
    (["xcheck", "--config", PLANAR, "--out", "table.csv", "--tolerance", "1e-30"], 2),
    (["scan-rabi", "--config", PLANAR, "--out"], 2),
], ids=["scan-rabi", "f2-dressed", "xcheck-tolerance", "usage-error"])
def test_main_as_the_program_exits_with_the_bytes_of_main_argv(tmp_path, args, code):
    (tmp_path / "f2.yaml").write_text(F2)
    program, program_report, program_files = _child("program", args, tmp_path / "program")
    library, library_report, library_files = _child("argv", args, tmp_path / "argv")

    assert program.returncode == library.returncode == code
    assert program.stdout == library.stdout
    assert program.stderr == library.stderr
    assert program_files == library_files
    if args[-1] == "--out":
        # argparse's usage error leaves main by SystemExit on both paths
        assert b"expected one argument" in program.stderr and program.stdout == b""
        assert program_report == library_report == ["atexit"]
        return
    if code == 1:
        assert b"degenerate at Omega_R = Delta = 0" in program.stderr
    assert sorted(program_files) == ([] if code == 1 else ["table.csv",
                                                           "table.csv.manifest.json"])
    # the handler ran once, and main never returned to its caller
    assert program_report == ["atexit"]
    assert library_report == [f"returned {code}", "atexit"]


@pytest.mark.parametrize("how", ["trace", "profile", "thread"])
def test_main_as_the_program_returns_where_teardown_matters(tmp_path, how):
    args = ["xcheck", "--config", PLANAR, "--out", "table.csv", "--tolerance", "1e-30"]
    proc, report, files = _child(how, args, tmp_path / how)
    _, _, library_files = _child("argv", args, tmp_path / "argv")

    assert proc.returncode == 2
    assert report == ["returned 2", "atexit"]
    assert files == library_files
    assert proc.stdout.endswith(b"wrote table.csv.manifest.json\n")


def test_main_as_the_program_returns_when_a_flush_fails(tmp_path):
    proc, report, files = _child("flush", ["scan-rabi", "--config", PLANAR, "--out",
                                           "table.csv"], tmp_path / "flush")

    # the handlers ran before the flush, and shutdown does not run them again
    assert report == ["atexit", "returned 0"]
    assert proc.returncode == 0
    assert proc.stdout == b"wrote table.csv (41 rows)\nwrote table.csv.manifest.json\n"
    assert sorted(files) == ["table.csv", "table.csv.manifest.json"]
