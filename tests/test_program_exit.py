"""main() run as the program freezes the collector on every way out, and
main(argv) leaves it alone.

Run as the program (sys.argv set, main() called with no argument), main
moves every object it leaves to the collector's permanent generation, so
interpreter shutdown has nothing to trace. Its exit code, stdout, stderr,
table and manifest are the bytes main(argv) gives with the same arguments.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cavityvdw import cli

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(cli.__file__).resolve().parents[1]

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
import gc, json, sys
from cavityvdw.cli import main

report, how, *args = sys.argv[1:]
if how == "program":
    sys.argv = ["cavityvdw", *args]
    code = main()
    tracked = len(gc.get_objects())
else:
    code = main(args)
    tracked = None
with open(report, "w") as f:
    json.dump({"code": code, "tracked": tracked, "frozen": gc.get_freeze_count()}, f)
sys.exit(code)
"""


def _child(how, args, cwd, report):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(report), how, *args], cwd=cwd,
                          capture_output=True, env=env, timeout=120)
    files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir())}
    return proc, json.loads(report.read_text()), files


@pytest.mark.parametrize("mode, config, flags, code", [
    ("scan-rabi", "planar", [], 0),
    ("dressed", "f2", [], 1),
    ("xcheck", "planar", ["--tolerance", "1e-30"], 2),
])
def test_main_as_the_program_freezes_and_writes_the_same_bytes(tmp_path, mode, config, flags,
                                                                code):
    (tmp_path / "f2.yaml").write_text(F2)
    path = GOLDENS / "planar.yaml" if config == "planar" else tmp_path / "f2.yaml"
    args = [mode, "--config", str(path), "--out", "table.csv", *flags]
    runs = {}
    for how in ("program", "argv"):
        (tmp_path / how).mkdir()
        runs[how] = _child(how, args, tmp_path / how, tmp_path / f"{how}.json")
    (program, as_program, program_files), (library, as_library, library_files) = \
        runs["program"], runs["argv"]

    assert program.returncode == library.returncode == code
    assert as_program["code"] == as_library["code"] == code
    assert program.stdout == library.stdout
    assert program.stderr == library.stderr
    if code == 1:
        assert b"degenerate at Omega_R = Delta = 0" in program.stderr
    assert program_files == library_files
    assert sorted(program_files) == ([] if code == 1 else ["table.csv",
                                                           "table.csv.manifest.json"])
    # shutdown's collection has nothing left to walk
    assert as_program["frozen"] > 0 and as_program["tracked"] == 0
    assert as_library["frozen"] == 0


def test_main_with_argv_leaves_the_collector_alone(tmp_path, capsys):
    (tmp_path / "f2.yaml").write_text(F2)
    frozen = gc.get_freeze_count()
    out = str(tmp_path / "t.csv")
    assert cli.main(["scan-rabi", "--config", str(GOLDENS / "planar.yaml"), "--out", out]) == 0
    assert gc.get_freeze_count() == frozen
    assert cli.main(["dressed", "--config", str(tmp_path / "f2.yaml"), "--out", out]) == 1
    assert gc.get_freeze_count() == frozen
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan-rabi"])
    assert exc.value.code == 2
    assert gc.get_freeze_count() == frozen
    assert "--config" in capsys.readouterr().err
