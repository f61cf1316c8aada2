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
out. With stdout a pipe whose reader has gone, the program loses its
report lines and nothing else, whether main ends the process or returns:
no traceback, and the exit code of an open stdout.

Each way out runs once, against one main(argv) child per command line.
Every mode prints its report through the same lines, so each command line's
closed stdout is checked in-process: unbuffered, every write raises
BrokenPipeError; buffered, the program's flush does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cavityvdw import cli

GOLDENS = Path(__file__).parent / "goldens"
PLANAR = str(GOLDENS / "planar.yaml")
FREE_SPACE = str(GOLDENS / "free_space.yaml")

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
        real_flush = sys.stdout.flush

        def flush_fails_once():
            sys.stdout.flush = real_flush
            raise OSError("flush failed")

        sys.stdout.flush = flush_fails_once
    code = main()
    sys.settrace(None)
    sys.setprofile(None)
    if how == "thread":
        release.set()
note(f"returned {code}")
sys.exit(code)
"""

CODES = {"scan-rabi": 0, "f2-dressed": 1, "xcheck-tolerance": 2, "usage-error": 2}
TABLE = ["table.csv", "table.csv.manifest.json"]


def _child(env, how, args, cwd, stdout="open"):
    """main run in a child as `how` says, with stdout a pipe read here
    ("open") or one whose reader has gone ("closed", "closed-unbuffered"):
    (process, report lines, files)."""
    cwd.mkdir()
    report = cwd.parent / f"{cwd.name}.report"
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "wb") as closed:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(report), how, *args], cwd=cwd,
                              stdout=subprocess.PIPE if stdout == "open" else closed,
                              stderr=subprocess.PIPE, timeout=120,
                              # empty, PYTHONUNBUFFERED is off: stdout to a pipe stays
                              # block-buffered, so output main does not flush is lost
                              env=dict(env, PYTHONUNBUFFERED="1" if stdout == "closed-unbuffered"
                                       else ""))
    return proc, report.read_text().splitlines(), _files(cwd)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """Per name, a command line; F2's config is written to one absolute path."""
    f2 = tmp_path_factory.mktemp("f2") / "f2.yaml"
    f2.write_text(F2)
    return {**{mode: [mode, "--config", PLANAR, "--out", "table.csv"] for mode in
               ("scan-rabi", "dressed", "potential", "force", "weak-limit", "kk-check")},
            "potential-free-space-jsonl": ["potential", "--config", FREE_SPACE,
                                           "--out", "table.jsonl", "--format", "jsonl"],
            "xcheck-tolerance": ["xcheck", "--config", PLANAR, "--out", "table.csv",
                                 "--tolerance", "1e-30"],
            "f2-dressed": ["dressed", "--config", str(f2), "--out", "table.csv"],
            "usage-error": ["scan-rabi", "--config", PLANAR, "--out"]}


@pytest.fixture(scope="module")
def reference(tmp_path_factory, child_env, commands):
    """Per name in CODES, its command line and its main(argv) child."""
    root = tmp_path_factory.mktemp("reference")
    return {name: (commands[name], *_child(child_env, "argv", commands[name], root / name))
            for name in CODES}


# a closed stdout needs a child only where buffering or the exit code changes
# the way out: unbuffered, the first report line raises BrokenPipeError;
# buffered, main's flush does, before os._exit or before it returns, and the
# interpreter's shutdown flush must not fail on the same pipe again
@pytest.mark.parametrize("name, how, stdout", [
    ("scan-rabi", "program", "open"), ("f2-dressed", "program", "open"),
    ("xcheck-tolerance", "program", "open"), ("usage-error", "program", "open"),
    ("xcheck-tolerance", "trace", "open"), ("xcheck-tolerance", "profile", "open"),
    ("xcheck-tolerance", "thread", "open"), ("scan-rabi", "flush", "open"),
    ("scan-rabi", "program", "closed"), ("scan-rabi", "program", "closed-unbuffered"),
    ("xcheck-tolerance", "program", "closed"),
    ("xcheck-tolerance", "program", "closed-unbuffered"),
    ("f2-dressed", "program", "closed"), ("usage-error", "program", "closed"),
    ("xcheck-tolerance", "thread", "closed"),
])
def test_each_way_out_gives_the_bytes_of_main_argv(tmp_path, child_env, reference, name, how,
                                                    stdout):
    args, library, library_report, library_files = reference[name]
    proc, report, files = _child(child_env, how, args, tmp_path / how, stdout)
    code = CODES[name]

    assert proc.returncode == library.returncode == code
    assert proc.stderr == library.stderr
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
    assert files == library_files
    assert proc.stdout == (library.stdout if stdout == "open" else None)
    if name == "usage-error":
        # argparse's usage error leaves main by SystemExit on every path
        assert b"expected one argument" in proc.stderr and library.stdout == b""
        assert report == library_report == ["atexit"]
        return
    if code == 1:
        assert b"degenerate at Omega_R = Delta = 0" in proc.stderr and files == {}
    else:
        assert sorted(files) == TABLE
        assert library.stdout.endswith(b"wrote table.csv.manifest.json\n")
    if name == "scan-rabi":
        assert library.stdout == b"wrote table.csv (41 rows)\nwrote table.csv.manifest.json\n"
    assert library_report == [f"returned {code}", "atexit"]
    # os._exit: the handler ran once, and main never returned to its caller;
    # after a failed flush, the handlers ran before it and not at shutdown
    assert report == {"program": ["atexit"], "flush": ["atexit", f"returned {code}"]}.get(
        how, [f"returned {code}", "atexit"])


class _ReaderGone:
    """A stdout whose reader has gone. Buffered, it holds the report until a
    flush raises BrokenPipeError; unbuffered, every write raises it."""

    def __init__(self, buffered, fd):
        self.buffered, self.fd, self.held = buffered, fd, ""

    def write(self, text):
        if not self.buffered:
            self.flush()
        self.held += text

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", ["scan-rabi", "dressed", "potential", "potential-free-space-jsonl",
                                  "force", "weak-limit", "kk-check", *list(CODES)[1:]])
def test_a_closed_stdout_loses_the_report_and_nothing_else(tmp_path, capsys, monkeypatch,
                                                           commands, name, buffered):
    args, runs = commands[name], []
    gone = _ReaderGone(buffered, os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT))
    for cwd, stdout in ((tmp_path / "open", sys.stdout), (tmp_path / "closed", gone)):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            try:
                exit_code = cli.main(args)
            except SystemExit as usage_error:
                exit_code = usage_error.code
            # main's flush on the program's way out
            flushed = cli._flush_standard_streams()
        runs.append((exit_code, flushed, *capsys.readouterr(), _files(cwd)))
    devnull = os.path.samestat(os.fstat(gone.fd), os.stat(os.devnull))
    os.close(gone.fd)
    (code, _, out, err, files), closed = runs

    # the exit code, stderr and the files are those of an open stdout, and
    # the descriptor points at os.devnull, so shutdown cannot fail on it
    assert runs[0][1] and closed == (code, True, "", err, files) and devnull
    assert code == CODES.get(name, 0) and "Traceback" not in err
    assert gone.held == (out if buffered else "")
    if code == 1 or name == "usage-error":
        assert out == "" and files == {}
    else:
        table = args[args.index("--out") + 1]
        assert out.endswith(f"wrote {table}.manifest.json\n")
        assert sorted(files) == [table, table + ".manifest.json"]
