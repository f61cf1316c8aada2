"""The tools under tools/ start, the benchmark rounds that
tools/quad_work.py and tools/float_cells_check.py count give the pinned
counts, and tools/bench_pairs.py picks the parent an uncommitted change sits
on.

No golden table evaluates the cavity Green's tensor, the principal-value
transform or the fit, so the digests below are what holds their every bit:
a change that moves one value of the green-spectrum round at seed 1 fails
here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))

# tools/quad_work.py --seed 1: per operation group, integrand nodes, panel
# levels and contour layouts built (13 for the round's 37 tensor calls: one
# per geometry), and the SHA-256 of every value the round's timed steps return
QUAD_WORK_SEED_1 = {
    "seed": 1,
    "green": {"nodes": 11070, "levels": 34, "layouts": 10, "sha256":
              "05a4b6a36f09def81f9f5024b2a63300e03ec8f9ab86da90c89da9f68fb90ef5"},
    "kk": {"nodes": 38400, "levels": 8, "layouts": 0, "sha256":
           "8909a2a634c46f8e81a67d67f4870177cf3415d93dab2fdc02b4117c729afbd4"},
    "coupling_strength_sq": {"nodes": 984, "levels": 3, "layouts": 3, "sha256":
                             "8b510b7ddb20f36b0fedfeebeb78da3c0884fb0e9e264ac339ee98ad251bc3be"},
    "fit_lorentzian": {"nodes": 0, "levels": 0, "layouts": 0, "sha256":
                       "3e15af34300eaca5eefdf8a8bbce32b785e2996b1422965647593f8d33d07cd6"},
}


# tools/float_cells_check.py --round 1: the cells of one sweep-dense round,
# the values the export kernel laid out and the cells CPython spelled, the
# cells the JSON-lines shortest-digit search worked on over its steps, and
# the bytes its NUL-deleting readout read
FLOAT_CELLS_ROUND_1 = {"round_seed": 1, "table_cells": 1308000, "kernel_values": 930066,
                       "cpython_cells": 1, "shortest_cells": 554003, "readout_bytes": 43649000}


def _tool(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)


@pytest.mark.parametrize("tool", [path.name for path in TOOLS])
def test_tool_help_exits_zero(tool):
    done = _tool(tool, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_quad_work_seed_1_counts_and_digests_are_pinned():
    done = _tool("quad_work.py", "--root", str(ROOT), "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == QUAD_WORK_SEED_1


def test_float_cells_round_1_counts_are_pinned():
    done = _tool("float_cells_check.py", "--root", str(ROOT), "--round", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == FLOAT_CELLS_ROUND_1


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
                           *args], cwd=repo, check=True, capture_output=True, text=True).stdout


def _bench_pairs_parent(repo):
    """What bench_pairs.py prints of the parent it picks without --parent in
    repo, from a run with no pairs and no metrics."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--out",
                           "record.json", "--change", "none", "--pairs", "none:1-0"],
                          cwd=repo, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    (repo / "record.json").unlink()
    return done.stderr.strip()


@pytest.mark.parametrize("dirty", [None, "changed", "untracked"])
def test_bench_pairs_measures_an_uncommitted_tree_against_head(tmp_path, dirty):
    # run on a changed tree, the default parent is the commit the change sits
    # on, not the one before it
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    _git(tmp_path, "init", "-q")
    for n in ("1", "2"):
        (tmp_path / "a.txt").write_text(n)
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", n)
    if dirty == "changed":
        (tmp_path / "a.txt").write_text("3")
    elif dirty == "untracked":
        (tmp_path / "b.txt").write_text("")
    ref = "HEAD" if dirty else "HEAD~"
    commit = _git(tmp_path, "rev-parse", "--short", ref).strip()
    assert _bench_pairs_parent(tmp_path) == f"parent: {ref} = {commit}"
