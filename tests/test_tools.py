"""The tools under tools/ start, and the benchmark round that
tools/quad_work.py counts returns the pinned bits.

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

# tools/quad_work.py --seed 1: per operation group, integrand nodes and
# panel levels, and the SHA-256 of every value the round's timed steps return
QUAD_WORK_SEED_1 = {
    "seed": 1,
    "green": {"nodes": 45756, "levels": 74, "sha256":
              "f6f83dfb8e40357d00db795a6ee717a89ca4d87454c7e5ff290831f6256f1093"},
    "kk": {"nodes": 38400, "levels": 8, "sha256":
           "8909a2a634c46f8e81a67d67f4870177cf3415d93dab2fdc02b4117c729afbd4"},
    "coupling_strength_sq": {"nodes": 1845, "levels": 6, "sha256":
                             "1227b7514353fa76d7044b3ba446cfdc6c65700bad426a1e38702a38d6af27e2"},
    "fit_lorentzian": {"nodes": 0, "levels": 0, "sha256":
                       "3e15af34300eaca5eefdf8a8bbce32b785e2996b1422965647593f8d33d07cd6"},
}


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
