"""Import contract: no CLI mode loads scipy.

Every mode evaluates closed forms or the numpy principal-value quadrature;
scipy is loaded only by the cavity Green's-tensor quadrature and
fit_lorentzian, and importing it costs more than any mode computes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from cavityvdw import cli, greens
from cavityvdw.config import MODES

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(cli.__file__).resolve().parents[1]

CHILD = """
import json, sys
from cavityvdw import cli
from cavityvdw.config import MODES
loaded = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
runs = [(mode, "planar") for mode in MODES] + [("potential", "free_space"), ("xcheck", "free_space")]
codes = {}
for mode, config in runs:
    out = f"{sys.argv[2]}/{mode}-{config}.csv"
    codes[f"{mode}:{config}"] = cli.main([mode, "--config", f"{sys.argv[1]}/{config}.yaml", "--out", out])
loaded["run"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_no_cli_mode_imports_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    res = subprocess.run([sys.executable, "-c", CHILD, str(GOLDENS), str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert len(report["codes"]) == len(MODES) + 2
    assert all(code == 0 for code in report["codes"].values()), report["codes"]
    assert report["scipy"] == {"import": [], "run": []}


def test_names_the_benchmark_tracer_patches_stay():
    # perfbench/tracer.py wraps greens.quad and cli.force_theta by name and
    # raises KeyError for a missing module attribute
    assert callable(vars(greens)["quad"])
    assert callable(vars(cli)["force_theta"])
