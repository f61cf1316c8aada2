"""Import contract: scipy is loaded only by fit_lorentzian.

Every CLI mode evaluates closed forms or the numpy principal-value
quadrature, and the cavity Green's tensor runs on the same numpy panel
engine; importing scipy costs more than any of them computes.
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


def _fresh_interpreter(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    res = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_no_cli_mode_imports_scipy(tmp_path):
    report = _fresh_interpreter(CHILD, str(GOLDENS), str(tmp_path))
    assert len(report["codes"]) == len(MODES) + 2
    assert all(code == 0 for code in report["codes"].values()), report["codes"]
    assert report["scipy"] == {"import": [], "run": []}


GREENS_CHILD = """
import cmath, json, math, sys
from cavityvdw import greens
cav = greens.PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
g = greens.planar_cavity_green(cav, 0.3e-6, 0.37e-6, cav.omega_nu)
sf = greens.SpectralFunction(func=lambda w: 1.0 / (1.0 + ((w - cav.omega_nu) / cav.gamma_nu) ** 2),
                             support=(0.5 * cav.omega_nu, 1.5 * cav.omega_nu))
pv = greens.kk_real_from_imag(sf, cav.omega_nu + 3.0 * cav.gamma_nu)
print(json.dumps({"finite": cmath.isfinite(g.matrix[0, 0]) and math.isfinite(pv),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cavity_green_and_principal_value_do_not_import_scipy():
    report = _fresh_interpreter(GREENS_CHILD)
    assert report == {"finite": True, "scipy": []}


def test_names_the_benchmark_tracer_patches_stay():
    # perfbench/tracer.py wraps greens.quad and cli.force_theta by name and
    # raises KeyError for a missing module attribute
    assert callable(vars(greens)["quad"])
    assert callable(vars(cli)["force_theta"])
