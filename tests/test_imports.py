"""Import contract: the package imports what pyproject.toml declares,
numpy and PyYAML, besides the standard library, with one listed exception;
no CLI mode and no fit_lorentzian call loads scipy; no CLI mode loads
numpy.polynomial or dataclasses; importing the CLI generates no code beyond
the three namedtuples' constructors; and every public name has a shipped
route or a listed reason.

Every CLI mode evaluates closed forms or the numpy principal-value
quadrature, and the cavity Green's tensor runs on the same numpy panel
engine; fit_lorentzian is a numpy variable-projection fit. The panel
engine's Gauss-Legendre rule is written out, and the package's value
classes are Records, which generate no code.
"""

import ast
import importlib.metadata
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cavityvdw
from cavityvdw import cli, greens
from cavityvdw.config import MODES

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(cli.__file__).resolve().parents[1]

# the runs that evaluate closed forms only, then those that run the
# Gauss-Legendre quadrature (kk-check, and xcheck's principal-value rows)
CLOSED_FORM_RUNS = [(mode, "planar") for mode in ("scan-rabi", "dressed", "potential", "force",
                                                  "weak-limit")] + [("potential", "free_space")]
QUADRATURE_RUNS = [("kk-check", "planar"), ("xcheck", "planar"), ("xcheck", "free_space")]

CHILD = """
import json, sys
from cavityvdw import cli

def loaded():
    return {top: sorted(m for m in sys.modules if m == top or m.startswith(top + "."))
            for top in ("scipy", "numpy.polynomial", "dataclasses")}

report = {"codes": {}, "import": loaded()}
for stage, runs in zip(("closed_form", "quadrature"), json.loads(sys.argv[3])):
    for mode, config in runs:
        out = f"{sys.argv[2]}/{mode}-{config}.csv"
        report["codes"][f"{mode}:{config}"] = cli.main(
            [mode, "--config", f"{sys.argv[1]}/{config}.yaml", "--out", out])
    report[stage] = loaded()
from cavityvdw.modecoupling import fit_lorentzian
report["fit_width"] = fit_lorentzian([(w, 1.0 / (1.0 + (w - 4.0) ** 2)) for w in range(9)])[1]
report["fit"] = loaded()
print(json.dumps(report))
"""


def _fresh_interpreter(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    res = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cli_report(tmp_path_factory):
    """Exit codes and loaded modules of every CLI mode, run in one fresh
    interpreter: after import, after the closed-form runs, after the rest."""
    return _fresh_interpreter(CHILD, str(GOLDENS), str(tmp_path_factory.mktemp("cli")),
                              json.dumps([CLOSED_FORM_RUNS, QUADRATURE_RUNS]))


def test_no_cli_mode_imports_scipy(cli_report):
    assert {mode for mode, _ in CLOSED_FORM_RUNS + QUADRATURE_RUNS} == set(MODES)
    assert len(cli_report["codes"]) == len(MODES) + 2
    assert all(code == 0 for code in cli_report["codes"].values()), cli_report["codes"]
    assert [cli_report[stage]["scipy"] for stage in ("import", "closed_form", "quadrature")] \
        == [[], [], []]


def test_fit_lorentzian_does_not_import_scipy(cli_report):
    assert cli_report["fit_width"] == pytest.approx(2.0, rel=1e-12, abs=0.0)
    assert cli_report["fit"]["scipy"] == []


# imports that pyproject.toml's dependencies do not cover, each with its reason
UNDECLARED = {
    ("greens", "scipy"): "greens.quad imports scipy.integrate on first call: no quadrature "
                         "calls it, but the benchmark's tracer patches it by name",
}


def _imports():
    """(module, top-level name) of every absolute import in the package's
    modules, inside functions too."""
    found = set()
    for path in sorted((SRC / "cavityvdw").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update((path.stem, alias.name.partition(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.stem, node.module.partition(".")[0]))
    return found


def test_imports_match_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", dep)[0].lower() for dep in project["dependencies"]}
    providers = importlib.metadata.packages_distributions()
    third_party = {(module, top): {d.lower() for d in providers.get(top, ())}
                   for module, top in _imports()
                   if top not in sys.stdlib_module_names and top != "cavityvdw"}
    assert {key for key, dists in third_party.items() if not dists & declared} == set(UNDECLARED)
    # and every declared dependency is imported
    assert declared <= set().union(*third_party.values())


@pytest.mark.parametrize("top", ["numpy.polynomial", "dataclasses"])
def test_no_cli_mode_loads_numpy_polynomial_or_dataclasses(cli_report, top):
    # the Gauss-Legendre rule is a literal, and Records generate no code
    assert [cli_report[stage][top] for stage in ("import", "closed_form", "quadrature")] \
        == [[], [], []]


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    assert greens._GL_NODES.tobytes() == nodes.tobytes()
    assert greens._GL_WEIGHTS.tobytes() == weights.tobytes()
    assert not greens._GL_NODES.flags.writeable and not greens._GL_WEIGHTS.flags.writeable


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


# public names no shipped route reaches, each with its reason; a name
# reached by none of them is deleted, and a listed name that gains a route
# leaves this list
UNREACHED = {
    "Gradient": "result type of grad_rabi",
    "LorentzianFit": "result type of fit_lorentzian",
    "RabiBreakdown": "result type of rabi_contributions",
    "ResonantPotentialBreakdown": "result type of resonant_potential",
    "free_space_green": "called by FreeSpaceGreens.tensor",
    "free_space_im_green_coincident": "called by FreeSpaceGreens.tensor",
    "rabi_frequency": "waits for the rabi-closed-form-vs-quadrature xcheck row",
    "weak_theta_potential": "waits for the weak-limit-green-route xcheck row",
    "weak_theta_force": "waits for the weak-limit-green-route xcheck row",
    "NarrowModeGreens": "waits for the weak-limit-green-route xcheck row",
}


def test_every_public_name_is_reached_by_a_shipped_route():
    # reached: named in another package module, in an acceptance criterion
    # or in the benchmark
    package = SRC / "cavityvdw"
    home = {alias.name: node.module
            for node in ast.parse((package / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(home) >= set(cavityvdw.__all__)
    routes = {p.stem: p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"}
    shipped = [(Path(__file__).parent / "test_acceptance.py").read_text()]
    shipped += [p.read_text() for p in sorted((SRC.parent / "perfbench").glob("*.py"))]
    unreached = {
        name for name in cavityvdw.__all__
        if not any(re.search(rf"\b{name}\b", text)
                   for text in shipped + [t for m, t in routes.items() if m != home[name]])
    }
    assert unreached == set(UNREACHED)


COMPILE_CHILD = """
import json, sys
import numpy, yaml

generated = []
sys.addaudithook(lambda event, args: event == "compile" and not str(args[1]).endswith(".py")
                 and generated.append(str(args[1])))
import cavityvdw.cli
print(json.dumps(generated))
"""


def test_importing_the_cli_generates_no_code_beyond_three_namedtuples():
    # a compile event whose file is no module's source is code made at run
    # time: one per collections.namedtuple (its __new__), and none for the
    # annotations typing.NamedTuple would compile into ForwardRefs
    assert len(_fresh_interpreter(COMPILE_CHILD)) <= 3
