"""Import contract: the package imports what pyproject.toml declares,
numpy and PyYAML, besides the standard library, with one listed exception;
no CLI mode and no fit_lorentzian call loads scipy; no CLI mode loads
numpy.polynomial or dataclasses, nor argparse, gettext or locale; no CLI
mode on the golden configs, and no load of README's full key set, loads
PyYAML; no closed-form mode loads OpenSSL's _hashlib; importing the CLI
generates no code beyond the two namedtuples' constructors; `import
cavityvdw` loads no submodule, every public name resolves on first access,
and no mode but xcheck loads greens or modecoupling; every name the
benchmark's tracer patches is there; and every public name is named by a
shipped route, or is a result type or free-space helper that a route runs
without naming it.

Every CLI mode evaluates closed forms or the numpy principal-value
quadrature, and the cavity Green's tensor runs on the same numpy panel
engine; fit_lorentzian is a numpy variable-projection fit. The panel
engine's Gauss-Legendre rule is written out, and the package's value
classes are Records, which generate no code. A canonical command line is
read without argparse, which serves only help and usage errors, and a
config in the block subset without PyYAML.
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
from cavityvdw import cli, quadrature
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
import cavityvdw

def package():
    return sorted(m for m in sys.modules if m.startswith("cavityvdw."))

report = {"codes": {}, "package": {"import cavityvdw": package()}}
from cavityvdw import cli

def loaded():
    return {top: sorted(m for m in sys.modules if m == top or m.startswith(top + "."))
            for top in ("scipy", "numpy.polynomial", "dataclasses", "argparse", "gettext",
                        "locale", "yaml", "_hashlib")}

report["import"] = loaded()
for stage, runs in zip(("closed_form", "quadrature"), json.loads(sys.argv[3])):
    for mode, config in runs:
        out = f"{sys.argv[2]}/{mode}-{config}.csv"
        report["codes"][f"{mode}:{config}"] = cli.main(
            [mode, "--config", f"{sys.argv[1]}/{config}.yaml", "--out", out])
        report["package"][f"{mode}:{config}"] = package()
    report[stage] = loaded()
from cavityvdw.modecoupling import fit_lorentzian
report["fit_width"] = fit_lorentzian([(w, 1.0 / (1.0 + (w - 4.0) ** 2)) for w in range(9)])[1]
report["fit"] = loaded()
star = {}
exec("from cavityvdw import *", star)
report["public"] = {"all": cavityvdw.__all__,
                    "attribute": [name for name in cavityvdw.__all__ if hasattr(cavityvdw, name)],
                    "dir": sorted(set(dir(cavityvdw)) & set(cavityvdw.__all__)),
                    "star": sorted(set(star) - {"__builtins__"})}
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


def test_each_cli_mode_loads_only_the_library_it_runs(cli_report):
    # the runs share one interpreter, in order, and xcheck's come last: no
    # run before it loads the Green's tensors or the coupling model
    package = dict(cli_report["package"])
    assert package.pop("import cavityvdw") == []
    assert list(package) == list(cli_report["codes"])
    for run, modules in package.items():
        if not run.startswith("xcheck:"):
            assert {"cavityvdw.greens", "cavityvdw.modecoupling"}.isdisjoint(modules), run
    assert "cavityvdw.greens" in package["xcheck:planar"]


def test_public_names_resolve_on_first_access(cli_report):
    public = cli_report["public"]
    assert len(public["all"]) == len(set(public["all"])) == 48
    assert public["attribute"] == public["all"]
    assert public["dir"] == public["star"] == sorted(public["all"])


def test_fit_lorentzian_does_not_import_scipy(cli_report):
    assert cli_report["fit_width"] == pytest.approx(2.0, rel=1e-12, abs=0.0)
    assert cli_report["fit"]["scipy"] == []


# imports that pyproject.toml's dependencies do not cover, each with its reason
UNDECLARED = {
    ("greens", "scipy"): "greens.quad imports scipy.integrate on first call: no quadrature "
                         "calls it, but the benchmark's tracer patches it by name",
}


# CPython's own modules that sys.stdlib_module_names lists in some of the
# versions pyproject.toml admits only: config hashes with whichever exists
OTHER_PYTHONS_STDLIB = {"_sha2": "3.12 on", "_sha256": "before 3.12"}


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
                   if top not in sys.stdlib_module_names and top != "cavityvdw"
                   and top not in OTHER_PYTHONS_STDLIB}
    assert {key for key, dists in third_party.items() if not dists & declared} == set(UNDECLARED)
    # and every declared dependency is imported
    assert declared <= set().union(*third_party.values())


@pytest.mark.parametrize("top", ["numpy.polynomial", "dataclasses"])
def test_no_cli_mode_loads_numpy_polynomial_or_dataclasses(cli_report, top):
    # the Gauss-Legendre rule is a literal, and Records generate no code
    assert [cli_report[stage][top] for stage in ("import", "closed_form", "quadrature")] \
        == [[], [], []]


@pytest.mark.parametrize("top", ["argparse", "gettext", "locale"])
def test_no_cli_mode_loads_argparse_gettext_or_locale(cli_report, top):
    # every golden command line is canonical, and argparse's gettext lookups
    # are what loaded locale
    assert [cli_report[stage][top] for stage in ("import", "closed_form", "quadrature")] \
        == [[], [], []]


def test_no_cli_mode_loads_yaml(cli_report):
    # every golden config is in the block subset, which config reads itself
    assert [cli_report[stage]["yaml"] for stage in ("import", "closed_form", "quadrature")] \
        == [[], [], []]


def test_no_closed_form_mode_loads_hashlib(cli_report):
    # the config is hashed by _sha256 (_sha2 from 3.12 on), not OpenSSL;
    # xcheck still loads _hashlib, through numpy.random, secrets and hmac
    assert [cli_report[stage]["_hashlib"] for stage in ("import", "closed_form")] == [[], []]


LOAD_CHILD = """
import json, sys
from cavityvdw.config import load_config
cfg = load_config(sys.argv[1])
print(json.dumps({"mode": cfg.mode, "loaded": sorted(
    m for m in sys.modules if m.split(".")[0] in ("yaml", "_hashlib"))}))
"""


def _readme_full_key_set():
    text = (SRC.parent / "README.md").read_text()
    config = text[text.index("\n## Configuration\n"):]
    block = config[config.index("```yaml", config.index("Full key set")):]
    return block[len("```yaml\n"):block.index("```", 3)]


def test_loading_the_readme_full_key_set_loads_no_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(_readme_full_key_set())
    assert _fresh_interpreter(LOAD_CHILD, str(path)) == {"mode": "scan-rabi", "loaded": []}


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    assert quadrature._GL_NODES.tobytes() == nodes.tobytes()
    assert quadrature._GL_WEIGHTS.tobytes() == weights.tobytes()
    assert not quadrature._GL_NODES.flags.writeable and not quadrature._GL_WEIGHTS.flags.writeable


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


TRACER_CHILD = """
import importlib.util, inspect, json, sys
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

def name(owner, attr):
    module = owner.__name__ if inspect.ismodule(owner) else owner.__module__
    prefix = module.rpartition(".")[2]
    if not inspect.ismodule(owner):
        prefix += "." + owner.__qualname__
    return f"{prefix}.{attr}"

t = tracer.Tracer()
t.start()
saved = list(t._saved)
replaced = {name(o, a): o.__dict__[a] is not orig for o, a, orig in saved}
t.stop()
print(json.dumps({name(o, a): {"replaced": replaced[name(o, a)],
                               "restored": o.__dict__[a] is orig} for o, a, orig in saved}))
"""

# every program name perfbench/tracer.py wraps, as <module>[.<class>].<attribute>
TRACER_PATCHES = [
    "cli.load_config", "cli.run", "cli.export", "cli.scan_rabi", "cli.force_theta",
    "cli.resonant_potential", "cli.kk_real_from_imag", "weakfield.kk_real_from_imag",
    "greens.kk_real_from_imag", "greens.planar_cavity_green",
    "greens.planar_scattering_components", "greens.quad", "modecoupling.coupling_strength_sq",
    "modecoupling.fit_lorentzian", "dressed.grad_rabi", "dressed.DressedSystem.from_coupling",
    "tabular.Table.__init__", "planarcavity.PlanarScenario.__post_init__",
    "planarcavity.PlanarScenario.rabi",
]


@pytest.fixture(scope="module")
def tracer_report():
    """perfbench/tracer.py's own start() and stop(), run in a fresh
    interpreter with its file only read: per patched name, whether start()
    replaced it and stop() put the original back."""
    return _fresh_interpreter(TRACER_CHILD, str(SRC.parent / "perfbench" / "tracer.py"))


def test_names_the_benchmark_tracer_patches_stay(tracer_report):
    # the tracer wraps the program's names where their callers look them up,
    # and its start() raises KeyError for a missing attribute, which fails
    # the fixture; so every name it patches is here
    assert sorted(tracer_report) == sorted(TRACER_PATCHES)


@pytest.mark.parametrize("name", TRACER_PATCHES)
def test_the_benchmark_tracer_wraps_and_restores(tracer_report, name):
    assert tracer_report[name] == {"replaced": True, "restored": True}


# public names that no shipped route names, though one runs them: result
# types, which a route gets back without naming them, and the free-space
# helpers, which a route runs through FreeSpaceGreens. Any other public name
# that no route reaches is deleted, not listed
UNREACHED = {
    "LorentzianFit": "result type of fit_lorentzian",
    "RabiBreakdown": "result type of rabi_contributions",
    "ResonantPotentialBreakdown": "result type of resonant_potential",
    "free_space_green": "called by FreeSpaceGreens.tensor",
    "free_space_im_green_coincident": "called by FreeSpaceGreens.tensor",
}


def test_every_public_name_is_reached_by_a_shipped_route():
    # reached: named in another package module, in an acceptance criterion
    # or in the benchmark
    package = SRC / "cavityvdw"
    home = cavityvdw._HOME
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


def test_importing_the_cli_generates_no_code_beyond_two_namedtuples():
    # a compile event whose file is no module's source is code made at run
    # time: one per collections.namedtuple (its __new__), and none for the
    # annotations typing.NamedTuple would compile into ForwardRefs
    assert len(_fresh_interpreter(COMPILE_CHILD)) <= 2
