"""The contract of config.load_config and of the CLI flags.

A canonical command line is read without argparse and gives argparse's
arguments exactly; every other one is left to argparse. A config written in
the block subset is read without PyYAML, to the data yaml.safe_load gives
it, and every other document, malformed ones included, by safe_load.

Every rejection path of the loader is one row below: a YAML config and the
exact message its ConfigError carries. The CLI rows give each flag's value
and provenance in the manifest, the subcommand against a config's own
mode, and YAML values that a flag replaces, which are still validated.

The messages are those the loader gave before its keys were declared in
one settings table, with one exception: a --tolerance <= 0 used to be
reported as "tolerance: must be > 0" and now names the key the flag sets,
"tolerances.xcheck: must be > 0".
"""

import hashlib
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityvdw import config
from cavityvdw.cli import _build_parser, _canonical_args, main
from cavityvdw.config import load_config
from cavityvdw.errors import ConfigError

TESTS = Path(__file__).parent

PLANAR = """\
scenario: planar
cavity:
  d: 1.0e-6
  delta: 1.0e-3
  nu: 1
"""

FREE = """\
scenario: free-space
atoms:
  omega10: 2.0e15
  position_a: [0.0, 0.0, 0.0]
  position_b: [0.0, 0.0, 2.0e-7]
"""

MODES = "scan-rabi, dressed, potential, force, weak-limit, kk-check, xcheck"


def _planar_with(**sections: str) -> str:
    return PLANAR + "".join(f"{name}:\n{body}" for name, body in sections.items())


REJECTED = [
    # file and document structure
    ("scenario: planar\ncavity: [unclosed\n",
     "config: parse error at line 3, column 1: expected ',' or ']', but got '<stream end>'"),
    ("a: b: c\n", "config: parse error at line 1, column 5: mapping values are not allowed here"),
    ("x: !!python/object:os.system {}\n",
     "config: parse error at line 1, column 4: could not determine a constructor for the tag "
     "'tag:yaml.org,2002:python/object:os.system'"),
    ("- 1\n", "config: top level must be a mapping"),
    ("3\n", "config: top level must be a mapping"),
    (PLANAR + "extra: 1\n", "extra: unknown key"),
    (PLANAR + "  gamma_nu: 1.0\n", "cavity.gamma_nu: unknown key"),
    (PLANAR + "atoms: [1, 2]\n", "atoms: expected a mapping of settings"),
    (PLANAR + "output: csv\n", "output: expected a mapping of settings"),
    (_planar_with(sweep="  step: 2\n"), "sweep.step: unknown key"),
    (_planar_with(tolerances="  kk: 1.0\n"), "tolerances.kk: unknown key"),
    # top-level keys
    ("", "scenario: required but not set"),
    ("cavity:\n  d: 1.0e-6\n  delta: 1.0e-3\n  nu: 1\n", "scenario: required but not set"),
    ("scenario: box\n", "scenario: must be one of free-space, planar"),
    ("scenario: 3\n", "scenario: expected a string"),
    (PLANAR + "mode: bogus\n", f"mode: must be one of {MODES}"),
    (FREE + "mode: scan-rabi\n", "mode: 'scan-rabi' requires scenario 'planar'"),
    (FREE + "mode: kk-check\n", "mode: 'kk-check' requires scenario 'planar'"),
    (PLANAR + "variant: sideways\n", "variant: must be one of corrected, as-printed"),
    (PLANAR + "seed: 1.5\n", "seed: expected an integer"),
    (PLANAR + "seed: true\n", "seed: expected an integer"),
    (PLANAR + "seed: -1\n", "seed: must be >= 0"),
    # cavity
    ("scenario: planar\ncavity:\n  delta: 1.0e-3\n  nu: 1\n", "cavity.d: required but not set"),
    ("scenario: planar\n", "cavity.d: required but not set"),
    (PLANAR.replace("d: 1.0e-6", "d: abc"), "cavity.d: expected a number"),
    (PLANAR.replace("d: 1.0e-6", "d: true"), "cavity.d: expected a number"),
    (PLANAR.replace("d: 1.0e-6", "d: [1.0]"), "cavity.d: expected a number"),
    (PLANAR.replace("d: 1.0e-6", "d: .inf"), "cavity.d: must be finite"),
    (PLANAR.replace("d: 1.0e-6", "d: .nan"), "cavity.d: must be finite"),
    (PLANAR.replace("d: 1.0e-6", "d: -1.0e-6"), "cavity.d: must be > 0"),
    ("scenario: planar\ncavity:\n  d: 1.0e-6\n  nu: 1\n", "cavity.delta: required but not set"),
    (PLANAR.replace("delta: 1.0e-3", "delta: 0.5"),
     "cavity.delta: must satisfy 0 < delta < 0.1 (model-validity bound)"),
    (PLANAR.replace("delta: 1.0e-3", "delta: 0.0"),
     "cavity.delta: must satisfy 0 < delta < 0.1 (model-validity bound)"),
    ("scenario: planar\ncavity:\n  d: 1.0e-6\n  delta: 1.0e-3\n", "cavity.nu: required but not set"),
    (PLANAR.replace("nu: 1", "nu: 1.5"), "cavity.nu: expected an integer"),
    (PLANAR.replace("nu: 1", "nu: 0"), "cavity.nu: must be >= 1"),
    # atoms, planar
    (_planar_with(atoms="  position_a: [0, 0, 0]\n"),
     "atoms.position_a: not applicable to scenario 'planar' (use atoms.z_a)"),
    (_planar_with(atoms="  position_b: [0, 0, 0]\n"),
     "atoms.position_b: not applicable to scenario 'planar' (use atoms.z_b)"),
    (_planar_with(atoms="  position_a: null\n"),
     "atoms.position_a: not applicable to scenario 'planar' (use atoms.z_a)"),
    (_planar_with(atoms="  z_a: 2.0e-6\n"), "atoms.z_a: must lie within [0, cavity.d]"),
    (_planar_with(atoms="  z_b: -1.0e-9\n"), "atoms.z_b: must lie within [0, cavity.d]"),
    (_planar_with(atoms="  z_a: middle\n"), "atoms.z_a: expected a number"),
    (_planar_with(atoms="  omega10: -1.0\n"), "atoms.omega10: must be > 0"),
    (_planar_with(atoms="  omega10: 0.0\n"), "atoms.omega10: must be > 0"),
    (_planar_with(atoms="  dipole_norm: 0.0\n"), "atoms.dipole_norm: must be > 0"),
    (_planar_with(atoms="  orientation: z\n"),
     "atoms.orientation: scenario 'planar' supports x-aligned dipoles only"),
    (_planar_with(atoms="  orientation: [1.0, 1.0, 0.0]\n"),
     "atoms.orientation: scenario 'planar' supports x-aligned dipoles only"),
    # atoms, free space
    (FREE + "cavity:\n  d: 1.0e-6\n", "cavity.d: not applicable to scenario 'free-space'"),
    (FREE + "cavity:\n  delta: 1.0e-3\n", "cavity.delta: not applicable to scenario 'free-space'"),
    (FREE + "cavity:\n  nu: 1\n", "cavity.nu: not applicable to scenario 'free-space'"),
    (FREE + "  z_a: 1.0e-7\n",
     "atoms.z_a: not applicable to scenario 'free-space' (use atoms.position_a)"),
    (FREE + "  z_b: 1.0e-7\n",
     "atoms.z_b: not applicable to scenario 'free-space' (use atoms.position_b)"),
    ("scenario: free-space\n", "atoms.omega10: required but not set"),
    (FREE.replace("omega10: 2.0e15", "omega10: -2.0e15"), "atoms.omega10: must be > 0"),
    (FREE.replace("omega10: 2.0e15", "omega10: 2.0e15x"), "atoms.omega10: expected a number"),
    (FREE.replace("[0.0, 0.0, 0.0]", "[0.0, 0.0]"), "atoms.position_a: expected a list of 3 numbers"),
    (FREE.replace("[0.0, 0.0, 0.0]", "origin"), "atoms.position_a: expected a list of 3 numbers"),
    (FREE.replace("[0.0, 0.0, 0.0]", "[0.0, x, 0.0]"), "atoms.position_a[1]: expected a number"),
    (FREE.replace("[0.0, 0.0, 2.0e-7]", "[0.0, 0.0, .inf]"), "atoms.position_b[2]: must be finite"),
    (FREE.replace("[0.0, 0.0, 2.0e-7]", "[0.0, 0.0, 0.0]"),
     "atoms.position_b: must differ from atoms.position_a"),
    ("scenario: free-space\natoms:\n  omega10: 2.0e15\n  position_b: [0.0, 0.0, 0.0]\n",
     "atoms.position_b: must differ from atoms.position_a"),
    (FREE + "  dipole_norm: -1.0e-29\n", "atoms.dipole_norm: must be > 0"),
    (FREE + "  dipole_norm: big\n", "atoms.dipole_norm: expected a number"),
    (FREE + "  orientation: w\n", "atoms.orientation: expected 'x', 'y', 'z', or a list of 3 numbers"),
    (FREE + "  orientation: [0.0, 0.0, 0.0]\n", "atoms.orientation: must be a nonzero direction"),
    (FREE + "  orientation: [1.0, 2.0]\n", "atoms.orientation: expected a list of 3 numbers"),
    (FREE + "  orientation: 5\n", "atoms.orientation: expected a list of 3 numbers"),
    (FREE + "  orientation: [1.0, false, 0.0]\n", "atoms.orientation[1]: expected a number"),
    # sweep
    (_planar_with(sweep="  points: 0\n"), "sweep.points: must be >= 1"),
    (_planar_with(sweep="  points: many\n"), "sweep.points: expected an integer"),
    (_planar_with(sweep="  target: C\n"), "sweep.target: must be one of joint, A, B"),
    (_planar_with(sweep="  target: 1\n"), "sweep.target: expected a string"),
    (_planar_with(sweep="  span: [0.5]\n"), "sweep.span: expected a list [low, high]"),
    (_planar_with(sweep="  span: 0.5\n"), "sweep.span: expected a list [low, high]"),
    (_planar_with(sweep="  span: [0.9, 0.1]\n"), "sweep.span: must satisfy low < high"),
    (_planar_with(sweep="  span: [0.5, 0.5]\n"), "sweep.span: must satisfy low < high"),
    (_planar_with(sweep="  span: [y, 0.5]\n"), "sweep.span[0]: expected a number"),
    (_planar_with(sweep="  span: [0.1, .nan]\n"), "sweep.span[1]: must be finite"),
    (_planar_with(sweep="  span: [-0.1, 0.5]\n"),
     "sweep.span: must lie within [0, 1] (fractions of cavity.d)"),
    (_planar_with(sweep="  span: [0.5, 1.5]\n"),
     "sweep.span: must lie within [0, 1] (fractions of cavity.d)"),
    (FREE + "sweep:\n  span: [0.0, 2.0]\n",
     "sweep.span: must be > 0 (multiples of the configured separation)"),
    (FREE + "sweep:\n  span: [2.0, 1.0]\n", "sweep.span: must satisfy low < high"),
    (_planar_with(sweep="  kk_offsets: [50.0]\n"),
     "sweep.kk_offsets: offsets must be at least 100 mode widths from resonance "
     "(asymptotic-regime comparison)"),
    (_planar_with(sweep="  kk_offsets: []\n"),
     "sweep.kk_offsets: expected a non-empty list of numbers"),
    (_planar_with(sweep="  kk_offsets: 500.0\n"),
     "sweep.kk_offsets: expected a non-empty list of numbers"),
    (_planar_with(sweep="  kk_offsets: [500.0, z]\n"), "sweep.kk_offsets[1]: expected a number"),
    (_planar_with(sweep="  weak_ratios: [1.0, -1.0]\n"), "sweep.weak_ratios: ratios must be > 0"),
    (_planar_with(sweep="  weak_ratios: []\n"),
     "sweep.weak_ratios: expected a non-empty list of numbers"),
    (_planar_with(sweep="  theta: 3.2\n"), "sweep.theta: must lie within [0, pi)"),
    (_planar_with(sweep="  theta: -0.1\n"), "sweep.theta: must lie within [0, pi)"),
    (_planar_with(sweep="  theta: half\n"), "sweep.theta: expected a number"),
    # tolerances and output
    (_planar_with(tolerances="  quadrature_rel: 0.0\n"), "tolerances.quadrature_rel: must be > 0"),
    (_planar_with(tolerances="  quadrature_rel: tight\n"),
     "tolerances.quadrature_rel: expected a number"),
    (_planar_with(tolerances="  xcheck: -1.0\n"), "tolerances.xcheck: must be > 0"),
    (_planar_with(tolerances="  xcheck: [1.0]\n"), "tolerances.xcheck: expected a number"),
    (_planar_with(output="  path: 3\n"), "output.path: expected a string"),
    (_planar_with(output="  format: xml\n"), "output.format: must be one of csv, jsonl"),
]


@pytest.mark.parametrize("text,message", REJECTED, ids=[message for _, message in REJECTED])
def test_config_rejection_names_key_and_constraint(tmp_path, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as caught:
        load_config(path)
    assert str(caught.value) == message


def test_config_unreadable_source(tmp_path):
    with pytest.raises(ConfigError) as caught:
        load_config(tmp_path / "nope.yaml")
    assert str(caught.value) == f"config: file not found: {tmp_path / 'nope.yaml'}"
    with pytest.raises(ConfigError) as caught:
        load_config(tmp_path)
    assert str(caught.value) == (
        f"config: unreadable: {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'")
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"a: \x80\n")
    with pytest.raises(ConfigError) as caught:
        load_config(bad)
    assert str(caught.value) == ('config: parse error: unacceptable character #x0080: '
                                 'invalid start byte\n  in "<byte string>", position 3')


# --------------------------------------------------------------------- CLI

def _run(tmp_path, capsys, text, argv):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    code = main([*argv[:1], "--config", str(cfg), *argv[1:]])
    return code, capsys.readouterr().err


def _manifest(table: Path) -> dict:
    return json.loads(Path(f"{table}.manifest.json").read_text())


@pytest.mark.parametrize("flag,value,key,field,setting", [
    ("--format", "jsonl", "output.format", None, "jsonl"),
    ("--variant", "as-printed", "variant", "variant", "as-printed"),
    ("--tolerance", "1e-3", "tolerances.xcheck", None, 1.0e-3),
])
def test_cli_flag_sets_its_key_with_user_provenance(tmp_path, capsys, flag, value, key, field,
                                                    setting):
    out = tmp_path / "t.dat"
    code, err = _run(tmp_path, capsys, PLANAR, ["scan-rabi", "--out", str(out), flag, value])
    assert (code, err) == (0, "")
    manifest = _manifest(out)
    assert manifest["provenance"][key] == "user"
    if field is not None:
        assert manifest[field] == setting
    if key == "tolerances.xcheck":
        assert manifest["tolerances"]["xcheck"] == setting
    if key == "output.format":
        assert out.read_text().startswith("{")
    assert manifest["provenance"]["output.path"] == "user"
    assert manifest["provenance"]["mode"] == "default"


def test_cli_without_flags_records_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = _run(tmp_path, capsys, PLANAR, ["dressed"])
    assert (code, err) == (0, "")
    manifest = _manifest(tmp_path / "cavityvdw-dressed.csv")
    assert manifest["mode"] == "dressed" and manifest["variant"] == "corrected"
    for key in ("mode", "output.path", "output.format", "variant", "tolerances.xcheck"):
        assert manifest["provenance"][key] == "default"


def test_cli_mode_set_in_config_and_by_subcommand(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, err = _run(tmp_path, capsys, PLANAR + "mode: dressed\n", ["dressed", "--out", str(out)])
    assert (code, err) == (0, "")
    assert _manifest(out)["provenance"]["mode"] == "user"


@pytest.mark.parametrize("text,argv,message", [
    (PLANAR + "mode: dressed\n", ["scan-rabi"],
     "mode: config sets 'dressed' but the subcommand is 'scan-rabi'"),
    (FREE + "mode: potential\n", ["xcheck"],
     "mode: config sets 'potential' but the subcommand is 'xcheck'"),
    (FREE, ["scan-rabi"], "mode: 'scan-rabi' requires scenario 'planar'"),
    (FREE, ["weak-limit"], "mode: 'weak-limit' requires scenario 'planar'"),
    # a YAML value that a flag replaces is still validated
    (_planar_with(output="  path: 3\n"), ["scan-rabi", "--out", "x.csv"],
     "output.path: expected a string"),
    (_planar_with(output="  format: xml\n"), ["scan-rabi", "--format", "csv"],
     "output.format: must be one of csv, jsonl"),
    (PLANAR + "variant: bogus\n", ["scan-rabi", "--variant", "corrected"],
     "variant: must be one of corrected, as-printed"),
    (_planar_with(tolerances="  xcheck: -1.0\n"), ["scan-rabi", "--tolerance", "1e-3"],
     "tolerances.xcheck: must be > 0"),
    # the one message that changed: it named the flag, "tolerance: must be > 0"
    (PLANAR, ["scan-rabi", "--tolerance", "0"], "tolerances.xcheck: must be > 0"),
    (PLANAR, ["xcheck", "--tolerance=-1e-3"], "tolerances.xcheck: must be > 0"),
])
def test_cli_rejects_config_and_flags_by_key(tmp_path, capsys, text, argv, message):
    code, err = _run(tmp_path, capsys, text, argv)
    assert (code, err) == (1, f"error: {message}\n")
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_tolerance_must_be_finite(tmp_path, capsys, value):
    # the flag is checked like tolerances.xcheck in the YAML; before, a NaN
    # gate failed every xcheck row and an infinite one passed every row
    code, err = _run(tmp_path, capsys, PLANAR, ["xcheck", "--tolerance", value])
    assert (code, err) == (1, "error: tolerances.xcheck: must be finite\n")


# ----------------------------------------------------- argv without argparse

FLAGS = ["--config", "--out", "--format", "--variant", "--tolerance"]
# spellings argparse reads or refuses, which the canonical reader leaves to it
OTHER_FLAGS = ["--conf", "--o", "--form", "--var", "--tol", "--h", "--config=run.yaml",
               "--format=csv", "--tolerance=1e-3", "--out=", "-h", "--help", "--", "--bogus",
               "-c"]
VALUES = ["run.yaml", "out/t.csv", "csv", "jsonl", "xml", "CSV", "corrected", "as-printed",
          "1e-3", "0.5", "nan", "inf", "-inf", "1_0", "-1", "-2.5e-3", "-x", "--", "-", "",
          " 1", "1 ", "scan-rabi"]
flags = st.one_of(st.sampled_from(FLAGS), st.sampled_from(OTHER_FLAGS))
values = st.one_of(st.sampled_from(VALUES), st.text(max_size=4))
pairs = st.lists(st.tuples(flags, values), max_size=4).map(
    lambda drawn: [token for pair in drawn for token in pair])
tokens = st.lists(st.one_of(flags, values), max_size=8)


def _argparse_args(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def _same_args(fast, parsed):
    # equal values of equal types, a NaN tolerance matching a NaN one
    return parsed is not None and fast.keys() == parsed.keys() and all(
        type(fast[k]) is type(parsed[k]) and (fast[k] == parsed[k] or fast[k] != fast[k]
                                              and parsed[k] != parsed[k])
        for k in fast)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from([*config.MODES, "bogus", "", "-h", "--config"]),
       with_config=st.booleans(), rest=st.one_of(pairs, tokens))
def test_canonical_reader_gives_argparse_arguments_or_none(mode, with_config, rest):
    argv = [mode, *(["--config", "run.yaml"] if with_config else []), *rest]
    fast = _canonical_args(argv)
    assert fast is None or _same_args(fast, _argparse_args(argv)), argv


@pytest.mark.parametrize("rest,canonical", [
    (["--out", ""], True), (["--tolerance", "nan"], True), (["--tolerance", "1_0"], True),
    (["--tolerance", " 1"], True), (["--out", "a", "--out", "b"], True),
    (["--format", "jsonl", "--variant", "as-printed"], True), (["--out", "-x"], False),
    (["--out", "--"], False), (["--out", "-"], False), (["--tolerance", "-1"], False),
    (["--tolerance", "-inf"], False), (["--format", "xml"], False), (["--variant", "CSV"], False),
    (["--tolerance", "abc"], False), (["--tolerance", "1e-3", "--tolerance", "x"], False),
    (["--config=run.yaml"], False), (["--conf", "run.yaml"], False), (["-h"], False),
    (["--", "x"], False), (["--out"], False),
])
@pytest.mark.parametrize("with_config", [True, False])
def test_canonical_reader_on_edge_spellings(rest, canonical, with_config):
    argv = ["force", *(["--config", "run.yaml"] if with_config else []), *rest]
    fast = _canonical_args(argv)
    assert (fast is not None) == (canonical and with_config)
    assert fast is None or _same_args(fast, _argparse_args(argv))


def _readme_command_lines():
    text = (TESTS.parent / "README.md").read_text()
    cli = text[text.index("\n## CLI\n"):]
    block = cli[cli.index("```sh"):cli.index("```", cli.index("```sh") + 3)]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cavityvdw ")]


def test_readme_command_lines_are_read_without_argparse():
    lines = _readme_command_lines()
    assert sorted(argv[0] for argv in lines) == sorted(config.MODES)
    for argv in lines:
        assert _same_args(_canonical_args(argv), _argparse_args(argv)), argv


# ------------------------------------------------ the block reader and PyYAML


def _outcome(load, raw):
    try:
        return "data", repr(load(raw))
    except Exception as exc:  # PyYAML raises IndexError for some tags
        return "error", type(exc).__name__, str(exc)


def _readme_yaml_blocks():
    text = (TESTS.parent / "README.md").read_text()
    section = text[text.index("\n## Configuration\n"):text.index("\n## Library example\n")]
    return [block.split("```")[0] for block in section.split("```yaml\n")[1:]]


PLANAR_SPEC = {"scenario": "planar", "variant": "corrected", "seed": 3, "mode": "force",
               "cavity": {"d": 1.0e-6, "delta": 1.0e-3, "nu": 2},
               "atoms": {"z_a": 2.5e-7, "z_b": 6.0e-7, "omega10": 1.8836215673088532e+15,
                         "dipole_norm": 1.0e-29},
               "sweep": {"points": 200, "span": [0.001, 0.999], "target": "A", "theta": 0.6,
                         "kk_offsets": [-1000.0, -300.0, 100.0, 1000.0],
                         "weak_ratios": [10.0, 100.0]},
               "output": {"path": "/tmp/run-7/planar_force.jsonl", "format": "jsonl"}}
FREE_SPEC = {"scenario": "free-space", "variant": "as-printed", "seed": 0, "mode": "potential",
             "atoms": {"position_a": [0.0, 0.0, 0.0], "position_b": [0.0, 0.0, 1.0e-7],
                       "omega10": 2.0e+15, "dipole_norm": 1.0e-29,
                       "orientation": [1.0, 0.0, 0.0]},
             "sweep": {"points": 41, "span": [0.5, 2.0]},
             "output": {"path": "out.csv", "format": "csv"}}
# every config the program's tests and README ship, and the shape of those
# the benchmark writes with yaml.safe_dump
READER_DOCUMENTS = (
    [(path.relative_to(TESTS).as_posix(), path.read_bytes())
     for path in sorted(TESTS.rglob("*.yaml"))]
    + [(f"README.md block {i}", block.encode()) for i, block in enumerate(_readme_yaml_blocks())]
    + [(f"safe_dump {name} {sort_keys}", yaml.safe_dump(spec, sort_keys=sort_keys).encode())
       for name, spec in (("planar", PLANAR_SPEC), ("free-space", FREE_SPEC))
       for sort_keys in (False, True)])


@pytest.mark.parametrize("name,raw", READER_DOCUMENTS, ids=[name for name, _ in READER_DOCUMENTS])
def test_shipped_configs_are_read_without_pyyaml(name, raw):
    # the start-up gain rests on these configs never reaching yaml.safe_load
    assert repr(config._read_block(raw)) == repr(yaml.safe_load(raw))


def test_readme_has_two_yaml_examples():
    assert len(_readme_yaml_blocks()) == 2


@pytest.mark.parametrize("path", sorted(TESTS.rglob("*.yaml")), ids=lambda path: path.name)
def test_yaml_files_load_as_safe_load_loads_them(path):
    raw = path.read_bytes()
    assert _outcome(config._parse_yaml, raw) == _outcome(yaml.safe_load, raw)


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=8), st.sampled_from(["planar", "2.0e15", "1e-3", "x"]))
setting_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@st.composite
def config_documents(draw):
    """YAML text of a mapping of config keys, known or not, to values."""
    doc: dict = {}
    paths = sorted({s.path for s in config.SETTINGS}) + ["bogus", "sweep.bogus"]
    for path in draw(st.lists(st.sampled_from(paths), unique=True)):
        section, _, key = path.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = draw(setting_values)
    return yaml.safe_dump(doc, default_flow_style=draw(st.sampled_from([False, True, None])),
                          sort_keys=draw(st.booleans()), width=draw(st.sampled_from([20, 80])),
                          indent=draw(st.sampled_from([2, 4])),
                          explicit_start=draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(text=config_documents())
def test_config_documents_load_as_safe_load_loads_them(text):
    raw = text.encode("utf-8")
    assert _outcome(config._parse_yaml, raw) == _outcome(yaml.safe_load, raw)


# pieces of documents: YAML indicators, line breaks, numbers, and what
# scanners read differently (a tab after a value, "|#", a bare "!" tag, BOMs)
PIECES = [*"ab:-[]{},#'\"|>!&*?%@`.\\", "\t", "\r", "\n", "\n  ", "\n- ", " ", ": ", "1.0e-6",
          "1_000", ".nan", "~", "yes", "!!float", "!!str", "|#", "<<: ", "---", "...", "\ufeff",
          "\x00", "\x85", "\u2028", "é", "%YAML 1.1\n"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
       encoding=st.sampled_from(["utf-8", "utf-16"]))
def test_every_document_loads_as_safe_load_loads_it(text, encoding):
    # the same data, or the same exception with the same text, so every
    # ConfigError message stays PyYAML's
    raw = text.encode(encoding)
    assert _outcome(config._parse_yaml, raw) == _outcome(yaml.safe_load, raw)


# the edges of the block subset: words SafeLoader resolves, in every case,
# numbers in and out of the subset, "#" with and without a space before it,
# scalars with spaces, quotes, tags, anchors and aliases
RESERVED = [form for word in ("yes", "no", "true", "false", "on", "off", "null")
            for form in (word, word.upper(), word.title(), word[:-1] + word[-1].upper())]
IN_SUBSET = ["a", "d", "x", "Nul", "oN", "planar", "free-space", "/tmp/o.csv", "_k", "0", "1",
             "-0", "+1", "-12", "1.", "0.0", "-0.0", "01.5", "1.0e-6", "1.0E+6", "1.e+5",
             "1" * 30]
OUT_OF_SUBSET = [*RESERVED, "~", "<<", "=", "01", "007", "09", "1_000", "0x1f", "0b11", "0o7",
                 "1:30", "2020-01-01", ".5", "-.5", "+.5", "2.0e15", "1e5", ".inf", "-.inf",
                 ".nan", "b#c", "b # c", "a b", "'q'", '"q"', "!!str 1", "&x 1", "*x", "a:b",
                 "-", "- 1", "?", "[1]", "|", ">"]
KEYS = ["a", "b", "c", "d", "x", "1", "-1", "1.5"]
OUT_OF_SUBSET_KEYS = ["on", "ON", "Null", "null", "01", "yes", "2.0e15", "a b", "~", "- a"]
FLOWS = ["[]", "[ ]", "[1,2]", "[ 1 , 2 ]", "[x, 1.5, -0]"]
OUT_OF_SUBSET_FLOWS = ["[1,]", "[1, 2,]", "[,]", "[[1], 2]", "[1, [2]]", "[1]#c", "[1] x", "[1",
                       "{a: 1}", "[on, 2.0e15]"]
COMMENTS = ["", "", "", " # c", "  #c: d", " #"]


@st.composite
def block_edge_documents(draw):
    """Documents at the edges of the block subset: mappings one to three
    levels deep, indented and indentless sequences, indents of 1-4 mixed,
    duplicate keys, empty values, comment-only and empty documents, CRLF
    line breaks and tabs. Half of them draw only what the reader reads,
    so that they reach its structure."""
    edgy = draw(st.booleans())

    def pick(within, beyond):
        return draw(st.sampled_from(within + beyond if edgy else within))

    def value(depth, indent):
        kind = draw(st.sampled_from(["scalar", "flow", "empty", "map", "seq"]))
        if kind in ("scalar", "flow"):
            text = pick(IN_SUBSET, OUT_OF_SUBSET) if kind == "scalar" else \
                pick(FLOWS, OUT_OF_SUBSET_FLOWS)
            return [" " + text + pick(COMMENTS, ["#c"])]
        if kind == "empty" or depth == (3 if edgy else 2) and kind == "map":
            return [pick(COMMENTS, ["#c"])]
        step = pick([0, 1, 2, 4], []) if kind == "seq" else pick([1, 2, 3, 4], [])
        inner = " " * (indent + step)
        if kind == "seq":
            items = [pick(IN_SUBSET + FLOWS, OUT_OF_SUBSET + OUT_OF_SUBSET_FLOWS + [""])
                     for _ in range(draw(st.integers(0, 3)))]
            return [pick(COMMENTS, [])] + [f"{inner}-{' ' + item if item else ''}"
                                           f"{pick(COMMENTS, [])}" for item in items]
        return [pick(COMMENTS, [])] + mapping(depth + 1, indent + step)

    def mapping(depth, indent):
        lines = []
        for _ in range(draw(st.integers(0 if depth == 1 else 1, 3))):
            jitter = pick([0], [0] * 10 + [1, -1])
            head, *rest = value(depth, indent)
            lines += [" " * max(indent + jitter, 0) + pick(KEYS, OUT_OF_SUBSET_KEYS) + ":" + head]
            lines += rest
        return lines

    lines = mapping(1, pick([0], [0] * 9 + [1]))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     pick(["", "   ", "# note", "  # note: x"], ["---", "..."]))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    if edgy and draw(st.integers(0, 4)) == 0:
        text = text.replace("\n", "\r\n")
    if edgy and text and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\t" + text[at:]
    return text


@settings(max_examples=500, deadline=None)
@given(text=block_edge_documents())
def test_block_edge_documents_load_as_safe_load_loads_them(text):
    raw = text.encode("ascii")
    assert _outcome(config._parse_yaml, raw) == _outcome(yaml.safe_load, raw), text


@pytest.mark.parametrize("raw", [
    b"a: 1\t\n", b"cavity:\n  d: 1.0e-6\t# m\n", b"a: [1,\t2]\n", b"a: !\n", b"!",
    b"a: |#\n  x\n", b"\xef\xbb\xbf|#", "|#".encode("utf-16"), b"", b"# only a comment\n",
    b"\n  \n", b"a: b#c\n", b"a: b # c\n", b"on: 1\n", b"1: a\n", b"null: 1\n",
    b"a: 2.0e15\n", b"a: 1\na: 2\n", b"a:\n- 1\n- 2\nb: [1, 2,]\n", b"a:\r\n  b: 1\r\n",
    b"a:\n  b:\n    c: 1\n", b"a: 1\n  b: 2\n", b"---\na: 1\n",
])
def test_edge_documents_load_as_safe_load_loads_them(raw):
    # a tab after a value, "|#", a bare "!" tag: documents that libyaml,
    # the parser before the block reader, read otherwise; then the reader's
    # own edges
    assert _outcome(config._parse_yaml, raw) == _outcome(yaml.safe_load, raw)


def test_config_loads_the_same_through_safe_load(monkeypatch):
    through_reader = load_config(TESTS / "goldens" / "planar.yaml")

    def decline(raw):
        raise config._Declined

    monkeypatch.setattr(config, "_read_block", decline)
    assert vars(load_config(TESTS / "goldens" / "planar.yaml")) == vars(through_reader)


@pytest.mark.parametrize("text,message", [
    ("cavity:\n  d: !!float\n", "config: parse error: string index out of range"),
    ("cavity:\n  d: !!timestamp 2020-13-45\n", "config: parse error: month must be in 1..12"),
])
def test_pyyaml_constructor_errors_are_config_errors(tmp_path, capsys, text, message):
    # PyYAML's constructor raises IndexError and ValueError for these
    code, err = _run(tmp_path, capsys, text, ["scan-rabi", "--out", str(tmp_path / "t.csv")])
    assert (code, err) == (1, f"error: {message}\n")


# ------------------------------------------------------------- config hash

@pytest.mark.parametrize("path", sorted(TESTS.rglob("*.yaml")), ids=lambda path: path.name)
def test_config_sha256_is_hashlib_sha256(path):
    raw = path.read_bytes()
    assert config._sha256(raw).hexdigest() == hashlib.sha256(raw).hexdigest()
    if path.parent.name == "goldens":
        assert load_config(path).source_sha256 == hashlib.sha256(raw).hexdigest()


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=300))
def test_config_sha256_of_any_bytes_is_hashlib_sha256(raw):
    assert config._sha256(raw).hexdigest() == hashlib.sha256(raw).hexdigest()
