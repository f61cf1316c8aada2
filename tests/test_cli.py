import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityvdw import _floatcells, cli
from cavityvdw.cli import EXPORT_BLOCK_ROWS, export, main, run
from cavityvdw.config import load_config
from cavityvdw.errors import ConfigError, DomainError
from cavityvdw.greens import PlanarCavity
from cavityvdw.tabular import Table

from oracles import SPECIAL_FLOATS, per_cell_export_text

SRC = Path(cli.__file__).resolve().parents[1]

MINIMAL = """\
scenario: planar
cavity:
  d: 1.0e-6
  delta: 1.0e-3
  nu: 1
"""

FREE_SPACE = """\
scenario: free-space
atoms:
  omega10: 2.0e15
  position_a: [0.0, 0.0, 0.0]
  position_b: [0.0, 0.0, 2.0e-7]
"""


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------ config

def test_minimal_config_defaults_and_provenance(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.scenario == "planar" and cfg.mode == "scan-rabi"
    assert cfg.z_a == pytest.approx(0.5e-6, abs=0.0) and cfg.z_b == pytest.approx(0.5e-6, abs=0.0)
    assert cfg.omega10 == pytest.approx(math.pi * 299792458.0 / 1.0e-6, rel=1e-15, abs=0.0)
    assert cfg.provenance["cavity.d"] == "user"
    assert cfg.provenance["atoms.z_a"] == "default"
    assert cfg.provenance["mode"] == "default"
    assert cfg.variant == "corrected" and cfg.out_format == "csv"
    assert len(cfg.source_sha256) == 64


def test_unknown_key_rejected_by_name(tmp_path):
    path = _write(tmp_path, MINIMAL + "  gamma_nu: 1.0\n")
    with pytest.raises(ConfigError, match="cavity.gamma_nu"):
        load_config(path)
    path2 = _write(tmp_path, MINIMAL + "extra: 1\n", "c2.yaml")
    with pytest.raises(ConfigError, match="extra"):
        load_config(path2)


def test_validation_names_key_and_constraint(tmp_path):
    bad_delta = MINIMAL.replace("delta: 1.0e-3", "delta: 0.5")
    with pytest.raises(ConfigError, match=r"cavity\.delta.*0\.1"):
        load_config(_write(tmp_path, bad_delta))
    with pytest.raises(ConfigError, match=r"cavity\.nu"):
        load_config(_write(tmp_path, MINIMAL.replace("nu: 1", "nu: 0"), "c2.yaml"))
    with pytest.raises(ConfigError, match=r"atoms\.z_a"):
        load_config(_write(tmp_path, MINIMAL + "atoms:\n  z_a: 2.0e-6\n", "c3.yaml"))
    with pytest.raises(ConfigError, match="scenario"):
        load_config(_write(tmp_path, "cavity:\n  d: 1.0e-6\n  delta: 1.0e-3\n  nu: 1\n", "c4.yaml"))


def test_parse_error_reports_line_and_column(tmp_path):
    path = _write(tmp_path, "scenario: planar\ncavity: [unclosed\n")
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))


def test_scenario_key_applicability(tmp_path):
    with pytest.raises(ConfigError, match=r"atoms\.position_a"):
        load_config(_write(tmp_path, MINIMAL + "atoms:\n  position_a: [0, 0, 0]\n"))
    with pytest.raises(ConfigError, match=r"cavity\.d"):
        load_config(_write(tmp_path, FREE_SPACE + "cavity:\n  d: 1.0e-6\n", "c2.yaml"))
    with pytest.raises(ConfigError, match="requires scenario 'planar'"):
        load_config(_write(tmp_path, FREE_SPACE + "mode: scan-rabi\n", "c3.yaml"))
    with pytest.raises(ConfigError, match=r"atoms\.omega10"):
        load_config(_write(tmp_path, "scenario: free-space\n", "c4.yaml"))


def test_planar_orientation_constraint(tmp_path):
    path = _write(tmp_path, MINIMAL + "atoms:\n  orientation: z\n")
    with pytest.raises(ConfigError, match="x-aligned"):
        load_config(path)
    cfg = load_config(_write(tmp_path, MINIMAL + "atoms:\n  orientation: x\n", "c2.yaml"))
    assert cfg.orientation == (1.0, 0.0, 0.0)


def test_kk_offsets_floor(tmp_path):
    path = _write(tmp_path, MINIMAL + "sweep:\n  kk_offsets: [50.0]\n")
    with pytest.raises(ConfigError, match="100 mode widths"):
        load_config(path)


# ------------------------------------------------------------------ export

def test_export_csv_shape_and_roundtrip(tmp_path):
    t = Table({"a": np.array([1.0 / 3.0, -2.5e-17, 4.0]),
               "b": np.array([1e300, 0.1, math.pi])})
    out = tmp_path / "t.csv"
    export(t, out, "csv")
    lines = out.read_text().split("\n")
    assert lines[0] == "a,b" and len(lines) == 5 and lines[-1] == ""
    for row, line in zip(t.rows, lines[1:4]):
        a, b = (float(v) for v in line.split(","))
        assert a == row["a"] and b == row["b"]


def test_export_jsonl_roundtrip(tmp_path):
    t = Table({"x": np.array([1.0 / 7.0]), "label": ["pass"]})
    out = tmp_path / "t.jsonl"
    export(t, out, "jsonl")
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["x"] == 1.0 / 7.0 and rec["label"] == "pass"


def test_export_empty_table_errors(tmp_path):
    with pytest.raises(DomainError, match="empty"):
        export(Table({"a": np.array([])}), tmp_path / "e.csv", "csv")


@pytest.mark.parametrize("value", ["a,b", 'say "x"', "two\nlines", "a\rb"])
def test_export_csv_refuses_cells_that_need_quoting(tmp_path, value):
    t = Table({"x": np.array([1.0, 2.0]), "s": ["ok", value]})
    out = tmp_path / "q.csv"
    with pytest.raises(DomainError, match="cell value needs quoting"):
        export(t, out, "csv")
    assert not out.exists()


def test_export_jsonl_escapes_strings(tmp_path):
    values = ["a,b", 'say "x"', "two\nlines", "100%", "\u00e9"]
    out = tmp_path / "q.jsonl"
    export(Table({"s": values, "x": np.arange(5.0)}), out, "jsonl")
    lines = out.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 6 and lines[-1] == ""
    assert [json.loads(line)["s"] for line in lines[:-1]] == values


def test_export_unknown_format_errors(tmp_path):
    with pytest.raises(DomainError, match="unknown format 'tsv'"):
        export(Table({"a": np.array([1.0])}), tmp_path / "t.tsv", "tsv")


ROW_COUNTS = (1, EXPORT_BLOCK_ROWS - 1, EXPORT_BLOCK_ROWS, EXPORT_BLOCK_ROWS + 1,
              2 * EXPORT_BLOCK_ROWS + 3)
# no surrogates (not encodable) and, in cells, nothing CSV would have to quote
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\n\r'),
                    max_size=5)
NAME_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n")
                    | st.sampled_from('%"'), max_size=4)


FIRST_BLOCK_KINDS = ("first-block copy", "first-block negated", "first-block constant",
                     "late-nan copy")


@st.composite
def export_tables(draw, kernel):
    """Columns of row counts around the block size, at least
    EXPORT_BLOCK_ROWS rows (a kernel table, unless it has a str column) or
    fewer as kernel says: random draws from a pool of special and arbitrary
    floats, constants, bit-identical copies of an earlier column, copies
    with the sign of every zero flipped, negations of an earlier column, and
    str columns; and columns that are a copy, the negation or constant only in the first
    block of EXPORT_BLOCK_ROWS rows, then other draws, or a copy of the
    last float column with a NaN after that block."""
    n = draw(st.sampled_from([n for n in ROW_COUNTS if (n >= EXPORT_BLOCK_ROWS) == kernel]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
    kinds = draw(st.lists(st.sampled_from(
        ("random", "constant", "copy", "zero-sign", "negated", "str", *FIRST_BLOCK_KINDS)),
        min_size=1, max_size=6))

    def drawn():
        pool = np.array(draw(st.lists(floats, min_size=1, max_size=6)) + [0.0, -0.0])
        return pool[rng.integers(len(pool), size=n)]

    columns = []
    for kind in kinds:
        earlier = [c for c in columns if isinstance(c, np.ndarray)]
        if kind == "late-nan copy" and earlier:
            col = earlier[-1].copy()
            col[EXPORT_BLOCK_ROWS + 1:EXPORT_BLOCK_ROWS + 2] = math.nan
        elif kind in FIRST_BLOCK_KINDS:
            if kind == "first-block constant" or not earlier:
                head = np.full(n, draw(floats))
            else:
                head = draw(st.sampled_from(earlier))
                head = -head if kind == "first-block negated" else head.copy()
            col = drawn()
            col[:EXPORT_BLOCK_ROWS] = head[:EXPORT_BLOCK_ROWS]
        elif kind == "negated" and earlier:
            col = -draw(st.sampled_from(earlier))
        elif kind in ("copy", "zero-sign") and earlier:
            col = draw(st.sampled_from(earlier)).copy()
            if kind == "zero-sign":
                zeros = col == 0.0
                col[zeros] = np.copysign(0.0, -np.copysign(1.0, col[zeros]))
        elif kind == "constant":
            col = np.full(n, draw(floats))
        elif kind == "str":
            pool = draw(st.lists(CELL_TEXT, min_size=1, max_size=4))
            col = [pool[i] for i in rng.integers(len(pool), size=n)]
        else:
            col = drawn()
        columns.append(col)
    names = [f"{text}{i}" for i, text in
             enumerate(draw(st.lists(NAME_TEXT, min_size=len(columns), max_size=len(columns))))]
    return names, columns


@pytest.mark.parametrize("kernel", [False, True], ids=["cpython", "kernel"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_export_writes_the_per_cell_bytes(tmp_path_factory, kernel, data):
    names, columns = data.draw(export_tables(kernel))
    table = Table(dict(zip(names, columns)))
    lists = [table.column(name) for name in names]
    out = tmp_path_factory.mktemp("export") / "t"
    for fmt in ("csv", "jsonl"):
        export(table, out, fmt)
        assert out.read_bytes() == per_cell_export_text(names, lists, fmt).encode("utf-8"), fmt


def test_export_decides_repeated_columns_over_the_whole_table(tmp_path):
    # export_tables draws these kinds too, but rarely at a row count past the
    # first block and next to the column they relate to (within its example
    # budget it misses finiteness decided from the first block alone); here
    # each is forced: columns that repeat, negate or hold constant another in
    # the first block only, and the negation of a column that turns NaN after
    # it. A column is formatted through an earlier one only where the
    # relation holds on every row, and through its negation only where it is
    # finite throughout.
    n = 2 * EXPORT_BLOCK_ROWS + 3
    rng = np.random.default_rng(25)

    def drawn():
        return rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)

    def first_block(head):
        col = drawn()
        col[:EXPORT_BLOCK_ROWS] = head[:EXPORT_BLOCK_ROWS]
        return col

    x = drawn()
    late_nan = x.copy()
    late_nan[EXPORT_BLOCK_ROWS + 1] = math.nan
    columns = {"x": x, "late_nan": late_nan, "negated": -late_nan, "copy": first_block(x),
               "negation": first_block(-x), "constant": first_block(np.full(n, 0.1))}
    table = Table(columns)
    names = list(columns)
    lists = [table.column(name) for name in names]
    out = tmp_path / "t"
    for fmt in ("csv", "jsonl"):
        export(table, out, fmt)
        assert out.read_bytes() == per_cell_export_text(names, lists, fmt).encode("utf-8"), fmt


def test_export_keeps_nul_and_control_characters_of_column_names(tmp_path, monkeypatch):
    # the kernel reads its rows out by deleting every NUL byte, so a NUL in
    # a separator would be lost; json.dumps escapes it in a JSON-lines key
    laid = []

    def counted(values, fmt, lay_out=_floatcells.lay_out):
        laid.append(len(values))
        return lay_out(values, fmt)

    monkeypatch.setattr(_floatcells, "lay_out", counted)
    rng = np.random.default_rng(22)
    controls = "".join(map(chr, range(32))).replace("\n", "")
    names = ["\x00", "a\x00b", controls, "\x7f\x00\x1b[0m", "\x00\x00é\x00"]
    n = EXPORT_BLOCK_ROWS + 5
    columns = [rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, size=n) for _ in names]
    table = Table(dict(zip(names, columns)))
    lists = [table.column(name) for name in names]
    for fmt in ("jsonl", "csv"):
        laid.clear()
        export(table, tmp_path / "t", fmt)
        assert sum(laid) == n * len(names), fmt
        assert (tmp_path / "t").read_bytes() == per_cell_export_text(names, lists, fmt).encode("utf-8")


def test_export_formats_a_negated_column_through_its_partner(tmp_path, monkeypatch):
    # values spelled by CPython or laid out by the kernel: 5000 rows are a
    # kernel table, laid out in every block, its last partial one included
    formatted = []
    for owner, name in ((cli, "_float_cells"), (_floatcells, "lay_out")):
        def counted(values, fmt, spell=getattr(owner, name)):
            formatted.append(len(values))
            return spell(values, fmt)

        monkeypatch.setattr(owner, name, counted)
    a = np.random.default_rng(5).normal(size=5000)
    assert 5000 > EXPORT_BLOCK_ROWS and 5000 % EXPORT_BLOCK_ROWS
    names = ("a", "minus_a", "a_third")
    table = Table(dict(zip(names, (a, -a, a / 3.0))))
    lists = [table.column(name) for name in names]
    for fmt in ("csv", "jsonl"):
        formatted.clear()
        export(table, tmp_path / "t", fmt)
        assert sum(formatted) == 10000, fmt
        expected = per_cell_export_text(names, lists, fmt).encode("utf-8")
        assert (tmp_path / "t").read_bytes() == expected, fmt


@pytest.mark.parametrize("n, kernel", [
    (EXPORT_BLOCK_ROWS - 1, False),
    (EXPORT_BLOCK_ROWS + 1, True),
    (2 * EXPORT_BLOCK_ROWS + 3, True),
])
def test_export_chooses_the_kernel_once_per_table(tmp_path, monkeypatch, n, kernel):
    # a table of at least EXPORT_BLOCK_ROWS float rows is laid out by the
    # kernel in every block, its last partial one of 1 or 3 rows included;
    # a smaller one never reaches it. Of the four columns two are distinct:
    # a copy and a negation are formatted through them
    laid = []

    def counted(values, fmt, lay_out=_floatcells.lay_out):
        laid.append(len(values))
        return lay_out(values, fmt)

    monkeypatch.setattr(_floatcells, "lay_out", counted)
    rng = np.random.default_rng(29)
    x, y = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-8, 8, size=(2, n))
    names = ("x", "y", "x_copy", "minus_y")
    table = Table(dict(zip(names, (x, y, x.copy(), -y))))
    lists = [table.column(name) for name in names]
    for fmt in ("csv", "jsonl"):
        laid.clear()
        export(table, tmp_path / "t", fmt)
        assert sum(laid) == (2 * n if kernel else 0), fmt
        expected = per_cell_export_text(names, lists, fmt).encode("utf-8")
        assert (tmp_path / "t").read_bytes() == expected, fmt


# --------------------------------------------------------------------- CLI

def test_cli_scan_rabi_runs_and_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["scan-rabi", "--config", cfg, "--out", out1]) == 0
    assert main(["scan-rabi", "--config", cfg, "--out", out2]) == 0
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2 and len(b1) > 0
    m1 = open(out1 + ".manifest.json", "rb").read()
    m2 = open(out2 + ".manifest.json", "rb").read()
    assert m1 == m2
    assert "wrote" in capsys.readouterr().out


def test_cli_xcheck_passes_and_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    out1, out2 = str(tmp_path / "x1.csv"), str(tmp_path / "x2.csv")
    assert main(["xcheck", "--config", cfg, "--out", out1]) == 0
    assert main(["xcheck", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    text = capsys.readouterr().out
    assert "[PASS] free-space-route-equivalence" in text
    assert "[PASS] force-gradient-corrected" in text
    assert "[PASS] force-as-printed-ratio" in text


def test_cli_xcheck_tolerance_failure_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "x.csv")
    code = main(["xcheck", "--config", cfg, "--out", out, "--tolerance", "1e-18"])
    assert code == 2
    body = open(out).read()
    assert ",fail" in body
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_validation_error_exits_1(tmp_path, capsys):
    bad = _write(tmp_path, MINIMAL.replace("delta: 1.0e-3", "delta: 0.5"))
    assert main(["scan-rabi", "--config", bad]) == 1
    assert "cavity.delta" in capsys.readouterr().err


def test_cli_mode_mismatch_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "mode: dressed\n")
    assert main(["scan-rabi", "--config", cfg]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_cli_scan_rabi_refuses_a_detuned_config_by_key(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "atoms:\n  omega10: 1.8e15\n")
    assert main(["scan-rabi", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
    assert "error [scan-rabi]: atoms.omega10: " in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_cli_weak_limit_refuses_zero_coupling_by_key(tmp_path, capsys):
    # nu = 2 at d/4 and 3d/4: s_A = 1 and s_B = -1 exactly
    cfg = _write(tmp_path, MINIMAL.replace("nu: 1", "nu: 2")
                 + "atoms:\n  z_a: 2.5e-7\n  z_b: 7.5e-7\n")
    assert main(["weak-limit", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
    assert "error [weak-limit]: atoms.z_a, atoms.z_b: " in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


# address-space limit of the child that is asked for a sweep far beyond it
MEMORY_MB = 1536


@pytest.mark.parametrize("mode, config", [("scan-rabi", MINIMAL), ("dressed", MINIMAL),
                                          ("potential", MINIMAL), ("force", MINIMAL),
                                          ("potential", FREE_SPACE)])
def test_cli_refuses_a_sweep_too_large_for_memory_by_key(tmp_path, mode, config):
    # 3e9 points need 24 GB per column: the allocation is refused, never made
    cfg = _write(tmp_path, config + "sweep:\n  points: 3000000000\n")
    limit = MEMORY_MB << 20
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-m", "cavityvdw.cli", mode, "--config", cfg, "--out", "t.csv"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 1
    assert proc.stderr == (f"error [{mode}]: sweep.points: 3000000000 points do not fit in "
                           f"memory\n")
    assert not (tmp_path / "t.csv").exists()


def test_cli_unwritable_path_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "no" / "such" / "dir" / "t.csv")
    assert main(["scan-rabi", "--config", cfg, "--out", out]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_variant_flag_recorded_and_applied(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "f.csv")
    assert main(["force", "--config", cfg, "--out", out,
                 "--variant", "as-printed"]) == 0
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["variant"] == "as-printed"
    assert manifest["provenance"]["variant"] == "user"
    header = open(out).readline().strip().split(",")
    assert "f_theta_corrected_z" in header and "f_theta_as_printed_z" in header
    # on resonance the two variants coincide
    row = open(out).readlines()[1].split(",")
    i_sel = header.index("f_theta_z")
    i_cor = header.index("f_theta_corrected_z")
    assert float(row[i_sel]) == pytest.approx(float(row[i_cor]), rel=1e-12, abs=0.0)


def test_cli_free_space_potential(tmp_path):
    cfg = _write(tmp_path, FREE_SPACE)
    out = str(tmp_path / "u.csv")
    assert main(["potential", "--config", cfg, "--out", out]) == 0
    lines = open(out).read().splitlines()
    header = lines[0].split(",")
    assert header[0] == "separation" and "u_interaction" in header
    # singles are excluded in free space, so total equals interaction
    i_int = header.index("u_interaction")
    i_tot = header.index("u_total")
    for line in lines[1:]:
        vals = line.split(",")
        assert float(vals[i_int]) == float(vals[i_tot])


def test_cli_weak_limit_table(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "w.csv")
    assert main(["weak-limit", "--config", cfg, "--out", out]) == 0
    lines = open(out).read().splitlines()
    header = lines[0].split(",")
    i_ratio = header.index("ratio")
    i_dev = header.index("rel_dev_minus")
    devs = {float(l.split(",")[i_ratio]): float(l.split(",")[i_dev]) for l in lines[1:]}
    # deviation shrinks as the detuning ratio grows, ~1/(2 ratio)^2
    assert devs[1000.0] <= 1e-5
    assert devs[10.0] > devs[100.0] > devs[1000.0]
    assert devs[100.0] == pytest.approx(1.0 / (2.0 * 100.0) ** 2, rel=0.01, abs=0.0)


def test_cli_kk_check_table(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "kk.jsonl")
    assert main(["kk-check", "--config", cfg, "--out", out, "--format", "jsonl"]) == 0
    rows = [json.loads(l) for l in open(out).read().splitlines()]
    assert len(rows) == 6
    for row in rows:
        assert row["rel_error"] <= 1e-2
        assert row["omega"] > 0.0


# cavities where omega_nu + 100 gamma_nu rounds so that |omega - omega_nu| /
# gamma_nu reads 99.99999999999999: the default offsets' +-100 pass the
# config's check and reach the closed form, which decides on the same offset
@pytest.mark.parametrize("d,delta,nu", [(1.0e-6, 1.0e-4, 1), (0.5e-6, 1.0e-5, 1),
                                        (0.5e-6, 1.5e-3, 3), (2.0e-6, 1.0e-5, 2)])
def test_kk_check_runs_at_its_default_hundred_width_offsets(tmp_path, capsys, d, delta, nu):
    cfg = _write(tmp_path, f"scenario: planar\ncavity: {{d: {d:.1e}, delta: {delta:.1e}, nu: {nu}}}\n")
    out = tmp_path / "kk.csv"
    assert main(["kk-check", "--config", cfg, "--out", str(out)]) == 0, capsys.readouterr().err
    cav = PlanarCavity(d=d, delta=delta, nu=nu)
    lines = out.read_text().splitlines()
    names = lines[0].split(",")
    rows = [dict(zip(names, map(float, line.split(",")))) for line in lines[1:]]
    assert [row["offset_widths"] for row in rows] == [-1.0e3, -3.0e2, -1.0e2, 1.0e2, 3.0e2, 1.0e3]
    assert min(abs(row["omega"] - cav.omega_nu) / cav.gamma_nu for row in rows) < 100.0
    for row in rows:
        assert row["closed_form"] == cav.gamma_nu / (2.0 * (cav.omega_nu - row["omega"]))
        assert row["rel_error"] <= 1e-2


@pytest.mark.parametrize("mode", ["kk-check", "xcheck"])
def test_unreachable_quadrature_tolerance_is_refused_by_key(tmp_path, capsys, mode):
    # at delta = 1e-5 the transform stops at 1.487e-14 of a 1.316e-15 target;
    # the refusal names the key and keeps both values, and writes nothing
    cfg = _write(tmp_path, "scenario: planar\ncavity: {d: 1.0e-6, delta: 1.0e-5, nu: 1}\n"
                 "tolerances:\n  quadrature_rel: 1.0e-14\n")
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{mode}]: tolerances.quadrature_rel: 1e-14 ")
    assert "achieved 1.487e-14" in err and "target of 1.316e-15" in err
    assert not (tmp_path / "t.csv").exists()


def test_run_manifest_contents(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    result = run(cfg)
    m = result.manifest
    assert m["config_sha256"] == cfg.source_sha256
    assert m["constants"]["c"] == 299792458.0
    assert m["mode"] == "scan-rabi" and m["rows"] == 200
    assert m["provenance"]["cavity.delta"] == "user"
    assert "omega2_unit" in m["normalization"]


def test_weak_limit_rel_dev_exact_to_large_ratios(tmp_path):
    ratios = (10.0, 1.0e2, 1.0e3, 1.0e4)
    cfg = load_config(_write(tmp_path, MINIMAL + "mode: weak-limit\nsweep:\n"
                             "  weak_ratios: [10.0, 1.0e+2, 1.0e+3, 1.0e+4]\n"))
    table = run(cfg).table
    assert table.column("ratio") == list(ratios)
    for row in table.rows:
        q = row["ratio"] ** -2
        exact = q / (1.0 + math.sqrt(1.0 + q)) ** 2
        assert row["rel_dev_plus"] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert row["rel_dev_minus"] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert row["u_minus_strong"] == -row["u_plus_strong"]


@pytest.mark.parametrize("ratio", [0.5, 1.0, 10.0, 1.0e2, 1.0e4])
def test_weak_limit_weak_side_is_the_perturbative_shift(tmp_path, ratio):
    # the weak ladder takes N = Omega_R^2 / (pi gamma_nu), the inverse of
    # Omega_R = sqrt(gamma_nu pi N), so U-_weak = -hbar Omega_R^2 / (4 Delta):
    # -1 / (4 ratio) in the table's energy unit hbar Omega_R
    cfg = load_config(_write(tmp_path, MINIMAL + "mode: weak-limit\nsweep:\n"
                             f"  weak_ratios: [{ratio!r}]\n"))
    result = run(cfg)
    (row,) = result.table.rows
    e_unit = result.manifest["normalization"]["energy_unit"]
    assert row["u_minus_weak"] == pytest.approx(-e_unit / (4.0 * ratio), rel=1e-14, abs=0.0)
    assert row["u_plus_weak"] == -row["u_minus_weak"]
    # the dressed ladder falls short of it by rel_dev
    assert 1.0 - row["u_minus_strong"] / row["u_minus_weak"] == pytest.approx(
        row["rel_dev_minus"], rel=1e-12, abs=1e-15)


def test_kk_offsets_outside_window_or_below_zero_frequency(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "sweep:\n  kk_offsets: [-1.0e+4, 1.0e+6]\n")
    assert main(["kk-check", "--config", cfg, "--out", str(tmp_path / "kk.csv")]) == 1
    assert "sweep.kk_offsets" in capsys.readouterr().err
    assert not (tmp_path / "kk.csv").exists()


def test_xcheck_manifest_counts_samples_used(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL + "mode: xcheck\n"))
    samples = run(cfg).manifest["normalization"]["samples"]
    assert samples == {"free-space-route-equivalence": 100,
                       "force-gradient-corrected": 100,
                       "force-as-printed-ratio": 100}


@pytest.mark.parametrize("delta", [2.0e-3, math.nextafter(0.1, 0.0)])
def test_xcheck_completes_where_omega_nu_minus_1e3_widths_is_negative(tmp_path, delta):
    # at nu = 1 and delta >= pi/2000, up to the schema's bound, omega_nu -
    # 1e3 gamma_nu < 0: the kk-asymptote row keeps its +1e3-width offset
    # alone and the manifest records it
    text = MINIMAL.replace("delta: 1.0e-3", f"delta: {delta!r}")
    out = tmp_path / "x.csv"
    assert main(["xcheck", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert manifest["normalization"]["kk_offset_widths"] == [1.0e3]


@pytest.mark.parametrize("delta,used", [
    (2.0e-3, [-300.0, -100.0, 100.0, 300.0, 1000.0]),
    (math.nextafter(0.1, 0.0), [100.0, 300.0, 1000.0]),
])
def test_kk_check_default_offsets_leave_out_omega_at_or_below_zero(tmp_path, delta, used):
    # at nu = 1 the default offsets below resonance give omega <= 0 from
    # delta ~ pi/2000 (-1e3 widths), pi/600 (-300) and pi/200 (-100) on:
    # those are left out, and the manifest lists the offsets used
    text = MINIMAL.replace("delta: 1.0e-3", f"delta: {delta!r}")
    out = tmp_path / "kk.csv"
    assert main(["kk-check", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "kk.csv.manifest.json").read_text())
    assert manifest["normalization"] == {"peak": 1.0, "kk_offset_widths": used}
    assert manifest["provenance"]["sweep.kk_offsets"] == "default"
    rows = out.read_text().splitlines()
    assert [float(row.split(",")[0]) for row in rows[1:]] == used
    assert all(float(row.split(",")[1]) > 0.0 for row in rows[1:])


def test_kk_check_user_offsets_below_zero_frequency_are_refused(tmp_path, capsys):
    text = MINIMAL.replace("delta: 1.0e-3", "delta: 2.0e-3") + \
        "sweep:\n  kk_offsets: [-1000.0, 1000.0]\n"
    out = tmp_path / "kk.csv"
    assert main(["kk-check", "--config", _write(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [kk-check]: sweep.kk_offsets: offset -1000 widths gives omega = ")
    assert not out.exists()


def test_force_sweep_across_interior_node(tmp_path, capsys):
    # nu = 2 has a node at d/2, on the grid; the analytic gradient needs no
    # finite-difference error estimate there
    nu2 = MINIMAL.replace("nu: 1", "nu: 2") + "sweep:\n  points: 201\n  span: [0.0, 1.0]\n"
    out = str(tmp_path / "f.csv")
    assert main(["force", "--config", _write(tmp_path, nu2), "--out", out]) == 0
    # with atom A swept against B at d/4, s_A + s_B = 0 exactly at z_A = 3d/4,
    # where the as-printed column is singular
    held = nu2 + "  target: A\natoms:\n  z_b: 2.5e-7\n"
    assert main(["force", "--config", _write(tmp_path, held, "c2.yaml"), "--out", out]) == 1
    assert "Omega_R = 0" in capsys.readouterr().err


def test_xcheck_force_row_checks_the_shipped_gradient(tmp_path, monkeypatch):
    # the force mode's analytic gradient, off by 1e-3, fails the force row;
    # the as-printed ratio is blind to a common factor
    shipped = cli.rabi_gradient_a
    monkeypatch.setattr(cli, "rabi_gradient_a", lambda *a: (1.0 + 1.0e-3) * shipped(*a))
    result = run(load_config(_write(tmp_path, MINIMAL + "mode: xcheck\n")))
    status = dict(zip(result.table.column("check"), result.table.column("status")))
    assert status["force-gradient-corrected"] == "fail"
    assert status["force-as-printed-ratio"] == "pass"
    assert result.failures == 1


def test_xcheck_skips_force_samples_whose_stencil_crosses_the_kink(tmp_path):
    # at nu = 5 the finite-difference stencil of one seed-45 sample straddles
    # s_A + s_B = 0, where Omega_R has no derivative
    nu5 = MINIMAL.replace("nu: 1", "nu: 5") + "mode: xcheck\nseed: 45\n"
    out = str(tmp_path / "x.csv")
    assert main(["xcheck", "--config", _write(tmp_path, nu5), "--out", out]) == 0
    samples = json.loads((tmp_path / "x.csv.manifest.json").read_text())["normalization"]["samples"]
    assert samples["force-gradient-corrected"] < 100


@pytest.mark.parametrize("nu", [500, 1000])
def test_xcheck_passes_at_high_mode_index(tmp_path, nu):
    # the force row's finite-difference reference steps by a fixed fraction
    # of the mode wavelength; a step of 1e-4 d missed by 1.3e-6 at nu = 500
    # and 2.0e-5 at nu = 1000, against a tolerance of 1e-6
    text = MINIMAL.replace("nu: 1", f"nu: {nu}") + "mode: xcheck\n"
    assert main(["xcheck", "--config", _write(tmp_path, text), "--out",
                 str(tmp_path / "x.csv")]) == 0


def test_xcheck_free_space_row_near_a_zero_of_the_potential(tmp_path):
    # seed 301082727 draws a free-space sample near a zero of the oscillating
    # potential, where a miss relative to the potential itself blows up
    cfg = _write(tmp_path, MINIMAL + "mode: xcheck\nseed: 301082727\n")
    assert main(["xcheck", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0


@settings(max_examples=20, deadline=None)
@given(nu=st.integers(1, 3), held=st.floats(0.05, 0.95), omega10_shift=st.floats(-50.0, 50.0))
def test_sweeping_a_against_b_mirrors_sweeping_b_against_a(tmp_path_factory, nu, held,
                                                          omega10_shift):
    # swapping the atoms swaps the z columns and moves no bit of the others
    tmp = tmp_path_factory.mktemp("swap")
    cav = MINIMAL.replace("nu: 1", f"nu: {nu}")
    omega10 = nu * math.pi * 299792458.0 / 1.0e-6 + omega10_shift * 5.99584916e11
    for mode in ("dressed", "potential"):
        tables = {}
        for target, key in (("A", "z_b"), ("B", "z_a")):
            text = (cav + f"mode: {mode}\natoms:\n  {key}: {held * 1.0e-6!r}\n"
                    f"  omega10: {omega10!r}\nsweep:\n  points: 21\n  target: {target}\n")
            tables[target] = run(load_config(_write(tmp, text, f"{mode}-{target}.yaml"))).table
        a, b = tables["A"], tables["B"]
        assert a.columns == b.columns
        assert a.values("z_A").tobytes() == b.values("z_B").tobytes()
        assert a.values("z_B").tobytes() == b.values("z_A").tobytes()
        for name in a.columns:
            if not name.startswith("z_"):
                assert a.values(name).tobytes() == b.values(name).tobytes(), name


# mirror parity through cli.run: under z -> d - z the sweep of atom A against
# B at z_b over [lo, hi] becomes the sweep against d - z_b over [1 - hi,
# 1 - lo], its rows in reverse order, with the force along z negated. The
# grids are mirrored only to rounding, which Omega_R's slope carries into
# every column and the as-printed force's 1 / sin(2 theta_c) amplifies near
# Omega_R = 0: over this test's draws the heights missed d - z by at most
# 1.5e-16 d, and the other columns by at most 2.1e-15 (potentials, Omega_R),
# 4.2e-15 (corrected force) and 1.5e-13 (as-printed force) of their largest
# magnitude
MIRROR_TOLS = {"z_": 6.0e-16, "f_theta_as_printed": 6.0e-13, "f_": 2.0e-14, "": 1.0e-14}


def _mirror_draws(count=24, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nu = int(rng.integers(1, 6))
        d = float(10.0 ** rng.uniform(-7.0, -4.0))
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2).tolist())
        # on resonance, or detuned by up to 5 % of omega_nu
        shift = float(rng.uniform(-0.05, 0.05)) if rng.uniform() < 0.5 else 0.0
        yield (nu, d, float(10.0 ** rng.uniform(-5.0, -1.1)), float(rng.uniform(0.02, 0.98)),
               lo, hi, shift, float(rng.uniform(0.0, math.pi)))


def test_mirrored_sweep_of_a_reverses_rows_and_negates_the_force(tmp_path):
    for i, (nu, d, delta, z_b, lo, hi, shift, theta) in enumerate(_mirror_draws()):
        omega10 = (1.0 + shift) * nu * math.pi * 299792458.0 / d
        for mode in ("potential", "force"):
            tables = []
            for held, span in ((z_b, (lo, hi)), (1.0 - z_b, (1.0 - hi, 1.0 - lo))):
                text = (f"scenario: planar\nmode: {mode}\ncavity:\n  d: {d!r}\n"
                        f"  delta: {delta!r}\n  nu: {nu}\natoms:\n  z_b: {held * d!r}\n"
                        f"  omega10: {omega10!r}\nsweep:\n  points: 21\n  target: A\n"
                        f"  span: [{span[0]!r}, {span[1]!r}]\n  theta: {theta!r}\n")
                tables.append(run(load_config(_write(tmp_path, text, f"{i}-{mode}.yaml"))).table)
            table, mirrored = tables
            assert table.columns == mirrored.columns
            for name in table.columns:
                got = mirrored.values(name)[::-1]
                want = table.values(name)
                tol = next(t for prefix, t in MIRROR_TOLS.items() if name.startswith(prefix))
                if name.startswith("z_"):
                    miss, scale = np.abs(got - (d - want)), d
                else:
                    miss = np.abs((-got if name.startswith("f_") else got) - want)
                    scale = np.max(np.abs(want))
                assert np.all(miss <= tol * scale), (i, mode, name, np.max(miss) / scale)
