"""CLI tables against goldens written by the per-row implementation that
preceded the array sweeps (tests/goldens/<config>-<mode>.csv, made with
`cavityvdw <mode> --config tests/goldens/<config>.yaml`).

Grid columns and the kk-check offset, omega and closed-form columns must
match bit for bit. The kk-check principal values were written by QUADPACK
and now come from the numpy panel quadrature: each may move by 5e-14 of
itself (both engines are within 2.2e-14 of the exact windowed transform),
and rel_error by what that move implies. Other columns may move by rounding
where numpy's sin, hypot and arctan2 replace math's, bounded by 4e-15 of
the column's largest magnitude; force columns now come from the analytic
gradient instead of finite differences and are bounded by 1e-8 of the
column's largest magnitude.

planar_tight_quadrature-kk-check.csv was written by the numpy panel
quadrature itself, at a target of 1e-14 under which the transform splits
panels; it is held to the same bounds.

The JSON lines goldens (tests/goldens/<config>-<mode>.jsonl, made with
`--format jsonl` by the per-cell exporter that preceded the blocked one)
hold the bytes of the planar modes and the free-space potential fixed:
they must match byte for byte.

The manifest of every run above, and of one run per remaining flag and one
with no flag on planar.yaml, must match its golden
(tests/goldens/<run>.manifest.json) byte for byte: these hold the
provenance, tolerance and normalization bytes fixed. They were written by
the config loader that preceded the settings table; the xcheck manifest
has since gained the kk-asymptote row's offsets, "kk_offset_widths".

Every command line here is canonical, so main reads it without argparse.
"""

from pathlib import Path

import numpy as np
import pytest

from cavityvdw import cli, quadrature
from cavityvdw.cli import main, run
from cavityvdw.config import RunConfig, load_config
from cavityvdw.dressed import FD_STEP, richardson_slope, theta_force
from cavityvdw.greens import PlanarCavity
from cavityvdw.modecoupling import AtomSpec
from cavityvdw.planarcavity import PlanarScenario

GOLDENS = Path(__file__).parent / "goldens"
PLANAR_MODES = ("dressed", "potential", "force")
CASES = (
    [("planar", m) for m in ("scan-rabi", *PLANAR_MODES, "kk-check")]
    + [(c, m) for c in ("planar_below_a", "planar_above_b_as_printed") for m in PLANAR_MODES]
    + [("free_space", "potential"), ("planar_tight_quadrature", "kk-check")]
)
EXACT = ("z_A", "z_B", "separation")
KK_EXACT = ("offset_widths", "omega", "closed_form")
KK_REL = 5e-14
JSONL_CASES = [("planar", m) for m in ("scan-rabi", *PLANAR_MODES, "kk-check")] + [
    ("free_space", "potential")]


@pytest.fixture(autouse=True)
def _without_argparse(monkeypatch):
    def refuse():
        raise AssertionError("a golden command line reached argparse")

    monkeypatch.setattr(cli, "_build_parser", refuse)


def _assert_manifest_matches(table: Path, run_name: str) -> None:
    got = Path(f"{table}.manifest.json").read_bytes()
    assert got == (GOLDENS / f"{run_name}.manifest.json").read_bytes()


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: values[:, i] for i, name in enumerate(names)}


@pytest.mark.parametrize("config,mode", CASES)
def test_table_matches_golden_and_repeats_bytes(tmp_path, config, mode):
    outs = [tmp_path / f"run{i}.csv" for i in (1, 2)]
    for out in outs:
        assert main([mode, "--config", str(GOLDENS / f"{config}.yaml"), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    _assert_manifest_matches(outs[0], f"{config}-{mode}.csv")
    got = _read_csv(outs[0])
    want = _read_csv(GOLDENS / f"{config}-{mode}.csv")
    assert list(got) == list(want)
    for name, ref in want.items():
        if name in EXACT or (mode == "kk-check" and name in KK_EXACT):
            bound = 0.0
        elif name == "kk_numeric_over_pi":
            bound = KK_REL * np.abs(ref)
        elif name == "rel_error":
            # |n/c - 1| moves by KK_REL |n/c| when n moves by KK_REL |n|,
            # plus the rounding of the quotient and the difference
            ratio = np.abs(want["kk_numeric_over_pi"] / want["closed_form"])
            bound = KK_REL * np.max(ratio) + 2.0 * np.finfo(float).eps
        elif name.startswith("f_theta"):
            bound = 1e-8 * np.max(np.abs(ref))
        else:
            bound = 4e-15 * np.max(np.abs(ref))
        miss = np.abs(got[name] - ref)
        assert np.all(miss <= bound), f"{name}: off by {np.max(miss):.3e}"


@pytest.mark.parametrize("config,mode", JSONL_CASES)
def test_jsonl_table_matches_golden_bytes(tmp_path, config, mode):
    out = tmp_path / "run.jsonl"
    argv = [mode, "--config", str(GOLDENS / f"{config}.yaml"), "--out", str(out), "--format", "jsonl"]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDENS / f"{config}-{mode}.jsonl").read_bytes()
    _assert_manifest_matches(out, f"{config}-{mode}.jsonl")


@pytest.mark.parametrize("mode,flags,code,run_name", [
    ("force", ["--variant", "as-printed"], 0, "planar-force-variant-as-printed"),
    ("xcheck", ["--tolerance", "1e-3"], 0, "planar-xcheck-tolerance-1e-3"),
    ("potential", [], 0, "planar-potential-no-flags"),
])
def test_flag_run_manifest_matches_golden_bytes(tmp_path, monkeypatch, mode, flags, code,
                                                run_name):
    monkeypatch.chdir(tmp_path)
    assert main([mode, "--config", str(GOLDENS / "planar.yaml"), *flags]) == code
    _assert_manifest_matches(tmp_path / f"cavityvdw-{mode}.csv", run_name)


def test_tight_quadrature_golden_splits_panels(tmp_path, monkeypatch):
    # the config is the shipped route through the engine's split loop: at
    # the default target every transform converges on its initial panels
    levels = []
    engine = quadrature._adaptive_quadrature

    def counting_quadrature(g, edges, budget, rule):
        calls = [0]

        def g_counted(x):
            calls[0] += 1
            return g(x)

        values = engine(g_counted, edges, budget, rule)
        levels.append(calls[0])
        return values

    monkeypatch.setattr(quadrature, "_adaptive_quadrature", counting_quadrature)
    for config, most in (("planar", 1), ("planar_tight_quadrature", 2)):
        levels.clear()
        out = tmp_path / f"{config}.csv"
        assert main(["kk-check", "--config", str(GOLDENS / f"{config}.yaml"), "--out", str(out)]) == 0
        assert len(levels) == 6 and max(levels) == most


@pytest.mark.parametrize("config", ("planar", "planar_below_a", "planar_above_b_as_printed"))
def test_analytic_force_matches_finite_difference_reference(config):
    cfg = RunConfig(**{**vars(load_config(GOLDENS / f"{config}.yaml")), "mode": "force"})
    cav = PlanarCavity(d=cfg.cavity_d, delta=cfg.cavity_delta, nu=cfg.cavity_nu)

    def atom(z):
        return AtomSpec(position=(0.0, 0.0, z), omega10=cfg.omega10,
                        dipole=(cfg.dipole_norm, 0.0, 0.0))

    checked = 0
    for row in run(cfg).table.rows:
        phase = cav.nu * np.pi * np.array([row["z_A"], row["z_B"]]) / cav.d
        # interior points: away from the kink of Omega_R at s_A + s_B = 0 and
        # from the zeros of the gradient, where a relative bound means nothing
        if abs(np.sin(phase).sum()) < 0.05 or abs(np.cos(phase[0])) < 0.05:
            continue
        scn = PlanarScenario(cavity=cav, atom_a=atom(row["z_A"]), atom_b=atom(row["z_B"]))
        z_a = scn.position_a[2]
        grad, _ = richardson_slope(lambda dz: [scn.rabi((0.0, 0.0, z_a + t), scn.position_b)
                                               for t in dz], FD_STEP * (cav.d / cav.nu))
        omega_r = scn.rabi(scn.position_a, scn.position_b)
        for variant in ("corrected", "as-printed"):
            ref = theta_force(cfg.theta, grad, omega_r, scn.detuning, variant)
            col = "f_theta_corrected_z" if variant == "corrected" else "f_theta_as_printed_z"
            assert row[col] == pytest.approx(ref, rel=1e-8, abs=0.0), (variant, row)
        checked += 1
    assert checked >= 30
