"""CLI tables against goldens written by the per-row implementation that
preceded the array sweeps (tests/goldens/<config>-<mode>.csv, made with
`cavityvdw <mode> --config tests/goldens/<config>.yaml`).

Grid and kk-check columns must match bit for bit. Other columns may move
by rounding where numpy's sin, hypot and arctan2 replace math's, bounded
by 4e-15 of the column's largest magnitude; force columns now come from
the analytic gradient instead of finite differences and are bounded by
1e-8 of the column's largest magnitude.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from cavityvdw.cli import main, run
from cavityvdw.config import load_config
from cavityvdw.dressed import force_theta
from cavityvdw.greens import PlanarCavity
from cavityvdw.modecoupling import AtomSpec
from cavityvdw.planarcavity import PlanarScenario

GOLDENS = Path(__file__).parent / "goldens"
PLANAR_MODES = ("dressed", "potential", "force")
CASES = (
    [("planar", m) for m in ("scan-rabi", *PLANAR_MODES, "kk-check")]
    + [(c, m) for c in ("planar_below_a", "planar_above_b_as_printed") for m in PLANAR_MODES]
    + [("free_space", "potential")]
)
EXACT = ("z_A", "z_B", "separation")


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
    got = _read_csv(outs[0])
    want = _read_csv(GOLDENS / f"{config}-{mode}.csv")
    assert list(got) == list(want)
    for name, ref in want.items():
        if mode == "kk-check" or name in EXACT:
            bound = 0.0
        elif name.startswith("f_theta"):
            bound = 1e-8 * np.max(np.abs(ref))
        else:
            bound = 4e-15 * np.max(np.abs(ref))
        miss = np.max(np.abs(got[name] - ref))
        assert miss <= bound, f"{name}: off by {miss:.3e}, bound {bound:.3e}"


@pytest.mark.parametrize("config", ("planar", "planar_below_a", "planar_above_b_as_printed"))
def test_analytic_force_matches_finite_difference_reference(config):
    cfg = dataclasses.replace(load_config(GOLDENS / f"{config}.yaml"), mode="force")
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
        for variant in ("corrected", "as-printed"):
            ref = force_theta(scn, cfg.theta, "A", variant)[2]
            col = "f_theta_corrected_z" if variant == "corrected" else "f_theta_as_printed_z"
            assert row[col] == pytest.approx(ref, rel=1e-8, abs=0.0), (variant, row)
        checked += 1
    assert checked >= 30
