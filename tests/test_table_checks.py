"""Every mode on every golden config, and every golden table, checked value
by value with the benchmark's own table checks (perfbench/checks.py).

test_goldens.py holds each golden table to the bytes or digits an earlier
implementation wrote; this module holds the tables to the closed forms the
benchmark recomputes in numpy, which share no code with the library. Each
(config, mode) pair the schema accepts runs through cli.run; its table is
checked in memory and as read back from its CSV and JSON-lines files, and
check_export holds each file's header, row count and first and last rows
to the table bit for bit. The spec dicts the checks read are built from the
resolved RunConfig, so every value the program used is the one checked.
The pairs the schema refuses by design must be refused, naming the key.
"""

from pathlib import Path

import numpy as np
import pytest

from cavityvdw import cli
from cavityvdw.cli import export, run
from cavityvdw.config import FORMATS, MODES, PLANAR_ONLY_MODES, RunConfig, load_config
from cavityvdw.errors import ConfigError
from cavityvdw.tabular import Table

from oracles import checks

GOLDENS = Path(__file__).parent / "goldens"
CONFIGS = sorted(path.stem for path in GOLDENS.glob("*.yaml"))
# scan-rabi's closed form needs a resonant atom, and free space has no mode
REFUSED = {(config, "scan-rabi"): "atoms.omega10"
           for config in ("planar_below_a", "planar_above_b_as_printed")}
REFUSED.update({("free_space", mode): "mode" for mode in PLANAR_ONLY_MODES})
ACCEPTED = [(config, mode) for config in CONFIGS for mode in MODES
            if (config, mode) not in REFUSED]
GOLDEN_TABLES = sorted(path.name for path in GOLDENS.iterdir()
                       if path.suffix in (".csv", ".jsonl"))
# the check of each planar mode's table; free space has one of its own
TABLE_CHECKS = {"scan-rabi": checks.check_scan, "dressed": checks.check_dressed,
                "potential": checks.check_potential_planar, "force": checks.check_force,
                "weak-limit": checks.check_weak_limit, "kk-check": checks.check_kk_table}


def _spec(cfg: RunConfig) -> dict:
    """The benchmark's spec dict (perfbench/workloads.py) of a resolved config."""
    spec = {"scenario": cfg.scenario, "variant": cfg.variant, "omega10": cfg.omega10,
            "dipole_norm": cfg.dipole_norm, "points": cfg.sweep_points, "span": cfg.sweep_span}
    if cfg.scenario == "planar":
        spec.update(d=cfg.cavity_d, delta=cfg.cavity_delta, nu=cfg.cavity_nu, z_a=cfg.z_a,
                    z_b=cfg.z_b, target=cfg.sweep_target, theta=cfg.theta,
                    kk_offsets=cfg.kk_offsets, weak_ratios=cfg.weak_ratios)
    else:
        spec.update(position_a=cfg.position_a, position_b=cfg.position_b,
                    orientation=cfg.orientation)
    return spec


def _check(cfg: RunConfig, cols) -> None:
    """Check a table's columns (a mapping of name to values) with the
    benchmark's check of the config's mode; raises checks.CheckError."""
    if cfg.mode == "xcheck":
        checks.check_xcheck(cols)
    elif cfg.scenario == "free-space":
        checks.check_free_space_potential(_spec(cfg), checks.numeric(cols))
    else:
        TABLE_CHECKS[cfg.mode](_spec(cfg), checks.numeric(cols))


def _run_and_check(config: str, mode: str, tmp_path: Path) -> None:
    cfg = load_config(GOLDENS / f"{config}.yaml", mode)
    table = run(cfg).table
    _check(cfg, {name: table.values(name) for name in table.columns})
    for fmt in FORMATS:
        out = tmp_path / f"table.{fmt}"
        export(table, out, fmt)
        _check(cfg, checks.read_table(out, fmt))
        # check_export reads every CSV cell as a float; xcheck's names are not
        if mode != "xcheck" or fmt == "jsonl":
            checks.check_export(out, fmt, table.columns, len(table), table.rows[0], table.rows[-1])


def test_every_mode_runs_on_a_golden_config():
    assert {mode for _, mode in ACCEPTED} == set(MODES)


@pytest.mark.parametrize("config,mode", ACCEPTED)
def test_every_accepted_golden_run_passes_the_benchmark_checks(tmp_path, config, mode):
    _run_and_check(config, mode, tmp_path)


@pytest.mark.parametrize("config,mode", sorted(REFUSED))
def test_the_refused_golden_runs_name_their_key(config, mode):
    with pytest.raises(ConfigError, match=f"^{REFUSED[config, mode]}: "):
        run(load_config(GOLDENS / f"{config}.yaml", mode))


@pytest.mark.parametrize("name", GOLDEN_TABLES)
def test_every_golden_table_passes_the_benchmark_checks(name):
    config, mode = Path(name).stem.split("-", 1)
    _check(load_config(GOLDENS / f"{config}.yaml", mode),
           checks.read_table(GOLDENS / name, Path(name).suffix[1:]))


@pytest.mark.parametrize("config,mode,column,quantity", [
    ("planar", "scan-rabi", "omega2_AB", "omega2_AB"),
    ("planar_below_a", "dressed", "theta_c", "theta_c"),
    ("planar_above_b_as_printed", "potential", "u_theta", "U_theta"),
    ("planar_above_b_as_printed", "force", "f_theta_as_printed_z", "as-printed = corrected"),
    ("planar", "weak-limit", "u_plus_strong", "U\\+ strong = -U- strong"),
    ("planar", "kk-check", "closed_form", "closed_form"),
    ("free_space", "potential", "u_interaction", "u_interaction"),
])
def test_a_column_off_by_1e_9_fails_the_checks(tmp_path, monkeypatch, config, mode, column,
                                               quantity):
    # the checks above are not vacuous: one column of the mode's table,
    # scaled by 1 + 1e-9 where the mode builds it, fails them
    runner = cli._MODE_RUNNERS[mode]

    def scaled(cfg):
        table, norm, failures = runner(cfg)
        cols = {name: table.values(name) for name in table.columns}
        cols[column] = cols[column] * (1.0 + 1e-9)
        assert not np.array_equal(cols[column], table.values(column))
        return Table(cols), norm, failures

    monkeypatch.setitem(cli._MODE_RUNNERS, mode, scaled)
    with pytest.raises(checks.CheckError, match=f"^{quantity}"):
        _run_and_check(config, mode, tmp_path)
