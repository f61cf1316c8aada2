"""Command-line surface: deterministic tabular runs over the library.

Every subcommand loads a YAML config, evaluates one mode of operation and
writes a data table (CSV or JSON lines) plus a JSON manifest holding the
config hash, physical constants, variant flags, tolerances and value
provenance. Outputs carry no timestamps, so identical configs give
byte-identical files. Exit codes: 0 success, 1 validation or numeric
failure, 2 tolerance failure in xcheck.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

from .config import FORMATS, VARIANTS, RunConfig, load_config
from .constants import C, CONSTANTS, EPS0, HBAR
from .dressed import (
    FD_STEP,
    DressedSystem,
    coupling_angle,
    # not called here; perfbench/tracer.py wraps cli.force_theta by name
    force_theta,  # noqa: F401
    potential_pm,
    potential_theta,
    richardson_slope,
    strong_coupling_potentials,
    theta_force,
)
from .errors import ConfigError, DomainError, FitError, QuadratureError
from .greens import FreeSpaceGreens, PlanarCavity, QuadratureControl, kk_real_from_imag
from .modecoupling import AtomSpec
from .planarcavity import (
    PlanarScenario,
    free_decay_rate,
    rabi_gradient_a,
    rabi_omega,
    scan_rabi,
    sweep_positions,
)
from .record import Record
from .tabular import Table, with_dimless
from .weakfield import (
    KK_WINDOW_WIDTHS,
    free_space_resonant_potential,
    lorentzian_spectral_function,
    narrow_mode_real_contraction,
    resonant_potential,
    weak_limit_potentials,
)


class RunResult(Record):
    table: Table
    manifest: dict
    failures: int


# --------------------------------------------------------------- assembly

def _cavity(cfg: RunConfig) -> PlanarCavity:
    return PlanarCavity(d=cfg.cavity_d, delta=cfg.cavity_delta, nu=cfg.cavity_nu)


def _planar_scenario(cfg: RunConfig) -> PlanarScenario:
    cav = _cavity(cfg)
    dip = tuple(cfg.dipole_norm * o for o in cfg.orientation)
    return PlanarScenario(
        cavity=cav,
        atom_a=AtomSpec(position=(0.0, 0.0, cfg.z_a), omega10=cfg.omega10, dipole=dip),
        atom_b=AtomSpec(position=(0.0, 0.0, cfg.z_b), omega10=cfg.omega10, dipole=dip),
    )


def _grid(cfg: RunConfig, scale: float) -> np.ndarray:
    """The sweep.points points of sweep.span, times scale."""
    lo, hi = cfg.sweep_span
    return np.linspace(lo, hi, cfg.sweep_points) * scale


def _sweep(cfg: RunConfig) -> tuple[PlanarScenario, np.ndarray, np.ndarray, float]:
    """The configured scenario, the (z_A, z_B) heights of its sweep and the
    frequency unit sqrt(c Gamma0 / d)."""
    scn = _planar_scenario(cfg)
    z_a, z_b = sweep_positions(scn, cfg.sweep_target, _grid(cfg, scn.cavity.d))
    return scn, z_a, z_b, math.sqrt(C * scn.gamma0 / scn.cavity.d)


# ------------------------------------------------------------------ modes

def _mode_scan_rabi(cfg: RunConfig) -> tuple[Table, dict, int]:
    scn = _planar_scenario(cfg)
    # the predicate of scan_rabi's own check, so the two agree at the edge
    if not scn.on_resonance:
        raise ConfigError(
            f"atoms.omega10: scan-rabi's closed form needs omega10 = omega_nu = "
            f"{scn.cavity.omega_nu:.17g} rad/s; this one is detuned by {scn.detuning:.6g} "
            f"rad/s (use the dressed mode for a detuned scenario)"
        )
    table = scan_rabi(scn, cfg.sweep_target, _grid(cfg, scn.cavity.d))
    return table, {"omega2_unit": C * scn.gamma0 / scn.cavity.d}, 0


def _mode_dressed(cfg: RunConfig) -> tuple[Table, dict, int]:
    scn, z_a, z_b, w_unit = _sweep(cfg)
    e_unit = HBAR * w_unit
    sysd = DressedSystem.from_coupling(rabi_omega(scn, z_a, z_b), scn.detuning)
    cols = {"z_A": z_a, "z_B": z_b, "omega_r": sysd.omega_r, "omega": sysd.omega,
            "theta_c": sysd.theta_c, "e_plus": sysd.e_plus, "e_minus": sysd.e_minus}
    units = {"omega_r": w_unit, "omega": w_unit, "e_plus": e_unit, "e_minus": e_unit}
    norm = {"frequency_unit": w_unit, "energy_unit": e_unit}
    return with_dimless(cols, units), norm, 0


def _mode_potential(cfg: RunConfig) -> tuple[Table, dict, int]:
    if cfg.scenario == "planar":
        return _mode_potential_planar(cfg)
    return _mode_potential_free_space(cfg)


def _mode_potential_planar(cfg: RunConfig) -> tuple[Table, dict, int]:
    scn, z_a, z_b, w_unit = _sweep(cfg)
    e_unit = HBAR * w_unit
    omega_r = rabi_omega(scn, z_a, z_b)
    sysd = DressedSystem.from_coupling(omega_r, scn.detuning)
    u_plus, u_minus = potential_pm(sysd.omega)
    cols = {"z_A": z_a, "z_B": z_b, "omega_r": omega_r, "u_plus": u_plus,
            "u_minus": u_minus, "u_theta": potential_theta(cfg.theta, sysd)}
    units = {"omega_r": w_unit, "u_plus": e_unit, "u_minus": e_unit, "u_theta": e_unit}
    return with_dimless(cols, units), {"energy_unit": e_unit}, 0


def _mode_potential_free_space(cfg: RunConfig) -> tuple[Table, dict, int]:
    # the closed form, which xcheck tests against the tensor contraction;
    # free space has no finite single-atom terms, so the total is the
    # interaction term
    a = np.asarray(cfg.position_a, dtype=float)
    b = np.asarray(cfg.position_b, dtype=float)
    sep0 = float(np.linalg.norm(b - a))
    dip = cfg.dipole_norm * np.asarray(cfg.orientation, dtype=float)
    e_unit = HBAR * free_decay_rate(cfg.omega10, cfg.dipole_norm)
    seps = _grid(cfg, sep0)
    r = seps[:, None] * ((b - a) / sep0)
    interaction = free_space_resonant_potential(dip, dip, cfg.omega10 / C, r)
    cols = {"separation": seps, "u_interaction": interaction, "u_total": interaction}
    units = {"u_interaction": e_unit, "u_total": e_unit}
    return with_dimless(cols, units), {"energy_unit": e_unit}, 0


def _theta_forces(scn: PlanarScenario, theta, z_a, z_b, detuning):
    """(corrected, as-printed) superposition forces on atom A along z [N]
    from the analytic gradient of Omega_R; arrays allowed."""
    grad = rabi_gradient_a(scn, z_a, z_b)
    omega_r = rabi_omega(scn, z_a, z_b)
    return (theta_force(theta, grad, omega_r, detuning, "corrected"),
            theta_force(theta, grad, omega_r, detuning, "as-printed"))


def _mode_force(cfg: RunConfig) -> tuple[Table, dict, int]:
    scn, z_a, z_b, w_unit = _sweep(cfg)
    f_unit = HBAR * w_unit / scn.cavity.d
    f_cor, f_ap = _theta_forces(scn, cfg.theta, z_a, z_b, scn.detuning)
    cols = {"z_A": z_a, "z_B": z_b,
            "f_theta_z": f_cor if cfg.variant == "corrected" else f_ap,
            "f_theta_corrected_z": f_cor, "f_theta_as_printed_z": f_ap}
    units = dict.fromkeys(("f_theta_z", "f_theta_corrected_z", "f_theta_as_printed_z"), f_unit)
    return with_dimless(cols, units), {"force_unit": f_unit}, 0


def _weak_limit_columns(gamma_nu: float, omega_r: float, ratios) -> dict:
    """Strong- and weak-coupling ladders at Delta = ratio Omega_R, the weak
    side with N = Omega_R^2 / (pi gamma_nu)."""
    ratio = np.asarray(ratios, dtype=float)
    detuning = ratio * omega_r
    strong_plus, strong_minus = strong_coupling_potentials(omega_r, detuning)
    weak_plus, weak_minus = weak_limit_potentials(
        gamma_nu, omega_r**2 / (math.pi * gamma_nu), detuning)
    # with that N both ladders' ratio is exactly 2 Delta / (Omega + Delta),
    # so |U_strong / U_weak - 1| = Omega_R^2 / (Omega + Delta)^2
    rel_dev = (omega_r / (np.hypot(omega_r, detuning) + detuning)) ** 2
    return {"ratio": ratio, "detuning": detuning,
            "u_plus_strong": strong_plus, "u_plus_weak": weak_plus,
            "u_minus_strong": strong_minus, "u_minus_weak": weak_minus,
            "rel_dev_plus": rel_dev, "rel_dev_minus": rel_dev}


def _mode_weak_limit(cfg: RunConfig) -> tuple[Table, dict, int]:
    scn = _planar_scenario(cfg)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    if omega_r == 0.0:
        raise ConfigError(
            f"atoms.z_a, atoms.z_b: z_a = {cfg.z_a:g} m and z_b = {cfg.z_b:g} m give zero "
            f"coupling (s_A + s_B = 0); the weak-limit comparison is empty"
        )
    e_unit = HBAR * omega_r
    cols = _weak_limit_columns(scn.cavity.gamma_nu, omega_r, cfg.weak_ratios)
    units = dict.fromkeys(("u_plus_strong", "u_plus_weak", "u_minus_strong", "u_minus_weak"),
                          e_unit)
    return with_dimless(cols, units), {"energy_unit": e_unit}, 0


def _kk_columns(cav: PlanarCavity, offsets, rel_tol: float) -> dict:
    """Principal-value transform of a unit-peak Lorentzian against its
    far-detuned closed form at omega_nu + offset gamma_nu."""
    gamma, om_nu = cav.gamma_nu, cav.omega_nu
    offsets = np.asarray(offsets, dtype=float)
    omegas = om_nu + offsets * gamma
    bad = (omegas <= 0.0) | (np.abs(offsets) >= KK_WINDOW_WIDTHS)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConfigError(
            f"sweep.kk_offsets: offset {offsets[i]:g} widths gives omega = {omegas[i]:.6g} "
            f"rad/s; offsets must give omega > 0 and lie inside the "
            f"+-{KK_WINDOW_WIDTHS:g}-width support window"
        )
    # the transform is linear in the peak value
    sf = lorentzian_spectral_function(1.0, om_nu, gamma)
    control = QuadratureControl(rel_tol=rel_tol)
    numeric = np.array([kk_real_from_imag(sf, w, control) for w in omegas.tolist()]) / math.pi
    closed = np.array([narrow_mode_real_contraction(1.0, gamma, om_nu, offset)
                       for offset in offsets.tolist()])
    return {"offset_widths": offsets, "omega": omegas, "kk_numeric_over_pi": numeric,
            "closed_form": closed, "rel_error": np.abs(numeric / closed - 1.0)}


def _mode_kk_check(cfg: RunConfig) -> tuple[Table, dict, int]:
    cav = _cavity(cfg)
    offsets, norm = cfg.kk_offsets, {"peak": 1.0}
    if cfg.provenance["sweep.kk_offsets"] == "default":
        # the default offsets below resonance reach omega <= 0 from delta ~
        # nu pi / 2000 on; those are left out, and only then does the
        # manifest list the offsets used, so other manifests keep their bytes
        used = tuple(o for o in offsets if cav.omega_nu + o * cav.gamma_nu > 0.0)
        if used != offsets:
            offsets, norm["kk_offset_widths"] = used, list(used)
    cols = _kk_columns(cav, offsets, cfg.tol_quadrature)
    return Table(cols), norm, 0


_XCHECK_TOLS = {
    "free-space-route-equivalence": 1.0e-12,
    "force-gradient-corrected": 1.0e-6,
    "force-as-printed-ratio": 1.0e-6,
    "weak-limit-ladder": 1.0e-5,
    "kk-asymptote": 1.0e-2,
}
# per force sample: z_A/d, z_B/d, Delta/Omega_R, theta without its pi/2
# shift, and the coin that adds the shift; drawn in this order, sample by
# sample
_FORCE_DRAW_LOW = (0.05, 0.05, -3.0, 0.1, 0.0)
_FORCE_DRAW_HIGH = (0.95, 0.95, 3.0, 1.45, 1.0)


def _mode_xcheck(cfg: RunConfig) -> tuple[Table, dict, int]:
    rng = np.random.default_rng(cfg.seed)
    if cfg.scenario == "planar":
        cav = _cavity(cfg)
    else:
        cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    dnorm = cfg.dipole_norm
    tols = dict(_XCHECK_TOLS)
    if cfg.tol_xcheck is not None:
        tols = {name: cfg.tol_xcheck for name in tols}
    measured: dict[str, float] = {}

    # free-space interaction: the closed form the potential mode ships
    # against the tensor contraction, one reference evaluation per sample
    provider = FreeSpaceGreens()
    drawn = []
    for _ in range(100):
        w = 10.0 ** rng.uniform(14.5, 15.5)
        k = w / C
        direction = rng.normal(size=3)
        r = (rng.uniform(0.3, 3.0) / k) * direction / np.linalg.norm(direction)
        d_a, d_b = rng.normal(size=(2, 3)) * dnorm
        contraction = resonant_potential(
            AtomSpec(position=(0.0, 0.0, 0.0), omega10=w, dipole=tuple(d_a)),
            AtomSpec(position=tuple(r), omega10=w, dipole=tuple(d_b)),
            provider,
        ).interaction
        drawn.append((k, r, d_a, d_b, contraction))
    k, r, d_a, d_b, contraction = map(np.array, zip(*drawn))
    closed = free_space_resonant_potential(d_a, d_b, k, r)
    # the dipole-coupling scale both routes round against; the potential
    # itself passes through zero as it oscillates with k r
    rn = np.linalg.norm(r, axis=1)
    scale = (np.linalg.norm(d_a, axis=1) * np.linalg.norm(d_b, axis=1) / (4.0 * math.pi * EPS0)
             * (k**2 / rn + k / rn**2 + 1.0 / rn**3))
    measured["free-space-route-equivalence"] = float(np.max(np.abs(closed - contraction) / scale))

    # the force mode's route (analytic gradient through theta_force) against
    # a Richardson finite difference in z_A of the potential mode's route;
    # F = -grad U_theta holds for any amplitude A, so A^2 is taken at omega_nu.
    # Omega_R = A |s_A + s_B| has no derivative where s_A + s_B = 0, so
    # samples whose stencil crosses that kink are not compared
    draws = rng.uniform(_FORCE_DRAW_LOW, _FORCE_DRAW_HIGH, size=(100, 5))
    z_anti = cav.d / (2.0 * cav.nu)
    probe = PlanarScenario.resonant(cav, z_anti, z_anti, dnorm)
    z_a, z_b = draws[:, 0] * cav.d, draws[:, 1] * cav.d
    omega_r = rabi_omega(probe, z_a, z_b)
    used = omega_r != 0.0
    z_a, z_b, omega_r = z_a[used], z_b[used], omega_r[used]
    detuning = draws[used, 2] * omega_r
    theta = draws[used, 3] + np.where(draws[used, 4] < 0.5, math.pi / 2.0, 0.0)
    # a fixed fraction of the mode wavelength, k h = pi FD_STEP, so that the
    # reference's truncation does not grow with nu
    h = FD_STEP * cav.d / cav.nu
    fd, _ = richardson_slope(lambda dz: potential_theta(theta, DressedSystem.from_coupling(
        rabi_omega(probe, z_a + dz[:, None], z_b), detuning)), h)
    ends = probe.mode_value(z_a + np.array([[h], [-h]])) + probe.mode_value(z_b)
    smooth = np.sign(ends[0]) == np.sign(ends[1])
    f_cor, f_ap = _theta_forces(probe, theta, z_a, z_b, detuning)
    miss = np.abs(f_cor[smooth] + fd[smooth]) / np.abs(fd[smooth])
    measured["force-gradient-corrected"] = float(np.max(miss, initial=0.0))
    sin2tc = np.sin(2.0 * coupling_angle(omega_r, detuning))
    moving = f_cor != 0.0
    ratio_dev = np.abs(np.abs(f_ap[moving] * sin2tc[moving] / f_cor[moving]) - 1.0)
    measured["force-as-printed-ratio"] = float(np.max(ratio_dev, initial=0.0))

    # the weak-limit mode's ladders at the antinode and ratio 1e3
    ladder = _weak_limit_columns(cav.gamma_nu, probe.rabi(probe.position_a, probe.position_b),
                                 [1.0e3])
    dev = [ladder[f"u_{s}_strong"] / ladder[f"u_{s}_weak"] - 1.0 for s in ("plus", "minus")]
    measured["weak-limit-ladder"] = float(np.max(np.abs(dev)))

    # the kk-check mode's transform against 1/(omega_nu - omega) at +-1e3
    # widths, below resonance only where that omega is > 0
    offsets = (-1.0e3, 1.0e3) if cav.omega_nu - 1.0e3 * cav.gamma_nu > 0.0 else (1.0e3,)
    kk = _kk_columns(cav, offsets, cfg.tol_quadrature)
    measured["kk-asymptote"] = float(np.max(kk["rel_error"]))

    names = list(measured)
    values = np.array(list(measured.values()))
    tolerance = np.array([tols[name] for name in names])
    ok = values <= tolerance
    table = Table({"check": names, "measured": values, "tolerance": tolerance,
                   "status": ["pass" if flag else "fail" for flag in ok]})
    samples = {"free-space-route-equivalence": 100,
               "force-gradient-corrected": int(np.count_nonzero(smooth)),
               "force-as-printed-ratio": int(np.count_nonzero(moving))}
    return table, {"samples": samples, "kk_offset_widths": list(offsets)}, \
        int(np.count_nonzero(~ok))


_MODE_RUNNERS = {
    "scan-rabi": _mode_scan_rabi,
    "dressed": _mode_dressed,
    "potential": _mode_potential,
    "force": _mode_force,
    "weak-limit": _mode_weak_limit,
    "kk-check": _mode_kk_check,
    "xcheck": _mode_xcheck,
}
# the modes with one row per point of _grid, whose arrays grow with sweep.points
_SWEEP_MODES = ("scan-rabi", "dressed", "potential", "force")


# ------------------------------------------------------------------ runner

def run(cfg: RunConfig) -> RunResult:
    """Evaluate the configured mode; returns the table, manifest and the
    number of xcheck tolerance failures (zero for every other mode)."""
    table, norm, failures = _MODE_RUNNERS[cfg.mode](cfg)
    manifest = {
        "config_sha256": cfg.source_sha256,
        "scenario": cfg.scenario,
        "mode": cfg.mode,
        "variant": cfg.variant,
        "seed": cfg.seed,
        "constants": dict(CONSTANTS),
        "tolerances": {
            "quadrature_rel": cfg.tol_quadrature,
            "xcheck": cfg.tol_xcheck if cfg.tol_xcheck is not None else dict(_XCHECK_TOLS),
        },
        "normalization": norm,
        "provenance": dict(sorted(cfg.provenance.items())),
        "columns": list(table.columns),
        "rows": len(table),
        "xcheck_failures": failures,
    }
    return RunResult(table=table, manifest=manifest, failures=failures)


# ------------------------------------------------------------------ export

# rows formatted and written at a time. A table of at least this many rows
# and no str column is laid out in every block by the numpy kernel of
# _floatcells, whose temporaries the block bounds. The kernel's first block
# in a process costs ~6 ms more (import and first calls): a fresh process
# broke even near 2048 rows of eight columns, where later blocks took
# 2.4-2.7 times less time than CPython's spelling, and 200-row tables never
# import it. The benchmark's sweep-dense wall_s was lower with 2048 rows per
# kernel layout than with 1024 in 22 of 24 alternating pairs (median 0.029
# s, below the 0.032 s between the 1024-row runs' quartiles) and higher
# with 4096 in 2 of 3. Smaller blocks fault fewer pages: glibc malloc
# serves a temporary above its mmap threshold (128 KiB at start, raised as
# such blocks are freed) from a fresh mapping and trims the heap's top, so
# each page is faulted in on first touch. A fresh process's seed-1 export
# round took 12.7-17.7k minor faults with 2048 rows and 7.0k with 1024, its
# second round 10.5k and 4.3k (resource.getrusage, CPython 3.11, glibc, two
# vCPUs). The counts follow the heap's history, and the benchmark's medians
# over warm rounds favour 2048
EXPORT_BLOCK_ROWS = 2048
_CSV_FLOAT = "%.17g".__mod__  # the spelling of format(v, ".17g"), nan, inf and -0 included
_JSON_FLOAT = float.__repr__  # the spelling json.dumps gives a finite float
_SIGN_BIT = np.uint64(1 << 63)


def _float_cells(values: np.ndarray, fmt: str) -> list[str]:
    """Cells of float values as CPython spells them."""
    if fmt == "csv":
        spell = _CSV_FLOAT
    else:
        spell = _JSON_FLOAT if np.isfinite(values).all() else json.dumps
    return list(map(spell, values.tolist()))


def _distinct_floats(columns: list) -> tuple[list[np.ndarray], list]:
    """The float values of a table to spell, and per column None for a str
    column or (index of its values, whether negated).

    Decided once per table, each column compared in place with the earlier
    ones by bits, since -0.0 and 0.0 print differently and NaN != NaN: its
    first value, then the whole column. Each distinct column is spelled
    once, a constant one as its first value. A finite column that is the
    bitwise negation of an earlier one takes that column's cells with the
    leading '-' toggled, which is the spelling of the negated value in both
    formats, signed zeros included; a non-finite one is spelled, as the
    negation of NaN still prints nan."""
    spelled: list[np.ndarray] = []
    seen: list[tuple[np.ndarray, tuple[int, bool]]] = []
    shown = []
    for values in columns:
        if isinstance(values, tuple):
            shown.append(None)
            continue
        bits = values.view(np.uint64)
        ref = next((known for other, known in seen
                    if other[0] == bits[0] and np.array_equal(other, bits)), None)
        if ref is None and np.isfinite(values).all():
            ref = next(((known[0], not known[1]) for other, known in seen
                        if other[0] == bits[0] ^ _SIGN_BIT
                        and np.array_equal(other, bits ^ _SIGN_BIT)), None)
        if ref is None:
            ref = (len(spelled), False)
            spelled.append(values[:1] if (bits == bits[0]).all() else values)
        seen.append((bits, ref))
        shown.append(ref)
    return spelled, shown


def _block_text(columns: list, spelled: list[np.ndarray], shown: list, seps: list[str],
                fmt: str) -> bytes:
    """UTF-8 text of one block of rows spelled by CPython, given its columns
    and, as _distinct_floats gives them, its distinct float values and each
    column's reference: one join over interleaved streams, a separator
    stream, then that column's cells, for each column in turn, then the row
    ends."""
    n = len(columns[0])
    formatted = [_float_cells(values, fmt) for values in spelled]
    stride = len(seps) + len(columns)
    streams = [""] * (n * stride)
    for j, (values, ref) in enumerate(zip(columns, shown)):
        if ref is None:
            cells = values if fmt == "csv" else list(map(json.dumps, values))
        else:
            cells = formatted[ref[0]]
            if ref[1]:
                cells = [c[1:] if c[0] == "-" else "-" + c for c in cells]
        streams[2 * j::stride] = [seps[j]] * n
        streams[2 * j + 1::stride] = cells * n if len(cells) == 1 else cells
    streams[stride - 1::stride] = [seps[-1]] * n
    return "".join(streams).encode("utf-8")


def export(table: Table, path: str | Path, fmt: str) -> None:
    """Write the table; CSV carries 17 significant digits so values
    round-trip bit exactly, JSON lines uses shortest-round-trip floats
    (NaN and Infinity where not finite), as json.dumps does.

    Rows are formatted and written in blocks of EXPORT_BLOCK_ROWS through
    one open file, so the cells and text of the whole table are never held
    at once. Each row is a separator, then a cell, for each column in turn,
    then the row end. The separators are "", ",", ... and "\n" for CSV, and
    '{"k0": ', ', "k1": ', ... and "}\n" for JSON lines. The float columns
    are compared once per table (_distinct_floats), and each distinct one is
    formatted once: a column bit-identical to an earlier one is not
    formatted again, a constant one is a single formatted cell, and a finite
    column that is the negation of an earlier one reuses its cells with the
    sign toggled.

    How the cells are spelled is decided once per table. A table of fewer
    than EXPORT_BLOCK_ROWS rows, or with a str column, is written block by
    block as one join over interleaved streams of separators and cells, each
    cell spelled by CPython ("%.17g" or float.__repr__). Every block of a
    larger table of float columns, its last partial block included, is laid
    out in numpy by _floatcells, which spells the cells of its distinct
    columns together. It decides ties and interval ends exactly where its
    arithmetic is exact, and leaves to CPython only zeros, non-finite values
    and the rare other cells within 2^-20 of a tie or an interval end. The
    bytes are those of formatting every cell with CPython."""
    if len(table) == 0:
        raise DomainError("refusing to export an empty table")
    if fmt not in ("csv", "jsonl"):
        raise DomainError(f"unknown format {fmt!r}; use 'csv' or 'jsonl'")
    names = table.columns
    columns = [table.values(name) for name in names]
    if fmt == "csv":
        # checked before the file is opened, so a refused table writes nothing
        for values in columns:
            for value in values if isinstance(values, tuple) else ():
                if "," in value or '"' in value or "\n" in value or "\r" in value:
                    raise DomainError(f"cell value needs quoting, unsupported: {value!r}")
        head = ",".join(names) + "\n"
        seps = ["", *[","] * (len(names) - 1), "\n"]
    else:
        head = ""
        keys = [json.dumps(name) for name in names]
        seps = ["{" + keys[0] + ": ", *(f", {key}: " for key in keys[1:]), "}\n"]
    spelled, shown = _distinct_floats(columns)
    n = len(table)
    kernel = n >= EXPORT_BLOCK_ROWS and None not in shown
    if kernel:
        from . import _floatcells

        seps = [sep.encode("utf-8") for sep in seps]
    with open(path, "wb") as out:
        out.write(head.encode("utf-8"))
        for start in range(0, n, EXPORT_BLOCK_ROWS):
            rows = slice(start, start + EXPORT_BLOCK_ROWS)
            block = [values if values.size == 1 else values[rows] for values in spelled]
            if kernel:
                out.write(_floatcells.block_text(min(n - start, EXPORT_BLOCK_ROWS), block, shown,
                                                 seps, fmt, lambda v: _float_cells(v, fmt)))
            else:
                out.write(_block_text([values[rows] for values in columns], block, shown, seps,
                                      fmt))


def write_manifest(manifest: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )


# --------------------------------------------------------------------- CLI

# the flags of every subcommand, each with its add_argument keywords; a
# flag's dest is the config key it sets. _build_parser and _canonical_args
# both read this table
_FLAGS = {
    "--config": {"dest": "config", "required": True, "help": "YAML run configuration"},
    "--out": {"dest": "output.path", "metavar": "OUT", "help": "output table path"},
    "--format": {"dest": "output.format", "choices": FORMATS},
    "--variant": {"dest": "variant", "choices": VARIANTS},
    "--tolerance": {"dest": "tolerances.xcheck", "metavar": "TOLERANCE", "type": float,
                    "help": "uniform xcheck tolerance override"},
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="cavityvdw",
        description="Two-atom cavity coupling tables: Rabi scans, dressed "
                    "levels, potentials, forces and consistency checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _MODE_RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} mode")
        for flag, spec in _FLAGS.items():
            p.add_argument(flag, **spec)
    return parser


def _canonical_args(argv) -> dict | None:
    """The arguments _build_parser() reads from a canonical command line,
    a mode name then flag/value pairs with each flag spelled in full and
    --config among them; None for any other command line, which is left to
    argparse (help, usage errors and every other spelling).

    A value must not start with "-", must be one of the flag's choices and,
    for --tolerance, must parse as a float; a repeated flag keeps its last
    value, as argparse does."""
    if len(argv) % 2 != 1 or argv[0] not in _MODE_RUNNERS:
        return None
    args = {spec["dest"]: None for spec in _FLAGS.values()}
    for flag, value in zip(argv[1::2], argv[2::2]):
        spec = _FLAGS.get(flag)
        if spec is None or value.startswith("-"):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        args[spec["dest"]] = value
    if args["config"] is None:
        return None
    return {"command": argv[0], **args}


def _default_out(cfg: RunConfig) -> str:
    ext = "csv" if cfg.out_format == "csv" else "jsonl"
    return f"cavityvdw-{cfg.mode}.{ext}"


def main(argv=None) -> int:
    """Run one subcommand with the arguments argv; returns the exit code.

    With argv None, main runs as the program, as the cavityvdw script and
    `python -m cavityvdw.cli` call it: it reads sys.argv and, once the
    subcommand has returned its exit code, ends the process itself. It runs
    the atexit handlers, flushes sys.stdout and sys.stderr, and calls
    os._exit with the code, so interpreter shutdown does not trace and free
    a heap the operating system takes back anyway. The table and manifest
    are written through files already closed, so every byte and exit code
    is the same as main(argv)'s. main flushes the streams and returns the
    code instead, leaving shutdown to the interpreter, where skipping it
    could lose something: a trace or profile function is set (coverage,
    cProfile), a thread other than the main one is alive, or a flush raises
    other than on a stream whose reader has gone (a closed pipe, as `| head
    -c 0` leaves). That stream loses the report lines and nothing else: the
    exit code is the one an open stdout gets. argparse's SystemExit (help,
    usage errors) and uncaught exceptions propagate either way. Library
    callers pass argv, and main returns."""
    if argv is not None:
        return _command(argv)
    code = _command(None)
    if sys.gettrace() is not None or sys.getprofile() is not None \
            or threading.active_count() > 1:
        _flush_standard_streams()
        return code
    atexit._run_exitfuncs()
    if _flush_standard_streams():
        os._exit(code)
    return code


def _flush_standard_streams() -> bool:
    """Flush sys.stdout and sys.stderr; False if a flush raised other than
    BrokenPipeError. A stream whose reader has gone loses what it holds, and
    its descriptor is pointed at os.devnull, as the SIGPIPE note in Python's
    signal docs does, so that the shutdown flush cannot fail again."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        except (OSError, ValueError):
            return False
    return True


def _command(argv) -> int:
    args = _canonical_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = vars(_build_parser().parse_args(argv))
    command, config = args.pop("command"), args.pop("config")
    flags = {key: value for key, value in args.items() if value is not None}
    try:
        cfg = load_config(config, command, flags)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run(cfg)
    except (ConfigError, DomainError, QuadratureError, FitError) as exc:
        print(f"error [{cfg.mode}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        if cfg.mode not in _SWEEP_MODES:
            raise
        print(f"error [{cfg.mode}]: sweep.points: {cfg.sweep_points} points do not fit in "
              f"memory", file=sys.stderr)
        return 1

    out_path = cfg.out_path or _default_out(cfg)
    manifest_path = f"{out_path}.manifest.json"
    try:
        export(result.table, out_path, cfg.out_format)
        write_manifest(result.manifest, manifest_path)
    except (DomainError, OSError) as exc:
        print(f"error [{cfg.mode}]: {exc}", file=sys.stderr)
        return 1

    try:
        if cfg.mode == "xcheck":
            for row in result.table.rows:
                print(f"[{row['status'].upper():4s}] {row['check']}: "
                      f"measured {row['measured']:.3e} vs tolerance {row['tolerance']:.3e}")
        print(f"wrote {out_path} ({len(result.table)} rows)")
        print(f"wrote {manifest_path}")
    except BrokenPipeError:
        # stdout's reader has gone (a closed pipe): the report is lost, and
        # an unbuffered stream keeps none of it to fail on again
        pass
    return 2 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
