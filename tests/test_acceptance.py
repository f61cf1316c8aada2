"""Acceptance gate: the eleven numbered criteria, one report line each.

Report lines bypass pytest's capture so the [PASS]/[FAIL] verdicts always
appear in the run log, alongside the per-test outcomes.
"""

import math
import time

import numpy as np
import pytest

from cavityvdw.cli import main as cli_main
from cavityvdw.constants import C, HBAR
from cavityvdw.dressed import (
    DressedSystem,
    coupling_angle,
    eigenenergies,
    force_theta,
    potential_pm,
    potential_theta,
)
from cavityvdw.greens import (
    PlanarCavity,
    QuadratureControl,
    SpectralFunction,
    kk_real_from_imag,
    planar_cavity_green,
)
from cavityvdw.modecoupling import (
    AtomSpec,
    ModeModel,
    fit_lorentzian,
    lorentzian_profile,
    mode_norm,
    mode_overlap,
)
from cavityvdw.planarcavity import PlanarScenario, rabi_contributions, scan_rabi
from cavityvdw.weakfield import (
    free_space_resonant_potential,
    narrow_mode_real_contraction,
    resonant_potential,
    weak_limit_potentials,
)
from cavityvdw.greens import FreeSpaceGreens

SEED = 20260814


def _report(capsys, num, name, measured, tol, elapsed, limit=None, extra=""):
    ok = measured <= tol and (limit is None or elapsed <= limit)
    tail = f", {extra}" if extra else ""
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: "
            f"measured {measured:.3e} vs tolerance {tol:.3e}{tail} "
            f"({elapsed:.2f}s)")
    with capsys.disabled():
        print(line, flush=True)
    assert measured <= tol, line
    if limit is not None:
        assert elapsed <= limit, f"criterion {num} runtime {elapsed:.2f}s > {limit}s"


def _reference_cavity(nu=1):
    return PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=nu)


def test_criterion_01_factor_four_antinode(capsys):
    t0 = time.perf_counter()
    cav = _reference_cavity()
    scn = PlanarScenario.resonant(cav, cav.d / 2, cav.d / 2)
    rb = rabi_contributions(scn)
    measured = abs(rb.omega2_total / rb.omega2_a - 4.0)
    _report(capsys, 1, "factor-4 antinode enhancement", measured, 1e-12,
            time.perf_counter() - t0, limit=1.0)


def test_criterion_02_node_invisibility(capsys):
    t0 = time.perf_counter()
    cav = _reference_cavity(nu=2)  # interior node at d/2
    scn = PlanarScenario.resonant(cav, cav.d / 2, 0.3 * cav.d)
    grid = np.linspace(1.0 / 1000.0, 1.0 - 1.0 / 1000.0, 1000) * cav.d
    table = scan_rabi(scn, "B", grid)
    worst = max(abs(r["omega2_total"] - r["omega2_B"]) / r["omega2_B"]
                for r in table.rows)
    _report(capsys, 2, "node invisibility", worst, 1e-12,
            time.perf_counter() - t0, limit=1.0)


def test_criterion_03_identical_atom_consistency(capsys):
    t0 = time.perf_counter()
    cav = _reference_cavity()
    scn = PlanarScenario.resonant(cav, cav.d / 2, cav.d / 2)
    grid = np.linspace(1.0 / 1000.0, 1.0 - 1.0 / 1000.0, 1000) * cav.d
    table = scan_rabi(scn, "joint", grid)
    worst = max(abs(r["omega2_AB"] - 2.0 * r["omega2_A"]) / (2.0 * r["omega2_A"])
                for r in table.rows)
    _report(capsys, 3, "identical-atom cross term", worst, 1e-12,
            time.perf_counter() - t0)


def test_criterion_04_free_space_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    provider = FreeSpaceGreens()
    worst = 0.0
    for _ in range(100):
        w = 10.0 ** rng.uniform(14.5, 15.5)
        k = w / C
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = (rng.uniform(0.3, 3.0) / k) * direction
        d_a = rng.normal(size=3) * 1e-29
        d_b = rng.normal(size=3) * 1e-29
        closed = free_space_resonant_potential(d_a, d_b, k, r)
        contraction = resonant_potential(
            AtomSpec(position=(0.0, 0.0, 0.0), omega10=w, dipole=tuple(d_a)),
            AtomSpec(position=tuple(r), omega10=w, dipole=tuple(d_b)),
            provider,
        ).interaction
        worst = max(worst, abs(closed - contraction)
                    / max(abs(closed), abs(contraction)))
    _report(capsys, 4, "free-space closed form vs contraction", worst, 1e-12,
            time.perf_counter() - t0, limit=1.0)


def test_criterion_05_force_gradient_consistency(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    cav = _reference_cavity()
    h = 1.0e-5 * cav.d
    worst_cor = 0.0
    worst_ratio = 0.0
    for _ in range(100):
        z_a, z_b = rng.uniform(0.05, 0.95, size=2) * cav.d
        theta = rng.uniform(0.1, 1.45) + (math.pi / 2.0 if rng.random() < 0.5 else 0.0)
        probe = PlanarScenario.resonant(cav, z_a, z_b)
        detuning = rng.uniform(-3.0, 3.0) * probe.rabi(probe.position_a, probe.position_b)
        dip = (1e-29, 0.0, 0.0)
        w10 = cav.omega_nu - detuning
        scn = PlanarScenario(
            cavity=cav,
            atom_a=AtomSpec(position=(0.0, 0.0, z_a), omega10=w10, dipole=dip),
            atom_b=AtomSpec(position=(0.0, 0.0, z_b), omega10=w10, dipole=dip),
        )

        def u_at(p):
            sysd = DressedSystem.from_coupling(scn.rabi(p, scn.position_b), scn.detuning)
            return potential_theta(theta, sysd)

        base = np.asarray(scn.position_a, dtype=float)
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            d1 = (u_at(base + h * e) - u_at(base - h * e)) / (2.0 * h)
            d2 = (u_at(base + 0.5 * h * e) - u_at(base - 0.5 * h * e)) / h
            fd[i] = (4.0 * d2 - d1) / 3.0
        f_cor = force_theta(scn, theta, "A", "corrected")
        worst_cor = max(worst_cor,
                        float(np.linalg.norm(f_cor + fd) / np.linalg.norm(fd)))
        f_ap = force_theta(scn, theta, "A", "as-printed")
        sin2tc = math.sin(2.0 * coupling_angle(
            scn.rabi(scn.position_a, scn.position_b), scn.detuning))
        worst_ratio = max(worst_ratio, abs(
            float(np.linalg.norm(f_ap)) * abs(sin2tc)
            / float(np.linalg.norm(f_cor)) - 1.0))
    measured = max(worst_cor, worst_ratio)
    _report(capsys, 5, "superposition force vs -grad U", measured, 1e-6,
            time.perf_counter() - t0, limit=10.0,
            extra=(f"corrected dev {worst_cor:.2e}; as-printed excess matches "
                   f"1/sin(2 theta_c) to {worst_ratio:.2e}"))


def test_criterion_06_strong_to_weak_limit(capsys):
    t0 = time.perf_counter()
    cav = _reference_cavity()
    scn = PlanarScenario.resonant(cav, cav.d / 2, cav.d / 2)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    detuning = 1.0e3 * omega_r
    omega = math.hypot(omega_r, detuning)
    strong = HBAR * (detuning - omega) / 2.0
    n = omega_r**2 / (math.pi * cav.gamma_nu)
    weak = weak_limit_potentials(cav.gamma_nu, n, detuning)[1]
    measured = abs(strong / weak - 1.0)
    _report(capsys, 6, "strong-coupling ladder -> weak limit", measured, 1e-5,
            time.perf_counter() - t0, limit=1.0)


def test_criterion_07_kk_narrow_mode_identity(capsys):
    t0 = time.perf_counter()
    cav = _reference_cavity()
    gamma, om_nu = cav.gamma_nu, cav.omega_nu
    span = 5.0e4 * gamma
    sf = SpectralFunction(
        func=lambda w: lorentzian_profile(1.0, om_nu, gamma, w),
        support=(om_nu - span, om_nu + span),
        hint_points=(om_nu - gamma, om_nu, om_nu + gamma),
    )
    worst = 0.0
    for offset in (-1.0e3, 1.0e3):
        w_eval = om_nu + offset * gamma
        numeric = kk_real_from_imag(sf, w_eval) / math.pi
        closed = narrow_mode_real_contraction(1.0, gamma, om_nu, offset)
        worst = max(worst, abs(numeric / closed - 1.0))
    _report(capsys, 7, "Kramers-Kronig narrow-mode asymptote", worst, 1e-2,
            time.perf_counter() - t0, limit=5.0)


def test_criterion_08_fitted_mode_width(capsys):
    t0 = time.perf_counter()
    cav = _reference_cavity()
    gamma, om_nu = cav.gamma_nu, cav.omega_nu
    z = cav.d / 2
    omegas = om_nu + np.linspace(-5.0, 5.0, 81) * gamma
    scan = np.array([
        w**2 * planar_cavity_green(cav, z, z, float(w)).entry("x", "x").imag
        for w in omegas
    ])
    # the mode turn-on is an arctan step; its omega-derivative is the
    # Lorentzian whose width the criterion pins to 2 c delta / d
    deriv = (scan[2:] - scan[:-2]) / (omegas[2:] - omegas[:-2])
    fit = fit_lorentzian(list(zip(omegas[1:-1], deriv)))
    measured = abs(fit.gamma_nu / gamma - 1.0)
    _report(capsys, 8, "quadrature scan mode width vs 2 c delta / d", measured, 0.15,
            time.perf_counter() - t0, limit=60.0,
            extra=f"fitted {fit.gamma_nu:.4e} vs {gamma:.4e} rad/s")


def test_criterion_09_eigen_solver_cross_check(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        omega_r = 10.0 ** rng.uniform(6.0, 14.0)
        detuning = (-1.0 if rng.random() < 0.5 else 1.0) * 10.0 ** rng.uniform(6.0, 14.0)
        e_plus, e_minus = eigenenergies(omega_r, detuning)
        h = np.array([[0.0, omega_r / 2.0], [omega_r / 2.0, detuning]])
        lo, hi = np.linalg.eigvalsh(h)
        scale = HBAR * max(abs(lo), abs(hi))
        worst = max(worst,
                    abs(e_plus - HBAR * hi) / scale,
                    abs(e_minus - HBAR * lo) / scale)
    _report(capsys, 9, "closed-form E+- vs 2x2 eigensolver", worst, 1e-12,
            time.perf_counter() - t0)


def test_criterion_10_property_suites(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    violations = 0

    cav = _reference_cavity(nu=3)
    for _ in range(10_000):
        g_aa, g_bb = 10.0 ** rng.uniform(-2.0, 6.0, size=2)
        rho = rng.uniform(-1.0, 1.0)
        model = ModeModel(omega_nu=1e15, gamma_nu=1e9, g2_aa=g_aa, g2_bb=g_bb,
                          g2_ab=rho * math.sqrt(g_aa * g_bb))
        if mode_norm(model) < 0.0:
            violations += 1
        if abs(mode_overlap(model)) > 1.0:
            violations += 1

    for _ in range(10_000):
        omega_r = 10.0 ** rng.uniform(6.0, 14.0)
        detuning = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(6.0, 14.0)
        tc = coupling_angle(omega_r, detuning)
        if abs(math.sin(2 * tc) ** 2 + math.cos(2 * tc) ** 2 - 1.0) > 1e-12:
            violations += 1
        omega = math.hypot(omega_r, detuning)
        if abs(math.sin(2 * tc) - omega_r / omega) > 1e-12:
            violations += 1
        u_plus, u_minus = potential_pm(omega)
        if u_plus + u_minus != 0.0:
            violations += 1

    for _ in range(10_000):
        z_a, z_b = rng.uniform(0.001, 0.999, size=2) * cav.d
        scn = PlanarScenario.resonant(cav, z_a, z_b)
        if rabi_contributions(scn).omega2_total < 0.0:
            violations += 1

    _report(capsys, 10, "property suites (N, overlap, angle, U+-, total)",
            float(violations), 0.0, time.perf_counter() - t0, limit=10.0)


def test_criterion_11_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "scenario: planar\ncavity:\n  d: 1.0e-6\n  delta: 1.0e-3\n  nu: 1\n"
    )
    diffs = 0
    for mode in ("scan-rabi", "xcheck"):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / f"{mode}-{tag}.csv"
            code = cli_main([mode, "--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{mode} exited {code}"
            outs.append((out.read_bytes(),
                         (tmp_path / f"{mode}-{tag}.csv.manifest.json").read_bytes()))
        if outs[0][0] != outs[1][0]:
            diffs += 1
        if outs[0][1] != outs[1][1]:
            diffs += 1
    _report(capsys, 11, "byte-identical repeated runs", float(diffs), 0.0,
            time.perf_counter() - t0)
