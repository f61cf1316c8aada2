import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityvdw import constants
from cavityvdw.constants import C, HBAR
from cavityvdw.dressed import (
    FD_STEP,
    DressedSystem,
    force_theta,
    grad_rabi,
    potential_pm,
    richardson_slope,
    theta_force,
)
from cavityvdw.errors import DomainError
from cavityvdw.greens import ComplexDyad, PlanarCavity, planar_resonant_im_gxx
from cavityvdw.modecoupling import AtomSpec, ModeModel, coupling_strength_sq, mode_norm
from cavityvdw.planarcavity import (
    PlanarScenario,
    RabiBreakdown,
    free_decay_rate,
    rabi_contributions,
    rabi_gradient_a,
    rabi_omega,
    scan_rabi,
)
from cavityvdw.tabular import Table

HBAR_LIT = 1.054571817e-34
EPS0_LIT = 8.8541878128e-12
MU0_LIT = 1.25663706212e-6
C_LIT = 299792458.0


# ------------------------------------------------------------- derived rates

def test_free_decay_rate_values_and_scaling():
    w, d = 2.0e15, 3.0e-29
    expect = w**3 * d**2 / (3.0 * math.pi * EPS0_LIT * HBAR_LIT * C_LIT**3)
    assert free_decay_rate(w, d) == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert free_decay_rate(w, 2 * d) == pytest.approx(4.0 * expect, rel=1e-12, abs=0.0)
    assert free_decay_rate(2 * w, d) == pytest.approx(8.0 * expect, rel=1e-12, abs=0.0)
    # identity used to reduce the coupling contraction to 3 c Gamma0
    assert (MU0_LIT * d**2 / (HBAR_LIT * math.pi)) * w**3 == pytest.approx(
        3.0 * C_LIT * free_decay_rate(w, d), rel=1e-12, abs=0.0
    )
    with pytest.raises(DomainError):
        free_decay_rate(-1.0, d)


def test_free_decay_rate_uses_eps0_constant():
    w, d = 2.0e15, 3.0e-29
    expect = w**3 * d**2 / (3.0 * math.pi * constants.EPS0 * HBAR * C**3)
    assert free_decay_rate(w, d) == expect
    assert constants.EPS0 * constants.MU0 * C**2 == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_cavity_rate_helpers():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    assert cav.gamma_nu == pytest.approx(5.99584916e11, rel=1e-9, abs=0.0)
    assert cav.omega_nu == pytest.approx(941825783654426.6, rel=1e-15, abs=0.0)
    half = PlanarCavity(d=0.5e-6, delta=1.0e-3, nu=1)
    assert half.gamma_nu == pytest.approx(2.0 * cav.gamma_nu, rel=1e-15, abs=0.0)
    assert half.omega_nu == pytest.approx(2.0 * cav.omega_nu, rel=1e-15, abs=0.0)
    two = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=2)
    assert two.omega_nu == pytest.approx(2.0 * cav.omega_nu, rel=1e-15, abs=0.0)


# ----------------------------------------------------------------- scenario

def test_scenario_validation():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    scn = PlanarScenario.resonant(cav, 0.3 * cav.d, 0.6 * cav.d)
    assert scn.on_resonance and scn.detuning == 0.0
    w = cav.omega_nu
    dip = (1e-29, 0.0, 0.0)
    with pytest.raises(DomainError):
        PlanarScenario(
            cavity=cav,
            atom_a=AtomSpec(position=(1e-7, 0.0, 0.3e-6), omega10=w, dipole=dip),
            atom_b=AtomSpec(position=(0.0, 0.0, 0.6e-6), omega10=w, dipole=dip),
        )
    with pytest.raises(DomainError):
        PlanarScenario(
            cavity=cav,
            atom_a=AtomSpec(position=(0.0, 0.0, 0.3e-6), omega10=w, dipole=(0.0, 0.0, 1e-29)),
            atom_b=AtomSpec(position=(0.0, 0.0, 0.6e-6), omega10=w, dipole=dip),
        )
    with pytest.raises(DomainError):
        PlanarScenario(
            cavity=cav,
            atom_a=AtomSpec(position=(0.0, 0.0, 0.3e-6), omega10=w, dipole=dip),
            atom_b=AtomSpec(position=(0.0, 0.0, 0.6e-6), omega10=1.01 * w, dipole=dip),
        )


def test_scenario_clamps_edge_positions_with_warning():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    with pytest.warns(UserWarning):
        scn = PlanarScenario.resonant(cav, 0.0, 0.6 * cav.d)
    assert scn.atom_a.position[2] == pytest.approx(1e-6 * cav.d, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        PlanarScenario.resonant(cav, -0.1 * cav.d, 0.6 * cav.d)
    with pytest.raises(DomainError):
        PlanarScenario.resonant(cav, 1.1 * cav.d, 0.6 * cav.d)


@pytest.mark.parametrize("entry", ["constructor", "resonant"])
def test_clamp_warning_points_at_the_caller(entry):
    # the warning names the line that built the scenario, not a frame of
    # the package between it and the clamp
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    dip = (1e-29, 0.0, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if entry == "resonant":
            PlanarScenario.resonant(cav, 1e-13, 0.6 * cav.d)
        else:
            w = cav.omega_nu
            PlanarScenario(cavity=cav,
                           atom_a=AtomSpec(position=(0.0, 0.0, 1e-13), omega10=w, dipole=dip),
                           atom_b=AtomSpec(position=(0.0, 0.0, 0.6 * cav.d), omega10=w,
                                           dipole=dip))
    assert len(caught) == 1 and "clamped" in str(caught[0].message)
    assert caught[0].filename == __file__


# ------------------------------------------------------------- contributions

def test_rabi_contributions_antinode_factor_four():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    scn = PlanarScenario.resonant(cav, cav.d / 2, cav.d / 2)
    rb = rabi_contributions(scn)
    single_peak = 3.0 * C * scn.gamma0 / (2.0 * cav.d)
    assert rb.omega2_a == pytest.approx(single_peak, rel=1e-13, abs=0.0)
    assert rb.omega2_b == pytest.approx(single_peak, rel=1e-13, abs=0.0)
    assert rb.omega2_ab == pytest.approx(2.0 * single_peak, rel=1e-13, abs=0.0)
    assert rb.omega2_total == pytest.approx(4.0 * single_peak, rel=1e-13, abs=0.0)


def test_rabi_contributions_node_invisibility():
    # nu = 2 has an interior node at d/2; with atom A there the cross term
    # vanishes and the total collapses to atom B alone
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=2)
    for zb_frac in (0.1, 0.25, 0.4, 0.77):
        scn = PlanarScenario.resonant(cav, cav.d / 2, zb_frac * cav.d)
        rb = rabi_contributions(scn)
        base = 3.0 * C * scn.gamma0 / (2.0 * cav.d)
        s_b = math.sin(2.0 * math.pi * zb_frac)
        assert rb.omega2_total == pytest.approx(base * s_b**2, rel=1e-12, abs=0.0)
        assert abs(rb.omega2_ab) <= 1e-14 * rb.omega2_total


def test_rabi_contributions_equal_positions_identity():
    cav = PlanarCavity(d=1.3e-6, delta=2.0e-3, nu=1)
    for f in (0.21, 0.4, 0.5, 0.83):
        scn = PlanarScenario.resonant(cav, f * cav.d, f * cav.d)
        rb = rabi_contributions(scn)
        assert rb.omega2_ab == pytest.approx(2.0 * rb.omega2_a, rel=1e-13, abs=0.0)


def test_rabi_contributions_swap_symmetry_and_positivity():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=3)
    rng = np.random.default_rng(5)
    for _ in range(40):
        fa, fb = rng.uniform(0.01, 0.99, size=2)
        r1 = rabi_contributions(PlanarScenario.resonant(cav, fa * cav.d, fb * cav.d))
        r2 = rabi_contributions(PlanarScenario.resonant(cav, fb * cav.d, fa * cav.d))
        assert r1.omega2_a == pytest.approx(r2.omega2_b, rel=1e-13, abs=0.0)
        assert r1.omega2_ab == pytest.approx(r2.omega2_ab, rel=1e-13, abs=0.0)
        assert r1.omega2_total == pytest.approx(r2.omega2_total, rel=1e-13, abs=0.0)
        assert r1.omega2_total >= 0.0


@settings(max_examples=100, deadline=None)
@given(nu=st.integers(1, 5), fa=st.floats(0.01, 0.99), fb=st.floats(0.01, 0.99),
       detuning=st.floats(-1.0e12, 1.0e12))
def test_atom_swap_leaves_rabi_levels_potentials_and_gradients_unchanged(nu, fa, fb, detuning):
    # s_A + s_B is commutative, so swapping the atoms moves no bit
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=nu)
    scn = PlanarScenario.resonant(cav, fa * cav.d, fb * cav.d)
    swapped = PlanarScenario.resonant(cav, fb * cav.d, fa * cav.d)
    omega_r = rabi_omega(scn, scn.position_a[2], scn.position_b[2])
    swapped_r = rabi_omega(swapped, swapped.position_a[2], swapped.position_b[2])
    assert omega_r == swapped_r
    levels = DressedSystem.from_coupling(omega_r, detuning)
    swapped_levels = DressedSystem.from_coupling(swapped_r, detuning)
    assert vars(levels) == vars(swapped_levels)
    assert potential_pm(levels.omega) == potential_pm(swapped_levels.omega)
    assert grad_rabi(scn, "A").tolist() == grad_rabi(swapped, "B").tolist()
    assert grad_rabi(scn, "B").tolist() == grad_rabi(swapped, "A").tolist()


# |s_A + s_B| is unchanged when both atoms are mirrored, z -> d - z, since
# sin(nu pi (d - z) / d) = (-1)^(nu + 1) sin(nu pi z / d); the rounding of
# d - z and of the sine's argument stays a few ulp of the amplitude A: over
# 220 000 draws the change was at most 6.8e-15 A (1.1e-11 relative at worst
# next to a node of Omega_R, where the sum cancels)
MIRROR_PARITY_TOL = 2.0e-14


@settings(max_examples=200, deadline=None)
@given(nu=st.integers(1, 5), fa=st.floats(0.01, 0.99), fb=st.floats(0.01, 0.99))
def test_rabi_omega_is_unchanged_when_both_atoms_are_mirrored(nu, fa, fb):
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=nu)
    scn = PlanarScenario.resonant(cav, fa * cav.d, fb * cav.d)
    z_a, z_b = scn.position_a[2], scn.position_b[2]
    omega_r = rabi_omega(scn, z_a, z_b)
    mirrored = rabi_omega(scn, cav.d - z_a, cav.d - z_b)
    assert abs(mirrored - omega_r) <= MIRROR_PARITY_TOL * math.sqrt(scn.amp2)


def _rabi_in_cli_unit(lam, nu, z_a_over_d, z_b_over_d):
    """Omega_R on resonance in the CLI's unit sqrt(c Gamma0 / d), with d, z_A
    and z_B scaled by lam and so omega10 = omega_nu by 1 / lam."""
    cav = PlanarCavity(d=lam * 1.0e-6, delta=1.0e-3, nu=nu)
    scn = PlanarScenario.resonant(cav, z_a_over_d * cav.d, z_b_over_d * cav.d)
    omega_r = rabi_omega(scn, scn.position_a[2], scn.position_b[2])
    return omega_r / math.sqrt(C * scn.gamma0 / cav.d)


# Omega_R / sqrt(c Gamma0 / d) = sqrt(3/2) |s_A + s_B| holds at every length
# scale. A power of two scales each factor exactly; over this test's draws
# with lam = 10^U(-1, 1) the rounding moved it by at most 1.5e-15 of its
# largest value, 2 sqrt(3/2)
RABI_SCALING_TOL = 6.0e-15


def test_rabi_omega_in_the_cli_unit_is_unchanged_by_length_scaling():
    rng = np.random.default_rng(11)
    for i in range(200):
        nu = int(rng.integers(1, 6))
        fa, fb = rng.uniform(0.01, 0.99, 2).tolist()
        unit = _rabi_in_cli_unit(1.0, nu, fa, fb)
        assert _rabi_in_cli_unit(2.0 ** (i % 7 - 3), nu, fa, fb) == unit
        scaled = _rabi_in_cli_unit(float(10.0 ** rng.uniform(-1.0, 1.0)), nu, fa, fb)
        assert abs(scaled - unit) <= RABI_SCALING_TOL * 2.0 * math.sqrt(1.5)


def test_rabi_totals_at_exact_nodes_are_nonnegative():
    # where s_A = -s_B exactly, A^2 s_A^2 + A^2 s_B^2 + 2 A^2 s_A s_B cancels
    # and can round below zero; the total written there must be >= 0 and
    # every other total the unchanged sum
    rounded_below = 0
    for nu in range(1, 6):
        cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=nu)
        for zb in np.linspace(0.01, 0.99, 99) * cav.d:
            scn = PlanarScenario.resonant(cav, cav.d / 2, zb)
            for points in (11, 21, 51, 101, 201, 501, 1001):
                t = scan_rabi(scn, "A", np.linspace(0.0, 1.0, points) * cav.d)
                total = sum(t.values(k) for k in ("omega2_A", "omega2_B", "omega2_AB"))
                assert np.array_equal(t.values("omega2_total"), np.maximum(total, 0.0))
                assert np.all(t.values("omega2_total_dimless") >= 0.0)
                rounded_below += int(np.count_nonzero(total < 0.0))
            # the pairs z_A = z_B -+ d/nu, exact nodes for the scalar route
            for za in (zb - cav.d / nu, zb + cav.d / nu):
                if 0.0 < za < cav.d:
                    rb = rabi_contributions(PlanarScenario.resonant(cav, za, zb))
                    assert rb.omega2_total == max(rb.omega2_a + rb.omega2_b + rb.omega2_ab, 0.0)
    assert rounded_below > 0


def test_rabi_contributions_offresonance_rejected():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    dip = (1e-29, 0.0, 0.0)
    w = 0.9 * cav.omega_nu
    scn = PlanarScenario(
        cavity=cav,
        atom_a=AtomSpec(position=(0.0, 0.0, 0.3e-6), omega10=w, dipole=dip),
        atom_b=AtomSpec(position=(0.0, 0.0, 0.6e-6), omega10=w, dipole=dip),
    )
    with pytest.raises(DomainError, match="dressed"):
        rabi_contributions(scn)


def test_rabi_protocol_consistent_with_contributions():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=2)
    scn = PlanarScenario.resonant(cav, 0.2 * cav.d, 0.35 * cav.d)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    assert omega_r**2 == pytest.approx(rabi_contributions(scn).omega2_total, rel=1e-13, abs=0.0)


def test_grad_rabi_matches_analytic_gradient_near_mirrors():
    # the closed form against the finite-difference reference where the
    # mode function is small and steep (z_A within 0.001 d of a mirror)
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    dip = (1.0e-29, 0.0, 0.0)
    w = cav.omega_nu + 2.0e10

    def atom(z):
        return AtomSpec(position=(0.0, 0.0, z), omega10=w, dipole=dip)

    for frac in (0.001, 0.01, 0.999):
        scn = PlanarScenario(cavity=cav, atom_a=atom(frac * cav.d), atom_b=atom(0.3 * cav.d))
        assert scn.detuning == pytest.approx(-2.0e10, rel=1e-3, abs=0.0)
        expect, _ = richardson_slope(lambda dz: rabi_omega(scn, frac * cav.d + dz, 0.3 * cav.d),
                                     FD_STEP * cav.d)
        got = grad_rabi(scn, "A")[2]
        assert got == rabi_gradient_a(scn, frac * cav.d, 0.3 * cav.d)
        assert got == pytest.approx(expect, rel=1e-10, abs=0.0), frac


# force_theta on the analytic gradient against a finite difference of
# Omega_R, relative to the largest gradient A nu pi / d. The reference steps
# by FD_STEP d / nu, so its Richardson truncation stays ~1e-17; what grows
# with nu is the rounding of z + h, ~ulp(z) / h: over 400 random points per
# nu the miss was 2.9e-12 at nu = 1, 3.1e-10 at 100, 5.8e-10 at 300 and
# 3.1e-9 at 1000
FORCE_FD_TOL_PER_NU = 1.0e-11


@pytest.mark.parametrize("nu", [1, 100, 300, 1000])
def test_force_theta_matches_the_analytic_gradient_at_high_mode_index(nu):
    rng = np.random.default_rng(nu)
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=nu)
    for z_a, z_b, theta in zip(*rng.uniform(0.05, 0.95, (2, 50)) * cav.d,
                               rng.uniform(0.1, 1.45, 50)):
        scn = PlanarScenario.resonant(cav, z_a, z_b)
        got = force_theta(scn, theta, "A")
        fd, _ = richardson_slope(lambda dz: [scn.rabi((0.0, 0.0, scn.position_a[2] + t),
                                                      scn.position_b) for t in dz],
                                 FD_STEP * (cav.d / nu))
        want = theta_force(theta, fd)
        scale = abs(theta_force(theta, math.sqrt(scn.amp2) * nu * math.pi / cav.d))
        assert got[0] == got[1] == 0.0
        assert abs(got[2] - want) <= FORCE_FD_TOL_PER_NU * nu * scale, (z_a, z_b, theta)


def test_pipeline_equality_with_coupling_route():
    # gamma_nu pi N assembled from the coupling contraction must equal the
    # closed-form total
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    scn = PlanarScenario.resonant(cav, 0.31 * cav.d, 0.68 * cav.d)
    w = cav.omega_nu

    class ModeProvider:
        def tensor(self, r1, r2, omega):
            val = planar_resonant_im_gxx(cav, r1[2], r2[2], omega) / omega**2
            m = np.zeros((3, 3), dtype=complex)
            m[0, 0] = 1j * val
            return ComplexDyad(matrix=m, real_status="excluded")

    prov = ModeProvider()
    g2_aa = coupling_strength_sq(scn.atom_a, scn.atom_a, w, prov)
    g2_bb = coupling_strength_sq(scn.atom_b, scn.atom_b, w, prov)
    g2_ab = coupling_strength_sq(scn.atom_a, scn.atom_b, w, prov)
    model = ModeModel(omega_nu=w, gamma_nu=cav.gamma_nu,
                      g2_aa=g2_aa, g2_bb=g2_bb, g2_ab=g2_ab)
    n = mode_norm(model)
    assert cav.gamma_nu * math.pi * n == pytest.approx(
        rabi_contributions(scn).omega2_total, rel=1e-10, abs=0.0
    )


# ------------------------------------------------------------------- scans

def test_scan_rabi_joint_matches_closed_form():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    scn = PlanarScenario.resonant(cav, 0.5 * cav.d, 0.5 * cav.d)
    grid = np.linspace(0.01, 0.99, 200) * cav.d
    t = scan_rabi(scn, "joint", grid)
    assert len(t) == 200
    base = 3.0 * C * scn.gamma0 / (2.0 * cav.d)
    for row in t.rows:
        s = math.sin(math.pi * row["z_A"] / cav.d)
        assert row["z_A"] == row["z_B"]
        assert row["omega2_total"] == pytest.approx(base * (2.0 * s) ** 2, rel=1e-12, abs=0.0)
        assert row["omega2_total_dimless"] == pytest.approx(
            row["omega2_total"] * cav.d / (C * scn.gamma0), rel=1e-13, abs=0.0
        )


def test_scan_rabi_node_mode_equals_single_atom():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=2)
    scn = PlanarScenario.resonant(cav, cav.d / 2, 0.3 * cav.d)
    grid = np.linspace(1.0 / 1000.0, 1.0 - 1.0 / 1000.0, 1000) * cav.d
    t = scan_rabi(scn, "B", grid)
    base = 3.0 * C * scn.gamma0 / (2.0 * cav.d)
    worst = 0.0
    for row in t.rows:
        single = base * math.sin(2.0 * math.pi * row["z_B"] / cav.d) ** 2
        worst = max(worst, abs(row["omega2_total"] - single) / single)
    assert worst <= 1e-12


def test_scan_rabi_sweep_a_holds_b():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    scn = PlanarScenario.resonant(cav, 0.5 * cav.d, 0.25 * cav.d)
    t = scan_rabi(scn, "A", np.linspace(0.1, 0.9, 7) * cav.d)
    assert all(row["z_B"] == 0.25 * cav.d for row in t.rows)
    assert [row["z_A"] for row in t.rows] == list(np.linspace(0.1, 0.9, 7) * cav.d)


def test_scan_rabi_errors():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    scn = PlanarScenario.resonant(cav, 0.5 * cav.d, 0.5 * cav.d)
    with pytest.raises(DomainError):
        scan_rabi(scn, "joint", [])
    with pytest.raises(DomainError):
        scan_rabi(scn, "sideways", [0.5 * cav.d])
    with pytest.raises(DomainError):
        scan_rabi(scn, "joint", [1.5 * cav.d])


# -------------------------------------------------------------------- table

def test_table_contract():
    t = Table({"a": np.array([1.0]), "b": np.array([2.0])})
    assert t.column("a") == [1.0]
    assert list(t.columns) == ["a", "b"] and t.rows[0] == {"a": 1.0, "b": 2.0}
    with pytest.raises(DomainError):
        Table({"a": np.array([1.0]), "b": np.array([])})
    with pytest.raises(DomainError):
        Table({"a": [True, False]})
    with pytest.raises(DomainError):
        t.column("c")


def test_rabi_breakdown_invariant():
    RabiBreakdown(1.0, 2.0, 2.0, 5.0)
    with pytest.raises(DomainError):
        RabiBreakdown(1.0, 2.0, 2.0, 6.0)
    with pytest.raises(DomainError):
        RabiBreakdown(1.0, 1.0, -3.0, -1.0)
