import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

from cavityvdw.errors import DomainError, QuadratureError
from cavityvdw.dressed import (
    DressedSystem,
    Gradient,
    StepControl,
    SuperpositionAngle,
    coupling_angle,
    dressed_coefficients,
    eigenenergies,
    force_eigenstate,
    force_theta,
    grad_rabi,
    hamiltonian_matrix,
    potential_pm,
    potential_theta,
    rabi_frequency,
)

RNG = np.random.default_rng(411)

HBAR_LIT = 1.054571817e-34
ARCTAN_2 = 1.1071487177940904


@dataclass
class ToyScenario:
    fn: Callable
    detuning: float = 0.0
    position_a: tuple = (0.0, 0.0, 0.3e-6)
    position_b: tuple = (0.0, 0.0, 0.7e-6)
    length_scale: float = 1.0e-6

    def rabi(self, r_a, r_b) -> float:
        return float(self.fn(np.asarray(r_a, dtype=float), np.asarray(r_b, dtype=float)))


def sinusoidal(amplitude=3.0e10, d=1.0e-6, offset=2.0):
    def fn(ra, rb):
        return amplitude * (
            offset + math.sin(math.pi * ra[2] / d) + math.sin(math.pi * rb[2] / d)
        )

    return fn


# --------------------------------------------------------------- arithmetic

def test_rabi_frequency_values():
    assert rabi_frequency(0.0, 1e11) == 0.0
    assert rabi_frequency(4.0, 1.0 / math.pi) == pytest.approx(2.0, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        rabi_frequency(-1.0, 1e11)
    with pytest.raises(DomainError):
        rabi_frequency(1.0, 0.0)


def test_eigenenergies_three_four_five():
    ep, em = eigenenergies(4.0, 3.0)
    assert ep == pytest.approx(4.0 * HBAR_LIT, rel=1e-15, abs=0.0)
    assert em == pytest.approx(-1.0 * HBAR_LIT, rel=1e-15, abs=0.0)
    ep, em = eigenenergies(1.0, 0.0)
    assert ep == pytest.approx(HBAR_LIT / 2.0, rel=1e-15, abs=0.0)
    assert em == pytest.approx(-HBAR_LIT / 2.0, rel=1e-15, abs=0.0)
    ep, em = eigenenergies(0.0, 4.0)
    assert ep == pytest.approx(4.0 * HBAR_LIT, rel=1e-15, abs=0.0)
    assert em == 0.0


def test_eigenenergies_keep_the_small_level_far_from_resonance():
    # E- for Delta >> Omega_R and E+ for Delta << -Omega_R are the dressed
    # shifts -+hbar Omega_R^2 / (2 (Omega + |Delta|)); hbar (Delta -+ Omega) / 2
    # loses them to cancellation (2.5e-9 relative at |Delta| / Omega_R = 1e4)
    omega_r = 2.0e10
    for ratio in (1.0e2, 1.0e3, 1.0e4):
        delta = ratio * omega_r
        shift = HBAR_LIT * omega_r**2 / (2.0 * (math.hypot(omega_r, delta) + delta))
        _, em = eigenenergies(omega_r, delta)
        assert em == pytest.approx(-shift, rel=1e-12, abs=0.0)
        ep, _ = eigenenergies(omega_r, -delta)
        assert ep == pytest.approx(shift, rel=1e-12, abs=0.0)
    assert eigenenergies(0.0, 0.0) == (0.0, 0.0)


def test_eigenenergies_match_symmetric_eigensolver():
    # 1e4 random couplings across 12 decades, compared against the generic
    # symmetric eigensolver applied to the 2x2 Hamiltonian
    n = 10_000
    mag = 10.0 ** RNG.uniform(3.0, 15.0, size=n)
    ratio = 10.0 ** RNG.uniform(-3.0, 3.0, size=n)
    sign = RNG.choice([-1.0, 1.0], size=n)
    for i in range(n):
        omega_r = float(mag[i])
        delta = float(sign[i] * ratio[i] * mag[i])
        sys = DressedSystem.from_coupling(omega_r, delta)
        evals = np.linalg.eigvalsh(hamiltonian_matrix(sys))
        assert sys.e_minus / HBAR_LIT == pytest.approx(evals[0], rel=1e-12, abs=1e-12 * mag[i])
        assert sys.e_plus / HBAR_LIT == pytest.approx(evals[1], rel=1e-12, abs=1e-12 * mag[i])


def test_hamiltonian_matrix_shape():
    sys = DressedSystem.from_coupling(2.0e10, -3.0e9)
    m = hamiltonian_matrix(sys)
    assert m[0, 0] == 0.0 and m[0, 1] == m[1, 0] == 1.0e10 and m[1, 1] == -3.0e9
    assert np.trace(m) == sys.detuning
    diag = hamiltonian_matrix(DressedSystem.from_coupling(0.0, 5.0))
    assert diag[0, 1] == 0.0 and diag[1, 0] == 0.0


# ------------------------------------------------------------ coupling angle

def test_coupling_angle_special_values():
    assert coupling_angle(1.0, 0.0) == pytest.approx(math.pi / 4.0, rel=1e-15, abs=0.0)
    assert coupling_angle(4.0, 3.0) == pytest.approx(ARCTAN_2, rel=1e-15, abs=0.0)
    assert math.tan(2.0 * coupling_angle(4.0, 3.0)) == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert coupling_angle(1.0, 1e9) == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert coupling_angle(1.0, -1e9) == pytest.approx(0.0, abs=1e-9)
    assert coupling_angle(0.0, 2.0) == pytest.approx(math.pi / 2.0, rel=1e-15, abs=0.0)
    assert coupling_angle(0.0, -2.0) == 0.0
    with pytest.raises(DomainError):
        coupling_angle(0.0, 0.0)


def test_coupling_angle_identities_random():
    for _ in range(2000):
        omega_r = float(10.0 ** RNG.uniform(-2, 12))
        delta = float(RNG.choice([-1, 1]) * 10.0 ** RNG.uniform(-2, 12))
        th = coupling_angle(omega_r, delta)
        omega = math.hypot(omega_r, delta)
        assert math.sin(2 * th) == pytest.approx(omega_r / omega, abs=1e-12)
        assert math.cos(2 * th) == pytest.approx(-delta / omega, abs=1e-12)
        assert math.sin(2 * th) ** 2 + math.cos(2 * th) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_coupling_angle_continuity_through_resonance():
    omega_r = 5.0e9
    eps = 1e-3
    below = coupling_angle(omega_r, -eps)
    above = coupling_angle(omega_r, +eps)
    assert below == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert above == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert above > below


def test_dressed_coefficients_orthonormal():
    for th in (0.0, 0.4, math.pi / 4.0, 1.2):
        rows = dressed_coefficients(th)
        assert np.allclose(rows @ rows.T, np.eye(2), atol=1e-15)
    assert np.allclose(dressed_coefficients(0.0), np.eye(2), atol=0)
    iso = dressed_coefficients(math.pi / 4.0)
    assert np.allclose(np.abs(iso), 1.0 / math.sqrt(2.0), atol=1e-15)


# ---------------------------------------------------------------- potentials

def test_potential_pm_values():
    up, um = potential_pm(5.0)
    assert up == pytest.approx(2.5 * HBAR_LIT, rel=1e-15, abs=0.0)
    assert um == pytest.approx(-2.5 * HBAR_LIT, rel=1e-15, abs=0.0)
    assert up + um == 0.0
    assert potential_pm(0.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        potential_pm(-1.0)


def test_potential_theta_reductions():
    sys = DressedSystem.from_coupling(4.0e9, 3.0e9)
    up, um = potential_pm(sys.omega)
    assert potential_theta(sys.theta_c, sys) == pytest.approx(up, rel=1e-12, abs=0.0)
    assert potential_theta(sys.theta_c + math.pi / 2, sys) == pytest.approx(um, rel=1e-12, abs=0.0)
    assert potential_theta(sys.theta_c + math.pi / 4, sys) == pytest.approx(0.0, abs=1e-12 * up)
    th = SuperpositionAngle(0.9)
    mix = potential_theta(th, sys)
    expect = (
        math.cos(th.theta - sys.theta_c) ** 2 * up + math.sin(th.theta - sys.theta_c) ** 2 * um
    )
    assert mix == pytest.approx(expect, rel=1e-12, abs=0.0)
    for t in np.linspace(0.0, math.pi, 37, endpoint=False):
        assert -up - 1e-18 <= potential_theta(float(t), sys) <= up + 1e-18


def test_superposition_angle_domain():
    SuperpositionAngle(0.0)
    SuperpositionAngle(3.1)
    with pytest.raises(DomainError):
        SuperpositionAngle(-0.1)
    with pytest.raises(DomainError):
        SuperpositionAngle(math.pi)


# ----------------------------------------------------------------- gradients

def test_grad_rabi_linear_exact():
    slope = 4.0e16
    scn = ToyScenario(fn=lambda ra, rb: 1.0e10 + slope * ra[2], detuning=1e9)
    g = grad_rabi(scn, "A")
    assert isinstance(g, Gradient)
    assert g.value[2] == pytest.approx(slope, rel=1e-12)
    assert abs(g.value[0]) < 1e-6 * slope and abs(g.value[1]) < 1e-6 * slope
    # the same scenario seen from atom B has no dependence at all
    gb = grad_rabi(scn, "B")
    assert np.all(gb.value == 0.0)


def test_grad_rabi_quadratic_exact():
    d = 1.0e-6
    scn = ToyScenario(fn=lambda ra, rb: 1.0e10 * (1.0 + (ra[2] / d) ** 2), detuning=1e9)
    z = scn.position_a[2]
    g = grad_rabi(scn, "A")
    # no truncation error for a quadratic; what remains is subtraction
    # round-off at the 1e-9 level for the default step
    assert g.value[2] == pytest.approx(2.0e10 * z / d**2, rel=1e-8)


def test_grad_rabi_sinusoidal_vs_analytic():
    amp, d = 3.0e10, 1.0e-6
    scn = ToyScenario(fn=sinusoidal(amp, d), detuning=5.0e9)
    for atom, zpos in (("A", scn.position_a[2]), ("B", scn.position_b[2])):
        g = grad_rabi(scn, atom)
        expect = amp * math.pi / d * math.cos(math.pi * zpos / d)
        assert g.value[2] == pytest.approx(expect, rel=1e-6)
        assert g.error <= 1e-4 * (abs(expect) + amp / d)


def test_grad_rabi_kink_raises():
    # |sum of opposite-sign mode values| has a kink where the sum crosses
    # zero with nonzero slope; evaluate a fraction of a step away from the
    # crossing so the stencil straddles it asymmetrically
    d = 1.0e-6

    def fn(ra, rb):
        return 2.0e10 * abs(
            math.sin(2 * math.pi * ra[2] / d) + math.sin(2 * math.pi * rb[2] / d)
        )

    scn = ToyScenario(fn=fn, detuning=1e9, position_a=(0.0, 0.0, 0.2 * d + 1e-13),
                      position_b=(0.0, 0.0, 0.7 * d))
    with pytest.raises(QuadratureError):
        grad_rabi(scn, "A")


def test_grad_rabi_selector_validation():
    scn = ToyScenario(fn=sinusoidal())
    with pytest.raises(DomainError):
        grad_rabi(scn, "C")
    with pytest.raises(DomainError):
        StepControl(rel_step=0.0)


# ------------------------------------------------------------------- forces

def test_force_eigenstate_resonant_reduction():
    scn = ToyScenario(fn=sinusoidal(), detuning=0.0)
    g = grad_rabi(scn, "A")
    fp = force_eigenstate(scn, +1, "A")
    fm = force_eigenstate(scn, -1, "A")
    assert np.allclose(fp, -(HBAR_LIT / 2.0) * g.value, rtol=1e-12)
    assert np.allclose(fm, +(HBAR_LIT / 2.0) * g.value, rtol=1e-12)
    with pytest.raises(DomainError):
        force_eigenstate(scn, 0, "A")


def test_force_eigenstate_matches_potential_gradient():
    # -d/dz of hbar Omega(z)/2, differenced on the composed potential
    scn = ToyScenario(fn=sinusoidal(), detuning=7.0e9)

    def upot(z, sgn):
        trial = ToyScenario(fn=scn.fn, detuning=scn.detuning,
                            position_a=(0.0, 0.0, z), position_b=scn.position_b)
        omega_r = trial.rabi(trial.position_a, trial.position_b)
        return potential_pm(math.hypot(omega_r, scn.detuning))[0 if sgn > 0 else 1]

    z0 = scn.position_a[2]
    h = 1e-7 * scn.length_scale * 1e3
    for sgn in (+1, -1):
        fd = -(upot(z0 + h, sgn) - upot(z0 - h, sgn)) / (2.0 * h)
        got = force_eigenstate(scn, sgn, "A")[2]
        assert got == pytest.approx(fd, rel=1e-6, abs=0.0)


def test_force_eigenstate_constant_rabi_is_zero():
    scn = ToyScenario(fn=lambda ra, rb: 5.0e10, detuning=3.0e9)
    assert np.all(force_eigenstate(scn, +1, "A") == 0.0)


def test_force_theta_endpoint_zeros():
    scn = ToyScenario(fn=sinusoidal(), detuning=4.0e9)
    for variant in ("corrected", "as-printed"):
        f0 = force_theta(scn, 0.0, "A", variant)
        f90 = force_theta(scn, math.pi / 2.0, "A", variant)
        scale = HBAR_LIT * float(np.linalg.norm(grad_rabi(scn, "A").value))
        assert np.linalg.norm(f0) <= 1e-15 * scale
        assert np.linalg.norm(f90) <= 1e-12 * scale


def test_force_theta_variants_coincide_on_resonance():
    scn = ToyScenario(fn=sinusoidal(), detuning=0.0)
    th = 0.7
    assert np.allclose(
        force_theta(scn, th, "A", "corrected"),
        force_theta(scn, th, "A", "as-printed"),
        rtol=1e-12,
    )
    with pytest.raises(DomainError):
        force_theta(scn, th, "A", "bogus")


def test_force_theta_corrected_matches_potential_gradient():
    # theta fixed, theta_c varying with position: the corrected variant is
    # the exact -grad of potential_theta
    scn = ToyScenario(fn=sinusoidal(), detuning=6.0e9)

    def utheta(z, th):
        trial = ToyScenario(fn=scn.fn, detuning=scn.detuning,
                            position_a=(0.0, 0.0, z), position_b=scn.position_b)
        omega_r = trial.rabi(trial.position_a, trial.position_b)
        return potential_theta(th, DressedSystem.from_coupling(omega_r, scn.detuning))

    z0 = scn.position_a[2]
    h = 1e-4 * scn.length_scale
    for th in (0.3, 0.9, 1.4, 2.2):
        fd = -(utheta(z0 + h, th) - utheta(z0 - h, th)) / (2.0 * h)
        got = force_theta(scn, th, "A", "corrected")[2]
        assert got == pytest.approx(fd, rel=1e-6, abs=0.0)


def test_force_theta_as_printed_ratio():
    scn = ToyScenario(fn=sinusoidal(), detuning=6.0e9)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    s2 = math.sin(2.0 * coupling_angle(omega_r, scn.detuning))
    th = 1.1
    corrected = force_theta(scn, th, "A", "corrected")
    printed = force_theta(scn, th, "A", "as-printed")
    assert np.allclose(printed, corrected / s2, rtol=1e-12)
    # singular when the coupling vanishes
    degenerate = ToyScenario(fn=lambda ra, rb: 0.0, detuning=6.0e9)
    with pytest.raises(DomainError):
        force_theta(degenerate, th, "A", "as-printed")


# ------------------------------------------------------- gradient identities

def test_gradient_identity_for_omega():
    # grad Omega = sin(2 theta_c) grad Omega_R wherever Omega_R > 0
    scn = ToyScenario(fn=sinusoidal(), detuning=8.0e9)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    th = coupling_angle(omega_r, scn.detuning)
    g = grad_rabi(scn, "A").value[2]
    z0 = scn.position_a[2]
    h = 1e-5 * scn.length_scale

    def omega_at(z):
        r = scn.rabi((0.0, 0.0, z), scn.position_b)
        return math.hypot(r, scn.detuning)

    fd = (omega_at(z0 + h) - omega_at(z0 - h)) / (2.0 * h)
    assert fd == pytest.approx(math.sin(2.0 * th) * g, rel=1e-8)


def test_gradient_identity_for_theta_c():
    # grad theta_c = -cos^2(2 theta_c) grad Omega_R / (2 Delta)
    scn = ToyScenario(fn=sinusoidal(), detuning=-9.0e9)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    th = coupling_angle(omega_r, scn.detuning)
    g = grad_rabi(scn, "A").value[2]
    z0 = scn.position_a[2]
    h = 1e-5 * scn.length_scale

    def theta_at(z):
        return coupling_angle(scn.rabi((0.0, 0.0, z), scn.position_b), scn.detuning)

    fd = (theta_at(z0 + h) - theta_at(z0 - h)) / (2.0 * h)
    expect = -math.cos(2.0 * th) ** 2 * g / (2.0 * scn.detuning)
    assert fd == pytest.approx(expect, rel=1e-8)
