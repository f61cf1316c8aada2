import math
from decimal import Decimal, localcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

from cavityvdw.errors import DomainError, QuadratureError
from cavityvdw.greens import PlanarCavity
from cavityvdw.planarcavity import PlanarScenario
from cavityvdw.dressed import (
    DressedSystem,
    Gradient,
    coupling_angle,
    eigenenergies,
    force_theta,
    grad_rabi,
    potential_pm,
    potential_theta,
    rabi_frequency,
    richardson_slope,
    theta_force,
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


@pytest.mark.parametrize("mode_norm,gamma_nu,name", [
    (math.nan, 1e11, "mode_norm=nan"), (math.inf, 1e11, "mode_norm=inf"),
    (1.0, math.nan, "gamma_nu=nan"), (1.0, math.inf, "gamma_nu=inf"),
])
def test_rabi_frequency_rejects_non_finite_input_by_name(mode_norm, gamma_nu, name):
    with pytest.raises(DomainError, match=name):
        rabi_frequency(mode_norm, gamma_nu)


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
        evals = np.linalg.eigvalsh([[0.0, omega_r / 2.0], [omega_r / 2.0, delta]])
        assert sys.e_minus / HBAR_LIT == pytest.approx(evals[0], rel=1e-12, abs=1e-12 * mag[i])
        assert sys.e_plus / HBAR_LIT == pytest.approx(evals[1], rel=1e-12, abs=1e-12 * mag[i])


def test_dressed_system_consistency_check_holds_with_equality():
    # Omega = hypot(Omega_R, Delta) exactly, here 0 = 0, must pass the check
    sys = DressedSystem(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert sys.omega == 0.0
    with pytest.raises(DomainError, match="hypot"):
        DressedSystem(3.0, 4.0, 5.0 * (1.0 + 1e-8), 0.0, 0.0, 0.0)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("call,name", [
    (lambda v: eigenenergies(v, 0.0), "omega_r"),
    (lambda v: eigenenergies(1.0, v), "detuning"),
    (lambda v: coupling_angle(v, 1.0), "omega_r"),
    (lambda v: coupling_angle(1.0, v), "detuning"),
    (lambda v: DressedSystem.from_coupling(v, 1.0), "omega_r"),
    (lambda v: DressedSystem.from_coupling(1.0, v), "detuning"),
    (lambda v: potential_theta(v, DressedSystem.from_coupling(4.0, 3.0)), "theta"),
    (lambda v: potential_pm(v), "omega"),
])
def test_dressed_functions_reject_non_finite_input_by_name(call, name, as_array, value):
    # NaN once passed every check and came out as NaN levels, angles and
    # potentials, and infinities ended in a RuntimeWarning
    arg = np.array([1.0, value]) if as_array else value
    with pytest.raises(DomainError, match=f"{name}={value}"):
        call(arg)


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
    th = 0.9
    mix = potential_theta(th, sys)
    expect = math.cos(th - sys.theta_c) ** 2 * up + math.sin(th - sys.theta_c) ** 2 * um
    assert mix == pytest.approx(expect, rel=1e-12, abs=0.0)
    for t in np.linspace(0.0, math.pi, 37, endpoint=False):
        assert -up - 1e-18 <= potential_theta(float(t), sys) <= up + 1e-18


# ----------------------------------------------------------------- gradients

def test_richardson_slope_exact_for_quartics_along_trailing_axes():
    # one Richardson level cancels the h^2 term of the central difference,
    # so a quartic's slope is exact up to rounding; trailing axes are
    # independent slopes
    a = np.array([0.5, -1.0, 2.0])
    slope, err = richardson_slope(lambda dz: (dz[:, None] + a) ** 4, 1.0e-2)
    assert slope.shape == err.shape == (3,)
    assert slope == pytest.approx(4.0 * a**3, rel=1e-11, abs=0.0)
    assert np.all(err <= 1e-3 * np.abs(slope))


def test_grad_rabi_linear_exact():
    slope = 4.0e16
    scn = ToyScenario(fn=lambda ra, rb: 1.0e10 + slope * ra[2], detuning=1e9)
    g = grad_rabi(scn, "A")
    assert isinstance(g, Gradient)
    assert g.value[2] == pytest.approx(slope, rel=1e-12, abs=0.0)
    assert abs(g.value[0]) < 1e-6 * slope and abs(g.value[1]) < 1e-6 * slope
    # the same scenario seen from atom B has no dependence at all
    gb = grad_rabi(scn, "B")
    assert np.all(gb.value == 0.0)
    # a named tuple: unpacks, indexes and prints its fields
    value, error = g
    assert value is g[0] is g.value and error == g[1] == g.error
    assert Gradient._fields == ("value", "error") and repr(g).startswith("Gradient(value=")


def test_grad_rabi_quadratic_exact():
    d = 1.0e-6
    scn = ToyScenario(fn=lambda ra, rb: 1.0e10 * (1.0 + (ra[2] / d) ** 2), detuning=1e9)
    z = scn.position_a[2]
    g = grad_rabi(scn, "A")
    # no truncation error for a quadratic; what remains is subtraction
    # round-off at the 1e-9 level for the default step
    assert g.value[2] == pytest.approx(2.0e10 * z / d**2, rel=1e-8, abs=0.0)


def test_grad_rabi_sinusoidal_vs_analytic():
    amp, d = 3.0e10, 1.0e-6
    scn = ToyScenario(fn=sinusoidal(amp, d), detuning=5.0e9)
    for atom, zpos in (("A", scn.position_a[2]), ("B", scn.position_b[2])):
        g = grad_rabi(scn, atom)
        expect = amp * math.pi / d * math.cos(math.pi * zpos / d)
        assert g.value[2] == pytest.approx(expect, rel=1e-6, abs=0.0)
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


@pytest.mark.parametrize("z_b", [0.5, 0.3])
def test_grad_rabi_is_exactly_zero_at_the_antinode(z_b):
    # on the axis, at the nu = 1 antinode, the stencil's values cancel
    # exactly: error 0 passes the kink check only against a positive
    # reference scale, |grad| + |Omega_R| / length_scale
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    g = grad_rabi(PlanarScenario.resonant(cav, 0.5 * cav.d, z_b * cav.d), "A")
    assert g.value.tolist() == [0.0, 0.0, 0.0] and g.error == 0.0


def test_grad_rabi_selector_validation():
    scn = ToyScenario(fn=sinusoidal())
    with pytest.raises(DomainError):
        grad_rabi(scn, "C")


# ------------------------------------------------------------------- forces

def _theta_c(scn):
    return coupling_angle(scn.rabi(scn.position_a, scn.position_b), scn.detuning)


def test_force_theta_at_coupling_angle_is_eigenstate_force():
    # theta = theta_c and theta_c + pi/2 are the |+> and |-> eigenstates,
    # whose forces are -grad U+- = -+ d/dz of hbar Omega(z) / 2, differenced
    # on the composed potential
    for detuning in (7.0e9, 0.0):
        scn = ToyScenario(fn=sinusoidal(), detuning=detuning)

        def upot(z, sgn):
            trial = ToyScenario(fn=scn.fn, detuning=scn.detuning,
                                position_a=(0.0, 0.0, z), position_b=scn.position_b)
            omega_r = trial.rabi(trial.position_a, trial.position_b)
            return potential_pm(math.hypot(omega_r, scn.detuning))[0 if sgn > 0 else 1]

        z0 = scn.position_a[2]
        h = 1e-4 * scn.length_scale
        th = _theta_c(scn)
        for sgn, theta in ((+1, th), (-1, th + math.pi / 2.0)):
            fd = -(upot(z0 + h, sgn) - upot(z0 - h, sgn)) / (2.0 * h)
            got = force_theta(scn, theta, "A")
            assert got[2] == pytest.approx(fd, rel=1e-6, abs=0.0)
            assert got[0] == got[1] == 0.0
    # on resonance theta_c = pi/4, so they are -+ (hbar/2) grad Omega_R
    g = grad_rabi(scn, "A").value
    assert _theta_c(scn) == pytest.approx(math.pi / 4.0, rel=1e-15, abs=0.0)
    assert np.allclose(force_theta(scn, math.pi / 4.0, "A"), -(HBAR_LIT / 2.0) * g, rtol=1e-12)
    assert np.allclose(force_theta(scn, 3.0 * math.pi / 4.0, "A"), (HBAR_LIT / 2.0) * g,
                       rtol=1e-12)


def test_force_theta_constant_rabi_is_zero():
    # a flat Omega_R has no kink to report and exerts no force in any state
    scn = ToyScenario(fn=lambda ra, rb: 5.0e10, detuning=3.0e9)
    th = _theta_c(scn)
    for theta in (th, th + math.pi / 2.0, 0.7):
        assert np.all(force_theta(scn, theta, "A") == 0.0)


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


@pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6, 1e8, -1e2, -1e4, -1e6, -1e8])
def test_theta_force_as_printed_ratio_is_exact_far_from_resonance(ratio):
    # as-printed / corrected = Omega / Omega_R, against 50 digits at the same
    # double inputs; 1/sin(2 theta_c) loses ~ratio ulp of it for Delta > 0.
    # Over 16 000 random draws per sign the worst miss was 1.49 eps
    for omega_r, theta in ((3.0e8, 0.2), (2.0e10, 0.7), (7.3e11, 1.3)):
        detuning = ratio * omega_r
        got = (theta_force(theta, 1.0e15, omega_r, detuning, "as-printed")
               / theta_force(theta, 1.0e15, omega_r, detuning, "corrected"))
        with localcontext() as ctx:
            ctx.prec = 50
            want = (Decimal(omega_r) ** 2 + Decimal(detuning) ** 2).sqrt() / Decimal(omega_r)
            miss = float(abs(Decimal(float(got)) - want) / want)
        assert miss <= 2.0 * np.finfo(float).eps, (omega_r, miss)


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
    assert fd == pytest.approx(math.sin(2.0 * th) * g, rel=1e-8, abs=0.0)


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
    assert fd == pytest.approx(expect, rel=1e-8, abs=0.0)
