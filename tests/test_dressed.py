import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cavityvdw.errors import DomainError
from cavityvdw.greens import PlanarCavity
from cavityvdw.modecoupling import AtomSpec
from cavityvdw.planarcavity import PlanarScenario, rabi_gradient_a, rabi_omega
from cavityvdw.dressed import (
    FD_STEP,
    DressedSystem,
    coupling_angle,
    eigenenergies,
    force_theta,
    grad_rabi,
    potential_pm,
    potential_theta,
    richardson_slope,
    theta_force,
)

RNG = np.random.default_rng(411)

HBAR_LIT = 1.054571817e-34
ARCTAN_2 = 1.1071487177940904


CAV = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)


def scenario(detuning=0.0, z_a=0.3e-6, z_b=0.7e-6, cav=CAV):
    """Atoms at heights z_a, z_b with omega10 offset from the cavity's
    omega_nu by the detuning [rad/s]."""
    dip = (1.0e-29, 0.0, 0.0)
    w = cav.omega_nu - detuning
    return PlanarScenario(cavity=cav,
                          atom_a=AtomSpec(position=(0.0, 0.0, z_a), omega10=w, dipole=dip),
                          atom_b=AtomSpec(position=(0.0, 0.0, z_b), omega10=w, dipole=dip))


def rabi_at(scn, z):
    """Omega_R with atom A moved to height z."""
    return scn.rabi((0.0, 0.0, z), scn.position_b)


# --------------------------------------------------------------- arithmetic

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


def test_richardson_slope_linear_exact():
    # a line has no truncation error at any level, so the refined and the
    # half-step slopes agree to rounding
    slope, err = richardson_slope(lambda dz: 1.0e10 + 4.0e16 * (0.3e-6 + dz), 1.0e-10)
    assert slope == pytest.approx(4.0e16, rel=1e-6, abs=0.0)
    assert err <= 1e-6 * 4.0e16


def test_richardson_slope_sinusoid_error_estimate_bounds_the_miss():
    # |refined - half-step| is the half-step slope's error, which exceeds
    # the refined slope's by (k h)^2: the estimate is a bound, not a guess
    k = math.pi / 1.0e-6
    for z in (0.1e-6, 0.3e-6, 0.45e-6):
        slope, err = richardson_slope(lambda dz: np.sin(k * (z + dz)), 1.0e-2 / k)
        expect = k * math.cos(k * z)
        assert slope == pytest.approx(expect, rel=1e-8, abs=0.0)
        assert 0.0 < abs(slope - expect) <= err <= 1e-4 * k


def test_richardson_slope_error_estimate_flags_a_kink():
    # straddling |x|'s kink asymmetrically the two levels disagree by a
    # fraction of the one-sided slopes, not by a (k h)^2 truncation
    slope, err = richardson_slope(lambda dz: np.abs(0.3e-4 + dz), 1.0e-4)
    assert err > 0.1


@pytest.mark.parametrize("atom", ["A", "B"])
def test_grad_rabi_matches_the_finite_difference_of_either_height(atom):
    # the closed form against the reference along the selected atom's
    # height, at a detuned nu = 3 pair where both mode values are nonzero
    three = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=3)
    scn = scenario(5.0e9, 0.21e-6, 0.58e-6, three)
    idx = 0 if atom == "A" else 1

    def omega_r(dz):
        z = [scn.position_a[2], scn.position_b[2]]
        z[idx] = z[idx] + dz
        return rabi_omega(scn, *z)

    fd, _ = richardson_slope(omega_r, FD_STEP * three.d / three.nu)
    g = grad_rabi(scn, atom)
    assert g[0] == g[1] == 0.0
    assert g[2] == pytest.approx(fd, rel=1e-10, abs=0.0)


def test_grad_rabi_at_the_kink_is_zero_between_opposite_one_sided_slopes():
    # nu = 2, z_B = 0.7 d: s_A + s_B crosses 0 at z_A = 0.2 d, where
    # Omega_R = A |s_A + s_B| has no derivative; the closed form gives 0
    # there and +-A (nu pi / d) cos(nu pi z_A / d) on either side
    two = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=2)
    z0, z_b = 0.2 * two.d, 0.7 * two.d
    assert grad_rabi(scenario(5.0e9, z0, z_b, two), "A").tolist() == [0.0, 0.0, 0.0]
    k = 2.0 * math.pi / two.d
    for dz, sign in ((-1e-13, -1.0), (1e-13, 1.0)):
        scn = scenario(5.0e9, z0 + dz, z_b, two)
        slope = sign * math.sqrt(scn.amp2) * k * abs(math.cos(k * (z0 + dz)))
        assert grad_rabi(scn, "A")[2] == pytest.approx(slope, rel=1e-12, abs=0.0), dz


@pytest.mark.parametrize("z_b", [0.5, 0.3])
def test_grad_rabi_at_the_antinode_is_zero_to_rounding(z_b):
    # on the axis, at the nu = 1 antinode, the closed form's cos(nu pi z / d)
    # is cos(fl(pi / 2)) = 6.1e-17, not 0, of the scale A nu pi / d
    scn = PlanarScenario.resonant(CAV, 0.5 * CAV.d, z_b * CAV.d)
    g = grad_rabi(scn, "A")
    assert g[0] == g[1] == 0.0
    assert abs(g[2]) <= 1e-16 * math.sqrt(scn.amp2) * math.pi / CAV.d


def test_force_theta_vanishes_where_omega_r_is_flat():
    # at the nu = 1 antinode grad Omega_R is 0 up to cos(fl(pi / 2)), so no
    # state theta exerts more than that rounding's share of a force
    scn = scenario(3.0e9, 0.5 * CAV.d, 0.3 * CAV.d)
    scale = HBAR_LIT / 2.0 * math.sqrt(scn.amp2) * math.pi / CAV.d
    th = _theta_c(scn)
    for theta in (th, th + math.pi / 2.0, 0.7):
        for variant in ("corrected", "as-printed"):
            f = force_theta(scn, theta, "A", variant)
            assert f[0] == f[1] == 0.0
            assert abs(f[2]) <= 1e-16 * scale / math.sin(2.0 * th), (theta, variant)


def test_grad_rabi_selector_validation():
    with pytest.raises(DomainError):
        grad_rabi(scenario(), "C")


# ------------------------------------------------------------------- forces

def _theta_c(scn):
    return coupling_angle(scn.rabi(scn.position_a, scn.position_b), scn.detuning)


def test_force_theta_at_coupling_angle_is_eigenstate_force():
    # theta = theta_c and theta_c + pi/2 are the |+> and |-> eigenstates,
    # whose forces are -grad U+- = -+ d/dz of hbar Omega(z) / 2, differenced
    # on the composed potential
    for detuning in (7.0e9, 0.0):
        scn = scenario(detuning)

        def upot(z, sgn):
            return potential_pm(math.hypot(rabi_at(scn, z), scn.detuning))[0 if sgn > 0 else 1]

        z0 = scn.position_a[2]
        h = 1e-4 * CAV.d
        th = _theta_c(scn)
        for sgn, theta in ((+1, th), (-1, th + math.pi / 2.0)):
            fd = -(upot(z0 + h, sgn) - upot(z0 - h, sgn)) / (2.0 * h)
            got = force_theta(scn, theta, "A")
            assert got[2] == pytest.approx(fd, rel=1e-6, abs=0.0)
            assert got[0] == got[1] == 0.0
    # on resonance theta_c = pi/4, so they are -+ (hbar/2) grad Omega_R
    g = grad_rabi(scn, "A")
    assert _theta_c(scn) == pytest.approx(math.pi / 4.0, rel=1e-15, abs=0.0)
    assert np.allclose(force_theta(scn, math.pi / 4.0, "A"), -(HBAR_LIT / 2.0) * g, rtol=1e-12)
    assert np.allclose(force_theta(scn, 3.0 * math.pi / 4.0, "A"), (HBAR_LIT / 2.0) * g,
                       rtol=1e-12)


def test_force_theta_endpoint_zeros():
    scn = scenario(4.0e9)
    for variant in ("corrected", "as-printed"):
        f0 = force_theta(scn, 0.0, "A", variant)
        f90 = force_theta(scn, math.pi / 2.0, "A", variant)
        scale = HBAR_LIT * float(np.linalg.norm(grad_rabi(scn, "A")))
        assert np.linalg.norm(f0) <= 1e-15 * scale
        assert np.linalg.norm(f90) <= 1e-12 * scale


def test_force_theta_variants_coincide_on_resonance():
    scn = scenario(0.0)
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
    scn = scenario(6.0e9)

    def utheta(z, th):
        return potential_theta(th, DressedSystem.from_coupling(rabi_at(scn, z), scn.detuning))

    z0 = scn.position_a[2]
    h = 1e-4 * CAV.d
    for th in (0.3, 0.9, 1.4, 2.2):
        fd = -(utheta(z0 + h, th) - utheta(z0 - h, th)) / (2.0 * h)
        got = force_theta(scn, th, "A", "corrected")[2]
        assert got == pytest.approx(fd, rel=1e-6, abs=0.0)


def test_force_theta_as_printed_ratio():
    scn = scenario(6.0e9)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    s2 = math.sin(2.0 * coupling_angle(omega_r, scn.detuning))
    th = 1.1
    corrected = force_theta(scn, th, "A", "corrected")
    printed = force_theta(scn, th, "A", "as-printed")
    assert np.allclose(printed, corrected / s2, rtol=1e-12)
    # singular when the coupling vanishes: s_A = -1 and s_B = 1 at nu = 2
    two = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=2)
    degenerate = scenario(6.0e9, 0.75 * two.d, 0.25 * two.d, two)
    assert degenerate.rabi(degenerate.position_a, degenerate.position_b) == 0.0
    with pytest.raises(DomainError):
        force_theta(degenerate, th, "A", "as-printed")


def test_force_theta_at_the_kink_of_omega_r():
    # at nu = 2, z_B = 0.7 d, s_A + s_B is exactly 0 at z_A = 0.2 d and
    # crosses zero there with nonzero slope: Omega_R = A |s_A + s_B| has a
    # kink. (At 3d/4, d/4 it does not, since s_A has zero slope there.)
    two = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=2)
    z_b, th = 0.7 * two.d, 1.1
    node = scenario(5.0e9, 0.2 * two.d, z_b, two)
    assert node.rabi(node.position_a, node.position_b) == 0.0
    assert np.all(force_theta(node, th, "A", "corrected") == 0.0)
    with pytest.raises(DomainError, match="Omega_R = 0"):
        force_theta(node, th, "A", "as-printed")
    z_a = 0.2 * two.d + 1e-13
    beside = scenario(5.0e9, z_a, z_b, two)
    omega_r = rabi_omega(beside, z_a, z_b)
    assert omega_r > 0.0
    for variant in ("corrected", "as-printed"):
        got = force_theta(beside, th, "A", variant)
        want = theta_force(th, rabi_gradient_a(beside, z_a, z_b), omega_r, beside.detuning,
                           variant)
        assert got[0] == got[1] == 0.0 and got[2] == want != 0.0, variant


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
    scn = scenario(8.0e9)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    th = coupling_angle(omega_r, scn.detuning)
    g = grad_rabi(scn, "A")[2]
    z0 = scn.position_a[2]
    h = 1e-5 * CAV.d

    def omega_at(z):
        return math.hypot(rabi_at(scn, z), scn.detuning)

    fd = (omega_at(z0 + h) - omega_at(z0 - h)) / (2.0 * h)
    assert fd == pytest.approx(math.sin(2.0 * th) * g, rel=1e-8, abs=0.0)


def test_gradient_identity_for_theta_c():
    # grad theta_c = -cos^2(2 theta_c) grad Omega_R / (2 Delta)
    scn = scenario(-9.0e9)
    omega_r = scn.rabi(scn.position_a, scn.position_b)
    th = coupling_angle(omega_r, scn.detuning)
    g = grad_rabi(scn, "A")[2]
    z0 = scn.position_a[2]
    h = 1e-5 * CAV.d

    def theta_at(z):
        return coupling_angle(rabi_at(scn, z), scn.detuning)

    fd = (theta_at(z0 + h) - theta_at(z0 - h)) / (2.0 * h)
    expect = -math.cos(2.0 * th) ** 2 * g / (2.0 * scn.detuning)
    assert fd == pytest.approx(expect, rel=1e-8, abs=0.0)
