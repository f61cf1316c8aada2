import math

import numpy as np
import pytest
from scipy.integrate import quad

from cavityvdw.errors import DomainError, FitError
from cavityvdw.greens import ComplexDyad, FreeSpaceGreens, PlanarCavity, planar_resonant_im_gxx
from cavityvdw.modecoupling import (
    AtomSpec,
    ModeModel,
    coupling_strength_sq,
    fit_lorentzian,
    lorentzian_profile,
    mode_norm,
    mode_overlap,
)

RNG = np.random.default_rng(8891)

# independent literals so the oracle route shares nothing with the package
MU0_LIT = 1.25663706212e-6
HBAR_LIT = 1.054571817e-34
EPS0_LIT = 8.8541878128e-12
C_LIT = 299792458.0


def free_decay_oracle(omega, dnorm):
    return omega**3 * dnorm**2 / (3.0 * math.pi * EPS0_LIT * HBAR_LIT * C_LIT**3)


class ResonantModeGreens:
    """Test adapter: x-polarized single-mode closed form as a provider."""

    def __init__(self, cav):
        self.cav = cav

    def tensor(self, r1, r2, omega):
        val = planar_resonant_im_gxx(self.cav, r1[2], r2[2], omega) / omega**2
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = 1j * val
        return ComplexDyad(matrix=m, real_status="excluded")


# ------------------------------------------------------------------- types

def test_atom_spec_validation():
    a = AtomSpec(position=(0.0, 0.0, 1e-6), omega10=2.0e15, dipole=(1e-29, 0.0, 0.0))
    assert a.dipole_norm == 1e-29
    with pytest.raises(DomainError):
        AtomSpec(position=(0.0, 0.0), omega10=2.0e15, dipole=(1e-29, 0.0, 0.0))
    with pytest.raises(DomainError):
        AtomSpec(position=(0.0, 0.0, 0.0), omega10=-1.0, dipole=(1e-29, 0.0, 0.0))
    with pytest.raises(DomainError):
        AtomSpec(position=(0.0, 0.0, 0.0), omega10=2.0e15, dipole=(0.0, 0.0, 0.0))


def test_mode_model_invariants():
    ModeModel(omega_nu=1e15, gamma_nu=1e11, g2_aa=1.0, g2_bb=4.0, g2_ab=-2.0)
    with pytest.raises(DomainError):
        ModeModel(omega_nu=1e15, gamma_nu=-1e11, g2_aa=1.0, g2_bb=1.0, g2_ab=0.0)
    with pytest.raises(DomainError):
        ModeModel(omega_nu=1e13, gamma_nu=1e12, g2_aa=1.0, g2_bb=1.0, g2_ab=0.0)
    with pytest.raises(DomainError):
        ModeModel(omega_nu=1e15, gamma_nu=1e11, g2_aa=-1.0, g2_bb=1.0, g2_ab=0.0)
    with pytest.raises(DomainError):
        ModeModel(omega_nu=1e15, gamma_nu=1e11, g2_aa=1.0, g2_bb=1.0, g2_ab=1.5)


# --------------------------------------------------------------- couplings

def test_coupling_free_space_coincident_value():
    omega = 2.4e15
    d = 3.0e-29
    atom = AtomSpec(position=(0.0, 0.0, 0.0), omega10=omega, dipole=(d, 0.0, 0.0))
    got = coupling_strength_sq(atom, atom, omega, FreeSpaceGreens())
    k = omega / C_LIT
    expect = (MU0_LIT / (HBAR_LIT * math.pi)) * omega**2 * d**2 * k / (6.0 * math.pi)
    assert got == pytest.approx(expect, rel=1e-12)
    # equivalently Gamma0 / (2 pi)
    assert got == pytest.approx(free_decay_oracle(omega, d) / (2.0 * math.pi), rel=1e-9)


def test_coupling_planar_antinode_cross_value():
    # both atoms at the d/2 antinode of the nu = 1 mode, on resonance:
    # g2_AB = 3 Gamma0 / (4 pi delta) in the single-mode closed form
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    w = cav.omega_nu
    d = 1.0e-29
    a = AtomSpec(position=(0.0, 0.0, cav.d / 2), omega10=w, dipole=(d, 0.0, 0.0))
    b = AtomSpec(position=(0.0, 0.0, cav.d / 2), omega10=w, dipole=(d, 0.0, 0.0))
    got = coupling_strength_sq(a, b, w, ResonantModeGreens(cav))
    expect = 3.0 * free_decay_oracle(w, d) / (4.0 * math.pi * cav.delta)
    assert got == pytest.approx(expect, rel=1e-9)


def test_coupling_diagonal_nonnegative_sampled():
    cav = PlanarCavity(d=1.2e-6, delta=5.0e-3, nu=1)
    prov = ResonantModeGreens(cav)
    for _ in range(50):
        z = float(RNG.uniform(0.0, cav.d))
        w = cav.omega_nu * float(RNG.uniform(0.999, 1.001))
        atom = AtomSpec(position=(0.0, 0.0, z), omega10=w, dipole=(1e-29, 0.0, 0.0))
        assert coupling_strength_sq(atom, atom, w, prov) >= 0.0
    free = FreeSpaceGreens()
    for _ in range(50):
        pos = tuple(RNG.uniform(-1e-6, 1e-6, size=3))
        dip = tuple(RNG.normal(size=3) * 1e-29)
        if np.linalg.norm(dip) == 0.0:
            continue
        atom = AtomSpec(position=pos, omega10=2e15, dipole=dip)
        assert coupling_strength_sq(atom, atom, 2e15, free) >= 0.0


def test_coupling_rejects_nonpositive_frequency():
    atom = AtomSpec(position=(0.0, 0.0, 0.0), omega10=1e15, dipole=(1e-29, 0.0, 0.0))
    with pytest.raises(DomainError):
        coupling_strength_sq(atom, atom, 0.0, FreeSpaceGreens())


# ----------------------------------------------------------------- profile

def test_lorentzian_profile_values():
    peak, w0, g = 7.0, 1.0e15, 2.0e11
    assert lorentzian_profile(peak, w0, g, w0) == pytest.approx(peak, rel=1e-15, abs=0.0)
    assert lorentzian_profile(peak, w0, g, w0 + g / 2) == pytest.approx(
        peak / 2, rel=1e-14, abs=0.0)
    assert lorentzian_profile(peak, w0, g, w0 - g / 2) == pytest.approx(
        peak / 2, rel=1e-14, abs=0.0)
    with pytest.raises(DomainError):
        lorentzian_profile(peak, w0, 0.0, w0)


def test_lorentzian_profile_integral_weight():
    # integrated line weight is pi gamma / 2 per unit peak
    peak, w0, g = 1.3, 5.0e14, 1.0e11
    val, _ = quad(
        lambda w: lorentzian_profile(peak, w0, g, w),
        w0 - 2e4 * g,
        w0 + 2e4 * g,
        points=[w0 - g, w0, w0 + g],
        limit=400,
    )
    assert val == pytest.approx(peak * math.pi * g / 2.0, rel=1e-4)


def test_lorentzian_profile_symmetry_monotonicity():
    peak, w0, g = 2.0, 8.0e14, 5.0e10
    offs = np.linspace(0.0, 30.0 * g, 200)
    left = lorentzian_profile(peak, w0, g, w0 - offs)
    right = lorentzian_profile(peak, w0, g, w0 + offs)
    assert np.allclose(left, right, rtol=1e-13)
    assert np.all(np.diff(right) < 0.0)


# --------------------------------------------------------------------- fit

def test_fit_lorentzian_round_trip():
    w0, g, peak = 9.42e14, 6.0e11, 3.7e5
    ws = np.linspace(w0 - 12.0 * g, w0 + 12.0 * g, 61)
    samples = [(w, lorentzian_profile(peak, w0, g, w)) for w in ws]
    fit = fit_lorentzian(samples)
    assert fit.omega_nu == pytest.approx(w0, rel=1e-9)
    assert fit.gamma_nu == pytest.approx(g, rel=1e-9)
    assert fit.peak == pytest.approx(peak, rel=1e-9)
    assert fit.residual_norm < 1e-9 * peak


def test_fit_lorentzian_with_noise():
    w0, g, peak = 1.1e15, 2.0e11, 1.0
    ws = np.linspace(w0 - 10.0 * g, w0 + 10.0 * g, 121)
    noise = 1e-6 * RNG.standard_normal(ws.size)
    samples = list(zip(ws, lorentzian_profile(peak, w0, g, ws) + noise))
    fit = fit_lorentzian(samples)
    assert fit.gamma_nu == pytest.approx(g, rel=1e-4)
    assert fit.omega_nu == pytest.approx(w0, rel=1e-8)


def test_fit_lorentzian_degenerate_inputs():
    with pytest.raises(DomainError):
        fit_lorentzian([(1.0, 1.0), (2.0, 2.0)])
    flat = [(float(w), 5.0) for w in range(10)]
    with pytest.raises(FitError):
        fit_lorentzian(flat)
    negative = [(float(w), -1.0 - w) for w in range(10)]
    with pytest.raises(FitError):
        fit_lorentzian(negative)


# ------------------------------------------------------------ norm, overlap

def test_mode_norm_examples():
    m = ModeModel(omega_nu=1e15, gamma_nu=1e11, g2_aa=2.0, g2_bb=2.0, g2_ab=2.0)
    assert mode_norm(m) == pytest.approx(8.0, rel=1e-15, abs=0.0)
    m = ModeModel(omega_nu=1e15, gamma_nu=1e11, g2_aa=2.0, g2_bb=2.0, g2_ab=-2.0)
    assert mode_norm(m) == 0.0


def test_mode_overlap_examples():
    m = ModeModel(omega_nu=1e15, gamma_nu=1e11, g2_aa=3.0, g2_bb=3.0, g2_ab=3.0)
    assert mode_overlap(m) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        mode_overlap(ModeModel(omega_nu=1e15, gamma_nu=1e11, g2_aa=0.0, g2_bb=1.0, g2_ab=0.0))


def test_mode_overlap_opposite_antinodes():
    # nu = 2 mode, atoms at d/4 and 3d/4: mode products give exactly -1
    cav = PlanarCavity(d=2.0e-6, delta=1.0e-3, nu=2)
    w = cav.omega_nu
    prov = ResonantModeGreens(cav)
    dip = (1e-29, 0.0, 0.0)
    a = AtomSpec(position=(0.0, 0.0, cav.d / 4), omega10=w, dipole=dip)
    b = AtomSpec(position=(0.0, 0.0, 3 * cav.d / 4), omega10=w, dipole=dip)
    m = ModeModel(
        omega_nu=w,
        gamma_nu=cav.gamma_nu,
        g2_aa=coupling_strength_sq(a, a, w, prov),
        g2_bb=coupling_strength_sq(b, b, w, prov),
        g2_ab=coupling_strength_sq(a, b, w, prov),
    )
    assert mode_overlap(m) == pytest.approx(-1.0, rel=1e-12)
    assert mode_norm(m) == pytest.approx(0.0, abs=1e-12 * m.g2_aa)


def test_mode_norm_overlap_properties():
    # 10^4 random valid models: N >= 0 and |overlap| <= 1
    n = 10_000
    a = RNG.uniform(0.0, 5.0, size=n)
    b = RNG.uniform(0.0, 5.0, size=n)
    rho = RNG.uniform(-1.0, 1.0, size=n)
    for i in range(n):
        m = ModeModel(
            omega_nu=1e15,
            gamma_nu=1e11,
            g2_aa=float(a[i]),
            g2_bb=float(b[i]),
            g2_ab=float(rho[i] * math.sqrt(a[i] * b[i])),
        )
        assert mode_norm(m) >= 0.0
        if a[i] > 0.0 and b[i] > 0.0:
            assert abs(mode_overlap(m)) <= 1.0
