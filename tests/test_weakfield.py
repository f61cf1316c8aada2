import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cavityvdw.constants import C, EPS0
from cavityvdw.errors import DomainError
from cavityvdw.greens import FreeSpaceGreens, PlanarCavity, PlanarCavityGreens, free_space_green
from cavityvdw.modecoupling import AtomSpec, ModeModel
from cavityvdw.dressed import eigenenergies
from cavityvdw.weakfield import (
    NarrowModeGreens,
    ResonantPotentialBreakdown,
    free_space_resonant_potential,
    narrow_mode_real_contraction,
    resonant_potential,
    weak_limit_potentials,
    weak_theta_force,
    weak_theta_potential,
)

RNG = np.random.default_rng(77113)

HBAR_LIT = 1.054571817e-34
EPS0_LIT = 8.8541878128e-12
MU0_LIT = 1.25663706212e-6


def _random_atom_pair():
    w = float(10.0 ** RNG.uniform(14.5, 15.5))
    k = w / C
    # separations spread around a wavelength
    r = np.array([0.0, 0.0, 0.0]), RNG.uniform(-2.0, 2.0, size=3) / k
    da = RNG.normal(size=3) * 1e-29
    db = RNG.normal(size=3) * 1e-29
    a = AtomSpec(position=tuple(r[0]), omega10=w, dipole=tuple(da))
    b = AtomSpec(position=tuple(r[1]), omega10=w, dipole=tuple(db))
    return a, b, w, k


# --------------------------------------------------------------- free space

def test_resonant_potential_free_space_singles_omitted():
    a, b, w, k = _random_atom_pair()
    out = resonant_potential(a, b, FreeSpaceGreens())
    assert isinstance(out, ResonantPotentialBreakdown)
    assert out.single_a is None and out.single_b is None
    assert out.total == out.interaction


def test_resonant_potential_interaction_symmetric():
    a, b, w, k = _random_atom_pair()
    ab = resonant_potential(a, b, FreeSpaceGreens())
    ba = resonant_potential(b, a, FreeSpaceGreens())
    assert ab.interaction == pytest.approx(ba.interaction, rel=1e-13, abs=0.0)


def test_resonant_potential_requires_identical_atoms():
    a = AtomSpec(position=(0.0, 0.0, 0.0), omega10=1e15, dipole=(1e-29, 0.0, 0.0))
    b = AtomSpec(position=(0.0, 0.0, 1e-6), omega10=2e15, dipole=(1e-29, 0.0, 0.0))
    with pytest.raises(DomainError):
        resonant_potential(a, b, FreeSpaceGreens())


def test_free_space_closed_form_matches_contraction():
    # two independent code paths for the interaction term
    for _ in range(30):
        a, b, w, k = _random_atom_pair()
        closed = free_space_resonant_potential(a.dipole, b.dipole, k, np.subtract(b.position, a.position))
        contraction = resonant_potential(a, b, FreeSpaceGreens()).interaction
        assert closed == pytest.approx(contraction, rel=1e-12, abs=0.0)


def test_free_space_closed_form_static_limit():
    # kr -> 0 with parallel dipoles perpendicular to the axis: the static
    # dipole-dipole energy +d_A d_B / (4 pi eps0 r^3)
    d = 2.0e-29
    r = 1.0e-9
    k = 1.0e3  # kr = 1e-6
    got = free_space_resonant_potential((d, 0.0, 0.0), (d, 0.0, 0.0), k, (0.0, 0.0, r))
    expect = d * d / (4.0 * math.pi * EPS0_LIT * r**3)
    assert got == pytest.approx(expect, rel=1e-9, abs=0.0)


def test_free_space_closed_form_longitudinal_geometry():
    # dipoles along the separation axis: no transverse k^2/r term, and the
    # near-field bracket doubles
    d = 1.0e-29
    r = 5.0e-8
    k = 2.0e6
    x = k * r
    got = free_space_resonant_potential((0.0, 0.0, d), (0.0, 0.0, d), k, (0.0, 0.0, r))
    expect = -(d * d / (4.0 * math.pi * EPS0_LIT)) * (2.0) * (
        k * math.sin(x) / r**2 + math.cos(x) / r**3
    )
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_free_space_closed_form_domain():
    with pytest.raises(DomainError):
        free_space_resonant_potential((1e-29, 0, 0), (1e-29, 0, 0), 1e6, (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        free_space_resonant_potential((1e-29, 0, 0), (1e-29, 0, 0), -1e6, (0.0, 0.0, 1e-7))


# components are 0 or at least 1e-100 in magnitude: smaller ones make
# d_A . d_B subnormal, where no float route keeps 1e-15 of the term sizes
_UNIT = st.one_of(st.just(0.0), st.floats(1e-100, 1.0), st.floats(-1.0, -1e-100))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    k=arrays(float, 6, elements=st.floats(1.0e5, 1.0e8)),
    kr=arrays(float, 6, elements=st.floats(0.05, 50.0)),
    direction=arrays(float, (6, 3), elements=_UNIT),
    d_a=arrays(float, (6, 3), elements=_UNIT),
    d_b=arrays(float, (6, 3), elements=_UNIT),
    shared_dipoles=st.booleans(),
)
def test_free_space_closed_form_stacks_like_scalar_calls(n, k, kr, direction, d_a, d_b,
                                                         shared_dipoles):
    norm = np.linalg.norm(direction[:n], axis=1)
    assume(np.all(norm > 1e-3))
    k = k[:n]
    r = (kr[:n] / k / norm)[:, None] * direction[:n]
    d_a, d_b = 1e-29 * d_a[:n], 1e-29 * d_b[:n]
    if shared_dipoles:
        d_a, d_b = d_a[0], d_b[0]
    stacked = free_space_resonant_potential(d_a, d_b, k, r)
    assert stacked.shape == (n,)
    rows = np.broadcast_to(d_a, (n, 3)), np.broadcast_to(d_b, (n, 3))
    for i in range(n):
        single = free_space_resonant_potential(rows[0][i], rows[1][i], k[i], r[i])
        assert isinstance(single, float)
        rmag = np.linalg.norm(r[i])
        # the summed magnitudes of the transverse and near-field terms
        terms = (np.linalg.norm(rows[0][i]) * np.linalg.norm(rows[1][i]) / (4.0 * math.pi * EPS0)
                 * (k[i] ** 2 / rmag + 2.0 * k[i] / rmag**2 + 2.0 / rmag**3))
        assert abs(stacked[i] - single) <= 1e-15 * terms


def test_free_space_closed_form_stack_domain():
    dip = (1e-29, 0.0, 0.0)
    r = np.array([[0.0, 0.0, 1e-7], [0.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match="zero separation"):
        free_space_resonant_potential(dip, dip, 1e6, r)
    with pytest.raises(DomainError, match="wavenumber"):
        free_space_resonant_potential(dip, dip, np.array([1e6, 0.0]), np.full((2, 3), 1e-7))
    assert free_space_resonant_potential(dip, dip, 1e6, np.ones((2, 4, 3)) * 1e-7).shape == (2, 4)


# ------------------------------------------------------------- planar singles

def test_resonant_potential_planar_supplies_singles():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-2, nu=1)
    w = 0.3 * cav.omega_nu
    dip = (1e-29, 0.0, 0.0)
    a = AtomSpec(position=(0.0, 0.0, 0.35 * cav.d), omega10=w, dipole=dip)
    b = AtomSpec(position=(0.0, 0.0, 0.6 * cav.d), omega10=w, dipole=dip)
    out = resonant_potential(a, b, PlanarCavityGreens(cav))
    assert out.single_a is not None and out.single_b is not None
    assert out.total == pytest.approx(
        out.single_a + out.single_b + out.interaction, rel=1e-15, abs=0.0
    )


# ---------------------------------------------------------------- weak limit

def test_weak_limit_potentials_values():
    # gamma pi N = 16, Delta = 1000 -> U- = -0.004 hbar
    gamma = 2.0
    n = 16.0 / (gamma * math.pi)
    up, um = weak_limit_potentials(gamma, n, 1000.0)
    assert um == pytest.approx(-0.004 * HBAR_LIT, rel=1e-12, abs=0.0)
    assert up == pytest.approx(+0.004 * HBAR_LIT, rel=1e-12, abs=0.0)
    assert up == -um
    assert weak_limit_potentials(gamma, 0.0, 5.0) == (0.0, -0.0)
    with pytest.raises(DomainError):
        weak_limit_potentials(gamma, n, 0.0)
    with pytest.raises(DomainError):
        weak_limit_potentials(-1.0, n, 10.0)


def test_weak_theta_potential_reductions():
    omega_r, delta = 7.0e9, 4.0e12
    u_minus = -HBAR_LIT * omega_r**2 / (4.0 * delta)
    assert weak_theta_potential(0.0, omega_r, delta) == pytest.approx(u_minus, rel=1e-12, abs=0.0)
    assert weak_theta_potential(math.pi / 2, omega_r, delta) == pytest.approx(
        -u_minus, rel=1e-12, abs=0.0)
    assert abs(weak_theta_potential(math.pi / 4, omega_r, delta)) < 1e-16 * abs(u_minus)
    with pytest.raises(DomainError):
        weak_theta_potential(0.3, omega_r, 0.0)


def test_weak_theta_force_is_negative_gradient():
    # Omega_R(z) sinusoidal; force from the analytic gradient must equal
    # -d/dz of the potential to 1e-8
    amp, d, delta = 5.0e9, 1.0e-6, 3.0e12
    z0 = 0.37 * d

    def omega_r(z):
        return amp * (1.5 + math.sin(math.pi * z / d))

    grad = amp * math.pi / d * math.cos(math.pi * z0 / d)
    h = 1e-5 * d
    for th in (0.0, 0.3, 1.0, math.pi / 2):
        fd = -(
            weak_theta_potential(th, omega_r(z0 + h), delta)
            - weak_theta_potential(th, omega_r(z0 - h), delta)
        ) / (2.0 * h)
        got = weak_theta_force(th, omega_r(z0), (0.0, 0.0, grad), delta)[2]
        assert got == pytest.approx(fd, rel=1e-8, abs=1e-40)
    f0 = weak_theta_force(0.0, 1e9, (0.0, 0.0, 1e15), delta)
    f45 = weak_theta_force(math.pi / 4, 1e9, (0.0, 0.0, 1e15), delta)
    assert np.linalg.norm(f45) <= 1e-15 * np.linalg.norm(f0)
    f90 = weak_theta_force(math.pi / 2, 1e9, (0.0, 0.0, 1e15), delta)
    assert np.allclose(f0, -f90, rtol=1e-15)
    with pytest.raises(DomainError):
        weak_theta_force(0.0, 1e9, (0.0, 0.0, 1e15), 0.0)


@pytest.mark.parametrize("call,name", [
    (lambda: weak_limit_potentials(1e11, math.nan, 1e12), "mode_norm=nan"),
    (lambda: weak_limit_potentials(1e11, math.inf, 1e12), "mode_norm=inf"),
    (lambda: weak_limit_potentials(math.inf, 1.0, 1e12), "gamma_nu=inf"),
    (lambda: weak_limit_potentials(1e11, 1.0, math.nan), "detuning=nan"),
    (lambda: weak_limit_potentials(1e11, 1.0, np.array([1e12, math.nan])), "detuning="),
    (lambda: weak_theta_potential(0.3, 7e9, math.nan), "detuning=nan"),
    (lambda: weak_theta_force(0.3, 7e9, (0.0, 0.0, 1e15), math.nan), "detuning=nan"),
], ids=["limits-mode_norm-nan", "limits-mode_norm-inf", "limits-gamma_nu-inf",
        "limits-detuning-nan", "limits-detuning-array", "theta_potential-detuning-nan",
        "theta_force-detuning-nan"])
def test_weak_limits_reject_non_finite_input_by_name(call, name):
    # each once returned NaN
    with pytest.raises(DomainError, match=name):
        call()


# ----------------------------------------------------- narrow-mode contraction

def test_narrow_mode_real_contraction_basics():
    g2, gamma, w0 = 3.0e8, 1.0e10, 1.0e15
    w = w0 - 1.0e3 * gamma
    val = narrow_mode_real_contraction(g2, gamma, w0, w)
    assert val == pytest.approx(gamma * g2 / (2.0 * (w0 - w)), rel=1e-15, abs=0.0)
    flipped = narrow_mode_real_contraction(g2, gamma, w0, w0 + 1.0e3 * gamma)
    assert flipped == pytest.approx(-val, rel=1e-15, abs=0.0)
    assert narrow_mode_real_contraction(0.0, gamma, w0, w) == 0.0
    with pytest.raises(DomainError):
        narrow_mode_real_contraction(g2, gamma, w0, w0 + 50.0 * gamma)


def test_narrow_mode_matches_kk_quadrature():
    # the quadrature returns the bare principal value, larger by pi
    from cavityvdw.greens import SpectralFunction, kk_real_from_imag
    from cavityvdw.modecoupling import lorentzian_profile

    g2, gamma, w0 = 1.7, 5.0e10, 8.0e14
    w = w0 - 1.0e3 * gamma
    span = 5.0e4 * gamma
    sf = SpectralFunction(
        func=lambda x: lorentzian_profile(g2, w0, gamma, x),
        support=(w0 - span, w0 + span),
        hint_points=(w0 - gamma, w0, w0 + gamma),
    )
    numeric = kk_real_from_imag(sf, w) / math.pi
    closed = narrow_mode_real_contraction(g2, gamma, w0, w)
    assert abs(numeric - closed) / abs(closed) < 1e-2


# -------------------------------------------------------- narrow-mode provider

def _narrow_setup(real_route="closed-form"):
    omega_nu, gamma = 1.0e15, 1.0e9
    g2 = 1.0e8
    n = 4.0 * g2
    omega_r = math.sqrt(gamma * math.pi * n)
    delta = 1.0e3 * omega_r
    w10 = omega_nu - delta
    dip = (1.0e-29, 0.0, 0.0)
    a = AtomSpec(position=(0.0, 0.0, 0.2e-6), omega10=w10, dipole=dip)
    b = AtomSpec(position=(0.0, 0.0, 0.8e-6), omega10=w10, dipole=dip)
    mode = ModeModel(omega_nu=omega_nu, gamma_nu=gamma, g2_aa=g2, g2_bb=g2, g2_ab=g2)
    prov = NarrowModeGreens(mode, a, b, real_route=real_route)
    return a, b, mode, prov, omega_r, delta


def test_narrow_provider_total_matches_weak_limit():
    a, b, mode, prov, omega_r, delta = _narrow_setup()
    out = resonant_potential(a, b, prov)
    assert out.single_a is not None and out.single_b is not None
    expect = weak_limit_potentials(mode.gamma_nu, 4.0 * mode.g2_aa, delta)[1]
    assert out.total == pytest.approx(expect, rel=1e-6, abs=0.0)
    # and the dressed ladder agrees through Eq-(35) expansion territory
    e_minus_pos = eigenenergies(omega_r, delta)[1] - eigenenergies(0.0, delta)[1]
    assert out.total == pytest.approx(e_minus_pos, rel=1e-5, abs=0.0)


def test_narrow_provider_kk_route_agrees():
    a, b, mode, prov_cf, _, delta = _narrow_setup()
    prov_kk = NarrowModeGreens(mode, a, b, real_route="kk-numeric")
    t_cf = resonant_potential(a, b, prov_cf).total
    t_kk = resonant_potential(a, b, prov_kk).total
    assert t_kk == pytest.approx(t_cf, rel=1e-6, abs=0.0)


def test_narrow_provider_rejects_unknown_position():
    a, b, mode, prov, _, _ = _narrow_setup()
    with pytest.raises(DomainError):
        prov.tensor((0.0, 0.0, 0.5e-6), a.position, 1.0e15)
    with pytest.raises(DomainError):
        NarrowModeGreens(mode, a, b, real_route="bogus")
