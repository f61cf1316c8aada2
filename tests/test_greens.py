import math
import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityvdw.constants import C
from cavityvdw.errors import DomainError, QuadratureError
from cavityvdw.greens import (
    ComplexDyad,
    PlanarCavity,
    QuadratureControl,
    SpectralFunction,
    FreeSpaceGreens,
    PlanarCavityGreens,
    free_space_green,
    free_space_im_green_coincident,
    kk_real_from_imag,
    planar_cavity_green,
    planar_resonant_im_gxx,
    planar_scattering_components,
)
from cavityvdw import greens, quadrature
from cavityvdw.greens import _kronrod_rule
from cavityvdw.quadrature import _adaptive_quadrature, _halving_rule, _panel_edges

from oracles import (
    checks,
    lorentzian_principal_value,
    small_kr_diagonal_imag,
    uniform_cavity_bracket,
)

RNG = np.random.default_rng(20260814)

ONE_OVER_SIX_PI = 0.05305164769729845


# ----------------------------------------------------------------- free space

def test_free_space_symmetric_and_even():
    k = 2.7e6
    r = np.array([0.3e-6, -0.9e-6, 0.4e-6])
    g = free_space_green(k, r)
    m = g.matrix
    assert np.allclose(m, m.T, rtol=0, atol=1e-30)
    g2 = free_space_green(k, -r)
    assert np.allclose(m, g2.matrix, rtol=0, atol=1e-30)


def test_free_space_far_field_transverse():
    # at kr >> 1 the tensor approaches e^{ikr}/(4 pi r) (delta - e e),
    # with the residual falling off like 1/(kr)
    k = 1.0e7
    for kr in (1.0e4, 1.0e6):
        rmag = kr / k
        e = np.array([1.0, 2.0, -2.0]) / 3.0
        r = rmag * e
        g = free_space_green(k, r).matrix
        lead = cmath.exp(1j * kr) / (4.0 * math.pi * rmag) * (np.eye(3) - np.outer(e, e))
        scale = abs(cmath.exp(1j * kr) / (4.0 * math.pi * rmag))
        dev = np.max(np.abs(g - lead)) / scale
        assert dev < 4.0 / kr


def test_free_space_small_kr_series_per_axis():
    # kr = 1e-2: truncation of the cubic series is ~1e-8 relative while
    # round-off cancellation in the full tensor stays near 1e-10
    k = 1.0e6 / 3.0
    r_vec = np.array([1.0e-8, -2.0e-8, 2.0e-8])
    g = free_space_green(k, r_vec).matrix
    expect = small_kr_diagonal_imag(k, r_vec)
    for a in range(3):
        assert g[a, a].imag == pytest.approx(expect[a], rel=1e-6, abs=0.0)


def test_coincident_imag_limit():
    # frozen value 1/(6 pi) at k = 1
    d = free_space_im_green_coincident(1.0)
    assert isinstance(d, ComplexDyad)
    assert d.real_status == "excluded"
    m = d.imag_part
    assert np.allclose(m, ONE_OVER_SIX_PI * np.eye(3), rtol=1e-15, atol=0)
    with pytest.raises(DomainError):
        d.real_part
    # small-separation limit of the full tensor approaches it; kr = 1e-3
    # balances the O((kr)^2) truncation against 1/(kr)^2 round-off
    k = 3.3e6
    g = free_space_green(k, np.array([3.0e-10, 0.0, 0.0]))
    assert np.allclose(g.imag_part, (k / (6.0 * math.pi)) * np.eye(3), rtol=1e-5, atol=0)


def test_free_space_rejects_zero_separation():
    with pytest.raises(DomainError):
        free_space_green(1.0e6, np.zeros(3))
    with pytest.raises(DomainError):
        free_space_green(-1.0, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("r", [(0.0, 1.0e-7), (0.0, 0.0, 1.0e-7, 0.0), np.ones((1, 3)) * 1.0e-7])
def test_free_space_rejects_a_displacement_that_is_not_a_3_vector(r):
    with pytest.raises(DomainError, match="3-vector"):
        free_space_green(1.0e7, r)


@pytest.mark.parametrize("matrix", [np.eye(2), np.eye(3)[:, :2], np.ones(9), np.eye(3)[None]])
def test_dyad_rejects_a_matrix_that_is_not_3x3(matrix):
    with pytest.raises(DomainError, match="3x3"):
        ComplexDyad(matrix)


@pytest.mark.parametrize("status", ["", "Full", "scattering", "none"])
def test_dyad_rejects_an_unknown_real_status(status):
    with pytest.raises(DomainError, match="unknown real_status"):
        ComplexDyad(np.eye(3), status)


@pytest.mark.parametrize("call, name", [
    (lambda: free_space_green(math.inf, (0.0, 0.0, 1.0e-7)), "k=inf"),
    (lambda: free_space_green(math.nan, (0.0, 0.0, 1.0e-7)), "k=nan"),
    (lambda: free_space_green(1.0e7, (math.nan, 0.0, 1.0e-7)), "r="),
    (lambda: free_space_green(1.0e7, (math.inf, 0.0, 0.0)), "r="),
    (lambda: free_space_im_green_coincident(math.inf), "k=inf"),
    (lambda: free_space_im_green_coincident(math.nan), "k=nan"),
])
def test_free_space_rejects_non_finite_input_by_name(call, name):
    with pytest.raises(DomainError, match=name):
        call()


# ----------------------------------------------------- planar quadrature core

def _random_geometries(n, rng=RNG):
    out = []
    for _ in range(n):
        d = float(rng.uniform(0.4e-6, 3.0e-6))
        z = float(rng.uniform(0.08, 0.92)) * d
        zp = float(rng.uniform(0.08, 0.92)) * d
        kd = float(rng.uniform(1.2, 9.5))
        omega = kd * C / d
        delta = float(10.0 ** rng.uniform(-3.0, -1.1))
        out.append((d, delta, z, zp, omega))
    return out


def test_planar_scattering_matches_image_series():
    ctrl = QuadratureControl(rel_tol=1e-10)
    for d, delta, z, zp, omega in _random_geometries(8):
        r = 1.0 - delta
        trans, longi, _ = planar_scattering_components(d, -r, r, z, zp, omega, ctrl)
        oracle_t, oracle_l = checks.image_series(d, delta, z, zp, omega)
        st = max(abs(oracle_t), omega / C / (6.0 * math.pi))
        sl = max(abs(oracle_l), omega / C / (6.0 * math.pi))
        assert abs(trans - oracle_t) / st < 5e-9
        assert abs(longi - oracle_l) / sl < 5e-9


def test_planar_scattering_transparent_walls_vanish():
    trans, longi, err = planar_scattering_components(
        1.0e-6, 0.0, 0.0, 0.4e-6, 0.7e-6, 2.0e15, QuadratureControl()
    )
    assert trans == 0.0 and longi == 0.0 and err == 0.0


@pytest.mark.parametrize("r_s,r_p",
                         [(math.nan, 0.99), (-0.99, math.nan), (-1.0, 0.99), (-0.99, 1.5)])
def test_planar_scattering_rejects_reflection_outside_unit_disc(r_s, r_p):
    # NaN fails the |r| < 1 check rather than reaching the quadrature
    with pytest.raises(DomainError, match=r"\|r\| < 1"):
        planar_scattering_components(1.0e-6, r_s, r_p, 0.4e-6, 0.7e-6, 2.0e15)


@pytest.mark.parametrize("d,omega,name", [(math.inf, 2.0e15, "d=inf"), (math.nan, 2.0e15, "d=nan"),
                                          (1.0e-6, math.inf, "omega=inf"),
                                          (1.0e-6, math.nan, "omega=nan")])
def test_planar_scattering_rejects_non_finite_separation_or_frequency(d, omega, name):
    # an infinite d passes 0 < z < d and an infinite omega passes omega > 0;
    # neither may reach the panel edges, which count resonances below kd
    with pytest.raises(DomainError, match=name):
        planar_scattering_components(d, -0.99, 0.99, 0.4e-6, 0.7e-6, omega)


@pytest.mark.parametrize("z_over_d,zp_over_d", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
def test_planar_scattering_rejects_points_on_a_mirror(z_over_d, zp_over_d):
    # the domain is open: a point exactly on either mirror plane is outside it
    d = 1.0e-6
    with pytest.raises(DomainError, match="0 < z, z' < d"):
        planar_scattering_components(d, -0.99, 0.99, z_over_d * d, zp_over_d * d, 2.0e15)


def test_planar_scattering_reciprocity():
    ctrl = QuadratureControl(rel_tol=1e-10)
    d, delta, omega = 1.1e-6, 7.0e-3, 2.5e15
    r = 1.0 - delta
    a = planar_scattering_components(d, -r, r, 0.31 * d, 0.77 * d, omega, ctrl)
    b = planar_scattering_components(d, -r, r, 0.77 * d, 0.31 * d, omega, ctrl)
    assert a[0] == pytest.approx(b[0], rel=1e-11, abs=1e-30)
    assert a[1] == pytest.approx(b[1], rel=1e-11, abs=1e-30)


@pytest.mark.parametrize("zp_over_d", [0.3, 0.37])
@pytest.mark.parametrize("delta", [1.0e-4, 1.0e-5])
def test_planar_scattering_matches_image_series_narrow_fifth_mode(delta, zp_over_d):
    # nu = 5 lines of width down to 1e-5 of the mirror gap, at the default
    # control: resonances, grazing and normal incidence all sit within a
    # few line widths of the panel edges
    cav = PlanarCavity(d=1.0e-6, delta=delta, nu=5)
    z, zp = 0.3 * cav.d, zp_over_d * cav.d
    for offset in (-2.0, -0.7, 0.0, 0.7, 2.0):
        omega = cav.omega_nu + offset * cav.gamma_nu
        trans, longi, _ = planar_scattering_components(cav.d, cav.r_s, cav.r_p, z, zp, omega)
        oracle_t, oracle_l = checks.image_series(cav.d, delta, z, zp, omega)
        floor = omega / C / (6.0 * math.pi)
        assert abs(trans - oracle_t) / max(abs(oracle_t), floor) < 5e-9
        assert abs(longi - oracle_l) / max(abs(oracle_l), floor) < 5e-9


@pytest.mark.parametrize("nu", [1, 3, 5])
def test_planar_scattering_matches_image_series_next_to_a_mirror(nu):
    # both points 1e-3 d from a mirror at delta = 1e-5: the zz near field
    # peaks at u ~ d / (z + z'), a thousand times past the layer-graded
    # evanescent edges, and a last panel spanning it hid the miss
    # (up to 1.6e-6) from the error estimate at every rel_tol
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-5, nu=nu)
    z = 1.0e-3 * cav.d
    for offset in (-2.0, 0.0, 2.0):
        omega = cav.omega_nu + offset * cav.gamma_nu
        trans, longi, _ = planar_scattering_components(cav.d, cav.r_s, cav.r_p, z, z, omega)
        oracle_t, oracle_l = checks.image_series(cav.d, cav.delta, z, z, omega)
        floor = omega / C / (6.0 * math.pi)
        assert abs(trans - oracle_t) / max(abs(oracle_t), floor) < 5e-9
        assert abs(longi - oracle_l) / max(abs(oracle_l), floor) < 5e-9


@pytest.mark.parametrize("zp_over_d", [0.3, 0.37])
@pytest.mark.parametrize("nu", [50, 300, 1000])
def test_planar_scattering_matches_image_series_at_high_mode_index(nu, zp_over_d):
    # kd up to 1000 pi: the path k_perp = k + i y meets none of the nu
    # resonances, so the default control holds the gate without more panels
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=nu)
    z, zp = 0.3 * cav.d, zp_over_d * cav.d
    for offset in (-2.0, 0.0, 2.0):
        omega = cav.omega_nu + offset * cav.gamma_nu
        trans, longi, _ = planar_scattering_components(cav.d, cav.r_s, cav.r_p, z, zp, omega)
        oracle_t, oracle_l = checks.image_series(cav.d, cav.delta, z, zp, omega)
        floor = omega / C / (6.0 * math.pi)
        assert abs(trans - oracle_t) / max(abs(oracle_t), floor) < 5e-9
        assert abs(longi - oracle_l) / max(abs(oracle_l), floor) < 5e-9


@settings(max_examples=15, deadline=None)
@given(nu=st.integers(1, 5),
       log_delta=st.floats(-5.0, -1.1),
       z_over_d=st.floats(1e-3, 0.999, exclude_min=True, exclude_max=True),
       zp_over_d=st.floats(1e-3, 0.999, exclude_min=True, exclude_max=True),
       offset=st.floats(-3.0, 3.0))
def test_planar_scattering_matches_image_series_property(nu, log_delta, z_over_d, zp_over_d,
                                                         offset):
    # the default control within three mode widths of any of the first five
    # modes, anywhere between the mirrors, against the image series
    cav = PlanarCavity(d=1.0e-6, delta=10.0**log_delta, nu=nu)
    z, zp = z_over_d * cav.d, zp_over_d * cav.d
    omega = cav.omega_nu + offset * cav.gamma_nu
    got = planar_scattering_components(cav.d, cav.r_s, cav.r_p, z, zp, omega)
    assert planar_scattering_components(cav.d, cav.r_s, cav.r_p, zp, z, omega) == got
    trans, longi, _ = got
    oracle_t, oracle_l = checks.image_series(cav.d, cav.delta, z, zp, omega)
    floor = omega / C / (6.0 * math.pi)
    assert abs(trans - oracle_t) / max(abs(oracle_t), floor) < 5e-9
    assert abs(longi - oracle_l) / max(abs(oracle_l), floor) < 5e-9


# the cavity is symmetric under z -> d - z. Reflecting both points swaps the
# path lengths z + z' and 2d - z - z', which round differently, and so the
# rounding of the quadrature: over 6 300 uniform draws from the domain above,
# one in ten with both points 1e-3 d from a mirror, the entries moved by at
# most 2.3e-13 of max(|entry|, k / 6 pi), with both points at 1e-3 d from a
# mirror
MIRROR_PARITY_TOL = 1.0e-12


@settings(max_examples=40, deadline=None)
@given(nu=st.integers(1, 5),
       log_delta=st.floats(-5.0, -1.1),
       z_over_d=st.floats(1e-3, 0.999, exclude_min=True, exclude_max=True),
       zp_over_d=st.floats(1e-3, 0.999, exclude_min=True, exclude_max=True),
       offset=st.floats(-3.0, 3.0))
def test_planar_scattering_is_unchanged_when_both_points_are_mirrored(nu, log_delta, z_over_d,
                                                                     zp_over_d, offset):
    cav = PlanarCavity(d=1.0e-6, delta=10.0**log_delta, nu=nu)
    z, zp = z_over_d * cav.d, zp_over_d * cav.d
    omega = cav.omega_nu + offset * cav.gamma_nu
    trans, longi, _ = planar_scattering_components(cav.d, cav.r_s, cav.r_p, z, zp, omega)
    mirrored = planar_scattering_components(cav.d, cav.r_s, cav.r_p, cav.d - z, cav.d - zp, omega)
    floor = omega / C / (6.0 * math.pi)
    assert abs(mirrored[0] - trans) / max(abs(trans), floor) < MIRROR_PARITY_TOL
    assert abs(mirrored[1] - longi) / max(abs(longi), floor) < MIRROR_PARITY_TOL


def _scaling_draws(count, seed):
    """(nu, delta, z/d, z'/d, offset in widths) of cavity-tensor draws, one
    in four with z = z'."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        z_over_d, zp_over_d = rng.uniform(1e-3, 0.999, 2).tolist()
        yield (int(rng.integers(1, 6)), float(10.0 ** rng.uniform(-5.0, -1.1)), z_over_d,
               z_over_d if i % 4 == 0 else zp_over_d, float(rng.uniform(-3.0, 3.0)))


def _scaled_pair(lam, nu, delta, z_over_d, zp_over_d, offset):
    """G(d, z, z', omega) and lam G(lam d, lam z, lam z', omega / lam)."""
    cav = PlanarCavity(d=1.0e-6, delta=delta, nu=nu)
    big = PlanarCavity(d=lam * cav.d, delta=delta, nu=nu)
    omega = cav.omega_nu + offset * cav.gamma_nu
    g = planar_cavity_green(cav, z_over_d * cav.d, zp_over_d * cav.d, omega).matrix
    scaled = lam * planar_cavity_green(big, z_over_d * big.d, zp_over_d * big.d,
                                       omega / lam).matrix
    return g, scaled, omega


def test_cavity_green_scales_with_length_bit_for_bit_by_powers_of_two():
    # lengths scale out: lam G(lam d, lam z, lam z', omega / lam) = G(d, z,
    # z', omega), and a power of two scales every length, wavenumber and
    # frequency of the computation exactly
    for i, draw in enumerate(_scaling_draws(60, seed=7)):
        g, scaled, _ = _scaled_pair(2.0 ** (i % 7 - 3), *draw)
        assert scaled.tobytes() == g.tobytes(), draw


# with any other factor the quadrature's panels round differently: over this
# test's draws, lam = 10^U(-1, 1), the entries moved by at most 4.1e-12 of
# max(|entry|, k / 6 pi)
LENGTH_SCALING_TOL = 3.0e-11


def test_cavity_green_scales_with_length():
    rng = np.random.default_rng(8)
    for draw in _scaling_draws(100, seed=9):
        g, scaled, omega = _scaled_pair(float(10.0 ** rng.uniform(-1.0, 1.0)), *draw)
        scale = max(np.max(np.abs(g)), omega / C / (6.0 * math.pi))
        assert np.max(np.abs(scaled - g)) <= LENGTH_SCALING_TOL * scale, draw


# integrand nodes and levels of one on-resonance call, as measured on G20/K41
# panels along k_perp = k + i y: (nu, delta, z/d, z'/d, nodes, levels). The
# path meets no resonance, so the work does not grow with nu: the nu = 1000
# rows hold the nu = 1 ceiling
_CAVITY_WORK = [(5, 1.0e-3, 0.3, 0.375, 328, 1), (1, 1.0e-5, 0.3, 0.3, 410, 1),
                (1000, 1.0e-3, 0.3, 0.375, 410, 1), (1000, 1.0e-5, 0.3, 0.3, 410, 1)]


@pytest.mark.parametrize("nu,delta,z_over_d,zp_over_d,nodes,levels", _CAVITY_WORK)
def test_planar_cavity_green_work_per_call(monkeypatch, nu, delta, z_over_d, zp_over_d,
                                           nodes, levels):
    # counted through the engine the cavity calls, on its rule: 41 nodes a
    # panel, and never none
    counted = [0, 0]
    engine = greens._adaptive_quadrature

    def counting_quadrature(g, edges, budget, rule):
        assert rule is _kronrod_rule

        def g_counted(x):
            counted[0] += x.size
            counted[1] += 1
            return g(x)

        return engine(g_counted, edges, budget, rule)

    monkeypatch.setattr(greens, "_adaptive_quadrature", counting_quadrature)
    cav = PlanarCavity(d=1.0e-6, delta=delta, nu=nu)
    planar_cavity_green(cav, z_over_d * cav.d, zp_over_d * cav.d, cav.omega_nu)
    assert 0 < counted[0] <= nodes and counted[1] == levels
    assert counted[0] % 41 == 0


def test_planar_scattering_swapped_points_bit_identical():
    d, delta, omega = 1.1e-6, 7.0e-3, 2.5e15
    r = 1.0 - delta
    for z, zp in ((0.31 * d, 0.77 * d), (0.05 * d, 0.3 * d)):
        a = planar_scattering_components(d, -r, r, z, zp, omega)
        b = planar_scattering_components(d, -r, r, zp, z, omega)
        assert a == b


# the bits of the cavity quadrature and of the principal-value transform,
# pinned so that a rearrangement of the engine that is meant to leave every
# value unchanged shows any change. Tensor rows: (nu, delta, z/d, z'/d,
# detuning in widths) and the float.hex of Re/Im G_xx, Re/Im G_zz; the fourth
# and fifth have a point 1e-3 d from a mirror. The tensor and scattering rows
# are those of G20/K41 panels along k_perp = k + i y.
_PINNED_TENSORS = [
    ((1, 1e-5, 0.3, 0.3, 1.5), ("0x1.0abc0408e2729p+20", "0x1.1ed9b17b3cd56p+18",
                                "0x1.6a5f68bb90789p+16", "0x1.e84acc2849d40p+17")),
    ((5, 1e-3, 0.3, 0.375, 0.0), ("-0x1.2382dccbd2f49p+18", "0x1.4ec548b81025bp+19",
                                  "0x1.107a6a3c2c373p+21", "0x1.64e371b37b781p+19")),
    ((5, 1e-3, 0.21, 0.64, -0.7), ("0x1.361a67de7fcbbp+17", "0x1.a17d426927688p+15",
                                   "0x1.1e7c3df55f6eep+15", "-0x1.17433c8aab207p+16")),
    ((1, 1e-3, 1e-3, 0.4, 0.3), ("0x1.8e4abf6bf8980p+10", "0x1.8a5dde7811cc0p+10",
                                 "0x1.678b35c8bd63ap+19", "0x1.e8874bb1f2f24p+17")),
    ((2, 1e-4, 0.999, 0.999, 0.0), ("0x1.d53cd45535558p+37", "0x1.790f7b81b2000p+5",
                                    "0x1.d54fcca0e0ce2p+38", "0x1.312e65a6e882ap+19")),
]
# scattering rows at omega = 1.3 pi c / d: (r_s, r_p, z/d, z'/d) and the
# float.hex of Re/Im transverse, Re/Im longitudinal and the error estimate
_PINNED_SCATTERING = [
    ((-0.9, 0.995, 0.3, 0.55), ("0x1.0446cd11d5546p+13", "0x1.0cac50e1cc440p+17",
                                "-0x1.923f348fd0c21p+15", "0x1.1a9c23eeb05e6p+15",
                                "0x1.e26aafb32c71bp-20")),
    ((-0.995, 0.6, 0.3, 0.55), ("0x1.575fafeb7cf03p+14", "0x1.b6a3ee57121aap+16",
                                "-0x1.03caad1aa35a3p+15", "0x1.6a6ddf2fd227fp+14",
                                "0x1.27b943ab42ba2p-20")),
    ((-0.99, 0.99, 1.0 - 1e-3, 1.0 - 1e-3), ("0x1.12eb3aac63e04p+39", "-0x1.a2f34267f761cp+17",
                                             "0x1.12efed2dc5787p+40", "0x1.cab5487d9378bp+17",
                                             "0x1.42310eac54db7p-6")),
]
# principal-value transforms of a unit Lorentzian on omega_1 +- 5e4 widths
# of the nu = 1, delta = 1e-3 cavity, at rel_tol 1e-9: (offset in widths,
# hint points at the peak and its half-width points?, float.hex)
_PINNED_KK = [(100.0, True, "-0x1.015a537be16f3p-6"), (-3.0e3, True, "0x1.12843c93cdadep-11"),
              (0.3, False, "-0x1.62d0aefffe6f7p+0")]


@pytest.mark.parametrize("case,bits", _PINNED_TENSORS)
def test_planar_cavity_green_pinned_bits(case, bits):
    nu, delta, z_over_d, zp_over_d, offset = case
    cav = PlanarCavity(d=1.0e-6, delta=delta, nu=nu)
    m = planar_cavity_green(cav, z_over_d * cav.d, zp_over_d * cav.d,
                            cav.omega_nu + offset * cav.gamma_nu).matrix
    xx, zz = m[0, 0], m[2, 2]
    assert tuple(x.hex() for x in (xx.real, xx.imag, zz.real, zz.imag)) == bits
    assert np.array_equal(m, np.diag((xx, xx, zz)))


@pytest.mark.parametrize("case,bits", _PINNED_SCATTERING)
def test_planar_scattering_pinned_bits(case, bits):
    r_s, r_p, z_over_d, zp_over_d = case
    d = 1.0e-6
    trans, longi, err = planar_scattering_components(d, r_s, r_p, z_over_d * d, zp_over_d * d,
                                                     1.3 * math.pi * C / d)
    assert tuple(x.hex() for x in (trans.real, trans.imag, longi.real, longi.imag, err)) == bits


@pytest.mark.parametrize("offset,hinted,bits", _PINNED_KK)
def test_kk_pinned_bits(offset, hinted, bits):
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    w0, gamma = cav.omega_nu, cav.gamma_nu
    sf = _lorentzian_spectral(1.0, w0, gamma)
    if not hinted:
        sf = SpectralFunction(func=sf.func, support=sf.support)
    control = QuadratureControl(rel_tol=1e-9)
    assert kk_real_from_imag(sf, w0 + offset * gamma, control).hex() == bits


def _uniform_bracket_scattering(d, r_s, r_p, z, zp, omega, rel_tol):
    """(transverse, longitudinal) along the contour k_perp = k + i y of
    planar_scattering_components, on the library's panel engine and rule,
    with the integrand built from oracles.uniform_cavity_bracket and the
    initial edges written out here: 0, {0.1, 0.3, 1, 10, ...} times the
    poles' distance -ln(max |r|) / d below the path, and the cutoff
    45 / min(z + z', 2d - z - z')."""
    k = omega / C
    zsum, zdiff = z + zp, abs(z - zp)

    def f(y):
        kp2_over_k2 = ((k + 1j * y) / k) ** 2
        tr, lo = uniform_cavity_bracket(k + 1j * y, d, r_s, r_p, zsum, zdiff, kp2_over_k2,
                                        1.0 - kp2_over_k2)
        return np.stack((tr.real, tr.imag, lo.real, lo.imag)) / (8.0 * math.pi)

    floor = k / (6.0 * math.pi)

    def budget(v):
        sizes = np.linalg.norm(v.sum(axis=1).reshape(2, -1), axis=1)
        return rel_tol * max(float(sizes.max()), floor)

    width = -math.log(max(abs(r_s), abs(r_p))) / d
    y_max = 45.0 / min(zsum, 2.0 * d - zsum)
    grading = [0.1, 0.3] + [10.0 ** j for j in range(math.ceil(math.log10(y_max / width)))]
    values, _ = _adaptive_quadrature(f, _panel_edges(0.0, y_max, [0.0], width, grading), budget,
                                     _kronrod_rule)
    re_t, im_t, re_l, im_l = map(math.fsum, values)
    return complex(re_t, im_t), complex(re_l, im_l)


def _reference_route_cases():
    """(d, r_s, r_p, z, z', omega, rel_tol): the random geometries of the
    image-series test, nu = 5 at delta = 1e-4, points 1e-3 d from a mirror
    and |r_s| != |r_p|."""
    cases = [(d, -(1.0 - delta), 1.0 - delta, z, zp, omega, 1e-10)
             for d, delta, z, zp, omega in _random_geometries(8, np.random.default_rng(20260814))]
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-4, nu=5)
    cases += [(cav.d, cav.r_s, cav.r_p, 0.3 * cav.d, zp * cav.d,
               cav.omega_nu + offset * cav.gamma_nu, 1e-8)
              for zp in (0.3, 0.37) for offset in (-2.0, -0.7, 0.0, 0.7, 2.0)]
    d = 1.0e-6
    omega = 1.3 * math.pi * C / d
    cases += [(d, -0.99, 0.99, z * d, zp * d, omega, 1e-8)
              for z, zp in ((1e-3, 1e-3), (1e-3, 0.4), (1.0 - 1e-3, 0.5))]
    cases += [(d, r_s, r_p, 0.3 * d, 0.55 * d, omega, 1e-8)
              for r_s, r_p in ((-0.9, 0.995), (-0.995, 0.6), (0.0, 0.98), (-0.97, 0.0))]
    return cases


@pytest.mark.parametrize("d,r_s,r_p,z,zp,omega,rel_tol", _reference_route_cases())
def test_planar_scattering_matches_uniform_bracket_route(d, r_s, r_p, z, zp, omega, rel_tol):
    # the library's real decays and constant phases against the
    # complex-exponential bracket, on the same panels: a slip in one factor
    # shows far below the image-series gate
    ctrl = QuadratureControl(rel_tol=rel_tol)
    trans, longi, _ = planar_scattering_components(d, r_s, r_p, z, zp, omega, ctrl)
    ref_t, ref_l = _uniform_bracket_scattering(d, r_s, r_p, z, zp, omega, rel_tol)
    floor = omega / C / (6.0 * math.pi)
    assert abs(trans - ref_t) / max(abs(ref_t), floor) < 1e-12
    assert abs(longi - ref_l) / max(abs(ref_l), floor) < 1e-12


def _layout_cases():
    """(nu, delta, z/d, z'/d): coincident, distinct and swapped points."""
    return [(nu, delta, z, zp) for nu in (1, 5, 1000) for delta in (1e-5, 1e-3, 0.05)
            for z, zp in ((0.3, 0.3), (0.3, 0.37), (0.37, 0.3))]


@pytest.mark.parametrize("nu,delta,z_over_d,zp_over_d", _layout_cases())
def test_cavity_green_bits_do_not_depend_on_the_layout_cache(nu, delta, z_over_d, zp_over_d):
    # the layout holds no frequency: a call on a layout another frequency,
    # or the swapped points, built gives the bits of a call on a cold cache
    cav = PlanarCavity(d=1.0e-6, delta=delta, nu=nu)
    z, zp = z_over_d * cav.d, zp_over_d * cav.d
    omegas = (cav.omega_nu + 0.7 * cav.gamma_nu, cav.omega_nu - 2.0 * cav.gamma_nu)
    cold = []
    for omega in omegas:
        greens._contour_layout.cache_clear()
        cold.append(planar_cavity_green(cav, z, zp, omega).matrix.tobytes())
    greens._contour_layout.cache_clear()
    planar_cavity_green(cav, zp, z, omegas[1])
    warm = [planar_cavity_green(cav, z, zp, omega).matrix.tobytes() for omega in omegas]
    assert warm == cold
    assert greens._contour_layout.cache_info()[:2] == (2, 1)  # hits, misses


def test_split_levels_evaluate_fresh_nodes_on_a_warm_layout(monkeypatch):
    # at rel_tol 1e-14 the call splits panels over several levels; the warm
    # call's split levels get no laid-out decays, so it matches both the cold
    # call and the plain complex-exponential route on the same panels
    d, r = 1.0e-6, 1.0 - 1.0e-3
    z, zp, omega = 1e-3 * d, 0.4 * d, math.pi * C / d
    ctrl = QuadratureControl(rel_tol=1e-14)
    levels = []
    engine = greens._adaptive_quadrature

    def counting_quadrature(g, edges, budget, rule):
        def g_counted(x):
            levels.append(x.size)
            return g(x)

        return engine(g_counted, edges, budget, rule)

    greens._contour_layout.cache_clear()
    cold = planar_scattering_components(d, -r, r, z, zp, omega, ctrl)
    monkeypatch.setattr(greens, "_adaptive_quadrature", counting_quadrature)
    warm = planar_scattering_components(d, -r, r, z, zp, omega, ctrl)
    assert len(levels) > 2 and greens._contour_layout.cache_info().hits == 1
    assert warm == cold
    ref_t, ref_l = _uniform_bracket_scattering(d, -r, r, z, zp, omega, 1e-14)
    floor = omega / C / (6.0 * math.pi)
    assert abs(warm[0] - ref_t) / max(abs(ref_t), floor) < 1e-12
    assert abs(warm[1] - ref_l) / max(abs(ref_l), floor) < 1e-12


def test_layout_cache_is_bounded_and_read_only():
    greens._contour_layout.cache_clear()
    d = 1.0e-6
    for j in range(greens._LAYOUTS + 5):
        planar_scattering_components(d, -0.99, 0.99, 0.3 * d, (0.31 + 0.001 * j) * d, 3.0e15)
    info = greens._contour_layout.cache_info()
    assert info.maxsize == greens._LAYOUTS and info.currsize == greens._LAYOUTS
    panels, lengths, decays = greens._contour_layout(d, 0.99, 0.61 * d, 0.01 * d)
    for arr in (panels.edges, panels.half, panels.nodes, lengths, decays):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # 41 nodes a panel, and one decay per path length and node
    assert panels.nodes.shape == (panels.edges.size - 1, 41)
    assert decays.shape == (5, panels.nodes.size)


def test_gl_quadrature_converged_first_level_is_one_call():
    # the initial panels and their halves share one call of the integrand
    calls = []

    def g(x):
        calls.append(x.shape)
        return np.stack((np.cos(x), np.exp(x)))

    values, err = _adaptive_quadrature(g, np.array([0.0, 0.25, 0.5, 1.0]),
                                       lambda v: 1e-12 * np.abs(v.sum(axis=1)).max(),
                                       _halving_rule)
    assert calls == [(3 * 3, 20)]
    assert math.fsum(values[0]) == pytest.approx(math.sin(1.0), rel=1e-14, abs=0.0)
    assert math.fsum(values[1]) == pytest.approx(math.e - 1.0, rel=1e-14, abs=0.0)
    assert err < 1e-12


def test_kronrod_quadrature_converged_first_level_is_one_call():
    # 41 nodes a panel, K41 value and G20 error estimate from one call
    calls = []

    def g(x):
        calls.append(x.shape)
        return np.stack((np.cos(x), np.exp(x)))

    values, err = _adaptive_quadrature(g, np.array([0.0, 0.25, 0.5, 1.0]),
                                       lambda v: 1e-12 * np.abs(v.sum(axis=1)).max(),
                                       _kronrod_rule)
    assert calls == [(3, 41)]
    assert math.fsum(values[0]) == pytest.approx(math.sin(1.0), rel=1e-15, abs=0.0)
    assert math.fsum(values[1]) == pytest.approx(math.e - 1.0, rel=1e-15, abs=0.0)
    assert err < 1e-12


def test_kronrod_rule_error_is_no_less_than_the_round_off_of_its_sum():
    # a constant is exact on both rules, so |K41 - G20| is the round-off of
    # the weights (1.6e-17 of the constant); the error is 50 eps |K41|,
    # summed over the components
    def g(x):
        return np.stack((np.full(x.shape, 3.0 + 0j), np.full(x.shape, -1j)))

    values, err = _kronrod_rule(g, np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    assert np.allclose(values, [[3.0, 6.0], [-1j, -2j]], rtol=1e-15, atol=0.0)
    assert np.allclose(err, 50.0 * np.finfo(float).eps * np.array([4.0, 8.0]), rtol=1e-15, atol=0.0)


def test_kronrod_rule_extends_the_gauss_rule():
    x, w, error_w = greens._K41_NODES, greens._K41_WEIGHTS, greens._K41_RULE[:, 1]
    assert np.array_equal(greens._K41_RULE[:, 0], w)
    # exact for x^j up to degree 3 * 20 + 1; an odd moment cancels to the
    # round-off of numpy's power
    for j in range(62):
        moment = math.fsum((w * x**j).tolist())
        if j % 2 == 0:
            assert moment == pytest.approx(2.0 / (j + 1), rel=1e-15, abs=0.0)
        else:
            assert abs(moment) < 1e-17
    # K41 - G20 vanishes up to degree 2 * 20 - 1, to the round-off of the
    # numpy.polynomial G20 weights (whose own moments miss by up to 3.4e-15),
    # and not at degree 40
    for j in range(40):
        assert abs(math.fsum((error_w * x**j).tolist())) < 1e-14
    assert abs(math.fsum((error_w * x**40).tolist())) > 1e-12
    assert math.fsum(w.tolist()) == 2.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]) and x[20] == 0.0
    assert np.all(np.diff(x) > 0.0)
    gauss = quadrature._GL_NODES
    assert np.all(np.abs(x[1::2] - gauss) <= np.spacing(np.abs(gauss)))
    assert not any(a.flags.writeable for a in (x, w, greens._K41_RULE))


@st.composite
def _panel_edge_inputs(draw):
    """(lo, hi, features, width, grading, fixed) for _panel_edges: points
    inside and outside [lo, hi], on its ends, repeated, and +-0.0."""
    lo = draw(st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]))
    hi = lo + draw(st.floats(1e-6, 20.0))
    point = st.floats(lo - 5.0, hi + 5.0) | st.sampled_from([lo, hi, 0.0, -0.0])
    features = draw(st.lists(point, max_size=8))
    if features:
        features += draw(st.lists(st.sampled_from(features), max_size=4))
    grading = draw(st.sampled_from([(0.1, 0.3, 1.0, 10.0, 100.0), quadrature._HALF_DECADES])
                   | st.lists(st.floats(-1e4, 1e4) | st.just(0.0), min_size=1, max_size=8))
    return (lo, hi, features, draw(st.floats(1e-9, 3.0)), grading,
            tuple(draw(st.lists(point, max_size=2))))


@settings(max_examples=200, deadline=None)
@given(_panel_edge_inputs())
def test_panel_edges_match_the_array_reference(inputs):
    # the edges are built from Python floats; the array expression they
    # replace is the reference: the distinct values of the ends, the fixed
    # points and the graded features, clipped to [lo, hi], sorted
    lo, hi, features, width, grading, fixed = inputs
    graded = (np.asarray(features, dtype=float)[:, None] + width * np.asarray(grading)).ravel()
    want = np.unique(np.clip(np.concatenate(([lo, hi], features, fixed, graded)), lo, hi))
    got = _panel_edges(lo, hi, features, width, grading, fixed)
    assert got.dtype == float and np.array_equal(got, want)


def test_planar_scattering_unreachable_tolerance_raises_with_its_estimate():
    d, delta, omega = 1.1e-6, 7.0e-3, 2.5e15
    r = 1.0 - delta
    with pytest.raises(QuadratureError) as info:
        planar_scattering_components(d, -r, r, 0.31 * d, 0.77 * d, omega,
                                     QuadratureControl(rel_tol=1e-17))
    assert info.value.achieved > info.value.target
    assert len(info.value.value) == 2
    assert all(cmath.isfinite(v) for v in info.value.value)


def test_planar_cavity_green_distinct_points_total():
    # the returned dyad is scattering plus the free-space direct part
    cav = PlanarCavity(d=1.3e-6, delta=4.0e-3, nu=1)
    omega = 1.9e15
    z, zp = 0.35 * cav.d, 0.6 * cav.d
    g = planar_cavity_green(cav, z, zp, omega)
    assert g.real_status == "full"
    k = omega / C
    direct = free_space_green(k, np.array([0.0, 0.0, z - zp])).matrix
    scat_xx, scat_zz = checks.image_series(cav.d, cav.delta, z, zp, omega)
    assert g.matrix[0, 0] == pytest.approx(direct[0, 0] + scat_xx, rel=2e-8, abs=0.0)
    assert g.matrix[1, 1] == pytest.approx(direct[1, 1] + scat_xx, rel=2e-8, abs=0.0)
    assert g.matrix[2, 2] == pytest.approx(direct[2, 2] + scat_zz, rel=2e-8, abs=0.0)
    assert abs(g.matrix[0, 1]) == 0.0 and abs(g.matrix[0, 2]) == 0.0


def test_planar_cavity_green_coincident_keeps_imag_only_bulk():
    cav = PlanarCavity(d=1.0e-6, delta=5.0e-3, nu=1)
    omega = 2.2e15
    z = 0.41 * cav.d
    g = planar_cavity_green(cav, z, z, omega)
    assert g.real_status == "scattering-only"
    k = omega / C
    scat_xx, _ = checks.image_series(cav.d, cav.delta, z, z, omega)
    assert g.matrix[0, 0].imag == pytest.approx(k / (6.0 * math.pi) + scat_xx.imag, rel=2e-8,
                                                abs=0.0)
    # real part is the scattering contribution alone
    assert g.matrix[0, 0].real == pytest.approx(scat_xx.real, rel=2e-8, abs=0.0)


def test_planar_quadrature_weak_reflection_one_bounce():
    # at very small reflection the single-image term dominates the series
    d, delta, omega = 1.0e-6, 0.0499, 2.4e15
    z = zp = 0.5 * d
    r = 1.0 - delta
    trans, _, _ = planar_scattering_components(d, -r, r, z, zp, omega, QuadratureControl(rel_tol=1e-10))

    def direct(s):  # free-space xx entry at on-axis separation s
        return checks.bulk_entries(omega, 0.0, s)[0]

    one_bounce = r * (-(direct(z + zp) + direct(2 * d - z - zp)))
    two_bounce = r**2 * 2.0 * direct(2 * d)
    assert abs(trans - one_bounce) < 3.0 * abs(two_bounce)


# --------------------------------------------------------------- providers

def test_free_space_provider_tensor_and_coincident():
    prov = FreeSpaceGreens()
    omega = 2.0e15
    r1 = np.array([0.1e-6, 0.2e-6, 0.3e-6])
    r2 = np.array([-0.4e-6, 0.0, 0.9e-6])
    g = prov.tensor(r1, r2, omega)
    ref = free_space_green(omega / C, r1 - r2)
    assert np.allclose(g.matrix, ref.matrix, rtol=0, atol=0)
    gc = prov.tensor(r1, r1, omega)
    assert gc.real_status == "excluded"
    assert gc.matrix[0, 0].imag == pytest.approx(omega / C / (6.0 * math.pi), rel=1e-15, abs=0.0)


def test_planar_provider_requires_on_axis_points():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-2, nu=1)
    prov = PlanarCavityGreens(cav)
    with pytest.raises(DomainError):
        prov.tensor(np.array([1e-8, 0.0, 0.3e-6]), np.array([0.0, 0.0, 0.5e-6]), 2e15)
    g = prov.tensor(np.array([0.0, 0.0, 0.3e-6]), np.array([0.0, 0.0, 0.5e-6]), 2e15)
    ref = planar_cavity_green(cav, 0.3e-6, 0.5e-6, 2e15)
    assert np.allclose(g.matrix, ref.matrix, rtol=0, atol=0)
    # a common axis need not be the z axis: equal nonzero transverse offsets
    shifted = prov.tensor(np.array([0.2e-6, -0.1e-6, 0.3e-6]),
                          np.array([0.2e-6, -0.1e-6, 0.5e-6]), 2e15)
    assert np.array_equal(shifted.matrix, ref.matrix)


@pytest.mark.parametrize("r1,r2,omega,name", [
    ((math.nan, 0.0, 0.3e-6), (0.0, 0.0, 0.5e-6), 2.0e15, "r1="),
    ((0.1e-6, math.inf, 0.3e-6), (0.0, 0.0, 0.5e-6), 2.0e15, "r1="),
    ((0.1e-6, 0.0, 0.3e-6), (0.0, 0.0, -math.inf), 2.0e15, "r2="),
    ((0.1e-6, 0.0, 0.3e-6), (0.0, math.nan, 0.5e-6), 2.0e15, "r2="),
    ((0.1e-6, 0.0, 0.3e-6), (0.0, 0.0, 0.5e-6), math.inf, "omega=inf"),
    ((0.1e-6, 0.0, 0.3e-6), (0.0, 0.0, 0.5e-6), math.nan, "omega=nan"),
])
def test_free_space_provider_rejects_non_finite_input(r1, r2, omega, name):
    with pytest.raises(DomainError, match=name):
        FreeSpaceGreens().tensor(r1, r2, omega)


def test_free_space_provider_rejects_zero_frequency():
    with pytest.raises(DomainError, match="omega=0.0"):
        FreeSpaceGreens().tensor((0.1e-6, 0.0, 0.3e-6), (0.0, 0.0, 0.5e-6), 0.0)


@pytest.mark.parametrize("r1,r2", [((math.nan, 0.0, 0.3e-6), (0.0, 0.0, 0.5e-6)),
                                   ((0.0, 0.0, 0.3e-6), (0.0, math.nan, 0.5e-6))])
def test_planar_provider_rejects_nan_transverse_coordinate(r1, r2):
    # NaN is not on the axis
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-2, nu=1)
    with pytest.raises(DomainError, match="on-axis"):
        PlanarCavityGreens(cav).tensor(r1, r2, cav.omega_nu)


def test_planar_cavity_validation():
    for d in (-1.0, 0.0, math.inf, math.nan):
        # an infinite separation has no modes (omega_nu = gamma_nu = 0)
        with pytest.raises(DomainError, match="d="):
            PlanarCavity(d=d, delta=1e-3, nu=1)
    with pytest.raises(DomainError):
        PlanarCavity(d=1e-6, delta=0.0, nu=1)
    for delta in (0.1, 0.2):
        # the bound is exclusive: delta = 0.1 is already outside the model
        with pytest.raises(DomainError, match="delta="):
            PlanarCavity(d=1e-6, delta=delta, nu=1)
    with pytest.raises(DomainError):
        PlanarCavity(d=1e-6, delta=1e-3, nu=0)
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    assert cav.omega_nu == pytest.approx(941825783654426.6, rel=1e-15, abs=0.0)
    assert cav.gamma_nu == pytest.approx(599584916000.0, rel=1e-15, abs=0.0)
    assert cav.r_p == 1.0 - cav.delta and cav.r_s == -(1.0 - cav.delta)


# ------------------------------------------------------- resonant closed form

def test_resonant_im_gxx_antinode_peak_value():
    # omega_nu^3 sin^2(pi/2) / (4 pi c delta), with both atoms at the antinode
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    got = planar_resonant_im_gxx(cav, cav.d / 2, cav.d / 2, cav.omega_nu)
    expect = cav.omega_nu**3 / (4.0 * math.pi * C * cav.delta)
    assert got == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_resonant_im_gxx_nodes_and_positivity():
    cav = PlanarCavity(d=2.0e-6, delta=2.0e-3, nu=2)
    w = cav.omega_nu
    peak_scale = w**3 / (4.0 * math.pi * C * cav.delta)
    # nodes of the nu = 2 mode sit at 0, d/2, d (d/2 only up to the
    # floating-point representation of sin(pi))
    for z in (0.0, cav.d / 2, cav.d):
        assert planar_resonant_im_gxx(cav, z, 0.3 * cav.d, w) == pytest.approx(
            0.0, abs=1e-14 * peak_scale
        )
    zs = np.linspace(0.0, cav.d, 41)
    for z in zs:
        assert planar_resonant_im_gxx(cav, z, z, w) >= 0.0


def test_resonant_im_gxx_mode_product_structure():
    cav = PlanarCavity(d=1.5e-6, delta=3.0e-3, nu=3)
    w = cav.omega_nu
    peak = cav.omega_nu**3 / (4.0 * math.pi * C * cav.delta)
    for za, zb in ((0.21, 0.64), (0.11, 0.87), (0.5, 0.5)):
        got = planar_resonant_im_gxx(cav, za * cav.d, zb * cav.d, w)
        expect = peak * math.sin(3 * math.pi * za) * math.sin(3 * math.pi * zb)
        assert got == pytest.approx(expect, rel=1e-13, abs=1e-22)


def test_resonant_im_gxx_lorentzian_detuning():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    w0, g = cav.omega_nu, cav.gamma_nu
    base = planar_resonant_im_gxx(cav, 0.3 * cav.d, 0.7 * cav.d, w0)
    det = planar_resonant_im_gxx(cav, 0.3 * cav.d, 0.7 * cav.d, w0 + g / 2)
    assert det == pytest.approx(base / 2.0, rel=1e-12, abs=0.0)


def test_resonant_im_gxx_window_and_position_domain():
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    # one full omega_nu of detuning is ~1.57e3 mode widths here
    with pytest.raises(DomainError):
        planar_resonant_im_gxx(cav, 0.5e-6, 0.5e-6, cav.omega_nu * 2.0)
    with pytest.raises(DomainError):
        planar_resonant_im_gxx(cav, -0.1e-6, 0.5e-6, cav.omega_nu)
    with pytest.raises(DomainError):
        planar_resonant_im_gxx(cav, 0.5e-6, 1.1e-6, cav.omega_nu)
    # NaN is no nearer resonance than any other frequency
    with pytest.raises(DomainError, match="omega=nan"):
        planar_resonant_im_gxx(cav, 0.5e-6, 0.5e-6, math.nan)


# bound on the single-mode miss per mirror loss, from the largest miss over
# the points below measured with the QUADPACK quadrature this engine replaced
# (1.15e-5 at delta = 1e-3 and 1.33e-6 at delta = 1e-4)
_SINGLE_MODE_MISS = {1.0e-3: 1.2e-5, 1.0e-4: 1.4e-6}


@pytest.mark.parametrize("delta", sorted(_SINGLE_MODE_MISS))
def test_single_mode_closed_form_matches_quadrature_slope(delta):
    # planar_resonant_im_gxx(omega_nu) = (omega_nu / 2) d/domega [omega^2 Im G_xx]
    # at omega_nu, the slope a central difference of the full quadrature
    for nu, za, zb in ((1, 0.5, 0.5), (1, 0.3, 0.6), (2, 0.2, 0.3)):
        cav = PlanarCavity(d=1.0e-6, delta=delta, nu=nu)
        w0, h = cav.omega_nu, 1.0e-3 * cav.gamma_nu
        f_lo, f_hi = (w * w * planar_cavity_green(cav, za * cav.d, zb * cav.d, w).matrix[0, 0].imag
                      for w in (w0 - h, w0 + h))
        closed = planar_resonant_im_gxx(cav, za * cav.d, zb * cav.d, w0)
        miss = abs(0.5 * w0 * (f_hi - f_lo) / (2.0 * h) / closed - 1.0)
        assert miss < _SINGLE_MODE_MISS[delta]


# ----------------------------------------------------------------- KK route

# half-width of the transforms' support, in line widths
KK_WINDOW = 5e4


def _lorentzian_spectral(peak, w0, gamma):
    def f(w):
        return peak * (gamma**2 / 4.0) / ((w - w0) ** 2 + gamma**2 / 4.0)

    return SpectralFunction(
        func=f,
        support=(w0 - KK_WINDOW * gamma, w0 + KK_WINDOW * gamma),
        hint_points=(w0 - gamma, w0, w0 + gamma),
    )


def test_kk_lorentzian_matches_exact_principal_value():
    peak, w0, gamma = 2.3, 1.0e15, 1.0e11
    sf = _lorentzian_spectral(peak, w0, gamma)
    for shift in (-300.0, -3.0, 2.0, 250.0):
        w = w0 + shift * gamma
        got = kk_real_from_imag(sf, w)
        exact = lorentzian_principal_value(peak, w0, gamma, w)
        assert got == pytest.approx(exact, rel=2e-6, abs=0.0)


@pytest.mark.parametrize("offset", [0.3, 2.0, 1.0e2, 1.0e3, 1.0e4, 4.9e4])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_kk_lorentzian_matches_exact_window_transform(offset, side):
    # the exact principal value over the same finite window, from the
    # peak to 1e3 widths inside the window's edge. The 5e-14 holds at this
    # omega_0 / gamma = 1e4; the error grows with omega_0 / gamma (5.5e-13
    # at 1e6)
    peak, w0, gamma = 2.3, 1.0e15, 1.0e11
    sf = _lorentzian_spectral(peak, w0, gamma)
    w = w0 + side * offset * gamma
    exact = checks.lorentzian_pv_window(peak, w0, gamma, w, KK_WINDOW * gamma)
    assert kk_real_from_imag(sf, w) == pytest.approx(exact, rel=5e-14, abs=0.0)


def test_kk_halving_resolves_a_peak_without_hint_points():
    # no breakpoints at the peak: only the panel halving can resolve it
    peak, w0, gamma = 2.3, 1.0e15, 1.0e11
    sf = SpectralFunction(**{**vars(_lorentzian_spectral(peak, w0, gamma)), "hint_points": ()})
    control = QuadratureControl(rel_tol=1e-9)
    for offset in (-1.0e3, -2.0, 0.3, 1.0e3):
        w = w0 + offset * gamma
        exact = checks.lorentzian_pv_window(peak, w0, gamma, w, KK_WINDOW * gamma)
        assert kk_real_from_imag(sf, w, control) == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_kk_unresolvable_integrand_raises_with_its_estimate():
    # a square wave of 1e5 half-periods cannot be resolved within the
    # subdivision cap; the error carries the achieved error and the value
    lo, hi = 1.0e14, 2.0e14
    h = (hi - lo) / 1.0e5
    sf = SpectralFunction(func=lambda w: np.cos(np.pi * np.floor((w - lo) / h)), support=(lo, hi))
    for w in (1.5e14 + 0.3 * h, 3.0e14):
        with pytest.raises(QuadratureError) as info:
            kk_real_from_imag(sf, w)
        assert info.value.achieved > info.value.target
        assert math.isfinite(info.value.value)


def test_kk_far_detuned_asymptote():
    # far below the line the bare principal value approaches
    # pi * peak * gamma / (2 (w0 - w)) within one percent at 1e3 gamma
    peak, w0, gamma = 1.0, 9.4e14, 6.0e11
    sf = _lorentzian_spectral(peak, w0, gamma)
    w = w0 - 1.0e3 * gamma
    got = kk_real_from_imag(sf, w)
    asym = math.pi * peak * gamma / (2.0 * (w0 - w))
    assert abs(got - asym) / abs(asym) < 1e-2


def test_kk_on_resonance_is_zero_and_linear():
    peak, w0, gamma = 1.7, 8.0e14, 2.0e11
    sf = _lorentzian_spectral(peak, w0, gamma)
    scale = math.pi * peak * gamma
    assert abs(kk_real_from_imag(sf, w0)) < 1e-8 * scale
    sf2 = _lorentzian_spectral(2.0 * peak, w0, gamma)
    w = w0 + 7.0 * gamma
    assert kk_real_from_imag(sf2, w) == pytest.approx(2.0 * kk_real_from_imag(sf, w), rel=1e-9,
                                                      abs=0.0)


def test_kk_zero_function_gives_zero():
    sf = SpectralFunction(func=lambda w: 0.0, support=(1.0e14, 2.0e14))
    assert kk_real_from_imag(sf, 1.5e14) == 0.0
    assert kk_real_from_imag(sf, 3.0e14) == 0.0


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_kk_rejects_non_finite_frequency(omega):
    sf = _lorentzian_spectral(1.0, 1.0e15, 1.0e11)
    with pytest.raises(DomainError, match="omega="):
        kk_real_from_imag(sf, omega)


@pytest.mark.parametrize("support", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                     (0.0, math.nan), (1.0, 1.0), (2.0, 1.0)])
def test_spectral_function_rejects_a_window_that_is_not_finite_by_name(support):
    # an infinite end once reached the panel engine and failed there with
    # "achieved nan, target nan"
    with pytest.raises(DomainError, match="support="):
        SpectralFunction(func=lambda w: 1.0 / (1.0 + w * w), support=support)


@pytest.mark.parametrize("value", [(math.nan,), (1.2e14, math.inf), (-math.inf,)],
                         ids=["nan", "second-inf", "minus-inf"])
def test_spectral_function_rejects_non_finite_hint_points_by_name(value):
    with pytest.raises(DomainError, match="hint_points="):
        SpectralFunction(func=lambda w: 1.0, support=(1.0e14, 2.0e14), hint_points=value)


# --------------------------------------------------- full scan line shape

def test_planar_scan_step_height_and_width():
    # sweeping through the lowest cutoff, Im G_xx rises as a step of height
    # sin^2(pi z_A/d) sin^2-free s_A s_B / (2 d) = 1/(2 d) at the antinode,
    # broadened to an arctan profile of Lorentzian width gamma = 2 c delta/d;
    # above cutoff the guided-mode weight decays as (1 + (omega_nu/omega)^2)/2
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    ctrl = QuadratureControl(rel_tol=1e-9)
    z = cav.d / 2
    w0, g = cav.omega_nu, cav.gamma_nu
    step = 1.0 / (2.0 * cav.d)

    def level(w):
        trans, _, _ = planar_scattering_components(cav.d, cav.r_s, cav.r_p, z, z, w, ctrl)
        return trans.imag + (w / C) / (6.0 * math.pi)

    assert level(w0 - 600.0 * g) < 1e-3 * step
    assert level(w0) == pytest.approx(0.5 * step, rel=5e-3, abs=0.0)
    # quartile heights at +-gamma/2 pin the step width to the mode width
    assert level(w0 - g / 2) == pytest.approx(0.25 * step, rel=5e-3, abs=0.0)
    assert level(w0 + g / 2) == pytest.approx(0.75 * step, rel=5e-3, abs=0.0)

    def model(s):
        w = w0 + s * g
        return (0.5 + math.atan(2.0 * s) / math.pi) * (1.0 + (w0 / w) ** 2) / 2.0 * step

    for s in (6.0, 60.0, 600.0):
        assert level(w0 + s * g) == pytest.approx(model(s), rel=3e-3, abs=0.0)


def test_quadrature_control_validation():
    for rel_tol in (0.0, -1e-8, math.inf, math.nan):
        with pytest.raises(DomainError, match="rel_tol"):
            QuadratureControl(rel_tol=rel_tol)
