import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import least_squares

from cavityvdw.errors import DomainError, FitError
from cavityvdw.greens import (
    ComplexDyad,
    FreeSpaceGreens,
    PlanarCavity,
    planar_cavity_green,
    planar_resonant_im_gxx,
)
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


@pytest.mark.parametrize("field,value", [("omega_nu", math.inf),
                                         ("g2_aa", math.nan), ("g2_aa", math.inf),
                                         ("g2_bb", math.nan), ("g2_bb", -math.inf),
                                         ("g2_ab", math.nan), ("g2_ab", math.inf)])
def test_mode_model_rejects_non_finite_fields_by_name(field, value):
    # a NaN g2_aa once passed, and mode_overlap returned -1.0
    fields = {"omega_nu": 1e15, "gamma_nu": 1e11, "g2_aa": 1.0, "g2_bb": 4.0, "g2_ab": -2.0}
    with pytest.raises(DomainError, match=f"{field}="):
        ModeModel(**{**fields, field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["position", "omega10", "dipole"])
def test_atom_spec_rejects_non_finite_fields_by_name(field, value):
    # a NaN position, omega10 = inf and an infinite dipole entry once passed
    fields = {"position": (0.0, 0.0, 3e-7), "omega10": 2e15, "dipole": (1e-29, 0.0, 0.0)}
    if field != "omega10":
        value = (value, *fields[field][1:])
    with pytest.raises(DomainError, match=f"{field}="):
        AtomSpec(**{**fields, field: value})


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
    # a named tuple: unpacks, indexes, compares and prints its fields
    assert tuple(fit) == (fit[0], fit[1], fit[2], fit[3]) == (
        fit.omega_nu, fit.gamma_nu, fit.peak, fit.residual_norm)
    assert fit == tuple(fit) and fit._fields == ("omega_nu", "gamma_nu", "peak", "residual_norm")
    assert repr(fit) == "LorentzianFit(omega_nu={!r}, gamma_nu={!r}, peak={!r}, " \
        "residual_norm={!r})".format(*fit)


def test_fit_lorentzian_with_noise():
    w0, g, peak = 1.1e15, 2.0e11, 1.0
    ws = np.linspace(w0 - 10.0 * g, w0 + 10.0 * g, 121)
    noise = 1e-6 * RNG.standard_normal(ws.size)
    samples = list(zip(ws, lorentzian_profile(peak, w0, g, ws) + noise))
    fit = fit_lorentzian(samples)
    assert fit.gamma_nu == pytest.approx(g, rel=1e-4)
    assert fit.omega_nu == pytest.approx(w0, rel=1e-8)


def _exact_lorentzian_draws(seed=0, count=200):
    """(omega_nu, gamma_nu, peak, samples) of exact Lorentzians: omega_nu
    within 10% of 1e15 rad/s, widths 1e8-1e12 rad/s, peaks 1e-3-1e3, and 41
    sorted sample frequencies uniform in +-6 widths."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        w0 = 1e15 * (1.0 + rng.uniform(-0.1, 0.1))
        g = 10.0 ** rng.uniform(8.0, 12.0)
        peak = 10.0 ** rng.uniform(-3.0, 3.0)
        ws = np.sort(w0 + rng.uniform(-6.0, 6.0, 41) * g)
        draws.append((w0, g, peak, list(zip(ws, lorentzian_profile(peak, w0, g, ws)))))
    return draws


def _fit_miss(fit, w0, g, peak):
    """Largest of the centre error in widths and the width and peak relative
    errors."""
    return max(abs(fit.omega_nu - w0) / g, abs(fit.gamma_nu / g - 1.0), abs(fit.peak / peak - 1.0))


def test_fit_lorentzian_centre_moves_below_the_frequency_ulp():
    # a width of 2.2e8 rad/s at 9.8e14 rad/s: a difference step of ~1.5e-8
    # widths in the centre is below the ulp of omega (0.125 rad/s), and a
    # fit on absolute frequencies stopped at the seed centre, 0.095 widths off
    w0, g, peak, samples = _exact_lorentzian_draws()[41]
    assert w0 == pytest.approx(9.8305780e14, rel=1e-8) and g == pytest.approx(2.1967e8, rel=1e-4)
    assert _fit_miss(fit_lorentzian(samples), w0, g, peak) < 1e-9


def test_fit_lorentzian_recovers_every_exact_lorentzian():
    # none of the 200 draws raises FitError, and the worst recovers to ~1e-15
    for i, (w0, g, peak, samples) in enumerate(_exact_lorentzian_draws()):
        assert _fit_miss(fit_lorentzian(samples), w0, g, peak) < 1e-9, (i, w0, g, peak)


def _fit_or_fit_error(samples, w0, g, peak):
    # a FitError is an answer; a fit that misses is not
    try:
        fit = fit_lorentzian(samples)
    except FitError:
        return
    assert _fit_miss(fit, w0, g, peak) < 1e-9, (w0, g, peak)


# the benchmark's fit: the nu = 1 mode of d = 1 um, delta = 1e-3, a centre
# within 0.3 widths, a width within 20% and 41 samples over +-5 widths
BENCH_CAVITY = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)


@settings(max_examples=200, deadline=None)
@given(shift=st.floats(-0.3, 0.3), stretch=st.floats(0.8, 1.2), peak=st.floats(0.5e12, 2.0e12))
def test_fit_lorentzian_recovers_benchmark_peaks_or_raises(shift, stretch, peak):
    w0 = BENCH_CAVITY.omega_nu + shift * BENCH_CAVITY.gamma_nu
    g = stretch * BENCH_CAVITY.gamma_nu
    ws = w0 + np.linspace(-5.0, 5.0, 41) * g
    _fit_or_fit_error(list(zip(ws, lorentzian_profile(peak, w0, g, ws))), w0, g, peak)


@settings(max_examples=200, deadline=None)
@given(shift=st.floats(-0.1, 0.1), width_exp=st.floats(8.0, 12.0), peak_exp=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_fit_lorentzian_recovers_exact_lorentzian_draws_or_raises(shift, width_exp, peak_exp,
                                                                  seed):
    # the ranges of _exact_lorentzian_draws, the 41 offsets drawn as there
    w0, g, peak = 1e15 * (1.0 + shift), 10.0**width_exp, 10.0**peak_exp
    ws = np.sort(w0 + np.random.default_rng(seed).uniform(-6.0, 6.0, 41) * g)
    _fit_or_fit_error(list(zip(ws, lorentzian_profile(peak, w0, g, ws))), w0, g, peak)


@pytest.mark.parametrize("values,message", [
    # a plateau with its maximum at the edge: the steps end on a line 3e-8
    # seed widths wide between two samples, neither exact nor stationary
    ([1.0] * 8 + [2.0], "stalled"),
    # a lone spike: the width shrinks toward zero without end
    ([0.0] * 4 + [1.0] + [0.0] * 4, "did not end within 100 steps"),
])
def test_fit_lorentzian_raises_when_the_steps_stall_or_do_not_end(values, message):
    with pytest.raises(FitError, match=message) as info:
        fit_lorentzian(list(zip(range(9), values)))
    assert set(info.value.diagnostics) == {"x", "residual_norm"}
    assert len(info.value.diagnostics["x"]) == 3


def test_fit_lorentzian_rejects_a_negative_projected_peak():
    # a spike over a negative baseline: the nearest Lorentzian is a line
    # far wider than the window, with a negative peak
    with pytest.raises(FitError, match="peak must be positive"):
        fit_lorentzian(list(zip(range(9), [-1.0] * 4 + [1.0] + [-1.0] * 4)))


def test_fit_lorentzian_rejects_a_fit_outside_the_samples():
    # a V with no peak: the steps end at a stationary point at infinity,
    # which was once returned as omega_nu = -1.7e26, gamma_nu = 4.6e26
    with pytest.raises(FitError, match="no peak in the samples") as info:
        fit_lorentzian([(x, abs(x - 4)) for x in range(9)])
    assert info.value.diagnostics["omega_nu"] < 0.0


def _least_squares_fit(samples):
    """(omega_nu, gamma_nu, peak) by scipy.optimize.least_squares on all three
    parameters, from fit_lorentzian's seeds in its seed units."""
    w, y = np.asarray(samples, dtype=float).T
    i0 = int(np.argmax(y))
    above = w[y >= y[i0] / 2.0]
    g0 = above.max() - above.min()
    x, t = (w - w[i0]) / g0, y / y[i0]
    sol = least_squares(lambda p: p[2] * p[1] ** 2 / 4.0 / ((x - p[0]) ** 2 + p[1] ** 2 / 4.0) - t,
                        x0=(0.0, 1.0, 1.0), xtol=1e-14, ftol=1e-14, gtol=None)
    assert sol.success, sol.message
    return w[i0] + sol.x[0] * g0, abs(sol.x[1]) * g0, sol.x[2] * y[i0]


def _noisy_samples():
    w0, g, peak = 1.1e15, 2.0e11, 1.0
    ws = np.linspace(w0 - 10.0 * g, w0 + 10.0 * g, 121)
    noise = 1e-6 * np.random.default_rng(8891).standard_normal(ws.size)
    return list(zip(ws, lorentzian_profile(peak, w0, g, ws) + noise))


def _criterion_8_samples():
    # the derivative of the quadrature's resonance scan, as criterion 8 fits it
    cav = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
    z = cav.d / 2
    omegas = cav.omega_nu + np.linspace(-5.0, 5.0, 81) * cav.gamma_nu
    scan = np.array([w**2 * planar_cavity_green(cav, z, z, float(w)).entry("x", "x").imag
                     for w in omegas])
    return list(zip(omegas[1:-1], (scan[2:] - scan[:-2]) / (omegas[2:] - omegas[:-2])))


@pytest.mark.parametrize("samples", [_noisy_samples, _criterion_8_samples])
def test_fit_lorentzian_agrees_with_scipy_least_squares(samples):
    data = samples()
    fit = fit_lorentzian(data)
    w0, g, peak = _least_squares_fit(data)
    assert abs(fit.omega_nu - w0) <= 1e-9 * g
    assert fit.gamma_nu == pytest.approx(g, rel=1e-9, abs=0.0)
    assert fit.peak == pytest.approx(peak, rel=1e-9, abs=0.0)


def test_fit_lorentzian_degenerate_inputs():
    with pytest.raises(DomainError):
        fit_lorentzian([(1.0, 1.0), (2.0, 2.0)])
    flat = [(float(w), 5.0) for w in range(10)]
    with pytest.raises(FitError):
        fit_lorentzian(flat)
    negative = [(float(w), -1.0 - w) for w in range(10)]
    with pytest.raises(FitError):
        fit_lorentzian(negative)


@pytest.mark.parametrize("row,col,value", [(3, 1, math.nan), (0, 0, math.inf), (9, 1, -math.inf),
                                           (4, 0, math.nan)])
def test_fit_lorentzian_rejects_non_finite_samples_by_name(row, col, value):
    # one NaN value once ended in a bare ValueError from an empty reduction
    samples = [[1.0e15 + (i - 4.5) * 1.0e11, 1.0 / (1.0 + (i - 4.5) ** 2)] for i in range(10)]
    samples[row][col] = value
    with pytest.raises(DomainError, match="samples="):
        fit_lorentzian(samples)


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
