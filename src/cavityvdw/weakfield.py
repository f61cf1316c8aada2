"""Perturbative (weak-coupling) resonant potentials: the Green's-tensor
contraction route, its free-space closed form, and the narrow-mode limits
that the dressed-state ladder must reproduce far from resonance.

Conventions: the excited-state resonant potential splits into two
single-atom terms weighted -1/2 and an interaction term weighted -1, each a
contraction -mu0 omega10^2 d . Re G . d. In free space the coincident Re G
diverges (it renormalizes into the bare transition frequency), so providers
advertise through ComplexDyad.real_status whether a finite real part exists;
absent that, the single-atom terms are None rather than
faked. Principal-value transforms follow the Hilbert normalization
(1/pi) P Int f(w)/(w - omega) dw, so the far-detuned image of a unit-peak
Lorentzian is gamma/(2 (omega_nu - omega)); the kk_real_from_imag quadrature
returns the bare integral, larger by pi.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .constants import EPS0, HBAR, MU0
from .errors import DomainError, require
from .greens import ComplexDyad, QuadratureControl, SpectralFunction, kk_real_from_imag
from .modecoupling import AtomSpec, ModeModel, lorentzian_profile
from .record import Record

_REAL_OK = ("full", "scattering-only")

# half-width of the principal-value support window, in mode widths
KK_WINDOW_WIDTHS = 5.0e4


class ResonantPotentialBreakdown(Record):
    """Terms of the resonant potential [J]. single_a/single_b are None when
    the provider cannot supply a finite coincident Re G (free space); total
    always sums exactly the terms that are present."""

    single_a: float | None
    single_b: float | None
    interaction: float
    total: float

    def __post_init__(self):
        for name in self._fields:
            if getattr(self, name) is not None:
                require("resonant potential term", name, getattr(self, name))


def _re_contraction(dyad: ComplexDyad, d1, d2) -> float | None:
    if dyad.real_status not in _REAL_OK:
        return None
    return float(np.asarray(d1, dtype=float) @ dyad.real_part @ np.asarray(d2, dtype=float))


def resonant_potential(a: AtomSpec, b: AtomSpec, greens) -> ResonantPotentialBreakdown:
    """Resonant excited-state potential of two shared-excitation atoms in
    the environment described by the Green's provider."""
    if a.omega10 != b.omega10:
        raise DomainError(
            f"resonant potential requires identical atoms; "
            f"omega10 differs: {a.omega10} vs {b.omega10}"
        )
    w = a.omega10
    pref = MU0 * w**2
    cross = _re_contraction(greens.tensor(a.position, b.position, w), a.dipole, b.dipole)
    if cross is None:
        raise DomainError("provider has no real part at distinct points; cannot proceed")
    interaction = -pref * cross
    sa = _re_contraction(greens.tensor(a.position, a.position, w), a.dipole, a.dipole)
    sb = _re_contraction(greens.tensor(b.position, b.position, w), b.dipole, b.dipole)
    single_a = None if sa is None else -0.5 * pref * sa
    single_b = None if sb is None else -0.5 * pref * sb
    total = interaction
    if single_a is not None:
        total += single_a
    if single_b is not None:
        total += single_b
    return ResonantPotentialBreakdown(single_a, single_b, interaction, total)


def free_space_resonant_potential(d_a, d_b, k, r):
    """Closed-form free-space interaction term [J]:

        -(1/4 pi eps0) d_Aa d_Bb [ (delta_ab - e_a e_b) k^2 cos(kr)/r
            - (delta_ab - 3 e_a e_b) (k sin(kr)/r^2 + cos(kr)/r^3) ].

    The 1/(4 pi eps0) makes the bracket's Gaussian-structure SI-correct; it
    is exactly -mu0 omega^2 d_A . Re G_free . d_B. r is one displacement
    (3,) or a stack (..., 3); the dipoles (3,) or (..., 3) and k broadcast
    against it. One displacement gives a float, a stack an array of shape
    r.shape[:-1].
    """
    k = require("wavenumber", "k", np.asarray(k, dtype=float), "positive")
    rv = require("displacement", "r", np.asarray(r, dtype=float))
    rmag = np.linalg.norm(rv, axis=-1)
    if np.any(rmag == 0.0):
        raise DomainError("free-space resonant potential diverges at zero separation")
    e = rv / rmag[..., None]
    da = require("dipole", "d_a", np.asarray(d_a, dtype=float))
    db = require("dipole", "d_b", np.asarray(d_b, dtype=float))
    dd = np.sum(da * db, axis=-1)
    ee = np.sum(da * e, axis=-1) * np.sum(db * e, axis=-1)
    x = k * rmag
    trans = (dd - ee) * (k**2 * np.cos(x) / rmag)
    near = (dd - 3.0 * ee) * (k * np.sin(x) / rmag**2 + np.cos(x) / rmag**3)
    u = -(1.0 / (4.0 * math.pi * EPS0)) * (trans - near)
    return float(u) if rv.ndim == 1 else u


def _require_off_resonance(detuning) -> None:
    """Delta, scalar or array, finite and nonzero."""
    if np.any(require("detuning", "detuning", detuning) == 0.0):
        raise DomainError("weak-coupling limit is undefined on resonance (Delta = 0)")


def weak_limit_potentials(gamma_nu: float, mode_norm: float, detuning):
    """(U+, U-) = (+, -) hbar gamma_nu pi N / (4 Delta) [J]; Delta scalar or
    array."""
    require("mode width", "gamma_nu", gamma_nu, "positive")
    require("collective norm", "mode_norm", mode_norm, "nonnegative")
    _require_off_resonance(detuning)
    u = HBAR * gamma_nu * math.pi * mode_norm / (4.0 * detuning)
    return (u, -u)


def weak_theta_potential(theta, omega_r: float, detuning: float) -> float:
    """-(hbar / 4 Delta) cos(2 theta) Omega_R^2 [J]."""
    require("superposition angle", "theta", theta)
    require("vacuum Rabi frequency", "omega_r", omega_r)
    _require_off_resonance(detuning)
    return -(HBAR / (4.0 * detuning)) * math.cos(2.0 * theta) * omega_r**2


def weak_theta_force(theta, omega_r: float, grad_omega_r, detuning: float) -> np.ndarray:
    """+(hbar / 2 Delta) cos(2 theta) Omega_R grad Omega_R [N]."""
    require("superposition angle", "theta", theta)
    require("vacuum Rabi frequency", "omega_r", omega_r)
    g = require("gradient", "grad_omega_r", np.asarray(grad_omega_r, dtype=float))
    _require_off_resonance(detuning)
    return (HBAR / (2.0 * detuning)) * math.cos(2.0 * theta) * omega_r * g


def narrow_mode_real_contraction(
    g2_peak: float, gamma_nu: float, omega_nu: float, omega: float
) -> float:
    """Far-detuned Hilbert image of a Lorentzian squared coupling [rad/s]:
    gamma_nu g2_peak / (2 (omega_nu - omega)). Callers must stay at least
    100 mode widths away from the line center."""
    require("peak coupling", "g2_peak", g2_peak)
    require("mode width", "gamma_nu", gamma_nu, "positive")
    require("mode frequency", "omega_nu", omega_nu)
    require("angular frequency", "omega", omega)
    ratio = abs(omega - omega_nu) / gamma_nu
    if ratio < 100.0:
        raise DomainError(
            f"asymptotic contraction needs |omega - omega_nu| >= 100 gamma_nu; "
            f"got {ratio:.3g} widths"
        )
    return gamma_nu * g2_peak / (2.0 * (omega_nu - omega))


def lorentzian_spectral_function(g2_peak: float, omega_nu: float, gamma_nu: float) -> SpectralFunction:
    """The Lorentzian profile as input to kk_real_from_imag: support
    omega_nu +- KK_WINDOW_WIDTHS gamma_nu, hints at the peak and its
    half-width points."""
    span = KK_WINDOW_WIDTHS * gamma_nu
    return SpectralFunction(
        func=lambda w: lorentzian_profile(g2_peak, omega_nu, gamma_nu, w),
        support=(omega_nu - span, omega_nu + span),
        hint_points=(omega_nu - gamma_nu, omega_nu, omega_nu + gamma_nu),
    )


class NarrowModeGreens:
    """Green's provider for a single narrow mode described by a ModeModel.

    The imaginary part of each contraction is the Lorentzian profile of the
    stored peak couplings; the real part is its Hilbert image, either in
    closed form (exact transform of the Lorentzian, valid at any detuning)
    or through the principal-value quadrature (real_route="kk-numeric").
    Tensors are returned identity-proportional, so only parallel-dipole
    contractions are meaningful; positions must match one of the two atoms.
    """

    def __init__(
        self,
        mode: ModeModel,
        atom_a: AtomSpec,
        atom_b: AtomSpec,
        real_route: Literal["closed-form", "kk-numeric"] = "closed-form",
        control: QuadratureControl | None = None,
    ):
        if real_route not in ("closed-form", "kk-numeric"):
            raise DomainError(f"unknown real_route {real_route!r}")
        self.mode = mode
        self.atom_a = atom_a
        self.atom_b = atom_b
        self.real_route = real_route
        self.control = control or QuadratureControl()

    def _identify(self, pos) -> str:
        p = np.asarray(pos, dtype=float)
        for label, atom in (("A", self.atom_a), ("B", self.atom_b)):
            if np.max(np.abs(p - np.asarray(atom.position))) <= 1e-12 * (
                1.0 + float(np.max(np.abs(atom.position)))
            ):
                return label
        raise DomainError(f"position {pos} matches neither stored atom")

    def _pair(self, r1, r2) -> tuple[float, float]:
        key = frozenset((self._identify(r1), self._identify(r2)))
        if key == {"A"}:
            return self.mode.g2_aa, self.atom_a.dipole_norm**2
        if key == {"B"}:
            return self.mode.g2_bb, self.atom_b.dipole_norm**2
        return self.mode.g2_ab, self.atom_a.dipole_norm * self.atom_b.dipole_norm

    def _re_g2(self, g2_peak: float, omega: float) -> float:
        m = self.mode
        if self.real_route == "closed-form":
            dw = m.omega_nu - omega
            return g2_peak * (m.gamma_nu / 2.0) * dw / (dw**2 + m.gamma_nu**2 / 4.0)
        sf = lorentzian_spectral_function(g2_peak, m.omega_nu, m.gamma_nu)
        return kk_real_from_imag(sf, omega, self.control) / math.pi

    def tensor(self, r1, r2, omega: float) -> ComplexDyad:
        require("angular frequency", "omega", omega, "positive")
        g2_peak, dnorm2 = self._pair(require("position", "r1", r1), require("position", "r2", r2))
        m = self.mode
        scale = HBAR * math.pi / (MU0 * omega**2 * dnorm2)
        im_entry = scale * lorentzian_profile(g2_peak, m.omega_nu, m.gamma_nu, omega)
        re_entry = scale * self._re_g2(g2_peak, omega)
        coincident = bool(np.all(np.asarray(r1, float) == np.asarray(r2, float)))
        status = "scattering-only" if coincident else "full"
        return ComplexDyad(
            matrix=(re_entry + 1j * im_entry) * np.eye(3, dtype=complex),
            real_status=status,
        )
