"""Perturbative (weak-coupling) resonant potentials: the Green's-tensor
contraction route, its free-space closed form, and the narrow-mode limits
that the dressed-state ladder must reproduce far from resonance, with the
Lorentzian line profile they rest on.

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
from typing import TYPE_CHECKING

import numpy as np

from .constants import EPS0, HBAR, MU0
from .errors import DomainError, require
from .planarcavity import AtomSpec
from .quadrature import (
    SpectralFunction,
    # not called here; perfbench/tracer.py wraps weakfield.kk_real_from_imag by name
    kk_real_from_imag,  # noqa: F401
)
from .record import Record

if TYPE_CHECKING:
    # an annotation only: the closed-form routes load no Green's tensors
    from .greens import ComplexDyad

_REAL_OK = ("full", "scattering-only")

# half-width of the principal-value support window, in mode widths
KK_WINDOW_WIDTHS = 5.0e4
# least |offset| of the far-detuned contraction, in mode widths
KK_MIN_OFFSET_WIDTHS = 100.0


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


def weak_limit_potentials(gamma_nu: float, mode_norm: float, detuning):
    """(U+, U-) = (+, -) hbar gamma_nu pi N / (4 Delta) [J]; Delta scalar or
    array."""
    require("mode width", "gamma_nu", gamma_nu, "positive")
    require("collective norm", "mode_norm", mode_norm, "nonnegative")
    if np.any(require("detuning", "detuning", detuning) == 0.0):
        raise DomainError("weak-coupling limit is undefined on resonance (Delta = 0)")
    u = HBAR * gamma_nu * math.pi * mode_norm / (4.0 * detuning)
    return (u, -u)


def lorentzian_profile(peak: float, omega_nu: float, gamma_nu: float, omega) -> float:
    """peak * (gamma^2/4) / ((omega - omega_nu)^2 + gamma^2/4)."""
    require("peak value", "peak", peak)
    require("line centre", "omega_nu", omega_nu)
    require("line width", "gamma_nu", gamma_nu, "positive")
    require("angular frequency", "omega", omega)
    quarter = gamma_nu**2 / 4.0
    return peak * quarter / ((np.asarray(omega, dtype=float) - omega_nu) ** 2 + quarter)


def narrow_mode_real_contraction(
    g2_peak: float, gamma_nu: float, omega_nu: float, offset_widths: float
) -> float:
    """Far-detuned Hilbert image of a Lorentzian squared coupling [rad/s] at
    omega = omega_nu + offset_widths gamma_nu: gamma_nu g2_peak / (2
    (omega_nu - omega)). The offset must be at least KK_MIN_OFFSET_WIDTHS
    mode widths; it is checked as given, so an offset of exactly that many is
    accepted whatever the rounding of omega."""
    require("peak coupling", "g2_peak", g2_peak)
    require("mode width", "gamma_nu", gamma_nu, "positive")
    require("mode frequency", "omega_nu", omega_nu)
    require("offset", "offset_widths", offset_widths)
    if abs(offset_widths) < KK_MIN_OFFSET_WIDTHS:
        raise DomainError(f"asymptotic contraction needs |offset_widths| >= "
                          f"{KK_MIN_OFFSET_WIDTHS:g}; got {offset_widths:.3g}")
    omega = omega_nu + offset_widths * gamma_nu
    if omega == omega_nu:
        raise DomainError("offset_widths * gamma_nu is below the resolution of omega_nu")
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
