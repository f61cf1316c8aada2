"""Two-state atom-field diagonalization: dressed energies, coupling angle,
superposition potentials, and the forces they exert on either atom.

The two coupled states are |u1> (shared atomic excitation) and |u2> (field
excitation); in that basis the Hamiltonian is [[0, Omega_R/2],
[Omega_R/2, Delta]] in rad/s, with Delta = omega_nu - omega10. The coupling
angle theta_c is computed as atan2(Delta + Omega, Omega_R), the numerically
stable branch that is continuous through Delta = 0 (where it equals pi/4)
and satisfies sin(2 theta_c) = Omega_R/Omega, cos(2 theta_c) = -Delta/Omega.

Forces are taken with the superposition angle theta held fixed: the state is
prescribed, it does not follow theta_c(r) adiabatically. Under that reading
the superposition force is exactly -grad U_theta, which reduces to
-(hbar/2) sin(2 theta) grad Omega_R once the gradient identities for Omega
and theta_c are substituted. The historical variant carrying an extra
1/sin(2 theta_c) is kept behind variant="as-printed" for comparison runs.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .constants import HBAR
from .errors import DomainError, QuadratureError, require
from .record import Record


class DressedSystem(Record):
    """Derived quantities of (Omega_R, Delta): generalized Rabi frequency
    Omega, coupling angle theta_c, eigenenergies [J]. Fields are scalars,
    or arrays of one shape for a whole sweep."""

    omega_r: float | np.ndarray
    detuning: float | np.ndarray
    omega: float | np.ndarray
    theta_c: float | np.ndarray
    e_plus: float | np.ndarray
    e_minus: float | np.ndarray

    @classmethod
    def from_coupling(cls, omega_r, detuning) -> "DressedSystem":
        theta_c = coupling_angle(omega_r, detuning)
        e_plus, e_minus = eigenenergies(omega_r, detuning)
        return cls(omega_r, detuning, np.hypot(omega_r, detuning), theta_c, e_plus, e_minus)

    def __post_init__(self):
        require("vacuum Rabi frequency", "omega_r", self.omega_r, "nonnegative")
        require("detuning", "detuning", self.detuning)
        require("generalized Rabi frequency", "omega", self.omega, "nonnegative")
        require("coupling angle", "theta_c", self.theta_c)
        require("dressed energy", "e_plus", self.e_plus)
        require("dressed energy", "e_minus", self.e_minus)
        ref = np.hypot(self.omega_r, self.detuning)
        if not np.all(np.abs(self.omega - ref) <= 1e-9 * np.maximum(np.abs(self.omega), ref)):
            raise DomainError("Omega must equal hypot(Omega_R, Delta)")


def rabi_frequency(mode_norm: float, gamma_nu: float) -> float:
    """Omega_R = sqrt(gamma_nu pi N) [rad/s]."""
    require("collective norm", "mode_norm", mode_norm, "nonnegative")
    require("mode width", "gamma_nu", gamma_nu, "positive")
    return math.sqrt(gamma_nu * math.pi * mode_norm)


def eigenenergies(omega_r, detuning):
    """(E+, E-) = hbar (Delta + Omega)/2, hbar (Delta - Omega)/2 [J];
    E+ >= E-, both (0, 0) at Omega_R = Delta = 0."""
    # Delta - Omega cancels for Delta >> Omega_R, Delta + Omega for Delta << -Omega_R
    plus, minus = _omega_plus_minus_detuning(omega_r, detuning)
    return (HBAR * plus / 2.0, -HBAR * minus / 2.0)


def _omega_plus_minus_detuning(omega_r, detuning):
    """(Omega + Delta, Omega - Delta) without cancellation: the larger of the
    two is Omega + |Delta| and their product is Omega_R^2, so the smaller is
    Omega_R^2 over the larger; both are sums of nonnegative terms, and both
    are 0 at Omega_R = Delta = 0."""
    require("vacuum Rabi frequency", "omega_r", omega_r, "nonnegative")
    require("detuning", "detuning", detuning)
    larger = np.hypot(omega_r, detuning) + np.abs(detuning)
    smaller = omega_r**2 / np.where(larger == 0.0, 1.0, larger)
    above = np.asarray(detuning) >= 0.0
    return np.where(above, larger, smaller), np.where(above, smaller, larger)


def coupling_angle(omega_r, detuning):
    """theta_c = atan2(Delta + Omega, Omega_R); pi/4 at Delta = 0, tending to
    pi/2 for Delta -> +inf and 0 for Delta -> -inf."""
    # Delta + Omega cancels catastrophically for Delta << -Omega_R
    if np.any(np.hypot(omega_r, detuning) == 0.0):
        raise DomainError("coupling angle is degenerate at Omega_R = Delta = 0")
    plus, _ = _omega_plus_minus_detuning(omega_r, detuning)
    return np.arctan2(plus, omega_r)


def strong_coupling_potentials(omega_r, detuning):
    """Dressed ladder (U+, U-) = (+hbar (Omega - Delta) / 2, -hbar (Omega - Delta) / 2)
    [J], the strong-coupling counterpart of the far-detuned weak limit; exact
    for either sign of Delta, including Delta >> Omega_R where Omega - Delta
    would cancel."""
    _, minus = _omega_plus_minus_detuning(omega_r, detuning)
    u = HBAR * minus / 2.0
    return (u, -u)


def potential_pm(omega):
    """(U+, U-) = (+hbar Omega/2, -hbar Omega/2) [J]."""
    require("generalized Rabi frequency", "omega", omega, "nonnegative")
    u = HBAR * omega / 2.0
    return (u, -u)


def potential_theta(theta, sys: DressedSystem):
    """(hbar Omega / 2) cos(2 (theta - theta_c)) [J]."""
    th = require("superposition angle", "theta", theta)
    return HBAR * sys.omega / 2.0 * np.cos(2.0 * (th - sys.theta_c))


# finite-difference step as a fraction of the scenario length scale, on
# every axis: one Richardson level leaves a relative truncation error
# ~(k h)^4 / 480 and a rounding error ~eps / (k h), both below 1e-11 for
# mode wavenumbers pi / d <= k <= 10 pi / d
FD_STEP = 1e-4
# a half-step error estimate above this fraction of the reference scale
# means a kink or noise inside the stencil
KINK_TOLERANCE = 1e-4
_STENCIL = np.array([1.0, -1.0, 0.5, -0.5])


def richardson_slope(f, h):
    """Central-difference slope of f at 0 refined by one Richardson level,
    and its error estimate |refined - half-step slope|.

    f takes the offsets h (1, -1, 1/2, -1/2) as one array and returns its
    values stacked on axis 0; further axes carry independent slopes.
    """
    u = np.asarray(f(h * _STENCIL))
    half = (u[2] - u[3]) / h
    slope = (4.0 * half - (u[0] - u[1]) / (2.0 * h)) / 3.0
    return slope, np.abs(slope - half)


class Gradient(namedtuple("Gradient", ("value", "error"))):
    """grad_rabi's result: the gradient (ndarray, one slope per axis) [rad/s
    per m] and its largest per-axis error estimate (float)."""

    __slots__ = ()


def _pick_atom(scenario, atom: str):
    if atom not in ("A", "B"):
        raise DomainError(f"atom selector must be 'A' or 'B', got {atom!r}")
    return np.asarray(scenario.position_a if atom == "A" else scenario.position_b, dtype=float)


def grad_rabi(scenario, atom: str = "A") -> Gradient:
    """Gradient of Omega_R with respect to one atom's position by
    richardson_slope on each axis, step FD_STEP x length_scale [rad/s per m].

    The scenario is any object with detuning [rad/s], position_a and
    position_b [m], length_scale [m] and rabi(r_a, r_b) -> Omega_R [rad/s],
    a pure function of trial positions; force_theta reads the same.

    The error estimate is the largest of the axes' estimates; it blows up
    where Omega_R has a kink inside the stencil, and a QuadratureError
    reports it.
    """
    base = _pick_atom(scenario, atom)
    other = np.asarray(scenario.position_b if atom == "A" else scenario.position_a, dtype=float)

    def omega_r_at(p):
        if atom == "A":
            return scenario.rabi(p, other)
        return scenario.rabi(other, p)

    h = FD_STEP * scenario.length_scale
    slopes = [richardson_slope(lambda dz: [omega_r_at(base + t * axis) for t in dz], h)
              for axis in np.eye(3)]
    refined = np.array([slope for slope, _ in slopes])
    err = float(max(e for _, e in slopes))

    scale = float(np.linalg.norm(refined))
    ref = scale + abs(omega_r_at(base)) / scenario.length_scale + 1e-300
    if err > KINK_TOLERANCE * ref:
        raise QuadratureError(
            f"gradient error estimate {err:.3e} exceeds {KINK_TOLERANCE:.1e} "
            f"of the reference scale {ref:.3e} (kink or noise at the evaluation point)",
            achieved=err,
            target=KINK_TOLERANCE * ref,
            value=tuple(refined),
        )
    return Gradient(refined, err)


def theta_force(theta, grad_omega_r, omega_r=None, detuning=None, variant: str = "corrected"):
    """Superposition force from a gradient of Omega_R [N]; theta, the
    gradient, Omega_R and Delta may be arrays that broadcast together.

    corrected: -(hbar/2) sin(2 theta) grad Omega_R, the -grad U_theta form;
    theta = theta_c and theta_c + pi/2 give the |+> and |-> eigenstate forces.
    as-printed: the same scaled by 1/sin(2 theta_c(Omega_R, Delta)) =
    Omega / Omega_R, formed from Omega_R and Delta without theta_c, so it
    keeps full precision for Delta >> Omega_R; requires Omega_R > 0.
    """
    th = require("superposition angle", "theta", theta)
    base = -(HBAR / 2.0) * np.sin(2.0 * th) * require("gradient", "grad_omega_r", grad_omega_r)
    if variant == "corrected":
        return base
    if variant == "as-printed":
        omega_r = require("vacuum Rabi frequency", "omega_r", omega_r, "nonnegative")
        detuning = require("detuning", "detuning", detuning)
        if np.any(np.asarray(omega_r) == 0.0):
            raise DomainError(
                "as-printed superposition force is singular at sin(2 theta_c) = 0 "
                "(uncoupled point, Omega_R = 0)"
            )
        return base / (omega_r / np.hypot(omega_r, detuning))
    raise DomainError(f"unknown variant {variant!r}; use 'corrected' or 'as-printed'")


def force_theta(scenario, theta, atom: str = "A", variant: str = "corrected") -> np.ndarray:
    """Force on the chosen atom in the prescribed superposition [N], with the
    finite-difference gradient of grad_rabi; see theta_force for the
    variants."""
    grad = grad_rabi(scenario, atom)
    omega_r = None
    if variant == "as-printed":
        omega_r = scenario.rabi(scenario.position_a, scenario.position_b)
    return theta_force(theta, grad.value, omega_r, scenario.detuning, variant)
