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
and theta_c are substituted. grad Omega_R is the planar cavity's closed form
(planarcavity.rabi_gradient_a); richardson_slope with step FD_STEP d / nu is
only the independent reference that xcheck and the tests check it against.
The historical variant carrying an extra 1/sin(2 theta_c) is kept behind
variant="as-printed" for comparison runs.
"""

from __future__ import annotations

import numpy as np

from .constants import HBAR
from .errors import DomainError, require
from .planarcavity import rabi_gradient_a
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


# the reference finite difference's step as a fraction of the mode's length
# d / nu, the step of xcheck's force row and of the tests' force references:
# k h = pi FD_STEP at every mode index, so one Richardson level leaves a
# relative truncation error (k h)^4 / 480 ~ 2e-17 and a rounding error
# ~eps / (k h) ~ 7e-13. The positions z + h round to ulp(z), which adds
# ~ulp(z) / h and grows with nu: 3e-9 of the largest gradient at nu = 1000
# in a 1 um cavity
FD_STEP = 1e-4
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


def grad_rabi(scenario, atom: str = "A") -> np.ndarray:
    """Gradient of Omega_R with respect to one atom's position [rad/s per m]:
    the closed form rabi_gradient_a along the cavity axis, 0 across it.
    Omega_R is symmetric in the heights, so atom B's is atom A's with them
    swapped; 0 at the kink s_A + s_B = 0, where no derivative exists."""
    if atom not in ("A", "B"):
        raise DomainError(f"atom selector must be 'A' or 'B', got {atom!r}")
    z_a, z_b = scenario.position_a[2], scenario.position_b[2]
    if atom == "B":
        z_a, z_b = z_b, z_a
    return np.array([0.0, 0.0, rabi_gradient_a(scenario, z_a, z_b)])


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
    """Force on the chosen atom of a PlanarScenario in the prescribed
    superposition [N], with grad_rabi's gradient; see theta_force for the
    variants."""
    grad = grad_rabi(scenario, atom)
    omega_r = None
    if variant == "as-printed":
        omega_r = scenario.rabi(scenario.position_a, scenario.position_b)
    return theta_force(theta, grad, omega_r, scenario.detuning, variant)
