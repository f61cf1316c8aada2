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
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from .constants import HBAR
from .errors import DomainError, QuadratureError


class CouplingScenario(Protocol):
    """Geometry hook the force operations differentiate through.

    detuning [rad/s], the two positions [m], a length_scale [m] used to
    floor finite-difference steps, and rabi(r_a, r_b) -> Omega_R [rad/s]
    as a pure function of trial positions.
    """

    detuning: float
    position_a: tuple[float, float, float]
    position_b: tuple[float, float, float]
    length_scale: float

    def rabi(self, r_a, r_b) -> float: ...


@dataclass(frozen=True)
class DressedSystem:
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
        _require_nonnegative_rabi(self.omega_r)
        ref = np.hypot(self.omega_r, self.detuning)
        if not np.all(np.abs(self.omega - ref) <= 1e-9 * np.maximum(np.abs(self.omega), ref)):
            raise DomainError("Omega must equal hypot(Omega_R, Delta)")


@dataclass(frozen=True)
class SuperpositionAngle:
    """Mixing angle of cos(theta)|u1> + sin(theta)|u2>, theta in [0, pi)."""

    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta < math.pi):
            raise DomainError(f"superposition angle must lie in [0, pi), got {self.theta}")


def _theta_value(theta):
    """The angle of a SuperpositionAngle, or theta as a scalar or an array
    of angles."""
    return theta.theta if isinstance(theta, SuperpositionAngle) else np.asarray(theta, dtype=float)


def rabi_frequency(mode_norm: float, gamma_nu: float) -> float:
    """Omega_R = sqrt(gamma_nu pi N) [rad/s]."""
    if mode_norm < 0.0:
        raise DomainError(f"collective norm must be >= 0, got {mode_norm}")
    if not gamma_nu > 0.0:
        raise DomainError(f"mode width must be positive, got {gamma_nu}")
    return math.sqrt(gamma_nu * math.pi * mode_norm)


def hamiltonian_matrix(sys: DressedSystem) -> np.ndarray:
    """[[0, Omega_R/2], [Omega_R/2, Delta]] in rad/s."""
    half = sys.omega_r / 2.0
    return np.array([[0.0, half], [half, sys.detuning]])


def _require_nonnegative_rabi(omega_r) -> None:
    low = np.asarray(omega_r).min()
    if low < 0.0:
        raise DomainError(f"vacuum Rabi frequency must be >= 0, got {low}")


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
    _require_nonnegative_rabi(omega_r)
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


def dressed_coefficients(theta_c: float) -> np.ndarray:
    """Rows are the |+> and |-> expansions in the (|u1>, |u2>) basis."""
    c, s = math.cos(theta_c), math.sin(theta_c)
    return np.array([[c, s], [-s, c]])


def potential_pm(omega):
    """(U+, U-) = (+hbar Omega/2, -hbar Omega/2) [J]."""
    low = np.asarray(omega).min()
    if low < 0.0:
        raise DomainError(f"generalized Rabi frequency must be >= 0, got {low}")
    u = HBAR * omega / 2.0
    return (u, -u)


def potential_theta(theta, sys: DressedSystem):
    """(hbar Omega / 2) cos(2 (theta - theta_c)) [J]."""
    th = _theta_value(theta)
    return HBAR * sys.omega / 2.0 * np.cos(2.0 * (th - sys.theta_c))


@dataclass(frozen=True)
class StepControl:
    """Finite-difference step policy: h = max(rel_step |z|, abs_step_scale d)
    per component, one Richardson level, and a relative error tolerance."""

    rel_step: float = 1e-6
    abs_step_scale: float = 1e-9
    rel_tolerance: float = 1e-4

    def __post_init__(self):
        if not (self.rel_step > 0.0 and self.abs_step_scale > 0.0):
            raise DomainError("finite-difference steps must be positive")
        if not self.rel_tolerance > 0.0:
            raise DomainError("error tolerance must be positive")


class Gradient(NamedTuple):
    value: np.ndarray
    error: float


def _pick_atom(scenario: CouplingScenario, atom: str):
    if atom not in ("A", "B"):
        raise DomainError(f"atom selector must be 'A' or 'B', got {atom!r}")
    return np.asarray(scenario.position_a if atom == "A" else scenario.position_b, dtype=float)


def grad_rabi(
    scenario: CouplingScenario,
    atom: str = "A",
    step: StepControl | None = None,
) -> Gradient:
    """Central-difference gradient of Omega_R with respect to one atom's
    position, refined by one Richardson level [rad/s per m].

    The error estimate is the maximum componentwise difference between the
    refined and the half-step values; it blows up at mode nodes where the
    square-root Rabi frequency has a kink, and a QuadratureError reports it.
    """
    step = step or StepControl()
    base = _pick_atom(scenario, atom)
    other = np.asarray(scenario.position_b if atom == "A" else scenario.position_a, dtype=float)

    def omega_r_at(p):
        if atom == "A":
            return scenario.rabi(p, other)
        return scenario.rabi(other, p)

    refined = np.zeros(3)
    err = 0.0
    for i in range(3):
        h = max(step.rel_step * abs(base[i]), step.abs_step_scale * scenario.length_scale)

        def central(hh):
            up = base.copy()
            dn = base.copy()
            up[i] += hh
            dn[i] -= hh
            return (omega_r_at(up) - omega_r_at(dn)) / (2.0 * hh)

        d1 = central(h)
        d2 = central(h / 2.0)
        refined[i] = (4.0 * d2 - d1) / 3.0
        err = max(err, abs(refined[i] - d2))

    scale = float(np.linalg.norm(refined))
    ref = scale + abs(omega_r_at(base)) / scenario.length_scale + 1e-300
    if err > step.rel_tolerance * ref:
        raise QuadratureError(
            f"gradient error estimate {err:.3e} exceeds {step.rel_tolerance:.1e} "
            f"of the reference scale {ref:.3e} (kink or noise at the evaluation point)",
            achieved=err,
            target=step.rel_tolerance * ref,
            value=tuple(refined),
        )
    return Gradient(refined, err)


def force_eigenstate(
    scenario: CouplingScenario,
    sign: int,
    atom: str = "A",
    step: StepControl | None = None,
) -> np.ndarray:
    """Force on the chosen atom in the |+/-> eigenstate:
    -+ (hbar/2) sin(2 theta_c) grad Omega_R [N]."""
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    omega_r = scenario.rabi(scenario.position_a, scenario.position_b)
    theta_c = coupling_angle(omega_r, scenario.detuning)
    grad = grad_rabi(scenario, atom, step)
    return -sign * (HBAR / 2.0) * math.sin(2.0 * theta_c) * grad.value


def theta_force(theta, grad_omega_r, omega_r=None, detuning=None, variant: str = "corrected"):
    """Superposition force from a gradient of Omega_R [N]; theta, the
    gradient, Omega_R and Delta may be arrays that broadcast together.

    corrected: -(hbar/2) sin(2 theta) grad Omega_R, the -grad U_theta form.
    as-printed: the same scaled by 1/sin(2 theta_c(Omega_R, Delta)); requires
    Omega_R > 0.
    """
    th = _theta_value(theta)
    base = -(HBAR / 2.0) * np.sin(2.0 * th) * grad_omega_r
    if variant == "corrected":
        return base
    if variant == "as-printed":
        if np.any(np.asarray(omega_r) == 0.0):
            raise DomainError(
                "as-printed superposition force is singular at sin(2 theta_c) = 0 "
                "(uncoupled point, Omega_R = 0)"
            )
        return base / np.sin(2.0 * coupling_angle(omega_r, detuning))
    raise DomainError(f"unknown variant {variant!r}; use 'corrected' or 'as-printed'")


def force_theta(
    scenario: CouplingScenario,
    theta,
    atom: str = "A",
    variant: str = "corrected",
    step: StepControl | None = None,
) -> np.ndarray:
    """Force on the chosen atom in the prescribed superposition [N], with the
    finite-difference gradient of grad_rabi; see theta_force for the
    variants."""
    grad = grad_rabi(scenario, atom, step)
    omega_r = None
    if variant == "as-printed":
        omega_r = scenario.rabi(scenario.position_a, scenario.position_b)
    return theta_force(theta, grad.value, omega_r, scenario.detuning, variant)
