"""Two atoms on the axis of a planar cavity: derived cavity rates, the
position-dependent Rabi frequency, its squared contributions and gradient,
and sweep tables.

At exact resonance (omega10 = omega_nu) the squared Rabi frequency has the
mode-product closed form

    Omega_total^2 = A^2 (s_A + s_B)^2,  A^2 = 3 c Gamma0 / 2 d,
    s = sin(nu pi z / d),

splitting into single-atom parts A^2 s^2 and the cross part 2 A^2 s_A s_B.
Each formula is implemented once, as a function that takes scalar or array
positions, so a sweep is one array expression over its grid. Dipoles are
transverse to the cavity axis (x by convention); atoms are clamped to
strictly interior positions since the mirror planes are idealized
boundaries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import C, EPS0, HBAR
from .errors import DomainError
from .greens import PlanarCavity
from .modecoupling import AtomSpec
from .tabular import Table, with_dimless

_EDGE = 1e-6  # interior clamp, fraction of d


def free_decay_rate(omega10: float, dipole_norm: float) -> float:
    """Free-space spontaneous decay rate omega^3 |d|^2 / (3 pi eps0 hbar c^3)
    [rad/s]."""
    if not (omega10 > 0.0 and dipole_norm > 0.0):
        raise DomainError(
            f"decay rate needs positive inputs, got omega10={omega10}, |d|={dipole_norm}"
        )
    return omega10**3 * dipole_norm**2 / (3.0 * math.pi * EPS0 * HBAR * C**3)


def _clamp_interior(z: float, d: float, label: str) -> float:
    lo, hi = _EDGE * d, (1.0 - _EDGE) * d
    if z < lo or z > hi:
        if z < 0.0 or z > d:
            raise DomainError(f"{label} = {z} lies outside the cavity [0, {d}]")
        clamped = min(max(z, lo), hi)
        warnings.warn(
            f"{label} = {z:.6g} clamped to the interior value {clamped:.6g} "
            f"(mirror planes are idealized boundaries)",
            stacklevel=3,
        )
        return clamped
    return z


@dataclass(frozen=True)
class PlanarScenario:
    """Concrete coupling scenario for the planar cavity; also satisfies the
    protocol the dressed-state force operations differentiate through."""

    cavity: PlanarCavity
    atom_a: AtomSpec
    atom_b: AtomSpec

    def __post_init__(self):
        cav = self.cavity
        if self.atom_a.omega10 != self.atom_b.omega10:
            raise DomainError(
                f"identical atoms required: omega10 {self.atom_a.omega10} != "
                f"{self.atom_b.omega10}"
            )
        atoms = {}
        for label, atom in (("atom_a", self.atom_a), ("atom_b", self.atom_b)):
            pos = np.asarray(atom.position, dtype=float)
            if pos[0] != 0.0 or pos[1] != 0.0:
                raise DomainError(f"{label} must sit on the cavity axis (x = y = 0)")
            dip = np.asarray(atom.dipole, dtype=float)
            if dip[1] != 0.0 or dip[2] != 0.0:
                raise DomainError(
                    f"{label} dipole must point along x (transverse convention), got {atom.dipole}"
                )
            z = _clamp_interior(float(pos[2]), cav.d, f"{label} z")
            if z != pos[2]:
                atom = AtomSpec(position=(0.0, 0.0, z), omega10=atom.omega10, dipole=atom.dipole)
            atoms[label] = atom
        object.__setattr__(self, "atom_a", atoms["atom_a"])
        object.__setattr__(self, "atom_b", atoms["atom_b"])

    @classmethod
    def resonant(
        cls, cavity: PlanarCavity, z_a: float, z_b: float, dipole_norm: float = 1.0e-29
    ) -> "PlanarScenario":
        """Scenario with omega10 locked to the cavity resonance."""
        w = cavity.omega_nu
        dip = (dipole_norm, 0.0, 0.0)
        return cls(
            cavity=cavity,
            atom_a=AtomSpec(position=(0.0, 0.0, z_a), omega10=w, dipole=dip),
            atom_b=AtomSpec(position=(0.0, 0.0, z_b), omega10=w, dipole=dip),
        )

    # protocol surface used by the dressed module
    @property
    def detuning(self) -> float:
        return self.cavity.omega_nu - self.atom_a.omega10

    @property
    def position_a(self) -> tuple[float, float, float]:
        return self.atom_a.position

    @property
    def position_b(self) -> tuple[float, float, float]:
        return self.atom_b.position

    @property
    def length_scale(self) -> float:
        return self.cavity.d

    @property
    def on_resonance(self) -> bool:
        return abs(self.detuning) <= 1e-9 * self.cavity.omega_nu

    @cached_property
    def gamma0(self) -> float:
        return free_decay_rate(self.atom_a.omega10, self.atom_a.dipole_norm)

    @cached_property
    def amp2(self) -> float:
        """A^2 = 3 c Gamma0 / (2 d), the single-atom Omega_R^2 at an
        antinode [(rad/s)^2]."""
        return 3.0 * C * self.gamma0 / (2.0 * self.cavity.d)

    def mode_value(self, z):
        """s = sin(nu pi z / d); z scalar or array."""
        return np.sin(self.cavity.nu * np.pi * z / self.cavity.d)

    def rabi(self, r_a, r_b) -> float:
        """Omega_R at trial positions [rad/s]; pure, no clamping, so it can
        be finite-differenced."""
        return float(rabi_omega(self, r_a[2], r_b[2]))


def rabi_omega(scn: PlanarScenario, z_a, z_b):
    """Omega_R = A |s_A + s_B| [rad/s] at scalar or array heights."""
    return math.sqrt(scn.amp2) * np.abs(scn.mode_value(z_a) + scn.mode_value(z_b))


def rabi_parts(scn: PlanarScenario, z_a, z_b):
    """Squared contributions (A^2 s_A^2, A^2 s_B^2, 2 A^2 s_A s_B)
    [(rad/s)^2] at scalar or array heights."""
    s_a, s_b = scn.mode_value(z_a), scn.mode_value(z_b)
    return scn.amp2 * s_a**2, scn.amp2 * s_b**2, 2.0 * scn.amp2 * s_a * s_b


def rabi_gradient_a(scn: PlanarScenario, z_a, z_b):
    """Analytic dOmega_R/dz_A = A sign(s_A + s_B) (nu pi / d) cos(nu pi z_A / d)
    [rad/s per m] at scalar or array heights; zero where s_A + s_B = 0, the
    kink of Omega_R, where no derivative exists."""
    cav = scn.cavity
    sign = np.sign(scn.mode_value(z_a) + scn.mode_value(z_b))
    k = cav.nu * math.pi / cav.d
    return math.sqrt(scn.amp2) * sign * k * np.cos(cav.nu * np.pi * z_a / cav.d)


def sweep_positions(scn: PlanarScenario, sweep: str, grid) -> tuple[np.ndarray, np.ndarray]:
    """(z_A, z_B) arrays along a sweep.

    sweep selects what the grid drives: "joint" moves both atoms together
    (z_A = z_B = z), "A" moves atom A with z_B held, "B" moves atom B with
    z_A held. Grid positions must lie within [0, d] and are clamped to the
    interior like the scenario's own positions.
    """
    if sweep not in ("joint", "A", "B"):
        raise DomainError(f"sweep must be 'joint', 'A' or 'B', got {sweep!r}")
    zs = np.asarray(grid, dtype=float)
    if zs.ndim != 1 or zs.size == 0:
        raise DomainError("sweep grid must be a nonempty 1-d sequence of positions")
    d = scn.cavity.d
    if float(zs.min()) < 0.0 or float(zs.max()) > d:
        raise DomainError(f"grid positions must lie within [0, {d}]")
    zs = np.clip(zs, _EDGE * d, (1.0 - _EDGE) * d)
    z_a = zs if sweep in ("joint", "A") else np.full(zs.size, scn.atom_a.position[2])
    z_b = zs if sweep in ("joint", "B") else np.full(zs.size, scn.atom_b.position[2])
    return z_a, z_b


@dataclass(frozen=True)
class RabiBreakdown:
    """Squared Rabi contributions [(rad/s)^2]; total is their exact sum and
    is a perfect square, hence nonnegative."""

    omega2_a: float
    omega2_b: float
    omega2_ab: float
    omega2_total: float

    def __post_init__(self):
        expected = self.omega2_a + self.omega2_b + self.omega2_ab
        if not math.isclose(self.omega2_total, expected, rel_tol=1e-12, abs_tol=1e-30):
            raise DomainError("omega2_total must equal omega2_a + omega2_b + omega2_ab")
        if self.omega2_total < 0.0:
            raise DomainError(f"omega2_total must be >= 0, got {self.omega2_total}")


def _require_resonance(scn: PlanarScenario) -> None:
    if not scn.on_resonance:
        raise DomainError(
            f"scenario is detuned by {scn.detuning:.6g} rad/s; the resonant "
            "closed form needs omega10 = omega_nu. Use the dressed module "
            "with Delta != 0 instead."
        )


def rabi_contributions(scn: PlanarScenario) -> RabiBreakdown:
    """Mode-product squared Rabi contributions at exact resonance."""
    _require_resonance(scn)
    o_a, o_b, o_ab = (float(v) for v in rabi_parts(scn, scn.atom_a.position[2],
                                                     scn.atom_b.position[2]))
    return RabiBreakdown(o_a, o_b, o_ab, o_a + o_b + o_ab)


def scan_rabi(scn: PlanarScenario, sweep: str, grid) -> Table:
    """Sweep table of the squared Rabi contributions along
    sweep_positions(scn, sweep, grid), in SI and in units of c Gamma0 / d."""
    z_a, z_b = sweep_positions(scn, sweep, grid)
    _require_resonance(scn)
    o_a, o_b, o_ab = rabi_parts(scn, z_a, z_b)
    total = o_a + o_b + o_ab
    if np.any(total < 0.0):
        raise DomainError(f"omega2_total must be >= 0, got {float(total.min())}")
    cols = {"z_A": z_a, "z_B": z_b, "omega2_A": o_a, "omega2_B": o_b,
            "omega2_AB": o_ab, "omega2_total": total}
    unit = C * scn.gamma0 / scn.cavity.d
    return with_dimless(cols, dict.fromkeys(list(cols)[2:], unit))
