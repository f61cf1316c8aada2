"""Two atoms on the axis of a planar cavity: the cavity and its derived
rates, the two-level atom, the position-dependent Rabi frequency, its
squared contributions and gradient, and sweep tables.

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
import os
import sys
import warnings
from functools import cached_property

import numpy as np

from .constants import C, EPS0, HBAR
from .errors import DomainError, require
from .record import Record
from .tabular import Table, with_dimless

_EDGE = 1e-6  # interior clamp, fraction of d
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class PlanarCavity(Record):
    """Symmetric planar cavity: plate separation d, reflectivity deviation
    delta (r_p = -r_s = 1 - delta, always derived), mode index nu."""

    d: float
    delta: float
    nu: int = 1

    def __post_init__(self):
        # an infinite d has no modes
        require("plate separation", "d", self.d, "positive")
        # model validity: almost perfectly reflecting plates
        require("reflectivity deviation", "delta", self.delta, (0.0, 0.1))
        if int(require("mode index", "nu", self.nu)) != self.nu or self.nu < 1:
            raise DomainError(f"mode index must be an integer >= 1, got nu={self.nu}")
        object.__setattr__(self, "nu", int(self.nu))

    @property
    def r_s(self) -> float:
        return -(1.0 - self.delta)

    @property
    def r_p(self) -> float:
        return 1.0 - self.delta

    @property
    def omega_nu(self) -> float:
        """Resonance angular frequency nu pi c / d [rad/s]."""
        return self.nu * math.pi * C / self.d

    @property
    def gamma_nu(self) -> float:
        """Mode width 2 c delta / d [rad/s]."""
        return 2.0 * C * self.delta / self.d


class AtomSpec(Record):
    """Two-level atom: position [m], transition angular frequency
    omega10 [rad/s], real dipole vector [C m]."""

    position: tuple[float, float, float]
    omega10: float
    dipole: tuple[float, float, float]

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        dip = np.asarray(self.dipole, dtype=float)
        if pos.shape != (3,) or dip.shape != (3,):
            raise DomainError("position and dipole must be 3-vectors")
        require("atom position", "position", pos)
        require("transition frequency", "omega10", self.omega10, "positive")
        if not float(np.linalg.norm(require("dipole vector", "dipole", dip))) > 0.0:
            raise DomainError(f"dipole vector must be nonzero, got dipole={self.dipole}")
        object.__setattr__(self, "position", tuple(float(v) for v in pos))
        object.__setattr__(self, "dipole", tuple(float(v) for v in dip))

    @property
    def dipole_norm(self) -> float:
        return float(np.linalg.norm(self.dipole))


def free_decay_rate(omega10: float, dipole_norm: float) -> float:
    """Free-space spontaneous decay rate omega^3 |d|^2 / (3 pi eps0 hbar c^3)
    [rad/s]."""
    require("transition frequency", "omega10", omega10, "positive")
    require("dipole norm", "dipole_norm", dipole_norm, "positive")
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
            stacklevel=_caller_stacklevel(),
        )
        return clamped
    return z


def _caller_stacklevel() -> int:
    """warnings.warn's stacklevel, in the function that calls this one, of
    the first frame outside the package: the code that built the scenario,
    however many package frames lie between."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


class PlanarScenario(Record):
    """Coupling scenario for the planar cavity; its detuning, positions and
    rabi are what grad_rabi and force_theta read."""

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

    # the attributes grad_rabi and force_theta read
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
    zs = require("sweep grid", "grid", np.asarray(grid, dtype=float))
    if zs.ndim != 1 or zs.size == 0:
        raise DomainError("sweep grid must be a nonempty 1-d sequence of positions")
    d = scn.cavity.d
    if float(zs.min()) < 0.0 or float(zs.max()) > d:
        raise DomainError(f"grid positions must lie within [0, {d}]")
    zs = np.clip(zs, _EDGE * d, (1.0 - _EDGE) * d)
    z_a = zs if sweep in ("joint", "A") else np.full(zs.size, scn.atom_a.position[2])
    z_b = zs if sweep in ("joint", "B") else np.full(zs.size, scn.atom_b.position[2])
    return z_a, z_b


class RabiBreakdown(Record):
    """Squared Rabi contributions [(rad/s)^2]; total is their sum and is a
    perfect square, hence nonnegative."""

    omega2_a: float
    omega2_b: float
    omega2_ab: float
    omega2_total: float

    def __post_init__(self):
        for name in self._fields:
            require("squared Rabi frequency", name, getattr(self, name),
                    "finite" if name == "omega2_ab" else "nonnegative")
        # the sum cancels exactly at a node s_A = -s_B, so it is compared on
        # the scale of its terms, not of itself
        parts = (self.omega2_a, self.omega2_b, self.omega2_ab)
        if abs(self.omega2_total - sum(parts)) > 1e-12 * sum(map(abs, parts)):
            raise DomainError("omega2_total must equal omega2_a + omega2_b + omega2_ab")


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
    # where s_A = -s_B the sum cancels and may round below zero
    return RabiBreakdown(o_a, o_b, o_ab, max(o_a + o_b + o_ab, 0.0))


def scan_rabi(scn: PlanarScenario, sweep: str, grid) -> Table:
    """Sweep table of the squared Rabi contributions along
    sweep_positions(scn, sweep, grid), in SI and in units of c Gamma0 / d."""
    z_a, z_b = sweep_positions(scn, sweep, grid)
    _require_resonance(scn)
    o_a, o_b, o_ab = rabi_parts(scn, z_a, z_b)
    # where s_A = -s_B the sum cancels and may round below zero
    total = np.maximum(o_a + o_b + o_ab, 0.0)
    cols = {"z_A": z_a, "z_B": z_b, "omega2_A": o_a, "omega2_B": o_b,
            "omega2_AB": o_ab, "omega2_total": total}
    unit = C * scn.gamma0 / scn.cavity.d
    return with_dimless(cols, dict.fromkeys(list(cols)[2:], unit))
