"""Single-mode coupling model: squared atom-field couplings contracted from
Green's tensors, the Lorentzian line profile, parameter fits, and the
two-atom normalization and overlap factors.

Squared couplings are the primitive quantity throughout. The printed
single-atom coupling is a square root whose cross term can be negative
(atoms in opposite-sign regions of the mode), so g2_ab is stored signed
and square roots are taken only where a diagonal value is needed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

import numpy as np

from .constants import HBAR, MU0
from .errors import DomainError, FitError
from .record import Record

# slack for the Cauchy-Schwarz invariant: couplings produced by quadrature
# carry ~1e-12 relative noise which must not reject a boundary-saturating
# model (both atoms at the same antinode)
_CS_SLACK = 1.0 + 1e-9


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
        # written so that NaN fails them
        if not np.isfinite(pos).all():
            raise DomainError(f"position must be finite, got position={self.position}")
        if not 0.0 < self.omega10 < math.inf:
            raise DomainError(
                f"transition frequency must be positive and finite, got omega10={self.omega10}"
            )
        if not (np.isfinite(dip).all() and float(np.linalg.norm(dip)) > 0.0):
            raise DomainError(f"dipole vector must be finite and nonzero, got dipole={self.dipole}")
        object.__setattr__(self, "position", tuple(float(v) for v in pos))
        object.__setattr__(self, "dipole", tuple(float(v) for v in dip))

    @property
    def dipole_norm(self) -> float:
        return float(np.linalg.norm(self.dipole))


class ModeModel(Record):
    """Lorentzian mode of frequency omega_nu and width gamma_nu with the
    three squared couplings evaluated at omega_nu [rad/s each]. The cross
    coupling g2_ab is signed."""

    omega_nu: float
    gamma_nu: float
    g2_aa: float
    g2_bb: float
    g2_ab: float

    def __post_init__(self):
        # written so that NaN fails them
        if not 0.0 < self.omega_nu < math.inf:
            raise DomainError(
                f"mode frequency must be positive and finite, got omega_nu={self.omega_nu}"
            )
        if not self.gamma_nu > 0.0:
            raise DomainError(f"mode width must be positive, got {self.gamma_nu}")
        if not self.gamma_nu / self.omega_nu < 1e-2:
            raise DomainError(
                f"single-mode model requires a narrow line, "
                f"gamma/omega = {self.gamma_nu / self.omega_nu:.3g} >= 1e-2"
            )
        # a NaN coupling would pass every check below, and max(-1.0, nan)
        # would make its overlap -1
        for name in ("g2_aa", "g2_bb", "g2_ab"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite, got {name}={getattr(self, name)}")
        if self.g2_aa < 0.0 or self.g2_bb < 0.0:
            raise DomainError(
                f"diagonal couplings must be nonnegative, got {self.g2_aa}, {self.g2_bb}"
            )
        if self.g2_ab**2 > _CS_SLACK * self.g2_aa * self.g2_bb:
            raise DomainError(
                f"cross coupling violates Cauchy-Schwarz: "
                f"g2_ab^2 = {self.g2_ab**2:.6g} > {self.g2_aa * self.g2_bb:.6g}"
            )


def coupling_strength_sq(a1: AtomSpec, a2: AtomSpec, omega: float, greens) -> float:
    """Squared coupling (mu0/hbar pi) omega^2 d1 . Im G(r1, r2, omega) . d2
    [rad/s]; signed for distinct atoms, nonnegative on the diagonal."""
    if not omega > 0.0:
        raise DomainError(f"angular frequency must be positive, got {omega}")
    dyad = greens.tensor(a1.position, a2.position, omega)
    im = dyad.imag_part
    d1 = np.asarray(a1.dipole, dtype=float)
    d2 = np.asarray(a2.dipole, dtype=float)
    return float((MU0 / (HBAR * math.pi)) * omega**2 * (d1 @ im @ d2))


def lorentzian_profile(peak: float, omega_nu: float, gamma_nu: float, omega) -> float:
    """peak * (gamma^2/4) / ((omega - omega_nu)^2 + gamma^2/4)."""
    if not gamma_nu > 0.0:
        raise DomainError(f"line width must be positive, got {gamma_nu}")
    quarter = gamma_nu**2 / 4.0
    return peak * quarter / ((np.asarray(omega, dtype=float) - omega_nu) ** 2 + quarter)


class LorentzianFit(namedtuple("LorentzianFit", ("omega_nu", "gamma_nu", "peak",
                                                 "residual_norm"))):
    """fit_lorentzian's result, all floats: centre [rad/s], full width
    [rad/s], peak value and the norm of the residuals in the samples' units."""

    __slots__ = ()


def fit_lorentzian(samples: Sequence[tuple[float, float]]) -> LorentzianFit:
    """Least-squares fit of (omega_nu, gamma_nu, peak) to (omega, value)
    samples, initialized at the sample maximum. The fit runs in units of the
    initial guesses, on sample offsets from the seed centre, so the three
    parameters are comparably scaled."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 5:
        raise DomainError(
            f"need at least 5 (omega, value) samples spanning the peak, got shape {arr.shape}"
        )
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise DomainError(
            f"samples must be finite, got {int(np.count_nonzero(~finite))} non-finite "
            f"(omega, value) rows in samples=, the first {arr[~finite][0].tolist()}"
        )
    w = arr[:, 0]
    y = arr[:, 1]
    spread = float(y.max() - y.min())
    scale = max(abs(float(y.max())), abs(float(y.min())), 1.0)
    if spread <= 1e-12 * scale:
        raise FitError(
            "samples are constant; no peak to fit",
            diagnostics={"spread": spread, "scale": scale},
        )
    i0 = int(np.argmax(y))
    peak0 = float(y[i0])
    w0 = float(w[i0])
    if peak0 <= 0.0:
        raise FitError(
            "sample maximum is not positive; cannot seed a Lorentzian",
            diagnostics={"peak0": peak0, "omega0": w0},
        )
    # width seed: distance to the half-maximum crossing, falling back to the
    # sample spacing when the peak is unresolved
    above = w[y >= peak0 / 2.0]
    g0 = float(above.max() - above.min())
    if g0 <= 0.0:
        g0 = float(np.median(np.abs(np.diff(np.sort(w))))) or 1.0

    # the samples in units of the seeds, taken once: the centre parameter then
    # moves against offsets of order one, not against omega itself, whose ulp
    # can exceed the Jacobian's difference step in the centre
    x = (w - w0) / g0
    t = y / peak0

    def resid(p):
        a, b, c = p
        quarter = b * b / 4.0
        return c * quarter / ((x - a) ** 2 + quarter) - t

    # imported here: no CLI mode fits, and importing scipy costs more than
    # any of them computes
    from scipy.optimize import least_squares

    sol = least_squares(resid, x0=(0.0, 1.0, 1.0), xtol=1e-14, ftol=1e-14, gtol=None)
    if not sol.success:
        raise FitError(
            f"Lorentzian fit did not converge: {sol.message}",
            diagnostics={"status": sol.status, "x": tuple(sol.x)},
        )
    om_fit = w0 + sol.x[0] * g0
    gam_fit = sol.x[1] * g0
    peak_fit = sol.x[2] * peak0
    if gam_fit <= 0.0:
        raise FitError(
            f"fitted width is not positive: {gam_fit}",
            diagnostics={"omega_nu": om_fit, "peak": peak_fit},
        )
    res_norm = float(np.linalg.norm(sol.fun * peak0))
    return LorentzianFit(float(om_fit), float(gam_fit), float(peak_fit), res_norm)


def mode_norm(m: ModeModel) -> float:
    """Collective normalization N = g2_aa + g2_bb + 2 g2_ab [rad/s]; bounded
    below by (sqrt(g2_aa) - sqrt(g2_bb))^2, hence never negative."""
    n = m.g2_aa + m.g2_bb + 2.0 * m.g2_ab
    return max(n, 0.0)


def mode_overlap(m: ModeModel) -> float:
    """Normalized cross coupling g2_ab / sqrt(g2_aa g2_bb) in [-1, 1]."""
    denom = m.g2_aa * m.g2_bb
    if denom == 0.0:
        raise DomainError(
            "overlap undefined: an atom sits at a mode node (zero diagonal coupling)"
        )
    val = m.g2_ab / math.sqrt(denom)
    return min(1.0, max(-1.0, val))
