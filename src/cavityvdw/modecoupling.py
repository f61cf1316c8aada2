"""Single-mode coupling model: squared atom-field couplings contracted from
Green's tensors, the Lorentzian fit of a line, and the two-atom
normalization and overlap factors.

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
from .errors import DomainError, FitError, require
# AtomSpec lives in planarcavity and lorentzian_profile in weakfield;
# modecoupling.AtomSpec and modecoupling.lorentzian_profile still resolve
from .planarcavity import AtomSpec
from .record import Record
from .weakfield import lorentzian_profile  # noqa: F401

# widest fit taken for a peak, in spans of the sample frequencies: the
# tested fits (exact draws, the benchmark's, criterion 8) reach 0.105
_FIT_MAX_SPANS = 10.0

# slack for the Cauchy-Schwarz invariant: couplings produced by quadrature
# carry ~1e-12 relative noise which must not reject a boundary-saturating
# model (both atoms at the same antinode)
_CS_SLACK = 1.0 + 1e-9


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
        require("mode frequency", "omega_nu", self.omega_nu, "positive")
        require("mode width", "gamma_nu", self.gamma_nu, "positive")
        if not self.gamma_nu / self.omega_nu < 1e-2:
            raise DomainError(
                f"single-mode model requires a narrow line, "
                f"gamma/omega = {self.gamma_nu / self.omega_nu:.3g} >= 1e-2"
            )
        require("diagonal coupling", "g2_aa", self.g2_aa, "nonnegative")
        require("diagonal coupling", "g2_bb", self.g2_bb, "nonnegative")
        require("cross coupling", "g2_ab", self.g2_ab)
        if self.g2_ab**2 > _CS_SLACK * self.g2_aa * self.g2_bb:
            raise DomainError(
                f"cross coupling violates Cauchy-Schwarz: "
                f"g2_ab^2 = {self.g2_ab**2:.6g} > {self.g2_aa * self.g2_bb:.6g}"
            )


def coupling_strength_sq(a1: AtomSpec, a2: AtomSpec, omega: float, greens) -> float:
    """Squared coupling (mu0/hbar pi) omega^2 d1 . Im G(r1, r2, omega) . d2
    [rad/s]; signed for distinct atoms, nonnegative on the diagonal."""
    require("angular frequency", "omega", omega, "positive")
    dyad = greens.tensor(a1.position, a2.position, omega)
    im = dyad.imag_part
    d1 = np.asarray(a1.dipole, dtype=float)
    d2 = np.asarray(a2.dipole, dtype=float)
    return float((MU0 / (HBAR * math.pi)) * omega**2 * (d1 @ im @ d2))


class LorentzianFit(namedtuple("LorentzianFit", ("omega_nu", "gamma_nu", "peak",
                                                 "residual_norm"))):
    """fit_lorentzian's result, all floats: centre [rad/s], full width
    [rad/s], peak value and the norm of the residuals in the samples' units."""

    __slots__ = ()


def fit_lorentzian(samples: Sequence[tuple[float, float]]) -> LorentzianFit:
    """Least-squares fit of (omega_nu, gamma_nu, peak) to (omega, value)
    samples by variable projection (Golub and Pereyra, SIAM J. Numer. Anal.
    10, 413 (1973)): the peak is linear, so only centre and width take
    Levenberg-Marquardt steps (Marquardt, J. SIAM 11, 431 (1963)) on the
    exact Jacobian, from the sample maximum and its half-maximum width; see
    _fit_unit_lorentzian. FitError: constant samples, a non-positive
    maximum, a non-positive fitted width or peak, a centre outside the
    sample frequencies or a width above _FIT_MAX_SPANS times their span,
    and steps that stall at a point neither exact nor stationary or do not
    end within 100 steps."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 5:
        raise DomainError(
            f"need at least 5 (omega, value) samples spanning the peak, got shape {arr.shape}"
        )
    w, y = require("(omega, value) sample", "samples", arr).T
    spread = float(y.max() - y.min())
    scale = max(abs(float(y.max())), abs(float(y.min())), 1.0)
    if spread <= 1e-12 * scale:
        raise FitError("samples are constant; no peak to fit",
                       diagnostics={"spread": spread, "scale": scale})
    i0 = int(np.argmax(y))
    peak0, w0 = float(y[i0]), float(w[i0])
    if peak0 <= 0.0:
        raise FitError("sample maximum is not positive; cannot seed a Lorentzian",
                       diagnostics={"peak0": peak0, "omega0": w0})
    # width seed: distance to the half-maximum crossing, falling back to the
    # sample spacing when the peak is unresolved
    above = w[y >= peak0 / 2.0]
    g0 = float(above.max() - above.min())
    if g0 <= 0.0:
        g0 = float(np.median(np.abs(np.diff(np.sort(w))))) or 1.0

    # in units of the seeds, the centre moves against offsets of order one,
    # not against omega itself, whose ulp can exceed a step in the centre
    a, b, c, r = _fit_unit_lorentzian((w - w0) / g0, y / peak0)
    om_fit, gam_fit, peak_fit = w0 + a * g0, abs(b) * g0, c * peak0
    # a projected peak is negative where the samples hold no peak at all
    if not (gam_fit > 0.0 and peak_fit > 0.0):
        raise FitError(f"fitted width and peak must be positive, got {gam_fit} and {peak_fit}",
                       diagnostics={"omega_nu": om_fit, "gamma_nu": gam_fit, "peak": peak_fit})
    # steps that end at a stationary point at infinity run off the samples
    if not (w.min() <= om_fit <= w.max() and gam_fit <= _FIT_MAX_SPANS * np.ptp(w)):
        raise FitError(f"no peak in the samples: the fitted centre {om_fit:.6g} must lie within "
                       f"them and the width {gam_fit:.6g} within {_FIT_MAX_SPANS:g} spans",
                       diagnostics={"omega_nu": om_fit, "gamma_nu": gam_fit, "peak": peak_fit})
    res_norm = float(np.linalg.norm(r * peak0))
    return LorentzianFit(float(om_fit), float(gam_fit), float(peak_fit), res_norm)


def _fit_unit_lorentzian(x, t):
    """(a, b, c, r): the Lorentzian c (b^2/4) / ((x - a)^2 + b^2/4) nearest t
    and its residuals r. At each (a, b), c = (phi . t) / (phi . phi), phi the
    unit-peak profile. From (a, b) = (0, 1) and lam = 1e-3, a step delta
    solves [J; sqrt(lam) diag |J_j|] delta = [-r; 0] (J the exact Jacobian of
    r = c phi - t) and is taken, with lam = max(lam / 10, 1e-12), if it lowers
    |r|, else lam grows 10x. The first with |delta| <= 1e-14 (1e-14 + |(a, b)|)
    ends the steps, at a fit if |r| <= 1e-10 |t| (exact) or every column has
    |J_j . r| <= 1e-6 |r| |J_j| (stationary)."""

    def project(p):
        quarter = p[1] * p[1] / 4.0
        den = (x - p[0]) ** 2 + quarter
        phi = quarter / den
        c = (phi @ t) / (phi @ phi)
        r = c * phi - t
        # phi's derivatives, and through them the projected peak's
        dphi = np.stack((2.0 * (x - p[0]) * phi / den, 0.5 * p[1] * (1.0 - phi) / den), axis=1)
        dc = -(c * (phi @ dphi) + r @ dphi) / (phi @ phi)
        return c, r, c * dphi + phi[:, None] * dc

    p, lam = np.array([0.0, 1.0]), 1e-3
    c, r, jac = project(p)
    for _ in range(100):
        damping = np.diag(math.sqrt(lam) * np.linalg.norm(jac, axis=0))
        delta = np.linalg.lstsq(np.vstack((jac, damping)), np.concatenate((-r, [0.0, 0.0])),
                                rcond=None)[0]
        trial = project(p + delta)
        if np.linalg.norm(trial[1]) < np.linalg.norm(r):
            p, (c, r, jac) = p + delta, trial
            lam = max(lam / 10.0, 1e-12)
        else:
            lam *= 10.0
        ended = np.linalg.norm(delta) <= 1e-14 * (1e-14 + np.linalg.norm(p))
        if ended:
            break
    norm = float(np.linalg.norm(r))
    if not (ended and (norm <= 1e-10 * np.linalg.norm(t) or (
            np.abs(r @ jac) <= 1e-6 * norm * np.linalg.norm(jac, axis=0)).all())):
        raise FitError("Lorentzian fit stalled at a point neither exact nor stationary" if ended
                       else "Lorentzian fit did not end within 100 steps",
                       diagnostics={"x": (*p.tolist(), float(c)), "residual_norm": norm})
    return p[0], p[1], c, r


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
