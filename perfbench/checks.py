"""Output checks, written apart from the program.

Nothing here imports cavityvdw. Every check either recomputes a program
output from its closed form in numpy, or tests a property the method must
have. Checks run outside the timed region and raise CheckError on the first
mismatch, naming the quantity and the size of the miss.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# CODATA 2018, as the program documents them
C = 299792458.0
HBAR = 1.054571817e-34
EPS0 = 8.8541878128e-12
MU0 = 1.25663706212e-6

# the program computes eps0 as 1/(mu0 c^2), 4.35e-14 relative off EPS0; every
# gate on a quantity built from EPS0 sits well above that
EPS = 2.220446049250313e-16

_EDGE = 1e-6  # the program's interior clamp, fraction of d


class CheckError(AssertionError):
    """A program output disagrees with its independent reference."""


class KnownFault(Exception):
    """A program output is wrong in the way a known, seed-independent fault
    makes it wrong; the operation counts as failed, not as incorrect."""


def close(name: str, got, want, tol, scale=None) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape} != expected {want.shape}")
    ref = np.abs(want) if scale is None else np.broadcast_to(np.asarray(scale, float), want.shape)
    miss = np.abs(got - want)
    bad = ~(miss <= tol * ref)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckError(
            f"{name}: row {i} got {got.flat[i]!r}, expected {want.flat[i]!r} "
            f"(tolerance {tol:g} of {ref.flat[i]:.3e})"
        )


def _require(name: str, ok: bool, detail: str = "") -> None:
    if not ok:
        raise CheckError(f"{name}: {detail}")


# ------------------------------------------------------------ table access

def read_table(path: str | Path, fmt: str) -> dict[str, list]:
    """Columns of an exported CSV or JSON-lines table, as lists of strings
    (CSV) or parsed values (JSON lines)."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "csv":
        rows = list(csv.reader(text.splitlines()))
        header, body = rows[0], rows[1:]
        return {c: [r[i] for r in body] for i, c in enumerate(header)}
    recs = [json.loads(line) for line in text.splitlines()]
    return {c: [r[c] for r in recs] for c in recs[0]}


def numeric(cols: dict[str, list]) -> dict[str, np.ndarray]:
    return {c: np.asarray(v, dtype=float) for c, v in cols.items()}


def check_export(path: str | Path, fmt: str, columns, rows: int, first: dict, last: dict) -> None:
    """Exported file has the header, the row count, and the first and last
    rows bit-exactly (17 significant digits round-trip)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if fmt == "csv":
        _require("export", lines[0].split(",") == list(columns), "CSV header mismatch")
        _require("export", len(lines) == rows + 1, f"{len(lines) - 1} data lines, expected {rows}")
        for line, row in ((lines[1], first), (lines[-1], last)):
            vals = [float(v) for v in line.split(",")]
            _require("export", vals == [row[c] for c in columns], "CSV row does not round-trip")
    else:
        _require("export", len(lines) == rows, f"{len(lines)} JSON lines, expected {rows}")
        for line, row in ((lines[0], first), (lines[-1], last)):
            rec = json.loads(line)
            _require("export", list(rec) == list(columns), "JSON keys mismatch")
            _require("export", [rec[c] for c in columns] == [row[c] for c in columns],
                     "JSON row does not round-trip")


# ------------------------------------------------------- planar closed forms

def gamma0(omega10: float, dipole_norm: float) -> float:
    return omega10**3 * dipole_norm**2 / (3.0 * math.pi * EPS0 * HBAR * C**3)


def planar_grid(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """(z_A, z_B) the sweep must visit."""
    d = spec["d"]
    lo, hi = spec["span"]
    zs = np.clip(np.linspace(lo, hi, spec["points"]) * d, _EDGE * d, (1.0 - _EDGE) * d)
    n = zs.size
    z_a = zs if spec["target"] in ("joint", "A") else np.full(n, spec["z_a"])
    z_b = zs if spec["target"] in ("joint", "B") else np.full(n, spec["z_b"])
    return z_a, z_b


def _planar_setup(spec: dict, t: dict):
    d, nu = spec["d"], spec["nu"]
    z_a, z_b = planar_grid(spec)
    close("z_A", t["z_A"], z_a, 1e-15, scale=d)
    close("z_B", t["z_B"], z_b, 1e-15, scale=d)
    g0 = gamma0(spec["omega10"], spec["dipole_norm"])
    amp2 = 3.0 * C * g0 / (2.0 * d)
    s_a = np.sin(nu * math.pi * z_a / d)
    s_b = np.sin(nu * math.pi * z_b / d)
    detuning = nu * math.pi * C / d - spec["omega10"]
    return d, nu, g0, amp2, s_a, s_b, detuning


def check_scan(spec: dict, t: dict) -> None:
    d, _, g0, amp2, s_a, s_b, _ = _planar_setup(spec, t)
    scale = 4.0 * amp2
    close("omega2_total", t["omega2_total"], amp2 * (s_a + s_b) ** 2, 1e-12, scale)
    close("omega2_A", t["omega2_A"], amp2 * s_a**2, 1e-12, scale)
    close("omega2_B", t["omega2_B"], amp2 * s_b**2, 1e-12, scale)
    close("omega2_AB", t["omega2_AB"], 2.0 * amp2 * s_a * s_b, 1e-12, scale)
    unit = C * g0 / d
    for c in ("omega2_A", "omega2_B", "omega2_AB", "omega2_total"):
        close(f"{c}_dimless", t[f"{c}_dimless"] * unit, t[c], 1e-12, scale)


def _theta_c(omega_r, detuning, omega):
    num = detuning + omega if detuning >= 0.0 else omega_r**2 / (omega - detuning)
    return np.arctan2(num, omega_r)


def check_dressed(spec: dict, t: dict) -> None:
    d, _, g0, amp2, s_a, s_b, det = _planar_setup(spec, t)
    amp = math.sqrt(amp2)
    close("omega_r", t["omega_r"], amp * np.abs(s_a + s_b), 1e-12, 2.0 * amp)
    omega = np.hypot(t["omega_r"], det)
    close("omega = hypot(omega_r, Delta)", t["omega"], omega, 4 * EPS)
    close("E+ - E- = hbar omega", t["e_plus"] - t["e_minus"], HBAR * omega, 1e-14)
    close("E+", t["e_plus"], HBAR * (det + omega) / 2.0, 1e-14, HBAR * omega)
    close("theta_c", t["theta_c"], _theta_c(t["omega_r"], det, omega), 1e-14, math.pi)
    w_unit = math.sqrt(C * g0 / d)
    close("omega_r_dimless", t["omega_r_dimless"] * w_unit, t["omega_r"], 1e-12, 2.0 * amp)


def check_potential_planar(spec: dict, t: dict) -> None:
    d, _, g0, amp2, s_a, s_b, det = _planar_setup(spec, t)
    amp = math.sqrt(amp2)
    close("omega_r", t["omega_r"], amp * np.abs(s_a + s_b), 1e-12, 2.0 * amp)
    omega = np.hypot(t["omega_r"], det)
    half = HBAR * omega / 2.0
    close("U+ = hbar omega / 2", t["u_plus"], half, 1e-14)
    close("U- = -U+", t["u_minus"], -t["u_plus"], 0.0)
    th_c = _theta_c(t["omega_r"], det, omega)
    close("U_theta", t["u_theta"], half * np.cos(2.0 * (spec["theta"] - th_c)), 1e-12, half)


def check_force(spec: dict, t: dict) -> None:
    d, nu, _, amp2, s_a, s_b, det = _planar_setup(spec, t)
    amp = math.sqrt(amp2)
    th = spec["theta"]
    z_a = np.asarray(t["z_A"])
    grad = amp * np.sign(s_a + s_b) * (nu * math.pi / d) * np.cos(nu * math.pi * z_a / d)
    want = -(HBAR / 2.0) * math.sin(2.0 * th) * grad
    scale = (HBAR / 2.0) * abs(math.sin(2.0 * th)) * amp * nu * math.pi / d
    away = np.abs(s_a + s_b) > 1e-3  # the kink of |s_A + s_B| sits on the nodes
    _require("force", bool(np.all(away)), "sweep crosses a node; inputs are built to avoid it")
    close("corrected force", t["f_theta_corrected_z"], want, 1e-7, scale)
    omega_r = amp * np.abs(s_a + s_b)
    sin2tc = omega_r / np.hypot(omega_r, det)
    close("as-printed = corrected / sin(2 theta_c)",
          t["f_theta_as_printed_z"] * sin2tc, t["f_theta_corrected_z"], 1e-12, scale)
    sel = "f_theta_corrected_z" if spec["variant"] == "corrected" else "f_theta_as_printed_z"
    close("f_theta_z is the selected variant", t["f_theta_z"], t[sel], 0.0)


def check_weak_limit(spec: dict, t: dict) -> None:
    r = np.asarray(spec["weak_ratios"], dtype=float)
    close("ratio", t["ratio"], r, 0.0)
    close("U+ strong = -U- strong", t["u_plus_strong"], -t["u_minus_strong"], 0.0)
    q = 1.0 / r**2
    # 1 - 2/(1 + sqrt(1 + r^-2)), written without the cancellation
    want = q / (1.0 + np.sqrt(1.0 + q)) ** 2
    for c in ("rel_dev_plus", "rel_dev_minus"):
        miss = np.abs(t[c] - want) / want
        if np.all(miss <= 1e-9):
            continue
        # the program forms Omega - Delta, which loses ~4 eps r^2 of the
        # strong-coupling energy to rounding: at r = 1e4 that is most of it
        if np.all(np.abs(t[c] - want) <= 16.0 * EPS * (1.0 + r**2)):
            i = int(np.argmax(miss))
            raise KnownFault(f"W1: {c} at ratio {r[i]:g} is {t[c][i]:.4g}, exact {want[i]:.4g}")
        close(c, t[c], want, 1e-9)


def lorentzian_pv_window(peak: float, w0: float, gamma: float, omega: float, half: float) -> float:
    """Exact principal value of Int L(w)/(w - omega) dw over [w0 - half,
    w0 + half] for the unit-normalized Lorentzian L of the program."""
    g = gamma / 2.0
    dd = omega - w0
    return peak * g * g / (dd * dd + g * g) * (
        math.log(abs((half - dd) / (half + dd))) - (2.0 * dd / g) * math.atan(half / g)
    )


def check_kk_table(spec: dict, t: dict) -> None:
    nu, d, delta = spec["nu"], spec["d"], spec["delta"]
    w0 = nu * math.pi * C / d
    gam = 2.0 * C * delta / d
    offs = np.asarray(spec["kk_offsets"], dtype=float)
    close("omega", t["omega"], w0 + offs * gam, 1e-15)
    want = np.array([lorentzian_pv_window(1.0, w0, gam, w, 5.0e4 * gam) / math.pi
                     for w in t["omega"]])
    close("kk_numeric_over_pi", t["kk_numeric_over_pi"], want, 1e-7)
    close("closed_form", t["closed_form"], gam / (2.0 * (w0 - t["omega"])), 1e-13)


XCHECK_ROWS = ("free-space-route-equivalence", "force-gradient-corrected",
               "force-as-printed-ratio", "weak-limit-ladder", "kk-asymptote")


def check_xcheck(cols: dict) -> None:
    _require("xcheck", tuple(cols["check"]) == XCHECK_ROWS, f"rows {cols['check']}")
    _require("xcheck", all(s == "pass" for s in cols["status"]), f"status {cols['status']}")


def free_space_interaction(d_a, d_b, omega: float, r) -> float:
    """-mu0 omega^2 d_A . Re G_free(r) . d_B from the dyadic closed form."""
    k = omega / C
    rv = np.asarray(r, dtype=float)
    rn = float(np.linalg.norm(rv))
    e = rv / rn
    x = k * rn
    # Re[e^{ix}(a I + b ee)]/(4 pi r) with a = 1 + (ix - 1)/x^2, b = -1 + (3 - 3ix)/x^2
    a_re = math.cos(x) * (1.0 - 1.0 / x**2) - math.sin(x) / x
    b_re = math.cos(x) * (-1.0 + 3.0 / x**2) + 3.0 * math.sin(x) / x
    re_g = (a_re * np.eye(3) + b_re * np.outer(e, e)) / (4.0 * math.pi * rn)
    return float(-MU0 * omega**2 * (np.asarray(d_a) @ re_g @ np.asarray(d_b)))


def check_free_space_potential(spec: dict, t: dict) -> None:
    a = np.asarray(spec["position_a"], dtype=float)
    b = np.asarray(spec["position_b"], dtype=float)
    sep0 = float(np.linalg.norm(b - a))
    e = (b - a) / sep0
    lo, hi = spec["span"]
    seps = np.linspace(lo, hi, spec["points"]) * sep0
    close("separation", t["separation"], seps, 1e-15)
    dip = spec["dipole_norm"] * np.asarray(spec["orientation"], dtype=float)
    w = spec["omega10"]
    k = w / C
    want = np.array([free_space_interaction(dip, dip, w, s * e) for s in seps])
    # per-row scale: the sum of the magnitudes of the three radial terms
    scale = (MU0 * w**2 * spec["dipole_norm"] ** 2 / (4.0 * math.pi)
             * (1.0 / seps + 3.0 / (k * seps**2) + 4.0 / (k**2 * seps**3)))
    close("u_interaction", t["u_interaction"], want, 1e-11, scale)
    close("u_total (singles omitted in free space)", t["u_total"], t["u_interaction"], 0.0)


# ------------------------------------------------------- cavity tensor oracle

def _free_xx(k, s):
    """Free-space transverse (xx) scalar for on-axis separation s, split as
    e^{iks} (re_coef + i im_coef)."""
    return (1.0 / s - 1.0 / (k * k * s**3)) / (4.0 * math.pi), 1.0 / (4.0 * math.pi * k * s * s)


def _free_zz(k, s):
    """Free-space longitudinal (zz) scalar: e^{iks}(1 - iks)/(2 pi k^2 s^3)."""
    return 1.0 / (2.0 * math.pi * k * k * s**3), -1.0 / (2.0 * math.pi * k * s * s)


def image_series(d: float, delta: float, z: float, zp: float, omega: float,
                 tol: float = 1e-14, chunk: int = 1 << 17) -> tuple[complex, complex]:
    """Scattered (xx, zz) on-axis entries of the symmetric planar cavity
    (r_p = -r_s = 1 - delta) as a resummed series of mirror images.

    Even bounce counts connect the points through displaced source copies,
    odd counts through reflected copies; the s-wave reflection coefficient
    is negative, which flips the sign of the odd xx images. Each family is
    an arithmetic progression s = 2 m d + c, so the common factor
    (r^2 e^{2ikd})^m is computed once per chunk and the phase e^{ikc} is
    pulled out of the sum.
    """
    k = omega / C
    r = 1.0 - delta
    nmax = max(8, int(math.log(1.0 / tol) / (2.0 * delta)) + 2)
    dz = z - zp
    # (offset c, first m, weight beside r^{2m}, xx sign, zz sign); the last
    # family is 2(n+1)d - z - zp with weight r^{2n+1}, written with m = n+1
    families = (
        (dz, 1, 1.0, 1.0, 1.0),
        (-dz, 1, 1.0, 1.0, 1.0),
        (z + zp, 0, r, -1.0, 1.0),
        (-z - zp, 1, 1.0 / r, -1.0, 1.0),
    )
    log_q = 2.0 * math.log(r) + 2j * k * d
    # in terms of u = 1/s: xx = e^{iks}[(u - u^3/k^2) + i u^2/k]/(4 pi),
    # zz = e^{iks}[u^3/k^2 - i u^2/k]/(2 pi); only three dot products per
    # family are needed, with the real and imaginary parts of q^m
    xx = 0.0 + 0.0j
    zz = 0.0 + 0.0j
    for start in range(0, nmax + 1, chunk):
        m = np.arange(start, min(start + chunk, nmax + 1), dtype=float)
        qm = np.exp(m * log_q)
        qr = np.ascontiguousarray(qm.real)
        qi = np.ascontiguousarray(qm.imag)
        for c, m_first, weight, sx, sz in families:
            s = 2.0 * d * m + c
            if start == 0 and m_first == 1:
                s[0] = np.inf  # family starts at m = 1
            u = 1.0 / s
            u2 = u * u
            basis = np.stack((u, u2, u2 * u))
            p = basis @ qr + 1j * (basis @ qi)  # sums of q^m u^j, j = 1, 2, 3
            phase = weight * complex(math.cos(k * c), math.sin(k * c))
            xx += sx * phase * (p[0] - p[2] / k**2 + 1j * p[1] / k) / (4.0 * math.pi)
            zz += sz * phase * (p[2] / k**2 - 1j * p[1] / k) / (2.0 * math.pi)
    return complex(xx), complex(zz)


def bulk_entries(omega: float, z: float, zp: float) -> tuple[complex, complex]:
    """Free-space (xx, zz) on-axis entries; at coincidence only the
    imaginary k/6 pi survives (the divergent real part is excluded)."""
    k = omega / C
    if z == zp:
        return 1j * k / (6.0 * math.pi), 1j * k / (6.0 * math.pi)
    s = abs(z - zp)
    ph = complex(math.cos(k * s), math.sin(k * s))
    a_re, a_im = _free_xx(k, s)
    b_re, b_im = _free_zz(k, s)
    return ph * (a_re + 1j * a_im), ph * (b_re + 1j * b_im)


def check_cavity_tensor(matrix: np.ndarray, real_status: str, oracle: tuple[complex, complex],
                        omega: float, z: float, zp: float) -> None:
    """Scattering part against the image series at the suite's 5e-9
    relative gate with floor k/6 pi; diagonal, xx = yy."""
    k = omega / C
    floor = k / (6.0 * math.pi)
    m = np.asarray(matrix)
    off = m - np.diag(np.diag(m))
    _require("tensor", bool(np.all(off == 0.0)), "off-diagonal entries on the axis")
    _require("tensor", m[0, 0] == m[1, 1], "xx != yy")
    want_status = "scattering-only" if z == zp else "full"
    _require("tensor", real_status == want_status, f"real_status {real_status!r}")
    bxx, bzz = bulk_entries(omega, z, zp)
    oxx, ozz = oracle
    for name, got, want in (("xx", m[0, 0] - bxx, oxx), ("zz", m[2, 2] - bzz, ozz)):
        err = abs(got - want) / max(abs(want), floor)
        _require(f"tensor {name} vs image series", err < 5e-9, f"relative miss {err:.3e}")


def check_reciprocal(g: np.ndarray, g_swapped: np.ndarray) -> None:
    scale = float(np.max(np.abs(g)))
    miss = float(np.max(np.abs(np.asarray(g_swapped) - np.asarray(g))))
    _require("reciprocity z <-> z'", miss <= 1e-12 * scale, f"miss {miss:.3e} of {scale:.3e}")


def check_single_mode_identity(closed: float, w_nu: float, f_lo: float, f_hi: float,
                               h: float) -> None:
    """planar_resonant_im_gxx(w_nu) = (w_nu/2) d/dw [w^2 Im G_xx] at w_nu,
    the derivative a central difference of the full quadrature."""
    deriv = (f_hi - f_lo) / (2.0 * h)
    miss = abs(0.5 * w_nu * deriv / closed - 1.0)
    _require("closed form vs quadrature derivative", miss <= 6e-6, f"relative miss {miss:.3e}")


def check_fit(fit, w0: float, gam: float, peak: float) -> None:
    _require("fit omega_nu", abs(fit.omega_nu - w0) <= 1e-6 * gam, f"{fit.omega_nu} vs {w0}")
    _require("fit gamma_nu", abs(fit.gamma_nu / gam - 1.0) <= 1e-6, f"{fit.gamma_nu} vs {gam}")
    _require("fit peak", abs(fit.peak / peak - 1.0) <= 1e-6, f"{fit.peak} vs {peak}")
