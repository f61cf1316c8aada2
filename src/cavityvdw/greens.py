"""Dyadic Green's tensors for free space and a symmetric planar cavity.

Conventions
-----------
The free-space tensor for wavenumber k and displacement r is

    G_ab(k, r) = e^{ikr}/(4 pi r) [ (1 + (ikr - 1)/(kr)^2) delta_ab
                                    + (-1 + (3 - 3ikr)/(kr)^2) r_a r_b / r^2 ].

The planar cavity consists of two mirrors at z = 0 and z = d with
amplitude reflection coefficients r_p = -r_s = 1 - delta, delta being the
deviation from perfect reflectivity (transmittance t^2 = 2 delta). Both
evaluation points sit on the cavity axis, so the angular part of the
plane-wave (k_par) expansion is carried out analytically and only a radial
quadrature remains. The scattering part of the tensor is then diagonal:

    G_xx = G_yy = (i/8 pi) Int dk_par k_par/k_perp
           { [r_s^2 e^{2 i k_perp d} 2 cos(k_perp (z-z'))
              + r_s (e^{i k_perp (z+z')} + e^{i k_perp (2d-z-z')})] / D_s
           + (k_perp/k)^2 [r_p^2 e^{2 i k_perp d} 2 cos(k_perp (z-z'))
              - r_p (e^{i k_perp (z+z')} + e^{i k_perp (2d-z-z')})] / D_p },
    G_zz = (i/8 pi) Int dk_par k_par/k_perp 2 (k_par/k)^2
           [r_p^2 e^{2 i k_perp d} 2 cos(k_perp (z-z'))
            + r_p (e^{i k_perp (z+z')} + e^{i k_perp (2d-z-z')})] / D_p,

with D_sigma = 1 - r_sigma^2 e^{2 i d k_perp} and k_perp = sqrt(k^2 - k_par^2)
(positive imaginary for evanescent waves). The i/(8 pi) radial prefactor is
fixed by the free-space Weyl identity (coincident imaginary part k/(6 pi));
the single-bounce exponent is the convergent e^{+i k_perp (2d-z-z')} form,
which is required for the evanescent sector to be integrable and is verified
against an image-series resummation in the test suite.

The propagating sector is integrated in t = k_perp/k with forced subdivision
at the cavity resonances k_perp = m pi / d and in the boundary layers of
width ~delta near both endpoints; the evanescent sector is integrated in
u = kappa d with an exponential-tail cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .constants import C
from .errors import DomainError, QuadratureError

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class ComplexDyad:
    """3x3 complex tensor (units 1/m) indexed by (alpha, beta) in {x,y,z}^2.

    real_status records how the real part is to be read:
      "full"            both parts are the complete tensor
      "scattering-only" the bulk (free-space) real part diverges at
                        coincidence and has been excluded; the real part is
                        the finite scattering remainder
      "excluded"        no finite real part is available at all
    """

    matrix: np.ndarray
    real_status: str = "full"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise DomainError(f"dyad matrix must be 3x3, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        if self.real_status not in ("full", "scattering-only", "excluded"):
            raise DomainError(f"unknown real_status {self.real_status!r}")

    def entry(self, alpha: str, beta: str) -> complex:
        return complex(self.matrix[_AXES[alpha], _AXES[beta]])

    @property
    def imag_part(self) -> np.ndarray:
        return self.matrix.imag.copy()

    @property
    def real_part(self) -> np.ndarray:
        if self.real_status == "excluded":
            raise DomainError("real part excluded (divergent at coincidence)")
        return self.matrix.real.copy()


@dataclass(frozen=True)
class PlanarCavity:
    """Symmetric planar cavity: plate separation d, reflectivity deviation
    delta (r_p = -r_s = 1 - delta, always derived), mode index nu."""

    d: float
    delta: float
    nu: int = 1

    def __post_init__(self):
        if not self.d > 0:
            raise DomainError(f"plate separation must be positive, got d={self.d}")
        # model validity: almost perfectly reflecting plates
        if not 0.0 < self.delta < 0.1:
            raise DomainError(
                f"reflectivity deviation must satisfy 0 < delta < 0.1, got delta={self.delta}"
            )
        if int(self.nu) != self.nu or self.nu < 1:
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


# subdivisions allowed to each adaptive quadrature pass
_QUAD_LIMIT = 800


@dataclass(frozen=True)
class QuadratureControl:
    """Adaptive-quadrature budget: the relative error target."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass(frozen=True)
class SpectralFunction:
    """Real-valued function of angular frequency for principal-value
    transforms.

    func is called on numpy arrays of quadrature nodes and must return an
    array of the same shape, or a constant, which is broadcast.
    support is the caller-declared window containing all non-negligible mass
    (the integrable-decay statement). poles/exclusion_radius declare where
    the function itself must not be probed. hint_points are interior sharp
    features (for example a narrow peak) passed to the quadrature.
    """

    func: Callable[[np.ndarray], np.ndarray | float]
    support: tuple[float, float]
    poles: tuple[float, ...] = ()
    exclusion_radius: float = 0.0
    hint_points: tuple[float, ...] = ()

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise DomainError(f"empty support window ({lo}, {hi})")

    def __call__(self, omega: float) -> float:
        return float(self.func(omega))


def free_space_green(k: float, r: Sequence[float]) -> ComplexDyad:
    """Free-space dyadic Green's tensor at wavenumber k [1/m] and
    displacement r [m]. Entrywise symmetric; even in r."""
    if not k > 0:
        raise DomainError(f"wavenumber must be positive, got k={k}")
    rv = np.asarray(r, dtype=float)
    if rv.shape != (3,):
        raise DomainError(f"displacement must be a 3-vector, got shape {rv.shape}")
    rn = float(np.linalg.norm(rv))
    if rn == 0.0:
        raise DomainError(
            "zero displacement: coincident free-space tensor is divergent; "
            "use free_space_im_green_coincident for the imaginary-part limit"
        )
    x = k * rn
    e = rv / rn
    pref = np.exp(1j * x) / (4.0 * math.pi * rn)
    a = 1.0 + (1j * x - 1.0) / x**2
    b = -1.0 + (3.0 - 3j * x) / x**2
    m = pref * (a * np.eye(3) + b * np.outer(e, e))
    return ComplexDyad(m)


def free_space_im_green_coincident(k: float) -> ComplexDyad:
    """Regularized r -> 0 limit of the free-space tensor: imaginary part
    (k/6 pi) x identity; the divergent real part is excluded."""
    if not k > 0:
        raise DomainError(f"wavenumber must be positive, got k={k}")
    m = 1j * (k / (6.0 * math.pi)) * np.eye(3)
    return ComplexDyad(m, real_status="excluded")


def quad(f, a, b, **kwargs):
    """scipy.integrate.quad, imported on first call: only the cavity
    Green's-tensor quadrature needs it, and importing scipy costs more than
    any closed-form evaluation."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, a, b, **kwargs)


def _quad_piece(f, a, b, control, points=None):
    """scipy quad wrapper returning (value, abserr, l1) where l1 sums the
    magnitudes of the per-subinterval contributions; that is the scale
    against which abserr must be judged when the total cancels to ~0 (odd
    integrands). Warnings suppressed via full_output, convergence judged by
    the caller on the summed estimates."""
    kwargs = dict(limit=_QUAD_LIMIT, epsabs=0.0, epsrel=control.rel_tol,
                  full_output=1)
    if points:
        pts = sorted(p for p in set(points) if a < p < b)
        if pts:
            kwargs["points"] = pts
    out = quad(f, a, b, **kwargs)
    info = out[2]
    nsub = int(info.get("last", 0)) if isinstance(info, dict) else 0
    l1 = float(np.sum(np.abs(info["rlist"][:nsub]))) if nsub else abs(out[0])
    return out[0], out[1], l1


def planar_scattering_components(
    d: float,
    r_s: float,
    r_p: float,
    z: float,
    zp: float,
    omega: float,
    control: QuadratureControl | None = None,
) -> tuple[complex, complex, float]:
    """Scattering part of the on-axis cavity tensor at reflection-coefficient
    level: returns (transverse, longitudinal, abserr) where transverse is the
    xx = yy entry and longitudinal the zz entry [1/m].

    Exposed below PlanarCavity so that diagnostics can drive arbitrary
    |r_sigma| < 1, including r_sigma = 0 (no mirrors).
    """
    control = control or QuadratureControl()
    if not (0.0 < z < d and 0.0 < zp < d):
        raise DomainError(f"points must satisfy 0 < z, z' < d; got z={z}, z'={zp}, d={d}")
    if not omega > 0:
        raise DomainError(f"angular frequency must be positive, got {omega}")
    if max(abs(r_s), abs(r_p)) >= 1.0:
        raise DomainError("reflection coefficients must satisfy |r| < 1")
    k = omega / C

    def braces(kperp, kp2_over_k2, kpar2_over_k2):
        e2d = np.exp(2j * kperp * d)
        ds = 1.0 - r_s**2 * e2d
        dp = 1.0 - r_p**2 * e2d
        # cos written via exponentials so complex k_perp is handled uniformly
        two_cos = np.exp(1j * kperp * (z - zp)) + np.exp(-1j * kperp * (z - zp))
        pair = np.exp(1j * kperp * (z + zp)) + np.exp(1j * kperp * (2.0 * d - z - zp))
        s_num = r_s**2 * e2d * two_cos + r_s * pair
        p_num = r_p**2 * e2d * two_cos - r_p * pair
        p_num_long = r_p**2 * e2d * two_cos + r_p * pair
        trans = s_num / ds + kp2_over_k2 * p_num / dp
        longi = 2.0 * kpar2_over_k2 * p_num_long / dp
        return trans, longi

    if r_s == 0.0 and r_p == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j, 0.0

    # propagating sector: t = k_perp / k on (0, 1), measure k dt
    def f_prop(t, which):
        tr, lo = braces(t * k, t * t, 1.0 - t * t)
        val = tr if which == 0 else lo
        return val * k

    # forced subdivision: cavity resonances and the delta-wide layers at both
    # endpoints (k_par = k and k_par = 0)
    kd = k * d
    pts = [m * math.pi / kd for m in range(1, int(kd / math.pi) + 2) if m * math.pi / kd < 1.0]
    w = max(min(abs(r_s), abs(r_p), 0.999), 1e-6)
    layer = max(1.0 - w, 1e-12) / kd
    pts += [5 * layer, 50 * layer, 1.0 - 50 * layer, 1.0 - 5 * layer]

    # evanescent sector: u = kappa d on (0, u_max); integrand purely real
    s_min = min(z + zp, 2.0 * d - z - zp, 2.0 * d - abs(z - zp))
    u_max = 45.0 * d / s_min

    def f_evan(u, which):
        kappa = u / d
        tr, lo = braces(1j * kappa, -(kappa / k) ** 2, 1.0 + (kappa / k) ** 2)
        val = tr if which == 0 else lo
        return val.real / d

    pts_e = [5.0 * max(1.0 - w, 1e-12), 50.0 * max(1.0 - w, 1e-12), 1.0]

    results = []
    err_total = 0.0
    for which in (0, 1):
        re, e1, _ = _quad_piece(lambda t: f_prop(t, which).real, 0.0, 1.0, control, pts)
        im, e2, _ = _quad_piece(lambda t: f_prop(t, which).imag, 0.0, 1.0, control, pts)
        ev, e3, _ = _quad_piece(lambda u: f_evan(u, which), 0.0, u_max, control, pts_e)
        val = (1j / (8.0 * math.pi)) * (re + 1j * im) + (1.0 / (8.0 * math.pi)) * ev
        results.append(val)
        err_total += (e1 + e2 + e3) / (8.0 * math.pi)

    # floor: the free-space coincident Im G, k / 6 pi
    scale = max(abs(results[0]), abs(results[1]), k / (6.0 * math.pi))
    if err_total > 10.0 * control.rel_tol * scale:
        raise QuadratureError(
            f"cavity quadrature did not converge: achieved {err_total:.3e}, "
            f"target {control.rel_tol * scale:.3e}",
            achieved=err_total,
            target=control.rel_tol * scale,
            value=tuple(results),
        )
    return complex(results[0]), complex(results[1]), err_total


def planar_cavity_green(
    cav: PlanarCavity,
    z: float,
    zp: float,
    omega: float,
    control: QuadratureControl | None = None,
) -> ComplexDyad:
    """Full on-axis cavity tensor: bulk free-space contribution plus the
    k_par-integrated scattering part. Diagonal in the axis-adapted frame,
    with G_xx = G_yy (transverse) and G_zz (longitudinal).

    At coincidence (z = z') the bulk real part is divergent and excluded;
    the returned real part is then the finite scattering remainder
    (real_status = "scattering-only").
    """
    trans, longi, _ = planar_scattering_components(
        cav.d, cav.r_s, cav.r_p, z, zp, omega, control
    )
    k = omega / C
    scat = np.diag([trans, trans, longi]).astype(complex)
    if z == zp:
        bulk_im = free_space_im_green_coincident(k)
        return ComplexDyad(scat + bulk_im.matrix, real_status="scattering-only")
    bulk = free_space_green(k, np.array([0.0, 0.0, z - zp]))
    return ComplexDyad(scat + bulk.matrix)


def planar_resonant_im_gxx(
    cav: PlanarCavity,
    z_a: float,
    z_b: float,
    omega: float,
    variant: str = "corrected",
    window_widths: float = 1e3,
) -> float:
    """Single-mode model of omega^2 Im G_xx for the cavity mode nu
    [(rad/s)^2 / m].

    The corrected form is the mode product

        omega_nu^3 / (4 pi c delta) * sin(nu pi z_A/d) * sin(nu pi z_B/d),

    scaled off resonance by the Lorentzian of width gamma_nu = 2 c delta / d.
    The "as-printed" variant evaluates the four-cosine combination this
    closed form was reduced from, which carries a sign error on its last
    term (it is constant in z on the diagonal); it is retained for
    diagnostics only.
    """
    d = cav.d
    if not (0.0 <= z_a <= d and 0.0 <= z_b <= d):
        raise DomainError(f"positions must lie in [0, d]; got z_A={z_a}, z_B={z_b}, d={d}")
    om_nu = cav.omega_nu
    gam = cav.gamma_nu
    if abs(omega - om_nu) > window_widths * gam:
        raise DomainError(
            f"omega is {abs(omega - om_nu) / gam:.3g} mode widths from resonance, "
            f"outside the declared single-mode window of {window_widths:g} widths"
        )
    if variant == "corrected":
        peak = (om_nu**3 / (4.0 * math.pi * C * cav.delta)) * math.sin(
            cav.nu * math.pi * z_a / d
        ) * math.sin(cav.nu * math.pi * z_b / d)
    elif variant == "as-printed":
        w = om_nu / C
        comb = (
            math.cos((2.0 * d - z_a - z_b) * w)
            - math.cos((2.0 * d + z_a - z_b) * w)
            - math.cos((2.0 * d - z_a + z_b) * w)
            - math.cos((z_a + z_b) * w)
        )
        peak = -(om_nu**3 / (16.0 * math.pi * C * cav.delta)) * comb
    else:
        raise DomainError(f"unknown variant {variant!r}; use 'corrected' or 'as-printed'")
    lorentz = (gam**2 / 4.0) / ((omega - om_nu) ** 2 + gam**2 / 4.0)
    return peak * lorentz


# principal-value transform: 20-node Gauss-Legendre panels, and the initial
# panel edges graded away from each interior breakpoint, in units of the
# smallest breakpoint gap
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_KK_GRADING = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1.0e3, 3.0e3, 1.0e4, 3.0e4)


def _panel_sums(g, a, b):
    """Gauss-Legendre estimate of the integral of g over each panel
    [a_i, b_i], from one call of g on the nodes of all panels."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
    return half * (g(nodes) @ _GL_WEIGHTS)


def kk_real_from_imag(
    f: SpectralFunction,
    omega: float,
    control: QuadratureControl | None = None,
) -> float:
    """Principal-value transform P Int f(w') / (w' - omega) dw' over the
    declared support window, via symmetric-interval pole subtraction.

    Adaptive Gauss-Legendre panels: breakpoints at the support ends, omega
    and the hint points, graded geometrically away from the interior ones;
    each panel's error is the difference between its value and that of its
    two halves, and panels missing their length-share of the budget
    rel_tol * (|total| + sum of |panel values|) are halved, up to
    _QUAD_LIMIT subdivisions in all.

    Note the bare integral is returned; dispersion-relation callers supply
    their own 1/pi prefactor.
    """
    control = control or QuadratureControl()
    for p in f.poles:
        if abs(omega - p) < f.exclusion_radius:
            raise DomainError(
                f"omega={omega} lies within the exclusion radius "
                f"{f.exclusion_radius} of a declared pole at {p}"
            )
    lo, hi = f.support
    radius = f0 = 0.0
    if lo < omega < hi:
        radius = min(omega - lo, hi - omega)
        f0 = f(omega)

    def g(w):
        fw = np.broadcast_to(np.asarray(f.func(w), dtype=float), w.shape)
        dw = w - omega
        num = np.where(np.abs(dw) < radius, fw - f0, fw)
        # omega itself is a removable point of the subtracted integrand
        return np.divide(num, dw, out=np.zeros_like(num), where=dw != 0.0)

    inner = np.array([p for p in (omega, *f.hint_points) if lo < p < hi])
    gaps = np.diff(np.sort(np.concatenate(([lo, hi], inner))))
    steps = np.min(gaps[gaps > 0.0]) * np.array(_KK_GRADING)
    graded = np.add.outer(inner, np.concatenate((-steps, steps))).ravel()
    # the integrand jumps by f0 / radius at the ends of the subtracted interval
    edges = np.sort(np.concatenate(([lo, hi, omega - radius, omega + radius], graded)))
    edges = edges[(edges >= lo) & (edges <= hi)]
    edges = edges[np.diff(edges, prepend=-np.inf) > 0.0]

    a, b = edges[:-1], edges[1:]
    whole = _panel_sums(g, a, b)
    values, errors = [], []
    splits = 0
    while a.size:
        mid = 0.5 * (a + b)
        halves = _panel_sums(g, np.concatenate((a, mid)), np.concatenate((mid, b)))
        left, right = halves[: a.size], halves[a.size :]
        value = left + right
        error = np.abs(whole - value)
        current = np.concatenate(values + [value])
        budget = control.rel_tol * (abs(math.fsum(current)) + math.fsum(np.abs(current)))
        split = error > budget * (b - a) / (hi - lo)
        n_split = int(np.count_nonzero(split))
        if splits + n_split > _QUAD_LIMIT:
            split[:] = False
        values.append(value[~split])
        errors.append(error[~split])
        splits += n_split
        a, b = np.concatenate((a[split], mid[split])), np.concatenate((mid[split], b[split]))
        whole = np.concatenate((left[split], right[split]))

    values = np.concatenate(values)
    total = math.fsum(values)
    err = math.fsum(np.concatenate(errors))
    ref = math.fsum(np.abs(values))
    # reference scale: panel L1 magnitudes guard against cancellation to ~0
    # (odd integrands); a tiny absolute floor guards the exactly-zero case
    bound = 10.0 * control.rel_tol * (abs(total) + ref) + 1e-15 * (1.0 + ref)
    if err > bound:
        raise QuadratureError(
            f"principal-value quadrature did not converge: achieved {err:.3e}, "
            f"target {bound:.3e}",
            achieved=err,
            target=bound,
            value=total,
        )
    return total


class FreeSpaceGreens:
    """Green's provider for free space: full tensor at distinct points, the
    regularized imaginary-part limit at coincident points."""

    def tensor(self, r1: Sequence[float], r2: Sequence[float], omega: float) -> ComplexDyad:
        if not omega > 0:
            raise DomainError(f"angular frequency must be positive, got {omega}")
        k = omega / C
        dr = np.asarray(r1, dtype=float) - np.asarray(r2, dtype=float)
        if float(np.linalg.norm(dr)) == 0.0:
            return free_space_im_green_coincident(k)
        return free_space_green(k, dr)


class PlanarCavityGreens:
    """Green's provider for the planar cavity; positions must lie on a common
    axis perpendicular to the plates (equal transverse coordinates)."""

    def __init__(self, cavity: PlanarCavity, control: QuadratureControl | None = None):
        self.cavity = cavity
        self.control = control or QuadratureControl()

    def tensor(self, r1: Sequence[float], r2: Sequence[float], omega: float) -> ComplexDyad:
        p1 = np.asarray(r1, dtype=float)
        p2 = np.asarray(r2, dtype=float)
        if np.max(np.abs(p1[:2] - p2[:2])) > 1e-12 * self.cavity.d:
            raise DomainError(
                "planar provider supports on-axis geometry only "
                "(equal transverse coordinates)"
            )
        return planar_cavity_green(self.cavity, float(p1[2]), float(p2[2]), omega, self.control)
