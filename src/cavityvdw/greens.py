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
which is required for the evanescent waves to be integrable and is verified
against an image-series resummation in the test suite.

The quadrature runs along a path in the complex k_perp plane, not along the
real k_par axis (Michalski and Mosig, IEEE Trans. Antennas Propag. 45, 508
(1997); Paulus, Gay-Balmaz and Martin, Phys. Rev. E 62, 5797 (2000)):

- Poles. The mirror reflectivities are constants with |r| < 1, so every
  zero of D_sigma lies at Im k_perp = ln|r_sigma| / d < 0, below the real
  axis, one at each resonance Re k_perp = m pi / d.
- Measure. k_par dk_par / k_perp = -dk_perp, and the bracket is a
  polynomial in k_perp times exponentials of it, so there is no branch
  point: the real k_par axis is the path k_perp: k -> 0 -> i infinity.
- Deformation. The bracket decays as e^{-s Im k_perp}, where the shortest
  path through a mirror s = min(z + z', 2d - z - z') bounds |z - z'|. The
  quarter plane between the path and the vertical k_perp = k + i y, y > 0,
  holds no pole, so the path closes onto the vertical and
  (G_xx, G_zz) scattering = (1/8 pi) Int_0^inf bracket(k + i y) dy.
- Factors. Along it every factor is e^{i k a} e^{-y a} for a path length a:
  the round trip 2d, the direct pair 2d +- |z - z'| (the round trip times
  2 cos(k_perp (z - z'))) and the single bounces z + z' and 2d - z - z'.
  The phases e^{i k a} are constants; each numerator is one fixed
  combination of the five real decays e^{-y a}, so the integrand is one
  real exp per decay and node, one matrix product for the combinations and
  complex arithmetic with the reciprocal denominators and (k_perp/k)^2.
- Grading. The path meets one feature, at y = 0: the nearest pole, a
  distance w = -ln(max |r|)/d below it. No resonance lies on the path, so
  the work does not grow with kd. The initial panel edges are 0 and
  {0.1, 0.3, 1, 10, 100, ...} x w: a panel [a, 10 a] beside a pole at
  distance a has Bernstein ellipse parameter ~1.9, so its K41 sum is good
  to round-off. Transparent walls, r_s = r_p = 0, have no pole, and the
  integrand is zero at every node.
- Cutoff. The edges stop at y_max = 45 / s, beyond which every factor is
  below e^{-45}; in decades up to it no panel is wider than the near field
  of points close to a mirror, which peaks at y ~ 1/s.

The path runs on one numpy engine of adaptive panels, which the
principal-value transform kk_real_from_imag shares, each on its own rule:
the cavity on 41-node Gauss-Kronrod panels (K41, the extension of the
20-node Gauss-Legendre rule G20), the transform on G20 panels checked
against their halves.

- The integrand is vector-valued: one evaluation on an array of nodes
  gives both complex components, (T, L) (T transverse, L longitudinal).
- The principal-value transform grades its edges in half decades,
  +-{1, 3, 10, ..., 3e4} x its smallest breakpoint gap. The edges are a few
  dozen points, so they are built and sorted as Python floats, by the same
  IEEE operations as an array expression.
- A cavity panel's value is its K41 sum and its error |K41 - G20|, summed
  over components: the G20 sum is that of the odd-indexed K41 nodes, so
  one call of the integrand on 41 nodes gives both, where a G20 panel
  checked against its halves costs 60. The error is at least 50 eps |K41|,
  QUADPACK's qk41 round-off floor with |K41| for Sum |w_i f_i| (the
  factors' phases are constant along the path; summed over a call, the two
  differ by at most a factor 1.3 in 300 random calls), so that a target
  float64 cannot hold raises. A transform panel's value is the sum
  of its halves' G20 sums and its error |panel - its two halves|. While the
  summed error exceeds its budget (for the cavity rel_tol times the larger
  of |T|, |L| and the free-space floor k/6 pi), every panel whose error
  exceeds budget/n_panels is halved, with at most _QUAD_LIMIT halvings in
  all. Each level is one call of the integrand: the first on the initial
  panels, each later one on the halves of the panels being split, which get
  41 fresh nodes each on K41 and 60 on G20.

The integrand depends on the points only through z + z' and |z - z'|, so
the tensor is reciprocal bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .constants import C
from .errors import DomainError, QuadratureError, require
from .modecoupling import lorentzian_profile
from .record import Record

_AXES = {"x": 0, "y": 1, "z": 2}


class ComplexDyad(Record):
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
        object.__setattr__(self, "matrix", require("dyad entry", "matrix", m))
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


# panel halvings allowed to each adaptive quadrature
_QUAD_LIMIT = 800
# detunings, in mode widths, over which the single-mode model is declared
_SINGLE_MODE_WINDOW = 1e3


class QuadratureControl(Record):
    """Adaptive-quadrature budget: the relative error target."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        # an infinite rel_tol would accept any first level unchecked
        require("relative error target", "rel_tol", self.rel_tol, "positive")


_DEFAULT_CONTROL = QuadratureControl()


class SpectralFunction(Record):
    """Real-valued function of angular frequency for principal-value
    transforms.

    func is called on numpy arrays of quadrature nodes and must return an
    array of the same shape, or a constant, which is broadcast.
    support is the caller-declared window containing all non-negligible mass
    (the integrable-decay statement). hint_points are interior sharp
    features (for example a narrow peak) passed to the quadrature.
    """

    func: Callable[[np.ndarray], np.ndarray | float]
    support: tuple[float, float]
    hint_points: tuple[float, ...] = ()

    def __post_init__(self):
        # the panels need a finite window
        lo, hi = require("support window", "support", self.support)
        if not lo < hi:
            raise DomainError(f"support must be a window lo < hi, got support=({lo}, {hi})")
        require("hint point", "hint_points", self.hint_points)

    def __call__(self, omega: float) -> float:
        return float(self.func(omega))


def _free_space_terms(k: float, rn: float) -> tuple[complex, complex, complex]:
    """(e^{ikr}/(4 pi r), a, b) of the free-space tensor at separation rn:
    G = e^{ikr}/(4 pi r) (a delta_ab + b r_a r_b / r^2)."""
    x = k * rn
    pref = np.exp(1j * x) / (4.0 * math.pi * rn)
    return pref, 1.0 + (1j * x - 1.0) / x**2, -1.0 + (3.0 - 3j * x) / x**2


def free_space_green(k: float, r: Sequence[float]) -> ComplexDyad:
    """Free-space dyadic Green's tensor at wavenumber k [1/m] and
    displacement r [m]. Entrywise symmetric; even in r."""
    require("wavenumber", "k", k, "positive")
    rv = np.asarray(r, dtype=float)
    if rv.shape != (3,):
        raise DomainError(f"displacement must be a 3-vector, got shape {rv.shape}")
    require("displacement", "r", rv)
    rn = float(np.linalg.norm(rv))
    if rn == 0.0:
        raise DomainError(
            "zero displacement: coincident free-space tensor is divergent; "
            "use free_space_im_green_coincident for the imaginary-part limit"
        )
    e = rv / rn
    pref, a, b = _free_space_terms(k, rn)
    m = pref * (a * np.eye(3) + b * np.outer(e, e))
    return ComplexDyad(m)


def free_space_im_green_coincident(k: float) -> ComplexDyad:
    """Regularized r -> 0 limit of the free-space tensor: imaginary part
    (k/6 pi) x identity; the divergent real part is excluded."""
    require("wavenumber", "k", k, "positive")
    m = 1j * (k / (6.0 * math.pi)) * np.eye(3)
    return ComplexDyad(m, real_status="excluded")


def quad(f, a, b, **kwargs):
    """scipy.integrate.quad, imported on first call; scipy is no dependency
    of the package. No quadrature here calls it: the benchmark's tracer
    (perfbench/tracer.py) patches this name to count integrand evaluations."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, a, b, **kwargs)


# adaptive panel engine shared by the cavity tensor and the principal-value
# transform, on G20 panels checked against their halves or on G20/K41
# panels: initial panel edges graded away from each sharp feature at a
# grading times the feature's width, in half decades on both sides for the
# transform and in decades on one side for the cavity
_HALF_DECADES = tuple(sign * g for sign in (-1.0, 1.0)
                      for g in (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1.0e3, 3.0e3, 1.0e4, 3.0e4))


# the 20-node Gauss-Legendre rule on [-1, 1], bit for bit
# numpy.polynomial.legendre.leggauss(20); written out because importing
# numpy.polynomial costs every CLI process milliseconds. Read-only, as every
# quadrature shares them.
_GL_NODES = np.array([
    -0.993128599185095, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
    -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
    -0.22778585114164507, -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095])
_GL_WEIGHTS = np.array([
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879, 0.08327674157670471,
    0.1019301198172407, 0.1181945319615186, 0.1316886384491769, 0.1420961093183824,
    0.14917298647260424, 0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
    0.1420961093183824, 0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
    0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False

# its 41-node Gauss-Kronrod extension on [-1, 1] (Laurie, Math. Comp. 66,
# 1133 (1997); QUADPACK's qk41), nodes ascending, the odd-indexed ones the
# 20 Gauss nodes; exact for polynomials of degree 61. Computed once with
# mpmath at 60 digits and rounded to nearest: the other 21 nodes are the
# roots of the Stieltjes polynomial E_21 = P_21 + sum_{odd j < 21} c_j P_j,
# with the c_j making E_21 P_20 orthogonal to P_k for every odd k < 20, one
# root between each two neighbours of -1, the Gauss nodes and 1; the weights
# solve sum_i w_i P_j(x_i) = 2 delta_j0 for j <= 40.
_K41_NODES = np.array([
    -0.9988590315882777, -0.9931285991850949, -0.9815078774502503, -0.9639719272779138,
    -0.9408226338317548, -0.912234428251326, -0.878276811252282, -0.8391169718222188,
    -0.7950414288375512, -0.7463319064601508, -0.6932376563347514, -0.636053680726515,
    -0.5751404468197103, -0.5108670019508271, -0.4435931752387251, -0.37370608871541955,
    -0.301627868114913, -0.22778585114164507, -0.15260546524092267, -0.07652652113349734,
    0.0, 0.07652652113349734, 0.15260546524092267, 0.22778585114164507,
    0.301627868114913, 0.37370608871541955, 0.4435931752387251, 0.5108670019508271,
    0.5751404468197103, 0.636053680726515, 0.6932376563347514, 0.7463319064601508,
    0.7950414288375512, 0.8391169718222188, 0.878276811252282, 0.912234428251326,
    0.9408226338317548, 0.9639719272779138, 0.9815078774502503, 0.9931285991850949,
    0.9988590315882777])
_K41_WEIGHTS = np.array([
    0.0030735837185205317, 0.008600269855642943, 0.014626169256971253, 0.020388373461266523,
    0.02588213360495116, 0.0312873067770328, 0.036600169758200796, 0.041668873327973685,
    0.04643482186749767, 0.05094457392372869, 0.05519510534828599, 0.05911140088063957,
    0.06265323755478117, 0.06583459713361842, 0.06864867292852161, 0.07105442355344407,
    0.07303069033278667, 0.07458287540049918, 0.07570449768455667, 0.07637786767208074,
    0.07660071191799965, 0.07637786767208074, 0.07570449768455667, 0.07458287540049918,
    0.07303069033278667, 0.07105442355344407, 0.06864867292852161, 0.06583459713361842,
    0.06265323755478117, 0.05911140088063957, 0.05519510534828599, 0.05094457392372869,
    0.04643482186749767, 0.041668873327973685, 0.036600169758200796, 0.0312873067770328,
    0.02588213360495116, 0.020388373461266523, 0.014626169256971253, 0.008600269855642943,
    0.0030735837185205317])
# columns: the K41 weights, and K41 minus the embedded G20 weights, whose sum
# is K41 - G20 on a panel
_K41_RULE = np.stack((_K41_WEIGHTS, _K41_WEIGHTS), axis=1)
_K41_RULE[1::2, 1] -= _GL_WEIGHTS
_K41_NODES.flags.writeable = _K41_WEIGHTS.flags.writeable = _K41_RULE.flags.writeable = False


def _panel_edges(lo, hi, features, width, grading, fixed=()):
    """Sorted distinct panel edges on [lo, hi]: the ends, the fixed points,
    and each feature point flanked at grading * width."""
    steps = [width * s for s in grading]
    edges = {lo, hi, *fixed, *features}
    edges.update([f + step for f in features for step in steps])
    return np.array(sorted([e for e in edges if lo <= e <= hi]), dtype=float)


def _halving_rule(g, a, b):
    """G20 panels checked against their halves: a panel's value is the sum
    of its two halves' G20 sums and its error |whole - two halves| summed
    over components, whole being the panel's own G20 sum; all three come
    from one call of g on the 60 nodes of every panel. Returns (values,
    errors)."""
    n = a.size
    mid = 0.5 * (a + b)
    lo, hi = np.concatenate((a, a, mid)), np.concatenate((b, mid, b))
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
    sums = np.atleast_2d(half * (g(nodes) @ _GL_WEIGHTS))
    whole, left, right = sums[:, :n], sums[:, n:2 * n], sums[:, 2 * n:]
    return left + right, abs(whole - left - right).sum(axis=0)


def _kronrod_rule(g, a, b):
    """G20/K41 panels: a panel's value is its K41 sum and its error
    |K41 - G20|, at least 50 eps |K41|, summed over components, both from
    one call of g (which stacks its components along a new first axis) on
    the 41 nodes of every panel. Returns (values, errors)."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _K41_NODES
    sums = (g(nodes) @ _K41_RULE) * half[:, None]
    values = sums[..., 0]
    return values, np.maximum(abs(sums[..., 1]), 50.0 * 2.0**-52 * abs(values)).sum(axis=0)


def _adaptive_quadrature(g, edges, budget, rule):
    """Adaptive quadrature of a vector-valued integrand over the panels
    between consecutive edges, on _halving_rule or _kronrod_rule.

    g maps an array of nodes to the integrand's components stacked along a
    new first axis (or, on _halving_rule, to a single component of the
    nodes' shape). rule(g, a, b) gives the values (components x panels) and
    errors of the panels [a_i, b_i] from one call of g. While the summed
    error exceeds budget(values), every panel whose error exceeds
    budget / n_panels is halved, with at most _QUAD_LIMIT halvings in all;
    the halves of the split panels, placed after the kept panels, are the
    next level's one call of rule.

    Returns (values, error): the final panel values and the summed error.
    """
    a, b = edges[:-1], edges[1:]
    values, error = rule(g, a, b)
    splits = 0
    while True:
        target = budget(values)
        total = math.fsum(error.tolist())
        if not total > target:
            return values, total
        split = error > target / error.size
        n_split = int(np.count_nonzero(split))
        if splits + n_split > _QUAD_LIMIT:
            return values, total
        splits += n_split
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        new_values, new_error = rule(g, new_a, new_b)
        a = np.concatenate((a[keep], new_a))
        b = np.concatenate((b[keep], new_b))
        values = np.concatenate((values[:, keep], new_values), axis=1)
        error = np.concatenate((error[keep], new_error))


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
    |r_sigma| < 1, including r_sigma = 0 (no mirrors). The integrand depends
    on the points only through z + z' and |z - z'|, so swapping them gives
    the same result bit for bit.
    """
    control = control or _DEFAULT_CONTROL
    # an infinite d or omega has no panels
    require("plate separation", "d", d, "positive")
    if not (0.0 < z < d and 0.0 < zp < d):
        raise DomainError(f"points must satisfy 0 < z, z' < d; got z={z}, zp={zp}, d={d}")
    require("angular frequency", "omega", omega, "positive")
    if not (abs(r_s) < 1.0 and abs(r_p) < 1.0):
        raise DomainError(f"reflection coefficients must satisfy |r| < 1, got r_s={r_s}, r_p={r_p}")
    k = omega / C
    zsum, zdiff = z + zp, abs(z - zp)
    rs2, rp2 = r_s**2, r_p**2
    # the shortest path through a mirror, z + z' or 2d - z - z', bounds |z - z'|
    s_min = min(zsum, 2.0 * d - zsum)

    # the numerators from the five real decays e^{-y a} (module docstring):
    # weights times the phases e^{i k a} and the measure 1 / 8 pi give the s
    # numerator, the p numerators of T (pair as -r_p) and L (+r_p, doubled)
    # and r_sigma^2 times the round trip; as interleaved floats, one real
    # product with the decays gives all five as complex rows
    lengths = np.array((2.0 * d, 2.0 * d + zdiff, 2.0 * d - zdiff, zsum, 2.0 * d - zsum))
    m = 1.0 / (8.0 * math.pi)
    direct = (m * rs2, m * rp2, 2.0 * m * rp2, 0.0, 0.0)
    pair = (m * r_s, -m * r_p, 2.0 * m * r_p, 0.0, 0.0)
    weights = np.array(((0.0, 0.0, 0.0, rs2, rp2), direct, direct, pair, pair))
    mix = (weights * np.exp(1j * k * lengths)[:, None]).view(float)
    decay_rates = -lengths[:, None]
    i_over_k = 1j / k

    def f(y):
        # (T, L) of the bracket at k_perp = k + i y, times the measure 1 / 8 pi
        flat = y.ravel()
        s_num, p_minus, p_plus, s_trip, p_trip = (
            (np.exp(decay_rates * flat).T @ mix).view(complex).T)
        q = 1.0 + i_over_k * flat  # k_perp / k
        kp2_over_k2 = q * q
        inv_s = 1.0 / (1.0 - s_trip)
        # r_s^2 = r_p^2 (every PlanarCavity) gives both one denominator
        inv_p = inv_s if rs2 == rp2 else 1.0 / (1.0 - p_trip)
        out = np.empty((2, flat.size), complex)
        out[0] = s_num * inv_s + kp2_over_k2 * p_minus * inv_p
        out[1] = (1.0 - kp2_over_k2) * p_plus * inv_p
        return out.reshape((2,) + y.shape)

    # floor: the free-space coincident Im G, k / 6 pi
    floor = k / (6.0 * math.pi)

    def budget(v):
        trans, longi = v.sum(axis=1).tolist()
        return control.rel_tol * max(abs(trans), abs(longi), floor)

    # edges in decades of the nearest pole's distance w below y = 0, up to
    # the cutoff (module docstring); transparent walls have no pole
    r_max = max(abs(r_s), abs(r_p))
    y_max = 45.0 / s_min
    w = -math.log(r_max) / d if r_max else y_max
    grading = (0.1, 0.3, *(10.0 ** j for j in range(math.ceil(math.log10(y_max / w)))))
    values, err_total = _adaptive_quadrature(f, _panel_edges(0.0, y_max, [0.0], w, grading),
                                             budget, _kronrod_rule)
    trans, longi = (complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist()))
                    for v in values)
    target = control.rel_tol * max(abs(trans), abs(longi), floor)
    if not err_total <= 10.0 * target:
        raise QuadratureError(
            f"cavity quadrature did not converge: achieved {err_total:.3e}, "
            f"target {target:.3e}",
            achieved=err_total,
            target=target,
            value=(trans, longi),
        )
    return trans, longi, err_total


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
    if z == zp:
        # the coincident limit: i k / 6 pi on the diagonal
        bulk_xx = bulk_zz = 1j * (k / (6.0 * math.pi))
        real_status = "scattering-only"
    else:
        # on the axis r_a r_b / r^2 is 1 for zz and 0 for xx
        pref, a, b = _free_space_terms(k, abs(z - zp))
        bulk_xx, bulk_zz = pref * a, pref * (a + b)
        real_status = "full"
    xx = trans + bulk_xx
    # by position: a Record binds keywords in Python, ~1 us more per tensor
    return ComplexDyad(np.diag((xx, xx, longi + bulk_zz)), real_status)


def planar_resonant_im_gxx(
    cav: PlanarCavity,
    z_a: float,
    z_b: float,
    omega: float,
) -> float:
    """Single-mode model of omega^2 Im G_xx for the cavity mode nu
    [(rad/s)^2 / m]: the mode product

        omega_nu^3 / (4 pi c delta) * sin(nu pi z_A/d) * sin(nu pi z_B/d),

    scaled off resonance by the Lorentzian of width gamma_nu = 2 c delta / d.
    The paper prints this as a four-cosine combination whose last term has
    the wrong sign.
    """
    d = cav.d
    if not (0.0 <= z_a <= d and 0.0 <= z_b <= d):
        raise DomainError(f"positions must lie in [0, d]; got z_a={z_a}, z_b={z_b}, d={d}")
    om_nu = cav.omega_nu
    gam = cav.gamma_nu
    if not abs(omega - om_nu) <= _SINGLE_MODE_WINDOW * gam:
        raise DomainError(
            f"omega={omega} is {abs(omega - om_nu) / gam:.3g} mode widths from resonance, "
            f"outside the declared single-mode window of {_SINGLE_MODE_WINDOW:g} widths"
        )
    peak = (om_nu**3 / (4.0 * math.pi * C * cav.delta)) * math.sin(
        cav.nu * math.pi * z_a / d
    ) * math.sin(cav.nu * math.pi * z_b / d)
    return float(lorentzian_profile(peak, om_nu, gam, omega))


def kk_real_from_imag(
    f: SpectralFunction,
    omega: float,
    control: QuadratureControl | None = None,
) -> float:
    """Principal-value transform P Int f(w') / (w' - omega) dw' over the
    declared support window, via symmetric-interval pole subtraction.

    Adaptive 20-node Gauss-Legendre panels checked against their halves, on
    the engine the cavity tensor shares with its own rule: breakpoints at
    the support ends, omega and the hint points, graded geometrically away
    from the interior ones in units of the smallest breakpoint gap; the
    error budget is rel_tol * (|total| + sum of |panel values|).

    Note the bare integral is returned; dispersion-relation callers supply
    their own 1/pi prefactor.
    """
    control = control or _DEFAULT_CONTROL
    require("angular frequency", "omega", omega)
    lo, hi = f.support
    radius = f0 = 0.0
    if lo < omega < hi:
        radius = min(omega - lo, hi - omega)
        f0 = f(omega)

    def g(w):
        fw = np.asarray(f.func(w), dtype=float)
        dw = w - omega
        # np.where broadcasts a constant fw to the nodes' shape
        num = np.where(np.abs(dw) < radius, fw - f0, fw)
        # omega itself is a removable point of the subtracted integrand
        return np.divide(num, dw, out=np.zeros_like(num), where=dw != 0.0)

    inner = [p for p in (omega, *f.hint_points) if lo < p < hi]
    points = sorted([lo, hi, *inner])
    gap = min([q - p for p, q in zip(points, points[1:]) if q > p])
    # the integrand jumps by f0 / radius at the ends of the subtracted interval
    edges = _panel_edges(lo, hi, inner, gap, _HALF_DECADES, fixed=(omega - radius, omega + radius))
    values, err = _adaptive_quadrature(
        g, edges, lambda v: control.rel_tol * (abs(v.sum()) + np.abs(v).sum()), _halving_rule)
    total = math.fsum(values[0].tolist())
    ref = math.fsum(np.abs(values[0]).tolist())
    # reference scale: panel L1 magnitudes guard against cancellation to ~0
    # (odd integrands); a tiny absolute floor guards the exactly-zero case
    bound = 10.0 * control.rel_tol * (abs(total) + ref) + 1e-15 * (1.0 + ref)
    if not err <= bound:
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
        require("angular frequency", "omega", omega, "positive")
        p1 = require("position", "r1", np.asarray(r1, dtype=float))
        p2 = require("position", "r2", np.asarray(r2, dtype=float))
        k = omega / C
        dr = p1 - p2
        if float(np.linalg.norm(dr)) == 0.0:
            return free_space_im_green_coincident(k)
        return free_space_green(k, dr)


class PlanarCavityGreens:
    """Green's provider for the planar cavity; positions must lie on a common
    axis perpendicular to the plates (equal transverse coordinates)."""

    def __init__(self, cavity: PlanarCavity, control: QuadratureControl | None = None):
        self.cavity = cavity
        self.control = control or _DEFAULT_CONTROL

    def tensor(self, r1: Sequence[float], r2: Sequence[float], omega: float) -> ComplexDyad:
        p1 = np.asarray(r1, dtype=float)
        p2 = np.asarray(r2, dtype=float)
        if not np.max(np.abs(p1[:2] - p2[:2])) <= 1e-12 * self.cavity.d:
            raise DomainError("planar provider supports on-axis geometry only (equal transverse "
                              f"coordinates), got r1={p1.tolist()}, r2={p2.tolist()}")
        require("position", "r1", p1)
        require("position", "r2", p2)
        return planar_cavity_green(self.cavity, float(p1[2]), float(p2[2]), omega, self.control)
