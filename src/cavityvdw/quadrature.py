"""Adaptive panel quadrature on numpy: the engine, its 20-node
Gauss-Legendre rule (G20) and the principal-value transform
kk_real_from_imag.

The engine integrates a vector-valued integrand over the panels between
its initial edges. Each level is one call of the integrand on an array of
nodes, from which a rule gives every panel's value (one per component)
and error. While the summed error exceeds its budget, every panel whose
error exceeds budget/n_panels is halved, with at most _QUAD_LIMIT halvings
in all. Each level after the first is one call of the integrand on the
halves of the panels being split.

- The transform runs on G20 panels checked against their halves
  (_halving_rule): a panel's value is the sum of its halves' G20 sums and
  its error |panel - its two halves|, all from one call of the integrand on
  the panel's 60 nodes, which its halves get fresh when it is split. Its
  budget is rel_tol times |total| plus the sum of |panel values|.
- The transform grades its edges in half decades, +-{1, 3, 10, ..., 3e4} x
  its smallest breakpoint gap. The edges are a few dozen points, so they
  are built and sorted as Python floats, by the same IEEE operations as an
  array expression.
- The cavity Green's tensor (greens) runs on the same engine with its own
  41-node Gauss-Kronrod rule. It evaluates the first level on the nodes it
  has laid out for its contour and hands those panels to _refine, the
  engine's split loop, so the rule and the contour stay in greens: a
  process that runs only the planar closed forms and this transform
  compiles neither.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError, require
from .record import Record

# panel halvings allowed to each adaptive quadrature
_QUAD_LIMIT = 800


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


# initial panel edges graded away from each sharp feature at a grading
# times the feature's width: the transform's half decades on both sides
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


def _adaptive_quadrature(g, edges, budget, rule):
    """Adaptive quadrature of a vector-valued integrand over the panels
    between consecutive edges, on _halving_rule or a rule of its form.

    g maps an array of nodes to the integrand's components stacked along a
    new first axis (or, on _halving_rule, to a single component of the
    nodes' shape). rule(g, a, b) gives the values (components x panels) and
    errors of the panels [a_i, b_i] from one call of g. Its call on the
    initial panels is the first level, which _refine splits.

    Returns (values, error): the final panel values and the summed error.
    """
    values, error = rule(g, edges[:-1], edges[1:])
    return _refine(g, edges, values, error, budget, rule)


def _refine(g, edges, values, error, budget, rule):
    """The engine's split loop, from the first level its caller evaluated:
    the values (components x panels) and errors of the panels between
    consecutive edges. While the summed error exceeds budget(values), every
    panel whose error exceeds budget / n_panels is halved, with at most
    _QUAD_LIMIT halvings in all; the halves of the split panels, placed
    after the kept panels, are the next level's one call of rule(g, a, b).

    Returns (values, error): the final panel values and the summed error.
    """
    a, b = edges[:-1], edges[1:]
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
