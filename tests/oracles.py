"""Reference routes the tests need beyond the benchmark's oracle.

The one numpy-only oracle of this project is perfbench/checks.py: the
mirror-image series of the planar cavity, the exact principal value of a
Lorentzian over a finite window, the free-space on-axis entries and the
check of every table the CLI writes. It is loaded here by file path, from
the checkout that holds this file, as ``checks``; no sys.path entry is
added, so no module of that directory can shadow a test module. The tests
check the library against it, and the benchmark checks its runs against
it, so both compare with the same numbers.

What stays here, written from closed forms like the oracle and importing
nothing from ``cavityvdw``, is what the benchmark has no use for: the
uniform cavity bracket, which writes the angular-spectrum integrand in
complex exponentials of k_perp, as the reference for the per-sector
factors the library evaluates; the principal value of a Lorentzian over
the whole real line; the small-kr series of the free-space tensor; the
per-cell exporter and the float families on which the export kernel's
cells are compared with CPython's.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np


def _load_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def uniform_cavity_bracket(kperp, d, r_s, r_p, zsum, zdiff, kp2_over_k2, kpar2_over_k2):
    """Transverse and longitudinal brackets of the on-axis cavity integrand,
    as complex exponentials of k_perp, so one expression serves real
    (propagating) and positive imaginary (evanescent) k_perp alike; zsum is
    z + z' and zdiff |z - z'|. This is the form the library evaluated before
    it took each sector's factors apart, kept as a reference for them."""
    e2d = np.exp(2j * kperp * d)
    ds = 1.0 - r_s**2 * e2d
    dp = 1.0 - r_p**2 * e2d
    two_cos = np.exp(1j * kperp * zdiff) + np.exp(-1j * kperp * zdiff)
    pair = np.exp(1j * kperp * zsum) + np.exp(1j * kperp * (2.0 * d - zsum))
    s_num = r_s**2 * e2d * two_cos + r_s * pair
    p_num = r_p**2 * e2d * two_cos - r_p * pair
    p_num_long = r_p**2 * e2d * two_cos + r_p * pair
    trans = s_num / ds + kp2_over_k2 * p_num / dp
    longi = 2.0 * kpar2_over_k2 * p_num_long / dp
    return trans, longi


def lorentzian_principal_value(peak, omega0, gamma, omega):
    """Exact principal value of integral L(w)/(w - omega) dw over the real line.

    For L(w) = peak * (gamma^2/4) / ((w - omega0)^2 + gamma^2/4) the contour
    answer is pi * peak * (gamma/2) * (omega0 - omega) /
    ((omega0 - omega)^2 + gamma^2/4).
    """
    dw = omega0 - omega
    return math.pi * peak * (gamma / 2.0) * dw / (dw**2 + gamma**2 / 4.0)


def small_kr_diagonal_imag(k, r_vec):
    """Leading series of Im G_aa for kr << 1, per axis: (1/4 pi r) *
    [(2/3) x - (2/15) x^3 + (1/15) x^3 e_a^2], x = kr."""
    r = math.sqrt(sum(v * v for v in r_vec))
    x = k * r
    out = []
    for a in range(3):
        ea2 = (r_vec[a] / r) ** 2
        out.append((1.0 / (4.0 * math.pi * r)) * ((2.0 / 3.0) * x - (2.0 / 15.0) * x**3 + (1.0 / 15.0) * x**3 * ea2))
    return out


def per_cell_export_text(names, columns, fmt):
    """Text of a table exported one cell at a time, each cell formatted
    from its own value and each row joined on its own: CSV cells are
    format(v, ".17g") or the string itself, JSON lines are one json.dumps
    of a dict per row. columns are lists of float or of str."""

    def cell(value):
        if isinstance(value, float):
            return format(value, ".17g")
        if "," in value or '"' in value or "\n" in value:
            raise ValueError(f"cell value needs quoting, unsupported: {value!r}")
        return value

    if fmt == "csv":
        cells = [[cell(v) for v in col] for col in columns]
        lines = [",".join(names), *(",".join(row) for row in zip(*cells))]
    else:
        lines = [json.dumps(dict(zip(names, row))) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


# values whose spelling differs between the formats or is easy to get wrong
SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-320,
                  2.2250738585072014e-308, 1e16, 9007199254740993.0, -1e16 + 2.0,
                  1e-16, 0.1, 1.0 / 3.0, 1e22, 1.7976931348623157e308)


def float_families(seed, count):
    """About count float64 values in families that reach every branch of a
    float-to-decimal conversion, drawn from seed: arbitrary 64-bit patterns
    (NaNs, infinities and subnormals included), normals scaled by
    10^U(-300, 300), short decimals a e b, exact k / 2^j between 1e14 and
    1e17 (whose 17th digit can end in a tie), a sweep-like linspace grid,
    and, whatever count, every power of two and of ten in range with both
    neighbours and SPECIAL_FLOATS."""
    rng = np.random.default_rng(seed)
    n = max(count // 10, 1)
    patterns = rng.integers(0, 2**64, 3 * n, dtype=np.uint64).view(np.float64)
    scaled = rng.normal(size=3 * n) * 10.0 ** rng.uniform(-300.0, 300.0, 3 * n)
    powers = np.array([math.ldexp(1.0, e) for e in range(-1074, 1024)]
                      + [float(f"1e{e}") for e in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf)])
    short = np.array([float(f"{a}e{b}") for a, b in zip(rng.integers(1, 10**6, 2 * n).tolist(),
                                                         rng.integers(-320, 300, 2 * n).tolist())])
    ties = np.concatenate([rng.integers(10**14 << j, min(10**17 << j, 2**53), -(-n // 7))
                           / 2.0**j for j in range(7)])
    grid = np.linspace(0.001, 0.999, n + 1) * 1.0e-6
    return {"patterns": patterns, "scaled": scaled,
            "powers": powers[np.isfinite(powers) & (powers != 0.0)], "short": short,
            "ties": ties, "grid": grid, "special": np.array(SPECIAL_FLOATS)}
