"""The export kernel's float cells against CPython's own spelling.

cavityvdw._floatcells lays out whole blocks of floats as "%.17g" (CSV) and
float.__repr__ (JSON lines) spell them, and leaves to CPython only zeros,
non-finite values and cells within 2^-20 of a rounding tie or an interval
end. Every cell here is compared with format(v, ".17g") and repr(v), over
families that reach every branch: arbitrary bit patterns, normals over the
whole exponent range, powers of two and ten with their neighbours, short
decimals, exact ties and the special values of the export tests.
"""

import json
import math

import numpy as np
import pytest

from cavityvdw import _floatcells

from oracles import float_families

SPELL = {"csv": "%.17g".__mod__, "jsonl": json.dumps}
FAMILIES = float_families(20261019, 200_000)


def _kernel_cells(values, fmt):
    text = _floatcells.block_text(values.size, [values], [(0, False)], [b"", b"\n"], fmt,
                                  lambda left: list(map(SPELL[fmt], left.tolist())))
    return text.decode("ascii").split("\n")[:-1]


def test_the_families_hold_enough_values():
    assert sum(v.size for v in FAMILIES.values()) >= 200_000
    patterns = FAMILIES["patterns"]
    assert np.isnan(patterns).any() and (np.abs(patterns) < 2.2250738585072014e-308).any()
    assert {math.inf, -math.inf} <= set(FAMILIES["special"].tolist())
    assert FAMILIES["grid"].size > 20_000


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_kernel_cells_are_cpythons(family, fmt):
    values = FAMILIES[family]
    expected = ["%.17g" % v for v in values.tolist()] if fmt == "csv" else \
        [float.__repr__(v) if math.isfinite(v) else json.dumps(v) for v in values.tolist()]
    got = _kernel_cells(values, fmt)
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert len(got) == len(expected) and not wrong, wrong[:5]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_kernel_leaves_few_cells_to_cpython(fmt):
    # a kernel that left every cell to CPython would pass the comparison
    # above. It must decide all but 1 % of the scaled normals and 0.01 % of
    # the short decimals (0 and 1 of them are left; 20 of the short ones in
    # JSON lines when 1e17 to 1e31 is not worked in units of 5^-j), every
    # exact tie (decided to even) and every cell of a grid such as a
    # sweep's
    left = {name: _floatcells.lay_out(FAMILIES[name], fmt)[1].size
            for name in ("scaled", "short", "ties", "grid")}
    assert left["scaled"] <= 0.01 * FAMILIES["scaled"].size
    assert left["short"] <= 1e-4 * FAMILIES["short"].size
    assert left["ties"] == left["grid"] == 0


def test_search_takes_at_most_two_steps_on_normal_doubles(monkeypatch):
    # a normal double's half-gaps are below 11.1 units of the 17th digit, so
    # its search is done once a neighbour is found at a step of 100; 5e-324's
    # interval spans most of [1e16, 1e17), so its search goes on to 1e16
    steps = []

    def counted(step, w, state, neighbours=_floatcells._neighbours):
        steps.append(step)
        return neighbours(step, w, state)

    monkeypatch.setattr(_floatcells, "_neighbours", counted)
    for name in ("scaled", "short", "powers", "ties", "grid"):
        values = FAMILIES[name]
        _floatcells.lay_out(values[np.abs(values) >= 2.2250738585072014e-308], "jsonl")
    assert max(steps) == 100
    steps.clear()
    assert _kernel_cells(np.array([5e-324]), "jsonl") == ["5e-324"]
    assert max(steps) == 10**16


# both 16-digit neighbours of this double lie in its rounding interval, the
# upper one nearer by less than MARGIN, an inexact difference: found among
# 6e7 doubles near 9e-100
NEAR_TIE = 9.627185277885429e-100


def test_kernel_leaves_a_near_tie_of_two_neighbours_to_cpython():
    assert _floatcells.lay_out(np.array([NEAR_TIE]), "jsonl")[1].tolist() == [0]
    assert _kernel_cells(np.array([NEAR_TIE]), "jsonl") == [repr(NEAR_TIE)]


def test_kernel_leaves_zeros_and_non_finite_values_to_cpython():
    values = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1.5])
    laid, left = _floatcells.lay_out(values, "csv")
    assert left.tolist() == [0, 1, 2, 3, 4]
    assert not laid[:5].any() and laid[5].any()


# y = |v| 10^(16-E) of this double is 4.4e-8 below a tie of the 17th digit,
# within MARGIN, where c = 2^q 10^(16-E) is not exact: found among 2^20
# doubles between 1e200 and 1e201
INEXACT_NEAR_TIE = 6.35523746440621e+200


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_kernel_leaves_a_near_tie_in_the_inexact_range_to_cpython(fmt):
    assert _floatcells.lay_out(np.array([INEXACT_NEAR_TIE]), fmt)[1].tolist() == [0]
    assert _kernel_cells(np.array([INEXACT_NEAR_TIE]), fmt) == [SPELL[fmt](INEXACT_NEAR_TIE)]


# 1e17 + 208 and 1e17 + 608 (X = 17, c = 1.6): each 16-digit neighbour
# below lies exactly at the lower end of the rounding interval, outside for
# the first (m odd) and inside for the second (m even). In units of 5^-1
# the comparison is exact and the kernel decides it; worked as an inexact
# one it would fall within MARGIN and be left to CPython
INTERVAL_ENDS_AT_X_17 = np.array([100000000000000208.0, 100000000000000608.0])


def test_kernel_decides_interval_ends_at_x_17_exactly():
    assert _floatcells.lay_out(INTERVAL_ENDS_AT_X_17, "jsonl")[1].size == 0
    assert _kernel_cells(INTERVAL_ENDS_AT_X_17, "jsonl") == ["1.0000000000000021e+17",
                                                           "1.000000000000006e+17"]
