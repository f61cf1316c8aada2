"""Float cells of a whole array at once, byte for byte as CPython spells
them: "%.17g" for CSV and float.__repr__ (the shortest string that reads
back to the same double) for JSON lines.

Each finite nonzero double is m 2^q with m an integer below 2^53. With E its
decimal exponent, c = 2^q 10^(16-E) is held as a double-double (hi + lo),
taken from an exactly rounded table of 10^k, and Dekker's exact product
(Numer. Math. 18, 224, 1971) gives y = m c = |v| 10^(16-E), a number in
[1e16, 1e17), as an int64 integer part and a float fraction, within ~1e-14
of a unit in the 17th digit.

- "%.17g" rounds y to the nearest integer.
- repr takes the fewest digits p <= 17 for which the p-digit number below
  or above y lies in the double's rounding interval, y - c/2 to y + c/2
  (c/4 below an exact power of two); when both lie inside, the nearer one
  wins. This is the output of the shortest mode of Gay's dtoa ("Correctly
  rounded binary-decimal and decimal-binary conversions", 1990), which
  CPython's repr uses.

From 1e-4 to 1e17 c is a double with at most 46 bits after the point, and
from 1e17 to 1e31 y and c are whole multiples of 5^-(E-16); either way
every comparison is exact, and a tie or an interval end is decided as
CPython decides it: ties to even, and an end inside when m is even.
Elsewhere a cell whose decision falls within 2^-20 of a tie or an interval
end is not spelled here, nor is a zero or a non-finite value: lay_out
leaves those to the caller, and block_text has CPython spell them.

Each cell is laid out in a fixed row of bytes, NUL where unused; the rows
of a slice of a block, cells and separators side by side, are read out by
one bytes.translate that deletes every NUL, since no separator and no cell
holds one of its own.
"""

from __future__ import annotations

import numpy as np

# inexact decisions closer than this to a tie or an interval end, in units
# of the 17th digit, are left to CPython; the product's error is below 2^-46
MARGIN = 2.0**-20

# decimal exponents of finite nonzero doubles, and the k of 10^k in c
_X_MIN, _X_MAX = -324, 308
_K_MIN = 16 - _X_MAX
_LOW, _HIGH = 10**16, 10**17


def _power_of_ten(k: int) -> tuple[float, float, int]:
    """(hi, lo, s) with 10^k = (hi + lo) 2^s to about 2^-106: hi the double
    nearest 10^k 2^-s in [1, 2], lo the double nearest the rest."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    s = num.bit_length() - den.bit_length()
    num, den = num << max(-s, 0), den << max(s, 0)
    if num < den:
        num, s = num << 1, s - 1
    hi = num / den
    return hi, ((num << 52) - int(hi * 2**52) * den) / (den << 52), s


# _power_of_ten(i + _K_MIN) by i, each entry filled when an index first
# needs it
_HIS, _LOS = np.zeros((2, 16 - _X_MIN - _K_MIN + 1))
_SHIFTS = np.zeros(_HIS.size, dtype=np.int64)
_FILLED = np.zeros(_HIS.size, dtype=bool)


def _powers_of_ten(index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (hi, lo, s) of _power_of_ten(i + _K_MIN), filled at each i
    of index."""
    new = index[~_FILLED[index]]
    # a set, not np.unique, whose first call adds 1.7 MB resident
    for i in set(new.tolist()):
        _HIS[i], _LOS[i], _SHIFTS[i] = _power_of_ten(i + _K_MIN)
        _FILLED[i] = True
    return _HIS, _LOS, _SHIFTS


def _scaled(m: np.ndarray, q: np.ndarray, x: np.ndarray):
    """y = m 2^q 10^(16-x) as integer part and fraction; c = 2^q 10^(16-x)
    rounded to a double; and whether c is that double exactly, with at most
    46 bits after the point, so that y, its distances to its neighbours and
    the half-gaps c/2 and c/4 are exact where they are compared. m is int64
    below 2^53."""
    k = 16 - x - _K_MIN
    his, los, shifts = _powers_of_ten(k)
    # 2^(s+q), built from its bits: c lies in [1, 23], so the power is normal
    scale = ((shifts[k] + q + 1023) << 52).view(np.float64)
    hi, lo = his[k] * scale, los[k] * scale
    # Dekker's product m hi = p + err, exact; m splits into 27 + 26 bits
    m_hi = ((m >> 26) << 26).astype(np.float64)
    m_lo = (m & ((1 << 26) - 1)).astype(np.float64)
    mf = m.astype(np.float64)
    p = mf * hi
    split = hi * 134217729.0
    h1 = split - (split - hi)
    h2 = hi - h1
    err = ((m_hi * h1 - p) + m_hi * h2 + m_lo * h1) + m_lo * h2
    # p is near 1e16 or above, so an integer; the rest is below ~20
    t = err + mf * lo
    whole = np.floor(t)
    fixed = hi * 2.0**46
    exact = (lo == 0.0) & (fixed == np.floor(fixed))
    return p.astype(np.int64) + whole.astype(np.int64), t - whole, hi, exact


def _digits_17(m, q, x, exact_power_of_two, fmt):
    """17-digit integers D in [1e16, 1e17), exponents X and significant
    digit counts n, so that the cell is the first n digits of D times
    10^(X-16); and the mask of cells this cannot decide."""
    whole, frac, ulp, exact = _scaled(m, q, x)
    # floor(log10) misses by one next to a power of ten
    off = (whole >= _HIGH).astype(np.int64) - (whole < _LOW)
    fix = np.flatnonzero(off)
    if fix.size:
        x[fix] += off[fix]
        whole[fix], frac[fix], ulp[fix], exact[fix] = _scaled(m[fix], q[fix], x[fix])
    # from 1e17 to 1e31, y = m 2^(q-j) / 5^j with j = X - 16 and q - j >= 2:
    # in units of 5^-j its fraction and the half-gaps are integers below
    # 2^53, exact as doubles (y's error, below 1e-14, times 5^j < 1e-4)
    scale = np.ones_like(frac)
    decimal = np.flatnonzero(~exact & (x >= 17) & (x <= 30))
    if decimal.size:
        scale[decimal] = 5.0 ** (x[decimal] - 16)
        units = np.rint(frac[decimal] * scale[decimal])
        wrap = units == scale[decimal]
        whole[decimal] += wrap
        frac[decimal] = np.where(wrap, 0.0, units)
        ulp[decimal] = np.rint(ulp[decimal] * scale[decimal])
        exact[decimal] = True
    # the nearest 17-digit number, ties to even: what "%.17g" writes, and
    # inside the rounding interval, since every half-gap is at least 0.55
    # (c/4 only at m = 2^52, where c >= 1e16 / 2^52)
    half = scale / 2.0
    undecided = (whole < _LOW) | (whole >= _HIGH) | (~exact & (np.abs(frac - half) < MARGIN))
    digits = whole + ((frac > half) | ((frac == half) & ((whole & 1) == 1)))
    if fmt != "csv":
        _shortest(digits, whole, frac, scale, ulp, exact, (m & 1) == 0, exact_power_of_two,
                  undecided)
    digits[undecided] = _LOW
    carry = digits == _HIGH
    digits[carry] = _LOW
    x += carry
    # n: 17 less the trailing zeros (a - a // b * b is a % b for a >= 0, and
    # faster in numpy)
    n = np.full(digits.size, 17, dtype=np.uint8)
    tens = digits // 10
    ends = np.flatnonzero(digits == tens * 10)
    rest = tens[ends]
    while ends.size:
        n[ends] -= 1
        tens = rest // 10
        more = rest == tens * 10
        ends, rest = ends[more], tens[more]
    return digits, x, n, undecided


def _shortest(digits, whole, frac, scale, ulp, exact, even, exact_power_of_two, undecided):
    """Shortest digits, left-aligned to 17, written into digits: for p = 16,
    15, ... the p-digit neighbours of y inside the rounding interval, while
    there are any; frac and ulp are in units of 1/scale. Where the
    arithmetic is exact, an interval end is inside when m is even (it reads
    back to v, ties to even), and of two neighbours inside at one distance
    the even one is taken, as dtoa rounds its last digit. Elsewhere a
    comparison within MARGIN of equality marks the cell undecided where
    the outcome depends on it."""
    live = np.flatnonzero(~undecided)
    w = whole[live]
    up_gap = ulp[live] / 2.0
    known = exact[live]
    margin = np.where(known, 0.0, MARGIN)
    # an end at exactly its distance is inside when m is even: low > the
    # first bound is inside, low < the second outside; an exact low is a
    # multiple of 2^-48, so +-2^-60 only breaks the tie
    inside = np.where(known, np.where(even[live], -(2.0**-60), 2.0**-60), MARGIN)
    state = np.stack([frac[live], scale[live], up_gap, up_gap / (1.0 + exact_power_of_two[live]),
                      margin, inside, np.where(known, inside, -MARGIN)])
    for k in range(1, 17):
        step = 10**k
        f, unit, up_gap, down_gap, margin, inside, outside = state
        head = w // step
        rest = w - head * step
        # distances from y down to the lower and up to the upper neighbour
        down = rest * unit + f
        up = (step - rest) * unit - f
        low, high = down_gap - down, up_gap - up
        low_in, high_in = low > inside, high > inside
        low_out, high_out = low < outside, high < outside
        take_down = low_in & ((down < up - margin) | high_out)
        take_up = high_in & ((up < down - margin) | low_out)
        # two neighbours inside at one exact distance: the even one
        tie = low_in & high_in & (margin == 0.0) & (down == up)
        if tie.any():
            odd = tie & ((head & 1) == 1)
            take_down |= tie & ~odd
            take_up |= odd
        found = take_down | take_up
        undecided[live[~(found | (low_out & high_out))]] = True
        # integer indices compact faster than a boolean mask
        kept = np.flatnonzero(found)
        live, w, head, take_up = live[kept], w[kept], head[kept], take_up[kept]
        if not live.size:
            break
        digits[live] = (head + take_up) * step
        state = state.take(kept, axis=1)


# A cell is laid out in four little-endian 64-bit words, NUL where unused:
# the sign and, before a fixed-point cell below 1, "0." and up to three
# zeros; then 17 digits with the point among them, at most 18 bytes, and
# from byte 18 of those three words either repr's ".0" or the exponent as
# "e", its sign and two or three digits.
_WORDS = 4
# rows of a block laid out at a time, which bounds the kernel's temporaries:
# a process running two sweep-dense rounds (seed 1) peaked at 46.8 MB
# resident (46.9 with CPython's cells; 45.9 with 512 rows, whose export took
# 1.15 times as long; 48.7 with 2048 rows, no faster, and 52.1 with whole
# blocks)
_SLICE_ROWS = 1024
_MINUS = ord("-")
_DOT = ord(".")
_BYTES = np.array([1 << (8 * i) for i in range(8)], dtype=np.uint64)
# per word of a three-word string, the mask of its bytes among the first
# count bytes of the string, by count = 0..18
_FIRST = np.array([[(1 << (8 * min(max(count - 8 * word, 0), 8))) - 1 for count in range(19)]
                   for word in range(3)], dtype=np.uint64)
# ASCII digits of 0..99 and of 0..9999, first digit in the lowest byte
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2").astype(np.uint64)
_QUADS = (_PAIRS[:, None] | (_PAIRS << np.uint64(16))).ravel()


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


# "0." and -X - 1 zeros after the sign byte, by -X = 1..4 (0: none)
_LEAD = np.array([0] + [_word(b"\0" + b"0." + b"0" * k) for k in range(4)], dtype=np.uint64)
# from byte 2 of the last word: ".0", and the exponent by X - _X_MIN
_DOT_ZERO = np.uint64(_word(b"\0\0.0"))
_EXPONENT = np.array([_word(b"\0\0e%+03d" % x) for x in range(_X_MIN, _X_MAX + 1)],
                     dtype=np.uint64)


def _digit_words(digits: np.ndarray) -> list[np.ndarray]:
    """The 17 ASCII digits of each integer in [1e16, 1e17), as three words."""
    quads = []
    rest = digits
    for power in (10**13, 10**9, 10**5, 10):
        quad = rest // power
        rest = rest - quad * power
        quads.append(_QUADS[quad])
    return [quads[0] | (quads[1] << np.uint64(32)), quads[2] | (quads[3] << np.uint64(32)),
            (rest + ord("0")).astype(np.uint64)]


def lay_out(values: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Each cell of the float64 array values, as CPython spells it in fmt
    ("csv": "%.17g", "jsonl": float.__repr__), laid out in one row of
    8 * _WORDS bytes; and the indices of the cells left to the caller, whose
    rows are all NUL."""
    bits = values.view(np.int64) & ((1 << 63) - 1)
    # zeros and non-finite values are worked as 1.0 and left to the caller
    skip = (bits == 0) | (bits >= 0x7FF << 52)
    bits[skip] = 0x3FF << 52
    biased = bits >> 52
    fraction = bits & ((1 << 52) - 1)
    m = fraction | ((biased != 0).astype(np.int64) << 52)
    q = np.maximum(biased, 1) - 1075
    x = np.floor(np.log10(bits.view(np.float64))).astype(np.int64)
    digits, x, n, undecided = _digits_17(m, q, x, (fraction == 0) & (biased > 1), fmt)
    undecided |= skip

    # "%g" at precision 17 writes exponent form for X < -4 or X >= 17, repr
    # for X < -4 or X >= 16; the rest is fixed-point
    scientific = (x < -4) | (x >= (17 if fmt == "csv" else 16))
    below_one = ~scientific & (x < 0)
    whole = ~scientific & ~below_one
    # the digits shown, with the zeros of an integral fixed-point cell, and
    # the point after `point` of them if a digit follows it (18: none)
    integer_digits = whole * (x + 1)
    shown = np.maximum(n, integer_digits)
    point = np.where(scientific, 1, integer_digits)
    point[below_one | (n <= point)] = 18

    laid = np.empty((values.size, _WORDS), dtype="<u8")
    laid[:, 0] = (values < 0) * np.uint64(_MINUS) | _LEAD[below_one * -x]
    # the digit string cut at the point, the upper part shifted up one byte
    # and the point put in the gap
    carry = np.zeros(values.size, dtype=np.uint64)
    dot_word, dot_shift = point >> 3, point & 7
    dot = _BYTES[dot_shift] * (point < 18) * np.uint64(_DOT)
    for i, word in enumerate(_digit_words(digits)):
        first = _FIRST[i]
        word &= first[shown]
        before = first[point]
        upper = word & ~before
        laid[:, 1 + i] = ((word & before) | (upper << np.uint64(8)) | carry
                          | dot * (dot_word == i))
        carry = upper >> np.uint64(56)
    end = scientific * _EXPONENT[x - _X_MIN]
    if fmt != "csv":
        end |= (whole & (n <= x + 1)) * _DOT_ZERO
    laid[:, 3] |= end
    left = np.flatnonzero(undecided)
    laid[left] = 0
    return laid.view(np.uint8), left


def block_text(count: int, spelled: list[np.ndarray], shown: list, seps: list[bytes],
               fmt: str, spell_left) -> bytes:
    """UTF-8 text of count rows of float columns: per row seps[0], the cell
    of the first column, seps[1], ..., the cell of the last column and
    seps[-1].

    The cells come from the float64 arrays spelled, laid out together:
    shown gives per column the index of its array in spelled (one value
    where the column is constant, else count) and whether the column is
    that array negated, whose cells are its cells with the sign byte
    toggled. spell_left(values) spells, as CPython does, the cells lay_out
    leaves; they are written from the byte after the sign. The rows are
    laid out _SLICE_ROWS at a time."""
    seps = [np.frombuffer(sep, np.uint8) for sep in seps]
    text = []
    for start in range(0, count, _SLICE_ROWS):
        rows = slice(start, start + _SLICE_ROWS)
        cells = _float_rows([v if v.size == 1 else v[rows] for v in spelled], fmt, spell_left)
        segments = []
        for sep, (part, negated) in zip(seps, shown):
            laid = cells[part]
            if negated:
                laid = laid.copy()
                laid[:, 0] ^= _MINUS
            segments += [sep, laid]
        segments.append(seps[-1])
        text.append(_joined(segments, min(count - start, _SLICE_ROWS)))
    return b"".join(text)


def _float_rows(spelled: list[np.ndarray], fmt: str, spell_left) -> list[np.ndarray]:
    """The laid-out rows of each array, from one lay_out call, with the
    cells it leaves spelled by spell_left."""
    values = np.concatenate(spelled)
    laid, left = lay_out(values, fmt)
    for row, cell in zip(left.tolist(), spell_left(values[left]) if left.size else ()):
        sign = cell[0] == "-"
        laid[row, 0] = _MINUS if sign else 0
        text = np.frombuffer(cell[sign:].encode("ascii"), np.uint8)
        laid[row, 1:1 + text.size] = text
    ends = np.cumsum([0] + [v.size for v in spelled]).tolist()
    return [laid[a:b] for a, b in zip(ends, ends[1:])]


def _joined(segments: list, rows: int) -> bytes:
    """rows rows of the segments, uint8 arrays of one row or of all rows
    with NUL where a byte is unused, side by side, read out row after row
    by one bytes.translate that deletes the NULs. No separator and no cell
    holds a NUL of its own: JSON keys come from json.dumps, which escapes
    it, and CSV's separators are "," and "\n"."""
    starts = np.cumsum([0] + [cells.shape[-1] for cells in segments]).tolist()
    block = np.empty((rows, starts[-1]), dtype=np.uint8)
    for cells, a, b in zip(segments, starts, starts[1:]):
        block[:, a:b] = cells
    return block.tobytes().translate(None, b"\0")
