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
  CPython's repr uses. The search drops one digit at a time; once the
  step is more than twice the upper half-gap, no later step can change
  the digits found, and a normal double's half-gaps are below 11.1 units,
  so its search takes at most two steps.

From 1e-4 to 1e17 c is a double with at most 46 bits after the point, and
from 1e17 to 1e31 y and c are whole multiples of 5^-(E-16); either way
every comparison is exact, and a tie or an interval end is decided as
CPython decides it: ties to even, and an end inside when m is even.
Elsewhere a cell whose decision falls within 2^-20 of a tie or an interval
end is not spelled here, nor is a zero or a non-finite value: lay_out
leaves those to the caller, and block_text has CPython spell them.

Each cell is laid out in a fixed row of 25 bytes, NUL where unused; the
rows of the block that block_text is given, cells and separators side by
side in one array, are read out by one bytes.translate that deletes every
NUL, since no separator and no cell holds one of its own. The caller sets
the block's size, and with it the size of every temporary here.
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


# _power_of_ten(i + _K_MIN) by i, for every decimal exponent
_HIS, _LOS, _SHIFTS = map(np.array, zip(*map(_power_of_ten, range(_K_MIN, 16 - _X_MIN + 1))))


def _scaled(m: np.ndarray, q: np.ndarray, x: np.ndarray):
    """y = m 2^q 10^(16-x) as integer part and fraction; c = 2^q 10^(16-x)
    rounded to a double; and whether c is that double exactly, with at most
    46 bits after the point, so that y, its distances to its neighbours and
    the half-gaps c/2 and c/4 are exact where they are compared. m is int64
    below 2^53."""
    k = 16 - x - _K_MIN
    # 2^(s+q), built from its bits: c lies in [1, 23], so the power is normal
    scale = ((_SHIFTS[k] + q + 1023) << 52).view(np.float64)
    hi, lo = _HIS[k] * scale, _LOS[k] * scale
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
    """17-digit integers D in [1e16, 1e17) and exponents X, so that the
    cell is the significant digits of D times 10^(X-16); and the mask of
    cells this cannot decide."""
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
    return digits, x, undecided


def _shortest(digits, whole, frac, scale, ulp, exact, even, exact_power_of_two, undecided):
    """Shortest digits, left-aligned to 17, written into digits: for p = 16,
    15, ... the p-digit neighbours of y inside the rounding interval, while
    there are any; frac and ulp are in units of 1/scale. Where the
    arithmetic is exact, an interval end is inside when m is even (it reads
    back to v, ties to even), and of two neighbours inside at one distance
    the even one is taken, as dtoa rounds its last digit. Elsewhere a
    comparison within MARGIN of equality marks the cell undecided where
    the outcome depends on it.

    A cell whose neighbour is inside at a step longer than twice its upper
    half-gap plus 1 (more than MARGIN) is done: every other multiple of the
    step lies more than 1 outside the interval, so each later step finds
    that same neighbour with the same integers and the same arithmetic, or
    nothing, and the search would stop there with these digits. A normal
    double's c is below 1e17 / 2^52, so its half-gaps are below 11.1 and
    its search takes at most two steps."""
    # inexact cells: inside above MARGIN, outside below -MARGIN. Exact ones:
    # an end at exactly its distance is inside when m is even, so low >
    # inside = outside is inside and low < it outside; an exact low is a
    # multiple of 2^-48, so +-2^-60 only breaks the tie. Cells already
    # undecided get gaps of -inf, which no neighbour is inside
    up_gap = ulp / 2.0
    up_gap[undecided] = -np.inf
    margin = ~exact * MARGIN
    inside = margin + exact * (2.0**-60 - even * 2.0**-59)
    state = (frac, scale, up_gap, up_gap / (1.0 + exact_power_of_two), margin, inside,
             inside - 2.0 * margin)
    live = np.arange(whole.size)
    w = whole
    for k in range(1, 17):
        step = 10**k
        found, neighbour, unsure = _neighbours(step, w, state)
        undecided[live[unsure]] = True
        digits[live[found]] = neighbour[found]
        # integer indices compact faster than a boolean mask
        kept = np.flatnonzero(found & (step * state[1] <= 2.0 * state[2] + 1.0))
        if not kept.size:
            break
        live, w, state = live[kept], w[kept], [row[kept] for row in state]


def _neighbours(step, w, state):
    """One step of _shortest on cells with integer parts w and the rows of
    state: whether a neighbour of y that is a multiple of step lies inside
    the rounding interval, that neighbour, and whether the decision is
    within MARGIN."""
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
    return found, (head + take_up) * step, ~(found | (low_out & high_out))


# A cell is laid out in four little-endian 64-bit words, of which the last
# 25 bytes are read: the sign in the last byte of the first word, then a
# string of three words, NUL where unused. It holds the 17 digits, cut at
# the point, the part after the cut shifted up one byte and the point put in
# the gap, at most 18 bytes; in a fixed-point cell below 1 the digits are
# shifted up instead behind "0." and up to three zeros, at most 22 bytes.
# From byte 18 it holds either repr's ".0" or the exponent as "e", its sign
# and two or three digits.
_WORDS = 4
_CELL = 25
_MINUS = ord("-")
# per word of a three-word string, the mask of its bytes among the first
# count bytes of the string, by count = 0..18
_FIRST = np.array([[(1 << (8 * min(max(count - 8 * word, 0), 8))) - 1 for count in range(19)]
                   for word in range(3)], dtype=np.uint64)
# ASCII digits of 0..99 and of 0..9999, first digit in the lowest byte
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2").astype(np.uint64)
_QUADS = (_PAIRS[:, None] | (_PAIRS << np.uint64(16))).ravel()
# trailing zeros of 0..9999 written in four digits
_QUAD_ZEROS = np.array([4] + [len(str(i)) - len(str(i).rstrip("0")) for i in range(1, 10**4)],
                       dtype=np.uint8)


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _insertion(place: int) -> bytes:
    """The bytes put in among the digits at place = point + 19 * lead: the
    point after `point` digits (none at 18), or before a cell below 1,
    whose point is 0, "0." and lead - 1 zeros, lead = -X."""
    point, lead = place % 19, place // 19
    return b"0." + b"0" * (lead - 1) if lead else b"." if point < 18 else b""


# by place: the shift of the digits after the bytes put in, in bits, and
# the bytes put in each word of the string
_SHIFT = np.array([8 * len(_insertion(place)) for place in range(5 * 19)], dtype=np.uint64)
_INSERTS = np.array([[(_word(_insertion(place)) << 8 * (place % 19)) >> 64 * word & (2**64 - 1)
                      for place in range(5 * 19)] for word in range(3)], dtype=np.uint64)
# from byte 2 of the last word: ".0", and the exponent by X - _X_MIN
_DOT_ZERO = np.uint64(_word(b"\0\0.0"))
_EXPONENT = np.array([_word(b"\0\0e%+03d" % x) for x in range(_X_MIN, _X_MAX + 1)],
                     dtype=np.uint64)


def _digit_words(digits: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The 17 ASCII digits of each integer in [1e16, 1e17), as three words,
    and the count n of its significant digits, 17 less its trailing zeros,
    from its four 4-digit quads and last digit (a - a // b * b is a % b for
    a >= 0, and faster in numpy)."""
    quads = []
    rest = digits
    for power in (10**13, 10**9, 10**5, 10):
        quad = rest // power
        rest = rest - quad * power
        quads.append(quad)
    n = np.full(digits.size, 17, dtype=np.uint8)
    # the first quad is at least 1000, so the loop ends at it
    ends = np.flatnonzero(rest == 0)
    n[ends] = 16
    for quad in reversed(quads):
        quad = quad[ends]
        n[ends] -= _QUAD_ZEROS[quad]
        ends = ends[quad == 0]
    words = [_QUADS[quad] for quad in quads]
    return [words[0] | (words[1] << np.uint64(32)), words[2] | (words[3] << np.uint64(32)),
            (rest + ord("0")).astype(np.uint64)], n


def lay_out(values: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Each cell of the float64 array values, as CPython spells it in fmt
    ("csv": "%.17g", "jsonl": float.__repr__), laid out in one row of 25
    bytes, the sign and 24 more; and the indices of the cells left to the
    caller, whose rows are all NUL."""
    bits = values.view(np.int64) & ((1 << 63) - 1)
    # zeros and non-finite values are worked as 1.0 and left to the caller
    skip = (bits == 0) | (bits >= 0x7FF << 52)
    bits[skip] = 0x3FF << 52
    biased = bits >> 52
    fraction = bits & ((1 << 52) - 1)
    m = fraction | ((biased != 0).astype(np.int64) << 52)
    q = np.maximum(biased, 1) - 1075
    x = np.floor(np.log10(bits.view(np.float64))).astype(np.int64)
    digits, x, undecided = _digits_17(m, q, x, (fraction == 0) & (biased > 1), fmt)
    undecided |= skip
    words, n = _digit_words(digits)

    # "%g" at precision 17 writes exponent form for X < -4 or X >= 17, repr
    # for X < -4 or X >= 16; the rest is fixed-point
    scientific = (x < -4) | (x >= (17 if fmt == "csv" else 16))
    below_one = ~scientific & (x < 0)
    whole = ~scientific & ~below_one
    # the digits shown, with the zeros of an integral fixed-point cell, and
    # where bytes go in among them: the point after `point` of them if a
    # digit follows it, or "0." and zeros before them below 1 (18: none)
    integer_digits = whole * (x + 1)
    shown = np.maximum(n, integer_digits)
    point = integer_digits + scientific
    point[n <= point] = 18
    place = point + 19 * (below_one * -x)
    shift = _SHIFT[place]
    back = np.uint64(64) - shift

    laid = np.empty((values.size, _WORDS), dtype="<u8")
    cells = laid.view(np.uint8)[:, 8 * _WORDS - _CELL:]
    cells[:, 0] = (values < 0).view(np.uint8) * np.uint8(_MINUS)
    carry = np.zeros(values.size, dtype=np.uint64)
    for i, word in enumerate(words):
        first = _FIRST[i]
        word &= first[shown]
        before = first[point]
        upper = word & ~before
        laid[:, 1 + i] = (word & before) | (upper << shift) | carry | _INSERTS[i][place]
        carry = upper >> back
    end = scientific * _EXPONENT[x - _X_MIN]
    if fmt != "csv":
        end |= (whole & (n <= x + 1)) * _DOT_ZERO
    laid[:, 3] |= end
    left = np.flatnonzero(undecided)
    cells[left] = 0
    return cells, left


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
    leaves; they are written from the byte after the sign. The count rows
    are laid out, filled in one array with the separators and read out by
    one _readout."""
    widths = [width for sep in seps[:-1] for width in (len(sep), _CELL)] + [len(seps[-1])]
    starts = np.cumsum([0] + widths).tolist()
    cells = _float_rows(spelled, fmt, spell_left)
    block = np.empty((count, starts[-1]), dtype=np.uint8)
    for sep, a in zip(seps, starts[::2]):
        block[:, a:a + len(sep)] = np.frombuffer(sep, np.uint8)
    for (part, negated), a in zip(shown, starts[1:-1:2]):
        block[:, a:a + _CELL] = cells[part]
        if negated:
            block[:, a] ^= _MINUS
    return _readout(block)


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


def _readout(block: np.ndarray) -> bytes:
    """The rows of the uint8 array block, NUL where a byte is unused, read
    out row after row by one bytes.translate that deletes the NULs. No
    separator and no cell holds a NUL of its own: JSON keys come from
    json.dumps, which escapes it, and CSV's separators are "," and "\n"."""
    return block.tobytes().translate(None, b"\0")
