"""CSV text made with numpy: floats exactly as "%.17g" writes them.

format_g17(x) gives each value a row of WIDTH bytes that holds the bytes
of "%.17g" % v in order, with NULs among and after them.  lines() lays
such cells and constant text side by side in one table of lines and
drops the NULs.

The digits.  With k = floor(log10 |x|), the 17 significant digits are
N = round(|x| 10^(16-k)), so 10^16 <= N < 10^17; where N falls outside,
log10 was one off and k is corrected; N = 10^16 is tried at k - 1 and
stands where that gives 10^17, as at a power of ten.  10^(16-k) is a pair
hi + lo of float64s, exact to about 2^-106, built from Python ints on first use.
Dekker's two-product, with Veltkamp's split, gives |x| hi = p + e
exactly, so N's fraction is known to about 2^-47, and its rounding is
exact unless the fraction lies within 2^-36 of 1/2.  There, and for
non-finite values and |x| outside [1e-270, 1e270] (where a product could
leave the normal range), the row is "%.17g" % v itself, made one value
at a time.  A zero takes the row of 2 with its digit made 0: "0", "-0".

The layout.  %g writes fixed notation for -4 <= k < 17 and exponent
notation otherwise, and drops the zeros after the last nonzero digit of
the fraction, and the point with them.  Each k has a template row: a
sign slot, "0.000" as far as k < 0 needs it, the digit slots with a
point after the first where k is 0 or the notation exponent, and the
"e+ddd" of exponent notation.  The digits are put into it; for
1 <= k < 16 the point follows digit k and the later digits move right by
one slot.  The slots a value does not print hold NUL.
"""

from __future__ import annotations

import functools

import numpy as np

_NDIG = 17
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for float64
_TIE = 2.0 ** -36
_RANGE = (1e-270, 1e270)
_K_MIN, _K_MAX = -271, 271  # floor(log10 |x|) over _RANGE, one to spare

# slots of a row: sign, 0.000 prefix, d0, point, d1..d16, spare digit slot, e+ddd
_SIGN, _LEAD, _D0, _P0, _D1 = 0, 1, 6, 7, 8
_EXP = _D1 + _NDIG
WIDTH = _EXP + 5

_DOT, _ZERO = np.uint8(ord(".")), np.uint8(ord("0"))


@functools.cache
def _tables():
    """Rows hi, hi's Veltkamp halves, lo with hi + lo = 10^m, for m = 16 - k;
    each k's row template; and the 4-digit ASCII of 0..9999."""
    hi, lo = [], []
    for m in range(16 - _K_MAX, 17 - _K_MIN):
        num, den = (10 ** m, 1) if m >= 0 else (1, 10 ** -m)
        h = num / den  # int / int is correctly rounded
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        fixed = -4 <= k < 17
        lead = b"0." + b"0" * (-1 - k) if fixed and k < 0 else b""
        point = b"." if k == 0 or not fixed else b"\0"
        exponent = b"" if fixed else b"e%+03d" % k
        rows.append(b"\0" + lead.ljust(5, b"\0") + b"\0" + point + bytes(_NDIG)
                    + exponent.ljust(5, b"\0"))
    template = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), WIDTH)
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    ascii4 = (np.arange(10000, dtype=np.uint16)[:, None] // place % 10).astype(np.uint8) + _ZERO
    hi = np.array(hi)
    powers = np.stack([hi, *_split(hi), np.array(lo)], axis=1)
    tables = powers, template, ascii4.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(a, k):
    """round(a 10^(16-k)) as int64, and whether its fraction is within _TIE of 1/2."""
    b, b1, b2, b_lo = _tables()[0].take(_K_MAX - k, axis=0).T
    p = a * b  # p + e == a b exactly
    a1, a2 = _split(a)
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    whole = np.floor(p)
    r = (p - whole) + (e + a * b_lo)
    below = np.floor(r)
    frac = r - below
    n = whole.astype(np.int64) + below.astype(np.int64) + (frac > 0.5)
    return n, np.abs(frac - 0.5) < _TIE


def _ascii_digits(n):
    """The last 17 decimal digits of each n < 10^20, as (len(n), 17) uint8 ASCII."""
    ascii4 = _tables()[2]
    words = np.empty((n.size, 5), dtype=np.uint32)
    for col in range(4, 0, -1):
        high = n // 10000
        words[:, col] = ascii4.take(n - high * 10000)
        n = high
    words[:, 0] = ascii4.take(n)
    return words.view(np.uint8)[:, 3:]


def format_g17(x) -> np.ndarray:
    """A (len(x), WIDTH) uint8 array whose row i, without NULs, is "%.17g" % x[i]."""
    x = np.ravel(np.asarray(x, dtype=np.float64))
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _RANGE[0]) & (a <= _RANGE[1])  # False for 0, inf and nan
    a = np.where(fast, a, 2.0)  # no power of ten, so k needs no correction
    k = np.floor(np.log10(a)).astype(np.int64)
    n, tie = _scaled(a, k)
    # k is one too big where N < 10^16 and may be where N == 10^16; where k - 1
    # then gives 10^17, |x| rounds up to 10^k and the first (k, 10^16) stands
    step = (n >= 10 ** 17).astype(np.int64) - (n <= 10 ** 16)
    redo = np.flatnonzero(step)
    if redo.size:
        first = (n[redo] == 10 ** 16) & ~tie[redo]
        k[redo] += step[redo]
        n[redo], tie[redo] = _scaled(a[redo], k[redo])
        back = redo[first & (n[redo] >= 10 ** 17) & ~tie[redo]]
        k[back] += 1
        n[back] = 10 ** 16
    slow = ~(fast | zero) | tie | (n < 10 ** 16) | (n >= 10 ** 17)

    digits = _ascii_digits(n)
    # %g drops the zeros after the last nonzero digit, but not those before the point
    shown = np.full(x.size, _NDIG)
    tail = np.flatnonzero(digits[:, -1] == _ZERO)
    kt = k[tail]
    shown[tail] = np.maximum(_NDIG - np.argmax(digits[tail, ::-1] != _ZERO, axis=1),
                             np.where((kt >= 0) & (kt < 17), kt + 1, 1))
    digits[tail] *= np.arange(_NDIG) < shown[tail, None]

    out = _tables()[1].take(k - _K_MIN, axis=0)
    out[:, _SIGN] = np.signbit(x) * np.uint8(ord("-"))
    out[:, _D0] = np.where(zero, _ZERO, digits[:, 0])
    out[:, _D1:_EXP - 1] = digits[:, 1:]
    out[shown == 1, _P0] = 0  # no digit follows the point
    # for 1 <= k < 16 the point follows digit k and moves the later digits right
    late = np.flatnonzero((k >= 1) & (k < 16) & (shown > k + 1))
    for point in set((_D1 + k[late]).tolist()):
        rows = late[_D1 + k[late] == point]
        out[rows, point + 1:_EXP] = out[rows, point:_EXP - 1]
        out[rows, point] = _DOT
    for i in np.flatnonzero(slow):
        text = ("%.17g" % x[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def cells(texts) -> np.ndarray:
    """Strings as rows of a NUL-padded uint8 array."""
    table = np.array([t.encode() for t in texts], dtype=np.bytes_)
    return table.view(np.uint8).reshape(table.size, -1)


def lines(*columns) -> bytes:
    """Lines of text from columns laid side by side, NULs dropped.

    A column is constant bytes or a uint8 array (..., width) of cells.  The
    arrays' leading axes broadcast to the shape of the table, which holds one
    line per element, in C order; it is allocated once and each column is
    written into its slice.
    """
    parts = [col if isinstance(col, np.ndarray) else np.frombuffer(col, dtype=np.uint8)
             for col in columns]
    shape = np.broadcast_shapes(*(part.shape[:-1] for part in parts))
    table = np.empty(shape + (sum(part.shape[-1] for part in parts),), dtype=np.uint8)
    end = 0
    for part in parts:
        start, end = end, end + part.shape[-1]
        table[..., start:end] = part
    return table.tobytes().translate(None, b"\0")
