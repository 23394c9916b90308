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
one slot.  The slots a value does not print hold NUL, and so does the
last slot of every row, which a writer may fill with a separator.

The work arrays.  A file written in blocks formats each block in the
arrays of one Workspace: every temporary the size of a block, the cells
format_g17 returns and the table of lines are written into arrays that
the workspace keeps, so after its first block a file allocates little
more than the text of each block.  The table is NUL-dropped in pieces
of at most about _TEXT_BYTES, which bounds the table and the text made
from it.  Every operation keeps its operands and order, so the bytes are
those of the plain expressions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_NDIG = 17
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for float64
_TIE = 2.0 ** -36
_RANGE = (1e-270, 1e270)
_K_MIN, _K_MAX = -271, 271  # floor(log10 |x|) over _RANGE, one to spare

# slots of a row: sign, 0.000 prefix, d0, point, d1..d16, spare digit slot, e+ddd,
# and a last slot left NUL, where a writer may put the separator that follows
_SIGN, _LEAD, _D0, _P0, _D1 = 0, 1, 6, 7, 8
_EXP = _D1 + _NDIG
WIDTH = _EXP + 6

_TEXT_BYTES = 1 << 18  # the most bytes of a table of lines NUL-dropped at once

_DOT, _ZERO, _MINUS = np.uint8(ord(".")), np.uint8(ord("0")), np.uint8(ord("-"))


class Workspace:
    """The work arrays of one CSV file, reused from block to block.

    Each array is a view of a buffer with a name, grown to the most bytes
    a call has asked of it.  format_g17's result is one of them, so the
    next call with the same workspace overwrites it; lines() yields new
    text.  A workspace serves one thread at a time.
    """

    def __init__(self):
        self._buffers = {}

    def __call__(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of shape and dtype over the buffer called name."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

    def text(self, shape: tuple):
        """A bytearray, and a uint8 array of shape over its leading bytes; the
        bytes after them are NUL."""
        size = math.prod(shape)
        buf = self._buffers.get("text")
        if buf is None or len(buf) < size:
            buf = self._buffers["text"] = bytearray(size)
        table = np.frombuffer(buf, dtype=np.uint8)
        table[size:] = 0
        return buf, table[:size].reshape(shape)


@functools.cache
def _tables():
    """Rows hi, hi's Veltkamp halves, lo with hi + lo = 10^(16-k), and each k's
    row template, both with one row per k from _K_MIN; and the 4-digit ASCII
    of 0..9999."""
    hi, lo = [], []
    q = 10 ** (_K_MAX - 16)
    for _ in range(_K_MAX - 16):  # m = 16 - k < 0: 10^m = 1 / q
        h = 1 / q  # int / int is correctly rounded
        hn, hd = h.as_integer_ratio()  # hd = 2^e, and 1/q - h = (hd - hn q) / q / 2^e
        hi.append(h)
        lo.append(math.ldexp((hd - hn * q) / q, 1 - hd.bit_length()))
        q //= 10
    for _ in range(17 - _K_MIN):  # m >= 0: 10^m = q, and h is an integer
        h = float(q)
        hi.append(h)
        lo.append(float(q - int(h)))
        q *= 10
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        fixed = -4 <= k < 17
        lead = b"0." + b"0" * (-1 - k) if fixed and k < 0 else b""
        point = b"." if k == 0 or not fixed else b"\0"
        exponent = b"" if fixed else b"e%+03d" % k
        rows.append(b"\0" + lead.ljust(5, b"\0") + b"\0" + point + bytes(_NDIG)
                    + exponent.ljust(6, b"\0"))
    template = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), WIDTH)
    ascii4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # [a, b, c, d] = "abcd"
    digit = np.arange(10, dtype=np.uint8) + _ZERO
    for place in range(4):
        ascii4[..., place] = digit.reshape((-1,) + (1,) * (3 - place))
    hi = np.array(hi[::-1])  # from m = 16 - _K_MIN down: k from _K_MIN up
    powers = np.stack([hi, *_split(hi), np.array(lo[::-1])])
    tables = powers, template, ascii4.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _split(a, high=None, low=None):
    """Veltkamp's halves high + low == a, written into high and low if given."""
    c = np.multiply(_SPLIT, a, out=high)
    high = np.subtract(c, np.subtract(c, a, out=low), out=c)
    return high, np.subtract(a, high, out=low)


def _scaled(a, row, rows, tie):
    """round(a 10^(16-k)) as int64, and whether its fraction is within _TIE of
    1/2, for k = row + _K_MIN.

    rows are six float64 arrays the size of a, each product and sum written
    into one whose value is no longer needed; the result is the first
    one's memory as int64, and tie.
    """
    r0, r1, r2, r3, r4, r5 = rows
    powers = _tables()[0]
    # every row is in range; with out=, take's default mode "raise" takes into a copy
    p = np.multiply(a, np.take(powers[0], row, mode="clip", out=r1), out=r2)
    b1 = np.take(powers[1], row, mode="clip", out=r1)
    b2 = np.take(powers[2], row, mode="clip", out=r3)
    a1, a2 = _split(a, r0, r4)
    # p + e == a b exactly, e = ((a1 b1 - p) + a1 b2 + a2 b1) + a2 b2
    e = np.subtract(np.multiply(a1, b1, out=r5), p, out=r5)
    e += np.multiply(a1, b2, out=a1)
    e += np.multiply(a2, b1, out=b1)
    e += np.multiply(a2, b2, out=b2)
    b_lo = np.take(powers[3], row, mode="clip", out=r1)
    whole = np.floor(p, out=r3)
    r = np.subtract(p, whole, out=p)  # (p - whole) + (e + a b_lo)
    r += np.add(e, np.multiply(a, b_lo, out=b_lo), out=b_lo)
    below = np.floor(r, out=r4)
    frac = np.subtract(r, below, out=r)
    n, m = r0.view(np.int64), r5.view(np.int64)
    np.copyto(n, whole, casting="unsafe")
    np.copyto(m, below, casting="unsafe")
    n += m
    np.copyto(m, np.greater(frac, 0.5, out=tie))
    n += m
    np.less(np.abs(np.subtract(frac, 0.5, out=r1), out=r1), _TIE, out=tie)
    return n, tie


def _ascii_digits(n, q, rest, word, words):
    """The last 17 decimal digits of each n < 10^20, as (len(n), 17) uint8 ASCII.

    q and rest are int64 arrays like n, which is overwritten, word a uint32
    one, and words the (len(n), 5) uint32 array the digits are written in.
    """
    ascii4 = _tables()[2]
    quotients = q, n
    for col in range(4, 0, -1):
        high = np.floor_divide(n, 10000, out=quotients[col % 2])
        np.subtract(n, np.multiply(high, 10000, out=rest), out=rest)
        words[:, col] = np.take(ascii4, rest, mode="clip", out=word)
        n = high
    words[:, 0] = np.take(ascii4, n, mode="clip", out=word)
    return words.view(np.uint8)[:, 3:]


def format_g17(x, work: Workspace = None) -> np.ndarray:
    """A (len(x), WIDTH) uint8 array whose row i, without NULs, is "%.17g" % x[i].

    With a workspace the array is the workspace's, valid until its next call.
    """
    w = Workspace() if work is None else work
    x = np.ravel(np.asarray(x, dtype=np.float64))
    size = x.size
    # eight float64 rows, each also taken as int64 or uint32 once its value is dead
    rows = w("rows", (8, size))
    a, row = rows[0], rows[1].view(np.int64)  # row = k - _K_MIN, k's row in the tables
    zero, fast, tie, slow, flag, either = w("flags", (6, size), bool)
    np.abs(x, out=a)
    np.equal(a, 0, out=zero)
    np.greater_equal(a, _RANGE[0], out=fast)
    fast &= np.less_equal(a, _RANGE[1], out=flag)  # False for 0, inf and nan
    # no power of ten, so k needs no correction
    np.copyto(a, 2.0, where=np.logical_not(fast, out=flag))
    k = np.floor(np.log10(a, out=rows[2]), out=rows[2])
    np.copyto(row, np.subtract(k, _K_MIN, out=k), casting="unsafe")
    n, tie = _scaled(a, row, rows[2:], tie)
    # k is one too big where N < 10^16 and may be where N == 10^16; where k - 1
    # then gives 10^17, |x| rounds up to 10^k and the first (k, 10^16) stands
    up = np.greater_equal(n, 10 ** 17, out=flag)
    down = np.less_equal(n, 10 ** 16, out=either)
    redo = np.flatnonzero(np.logical_or(up, down, out=slow))
    if redo.size:
        first = (n[redo] == 10 ** 16) & ~tie[redo]
        row[redo] += up[redo].astype(np.int64) - down[redo]
        n[redo], tie[redo] = _scaled(a[redo], row[redo], np.empty((6, redo.size)),
                                     np.empty(redo.size, bool))
        back = redo[first & (n[redo] >= 10 ** 17) & ~tie[redo]]
        row[back] += 1
        n[back] = 10 ** 16
    np.logical_not(np.logical_or(fast, zero, out=slow), out=slow)
    slow |= tie
    if redo.size:  # every other row has 10^16 < N < 10^17
        slow[redo] |= (n[redo] < 10 ** 16) | (n[redo] >= 10 ** 17)

    # a is dead: its row holds a uint32 word; the last three rows hold the digits
    digits = _ascii_digits(n, rows[3].view(np.int64), rows[4].view(np.int64),
                           a.view(np.uint32)[:size],
                           rows[5:].reshape(-1).view(np.uint32)[:5 * size].reshape(size, 5))
    # %g drops the zeros after the last nonzero digit, but not those before
    # the point; only a row that ends in 0 shows fewer than 17 digits
    shown = rows[3].view(np.int64)
    shown.fill(_NDIG)
    tail = np.flatnonzero(np.equal(digits[:, -1], _ZERO, out=flag))
    if tail.size:
        kt, ends = row[tail] + _K_MIN, digits[tail]
        last = np.maximum(_NDIG - np.argmax(ends[:, ::-1] != _ZERO, axis=1),
                          np.where((kt >= 0) & (kt < 17), kt + 1, 1))
        shown[tail] = last
        ends *= np.arange(_NDIG) < last[:, None]
        digits[tail] = ends

    out = np.take(_tables()[1], row, axis=0, mode="clip", out=w("out", (size, WIDTH), np.uint8))
    np.multiply(np.signbit(x, out=flag).view(np.uint8), _MINUS, out=out[:, _SIGN])
    out[:, _D0] = digits[:, 0]
    np.copyto(out[:, _D0], _ZERO, where=zero)
    out[:, _D1:_EXP - 1] = digits[:, 1:]
    if tail.size:
        out[tail[last == 1], _P0] = 0  # no digit follows the point
    # for 1 <= k < 16 the point follows digit k and moves the later digits right
    late = np.greater_equal(row, 1 - _K_MIN, out=flag)
    late &= np.less(row, 16 - _K_MIN, out=either)
    late = np.flatnonzero(late)
    late = late[shown[late] > row[late] + (_K_MIN + 1)]
    for point in set((row[late] + (_D1 + _K_MIN)).tolist()):
        moved = late[row[late] + (_D1 + _K_MIN) == point]
        out[moved, point + 1:_EXP] = out[moved, point:_EXP - 1]
        out[moved, point] = _DOT
    for i in np.flatnonzero(slow):
        text = ("%.17g" % x[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def cells(texts) -> np.ndarray:
    """Strings as rows of a NUL-padded uint8 array."""
    table = np.array([t.encode() for t in texts], dtype=np.bytes_)
    return table.view(np.uint8).reshape(table.size, -1)


def lines(*columns, work: Workspace = None):
    """Lines of text from columns laid side by side, NULs dropped, as pieces of text.

    A column is constant bytes or a uint8 array (..., width) of cells.  The
    arrays' leading axes broadcast to the shape of the table, which holds one
    line per element, in C order.  The table is laid out and NUL-dropped in
    equal parts along its first axis, each of at most about _TEXT_BYTES (or
    one index of the axis), each column written into its slice, in the
    workspace when one is given; each part yields new text.
    """
    parts = [col if isinstance(col, np.ndarray) else np.frombuffer(col, dtype=np.uint8)
             for col in columns]
    shape = np.broadcast_shapes(*(part.shape[:-1] for part in parts)) or (1,)
    width = sum(part.shape[-1] for part in parts)
    w = Workspace() if work is None else work
    pieces = max(1, -(-math.prod(shape) * width // _TEXT_BYTES))
    step = max(1, -(-shape[0] // pieces))
    for first in range(0, shape[0], step):
        stop = min(first + step, shape[0])
        buf, table = w.text((stop - first, *shape[1:], width))
        end = 0
        for part in parts:
            start, end = end, end + part.shape[-1]
            along = part.ndim > len(shape) and part.shape[0] > 1  # not broadcast on axis 0
            table[..., start:end] = part[first:stop] if along else part
        yield buf.translate(None, b"\0")
