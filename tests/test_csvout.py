"""csvout.format_g17 against the formatter it replaces, "%.17g" % v."""

from decimal import Decimal

import numpy as np
import pytest

from gpchain import csvout


def _texts(x):
    """format_g17's rows with their NULs dropped, as the CSV writer drops them."""
    return [bytes(row).replace(b"\0", b"") for row in csvout.format_g17(x)]


def _oracle(x):
    return [("%.17g" % v).encode() for v in np.asarray(x, dtype=np.float64).tolist()]


def _around(values):
    """Each value, its two float64 neighbours, and the negatives of all three."""
    v = np.asarray(values, dtype=np.float64)
    near = np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])
    return np.concatenate([near, -near])


def _ties():
    """Doubles m 2^-n whose exact decimal has 18 digits ending in 5: %.17g rounds a half."""
    out = []
    for n in range(1, 80):
        for m in range(1, 400, 2):
            x = m * 2.0 ** -n
            digits = Decimal(x).normalize().as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                out.append(x)
    return out


def _edges():
    rng = np.random.default_rng(14)
    powers = [float(f"1e{p}") for p in range(-300, 301)]
    ties = _ties()
    big_ints = rng.integers(2 ** 53, 10 ** 17, 2000).astype(np.float64)
    return {
        "powers of ten": _around(powers),
        "ties": _around(ties),
        "integers in [2^53, 1e17]": _around([2.0 ** 53, 1e16, 1e17, *big_ints]),
        "zeros among values": rng.choice([0.0, -0.0, 1.5, -2e-300, np.nan, 1e100], 3000),
        "specials": np.array([
            99999999999999999.0, 1e-4, np.nextafter(1e-4, 0), 1e-5, 1.1e178,
            1.102907506344507e+178, -4.4116300253780288e+173, 0.5, 1.5, 2.5, 0.0, -0.0,
            np.inf, -np.inf, np.nan, -np.nan, 5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 1e270, 1e-270, 1e271, 1e-271, 123456789012345678.0,
            0.1, 0.30000000000000004, 1234.5, 10.000000000000002, 9999999999999998.0,
        ]),
    }


_EDGES = _edges()


@pytest.mark.parametrize("name", sorted(_EDGES))
def test_edge_values_match_percent_g17(name):
    x = _EDGES[name]
    assert _texts(x) == _oracle(x)


class _CountingNumpy:
    """numpy as csvout sees it, counting np.frombuffer: once per row that
    format_g17 makes the slow way, reading back the text of "%.17g" % v."""

    def __init__(self):
        self.frombuffer_calls = 0

    def frombuffer(self, *args, **kwargs):
        self.frombuffer_calls += 1
        return np.frombuffer(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def test_powers_of_ten_take_the_vectorized_path(monkeypatch):
    # the first guess N = 10^16 is right for a power of ten; k - 1 gives
    # 10^17, which once sent the row through the per-value fallback
    powers = np.array([float(f"1e{m}") for m in range(-270, 271)])
    x = np.concatenate([powers, -powers, [np.nan]])  # NaN takes the fallback
    csvout._tables()  # built on first use, with a frombuffer of its own
    counting = _CountingNumpy()
    monkeypatch.setattr(csvout, "np", counting)
    texts = _texts(x)
    monkeypatch.undo()
    assert counting.frombuffer_calls == 1
    assert texts == _oracle(x)


def test_random_values_match_percent_g17():
    rng = np.random.default_rng(1971)
    bits = rng.integers(0, 2 ** 64, size=50_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
    for x in (bits, scaled, rng.random(20_000)):
        assert _texts(x) == _oracle(x)


def test_rows_and_lines():
    cells = csvout.format_g17([1.0, -2.5e-7, 1e300])
    assert cells.shape == (3, csvout.WIDTH) and cells.dtype == np.uint8
    text = b"".join(csvout.lines(csvout.cells(["a", "bc", ""]), b",", cells, b"\n"))
    assert text == b"a,1\nbc,-2.4999999999999999e-07\n,1.0000000000000001e+300\n"
    # leading axes broadcast: a (2, 3) table of lines from (2, 1) and (3,) columns
    text = b"".join(csvout.lines(csvout.cells(["x", "y"])[:, None], b",", cells, b"\n"))
    assert text.split(b"\n")[:4] == [b"x,1", b"x,-2.4999999999999999e-07",
                                     b"x,1.0000000000000001e+300", b"y,1"]
    assert text.count(b"\n") == 6


def test_power_rows_match_the_python_int_construction():
    # each row 10^m = hi + lo, m = 16 - k, pinned byte for byte to the exact
    # construction it replaced: hi is the int quotient, correctly rounded;
    # hi's Veltkamp halves; lo the rounded rest (10^m - hi), all in ints
    hi, lo = [], []
    for k in range(csvout._K_MIN, csvout._K_MAX + 1):
        m = 16 - k
        num, den = (10 ** m, 1) if m >= 0 else (1, 10 ** -m)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    c = csvout._SPLIT * hi
    high = c - (c - hi)
    want = np.stack([hi, high, hi - high, np.array(lo)])
    powers = csvout._tables()[0]
    assert powers.shape == (4, csvout._K_MAX - csvout._K_MIN + 1)
    for row, want_row in zip(powers, want):
        assert row.tobytes() == want_row.tobytes()


def _blocks():
    """Blocks of different sizes and contents, the edge cases among them."""
    rng = np.random.default_rng(34)
    dense = rng.standard_normal(6000) * np.exp(-rng.random(6000) * 40)
    return [dense, _EDGES["specials"], np.concatenate([_EDGES["ties"], dense[:50]]),
            dense[:7], _EDGES["powers of ten"], _EDGES["zeros among values"]]


def test_one_workspace_gives_the_bytes_of_fresh_calls():
    # blocks of different sizes in alternating order through one workspace:
    # every row, NUL slots included, and every line are those of fresh calls
    blocks = _blocks()
    work = csvout.Workspace()
    lead = csvout.cells(["a", "bcd"])[:, None]
    for x in blocks + blocks[::-1] + blocks:
        fresh = csvout.format_g17(x)
        assert not fresh[:, -1].any()  # the slot a writer may fill
        assert np.array_equal(csvout.format_g17(x, work), fresh)
        cells = csvout.format_g17(x[:len(x) // 2 * 2], work).reshape(2, -1, csvout.WIDTH)
        text = list(csvout.lines(lead, b",", cells, b"\n", work=work))
        assert b"".join(text) == b"".join(csvout.lines(lead, b",", cells.copy(), b"\n"))


def test_text_and_fresh_rows_are_not_changed_by_later_calls():
    blocks = _blocks()
    kept = csvout.format_g17(blocks[1])  # no workspace: the caller's array
    want = kept.copy()
    work = csvout.Workspace()
    texts, wanted = [], []
    for x in blocks:
        cells = csvout.format_g17(x, work)
        texts += csvout.lines(cells, b"\n", work=work)
        wanted += [text + b"\n" for text in _oracle(x)]
    assert np.array_equal(kept, want)
    assert b"".join(texts) == b"".join(wanted)


def test_lines_in_pieces_are_the_lines_in_one(monkeypatch):
    # the table is NUL-dropped in equal parts of its first axis
    x = _blocks()[0][:5 * 2 * 300]
    cells = csvout.format_g17(x).reshape(5, 300, 2, -1)
    columns = (csvout.cells(["t0", "t1", "t2", "t3", "t4"])[:, None, :],
               csvout.cells([f",{i}," for i in range(300)]),
               cells[..., 0, :], b",", cells[..., 1, :], b"\n")
    whole = list(csvout.lines(*columns))
    monkeypatch.setattr(csvout, "_TEXT_BYTES", 20_000)
    pieces = list(csvout.lines(*columns, work=csvout.Workspace()))
    assert len(whole) == 1 and len(pieces) == 5
    assert b"".join(pieces) == whole[0]
