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


def test_random_values_match_percent_g17():
    rng = np.random.default_rng(1971)
    bits = rng.integers(0, 2 ** 64, size=50_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
    for x in (bits, scaled, rng.random(20_000)):
        assert _texts(x) == _oracle(x)


def test_rows_and_lines():
    cells = csvout.format_g17([1.0, -2.5e-7, 1e300])
    assert cells.shape == (3, csvout.WIDTH) and cells.dtype == np.uint8
    text = csvout.lines(csvout.cells(["a", "bc", ""]), b",", cells, b"\n")
    assert text == b"a,1\nbc,-2.4999999999999999e-07\n,1.0000000000000001e+300\n"
