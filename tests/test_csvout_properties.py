"""Property test of csvout.format_g17 on raw float64 bit patterns."""

import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gpchain import csvout  # noqa: E402

# every 64-bit pattern: NaN payloads, both zeros, subnormals and infinities
doubles = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(doubles, min_size=1, max_size=40))
def test_bit_patterns_match_percent_g17(values):
    rows = [bytes(row).replace(b"\0", b"") for row in csvout.format_g17(values)]
    assert rows == [("%.17g" % v).encode() for v in values]
