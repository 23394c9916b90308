"""Property tests of the operator algebra on random small expressions."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gpchain import fock  # noqa: E402
from gpchain.coeffs import ParamCoeff  # noqa: E402
from gpchain.models import derive_eom  # noqa: E402
from gpchain.opalg import (  # noqa: E402
    Algebra,
    LadderOp,
    Statistics,
)
from gpchain.symbolmap import FieldFactor, FieldPoly  # noqa: E402
from gpchain.textform import (  # noqa: E402
    coeff_from_text,
    expr_from_text,
    poly_from_text,
)

_part = st.tuples(st.integers(-3, 3), st.integers(1, 3))
coeffs = st.builds(
    lambda re, im: ParamCoeff.rational(*re) + ParamCoeff.i() * ParamCoeff.rational(*im),
    _part, _part)


_symbols = st.sampled_from(["s", "J[0,1]", "R[1,0]", "h[2]"])
# sums of up to three parametric monomials; terms may merge or cancel
param_coeffs = st.lists(
    st.tuples(coeffs, st.lists(st.tuples(_symbols, st.integers(1, 2)), max_size=2)),
    max_size=3,
).map(lambda terms: sum(
    (c * ParamCoeff({tuple(mono): 1}) for c, mono in terms), ParamCoeff.zero()))
_fields = st.builds(FieldFactor, st.booleans(), st.integers(-1, 2), st.integers(0, 1))
field_polys = st.lists(
    st.tuples(st.lists(st.tuples(_fields, st.integers(1, 2)), max_size=3), param_coeffs),
    max_size=3,
).map(FieldPoly)


@settings(max_examples=100, deadline=None)
@given(st.lists(param_coeffs, min_size=3, max_size=3))
def test_param_coeff_ring_identities(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert hash(x + y) == hash(y + x)
    assert x * (y + z) == x * y + x * z
    assert hash(x * (y + z)) == hash(x * y + x * z)
    assert (x - x).is_zero()
    assert coeff_from_text(str(x)) == x


@settings(max_examples=100, deadline=None)
@given(st.lists(field_polys, min_size=3, max_size=3))
def test_field_poly_ring_identities(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert hash(x + y) == hash(y + x)
    assert x * (y + z) == x * y + x * z
    assert hash(x * (y + z)) == hash(x * y + x * z)
    assert (x - x).is_zero()
    assert poly_from_text(str(x)) == x


@st.composite
def expressions(draw, count, nsites=3, nflavors=2, max_terms=3, max_len=3):
    """count expressions of one statistics, each a sum of random words."""
    alg = Algebra(draw(st.sampled_from(Statistics)))
    ladders = st.builds(LadderOp, st.booleans(), st.integers(0, nsites - 1),
                        st.integers(0, nflavors - 1))
    terms = st.lists(st.tuples(st.lists(ladders, max_size=max_len), coeffs),
                     min_size=1, max_size=max_terms)
    return [sum((alg.from_word(w, c) for w, c in draw(terms)), alg.zero())
            for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(expressions(2))
def test_commutator_is_antisymmetric(xy):
    x, y = xy
    assert x.commutator(y) == -y.commutator(x)
    assert x.commutator(x).is_zero()


@settings(max_examples=40, deadline=None)
@given(expressions(3, max_terms=2, max_len=2))
def test_jacobi_identity(xyz):
    x, y, z = xyz
    total = (x.commutator(y.commutator(z))
             + y.commutator(z.commutator(x))
             + z.commutator(x.commutator(y)))
    assert total.is_zero()


@settings(max_examples=100, deadline=None)
@given(expressions(1, max_terms=4, max_len=5))
def test_derive_eom_equals_full_commutator(x):
    # words of length 0 to 5: constants, odd fermionic words off the mode, and
    # words on the mode all enter; the full commutator is the oracle
    (H,) = x
    alg = Algebra(H.statistics)
    for site in H.sites():
        for flavor in H.flavors():
            assert derive_eom(H, site, flavor) == H.commutator(alg.a(site, flavor))


@settings(max_examples=100, deadline=None)
@given(expressions(2))
def test_adjoint_is_an_involution_that_reverses_products(xy):
    x, y = xy
    assert x.adjoint().adjoint() == x
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


@settings(max_examples=100, deadline=None)
@given(expressions(1))
def test_expr_text_round_trip(x):
    (x,) = x
    assert expr_from_text(str(x), x.statistics) == x


@settings(max_examples=60, deadline=None)
@given(expressions(2, nsites=2, nflavors=1))
def test_fock_oracle_matches_commutator_and_adjoint(xy):
    # fermionic matrices are exact; bosonic ones are exact on the basis
    # states that a word of the combined degree cannot push past the cutoff
    x, y = xy
    margin = x.degree() + y.degree()
    cutoff = margin + 1
    stats = x.statistics

    def mat(e):
        return fock.to_matrix(e, 2, cutoff, nflavors=1)

    X, Y = mat(x), mat(y)
    mask = fock.interior_mask(2, cutoff, margin, statistics=stats)
    assert mask.all() if stats is Statistics.FERMI else mask.any()
    assert fock.max_interior_diff(mat(x.commutator(y)), X @ Y - Y @ X, mask) < 1e-10
    assert np.abs(mat(x.adjoint()) - X.conj().T).max() < 1e-12
