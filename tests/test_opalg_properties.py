"""Property tests of the operator algebra on random small expressions."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gpchain import fock  # noqa: E402
from gpchain.coeffs import ParamCoeff  # noqa: E402
from gpchain.opalg import (  # noqa: E402
    Algebra,
    LadderOp,
    Statistics,
    adjoint,
    commutator,
)

_part = st.tuples(st.integers(-3, 3), st.integers(1, 3))
coeffs = st.builds(
    lambda re, im: ParamCoeff.rational(*re) + ParamCoeff.i() * ParamCoeff.rational(*im),
    _part, _part)


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
    assert commutator(x, y) == -commutator(y, x)
    assert commutator(x, x).is_zero()


@settings(max_examples=40, deadline=None)
@given(expressions(3, max_terms=2, max_len=2))
def test_jacobi_identity(xyz):
    x, y, z = xyz
    total = (commutator(x, commutator(y, z))
             + commutator(y, commutator(z, x))
             + commutator(z, commutator(x, y)))
    assert total.is_zero()


@settings(max_examples=100, deadline=None)
@given(expressions(2))
def test_adjoint_is_an_involution_that_reverses_products(xy):
    x, y = xy
    assert adjoint(adjoint(x)) == x
    assert adjoint(x * y) == adjoint(y) * adjoint(x)


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
    assert fock.max_interior_diff(mat(commutator(x, y)), X @ Y - Y @ X, mask) < 1e-10
    assert np.abs(mat(adjoint(x)) - X.conj().T).max() < 1e-12
