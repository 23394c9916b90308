"""Property tests of the Fock-matrix realization against dense products."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gpchain import fock, models  # noqa: E402
from gpchain.coeffs import ParamCoeff  # noqa: E402
from gpchain.opalg import Algebra, LadderOp, Statistics  # noqa: E402


def _dense_product(expr, nsites, cutoff, bindings, nflavors):
    """expr as sum of coeff * (eye @ F1 @ F2 @ ...) over ladder_matrices factors."""
    ann = fock.ladder_matrices(nsites, cutoff, expr.statistics, nflavors)
    dim = ann[0].shape[0]
    mat = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim)
    for word, coeff in expr.terms():
        acc = eye
        for f in word:
            m = fock.mode_index(f.site, f.flavor, nsites)
            acc = acc @ (ann[m].conj().T if f.dagger else ann[m])
        mat += coeff.evaluate(bindings) * acc
    return mat


_coeffs = st.one_of(
    st.builds(ParamCoeff.rational, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(lambda c, p: ParamCoeff.symbol("g", p) * ParamCoeff.rational(c),
              st.integers(-2, 2), st.integers(1, 2)),
)


@st.composite
def cases(draw):
    """(expr, nsites, cutoff, nflavors, bindings) on a space of at most 64 states."""
    stats = draw(st.sampled_from(Statistics))
    nflavors = draw(st.integers(1, 2))
    nsites = draw(st.integers(1, 3))
    cutoff = draw(st.integers(1, 3))
    radix = 2 if stats is Statistics.FERMI else cutoff + 1
    if radix ** (nflavors * nsites) > 64:
        nsites = 1
    ops = st.builds(LadderOp, st.booleans(), st.integers(0, nsites - 1),
                    st.integers(0, nflavors - 1))
    terms = draw(st.lists(st.tuples(st.lists(ops, max_size=5), _coeffs), max_size=4))
    alg = Algebra(stats)
    expr = sum((alg.from_word(w, c) for w, c in terms), alg.zero())
    g = draw(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    return expr, nsites, cutoff, nflavors, {"g": g}


B, F = Algebra(Statistics.BOSE), Algebra(Statistics.FERMI)
# the Hamiltonian that verify-derivation's matrix oracle realizes
_P3 = models.XXZParams(N=3, J0=1.0, R0=0.7, s=1.0, h=(0.2, -0.1, 0.4))
_H3 = models.build_xxz_bosonized(_P3, models.CouplingMode.SYMBOLIC)


@settings(max_examples=300, deadline=None)
@given(cases())
# a creator at the cutoff, repeated fermion factors, the empty word, zero
@example((B.ad(0) * B.ad(0) * B.ad(0) * B.a(0), 2, 2, 1, {}))
@example((F.ad(0, 1) * F.a(0, 1) * F.ad(0, 1) + F.ad(1) * F.a(0), 2, 1, 2, {}))
@example((B.identity().scale(ParamCoeff.symbol("g")) + B.a(1), 2, 1, 1, {"g": 0.5j}))
@example((F.zero(), 3, 1, 1, {}))
@example((_H3, 3, 4, 1, models.xxz_bindings(_P3)))
def test_to_matrix_equals_the_dense_ladder_product(case):
    expr, nsites, cutoff, nflavors, bindings = case
    got = fock.to_matrix(expr, nsites, cutoff, bindings, nflavors)
    want = _dense_product(expr, nsites, cutoff, bindings, nflavors)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
