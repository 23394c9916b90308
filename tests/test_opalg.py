import itertools
import random

import pytest

from gpchain.coeffs import ParamCoeff
from gpchain.opalg import (
    Algebra,
    LadderOp,
    Statistics,
)

B = Algebra(Statistics.BOSE)
F = Algebra(Statistics.FERMI)


def test_product_worked_examples():
    assert B.ad(1) * B.a(1) == B.from_word([LadderOp(True, 1, 0), LadderOp(False, 1, 0)])
    assert (B.a(1) * B.zero()).is_zero()
    assert B.a(1) * B.identity() == B.a(1)
    # Fermi nilpotency: identical factors annihilate the product
    assert (F.a(1) * F.a(1)).is_zero()
    assert (F.ad(2) * F.ad(2)).is_zero()
    assert not (B.a(1) * B.a(1)).is_zero()


def test_commutator_ccr():
    assert B.a(3).commutator(B.ad(3)) == B.identity()
    assert B.a(3).commutator(B.ad(4)).is_zero()
    assert B.a(3).commutator(B.a(4)).is_zero()
    n = B.number(2)
    assert n.commutator(B.a(2)) == -B.a(2)
    assert n.commutator(B.ad(2)) == B.ad(2)


def test_fermi_canonical_signs():
    # disjoint modes anticommute, so a crossing costs a sign
    lhs = F.a(2) * F.a(1)
    rhs = F.a(1) * F.a(2)
    assert lhs == -rhs
    assert F.ad(1) * F.a(2) == -(F.a(2) * F.ad(1))


def test_normal_order_worked_examples():
    assert (B.a(1) * B.ad(1)).normal_order() == B.ad(1) * B.a(1) + B.identity()
    assert (F.a(1) * F.ad(1)).normal_order() == F.identity() - F.ad(1) * F.a(1)
    # distinct modes just reorder
    assert (B.a(1) * B.ad(2)).normal_order() == B.ad(2) * B.a(1)
    assert (F.a(1) * F.ad(2)).normal_order() == -(F.ad(2) * F.a(1))


def test_normal_order_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        expr = _random_expr(rng, B)
        once = expr.normal_order()
        assert once.normal_order() == once


def _random_expr(rng, alg, max_terms=4, max_len=4, nsites=3):
    out = alg.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        word = []
        for _ in range(rng.randrange(0, max_len + 1)):
            word.append(LadderOp(rng.random() < 0.5, rng.randrange(nsites), 0))
        coeff = ParamCoeff.rational(rng.randrange(-3, 4), rng.randrange(1, 4))
        out = out + alg.from_word(word, coeff)
    return out


def test_commutator_bilinear_antisymmetric():
    rng = random.Random(21)
    for alg in (B, F):
        x = _random_expr(rng, alg)
        y = _random_expr(rng, alg)
        z = _random_expr(rng, alg)
        assert (x + y).commutator(z) == x.commutator(z) + y.commutator(z)
        assert x.commutator(y) == -y.commutator(x)


def test_jacobi_identity():
    rng = random.Random(5)
    for alg in (B, F):
        for _ in range(6):
            x = _random_expr(rng, alg, max_terms=2, max_len=3)
            y = _random_expr(rng, alg, max_terms=2, max_len=3)
            z = _random_expr(rng, alg, max_terms=2, max_len=3)
            total = (
                x.commutator(y.commutator(z))
                + y.commutator(z.commutator(x))
                + z.commutator(x.commutator(y))
            )
            assert total.is_zero()


def test_adjoint_involution_and_products():
    rng = random.Random(13)
    for alg in (B, F):
        x = _random_expr(rng, alg)
        y = _random_expr(rng, alg)
        assert x.adjoint().adjoint() == x
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()
    assert B.a(1).adjoint() == B.ad(1)


def test_scalar_multiplication_both_sides():
    x = B.ad(1) * B.a(2)
    half = ParamCoeff.rational(1, 2)
    assert half * x == x.scale(half)
    assert x * half == x.scale(half)
    assert 2 * x == x + x


def test_coefficient_lookup_matches_canonical_sign():
    expr = F.a(2) * F.a(1)
    # stored canonically; asking for the reversed word flips the sign
    c12 = expr.coefficient([LadderOp(False, 1, 0), LadderOp(False, 2, 0)])
    c21 = expr.coefficient([LadderOp(False, 2, 0), LadderOp(False, 1, 0)])
    assert c12 == -c21
    assert c21 in (ParamCoeff.one(), -ParamCoeff.one())


def test_degree_sites_parameters():
    expr = B.from_word(
        [LadderOp(True, 0, 0), LadderOp(False, 2, 0)], ParamCoeff.symbol("J[0,2]")
    )
    assert expr.degree() == 2
    assert expr.sites() == frozenset({0, 2})
    assert expr.parameters() == frozenset({"J[0,2]"})


def test_algebra_wraps_sites_mod_n():
    ring = Algebra(Statistics.BOSE, nsites=4)
    assert ring.a(5) == ring.a(1)
    assert ring.ad(-1) == ring.ad(3)


def test_statistics_never_mix():
    with pytest.raises(ValueError):
        B.a(1) + F.a(1)
    with pytest.raises(ValueError):
        B.a(1) * F.ad(1)


def test_str_is_stable_and_readable():
    expr = B.ad(1) * B.a(2) + B.identity()
    s = str(expr)
    assert "ad(1)" in s and "a(2)" in s
    assert str(B.zero()) == "0"


def test_equal_expressions_hash_alike():
    x = B.ad(1) * B.a(1)
    y = B.from_word([LadderOp(True, 1, 0), LadderOp(False, 1, 0)])
    assert x == y
    assert hash(x) == hash(y)


def test_mixed_flavor_modes_commute_bose():
    two = Algebra(Statistics.BOSE)
    x = two.a(1, 0) * two.ad(1, 1)
    y = two.ad(1, 1) * two.a(1, 0)
    assert x == y  # different modes, no contraction


def test_canonical_form_is_order_insensitive():
    # all products of three distinct-mode Bose factors agree up to canonical form
    ops = [LadderOp(False, 0, 0), LadderOp(True, 1, 0), LadderOp(False, 2, 0)]
    exprs = {B.from_word(perm) for perm in itertools.permutations(ops)}
    assert len(exprs) == 1
