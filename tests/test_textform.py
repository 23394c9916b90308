import random

import pytest

from gpchain.coeffs import ParamCoeff
from gpchain.opalg import Algebra, LadderOp, Statistics
from gpchain.symbolmap import FieldPoly, naive_symbol
from gpchain.textform import (
    TextFormError,
    coeff_from_text,
    expr_from_text,
    poly_from_text,
)

B = Algebra(Statistics.BOSE)


def test_expr_round_trip_simple():
    expr = B.ad(1) * B.a(2) + B.identity().scale(ParamCoeff.rational(-1, 2))
    assert expr_from_text(str(expr)) == expr


def test_expr_round_trip_symbols():
    expr = B.a(3).scale(ParamCoeff.symbol("J[2,3]") * ParamCoeff.symbol("s"))
    assert expr_from_text(str(expr)) == expr


def test_expr_round_trip_random():
    rng = random.Random(3)
    for _ in range(30):
        expr = B.zero()
        for _ in range(rng.randrange(1, 4)):
            word = [
                LadderOp(rng.random() < 0.5, rng.randrange(4), 0)
                for _ in range(rng.randrange(0, 4))
            ]
            num = rng.randrange(-3, 4)
            coeff = ParamCoeff.rational(num if num else 1, rng.randrange(1, 3))
            if rng.random() < 0.4:
                coeff = coeff * ParamCoeff.symbol("s")
            expr = expr + B.from_word(word, coeff)
        assert expr_from_text(str(expr)) == expr


def test_poly_round_trip():
    poly = (
        FieldPoly.phi(1).scale(ParamCoeff.symbol("h[1]"))
        + FieldPoly.phi_star(2) * FieldPoly.phi(2) * FieldPoly.phi(1)
    )
    assert poly_from_text(str(poly)) == poly


def test_poly_round_trip_with_powers():
    poly = FieldPoly.phi(0) * FieldPoly.phi(0) * FieldPoly.phi_star(3)
    text = str(poly)
    assert "^2" in text
    assert poly_from_text(text) == poly


def test_coeff_round_trip():
    c = (
        ParamCoeff.rational(-1, 2) * ParamCoeff.symbol("J[1,2]")
        + ParamCoeff.i() * ParamCoeff.symbol("s", 2)
        + ParamCoeff.rational(3)
    )
    assert coeff_from_text(str(c)) == c


def test_coeff_negative_leading_symbol():
    c = -ParamCoeff.symbol("s")
    assert coeff_from_text(str(c)) == c


def test_fermi_parse_uses_given_statistics():
    expr = expr_from_text("(1) a(1) a(1)", statistics=Statistics.FERMI)
    assert expr.is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(TextFormError):
        expr_from_text("(1) b(1)")
    with pytest.raises(TextFormError):
        coeff_from_text("1 +")
    with pytest.raises(TextFormError):
        poly_from_text("(1) phi(x)")


def test_parse_agrees_with_symbol_pipeline():
    expr = B.ad(2) * B.a(2) * B.a(1) + B.a(1).scale(ParamCoeff.symbol("h[1]"))
    text = str(naive_symbol(expr))
    assert poly_from_text(text) == naive_symbol(expr)
