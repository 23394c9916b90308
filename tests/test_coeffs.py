from decimal import Decimal
from fractions import Fraction

import pytest

from gpchain.coeffs import ParamCoeff
from gpchain.opalg import Algebra, LadderOp, Statistics
from gpchain.symbolmap import FieldFactor, FieldPoly


@pytest.mark.parametrize("x", [0.5, 1j, "1/2", Decimal("0.5")],
                         ids=["float", "complex", "str", "decimal"])
def test_coefficients_refuse_inexact_values(x):
    # the exact layer takes ints and Fractions only, although Fraction()
    # itself would convert a float, a string or a Decimal
    s = ParamCoeff.symbol("s")
    alg = Algebra(Statistics.BOSE)
    for build in (
        lambda: ParamCoeff({(): x}),
        lambda: ParamCoeff.scalar(x),
        lambda: s * x,
        lambda: x + s,
        lambda: alg.scalar(x),
        lambda: alg.from_word([LadderOp(True, 0)], x),
        lambda: FieldPoly.scalar(x),
        lambda: FieldPoly([((FieldFactor(False, 0),), x)]),
    ):
        with pytest.raises(TypeError):
            build()


def test_param_coeff_constructors():
    assert ParamCoeff.zero().is_zero()
    assert ParamCoeff.rational(1, 2) + ParamCoeff.rational(1, 2) == ParamCoeff.one()
    s = ParamCoeff.symbol("s")
    assert s.degree() == 1
    assert s.parameters() == frozenset({"s"})


def test_param_coeff_polynomial_algebra():
    a = ParamCoeff.symbol("a")
    b = ParamCoeff.symbol("b")
    # (a + b)^2 expands
    sq = (a + b) * (a + b)
    expect = a * a + ParamCoeff.rational(2) * a * b + b * b
    assert sq == expect
    assert (a - a).is_zero()
    assert (a * b) == (b * a)
    assert sq.degree() == 2


def test_param_coeff_indexed_symbols():
    h3 = ParamCoeff.symbol("h[3]")
    j = ParamCoeff.symbol("J[2,3]")
    prod = h3 * j
    assert prod.parameters() == frozenset({"h[3]", "J[2,3]"})
    assert prod.evaluate({"h[3]": 2.0, "J[2,3]": -1.5}) == -3.0


def test_param_coeff_evaluate_and_powers():
    s = ParamCoeff.symbol("s")
    c = ParamCoeff.rational(3, 2) * s ** 2
    assert c.evaluate({"s": 2.0}) == 6.0
    with pytest.raises(KeyError):
        c.evaluate({})


def test_param_coeff_rename():
    c = ParamCoeff.symbol("J[1,2]") + ParamCoeff.symbol("s")
    r = c.rename_params({"J[1,2]": "J[2,1]"})
    assert r == ParamCoeff.symbol("J[2,1]") + ParamCoeff.symbol("s")


def test_param_coeff_str_round_values():
    assert str(ParamCoeff.rational(-1, 2)) == "-1/2"
    assert str(ParamCoeff.symbol("s")) == "s"
    assert str(ParamCoeff.zero()) == "0"


def test_str_of_mixed_sign_fractional_sums():
    s, j, h = (ParamCoeff.symbol(n) for n in ("s", "J[0,1]", "h[2]"))
    mixed = -s + ParamCoeff.rational(3, 4) * j - ParamCoeff.rational(5, 2) * s ** 2 * h + 1
    lead = ParamCoeff.rational(-1, 2) + ParamCoeff.rational(3, 4) * j
    cubic = s ** 2 - ParamCoeff.rational(7, 3) * j * s
    assert str(mixed) == "1 + 3/4 J[0,1] - s - 5/2 h[2] s^2"
    assert str(lead) == "-1/2 + 3/4 J[0,1]"
    assert str(-s) == "-s"
    assert str(s - 1) == "-1 + s"
    assert str(cubic) == "-7/3 J[0,1] s + s^2"
    alg = Algebra(Statistics.BOSE)
    expr = (alg.ad(0) * alg.a(1)).scale(lead) + alg.number(1).scale(-s) \
        + alg.scalar(mixed) + (alg.a(0) * alg.a(0)).scale(cubic)
    assert str(expr) == (
        "(1 + 3/4 J[0,1] - s - 5/2 h[2] s^2) + (-1/2 + 3/4 J[0,1]) ad(0) a(1)"
        " + (-s) ad(1) a(1) + (-7/3 J[0,1] s + s^2) a(0) a(0)")
    phi, phi_star = FieldFactor(False, 0), FieldFactor(True, 1)
    poly = FieldPoly([((), mixed), ((phi_star, (phi, 2)), -s), ((phi,), lead)])
    assert str(poly) == (
        "(1 + 3/4 J[0,1] - s - 5/2 h[2] s^2) + (-1/2 + 3/4 J[0,1]) phi(0)"
        " + (-s) phi*(1) phi(0)^2")


def test_param_coeff_foreign_operand_defers():
    s = ParamCoeff.symbol("s")
    with pytest.raises(TypeError):
        s + object()


def _layout(x, factor=1):
    """Keys in insertion order down to the numbers, each times factor.
    Insertion order is the order ParamCoeff.evaluate sums in; equal layouts
    also mean equal sums with equal terms()."""
    if isinstance(x, Fraction):
        return x * factor
    return [(k, _layout(c, factor)) for k, c in x._terms.items()]


_PC = (ParamCoeff.symbol("s") * Fraction(1, 2) + ParamCoeff.rational(-1, 3)
       + ParamCoeff.rational(3, 4) * ParamCoeff.symbol("J[0,1]"))
_ALG = Algebra(Statistics.FERMI)
_EXPR = ((_ALG.ad(0) * _ALG.a(1)).scale(_PC) + _ALG.number(1).scale(-2)
         + _ALG.scalar(ParamCoeff.symbol("h[0]")))


@pytest.mark.parametrize("x", [_PC, _EXPR], ids=["coeff", "expr"])
@pytest.mark.parametrize("unit", [1, -1])
def test_unit_factors_equal_the_general_product(x, unit):
    want = _layout(x, unit)
    factors = [unit, Fraction(unit), ParamCoeff.scalar(unit)]
    if x is _EXPR:
        factors.append(_ALG.scalar(unit))
    for factor in factors:
        for product in (x * factor, factor * x):
            assert product == (x if unit == 1 else -x)
            assert _layout(product) == want
