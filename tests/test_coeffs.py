from fractions import Fraction

import pytest

from gpchain.coeffs import ParamCoeff, RationalComplex
from gpchain.opalg import Algebra, Statistics


def test_rational_complex_arithmetic():
    z = RationalComplex(Fraction(1, 2), Fraction(1, 3))
    w = RationalComplex(Fraction(2), Fraction(-1))
    assert z + w == RationalComplex(Fraction(5, 2), Fraction(-2, 3))
    assert z * w == RationalComplex(Fraction(4, 3), Fraction(1, 6))
    assert (z / z) == RationalComplex.coerce(1)
    assert z.conjugate() == RationalComplex(Fraction(1, 2), Fraction(-1, 3))
    assert -z + z == RationalComplex.coerce(0)
    assert not RationalComplex.coerce(0)


def test_rational_complex_coerce_and_to_complex():
    assert RationalComplex.coerce(Fraction(3, 4)).to_complex() == 0.75
    z = RationalComplex(Fraction(1, 2), Fraction(1, 2))
    assert z.to_complex() == 0.5 + 0.5j
    # the exact layer refuses inexact inputs by design
    with pytest.raises(TypeError):
        RationalComplex.coerce(0.5)


def test_param_coeff_constructors():
    assert ParamCoeff.zero().is_zero()
    assert ParamCoeff.one().is_constant()
    assert ParamCoeff.rational(1, 2) + ParamCoeff.rational(1, 2) == ParamCoeff.one()
    assert ParamCoeff.i() * ParamCoeff.i() == ParamCoeff.rational(-1)
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


def test_param_coeff_conjugate_flips_i():
    z = ParamCoeff.i() * ParamCoeff.symbol("s") + ParamCoeff.rational(1, 4)
    zc = z.conjugate()
    assert zc + z == ParamCoeff.rational(1, 2)
    assert (z * zc).evaluate({"s": 3.0}) == pytest.approx(9 + 1 / 16)


def test_param_coeff_rename():
    c = ParamCoeff.symbol("J[1,2]") + ParamCoeff.symbol("s")
    r = c.rename_params({"J[1,2]": "J[2,1]"})
    assert r == ParamCoeff.symbol("J[2,1]") + ParamCoeff.symbol("s")


def test_param_coeff_str_round_values():
    assert str(ParamCoeff.rational(-1, 2)) == "-1/2"
    assert str(ParamCoeff.symbol("s")) == "s"
    assert str(ParamCoeff.zero()) == "0"


def test_param_coeff_foreign_operand_defers():
    s = ParamCoeff.symbol("s")
    with pytest.raises(TypeError):
        s + object()


def _four_products(a, b):
    """a * b in the general complex form: four products and two sums."""
    return RationalComplex(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def _layout(x, factor=None):
    """Keys in insertion order down to the numbers, each times factor in the
    general form.  Insertion order is the order ParamCoeff.evaluate sums in;
    equal layouts also mean equal sums with equal terms()."""
    if isinstance(x, RationalComplex):
        return x if factor is None else _four_products(x, factor)
    return [(k, _layout(c, factor)) for k, c in x._terms.items()]


_Z = RationalComplex(Fraction(1, 2), Fraction(-1, 3))
_PC = (ParamCoeff.symbol("s") * _Z + ParamCoeff.i()
       + ParamCoeff.rational(3, 4) * ParamCoeff.symbol("J[0,1]"))
_ALG = Algebra(Statistics.FERMI)
_EXPR = ((_ALG.ad(0) * _ALG.a(1)).scale(_PC) + _ALG.number(1).scale(-2)
         + _ALG.scalar(ParamCoeff.symbol("h[0]")))


@pytest.mark.parametrize("x", [_Z, _PC, _EXPR], ids=["rc", "coeff", "expr"])
@pytest.mark.parametrize("unit", [1, -1])
def test_unit_factors_equal_the_general_product(x, unit):
    want = _layout(x, RationalComplex.coerce(unit))
    factors = [unit, RationalComplex.coerce(unit)]
    if not isinstance(x, RationalComplex):
        factors.append(ParamCoeff.scalar(unit))
    if x is _EXPR:
        factors.append(_ALG.scalar(unit))
    for factor in factors:
        for product in (x * factor, factor * x):
            assert product == (x if unit == 1 else -x)
            assert _layout(product) == want


def test_rational_complex_real_factor_equals_four_products():
    assert _Z * 1 is _Z and 1 * _Z is _Z and RationalComplex.coerce(1) * _Z is _Z
    for r in (Fraction(3, 7), Fraction(-5, 2), 0, 2, RationalComplex(Fraction(-2, 9))):
        rc = RationalComplex.coerce(r)
        assert _Z * r == _four_products(_Z, rc)
        assert r * _Z == _four_products(rc, _Z)
