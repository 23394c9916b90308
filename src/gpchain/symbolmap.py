"""Classical symbols of ladder expressions.

Replacing a -> phi and ad -> phi* in a word gives its naive symbol; doing
so after normal ordering gives the Wick symbol (the coherent-state
expectation value).  The difference between the two is the ordering
correction picked up when a product of ladder operators is read off in
written order instead of normal order.  Symbols are FieldPolys, the
coeffs.TermSum keyed by field monomials.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .coeffs import PC_MINUS_ONE, PC_ONE, PC_ZERO, ParamCoeff, TermSum, power_text
from .opalg import OperatorExpr, Statistics


@dataclass(frozen=True)
class FieldFactor:
    """One classical field factor, phi or its conjugate, at a mode."""

    conj: bool
    site: int
    flavor: int = 0

    def __post_init__(self):
        if not isinstance(self.site, int):
            raise TypeError("site must be int")
        if not isinstance(self.flavor, int) or self.flavor < 0:
            raise ValueError("flavor must be a nonnegative int")

    @property
    def sort_key(self):
        # conjugated factors first, mirroring normal order of the ladder side
        return (0 if self.conj else 1, self.flavor, self.site)

    def conjugate(self) -> "FieldFactor":
        return FieldFactor(not self.conj, self.site, self.flavor)

    def __str__(self) -> str:
        name = "phi*" if self.conj else "phi"
        if self.flavor:
            return f"{name}({self.site},{self.flavor})"
        return f"{name}({self.site})"


# A monomial is a sorted tuple of (FieldFactor, positive exponent) pairs.
FieldMonomial = Tuple


def _normalize_field_monomial(factors) -> FieldMonomial:
    powers: dict[FieldFactor, int] = {}
    for item in factors:
        if isinstance(item, FieldFactor):
            f, e = item, 1
        else:
            f, e = item
        if not isinstance(f, FieldFactor):
            raise TypeError(f"expected FieldFactor, got {type(f).__name__}")
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative int")
        powers[f] = powers.get(f, 0) + e
    return tuple(
        sorted(((f, e) for f, e in powers.items() if e > 0),
               key=lambda fe: fe[0].sort_key)
    )


def _field_mono_key(mono: FieldMonomial):
    deg = sum(e for _, e in mono)
    return (deg, tuple((f.sort_key, e) for f, e in mono))


class FieldPoly(TermSum):
    """Polynomial in commuting field variables phi/phi* with ParamCoeff coefficients.

    A TermSum keyed by FieldMonomial.
    """

    __slots__ = ()

    _scalar = staticmethod(ParamCoeff._try_coerce)
    _sort_key = staticmethod(_field_mono_key)
    _one, _minus_one = PC_ONE, PC_MINUS_ONE
    _key_text = staticmethod(power_text)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        self._terms = self._collect(
            (mono, ParamCoeff.coerce_coeff(coeff)) for mono, coeff in items
        )

    @staticmethod
    def _term(factors, coeff):
        return _normalize_field_monomial(factors), coeff

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "FieldPoly":
        return FieldPoly()

    @staticmethod
    def scalar(c) -> "FieldPoly":
        return FieldPoly([((), c)])

    @staticmethod
    def phi(site: int, flavor: int = 0) -> "FieldPoly":
        return FieldPoly([((FieldFactor(False, site, flavor),), PC_ONE)])

    @staticmethod
    def phi_star(site: int, flavor: int = 0) -> "FieldPoly":
        return FieldPoly([((FieldFactor(True, site, flavor),), PC_ONE)])

    # -- ring operations ----------------------------------------------

    def conjugate(self) -> "FieldPoly":
        """Every field factor conjugated; coefficients are real."""
        return self._new(self._collect(
            (((f.conjugate(), e) for f, e in mono), c)
            for mono, c in self._terms.items()
        ))

    # -- queries -------------------------------------------------------

    def coefficient(self, factors: Iterable) -> ParamCoeff:
        return self._terms.get(_normalize_field_monomial(factors), PC_ZERO)

    def sites(self) -> frozenset:
        return frozenset(f.site for m in self._terms for f, _ in m)

    def flavors(self) -> frozenset:
        return frozenset(f.flavor for m in self._terms for f, _ in m)

    def filter_degree(self, degree: int) -> "FieldPoly":
        """The part whose monomials have the given total field degree."""
        out = {
            m: c for m, c in self._terms.items()
            if sum(e for _, e in m) == degree
        }
        return self._new(out)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, values, bindings=None) -> complex:
        """Numeric value of the polynomial at a field configuration.

        values may be a 1- or 2-d array (indexed [site] or [flavor, site])
        or a mapping keyed by (site, flavor).  Terms are accumulated with
        compensated summation.
        """
        lookup = _field_lookup(values)
        total = 0j
        comp = 0j
        for mono, coeff in self._terms.items():
            x = complex(coeff.evaluate(bindings or {}))
            for f, e in mono:
                v = lookup(f.site, f.flavor)
                if f.conj:
                    v = v.conjugate()
                x *= v ** e
            y = x - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total

    def __repr__(self) -> str:
        return f"<FieldPoly {self}>"


def _field_lookup(values):
    if isinstance(values, Mapping):
        return lambda site, flavor: complex(values[(site, flavor)])
    arr = np.asarray(values)
    ndim = arr.ndim
    values = arr
    if ndim == 1:
        def one_flavor(site, flavor):
            if flavor != 0:
                raise IndexError("1-d field values but nonzero flavor requested")
            return complex(values[site])
        return one_flavor
    if ndim == 2:
        return lambda site, flavor: complex(values[flavor, site])
    raise ValueError("field values array must be 1- or 2-d")


def naive_symbol(expr: OperatorExpr) -> FieldPoly:
    """Replace each ladder factor by its field in written (canonical) order."""
    return FieldPoly(
        ((FieldFactor(f.dagger, f.site, f.flavor) for f in word), coeff)
        for word, coeff in expr.terms()
    )


def wick_symbol(expr: OperatorExpr) -> FieldPoly:
    """Coherent-state expectation value: the naive symbol after normal ordering."""
    if expr.statistics is Statistics.FERMI:
        raise ValueError(
            "wick symbol of a fermionic expression is Grassmann-valued; "
            "only bosonic expressions are supported"
        )
    return naive_symbol(expr.normal_order())


def ordering_correction(expr: OperatorExpr) -> FieldPoly:
    """wick_symbol(expr) - naive_symbol(expr)."""
    return wick_symbol(expr) - naive_symbol(expr)
