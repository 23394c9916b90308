"""Exact coefficients of operator expressions, and the sums built on them.

Coefficients of ladder-operator expressions are polynomials in named real
parameters (couplings, spin length, field strengths) whose numeric parts are
exact rationals, fractions.Fraction.  The Hamiltonians are Hermitian, so no
coefficient has an imaginary part; the i of the equation of motion enters
only in the numeric layers (latticedyn, continuum).  Floats only appear
once a fully bound coefficient is evaluated.

TermSum is the exact sparse sum behind ParamCoeff, opalg.OperatorExpr and
symbolmap.FieldPoly: their arithmetic, equality, term order and printed
form are written once there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

__all__ = ["TermSum", "ParamCoeff", "Monomial"]


def _rational(x) -> Fraction | None:
    """x as a Fraction when it is an int (bools too) or a Fraction, else None:
    no float, complex, Decimal or string, which Fraction() would convert."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x) if isinstance(x, int) else None


def _exact(x) -> Fraction:
    c = _rational(x)
    if c is None:
        raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
    return c


class TermSum:
    """Exact sparse sum: a dict from canonical key to nonzero coefficient.

    ParamCoeff, OperatorExpr and FieldPoly are TermSums.  This class holds
    what they share: the ring arithmetic, equality and hashing, the
    canonical term order, rename_params, and the printed form
    "(coeff) factors + ...".  Each subclass supplies
        _term(raw_key, coeff)  the canonical (key, coeff) of one raw term,
                               or None when the term vanishes;
        _scalar(x)             x as a coefficient, or None when it is not one;
        _sort_key(key)         canonical order, led by the key's degree;
        _key_text(key)         the printed factors of a key;
        _one, _minus_one       the coefficients 1 and -1: Fractions in
                               ParamCoeff, ParamCoeffs in the sums over it;
    and overrides _new and _coerce when it carries more state than its terms.
    Products concatenate raw keys, so a subclass's _term is its product rule.
    A coefficient is zero exactly when it is falsy.  Sums are immutable
    once built.
    """

    __slots__ = ("_terms",)

    def _new(self, terms: dict):
        """A sum of this kind over terms already in canonical form."""
        obj = object.__new__(type(self))
        obj._terms = terms
        return obj

    @staticmethod
    def _accumulate(terms: dict, key, c) -> None:
        """Add c to terms[key], dropping the key when the sum is zero."""
        acc = terms[key] + c if key in terms else c
        if not acc:
            terms.pop(key, None)
        else:
            terms[key] = acc

    def _collect(self, pairs) -> dict:
        """Canonical terms of (raw key, coefficient) pairs, like terms merged."""
        terms: dict = {}
        for raw, c in pairs:
            term = self._term(raw, c)
            if term is not None:
                self._accumulate(terms, *term)
        return terms

    def _coerce(self, other):
        """other as a sum of this kind, or None when it is not one or a coefficient."""
        if isinstance(other, type(self)):
            return other
        c = self._scalar(other)
        if c is None:
            return None
        return self._new({(): c} if c else {})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in o._terms.items():
            self._accumulate(out, key, c)
        return self._new(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def _constant(self):
        """The coefficient of a one-term constant sum, else None."""
        terms = self._terms
        return terms[()] if len(terms) == 1 and () in terms else None

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = o._constant()
        if c is not None:
            # a scalar factor leaves every key canonical; 1 and -1 multiply nothing
            if c == self._one:
                return self
            if c == self._minus_one:
                return -self
            return self._new({k: v * c for k, v in self._terms.items()})
        # a leading 1 or -1 likewise; any other leading scalar keeps the general
        # product, whose coefficients c1 * c2 keep their terms' order
        c = self._constant()
        if c is not None:
            if c == self._one:
                return o
            if c == self._minus_one:
                return -o
        return self._new(self._collect(
            (k1 + k2, c1 * c2)
            for k1, c1 in self._terms.items()
            for k2, c2 in o._terms.items()
        ))

    # coefficients commute with every key, so order is immaterial
    __rmul__ = __mul__

    def scale(self, c):
        """This sum times the coefficient c."""
        if self._scalar(c) is None:
            raise TypeError(f"cannot scale {type(self).__name__} by {type(c).__name__}")
        return self * c

    def rename_params(self, mapping: Mapping[str, str]):
        """Rename parameters in every coefficient, dropping those that cancel."""
        renamed = ((k, c.rename_params(mapping)) for k, c in self._terms.items())
        return self._new({k: c for k, c in renamed if c})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self):
        """Terms as (key, coefficient) pairs in canonical order."""
        return tuple(
            (k, self._terms[k]) for k in sorted(self._terms, key=self._sort_key)
        )

    def degree(self) -> int:
        return max((self._sort_key(k)[0] for k in self._terms), default=0)

    def num_terms(self) -> int:
        return len(self._terms)

    def parameters(self) -> frozenset:
        """Names of all symbolic parameters appearing in coefficients."""
        return frozenset(s for c in self._terms.values() for s in c.parameters())

    # -- identity and display -----------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in self.terms():
            factors = self._key_text(key)
            parts.append(f"({coeff}) {factors}" if factors else f"({coeff})")
        return " + ".join(parts)


def power_text(pairs) -> str:
    """Printed factors of (base, exponent) pairs: "x y^2"."""
    return " ".join(str(b) if e == 1 else f"{b}^{e}" for b, e in pairs)


# A monomial is a sorted tuple of (parameter name, positive exponent) pairs.
Monomial = tuple

_COEFF_TYPE_ERR = "cannot combine ParamCoeff with {}"


def _normalize_monomial(mono) -> Monomial:
    powers: dict[str, int] = {}
    for name, exp in mono:
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad parameter name {name!r}")
        if not isinstance(exp, int):
            raise TypeError(f"exponent for {name!r} must be int")
        powers[name] = powers.get(name, 0) + exp
    for name, exp in powers.items():
        if exp < 0:
            raise ValueError(f"negative exponent for parameter {name!r}")
    return tuple(sorted((n, e) for n, e in powers.items() if e > 0))


def _mono_sort_key(mono: Monomial):
    return (sum(e for _, e in mono), mono)


class ParamCoeff(TermSum):
    """Polynomial in named real parameters with exact rational coefficients.

    A TermSum keyed by Monomial, whose coefficients are Fractions: ints and
    Fractions convert, anything else raises TypeError (see _rational).
    Immutable; all arithmetic returns fresh objects.  Parameters and
    coefficients are real, so a ParamCoeff is its own conjugate.
    """

    __slots__ = ()

    _scalar = staticmethod(_rational)
    _sort_key = staticmethod(_mono_sort_key)
    _one, _minus_one = Fraction(1), Fraction(-1)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        self._terms = self._collect(
            (mono, _exact(c)) for mono, c in (terms or {}).items()
        )

    @staticmethod
    def _term(mono, c):
        return _normalize_monomial(mono), c

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ParamCoeff":
        return ParamCoeff()

    @staticmethod
    def one() -> "ParamCoeff":
        return ParamCoeff({(): 1})

    @staticmethod
    def scalar(value: Fraction | int) -> "ParamCoeff":
        return ParamCoeff({(): value})

    @staticmethod
    def rational(num: int, den: int = 1) -> "ParamCoeff":
        return ParamCoeff.scalar(Fraction(num, den))

    @staticmethod
    def symbol(name: str, power: int = 1) -> "ParamCoeff":
        if power == 0:
            return ParamCoeff.one()
        return ParamCoeff({((name, power),): 1})

    @staticmethod
    def coerce_coeff(x) -> "ParamCoeff":
        got = ParamCoeff._try_coerce(x)
        if got is None:
            raise TypeError(_COEFF_TYPE_ERR.format(type(x).__name__))
        return got

    @staticmethod
    def _try_coerce(x) -> "ParamCoeff | None":
        # every ParamCoeff coerces alike; PC_ZERO is just one to ask
        return PC_ZERO._coerce(x)

    # -- queries ------------------------------------------------------

    def parameters(self) -> frozenset:
        """Names of the parameters: those in this coefficient's own keys."""
        return frozenset(n for mono in self._terms for n, _ in mono)

    # -- arithmetic ---------------------------------------------------

    def __pow__(self, n: int) -> "ParamCoeff":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ParamCoeff.one()
        for _ in range(n):
            out = out * self
        return out

    def rename_params(self, mapping: Mapping[str, str]) -> "ParamCoeff":
        """Rename parameters; monomials that collide after renaming merge."""
        return self._new(self._collect(
            (tuple((mapping.get(n, n), e) for n, e in mono), c)
            for mono, c in self._terms.items()
        ))

    def evaluate(self, bindings: Mapping[str, complex]) -> complex:
        """Substitute numeric values for every parameter and sum."""
        total = 0j
        for mono, c in self._terms.items():
            val = complex(c)
            for name, exp in mono:
                if name not in bindings:
                    raise KeyError(f"unbound parameter {name!r}")
                val *= complex(bindings[name]) ** exp
            total += val
        return total

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mono, c in self.terms():
            negative = c < 0
            if negative:
                c = -c
            body = [] if c == 1 and mono else [str(c)]
            if mono:
                body.append(power_text(mono))
            text = " ".join(body)
            if not pieces:
                pieces.append(("-" if negative else "") + text)
            else:
                pieces.append(("- " if negative else "+ ") + text)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"ParamCoeff({self})"


PC_ZERO = ParamCoeff.zero()
PC_ONE = ParamCoeff.one()
PC_MINUS_ONE = -PC_ONE
