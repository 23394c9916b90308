"""Stable text round-trip for expressions.

The canonical text of an expression is exactly its str() form:

    ( coeff ) factor factor ...  +  ( coeff ) ...

Ladder factors look like a(3), ad(3), a(3,1); field factors like phi(3),
phi*(3,1), optionally with a power suffix phi(3)^2.  Coefficients are
polynomials over named parameters with exact rational-complex scalars,
e.g. "1/2 s J[2,3] + -1/2+1/3i h[4]^2".  from_text parses that grammar
back; parse(to_text(x)) == x for every expression.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coeffs import ParamCoeff, RationalComplex
from .opalg import Algebra, LadderOp, OperatorExpr, Statistics
from .symbolmap import FieldFactor, FieldPoly

_SCALAR_RE = re.compile(
    r"^(?P<a>-?\d+(?:/\d+)?)(?:(?P<b>[+-]\d+(?:/\d+)?)i|(?P<ai>i))?$"
)
_SYMBOL_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[-?\d+(?:,-?\d+)*\])?)"
    r"(?:\^(?P<exp>\d+))?$"
)
_LADDER_RE = re.compile(r"^(?P<op>ad|a)\((?P<site>-?\d+)(?:,(?P<flavor>\d+))?\)$")
_FIELD_RE = re.compile(
    r"^(?P<op>phi\*?)\((?P<site>-?\d+)(?:,(?P<flavor>\d+))?\)"
    r"(?:\^(?P<exp>\d+))?$"
)


class TextFormError(ValueError):
    """Raised when a text form does not match the expression grammar."""


def to_text(obj) -> str:
    """Canonical text of an OperatorExpr, FieldPoly, or ParamCoeff."""
    if isinstance(obj, (OperatorExpr, FieldPoly, ParamCoeff)):
        return str(obj)
    raise TypeError(f"no text form for {type(obj).__name__}")


def _parse_scalar(token: str) -> RationalComplex | None:
    m = _SCALAR_RE.match(token)
    if not m:
        return None
    a = Fraction(m.group("a"))
    if m.group("ai"):
        return RationalComplex(Fraction(0), a)
    if m.group("b") is not None:
        return RationalComplex(a, Fraction(m.group("b")))
    return RationalComplex(a)


def coeff_from_text(text: str) -> ParamCoeff:
    """Parse a coefficient polynomial."""
    text = text.strip()
    if not text:
        raise TextFormError("empty coefficient")
    if text == "0":
        return ParamCoeff.zero()
    # split into signed terms on " + " / " - "
    pieces: list[tuple[int, str]] = []
    rest = text
    sign = 1
    while True:
        cut_plus = rest.find(" + ")
        cut_minus = rest.find(" - ")
        cuts = [c for c in (cut_plus, cut_minus) if c >= 0]
        if not cuts:
            pieces.append((sign, rest))
            break
        cut = min(cuts)
        pieces.append((sign, rest[:cut]))
        sign = 1 if cut == cut_plus else -1
        rest = rest[cut + 3:]
    total = ParamCoeff.zero()
    for sgn, piece in pieces:
        piece = piece.strip()
        if not piece:
            raise TextFormError(f"empty term in coefficient {text!r}")
        # a leading "-" with the scalar 1 elided, as in "-s J[2,3]"
        if piece.startswith("-") and _parse_scalar(piece.split(" ", 1)[0]) is None:
            sgn = -sgn
            piece = piece[1:].lstrip()
        tokens = piece.split(" ")
        scalar = _parse_scalar(tokens[0])
        if scalar is not None:
            tokens = tokens[1:]
        else:
            scalar = RationalComplex.coerce(1)
        term = ParamCoeff.scalar(scalar)
        for tok in tokens:
            m = _SYMBOL_RE.match(tok)
            if not m:
                raise TextFormError(f"bad coefficient token {tok!r} in {text!r}")
            exp = int(m.group("exp") or 1)
            term = term * ParamCoeff.symbol(m.group("name"), exp)
        total = total + (term if sgn > 0 else -term)
    return total


def _split_terms(text: str) -> list[str]:
    """Split on top-level ' + ' (outside any parentheses)."""
    out = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise TextFormError(f"unbalanced parentheses in {text!r}")
        elif depth == 0 and text.startswith(" + ", i):
            out.append(text[start:i])
            i += 3
            start = i
            continue
        i += 1
    if depth != 0:
        raise TextFormError(f"unbalanced parentheses in {text!r}")
    out.append(text[start:])
    return out


def _term_parts(term: str) -> tuple[str, list[str]]:
    term = term.strip()
    if not term.startswith("("):
        raise TextFormError(f"term must start with a coefficient: {term!r}")
    depth = 0
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                coeff = term[1:i]
                rest = term[i + 1:].strip()
                return coeff, rest.split(" ") if rest else []
    raise TextFormError(f"unterminated coefficient in {term!r}")


def _ladder_factor(tok: str) -> LadderOp:
    m = _LADDER_RE.match(tok)
    if not m:
        raise TextFormError(f"bad ladder factor {tok!r}")
    return LadderOp(
        m.group("op") == "ad",
        int(m.group("site")),
        int(m.group("flavor") or 0),
    )


def _field_factor(tok: str) -> tuple[FieldFactor, int]:
    m = _FIELD_RE.match(tok)
    if not m:
        raise TextFormError(f"bad field factor {tok!r}")
    f = FieldFactor(
        m.group("op") == "phi*",
        int(m.group("site")),
        int(m.group("flavor") or 0),
    )
    return f, int(m.group("exp") or 1)


def _read_terms(text: str, factor) -> list:
    """(factors, coeff) of each term of the canonical "(coeff) factors + ..." text."""
    text = text.strip()
    if text == "0":
        return []
    terms = []
    for term in _split_terms(text):
        coeff_text, factor_toks = _term_parts(term)
        factors = [factor(tok) for tok in factor_toks]
        terms.append((factors, coeff_from_text(coeff_text)))
    return terms


def expr_from_text(
    text: str,
    statistics: Statistics = Statistics.BOSE,
    nsites: int | None = None,
) -> OperatorExpr:
    """Parse a ladder-operator expression."""
    alg = Algebra(statistics, nsites)
    terms = _read_terms(text, _ladder_factor)
    return sum((alg.from_word(f, c) for f, c in terms), alg.zero())


def poly_from_text(text: str) -> FieldPoly:
    """Parse a field polynomial."""
    return FieldPoly(_read_terms(text, _field_factor))


def from_text(text: str, statistics: Statistics = Statistics.BOSE, nsites=None):
    """Parse either kind of expression, chosen by the factors present."""
    if "phi" in text:
        return poly_from_text(text)
    return expr_from_text(text, statistics, nsites)
