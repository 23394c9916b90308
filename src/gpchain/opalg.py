"""Ladder-operator algebra over exact parametric coefficients.

Expressions are finite sums of words in creation/annihilation operators on
integer lattice sites (with an optional flavor index), either bosonic or
fermionic.  Words are kept in a canonical form obtained by commuting factors
that act on distinct modes (picking up fermionic signs); factors on the same
mode never reorder.  Canonicalization therefore applies no commutation
relation: a(1) ad(1) and ad(1) a(1) stay distinct until normal_order is
called explicitly.  OperatorExpr is a coeffs.TermSum keyed by such words,
so its arithmetic, equality and printed form are the shared ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Tuple

from .coeffs import PC_MINUS_ONE, PC_ONE, PC_ZERO, ParamCoeff, TermSum

__all__ = [
    "Statistics",
    "LadderOp",
    "OperatorExpr",
    "Algebra",
    "canonical_word",
]


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


@dataclass(frozen=True)
class LadderOp:
    """A single creation (dagger=True) or annihilation operator."""

    dagger: bool
    site: int
    flavor: int = 0

    @property
    def mode(self) -> Tuple[int, int]:
        return (self.flavor, self.site)

    @property
    def sort_key(self) -> Tuple[int, int, int]:
        # creators first, then by flavor, then by site
        return (0 if self.dagger else 1, self.flavor, self.site)

    def conjugate(self) -> "LadderOp":
        return LadderOp(not self.dagger, self.site, self.flavor)

    def __str__(self) -> str:
        name = "ad" if self.dagger else "a"
        if self.flavor:
            return f"{name}({self.site},{self.flavor})"
        return f"{name}({self.site})"


Word = Tuple[LadderOp, ...]


def canonical_word(factors: Iterable[LadderOp], fermi: bool):
    """Canonical representative of a word under distinct-mode commutation.

    Returns (sign, word) with sign in {+1, -1}, or None when the word is
    identically zero (two identical fermionic factors forced adjacent).
    Greedy choice of the smallest movable factor; a factor is movable when
    nothing earlier in the remaining word shares its mode.
    """
    work = list(factors)
    out: list[LadderOp] = []
    sign = 1
    while work:
        best = -1
        best_key = None
        seen = set()
        for pos, f in enumerate(work):
            if f.mode in seen:
                continue
            seen.add(f.mode)
            if best_key is None or f.sort_key < best_key:
                best, best_key = pos, f.sort_key
        f = work.pop(best)
        if fermi and best % 2 == 1:
            sign = -sign
        if fermi and out and out[-1] == f:
            return None
        out.append(f)
    return sign, tuple(out)


def _word_sort_key(word: Word):
    return (len(word), tuple(f.sort_key for f in word))


def _first_inversion(w: list) -> Optional[int]:
    for i in range(len(w) - 1):
        if (not w[i].dagger) and w[i + 1].dagger:
            return i
    return None


def _normal_order_word(word: Word, fermi: bool) -> dict:
    """Fully normal order one word; returns {canonical word: int multiple}."""
    out: dict[Word, int] = {}
    stack = [(1, list(word))]
    while stack:
        sgn, w = stack.pop()
        i = _first_inversion(w)
        if i is None:
            res = canonical_word(w, fermi)
            if res is None:
                continue
            s2, cw = res
            k = out.get(cw, 0) + sgn * s2
            if k:
                out[cw] = k
            else:
                out.pop(cw, None)
            continue
        x, y = w[i], w[i + 1]
        stack.append((-sgn if fermi else sgn, w[:i] + [y, x] + w[i + 2 :]))
        if x.mode == y.mode:
            stack.append((sgn, w[:i] + w[i + 2 :]))
    return out


class OperatorExpr(TermSum):
    """Sum of ladder-operator words with ParamCoeff coefficients.

    A TermSum keyed by canonical words (canonical_word), tagged with its
    statistics: sums of different statistics never combine and never
    compare equal.
    """

    __slots__ = ("statistics",)

    _scalar = staticmethod(ParamCoeff._try_coerce)
    _sort_key = staticmethod(_word_sort_key)
    _one, _minus_one = PC_ONE, PC_MINUS_ONE

    def __init__(self, statistics: Statistics, terms: Iterable = ()):
        self.statistics = Statistics(statistics)
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = self._collect(
            (tuple(factors), ParamCoeff.coerce_coeff(coeff)) for factors, coeff in items
        )

    def _new(self, terms: dict) -> "OperatorExpr":
        obj = super()._new(terms)
        obj.statistics = self.statistics
        return obj

    @property
    def fermi(self) -> bool:
        return self.statistics is Statistics.FERMI

    def _term(self, factors: Word, coeff: ParamCoeff):
        res = canonical_word(factors, self.fermi)
        if res is None:
            return None
        sign, cw = res
        return cw, (coeff if sign > 0 else -coeff)

    def _coerce(self, other):
        if isinstance(other, OperatorExpr) and self.statistics is not other.statistics:
            raise ValueError("cannot combine expressions with different statistics")
        return super()._coerce(other)

    @staticmethod
    def _key_text(word: Word) -> str:
        return " ".join(str(f) for f in word)

    # -- ring operations ----------------------------------------------

    def commutator(self, other: "OperatorExpr") -> "OperatorExpr":
        """[self, other], fully normal ordered.

        Normal ordering makes the result unique as an operator, so algebraic
        identities (antisymmetry, Jacobi) hold syntactically.
        """
        return (self * other - other * self).normal_order()

    def adjoint(self) -> "OperatorExpr":
        return self._new(self._collect(
            (tuple(f.conjugate() for f in reversed(word)), coeff.conjugate())
            for word, coeff in self._terms.items()
        ))

    def normal_order(self) -> "OperatorExpr":
        acc: dict[Word, ParamCoeff] = {}
        for word, coeff in self._terms.items():
            for nword, k in _normal_order_word(word, self.fermi).items():
                self._accumulate(acc, nword, coeff * k)
        return self._new(acc)

    # -- queries ------------------------------------------------------

    def coefficient(self, factors: Iterable[LadderOp]) -> ParamCoeff:
        """Coefficient of the given word (sign-adjusted to its canonical form)."""
        term = self._term(tuple(factors), PC_ONE)
        if term is None:
            return PC_ZERO
        cw, sign = term
        return self._terms.get(cw, PC_ZERO) * sign

    def filter_words(self, keep) -> "OperatorExpr":
        """The part whose words satisfy keep, in this sum's term order."""
        return self._new({w: c for w, c in self._terms.items() if keep(w)})

    def sites(self) -> frozenset:
        return frozenset(f.site for w in self._terms for f in w)

    def flavors(self) -> frozenset:
        return frozenset(f.flavor for w in self._terms for f in w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.statistics is other.statistics and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.statistics, super().__hash__()))

    def __repr__(self) -> str:
        tag = self.statistics.value
        return f"<OperatorExpr[{tag}] {self}>"


@dataclass(frozen=True)
class Algebra:
    """Factory tying new expressions to one choice of statistics.

    When nsites is given, site indices are reduced modulo it at
    construction (periodic lattice).
    """

    statistics: Statistics = Statistics.BOSE
    nsites: Optional[int] = None

    def _site(self, site: int) -> int:
        return site % self.nsites if self.nsites else site

    def zero(self) -> OperatorExpr:
        return OperatorExpr(self.statistics)

    def scalar(self, c) -> OperatorExpr:
        return OperatorExpr(self.statistics, [((), c)])

    def identity(self) -> OperatorExpr:
        return self.scalar(1)

    def a(self, site: int, flavor: int = 0) -> OperatorExpr:
        op = LadderOp(False, self._site(site), flavor)
        return OperatorExpr(self.statistics, [((op,), PC_ONE)])

    def ad(self, site: int, flavor: int = 0) -> OperatorExpr:
        op = LadderOp(True, self._site(site), flavor)
        return OperatorExpr(self.statistics, [((op,), PC_ONE)])

    def number(self, site: int, flavor: int = 0) -> OperatorExpr:
        return self.ad(site, flavor) * self.a(site, flavor)

    def from_word(self, factors: Iterable[LadderOp], coeff=1) -> OperatorExpr:
        word = tuple(
            LadderOp(f.dagger, self._site(f.site), f.flavor) for f in factors
        )
        return OperatorExpr(self.statistics, [(word, coeff)])
