"""Rational expressions with binomial denominators, and exact reduction.

The tableau sums produce values of the form

    numerator / product of factors (1 - q^alpha t^beta),

which are rational a priori but reduce to Laurent polynomials once summed.
``FactoredRational`` keeps the denominator as an explicit multiset of
binomial factors so that common factors cancel exactly, and ``to_poly``
performs the final division factor by factor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, NotPolynomialError
from .poly import ONE, ExponentPair, LaurentPoly


@dataclass(frozen=True, order=True)
class BinomialFactor:
    """The factor (1 - q^alpha t^beta).  (0, 0) is forbidden: that factor
    is identically zero and must never be stored."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha == 0 and self.beta == 0:
            raise DomainError("the factor (1 - q^0 t^0) is identically zero")

    def __iter__(self):
        return iter((self.alpha, self.beta))

    def to_poly(self) -> LaurentPoly:
        return LaurentPoly({(0, 0): 1, (self.alpha, self.beta): -1})


def product_of_factors(factors: Iterable[BinomialFactor]) -> LaurentPoly:
    result = ONE
    for f in factors:
        result = result * f.to_poly()
    return result


def exact_divide(p: LaurentPoly, factor: BinomialFactor) -> LaurentPoly:
    """Divide p exactly by (1 - q^alpha t^beta).

    Terms of p are grouped along lattice lines e, e+v, e+2v, ... with
    v = (alpha, beta); on each line the quotient coefficients are the
    running partial sums, and the division is exact iff every line sums
    to zero.  The quotient is unique, so any correct method agrees.
    """
    alpha, beta = factor
    if alpha == 0 and beta == 0:
        raise DomainError("cannot divide by the zero factor (1 - q^0 t^0)")
    if p.is_zero():
        return LaurentPoly.zero()

    # Key identifying the line through (a, b) in direction v, plus the
    # position of the term along that line (increasing with e + k*v).
    step = abs(alpha) if alpha != 0 else abs(beta)

    def line_key(a: int, b: int) -> tuple[int, int]:
        return (alpha * b - beta * a, (a if alpha != 0 else b) % step)

    def position(a: int, b: int) -> int:
        return a if alpha > 0 else (-a if alpha < 0 else (b if beta > 0 else -b))

    lines: dict[tuple[int, int], list[tuple[int, ExponentPair, int]]] = {}
    for (a, b), coeff in p.terms().items():
        lines.setdefault(line_key(a, b), []).append((position(a, b), (a, b), coeff))

    out: dict[ExponentPair, int] = {}
    for entries in lines.values():
        entries.sort()
        running = 0
        for idx, (pos, (a, b), coeff) in enumerate(entries):
            running += coeff
            if idx + 1 < len(entries):
                if running:
                    gap = (entries[idx + 1][0] - pos) // step
                    for k in range(gap):
                        out[(a + k * alpha, b + k * beta)] = running
            elif running:
                raise NotPolynomialError(
                    f"(1 - q^{alpha} t^{beta}) does not divide {p.to_text()}"
                )
    return LaurentPoly(out)


class FactoredRational:
    """numerator / product of (1 - q^alpha t^beta) factors; not reduced.

    The denominator is a multiset, canonically stored as a sorted tuple.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPoly, denominator: Iterable[BinomialFactor] = ()):
        factors = []
        for f in denominator:
            if not isinstance(f, BinomialFactor):
                f = BinomialFactor(*f)
            factors.append(f)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", tuple(sorted(factors)))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredRational is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, p: LaurentPoly | int) -> "FactoredRational":
        if isinstance(p, int):
            p = LaurentPoly.from_int(p)
        return cls(p)

    @classmethod
    def zero(cls) -> "FactoredRational":
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> "FactoredRational":
        return cls(ONE)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "FactoredRational | LaurentPoly | int") -> "FactoredRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FactoredRational(
            self.numerator * other.numerator, self.denominator + other.denominator
        )

    __rmul__ = __mul__

    def __add__(self, other: "FactoredRational | LaurentPoly | int") -> "FactoredRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mine = Counter(self.denominator)
        thine = Counter(other.denominator)
        union = mine | thine
        num = self.numerator * product_of_factors((union - mine).elements()) + (
            other.numerator * product_of_factors((union - thine).elements())
        )
        return FactoredRational(num, union.elements())

    __radd__ = __add__

    def __neg__(self) -> "FactoredRational":
        return FactoredRational(-self.numerator, self.denominator)

    def __sub__(self, other: "FactoredRational | LaurentPoly | int") -> "FactoredRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    # -- reduction and comparison -------------------------------------------

    def to_poly(self) -> LaurentPoly:
        """Reduce to a LaurentPoly; NotPolynomialError if any factor fails
        to divide the numerator exactly."""
        p = self.numerator
        for f in self.denominator:
            p = exact_divide(p, f)
        return p

    def value_equals(self, other: "FactoredRational | LaurentPoly | int") -> bool:
        """Semantic equality, by cross-multiplying denominators."""
        other = _coerce(other)
        return self.numerator * product_of_factors(other.denominator) == (
            other.numerator * product_of_factors(self.denominator)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        den = " * ".join(f"(1 - q^{a} t^{b})" for a, b in self.denominator) or "1"
        return f"FactoredRational(({self.numerator.to_text()}) / {den})"


def _coerce(value) -> "FactoredRational":
    if isinstance(value, FactoredRational):
        return value
    if isinstance(value, (LaurentPoly, int)):
        return FactoredRational.from_poly(value)
    return NotImplemented
