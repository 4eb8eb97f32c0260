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
from .poly import ONE, ZERO, ExponentPair, LaurentPoly


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


def sum_of_products(rows: Iterable[tuple[ExponentPair, Iterable[tuple[int, int]]]]) -> LaurentPoly:
    """The sum over rows ((e, f), factors) of q^e t^f * prod (1 - q^alpha t^beta),
    expanded by Kronecker substitution into one big integer (Harvey 2009,
    J. Symbolic Comput.).

    The exponent (a, b) maps to the slot a*S + b (less the lowest slot
    used), where the stride S is one more than the t-span of the result, so
    distinct terms of the result land in distinct slots.  Each slot has w
    bits, and a binomial with packed exponent k is one shift and subtract:
    x - (x << k*w) for k > 0, and for k < 0, (1 - X^k) = X^k (X^-k - 1)
    gives (x << -k*w) - x with the row's offset moved by k.

    Exactness: every coefficient of a product of m binomials is at most 2^m
    in absolute value (the sum of the absolute values of its coefficients is
    at most 2^m), so a slot of the sum over all rows holds at most
    len(rows) * 2^max_m < 2^(w-1) when w >= max_m + bit_length(len(rows)) + 1.
    Every slot then is one balanced w-bit digit, and one pass over the bytes
    of the biased sum decodes them all.

    Rows far apart would leave most slots of the common box empty; when it
    has more slots than the rows' own boxes together, each row is packed on
    its own box and the results are added.
    """
    products = []
    q_box: list[int] = []
    t_box: list[int] = []
    own_slots = 0
    for (e, f), factors in rows:
        factors = tuple(factors)
        q_min, q_max, t_min, t_max = e, e, f, f
        for alpha, beta in factors:
            if alpha < 0:
                q_min += alpha
            else:
                q_max += alpha
            if beta < 0:
                t_min += beta
            else:
                t_max += beta
        products.append((e, f, factors))
        q_box += (q_min, q_max)
        t_box += (t_min, t_max)
        own_slots += (q_max - q_min + 1) * (t_max - t_min + 1)
    if not products:
        return LaurentPoly.zero()
    q_lo, q_hi, t_lo, t_hi = min(q_box), max(q_box), min(t_box), max(t_box)
    stride = t_hi - t_lo + 1
    slots = (q_hi - q_lo + 1) * stride
    if slots > own_slots:
        return sum((sum_of_products([((e, f), fs)]) for e, f, fs in products), ZERO)
    max_m = max(len(factors) for _, _, factors in products)
    width = -(-(max_m + len(products).bit_length() + 1) // 8) * 8
    total = 0
    for e, f, factors in products:
        x, offset = 1, 0
        for alpha, beta in factors:
            k = alpha * stride + beta
            if k > 0:
                x -= x << (k * width)
            else:
                x = (x << (-k * width)) - x
                offset += k
        # digit 0 of x is the term taking -X^k from each factor with k < 0:
        # a monomial inside the result's box, so its slot is not negative
        total += x << (((e - q_lo) * stride + f - t_lo + offset) * width)

    nbytes = width // 8
    zero_digit = bytes(nbytes - 1) + b"\x80"  # 0 + the bias 2^(w-1)
    raw = (total + int.from_bytes(zero_digit * slots, "little")).to_bytes(slots * nbytes, "little")
    half = 1 << (width - 1)
    data: dict[ExponentPair, int] = {}
    for i in range(0, slots * nbytes, nbytes):
        digit = raw[i : i + nbytes]
        if digit != zero_digit:
            qe, te = divmod(i // nbytes, stride)
            data[(qe + q_lo, te + t_lo)] = int.from_bytes(digit, "little") - half
    return LaurentPoly._from_dict(data)


def product_of_factors(factors: Iterable[BinomialFactor]) -> LaurentPoly:
    return sum_of_products((((0, 0), factors),))


def exact_divide(p: LaurentPoly, factor: BinomialFactor) -> LaurentPoly:
    """Divide p exactly by (1 - q^alpha t^beta).

    With 1 - X^v = -X^v (1 - X^-v), the division is taken along the
    direction u = v or -v with a positive first nonzero entry.  Terms of p
    are grouped along lattice lines e, e+u, e+2u, ...; on each line the
    quotient coefficients are the running partial sums, and the division is
    exact iff every line sums to zero.  The quotient is unique, so any
    correct method agrees.
    """
    alpha, beta = v = tuple(factor)
    if alpha == 0 and beta == 0:
        raise DomainError("cannot divide by the zero factor (1 - q^0 t^0)")
    if p.is_zero():
        return LaurentPoly.zero()
    sign, first = 1, 0
    if alpha < 0 or (alpha == 0 and beta < 0):
        # divide by (1 - X^-v), then multiply by -X^-v
        alpha, beta, sign, first = -alpha, -beta, -1, 1
    step = alpha or beta

    # A line is keyed by alpha*b - beta*a and by the residue of its
    # position (a, or b when alpha = 0) modulo step; positions increase
    # along u.
    lines: dict[int, list[tuple[int, int, int, int]]] = {}
    for (a, b), coeff in p.terms().items():
        pos = a if alpha else b
        key = (alpha * b - beta * a) * step + pos % step
        line = lines.get(key)
        if line is None:
            lines[key] = [(pos, a, b, coeff)]
        else:
            line.append((pos, a, b, coeff))

    out: dict[ExponentPair, int] = {}
    for entries in lines.values():
        entries.sort()
        running = 0
        for (pos, a, b, coeff), following in zip(entries, entries[1:]):
            running += coeff
            if running:
                value = sign * running
                for k in range(first, first + (following[0] - pos) // step):
                    out[(a + k * alpha, b + k * beta)] = value
        if running + entries[-1][3]:
            raise NotPolynomialError(f"(1 - q^{v[0]} t^{v[1]}) does not divide {p.to_text()}")
    return LaurentPoly._from_dict(out)


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
