"""Exact sparse Laurent polynomials in q and t over the integers.

A polynomial is a finite map from exponent pairs ``(q_exp, t_exp)`` (either
may be negative) to nonzero integer coefficients.  Python integers are
arbitrary precision, so all arithmetic here is exact.  Values are immutable
after construction and safe to share freely.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .errors import DomainError, integer_entries

# An exponent pair (power of q, power of t).
ExponentPair = tuple[int, int]


def _term_sort_key(item: tuple[ExponentPair, int]) -> tuple[int, int]:
    # q-degree descending, then t-degree ascending
    (qe, te), _ = item
    return (-qe, te)


class LaurentPoly:
    """An element of Z[q, q^-1, t, t^-1] in canonical sparse form.

    Invariants: no stored coefficient is zero and each exponent pair appears
    at most once.  Instances are immutable; all operations return new values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExponentPair, int] | Iterable[tuple[ExponentPair, int]] = ()):
        data: dict[ExponentPair, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (qe, te), coeff in items:
            if not type(coeff) is type(qe) is type(te) is int:  # refuses 1.5 and True
                qe, te, coeff = integer_entries((qe, te, coeff))
            if coeff == 0:
                continue
            key = (qe, te)
            new = data.get(key, 0) + coeff
            if new:
                data[key] = new
            else:
                data.pop(key, None)
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return ZERO

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({(0, 0): n})

    @classmethod
    def monomial(cls, q_exp: int, t_exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({(q_exp, t_exp): coeff})

    @staticmethod
    def _from_dict(data: dict[ExponentPair, int]) -> "LaurentPoly":
        """Wrap data, which must already hold no zero coefficient, without
        copying or re-validating it."""
        out = object.__new__(LaurentPoly)
        _set_terms(out, data)
        return out

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[ExponentPair, int]:
        """A copy of the underlying exponent-to-coefficient map."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[ExponentPair, int]]:
        """Terms sorted by q-degree descending, then t-degree ascending."""
        return sorted(self._terms.items(), key=_term_sort_key)

    def is_zero(self) -> bool:
        return not self._terms

    def has_negative_coefficient(self) -> bool:
        return any(c < 0 for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[ExponentPair, int]]:
        return iter(self.sorted_terms())

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        data = dict(self._terms)
        for key, coeff in other._terms.items():
            new = data.get(key, 0) + coeff
            if new:
                data[key] = new
            else:
                del data[key]
        return LaurentPoly._from_dict(data)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_dict({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if _is_int(other):
            if other == 0:
                return ZERO
            return LaurentPoly._from_dict({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        data: dict[ExponentPair, int] = {}
        for (qa, ta), ca in a.items():
            for (qb, tb), cb in b.items():
                key = (qa + qb, ta + tb)
                new = data.get(key, 0) + ca * cb
                if new:
                    data[key] = new
                else:
                    del data[key]
        return LaurentPoly._from_dict(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not _is_int(n) or n < 0:
            raise DomainError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if _is_int(other):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its integer, so it hashes as that integer
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # -- substitutions -----------------------------------------------------

    def swap_qt(self) -> "LaurentPoly":
        """Exchange q and t (transpose every exponent pair)."""
        return LaurentPoly._from_dict({(te, qe): c for (qe, te), c in self._terms.items()})

    def specialize_t_one(self) -> "LaurentPoly":
        """Substitute t = 1.  The result is univariate in q (t-degree 0)."""
        return LaurentPoly(((qe, 0), c) for (qe, te), c in self._terms.items())

    def specialize_t_qinv(self) -> "LaurentPoly":
        """Substitute t = q^-1, giving a univariate Laurent polynomial in q."""
        return LaurentPoly(((qe - te, 0), c) for (qe, te), c in self._terms.items())

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Plain-text form, q-degree descending then t-degree ascending."""
        return format_terms(self, "{}^{}", " ")

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"


def format_terms(p: LaurentPoly, power: str, sep: str) -> str:
    """Signed sum of the terms of p, q-degree descending then t-degree
    ascending.  A variable with exponent e != 0 is written as its name if
    e = 1 and as power.format(name, e) otherwise; sep goes between a
    coefficient and its monomial and between q and t."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for (qe, te), coeff in p.sorted_terms():
        mono = sep.join(
            name if e == 1 else power.format(name, e) for name, e in (("q", qe), ("t", te)) if e
        )
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}{sep}{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def _is_int(value) -> bool:
    # an int that is not a bool: True and False are refused as 1.5 is
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(value) -> "LaurentPoly":
    if isinstance(value, LaurentPoly):
        return value
    if _is_int(value):
        return LaurentPoly.from_int(value)
    return NotImplemented


# The slot's own setter, which LaurentPoly.__setattr__ does not block.
_set_terms = LaurentPoly._terms.__set__

ZERO = LaurentPoly()
ONE = LaurentPoly({(0, 0): 1})

#: Convenient generators for building expressions in tests and callers.
Q = LaurentPoly.monomial(1, 0)
T = LaurentPoly.monomial(0, 1)


def qt_power(k: int) -> LaurentPoly:
    """The monomial (qt)^k; k may be negative."""
    (k,) = integer_entries((k,))
    return LaurentPoly.monomial(k, k)


def bracket(m: int) -> LaurentPoly:
    """The homogeneous q,t-integer of degree m-1.

    bracket(m) = q^(m-1) + q^(m-2) t + ... + t^(m-1), with bracket(0) = 0.
    """
    (m,) = integer_entries((m,))
    if m < 0:
        raise DomainError(f"bracket requires m >= 0, got {m}")
    return LaurentPoly({(m - 1 - i, i): 1 for i in range(m)})


def _is_unimodal(seq: list[int]) -> bool:
    falling = False
    for prev, cur in zip(seq, seq[1:]):
        if cur < prev:
            falling = True
        elif cur > prev and falling:
            return False
    return True


def unimodality_check(p: LaurentPoly) -> bool:
    """True iff the even-degree and odd-degree coefficient sequences of a
    univariate polynomial in q are each unimodal.

    Missing exponents inside the support range count as zero coefficients.
    """
    if any(te != 0 for (_, te) in p.terms()):
        raise DomainError("unimodality_check expects a univariate polynomial in q")
    if p.is_zero():
        return True
    coeffs = {qe: c for (qe, _), c in p.terms().items()}
    lo, hi = min(coeffs), max(coeffs)
    for parity in (0, 1):
        seq = [coeffs.get(e, 0) for e in range(lo, hi + 1) if e % 2 == parity]
        if not _is_unimodal(seq):
            return False
    return True
