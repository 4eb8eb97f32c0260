"""Exceptions shared across the package, and the two input checks that
raise one: ``integer_entries`` (every entry an integer) and
``canonical_partition`` (a nonnegative, weakly decreasing sequence), read
by every route that takes such an input."""

import operator
from typing import Sequence


class DomainError(ValueError):
    """An argument lies outside the domain on which an operation is defined."""


class NotPolynomialError(ArithmeticError):
    """A rational expression failed to reduce to a Laurent polynomial.

    Raised by exact division when a binomial denominator factor does not
    divide the numerator.  For the tableau sums this signals either an
    invalid input vector or an implementation bug, since the full sums are
    guaranteed to be polynomial.
    """


def integer_entries(values: Sequence[int]) -> tuple[int, ...]:
    """values as a tuple of ints.  An entry that is not an integer, such as
    1.5, "2" or True, is refused rather than read as one."""
    out = []
    for x in values:
        try:
            if isinstance(x, bool):
                raise TypeError  # operator.index(True) is 1
            out.append(operator.index(x))
        except TypeError:
            raise DomainError(f"entries must be integers, got {x!r}") from None
    return tuple(out)


def canonical_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Validate a weakly decreasing nonnegative sequence and strip trailing zeros."""
    parts = integer_entries(parts)
    for i, p in enumerate(parts):
        if p < 0:
            raise DomainError(f"partition parts must be nonnegative, got {parts}")
        if i and parts[i - 1] < p:
            raise DomainError(f"partition parts must weakly decrease, got {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts
