"""Exceptions shared across the package, and the integer check on input
entries that raises one."""

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
