"""The frozen value record behind the package's small immutable types;
``ABCParams``, the one value type two routes (recursions, chains) share;
and ``in_region``, the one test of the triple region it validates, which
verify's grid of triples reads as well."""

from operator import attrgetter, eq, ge, gt, le, lt

from .errors import DomainError, integer_entries


def _compare(op):
    return lambda a, b: op(a._key(a), b._key(b)) if b.__class__ is a.__class__ else NotImplemented


class Record:
    """An immutable record of the fields a subclass names in ``__slots__``,
    built by position and validated by ``_check``.  As a frozen dataclass,
    it compares, hashes, orders, shows and pickles as its fields' tuple."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # one name makes attrgetter return the bare value, not a 1-tuple
        cls._key = get if len(cls.__slots__) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}, got {values}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise if the fields do not make a valid record."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
    __eq__, __lt__, __le__, __gt__, __ge__ = map(_compare, (eq, lt, le, gt, ge))

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return self.__class__, self._key(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def in_region(a: int, b: int, c: int) -> bool:
    """Whether (a, b, c) lies in the validated region, where the chains hold."""
    return a >= 0 and b >= 0 and c >= 0 and a + 1 >= b and a + 1 >= c and b + 1 >= c


#: The most subdiagrams of its staircase (L, b + c, c) that an ``ABCParams``
#: may have, by the bound (L + 1)(b + c + 1)(c + 1): no n = 4 route or chain
#: decomposition reads more.  (40, 40, 40), the (161, 4) rational Catalan,
#: reaches 401,841, and the tests' (8, 8, 8) 3,825.
MAX_SUBDIAGRAMS = 1 << 21


class ABCParams(Record):
    """A validated argument triple for the three-argument machinery.

    Requires a, b, c >= 0 with a+1 >= b, a+1 >= c and b+1 >= c; every
    statement about chains and statistics assumes this region.  A triple
    past MAX_SUBDIAGRAMS is refused before any route runs.
    """

    __slots__ = ("a", "b", "c")

    def _check(self):
        a, b, c = integer_entries((self.a, self.b, self.c))
        if not in_region(a, b, c):
            raise DomainError(
                f"({a}, {b}, {c}) is outside the validated region "
                "(need a, b, c >= 0, a+1 >= b, a+1 >= c, b+1 >= c)"
            )
        bound = (a + b + c + 1) * (b + c + 1) * (c + 1)
        if bound > MAX_SUBDIAGRAMS:
            raise DomainError(
                f"the staircase of ({a}, {b}, {c}) may have {bound} subdiagrams, "
                f"(L + 1)(b + c + 1)(c + 1), more than the {MAX_SUBDIAGRAMS} allowed"
            )

    @property
    def total_weight(self) -> int:
        """A = a + 2b + 3c, the size of the ambient staircase."""
        return self.a + 2 * self.b + 3 * self.c

    @property
    def leg(self) -> int:
        """L = a + b + c, the longest row of the ambient staircase."""
        return self.a + self.b + self.c

    def ambient(self) -> tuple[int, int, int]:
        """The staircase partition (a+b+c, b+c, c)."""
        return (self.a + self.b + self.c, self.b + self.c, self.c)
