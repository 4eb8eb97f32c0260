"""The frozen value record behind the package's small immutable types."""

from operator import attrgetter, eq, ge, gt, le, lt


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
