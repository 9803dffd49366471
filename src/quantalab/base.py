"""What every layer and both carriers share: ``Record``, the rationals
``ZERO`` and ``ONE``, and the monad ``Variant``.

It holds no function, and imports nothing of the package, so a layer that
needs one of these names loads neither carrier with it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import attrgetter

ZERO = Fraction(0)
ONE = Fraction(1)


class Record:
    """A value built from its fields and compared by content: equal to a
    record of its own class whose fields are equal, and hashed and shown by
    those fields.  The fields are the names in the subclass's own
    ``__slots__``; a subclass that names none is refused when it is created.
    The constructor stores every field as given, in ``__slots__`` order by
    position or by name; one missing, unknown, given twice or past the last
    is a ``TypeError`` naming the fields.  A subclass writes a constructor of
    its own only to do more than store them."""

    __slots__ = ()

    def __init_subclass__(cls):
        if not vars(cls).get("__slots__"):
            raise TypeError(f"{cls.__name__} must name its fields in its own __slots__")
        # a class attribute that is not a method: called as self._key(self)
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named or len(values) != len(fields):
            # one sorted comparison finds a field missing, unknown or twice
            given = fields[:len(values)] + tuple(named)
            if len(values) > len(fields) or sorted(given) != sorted(fields):
                raise TypeError(f"{self.__class__.__name__} takes each of its fields "
                                f"({', '.join(fields)}) once, got {len(values)} by "
                                f"position and {', '.join(named) or 'none'} by name")
            values += tuple(named[name] for name in fields[len(values):])
        for name, value in zip(fields, values):
            setattr(self, name, value)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Variant(Enum):
    """Which of the three monads: on conical semifilters (PLAIN), on those
    that are filters (FILTER), or on bounded ones (BOUNDED).  The finite law
    suites and the interval counterexample both take one."""

    PLAIN = "plain"
    FILTER = "filter"
    BOUNDED = "bounded"
