"""Q-valued functions on finite sets and the graded-inclusion enrichment.

``sub(lam, mu)`` measures pointwise graded inclusion as the meet over the
domain of ``lam(x) -> mu(x)``; it makes the function space a Q-category.
``image`` pushes a function forward along a map (joins over fibers) and
``precompose`` pulls one back; together they satisfy the adjunction
``sub(image(f, lam), mu) == sub(lam, precompose(f, mu))`` exhaustively.

Functions take their values in a finite carrier and carry the carrier
positions of those values, so every operation here reads the carrier's
integer kernel; a carrier that is not a ``FiniteQuantale`` is refused.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from .base import Record
from .errors import UsageError
from .finite import FiniteQuantale
from .serialize import as_fraction


class FiniteSet(Record):
    """An ordered finite set of distinct hashable labels; may be empty."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple = ()):
        if len(set(elements)) != len(elements):
            raise UsageError("labels must be distinct")
        self.elements = elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def index(self, x) -> int:
        try:
            return self.elements.index(x)
        except ValueError:
            raise UsageError(f"{x!r} is not an element of {self}") from None

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.elements)) + "}"


def finite_set(*labels) -> FiniteSet:
    return FiniteSet(tuple(labels))


class QFunction:
    """A total map from a finite set into a finite carrier, stored densely.

    Values are the carrier's own elements, aligned with the domain order:
    each given value is looked up once with ``FiniteQuantale.index_of``, so
    an ``int`` is taken as the element it equals and a float is refused.
    Equality is pointwise exact equality over the same domain and carrier.

    A function also carries ``index``, the carrier positions of its values,
    and ``code``, that tuple read as a mixed-radix number in base ``|Q|``
    with the last domain position least significant.  The code is the
    function's place in the canonical order of ``all_qfunctions``.
    """

    __slots__ = ("domain", "values", "carrier", "index", "code")

    def __init__(self, domain: FiniteSet, values: tuple[Fraction, ...],
                 carrier: FiniteQuantale):
        _require_finite(carrier)
        if len(values) != len(domain):
            raise UsageError("values must cover the domain exactly")
        for v in values:
            # refused by name, as the carriers refuse it
            if v.__class__ is bool:
                raise UsageError(f"not an exact rational: {v!r}")
        try:
            index = tuple(map(carrier.index_of, values))
        except UsageError:
            bad = next(v for v in values if not carrier.contains(v))
            raise UsageError(f"value {bad} outside the carrier") from None
        self.domain, self.carrier, self.index = domain, carrier, index
        self.values = tuple(map(carrier.elements.__getitem__, index))
        self.code = _code(index, len(carrier.elements))

    @classmethod
    def from_index(cls, domain: FiniteSet, carrier, index: tuple) -> "QFunction":
        """The function on a finite carrier with the given positions.

        The positions come from the carrier's kernel, so no value is looked
        up or hashed.
        """
        f = object.__new__(cls)
        elements = carrier.elements
        f.domain, f.carrier, f.index = domain, carrier, index
        f.values = tuple(map(elements.__getitem__, index))
        f.code = _code(index, len(elements))
        return f

    def __eq__(self, other):
        # equal carriers hold the same elements, so equal positions are
        # equal values
        return (other.__class__ is QFunction and self.index == other.index
                and self.domain == other.domain and self.carrier == other.carrier)

    def __hash__(self):
        return hash((self.domain, self.index))

    def __call__(self, x) -> Fraction:
        return self.values[self.domain.index(x)]

    # pointwise order and lattice structure ------------------------------

    def leq(self, other: "QFunction") -> bool:
        _same_space(self, other)
        leq = self.carrier.kernel.leq
        return all(leq[a][b] for a, b in zip(self.index, other.index))

    def meet(self, other: "QFunction") -> "QFunction":
        _same_space(self, other)
        meet = self.carrier.kernel.meet
        return QFunction.from_index(self.domain, self.carrier,
                                    tuple(meet[a][b] for a, b in zip(self.index, other.index)))

    def join(self, other: "QFunction") -> "QFunction":
        _same_space(self, other)
        join = self.carrier.kernel.join
        return QFunction.from_index(self.domain, self.carrier,
                                    tuple(join[a][b] for a, b in zip(self.index, other.index)))

    def __repr__(self):
        pairs = ", ".join(f"{x!r}: {v}" for x, v in zip(self.domain, self.values))
        return "QFunction({" + pairs + "})"


def _code(index, n: int) -> int:
    code = 0
    for i in index:
        code = code * n + i
    return code


def _same_space(a: QFunction, b: QFunction):
    if a.domain != b.domain or a.carrier != b.carrier:
        raise UsageError("QFunctions live on different domains or carriers")


def _require_finite(carrier):
    if not isinstance(carrier, FiniteQuantale):
        raise UsageError(f"functions need a finite carrier, not {carrier!r}")


def constant(domain: FiniteSet, carrier: FiniteQuantale, c) -> QFunction:
    _require_finite(carrier)
    i = carrier.index_of(as_fraction(c))
    return QFunction.from_index(domain, carrier, (i,) * len(domain))


def unit_constant(domain: FiniteSet, carrier: FiniteQuantale) -> QFunction:
    """The constant function at the monoid unit."""
    _require_finite(carrier)
    return QFunction.from_index(domain, carrier, (carrier.kernel.unit,) * len(domain))


def indicator(domain: FiniteSet, carrier: FiniteQuantale, subset) -> QFunction:
    _require_finite(carrier)
    members = set(subset)
    k = carrier.kernel
    index = tuple(k.top if x in members else k.bottom for x in domain)
    return QFunction.from_index(domain, carrier, index)


def all_qfunctions(domain: FiniteSet, carrier) -> Iterator[QFunction]:
    """All |Q|^|X| functions in canonical lexicographic order.

    The order is lexicographic in the carrier's element order with the last
    domain position varying fastest; serialization relies on it.  The n-th
    function has code n.
    """
    _require_finite(carrier)
    positions = range(len(carrier.elements))
    for index in itertools.product(positions, repeat=len(domain)):
        yield QFunction.from_index(domain, carrier, index)


class SetMap:
    """A total map between finite sets, validated at construction."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: FiniteSet, target: FiniteSet, mapping: tuple):
        if len(mapping) != len(source):
            raise UsageError("map must be total on its source")
        for y in mapping:
            if y not in target:
                raise UsageError(f"map value {y!r} lies outside the target")
        self.source, self.target, self.mapping = source, target, mapping

    def __call__(self, x):
        return self.mapping[self.source.index(x)]

    def compose(self, other: "SetMap") -> "SetMap":
        """self after other."""
        if other.target != self.source:
            raise UsageError("maps do not compose")
        return SetMap(other.source, self.target,
                      tuple(self(other(x)) for x in other.source))

    @staticmethod
    def identity(s: FiniteSet) -> "SetMap":
        return SetMap(s, s, s.elements)


def sub(lam: QFunction, mu: QFunction, *, position: bool = False):
    """Graded inclusion: the meet over the domain of lam(x) -> mu(x).

    Over the empty domain the empty meet is the carrier top.  It is folded
    over the kernel's index tables; with ``position`` set, the result is
    the carrier position of the meet instead of the element.
    """
    _same_space(lam, mu)
    c = lam.carrier
    k = c.kernel
    residuum, meet = k.residuum, k.meet
    out = k.top
    for a, b in zip(lam.index, mu.index):
        out = meet[out][residuum[a][b]]
    return out if position else c.elements[out]


def image(f: SetMap, lam: QFunction) -> QFunction:
    """Pushforward: joins over fibers, bottom on empty fibers."""
    if f.source != lam.domain:
        raise UsageError("map source does not match the function domain")
    c = lam.carrier
    targets = [f.target.index(y) for y in f.mapping]
    join = c.kernel.join
    acc = [c.kernel.bottom] * len(f.target)
    for t, i in zip(targets, lam.index):
        acc[t] = join[acc[t]][i]
    return QFunction.from_index(f.target, c, tuple(acc))


def precompose(f: SetMap, mu: QFunction) -> QFunction:
    """Pullback: x maps to mu(f(x))."""
    if f.target != mu.domain:
        raise UsageError("map target does not match the function domain")
    points = [mu.domain.index(y) for y in f.mapping]
    return QFunction.from_index(f.source, mu.carrier,
                                tuple(mu.index[p] for p in points))
