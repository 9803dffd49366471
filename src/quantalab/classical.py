"""Classical proper-filter monad on finite sets.

An independent oracle for the two-element carrier: over the Boolean
quantale, filter tables should reproduce proper set filters, their units,
images and Kowalsky sums exactly.  Everything here is plain set arithmetic
with no reference to the table machinery; the correspondence itself is
checked in the monad module.

On a finite set every proper filter is principal, so a filter is stored as
its base (a nonempty frozenset) and the upper set is implicit.
"""

from __future__ import annotations

import itertools
from typing import Iterable


class ProperFilter:
    __slots__ = ("universe", "base")

    def __init__(self, universe: frozenset, base: frozenset):
        if not base or not base <= universe:
            raise ValueError("a proper filter needs a nonempty base inside the universe")
        self.universe, self.base = universe, base

    def member(self, subset: Iterable) -> bool:
        return self.base <= frozenset(subset)

    def sets(self) -> list[frozenset]:
        rest = self.universe - self.base
        out = []
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(sorted(rest), r):
                out.append(self.base | frozenset(extra))
        return sorted(out, key=lambda s: (len(s), sorted(s)))


def all_proper_filters(universe: Iterable) -> list[ProperFilter]:
    u = frozenset(universe)
    out = []
    for r in range(1, len(u) + 1):
        for base in itertools.combinations(sorted(u), r):
            out.append(ProperFilter(u, frozenset(base)))
    return out


def principal(universe: Iterable, base: Iterable) -> ProperFilter:
    return ProperFilter(frozenset(universe), frozenset(base))


def filter_unit(universe: Iterable, x) -> ProperFilter:
    return principal(universe, [x])


def filter_image(f: dict, target: Iterable, filt: ProperFilter) -> ProperFilter:
    """{A : preimage of A belongs to the filter}; principal base maps forward."""
    return principal(target, {f[x] for x in filt.base})


def filter_multiplication(universe: Iterable,
                          outer_base: Iterable) -> ProperFilter:
    """Kowalsky sum of the principal filter-of-filters with the given base.

    A subset survives iff it belongs to every base filter, so the sum is the
    intersection, i.e. the principal filter at the union of the bases.
    """
    base_filters = list(outer_base)
    if not base_filters:
        raise ValueError("outer base must be nonempty")
    joined = frozenset().union(*(f.base for f in base_filters))
    return principal(universe, joined)
