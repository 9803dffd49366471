"""Finite quantales: the carrier of the law suites.

``FiniteQuantale`` is a finite commutative unital quantale given by an
explicit tensor table, chain-ordered by default or lattice-ordered via
explicit join/meet tables.  Its constructor builds the integer kernel
(``FiniteKernel``) that the function, filter and monad layers compute on;
its ``Fraction`` surface is the one ``quantale.TNorm`` exposes.
``check_quantale_axioms`` examines the laws with witnesses, and
``finite_restriction`` cuts a t-norm down to a finite subchain, which is how
the shipped chains ``godel3``, ``mv3`` and ``five_chain`` are made.

The interval counterexample never loads this module, and this module loads
the interval carrier, ``quantale``, only to cut one of those three chains
from its t-norm: a carrier read from a file, or ``two_chain``, needs none.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .base import ONE, ZERO, Record
from .errors import ConstructionError, StructuralError, UsageError
from .serialize import as_fraction

if TYPE_CHECKING:
    from .quantale import TNorm


class Violation(Record):
    """One failed law with its witness tuple: carrier elements for a
    quantale law (``check_quantale_axioms``), F1 and F4, and the values of
    two functions for F2 and F3 (``semifilter.check_axioms``)."""

    __slots__ = ("law", "witness")


class FiniteKernel(Record):
    """The index tables of a finite carrier.

    Elements are named by their positions ``0..n-1`` in the carrier's
    ascending order.  ``tensor``, ``residuum``, ``join`` and ``meet`` are
    ``n x n`` tuples of positions and ``leq`` is an ``n x n`` tuple of
    booleans, so ``tensor[i][j]`` is the position of the tensor of the
    elements at ``i`` and ``j``.  ``bottom``, ``top`` and ``unit`` are
    positions too.
    """

    __slots__ = ("tensor", "residuum", "join", "meet", "leq", "bottom", "top", "unit")


class FiniteQuantale:
    """A finite commutative unital quantale given by tables.

    ``elements`` is the carrier, in ascending numeric order; without
    explicit ``join``/``meet`` tables it is treated as a chain in that order.
    Each table is given as rows: row ``i`` lists the results at the ``i``-th
    element and each element in turn, in that order.  The constructor
    checks the tables for shape only (every entry present and inside the
    carrier); the laws are examined separately by
    ``check_quantale_axioms`` so that broken tables can be constructed and
    reported on.

    The constructor also builds the carrier's integer kernel, once:
    ``position`` maps each element to its index, and ``kernel`` (a
    ``FiniteKernel``) holds the tensor, residuum, join, meet and order as
    index tables.  The finite path runs on it: ``QFunction`` index tuples
    and codes, flat ``SemifilterTable`` values and ``sub``.  The operations
    below take and return ``Fraction`` elements and read the kernel, on a
    chain too: each looks its arguments up with ``index_of``, which refuses
    a non-member, or a value that is neither a ``Fraction`` nor an ``int``,
    with a ``UsageError``.
    """

    def __init__(self, elements: Sequence, tensor, unit,
                 join=None, meet=None):
        elems = tuple(as_fraction(e) for e in elements)
        if len(set(elems)) != len(elems):
            raise ConstructionError("carrier elements must be distinct")
        if not elems:
            raise ConstructionError("carrier must be nonempty")
        self.elements = tuple(sorted(elems))
        self.position = {e: i for i, e in enumerate(self.elements)}
        self.unit = as_fraction(unit)
        if self.unit not in self.position:
            raise ConstructionError(f"unit {self.unit} not in carrier")
        tensor_ix = self._read_table(tensor, "tensor")
        join_ix = self._read_table(join, "join") if join is not None else None
        meet_ix = self._read_table(meet, "meet") if meet is not None else None
        self.kernel = self._build_kernel(tensor_ix, join_ix, meet_ix)
        self._identity = (self.elements, self.kernel,
                          join_ix is None, meet_ix is None)
        self._hash = hash((self.elements, self.kernel.unit, self.kernel.tensor))

    def _read_table(self, rows, name: str) -> tuple:
        """The table, one row per element in ascending order, as an ``n x n``
        tuple of positions, checked for shape."""
        es, position = self.elements, self.position
        rows = list(rows)
        if len(rows) != len(es):
            raise StructuralError(f"{name} table must have {len(es)} rows")
        out = []
        for x, row in zip(es, rows):
            row = list(row)
            if len(row) != len(es):
                raise StructuralError(f"{name} row for {x} has wrong length")
            row = [as_fraction(v) for v in row]
            for y, v in zip(es, row):
                if v not in position:
                    raise StructuralError(f"{name}({x}, {y}) = {v} outside carrier")
            out.append(tuple(map(position.__getitem__, row)))
        return tuple(out)

    def _build_kernel(self, tensor, join, meet) -> FiniteKernel:
        span = range(len(self.elements))
        if join is None:
            join = tuple(tuple(max(i, j) for j in span) for i in span)
        if meet is None:
            meet = tuple(tuple(min(i, j) for j in span) for i in span)
        leq = tuple(tuple(join[i][j] == j for j in span) for i in span)
        bottom = top = 0
        for i in span:
            if leq[i][bottom]:
                bottom = i
            if leq[top][i]:
                top = i
        residuum = []
        for i in span:
            row = []
            for j in span:
                # the largest z with i (x) z <= j, folded with the join
                r = bottom
                for z in span:
                    if leq[tensor[i][z]][j]:
                        r = join[r][z]
                row.append(r)
            residuum.append(tuple(row))
        return FiniteKernel(tensor, tuple(residuum), join, meet, leq,
                            bottom, top, self.position[self.unit])

    def index_of(self, x) -> int:
        """The position of a carrier element, given as ``TNorm`` takes one: a
        ``Fraction``, or an ``int`` that is not a bool.  Anything else, a
        float equal to a member too, is a ``UsageError``."""
        if x.__class__ is bool:
            raise UsageError(f"not an exact rational: {x!r}")
        if isinstance(x, (Fraction, int)):
            i = self.position.get(x)
            if i is not None:
                return i
        raise UsageError(f"{x} is not a carrier element")

    # -- carrier surface -------------------------------------------------

    @property
    def bottom(self) -> Fraction:
        return self.elements[self.kernel.bottom]

    @property
    def top(self) -> Fraction:
        return self.elements[self.kernel.top]

    @property
    def is_integral(self) -> bool:
        return self.kernel.unit == self.kernel.top

    def contains(self, x) -> bool:
        try:
            self.index_of(x)
        except UsageError:
            return False
        return True

    def leq(self, x: Fraction, y: Fraction) -> bool:
        return self.kernel.leq[self.index_of(x)][self.index_of(y)]

    def join(self, x: Fraction, y: Fraction) -> Fraction:
        return self.elements[self.kernel.join[self.index_of(x)][self.index_of(y)]]

    def meet(self, x: Fraction, y: Fraction) -> Fraction:
        return self.elements[self.kernel.meet[self.index_of(x)][self.index_of(y)]]

    def tensor(self, x: Fraction, y: Fraction) -> Fraction:
        return self.elements[self.kernel.tensor[self.index_of(x)][self.index_of(y)]]

    def residuum(self, x: Fraction, y: Fraction) -> Fraction:
        """Largest z with x (x) z <= y, folded with the carrier join.

        Read from the kernel, which folds the join over every such z once
        per carrier.  Callers that join over the meet of a set alone (see
        ``semifilter.semifilter_of``) rely on the residuum being antitone in
        its first argument, which holds on a genuine quantale; see
        ``check_quantale_axioms``.
        """
        return self.elements[self.kernel.residuum[self.index_of(x)][self.index_of(y)]]

    def is_idempotent(self, x: Fraction) -> bool:
        i = self.index_of(x)
        return self.kernel.tensor[i][i] == i

    def __eq__(self, other):
        """Same elements, unit and tables, and the same tables given
        explicitly; compared on the kernel."""
        if self is other:
            return True
        return (isinstance(other, FiniteQuantale)
                and self._identity == other._identity)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        elems = ", ".join(str(e) for e in self.elements)
        return f"FiniteQuantale([{elems}], unit={self.unit})"


def check_quantale_axioms(q: FiniteQuantale) -> list[Violation]:
    """Exhaustively check the quantale laws, witnessing each failure.

    First the lattice laws of the join and meet (explicit tables or the
    chain order): idempotence (for the join, this is reflexivity of the
    order ``leq`` derived from it), commutativity, associativity, absorption,
    and agreement of the join order with the meet order.  Then the tensor:
    commutativity, associativity, the unit law, distributivity over binary
    joins and over the empty join (bottom absorption), and the presence of
    bottom 0 and top 1 in the carrier.  Lattice violations come first.  An
    empty report means the table is a genuine commutative unital quantale.
    """
    out: list[tuple] = []
    k, es = q.kernel, q.elements
    span = range(len(es))
    t, join, meet, bot = k.tensor, k.join, k.meet, k.bottom
    for op, name in ((join, "join"), (meet, "meet")):
        for x in span:
            if op[x][x] != x:
                out.append((f"{name}-idempotence", (x,)))
        for x in span:
            for y in span:
                if op[x][y] != op[y][x]:
                    out.append((f"{name}-commutativity", (x, y)))
        for x in span:
            for y in span:
                for z in span:
                    if op[op[x][y]][z] != op[x][op[y][z]]:
                        out.append((f"{name}-associativity", (x, y, z)))
    for x in span:
        for y in span:
            if join[x][meet[x][y]] != x or meet[x][join[x][y]] != x:
                out.append(("absorption", (x, y)))
            if (join[x][y] == y) != (meet[x][y] == x):
                out.append(("join-meet-agreement", (x, y)))
    if es[bot] != ZERO or es[k.top] != ONE:
        out.append(("bounds", (bot, k.top)))
    for x in span:
        if t[k.unit][x] != x:
            out.append(("unit", (x,)))
        if t[x][bot] != bot:
            out.append(("bottom-absorption", (x,)))
    for x in span:
        for y in span:
            if t[x][y] != t[y][x]:
                out.append(("commutativity", (x, y)))
    for x in span:
        for y in span:
            for z in span:
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    out.append(("associativity", (x, y, z)))
                if t[x][join[y][z]] != join[t[x][y]][t[x][z]]:
                    out.append(("join-distributivity", (x, y, z)))
    return [Violation(law, tuple(es[i] for i in w)) for law, w in out]


def finite_restriction(t: TNorm, elements: Sequence) -> FiniteQuantale:
    """Restrict a t-norm to a finite subchain closed under its tensor.

    Raises ConstructionError when the subchain is not closed.  The residuum
    of the restriction is recomputed inside the subchain and may differ from
    the ambient residuum when the latter leaves the subchain.
    """
    elems = sorted(as_fraction(e) for e in elements)
    members = set(elems)
    rows = [[t.tensor(x, y) for y in elems] for x in elems]
    for x, row in zip(elems, rows):
        for y, v in zip(elems, row):
            if v not in members:
                raise ConstructionError(f"carrier not closed: {x} (x) {y} = {v}")
    return FiniteQuantale(elems, rows, t.unit)


# shipped finite chains ------------------------------------------------------

def two_chain() -> FiniteQuantale:
    """The Boolean quantale {0, 1} with tensor = min."""
    return FiniteQuantale([0, 1], [[0, 0], [0, 1]], 1)


def godel3() -> FiniteQuantale:
    """Three-element chain with tensor = min."""
    from .quantale import godel_tnorm
    return finite_restriction(godel_tnorm(), [0, Fraction(1, 2), 1])


def mv3() -> FiniteQuantale:
    """Three-element Lukasiewicz chain: 1/2 (x) 1/2 = 0."""
    from .quantale import lukasiewicz_tnorm
    return finite_restriction(lukasiewicz_tnorm(), [0, Fraction(1, 2), 1])


def five_chain() -> FiniteQuantale:
    """{0, 1/4, 3/8, 1/2, 1}, closed under the (1/4,1/2) Lukasiewicz block sum."""
    from .quantale import BlockKind, build_ordinal_sum
    t = build_ordinal_sum([(Fraction(1, 4), Fraction(1, 2), BlockKind.LUKASIEWICZ)])
    return finite_restriction(t, [0, Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), 1])
