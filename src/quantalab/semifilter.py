"""Semifilters as explicit total tables over a finite quantale.

A semifilter on X assigns a degree to every Q-valued function on X, subject
to three laws: the constant unit gets at least the unit degree (F1), meets
are not undervalued (F2), and the assignment respects graded inclusion (F3).
A filter additionally caps constants (F4).

A table is one flat tuple of carrier positions in the canonical order of
``all_qfunctions``, so the value at a function is read at its mixed-radix
code; order, meets and residuation of tables run on the carrier's integer
kernel.  Everything here is exact and exhaustively checkable at desk scale.
Second-level objects (semifilters over a space of semifilters) are never
full tables over the true double level; they are tables over an explicitly
declared finite family of inner semifilters, which is all the constructions
evaluate anyway.

The builders fill tables on the kernel: positions in, positions out.  The
canonical order is ``qfun``'s, read through ``qfun.columns``: column x
holds the position at x of every function, in that order.  The table
induced by a set of generators is the pointwise join of their
``sub(g, -)`` rows, each filled by ``_sub_at`` from the residuum rows of
``g``'s positions along the columns; level sets are read off the columns
as position rows, a unit is a column, and images, Kowalsky sums and the
constants of F4 read their source table at the codes of a list of
columns (``_read``).  None of them builds a ``QFunction`` or a
``Fraction``: values become ``Fraction`` elements only at ``__call__``,
``canonical_values`` and ``entries``, and enter only through
``scenario.semifilter_from_json``.  F1-F3 are decided by one lazy scan
over pairs of functions, shared by ``check_axioms`` and
``enumerate_semifilters``; "positive" means above the kernel's bottom,
and the least positive element is the kernel's.  Whether a conical
semifilter lies in a variant is decided on its generator row alone
(``row_satisfies``).  The ``Fraction``-level table of a function, the
``Fraction`` scan of F1-F4, the variant read from a filled table and the
characterizations of conicality by residuation and by the way-below
relation are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .base import Record, Variant
from .errors import BudgetError, UsageError
from .finite import FiniteQuantale, Violation
from .prefilter import PrefilterBasis, least_positive_position
from .qfun import (FiniteSet, QFunction, SetMap, all_qfunctions, columns, sub,
                   unit_constant)

TABLE_CAP = 3 ** 9
ENUM_BUDGET = 3 ** 9


class SemifilterTable(Record):
    """A total map from all |Q|^|X| functions to carrier values.

    ``index`` holds one carrier position per function, in canonical
    order, so the value at ``lam`` is at ``index[lam.code]``.  The
    constructor trusts its positions, as ``QFunction.from_index`` does:
    the kernel builders fill them, and a table read from a file gets them
    from ``scenario.semifilter_from_json``, which refuses a value outside
    the carrier and a function missing or listed twice.
    """

    __slots__ = ("domain", "carrier", "index")

    def __init__(self, domain: FiniteSet, carrier: FiniteQuantale, index):
        self.domain, self.carrier, self.index = domain, carrier, tuple(index)

    @property
    def entries(self) -> dict:
        """Value tuples, in canonical order, to values: a new dict at each
        read, so bind it once."""
        es = self.carrier.elements
        _, cols = columns(len(self.domain), len(es))
        return {tuple(es[col[c]] for col in cols): es[v]
                for c, v in enumerate(self.index)}

    def __call__(self, lam: QFunction) -> Fraction:
        if lam.domain != self.domain or lam.carrier != self.carrier:
            raise UsageError("function does not match the table's space")
        return self.carrier.elements[self.index[lam.code]]

    def functions(self):
        return all_qfunctions(self.domain, self.carrier)

    def canonical_values(self) -> tuple[Fraction, ...]:
        return tuple(self.carrier.elements[i] for i in self.index)

    def f4_failures(self) -> list[int]:
        """The carrier positions ``i`` where F4 fails: the table holds the
        constant function at ``i`` above ``i``."""
        n = len(self.carrier.elements)
        leq = self.carrier.kernel.leq
        # the i-th of these n functions is the constant at i
        held = _read(self.index, n, [range(n)] * len(self.domain), n)
        return [i for i, v in enumerate(held) if not leq[v][i]]

    def leq(self, other: "SemifilterTable") -> bool:
        self._same_space(other)
        leq = self.carrier.kernel.leq
        return all(leq[a][b] for a, b in zip(self.index, other.index))

    def meet(self, other: "SemifilterTable") -> "SemifilterTable":
        self._same_space(other)
        meet = self.carrier.kernel.meet
        return SemifilterTable(self.domain, self.carrier,
                               (meet[a][b] for a, b in zip(self.index, other.index)))

    def _same_space(self, other: "SemifilterTable"):
        if self.domain != other.domain or self.carrier != other.carrier:
            raise UsageError("tables live on different spaces")

    def __repr__(self):
        return f"SemifilterTable({len(self.domain)} points, {len(self.index)} entries)"


def table_size(domain: FiniteSet, carrier) -> int:
    """|Q|^|X|, the entries of a table on ``domain``, refused above
    ``TABLE_CAP`` before anything is filled or read."""
    if not isinstance(carrier, FiniteQuantale):
        raise UsageError("semifilter tables need a finite carrier")
    size = len(carrier.elements) ** len(domain)
    if size > TABLE_CAP:
        raise BudgetError(f"table would need {size} entries (cap {TABLE_CAP})",
                          count=size)
    return size


def _f1_f3_failures(kernel, unit_code: int, pairs: Sequence[tuple],
                    index: Sequence[int]):
    """The F1-F3 failures of the table with positions ``index``, lazily.

    First F1, with the position held at the constant unit (at
    ``unit_code``); then F2 and F3 at each pair of ``pairs``, each with the
    codes of the pair.  A pair is ``(code lam, code mu, position of
    sub(lam, mu), code of their meet)``, as ``_pairs`` lists them.
    """
    leq, meet, res = kernel.leq, kernel.meet, kernel.residuum
    if not leq[kernel.unit][index[unit_code]]:
        yield "F1", (index[unit_code],)
    for i, j, s, mij in pairs:
        vi, vj = index[i], index[j]
        if not leq[meet[vi][vj]][index[mij]]:
            yield "F2", (i, j)
        if not leq[s][res[vi][vj]]:
            yield "F3", (i, j)


def _pairs(funcs: Sequence[QFunction]) -> list[tuple]:
    """Every ordered pair of the functions, in their order, for
    ``_f1_f3_failures``."""
    return [(f.code, g.code, sub(f, g, position=True), f.meet(g).code)
            for f in funcs for g in funcs]


def check_axioms(table: SemifilterTable, require_filter: bool = False) -> list[Violation]:
    """Report all violations of F1-F3 (and F4 on request) with witnesses.

    The scan runs on positions (``_f1_f3_failures``, as in
    ``enumerate_semifilters``); only a witness becomes ``Fraction``s: the
    value held at the constant unit for F1, the values of the two
    functions for F2 and F3, the constant's value for F4.
    """
    q = table.carrier
    es = q.elements
    funcs = list(table.functions())
    unit_code = unit_constant(table.domain, q).code
    out = [Violation(axiom, (es[w[0]],) if axiom == "F1"
                     else (funcs[w[0]].values, funcs[w[1]].values))
           for axiom, w in _f1_f3_failures(q.kernel, unit_code, _pairs(funcs),
                                           table.index)]
    if require_filter:
        out += [Violation("F4", (es[i],)) for i in table.f4_failures()]
    return out


# -- the kernel fill -----------------------------------------------------------

def _read(index: Sequence[int], n: int, columns: Sequence[Sequence[int]],
          size: int) -> list[int]:
    """``index``, a table in canonical order in base ``n``, read at ``size``
    functions given point by point: entry ``c`` of ``columns[x]`` is the
    position of the ``c``-th function at ``x``."""
    codes = [0] * size
    for column in columns:
        codes = [c * n + v for c, v in zip(codes, column)]
    return [index[c] for c in codes]


def _sub_at(kernel, g: Sequence[int], columns: Sequence[Sequence[int]],
            size: int) -> list[int]:
    """``sub(g, -)`` at ``size`` functions given point by point: entry ``c``
    of ``columns[x]`` is the position of the ``c``-th function at ``x``."""
    meet, residuum = kernel.meet, kernel.residuum
    out = [kernel.top] * size
    for i, column in zip(g, columns):
        row = residuum[i]
        out = [meet[a][row[v]] for a, v in zip(out, column)]
    return out


def _induced(domain: FiniteSet, carrier: FiniteQuantale,
             generators: Sequence[Sequence[int]]) -> SemifilterTable:
    """The table ``lam |-> join_g sub(g, lam)`` over position rows ``g``;
    bottom everywhere if there are none."""
    table_size(domain, carrier)
    size, cols = columns(len(domain), len(carrier.elements))
    k = carrier.kernel
    fills = [_sub_at(k, g, cols, size) for g in generators] or [[k.bottom] * size]
    return SemifilterTable(domain, carrier, functools.reduce(
        lambda out, fill: [k.join[a][b] for a, b in zip(out, fill)], fills))


def _row_meet(rows: Sequence[tuple], kernel) -> tuple:
    """The pointwise meet of a family of position rows; ``()`` if empty."""
    meet = kernel.meet
    return tuple(functools.reduce(lambda a, b: meet[a][b], column)
                 for column in zip(*rows))


def _generators(rows: Iterable[tuple], kernel) -> list[tuple]:
    """Position rows inducing the same table as a finite family of rows.

    When the family contains its own pointwise meet, as the level set of
    every semifilter does (F2), that meet is the only row: ``sub(-, lam)``
    is antitone, so every other row adds nothing to the join.  Otherwise
    every distinct row is kept.
    """
    distinct = list(dict.fromkeys(rows))
    low = _row_meet(distinct, kernel)
    return [low] if low in distinct else distinct


def _level_rows(table: SemifilterTable) -> list[tuple]:
    """The position rows of the functions held at degree >= unit."""
    k = table.carrier.kernel
    above_unit = k.leq[k.unit]
    _, cols = columns(len(table.domain), len(table.carrier.elements))
    return [tuple(col[c] for col in cols)
            for c, v in enumerate(table.index) if above_unit[v]]


def _pullback(table: SemifilterTable, f: SetMap) -> SemifilterTable:
    """The table ``mu |-> table(mu . f)`` on ``f``'s target: the column of
    ``mu . f`` at x is the column of ``mu`` at ``f(x)``."""
    q = table.carrier
    table_size(f.target, q)
    n = len(q.elements)
    size, cols = columns(len(f.target), n)
    return SemifilterTable(f.target, q, _read(
        table.index, n, [cols[f.target.index(y)] for y in f.mapping], size))


def evaluation_unit(domain: FiniteSet, carrier: FiniteQuantale, x) -> SemifilterTable:
    """The unit at x: every function is sent to its value at x.

    Satisfies F1-F4 and is conical.
    """
    idx = domain.index(x)
    table_size(domain, carrier)
    _, cols = columns(len(domain), len(carrier.elements))
    return SemifilterTable(domain, carrier, cols[idx])


def level_prefilter(table: SemifilterTable) -> tuple[QFunction, ...]:
    """The functions held with degree at least the unit, as an explicit set.

    This is the saturated prefilter attached to the table; it is finite here
    because the whole function space is.
    """
    return tuple(QFunction.from_index(table.domain, table.carrier, row)
                 for row in _level_rows(table))


def semifilter_of(source) -> SemifilterTable:
    """The table induced by a prefilter: the join of graded inclusions.

    Accepts a PrefilterBasis (the join over the generated prefilter is then
    attained at its generator, so the table is ``sub(generator, -)``) or
    any explicit iterable of functions.  For an explicit set the join is
    taken over its members, or over its meet alone when the set contains
    it: ``sub`` is antitone in its first argument on a genuine quantale.
    The set is not meet-closed first, since members below it would change
    the join.  Tables produced this way are conical by construction.
    """
    if isinstance(source, PrefilterBasis):
        return _induced(source.domain, source.carrier, [source.generator.index])
    members = list(source)
    if not members:
        raise UsageError("an explicit generating set must be nonempty")
    domain, carrier = members[0].domain, members[0].carrier
    if any(f.domain != domain or f.carrier != carrier for f in members):
        raise UsageError("QFunctions live on different domains or carriers")
    return _induced(domain, carrier,
                    _generators((f.index for f in members), carrier.kernel))


def conical_coreflection(table: SemifilterTable) -> SemifilterTable:
    """The largest conical table below the given one.

    Deflationary, monotone, idempotent; fixes exactly the conical tables and
    preserves the level set of functions held at degree >= unit.  The table
    is induced from the level set (see ``semifilter_of``).  A semifilter's
    level set is meet-closed (F2), so its meet alone generates the result;
    for a table that fails F2 every member of the level set is joined over.
    """
    return _induced(table.domain, table.carrier,
                    _generators(_level_rows(table), table.carrier.kernel))


def is_conical_semifilter(table: SemifilterTable) -> bool:
    """Whether the table satisfies F1-F3 and is conical.

    These are exactly the tables ``sub(g, -)`` with ``g`` below the constant
    unit: such a table satisfies F2 and F3 for every ``g``, and F1 says
    ``g`` lies below the unit.  ``g`` is then the meet of the level set, so
    the test is F1 and one fill from that meet, with none of the pairwise
    scans of ``check_axioms``.
    """
    q = table.carrier
    k = q.kernel
    if not k.leq[k.unit][table.index[unit_constant(table.domain, q).code]]:
        return False
    size, cols = columns(len(table.domain), len(q.elements))
    return tuple(_sub_at(k, table_generator(table), cols, size)) == table.index


def table_generator(table: SemifilterTable) -> tuple:
    """The meet of the table's level set, as a position row.

    On a conical semifilter this is its generator: the table is
    ``sub(g, -)`` for this row ``g``, and for no other below the constant
    unit (see ``is_conical_semifilter``), so two such tables are equal
    exactly when their generators are.
    """
    return _row_meet(_level_rows(table), table.carrier.kernel)


def residuate(p: Fraction, table: SemifilterTable) -> SemifilterTable:
    """Residuate every table value by the constant p; preserves F1-F3."""
    q = table.carrier
    row = q.kernel.residuum[q.index_of(p)]
    return SemifilterTable(table.domain, q, (row[v] for v in table.index))


# -- second level ------------------------------------------------------------

class SemifilterFamily:
    """A declared finite family of semifilters on a common space.

    Plays the role of the (astronomically large) set of all semifilters in
    second-level constructions; outer tables are indexed by its labels, and
    the evaluation functional of a function restricts to the family.
    """

    __slots__ = ("labels", "members")

    def __init__(self, labels: FiniteSet, members: tuple[SemifilterTable, ...]):
        if len(labels) != len(members):
            raise UsageError("labels and members must align")
        for m in members[1:]:
            m._same_space(members[0])
        self.labels, self.members = labels, members

    @classmethod
    def of(cls, members: Iterable[SemifilterTable], prefix: str = "g") -> "SemifilterFamily":
        ms = tuple(members)
        if not ms:
            raise UsageError("a family needs at least one member")
        labels = FiniteSet(tuple(f"{prefix}{i}" for i in range(len(ms))))
        return cls(labels, ms)

    @property
    def x_domain(self) -> FiniteSet:
        return self.members[0].domain

    @property
    def carrier(self) -> FiniteQuantale:
        return self.members[0].carrier

    def __len__(self):
        return len(self.members)


def kowalsky_sum(outer: SemifilterTable | PrefilterBasis,
                 family: SemifilterFamily) -> SemifilterTable:
    """The diagonal of an outer semifilter over a declared family.

    Each function on the base set is sent to the outer degree of its
    evaluation functional, and the outer semifilter is read nowhere else:
    at most |Q|^|X| of its values.  The outer argument is a table over the
    family's labels, or a ``PrefilterBasis`` on them, which stands for
    ``semifilter_of(basis)`` and is evaluated only at those functionals.
    The result satisfies F1-F3 whenever the outer semifilter does.
    """
    if outer.domain != family.labels or outer.carrier != family.carrier:
        raise UsageError("outer semifilter is not indexed by the family")
    q = family.carrier
    size = table_size(family.x_domain, q)
    cols = [m.index for m in family.members]
    if isinstance(outer, PrefilterBasis):
        fill = _sub_at(q.kernel, outer.generator.index, cols, size)
    else:
        fill = _read(outer.index, len(q.elements), cols, size)
    return SemifilterTable(family.x_domain, q, fill)


# -- enumeration -------------------------------------------------------------

def conical_semifilters(domain: FiniteSet,
                        carrier: FiniteQuantale) -> list[SemifilterTable]:
    """Every conical semifilter on the domain, listed by its generator.

    These are exactly the tables ``sub(g, -)`` with ``g`` below the constant
    unit (see ``is_conical_semifilter``), and ``g`` is the meet of the
    table's level set, so each is listed once: one fill per generator, in
    the canonical order of ``g``.  Each is the table of the saturated
    prefilter ``normalize_basis([g])``.
    """
    table_size(domain, carrier)
    size, cols = columns(len(domain), len(carrier.elements))
    k = carrier.kernel
    rows = (tuple(col[c] for col in cols) for c in range(size))
    return [SemifilterTable(domain, carrier, _sub_at(k, g, cols, size))
            for g in rows if all(k.leq[i][k.unit] for i in g)]


def enumerate_semifilters(domain: FiniteSet, carrier: FiniteQuantale,
                          require: str = "all",
                          budget: int = ENUM_BUDGET) -> list[SemifilterTable]:
    """Brute-force all tables and keep those satisfying the requested axioms.

    ``require`` is "all" (F1-F3) or "filter" (adds F4); the conical ones
    are listed directly by ``conical_semifilters``.  Each candidate runs
    the F1-F3 scan of ``check_axioms`` up to its first failure.  Refuses
    to scan more than ``budget`` candidate tables before any function is
    built, naming the count as ``n^k`` in the message and exactly in the
    error's ``count``.
    """
    if require not in ("all", "filter"):
        raise UsageError(f"unknown requirement {require!r}")
    q = carrier
    size = table_size(domain, q)
    count = len(q.elements) ** size
    if count > budget:
        raise BudgetError(f"enumeration would scan {len(q.elements)}^{size} "
                          f"tables (budget {budget})", count=count)
    kernel, unit_code = q.kernel, unit_constant(domain, q).code
    pairs = _pairs(list(all_qfunctions(domain, q)))
    out: list[SemifilterTable] = []
    for vals in itertools.product(range(len(q.elements)), repeat=size):
        # the scan stops at the first failure
        if next(_f1_f3_failures(kernel, unit_code, pairs, vals), None) is None:
            t = SemifilterTable(domain, q, vals)
            if require == "all" or not t.f4_failures():
                out.append(t)
    return out


# -- boundedness and the variants --------------------------------------------

def _require_integral(carrier: FiniteQuantale) -> None:
    if not carrier.is_integral:
        raise UsageError(f"carrier {carrier!r} is not integral, which "
                         "boundedness needs")


def require_bounded_carrier(carrier: FiniteQuantale) -> None:
    """Refuse a carrier the bounded constructions cannot run on.

    It must be integral and have a least positive element
    (``least_positive_position``); the refusal is a ``UsageError`` naming
    it.
    """
    _require_integral(carrier)
    least_positive_position(carrier)


def row_satisfies(row: Sequence[int], carrier: FiniteQuantale,
                  variant: Variant) -> bool:
    """Whether the table ``sub(g, -)`` of the generator row g, one carrier
    position per point, lies in the variant's subcategory of semifilters.

    Every variant needs g below the constant unit (F1); the table is then
    a conical semifilter.  FILTER adds F4, read from the row: the table
    holds the constant at each position c at ``meet_x residuum[g_x][c]``,
    which must lie below c.  BOUNDED holds when the row is empty or its
    meet is not the bottom: every function above g is then bounded, and g
    itself is held at full degree.  It needs an integral carrier, and
    refuses any other with a ``UsageError`` naming it.
    """
    k = carrier.kernel
    if not all(k.leq[a][k.unit] for a in row):
        return False
    if variant is Variant.FILTER:
        meet, leq = k.meet, k.leq
        residua = [k.residuum[a] for a in row]
        return all(leq[functools.reduce(lambda m, r: meet[m][r[c]], residua, k.top)][c]
                   for c in range(len(carrier.elements)))
    if variant is Variant.BOUNDED:
        _require_integral(carrier)
        return not row or functools.reduce(lambda a, b: k.meet[a][b], row) != k.bottom
    return True


def conical_bounded_coreflection(table: SemifilterTable) -> SemifilterTable:
    """The largest conical bounded table below the given one.

    Computed by restricting the level set to its bounded members and
    inducing a table from that set (see ``semifilter_of``).  The carrier
    must be integral and have a least positive element
    (``require_bounded_carrier``).  Without one the largest such table need
    not exist: on a lattice with two incomparable atoms ``a`` and ``b`` the
    constant-top table lies above both ``sub(a, -)`` and ``sub(b, -)``,
    which are maximal and incomparable.  With one, the bounded members of a
    semifilter's level set are meet-closed, so their meet generates the
    result.
    """
    q = table.carrier
    require_bounded_carrier(q)
    # every positive value lies above the least one, so a row's meet is
    # positive exactly when none of its values is the bottom
    bottom = q.kernel.bottom
    rows = [r for r in _level_rows(table) if bottom not in r]
    return _induced(table.domain, q, _generators(rows, q.kernel))


def image_semifilter(f: SetMap, table: SemifilterTable,
                     bounded: bool = False) -> SemifilterTable:
    """Functor action on a map: precompose, then optionally take the conical
    bounded coreflection (the bounded functor action)."""
    if f.source != table.domain:
        raise UsageError("map source does not match the table's space")
    plain = _pullback(table, f)
    return conical_bounded_coreflection(plain) if bounded else plain
