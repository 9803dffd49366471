"""Semifilters as explicit total tables over a finite quantale.

A semifilter on X assigns a degree to every Q-valued function on X, subject
to three laws: the constant unit gets at least the unit degree (F1), meets
are not undervalued (F2), and the assignment respects graded inclusion (F3).
A filter additionally caps constants (F4).

A table is one flat tuple of carrier positions in the canonical order of
``all_qfunctions``, so the value at a function is read at its mixed-radix
code; order, meets and residuation of tables run on the carrier's integer
kernel, and values leave a table as ``Fraction`` elements.  Everything here
is exact and exhaustively checkable at desk scale.  Second-level objects
(semifilters over a space of semifilters) are never full tables over the
true double level; they are tables over an explicitly declared finite family
of inner semifilters, which is all the constructions evaluate anyway.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import BudgetError, StructuralError, UsageError
from .prefilter import (PrefilterBasis, eval_degree, is_bounded_function,
                        minimal_members)
from .qfun import (FiniteSet, QFunction, SetMap, all_qfunctions, constant,
                   precompose, sub, unit_constant)
from .quantale import FiniteQuantale

TABLE_CAP = 3 ** 9
ENUM_BUDGET = 3 ** 9


class Positions(tuple):
    """Table values as carrier positions, in canonical function order.

    Builders that compute on the carrier kernel pass their values to
    ``SemifilterTable`` in this form; the table then only checks that there
    is one position per function and that each names a carrier element.
    """


class SemifilterTable:
    """A total map from all |Q|^|X| functions to carrier values.

    ``entries`` is a mapping from functions (or their value tuples) to
    values, a sequence of values in canonical order, or ``Positions``.  The
    table is stored as ``index``, one flat tuple of carrier positions in
    canonical order, so the value at ``lam`` is at ``index[lam.code]``.
    """

    def __init__(self, domain: FiniteSet, carrier: FiniteQuantale, entries):
        if not isinstance(carrier, FiniteQuantale):
            raise UsageError("semifilter tables need a finite carrier")
        size = len(carrier.elements) ** len(domain)
        if size > TABLE_CAP:
            raise BudgetError(f"table would need {size} entries (cap {TABLE_CAP})",
                              count=size)
        self.domain = domain
        self.carrier = carrier
        if isinstance(entries, Mapping):
            entries = self._read_mapping(entries, size)
        elif not isinstance(entries, Positions):
            entries = self._read_values(list(entries))
        if len(entries) < size:
            missing = next(itertools.islice(self._value_tuples(), len(entries), None))
            raise StructuralError(f"table is missing the entry at {missing}")
        if len(entries) > size:
            raise StructuralError("table has entries outside the function space")
        if entries and not 0 <= min(entries) <= max(entries) < len(carrier.elements):
            raise StructuralError("table position outside carrier")
        self.index = tuple(entries)

    def _value_tuples(self):
        return itertools.product(self.carrier.elements, repeat=len(self.domain))

    def _read_mapping(self, entries: Mapping, size: int) -> Positions:
        table = {}
        for key, v in entries.items():
            if isinstance(key, QFunction):
                key = key.values
            table[tuple(key)] = v
        out = []
        for values in self._value_tuples():
            if values not in table:
                raise StructuralError(f"table is missing the entry at {values}")
            if not self.carrier.contains(table[values]):
                raise StructuralError(f"table value {table[values]} outside carrier")
            out.append(self.carrier.position[table[values]])
        if len(table) != size:
            raise StructuralError("table has entries outside the function space")
        return Positions(out)

    def _read_values(self, values: list) -> Positions:
        try:
            return Positions(map(self.carrier.position.__getitem__, values))
        except (KeyError, TypeError):
            bad = next(v for v in values if not self.carrier.contains(v))
            raise StructuralError(f"table value {bad} outside carrier") from None

    @classmethod
    def from_function(cls, domain: FiniteSet, carrier: FiniteQuantale,
                      fn: Callable[[QFunction], Fraction]) -> "SemifilterTable":
        return cls(domain, carrier, [fn(f) for f in all_qfunctions(domain, carrier)])

    @property
    def entries(self) -> "TableEntries":
        return TableEntries(self)

    def __call__(self, lam: QFunction) -> Fraction:
        if lam.domain != self.domain or lam.carrier != self.carrier:
            raise UsageError("function does not match the table's space")
        return self.carrier.elements[self.index[lam.code]]

    def value_at(self, values: tuple) -> Fraction:
        return self.entries[values]

    def functions(self):
        return all_qfunctions(self.domain, self.carrier)

    def canonical_values(self) -> tuple[Fraction, ...]:
        return tuple(self.carrier.elements[i] for i in self.index)

    def leq(self, other: "SemifilterTable") -> bool:
        self._same_space(other)
        leq = self.carrier.kernel.leq
        return all(leq[a][b] for a, b in zip(self.index, other.index))

    def meet(self, other: "SemifilterTable") -> "SemifilterTable":
        self._same_space(other)
        meet = self.carrier.kernel.meet
        return SemifilterTable(self.domain, self.carrier,
                               Positions(meet[a][b]
                                         for a, b in zip(self.index, other.index)))

    def _same_space(self, other: "SemifilterTable"):
        if self.domain != other.domain or self.carrier != other.carrier:
            raise UsageError("tables live on different spaces")

    def __eq__(self, other):
        return (isinstance(other, SemifilterTable)
                and self.domain == other.domain
                and self.carrier == other.carrier
                and self.index == other.index)

    def __hash__(self):
        return hash((self.domain, self.index))

    def __repr__(self):
        return f"SemifilterTable({len(self.domain)} points, {len(self.index)} entries)"


class TableEntries(Mapping):
    """A read-only view of a table: value tuples, in canonical order, to
    values."""

    def __init__(self, table: SemifilterTable):
        self._table = table

    def __getitem__(self, values) -> Fraction:
        t = self._table
        try:
            lam = QFunction(t.domain, tuple(values), t.carrier)
        except (UsageError, TypeError):
            raise KeyError(values) from None
        return t(lam)

    def __iter__(self):
        return self._table._value_tuples()

    def __len__(self):
        return len(self._table.index)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple


def check_axioms(table: SemifilterTable, require_filter: bool = False) -> list[AxiomViolation]:
    """Report all violations of F1-F3 (and F4 on request) with witnesses."""
    q = table.carrier
    out: list[AxiomViolation] = []
    k_x = unit_constant(table.domain, q)
    if not q.leq(q.unit, table(k_x)):
        out.append(AxiomViolation("F1", (table(k_x),)))
    funcs = list(table.functions())
    for lam in funcs:
        for mu in funcs:
            both = q.meet(table(lam), table(mu))
            if not q.leq(both, table(lam.meet(mu))):
                out.append(AxiomViolation("F2", (lam.values, mu.values)))
            if not q.leq(sub(lam, mu), q.residuum(table(lam), table(mu))):
                out.append(AxiomViolation("F3", (lam.values, mu.values)))
    if require_filter:
        for p in q.elements:
            if not q.leq(table(constant(table.domain, q, p)), p):
                out.append(AxiomViolation("F4", (p,)))
    return out


def is_semifilter(table: SemifilterTable) -> bool:
    return not check_axioms(table)


def evaluation_unit(domain: FiniteSet, carrier: FiniteQuantale, x) -> SemifilterTable:
    """The unit at x: every function is sent to its value at x.

    Satisfies F1-F4 and is conical.
    """
    idx = domain.index(x)
    return SemifilterTable(domain, carrier,
                           Positions(f.index[idx]
                                     for f in all_qfunctions(domain, carrier)))


def level_prefilter(table: SemifilterTable) -> tuple[QFunction, ...]:
    """The functions held with degree at least the unit, as an explicit set.

    This is the saturated prefilter attached to the table; it is finite here
    because the whole function space is.
    """
    k = table.carrier.kernel
    above_unit = k.leq[k.unit]
    return tuple(f for f, v in zip(table.functions(), table.index)
                 if above_unit[v])


def semifilter_of(source) -> SemifilterTable:
    """The table induced by a prefilter: the join of graded inclusions.

    Accepts a PrefilterBasis (the join over the generated prefilter is then
    attained on the basis) or any explicit iterable of functions.  For an
    explicit set the join is taken over its pointwise-minimal members only.
    This is exact for every finite set on a genuine quantale: there ``sub``
    is antitone in its first argument, and every member dominates a minimal
    member.  The set is not meet-closed first, since members below it would
    change the join.  Tables produced this way are conical by construction.
    """
    if isinstance(source, PrefilterBasis):
        domain, carrier = source.domain, source.carrier
        if not isinstance(carrier, FiniteQuantale):
            raise UsageError("tables need a finite carrier")
        return SemifilterTable.from_function(
            domain, carrier, lambda lam: eval_degree(source, lam))
    members = list(source)
    if not members:
        raise UsageError("an explicit generating set must be nonempty")
    domain, carrier = members[0].domain, members[0].carrier
    if not isinstance(carrier, FiniteQuantale):
        raise UsageError("tables need a finite carrier")

    minimal = minimal_members(members)

    def degree(lam: QFunction) -> Fraction:
        out = carrier.bottom
        for mu in minimal:
            out = carrier.join(out, sub(mu, lam))
        return out

    return SemifilterTable.from_function(domain, carrier, degree)


def conical_coreflection(table: SemifilterTable) -> SemifilterTable:
    """The largest conical table below the given one.

    Deflationary, monotone, idempotent; fixes exactly the conical tables and
    preserves the level set of functions held at degree >= unit.  The table
    is induced from the minimal members of the level set (see
    ``semifilter_of``); on a chain carrier there is exactly one.
    """
    members = level_prefilter(table)
    if not members:
        return SemifilterTable.from_function(
            table.domain, table.carrier, lambda lam: table.carrier.bottom)
    return semifilter_of(members)


class ConicalTest(Enum):
    DEFINITION = "definition"          # fixed point of the coreflection
    SUP_FORMULA = "sup-formula"        # value recovered from residuated level tests
    RESIDUATION = "residuation"        # table commutes with residuation by constants


def residuate_function(p: Fraction, lam: QFunction) -> QFunction:
    c = lam.carrier
    return lam.with_values(c.residuum(p, v) for v in lam.values)


def is_conical(table: SemifilterTable, mode: ConicalTest = ConicalTest.DEFINITION) -> bool:
    """Three equivalent characterizations of conicality on finite carriers.

    RESIDUATION additionally assumes residuation by constants preserves
    directed joins, which holds on every finite lattice because directed
    subsets attain their join.
    """
    q = table.carrier
    if mode is ConicalTest.DEFINITION:
        return conical_coreflection(table) == table
    if mode is ConicalTest.SUP_FORMULA:
        for lam in table.functions():
            best = q.bottom
            for p in q.elements:
                if q.leq(q.unit, table(residuate_function(p, lam))):
                    best = q.join(best, p)
            if best != table(lam):
                return False
        return True
    if mode is ConicalTest.RESIDUATION:
        if not q.is_finite:
            raise UsageError(
                "the residuation test needs residuation by constants to "
                "preserve directed joins; that is only guaranteed here for "
                "finite carriers")
        for lam in table.functions():
            for p in q.elements:
                if table(residuate_function(p, lam)) != q.residuum(p, table(lam)):
                    return False
        return True
    raise UsageError(f"unknown mode {mode!r}")


def satisfies_way_below_criterion(table: SemifilterTable) -> bool:
    """Whether p way below the degree of lam forces the residuated function
    to be held at full degree.  On a continuous carrier this characterizes
    conical tables; every finite lattice is continuous."""
    q = table.carrier
    for lam in table.functions():
        for p in q.elements:
            if q.way_below(p, table(lam)):
                if not q.leq(q.unit, table(residuate_function(p, lam))):
                    return False
    return True


def meet(tables: Sequence[SemifilterTable]) -> SemifilterTable:
    """Pointwise meet of semifilter tables; preserves F1-F3."""
    if not tables:
        raise UsageError("meet of an empty family is undefined here")
    out = tables[0]
    for t in tables[1:]:
        out = out.meet(t)
    return out


def residuate(p: Fraction, table: SemifilterTable) -> SemifilterTable:
    """Residuate every table value by the constant p; preserves F1-F3."""
    q = table.carrier
    row = q.kernel.residuum[q.index_of(p)]
    return SemifilterTable(table.domain, q, Positions(row[v] for v in table.index))


# -- second level ------------------------------------------------------------

@dataclass(frozen=True)
class SemifilterFamily:
    """A declared finite family of semifilters on a common space.

    Plays the role of the (astronomically large) set of all semifilters in
    second-level constructions; outer tables are indexed by its labels, and
    the evaluation functional of a function restricts to the family.
    """

    labels: FiniteSet
    members: tuple[SemifilterTable, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.members):
            raise UsageError("labels and members must align")
        for m in self.members[1:]:
            m._same_space(self.members[0])

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

    def hat(self, lam: QFunction) -> QFunction:
        """The evaluation functional of lam restricted to the family."""
        if lam.domain != self.x_domain or lam.carrier != self.carrier:
            raise UsageError("function does not match the table's space")
        return QFunction.from_index(self.labels, self.carrier,
                                    tuple(m.index[lam.code] for m in self.members))

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
    return SemifilterTable.from_function(
        family.x_domain, family.carrier, lambda lam: outer(family.hat(lam)))


def image_outer(table: SemifilterTable, h: SetMap,
                family: SemifilterFamily) -> SemifilterTable:
    """Push a table on X forward along a map into the family's labels.

    The result is the outer table xi |-> table(xi . h); this is the functor
    action on a map into a semifilter space, materialized over the family.
    """
    if h.source != table.domain or h.target != family.labels:
        raise UsageError("map does not go from the table's space into the family")
    return SemifilterTable.from_function(
        family.labels, family.carrier, lambda xi: table(precompose(h, xi)))


# -- enumeration -------------------------------------------------------------

def enumerate_semifilters(domain: FiniteSet, carrier: FiniteQuantale,
                          require: str = "all",
                          budget: int = ENUM_BUDGET) -> list[SemifilterTable]:
    """Brute-force all tables and keep those satisfying the requested axioms.

    ``require`` is one of "all" (F1-F3), "filter" (adds F4) or "conical".
    Refuses to scan more than ``budget`` candidate tables, naming the count.
    """
    if require not in ("all", "filter", "conical"):
        raise UsageError(f"unknown requirement {require!r}")
    q = carrier
    funcs = list(all_qfunctions(domain, q))
    count = len(q.elements) ** len(funcs)
    if count > budget:
        raise BudgetError(
            f"enumeration would scan {count} tables (budget {budget})",
            count=count)

    kernel = q.kernel
    leq, meet, res = kernel.leq, kernel.meet, kernel.residuum
    k_idx = unit_constant(domain, q).code
    pairs = [(f.code, g.code, q.index_of(sub(f, g)), f.meet(g).code)
             for f in funcs for g in funcs]
    const_idx = [(constant(domain, q, p).code, i) for i, p in enumerate(q.elements)]
    above_unit = leq[kernel.unit]

    out: list[SemifilterTable] = []
    for vals in itertools.product(range(len(q.elements)), repeat=len(funcs)):
        if not above_unit[vals[k_idx]]:
            continue
        ok = True
        for i, j, s, mij in pairs:
            vi, vj = vals[i], vals[j]
            if not leq[meet[vi][vj]][vals[mij]] or not leq[s][res[vi][vj]]:
                ok = False
                break
        if not ok:
            continue
        if require == "filter":
            if not all(leq[vals[ci]][p] for ci, p in const_idx):
                continue
        table = SemifilterTable(domain, q, Positions(vals))
        if require == "conical" and not is_conical(table):
            continue
        out.append(table)
    return out


# -- boundedness -------------------------------------------------------------

def is_bounded(table: SemifilterTable) -> bool:
    """No function touching bottom somewhere is held at full degree.

    Needs an integral carrier; on an empty base set every function counts as
    bounded and the test is vacuous.
    """
    q = table.carrier
    if not q.is_integral:
        raise UsageError("boundedness needs an integral carrier")
    for lam in table.functions():
        if not is_bounded_function(lam) and table(lam) == q.top:
            return False
    return True


def conical_bounded_coreflection(table: SemifilterTable) -> SemifilterTable:
    """The largest conical bounded table below the given one.

    Computed by restricting the level prefilter to its bounded members and
    inducing a table from that set, which joins over its minimal members
    (see ``semifilter_of``).  The bounded members need not be meet-closed:
    on a lattice carrier they can have several minimal members, and all of
    them are kept.
    """
    q = table.carrier
    if not q.is_integral:
        raise UsageError("boundedness needs an integral carrier")
    bounded = [f for f in level_prefilter(table) if is_bounded_function(f)]
    if not bounded:
        return SemifilterTable.from_function(table.domain, q, lambda lam: q.bottom)
    return semifilter_of(bounded)


def image_semifilter(f: SetMap, table: SemifilterTable,
                     bounded: bool = False) -> SemifilterTable:
    """Functor action on a map: precompose, then optionally take the conical
    bounded coreflection (the bounded functor action)."""
    if f.source != table.domain:
        raise UsageError("map source does not match the table's space")
    plain = SemifilterTable.from_function(
        f.target, table.carrier, lambda mu: table(precompose(f, mu)))
    return conical_bounded_coreflection(plain) if bounded else plain
