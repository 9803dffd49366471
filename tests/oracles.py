"""Slow reference evaluators: the test oracles of the fast paths in the
library.

Each fast path is tested against a slow path, often the one it replaced.
On the t-norm carriers and the interval counterexample:

* ``residuum_grid_oracle`` -- the residuum of a t-norm by a scan of a grid;
* ``eval_at`` -- the value of an expression at one point, walking the tree;
* ``left_limit_residuum`` -- the residuated left limit of a tail;
* ``tail_limit`` and ``eval_leaves`` -- the tail and the co-countable
  infimum of an expression, by one walk of the tree each;
* ``PointColumn`` and ``point_node`` -- the per-point integer columns that
  the run columns replace: one numerator per sample, with the residuum of
  every point through ``point_residua`` and the step-2 scan of every point
  through ``point_collapse_scan``;
* ``node_per_expr`` and ``build_catalog_per_expr`` -- the node records and
  the catalog with one evaluation per expression object, the records that
  equal operations on equal child records share in the library;
* ``close_catalog_exprs`` -- the shipped witness closure as expression
  trees, whose records the library builds directly (``close_catalog``).

On the finite carriers, where the library stores a table as carrier
positions and never builds a ``Fraction`` on the way:

* ``from_function`` and ``from_mapping`` -- the table of a ``Fraction``
  formula, one call per function, or of a dict from value tuples;
* ``hat`` -- the evaluation functional of a function over a family;
* ``image_outer`` -- a table pushed along a map into a family's labels;
* ``unit_prefilter`` -- the prefilter of the unit at a point, by its formula;
* ``is_conical`` -- conicality three ways (``ConicalTest``): as a fixed
  point of the coreflection, by the sup formula over residuated level
  tests, and as commuting with residuation by constants;
* ``way_below`` and ``satisfies_way_below_criterion`` -- the way-below
  relation decided from its definition, and the characterization of
  conicality that it gives on a continuous carrier;
* ``quantale_axioms_by_elements`` -- the quantale laws scanned through the
  carrier's ``Fraction`` operations, which the kernel scan replaces;
* ``semifilter_axioms_by_elements`` -- F1-F4 of a table scanned through
  its ``Fraction`` values, which the position scan of ``check_axioms``
  replaces;
* ``random_qfunction_by_elements`` and ``random_variant_table_by_elements``
  -- the seeded draws from a pool of ``Fraction`` elements, which the
  draws from a pool of positions replace;
* ``is_top_filter``, ``is_bounded_function``, ``is_bounded`` and
  ``table_satisfies_by_table`` -- the variant of a semifilter decided on a
  prefilter, a function or the filled table, which
  ``semifilter.row_satisfies`` decides on the generator row alone;
* ``small_quantales`` -- every commutative unital quantale on a lattice of
  two to four elements, found by a scan of candidate tensor tables
  (``small_quantale_candidates``) that shares no code with ``finite``.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, compress, repeat
from math import gcd, lcm
from operator import and_, floordiv, ge, lt, mul

from quantalab.counterexample import (CATALOG_CAP, Const, Join, Meet, Ramp, Res,
                                      TailIndicator, _Node, _extrema, _leaf,
                                      _residuate, describe)
from quantalab.errors import BudgetError, UsageError
from quantalab.prefilter import PrefilterBasis, normalize_basis
from quantalab.qfun import (FiniteSet, QFunction, SetMap, all_qfunctions,
                            constant, sub, unit_constant)
from quantalab.finite import FiniteQuantale, Violation
from quantalab.base import ONE, ZERO, Variant
from quantalab.grid import grid
from quantalab.quantale import BlockKind, TNorm
from quantalab.semifilter import (SemifilterFamily, SemifilterTable, _require_integral,
                                  conical_coreflection, image_semifilter,
                                  is_conical_semifilter, require_bounded_carrier,
                                  semifilter_of)


def residuum_grid_oracle(t, x: Fraction, y: Fraction, step: Fraction) -> Fraction:
    """Independent oracle: the largest grid point z with x (x) z <= y.

    A deliberately dumb full scan; always a lower bound for the closed-form
    residuum, with equality whenever the true residuum lies on the grid.
    """
    best = ZERO
    for z in grid(step):
        if t.tensor(x, z) <= y and z > best:
            best = z
    return best


def eval_at(expr, x: Fraction, t, memo: dict | None = None) -> Fraction:
    """The value of expr at one point x, walking the whole tree.  ``memo``
    holds values at this x by node identity, so that a subtree shared by
    several expressions is walked once."""
    if memo is None:
        return _eval(expr, x, t, None)
    hit = memo.get(id(expr))
    if hit is None:
        hit = memo[id(expr)] = (expr, _eval(expr, x, t, memo))
    return hit[1]


def _eval(expr, x, t, memo):
    if isinstance(expr, Ramp):
        return expr.scale * (1 - x)
    if isinstance(expr, TailIndicator):
        reciprocal = x.numerator == 1 and x.denominator >= expr.start
        return ONE if x > 0 and reciprocal else ZERO
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Join):
        return max(eval_at(expr.left, x, t, memo), eval_at(expr.right, x, t, memo))
    if isinstance(expr, Meet):
        return min(eval_at(expr.left, x, t, memo), eval_at(expr.right, x, t, memo))
    if isinstance(expr, Res):
        return t.residuum(expr.const, eval_at(expr.child, x, t, memo))
    raise UsageError(f"unknown expression {expr!r}")


def left_limit_residuum(t, c: Fraction, limit: Fraction) -> tuple[Fraction, bool]:
    """sup over v < limit of (c -> v), with whether the sup is attained below.

    Attainment means c -> v is eventually constant as v approaches the limit
    from below, so a residuated sequence inherits an exact tail; otherwise
    the residuated tail still approaches strictly from below.  This is the
    one place where the order of limits matters: residuation by a constant
    preserves infima outright but only conditionally preserves suprema, and
    the failure of condition (S) is visible exactly here.
    """
    if limit <= ZERO:
        raise UsageError("left limit needs a positive limit point")
    if limit > c:
        return ONE, True
    for b in t.blocks:
        if b.lo <= c <= b.hi and b.lo < limit:
            w = b.hi - b.lo
            u = (c - b.lo) / w
            v = (limit - b.lo) / w
            if b.kind is BlockKind.LUKASIEWICZ:
                return b.lo + w * (1 - u + v), False
            return b.lo + w * (v / u), False
    return limit, False


def tail_limit(expr, t):
    """The limit of m -> expr(1/m) and whether it is exact, by one walk of
    the tree."""
    if isinstance(expr, Ramp):
        return expr.scale, expr.scale == ZERO
    if isinstance(expr, TailIndicator):
        return ONE, True
    if isinstance(expr, Const):
        return expr.value, True
    if isinstance(expr, (Join, Meet)):
        la, ea = tail_limit(expr.left, t)
        lb, eb = tail_limit(expr.right, t)
        if isinstance(expr, Join):
            if la != lb:
                return (la, ea) if la > lb else (lb, eb)
            return la, ea or eb
        if la != lb:
            return (la, ea) if la < lb else (lb, eb)
        return la, ea and eb
    if isinstance(expr, Res):
        lc, ec = tail_limit(expr.child, t)
        if ec:
            return t.residuum(expr.const, lc), True
        return left_limit_residuum(t, expr.const, lc)
    raise UsageError(f"unknown expression {expr!r}")


def eval_leaves(expr, ramp_value, indicator_value, t):
    """expr with every ramp leaf pinned to one value and every indicator to
    another, by one walk of the tree: with both at 0, the co-countable
    infimum."""
    if isinstance(expr, Ramp):
        return ramp_value if expr.scale else ZERO
    if isinstance(expr, TailIndicator):
        return indicator_value
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Join):
        return max(eval_leaves(expr.left, ramp_value, indicator_value, t),
                   eval_leaves(expr.right, ramp_value, indicator_value, t))
    if isinstance(expr, Meet):
        return min(eval_leaves(expr.left, ramp_value, indicator_value, t),
                   eval_leaves(expr.right, ramp_value, indicator_value, t))
    if isinstance(expr, Res):
        return t.residuum(expr.const,
                          eval_leaves(expr.child, ramp_value, indicator_value, t))
    raise UsageError(f"unknown expression {expr!r}")


# -- the per-point integer columns ------------------------------------------------

def _multiples(step: int, n: int):
    """step, 2*step, ..., n*step."""
    return range(step, step * (n + 1), step) if step else repeat(0, n)


def _rescaled(col: "PointColumn", den: int):
    """The numerators of col on a multiple den of its denominator."""
    r = den // col.den
    return col.nums if r == 1 else map(r.__mul__, col.nums)


class PointColumn:
    """Samples at the points 1/m, m = 1..n, one integer each.

    The value at 1/m is ``nums[m-1] / (den*m)``.  The form is canonical:
    ``den`` is positive and has no common factor with all of ``nums``.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums):
        nums = tuple(nums)
        g = gcd(den, *nums)
        if g != 1:
            den, nums = den // g, tuple(x // g for x in nums)
        self.den, self.nums = den, nums

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        if not isinstance(other, PointColumn):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def head(self, n: int) -> "PointColumn":
        return PointColumn(self.den, self.nums[:n])

    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den * m) for m, x in enumerate(self.nums, 1))

    def compare(self, op, value: Fraction):
        """``op(sample, value)`` at every point, in order, exactly."""
        return map(op, map(mul, self.nums, repeat(value.denominator)),
                   _multiples(value.numerator * self.den, len(self.nums)))


def point_residua(a: PointColumn, b: PointColumn, t, where=None):
    """``t.residuum`` of a's values into b's at every point 1/m of a, or at
    those that ``where`` selects: ``den``, the points ``(m, x, y)`` and
    their residua as ``(num, d)`` pairs."""
    den = lcm(a.den, b.den)
    points = zip(range(1, len(a) + 1), _rescaled(a, den), _rescaled(b, den))
    points = list(points if where is None else compress(points, where))
    return den, points, t.residua(den, points)


def point_residuate(c: Fraction, col: PointColumn, t) -> PointColumn:
    """The column of ``t.residuum(c, v)`` over the values v of col, point by
    point."""
    const = PointColumn(c.denominator, _multiples(c.numerator, len(col)))
    pairs = point_residua(const, col, t)[2]
    xs, ds = zip(*pairs) if pairs else ((), ())
    xms = list(map(mul, xs, range(1, len(xs) + 1)))
    den = lcm(*map(floordiv, ds, map(gcd, ds, xms)))
    return PointColumn(den, map(floordiv, map(mul, xms, repeat(den)), ds))


@dataclass(frozen=True)
class PointNode:
    column: PointColumn
    tail: tuple[Fraction, bool]
    co_countable: Fraction


def point_node(expr, t, n: int, memo: dict) -> PointNode:
    """The node record of expr with a column of n samples, each node once
    per memo, keyed by identity; the tail comes from the children's tails
    through ``left_limit_residuum``."""
    hit = memo.get(id(expr))
    if hit is not None and len(hit[1].column) >= n:
        return hit[1]
    if isinstance(expr, Ramp):
        s = expr.scale
        col = PointColumn(s.denominator, range(0, s.numerator * n, s.numerator)
                          if s.numerator else repeat(0, n))
        tail, co_countable = (s, s == ZERO), ZERO
    elif isinstance(expr, TailIndicator):
        low = min(max(expr.start - 1, 0), n)     # the points m < start
        col = PointColumn(1, (0,) * low + tuple(range(low + 1, n + 1)))
        tail, co_countable = (ONE, True), ZERO
    elif isinstance(expr, Const):
        c = expr.value
        col = PointColumn(c.denominator, _multiples(c.numerator, n))
        tail, co_countable = (c, True), c
    elif isinstance(expr, (Join, Meet)):
        a = point_node(expr.left, t, n, memo)
        b = point_node(expr.right, t, n, memo)
        pick = max if isinstance(expr, Join) else min
        den = lcm(a.column.den, b.column.den)
        col = PointColumn(den, map(pick, _rescaled(a.column, den),
                                   _rescaled(b.column, den)))
        tail = pick(a.tail, b.tail)
        co_countable = pick(a.co_countable, b.co_countable)
    elif isinstance(expr, Res):
        c, child = expr.const, point_node(expr.child, t, n, memo)
        co_countable = t.residuum(c, child.co_countable)
        limit, exact = child.tail
        tail = ((t.residuum(c, limit), True) if exact
                else left_limit_residuum(t, c, limit))
        col = point_residuate(c, child.column, t)
    else:
        raise UsageError(f"unknown expression {expr!r}")
    node = PointNode(col, tail, co_countable)
    memo[id(expr)] = (expr, node)
    return node


def node_per_expr(expr, t, memo: dict):
    """The node record of expr, evaluated once per expression object: the
    memo holds ``(expr, record)`` by the id of each object met, and nothing
    is shared between distinct objects, equal or not."""
    hit = memo.get(id(expr))
    if hit is None:
        if isinstance(expr, (Join, Meet)):
            a, b = node_per_expr(expr.left, t, memo), node_per_expr(expr.right, t, memo)
            join = isinstance(expr, Join)
            node = _Node(_extrema(a.column, b.column)[not join],
                         (max if join else min)(a.co_countable, b.co_countable))
        elif isinstance(expr, Res):
            child = node_per_expr(expr.child, t, memo)
            co_countable = t.residuum(expr.const, child.co_countable)
            node = _Node(_residuate(expr.const, child.column, t), co_countable)
        else:
            node = _leaf(expr)
        hit = memo[id(expr)] = (expr, node)
    return hit[1]


def close_catalog_exprs(base, res_consts) -> list:
    """Close under pairwise joins/meets and residuation by the given
    constants, to depth two, keeping the ramp first and capping the size."""
    def one_round(pool, pair_pool):
        fresh = []
        for a in pair_pool:
            for b in pool:
                if a is not b:
                    fresh.append(Join(a, b))
                    fresh.append(Meet(a, b))
        for c in res_consts:
            for b in pool:
                fresh.append(Res(c, b))
        return fresh

    depth1 = one_round(list(base), list(base))
    depth2 = one_round(depth1, [base[0]])
    return (list(base) + depth1 + depth2)[: CATALOG_CAP * 4]


def build_catalog_per_expr(exprs, t, depth: int, pin_one: bool):
    """``build_catalog`` on the records of ``node_per_expr``, equal records
    told apart by value."""
    memo, seen_nodes, seen, catalog = {}, set(), set(), []
    for e in exprs:
        node = node_per_expr(e, t, memo)
        if node not in seen_nodes:
            seen_nodes.add(node)
            d = describe(node, depth, pin_one, f"w{len(catalog)}")
            if d.key() not in seen:
                seen.add(d.key())
                catalog.append(d)
        if len(catalog) >= CATALOG_CAP:
            break
    return catalog


def point_collapse_scan(a: PointColumn, g: PointColumn, p: Fraction, t):
    """The step-2 scan point by point: the least of p and the residua at the
    points where ``a >= p > g``, their number, and the failures there."""
    den, points, residua = point_residua(
        a, g, t, map(and_, a.compare(ge, p), g.compare(lt, p)))
    failures = [(m, Fraction(n, d), Fraction(y, den * m))
                for (m, _, y), (n, d) in zip(points, residua)
                if n * den * m != y * d]
    cert = min([p, *(Fraction(n, d) for n, d in residua)])
    return cert, len(points), failures


# -- finite carriers: tables from Fraction formulas -------------------------------

def rows_of(table: dict, elements) -> list[list]:
    """A carrier table given as a dict from pairs of elements, as the rows
    ``FiniteQuantale`` takes: row ``i`` holds the results at the ``i``-th
    element."""
    return [[table[(x, y)] for y in elements] for x in elements]


def from_function(domain: FiniteSet, carrier: FiniteQuantale, fn) -> SemifilterTable:
    """The table ``lam |-> fn(lam)`` of a formula on ``Fraction`` values,
    called once per function in canonical order."""
    return SemifilterTable(domain, carrier, [carrier.index_of(fn(lam))
                                             for lam in all_qfunctions(domain, carrier)])


def from_mapping(domain: FiniteSet, carrier: FiniteQuantale, entries) -> SemifilterTable:
    """The table of a mapping from value tuples to values; every function
    must be a key."""
    return from_function(domain, carrier, lambda lam: entries[lam.values])


def hat(family: SemifilterFamily, lam: QFunction) -> QFunction:
    """The evaluation functional of lam restricted to the family."""
    if lam.domain != family.x_domain or lam.carrier != family.carrier:
        raise UsageError("function does not match the table's space")
    return QFunction(family.labels, tuple(m(lam) for m in family.members),
                     family.carrier)


def image_outer(table: SemifilterTable, h: SetMap,
                family: SemifilterFamily) -> SemifilterTable:
    """Push a table on X forward along a map into the family's labels.

    The result is the outer table xi |-> table(xi . h); this is the functor
    action on a map into a semifilter space, materialized over the family.
    """
    if h.source != table.domain or h.target != family.labels:
        raise UsageError("map does not go from the table's space into the family")
    if table.carrier != family.carrier:
        raise UsageError("function does not match the table's space")
    return image_semifilter(h, table)


def unit_prefilter(domain: FiniteSet, carrier, x) -> PrefilterBasis:
    """The saturated prefilter of functions whose value at x reaches the unit."""
    values = tuple(carrier.unit if y == x else carrier.bottom for y in domain)
    return normalize_basis([QFunction(domain, values, carrier)])


# -- finite carriers: conicality and the way-below relation -----------------------

class ConicalTest(Enum):
    DEFINITION = "definition"          # fixed point of the coreflection
    SUP_FORMULA = "sup-formula"        # value recovered from residuated level tests
    RESIDUATION = "residuation"        # table commutes with residuation by constants


def residuate_function(p: Fraction, lam: QFunction) -> QFunction:
    c = lam.carrier
    return QFunction(lam.domain, tuple(c.residuum(p, v) for v in lam.values), c)


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
        for lam in table.functions():
            for p in q.elements:
                if table(residuate_function(p, lam)) != q.residuum(p, table(lam)):
                    return False
        return True
    raise UsageError(f"unknown mode {mode!r}")


def directed_subsets(q: FiniteQuantale) -> list[tuple]:
    """Every nonempty directed subset of a finite carrier, by brute force."""
    if len(q.elements) > 12:
        raise BudgetError("way-below enumeration over 2^|Q| subsets refused",
                          count=2 ** len(q.elements))
    out = []
    for r in range(1, len(q.elements) + 1):
        for combo in combinations(q.elements, r):
            if all(any(q.leq(a, c) and q.leq(b, c) for c in combo)
                   for a in combo for b in combo):
                out.append(combo)
    return out


def way_below(q, x: Fraction, y: Fraction) -> bool:
    """Whether x is way below y: on [0,1] iff x = 0 or x < y; on a finite
    carrier decided from the definition, over all directed subsets."""
    if isinstance(q, TNorm):
        for v in (x, y):
            if not q.contains(v):
                raise UsageError(f"{v} is not in [0,1]")
        return x == ZERO or x < y
    q.index_of(x), q.index_of(y)
    for d in directed_subsets(q):
        jd = q.bottom
        for z in d:
            jd = q.join(jd, z)
        if q.leq(y, jd) and not any(q.leq(x, z) for z in d):
            return False
    return True


def satisfies_way_below_criterion(table: SemifilterTable) -> bool:
    """Whether p way below the degree of lam forces the residuated function
    to be held at full degree.  On a continuous carrier this characterizes
    conical tables; every finite lattice is continuous."""
    q = table.carrier
    for lam in table.functions():
        for p in q.elements:
            if way_below(q, p, table(lam)):
                if not q.leq(q.unit, table(residuate_function(p, lam))):
                    return False
    return True


# -- finite carriers: the laws path on Fraction elements -------------------------

def quantale_axioms_by_elements(q: FiniteQuantale) -> list[Violation]:
    """``check_quantale_axioms`` through the carrier's ``Fraction``
    operations, every law in the same order with the same witnesses."""
    out: list[Violation] = []
    es = q.elements
    t = q.tensor
    join, meet = q.join, q.meet
    for op, name in ((join, "join"), (meet, "meet")):
        for x in es:
            if op(x, x) != x:
                out.append(Violation(f"{name}-idempotence", (x,)))
        for x in es:
            for y in es:
                if op(x, y) != op(y, x):
                    out.append(Violation(f"{name}-commutativity", (x, y)))
        for x in es:
            for y in es:
                for z in es:
                    if op(op(x, y), z) != op(x, op(y, z)):
                        out.append(Violation(f"{name}-associativity", (x, y, z)))
    for x in es:
        for y in es:
            if join(x, meet(x, y)) != x or meet(x, join(x, y)) != x:
                out.append(Violation("absorption", (x, y)))
            if (join(x, y) == y) != (meet(x, y) == x):
                out.append(Violation("join-meet-agreement", (x, y)))
    if q.bottom != ZERO or q.top != ONE:
        out.append(Violation("bounds", (q.bottom, q.top)))
    for x in es:
        if t(q.unit, x) != x:
            out.append(Violation("unit", (x,)))
        if t(x, q.bottom) != q.bottom:
            out.append(Violation("bottom-absorption", (x,)))
    for x in es:
        for y in es:
            if t(x, y) != t(y, x):
                out.append(Violation("commutativity", (x, y)))
    for x in es:
        for y in es:
            for z in es:
                if t(t(x, y), z) != t(x, t(y, z)):
                    out.append(Violation("associativity", (x, y, z)))
                if t(x, q.join(y, z)) != q.join(t(x, y), t(x, z)):
                    out.append(Violation("join-distributivity", (x, y, z)))
    return out


def semifilter_axioms_by_elements(table: SemifilterTable,
                                  require_filter: bool = False) -> list[Violation]:
    """``check_axioms`` through the table's ``Fraction`` values and the
    carrier's ``Fraction`` operations, every failure in the same order with
    the same witnesses."""
    q = table.carrier
    out: list[Violation] = []
    k_x = unit_constant(table.domain, q)
    if not q.leq(q.unit, table(k_x)):
        out.append(Violation("F1", (table(k_x),)))
    funcs = list(table.functions())
    for lam in funcs:
        for mu in funcs:
            both = q.meet(table(lam), table(mu))
            if not q.leq(both, table(lam.meet(mu))):
                out.append(Violation("F2", (lam.values, mu.values)))
            if not q.leq(sub(lam, mu), q.residuum(table(lam), table(mu))):
                out.append(Violation("F3", (lam.values, mu.values)))
    if require_filter:
        for p in q.elements:
            if not q.leq(table(constant(table.domain, q, p)), p):
                out.append(Violation("F4", (p,)))
    return out


def random_qfunction_by_elements(rng, domain: FiniteSet, carrier: FiniteQuantale,
                                 positive: bool = False) -> QFunction:
    """``monad.random_qfunction`` drawing from a pool of elements."""
    pool = [e for e in carrier.elements if not positive or e != carrier.bottom]
    return QFunction(domain, tuple(rng.choice(pool) for _ in domain), carrier)


def random_variant_table_by_elements(rng, domain: FiniteSet, carrier: FiniteQuantale,
                                     variant: Variant) -> SemifilterTable:
    """``monad.random_variant_table`` drawing from a pool of elements and
    pinning the FILTER pivot to the carrier's top element."""
    if variant is Variant.BOUNDED:
        require_bounded_carrier(carrier)
    size = rng.choice((1, 2))
    fns = []
    pivot = rng.randrange(len(domain)) if len(domain) else 0
    for _ in range(size):
        fn = random_qfunction_by_elements(rng, domain, carrier,
                                          positive=variant is Variant.BOUNDED)
        if variant is Variant.FILTER and len(domain):
            values = list(fn.values)
            values[pivot] = carrier.top
            fn = QFunction(domain, tuple(values), carrier)
        fns.append(fn)
    return semifilter_of(normalize_basis(fns, domain, carrier))


# -- finite carriers: the variants on prefilters, functions and tables ------------

def is_top_filter(pf: PrefilterBasis) -> bool:
    """The paper's top filter: every member has pointwise join above the unit.

    It suffices to inspect the generator, since members dominate it: the
    join of its positions is read on the kernel.  Only meaningful over
    integral carriers (unit = top), ``FiniteQuantale.is_integral``.
    """
    c = pf.carrier
    if not c.is_integral:
        raise UsageError("the top-filter notion needs an integral carrier")
    k = c.kernel
    join = functools.reduce(lambda a, b: k.join[a][b], pf.generator.index, k.bottom)
    return k.leq[k.unit][join]


def is_bounded_function(lam: QFunction) -> bool:
    """Bounded below by a positive constant: the meet of its positions is
    not the kernel's bottom.  Vacuously true on an empty domain."""
    if not lam.index:
        return True
    k = lam.carrier.kernel
    return functools.reduce(lambda a, b: k.meet[a][b], lam.index) != k.bottom


def is_bounded(table: SemifilterTable) -> bool:
    """No function whose values meet at the kernel's bottom is held at full
    degree, read at every code of the table.

    Needs an integral carrier, refused as the library refuses it; on an
    empty base set every function counts as bounded and the test is
    vacuous.
    """
    q = table.carrier
    _require_integral(q)
    if not len(table.domain):
        return True
    k = q.kernel
    rows = itertools.product(range(len(q.elements)), repeat=len(table.domain))
    return not any(v == k.top and functools.reduce(lambda a, b: k.meet[a][b], row) == k.bottom
                   for row, v in zip(rows, table.index))


def table_satisfies_by_table(table: SemifilterTable, variant: Variant) -> bool:
    """The variant test on the filled table: a conical semifilter, with F4
    read at the constants' codes (``SemifilterTable.f4_failures``) for
    FILTER and ``is_bounded`` for BOUNDED."""
    if not is_conical_semifilter(table):
        return False
    if variant is Variant.FILTER:
        return not table.f4_failures()
    if variant is Variant.BOUNDED:
        return is_bounded(table)
    return True


# -- finite carriers: every small quantale -----------------------------------------

def _lattices():
    """Every lattice of two to four elements up to isomorphism, as its name,
    its elements from 0 to 1 and its order as a set of pairs: the chains of
    two, three and four elements, and the diamond, whose middle elements
    1/3 and 2/3 are incomparable."""
    for n in (2, 3, 4):
        es = tuple(Fraction(i, n - 1) for i in range(n))
        yield f"C{n}", es, {(x, y) for x in es for y in es if x <= y}
    es = (ZERO, Fraction(1, 3), Fraction(2, 3), ONE)
    yield "M2", es, {(x, y) for x in es for y in es if x == y or x == ZERO or y == ONE}


def small_quantale_candidates():
    """Every candidate that ``small_quantales`` scans, as its lattice's
    name, the carrier and whether the scan accepts it.

    For each lattice and unit the scan fills a commutative tensor table
    with the unit and the bottom as the unit's and the annihilator's rows,
    every other entry over the whole carrier, and accepts a table that is
    associative and distributes over binary joins.  That is 1, 6 and 192
    candidates on the chains and 192 on the diamond, 391 in all.  A chain
    is built in its default order, the diamond with its join and meet
    tables.
    """
    for name, es, order in _lattices():
        # the order refines the numeric one, so a least upper bound is the
        # numerically least upper bound
        join = {(x, y): min(z for z in es if (x, z) in order and (y, z) in order)
                for x in es for y in es}
        meet = {(x, y): max(z for z in es if (z, x) in order and (z, y) in order)
                for x in es for y in es}
        lattice = {} if name.startswith("C") else {
            "join": rows_of(join, es), "meet": rows_of(meet, es)}
        bottom = es[0]
        for unit in es[1:]:
            free = [x for x in es if x not in (bottom, unit)]
            pairs = [(x, y) for i, x in enumerate(free) for y in free[i:]]
            for values in itertools.product(es, repeat=len(pairs)):
                t = {}
                for x in es:
                    t[(unit, x)] = t[(x, unit)] = x
                    t[(bottom, x)] = t[(x, bottom)] = bottom
                for (x, y), v in zip(pairs, values):
                    t[(x, y)] = t[(y, x)] = v
                accepted = all(t[(t[(x, y)], z)] == t[(x, t[(y, z)])]
                               and t[(x, join[(y, z)])] == join[(t[(x, y)], t[(x, z)])]
                               for x in es for y in es for z in es)
                yield name, FiniteQuantale(es, rows_of(t, es), unit, **lattice), accepted


def small_quantales() -> list[tuple[str, FiniteQuantale]]:
    """Every commutative unital quantale on a lattice of two to four
    elements, up to equality of tables, each with a name: the candidates
    that the scan of ``small_quantale_candidates`` accepts.  There are 1, 3
    and 11 on the chains and 9 on the diamond, 24 in all."""
    out, found = [], collections.Counter()
    for name, q, accepted in small_quantale_candidates():
        if accepted:
            found[name] += 1
            out.append((f"{name}-{found[name]}", q))
    return out
