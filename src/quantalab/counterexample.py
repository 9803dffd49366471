"""Exact replication of the monad-law failure on the unit interval.

When a continuous t-norm has a Lukasiewicz-type block away from zero, the
Kleisli extensions built from two specific maps on X = [0,1] break
associativity.  The construction lives on an uncountable function space, so
this module evaluates it through two finite, fully exact devices:

* ``FunctionDescriptor`` -- a function on [0,1] recorded by its samples at
  the points 1/m, its exact tail liminf along those points, and its exact
  global infimum.  Descriptors are built from a closed class of expressions
  (the decreasing ramp, tail indicators, constants, and joins/meets/
  residuations of those); each distinct operation on distinct child
  records is evaluated once, from those records, into its column of values
  at all the points 1/m and its infimum off them.  The default catalog is
  closed on those node records directly (``close_catalog``): only its
  base is spelled as expressions, and an explicit catalog goes through
  ``_node`` expression by expression.  ``build_catalog`` describes the
  records of either.
* ``Column`` -- the samples on integers, in a few runs on which the value
  is affine in x = 1/m.  The last run goes on forever, so the tail is read
  off it exactly and nothing but ``describe`` depends on the truncation
  depth.  Joins, meets and residuations work run by run, cut where the
  operands cross each other or a block endpoint.  ``Fraction``s enter
  through expression constants and leave as the exact infima, bounds and
  residua of the report.
* certified inequality chains -- lower bounds for suprema come from explicit
  witnesses in a catalog (the ramp itself realizes the value 1, see
  ``_step1``), and upper bounds come from the residuum collapse across an
  idempotent: whenever a witness clears the block's left endpoint p at a
  sampled point while the ramp sits strictly below p there, the residuum at
  that point collapses to the ramp's value, which is at most p.  A plain
  discretization could reach neither side.

Verdicts are three-valued; absence of a violation on a catalog is never
reported as a proof that the laws hold.  A scenario file's witness catalog
is read with ``expr_from_json``, and ``expr_to_json`` writes one.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, islice
from math import gcd, inf, lcm
from typing import Union

from .base import ONE, ZERO, Record, Variant
from .errors import PreconditionError, StructuralError, UsageError
from .quantale import (Block, BlockKind, TNorm, check_condition_s,
                       is_lukasiewicz_shape, positive_residuum_zero_sup)
from .serialize import (as_fraction, format_fraction, parse_fraction,
                        parse_integer, refuse_unknown, required_field)

CATALOG_CAP = 240


# ---------------------------------------------------------------------------
# expression trees for the closed function class on [0,1]
# ---------------------------------------------------------------------------

class Ramp(Record):
    """x maps to scale * (1 - x): the decreasing ramp hitting 0 at x = 1."""

    __slots__ = ("scale",)


class TailIndicator(Record):
    """1 on {1/m : m >= start}, 0 elsewhere."""

    __slots__ = ("start",)


class Const(Record):
    __slots__ = ("value",)


class Join(Record):
    __slots__ = ("left", "right")


class Meet(Record):
    __slots__ = ("left", "right")


class Res(Record):
    """x maps to (constant -> child(x))."""

    __slots__ = ("const", "child")


FnExpr = Union[Ramp, TailIndicator, Const, Join, Meet, Res]


def expr_to_json(e: FnExpr) -> dict:
    if isinstance(e, Ramp):
        return {"kind": "ramp", "scale": format_fraction(e.scale)}
    if isinstance(e, TailIndicator):
        return {"kind": "indicator", "start": e.start}
    if isinstance(e, Const):
        return {"kind": "const", "value": format_fraction(e.value)}
    if isinstance(e, Join):
        return {"kind": "join", "left": expr_to_json(e.left),
                "right": expr_to_json(e.right)}
    if isinstance(e, Meet):
        return {"kind": "meet", "left": expr_to_json(e.left),
                "right": expr_to_json(e.right)}
    if isinstance(e, Res):
        return {"kind": "res", "const": format_fraction(e.const),
                "child": expr_to_json(e.child)}
    raise StructuralError(f"not an expression: {e!r}")


def _unit_fraction(obj: dict, owner: str, kind: str, name: str) -> Fraction:
    """A rational field of an expression that must lie in [0,1]."""
    v = parse_fraction(required_field(obj, owner, name))
    if not 0 <= v <= 1:
        raise StructuralError(
            f"{kind}.{name} must lie in [0,1], got {format_fraction(v)}")
    return v


def expr_from_json(obj: dict) -> FnExpr:
    """Parse one witness-catalog expression; see README for the format."""
    if not isinstance(obj, dict):
        raise StructuralError(f"an expression must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    article = "an" if str(kind)[:1] in ("a", "e", "i", "o", "u") else "a"
    owner = f"{article} {kind} expression"
    if kind == "ramp":
        e = Ramp(_unit_fraction(obj, owner, kind, "scale"))
    elif kind == "indicator":
        start = parse_integer(required_field(obj, owner, "start"), "indicator.start")
        if start < 1:
            raise StructuralError(f"indicator.start must be at least 1, got {start}")
        e = TailIndicator(start)
    elif kind == "const":
        e = Const(_unit_fraction(obj, owner, kind, "value"))
    elif kind in ("join", "meet"):
        e = (Join if kind == "join" else Meet)(
            expr_from_json(required_field(obj, owner, "left")),
            expr_from_json(required_field(obj, owner, "right")))
    elif kind == "res":
        e = Res(_unit_fraction(obj, owner, kind, "const"),
                expr_from_json(required_field(obj, owner, "child")))
    else:
        raise StructuralError(f"unknown expression kind {kind!r}")
    # each field is named as the expression's own
    refuse_unknown(obj, owner, ("kind", *e.__slots__))
    return e


def _greedy(runs, n: int | None) -> list[tuple[int, int, int]]:
    """The canonical runs of the same values: from its first point, each
    run takes the line through that point and the next, and keeps it for
    as long as the points stay on it; a last run of one point has A = 0.
    ``runs`` starts at 1 and holds no start past n."""
    ends = [s - 1 for s, _, _ in runs[1:]] + [n]
    out, i, p = [], 0, 1
    while n is None or p <= n:
        while ends[i] is not None and ends[i] < p:
            i += 1
        j, (_, a, b) = i, runs[i]
        if p == n:
            out.append((p, 0, a * p + b))
            break
        if ends[i] == p:                 # the line through p and p + 1
            j, v = i + 1, a * p + b
            a = runs[j][1] * (p + 1) + runs[j][2] - v
            b = v - a * p
        q = p + 1                        # the last point known on the line
        while q != n:
            j += ends[j] is not None and q >= ends[j]
            _, aj, bj = runs[j]
            if (aj, bj) == (a, b):
                if ends[j] is None:
                    return out + [(p, a, b)]
                q = ends[j]
            elif aj * (q + 1) + bj == a * (q + 1) + b:
                q += 1                   # two distinct lines meet once
            else:
                break
        out.append((p, a, b))
        p = q + 1
    return out


class Column:
    """Samples at the points 1/m as runs ``(start, A, B)``: from ``start``
    up to the next run's start, the value at 1/m is ``(A*m + B) / (den*m)``.
    The first run starts at 1 and the last runs up to ``n``, or on forever
    when ``n`` is None.  The runs are canonical (see ``_greedy``) and
    ``den`` is positive and has no common factor with every A and B, so
    two columns are equal, and hash alike, exactly when their values are.
    """

    __slots__ = ("den", "runs", "n", "spans")

    def __init__(self, den: int, runs, n: int | None = None):
        runs = _greedy([r for r in runs if n is None or r[0] <= n], n)
        g = gcd(den, *(x for _, a, b in runs for x in (a, b)))
        if g != 1:
            den, runs = den // g, [(s, a // g, b // g) for s, a, b in runs]
        self.den, self.runs, self.n = den, tuple(runs), n
        # (start, end, A, B) of each run, end None for an endless one
        ends = [s - 1 for s, _, _ in runs[1:]] + [n]
        self.spans = [(s, e, a, b) for (s, a, b), e in zip(runs, ends)]

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        return (self.den, self.runs, self.n) == (other.den, other.runs, other.n)

    def __hash__(self):
        return hash((self.den, self.runs, self.n))

    def __repr__(self):
        return f"Column(den={self.den}, runs={self.runs!r}, n={self.n})"

    def head(self, n: int) -> "Column":
        """The first n samples."""
        return Column(self.den, self.runs, n)

    def at(self, m: int) -> tuple[int, int]:
        """The value at 1/m as an exact pair ``(num, den)``."""
        _, a, b = next(r for r in reversed(self.runs) if r[0] <= m)
        return a * m + b, self.den * m

    def min(self) -> tuple[int, int]:
        """The least sample as an exact pair: each run is monotone in m, so
        it is taken where a run starts or ends."""
        return _min_pair(((a * m + b, self.den * m) for s, e, a, b in self.spans
                          for m in (s, e)), self.at(1))


def _levels(t: TNorm, *extra: Fraction) -> tuple:
    """0, 1, the block endpoints and the extra values, once each; the
    t-norm holds the first three as ``endpoints``.  Cut where two
    columns cross each other or a level (``_pieces``), a residuum of one
    into the other keeps one case and one block on each piece: 1, the
    second value, ``hi - x + y`` or ``lo + (hi - lo)(y - lo)/(x - lo)``.
    Each is affine in 1/m, or a Moebius map of it, so monotone, with its
    extremes at the ends of the piece.  A value outside [0, 1] is so on a
    whole piece, so ``TNorm.residua`` at its first point checks them all.
    """
    return t.endpoints + tuple(v for v in extra if v not in t.endpoints)


def _pieces(a: Column, b: Column, levels=()):
    """The points of two columns cut into pieces on which each column is
    one line and the signs of a - b and of each column against each level
    are fixed, an exact zero being a sign of its own: ``den`` and the
    pieces ``(start, end, A_a, B_a, A_b, B_b)`` on that denominator."""
    den = lcm(a.den, b.den)
    ra, rb = den // a.den, den // b.den
    levels = [(v.denominator, v.numerator * den) for v in levels]
    spans_a, spans_b = iter(a.spans), iter(b.spans)
    (_, end_a, a1, b1), (_, end_b, a2, b2) = next(spans_a), next(spans_b)
    out, s = [], 1
    while True:
        e = end_a if end_b is None or (end_a is not None and end_a < end_b) else end_b
        top = inf if e is None else e
        lines = aa, ab, ba, bb = a1 * ra, b1 * ra, a2 * rb, b2 * rb
        # (A*m + B)/(den*m) - v has the sign of vd*(A*m + B) - vn*m, for the
        # level v = vn/(vd*den); each sign changes past m = -beta/alpha, and
        # an exact zero there is a piece of its own
        cuts = [(aa - ba, ab - bb)]
        for A, B in (aa, ab), (ba, bb):
            cuts += [(vd * A - vn, vd * B) for vd, vn in levels]
        starts = set()
        for alpha, beta in cuts:
            if alpha and beta:
                q, r = divmod(-beta, alpha) if alpha > 0 else divmod(beta, -alpha)
                if s <= q < top:
                    starts.add(q + 1)
                if r == 0 and s < q <= top:
                    starts.add(q)
        firsts = [s, *sorted(starts)]
        out += [(f, last, *lines) for f, last in zip(firsts, [m - 1 for m in firsts[1:]] + [e])]
        if e == a.n:
            return den, out
        if e == end_a:
            _, end_a, a1, b1 = next(spans_a)
        if e == end_b:
            _, end_b, a2, b2 = next(spans_b)
        s = e + 1


def _extrema(a: Column, b: Column) -> tuple[Column, Column]:
    """The pointwise max and min of two endless node columns: each is one
    of the two itself where it wins at every point, ``a`` where they are
    equal, else ``_cut_extrema``'s new column.

    Every node column is nondecreasing in m (see ``describe``), so a
    column whose value at m = 1 is at least the other's limit wins, or
    ties, at every point: that is settled from those two numbers, with the
    very objects the cut would return.  When each column is, both are one
    and the same constant."""
    (_, a1, b1), (_, a_lim, _) = a.runs[0], a.runs[-1]
    (_, a2, b2), (_, b_lim, _) = b.runs[0], b.runs[-1]
    if (a1 + b1) * b.den >= b_lim * a.den:
        return a, a if (a2 + b2) * a.den >= a_lim * b.den else b
    if (a2 + b2) * a.den >= a_lim * b.den:
        return b, a
    return _cut_extrema(a, b)


def _cut_extrema(a: Column, b: Column) -> tuple[Column, Column]:
    """``_extrema`` by cutting the two columns into pieces once, for any
    two columns of one length."""
    den, pieces = _pieces(a, b)
    above, below, over, under = [], [], False, False
    for s, _, a1, b1, a2, b2 in pieces:
        d = (a1 - a2) * s + b1 - b2      # 0 on a whole piece or nowhere on it
        over, under = over or d > 0, under or d < 0
        above.append((s, a1, b1) if d >= 0 else (s, a2, b2))
        below.append((s, a1, b1) if d <= 0 else (s, a2, b2))
    return (a if not under else b if not over else Column(den, above, a.n),
            a if not over else b if not under else Column(den, below, a.n))


def _residuate(c: Fraction, col: Column, t: TNorm) -> Column:
    """The column of ``t.residuum(c, v)`` over the values v of col: on
    each piece (see ``_levels``) of the constant's column against col, the
    line through ``TNorm.residua`` at its first two points, since with a
    constant first argument every case is affine in 1/m."""
    const = Column(c.denominator, ((1, c.numerator, 0),), col.n)
    den, pieces = _pieces(const, col, _levels(t))
    points = [(m, a1 * m + b1, a2 * m + b2) for s, e, a1, b1, a2, b2 in pieces
              for m in (s, s + 1)[:1 + (e != s)]]
    residua = t.residua(den, points)
    out_den = lcm(*(d for _, d in residua))
    values = iter([num * (out_den // d) for num, d in residua])     # value * out_den
    runs = []
    for s, e, *_ in pieces:
        at_s = next(values) * s                  # value * m * out_den at m = s
        slope = next(values) * (s + 1) - at_s if e != s else 0
        runs.append((s, slope, at_s - slope * s))
    return Column(out_den, runs, col.n)


class FunctionDescriptor(Record):
    """Samples at {1/m : m <= N} as a ``Column``, plus exact tail liminf and
    global infimum."""

    __slots__ = ("label", "samples", "tail_liminf", "global_inf")

    def __init__(self, label: str, samples: Column, tail_liminf: Fraction,
                 global_inf: Fraction):
        num, den = samples.min()
        if num * global_inf.denominator < global_inf.numerator * den:
            raise UsageError("global infimum exceeds a sample")
        if tail_liminf < global_inf:
            raise UsageError("tail liminf below the global infimum")
        super().__init__(label, samples, tail_liminf, global_inf)

    def key(self):
        return (self.samples, self.tail_liminf, self.global_inf)


class _Node(Record):
    """One expression node: its endless ``column`` and ``co_countable``,
    the infimum off the points 1/m.  That is the value with every leaf
    pinned to 0, as every node operation preserves meets in the function
    argument; it is at most the value at x = 0, as every leaf is there at
    least its pinned value and every node operation is monotone.
    """

    __slots__ = ("column", "co_countable")

    @property
    def tail(self) -> tuple[Fraction, bool]:
        """The limit of m -> expr(1/m), A/den on the last run, and whether
        the sequence reaches it (B = 0) rather than approaching from below."""
        _, a, b = self.column.runs[-1]
        return Fraction(a, self.column.den), b == 0


def _node(expr: FnExpr, t: TNorm, memo: dict) -> _Node:
    """The node record of expr, computed from its children's records in
    memo, a dict that the caller creates and the record functions own.

    The memo has two kinds of key, and each holds a record.  A record is
    its own key, so that equal records are one object.  And the operation
    that yields a record is its key: a leaf is itself, a join or meet is
    its class with the ids of its two operands' records in increasing
    order (both commute), and a residuation is its constant with the id of
    its operand's record.  The memo holds every record it names by id, so
    those ids stay their own while it lives.  So each distinct operation on
    distinct records is evaluated once, however many expressions spell it,
    and ``close_catalog`` goes on from the records of its base in the same
    memo.
    """
    if isinstance(expr, (Join, Meet)):
        pair = _extrema_records(_node(expr.left, t, memo), _node(expr.right, t, memo), memo)
        return pair[isinstance(expr, Meet)]
    if isinstance(expr, Res):
        return _residuum_record(expr.const, _node(expr.child, t, memo), t, memo)
    if not isinstance(expr, (Ramp, TailIndicator, Const)):
        raise UsageError(f"unknown expression {expr!r}")
    node = memo.get(expr)
    if node is None:
        node = memo[expr] = _intern(_leaf(expr), memo)
    return node


def _intern(node: _Node, memo: dict) -> _Node:
    return memo.setdefault(node, node)


def _leaf(expr: FnExpr) -> _Node:
    """The record of a leaf.  A ramp ``s*(1 - 1/m)`` is the run ``A = s,
    B = -s``, a constant c the run ``A = c, B = 0``, and a tail indicator
    0 up to its start and then ``A = 1, B = 0``."""
    if isinstance(expr, Ramp):
        s = expr.scale
        return _Node(Column(s.denominator, ((1, s.numerator, -s.numerator),)), ZERO)
    if isinstance(expr, TailIndicator):
        runs = ((1, 0, 0), (expr.start, 1, 0)) if expr.start > 1 else ((1, 1, 0),)
        return _Node(Column(1, runs), ZERO)
    c = expr.value
    return _Node(Column(c.denominator, ((1, c.numerator, 0),)), c)


def _extrema_records(a: _Node, b: _Node, memo: dict) -> tuple[_Node, _Node]:
    """The join and the meet of two records, from one ``_extrema`` call
    (see ``_node`` for the memo).  A result whose column is an operand's,
    at that operand's co-countable infimum, is that operand's record: no
    new record is built or hashed."""
    ids = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
    join = memo.get((Join, *ids))
    if join is not None:
        return join, memo[(Meet, *ids)]
    ca, cb = a.co_countable, b.co_countable
    cos = (ca, cb) if ca >= cb else (cb, ca)        # the join's, the meet's
    join, meet = (a if col is a.column and co is ca else
                  b if col is b.column and co is cb else _intern(_Node(col, co), memo)
                  for col, co in zip(_extrema(a.column, b.column), cos))
    memo[(Join, *ids)], memo[(Meet, *ids)] = join, meet
    return join, meet


def _residuum_record(c: Fraction, a: _Node, t: TNorm, memo: dict) -> _Node:
    """The record of a residuated by the constant c (see ``_node`` for the
    memo); ``t.residuum`` on the co-countable infimum refuses a bad
    constant first."""
    node = memo.get((c, id(a)))
    if node is None:
        co_countable = t.residuum(c, a.co_countable)
        node = _intern(_Node(_residuate(c, a.column, t), co_countable), memo)
        memo[(c, id(a))] = node
    return node


def describe(node: _Node, depth: int, pin_one: bool, label: str) -> FunctionDescriptor:
    """The descriptor of a node record; no tree is walked here, and only
    here is a column cut to the depth.

    The global infimum has two exact contributions: the co-countable part
    of the interval (it covers the endpoint x = 0, see ``_Node``), and the
    values at the points 1/m, at every m and not only up to the depth.
    Every node is nondecreasing in m (the ramp rises, an indicator steps
    up, and join, meet and residuation by a constant are monotone), so the
    least of those is the first: at m = 1, or at m = 2 when ``pin_one``
    overrides the value at x = 1 (m = 1) with the top, for the filter
    variant, whatever the depth.  The override applies to the top-level
    value only.
    """
    col = node.column
    if pin_one:
        first, *rest = col.runs
        samples = Column(col.den, [(1, 0, col.den), (2, *first[1:]), *rest], depth)
    else:
        samples = col.head(depth)
    num, den = col.at(1 + pin_one)
    co = node.co_countable
    ginf = co if co.numerator * den <= num * co.denominator else Fraction(num, den)
    return FunctionDescriptor(label, samples, node.tail[0], ginf)


def _min_pair(pairs, bound: tuple[int, int]) -> tuple[int, int]:
    """The least of exact (num, den) pairs, den > 0, and the bound."""
    best_n, best_d = bound
    for n, d in pairs:
        if n * best_d < best_n * d:
            best_n, best_d = n, d
    return best_n, best_d


def sampled_sub_bound(lam: FunctionDescriptor, mu: FunctionDescriptor,
                      t: TNorm) -> Fraction:
    """Meet of pointwise residuations over the sampled points only: an upper
    bound for the true graded inclusion, exact when descriptors coincide.
    The residuum is monotone on each piece (see ``_levels``), so its least
    value is at a piece's first or last point; the residua stay exact
    integer pairs until the one ``Fraction`` of the result."""
    if lam.key() == mu.key():
        return ONE
    den, pieces = _pieces(lam.samples, mu.samples, _levels(t))
    points = [(m, a1 * m + b1, a2 * m + b2)
              for s, e, a1, b1, a2, b2 in pieces for m in (s, e)]
    return Fraction(*_min_pair(t.residua(den, points), (1, 1)))


def _collapse_scan(a: Column, g: Column, p: Fraction, t: TNorm):
    """The step-2 scan of a witness column ``a`` against the ramp ``g``.

    At every point m where ``a >= p > g`` it residuates ``a`` into ``g``
    and checks that the residuum collapses to ``g``.  Returns the least of
    p and those residua, the number of such points, and every point where
    the collapse fails as ``(m, residuum, g)``.  Each piece (see
    ``_levels``) is scanned whole or not at all, and the residuum equals
    ``g`` on all of it or nowhere: straddling a block it is ``g``, and in a
    shared block it is ``g`` only where ``g`` is the block's lower end or
    ``a`` its upper one.  So only a piece failing at its first point is
    scanned point by point.
    """
    den, pieces = _pieces(a, g, _levels(t, p))
    pn, pd = p.numerator * den, p.denominator
    scanned = [(s, e, a1, b1, a2, b2) for s, e, a1, b1, a2, b2 in pieces
               if (a1 * s + b1) * pd >= pn * s > (a2 * s + b2) * pd]
    ends = [(m, a1 * m + b1, a2 * m + b2)
            for s, e, a1, b1, a2, b2 in scanned for m in (s, e)]
    residua = t.residua(den, ends)
    failures = []
    for (s, e, a1, b1, a2, b2), (num, d) in zip(scanned, residua[::2]):
        if num * den * s != (a2 * s + b2) * d:
            points = [(m, a1 * m + b1, a2 * m + b2) for m in range(s, e + 1)]
            failures += [(m, Fraction(rn, rd), Fraction(y, den * m))
                         for (m, _, y), (rn, rd) in zip(points, t.residua(den, points))
                         if rn * den * m != y * rd]
    cert = _min_pair(residua, (p.numerator, p.denominator))
    return Fraction(*cert), sum(e - s + 1 for s, e, *_ in scanned), failures


def _step1(gamma: FunctionDescriptor, catalog: Sequence[FunctionDescriptor],
           p: Fraction, t: TNorm, bounded: bool) -> tuple[Fraction, bool, str]:
    """The left side at the ramp: (lower bound, whether it is exact, witness).

    The left side is the conical coreflection of mu -> (p -> tail(mu)),
    where tail is the tail liminf.  The bounded form meets in the factor
    obtained by joining the generators with vanishing positive constants,
    which is 1 on bounded arguments and the zero-residuum sup otherwise.
    The coreflection's values are suprema over the whole function space,
    which no finite device can evaluate; what the descriptors decide
    exactly is its full-degree level, where p -> tail is already 1.  When
    the ramp ``gamma`` lies in the level, reflexivity realizes 1 and the
    sup is squeezed against the integral top, so the value is exact.
    Otherwise the first strict maximum of the sampled inclusions from level
    members into ``gamma`` is reported, and it certifies nothing.
    """
    zero_sup = positive_residuum_zero_sup(t)

    def in_level(d: FunctionDescriptor) -> bool:
        tail = d.tail_liminf
        if bounded and d.global_inf == ZERO:
            tail = min(tail, zero_sup)
        return p <= tail                 # p -> tail is 1 exactly then

    if in_level(gamma):
        return ONE, True, gamma.label
    best, witness = ZERO, ""
    for d in catalog:
        if in_level(d):
            v = sampled_sub_bound(d, gamma, t)
            if v > best:
                best, witness = v, d.label
    return best, False, witness


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def default_catalog_exprs(p: Fraction, t_par: Fraction, s_par: Fraction,
                          hi: Fraction | None, variant: Variant,
                          epsilon: Fraction) -> list[FnExpr]:
    """The shipped witness catalog before closure: the ramp, tail indicators
    (joined with small constants), and a pool of constants."""
    ramp: FnExpr = Ramp(p)
    if variant is Variant.BOUNDED:
        ramp = Join(ramp, Const(epsilon))
    deltas = (epsilon,) if variant is Variant.BOUNDED else (ZERO, Fraction(1, 8))
    consts = {ZERO, p / 2, p, t_par, s_par, ONE}
    if hi is not None:
        consts.add(hi)
        consts.add((p + hi) / 2)
    out: list[FnExpr] = [ramp]
    out += [TailIndicator(n) for n in (1, 2, 3, 8)]
    out += [Join(TailIndicator(n), Const(d))
            for n in (1, 3) for d in deltas if d > ZERO]
    out += [Const(c) for c in sorted(consts)]
    return out


def close_catalog(base: Sequence[FnExpr], consts: Sequence[Fraction],
                  t: TNorm) -> list[_Node]:
    """The node records of the shipped closure, in its order: the base;
    then the join and the meet of every two base expressions at distinct
    places, and every base expression residuated by each constant; then
    the same of the first (the ramp) against each of those, and of each of
    those by each constant; ``CATALOG_CAP * 4`` of them at most.
    ``close_catalog_exprs`` in ``tests/oracles.py`` spells each as an
    expression.

    Only the base goes through ``_node``; the rest is built on records in
    the same memo, so each distinct operation on distinct records is
    evaluated once, a join with its meet.
    """
    memo: dict = {}
    pool = [_node(e, t, memo) for e in base]

    def one_round(nodes: list, pairs):
        for a, b in pairs:
            yield from _extrema_records(a, b, memo)
        for c in consts:
            for b in nodes:
                yield _residuum_record(c, b, t, memo)

    depth1 = list(one_round(pool, ((a, b) for i, a in enumerate(pool)
                                   for j, b in enumerate(pool) if i != j)))
    depth2 = one_round(depth1, ((pool[0], b) for b in depth1))
    return list(islice(chain(pool, depth1, depth2), CATALOG_CAP * 4))


def build_catalog(nodes: Sequence[_Node], depth: int,
                  pin_one: bool) -> list[FunctionDescriptor]:
    """Describe the node records, deduplicating by descriptor content.

    The key is exact at the full depth (see ``Column``).  The first record
    is the target function's and always survives in first position.  A
    record that repeats an earlier one is not described again: its
    descriptor would repeat that one's too.  Equal records are one object
    (see ``_node``), so they are told apart by id.
    """
    seen_nodes, seen, catalog = set(), set(), []
    for node in nodes:
        if id(node) not in seen_nodes:
            seen_nodes.add(id(node))
            d = describe(node, depth, pin_one, f"w{len(catalog)}")
            if d.key() not in seen:
                seen.add(d.key())
                catalog.append(d)
        if len(catalog) >= CATALOG_CAP:
            break
    return catalog


# ---------------------------------------------------------------------------
# the proof script
# ---------------------------------------------------------------------------

class ClaimRecord(Record):
    __slots__ = ("name", "ok", "detail")


class CounterexampleReport(Record):
    __slots__ = ("variant", "condition_s", "certified", "routed_to_plain", "p", "q",
                 "t_par", "s_par", "depth", "catalog_size", "step1_value", "step1_exact",
                 "step1_witness", "step2_bound", "step2_details", "coincide_on_catalog",
                 "verdict", "claims")

    @property
    def all_claims_ok(self) -> bool:
        return all(c.ok for c in self.claims)


VIOLATION = "VIOLATION"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"
NO_VIOLATION_EXPECTED = "NO_VIOLATION_EXPECTED"


def _locate_block(t: TNorm, t_par: Fraction, s_par: Fraction) -> Block:
    for b in t.blocks:
        if b.lo < t_par < b.hi and b.lo < s_par < b.hi:
            return b
    raise PreconditionError(
        "both parameters must lie strictly inside one ordinal-sum block")


def run_counterexample(tnorm: TNorm, t_par, s_par, depth: int = 1000,
                       variant: Variant = Variant.PLAIN,
                       epsilon=Fraction(1, 8),
                       catalog_exprs: Sequence[FnExpr] | None = None) -> CounterexampleReport:
    """Execute the associativity-failure script as exact claims.

    For a t-norm whose residuum is continuous off the diagonal the verdict is
    NO_VIOLATION_EXPECTED and the two sides are merely probed (they coincide
    on the catalog).  Otherwise the parameters must sit strictly inside a
    Lukasiewicz block away from zero with t (x) s equal to its left endpoint;
    then the left side evaluates to exactly 1 on the ramp witness while the
    right side is certified to stay at or below the endpoint, and the
    verdict is VIOLATION.
    """
    t_par, s_par = as_fraction(t_par), as_fraction(s_par)
    epsilon = as_fraction(epsilon)
    if not (ZERO < t_par < ONE and ZERO < s_par < ONE):
        raise PreconditionError("parameters must lie strictly inside (0, 1)")
    if depth < 2:
        raise PreconditionError("truncation depth must be at least 2")

    routed = False
    if variant is Variant.BOUNDED and is_lukasiewicz_shape(tnorm):
        # for this shape every saturated prefilter is bounded and the bounded
        # structures are declared equal to the plain ones
        variant = Variant.PLAIN
        routed = True

    s_holds, _ = check_condition_s(tnorm)
    p = tnorm.tensor(t_par, s_par)
    q: Fraction | None = None
    certified = False
    if not s_holds:
        block = _locate_block(tnorm, t_par, s_par)
        if block.kind is not BlockKind.LUKASIEWICZ:
            raise PreconditionError("the parameters' block must be Lukasiewicz-type")
        if block.lo == ZERO:
            raise PreconditionError("the parameters' block must not touch 0")
        if p != block.lo:
            raise PreconditionError(
                f"t (x) s = {p} must equal the block's left endpoint {block.lo}")
        q = block.hi
        certified = True
    if variant is Variant.BOUNDED:
        if not (ZERO < epsilon < p):
            raise PreconditionError("epsilon must lie strictly between 0 and p")

    claims: list[ClaimRecord] = []
    pin_one = variant is Variant.FILTER
    if catalog_exprs is None:
        base = default_catalog_exprs(p, t_par, s_par, q, variant, epsilon)
        nodes = close_catalog(base, [p, t_par, s_par], tnorm)
    else:
        exprs = list(catalog_exprs)
        if not exprs:
            raise PreconditionError("an explicit catalog must be nonempty")
        memo: dict = {}
        nodes = [_node(e, tnorm, memo) for e in exprs]
    catalog = build_catalog(nodes, depth, pin_one)
    gamma = catalog[0]

    # the first extension collapses to the threshold at p: residuation by s
    # after residuation by t equals residuation by t (x) s, checked on every
    # catalog member, once for each distinct global infimum
    first_ok, infs = True, set()
    for d in catalog:
        if d.global_inf in infs:
            continue
        infs.add(d.global_inf)
        lhs = tnorm.residuum(s_par, tnorm.residuum(t_par, d.global_inf))
        rhs = tnorm.residuum(p, d.global_inf)
        if lhs != rhs:
            first_ok = False
            claims.append(ClaimRecord("first-extension-threshold", False,
                                      f"{d.label}: {lhs} != {rhs}"))
            break
    if first_ok:
        claims.append(ClaimRecord("first-extension-threshold", True,
                                  f"checked on {len(catalog)} descriptors"))

    # step 1: the left side is the coreflection of (p residuated into the
    # tail semifilter); the ramp lies in its full-degree level and realizes 1
    step1_value, step1_exact, witness = _step1(gamma, catalog, p, tnorm,
                                               variant is Variant.BOUNDED)
    claims.append(ClaimRecord("step1-ramp-admissible", step1_exact,
                              f"tail liminf {gamma.tail_liminf} vs p = {p}"))

    # step 2
    candidates = [d for d in catalog if d.tail_liminf >= p]
    details = []
    if certified:
        # any admissible witness eventually clears p on the sampled points,
        # where the residuum into the ramp collapses across the idempotent p
        # to the ramp's value, at most p; so p bounds the right side
        collapse_ok = True
        for d in candidates:
            cert, count, failures = _collapse_scan(d.samples, gamma.samples,
                                                  p, tnorm)
            for m, collapsed, g in failures:
                collapse_ok = False
                claims.append(ClaimRecord(
                    "step2-residuum-collapse", False,
                    f"{d.label} at m={m}: {collapsed} != {g}"))
            details.append((d.label, cert, count))
        if collapse_ok:
            claims.append(ClaimRecord(
                "step2-residuum-collapse", True,
                f"collapse exact on {len(candidates)} candidates"))
        step2_bound = p
        coincide = None
    else:
        # probe mode: no collapse is available, so just sample both sides
        step2_bound = ZERO
        for d in candidates:
            v = sampled_sub_bound(d, gamma, tnorm)
            details.append((d.label, v, 0))
            step2_bound = max(step2_bound, v)
        coincide = step2_bound == step1_value

    if certified:
        verdict = VIOLATION if step1_exact and step1_value > step2_bound \
            else NO_VIOLATION_FOUND
    else:
        verdict = NO_VIOLATION_EXPECTED

    return CounterexampleReport(
        variant=variant, condition_s=s_holds, certified=certified,
        routed_to_plain=routed, p=p, q=q, t_par=t_par, s_par=s_par,
        depth=depth, catalog_size=len(catalog),
        step1_value=step1_value, step1_exact=step1_exact, step1_witness=witness,
        step2_bound=step2_bound, step2_details=tuple(details),
        coincide_on_catalog=coincide, verdict=verdict, claims=tuple(claims))
