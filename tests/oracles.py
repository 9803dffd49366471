"""Slow reference evaluators for the t-norm carriers and the interval
counterexample.

Each fast path is tested against a slow path, often the one it replaced:

* ``residuum_grid_oracle`` -- the residuum of a t-norm by a scan of a grid;
* ``eval_at`` -- the value of an expression at one point, walking the tree;
* ``left_limit_residuum`` -- the residuated left limit of a tail;
* ``tail_limit`` and ``eval_leaves`` -- the tail and the co-countable
  infimum of an expression, by one walk of the tree each;
* ``PointColumn`` and ``point_node`` -- the per-point integer columns that
  the run columns replace: one numerator per sample, with the residuum of
  every point through ``point_residua`` and the step-2 scan of every point
  through ``point_collapse_scan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import and_, floordiv, ge, lt, mul

from quantalab.counterexample import Const, Join, Meet, Ramp, Res, TailIndicator
from quantalab.errors import UsageError
from quantalab.quantale import ONE, ZERO, BlockKind, grid


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
