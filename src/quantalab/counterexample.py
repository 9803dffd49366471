"""Exact replication of the monad-law failure on the unit interval.

When a continuous t-norm has a Lukasiewicz-type block away from zero, the
Kleisli extensions built from two specific maps on X = [0,1] break
associativity.  The construction lives on an uncountable function space, so
this module evaluates it through two finite, fully exact devices:

* ``FunctionDescriptor`` -- a function on [0,1] recorded by its samples at
  the points 1/m, its exact tail liminf along those points, and its exact
  global infimum.  Descriptors are built from a closed class of expressions
  (the decreasing ramp, tail indicators, constants, and joins/meets/
  residuations of those) whose tails are eventually monotone, so both the
  liminf and the infimum come out of exact left-limit algebra rather than
  sampling.  Each distinct node of the expression trees is evaluated once,
  from its children's records, into one record: its column of values at
  all the points 1/m together, its tail limit and its infimum off the
  points 1/m.  ``eval_at`` remains the point-by-point evaluator that the
  records are tested against.
* ``Column`` -- the samples on integers.  A column is a positive integer
  ``den`` and a tuple ``nums``, and its value at 1/m is
  ``nums[m-1] / (den*m)``; ``den`` is reduced by the gcd of itself and all
  of ``nums``, so equal columns are exactly equal values.  Descriptor
  construction, deduplication, the step-2 scan and ``sampled_sub_bound``
  all run on these integers; all but deduplication residuate one column
  into another point by point, through ``_residua``.  ``Fraction``s enter
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
reported as a proof that the laws hold.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import and_, floordiv, ge, lt, mul
from typing import Union

from .errors import PreconditionError, UsageError
from .monad import Variant
from .quantale import (Block, BlockKind, ONE, TNorm, ZERO, as_fraction,
                       check_condition_s, is_lukasiewicz_shape,
                       positive_residuum_zero_sup)

CATALOG_CAP = 240


# ---------------------------------------------------------------------------
# expression trees for the closed function class on [0,1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ramp:
    """x maps to scale * (1 - x): the decreasing ramp hitting 0 at x = 1."""
    scale: Fraction


@dataclass(frozen=True)
class TailIndicator:
    """1 on {1/m : m >= start}, 0 elsewhere."""
    start: int


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Join:
    left: "FnExpr"
    right: "FnExpr"


@dataclass(frozen=True)
class Meet:
    left: "FnExpr"
    right: "FnExpr"


@dataclass(frozen=True)
class Res:
    """x maps to (constant -> child(x))."""
    const: Fraction
    child: "FnExpr"


FnExpr = Union[Ramp, TailIndicator, Const, Join, Meet, Res]


def eval_at(expr: FnExpr, x: Fraction, t: TNorm) -> Fraction:
    """The value of expr at one point x, walking the whole tree; the
    reference that the column evaluation of ``describe`` is tested against."""
    if isinstance(expr, Ramp):
        return expr.scale * (1 - x)
    if isinstance(expr, TailIndicator):
        reciprocal = x.numerator == 1 and x.denominator >= expr.start
        return ONE if x > 0 and reciprocal else ZERO
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Join):
        return max(eval_at(expr.left, x, t), eval_at(expr.right, x, t))
    if isinstance(expr, Meet):
        return min(eval_at(expr.left, x, t), eval_at(expr.right, x, t))
    if isinstance(expr, Res):
        return t.residuum(expr.const, eval_at(expr.child, x, t))
    raise UsageError(f"unknown expression {expr!r}")


def left_limit_residuum(t: TNorm, c: Fraction, limit: Fraction) -> tuple[Fraction, bool]:
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


def _multiples(step: int, n: int):
    """step, 2*step, ..., n*step."""
    return range(step, step * (n + 1), step) if step else repeat(0, n)


def _rescaled(col: "Column", den: int):
    """The numerators of col on a multiple den of its denominator."""
    r = den // col.den
    return col.nums if r == 1 else map(r.__mul__, col.nums)


class Column:
    """Samples at the points 1/m, m = 1..n, held as integers.

    The value at 1/m is ``nums[m-1] / (den*m)``.  The form is canonical:
    ``den`` is positive and has no common factor with all of ``nums``, so
    two columns are equal, and hash alike, exactly when their values are.
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
        if not isinstance(other, Column):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        return f"Column(den={self.den}, nums={self.nums!r})"

    def head(self, n: int) -> "Column":
        """The first n samples."""
        return Column(self.den, self.nums[:n])

    def compare(self, op, value: Fraction):
        """``op(sample, value)`` at every point, in order, exactly."""
        return map(op, map(mul, self.nums, repeat(value.denominator)),
                   _multiples(value.numerator * self.den, len(self.nums)))

    def min(self) -> Fraction:
        """The least sample."""
        best, at = self.nums[0], 1
        for m, x in enumerate(self.nums, 1):
            if x * at < best * m:
                best, at = x, m
        return Fraction(best, self.den * at)


def _residua(a: Column, b: Column, t: TNorm,
             where: Iterable[bool] | None = None):
    """``t.residuum`` of a's values into b's at the points 1/m of a, or at
    those that ``where`` selects: ``den``, the points ``(m, x, y)`` on that
    common denominator, and ``TNorm.residua`` of them as ``(num, d)`` pairs.
    """
    den = lcm(a.den, b.den)
    points = zip(range(1, len(a) + 1), _rescaled(a, den), _rescaled(b, den))
    points = list(points if where is None else compress(points, where))
    return den, points, t.residua(den, points)


def _residuate(c: Fraction, col: Column, t: TNorm) -> Column:
    """The column of ``t.residuum(c, v)`` over the values v of col: the
    constant's column residuated into col, on the least ``den`` such that
    each pair's d divides ``x*den*m``, so ``x/d = (x*den*m/d) / (den*m)``."""
    const = Column(c.denominator, _multiples(c.numerator, len(col)))
    pairs = _residua(const, col, t)[2]
    xs, ds = zip(*pairs) if pairs else ((), ())
    xms = list(map(mul, xs, range(1, len(xs) + 1)))
    den = lcm(*map(floordiv, ds, map(gcd, ds, xms)))
    return Column(den, map(floordiv, map(mul, xms, repeat(den)), ds))


@dataclass(frozen=True)
class FunctionDescriptor:
    """Samples at {1/m : m <= N} as a ``Column``, plus exact tail liminf and
    global infimum."""

    label: str
    samples: Column
    tail_liminf: Fraction
    global_inf: Fraction

    def __post_init__(self):
        if any(self.samples.compare(lt, self.global_inf)):
            raise UsageError("global infimum exceeds a sample")
        if self.tail_liminf < self.global_inf:
            raise UsageError("tail liminf below the global infimum")

    def key(self):
        return (self.samples, self.tail_liminf, self.global_inf)


@dataclass(frozen=True, slots=True)
class _Node:
    """One expression node as ``_node`` computes it.

    ``column`` holds the values at 1/m for m = 1..n.  The other fields do
    not depend on n:

    * ``tail`` -- the limit of m -> expr(1/m) and whether it is exact.
      Exact means the sequence is eventually equal to the limit; otherwise
      it approaches strictly from below.  Every expression in the class
      has one of these two tail behaviours, which is what makes liminfs
      computable without truncation error.
    * ``co_countable`` -- the infimum off the points 1/m, where every
      indicator is 0 and the ramp sweeps down to 0: the value with every
      leaf pinned to 0, which is legitimate because every node operation
      preserves meets in the function argument.  It is also at most the
      value at x = 0, since every leaf is there at least its pinned value
      and every node operation is monotone.
    """

    column: Column
    tail: tuple[Fraction, bool]
    co_countable: Fraction


def _node(expr: FnExpr, t: TNorm, n: int, memo: dict) -> _Node:
    """The node record of expr, its column holding at least n values.

    Each node is computed once per memo, keyed by identity, from its
    children's records.  The column is integers: leaves are filled
    directly, joins and meets take the integer max or min of their
    children's columns on the lcm of their denominators, and a residuation
    is ``_residuate``.  Joins and meets take the max or min of the scalars
    too; on the tails, tuples order by limit and then by flag, so a tie
    keeps an exact tail in a join and only two exact tails in a meet.  A
    residuation applies ``t.residuum`` (which refuses a bad constant before
    any column is built), or ``left_limit_residuum`` to a tail that is not
    exact.  A memo entry shorter than n is recomputed and replaced; its
    scalars come out the same, since they do not depend on n.  The memo is
    a dict that the caller creates; ``_node`` owns its contents.
    """
    hit = memo.get(id(expr))
    if hit is not None and len(hit[1].column) >= n:
        return hit[1]
    if isinstance(expr, Ramp):
        # scale * (m - 1)/m
        s = expr.scale
        col = Column(s.denominator, range(0, s.numerator * n, s.numerator)
                     if s.numerator else repeat(0, n))
        tail, co_countable = (s, s == ZERO), ZERO
    elif isinstance(expr, TailIndicator):
        low = min(max(expr.start - 1, 0), n)     # the points m < start
        col = Column(1, (0,) * low + tuple(range(low + 1, n + 1)))
        tail, co_countable = (ONE, True), ZERO
    elif isinstance(expr, Const):
        c = expr.value
        col = Column(c.denominator, _multiples(c.numerator, n))
        tail, co_countable = (c, True), c
    elif isinstance(expr, (Join, Meet)):
        a = _node(expr.left, t, n, memo)
        b = _node(expr.right, t, n, memo)
        pick = max if isinstance(expr, Join) else min
        den = lcm(a.column.den, b.column.den)
        col = Column(den, map(pick, _rescaled(a.column, den),
                              _rescaled(b.column, den)))
        tail = pick(a.tail, b.tail)
        co_countable = pick(a.co_countable, b.co_countable)
    elif isinstance(expr, Res):
        c, child = expr.const, _node(expr.child, t, n, memo)
        co_countable = t.residuum(c, child.co_countable)
        limit, exact = child.tail
        tail = ((t.residuum(c, limit), True) if exact
                else left_limit_residuum(t, c, limit))
        col = _residuate(c, child.column, t)
    else:
        raise UsageError(f"unknown expression {expr!r}")
    # Each distinct numerator is held once per memo, under the key None:
    # the node columns repeat a few thousand values about twenty times,
    # and one int object per sample would cost more memory than the
    # Fraction columns did, whose max and min shared their objects.
    shared = memo.setdefault(None, {})
    col = Column(col.den, map(shared.setdefault, col.nums, col.nums))
    node = _Node(col, tail, co_countable)
    # the node is stored with its expression, so its id stays its own
    # while the memo lives
    memo[id(expr)] = (expr, node)
    return node


def describe(expr: FnExpr, t: TNorm, depth: int, pin_one: bool = False,
             label: str = "", columns: dict | None = None) -> FunctionDescriptor:
    """Build the exact descriptor of an expression.

    Everything comes from the record ``_node`` keeps for the root, and no
    tree is walked here: ``_node`` computes every node once, from its
    children's records, as an integer column of its values at the points
    1/m together with its tail limit and its infimum off the points 1/m.
    ``columns`` is the memo of those records, which ``build_catalog``
    shares across its calls so that a subtree shared by many expressions
    is computed once.

    The global infimum has two exact contributions: the co-countable part
    of the interval (where the indicators vanish and the ramp value sweeps
    down to 0, evaluated by inf-preservation at the limit; it covers the
    endpoint x = 0, see ``_Node``), and the samples at 1/m for m up to
    depth + 1.  That horizon suffices whatever the indicator starts: every
    node is nondecreasing in m (the ramp rises, an indicator steps up, and
    join, meet and residuation by a constant are monotone), so the sample
    sequence is smallest at its start, and the extra point m = depth + 1
    keeps m = 2 in range when ``pin_one`` overrides the value at x = 1
    (m = 1) with the top, for the filter variant.  The override applies to the top-level
    value only, never to a subtree's column.
    """
    horizon = depth + 1
    node = _node(expr, t, horizon, {} if columns is None else columns)
    col = node.column
    nums = col.nums[:horizon]
    if pin_one:
        nums = (col.den,) + nums[1:]
    all_samples = Column(col.den, nums)
    ginf = min(all_samples.min(), node.co_countable)
    return FunctionDescriptor(label or repr(expr), all_samples.head(depth),
                              node.tail[0], ginf)


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
    The residua stay exact integer pairs until the one ``Fraction`` of the
    result."""
    if lam.key() == mu.key():
        return ONE
    return Fraction(*_min_pair(_residua(lam.samples, mu.samples, t)[2], (1, 1)))


def _collapse_scan(a: Column, g: Column, p: Fraction, t: TNorm):
    """The step-2 scan of a witness column ``a`` against the ramp ``g``.

    At every point m where ``a >= p > g`` it residuates ``a`` into ``g``
    and checks that the residuum collapses to ``g``.  Returns the least of
    p and those residua, the number of such points, and every point where
    the collapse fails as ``(m, residuum, g)``.
    """
    den, points, residua = _residua(
        a, g, t, map(and_, a.compare(ge, p), g.compare(lt, p)))
    failures = [(m, Fraction(n, d), Fraction(y, den * m))
                for (m, _, y), (n, d) in zip(points, residua)
                if n * den * m != y * d]
    cert = _min_pair(residua, (p.numerator, p.denominator))
    return Fraction(*cert), len(points), failures


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
        return t.residuum(p, tail) == ONE

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


def close_catalog(base: Sequence[FnExpr],
                  res_consts: Sequence[Fraction]) -> list[FnExpr]:
    """Close under pairwise joins/meets and residuation by the given
    constants, to depth two, keeping the ramp first and capping the size."""
    def one_round(pool: list[FnExpr], pair_pool: list[FnExpr]) -> list[FnExpr]:
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


def build_catalog(exprs: Sequence[FnExpr], t: TNorm, depth: int,
                  pin_one: bool) -> list[FunctionDescriptor]:
    """Describe the expressions, deduplicating by descriptor content.

    A shallow pass (a dozen samples plus the exact tail and infimum)
    screens out the heavy redundancy the closure produces, so full-depth
    descriptors are only computed for survivors.  The first expression is
    the target function and always survives in first position.  Both
    passes share one memo of node records, so each distinct node of the
    closure is evaluated once per pass, as one column, however many
    expressions contain it.
    """
    columns: dict = {}
    light_depth = min(depth, 12)
    light_seen = set()
    chosen: list[FnExpr] = []
    for e in exprs:
        d = describe(e, t, light_depth, pin_one, label=f"w{len(chosen)}",
                     columns=columns)
        if d.key() not in light_seen:
            light_seen.add(d.key())
            chosen.append(e)
        if len(chosen) >= CATALOG_CAP:
            break
    # Distinct shallow keys give distinct full keys, so the survivors need
    # no second dedup: the full samples extend the shallow ones, the tail
    # does not depend on the depth, and every node is nondecreasing in m
    # (see ``describe``), so both infima are taken at the same start.
    return [describe(e, t, depth, pin_one, label=f"w{i}", columns=columns)
            for i, e in enumerate(chosen)]


# ---------------------------------------------------------------------------
# the proof script
# ---------------------------------------------------------------------------

@dataclass
class ClaimRecord:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CounterexampleReport:
    variant: Variant
    condition_s: bool
    certified: bool
    routed_to_plain: bool
    p: Fraction
    q: Fraction | None
    t_par: Fraction
    s_par: Fraction
    depth: int
    catalog_size: int
    step1_value: Fraction
    step1_exact: bool
    step1_witness: str
    step2_bound: Fraction
    step2_details: list
    coincide_on_catalog: bool | None
    verdict: str
    claims: list[ClaimRecord] = field(default_factory=list)

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
        exprs = close_catalog(base, [p, t_par, s_par])
    else:
        exprs = list(catalog_exprs)
        if not exprs:
            raise PreconditionError("an explicit catalog must be nonempty")
    catalog = build_catalog(exprs, tnorm, depth, pin_one)
    gamma = catalog[0]

    # the first extension collapses to the threshold at p: residuation by s
    # after residuation by t equals residuation by t (x) s, checked on every
    # catalog member
    first_ok = True
    for d in catalog:
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
        step2_bound=step2_bound, step2_details=details,
        coincide_on_catalog=coincide, verdict=verdict, claims=claims)
