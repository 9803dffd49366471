"""Exact quantale arithmetic on the unit interval.

``TNorm`` is the unit interval with a continuous t-norm described as an
ordinal sum of Lukasiewicz/product blocks over rational endpoints; outside
every block the operation is minimum.  All arithmetic is exact on
``fractions.Fraction``; no floats appear anywhere.  The residuum is
written once, in integer form: ``residua`` takes points of sample columns
on one denominator, for the interval counterexample, and ``residuum`` is
``residua`` at one point.  Condition (S), which decides the monad question
on an ordinal sum, lives here too; the grid scans of the ``quantale``
command live in ``grid``.

The finite carrier, ``FiniteQuantale``, lives in ``finite``, and what both
carriers and every layer share (``Record``, ``ZERO``/``ONE`` and the monad
``Variant``) in ``base``; the rational coercion ``as_fraction`` is
``serialize``'s.  A ``laws`` run never loads this module: the other
modules import it only where a t-norm is built or tested, as ``finite``
does to cut its shipped chains from t-norms.  Both carriers expose the
same surface: ``tensor``, ``residuum``, ``leq``, ``join``, ``meet`` and
``is_idempotent``, plus ``unit``, ``bottom`` and ``top``.
``residuum(x, y)`` always returns the largest ``z`` with ``x (x) z <= y``.
The way-below relation, decided from its definition, is a test oracle
(``tests/oracles.py``): no computation here needs it.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable

from .base import ONE, ZERO, Record
from .errors import ConstructionError, UsageError
from .serialize import as_fraction


class BlockKind(Enum):
    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"


class Block(Record):
    """One summand of an ordinal sum: a rescaled base t-norm on [lo, hi]."""

    __slots__ = ("lo", "hi", "kind")


class TNorm:
    """A continuous t-norm on [0, 1] as an ordinal sum of rational blocks.

    ``blocks`` must be sorted, with pairwise disjoint open intervals and
    ``0 <= lo < hi <= 1`` each.  The empty sum is the minimum t-norm.
    Every block endpoint is automatically idempotent because no endpoint
    lies in the interior of another block.
    """

    __slots__ = ("blocks", "_his", "endpoints", "_den", "_ends")

    def __init__(self, blocks: tuple[Block, ...] = ()):
        prev_hi = None
        for b in blocks:
            if not (ZERO <= b.lo < b.hi <= ONE):
                raise ConstructionError(f"bad block endpoints: [{b.lo}, {b.hi}]")
            if prev_hi is not None and b.lo < prev_hi:
                raise ConstructionError(
                    f"blocks overlap or are unsorted near {b.lo}")
            prev_hi = b.hi
        self.blocks = blocks
        self._his = tuple(b.hi for b in blocks)
        self.endpoints = tuple(sorted({ZERO, ONE, *(v for b in blocks for v in (b.lo, b.hi))}))
        # each block's ends as integers on one denominator, for ``residua``
        self._den = den = lcm(*(v.denominator for b in blocks for v in (b.lo, b.hi)))
        self._ends = tuple(((b.lo * den).numerator, (b.hi * den).numerator,
                            b.kind is BlockKind.LUKASIEWICZ) for b in blocks)

    def __eq__(self, other):
        return other.__class__ is TNorm and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"TNorm(blocks={self.blocks!r})"

    # -- carrier surface -------------------------------------------------

    @property
    def unit(self) -> Fraction:
        return ONE

    @property
    def bottom(self) -> Fraction:
        return ZERO

    @property
    def top(self) -> Fraction:
        return ONE

    def contains(self, x: Fraction) -> bool:
        # 0 <= x <= 1, read off the normalized pair: the denominator of a
        # Fraction is always positive
        return isinstance(x, Fraction) and 0 <= x.numerator <= x.denominator

    def _check(self, x) -> Fraction:
        """x as a Fraction in [0,1]; an int is taken as the Fraction it
        equals, and a bool, an int to Python, is refused."""
        if isinstance(x, int):
            if isinstance(x, bool):
                raise UsageError(f"not an exact rational: {x!r}")
            x = Fraction(x)
        elif not isinstance(x, Fraction):
            raise UsageError(f"not an exact rational: {x!r}")
        if not self.contains(x):
            raise UsageError(f"{x} is not in [0,1]")
        return x

    def leq(self, x: Fraction, y: Fraction) -> bool:
        return self._check(x) <= self._check(y)

    def join(self, x: Fraction, y: Fraction) -> Fraction:
        return max(self._check(x), self._check(y))

    def meet(self, x: Fraction, y: Fraction) -> Fraction:
        return min(self._check(x), self._check(y))

    def _common_block(self, low: Fraction, high: Fraction) -> Block | None:
        """The lowest block holding both low <= high, or None.

        Only blocks whose upper end reaches ``high`` can hold it, and the
        first of those is the only one that can also hold ``low``, so one
        bisection over the upper ends finds it.  At an endpoint e shared by
        two blocks, the pair (e, e) belongs to the lower block, and a pair
        with its other value inside a block belongs to that block.
        """
        i = bisect_left(self._his, high)
        if i < len(self.blocks) and self.blocks[i].lo <= low:
            return self.blocks[i]
        return None

    def tensor(self, x: Fraction, y: Fraction) -> Fraction:
        """Ordinal-sum multiplication: minimum outside a common block, and
        inside a common block [lo, hi] the rescaled base t-norm in closed
        form, max(lo, x + y - hi) for Lukasiewicz and
        lo + (x - lo)(y - lo)/(hi - lo) for product.

        The common block is the lowest block holding both values, so at an
        endpoint e shared by two blocks the pair (e, e) is taken in the
        lower one; both blocks give e there."""
        x, y = self._check(x), self._check(y)
        low, high = (x, y) if x <= y else (y, x)
        b = self._common_block(low, high)
        if b is None:
            return low
        if b.kind is BlockKind.LUKASIEWICZ:
            t = x + y - b.hi
            return t if t > b.lo else b.lo
        return b.lo + (x - b.lo) * (y - b.lo) / (b.hi - b.lo)

    def residuum(self, x: Fraction, y: Fraction) -> Fraction:
        """Closed form for the residuum of an ordinal sum: ``residua`` at
        one point, with ``m = 1`` on the common denominator of x and y.

        Three cases: 1 when x <= y; the rescaled block residuum when x and y
        share a block [lo, hi], which is hi - x + y for Lukasiewicz and
        lo + (hi - lo)(y - lo)/(x - lo) for product; otherwise y itself (the
        values then straddle an idempotent, which collapses the residuum).
        Here x > y, so at an endpoint shared by two blocks the pair lies in
        the block that holds the other value.  Validated against the
        brute-force grid oracle in the test suite.
        """
        x, y = self._check(x), self._check(y)
        den = lcm(x.denominator, y.denominator)
        point = (1, x.numerator * (den // x.denominator),
                 y.numerator * (den // y.denominator))
        [(num, d)] = self.residua(den, [point])
        return Fraction(num, d)

    def residua(self, den: int,
                points: Iterable[tuple[int, int, int]]) -> list[tuple[int, int]]:
        """``residuum(x, y)`` at points of two columns on one denominator.

        Each point is ``(m, x, y)`` for the values ``x/(den*m)`` and
        ``y/(den*m)``; each result is an exact pair ``(num, d)``, ``d > 0``,
        whose quotient is the residuum there.  A value outside [0, 1] is
        refused as ``_check`` refuses it.  The block is the first whose
        upper end reaches ``x``, found by bisecting the upper ends rescaled
        to the point, as ``_common_block`` finds it.
        """
        scale = lcm(den, self._den)
        r, k = scale // den, scale // self._den
        los = [lo * k for lo, _, _ in self._ends]
        his = [hi * k for _, hi, _ in self._ends]
        luk = [is_luk for _, _, is_luk in self._ends]
        out = []
        for m, x, y in points:
            s, x, y = scale * m, x * r, y * r
            if not (0 <= x <= s and 0 <= y <= s):
                self._check(Fraction(x, s)), self._check(Fraction(y, s))
            if x <= y:
                out.append((1, 1))
                continue
            i = bisect_left(his, -(-x // m))         # hi * m >= x
            if i == len(his) or los[i] * m > y:
                out.append((y, s))
                continue
            lo, hi = los[i] * m, his[i] * m
            if luk[i]:
                out.append((hi - x + y, s))
            else:
                out.append((lo * (x - lo) + (hi - lo) * (y - lo), s * (x - lo)))
        return out

    def is_idempotent(self, x: Fraction) -> bool:
        """x is idempotent iff it is not interior to any block."""
        self._check(x)
        return all(not (b.lo < x < b.hi) for b in self.blocks)


def build_ordinal_sum(blocks: Iterable[tuple]) -> TNorm:
    """Build a validated TNorm from (lo, hi, kind) triples.

    Accepts kinds as BlockKind values or their string names.  Rejects any
    other kind, and reversed, zero-width or overlapping blocks.
    """
    parsed = []
    for i, (lo, hi, kind) in enumerate(blocks):
        if not isinstance(kind, BlockKind):
            try:
                kind = BlockKind(kind.lower())
            except (AttributeError, ValueError):
                names = ", ".join(k.value for k in BlockKind)
                raise UsageError(f"blocks[{i}].kind must be one of {names}, "
                                 f"got {kind!r}") from None
        parsed.append(Block(as_fraction(lo), as_fraction(hi), kind))
    parsed.sort(key=lambda b: b.lo)
    return TNorm(tuple(parsed))


def godel_tnorm() -> TNorm:
    return TNorm(())


def product_tnorm() -> TNorm:
    return TNorm((Block(ZERO, ONE, BlockKind.PRODUCT),))


def lukasiewicz_tnorm() -> TNorm:
    return TNorm((Block(ZERO, ONE, BlockKind.LUKASIEWICZ),))


def check_condition_s(t: TNorm) -> tuple[bool, Block | None]:
    """Decide whether the residuum of ``t`` is continuous off the diagonal.

    Decision procedure: every block not touching 0 must be product-type.
    Returns (True, None) or (False, offending block).
    """
    for b in t.blocks:
        if b.lo > ZERO and b.kind is not BlockKind.PRODUCT:
            return False, b
    return True, None


def is_lukasiewicz_shape(t: TNorm) -> bool:
    """True when the t-norm is the single whole-interval Lukasiewicz block.

    Isomorphism detection beyond this syntactic shape is out of scope.
    """
    return len(t.blocks) == 1 and t.blocks[0] == Block(ZERO, ONE, BlockKind.LUKASIEWICZ)


def positive_residuum_zero_sup(t: TNorm) -> Fraction:
    """The exact value of sup over p > 0 of residuum(p, 0).

    Equals hi for a leading Lukasiewicz block [0, hi] (the sup is approached
    as p tends to 0, not attained) and 0 otherwise.  The value 1 singles out
    the t-norms of Lukasiewicz shape.
    """
    if t.blocks and t.blocks[0].lo == ZERO and t.blocks[0].kind is BlockKind.LUKASIEWICZ:
        return t.blocks[0].hi
    return ZERO
