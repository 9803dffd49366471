"""Exact quantale arithmetic.

Two carrier families are supported:

* ``TNorm`` -- the unit interval with a continuous t-norm described as an
  ordinal sum of Lukasiewicz/product blocks over rational endpoints; outside
  every block the operation is minimum.  All arithmetic is exact on
  ``fractions.Fraction``; no floats appear anywhere.  The residuum also has
  one integer form, ``residua``, at points of sample columns, for the
  interval counterexample.
* ``FiniteQuantale`` -- a finite commutative unital quantale given by an
  explicit tensor table (chain-ordered by default, or lattice-ordered via
  explicit join/meet tables).

Both carriers expose the same surface: ``tensor``, ``residuum``, ``leq``,
``join``, ``meet`` and ``is_idempotent``, plus ``unit``, ``bottom`` and
``top``.  ``residuum(x, y)`` always returns the largest ``z`` with
``x (x) z <= y``.  The way-below relation, decided from its definition, is
a test oracle (``tests/oracles.py``): no computation here needs it.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import ConstructionError, StructuralError, UsageError

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/8' and Fractions to a Fraction; anything
    else, a bool (a JSON true or false) too, is a UsageError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"not an exact rational: {value!r}")


class Record:
    """A value compared by content: equal to a record of its own class whose
    fields are equal, and hashed and shown by those fields.  The fields are
    the names in the subclass's own ``__slots__``; a subclass that names
    none is refused when it is created."""

    __slots__ = ()

    def __init_subclass__(cls):
        if not vars(cls).get("__slots__"):
            raise TypeError(f"{cls.__name__} must name its fields in its own __slots__")
        # a class attribute that is not a method: called as self._key(self)
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class BlockKind(Enum):
    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"


class Variant(Enum):
    """Which of the three monads: on conical semifilters (PLAIN), on those
    that are filters (FILTER), or on bounded ones (BOUNDED).  The finite law
    suites and the interval counterexample both take one."""

    PLAIN = "plain"
    FILTER = "filter"
    BOUNDED = "bounded"


class Block(Record):
    """One summand of an ordinal sum: a rescaled base t-norm on [lo, hi]."""

    __slots__ = ("lo", "hi", "kind")

    def __init__(self, lo: Fraction, hi: Fraction, kind: BlockKind):
        self.lo, self.hi, self.kind = lo, hi, kind


class TNorm:
    """A continuous t-norm on [0, 1] as an ordinal sum of rational blocks.

    ``blocks`` must be sorted, with pairwise disjoint open intervals and
    ``0 <= lo < hi <= 1`` each.  The empty sum is the minimum t-norm.
    Every block endpoint is automatically idempotent because no endpoint
    lies in the interior of another block.
    """

    __slots__ = ("blocks", "_his", "endpoints")

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
        """x as a Fraction in [0,1]; an int is taken as the Fraction it equals."""
        if isinstance(x, int):
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
        """Closed form for the residuum of an ordinal sum.

        Three cases: 1 when x <= y; the rescaled block residuum when x and y
        share a block [lo, hi], which is hi - x + y for Lukasiewicz and
        lo + (hi - lo)(y - lo)/(x - lo) for product; otherwise y itself (the
        values then straddle an idempotent, which collapses the residuum).
        Here x > y, so at an endpoint shared by two blocks the pair lies in
        the block that holds the other value.  Validated against the
        brute-force grid oracle in the test suite.
        """
        x, y = self._check(x), self._check(y)
        if x <= y:
            return ONE
        b = self._common_block(y, x)
        if b is None:
            return y
        if b.kind is BlockKind.LUKASIEWICZ:
            return b.hi - x + y          # x > y, so this is < hi
        return b.lo + (b.hi - b.lo) * (y - b.lo) / (x - b.lo)   # x > y >= lo

    def residua(self, den: int,
                points: Iterable[tuple[int, int, int]]) -> list[tuple[int, int]]:
        """``residuum(x, y)`` at points of two columns on one denominator.

        Each point is ``(m, x, y)`` for the values ``x/(den*m)`` and
        ``y/(den*m)``; each result is an exact pair ``(num, d)``, ``d > 0``,
        whose quotient is the residuum there.  Both values are checked as
        ``residuum`` checks them.  The block is the first whose upper end
        reaches ``x``, found by bisecting the upper ends rescaled to the
        point, as ``_common_block`` finds it.
        """
        blocks = self.blocks
        scale = lcm(den, *(b.lo.denominator for b in blocks),
                    *(b.hi.denominator for b in blocks))
        r = _exact_div(scale, den)
        los = [_scaled(b.lo, scale) for b in blocks]
        his = [_scaled(b.hi, scale) for b in blocks]
        luk = [b.kind is BlockKind.LUKASIEWICZ for b in blocks]
        out = []
        for m, x, y in points:
            s, x, y = scale * m, x * r, y * r
            if not (0 <= x <= s and 0 <= y <= s):
                self._check(Fraction(x, s)), self._check(Fraction(y, s))
            if x <= y:
                out.append((1, 1))
                continue
            i = bisect_left(his, -(-x // m))         # hi * m >= x
            if i == len(blocks) or los[i] * m > y:
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


def _exact_div(a: int, b: int) -> int:
    """a / b for a multiple a of b; a remainder is a defect, never rounded."""
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{a} is not a multiple of {b}")
    return q


def _scaled(x: Fraction, scale: int) -> int:
    """x * scale, for a scale that x's denominator divides."""
    return x.numerator * _exact_div(scale, x.denominator)


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


def pow2_step(step: Fraction) -> int:
    """The n of a grid step 1/n, refused unless n is a power of two."""
    n = step.denominator
    if step.numerator != 1 or n & (n - 1):
        raise UsageError(f"grid step must be 1/2^n, got {step}")
    return n


def grid(step: Fraction) -> list[Fraction]:
    """The rational grid {0, step, 2*step, ..., 1}."""
    n = pow2_step(step)
    return [Fraction(k, n) for k in range(n + 1)]


def residuum_continuity_probe(t: TNorm, step: Fraction, min_gap: Fraction = Fraction(1, 8)):
    """Largest residuum jump between grid neighbours away from the diagonal.

    Only pairs whose both endpoints satisfy |x - y| >= min_gap participate;
    steep-but-continuous regions near the diagonal (the product t-norm close
    to the origin) are thereby excluded while a genuine interior jump stays
    visible at any resolution.  The threshold separating the two is an
    engineering choice, not a theorem; see the tests for the calibration.
    """
    points = grid(step)
    off = [(x, y) for x in points for y in points if abs(x - y) >= min_gap]
    offset = set(off)
    best = ZERO
    where = None
    for x, y in off:
        r = t.residuum(x, y)
        for dx, dy in ((step, ZERO), (ZERO, step)):
            x2, y2 = x + dx, y + dy
            if x2 > ONE or y2 > ONE or (x2, y2) not in offset:
                continue
            jump = abs(t.residuum(x2, y2) - r)
            if jump > best:
                best, where = jump, ((x, y), (x2, y2))
    return best, where


# ---------------------------------------------------------------------------
# finite quantales
# ---------------------------------------------------------------------------

class Violation(Record):
    """One failed law with a witness tuple of carrier elements."""

    __slots__ = ("law", "witness")

    def __init__(self, law: str, witness: tuple):
        self.law, self.witness = law, witness


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

    def __init__(self, tensor: tuple, residuum: tuple, join: tuple, meet: tuple,
                 leq: tuple, bottom: int, top: int, unit: int):
        self.tensor, self.residuum, self.join, self.meet = tensor, residuum, join, meet
        self.leq, self.bottom, self.top, self.unit = leq, bottom, top, unit


class FiniteQuantale:
    """A finite commutative unital quantale given by tables.

    ``elements`` is the carrier, in ascending numeric order; without
    explicit ``join``/``meet`` tables it is treated as a chain in that order.
    The constructor checks the tables for shape only (every entry present
    and inside the carrier); the laws are examined separately by
    ``check_quantale_axioms`` so that broken tables can be constructed and
    reported on.

    The constructor also builds the carrier's integer kernel, once:
    ``position`` maps each element to its index, and ``kernel`` (a
    ``FiniteKernel``) holds the tensor, residuum, join, meet and order as
    index tables.  The finite path runs on it: ``QFunction`` index tuples
    and codes, flat ``SemifilterTable`` values and ``sub``.  The operations
    below take and return ``Fraction`` elements and read the kernel, on a
    chain too: each looks its arguments up in ``position``, and a
    non-member raises ``UsageError``.
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

    def _read_table(self, table, name: str) -> tuple:
        """The table as an ``n x n`` tuple of positions, checked for shape."""
        out = {}
        if isinstance(table, Mapping):
            for (x, y), v in table.items():
                out[(as_fraction(x), as_fraction(y))] = as_fraction(v)
        else:
            rows = list(table)
            if len(rows) != len(self.elements):
                raise StructuralError(f"{name} table must have {len(self.elements)} rows")
            for x, row in zip(self.elements, rows):
                row = list(row)
                if len(row) != len(self.elements):
                    raise StructuralError(f"{name} row for {x} has wrong length")
                for y, v in zip(self.elements, row):
                    out[(x, y)] = as_fraction(v)
        for x in self.elements:
            for y in self.elements:
                if (x, y) not in out:
                    raise StructuralError(f"{name} table missing entry ({x}, {y})")
                if out[(x, y)] not in self.position:
                    raise StructuralError(f"{name}({x}, {y}) = {out[(x, y)]} outside carrier")
        return tuple(tuple(self.position[out[(x, y)]] for y in self.elements)
                     for x in self.elements)

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
        """The position of a carrier element; ``UsageError`` for a non-member."""
        try:
            return self.position[x]
        except (KeyError, TypeError):
            raise UsageError(f"{x} is not a carrier element") from None

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
            return x in self.position
        except TypeError:
            return False

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
    table = {}
    for x in elems:
        for y in elems:
            v = t.tensor(x, y)
            if v not in set(elems):
                raise ConstructionError(
                    f"carrier not closed: {x} (x) {y} = {v}")
            table[(x, y)] = v
    return FiniteQuantale(elems, table, t.unit)


# shipped finite chains ------------------------------------------------------

def two_chain() -> FiniteQuantale:
    """The Boolean quantale {0, 1} with tensor = min."""
    return FiniteQuantale([0, 1], {(ZERO, ZERO): 0, (ZERO, ONE): 0,
                                   (ONE, ZERO): 0, (ONE, ONE): 1}, 1)


def godel3() -> FiniteQuantale:
    """Three-element chain with tensor = min."""
    return finite_restriction(godel_tnorm(), [0, Fraction(1, 2), 1])


def mv3() -> FiniteQuantale:
    """Three-element Lukasiewicz chain: 1/2 (x) 1/2 = 0."""
    return finite_restriction(lukasiewicz_tnorm(), [0, Fraction(1, 2), 1])


def five_chain() -> FiniteQuantale:
    """{0, 1/4, 3/8, 1/2, 1}, closed under the (1/4,1/2) Lukasiewicz block sum."""
    t = build_ordinal_sum([(Fraction(1, 4), Fraction(1, 2), BlockKind.LUKASIEWICZ)])
    return finite_restriction(t, [0, Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), 1])
