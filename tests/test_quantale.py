import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantalab.counterexample import (Column, Const, Join, Ramp, Res, _node,
                                      _residuate)
from quantalab.errors import ConstructionError, StructuralError, UsageError
from quantalab.finite import (FiniteQuantale, check_quantale_axioms, finite_restriction,
                              five_chain, godel3, mv3, two_chain, Violation)
from quantalab.serialize import as_fraction
from quantalab.grid import grid, residuum_continuity_probe
from quantalab.quantale import (Block, BlockKind, build_ordinal_sum,
                                check_condition_s, godel_tnorm, is_lukasiewicz_shape,
                                lukasiewicz_tnorm, positive_residuum_zero_sup,
                                product_tnorm)

from oracles import (PointColumn, point_residuate, residuum_grid_oracle,
                     rows_of, way_below)

GODEL = godel_tnorm()
PROD = product_tnorm()
LUK = lukasiewicz_tnorm()
BLOCK = build_ordinal_sum([(F(1, 4), F(1, 2), "lukasiewicz")])

grid64 = st.integers(0, 64).map(lambda k: F(k, 64))


# -- construction ------------------------------------------------------------

def test_build_ordinal_sum_sorts_and_validates():
    t = build_ordinal_sum([(F(1, 2), 1, "product"), (F(1, 4), F(1, 2), "lukasiewicz")])
    assert [b.lo for b in t.blocks] == [F(1, 4), F(1, 2)]


def test_zero_width_block_rejected():
    with pytest.raises(ConstructionError):
        build_ordinal_sum([(F(1, 4), F(1, 4), "product")])


def test_reversed_block_rejected():
    with pytest.raises(ConstructionError):
        build_ordinal_sum([(F(1, 2), F(1, 4), "product")])


def test_overlapping_blocks_rejected():
    with pytest.raises(ConstructionError):
        build_ordinal_sum([(0, F(1, 2), "product"), (F(1, 4), 1, "product")])


@pytest.mark.parametrize("value", ["abc", "1/0", "", "1/2/3", 0.5, None, True, False])
def test_malformed_rationals_are_usage_errors_naming_the_value(value):
    with pytest.raises(UsageError, match=re.escape(f"not an exact rational: {value!r}")):
        as_fraction(value)


def test_a_finite_carrier_with_a_malformed_element_is_refused():
    with pytest.raises(UsageError, match="not an exact rational: 'x'"):
        FiniteQuantale(["0", "x"], [[0, 0], [0, 1]], 1)
    with pytest.raises(UsageError, match="not an exact rational: '1/0'"):
        FiniteQuantale([0, 1], [[0, 0], [0, "1/0"]], 1)


@pytest.mark.parametrize("kind", ["luk", "", 3, None])
def test_a_bad_block_kind_names_the_valid_kinds(kind):
    with pytest.raises(UsageError, match=re.escape(
            f"blocks[0].kind must be one of lukasiewicz, product, got {kind!r}")):
        build_ordinal_sum([("1/4", "1/2", kind)])


def test_a_malformed_block_endpoint_is_a_usage_error():
    with pytest.raises(UsageError, match="not an exact rational: '1/x'"):
        build_ordinal_sum([("1/x", "1/2", "product")])


def test_empty_sum_is_minimum():
    t = build_ordinal_sum([])
    assert t.tensor(F(7, 10), F(3, 10)) == F(3, 10)


def test_two_block_spec_validated_by_grid_check():
    t = build_ordinal_sum([(F(1, 4), F(1, 2), "lukasiewicz"),
                           (F(1, 2), 1, "product")])
    points = grid(F(1, 16))
    for x in points:
        for y in points:
            r = t.residuum(x, y)
            for z in points:
                assert (t.tensor(x, z) <= y) == (z <= r)
            assert t.tensor(x, y) == t.tensor(y, x)
            assert t.tensor(x, F(1)) == x


# -- tensor closed forms -----------------------------------------------------

def test_lukasiewicz_tensor():
    assert LUK.tensor(F(7, 10), F(3, 10)) == 0
    assert LUK.tensor(F(3, 4), F(1, 2)) == F(1, 4)


def test_unit_law_all_specs():
    for t in (GODEL, PROD, LUK, BLOCK):
        for x in grid(F(1, 8)):
            assert t.tensor(x, F(1)) == x


def test_block_rescaling():
    assert BLOCK.tensor(F(3, 8), F(3, 8)) == F(1, 4)
    assert BLOCK.tensor(F(3, 8), F(1, 2)) == F(3, 8)
    # outside the block: minimum
    assert BLOCK.tensor(F(3, 8), F(3, 4)) == F(3, 8)
    assert BLOCK.tensor(F(1, 8), F(3, 8)) == F(1, 8)


def test_product_block_tensor():
    t = build_ordinal_sum([(F(1, 2), 1, "product")])
    assert t.tensor(F(3, 4), F(3, 4)) == F(1, 2) + F(1, 2) * F(1, 2) * F(1, 2)


# -- residuum ----------------------------------------------------------------

def test_residuum_closed_forms():
    assert GODEL.residuum(F(7, 10), F(3, 10)) == F(3, 10)
    assert PROD.residuum(F(1, 2), F(1, 4)) == F(1, 2)
    assert LUK.residuum(F(7, 10), F(3, 10)) == F(3, 5)
    assert BLOCK.residuum(F(3, 8), F(5, 16)) == F(7, 16)


# The rescaled block formulas and the linear block scan that the closed
# forms and the bisection replace, kept as the oracle.

def _scan_block(t, x, y):
    for b in t.blocks:
        if b.lo <= x <= b.hi and b.lo <= y <= b.hi:
            return b
        if b.lo > x and b.lo > y:
            break
    return None


def _rescaled_tensor(t, x, y):
    b = _scan_block(t, x, y)
    if b is None:
        return min(x, y)
    w = b.hi - b.lo
    u, v = (x - b.lo) / w, (y - b.lo) / w
    r = max(u + v - 1, F(0)) if b.kind is BlockKind.LUKASIEWICZ else u * v
    return b.lo + w * r


def _rescaled_residuum(t, x, y):
    if x <= y:
        return F(1)
    b = _scan_block(t, x, y)
    if b is None:
        return y
    w = b.hi - b.lo
    u, v = (x - b.lo) / w, (y - b.lo) / w
    r = 1 - u + v if b.kind is BlockKind.LUKASIEWICZ else v / u
    return b.lo + w * r


THREE_BLOCKS = build_ordinal_sum([(0, F(1, 4), "product"),
                                  (F(1, 4), F(1, 2), "lukasiewicz"),
                                  (F(1, 2), 1, "product")])


@pytest.mark.parametrize("t", [GODEL, THREE_BLOCKS], ids=["godel", "three-blocks"])
def test_closed_forms_and_bisection_match_rescaled_scan(t):
    points = grid(F(1, 64))
    for x in points:
        for y in points:
            assert t._common_block(min(x, y), max(x, y)) is _scan_block(t, x, y)
            assert t.tensor(x, y) == _rescaled_tensor(t, x, y)
            assert t.residuum(x, y) == _rescaled_residuum(t, x, y)


def test_shared_endpoint_goes_to_the_lower_block():
    lower, middle, upper = THREE_BLOCKS.blocks
    assert THREE_BLOCKS._common_block(F(1, 4), F(1, 4)) is lower
    assert THREE_BLOCKS._common_block(F(1, 4), F(3, 8)) is middle
    assert THREE_BLOCKS._common_block(F(1, 8), F(1, 4)) is lower
    assert THREE_BLOCKS._common_block(F(1, 2), F(1, 2)) is middle
    assert THREE_BLOCKS._common_block(F(1, 2), F(3, 4)) is upper
    assert THREE_BLOCKS._common_block(F(1, 8), F(3, 8)) is None


def test_tnorm_contains_is_the_unit_interval():
    for x in (F(0), F(1), F(1, 3), F(-1, 3), F(4, 3), F(-1), F(2)):
        assert BLOCK.contains(x) == (0 <= x <= 1)
    assert not BLOCK.contains(1)          # an int is not a carrier element
    for bad in (F(-1, 3), F(4, 3)):
        with pytest.raises(UsageError):
            BLOCK.tensor(bad, F(1, 2))
        with pytest.raises(UsageError):
            BLOCK.residuum(F(1, 2), bad)


def test_tnorm_order_and_lattice_refuse_a_non_member():
    # as tensor and residuum do: before, join(0.5, 2) returned 2
    t = lukasiewicz_tnorm()
    for op in (t.leq, t.join, t.meet):
        with pytest.raises(UsageError, match=r"^2 is not in \[0,1\]$"):
            op(F(1, 2), 2)
        with pytest.raises(UsageError, match=r"^3/2 is not in \[0,1\]$"):
            op(F(3, 2), 1)
        for bad in (0.5, "a"):
            with pytest.raises(UsageError, match="^not an exact rational: "):
                op(bad, F(1, 2))
    assert t.leq(F(1, 4), 1) and not t.leq(1, F(1, 4))
    assert t.join(F(1, 4), 1) == 1 and t.meet(F(1, 4), 1) == F(1, 4)
    assert type(t.join(0, 1)) is F and type(t.meet(0, 1)) is F


def test_tnorm_takes_an_int_as_the_fraction_it_equals():
    # a finite chain took 1 for its element 1 while [0,1] refused it
    assert five_chain().tensor(1, F(1, 2)) == F(1, 2)
    for t in (GODEL, PROD, LUK, BLOCK):
        for x, y in ((1, 0), (0, 1), (1, 1), (0, 0), (1, F(3, 8)), (F(3, 8), 0)):
            for got, want in ((t.tensor(x, y), t.tensor(F(x), F(y))),
                              (t.residuum(x, y), t.residuum(F(x), F(y)))):
                assert got == want and got.__class__ is F, (t, x, y)
        assert t.is_idempotent(1) and t.is_idempotent(0)
    assert LUK.tensor(1, 0) == 0 and LUK.residuum(1, 0) == 0
    for bad in (0.5, "1/2", None, 1j):
        with pytest.raises(UsageError, match=rf"^not an exact rational: {re.escape(repr(bad))}$"):
            LUK.tensor(bad, F(1, 2))
        with pytest.raises(UsageError, match="^not an exact rational"):
            BLOCK.residuum(F(1, 2), bad)
    for bad, shown in ((2, "2"), (-1, "-1"), (F(3, 2), "3/2")):
        with pytest.raises(UsageError, match=rf"^{shown} is not in \[0,1\]$"):
            LUK.tensor(F(1, 2), bad)


def test_carriers_refuse_a_bool():
    # a bool is an int to Python, but as_fraction refuses it, and so does
    # each carrier: a finite one would find True at the position of 1
    for t in (LUK, BLOCK, five_chain(), two_chain()):
        for op in (t.tensor, t.residuum, t.leq, t.join, t.meet):
            for bad in (True, False):
                with pytest.raises(UsageError, match=rf"^not an exact rational: {bad!r}$"):
                    op(bad, F(1))
                with pytest.raises(UsageError, match=rf"^not an exact rational: {bad!r}$"):
                    op(F(1), bad)
        with pytest.raises(UsageError, match="^not an exact rational: True$"):
            t.is_idempotent(True)
        assert not t.contains(True) and not t.contains(False)


def test_residuum_top_and_zero():
    for t in (GODEL, PROD, LUK, BLOCK):
        assert t.residuum(F(0), F(0)) == 1
        assert t.residuum(F(1, 2), F(1, 2)) == 1
        assert t.residuum(F(0), F(1, 2)) == 1


def test_grid_oracle_examples():
    assert residuum_grid_oracle(GODEL, F(7, 10), F(3, 10), F(1, 64)) == F(19, 64)
    assert residuum_grid_oracle(LUK, F(3, 4), F(1, 4), F(1, 4)) == F(1, 2)
    for t in (GODEL, PROD, LUK, BLOCK):
        assert residuum_grid_oracle(t, F(3, 8), F(1), F(1, 8)) == 1


def test_grid_oracle_bounds_closed_form():
    step = F(1, 32)
    for t in (GODEL, PROD, LUK, BLOCK):
        for x in grid(F(1, 8)):
            for y in grid(F(1, 8)):
                r = t.residuum(x, y)
                o = residuum_grid_oracle(t, x, y, step)
                assert o <= r
                if r.denominator in (1, 2, 4, 8, 16, 32):
                    assert o == r


def test_grid_oracle_requires_pow2_step():
    with pytest.raises(UsageError):
        residuum_grid_oracle(GODEL, F(1, 2), F(1, 4), F(1, 3))


@settings(max_examples=150, deadline=None)
@given(grid64, grid64, grid64)
def test_adjunction_on_random_grid_points(x, y, z):
    for t in (GODEL, PROD, LUK, BLOCK):
        assert (t.tensor(x, z) <= y) == (z <= t.residuum(x, y))


@settings(max_examples=100, deadline=None)
@given(grid64, grid64, grid64)
def test_monotonicity(x, y, z):
    for t in (GODEL, PROD, LUK, BLOCK):
        if y <= z:
            assert t.tensor(x, y) <= t.tensor(x, z)
            assert t.residuum(x, y) <= t.residuum(x, z)
            assert t.residuum(z, x) <= t.residuum(y, x)


# -- idempotents -------------------------------------------------------------

def test_idempotents():
    for t in (GODEL, PROD, LUK, BLOCK):
        assert t.is_idempotent(F(0)) and t.is_idempotent(F(1))
    assert BLOCK.is_idempotent(F(1, 4))
    assert BLOCK.is_idempotent(F(1, 2))
    assert not BLOCK.is_idempotent(F(3, 8))
    assert not LUK.is_idempotent(F(1, 2))
    assert GODEL.is_idempotent(F(1, 2))


@settings(max_examples=60, deadline=None)
@given(grid64, grid64)
def test_idempotent_collapse(x, y):
    # between an idempotent the tensor is the minimum
    p = F(1, 4)
    if x <= p <= y:
        assert BLOCK.tensor(x, y) == min(x, y)


# -- way below ---------------------------------------------------------------

def test_way_below_interval():
    assert way_below(LUK, F(0), F(0))
    assert not way_below(LUK, F(1, 2), F(1, 2))
    assert way_below(LUK, F(1, 4), F(1, 2))


def test_way_below_finite_chain():
    g3 = godel3()
    assert way_below(g3, F(1, 2), F(1))
    assert way_below(g3, F(1, 2), F(1, 2))   # finite chains: below implies way below
    assert not way_below(g3, F(1), F(1, 2))


# -- condition (S) -----------------------------------------------------------

def test_condition_s_classification():
    assert check_condition_s(GODEL) == (True, None)
    assert check_condition_s(PROD) == (True, None)
    assert check_condition_s(LUK) == (True, None)
    ok, witness = check_condition_s(BLOCK)
    assert not ok and witness == Block(F(1, 4), F(1, 2), BlockKind.LUKASIEWICZ)
    mixed = build_ordinal_sum([(0, F(1, 4), "lukasiewicz"), (F(1, 2), 1, "product")])
    assert check_condition_s(mixed) == (True, None)


def test_continuity_probe_separates():
    step = F(1, 64)
    flagged, _ = residuum_continuity_probe(BLOCK, step)
    assert flagged >= F(1, 8)
    for t in (GODEL, LUK):
        jump, _ = residuum_continuity_probe(t, step)
        assert jump <= step
    jump, _ = residuum_continuity_probe(PROD, step)
    assert jump < F(1, 8)


def test_lukasiewicz_characterization():
    assert positive_residuum_zero_sup(LUK) == 1
    assert positive_residuum_zero_sup(GODEL) == 0
    assert positive_residuum_zero_sup(PROD) == 0
    assert positive_residuum_zero_sup(BLOCK) == 0
    leading = build_ordinal_sum([(0, F(1, 2), "lukasiewicz")])
    assert positive_residuum_zero_sup(leading) == F(1, 2)
    # grid values approach the exact sup monotonically for the Lukasiewicz shape
    for step in (F(1, 16), F(1, 64)):
        assert max(LUK.residuum(p, F(0)) for p in grid(step) if p > 0) == 1 - step
    assert is_lukasiewicz_shape(LUK)
    assert not is_lukasiewicz_shape(leading)


# -- finite quantales --------------------------------------------------------

def test_shipped_chains_satisfy_axioms():
    for q in (two_chain(), godel3(), mv3(), five_chain()):
        assert check_quantale_axioms(q) == []


def test_broken_table_reports_distributivity():
    bad = FiniteQuantale(
        [0, F(1, 2), 1],
        [[0, 0, 0], [0, 1, F(1, 2)], [0, F(1, 2), 1]], 1)
    laws = {v.law for v in check_quantale_axioms(bad)}
    assert "join-distributivity" in laws


def test_lattice_law_violations_are_reported_first():
    # a join that is not idempotent: leq(0, 0) fails
    q = FiniteQuantale([0, 1], [[0, 0], [0, 1]], 1,
                       join=[[1, 1], [1, 1]], meet=[[0, 0], [0, 1]])
    violations = check_quantale_axioms(q)
    assert violations[0] == Violation("join-idempotence", (F(0),))
    assert not q.leq(F(0), F(0))
    laws = {v.law for v in violations}
    assert {"absorption", "join-meet-agreement"} <= laws


def test_explicit_meet_table_is_checked():
    q = square_lattice()
    _, a, _, i = q.elements
    tensor, join, meet = ([[op(x, y) for y in q.elements] for x in q.elements]
                          for op in (q.tensor, q.join, q.meet))
    meet[1][2] = a                        # meet(a, b): no longer commutative or a glb
    bad = FiniteQuantale(q.elements, tensor, i, join=join, meet=meet)
    laws = {v.law for v in check_quantale_axioms(bad)}
    assert {"meet-commutativity", "join-meet-agreement"} <= laws


def test_residuum_memo_hit_does_not_admit_non_members():
    q = five_chain()
    for x in q.elements:
        for y in q.elements:
            q.residuum(x, y)
    with pytest.raises(UsageError):
        q.residuum(F(1, 3), F(1))
    with pytest.raises(UsageError):
        q.residuum(F(1), F(1, 3))
    assert q.residuum(F(1), F(3, 8)) == F(3, 8)


def test_malformed_table_raises_structural():
    with pytest.raises(StructuralError):
        FiniteQuantale([0, 1], [[0]], 1)
    with pytest.raises(StructuralError):
        FiniteQuantale([0, 1], [[0, 0], [0, F(1, 2)]], 1)


def test_finite_adjunction_exhaustive():
    for q in (two_chain(), godel3(), mv3(), five_chain()):
        for x in q.elements:
            for y in q.elements:
                r = q.residuum(x, y)
                for z in q.elements:
                    assert q.leq(q.tensor(x, z), y) == q.leq(z, r)


def square_lattice():
    """Boolean square {0, x, y, 1} with x, y incomparable; tensor = meet."""
    o, a, b, i = F(0), F(1, 3), F(2, 3), F(1)
    join = {(o, o): o, (o, a): a, (o, b): b, (o, i): i,
            (a, o): a, (a, a): a, (a, b): i, (a, i): i,
            (b, o): b, (b, a): i, (b, b): b, (b, i): i,
            (i, o): i, (i, a): i, (i, b): i, (i, i): i}
    meet = {}
    for x in (o, a, b, i):
        for y in (o, a, b, i):
            if x == y:
                meet[(x, y)] = x
            elif (x, y) in ((a, b), (b, a)):
                meet[(x, y)] = o
            else:
                meet[(x, y)] = x if join[(x, y)] == y else y
    es = [o, a, b, i]
    return FiniteQuantale(es, rows_of(meet, es), i, join=rows_of(join, es),
                          meet=rows_of(meet, es))


def half_unit_chain():
    """The chain 0 < 1/2 < 1 with unit 1/2, so not integral; 1 (x) 1 = 1."""
    h, i = F(1, 2), F(1)
    return FiniteQuantale([0, h, i], [[0, 0, 0], [0, h, i], [0, i, i]], h)


def test_half_unit_chain_is_a_quantale():
    q = half_unit_chain()
    assert check_quantale_axioms(q) == []
    assert not q.is_integral and q.top == 1


def test_lattice_ordered_quantale():
    q = square_lattice()
    a, b = F(1, 3), F(2, 3)
    assert check_quantale_axioms(q) == []
    assert not q.leq(a, b) and not q.leq(b, a)
    assert q.join(a, b) == 1 and q.meet(a, b) == 0
    # residuation: a -> 0 is the largest z with a meet z = 0, namely b
    assert q.residuum(a, F(0)) == b
    assert q.residuum(a, b) == b
    # adjunction holds throughout
    for x in q.elements:
        for y in q.elements:
            r = q.residuum(x, y)
            for z in q.elements:
                assert q.leq(q.tensor(x, z), y) == q.leq(z, r)
    # in a finite lattice, way below coincides with the order
    for x in q.elements:
        for y in q.elements:
            assert way_below(q, x, y) == q.leq(x, y)


def test_finite_restriction_requires_closure():
    with pytest.raises(ConstructionError):
        finite_restriction(BLOCK, [0, F(3, 8), 1])   # 3/8 (x) 3/8 = 1/4 escapes
    q = five_chain()
    assert q.tensor(F(3, 8), F(3, 8)) == F(1, 4)


def test_five_chain_matches_ambient_tnorm():
    q = five_chain()
    for x in q.elements:
        for y in q.elements:
            assert q.tensor(x, y) == BLOCK.tensor(x, y)
            ambient = BLOCK.residuum(x, y)
            if ambient in set(q.elements):
                assert q.residuum(x, y) == ambient


def test_finite_idempotents():
    # x is idempotent iff x (x) x = x: every element of a Goedel chain, and
    # on the Lukasiewicz side only the ends of the block
    assert all(godel3().is_idempotent(x) for x in godel3().elements)
    assert not mv3().is_idempotent(F(1, 2))
    q = five_chain()
    assert [x for x in q.elements if q.is_idempotent(x)] == \
        [F(0), F(1, 4), F(1, 2), F(1)]
    with pytest.raises(UsageError):
        q.is_idempotent(F(1, 3))


def test_chain_operations_refuse_a_non_member():
    # a chain reads its order off the kernel too, so 1/3, which lies
    # between two elements of the five-chain, is refused like in tensor
    q = five_chain()
    for op in (q.leq, q.join, q.meet, q.tensor, q.residuum):
        for args in ((F(1, 3), F(1, 2)), (F(1, 3), F(0)), (F(1), F(1, 3))):
            with pytest.raises(UsageError, match=r"^1/3 is not a carrier element$"):
                op(*args)
    assert q.leq(F(1, 4), F(1, 2)) and not q.leq(F(1, 2), F(3, 8))
    assert q.join(F(3, 8), F(1, 4)) == F(3, 8) and q.meet(F(3, 8), 1) == F(3, 8)


# -- integer columns ------------------------------------------------------------

PRODUCT_BLOCK = build_ordinal_sum([(F(1, 4), F(1, 2), "product")])
COLUMN_TNORMS = [GODEL, BLOCK, PRODUCT_BLOCK, THREE_BLOCKS]
COLUMN_IDS = ["godel", "luk-block", "product-block", "three-blocks"]


def _column_of(values, den):
    """Numerators on den of the column whose value at 1/m is values[m-1]."""
    return [v.numerator * (den // v.denominator) * m for m, v in enumerate(values, 1)]


def _runs_of(den, nums):
    """The run column of the numerators ``nums`` on den, one run a point."""
    return Column(den, [(m, 0, x) for m, x in enumerate(nums, 1)], len(nums))


def _nums_on(col, den):
    """The numerators of a run column's samples on a multiple den of its
    denominator."""
    r = den // col.den
    return [(a * m + b) * r for s, e, a, b in col.spans for m in range(s, e + 1)]


@pytest.mark.parametrize("t", COLUMN_TNORMS, ids=COLUMN_IDS)
def test_residuate_column_matches_residuum_on_the_grid(t):
    # the column of a residuation by a constant, as a residuated node of
    # the interval counterexample computes it
    points = grid(F(1, 64))
    # every grid value sits at three points 1/m, 65 apart
    values = [points[i % len(points)] for i in range(3 * len(points))]
    columns = [(den, _column_of(values, den)) for den in (64, 192)]
    # and values off that grid, on the finer grid 1/(64 m) of each point
    columns.append((64, [(29 * m) % (64 * m + 1) for m in range(1, 200)]))
    for den, nums in columns:
        for c in points:
            out = _residuate(c, _runs_of(den, nums), t)
            assert out.den > 0 and len(out) == len(nums)
            for m, (v, x) in enumerate(zip(nums, _nums_on(out, out.den)), 1):
                v = F(v, den * m)
                assert F(x, out.den * m) == t.residuum(c, v), (c, v, m)
            # and the per-point residuation it replaces agrees, on the
            # same least denominator
            slow = point_residuate(c, PointColumn(den, nums), t)
            assert (out.den, _nums_on(out, out.den)) == (slow.den, list(slow.nums))


@pytest.mark.parametrize("t", COLUMN_TNORMS, ids=COLUMN_IDS)
def test_residua_match_residuum_on_the_grid(t):
    # every pair of the grid 1/(64 m) at the point 1/m, so every pair of
    # the 1/64 grid scaled by m and the values between
    for m in (1, 2, 3):
        nums = range(64 * m + 1)
        got = t.residua(64, [(m, x, y) for x in nums for y in nums])
        want = [(F(x, 64 * m), F(y, 64 * m)) for x in nums for y in nums]
        for (x, y), (n, d) in zip(want, got, strict=True):
            assert d > 0 and F(n, d) == t.residuum(x, y), (x, y, m)
    points = grid(F(1, 64))
    pairs = [(x, y) for x in points for y in points]
    got = t.residua(320, [(5, x * 320 * 5, y * 320 * 5) for x, y in pairs])
    for (x, y), (n, d) in zip(pairs, got, strict=True):
        assert F(n, d) == t.residuum(x, y), (x, y)


def test_column_kernel_checks_its_values():
    # a residuated node refuses a bad constant or child value as the
    # residuum does; each child holds the column (den, nums) shown, the
    # last one at the first point only, since no expression is -1/2 at
    # m = 1 and 0 at m = 2, so that column goes to _residuate itself
    out = r"is not in \[0,1\]"
    cases = [
        (F(3, 2), Const(F(1, 4)), 2, (4, [1, 2]), f"3/2 {out}"),
        (0.25, Const(F(1, 4)), 2, (4, [1, 2]), r"not an exact rational: 0\.25"),
        (F(3, 8), Join(Const(F(1, 2)), Ramp(F(5, 2))), 2,   # 5/(2*2) at m = 2
         (2, [1, 5]), f"5/4 {out}"),
        (F(3, 8), Const(F(-1, 2)), 1, (2, [-1]), f"-1/2 {out}"),
    ]
    for c, child, n, (den, nums), message in cases:
        assert _node(child, BLOCK, {}).column.head(n) == _runs_of(den, nums)
        with pytest.raises(UsageError, match=f"^{message}$"):
            _node(Res(c, child), BLOCK, {})
    with pytest.raises(UsageError, match=r"^-1/2 is not in \[0,1\]$"):
        _residuate(F(3, 8), _runs_of(2, [-1, 0]), BLOCK)
    with pytest.raises(UsageError, match=r"3/2 is not in \[0,1\]"):
        PRODUCT_BLOCK.residua(2, [(1, 1, 0), (1, 3, 0)])
    with pytest.raises(UsageError, match=r"-1/4 is not in \[0,1\]"):
        PRODUCT_BLOCK.residua(2, [(2, 1, -1)])
