from fractions import Fraction as F
from itertools import product as pairs_of
from math import lcm

import pytest

from quantalab import counterexample
from quantalab.counterexample import (Const, FunctionDescriptor, Join, Meet,
                                      NO_VIOLATION_EXPECTED, NO_VIOLATION_FOUND,
                                      Ramp, Res, TailIndicator, VIOLATION,
                                      build_catalog, default_catalog_exprs, describe,
                                      run_counterexample, sampled_sub_bound,
                                      _node, Column, _collapse_scan, _cut_extrema,
                                      _extrema, _levels, _step1)
from quantalab.errors import PreconditionError, UsageError
from quantalab.monad import Variant
from quantalab.base import ONE, ZERO
from quantalab.grid import grid
from quantalab.quantale import (TNorm, build_ordinal_sum, check_condition_s,
                                godel_tnorm, lukasiewicz_tnorm,
                                positive_residuum_zero_sup, product_tnorm)

from oracles import (PointColumn, build_catalog_per_expr, close_catalog_exprs, eval_at,
                     eval_leaves, left_limit_residuum, node_per_expr,
                     point_collapse_scan, point_node, tail_limit)

BLOCK = build_ordinal_sum([(F(1, 4), F(1, 2), "lukasiewicz")])
P = F(1, 4)


def describe_expr(e, t, depth, pin_one=False, label="", columns=None):
    """The descriptor of an expression's record, labelled by the expression."""
    return describe(_node(e, t, {} if columns is None else columns), depth, pin_one,
                    label or repr(e))


def catalog_of(exprs, t, depth, pin_one):
    """The catalog of explicit expressions, as ``run_counterexample`` builds it."""
    memo: dict = {}
    return build_catalog([_node(e, t, memo) for e in exprs], depth, pin_one)


def column_of(values):
    """The column of a sequence of rationals, the value at 1/m m-th: the
    oracles' way into the integer form."""
    values = tuple(values)
    den = lcm(*(v.denominator for v in values))
    return Column(den, [(m, 0, v.numerator * (den // v.denominator) * m)
                        for m, v in enumerate(values, 1)], len(values))


def values_of(col, n=None):
    """The samples of a column as Fractions, the value at 1/m m-th, up to
    n or the column's length."""
    n = len(col) if n is None else n
    return tuple(F(a * m + b, col.den * m) for s, e, a, b in col.spans
                 for m in range(s, (n if e is None else min(e, n)) + 1))


def point_column_of(col, n):
    """The first n samples of a column as the per-point oracle holds them."""
    return PointColumn(col.den, [a * m + b for s, e, a, b in col.spans
                                 for m in range(s, (n if e is None else min(e, n)) + 1)])


# -- expression evaluation ----------------------------------------------------

def test_eval_at_primitives():
    assert eval_at(Ramp(P), F(1, 2), BLOCK) == F(1, 8)
    assert eval_at(Ramp(P), F(1), BLOCK) == 0
    assert eval_at(TailIndicator(3), F(1, 5), BLOCK) == 1
    assert eval_at(TailIndicator(3), F(1, 2), BLOCK) == 0
    assert eval_at(TailIndicator(3), F(2, 5), BLOCK) == 0
    assert eval_at(TailIndicator(1), F(1), BLOCK) == 1
    assert eval_at(TailIndicator(2), F(1), BLOCK) == 0
    assert eval_at(TailIndicator(3), F(0), BLOCK) == 0


def test_eval_at_composites():
    e = Join(Meet(Ramp(P), Const(F(1, 8))), TailIndicator(2))
    assert eval_at(e, F(1, 2), BLOCK) == 1           # 1/2 = 1/2, indicator fires
    assert eval_at(e, F(1, 3), BLOCK) == 1
    assert eval_at(e, F(2, 3), BLOCK) == F(1, 12)    # min(1/12, 1/8), no indicator
    r = Res(F(3, 8), Ramp(P))
    # 3/8 -> 1/8 : different regions, residuum collapses to the argument
    assert eval_at(r, F(1, 2), BLOCK) == F(1, 8)


# -- tree walks ------------------------------------------------------------------

def _max_indicator_start(expr):
    """The largest indicator start in expr, or 1 without indicators."""
    if isinstance(expr, TailIndicator):
        return expr.start
    if isinstance(expr, (Join, Meet)):
        return max(_max_indicator_start(expr.left), _max_indicator_start(expr.right))
    if isinstance(expr, Res):
        return _max_indicator_start(expr.child)
    return 1


# -- tail limits ---------------------------------------------------------------

def tail_oracle(expr, t, m=120000):
    return eval_at(expr, F(1, m), t)


def node_tail(expr, t):
    return _node(expr, t, {}).tail


@pytest.mark.parametrize("expr,want_limit,want_exact", [
    (Ramp(P), P, False),
    (Ramp(F(0)), F(0), True),
    (TailIndicator(5), F(1), True),
    (Const(F(2, 5)), F(2, 5), True),
    (Join(Ramp(P), Const(F(1, 8))), P, False),
    (Join(Ramp(P), Const(P)), P, True),
    (Join(Ramp(P), Const(F(3, 8))), F(3, 8), True),
    (Meet(Ramp(P), Const(F(1, 8))), F(1, 8), True),
    (Meet(Ramp(P), Const(P)), P, False),
    (Meet(Ramp(P), TailIndicator(2)), P, False),
])
def test_tail_limits_against_deep_samples(expr, want_limit, want_exact):
    limit, exact = node_tail(expr, BLOCK)
    assert (limit, exact) == (want_limit, want_exact) == tail_limit(expr, BLOCK)
    deep = tail_oracle(expr, BLOCK)
    if exact:
        assert deep == limit
    else:
        assert deep < limit and limit - deep < F(1, 1000)


def test_tail_limit_residuated_jump():
    # the ramp approaches 1/4 from below; residuating by 3/8 sends values
    # below the block to themselves, so the tail limit stays 1/4 even though
    # the residuum AT 1/4 jumps into the block
    expr = Res(F(3, 8), Ramp(P))
    limit, exact = node_tail(expr, BLOCK)
    assert limit == P and not exact
    assert BLOCK.residuum(F(3, 8), P) == F(3, 8)      # the jump target
    deep = tail_oracle(expr, BLOCK)
    assert deep < P and P - deep < F(1, 1000)


def test_tail_limit_residuated_inside_block():
    # approaching 3/8 from below through the block: continuous there
    src = Join(Meet(Ramp(F(3, 8)), Const(F(3, 8))), Const(F(0)))
    limit, exact = node_tail(Res(F(7, 16), src), BLOCK)
    assert limit == BLOCK.residuum(F(7, 16), F(3, 8))
    assert not exact


def test_left_limit_residuum_cases():
    assert left_limit_residuum(BLOCK, F(1, 8), F(1, 4)) == (F(1), True)
    assert left_limit_residuum(BLOCK, F(3, 8), F(1, 4)) == (F(1, 4), False)
    assert left_limit_residuum(BLOCK, F(3, 8), F(5, 16)) == (F(7, 16), False)
    assert left_limit_residuum(BLOCK, F(3, 8), F(3, 8)) == (F(1, 2), False)
    assert left_limit_residuum(godel_tnorm(), F(3, 8), F(3, 8)) == (F(3, 8), False)
    with pytest.raises(UsageError):
        left_limit_residuum(BLOCK, F(1, 2), F(0))


def test_left_limit_residuum_against_grid():
    step = F(1, 4096)
    for c in (F(1, 8), F(5, 16), F(3, 8), F(1, 2), F(3, 4)):
        for limit in (F(1, 8), F(1, 4), F(5, 16), F(3, 8), F(1, 2)):
            want, attained = left_limit_residuum(BLOCK, c, limit)
            probe = max(BLOCK.residuum(c, limit - k * step) for k in range(1, 40))
            assert probe <= want
            if attained:
                assert probe == want
            else:
                assert want - probe <= 40 * step


# -- descriptors -----------------------------------------------------------------

def test_describe_gamma():
    d = describe_expr(Ramp(P), BLOCK, depth=10)
    samples = values_of(d.samples)
    assert samples[0] == 0 and samples[1] == F(1, 8)
    assert samples[3] == P * F(3, 4)
    assert d.tail_liminf == P
    assert d.global_inf == 0


def test_describe_bounded_gamma():
    d = describe_expr(Join(Ramp(P), Const(F(1, 8))), BLOCK, depth=10)
    assert d.global_inf == F(1, 8)
    assert d.tail_liminf == P
    assert values_of(d.samples)[0] == F(1, 8)


def test_describe_indicator_with_floor():
    d = describe_expr(Join(TailIndicator(3), Const(F(1, 16))), BLOCK, depth=10)
    assert values_of(d.samples)[:4] == (F(1, 16), F(1, 16), F(1), F(1))
    assert d.tail_liminf == 1
    assert d.global_inf == F(1, 16)


def test_describe_pin_one():
    d = describe_expr(Ramp(P), BLOCK, depth=10, pin_one=True)
    assert values_of(d.samples)[:2] == (1, F(1, 8))
    assert d.global_inf == 0         # the infimum lives off the pinned point


def test_global_inf_against_dense_sampling():
    exprs = [Ramp(P), Join(Ramp(P), Const(F(1, 8))), TailIndicator(4),
             Meet(Ramp(P), TailIndicator(2)), Res(F(3, 8), Ramp(P)),
             Join(Meet(Ramp(P), Const(F(3, 16))), TailIndicator(5))]
    points = grid(F(1, 256)) + [F(1, m) for m in range(1, 400)]
    for e in exprs:
        d = describe_expr(e, BLOCK, depth=30)
        dense = min(eval_at(e, x, BLOCK) for x in points)
        assert d.global_inf <= dense
        # for this family the infimum is realized in the limit toward x = 1
        assert dense - d.global_inf <= F(1, 64)


def test_descriptor_consistency_enforced():
    with pytest.raises(UsageError):
        FunctionDescriptor("bad", column_of((F(0),)), F(1, 2), F(3, 4))
    with pytest.raises(UsageError):
        FunctionDescriptor("bad", column_of((F(1, 2),)), F(1, 4), F(3, 4))


# -- columns against the per-point evaluator ---------------------------------------

PRODUCT_BLOCK = build_ordinal_sum([(F(1, 4), F(1, 2), "product")])
# (t-norm, t, s, the block's upper end as default_catalog_exprs takes it)
CLOSURE_CASES = [(BLOCK, F(3, 8), F(3, 8), F(1, 2)),
                 (PRODUCT_BLOCK, F(3, 8), F(7, 16), None)]


def shipped_closure(t, t_par, s_par, hi, variant):
    p = t.tensor(t_par, s_par)
    base = default_catalog_exprs(p, t_par, s_par, hi, variant, F(1, 8))
    return close_catalog_exprs(base, [p, t_par, s_par])


@pytest.mark.parametrize("t,t_par,s_par,hi", CLOSURE_CASES, ids=["luk", "product"])
@pytest.mark.parametrize("pin_one", [False, True])
def test_columns_equal_eval_at_on_the_shipped_closure(t, t_par, s_par, hi, pin_one):
    exprs = shipped_closure(t, t_par, s_par, hi, Variant.PLAIN)
    n = 24
    columns: dict = {}
    for e in exprs:
        want = [eval_at(e, F(1, m), t) for m in range(1, n + 1)]
        assert list(values_of(_node(e, t, columns).column, n)) == want
        if pin_one:
            want[0] = ONE
        assert list(values_of(describe_expr(e, t, n, pin_one, columns=columns).samples)) == want


def test_columns_grow_when_a_longer_horizon_is_asked():
    # a node's column has no length: the memo hands back the same record
    # for any horizon, and it reads out as far as it is asked
    e = Res(F(3, 8), Join(Ramp(P), TailIndicator(5)))
    columns: dict = {}
    node = _node(e, BLOCK, columns)
    assert values_of(node.column, 4) == tuple(eval_at(e, F(1, m), BLOCK) for m in range(1, 5))
    assert _node(e, BLOCK, columns) is node
    long = node.column
    assert list(values_of(long, 9)) == [eval_at(e, F(1, m), BLOCK) for m in range(1, 10)]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("t,t_par,s_par,hi", CLOSURE_CASES, ids=["luk", "product"])
def test_node_records_equal_their_oracles_on_the_shipped_closure(t, t_par, s_par,
                                                                 hi, variant):
    exprs = shipped_closure(t, t_par, s_par, hi, variant)
    columns: dict = {}
    for n in (3, 30):          # the second pass reads every memo entry
        for e in exprs:
            node = _node(e, t, columns)
            assert node.tail == tail_limit(e, t)
            assert node.co_countable == eval_leaves(e, ZERO, ZERO, t)
            # the value at x = 0 never undercuts the co-countable infimum,
            # which is why ``describe`` leaves it out of the global infimum
            assert eval_at(e, ZERO, t) >= node.co_countable
    assert list(values_of(node.column, n)) == [eval_at(e, F(1, m), t) for m in range(1, 31)]


def describe_per_point(expr, t, depth, pin_one=False, label="", memo=None):
    """The point-by-point describe that the columns replace, kept as the
    oracle; ``memo`` holds each point 1/m with ``eval_at``'s memo there."""
    def value(m):
        if pin_one and m == 1:
            return ONE
        if memo is None:
            return eval_at(expr, F(1, m), t)
        if m not in memo:
            memo[m] = F(1, m), {}
        x, at_x = memo[m]
        return eval_at(expr, x, t, at_x)

    horizon = max(depth, _max_indicator_start(expr) + 1) + 1
    all_samples = [value(m) for m in range(1, horizon + 1)]
    co_countable = eval_leaves(expr, ZERO, ZERO, t)
    at_zero = eval_at(expr, ZERO, t)
    ginf = min(min(all_samples), co_countable, at_zero)
    liminf, _ = tail_limit(expr, t)
    return FunctionDescriptor(label or repr(expr), column_of(all_samples[:depth]),
                              liminf, ginf)


def build_catalog_per_point(exprs, t, depth, pin_one, cap=240):
    """The catalog deduplicated by full-depth descriptors, point by point."""
    seen, out, memo = set(), [], {}
    for e in exprs:
        d = describe_per_point(e, t, depth, pin_one, label=f"w{len(out)}", memo=memo)
        if d.key() not in seen:
            seen.add(d.key())
            out.append(d)
        if len(out) >= cap:
            break
    return out


# the Lukasiewicz cases keep their plain variant ids
@pytest.mark.parametrize("t,t_par,s_par,hi,variant", [
    pytest.param(*case, v, id=str(v) if case[0] is BLOCK else f"product-{v}")
    for case in CLOSURE_CASES for v in Variant])
def test_build_catalog_matches_per_point_describe(t, t_par, s_par, hi, variant):
    exprs = shipped_closure(t, t_par, s_par, hi, variant)
    pin_one = variant is Variant.FILTER
    want = build_catalog_per_point(exprs, t, 200, pin_one)
    assert catalog_of(exprs, t, 200, pin_one) == want


def test_build_catalog_stops_at_its_cap():
    ramp = Ramp(F(1, 4))
    exprs = [ramp, *(Const(F(k, 300)) for k in range(300))]
    catalog = catalog_of(exprs, BLOCK, 20, False)
    assert len(catalog) == counterexample.CATALOG_CAP == 240
    assert catalog[0] == describe_expr(ramp, BLOCK, 20, False, label="w0")
    assert catalog == build_catalog_per_expr(exprs, BLOCK, 20, False)


def test_describe_eval_at_calls_do_not_grow_with_depth(monkeypatch):
    exprs = shipped_closure(BLOCK, F(3, 8), F(3, 8), F(1, 2), Variant.PLAIN)
    e = next(x for x in exprs                # a depth-2 residuation
             if isinstance(x, Res) and isinstance(x.child, (Join, Meet)))
    # the per-point evaluator is a test oracle, out of the library's reach
    assert not hasattr(counterexample, "eval_at")
    points = []
    original = TNorm.residua

    def counted(self, den, pts):
        pts = list(pts)
        points.append(len(pts))
        return original(self, den, pts)

    monkeypatch.setattr(TNorm, "residua", counted)
    counts = []
    for depth in (50, 1000):
        points.clear()
        describe_expr(e, BLOCK, depth)
        counts.append(sum(points))
    # the residuations evaluate a few points per piece, whatever the depth
    assert counts[0] == counts[1] > 0


def test_sampled_sub_bound_reflexive_and_bounds():
    a = describe_expr(Ramp(P), BLOCK, depth=20)
    b = describe_expr(Const(P), BLOCK, depth=20)
    assert sampled_sub_bound(a, a, BLOCK) == 1
    v = sampled_sub_bound(b, a, BLOCK)
    assert v <= BLOCK.residuum(P, values_of(a.samples)[0])


# -- step 1: the coreflected tail semifilter at the ramp ------------------------------

def test_threshold_and_tail_evaluation():
    # the threshold at r reads r -> inf mu and the tail semifilter the tail
    # liminf; both are descriptor fields
    d = describe_expr(Ramp(P), BLOCK, depth=10)
    assert d.global_inf == ZERO and d.tail_liminf == P
    # the plain tail reaches p, so p -> tail is 1 and the ramp is in the level
    assert _step1(d, [d], P, BLOCK, False) == (ONE, True, d.label)
    # the bounded tail of a zero-infimum argument is cut to the zero-residuum
    # sup, 0 here, so the bare ramp leaves the level
    assert positive_residuum_zero_sup(BLOCK) == 0
    assert _step1(d, [d], P, BLOCK, True) == (ZERO, False, "")
    # floored by a positive constant the ramp is bounded: its tail stays p
    bounded = describe_expr(Join(Ramp(P), Const(F(1, 8))), BLOCK, depth=10)
    assert bounded.global_inf > ZERO and bounded.tail_liminf == P
    assert _step1(bounded, [bounded], P, BLOCK, True) == (ONE, True, bounded.label)


def test_coreflected_level_and_catalog_value():
    gamma = describe_expr(Ramp(P), BLOCK, depth=30)
    low = describe_expr(Const(F(1, 8)), BLOCK, depth=30)
    floored = describe_expr(Join(Ramp(P), Const(F(1, 8))), BLOCK, depth=30)
    # the ramp's tail liminf reaches p: it is in the level and realizes 1
    assert _step1(gamma, [gamma, low], P, BLOCK, False) == (ONE, True, gamma.label)
    # the constant below p stays out of the bounded level too
    assert _step1(gamma, [gamma, low], P, BLOCK, True) == (ZERO, False, "")
    # floored by a positive constant, the ramp is bounded and back in
    assert _step1(floored, [floored, low], P, BLOCK, True) == \
        (ONE, True, floored.label)
    # off the level only a sampled inclusion from a member is found, and it
    # certifies nothing
    value, exact, witness = _step1(low, [low, gamma], P, BLOCK, False)
    assert not exact and witness == gamma.label
    assert value == sampled_sub_bound(gamma, low, BLOCK) == F(1, 8)


# -- the full script ------------------------------------------------------------------

@pytest.mark.parametrize("variant", list(Variant))
def test_counterexample_replication(variant):
    rep = run_counterexample(BLOCK, F(3, 8), F(3, 8), depth=300, variant=variant,
                             epsilon=F(1, 8))
    assert rep.verdict == VIOLATION
    assert rep.certified and not rep.condition_s
    assert rep.step1_value == 1 and rep.step1_exact
    assert rep.step2_bound == P
    assert rep.p == P and rep.q == F(1, 2)
    assert rep.all_claims_ok
    for _, cert, _ in rep.step2_details:
        assert cert <= P


@pytest.mark.parametrize("tnorm,t,s", [
    (godel_tnorm(), F(3, 8), F(1, 4)),
    (lukasiewicz_tnorm(), F(3, 4), F(3, 4)),
    (product_tnorm(), F(1, 2), F(1, 2)),
])
def test_condition_s_specs_probe_clean(tnorm, t, s):
    rep = run_counterexample(tnorm, t, s, depth=120)
    assert rep.verdict == NO_VIOLATION_EXPECTED
    assert not rep.certified and rep.condition_s
    assert rep.coincide_on_catalog


def test_bounded_routes_lukasiewicz_shape_to_plain():
    rep = run_counterexample(lukasiewicz_tnorm(), F(3, 4), F(3, 4), depth=100,
                             variant=Variant.BOUNDED)
    assert rep.routed_to_plain and rep.variant is Variant.PLAIN
    assert rep.verdict == NO_VIOLATION_EXPECTED


def test_depth_monotonicity_never_weakens_verdict():
    shallow = run_counterexample(BLOCK, F(3, 8), F(3, 8), depth=50)
    deep = run_counterexample(BLOCK, F(3, 8), F(3, 8), depth=800)
    assert shallow.verdict == deep.verdict == VIOLATION
    assert shallow.step2_bound == deep.step2_bound == P


@pytest.mark.parametrize("t_par,s_par,epsilon,bad", [
    ("a", F(3, 8), F(1, 8), "a"), (F(3, 8), "1/0", F(1, 8), "1/0"),
    (F(3, 8), F(3, 8), "eps", "eps")])
def test_malformed_parameters_are_usage_errors(t_par, s_par, epsilon, bad):
    with pytest.raises(UsageError, match=f"not an exact rational: '{bad}'"):
        run_counterexample(BLOCK, t_par, s_par, depth=50, epsilon=epsilon)


def test_preconditions():
    with pytest.raises(PreconditionError):
        run_counterexample(BLOCK, F(3, 8), F(1, 4))       # boundary point
    with pytest.raises(PreconditionError):
        run_counterexample(BLOCK, F(3, 8), F(7, 16))      # product is not lo
    with pytest.raises(PreconditionError):
        run_counterexample(BLOCK, F(3, 4), F(7, 8))       # outside every block
    with pytest.raises(PreconditionError):
        run_counterexample(BLOCK, F(3, 8), F(3, 8), depth=1)
    with pytest.raises(PreconditionError):
        run_counterexample(BLOCK, F(3, 8), F(3, 8), variant=Variant.BOUNDED,
                           epsilon=F(1, 2))               # epsilon must stay below p
    mixed = build_ordinal_sum([(0, F(1, 2), "lukasiewicz"),
                               (F(1, 2), 1, "lukasiewicz")])
    with pytest.raises(PreconditionError):
        run_counterexample(mixed, F(1, 4), F(1, 4))       # block touches zero
    prod_block = build_ordinal_sum([(F(1, 4), F(1, 2), "product"),
                                    (F(1, 2), 1, "lukasiewicz")])
    with pytest.raises(PreconditionError):
        run_counterexample(prod_block, F(5, 16), F(5, 16))


def test_mixed_spec_certifies_in_upper_block():
    mixed = build_ordinal_sum([(0, F(1, 2), "lukasiewicz"),
                               (F(1, 2), 1, "lukasiewicz")])
    rep = run_counterexample(mixed, F(3, 4), F(3, 4), depth=200)
    assert rep.verdict == VIOLATION
    assert rep.p == F(1, 2) and rep.step2_bound == F(1, 2)


def test_custom_catalog_minimal_still_violates():
    rep = run_counterexample(BLOCK, F(3, 8), F(3, 8), depth=100,
                             catalog_exprs=[Ramp(P)])
    assert rep.verdict == VIOLATION and rep.catalog_size == 1


def test_custom_catalog_without_target_witness_reports_honestly():
    rep = run_counterexample(BLOCK, F(3, 8), F(3, 8), depth=100,
                             catalog_exprs=[Const(F(1, 8)), Const(P)])
    assert not rep.step1_exact
    assert rep.verdict == NO_VIOLATION_FOUND


def test_default_catalog_contains_ramp_first():
    base = default_catalog_exprs(P, F(3, 8), F(3, 8), F(1, 2), Variant.PLAIN, F(1, 8))
    assert base[0] == Ramp(P)
    catalog = build_catalog(counterexample.close_catalog(base, [P], BLOCK), 40, False)
    assert catalog[0].tail_liminf == P and catalog[0].global_inf == 0
    keys = {d.key() for d in catalog}
    assert len(keys) == len(catalog)


# -- integer columns and their Fraction oracles ------------------------------------

THREE_BLOCKS = build_ordinal_sum([(0, F(1, 4), "product"),
                                  (F(1, 4), F(1, 2), "lukasiewicz"),
                                  (F(1, 2), 1, "product")])


def test_column_reads_back_as_fractions():
    values = (F(0), F(1, 3), F(5, 6), F(1), F(2, 7))
    col = column_of(values)
    # value * 42 * m is 0, 28, 105, 168, 60: the line through each run's
    # first two points, and a last run of one point
    assert col.den == 42 and col.runs == ((1, 28, -28), (3, 63, -84), (5, 0, 60))
    assert len(col) == 5 and values_of(col) == values
    assert values_of(col.head(2)) == values[:2]
    assert F(*col.min()) == 0 and F(*column_of(values[1:]).min()) == F(2, 7)
    assert Column(6 * col.den, [(s, 6 * a, 6 * b) for s, a, b in col.runs], 5) == col
    assert column_of(()) == Column(1, (), 0) and len(column_of(())) == 0


def nested_product_exprs():
    """Residuations three deep on a product block, with constants whose
    denominators multiply."""
    leaf = Join(Ramp(F(5, 11)), TailIndicator(4))
    out = []
    for c1, c2, c3 in [(F(2, 5), F(3, 7), F(4, 9)), (F(7, 20), F(1, 3), F(13, 30)),
                       (F(3, 8), F(5, 13), F(9, 20))]:
        out.append(Res(c1, Res(c2, Res(c3, leaf))))
        out.append(Meet(Res(c1, Res(c2, leaf)), Res(c3, Const(F(2, 7)))))
    return out


@pytest.mark.parametrize("t", [PRODUCT_BLOCK, THREE_BLOCKS], ids=["product", "three"])
def test_nested_product_residuations_are_exact(t):
    n = 40
    for e in nested_product_exprs():
        col = _node(e, t, {}).column
        assert list(values_of(col, n)) == [eval_at(e, F(1, m), t) for m in range(1, n + 1)]


@pytest.mark.parametrize("t,t_par,s_par,hi", CLOSURE_CASES
                         + [(THREE_BLOCKS, F(5, 16), F(5, 16), F(1, 2))],
                         ids=["luk", "product", "three"])
def test_column_keys_are_value_equality(t, t_par, s_par, hi):
    exprs = shipped_closure(t, t_par, s_par, hi, Variant.PLAIN) + nested_product_exprs()
    columns: dict = {}
    by_value: dict = {}
    for e in exprs:
        col = _node(e, t, columns).column.head(24)
        by_value.setdefault(values_of(col), set()).add(col)
    # one canonical column per distinct sequence of values, and back
    assert all(len(cols) == 1 for cols in by_value.values())
    assert len({c for cols in by_value.values() for c in cols}) == len(by_value)
    for values, (col,) in by_value.items():
        again = column_of(values)
        assert again == col and hash(again) == hash(col)


def test_descriptor_from_fractions_equals_the_described_one():
    columns: dict = {}
    for e in shipped_closure(PRODUCT_BLOCK, F(3, 8), F(7, 16), None, Variant.PLAIN)[:80]:
        d = describe_expr(e, PRODUCT_BLOCK, 30, label="w", columns=columns)
        again = FunctionDescriptor("w", column_of(values_of(d.samples)),
                                   d.tail_liminf, d.global_inf)
        assert again == d and hash(again) == hash(d) and again.key() == d.key()


def sampled_sub_bound_fraction(lam, mu, t):
    """The Fraction ``sampled_sub_bound`` that integer pairs replace."""
    if lam.key() == mu.key():
        return ONE
    out = ONE
    for a, b in zip(values_of(lam.samples), values_of(mu.samples)):
        out = min(out, t.residuum(a, b))
    return out


def collapse_scan_fraction(a_samples, g_samples, p, t):
    """The Fraction step-2 scan that ``_collapse_scan`` replaces."""
    ms = [(m, a, g) for m, (a, g) in enumerate(zip(a_samples, g_samples), 1)
          if a >= p > g]
    cert, failures = p, []
    for m, a, g in ms:
        collapsed = t.residuum(a, g)
        if collapsed != g:
            failures.append((m, collapsed, g))
        cert = min(cert, collapsed)
    return cert, len(ms), failures


@pytest.mark.parametrize("t,t_par,s_par,hi", CLOSURE_CASES
                         + [(THREE_BLOCKS, F(5, 16), F(5, 16), F(1, 2))],
                         ids=["luk", "product", "three"])
def test_sampled_sub_bound_matches_its_fraction_oracle(t, t_par, s_par, hi):
    catalog = catalog_of(shipped_closure(t, t_par, s_par, hi, Variant.PLAIN),
                            t, 120, False)
    gamma = catalog[0]
    pairs = [(d, gamma) for d in catalog] + [(gamma, d) for d in catalog]
    pairs += list(pairs_of(catalog[::7], catalog[3::11]))
    for lam, mu in pairs:
        assert sampled_sub_bound(lam, mu, t) == sampled_sub_bound_fraction(lam, mu, t)


@pytest.mark.parametrize("variant", list(Variant))
def test_collapse_scan_matches_its_fraction_oracle(variant):
    exprs = shipped_closure(BLOCK, F(3, 8), F(3, 8), F(1, 2), variant)
    catalog = catalog_of(exprs, BLOCK, 200, variant is Variant.FILTER)
    gamma = catalog[0]
    seen_points = 0
    for d in catalog:
        got = _collapse_scan(d.samples, gamma.samples, P, BLOCK)
        assert got == collapse_scan_fraction(values_of(d.samples),
                                             values_of(gamma.samples), P, BLOCK)
        seen_points += got[1]
    assert seen_points > 0
    # at the interior p = 3/8, against other members than the ramp, points
    # with both values inside the block do not collapse
    failures = 0
    for a, g in pairs_of(catalog, catalog[1:12]):
        a_col, g_col = a.samples.head(60), g.samples.head(60)
        got = _collapse_scan(a_col, g_col, F(3, 8), BLOCK)
        assert got == collapse_scan_fraction(values_of(a_col), values_of(g_col),
                                             F(3, 8), BLOCK)
        failures += len(got[2])
    assert failures > 0


WIDE_STARTS = [TailIndicator(40), Meet(Ramp(P), TailIndicator(60)),
               Join(TailIndicator(300), Const(F(1, 16))),
               Res(F(3, 8), Join(Ramp(P), TailIndicator(90))),
               Meet(Res(F(3, 8), TailIndicator(45)), Join(Ramp(P), TailIndicator(7))),
               Res(F(5, 16), Meet(Const(F(7, 16)), TailIndicator(25)))]


@pytest.mark.parametrize("pin_one", [False, True])
@pytest.mark.parametrize("t", [BLOCK, PRODUCT_BLOCK], ids=["luk", "product"])
def test_horizon_beyond_the_depth_is_not_needed(t, pin_one):
    # describe_per_point samples past the largest indicator start
    for depth in (1, 2, 5, 20):
        for e in WIDE_STARTS:
            assert describe_expr(e, t, depth, pin_one) == describe_per_point(e, t, depth, pin_one)


def test_horizon_follows_the_depth_not_the_indicator_start():
    e = Join(TailIndicator(10 ** 5), Ramp(P))
    columns: dict = {}
    d = describe_expr(e, BLOCK, 50, columns=columns)
    assert len(d.samples) == 50 and d.global_inf == 0
    # the memo hands back records that no depth shaped: the indicator is
    # two runs however far it starts, and the join follows the ramp up to it
    assert [_node(x, BLOCK, columns) for x in (e, e.left, e.right)] == \
        [_node(x, BLOCK, {}) for x in (e, e.left, e.right)]
    assert [len(_node(x, BLOCK, columns).column.runs)
            for x in (e, e.left, e.right)] == [2, 2, 1]


# -- run columns against their oracles ----------------------------------------------

ALL_CLOSURE_CASES = CLOSURE_CASES + [(THREE_BLOCKS, F(5, 16), F(5, 16), F(1, 2))]
DEPTHS = (1, 2, 12, 13, 200, 1001)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("t,t_par,s_par,hi", ALL_CLOSURE_CASES,
                         ids=["luk", "product", "three"])
def test_run_columns_match_their_oracles_on_every_shipped_node(t, t_par, s_par, hi,
                                                               variant):
    exprs = shipped_closure(t, t_par, s_par, hi, variant)
    memo, slow_memo, at_points = {}, {}, {}
    by_column, by_values = {}, {}
    # every node of every tree, once each by value
    for e in dict.fromkeys(x for root in exprs for x in subexpressions(root)):
        node = _node(e, t, memo)
        slow = point_node(e, t, DEPTHS[-1], slow_memo)
        assert (node.tail, node.co_countable) == (slow.tail, slow.co_countable)
        if isinstance(e, Res) and not _node(e.child, t, memo).tail[1]:
            limit = _node(e.child, t, memo).tail[0]
            assert node.tail == left_limit_residuum(t, e.const, limit)
        for n in DEPTHS:
            col, want = node.column.head(n), slow.column.head(n)
            assert col.den == want.den and point_column_of(col, n) == want
            # equal columns exactly when equal values, over all pairs
            assert by_column.setdefault(col, want) == want
            assert by_values.setdefault(want, col) == col
        # eval_at where runs meet, and at the last point of every depth
        ends = {m for s, e_, _, _ in node.column.spans for m in (s - 1, s)}
        for m in sorted((ends | set(DEPTHS)) - {0}):
            if m <= DEPTHS[-1]:
                if m not in at_points:
                    at_points[m] = F(1, m), {}
                x, at_x = at_points[m]
                assert F(*node.column.at(m)) == eval_at(e, x, t, at_x), (e, m)


# -- records shared by equal operations on equal records --------------------------

def report_fields(rep):
    return ([getattr(rep, s) for s in rep.__slots__ if s != "claims"],
            [(c.name, c.ok, c.detail) for c in rep.claims])


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("t,t_par,s_par,hi", ALL_CLOSURE_CASES,
                         ids=["luk", "product", "three"])
def test_shared_records_match_the_per_expression_oracle(t, t_par, s_par, hi, variant,
                                                        monkeypatch):
    exprs = shipped_closure(t, t_par, s_par, hi, variant)
    pin_one = variant is Variant.FILTER
    want = build_catalog_per_expr(exprs, t, 1000, pin_one)
    got = catalog_of(exprs, t, 1000, pin_one)
    assert [(d.label, d.key()) for d in got] == [(d.label, d.key()) for d in want]
    # the default run, on the record closure, against the same closure
    # spelled as expressions and described one evaluation per expression
    fast = run_counterexample(t, t_par, s_par, 1000, variant)
    monkeypatch.setattr(counterexample, "_node", node_per_expr)
    slow = run_counterexample(t, t_par, s_par, 1000, variant, catalog_exprs=exprs)
    assert report_fields(fast) == report_fields(slow)


def record_catalog(t, t_par, s_par, hi, variant, depth):
    """The default catalog, as ``run_counterexample`` builds it on records."""
    p = t.tensor(t_par, s_par)
    base = default_catalog_exprs(p, t_par, s_par, hi, variant, F(1, 8))
    return build_catalog(counterexample.close_catalog(base, [p, t_par, s_par], t), depth,
                         variant is Variant.FILTER)


@pytest.mark.parametrize("depth", [2, 10, 1000])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("t,t_par,s_par,hi", ALL_CLOSURE_CASES,
                         ids=["luk", "product", "three"])
def test_the_record_closure_is_the_expression_closure(t, t_par, s_par, hi, variant, depth):
    # descriptors, labels and order, against the closure's expression trees
    want = catalog_of(shipped_closure(t, t_par, s_par, hi, variant), t, depth,
                         variant is Variant.FILTER)
    got = record_catalog(t, t_par, s_par, hi, variant, depth)
    assert [(d.label, d) for d in got] == [(d.label, d) for d in want]


def subexpressions(e):
    yield e
    for child in ((e.left, e.right) if isinstance(e, (Join, Meet))
                  else (e.child,) if isinstance(e, Res) else ()):
        yield from subexpressions(child)


@pytest.mark.parametrize("variant", list(Variant))
def test_the_default_catalog_builds_no_expression_past_its_base(variant, monkeypatch):
    built, bases, evaluated, counting = [], [], [], [True]
    for cls in (Join, Meet, Res):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__:
                            (counting[0] and built.append(self)) or _init(self, *args))
    real_base, real_node = default_catalog_exprs, counterexample._node

    def base_exprs(*args):
        counting[0] = False
        bases.append(real_base(*args))
        counting[0] = True
        return bases[-1]

    monkeypatch.setattr(counterexample, "default_catalog_exprs", base_exprs)
    monkeypatch.setattr(counterexample, "_node",
                        lambda e, t, memo: evaluated.append(e) or real_node(e, t, memo))
    rep = run_counterexample(BLOCK, F(3, 8), F(3, 8), 1000, variant)
    assert rep.verdict == VIOLATION and rep.catalog_size > 50
    # no join, meet or residuation is built past the base, and only the
    # base expressions and their parts go through ``_node``
    assert built == [] and len(bases) == 1
    assert {id(e) for e in evaluated} == {id(x) for e in bases[0] for x in subexpressions(e)}


def counted_evaluations(monkeypatch) -> list:
    """Count the join/meet and residuation evaluations from here on."""
    calls = []
    for name in ("_extrema", "_residuate"):
        f = getattr(counterexample, name)
        monkeypatch.setattr(counterexample, name,
                            lambda *args, _f=f: calls.append(args) or _f(*args))
    return calls


def test_a_commuted_operation_costs_one_evaluation(monkeypatch):
    a, b = Ramp(F(1, 2)), Join(TailIndicator(3), Const(F(1, 8)))
    memo: dict = {}
    _node(a, BLOCK, memo), _node(b, BLOCK, memo)
    calls = counted_evaluations(monkeypatch)
    # the join and the meet, in either order, are one evaluation
    for op in (Join, Meet):
        assert _node(op(a, b), BLOCK, memo) is _node(op(b, a), BLOCK, memo)
    assert len(calls) == 1
    # an equal child spelled by another object, under the same constant
    before = len(calls)
    assert _node(Res(P, a), BLOCK, memo) is _node(Res(P, Ramp(F(1, 2))), BLOCK, memo)
    assert len(calls) - before == 1


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("t,t_par,s_par,hi", ALL_CLOSURE_CASES,
                         ids=["luk", "product", "three"])
def test_the_closure_costs_at_most_its_distinct_operations(t, t_par, s_par, hi, variant,
                                                           monkeypatch):
    exprs = shipped_closure(t, t_par, s_par, hi, variant)
    memo: dict = {}
    for e in exprs:
        node_per_expr(e, t, memo)
    record = lambda e: memo[id(e)][1]               # equal records hash alike
    ops = {(e.__class__, frozenset((record(e.left), record(e.right))))
           if isinstance(e, (Join, Meet)) else (e.const, record(e.child))
           for e, _ in memo.values() if isinstance(e, (Join, Meet, Res))}
    per_expr = sum(isinstance(e, (Join, Meet, Res)) for e, _ in memo.values())
    calls = counted_evaluations(monkeypatch)
    catalog_of(exprs, t, 1000, variant is Variant.FILTER)
    assert len(calls) <= len(ops) < per_expr / 2
    # on records, the join and the meet of two records are one evaluation,
    # the base's own joins included
    pairs = {args for cls, args in ops if cls in (Join, Meet)}
    residuations = [op for op in ops if op[0] not in (Join, Meet)]
    calls.clear()
    record_catalog(t, t_par, s_par, hi, variant, 1000)
    assert len(calls) <= len(pairs) + len(residuations) < len(ops)


def test_join_and_meet_dedup_whatever_their_order_at_an_integer_crossing():
    a, b = Ramp(F(1, 2)), Const(F(3, 8))        # equal at m = 4
    assert eval_at(a, F(1, 4), BLOCK) == eval_at(b, F(1, 4), BLOCK)
    for op in (Join, Meet):
        one, other = describe_expr(op(a, b), BLOCK, 50), describe_expr(op(b, a), BLOCK, 50)
        assert one.key() == other.key()
        assert values_of(one.samples) == tuple(eval_at(op(a, b), F(1, m), BLOCK)
                                               for m in range(1, 51))
    catalog = catalog_of([Join(a, b), Join(b, a), Meet(a, b), Meet(b, a)],
                            BLOCK, 50, False)
    assert [d.label for d in catalog] == ["w0", "w1"]


def test_crossings_at_a_sampled_point_are_exact():
    # the ramp 1/2 (1 - 1/m) meets 3/8 at m = 4 and p = 1/4 at m = 2
    ramp = Ramp(F(1, 2))
    for e in (Res(F(3, 8), ramp), Res(P, ramp), Res(F(3, 8), Meet(ramp, Const(F(3, 8)))),
              Res(F(7, 16), Join(ramp, Const(F(3, 8)))), Meet(ramp, Ramp(F(3, 8)))):
        for t in (BLOCK, PRODUCT_BLOCK, THREE_BLOCKS):
            col = _node(e, t, {}).column
            assert values_of(col, 40) == tuple(eval_at(e, F(1, m), t) for m in range(1, 41))
    a = describe_expr(ramp, BLOCK, 40).samples
    for g, p in ((Ramp(P), P), (Ramp(F(3, 8)), F(3, 8))):
        g = describe_expr(g, BLOCK, 40).samples
        got = _collapse_scan(a, g, p, BLOCK)
        assert got == point_collapse_scan(point_column_of(a, 40), point_column_of(g, 40),
                                          p, BLOCK)
    # at p = 3/8 both values share the block from m = 4 on, and every such
    # point fails to collapse
    assert [m for m, _, _ in got[2]] == list(range(4, 41))


def test_a_far_tail_indicator_is_two_runs():
    e = TailIndicator(10 ** 9)
    node = _node(e, BLOCK, {})
    assert node.column.runs == ((1, 0, 0), (10 ** 9, 1, 0)) and node.tail == (ONE, True)
    d = describe_expr(e, BLOCK, 1000)
    assert d.samples == column_of((ZERO,) * 1000)
    assert (d.tail_liminf, d.global_inf) == (ONE, ZERO)
    r = Res(F(3, 8), Join(e, Ramp(P)))
    for depth in (10 ** 9 - 1, 10 ** 9, 10 ** 9 + 1):
        samples = describe_expr(r, BLOCK, depth).samples
        assert len(samples) == depth
        for m in (1, 2, depth - 1, depth):
            assert F(*samples.at(m)) == eval_at(r, F(1, m), BLOCK)


@pytest.mark.parametrize("t", [BLOCK, PRODUCT_BLOCK, THREE_BLOCKS],
                         ids=["luk", "product", "three"])
def test_pin_one_at_the_shallowest_depths(t):
    exprs = [Ramp(P), Ramp(ZERO), Const(ONE), Const(F(1, 8)), TailIndicator(1),
             TailIndicator(2), TailIndicator(3), Join(Ramp(P), TailIndicator(2)),
             Res(F(3, 8), Ramp(F(1, 2)))]
    for e in exprs:
        for depth in (1, 2, 3):
            assert describe_expr(e, t, depth, True) == describe_per_point(e, t, depth, True)


@pytest.mark.parametrize("catalog", [
    [Ramp(P), Meet(Res(F(19, 80), Ramp(P)), Const(P))],
    [TailIndicator(20), TailIndicator(30)]], ids=["residuated", "indicators"])
def test_catalog_keeps_expressions_that_differ_only_deep(catalog):
    # both pairs agree on their first twelve samples, tail and infimum
    rep = run_counterexample(BLOCK, F(3, 8), F(3, 8), depth=1000, catalog_exprs=catalog)
    assert rep.catalog_size == 2


# -- every ordinal sum of at most two blocks on the quarter grid ------------------------

def quarter_grid_sums():
    quarters = [F(i, 4) for i in range(5)]
    spans = [(lo, hi) for lo in quarters for hi in quarters if lo < hi]
    kinds = ("lukasiewicz", "product")
    sums = [[(lo, hi, k)] for lo, hi in spans for k in kinds]
    sums += [[(a, b, k), (c, d, k2)] for a, b in spans for c, d in spans if b <= c
             for k in kinds for k2 in kinds]
    return [build_ordinal_sum(blocks) for blocks in sums]


@pytest.mark.parametrize("variant", list(Variant))
def test_condition_s_decides_the_verdict_on_the_quarter_grid(variant):
    sums = quarter_grid_sums()
    assert len(sums) == 80
    for t in sums:
        s_holds, block = check_condition_s(t)
        if s_holds:
            t_par = s_par = F(7, 8)
            epsilon = t.tensor(t_par, s_par) / 2
        else:
            t_par = s_par = (block.lo + block.hi) / 2
            epsilon = block.lo / 2
        rep = run_counterexample(t, t_par, s_par, variant=variant, epsilon=epsilon)
        if s_holds:
            assert rep.verdict == NO_VIOLATION_EXPECTED, t
        else:
            assert rep.verdict == VIOLATION and rep.all_claims_ok, t


def test_levels_are_read_from_the_tnorm_and_hash_nothing(monkeypatch):
    three = build_ordinal_sum([(0, F(1, 4), "product"), (F(1, 4), F(1, 2), "lukasiewicz")])
    assert three.endpoints == (0, F(1, 4), F(1, 2), 1)
    assert BLOCK.endpoints == (0, F(1, 4), F(1, 2), 1) and godel_tnorm().endpoints == (0, 1)
    hashed = []
    real = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda self: hashed.append(self) or real(self))
    assert _levels(BLOCK) == BLOCK.endpoints
    # an extra value already among the endpoints is not repeated
    assert _levels(BLOCK, P, F(3, 8)) == (0, F(1, 4), F(1, 2), 1, F(3, 8))
    assert hashed == []


# -- joins and meets settled by dominance -----------------------------------------

# blocks of the benchmark's shape, away from 0 on several denominators:
# (t-norm, t, s, the block's right end or None), t (x) s the left end on a
# Lukasiewicz block
DOMINANCE_CASES = ALL_CLOSURE_CASES + [
    (build_ordinal_sum([(F(3, 24), F(13, 24), "lukasiewicz")]), F(7, 24), F(9, 24),
     F(13, 24)),
    (build_ordinal_sum([(F(5, 48), F(17, 48), "lukasiewicz")]), F(6, 48), F(16, 48),
     F(17, 48)),
    (build_ordinal_sum([(F(2, 16), F(12, 16), "product")]), F(3, 16), F(11, 16), None),
    (build_ordinal_sum([(F(9, 64), F(40, 64), "product")]), F(10, 64), F(39, 64), None),
]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("t,t_par,s_par,hi", DOMINANCE_CASES,
                         ids=["luk", "product", "three", "luk24", "luk48", "prod16",
                              "prod64"])
def test_dominance_settles_a_join_as_the_cut_does(t, t_par, s_par, hi, variant,
                                                   monkeypatch):
    # every pair of node columns joined and met while a catalog is built:
    # where the cut answers with one of the two, the join or meet is that
    # very object, so node records intern and the catalog keeps its order
    calls, cuts = [], []
    monkeypatch.setattr(counterexample, "_extrema",
                        lambda a, b: calls.append((a, b)) or _extrema(a, b))
    monkeypatch.setattr(counterexample, "_cut_extrema",
                        lambda a, b: cuts.append(1) or _cut_extrema(a, b))
    p = t.tensor(t_par, s_par)
    base = default_catalog_exprs(p, t_par, s_par, hi, variant, p / 2)
    build_catalog(counterexample.close_catalog(base, [p, t_par, s_par], t), 1000,
                  variant is Variant.FILTER)
    settled, inputs = 2 * (len(calls) - len(cuts)), 0
    for a, b in calls:
        for want, got in zip(_cut_extrema(a, b), _extrema(a, b)):
            if want is a or want is b:
                inputs += 1
                assert got is want, (a, b)
            else:
                assert got == want and got is not a and got is not b, (a, b)
    # the test at m = 1 settles most of the extrema the cut answers with
    # an input, and leaves the crossings to the cut
    assert 2 * len(calls) > inputs >= settled > inputs / 2 > 0


def test_dominance_keeps_the_first_of_equal_constants_and_leaves_a_crossing(monkeypatch):
    a = Column(8, ((1, 3, 0),))
    b = Column(8, ((1, 3, 0),))
    ramp = Column(4, ((1, 1, -1),))                     # (1 - 1/m)/4, up to 1/4
    eighth = Column(8, ((1, 1, 0),))
    def same(got, want):
        return all(g is w for g, w in zip(got, want, strict=True))

    assert same(_cut_extrema(a, b), (a, a)) and same(_cut_extrema(b, a), (b, b))
    # 3/8 lies above the ramp's limit: 3/8 wins a join, the ramp a meet
    assert same(_cut_extrema(a, ramp), (a, ramp)) and same(_cut_extrema(ramp, a), (a, ramp))
    cuts = []
    monkeypatch.setattr(counterexample, "_cut_extrema", lambda *args: cuts.append(args))
    assert same(_extrema(a, b), (a, a)) and same(_extrema(b, a), (b, b))
    assert same(_extrema(a, ramp), (a, ramp)) and same(_extrema(ramp, a), (a, ramp))
    assert cuts == []
    # the ramp crosses 1/8 at m = 2: neither wins at m = 1 alone
    _extrema(ramp, eighth)
    assert cuts.pop() == (ramp, eighth)
