from fractions import Fraction as F
from itertools import product as pairs_of
from math import lcm

import pytest

from quantalab import counterexample
from quantalab.counterexample import (Const, FunctionDescriptor, Join, Meet,
                                      NO_VIOLATION_EXPECTED, NO_VIOLATION_FOUND,
                                      Ramp, Res, TailIndicator, VIOLATION,
                                      build_catalog, close_catalog,
                                      default_catalog_exprs, describe, eval_at,
                                      left_limit_residuum, run_counterexample,
                                      sampled_sub_bound, _node, Column,
                                      _collapse_scan, _step1)
from quantalab.errors import PreconditionError, UsageError
from quantalab.monad import Variant
from quantalab.quantale import (ONE, ZERO, build_ordinal_sum, godel_tnorm, grid,
                                lukasiewicz_tnorm, positive_residuum_zero_sup,
                                product_tnorm)

BLOCK = build_ordinal_sum([(F(1, 4), F(1, 2), "lukasiewicz")])
P = F(1, 4)


def column_of(values):
    """The column of a sequence of rationals, the value at 1/m m-th: the
    oracles' way into the integer form."""
    values = tuple(values)
    den = lcm(*(v.denominator for v in values))
    return Column(den, (v.numerator * (den // v.denominator) * m
                        for m, v in enumerate(values, 1)))


def values_of(col):
    """The samples of a column as Fractions, the value at 1/m m-th."""
    return tuple(F(x, col.den * m) for m, x in enumerate(col.nums, 1))


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


# -- tree walks: the oracles for the node records --------------------------------

def tail_limit(expr, t):
    """The limit of m -> expr(1/m) and whether it is exact, by one walk of
    the tree: the oracle for the tails of the node records."""
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


def _eval_leaves(expr, ramp_value, indicator_value, t):
    """expr with every ramp leaf pinned to one value and every indicator to
    another, by one walk of the tree: with both at 0, the oracle for the
    co-countable values of the node records."""
    if isinstance(expr, Ramp):
        return ramp_value if expr.scale else ZERO
    if isinstance(expr, TailIndicator):
        return indicator_value
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Join):
        return max(_eval_leaves(expr.left, ramp_value, indicator_value, t),
                   _eval_leaves(expr.right, ramp_value, indicator_value, t))
    if isinstance(expr, Meet):
        return min(_eval_leaves(expr.left, ramp_value, indicator_value, t),
                   _eval_leaves(expr.right, ramp_value, indicator_value, t))
    if isinstance(expr, Res):
        return t.residuum(expr.const,
                          _eval_leaves(expr.child, ramp_value, indicator_value, t))
    raise UsageError(f"unknown expression {expr!r}")


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
    return _node(expr, t, 1, {}).tail


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
    d = describe(Ramp(P), BLOCK, depth=10)
    samples = values_of(d.samples)
    assert samples[0] == 0 and samples[1] == F(1, 8)
    assert samples[3] == P * F(3, 4)
    assert d.tail_liminf == P
    assert d.global_inf == 0


def test_describe_bounded_gamma():
    d = describe(Join(Ramp(P), Const(F(1, 8))), BLOCK, depth=10)
    assert d.global_inf == F(1, 8)
    assert d.tail_liminf == P
    assert values_of(d.samples)[0] == F(1, 8)


def test_describe_indicator_with_floor():
    d = describe(Join(TailIndicator(3), Const(F(1, 16))), BLOCK, depth=10)
    assert values_of(d.samples)[:4] == (F(1, 16), F(1, 16), F(1), F(1))
    assert d.tail_liminf == 1
    assert d.global_inf == F(1, 16)


def test_describe_pin_one():
    d = describe(Ramp(P), BLOCK, depth=10, pin_one=True)
    assert values_of(d.samples)[:2] == (1, F(1, 8))
    assert d.global_inf == 0         # the infimum lives off the pinned point


def test_global_inf_against_dense_sampling():
    exprs = [Ramp(P), Join(Ramp(P), Const(F(1, 8))), TailIndicator(4),
             Meet(Ramp(P), TailIndicator(2)), Res(F(3, 8), Ramp(P)),
             Join(Meet(Ramp(P), Const(F(3, 16))), TailIndicator(5))]
    points = grid(F(1, 256)) + [F(1, m) for m in range(1, 400)]
    for e in exprs:
        d = describe(e, BLOCK, depth=30)
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
    return close_catalog(base, [p, t_par, s_par])


@pytest.mark.parametrize("t,t_par,s_par,hi", CLOSURE_CASES, ids=["luk", "product"])
@pytest.mark.parametrize("pin_one", [False, True])
def test_columns_equal_eval_at_on_the_shipped_closure(t, t_par, s_par, hi, pin_one):
    exprs = shipped_closure(t, t_par, s_par, hi, Variant.PLAIN)
    n = 24
    columns: dict = {}
    for e in exprs:
        want = [eval_at(e, F(1, m), t) for m in range(1, n + 1)]
        assert list(values_of(_node(e, t, n, columns).column)[:n]) == want
        if pin_one:
            want[0] = ONE
        assert list(values_of(describe(e, t, n, pin_one, columns=columns).samples)) == want


def test_columns_grow_when_a_longer_horizon_is_asked():
    e = Res(F(3, 8), Join(Ramp(P), TailIndicator(5)))
    columns: dict = {}
    assert len(_node(e, BLOCK, 4, columns).column) == 4
    long = _node(e, BLOCK, 9, columns).column
    assert list(values_of(long)[:9]) == [eval_at(e, F(1, m), BLOCK) for m in range(1, 10)]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("t,t_par,s_par,hi", CLOSURE_CASES, ids=["luk", "product"])
def test_node_records_equal_their_oracles_on_the_shipped_closure(t, t_par, s_par,
                                                                 hi, variant):
    exprs = shipped_closure(t, t_par, s_par, hi, variant)
    columns: dict = {}
    for n in (3, 30):          # the second pass refills every memo entry
        for e in exprs:
            node = _node(e, t, n, columns)
            assert len(node.column) >= n
            assert node.tail == tail_limit(e, t)
            assert node.co_countable == _eval_leaves(e, ZERO, ZERO, t)
            # the value at x = 0 never undercuts the co-countable infimum,
            # which is why ``describe`` leaves it out of the global infimum
            assert eval_at(e, ZERO, t) >= node.co_countable
    assert list(values_of(node.column)) == [eval_at(e, F(1, m), t) for m in range(1, 31)]


def describe_per_point(expr, t, depth, pin_one=False, label=""):
    """The point-by-point describe that the columns replace, kept as the
    oracle."""
    def value(m):
        if pin_one and m == 1:
            return ONE
        return eval_at(expr, F(1, m), t)

    horizon = max(depth, _max_indicator_start(expr) + 1) + 1
    all_samples = [value(m) for m in range(1, horizon + 1)]
    co_countable = _eval_leaves(expr, ZERO, ZERO, t)
    at_zero = eval_at(expr, ZERO, t)
    ginf = min(min(all_samples), co_countable, at_zero)
    liminf, _ = tail_limit(expr, t)
    return FunctionDescriptor(label or repr(expr), column_of(all_samples[:depth]),
                              liminf, ginf)


def build_catalog_per_point(exprs, t, depth, pin_one, cap=240):
    light_seen, chosen = set(), []
    for e in exprs:
        d = describe_per_point(e, t, min(depth, 12), pin_one)
        if d.key() not in light_seen:
            light_seen.add(d.key())
            chosen.append(e)
        if len(chosen) >= cap:
            break
    out, full_seen = [], set()
    for i, e in enumerate(chosen):
        d = describe_per_point(e, t, depth, pin_one, label=f"w{i}")
        if d.key() not in full_seen:
            full_seen.add(d.key())
            out.append(d)
    return out


# the Lukasiewicz cases keep their plain variant ids
@pytest.mark.parametrize("t,t_par,s_par,hi,variant", [
    pytest.param(*case, v, id=str(v) if case[0] is BLOCK else f"product-{v}")
    for case in CLOSURE_CASES for v in Variant])
def test_build_catalog_matches_per_point_describe(t, t_par, s_par, hi, variant):
    exprs = shipped_closure(t, t_par, s_par, hi, variant)
    pin_one = variant is Variant.FILTER
    want = build_catalog_per_point(exprs, t, 200, pin_one)
    assert build_catalog(exprs, t, 200, pin_one) == want


def test_describe_eval_at_calls_do_not_grow_with_depth(monkeypatch):
    exprs = shipped_closure(BLOCK, F(3, 8), F(3, 8), F(1, 2), Variant.PLAIN)
    e = next(x for x in exprs                # a depth-2 residuation
             if isinstance(x, Res) and isinstance(x.child, (Join, Meet)))
    calls = []
    original = counterexample.eval_at

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(counterexample, "eval_at", counted)
    counts = []
    for depth in (50, 1000):
        calls.clear()
        describe(e, BLOCK, depth)
        counts.append(len(calls))
    # the endpoint x = 0 is covered by the co-countable infimum: no point
    # is evaluated
    assert counts == [0, 0]


def test_sampled_sub_bound_reflexive_and_bounds():
    a = describe(Ramp(P), BLOCK, depth=20)
    b = describe(Const(P), BLOCK, depth=20)
    assert sampled_sub_bound(a, a, BLOCK) == 1
    v = sampled_sub_bound(b, a, BLOCK)
    assert v <= BLOCK.residuum(P, values_of(a.samples)[0])


# -- step 1: the coreflected tail semifilter at the ramp ------------------------------

def test_threshold_and_tail_evaluation():
    # the threshold at r reads r -> inf mu and the tail semifilter the tail
    # liminf; both are descriptor fields
    d = describe(Ramp(P), BLOCK, depth=10)
    assert d.global_inf == ZERO and d.tail_liminf == P
    # the plain tail reaches p, so p -> tail is 1 and the ramp is in the level
    assert _step1(d, [d], P, BLOCK, False) == (ONE, True, d.label)
    # the bounded tail of a zero-infimum argument is cut to the zero-residuum
    # sup, 0 here, so the bare ramp leaves the level
    assert positive_residuum_zero_sup(BLOCK) == 0
    assert _step1(d, [d], P, BLOCK, True) == (ZERO, False, "")
    # floored by a positive constant the ramp is bounded: its tail stays p
    bounded = describe(Join(Ramp(P), Const(F(1, 8))), BLOCK, depth=10)
    assert bounded.global_inf > ZERO and bounded.tail_liminf == P
    assert _step1(bounded, [bounded], P, BLOCK, True) == (ONE, True, bounded.label)


def test_coreflected_level_and_catalog_value():
    gamma = describe(Ramp(P), BLOCK, depth=30)
    low = describe(Const(F(1, 8)), BLOCK, depth=30)
    floored = describe(Join(Ramp(P), Const(F(1, 8))), BLOCK, depth=30)
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
    closed = close_catalog(base, [P])
    catalog = build_catalog(closed, BLOCK, depth=40, pin_one=False)
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
    assert col.den == 42 and col.nums == (0, 28, 105, 168, 60)   # value * 42 * m
    assert len(col) == 5 and values_of(col) == values
    assert values_of(col.head(2)) == values[:2]
    assert col.min() == 0 and column_of(values[1:]).min() == F(2, 7)
    assert Column(6 * col.den, [6 * x for x in col.nums]) == col   # canonical
    assert column_of(()) == Column(1, ()) and len(column_of(())) == 0


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
        col = _node(e, t, n, {}).column
        assert list(values_of(col)[:n]) == [eval_at(e, F(1, m), t) for m in range(1, n + 1)]


@pytest.mark.parametrize("t,t_par,s_par,hi", CLOSURE_CASES
                         + [(THREE_BLOCKS, F(5, 16), F(5, 16), F(1, 2))],
                         ids=["luk", "product", "three"])
def test_column_keys_are_value_equality(t, t_par, s_par, hi):
    exprs = shipped_closure(t, t_par, s_par, hi, Variant.PLAIN) + nested_product_exprs()
    columns: dict = {}
    by_value: dict = {}
    for e in exprs:
        col = _node(e, t, 24, columns).column.head(24)
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
        d = describe(e, PRODUCT_BLOCK, 30, label="w", columns=columns)
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
    catalog = build_catalog(shipped_closure(t, t_par, s_par, hi, Variant.PLAIN),
                            t, 120, False)
    gamma = catalog[0]
    pairs = [(d, gamma) for d in catalog] + [(gamma, d) for d in catalog]
    pairs += list(pairs_of(catalog[::7], catalog[3::11]))
    for lam, mu in pairs:
        assert sampled_sub_bound(lam, mu, t) == sampled_sub_bound_fraction(lam, mu, t)


@pytest.mark.parametrize("variant", list(Variant))
def test_collapse_scan_matches_its_fraction_oracle(variant):
    exprs = shipped_closure(BLOCK, F(3, 8), F(3, 8), F(1, 2), variant)
    catalog = build_catalog(exprs, BLOCK, 200, variant is Variant.FILTER)
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
            assert describe(e, t, depth, pin_one) == describe_per_point(e, t, depth, pin_one)


def test_horizon_follows_the_depth_not_the_indicator_start():
    e = Join(TailIndicator(10 ** 5), Ramp(P))
    columns: dict = {}
    d = describe(e, BLOCK, 50, columns=columns)
    assert len(d.samples) == 50 and d.global_inf == 0
    # the memo hands back the columns it computed, 51 samples each
    assert [len(_node(x, BLOCK, 1, columns).column)
            for x in (e, e.left, e.right)] == [51] * 3
