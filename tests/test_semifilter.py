import functools
import itertools
from fractions import Fraction as F

import pytest

import quantalab.semifilter as semifilter
from quantalab.errors import BudgetError, StructuralError, UsageError
from quantalab.prefilter import member, normalize_basis
from quantalab.qfun import (QFunction, SetMap, all_qfunctions, constant,
                            finite_set, indicator, sub, unit_constant)
from quantalab.finite import Violation, five_chain, godel3, mv3, two_chain
from quantalab.quantale import lukasiewicz_tnorm, product_tnorm
from quantalab.scenario import semifilter_from_json
from quantalab.semifilter import (SemifilterFamily, SemifilterTable, check_axioms,
                                  conical_bounded_coreflection,
                                  conical_coreflection, conical_semifilters,
                                  enumerate_semifilters, evaluation_unit,
                                  image_semifilter, kowalsky_sum,
                                  level_prefilter, residuate, semifilter_of)

from oracles import (ConicalTest, from_function, from_mapping, image_outer,
                     is_bounded, is_bounded_function, is_conical, is_top_filter,
                     satisfies_way_below_criterion)
from test_prefilter import minimal_members
from test_quantale import half_unit_chain, square_lattice

G3 = godel3()
M3 = mv3()
X = finite_set("a", "b")
S = finite_set("s")


def qf(values, domain=X, carrier=G3):
    return QFunction(domain, tuple(F(v) for v in values), carrier)


@pytest.fixture(scope="module")
def g3_singleton_all():
    return enumerate_semifilters(S, G3)


@pytest.fixture(scope="module")
def g3_pairs_all():
    return enumerate_semifilters(X, G3)


@pytest.fixture(scope="module")
def g3_pairs_conical(g3_pairs_all):
    return [t for t in g3_pairs_all if is_conical(t)]


# -- tables and axioms ---------------------------------------------------------

def test_table_must_be_total():
    with pytest.raises(StructuralError, match=r"^table is missing the entry at \(0/1\)$"):
        semifilter_from_json({"entries": [[["1/2"], "1/2"], [["1/1"], "1/1"]]}, S, G3)


def test_unit_satisfies_all_axioms():
    for x in X:
        assert check_axioms(evaluation_unit(X, G3, x), require_filter=True) == []


def test_constant_one_fails_f4_only():
    t = from_function(S, G3, lambda lam: F(1))
    assert check_axioms(t) == []
    report = check_axioms(t, require_filter=True)
    assert report and all(v.law == "F4" for v in report)
    assert Violation("F4", (F(0),)) in report


def test_low_unit_value_fails_f1():
    t = from_function(
        S, G3, lambda lam: F(1, 2) if lam.values == (F(1),) else F(0))
    assert any(v.law == "F1" for v in check_axioms(t))


def test_evaluation_unit_is_evaluation():
    e = evaluation_unit(X, G3, "a")
    assert e(qf([F(1, 2), 1])) == F(1, 2)
    assert e(unit_constant(X, G3)) == 1
    singleton = evaluation_unit(S, G3, "s")
    for lam in all_qfunctions(S, G3):
        assert singleton(lam) == lam("s")


# -- level prefilter and induced tables ----------------------------------------

def test_level_prefilter_of_unit():
    got = {lam.values for lam in level_prefilter(evaluation_unit(X, G3, "a"))}
    want = {lam.values for lam in all_qfunctions(X, G3) if lam("a") == 1}
    assert got == want


def test_level_prefilter_of_constant_one_is_everything():
    t = from_function(X, G3, lambda lam: F(1))
    assert len(level_prefilter(t)) == 9


def test_identity_table_level_is_top():
    t = from_mapping(S, G3, {(F(0),): F(0), (F(1, 2),): F(1, 2), (F(1),): F(1)})
    assert [lam.values for lam in level_prefilter(t)] == [(F(1),)]


def test_semifilter_of_smallest_prefilter():
    t = semifilter_of(normalize_basis([], X, G3))
    k = unit_constant(X, G3)
    for lam in all_qfunctions(X, G3):
        assert t(lam) == sub(k, lam)


def test_semifilter_of_basis_example():
    t = semifilter_of(normalize_basis([qf([F(1, 2)], S)]))
    assert t.entries == {(F(0),): F(0), (F(1, 2),): F(1), (F(1),): F(1)}


def test_lambda_gamma_round_trip_on_units():
    e = evaluation_unit(X, G3, "a")
    assert semifilter_of(level_prefilter(e)) == e


def test_semifilter_of_satisfies_f1_f3(g3_pairs_all):
    import random
    rng = random.Random(5)
    for _ in range(10):
        fns = [QFunction(X, tuple(rng.choice(G3.elements) for _ in X), G3)
               for _ in range(rng.choice((1, 2)))]
        t = semifilter_of(normalize_basis(fns, X, G3))
        assert check_axioms(t) == []


# -- conical coreflection --------------------------------------------------------

def test_coreflection_recomputed_example():
    t = from_mapping(S, G3, {(F(0),): F(1, 2), (F(1, 2),): F(1, 2), (F(1),): F(1)})
    c = conical_coreflection(t)
    assert c.entries == {(F(0),): F(0), (F(1, 2),): F(1, 2), (F(1),): F(1)}


def test_coreflection_fixes_units():
    e = evaluation_unit(X, G3, "b")
    assert conical_coreflection(e) == e


def test_coreflection_properties_exhaustive(g3_singleton_all):
    for t in g3_singleton_all:
        c = conical_coreflection(t)
        assert c.leq(t)
        assert conical_coreflection(c) == c
        assert (c == t) == is_conical(t)
        # level set preserved
        assert {f.values for f in level_prefilter(c)} == \
            {f.values for f in level_prefilter(t)}
    for t in g3_singleton_all:
        for u in g3_singleton_all:
            if t.leq(u):
                assert conical_coreflection(t).leq(conical_coreflection(u))


def test_coreflection_is_largest_conical_below(g3_pairs_all, g3_pairs_conical):
    for t in g3_pairs_all:
        below = [c for c in g3_pairs_conical if c.leq(t)]
        best = conical_coreflection(t)
        assert best in below
        assert all(c.leq(best) for c in below)


def _coreflection_oracle(table, bounded=False):
    """The join of graded inclusions over every (bounded) level member."""
    q = table.carrier
    members = [f for f in table.functions() if q.leq(q.unit, table(f))
               and (not bounded or is_bounded_function(f))]

    def degree(lam):
        out = q.bottom
        for mu in members:
            out = q.join(out, sub(mu, lam))
        return out

    return from_function(table.domain, q, degree)


@pytest.mark.parametrize("carrier,domain", [
    (two_chain(), S), (two_chain(), X),
    (G3, S), (G3, X), (M3, S), (M3, X),
    (five_chain(), S),
])
def test_coreflections_match_join_over_all_members(carrier, domain):
    for t in enumerate_semifilters(domain, carrier):
        assert conical_coreflection(t) == _coreflection_oracle(t)
        assert conical_bounded_coreflection(t) == \
            _coreflection_oracle(t, bounded=True)


def test_bounded_coreflection_refuses_a_carrier_without_least_positive():
    # on the square lattice the bounded members of the constant-top level
    # set have two minimal members, whose tables are both maximal among the
    # conical bounded tables below it and are incomparable; their join is
    # not bounded, so no largest one exists
    q = square_lattice()
    a, b = F(1, 3), F(2, 3)
    top = from_function(S, q, lambda lam: q.top)
    bounded = [f for f in level_prefilter(top) if is_bounded_function(f)]
    assert sorted(f.values for f in bounded) == [(a,), (b,), (F(1),)]
    assert sorted(f.values for f in minimal_members(bounded)) == [(a,), (b,)]
    below = [semifilter_of([f]) for f in minimal_members(bounded)]
    assert all(t.leq(top) and is_bounded(t) and is_conical(t) for t in below)
    assert not below[0].leq(below[1]) and not below[1].leq(below[0])
    assert not is_bounded(_coreflection_oracle(top, bounded=True))
    with pytest.raises(UsageError, match="has no least positive element"):
        conical_bounded_coreflection(top)


def test_semifilter_of_explicit_antichain_is_not_its_meet():
    # the two minimal members of an explicit set that is not meet-closed;
    # the meet (1/3, 1/3) generates a strictly larger table
    q = square_lattice()
    a = F(1, 3)
    members = [QFunction(X, (a, F(1)), q), QFunction(X, (F(1), a), q)]
    t = semifilter_of(members)
    assert t == from_function(
        X, q, lambda lam: q.join(sub(members[0], lam), sub(members[1], lam)))
    zero = QFunction(X, (F(0), F(0)), q)
    assert t(zero) == 0
    assert sub(members[0].meet(members[1]), zero) == F(2, 3)


def test_coreflection_fills_one_generator(monkeypatch):
    # the level set of a semifilter contains its meet, so the coreflection
    # fills one sub(g, -) row, from that meet
    q = five_chain()
    e = evaluation_unit(X, q, "a")
    assert len(minimal_members(level_prefilter(e))) == 1
    fills = []
    fill = semifilter._sub_at

    def counting_fill(kernel, g, columns, size):
        fills.append(g)
        return fill(kernel, g, columns, size)

    monkeypatch.setattr(semifilter, "_sub_at", counting_fill)
    assert conical_coreflection(e) == e
    assert fills == [(q.index_of(q.unit), q.kernel.bottom)]


# -- the three conicality tests ---------------------------------------------------

def test_is_conical_examples():
    e = evaluation_unit(X, G3, "a")
    t = from_mapping(S, G3, {(F(0),): F(1, 2), (F(1, 2),): F(1, 2), (F(1),): F(1)})
    lam_of = semifilter_of(normalize_basis([qf([F(1, 2), 1])]))
    for mode in ConicalTest:
        assert is_conical(e, mode)
        assert not is_conical(t, mode)
        assert is_conical(lam_of, mode)


@pytest.mark.parametrize("carrier,domain", [
    (two_chain(), S), (two_chain(), X),
    (G3, S), (G3, X), (M3, S), (M3, X),
    (five_chain(), S),
])
def test_conical_modes_agree_everywhere(carrier, domain):
    budget = max(3 ** 9, 2 ** 16)
    for t in enumerate_semifilters(domain, carrier, budget=budget):
        d = is_conical(t, ConicalTest.DEFINITION)
        assert d == is_conical(t, ConicalTest.SUP_FORMULA)
        assert d == is_conical(t, ConicalTest.RESIDUATION)


def test_way_below_criterion_matches_conical(g3_singleton_all):
    for t in g3_singleton_all:
        assert satisfies_way_below_criterion(t) == is_conical(t)


# -- enumeration ------------------------------------------------------------------

def test_enumeration_count_singleton(g3_singleton_all):
    assert len(g3_singleton_all) == 5


def test_enumeration_matches_independent_oracle(g3_singleton_all):
    # constraint-by-constraint filter over all 27 maps, written independently
    found = []
    elems = G3.elements
    for v0 in elems:
        for v1 in elems:
            for v2 in elems:
                tbl = {F(0): v0, F(1, 2): v1, F(1): v2}
                if tbl[F(1)] < 1:
                    continue
                ok = True
                for lam in elems:
                    for mu in elems:
                        if min(tbl[lam], tbl[mu]) > tbl[min(lam, mu)]:
                            ok = False
                        if G3.residuum(lam, mu) > G3.residuum(tbl[lam], tbl[mu]):
                            ok = False
                if ok:
                    found.append(tbl)
    assert len(found) == len(g3_singleton_all) == 5
    got = {tuple(sorted((k, v) for k, v in t.entries.items())) for t in g3_singleton_all}
    want = {tuple(sorted(((k,), v) for k, v in t.items())) for t in found}
    assert got == want


def test_enumeration_empty_domain():
    out = enumerate_semifilters(finite_set(), G3)
    assert len(out) == 1
    assert out[0].entries == {(): F(1)}


def test_enumeration_budget_error():
    with pytest.raises(BudgetError) as err:
        enumerate_semifilters(X, five_chain())
    assert err.value.count == 5 ** 25


def test_enumeration_refuses_before_building_functions(monkeypatch):
    # 5 ** 15625 candidates at six points has more digits than an int may
    # format, so the message names it as a power; at seven points the
    # table itself exceeds its cap.  Neither builds a function.
    monkeypatch.setattr(semifilter, "all_qfunctions", None)
    six, seven = (finite_set(*range(n)) for n in (6, 7))
    with pytest.raises(BudgetError, match=r"^enumeration would scan 5\^15625 "
                                          r"tables \(budget 19683\)$") as err:
        enumerate_semifilters(six, five_chain())
    assert err.value.count == 5 ** 15625
    with pytest.raises(BudgetError, match=r"^table would need 78125 entries "
                                          r"\(cap 19683\)$") as err:
        enumerate_semifilters(seven, five_chain(), "filter")
    assert err.value.count == 5 ** 7


def test_enumeration_has_no_conical_mode():
    # the conical semifilters are listed by conical_semifilters instead
    with pytest.raises(UsageError, match="unknown requirement 'conical'"):
        enumerate_semifilters(S, G3, "conical")


@pytest.mark.parametrize("carrier,domain,count", [
    (two_chain(), S, 2), (two_chain(), X, 4), (G3, S, 3), (M3, S, 3),
    (five_chain(), S, 5), (square_lattice(), S, 4), (half_unit_chain(), S, 2),
], ids=["two-1", "two-2", "godel3", "mv3", "five", "square", "half-unit"])
def test_conical_semifilters_match_the_brute_force_filter(carrier, domain, count):
    listed = conical_semifilters(domain, carrier)
    oracle = [t for t in enumerate_semifilters(domain, carrier) if is_conical(t)]
    assert len(listed) == len(set(listed)) == len(oracle) == count
    assert set(listed) == set(oracle)
    # one table per generator below the constant unit, in canonical order
    k_x = unit_constant(domain, carrier)
    generators = [g for g in all_qfunctions(domain, carrier) if g.leq(k_x)]
    assert [minimal_members(level_prefilter(t)) for t in listed] == \
        [[g] for g in generators]
    assert listed == [semifilter_of(normalize_basis([g])) for g in generators]


def test_conical_semifilters_refuse_before_filling():
    with pytest.raises(BudgetError):
        conical_semifilters(finite_set(*"abcdefghij"), five_chain())
    with pytest.raises(UsageError, match="finite carrier"):
        conical_semifilters(S, product_tnorm())
    # functions, and so prefilters, take their values in a finite carrier
    luk = lukasiewicz_tnorm()
    for refused in (lambda: QFunction(S, (F(1, 2),), luk),
                    lambda: constant(S, luk, F(1, 2)),
                    lambda: normalize_basis([], S, luk),
                    lambda: list(all_qfunctions(S, luk))):
        with pytest.raises(UsageError, match="finite carrier"):
            refused()
    assert [t.entries for t in conical_semifilters(finite_set(), G3)] == [{(): F(1)}]


def test_two_chain_filters_match_classical_count():
    for n, labels in ((1, ("a",)), (2, ("a", "b"))):
        dom = finite_set(*labels)
        out = enumerate_semifilters(dom, two_chain(), "filter", budget=2 ** 16)
        assert len(out) == 2 ** n - 1


def test_f3_forces_equalities(g3_singleton_all):
    for t in g3_singleton_all:
        for lam in t.functions():
            for mu in t.functions():
                assert t(lam.meet(mu)) == min(t(lam), t(mu))
    for t in enumerate_semifilters(S, G3, "filter"):
        for p in G3.elements:
            assert t(constant(S, G3, p)) == p


# -- Galois connection --------------------------------------------------------------

def test_galois_connection_exhaustive(g3_singleton_all):
    fns = list(all_qfunctions(S, G3))
    for t in g3_singleton_all:
        level = {lam.values for lam in level_prefilter(t)}
        for r in (1, 2):
            for raw in itertools.combinations(fns, r):
                pf = normalize_basis(list(raw), S, G3)
                contained = all(lam.values in level
                                for lam in fns if member(pf, lam))
                assert contained == semifilter_of(pf).leq(t)


# -- meets, residuations, sums -------------------------------------------------------

def test_meet_examples(g3_pairs_conical):
    e_a, e_b = evaluation_unit(X, G3, "a"), evaluation_unit(X, G3, "b")
    assert e_a.meet(e_a) == e_a
    both = e_a.meet(e_b)
    for lam in all_qfunctions(X, G3):
        assert both(lam) == min(lam("a"), lam("b"))
    for t in g3_pairs_conical[:12]:
        for u in g3_pairs_conical[:12]:
            assert is_conical(t.meet(u))


def test_residuate_examples():
    e = evaluation_unit(X, G3, "a")
    assert residuate(G3.unit, e) == e
    const1 = residuate(F(0), e)
    assert all(v == 1 for v in const1.entries.values())
    lam = qf([0, 1])
    assert residuate(F(1, 2), e)(lam) == 0


def test_residuate_preserves_conical(g3_pairs_conical):
    for t in g3_pairs_conical[:20]:
        for p in G3.elements:
            assert is_conical(residuate(p, t))


def test_directed_families_of_conical_have_conical_joins(g3_pairs_conical):
    # finite directed families attain their join at a member
    for t in g3_pairs_conical[:10]:
        c = conical_coreflection(t.meet(g3_pairs_conical[0]))
        family = [c, t] if c.leq(t) else [c]
        join = family[0]
        for u in family[1:]:
            assert join.leq(u)
            join = u
        assert is_conical(join)


def test_kowalsky_unit_law():
    e_a = evaluation_unit(X, G3, "a")
    other = semifilter_of(normalize_basis([qf([F(1, 2), F(1, 2)])]))
    fam = SemifilterFamily.of([e_a, other])
    outer = from_function(fam.labels, G3, lambda xi: xi("g1"))
    assert kowalsky_sum(outer, fam) == other


def test_kowalsky_meet_formula(g3_pairs_conical):
    members = g3_pairs_conical[2:5]
    fam = SemifilterFamily.of(members)
    wanted = indicator(fam.labels, G3, fam.labels.elements)
    outer = semifilter_of(normalize_basis([wanted]))
    assert kowalsky_sum(outer, fam) == functools.reduce(SemifilterTable.meet, members)


def test_kowalsky_residuation_formula(g3_pairs_conical):
    target = g3_pairs_conical[3]
    fam = SemifilterFamily.of([target, g3_pairs_conical[0]])
    p = F(1, 2)
    sel = QFunction(fam.labels, (p, F(0)), G3)
    outer = semifilter_of(normalize_basis([sel]))
    assert kowalsky_sum(outer, fam) == residuate(p, target)


def test_kowalsky_satisfies_axioms(g3_pairs_conical):
    import random
    rng = random.Random(11)
    fam = SemifilterFamily.of(g3_pairs_conical[1:4])
    for _ in range(8):
        basis = normalize_basis(
            [QFunction(fam.labels, tuple(rng.choice(G3.elements) for _ in fam.labels), G3)
             for _ in range(rng.choice((1, 2)))], fam.labels, G3)
        outer = semifilter_of(basis)
        assert check_axioms(kowalsky_sum(outer, fam)) == []


# -- boundedness ----------------------------------------------------------------------

def test_is_bounded_examples():
    assert not is_bounded(evaluation_unit(X, G3, "a"))
    assert is_bounded(semifilter_of(normalize_basis([qf([F(1, 2), F(1, 2)])])))
    t = from_mapping(S, G3, {(F(0),): F(1, 2), (F(1, 2),): F(1), (F(1),): F(1)})
    assert is_bounded(t)


def test_bounded_coreflection_example():
    t = semifilter_of(normalize_basis([qf([F(1, 2), 0])]))
    out = conical_bounded_coreflection(t)
    assert out == semifilter_of(normalize_basis([qf([F(1, 2), F(1, 2)])]))
    assert conical_bounded_coreflection(out) == out
    already = semifilter_of(normalize_basis([qf([F(1, 2), F(1, 2)])]))
    assert conical_bounded_coreflection(already) == already


def test_bounded_coreflection_is_largest(g3_pairs_all, g3_pairs_conical):
    bounded_conicals = [t for t in g3_pairs_conical if is_bounded(t)]
    for t in g3_pairs_all[:40]:
        best = conical_bounded_coreflection(t)
        assert best.leq(t) and is_conical(best) and is_bounded(best)
        for c in bounded_conicals:
            if c.leq(t):
                assert c.leq(best)


def test_boundedness_transfer(g3_pairs_all):
    for t in g3_pairs_all:
        if is_bounded(t):
            assert all(is_bounded_function(lam) for lam in level_prefilter(t))
        if is_conical(t) and all(is_bounded_function(lam) for lam in level_prefilter(t)):
            assert is_bounded(t)


# -- images ---------------------------------------------------------------------------

def test_image_identity():
    e = evaluation_unit(X, G3, "a")
    assert image_semifilter(SetMap.identity(X), e) == e


def test_image_preserves_conical(g3_pairs_conical):
    Y = finite_set("u", "v", "w")
    f = SetMap(X, Y, ("u", "w"))
    for t in g3_pairs_conical[:15]:
        assert is_conical(image_semifilter(f, t))


def test_bounded_image_agrees_on_bounded_arguments(g3_pairs_conical):
    Y = finite_set("u", "v")
    for mapping in (("u", "u"), ("u", "v")):
        f = SetMap(X, Y, mapping)
        for t in g3_pairs_conical[:15]:
            plain = image_semifilter(f, t)
            bounded = image_semifilter(f, t, bounded=True)
            for mu in all_qfunctions(Y, G3):
                if is_bounded_function(mu):
                    assert bounded(mu) == plain(mu)


# -- bridges between filters and top filters ------------------------------------------

def test_f4_iff_top_filter():
    import random
    rng = random.Random(3)
    for _ in range(25):
        fns = [QFunction(X, tuple(rng.choice(G3.elements) for _ in X), G3)
               for _ in range(rng.choice((1, 2)))]
        pf = normalize_basis(fns, X, G3)
        t = semifilter_of(pf)
        f4 = all(G3.leq(t(constant(X, G3, p)), p) for p in G3.elements)
        assert f4 == is_top_filter(pf)


def test_coreflection_of_filter_is_filter(g3_pairs_all):
    filters = [t for t in g3_pairs_all
               if all(G3.leq(t(constant(X, G3, p)), p) for p in G3.elements)]
    assert filters
    for t in filters:
        c = conical_coreflection(t)
        assert all(G3.leq(c(constant(X, G3, p)), p) for p in G3.elements)


# -- outer image -----------------------------------------------------------------------

def test_image_outer_matches_direct_evaluation(g3_pairs_conical):
    fam = SemifilterFamily.of(g3_pairs_conical[:3])
    h = SetMap(X, fam.labels, (fam.labels.elements[0], fam.labels.elements[2]))
    t = g3_pairs_conical[4]
    outer = image_outer(t, h, fam)
    for xi in all_qfunctions(fam.labels, G3):
        expected = t(QFunction(X, (xi(h("a")), xi(h("b"))), G3))
        assert outer(xi) == expected
