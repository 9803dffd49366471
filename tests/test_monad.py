import collections
import functools
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from quantalab.classical import (all_proper_filters, filter_image,
                                 filter_multiplication, filter_unit,
                                 principal)
from quantalab.errors import StructuralError, UsageError
from quantalab.monad import (KleisliScenario, LawFailure, Variant,
                             check_monad_laws, check_naturality, check_scenario,
                             classical_correspondence_report, extend_rows,
                             kleisli_extend, monad_multiplication, monad_units,
                             multiplication_prefilter_members, random_scenario,
                             random_variant_row, random_variant_table,
                             table_satisfies, unit_rows)
from quantalab.prefilter import least_positive_position, member, normalize_basis
from quantalab.qfun import QFunction, SetMap, all_qfunctions, finite_set, unit_constant
from quantalab.finite import check_quantale_axioms, five_chain, godel3, mv3, two_chain
from quantalab.semifilter import (SemifilterFamily, SemifilterTable,
                                  check_axioms, conical_bounded_coreflection,
                                  conical_coreflection, conical_semifilters,
                                  enumerate_semifilters, evaluation_unit,
                                  kowalsky_sum, level_prefilter,
                                  require_bounded_carrier, row_satisfies,
                                  semifilter_of, table_generator)
from quantalab.scenario import ScenarioSpec, semifilter_to_json
from quantalab.serialize import format_fraction, quantale_to_json

from oracles import (from_function, from_mapping, image_outer, is_bounded,
                     is_conical, is_top_filter, small_quantale_candidates,
                     small_quantales, table_satisfies_by_table, unit_prefilter)
from test_positions import no_zero
from test_quantale import half_unit_chain, square_lattice

G3 = godel3()
X = finite_set("x0", "x1")
Y = finite_set("y0", "y1")


def qf(values, domain=X, carrier=G3):
    return QFunction(domain, tuple(F(v) for v in values), carrier)


def filled(domain, carrier, row):
    """The conical table of a generator row: the dense side of every
    comparison of the row path with the table path."""
    return semifilter_of([QFunction.from_index(domain, carrier, row)])


def pinned(xs, ys, zs, f, g, carrier, variant=Variant.PLAIN):
    """The scenario that pins the tables of f and g, each as its JSON."""
    return ScenarioSpec({
        "quantale": quantale_to_json(carrier), "variant": variant.value,
        "sets": {"X": list(xs.elements), "Y": list(ys.elements), "Z": list(zs.elements)},
        "maps": {"f": {str(x): semifilter_to_json(t) for x, t in f.items()},
                 "g": {str(y): semifilter_to_json(t) for y, t in g.items()}}})


# -- units and multiplication ---------------------------------------------------

def test_plain_units_are_evaluations():
    units = monad_units(X, G3)
    for x in X:
        assert units[x] == evaluation_unit(X, G3, x)


def test_bounded_unit_single_point_is_plain():
    s = finite_set("s")
    assert monad_units(s, G3, Variant.BOUNDED)["s"] == evaluation_unit(s, G3, "s")


def test_bounded_unit_example():
    units = monad_units(X, G3, Variant.BOUNDED)
    expected = semifilter_of(normalize_basis([qf([1, F(1, 2)])]))
    assert units["x0"] == expected


def test_multiplication_unit_law():
    target = semifilter_of(normalize_basis([qf([F(1, 2), 1])]))
    fam = SemifilterFamily.of([target, evaluation_unit(X, G3, "x0")])
    outer = from_function(fam.labels, G3, lambda xi: xi("g0"))
    assert monad_multiplication(outer, fam) == target


def test_multiplication_meet_example():
    members = [evaluation_unit(X, G3, "x0"), evaluation_unit(X, G3, "x1")]
    fam = SemifilterFamily.of(members)
    from quantalab.qfun import indicator
    outer = semifilter_of(normalize_basis(
        [indicator(fam.labels, G3, fam.labels.elements)]))
    got = monad_multiplication(outer, fam)
    # the coreflection is the identity on finite chains
    assert got == members[0].meet(members[1])


def test_variant_membership():
    e = evaluation_unit(X, G3, "x0")
    assert table_satisfies(e, Variant.PLAIN)
    assert table_satisfies(e, Variant.FILTER)
    assert not table_satisfies(e, Variant.BOUNDED)
    bounded = semifilter_of(normalize_basis([qf([F(1, 2), F(1, 2)])]))
    assert table_satisfies(bounded, Variant.BOUNDED)
    assert not table_satisfies(bounded, Variant.FILTER)
    # the join of sub(g, -) over an antichain whose meet it does not hold is
    # a fixed point of the coreflection but fails F2; all-bottom fails F1
    not_f2 = semifilter_of([qf([1, F(1, 2)]), qf([F(1, 2), 1])])
    all_bottom = SemifilterTable(X, G3, [G3.kernel.bottom] * 9)
    assert is_conical(not_f2) and check_axioms(not_f2)
    for t in (not_f2, all_bottom):
        assert not any(table_satisfies(t, variant) for variant in Variant)


def _variant_oracle(table, variant):
    """F1-F3 and conicality by their definitions, then the variant's test."""
    if check_axioms(table) or not is_conical(table):
        return False
    if variant is Variant.FILTER:
        return not check_axioms(table, require_filter=True)
    if variant is Variant.BOUNDED:
        return is_bounded(table)
    return True


def _every_table(carrier, n):
    domain = finite_set(*(f"x{i}" for i in range(n)))
    size = len(carrier.elements) ** n
    for positions in itertools.product(range(len(carrier.elements)), repeat=size):
        yield SemifilterTable(domain, carrier, positions)


def _seeded_five_chain_tables(count):
    # arbitrary tables, and tables induced by explicit sets, which fail F2
    # when the set does not hold its meet
    q, rng = five_chain(), random.Random(7)
    out = []
    for i in range(count):
        if i % 4 == 0:
            out.append(SemifilterTable(X, q, [rng.randrange(5) for _ in range(25)]))
        else:
            out.append(semifilter_of([QFunction(X, tuple(rng.choice(q.elements)
                                                          for _ in X), q)
                                      for _ in range(rng.choice((1, 2, 3)))]))
    return out


@pytest.mark.parametrize("tables", [
    lambda: _every_table(two_chain(), 1), lambda: _every_table(two_chain(), 2),
    lambda: _every_table(godel3(), 1), lambda: _every_table(mv3(), 1),
    lambda: _seeded_five_chain_tables(40)],
    ids=["two-1", "two-2", "godel3-1", "mv3-1", "five-2-seeded"])
def test_variant_membership_matches_the_axioms(tables):
    for t in tables():
        for variant in Variant:
            assert table_satisfies(t, variant) == _variant_oracle(t, variant)


def _verdict(test, *args):
    """The test's answer, or the text of its refusal."""
    try:
        return test(*args)
    except UsageError as refused:
        return str(refused)


def assert_row_test_is_the_table_test(q, most=3):
    """``row_satisfies`` on the generator row of every conical table on at
    most ``most`` points, in every variant, gives the answer, or the
    refusal, of the test on the filled table; on an integral carrier
    FILTER is also the paper's top-filter test of the row's prefilter.
    Returns the verdicts compared with the table test."""
    verdicts = []
    for n in range(most + 1):
        dom = finite_set(*(f"x{i}" for i in range(n)))
        for t in conical_semifilters(dom, q):
            row = table_generator(t)
            for variant in Variant:
                verdict = _verdict(row_satisfies, row, q, variant)
                assert verdict == _verdict(table_satisfies_by_table, t, variant), (row, variant)
                verdicts.append(verdict)
            if q.is_integral:
                assert row_satisfies(row, q, Variant.FILTER) == is_top_filter(
                    normalize_basis([QFunction.from_index(dom, q, row)]))
    return verdicts


ROW_CARRIERS = {"two_chain": two_chain(), "godel3": G3, "mv3": mv3(),
                "five_chain": five_chain(), "diamond": square_lattice(),
                "quarter-one": no_zero(), "half-unit": half_unit_chain()}


def test_the_row_test_is_the_table_test_on_every_conical_table():
    # the diamond is integral with no least positive element, {1/4, 1} has
    # no 0, and the chain with unit 1/2 is not integral, so BOUNDED is
    # refused there while F4 is still read from the row
    verdicts = {name: assert_row_test_is_the_table_test(q)
                for name, q in ROW_CARRIERS.items()}
    assert sum(len(v) for name, v in verdicts.items() if name != "half-unit") == 1053
    assert all({True, False} <= set(v) for v in verdicts.values())
    refusal = f"carrier {half_unit_chain()!r} is not integral, which boundedness needs"
    assert refusal in verdicts["half-unit"]


# -- outer prefilters read through their bases ---------------------------------------

@pytest.mark.parametrize("carrier,n", [
    (two_chain(), 1), (two_chain(), 2), (godel3(), 1), (godel3(), 2),
    (mv3(), 1), (mv3(), 2), (five_chain(), 1)],
    ids=["two-1", "two-2", "godel3-1", "godel3-2", "mv3-1", "mv3-2", "five-1"])
def test_outer_basis_matches_its_dense_table(carrier, n):
    # the dense outer table over the labels is the oracle for reading the
    # basis at the evaluation functionals only; a family keeps that table at
    # no more than 27 entries, so a larger one is a seeded sub-family
    rng = random.Random(n)
    domain = finite_set(*(f"x{i}" for i in range(n)))
    conicals = conical_semifilters(domain, carrier)
    most = max(k for k in range(1, 7) if len(carrier.elements) ** k <= 27)
    for variant in Variant:
        members = [t for t in conicals if table_satisfies(t, variant)]
        if len(members) > most:
            members = rng.sample(members, most)
        fam = SemifilterFamily.of(members)
        fns = list(all_qfunctions(fam.labels, carrier))
        pairs = [rng.sample(fns, 2) for _ in range(10)] if len(fns) > 1 else []
        for raw in [[f] for f in fns] + pairs:
            basis = normalize_basis(raw, fam.labels, carrier)
            dense = semifilter_of(basis)
            assert kowalsky_sum(basis, fam) == kowalsky_sum(dense, fam)
            assert (monad_multiplication(basis, fam, variant)
                    == monad_multiplication(dense, fam, variant))


def test_outer_basis_on_the_wrong_space_is_rejected():
    fam = SemifilterFamily.of([evaluation_unit(X, G3, x) for x in X])
    wrong_labels = normalize_basis([qf([1, 1], domain=Y)])
    wrong_carrier = normalize_basis([qf([1, 1], domain=fam.labels, carrier=mv3())])
    for basis in (wrong_labels, wrong_carrier):
        with pytest.raises(UsageError):
            kowalsky_sum(basis, fam)
        with pytest.raises(UsageError):
            monad_multiplication(basis, fam)


def test_outer_prefilters_are_never_tabulated(monkeypatch):
    # the flattening and multiplication checks read each outer prefilter at
    # |Q|^|X| evaluation functionals; a dense outer table over the labels
    # would have 5^5 and 2^7 entries here
    sizes = []
    init = SemifilterTable.__init__

    def recording_init(self, domain, carrier, entries):
        init(self, domain, carrier, entries)
        sizes.append(len(self.entries))

    monkeypatch.setattr(SemifilterTable, "__init__", recording_init)
    nat = check_naturality(five_chain(), samples=8, seed=1)
    assert nat.passed and nat.checks == 35
    assert max(sizes) <= 5 ** 4
    sizes.clear()
    cor = classical_correspondence_report(3)
    assert cor.passed and cor.checks == 107
    assert max(sizes) <= 8


# -- kleisli extension ------------------------------------------------------------

def test_kleisli_unit_laws():
    rng = random.Random(0)
    units = monad_units(X, G3)
    d_sharp = kleisli_extend(units, X)
    for _ in range(6):
        t = random_variant_table(rng, X, G3)
        assert d_sharp(t) == t
    h = {x: random_variant_table(rng, Y, G3) for x in X}
    h_sharp = kleisli_extend(h, X)
    for x in X:
        assert h_sharp(units[x]) == h[x]


def test_kleisli_of_lifted_plain_map_is_image():
    from quantalab.semifilter import image_semifilter
    rng = random.Random(1)
    f = SetMap(X, Y, ("y1", "y0"))
    units_y = monad_units(Y, G3)
    h = {x: units_y[f(x)] for x in X}
    h_sharp = kleisli_extend(h, X)
    for _ in range(6):
        t = random_variant_table(rng, X, G3)
        assert h_sharp(t) == image_semifilter(f, t)


def test_kleisli_rejects_wrong_variant_values():
    # the extension trusts its map: the scenario reader is the gate that
    # refuses it
    h = {x: evaluation_unit(Y, G3, "y0") for x in X}
    g = monad_units(Y, G3, Variant.BOUNDED)
    with pytest.raises(UsageError, match=r"^f\('x0'\) is not a bounded semifilter\n"):
        pinned(X, Y, Y, h, g, G3, Variant.BOUNDED).explicit_maps()


def test_kleisli_matches_materialized_outer_route():
    rng = random.Random(2)
    for variant in (Variant.PLAIN, Variant.FILTER, Variant.BOUNDED):
        h = {x: random_variant_table(rng, Y, G3, variant) for x in X}
        direct = kleisli_extend(h, X, variant)
        members = list(dict.fromkeys(
            list(h.values()) + list(monad_units(Y, G3, variant).values())))
        fam = SemifilterFamily.of(members)
        hmap = SetMap(X, fam.labels,
                      tuple(fam.labels.elements[members.index(h[x])] for x in X))
        for _ in range(4):
            t = random_variant_table(rng, X, G3, variant)
            outer = image_outer(t, hmap, fam)
            if variant is Variant.BOUNDED:
                outer = conical_bounded_coreflection(outer)
                via_family = monad_multiplication(outer, fam, variant)
            else:
                via_family = monad_multiplication(outer, fam, variant)
            assert direct(t) == via_family


def _conical_generators(domain, q):
    """Each conical table on the domain with its generator ``g <= k``."""
    k = unit_constant(domain, q)
    return {g: semifilter_of(normalize_basis([g]))
            for g in all_qfunctions(domain, q) if g.leq(k)}


@pytest.mark.parametrize("name,q,count", [
    ("two_chain", two_chain(), 88), ("godel3", G3, 837), ("mv3", mv3(), 837),
    ("five_chain", five_chain(), 750)], ids=["two_chain", "godel3", "mv3", "five_chain"])
def test_a_kowalsky_sum_of_conical_tables_is_conical(name, q, count):
    r"""The conical coreflection in ``kleisli_extend`` never changes the sum
    of a conical outer table over conical members.

    Let t = sub(G, -) on X and h(x) = sub(g_x, -) on Y, with G and every g_x
    below the constant unit k.  Since a -> (-) preserves meets and
    a -> (b -> c) = (a (x) b) -> c, while (-) -> c turns joins into meets,

        sum(lam) = /\_x G(x) -> /\_y (g_x(y) -> lam(y))
                 = /\_y /\_x (G(x) (x) g_x(y)) -> lam(y)
                 = /\_y (\/_x G(x) (x) g_x(y)) -> lam(y) = sub(g^, lam)

    with g^(y) = \/_x G(x) (x) g_x(y) <= \/_x k (x) k = k.  So the sum is
    the conical table of g^, which the coreflection fixes.  Checked
    exhaustively at (|X|, |Y|) in (1, 2), (2, 1) and (2, 2); the five-chain
    at (2, 2), 15625 sums, is left out for time.
    """
    sizes = [(1, 2), (2, 1)] + ([(2, 2)] if name != "five_chain" else [])
    sums = 0
    for nx, ny in sizes:
        xs = finite_set(*(f"x{i}" for i in range(nx)))
        ys = finite_set(*(f"y{i}" for i in range(ny)))
        on_x, on_y = _conical_generators(xs, q), _conical_generators(ys, q)
        for big_g, t in on_x.items():
            for gs in itertools.product(on_y, repeat=nx):
                s = kowalsky_sum(t, SemifilterFamily(xs, tuple(on_y[g] for g in gs)))
                hat = tuple(functools.reduce(q.join, (q.tensor(big_g(x), g(y))
                                                      for x, g in zip(xs, gs)), q.bottom)
                            for y in ys)
                assert s == on_y[QFunction(ys, hat, q)]
                assert conical_coreflection(s) == s
                sums += 1
    assert sums == count


def test_the_coreflection_changes_a_sum_of_a_non_conical_table():
    """Why the extension trusts its tables to lie in the variant: the two
    godel3 semifilters on one point that are not conical, each summed over
    the nine conical tables on two points, give 18 sums, and the
    coreflection changes 16 of them.  ``kleisli_extend`` returns the sum
    uncoreflected under PLAIN and FILTER, so applied to a table outside
    the variant it would return a table outside it too; ``KleisliScenario``
    refuses such map values, and the law suite draws t from the variant."""
    xs, ys = finite_set("x0"), finite_set("y0", "y1")
    outer = [t for t in enumerate_semifilters(xs, G3) if not is_conical(t)]
    inner = conical_semifilters(ys, G3)
    changed = [conical_coreflection(s) != s
               for s in (kowalsky_sum(t, SemifilterFamily(xs, (h,)))
                         for t in outer for h in inner)]
    assert (len(outer), len(changed), sum(changed)) == (2, 18, 16)


# -- the law suite -----------------------------------------------------------------

def test_only_a_bounded_law_run_coreflects(monkeypatch):
    # the table path, kleisli_extend: PLAIN and FILTER multiply by the
    # Kowalsky sum alone, and every BOUNDED sum passes through the bounded
    # coreflection.  A law run takes the row path: it sums, coreflects and
    # fills no table, and only its BOUNDED extension joins with the least
    # positive element, which is the bounded coreflection of a generator
    import quantalab.monad as monad
    calls = {"sum": 0, "conical": 0, "bounded": 0, "fill": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(monad, "kowalsky_sum", counted("sum", monad.kowalsky_sum))
    monkeypatch.setattr(monad, "conical_coreflection",
                        counted("conical", monad.conical_coreflection))
    monkeypatch.setattr(monad, "conical_bounded_coreflection",
                        counted("bounded", monad.conical_bounded_coreflection))
    monkeypatch.setattr(monad, "semifilter_of", counted("fill", monad.semifilter_of))

    def extend(q, variant):
        rng = random.Random(1)
        h = {x: random_variant_table(rng, Y, q, variant) for x in X}
        tables = [random_variant_table(rng, X, q, variant) for _ in range(5)]
        calls.update(sum=0, conical=0, bounded=0, fill=0)
        h_sharp = kleisli_extend(h, X, variant)
        for t in tables:
            h_sharp(t)
        return calls

    for variant in (Variant.PLAIN, Variant.FILTER):
        c = extend(five_chain(), variant)
        assert c["sum"] == 5 and c["conical"] == c["bounded"] == 0
    c = extend(mv3(), Variant.BOUNDED)
    assert c["bounded"] == c["sum"] == 5 and c["conical"] == 0

    for q, variant in ((five_chain(), Variant.PLAIN), (five_chain(), Variant.FILTER),
                       (mv3(), Variant.BOUNDED)):
        calls.update(sum=0, conical=0, bounded=0, fill=0)
        assert check_monad_laws(q, (2, 2, 2), 5, seed=1, variant=variant).passed
        assert calls == {"sum": 0, "conical": 0, "bounded": 0, "fill": 0}

    q = mv3()
    join, eps = q.kernel.join, least_positive_position(q)
    rng = random.Random(1)
    h = {x: random_variant_row(rng, Y, q, Variant.BOUNDED) for x in X}
    for _ in range(5):
        t = random_variant_row(rng, X, q, Variant.BOUNDED)
        plain = extend_rows(h, X, q, Variant.PLAIN)(t)
        assert extend_rows(h, X, q, Variant.FILTER)(t) == plain
        assert extend_rows(h, X, q, Variant.BOUNDED)(t) == tuple(join[v][eps] for v in plain)


def _carries_bounded(q):
    try:
        require_bounded_carrier(q)
    except UsageError:
        return False
    return True


SHIPPED = {"two_chain": two_chain(), "godel3": G3, "mv3": mv3(),
           "five_chain": five_chain()}
DRAW_CASES = [(name, variant) for name, q in SHIPPED.items() for variant in Variant
              if variant is not Variant.BOUNDED or _carries_bounded(q)]


@pytest.mark.parametrize("name,variant", DRAW_CASES,
                         ids=[f"{name}-{v.value}" for name, v in DRAW_CASES])
def test_every_variant_draw_lies_in_the_variant(name, variant):
    # the law suite trusts its sampled maps and tables to lie in the variant
    # and each drawn row is the generator of its table
    q = SHIPPED[name]
    for n in (1, 2):
        dom = finite_set(*(f"x{i}" for i in range(n)))
        for seed in range(200):
            row = random_variant_row(random.Random(seed), dom, q, variant)
            t = filled(dom, q, row)
            assert table_satisfies(t, variant), (seed, row)
            assert table_generator(t) == row
            assert random_variant_table(random.Random(seed), dom, q, variant) == t


@pytest.mark.parametrize("carrier", [godel3(), mv3()])
@pytest.mark.parametrize("variant", list(Variant))
def test_law_suite_small(carrier, variant):
    rep = check_monad_laws(carrier, sizes=(2, 2, 2), scenarios=25, seed=9,
                           variant=variant)
    assert rep.passed, rep.failures


def test_law_suite_five_chain():
    rep = check_monad_laws(five_chain(), sizes=(2, 2, 2), scenarios=10, seed=4)
    assert rep.passed, rep.failures


def test_law_suite_two_chain():
    rep = check_monad_laws(two_chain(), sizes=(2, 2, 2), scenarios=40, seed=6)
    assert rep.passed, rep.failures


def test_law_suite_budget_marks_incomplete():
    rep = check_monad_laws(G3, scenarios=10, seed=0, budget=3)
    assert rep.incomplete and rep.scenarios_run == 3
    assert not rep.passed


def test_law_suite_deterministic():
    a = check_monad_laws(G3, scenarios=5, seed=123)
    b = check_monad_laws(G3, scenarios=5, seed=123)
    assert a.checks == b.checks and a.failures == b.failures


def test_scenario_validation():
    with pytest.raises(StructuralError, match=r"^map f missing value at 'x1'$"):
        pinned(X, Y, Y, {"x0": evaluation_unit(Y, G3, "y0")}, {}, G3).explicit_maps()
    bad = from_mapping(Y, G3, {k.values: F(1) for k in all_qfunctions(Y, G3)})
    with pytest.raises(UsageError):
        pinned(X, Y, Y, {"x0": bad, "x1": bad}, {"y0": bad, "y1": bad}, G3,
               Variant.FILTER).explicit_maps()


def test_scenario_refuses_a_map_value_with_its_table():
    # the constant-top table on one point is conical, and not bounded
    Z, U = finite_set("w"), finite_set("u")
    top = SemifilterTable(Z, G3, [G3.kernel.top] * 3)
    assert table_satisfies(top, Variant.PLAIN)
    with pytest.raises(UsageError) as refused:
        pinned(finite_set("a"), U, Z, {"a": evaluation_unit(U, G3, "u")},
               {"u": top}, G3, Variant.BOUNDED).explicit_maps()
    assert str(refused.value) == ("g('u') is not a bounded semifilter\n"
                                  f"{json.dumps(semifilter_to_json(top))}")


def test_law_maps_are_checked_once_at_the_gate(monkeypatch):
    # one conicality test per pinned table, in the scenario reader, which
    # keeps each value as its generator row; a pinned basis is read to its
    # row with no table, the seeded maps are drawn as rows of the variant,
    # and the extensions trust what they are given
    import quantalab.monad as monad
    import quantalab.semifilter as semifilter
    tested = []
    conical = semifilter.is_conical_semifilter

    def counting(table):
        tested.append(table)
        return conical(table)

    for module in (monad, semifilter):
        monkeypatch.setattr(module, "is_conical_semifilter", counting)
    q = five_chain()
    law = check_monad_laws(q, (2, 2, 2), 20, 1)
    check_naturality(q, 8, 1)
    assert law.scenarios_run == 20
    assert tested == []

    rng = random.Random(1)
    f = {x: random_variant_table(rng, Y, q) for x in X}
    g = {y: random_variant_table(rng, X, q) for y in Y}
    spec = pinned(X, Y, X, f, g, q)
    spec.maps["g"]["y1"] = {"basis": [[format_fraction(q.elements[i])
                                       for i in table_generator(g["y1"])]]}
    maps = spec.explicit_maps()
    assert tested == [f["x0"], f["x1"], g["y0"]]
    sc = KleisliScenario(X, Y, X, maps["f"], maps["g"], q)
    assert {x: filled(Y, q, sc.f[x]) for x in X} == f
    assert {y: filled(X, q, sc.g[y]) for y in Y} == g


@pytest.mark.parametrize("sizes,empty", [((0, 2, 2), "X"), ((2, 0, 2), "Y"),
                                         ((0, 0, 2), "X")])
def test_scenario_refuses_an_empty_x_or_y_before_any_extension(sizes, empty):
    message = f"^{empty} is empty: the laws extend maps over X and Y$"
    with pytest.raises(UsageError, match=message):
        check_monad_laws(G3, sizes, scenarios=1)
    xs, ys = (finite_set(*(f"{p}{i}" for i in range(n))) for p, n in zip("xy", sizes))
    with pytest.raises(UsageError, match=message):
        KleisliScenario(xs, ys, Y, {}, {}, G3)


def reverse_extension_rows(monkeypatch):
    """Break ``monad.extend_rows`` on purpose: it reads h's rows in reverse
    order, so the units of X come out permuted."""
    import quantalab.monad as monad
    real = monad.extend_rows

    def reversed_rows(h, domain, carrier, variant):
        rows = [h[x] for x in domain][::-1]
        return real(dict(zip(domain, rows)), domain, carrier, variant)

    monkeypatch.setattr(monad, "extend_rows", reversed_rows)


def test_check_scenario_reports_a_failing_law_with_num_den_values(monkeypatch):
    # with the units of X swapped the unit law fails at the evaluation unit
    # at x0, while f and g, constant maps, hide the break; the failure
    # shows the table that t generates
    reverse_extension_rows(monkeypatch)
    Z = finite_set("z0")
    sc = KleisliScenario(X, Y, Z, {x: unit_rows(Y, G3)["y0"] for x in X},
                         {y: unit_rows(Z, G3)["z0"] for y in Y}, G3)
    t = table_generator(evaluation_unit(X, G3, "x0"))
    assert check_scenario(sc, t, 7) == [LawFailure(
        "unit-extension-identity", 7,
        "table (" + ", ".join(["0/1"] * 3 + ["1/2"] * 3 + ["1/1"] * 3) + ")")]


def shown_row(q, t):
    return "generator (" + ", ".join(f"{q.elements[i].numerator}/{q.elements[i].denominator}"
                                     for i in t) + ")"


def test_a_law_failure_beyond_the_table_cap_shows_the_generator_row(monkeypatch):
    # a table on 8 points of the five-chain would need 5^8 = 390625 entries,
    # beyond TABLE_CAP: the failure is reported with t as its generator row,
    # where filling t's table used to end the run with a BudgetError
    reverse_extension_rows(monkeypatch)
    q = five_chain()
    report = check_monad_laws(q, (8, 2, 2), 3, 1)
    assert (report.scenarios_run, report.incomplete) == (3, False)
    shown = [f for f in report.failures if f.law == "unit-extension-identity"]
    assert [f.scenario for f in shown] == [0, 1, 2]
    assert shown[0].detail == "generator (1/4, 0/1, 1/1, 1/2, 1/4, 1/2, 0/1, 0/1)"
    for f in shown:
        # the t that check_monad_laws draws for the scenario
        rng = random.Random(1 * 1_000_003 + f.scenario)
        sc = random_scenario(rng, q, (8, 2, 2))
        assert f.detail == shown_row(q, random_variant_row(rng, sc.x_set, q))


@pytest.mark.parametrize("points,shown", [(9, "table"), (10, "generator")])
def test_a_failing_table_is_filled_up_to_the_cap(monkeypatch, points, shown):
    # 3^9 entries is TABLE_CAP itself
    reverse_extension_rows(monkeypatch)
    xs = finite_set(*(f"x{i}" for i in range(points)))
    Z = finite_set("z0")
    sc = KleisliScenario(xs, Y, Z, {x: unit_rows(Y, G3)["y0"] for x in xs},
                         {y: unit_rows(Z, G3)["z0"] for y in Y}, G3)
    t = unit_rows(xs, G3)["x0"]
    (failure,) = [f for f in check_scenario(sc, t) if f.law == "unit-extension-identity"]
    assert failure.detail.startswith(f"{shown} (")
    if shown == "generator":
        assert failure.detail == shown_row(G3, t)


def assert_rows_match_tables(sc, t):
    """Every extension that ``check_scenario`` runs on the rows of ``sc``
    and t, filled densely, is the table path's: ``kleisli_extend`` over
    the tables of the scenario's maps, at the table of t and at the units
    (``monad_units``), which are the tables of ``unit_rows``."""
    q, v = sc.carrier, sc.variant
    xs, ys, zs = sc.x_set, sc.y_set, sc.z_set
    f = {x: filled(ys, q, sc.f[x]) for x in xs}
    g = {y: filled(zs, q, sc.g[y]) for y in ys}
    table = filled(xs, q, t)
    units, unit_x = monad_units(xs, q, v), unit_rows(xs, q, v)
    assert {x: filled(xs, q, unit_x[x]) for x in xs} == units
    f_sharp, g_sharp = kleisli_extend(f, xs, v), kleisli_extend(g, ys, v)
    gf_sharp = kleisli_extend({x: g_sharp(f[x]) for x in xs}, xs, v)
    f_rows, g_rows = extend_rows(sc.f, xs, q, v), extend_rows(sc.g, ys, q, v)
    gf_rows = extend_rows({x: g_rows(sc.f[x]) for x in xs}, xs, q, v)
    assert filled(xs, q, extend_rows(unit_x, xs, q, v)(t)) \
        == kleisli_extend(units, xs, v)(table)
    for x in xs:
        assert filled(ys, q, f_rows(unit_x[x])) == f_sharp(units[x])
    assert filled(ys, q, f_rows(t)) == f_sharp(table)
    assert filled(zs, q, g_rows(f_rows(t))) == g_sharp(f_sharp(table))
    assert filled(zs, q, gf_rows(t)) == gf_sharp(table)


# Every (f, g, t) of a size: f and g run over all maps into the variant's
# conical tables, t over those tables on X.  Each scenario is checked on
# rows by check_scenario, and each of its extensions against the table
# path, kowalsky_sum (coreflected under BOUNDED).  godel3 and mv3 at
# (2, 2, 2), 59049 plain scenarios each, are left out for time.
EXHAUSTIVE = [("two_chain", two_chain(), (2, 2, 2), (1024, 243, 1))] + [
    (name, q, sizes, counts) for name, q in (("godel3", G3), ("mv3", mv3()))
    for sizes, counts in (((1, 2, 2), (2187, 125, 128)), ((2, 1, 2), (729, 25, 64)))]
EXHAUSTIVE_CASES = [(name, q, sizes, variant, count)
                    for name, q, sizes, counts in EXHAUSTIVE
                    for variant, count in zip((Variant.PLAIN, Variant.FILTER,
                                               Variant.BOUNDED), counts)]


@pytest.mark.parametrize("name,q,sizes,variant,count", EXHAUSTIVE_CASES,
                         ids=[f"{c[0]}-{''.join(map(str, c[2]))}-{c[3].value}"
                              for c in EXHAUSTIVE_CASES])
def test_the_monad_laws_hold_on_every_scenario(name, q, sizes, variant, count):
    xs, ys, zs = (finite_set(*(f"{p}{i}" for i in range(n))) for p, n in zip("xyz", sizes))

    def listed(dom):
        return [table_generator(t) for t in conical_semifilters(dom, q)
                if table_satisfies(t, variant)]

    rows_x, rows_y, rows_z = listed(xs), listed(ys), listed(zs)
    checked = 0
    for f_values in itertools.product(rows_y, repeat=len(xs)):
        for g_values in itertools.product(rows_z, repeat=len(ys)):
            sc = KleisliScenario(xs, ys, zs, dict(zip(xs, f_values)),
                                 dict(zip(ys, g_values)), q, variant)
            for t in rows_x:
                assert check_scenario(sc, t, checked) == []
                assert_rows_match_tables(sc, t)
                checked += 1
    assert checked == count


@pytest.mark.parametrize("name,variant", DRAW_CASES,
                         ids=[f"{name}-{v.value}" for name, v in DRAW_CASES])
def test_the_seeded_law_scenarios_match_the_table_path(name, variant):
    # the scenarios a law run draws at (2, 2, 2) under the law seeds 1-64,
    # the pool the benchmark's small law runs draw from: 20 each, as
    # check_monad_laws draws them, every one checked against the table path
    q = SHIPPED[name]
    for seed in range(1, 65):
        assert check_monad_laws(q, (2, 2, 2), 20, seed, variant).passed
        for i in range(20):
            rng = random.Random(seed * 1_000_003 + i)
            sc = random_scenario(rng, q, (2, 2, 2), variant)
            assert_rows_match_tables(sc, random_variant_row(rng, sc.x_set, q, variant))


SMALL = small_quantales()


def test_the_small_quantales_are_every_one_counted():
    # the enumerator shares no code with the library's axiom checker
    counts = collections.Counter(name.split("-")[0] for name, _ in SMALL)
    assert counts == {"C2": 1, "C3": 3, "C4": 11, "M2": 9}
    assert all(check_quantale_axioms(q) == [] for _, q in SMALL)


def test_the_axiom_checker_accepts_exactly_the_enumerated_quantales():
    # both ways, on every candidate table of the enumerator: the library's
    # checker reports nothing exactly where the enumerator's own scan of
    # associativity and join-distributivity accepts
    candidates = list(small_quantale_candidates())
    counts = collections.Counter(name for name, _, _ in candidates)
    assert counts == {"C2": 1, "C3": 6, "C4": 192, "M2": 192}
    assert sum(accepted for _, _, accepted in candidates) == len(SMALL)
    disagree = [(name, q.kernel.tensor) for name, q, accepted in candidates
                if (check_quantale_axioms(q) == []) != accepted]
    assert disagree == []


@pytest.mark.parametrize("name,q", SMALL, ids=[name for name, _ in SMALL])
def test_every_small_quantale_carries_the_monad(name, q):
    # each of the 24 commutative unital quantales on at most four elements:
    # the row test against the table test, the laws in each variant with
    # every seeded scenario against the table path, and naturality; BOUNDED
    # is refused on a carrier that is not integral or has no least positive
    # element, and only there
    assert_row_test_is_the_table_test(q)
    positive = [i for i in range(len(q.elements)) if i != q.kernel.bottom]
    least = [i for i in positive if all(q.kernel.leq[i][j] for j in positive)]
    refusal = ("is not integral" if not q.is_integral
               else None if least else "has no least positive element")
    for variant in Variant:
        if variant is Variant.BOUNDED and refusal:
            with pytest.raises(UsageError, match=refusal):
                check_monad_laws(q, (2, 2, 2), 20, 1, variant)
            continue
        assert check_monad_laws(q, (2, 2, 2), 20, 1, variant).passed
        for i in range(20):
            rng = random.Random(1 * 1_000_003 + i)
            sc = random_scenario(rng, q, (2, 2, 2), variant)
            assert_rows_match_tables(sc, random_variant_row(rng, sc.x_set, q, variant))
    report = check_naturality(q, 8, 1)
    assert report.failures == []
    assert bool(report.not_applicable) == bool(refusal)


# -- prefilter-side formulas ---------------------------------------------------------

def test_unit_prefilter_formula():
    pf = unit_prefilter(X, G3, "x0")
    for lam in all_qfunctions(X, G3):
        assert member(pf, lam) == (lam("x0") == 1)


def test_flattening_formula_agreement_is_checked():
    rep = check_naturality(G3, samples=6, seed=2)
    assert rep.passed, rep.failures


@pytest.mark.parametrize("carrier", [godel3(), mv3()])
def test_flattening_formula_agreement_exhaustive(carrier):
    # every outer prefilter generated by at most two functions over the full
    # universe of saturated prefilters on a singleton
    import itertools
    from quantalab.monad import _saturated_prefilter_universe
    s = finite_set("s")
    universe, fam = _saturated_prefilter_universe(s, carrier)
    assert list(fam.members) == [semifilter_of(f) for f in universe]
    labels = fam.labels
    fns = list(all_qfunctions(labels, carrier))
    bases = [[f] for f in fns] + [list(p) for p in itertools.combinations(fns, 2)]
    for raw in bases:
        outer_basis = normalize_basis(raw, labels, carrier)
        outer = semifilter_of(outer_basis)
        flattened = monad_multiplication(outer, fam)
        via_tables = {lam.values for lam in level_prefilter(flattened)}
        via_formula = {lam.values for lam in multiplication_prefilter_members(
            universe, labels, outer_basis)}
        assert via_tables == via_formula


@pytest.mark.parametrize("carrier", [two_chain(), godel3(), mv3(), five_chain()]
                         + [q for _, q in SMALL],
                         ids=["two_chain", "godel3", "mv3", "five_chain"]
                         + [name for name, _ in SMALL])
def test_flattening_formula_holds_at_every_outer_generator_on_a_singleton(carrier):
    # on the shipped chains and every small quantale: outer prefilters on a
    # finite set are principal, so every generator on the family's labels
    # covers every outer basis; the table path (the Kowalsky sum's level
    # prefilter) against the membership formula
    from quantalab.monad import _saturated_prefilter_universe
    universe, fam = _saturated_prefilter_universe(finite_set("s"), carrier)
    labels = fam.labels
    for g in all_qfunctions(labels, carrier):
        outer_basis = normalize_basis([g])
        via_tables = {lam.code for lam in level_prefilter(monad_multiplication(outer_basis, fam))}
        via_formula = {lam.code for lam in multiplication_prefilter_members(
            universe, labels, outer_basis)}
        assert via_tables == via_formula, g


@pytest.mark.parametrize("carrier", [mv3(), five_chain()])
def test_naturality_other_chains(carrier):
    rep = check_naturality(carrier, samples=5, seed=7)
    assert rep.passed, rep.failures


# -- classical correspondence ----------------------------------------------------------

def test_proper_filters_are_principal_upper_sets():
    fs = all_proper_filters(("a", "b", "c"))
    assert len(fs) == 7
    top = principal(("a", "b", "c"), ("a",))
    assert top.member(("a", "b"))
    assert not top.member(("b",))


def test_filter_monad_pieces():
    u = ("a", "b", "c")
    assert filter_unit(u, "b").base == frozenset(["b"])
    f = {"a": "u", "b": "u", "c": "v"}
    img = filter_image(f, ("u", "v"), principal(u, ("a", "c")))
    assert img.base == frozenset(["u", "v"])
    m = filter_multiplication(u, [principal(u, ("a",)), principal(u, ("b",))])
    assert m.base == frozenset(["a", "b"])


def test_classical_correspondence_full():
    rep = classical_correspondence_report(max_size=3)
    assert rep.passed, rep.failures
    assert rep.checks > 50
