"""The laws path on carrier positions.

From a loaded scenario to its report, the law checks read the carrier's
kernel: the axiom scan, the seeded draws, the monad laws and the
naturality suite build a ``Fraction`` only for a report value or a witness,
and hash none.  Each position-level step is held against the
``Fraction``-level code it replaced (``tests/oracles.py``).
"""

import itertools
import random
import re
from fractions import Fraction as F

import pytest

import quantalab.finite as finite
from quantalab.errors import UsageError
from quantalab.monad import (Variant, check_monad_laws, check_naturality,
                             classical_correspondence_report, functional_of,
                             random_qfunction, random_variant_table, table_satisfies)
from quantalab.prefilter import bounded_coreflection, normalize_basis
from quantalab.qfun import (QFunction, all_qfunctions, constant, finite_set,
                            indicator, sub, unit_constant)
from quantalab.semifilter import (SemifilterTable, check_axioms,
                                  conical_bounded_coreflection,
                                  evaluation_unit, row_satisfies, semifilter_of)
from quantalab.finite import (FiniteQuantale, check_quantale_axioms, five_chain, godel3,
                              mv3, two_chain)

from oracles import (is_bounded, is_bounded_function, quantale_axioms_by_elements,
                     random_qfunction_by_elements, random_variant_table_by_elements,
                     semifilter_axioms_by_elements)

CHAINS = {"five": five_chain, "godel3": godel3, "mv3": mv3, "two": two_chain}
X = finite_set("x0", "x1")
X3 = finite_set("x0", "x1", "x2")


@pytest.fixture
def fraction_hashes(monkeypatch) -> list:
    """Every ``Fraction.__hash__`` call from here on, one entry each."""
    calls = []
    real = F.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(F, "__hash__", counted)
    return calls


@pytest.fixture
def fraction_compares(monkeypatch) -> list:
    """Every ``Fraction.__hash__`` and ``Fraction.__eq__`` call from here
    on, one entry each."""
    calls = []
    real_hash, real_eq = F.__hash__, F.__eq__

    def hashed(self):
        calls.append(("hash", self))
        return real_hash(self)

    def compared(self, other):
        calls.append(("eq", self, other))
        return real_eq(self, other)

    monkeypatch.setattr(F, "__hash__", hashed)
    monkeypatch.setattr(F, "__eq__", compared)
    return calls


@pytest.mark.parametrize("name", CHAINS)
def test_the_law_checks_hash_no_fraction(name, fraction_hashes):
    q = CHAINS[name]()
    fraction_hashes.clear()
    assert check_quantale_axioms(q) == []
    for variant in Variant:
        assert check_monad_laws(q, scenarios=5, seed=3, variant=variant).passed
    assert check_naturality(q, samples=4, seed=1).passed
    assert fraction_hashes == []
    # the counter sees a lookup by element
    q.index_of(q.unit)
    assert fraction_hashes == [q.unit]


# -- the axiom scan -----------------------------------------------------------

def chain(products: dict, unit=1) -> FiniteQuantale:
    """The chain 0 < 1/4 < 1/2 < 1 whose tensor is min except at the pairs
    given, each read in the order given first and then swapped."""
    es = [F(0), F(1, 4), F(1, 2), F(1)]

    def t(x, y):
        return products.get((x, y), products.get((y, x), min(x, y)))

    return FiniteQuantale(es, [[t(x, y) for y in es] for x in es], unit)


def diamond() -> FiniteQuantale:
    """M3, the non-distributive lattice of three incomparable atoms between
    0 and 1, with tensor = meet."""
    es = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    atoms = es[1:4]

    def join(x, y):
        return x if x == y or y == 0 else y if x == 0 else F(1)

    def meet(x, y):
        if x == y or y == 1:
            return x
        return y if x == 1 else F(0) if x in atoms and y in atoms else min(x, y)

    meets = [[meet(x, y) for y in es] for x in es]
    return FiniteQuantale(es, meets, 1, join=[[join(x, y) for y in es] for x in es],
                          meet=meets)


A, B = F(1, 4), F(1, 2)
BROKEN = {
    # (A A) B = B B = B, but A (A B) = A 0 = 0
    "non-associative": (lambda: chain({(A, A): B, (A, B): F(0)}), "associativity"),
    "non-commutative": (lambda: chain({(A, B): F(0), (B, A): A}), "commutativity"),
    # min with unit 1/2: 1/2 (x) 1 = 1/2
    "wrong-unit": (lambda: chain({}, unit=B), "unit"),
    "non-distributive": (diamond, "join-distributivity"),
    "non-idempotent-join": (
        lambda: FiniteQuantale([0, 1], [[0, 0], [0, 1]], 1,
                               join=[[1, 1], [1, 1]], meet=[[0, 0], [0, 1]]),
        "join-idempotence"),
    "no-zero": (lambda: FiniteQuantale([A, 1], [[A, A], [A, 1]], 1), "bounds"),
    # max with unit 0: 0 (x) 1 = 1
    "no-bottom-absorption": (lambda: FiniteQuantale([0, 1], [[0, 1], [1, 1]], 0),
                             "bottom-absorption"),
}


@pytest.mark.parametrize("name", CHAINS)
def test_axiom_scan_passes_the_shipped_chains_as_the_element_scan_does(name):
    q = CHAINS[name]()
    assert check_quantale_axioms(q) == quantale_axioms_by_elements(q) == []


@pytest.mark.parametrize("name", BROKEN)
def test_axiom_scan_reports_what_the_element_scan_reports(name):
    build, law = BROKEN[name]
    q = build()
    violations = check_quantale_axioms(q)
    # each table breaks no law the scan reaches before its own
    assert violations[0].law == law
    # the same laws, in the same order, with the same witnesses
    assert violations == quantale_axioms_by_elements(q)
    assert all(type(w) is F for v in violations for w in v.witness)


# -- the seeded draws ----------------------------------------------------------

@pytest.mark.parametrize("name", CHAINS)
def test_draws_from_positions_match_draws_from_elements(name):
    q = CHAINS[name]()
    # a positive draw is the BOUNDED variant's, below
    for seed in range(200):
        mine, oracle = random.Random(seed), random.Random(seed)
        assert random_qfunction(mine, X3, q) == random_qfunction_by_elements(oracle, X3, q)
        assert mine.getstate() == oracle.getstate()
        for variant in Variant:
            mine, oracle = random.Random(seed), random.Random(seed)
            assert (random_variant_table(mine, X, q, variant)
                    == random_variant_table_by_elements(oracle, X, q, variant))
            assert mine.getstate() == oracle.getstate()


# -- functions built from positions -----------------------------------------------

@pytest.mark.parametrize("name", CHAINS)
def test_constants_and_indicators_are_the_functions_of_their_values(name):
    q = CHAINS[name]()
    for i, e in enumerate(q.elements):
        assert constant(X3, q, e) == QFunction.from_index(X3, q, (i,) * 3) \
            == QFunction(X3, (e,) * 3, q)
    assert unit_constant(X3, q) == QFunction(X3, (q.unit,) * 3, q)
    assert indicator(X3, q, ["x1"]) == QFunction(X3, (q.bottom, q.top, q.bottom), q)
    with pytest.raises(UsageError, match=r"^1/3 is not a carrier element$"):
        constant(X3, q, F(1, 3))


@pytest.mark.parametrize("name", CHAINS)
def test_sub_at_a_position_is_the_position_of_sub(name):
    q = CHAINS[name]()
    fns = list(all_qfunctions(X, q))
    for lam in fns:
        for mu in fns:
            assert q.elements[sub(lam, mu, position=True)] == sub(lam, mu)
    empty = QFunction(finite_set(), (), q)
    assert sub(empty, empty, position=True) == q.kernel.top
    universe = [normalize_basis([g]) for g in fns]
    labels = finite_set(*range(len(universe)))
    for lam in fns:
        assert functional_of(lam, universe, labels) == QFunction(
            labels, tuple(sub(f.generator, lam) for f in universe), q)


@pytest.mark.parametrize("name", CHAINS)
def test_f4_failures_are_the_constants_held_above_their_value(name):
    """The position read of F4, shared by ``table_satisfies`` and
    ``check_axioms``, against the element form it replaced."""
    q = CHAINS[name]()
    rng = random.Random(5)
    for _ in range(40):
        table = random_variant_table(rng, X, q, rng.choice(list(Variant)))
        table = SemifilterTable(X, q, [rng.choice(range(len(q.elements))) if
                                       rng.random() < 0.3 else v for v in table.index])
        by_elements = [i for i, p in enumerate(q.elements)
                       if not q.leq(table(constant(X, q, p)), p)]
        assert table.f4_failures() == by_elements
        f4 = [v.witness for v in check_axioms(table, require_filter=True) if v.law == "F4"]
        assert f4 == [(q.elements[i],) for i in by_elements]


def no_zero() -> FiniteQuantale:
    """The chain 1/4 < 1 with tensor = min: its bottom is 1/4, so its only
    positive element is 1."""
    return BROKEN["no-zero"][0]()


def sample_tables(q: FiniteQuantale, domain, rng, count: int):
    """Seeded tables on the domain: plain and filter semifilters, some with
    entries redrawn at random."""
    for _ in range(count):
        table = random_variant_table(rng, domain, q, rng.choice((Variant.PLAIN,
                                                                 Variant.FILTER)))
        p = rng.choice((0, 0.1, 0.5))
        yield SemifilterTable(domain, q, [rng.randrange(len(q.elements))
                                          if rng.random() < p else v for v in table.index])


@pytest.mark.parametrize("build", [two_chain, godel3, no_zero])
def test_check_axioms_is_the_element_scan_on_every_table_at_one_point(build):
    q = build()
    S = finite_set("s")
    n = len(q.elements)
    for index in itertools.product(range(n), repeat=n):
        table = SemifilterTable(S, q, index)
        for require_filter in (False, True):
            got = check_axioms(table, require_filter)
            assert got == semifilter_axioms_by_elements(table, require_filter)
            assert all(type(v) is F for a in got for w in a.witness
                       for v in (w if isinstance(w, tuple) else (w,)))


@pytest.mark.parametrize("name", [*CHAINS, "no-zero", "diamond"])
def test_check_axioms_is_the_element_scan_on_sampled_tables(name):
    q = {"no-zero": no_zero, "diamond": diamond, **CHAINS}[name]()
    rng = random.Random(17)
    failing = 0
    for table in sample_tables(q, X, rng, 30):
        got = check_axioms(table, require_filter=True)
        assert got == semifilter_axioms_by_elements(table, require_filter=True)
        failing += bool(got)
    assert 0 < failing < 30


@pytest.mark.parametrize("name", CHAINS)
def test_the_axiom_scan_and_the_classical_oracle_compare_no_fraction(
        name, monkeypatch, fraction_compares):
    q = CHAINS[name]()
    tables = list(sample_tables(q, X, random.Random(3), 10))
    # the classical oracle builds its two-element chain before it checks
    two = two_chain()
    monkeypatch.setattr(finite, "two_chain", lambda: two)
    fraction_compares.clear()
    assert any([check_axioms(t, require_filter=True) for t in tables])
    assert classical_correspondence_report(3).passed
    assert fraction_compares == []


# -- positive means above the kernel's bottom ----------------------------------------

@pytest.mark.parametrize("name", [*CHAINS, "no-zero"])
def test_the_bounded_coreflections_agree_on_every_basis(name):
    q = {"no-zero": no_zero, **CHAINS}[name]()
    for size in range(3):
        domain = finite_set(*(f"x{i}" for i in range(size)))
        for g in all_qfunctions(domain, q):
            basis = normalize_basis([g])
            assert (conical_bounded_coreflection(semifilter_of(basis))
                    == semifilter_of(bounded_coreflection(basis))), (size, g)


def test_positive_means_above_the_bottom_on_a_carrier_without_zero():
    q = no_zero()
    A = q.bottom
    assert not is_bounded_function(QFunction(X, (A, F(1)), q))
    assert is_bounded_function(QFunction(X, (F(1), F(1)), q))
    unit_at_x0 = evaluation_unit(X, q, "x0")
    top = semifilter_of(normalize_basis([QFunction(X, (F(1), F(1)), q)]))
    assert not is_bounded(unit_at_x0) and is_bounded(top)
    assert not table_satisfies(unit_at_x0, Variant.BOUNDED)
    assert table_satisfies(top, Variant.BOUNDED)


@pytest.mark.parametrize("seed", range(5))
def test_naturality_holds_on_a_carrier_without_zero(seed):
    report = check_naturality(no_zero(), 8, seed)
    assert report.failures == [] and report.not_applicable == []


def test_qfunction_looks_each_value_up_once(fraction_hashes):
    q = five_chain()
    fraction_hashes.clear()
    QFunction(X3, (F(0), F(1, 4), F(1)), q)
    assert fraction_hashes == [F(0), F(1, 4), F(1)]
    for bad in ((F(0), F(1, 3), F(1)), (F(0), [1], F(1))):
        with pytest.raises(UsageError,
                           match=f"^{re.escape(f'value {bad[1]} outside the carrier')}$"):
            QFunction(X3, bad, q)


def test_boundedness_folds_the_meet_of_the_lattice():
    # 1/4 and 1/2 are atoms of the diamond: each is positive, their meet is 0
    q = diamond()
    for values, bounded in (((F(1, 4), F(1, 2), F(1)), False),
                            ((F(1, 4), F(1, 4), F(1)), True)):
        lam = QFunction(X3, values, q)
        assert is_bounded_function(lam) == bounded
        assert row_satisfies(lam.index, q, Variant.BOUNDED) == bounded
    assert is_bounded_function(QFunction(finite_set(), (), q))
    assert row_satisfies((), q, Variant.BOUNDED)
