"""The integer kernel of finite carriers against Fraction-level oracles.

Every index table of ``FiniteQuantale.kernel`` is compared with a fold over
the carrier's own Fraction tables, and every flat ``SemifilterTable`` with a
dict-keyed table kept here as the oracle.
"""

import itertools
import re
from fractions import Fraction as F

import pytest

import quantalab.qfun as qfun
from quantalab.errors import StructuralError, UsageError
from quantalab.qfun import QFunction, all_qfunctions, finite_set, sub
from quantalab.finite import FiniteQuantale, five_chain, godel3, mv3, two_chain
from quantalab.quantale import build_ordinal_sum, godel_tnorm, lukasiewicz_tnorm
from quantalab.semifilter import (SemifilterTable, enumerate_semifilters,
                                  evaluation_unit, residuate)
from quantalab.scenario import semifilter_from_json
from quantalab.serialize import format_fraction

from oracles import from_mapping, rows_of


def diamond():
    """The lattice {0, 1/3, 2/3, 1} with 1/3 and 2/3 incomparable, given by
    explicit join and meet tables; the tensor is the meet."""
    o, a, b, i = F(0), F(1, 3), F(2, 3), F(1)
    order = {(o, o), (o, a), (o, b), (o, i), (a, a), (a, i), (b, b), (b, i), (i, i)}
    es = (o, a, b, i)
    join = {(x, y): next(z for z in (o, a, b, i) if (x, z) in order and (y, z) in order)
            for x in es for y in es}
    meet = {(x, y): next(z for z in (i, b, a, o) if (z, x) in order and (z, y) in order)
            for x in es for y in es}
    return (FiniteQuantale(es, rows_of(meet, es), i, join=rows_of(join, es),
                           meet=rows_of(meet, es)), join, meet)


def chain_oracle(q, t):
    """The tables of a chain restricted from the t-norm ``t``."""
    tensor = {(x, y): t.tensor(x, y) for x in q.elements for y in q.elements}
    join = {(x, y): max(x, y) for x in q.elements for y in q.elements}
    meet = {(x, y): min(x, y) for x in q.elements for y in q.elements}
    return tensor, join, meet


def carriers():
    five = build_ordinal_sum([(F(1, 4), F(1, 2), "lukasiewicz")])
    out = [(q, *chain_oracle(q, t))
           for q, t in ((two_chain(), godel_tnorm()), (godel3(), godel_tnorm()),
                        (mv3(), lukasiewicz_tnorm()), (five_chain(), five))]
    q, join, meet = diamond()
    out.append((q, meet, join, meet))
    # not a quantale: 1 (x) z = 0 for z < 1, so {z : 1 (x) z <= 0} is
    # {0, 1/3, 2/3}, whose join 1 is not in it; the kernel folds the join
    # all the same
    es = q.elements
    broken = {(x, y): F(1) if x == y == 1 else F(0) for x in es for y in es}
    out.append((FiniteQuantale(es, rows_of(broken, es), 1, join=rows_of(join, es),
                               meet=rows_of(meet, es)), broken, join, meet))
    return out


@pytest.mark.parametrize("q,tensor,join,meet", carriers(),
                         ids=["two", "godel3", "mv3", "five", "diamond", "broken"])
def test_kernel_tables_match_the_fraction_fold(q, tensor, join, meet):
    es = q.elements
    k = q.kernel
    pos = q.position
    assert [pos[e] for e in es] == list(range(len(es)))

    def leq(x, y):
        return join[(x, y)] == y

    bottom = next(b for b in es if all(leq(b, x) for x in es))
    top = next(t for t in es if all(leq(x, t) for x in es))
    assert es[k.bottom] == bottom == q.bottom
    assert es[k.top] == top == q.top
    assert es[k.unit] == q.unit
    for x in es:
        for y in es:
            i, j = pos[x], pos[y]
            # the largest z with x (x) z <= y, folded with the join
            r = bottom
            for z in es:
                if leq(tensor[(x, z)], y):
                    r = join[(r, z)]
            assert es[k.residuum[i][j]] == r == q.residuum(x, y)
            assert es[k.tensor[i][j]] == tensor[(x, y)] == q.tensor(x, y)
            assert es[k.join[i][j]] == join[(x, y)] == q.join(x, y)
            assert es[k.meet[i][j]] == meet[(x, y)] == q.meet(x, y)
            assert k.leq[i][j] == leq(x, y) == q.leq(x, y)


def test_carrier_arithmetic_refuses_non_members():
    q = five_chain()
    for call in (q.tensor, q.residuum):
        with pytest.raises(UsageError, match="1/3 is not a carrier element"):
            call(F(1, 3), F(1))
        with pytest.raises(UsageError, match="is not a carrier element"):
            call(F(1), [1])
    assert not q.contains([1]) and not q.contains(F(1, 3)) and q.contains(F(3, 8))


def test_a_float_equal_to_a_member_is_refused():
    # 0.5 hashes and compares like 1/2, so a plain lookup would take it
    q = godel3()
    S = finite_set("a")
    for bad in (0.5, 1.0, 0.0):
        assert not q.contains(bad)
        with pytest.raises(UsageError, match=rf"^{bad} is not a carrier element$"):
            q.index_of(bad)
        with pytest.raises(UsageError, match=rf"^value {bad} outside the carrier$"):
            QFunction(S, (bad,), q)
    for call in (q.tensor, q.residuum, q.leq, q.join, q.meet):
        with pytest.raises(UsageError, match=r"^0\.5 is not a carrier element$"):
            call(0.5, 1.0)
    with pytest.raises(UsageError, match=r"^0\.5 is not a carrier element$"):
        q.is_idempotent(0.5)


def test_a_function_holds_the_carriers_own_elements():
    # an int is taken as the element it equals, as TNorm takes it
    q = godel3()
    lam = QFunction(finite_set("a", "b"), (1, 0), q)
    assert lam.values == (F(1), F(0)) and lam.index == (2, 0)
    assert all(v is e for v, e in zip(lam.values, (q.elements[2], q.elements[0])))
    assert q.contains(1) and q.index_of(0) == 0


def test_carrier_identity_follows_the_tables():
    a, b = five_chain(), five_chain()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != godel3() and a != mv3() and godel3() != mv3()
    # the same chain with its order given as an explicit table is kept apart,
    # as the tables it was given differ
    q = godel3()
    es = q.elements
    rows = [[max(x, y) for y in es] for x in es]
    tensor = [[min(x, y) for y in es] for x in es]
    explicit = FiniteQuantale(es, tensor, q.unit, join=rows)
    assert explicit.kernel == q.kernel and explicit != q
    assert FiniteQuantale(es, tensor, q.unit, join=rows) == explicit


@pytest.mark.parametrize("q", [two_chain(), godel3(), mv3(), five_chain()],
                         ids=["two", "godel3", "mv3", "five"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_code_is_the_position_in_canonical_order(q, n):
    X = finite_set(*[f"x{i}" for i in range(n)])
    fns = list(all_qfunctions(X, q))
    assert len(fns) == len(q.elements) ** n
    for place, f in enumerate(fns):
        assert f.code == place
        assert f.index == tuple(q.position[v] for v in f.values)
        public = QFunction(X, f.values, q)
        assert public == f and public.code == place and public.index == f.index
        assert QFunction.from_index(X, q, f.index) == f
    assert [f.values for f in fns] == list(itertools.product(q.elements, repeat=n))


def test_qfunction_refuses_values_outside_the_carrier():
    X = finite_set("a", "b")
    with pytest.raises(UsageError, match="value 1/3 outside the carrier"):
        QFunction(X, (F(0), F(1, 3)), godel3())


class DictTable:
    """The dict-keyed table storage, kept as the oracle for flat tables."""

    def __init__(self, domain, carrier, entries):
        self.domain, self.carrier = domain, carrier
        self.entries = dict(entries)

    def __call__(self, lam):
        return self.entries[lam.values]

    def leq(self, other):
        return all(self.carrier.leq(v, other.entries[k]) for k, v in self.entries.items())

    def meet(self, other):
        return DictTable(self.domain, self.carrier,
                         {k: self.carrier.meet(v, other.entries[k])
                          for k, v in self.entries.items()})

    def residuate(self, p):
        return DictTable(self.domain, self.carrier,
                         {k: self.carrier.residuum(p, v) for k, v in self.entries.items()})


def same(flat, oracle):
    return all(flat(f) == oracle(f) for f in all_qfunctions(flat.domain, flat.carrier))


@pytest.mark.parametrize("q", [godel3(), mv3()], ids=["godel3", "mv3"])
@pytest.mark.parametrize("n", [1, 2])
def test_flat_tables_match_the_dict_oracle(q, n):
    X = finite_set(*[f"x{i}" for i in range(n)])
    found = enumerate_semifilters(X, q, "all")
    assert found
    oracles = [DictTable(X, q, {f.values: t(f) for f in all_qfunctions(X, q)})
               for t in found]
    flats = [from_mapping(X, q, o.entries) for o in oracles]
    for t, o, flat in zip(found, oracles, flats):
        assert flat == t and hash(flat) == hash(t)
        assert same(flat, o)
        assert flat.entries == o.entries and len(flat.entries) == len(o.entries)
        assert list(flat.entries) == list(o.entries)
        assert flat.canonical_values() == tuple(o.entries.values())
        for p in q.elements:
            assert same(residuate(p, flat), o.residuate(p))
    for (o1, f1), (o2, f2) in itertools.product(zip(oracles, flats), repeat=2):
        assert f1.leq(f2) == o1.leq(o2)
        assert same(f1.meet(f2), o1.meet(o2))
        assert (f1 == f2) == (o1.entries == o2.entries)
    for x in X:
        unit = DictTable(X, q, {f.values: f(x) for f in all_qfunctions(X, q)})
        assert same(evaluation_unit(X, q, x), unit)


def test_enumeration_matches_a_fraction_level_scan():
    # the scan enumerate_semifilters made before it ran on the kernel
    for q in (two_chain(), godel3(), mv3()):
        for n in (1, 2):
            X = finite_set(*[f"x{i}" for i in range(n)])
            funcs = list(all_qfunctions(X, q))
            unit = QFunction(X, (q.unit,) * n, q)
            want = []
            for vals in itertools.product(q.elements, repeat=len(funcs)):
                d = {f.values: v for f, v in zip(funcs, vals)}
                if not q.leq(q.unit, d[unit.values]):
                    continue
                if all(q.leq(q.meet(d[f.values], d[g.values]), d[f.meet(g).values])
                       and q.leq(sub(f, g), q.residuum(d[f.values], d[g.values]))
                       for f in funcs for g in funcs):
                    want.append(vals)
            got = [t.canonical_values() for t in enumerate_semifilters(X, q, "all")]
            assert got == want


def entries_json(table: dict) -> dict:
    """A table given as a dict from value tuples to values, as JSON."""
    return {"entries": [[[format_fraction(v) for v in key], format_fraction(value)]
                        for key, value in table.items()]}


def test_table_errors_are_unchanged():
    # a table read from JSON names what is wrong with it, as the dict form
    # of the constructor did
    q = godel3()
    S = finite_set("s")
    full = {(F(0),): F(0), (F(1, 2),): F(1, 2), (F(1),): F(1)}
    with pytest.raises(StructuralError, match=r"^table is missing the entry at \(1/2\)$"):
        semifilter_from_json(entries_json({(F(0),): F(0), (F(1),): F(1)}), S, q)
    with pytest.raises(StructuralError,
                       match=r"^entries\[1\] has the value 1/3 outside the carrier$"):
        semifilter_from_json(entries_json({**full, (F(1, 2),): F(1, 3)}), S, q)
    with pytest.raises(StructuralError, match="^value 1/3 outside the carrier$"):
        semifilter_from_json(entries_json({**full, (F(1, 3),): F(1)}), S, q)
    t = semifilter_from_json(entries_json(full), S, q)
    assert t == SemifilterTable(S, q, [0, 1, 2])
    assert t.entries[(F(1, 2),)] == F(1, 2) and t.entries[(F(1),)] == F(1)
    for missing in ((F(1, 3),), (F(0), F(0)), 7):
        assert missing not in t.entries
        with pytest.raises(KeyError):
            t.entries[missing]


def test_a_table_is_built_from_carrier_positions_only():
    # the reader turns each value into its position once; a bool, a float
    # or a number outside the carrier never reaches the table
    q = godel3()
    S = finite_set("s")
    refused = [
        (True, "not an exact rational: True"),
        (0.5, "not an exact rational: 0.5"),
        ("2/1", "entries[2] has the value 2/1 outside the carrier"),
        ("-1", "entries[2] has the value -1/1 outside the carrier"),
    ]
    for value, message in refused:
        obj = {"entries": [[["0/1"], "0/1"], [["1/2"], "1/2"], [["1/1"], value]]}
        with pytest.raises(StructuralError, match=re.escape(message)):
            semifilter_from_json(obj, S, q)
    obj = {"entries": [[["1/1"], "0/1"], [["1/2"], "1/2"], [["0/1"], 1]]}
    t = semifilter_from_json(obj, S, q)
    assert t.index == (2, 1, 0) and t.canonical_values() == (F(1), F(1, 2), F(0))
    assert SemifilterTable(S, q, iter([2, 1, 0])).canonical_values() == (F(1), F(1, 2), F(0))
    assert semifilter_from_json({"entries": [[[], "1/1"]]}, finite_set(), q).index == (2,)


def test_sub_on_a_finite_carrier_reads_the_kernel_only(monkeypatch):
    calls = []
    residuum = FiniteQuantale.residuum

    def counting(self, x, y):
        calls.append((x, y))
        return residuum(self, x, y)

    monkeypatch.setattr(FiniteQuantale, "residuum", counting)
    q = five_chain()
    X = finite_set("a", "b")
    fns = list(all_qfunctions(X, q))
    for lam in fns:
        for mu in fns:
            r = qfun.sub(lam, mu)
            assert r == min(residuum(q, a, b) for a, b in zip(lam.values, mu.values))
    assert not calls


def test_repeated_table_entries_are_refused():
    q = godel3()
    S = finite_set("s")
    obj = {"entries": [[["0/1"], "0/1"], [["1/2"], "1/2"], [["1/1"], "1/1"],
                       [{"values": ["1/2"]}, "1/1"]]}
    with pytest.raises(StructuralError, match=r"entries\[3\] repeats the function of entries\[1\]"):
        semifilter_from_json(obj, S, q)
    obj["entries"][3][1] = "1/2"
    with pytest.raises(StructuralError, match=r"entries\[3\] repeats the function of entries\[1\]"):
        semifilter_from_json(obj, S, q)
    del obj["entries"][3]
    assert semifilter_from_json(obj, S, q).canonical_values() == (F(0), F(1, 2), F(1))
