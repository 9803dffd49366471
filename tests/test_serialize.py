import json
from fractions import Fraction as F

import pytest

from quantalab.counterexample import (Const, Join, Meet, Ramp, Res, TailIndicator,
                                      expr_from_json, expr_to_json)
from quantalab.errors import StructuralError
from quantalab.monad import Variant
from quantalab.prefilter import normalize_basis
from quantalab.qfun import QFunction, finite_set
from quantalab.finite import FiniteQuantale, five_chain, godel3
from quantalab.quantale import build_ordinal_sum, godel_tnorm
from quantalab.semifilter import semifilter_of
from quantalab.scenario import (ScenarioSpec, qfunction_from_json, qfunction_to_json,
                                semifilter_from_json, semifilter_to_json)
from quantalab.serialize import (format_fraction, parse_fraction, quantale_from_json,
                                 quantale_to_json, render_text)

from test_quantale import square_lattice


def test_fraction_round_trip():
    for v in (F(0), F(1), F(3, 8), F(7, 16)):
        assert parse_fraction(format_fraction(v)) == v
    assert parse_fraction("2") == 2


def test_fraction_zero_denominator_rejected():
    with pytest.raises(StructuralError):
        parse_fraction("1/0")
    with pytest.raises(StructuralError):
        parse_fraction("x/y")
    with pytest.raises(StructuralError):
        parse_fraction(1.5)


def test_tnorm_round_trip():
    t = build_ordinal_sum([(F(1, 4), F(1, 2), "lukasiewicz"), (F(1, 2), 1, "product")])
    assert quantale_from_json(quantale_to_json(t)) == t
    assert quantale_from_json(quantale_to_json(godel_tnorm())) == godel_tnorm()


def test_finite_quantale_round_trip():
    for q in (godel3(), five_chain()):
        again = quantale_from_json(quantale_to_json(q))
        assert again == q


def test_explicit_join_and_meet_tables_round_trip():
    square = square_lattice()
    obj = quantale_to_json(square)
    assert list(obj) == ["type", "carrier", "tensor", "unit", "join", "meet"]
    # 1/3 and 2/3 are incomparable: their join is 1 and their meet 0
    assert obj["join"][1][2] == "1/1" and obj["meet"][1][2] == "0/1"
    again = quantale_from_json(obj)
    assert again == square and again.kernel == square.kernel
    # godel3 with its chain order given as a join table stays apart from godel3
    q = godel3()
    es = q.elements
    explicit = FiniteQuantale(es, [[min(x, y) for y in es] for x in es], q.unit,
                              join=[[max(x, y) for y in es] for x in es])
    obj = quantale_to_json(explicit)
    assert "join" in obj and "meet" not in obj
    assert "join" not in quantale_to_json(q)
    again = quantale_from_json(obj)
    assert again == explicit and again.kernel == q.kernel and again != q


def test_quantale_json_is_bit_exact_strings():
    obj = quantale_to_json(five_chain())
    assert obj["carrier"] == ["0/1", "1/4", "3/8", "1/2", "1/1"]
    assert obj["unit"] == "1/1"


def test_unknown_type_rejected():
    with pytest.raises(StructuralError):
        quantale_from_json({"type": "frobnicate"})
    with pytest.raises(StructuralError):
        quantale_from_json({"blocks": []})


def test_qfunction_round_trip():
    g3 = godel3()
    dom = finite_set("a", "b")
    f = QFunction(dom, (F(1, 2), F(1)), g3)
    obj = qfunction_to_json(f)
    assert obj == {"domain": ["a", "b"], "values": ["1/2", "1/1"]}
    assert qfunction_from_json(obj, dom, g3) == f
    assert qfunction_from_json(["1/2", "1/1"], dom, g3) == f


def test_qfunction_domain_mismatch():
    with pytest.raises(StructuralError):
        qfunction_from_json({"domain": ["a"], "values": ["1/1"]},
                            finite_set("a", "b"), godel3())
    # a string is not a list of labels, though it iterates like one
    with pytest.raises(StructuralError, match="^function domain must be a list, got 'ab'$"):
        qfunction_from_json({"domain": "ab", "values": ["1/1", "1/1"]},
                            finite_set("a", "b"), godel3())


def test_semifilter_round_trip_canonical_order():
    g3 = godel3()
    dom = finite_set("a", "b")
    t = semifilter_of(normalize_basis(
        [QFunction(dom, (F(1, 2), F(1)), g3)], dom, g3))
    obj = semifilter_to_json(t)
    keys = [tuple(parse_fraction(v) for v in e[0]["values"]) for e in obj["entries"]]
    # canonical lexicographic order in the carrier's element order
    from quantalab.qfun import all_qfunctions
    assert keys == [f.values for f in all_qfunctions(dom, g3)]
    assert semifilter_from_json(obj, dom, g3) == t


def test_expr_round_trip():
    e = Join(Meet(Ramp(F(1, 4)), Const(F(1, 8))),
             Res(F(3, 8), TailIndicator(3)))
    assert expr_from_json(expr_to_json(e)) == e
    with pytest.raises(StructuralError):
        expr_from_json({"kind": "nope"})


def test_scenario_parsing():
    obj = {
        "quantale": quantale_to_json(godel3()),
        "variant": "filter",
        "sets": {"X": ["a"], "Y": ["u", "v"], "Z": ["w"]},
        "seed": 11,
        "budgets": {"scenarios": 17},
        "witness_catalog": [expr_to_json(Ramp(F(1, 4)))],
    }
    spec = ScenarioSpec(obj)
    assert spec.variant is Variant.FILTER
    assert spec.x_set.elements == ("a",)
    assert spec.x_set is spec.x_set and spec.y_set == finite_set("u", "v")
    assert ScenarioSpec({"quantale": obj["quantale"]}).z_set == finite_set("z0", "z1")
    assert spec.scenarios == 17 and spec.seed == 11
    assert spec.witness_catalog == [Ramp(F(1, 4))]


def test_scenario_explicit_maps_decode():
    g3 = godel3()
    obj = {
        "quantale": quantale_to_json(g3),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "maps": {
            "f": {"a": {"basis": [["1/2"]]}},
            "g": {"u": {"basis": [["1/1"]]}},
        },
    }
    # each basis is read to its generator row, the positions of its meet
    # with the constant unit
    assert ScenarioSpec(obj).explicit_maps() == {"f": {"a": (1,)}, "g": {"u": (2,)}}


def test_render_text_mirrors_json():
    report = {"verdict": "VIOLATION", "values": {"step1": "1/1", "step2": "1/4"},
              "claims": [{"name": "a", "ok": True}]}
    text = render_text(report)
    for token in ("verdict: VIOLATION", "step1: 1/1", "step2: 1/4", "name: a"):
        assert token in text
    # every leaf of the JSON form appears in the text form
    assert json.loads(json.dumps(report)) == report
