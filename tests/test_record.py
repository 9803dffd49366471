"""Every value class of the library takes its constructor, equality, hash
and repr from ``base.Record``: built from its fields, the names in its own
``__slots__``, and equal to a record of its own class whose fields are
equal."""

import importlib
from fractions import Fraction as F

import pytest

import quantalab
from quantalab.counterexample import (ClaimRecord, Const, CounterexampleReport,
                                      FunctionDescriptor, Join, Meet, Ramp, Res,
                                      TailIndicator, _Node, _node, describe,
                                      run_counterexample)
from quantalab.monad import LawFailure
from quantalab.prefilter import PrefilterBasis, normalize_basis
from quantalab.qfun import FiniteSet, QFunction
from quantalab.finite import FiniteKernel, Violation, two_chain
from quantalab.base import Record
from quantalab.quantale import Block, BlockKind, build_ordinal_sum
from quantalab.semifilter import SemifilterTable, evaluation_unit

BLOCK = build_ordinal_sum([(F(1, 4), F(1, 2), "lukasiewicz")])

# each call builds a fresh record, so two calls give equal records that are
# not one object
EXAMPLES = {
    Block: lambda: Block(F(1, 4), F(1, 2), BlockKind.LUKASIEWICZ),
    Violation: lambda: Violation("unit", (F(1, 2),)),
    FiniteKernel: lambda: two_chain().kernel,
    FiniteSet: lambda: FiniteSet(("a", 1)),
    PrefilterBasis: lambda: normalize_basis(
        [QFunction(FiniteSet(("a", "b")), (F(0), F(1)), two_chain())]),
    SemifilterTable: lambda: evaluation_unit(FiniteSet(("a", "b")), two_chain(), "b"),
    LawFailure: lambda: LawFailure("associativity", 3, "table (0, 1)"),
    Ramp: lambda: Ramp(F(1, 4)),
    TailIndicator: lambda: TailIndicator(3),
    Const: lambda: Const(F(1, 4)),
    Join: lambda: Join(Ramp(F(1, 4)), Const(F(1, 8))),
    Meet: lambda: Meet(Ramp(F(1, 4)), Const(F(1, 8))),
    Res: lambda: Res(F(3, 8), Ramp(F(1, 4))),
    _Node: lambda: _node(Ramp(F(1, 4)), BLOCK, {}),
    FunctionDescriptor: lambda: describe(_node(Ramp(F(1, 4)), BLOCK, {}), 8, False, "w0"),
    ClaimRecord: lambda: ClaimRecord("step1-ramp-admissible", True, "tail liminf 1"),
    CounterexampleReport: lambda: run_counterexample(BLOCK, F(3, 8), F(3, 8), depth=8),
}


def record_classes() -> set:
    for module in quantalab._SUBMODULES:
        importlib.import_module(f"quantalab.{module}")
    out, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("quantalab.") and sub not in out:
                out.add(sub)
                todo.append(sub)
    return out


def test_every_record_class_has_an_example():
    assert record_classes() == set(EXAMPLES)


def test_only_records_that_do_more_than_store_write_a_constructor():
    # FiniteSet refuses repeated labels, SemifilterTable stores its index as
    # a tuple, and FunctionDescriptor checks its infima
    assert {cls for cls in record_classes() if "__init__" in vars(cls)} == {
        FiniteSet, SemifilterTable, FunctionDescriptor}


def twin(record):
    """A record of a fresh class with the same fields and values."""
    cls = type(f"Twin{record.__class__.__name__}", (Record,),
               {"__slots__": record.__slots__})
    out = object.__new__(cls)
    for name in record.__slots__:
        setattr(out, name, getattr(record, name))
    return out


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_a_record_is_its_fields(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    assert a.__class__ is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = twin(a)
    assert a != other and other != a
    assert {a: 1}.get(other) is None
    assert a != tuple(getattr(a, name) for name in cls.__slots__)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_a_record_differs_where_a_field_differs(cls):
    a = EXAMPLES[cls]()
    name = cls.__slots__[0]
    changed = object.__new__(cls)
    for field in cls.__slots__:
        setattr(changed, field, getattr(a, field))
    setattr(changed, name, object())
    assert a != changed and changed != a


def test_records_of_other_classes_with_the_same_fields_differ():
    a, b = Ramp(F(1, 4)), Const(F(1, 8))
    assert Ramp(F(1, 4)) != Const(F(1, 4))
    assert TailIndicator(1) != Const(1)
    assert Join(a, b) != Meet(a, b)


def test_a_law_failure_hashes():
    # it once defined __eq__ without __hash__, which made it unhashable
    a, b = LawFailure("a", 1, "x"), LawFailure("a", 1, "x")
    assert hash(a) == hash(b) and {a: 1}[b] == 1


def test_reprs_keep_their_shapes():
    quarter = "Fraction(1, 4)"
    assert repr(EXAMPLES[Block]()) == (f"Block(lo={quarter}, hi=Fraction(1, 2), "
                                       "kind=<BlockKind.LUKASIEWICZ: 'lukasiewicz'>)")
    assert repr(Ramp(F(1, 4))) == f"Ramp(scale={quarter})"
    assert repr(TailIndicator(3)) == "TailIndicator(start=3)"
    assert repr(EXAMPLES[Res]()) == f"Res(const=Fraction(3, 8), child=Ramp(scale={quarter}))"
    assert repr(EXAMPLES[Meet]()) == (f"Meet(left=Ramp(scale={quarter}), "
                                      "right=Const(value=Fraction(1, 8)))")
    assert repr(EXAMPLES[LawFailure]()) == ("LawFailure(law='associativity', scenario=3, "
                                            "detail='table (0, 1)')")
    assert repr(EXAMPLES[FiniteSet]()) == "{'a', 1}"
    assert repr(EXAMPLES[PrefilterBasis]()) == "PrefilterBasis(QFunction({'a': 0, 'b': 1}))"
    assert repr(EXAMPLES[SemifilterTable]()) == "SemifilterTable(2 points, 4 entries)"


def test_a_record_class_names_its_fields():
    with pytest.raises(TypeError, match="Bare must name its fields in its own __slots__"):
        class Bare(Record):
            pass
    with pytest.raises(TypeError, match="Wider must name its fields in its own __slots__"):
        class Wider(Block):
            pass
    with pytest.raises(TypeError, match="Empty must name"):
        class Empty(Record):
            __slots__ = ()


def test_a_record_is_built_from_its_fields_by_position_or_name():
    lo, hi, kind = F(1, 4), F(1, 2), BlockKind.LUKASIEWICZ
    block = EXAMPLES[Block]()
    assert Block(lo, hi, kind) == block
    assert Block(kind=kind, hi=hi, lo=lo) == block
    assert Block(lo, kind=kind, hi=hi) == block
    assert (block.lo, block.hi, block.kind) == (lo, hi, kind)
    report = EXAMPLES[CounterexampleReport]()
    assert report.verdict == "VIOLATION" and report.all_claims_ok
    assert isinstance(report.claims, tuple) and isinstance(report.step2_details, tuple)
    assert {report: 1}[EXAMPLES[CounterexampleReport]()] == 1


@pytest.mark.parametrize("call,given", [
    (lambda: Block(F(1, 4), F(1, 2)), "2 by position and none by name"),
    (lambda: Block(), "0 by position and none by name"),
    (lambda: Block(F(1, 4), F(1, 2), BlockKind.LUKASIEWICZ, 0), "4 by position"),
    (lambda: Block(F(1, 4), F(1, 2), kind=BlockKind.LUKASIEWICZ, width=1),
     "2 by position and kind, width by name"),
    (lambda: Block(F(1, 4), F(1, 2), BlockKind.LUKASIEWICZ, lo=F(0)),
     "3 by position and lo by name"),
    (lambda: Block(F(1, 4), hi=F(1, 2), lo=F(0)), "1 by position and hi, lo by name"),
], ids=["missing", "all-missing", "extra", "unknown", "twice", "twice-and-missing"])
def test_a_record_refuses_fields_that_do_not_fit(call, given):
    with pytest.raises(TypeError) as caught:
        call()
    assert str(caught.value).startswith("Block takes each of its fields (lo, hi, kind) once, got ")
    assert given in str(caught.value)
