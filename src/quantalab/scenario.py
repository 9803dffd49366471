"""Scenario files for the law suites, and the functions and tables they pin.

A scenario names a finite carrier (or, for a ``counterexample`` run, a
t-norm), a variant, the label sets X, Y and Z, seeds, budgets, optional
pinned maps and an optional witness catalog.  ``ScenarioSpec`` reads one;
``serialize.load_scenario`` is its entry from a file.  Q-valued functions
and semifilter tables travel as JSON here: table entries are emitted in
the canonical lexicographic order of the function space, and a table is
read back into carrier positions at its functions' codes.  A pinned map
value is read to its generator row and gated there: a ``basis`` becomes
its generator without any table, and only an ``entries`` table is filled.

The finite function, filter and monad layers are imported by the
functions that build their objects, and the counterexample layer only to
read a witness catalog: a ``counterexample --scenario`` run loads none of
the finite layers, and a ``laws`` run without a catalog no interval
layer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .base import Variant
from .errors import BudgetError, QuantalabError, StructuralError, UsageError
from .serialize import (expect, format_fraction, format_generator, load_json,
                        parse_fraction, parse_integer, quantale_from_json,
                        quantale_to_json, refuse_unknown, required_field)

if TYPE_CHECKING:
    from .finite import FiniteQuantale
    from .qfun import FiniteSet, QFunction
    from .semifilter import SemifilterTable


def qfunction_to_json(f: QFunction) -> dict:
    return {"domain": list(f.domain.elements),
            "values": [format_fraction(v) for v in f.values]}


def qfunction_from_json(obj, domain: FiniteSet, carrier) -> QFunction:
    """A function given as a list of values or as ``{"values": [...]}``."""
    from .qfun import QFunction
    if isinstance(obj, dict):
        _check_domain(obj, domain, "function")
        values = required_field(obj, "a function", "values")
        refuse_unknown(obj, "a function", ("domain", "values"))
    else:
        values = obj
    values = expect(values, list, "function values")
    try:
        return QFunction(domain, tuple(parse_fraction(v) for v in values), carrier)
    except UsageError as e:
        raise StructuralError(str(e)) from None


def _check_domain(obj: dict, domain: FiniteSet, what: str):
    """Refuse a ``domain`` field of obj that does not list domain's labels."""
    declared = obj.get("domain")
    if declared is not None and \
            tuple(expect(declared, list, f"{what} domain")) != domain.elements:
        raise StructuralError(f"{what} domain {declared} does not match {domain}")


def semifilter_to_json(t: SemifilterTable) -> dict:
    return {"domain": list(t.domain.elements),
            "carrier": quantale_to_json(t.carrier),
            "entries": [[qfunction_to_json(f), format_fraction(t(f))]
                        for f in t.functions()]}


def semifilter_from_json(obj: dict, domain: FiniteSet,
                         carrier: FiniteQuantale) -> SemifilterTable:
    """A table from its ``entries`` list, each function listed once.  The
    table's own ``domain`` and ``carrier`` fields, where given, must match
    ``domain`` and ``carrier``.

    This is where a table's values become carrier positions, and the one
    check a table read from a file passes: each value's position is placed
    at its function's code, and a value outside the carrier, a function
    listed twice or missing, and a table above the size cap are refused.
    """
    from .qfun import all_qfunctions
    from .semifilter import SemifilterTable, table_size
    _check_domain(obj, domain, "table")
    if "carrier" in obj:
        try:
            declared_carrier = quantale_from_json(obj["carrier"])
        except QuantalabError as e:
            raise StructuralError(f"table carrier: {e}") from None
        if declared_carrier != carrier:
            # the reprs show the elements and the unit only
            ours, theirs = quantale_to_json(declared_carrier), quantale_to_json(carrier)
            field = next(k for k in {**ours, **theirs} if ours.get(k) != theirs.get(k))
            raise StructuralError(f"table carrier {declared_carrier!r} does not match "
                                  f"{carrier!r}: they differ in {field!r}")
    raw = expect(required_field(obj, "a table", "entries"), list, "entries")
    refuse_unknown(obj, "a table", ("domain", "carrier", "entries"))
    positions = {}
    first = {}
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise StructuralError(
                f"entries[{i}] must be a [function, value] pair, got {item!r}")
        fn_obj, val = item
        fn = qfunction_from_json(fn_obj, domain, carrier)
        if fn.code in first:
            raise StructuralError(
                f"entries[{i}] repeats the function of entries[{first[fn.code]}]")
        first[fn.code] = i
        v = parse_fraction(val)
        try:
            positions[fn.code] = carrier.index_of(v)
        except UsageError:
            raise StructuralError(
                f"entries[{i}] has the value {format_fraction(v)} outside the carrier") from None
    # capped before the function space is walked
    size = table_size(domain, carrier)
    if len(positions) < size:
        fn = next(f for f in all_qfunctions(domain, carrier) if f.code not in positions)
        raise StructuralError("table is missing the entry at "
                              f"({', '.join(map(format_fraction, fn.values))})")
    return SemifilterTable(domain, carrier, map(positions.__getitem__, range(size)))


def _count(value, name: str) -> int:
    """A non-negative integer field."""
    n = parse_integer(value, name)
    if n < 0:
        raise StructuralError(f"{name} must not be negative, got {n}")
    return n


class ScenarioSpec:
    """A parsed law-suite scenario file.

    Holds the carrier, the variant, the three label sets, optional explicit
    maps (as tables or generating bases), seeds, budgets and an optional
    witness catalog for counterexample runs.  The label sets are checked on
    load and built as ``FiniteSet``s only when a law run reads them.  A
    ``maps`` object is checked on load too: it needs a finite carrier and
    pins exactly ``f`` and ``g``, each an object; its values are read to
    generator rows, and gated, when a law run reads them (``explicit_maps``).
    """

    def __init__(self, obj: dict, base_dir: Path | None = None):
        if not isinstance(obj, dict):
            raise StructuralError("a scenario file must hold a JSON object")
        quantale = obj.get("quantale")
        if isinstance(quantale, str):
            quantale = load_json((base_dir or Path(".")) / quantale)
        self.carrier = quantale_from_json(quantale)
        variant = obj.get("variant", "plain")
        try:
            self.variant = Variant(variant)
        except ValueError:
            names = ", ".join(v.value for v in Variant)
            raise StructuralError(
                f"variant must be one of {names}, got {variant!r}") from None
        sets = expect(obj.get("sets", {}), dict, "sets")
        refuse_unknown(sets, "sets", ("X", "Y", "Z"))

        def checked_labels(name: str, default: list) -> tuple:
            labels = expect(sets.get(name, default), list, f"sets.{name}")
            # a map reads each point's value at the key str(label)
            seen, keys = {}, {}
            for i, label in enumerate(labels):
                if isinstance(label, (dict, list)):
                    raise StructuralError(
                        f"sets.{name}[{i}] must not be an object or a list, got {label!r}")
                if label in seen:
                    # Python finds true equal to 1, and 1 equal to 1.0
                    earlier = seen[label]
                    if type(earlier) is type(label):
                        raise StructuralError(f"sets.{name} repeats the label {label!r}")
                    raise StructuralError(f"sets.{name} labels {earlier!r} and {label!r} "
                                          "would name one point")
                seen[label] = label
                other = keys.setdefault(str(label), label)
                if other is not label:
                    raise StructuralError(f"sets.{name} labels {other!r} and {label!r} "
                                          f"share the map key {str(label)!r}")
            return tuple(labels)

        # checked here, each becomes a FiniteSet when it is first read
        self._sets = {"X": checked_labels("X", ["x0", "x1"]),
                      "Y": checked_labels("Y", ["y0", "y1"]),
                      "Z": checked_labels("Z", ["z0", "z1"])}
        self.seed = parse_integer(obj.get("seed", 0), "seed")
        budgets = expect(obj.get("budgets", {}), dict, "budgets")
        self.scenarios = _count(budgets.get("scenarios", 200), "budgets.scenarios")
        budget = budgets.get("budget")
        self.budget = None if budget is None else _count(budget, "budgets.budget")
        refuse_unknown(budgets, "budgets", ("scenarios", "budget"))
        maps = obj.get("maps")
        if maps is not None:
            expect(maps, dict, "maps")
            for name in ("f", "g"):
                if maps.get(name) is None:
                    raise StructuralError(f"maps needs both 'f' and 'g'; {name!r} is missing")
            refuse_unknown(maps, "maps", ("f", "g"))
            for name in ("f", "g"):
                expect(maps[name], dict, f"map {name}")
            if quantale["type"] == "tnorm":
                raise StructuralError("maps need a finite carrier, not a t-norm")
        self.maps = maps
        wc = obj.get("witness_catalog")
        self.witness_catalog = None
        if wc is not None:
            if not expect(wc, list, "witness_catalog"):
                raise StructuralError("witness_catalog must not be empty; "
                                      "leave it out for the default catalog")
            from .counterexample import expr_from_json
            self.witness_catalog = [expr_from_json(e) for e in wc]
        refuse_unknown(obj, "scenario", ("quantale", "variant", "sets", "seed", "budgets",
                                 "maps", "witness_catalog"))

    def _label_set(self, name: str) -> FiniteSet:
        from .qfun import FiniteSet
        labels = self._sets[name]
        if not labels and name != "Z":
            raise UsageError(f"{name} is empty: the laws extend maps over X and Y")
        if not isinstance(labels, FiniteSet):
            labels = self._sets[name] = FiniteSet(labels)
        return labels

    x_set = property(lambda self: self._label_set("X"))
    y_set = property(lambda self: self._label_set("Y"))
    z_set = property(lambda self: self._label_set("Z"))

    def explicit_maps(self):
        """The pinned f/g maps as generator rows, or None without maps.

        Every value is decoded first, f's and then g's, each in point
        order; only an ``entries`` table is filled, and capped.  Then each
        is gated in the same order: a table must be a conical semifilter,
        and its generator row, or a basis's, must lie in the variant
        (``semifilter.row_satisfies``).  A refused value is an input error
        whose second line is its table as JSON, or a basis's generator row
        where ``table_size`` would refuse that table.
        """
        if self.maps is None:
            return None
        from .prefilter import PrefilterBasis
        from .semifilter import is_conical_semifilter, row_satisfies, table_generator
        decoded = {}
        for name, (src, dst) in (("f", (self.x_set, self.y_set)),
                                 ("g", (self.y_set, self.z_set))):
            raw = self.maps[name]
            values = decoded[name] = {}
            for x in src:
                key = str(x)
                if key not in raw:
                    raise StructuralError(f"map {name} missing value at {key!r}")
                values[x] = self._decode_value(raw[key], dst, f"map {name} at {key!r}")
            refuse_unknown(raw, f"map {name}", [str(x) for x in src])
        out = {}
        for name, values in decoded.items():
            rows = out[name] = {}
            for x, value in values.items():
                if isinstance(value, PrefilterBasis):
                    row, conical = value.generator.index, True
                else:
                    row, conical = table_generator(value), is_conical_semifilter(value)
                if not (conical and row_satisfies(row, self.carrier, self.variant)):
                    raise UsageError(f"{name}({x!r}) is not a {self.variant.value} "
                                     f"semifilter\n{_refused_text(value)}")
                rows[x] = row
        return out

    def _decode_value(self, obj, domain: FiniteSet, where: str):
        """A pinned value: a table read from ``entries``, or the
        ``PrefilterBasis`` of a ``basis``."""
        from .prefilter import normalize_basis
        expect(obj, dict, where)
        try:
            if "entries" in obj:
                return semifilter_from_json(obj, domain, self.carrier)
            if "basis" in obj:
                refuse_unknown(obj, "a table", ("basis",))
                fns = [qfunction_from_json(b, domain, self.carrier)
                       for b in expect(obj["basis"], list, "basis")]
                return normalize_basis(fns, domain, self.carrier)
        except StructuralError as e:
            raise StructuralError(f"{where}: {e}") from None
        raise StructuralError(f"{where} needs either 'entries' or 'basis'")


def _refused_text(value) -> str:
    """A refused map value as its table's JSON, or a basis as its generator
    row where ``table_size`` would refuse its table."""
    from .prefilter import PrefilterBasis
    from .semifilter import semifilter_of
    if isinstance(value, PrefilterBasis):
        try:
            value = semifilter_of(value)
        except BudgetError:
            return format_generator(value.carrier.elements, value.generator.index)
    return json.dumps(semifilter_to_json(value))
