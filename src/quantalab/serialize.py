"""Bit-exact JSON serialization for quantales, functions, tables, scenarios.

Rationals travel as "num/den" strings so that files round-trip exactly.
Table entries are emitted in the canonical lexicographic order of the
function space.  Parsers check the JSON shape and refuse unknown fields
with StructuralError; the library objects they build coerce each value,
so the CLI maps either refusal to the input-error exit code.  The function,
table and expression layers are imported by the functions that build their
objects, so reading a t-norm definition loads only ``quantale``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import QuantalabError, StructuralError, UsageError
from .quantale import (FiniteQuantale, TNorm, Variant, as_fraction,
                       build_ordinal_sum)

if TYPE_CHECKING:
    from .counterexample import FnExpr
    from .qfun import FiniteSet, QFunction
    from .semifilter import SemifilterTable


def format_fraction(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def parse_fraction(s) -> Fraction:
    """``as_fraction`` raising StructuralError, which a pinned map's reader locates."""
    try:
        return as_fraction(s)
    except UsageError as e:
        raise StructuralError(str(e)) from None


def quantale_to_json(q) -> dict:
    if isinstance(q, TNorm):
        return {"type": "tnorm",
                "blocks": [{"lo": format_fraction(b.lo),
                            "hi": format_fraction(b.hi),
                            "kind": b.kind.value} for b in q.blocks]}
    if isinstance(q, FiniteQuantale):
        names = [format_fraction(e) for e in q.elements]
        k = q.kernel
        out = {"type": "finite", "carrier": names,
               "tensor": _format_rows(k.tensor, names),
               "unit": format_fraction(q.unit)}
        # join and meet as they were given: without them, the chain order
        _, _, chain_join, chain_meet = q._identity
        if not chain_join:
            out["join"] = _format_rows(k.join, names)
        if not chain_meet:
            out["meet"] = _format_rows(k.meet, names)
        return out
    raise StructuralError(f"not a quantale: {q!r}")


def _format_rows(rows, names: list[str]) -> list[list[str]]:
    return [[names[i] for i in row] for row in rows]


def quantale_from_json(obj: dict):
    if not isinstance(obj, dict) or "type" not in obj:
        raise StructuralError("quantale definition needs a 'type' field")
    if obj["type"] == "tnorm":
        blocks = _expect(obj.get("blocks", []), list, "blocks")
        _known(obj, "quantale definition", ("type", "blocks"))
        return build_ordinal_sum(_block_from_json(b, f"blocks[{i}]")
                                 for i, b in enumerate(blocks))
    if obj["type"] == "finite":
        # FiniteQuantale reads each element, entry and the unit
        try:
            carrier = _expect(obj["carrier"], list, "carrier")
            tensor = _rows(obj["tensor"], "tensor")
            unit = obj["unit"]
        except KeyError as e:
            raise StructuralError(f"finite quantale definition missing {e}") from None
        join, meet = (None if obj.get(name) is None else _rows(obj[name], name)
                      for name in ("join", "meet"))
        _known(obj, "quantale definition",
               ("type", "carrier", "tensor", "unit", "join", "meet"))
        return FiniteQuantale(carrier, tensor, unit, join=join, meet=meet)
    raise StructuralError(f"unknown quantale type {obj['type']!r}")


def _expect(value, kind: type, name: str):
    """value itself, if it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise StructuralError(f"{name} must be {what}, got {value!r}")
    return value


def _known(obj: dict, where: str, names) -> None:
    """Refuse a field of obj that its reader does not read."""
    for name in obj:
        if name not in names:
            raise StructuralError(f"{where} has an unknown field {name!r}")


def _rows(rows, name: str) -> list:
    """The rows of a table, if it is a list of lists; the entries are not read."""
    return [_expect(row, list, f"{name}[{i}]") for i, row in enumerate(_expect(rows, list, name))]


def _block_from_json(obj, where: str) -> tuple:
    """One t-norm block as a (lo, hi, kind) triple for ``build_ordinal_sum``."""
    _expect(obj, dict, where)
    block = tuple(_field(obj, where, name) for name in ("lo", "hi", "kind"))
    _known(obj, where, ("lo", "hi", "kind"))
    return block


def qfunction_to_json(f: QFunction) -> dict:
    return {"domain": list(f.domain.elements),
            "values": [format_fraction(v) for v in f.values]}


def qfunction_from_json(obj, domain: FiniteSet, carrier) -> QFunction:
    """A function given as a list of values or as ``{"values": [...]}``."""
    from .qfun import QFunction
    if isinstance(obj, dict):
        _check_domain(obj, domain, "function")
        values = _field(obj, "a function", "values")
        _known(obj, "a function", ("domain", "values"))
    else:
        values = obj
    values = _expect(values, list, "function values")
    try:
        return QFunction(domain, tuple(parse_fraction(v) for v in values), carrier)
    except UsageError as e:
        raise StructuralError(str(e)) from None


def _check_domain(obj: dict, domain: FiniteSet, what: str):
    """Refuse a ``domain`` field of obj that does not list domain's labels."""
    declared = obj.get("domain")
    if declared is not None and \
            tuple(_expect(declared, list, f"{what} domain")) != domain.elements:
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

    Each value's carrier position is placed at its function's code: the
    table is built from positions, as every table is.
    """
    from .qfun import all_qfunctions
    from .semifilter import SemifilterTable
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
    raw = _expect(_field(obj, "a table", "entries"), list, "entries")
    _known(obj, "a table", ("domain", "carrier", "entries"))
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
        if not carrier.contains(v):
            raise StructuralError(
                f"entries[{i}] has the value {format_fraction(v)} outside the carrier")
        positions[fn.code] = carrier.index_of(v)

    def position(fn: QFunction) -> int:
        if fn.code not in positions:
            raise StructuralError("table is missing the entry at "
                                  f"({', '.join(map(format_fraction, fn.values))})")
        return positions[fn.code]

    # checked caps the size before it reads a position
    return SemifilterTable.checked(domain, carrier,
                                   map(position, all_qfunctions(domain, carrier)))


def expr_to_json(e: FnExpr) -> dict:
    from .counterexample import Const, Join, Meet, Ramp, Res, TailIndicator
    if isinstance(e, Ramp):
        return {"kind": "ramp", "scale": format_fraction(e.scale)}
    if isinstance(e, TailIndicator):
        return {"kind": "indicator", "start": e.start}
    if isinstance(e, Const):
        return {"kind": "const", "value": format_fraction(e.value)}
    if isinstance(e, Join):
        return {"kind": "join", "left": expr_to_json(e.left),
                "right": expr_to_json(e.right)}
    if isinstance(e, Meet):
        return {"kind": "meet", "left": expr_to_json(e.left),
                "right": expr_to_json(e.right)}
    if isinstance(e, Res):
        return {"kind": "res", "const": format_fraction(e.const),
                "child": expr_to_json(e.child)}
    raise StructuralError(f"not an expression: {e!r}")


def _field(obj: dict, owner: str, name: str):
    if name not in obj:
        raise StructuralError(f"{owner} needs a {name!r} field")
    return obj[name]


def _unit_fraction(obj: dict, kind: str, name: str) -> Fraction:
    """A rational field of an expression that must lie in [0,1]."""
    v = parse_fraction(_field(obj, f"a {kind} expression", name))
    if not 0 <= v <= 1:
        raise StructuralError(
            f"{kind}.{name} must lie in [0,1], got {format_fraction(v)}")
    return v


def expr_from_json(obj: dict) -> FnExpr:
    """Parse one witness-catalog expression; see README for the format."""
    from .counterexample import Const, Join, Meet, Ramp, Res, TailIndicator
    if not isinstance(obj, dict):
        raise StructuralError(f"an expression must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    owner = f"a {kind} expression"
    if kind == "ramp":
        e = Ramp(_unit_fraction(obj, kind, "scale"))
    elif kind == "indicator":
        start = _integer(_field(obj, owner, "start"), "indicator.start")
        if start < 1:
            raise StructuralError(f"indicator.start must be at least 1, got {start}")
        e = TailIndicator(start)
    elif kind == "const":
        e = Const(_unit_fraction(obj, kind, "value"))
    elif kind in ("join", "meet"):
        e = (Join if kind == "join" else Meet)(expr_from_json(_field(obj, owner, "left")),
                                               expr_from_json(_field(obj, owner, "right")))
    elif kind == "res":
        e = Res(_unit_fraction(obj, kind, "const"),
                expr_from_json(_field(obj, owner, "child")))
    else:
        raise StructuralError(f"unknown expression kind {kind!r}")
    # each field is named as the expression's own
    _known(obj, owner, ("kind", *e.__slots__))
    return e


def _integer(value, name: str) -> int:
    """An integer field: a JSON integer or a string holding one."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise StructuralError(f"{name} must be an integer, got {value!r}")


def _count(value, name: str) -> int:
    """A non-negative integer field."""
    n = _integer(value, name)
    if n < 0:
        raise StructuralError(f"{name} must not be negative, got {n}")
    return n


class ScenarioSpec:
    """A parsed law-suite scenario file.

    Holds the carrier, the variant, the three label sets, optional explicit
    maps (as tables or generating bases), seeds, budgets and an optional
    witness catalog for counterexample runs.  The label sets are checked on
    load and built as ``FiniteSet``s only when a law run reads them.
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
        sets = _expect(obj.get("sets", {}), dict, "sets")
        _known(sets, "sets", ("X", "Y", "Z"))

        def checked_labels(name: str, default: list) -> tuple:
            labels = _expect(sets.get(name, default), list, f"sets.{name}")
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
        self.seed = _integer(obj.get("seed", 0), "seed")
        budgets = _expect(obj.get("budgets", {}), dict, "budgets")
        self.scenarios = _count(budgets.get("scenarios", 200), "budgets.scenarios")
        budget = budgets.get("budget")
        self.budget = None if budget is None else _count(budget, "budgets.budget")
        _known(budgets, "budgets", ("scenarios", "budget"))
        self.maps = obj.get("maps")
        wc = obj.get("witness_catalog")
        self.witness_catalog = None
        if wc is not None:
            if not _expect(wc, list, "witness_catalog"):
                raise StructuralError("witness_catalog must not be empty; "
                                      "leave it out for the default catalog")
            self.witness_catalog = [expr_from_json(e) for e in wc]
        _known(obj, "scenario", ("quantale", "variant", "sets", "seed", "budgets",
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
        """Decode the pinned f/g map values into tables, or None without maps.

        A ``maps`` object must pin both ``f`` and ``g``; a missing one is a
        StructuralError naming it.
        """
        if self.maps is None:
            return None
        _expect(self.maps, dict, "maps")
        for name in ("f", "g"):
            if self.maps.get(name) is None:
                raise StructuralError(f"maps needs both 'f' and 'g'; {name!r} is missing")
        _known(self.maps, "maps", ("f", "g"))
        out = {}
        for name, (src, dst) in (("f", (self.x_set, self.y_set)),
                                 ("g", (self.y_set, self.z_set))):
            raw = _expect(self.maps[name], dict, f"map {name}")
            decoded = {}
            for x in src:
                key = str(x)
                if key not in raw:
                    raise StructuralError(f"map {name} missing value at {key!r}")
                decoded[x] = self._decode_table(raw[key], dst, f"map {name} at {key!r}")
            _known(raw, f"map {name}", [str(x) for x in src])
            out[name] = decoded
        return out

    def _decode_table(self, obj, domain: FiniteSet, where: str) -> SemifilterTable:
        from .prefilter import normalize_basis
        from .semifilter import semifilter_of
        _expect(obj, dict, where)
        try:
            if "entries" in obj:
                return semifilter_from_json(obj, domain, self.carrier)
            if "basis" in obj:
                _known(obj, "a table", ("basis",))
                fns = [qfunction_from_json(b, domain, self.carrier)
                       for b in _expect(obj["basis"], list, "basis")]
                return semifilter_of(normalize_basis(fns, domain, self.carrier))
        except StructuralError as e:
            raise StructuralError(f"{where}: {e}") from None
        raise StructuralError(f"{where} needs either 'entries' or 'basis'")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise StructuralError(f"cannot read {path}: {e}") from None


def load_quantale(path):
    return quantale_from_json(load_json(path))


def load_scenario(path) -> ScenarioSpec:
    return ScenarioSpec(load_json(path), base_dir=Path(path).parent)


def render_text(report: dict, indent: int = 0) -> str:
    """Render the machine report as aligned text, one fact per line.

    The text and JSON forms carry the same information; nothing lives only
    in prose.
    """
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(value):
                lines.append(f"{pad}  [{i}]")
                lines.append(render_text(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(x for x in lines if x)
