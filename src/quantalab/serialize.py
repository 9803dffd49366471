"""Bit-exact JSON serialization for quantales, and reports.

Rationals travel as "num/den" strings so that files round-trip exactly;
``as_fraction`` is the one coercion of an input value to a rational.
Parsers check the JSON shape and refuse unknown fields with
StructuralError, through the shape helpers ``expect``, ``required_field``,
``refuse_unknown`` and ``parse_integer``; the library objects they build
coerce each value, so the CLI maps either refusal to the input-error exit
code.  ``render_text`` writes a report as text.

Scenario files, and the functions and tables they pin, are read by
``scenario``, which ``load_scenario`` imports when it is called; the
witness expressions of a counterexample catalog are read and written by
``counterexample``.  Each carrier is likewise imported by the functions
that build or write it, so reading a t-norm definition loads only
``quantale``, and reading a finite one only ``finite``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import StructuralError, UsageError

if TYPE_CHECKING:
    from .scenario import ScenarioSpec


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/8' and Fractions to a Fraction; anything
    else, a bool (a JSON true or false) too, is a UsageError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"not an exact rational: {value!r}")


def format_fraction(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def format_generator(elements, row) -> str:
    """A generator row of carrier positions as the elements it holds."""
    return f"generator ({', '.join(format_fraction(elements[i]) for i in row)})"


def parse_fraction(s) -> Fraction:
    """``as_fraction`` raising StructuralError, which a pinned map's reader locates."""
    try:
        return as_fraction(s)
    except UsageError as e:
        raise StructuralError(str(e)) from None


def quantale_to_json(q) -> dict:
    from .finite import FiniteQuantale
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
    from .quantale import TNorm
    if isinstance(q, TNorm):
        return {"type": "tnorm",
                "blocks": [{"lo": format_fraction(b.lo),
                            "hi": format_fraction(b.hi),
                            "kind": b.kind.value} for b in q.blocks]}
    raise StructuralError(f"not a quantale: {q!r}")


def _format_rows(rows, names: list[str]) -> list[list[str]]:
    return [[names[i] for i in row] for row in rows]


def quantale_from_json(obj: dict):
    if not isinstance(obj, dict) or "type" not in obj:
        raise StructuralError("quantale definition needs a 'type' field")
    if obj["type"] == "tnorm":
        from .quantale import build_ordinal_sum
        blocks = expect(obj.get("blocks", []), list, "blocks")
        refuse_unknown(obj, "quantale definition", ("type", "blocks"))
        return build_ordinal_sum(_block_from_json(b, f"blocks[{i}]")
                                 for i, b in enumerate(blocks))
    if obj["type"] == "finite":
        # FiniteQuantale reads each element, entry and the unit
        from .finite import FiniteQuantale
        try:
            carrier = expect(obj["carrier"], list, "carrier")
            tensor = _rows(obj["tensor"], "tensor")
            unit = obj["unit"]
        except KeyError as e:
            raise StructuralError(f"finite quantale definition missing {e}") from None
        join, meet = (None if obj.get(name) is None else _rows(obj[name], name)
                      for name in ("join", "meet"))
        refuse_unknown(obj, "quantale definition",
                       ("type", "carrier", "tensor", "unit", "join", "meet"))
        return FiniteQuantale(carrier, tensor, unit, join=join, meet=meet)
    raise StructuralError(f"unknown quantale type {obj['type']!r}")


def expect(value, kind: type, name: str):
    """value itself, if it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise StructuralError(f"{name} must be {what}, got {value!r}")
    return value


def refuse_unknown(obj: dict, where: str, names) -> None:
    """Refuse a field of obj that its reader does not read."""
    for name in obj:
        if name not in names:
            raise StructuralError(f"{where} has an unknown field {name!r}")


def _rows(rows, name: str) -> list:
    """The rows of a table, if it is a list of lists; the entries are not read."""
    return [expect(row, list, f"{name}[{i}]")
            for i, row in enumerate(expect(rows, list, name))]


def _block_from_json(obj, where: str) -> tuple:
    """One t-norm block as a (lo, hi, kind) triple for ``build_ordinal_sum``."""
    expect(obj, dict, where)
    block = tuple(required_field(obj, where, name) for name in ("lo", "hi", "kind"))
    refuse_unknown(obj, where, ("lo", "hi", "kind"))
    return block


def required_field(obj: dict, owner: str, name: str):
    """obj[name], refused when obj has no such field."""
    if name not in obj:
        raise StructuralError(f"{owner} needs a {name!r} field")
    return obj[name]


def parse_integer(value, name: str) -> int:
    """An integer field: a JSON integer or a string holding one."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise StructuralError(f"{name} must be an integer, got {value!r}")


def _unique_fields(pairs: list) -> dict:
    """A JSON object's fields, refused when one is given twice: the JSON
    reader would keep only the last."""
    out = {}
    for name, value in pairs:
        if name in out:
            raise ValueError(f"the field {name!r} is given twice in one object")
        out[name] = value
    return out


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_fields)
    except (OSError, ValueError) as e:
        raise StructuralError(f"cannot read {path}: {e}") from None


def load_quantale(path):
    return quantale_from_json(load_json(path))


def load_scenario(path) -> ScenarioSpec:
    from .scenario import ScenarioSpec
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
