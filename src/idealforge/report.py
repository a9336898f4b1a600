"""Itemized check reports and deterministic JSON serialization.

Reports are plain data: an ordered list of named pass/fail items plus free
metadata.  Serialization keeps insertion order, renders exact rationals as
"p/q" strings, and never embeds timestamps, so identical inputs give byte
identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List

from .ideals import EdgeSet, NatSet


# str() is used only on ints of at most this many bits (about 600 digits).
# That is under the lowest limit (640 digits) an interpreter may put on
# int-to-decimal conversion, so certificates of any size serialize.
_STR_BITS = 2000


def _decimal(n: int) -> str:
    """Decimal digits of n >= 0, split by divide and conquer into ints that
    str() converts under any interpreter limit."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def rational_str(q: Fraction) -> str:
    q = Fraction(q)
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}{_decimal(abs(q.numerator))}/{_decimal(q.denominator)}"


# Leaves returned as they are.  Matched by exact type, they skip the
# isinstance chain below, whose Fraction test is an ABCMeta call.
_LEAVES = frozenset({int, str, bool, type(None)})


def jsonable(value: Any) -> Any:
    """Recursively convert toolkit values into JSON-ready structures."""
    if type(value) in _LEAVES:
        return value
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, NatSet):
        return list(value.elements)
    if isinstance(value, EdgeSet):
        return {"n": value.n, "edges": [list(e) for e in sorted(value.edges)]}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if hasattr(value, "elements"):
        return list(value.elements)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_stable(obj: Any) -> str:
    """JSON with fixed (insertion) key order and a trailing newline: the
    bytes of ``json.dumps(jsonable(obj), indent=2) + "\\n"``."""
    return _indented(jsonable(obj), "") + "\n"


_quoted = json.encoder.encode_basestring_ascii


def _indented(value: Any, indent: str) -> str:
    """A jsonable value as json.dumps(value, indent=2) writes it, nested at
    ``indent``.  json.dumps runs its pure-Python encoder whenever indent is
    set; this builds the same layout by joins, one join for a list of ints."""
    if isinstance(value, str):
        return _quoted(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is int for v in value):
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_indented(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_quoted(k)}: {_indented(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class Report:
    """Ordered pass/fail items with optional free-form metadata."""

    items: List[CheckItem] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, passed: bool, detail: str = "") -> "Report":
        self.items.append(CheckItem(name, bool(passed), detail))
        return self

    def fail(self, name: str, detail: str) -> None:
        """Mark the added item ``name`` failed; an item keeps the detail of
        its first failure."""
        item = self.items[[it.name for it in self.items].index(name)]
        if item.passed:
            item.passed, item.detail = False, detail

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failed_names(self) -> List[str]:
        return [item.name for item in self.items if not item.passed]

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "items": [it.to_json_dict() for it in self.items],
            "meta": jsonable(self.meta),
        }
