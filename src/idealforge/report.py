"""Itemized check reports and deterministic JSON serialization.

Reports are plain data: an ordered list of named pass/fail items plus free
metadata.  ``dumps_stable`` is the one place where a toolkit value becomes
JSON.  It walks its argument once and converts each value as it writes it:
exact rationals as "p/q" strings, NatSets and sets as sorted lists, EdgeSets
as {"n", "edges"}, and an object through its ``to_json_dict``, which lists
its fields unconverted.  A record without its own form is written as its
fields in slot order, straight from its slots; ``Transcript``, ``Report`` and
``SearchOutcome`` give their own.  Output keeps insertion order and never
embeds timestamps, so identical inputs give byte identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Optional

from .ideals import EdgeSet, NatSet, Record


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
    if type(q) is not Fraction:
        q = Fraction(q)
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}{_decimal(abs(q.numerator))}/{_decimal(q.denominator)}"


def dumps_stable(obj: Any) -> str:
    """``obj`` as JSON with fixed (insertion) key order and a trailing
    newline, converting toolkit values as it writes them: the bytes of
    ``json.dumps(value, indent=2) + "\\n"`` for the converted value."""
    return _indented(obj, "") + "\n"


_quoted = json.encoder.encode_basestring_ascii

# Each written record class without its own form: its (slot, '"slot": ')
# pairs in slot order.
_heads: Dict[type, List[tuple]] = {}


def _indented(value: Any, indent: str) -> str:
    """A toolkit value in JSON, laid out as json.dumps(indent=2) lays out its
    conversion, nested at ``indent``.  Common types are matched exactly, and
    subclasses of str, int, list, tuple and dict are written as their base.
    json.dumps runs its pure-Python encoder whenever indent is set; this
    builds the same layout by joins, one join for a list of ints or a record."""
    cls = type(value)
    if cls is str:
        return _quoted(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    sep = ",\n" + inner
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        if all(type(v) is int for v in value):
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_indented(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if cls is dict:
        if not value:
            return "{}"
        body = sep.join([f"{_quoted(str(k))}: {_indented(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    heads = _heads.get(cls)
    if heads is None and issubclass(cls, Record) and not hasattr(cls, "to_json_dict"):
        heads = _heads[cls] = [(name, _quoted(name) + ": ") for name in cls.__slots__]
    if heads:
        parts = []
        for name, head in heads:
            v = getattr(value, name)
            t = type(v)
            parts.append(head + (_quoted(v) if t is str else int.__repr__(v) if t is int
                                 else _indented(v, inner)))
        return f"{{\n{inner}{sep.join(parts)}\n{indent}}}"
    if cls is Fraction:
        return _quoted(rational_str(value))
    if cls is NatSet:
        return _indented(value.elements, indent)
    if cls is EdgeSet:
        return _indented({"n": value.n, "edges": sorted(value.edges)}, indent)
    if cls is set or cls is frozenset:
        return _indented(sorted(value), indent)
    if hasattr(value, "to_json_dict"):
        return _indented(value.to_json_dict(), indent)
    if hasattr(value, "elements"):
        return _indented(list(value.elements), indent)
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _indented(list(value), indent)
    if isinstance(value, dict):
        return _indented(dict(value.items()), indent)
    raise TypeError(f"cannot serialize {cls.__name__}")


class CheckItem(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail


class Report(Record):
    """Ordered pass/fail items with optional free-form metadata."""

    __slots__ = ("items", "meta")

    def __init__(self, items: Optional[List[CheckItem]] = None,
                 meta: Optional[Dict[str, Any]] = None):
        self.items = [] if items is None else items
        self.meta = {} if meta is None else meta

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
            "items": self.items,
            "meta": self.meta,
        }
