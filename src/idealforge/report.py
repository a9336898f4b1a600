"""Itemized check reports and deterministic JSON serialization.

Reports are plain data: an ordered list of named pass/fail items plus free
metadata.  ``dumps_stable`` is the one place where a toolkit value becomes
JSON.  It walks its argument once and converts each value as it writes it:
exact rationals as "p/q" strings, NatSets and sets as sorted lists, EdgeSets
as {"n", "edges"}, and an object through its ``to_json_dict``, which lists
its fields unconverted.  A record without its own form is written as its
fields in slot order, straight from its slots, by one format per class and
indent; ``Transcript``, ``Report`` and ``SearchOutcome`` give their own.  A
``StepChecks`` is written as the list of its check rows, by one format per step.
Output keeps insertion order and never embeds timestamps, so identical
inputs give byte identical output.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from operator import attrgetter, eq, ge, gt
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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

# Each class the writer has met: its field names if it is a record without its
# own form, else ().  A StepChecks is written by ``_step_checks``.
_fields: Dict[type, Tuple[str, ...]] = {}
# Each (record class, indent) written: the format of one record there, the
# getter of its fields, the fields' indent, and the open, separator and close
# of an int tuple field.
_formats: Dict[tuple, Tuple[str, Callable, str, str, str, str]] = {}


def _record_fields(cls: type) -> Tuple[str, ...]:
    names = _fields.get(cls)
    if names is None:
        names = _fields[cls] = (cls._field_names if issubclass(cls, Record)
                                and cls is not StepChecks
                                and not hasattr(cls, "to_json_dict") else ())
    return names


def _record_format(cls: type, indent: str) -> Tuple[str, Callable, str, str, str, str]:
    made = _formats.get((cls, indent))
    if made is None:
        names = _record_fields(cls)
        inner = indent + "  "
        fmt = "{\n" + inner + (",\n" + inner).join(
            _quoted(name) + ": %s" for name in names) + "\n" + indent + "}"
        get = one = attrgetter(*names)
        if len(names) == 1:  # then attrgetter gives the value, not a 1-tuple
            get = lambda item: (one(item),)
        deep = inner + "  "
        made = _formats[cls, indent] = (fmt, get, inner, "[\n" + deep, ",\n" + deep,
                                        "\n" + inner + "]")
    return made


def _records(items: Sequence[Record], indent: str) -> str:
    """Records of one class without its own form, each written at ``indent``
    and joined as the items of a list there.  A field that is an exact str,
    an exact int or a non-empty tuple of exact ints is written inline; any
    other goes through ``_indented``."""
    fmt, get, inner, open_ints, int_sep, close_ints = _record_format(type(items[0]), indent)
    out = []
    for item in items:
        cells = []
        for v in get(item):
            t = type(v)
            if t is str:
                cells.append(_quoted(v))
            elif t is int:
                cells.append(int.__repr__(v))
            elif t is tuple and v and all(type(x) is int for x in v):
                cells.append(open_ints + int_sep.join(map(int.__repr__, v)) + close_ints)
            else:
                cells.append(_indented(v, inner))
        out.append(fmt % tuple(cells))
    return (",\n" + indent).join(out)


# One check row of a column record at indent {i}, its fields at {f}: kind,
# relation and bound baked in, "%d" for each args entry and for the value.
_CHECK_ROW = ('{{\n{f}"kind": {kind},\n{f}"args": [\n{f}  {args}\n{f}],\n{f}"value": %d,'
              '\n{f}"relation": {relation},\n{f}"bound": {bound}\n{i}}}')


def _step_checks(checks: StepChecks, indent: str) -> str:
    """A column record as the JSON list of its check rows (kind, args, value,
    relation, bound), by one format for the step.  ``StepChecks`` admits only
    columns this format writes: its kind and relation hold no "%"."""
    if not checks.values:
        return "[]"
    inner = indent + "  "
    f = inner + "  "
    row = _CHECK_ROW.format(i=inner, f=f, kind=_quoted(checks.kind),
                            args=(",\n" + f + "  ").join(["%d"] * len(checks.args[0])),
                            relation=_quoted(checks.relation), bound=int.__repr__(checks.bound))
    body = (",\n" + inner).join([row % (*a, v) for a, v in zip(checks.args, checks.values)])
    return f"[\n{inner}{body}\n{indent}]"


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
        kind = type(value[0])
        if kind is int and all(type(v) is int for v in value):
            body = sep.join(map(int.__repr__, value))
        elif _record_fields(kind) and all(type(v) is kind for v in value):
            body = _records(value, inner)
        else:
            body = sep.join([_indented(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if cls is dict:
        if not value:
            return "{}"
        body = sep.join([f"{_quoted(str(k))}: {_indented(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if cls is StepChecks:
        return _step_checks(value, indent)
    if _record_fields(cls):
        return _records((value,), indent)
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


RELATIONS = {">": gt, ">=": ge, "==": eq}  # the test of each check relation
_WIDTHS = {"nat": 1, "pair": 2}  # the args width of each check kind


class StepChecks(Record):
    """A step's checks as columns: the kind ("nat" or "pair"), relation and
    bound they share, and each check's point (``args``, a tuple of one int
    for nat, two for pair) and ``value``.  Every bound, value and args entry
    is an exact int, and the relation a key of ``RELATIONS``; any other
    column is a ValueError, so every record built can be written and
    re-verified."""

    __slots__ = ("kind", "relation", "bound", "args", "values")

    def __init__(self, kind: str, relation: str, bound: int, args: Tuple[Tuple[int, ...], ...],
                 values: Tuple[int, ...]):
        if len(args) != len(values):
            raise ValueError(f"{len(args)} check points vs {len(values)} values")
        width = _WIDTHS.get(kind) if type(kind) is str else None
        if width is None:
            raise ValueError(f"check kind {kind!r} is not 'nat' or 'pair'")
        if type(relation) is not str or relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        if type(bound) is not int or not set(map(type, values)) <= {int}:
            raise ValueError("a check bound or value is not an int")
        if not (set(map(type, args)) <= {tuple} and set(map(len, args)) <= {width}
                and set(map(type, itertools.chain.from_iterable(args))) <= {int}):
            raise ValueError(f"{kind} check args are not tuples of {width} ints")
        self._fill(kind, relation, bound, args, values)

    def __len__(self) -> int:
        return len(self.values)


class CheckItem(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._fill(name, passed, detail)


class Report(Record):
    """Ordered pass/fail items with optional free-form metadata."""

    __slots__ = ("items", "meta")

    def __init__(self, items: Optional[List[CheckItem]] = None,
                 meta: Optional[Dict[str, Any]] = None):
        self._fill([] if items is None else items, {} if meta is None else meta)

    def add(self, name: str, passed: bool, detail: str = "") -> "Report":
        self.items.append(CheckItem(name, bool(passed), detail))
        return self

    def fail(self, name: str, detail: str) -> None:
        """Replace the added item ``name`` by a failed one with ``detail``;
        an item keeps the detail of its first failure."""
        at = [item.name for item in self.items].index(name)
        if self.items[at].passed:
            self.items[at] = CheckItem(name, False, detail)

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
