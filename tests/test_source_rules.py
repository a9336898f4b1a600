"""Rules every library module keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import idealforge

PACKAGE = Path(idealforge.__file__).parent


def test_no_assert_statements_in_the_library():
    # `python -O` strips assert statements, so an invariant checked by one
    # would go unchecked; library code raises a typed error instead.
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_global_int_digit_limit_changes_in_the_library():
    # The limit on int-to-decimal conversion is process-wide state; reports
    # of big certificates convert in pieces instead of raising it.
    found = [path.name for path in sorted(PACKAGE.rglob("*.py"))
             if "set_int_max_str_digits" in path.read_text(encoding="utf-8")]
    assert found == []


def test_dumps_stable_is_the_only_indented_json_writer():
    # Reports are written by report.dumps_stable, whose bytes equal
    # json.dumps(indent=2)'s; a second indented writer would be a second
    # code path for the same bytes, and json's slow pure-Python one.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
                  and any(kw.arg == "indent" for kw in node.keywords)]
    assert found == []


def test_only_ideals_reads_the_natset_member_set():
    # NatSet makes its member frozenset lazily for the sets the library
    # builds itself; a module reading ``_members`` directly could see it
    # unbuilt, so membership goes through ``in`` and ``issubset``.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "ideals.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_members"]
    assert found == []
