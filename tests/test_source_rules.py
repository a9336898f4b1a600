"""Rules every library module keeps, checked on its syntax tree."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import idealforge
from idealforge.adversary import STRATEGIES
from idealforge.canonical import CanonicalCase
from idealforge.cli import _BUDGET_OPTIONS, _STRATEGY_INPUTS

from conftest import subprocess_env

PACKAGE = Path(idealforge.__file__).parent
TESTS = Path(__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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


def test_only_canonical_reads_a_colorings_evaluator():
    # A coloring checks each value it evaluates: its window, and that the
    # value is a natural.  An engine calling ``_fn`` directly would skip
    # those checks, so engines evaluate through ``__call__`` or
    # ``values(points)``.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "canonical.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_fn"]
    assert found == []


def test_majorants_have_one_sum_and_no_module_reads_a_coloring_window():
    # A rule's majorant depends only on the rule and the step range, so
    # adversary sums the terms only in ``_majorant``, which caches each
    # (term, steps); a sum with a start value anywhere else would be a
    # second, uncached majorant.  Colorings are queried through
    # ``__call__`` or ``values``, so no module calls a ``read`` method.
    path = PACKAGE / "adversary.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_majorant")
    started = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "sum" and len(node.args) == 2]
    assert started and all(node in ast.walk(helper) for node in started)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "read"]
    assert found == []


def test_a_steps_checks_have_one_record():
    # A step's checks are held, re-verified and written as the columns of
    # one report.StepChecks; a second class with an ``args`` slot would be a
    # second record of a check, such as a row beside the columns.
    path = PACKAGE / "report.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and any(isinstance(stmt, ast.Assign)
                     and any(getattr(target, "id", None) == "__slots__" for target in stmt.targets)
                     and "args" in ast.literal_eval(stmt.value) for stmt in node.body)]
    assert found == ["StepChecks"]


def _traced_names():
    """(label, owner, attribute) for each library name the benchmark's
    tracer wraps, read off the SPANNED, SPANNED_METHODS and COUNTED_METHODS
    assignments in bench/tracing.py without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}

    def module(node):
        return importlib.import_module(f"idealforge.{node.id}")

    def owner(node):  # module.Class
        return getattr(module(node.value), node.attr)

    out = []
    spanned = tables["SPANNED"]
    for key, names in zip(spanned.keys, spanned.values):
        out += [(key.id, module(key), name.value) for name in names.elts]
    for row in tables["SPANNED_METHODS"].elts:
        out.append((ast.unparse(row.elts[1]), owner(row.elts[1]), row.elts[2].value))
    for row in tables["COUNTED_METHODS"].elts:
        out.append((ast.unparse(row.elts[1]), owner(row.elts[1]), row.elts[2].value))
    return out


def test_every_name_the_benchmark_tracer_wraps_exists():
    # Tracer.install looks each name up with getattr (a method in the class
    # dict), so a library rename would break `bench/run.py --trace 1` while
    # every other test still passes.
    traced = _traced_names()
    assert len(traced) > 20
    missing = [f"{label}.{name}" for label, owner, name in traced
               if not (name in vars(owner) if isinstance(owner, type)
                       else callable(getattr(owner, name, None)))]
    assert missing == []


def test_strategy_names_are_dispatched_only_through_the_strategy_table():
    # A strategy's engine, coloring kind, image rule, step rules and budget
    # fields live in its adversary.STRATEGIES row, and its options reader and
    # operands in cli._STRATEGY_INPUTS; a comparison against a strategy's
    # name would be a second dispatch.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                          and leaf.value in STRATEGIES for leaf in ast.walk(node))]
    assert found == []
    assert list(_STRATEGY_INPUTS) == list(STRATEGIES)


def _engine_bodies():
    """Each strategy's engine, by strategy, as its syntax tree."""
    path = PACKAGE / "adversary.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {name: funcs[row.engine.__name__] for name, row in STRATEGIES.items()}


def test_step_rules_are_stated_only_in_the_strategy_table():
    # Each step threshold and majorant term is a (threshold(n), term(n)) rule
    # in a STRATEGIES row's rules; an engine that shifts or raises to a power
    # with its step index, or makes a Fraction for each step, would state a
    # rule a second time.  One Fraction made outside the step loops (a sum's
    # start, CONST's 1/(v + 1)) states none.
    per_step = (ast.For, ast.While, ast.Lambda, ast.GeneratorExp, ast.ListComp, ast.SetComp)
    powers, fractions = [], []
    for name, func in _engine_bodies().items():
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.Pow)) \
                    and any(isinstance(leaf, ast.Name) and leaf.id == "n"
                            for leaf in ast.walk(node)):
                powers.append(f"{name}:{node.lineno}")
            if isinstance(node, per_step):
                fractions += [f"{name}:{call.lineno}" for call in ast.walk(node)
                              if isinstance(call, ast.Call)
                              and getattr(call.func, "id", None) == "Fraction"]
    assert powers == [] and fractions == []


def _refused_cases(func):
    """The cases an engine refuses before any search: an ``if case is X``
    or ``if case in (X, ...)`` at the top of its body whose branch raises."""
    out = set()
    for stmt in func.body:
        test = stmt.test if isinstance(stmt, ast.If) else None
        if (isinstance(test, ast.Compare) and getattr(test.left, "id", None) == "case"
                and all(isinstance(part, ast.Raise) for part in stmt.body)):
            out |= {CanonicalCase[leaf.attr] for leaf in ast.walk(test.comparators[0])
                    if isinstance(leaf, ast.Attribute)}
    return out


def test_every_case_an_engine_takes_has_a_step_rule():
    # CONST's one step has its constant value as threshold and 1/(v + 1) as
    # majorant; every other case an engine takes reads its rule by case.
    bodies = _engine_bodies()
    for name in ("h-summable", "r-summable"):
        taken = set(CanonicalCase) - _refused_cases(bodies[name]) - {CanonicalCase.CONST}
        assert set(STRATEGIES[name].rules) == taken, name
    assert _refused_cases(bodies["r-summable"]) == {CanonicalCase.MINMAX}
    assert list(STRATEGIES["w-summable"].rules) == [None]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_ROW = object()  # what a loop over STRATEGIES' values or items binds


def _scope_nodes(scope):
    """The nodes of one scope, not those of the functions and classes it holds."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _is_table(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "STRATEGIES"


def _bindings(node):
    """(target, value) of each binding node makes; a loop over STRATEGIES'
    values, or the second target of one over its items, binds _ROW."""
    if isinstance(node, ast.Assign):
        return [(target, node.value) for target in node.targets]
    if isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
        return [(node.target, node.value)]
    method = getattr(getattr(node, "iter", None), "func", None)
    if isinstance(node, (ast.For, ast.comprehension)) and isinstance(method, ast.Attribute) \
            and _is_table(method.value):
        if method.attr == "values":
            return [(node.target, _ROW)]
        if method.attr == "items" and isinstance(node.target, ast.Tuple):
            return [(node.target.elts[1], _ROW)]
    return []


def _positional_row_reads(tree):
    """The line of each read of a STRATEGIES row by position: a subscript of
    ``STRATEGIES[...]`` or of a name bound to a row, an unpacking of a row,
    or a row starred into a call."""
    found = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, _SCOPES))]:
        nodes, rows = list(_scope_nodes(scope)), set()

        def is_row(node):
            return node is _ROW or isinstance(node, ast.Name) and node.id in rows \
                or isinstance(node, ast.Subscript) and _is_table(node.value)

        for target, value in (pair for node in nodes for pair in _bindings(node)):
            if is_row(value) and isinstance(target, ast.Name):
                rows.add(target.id)
            elif is_row(value) and isinstance(target, (ast.Tuple, ast.List)):
                found.append(target.lineno)
        found += [node.lineno for node in nodes
                  if isinstance(node, (ast.Subscript, ast.Starred)) and is_row(node.value)]
    return sorted(found)


def test_a_strategy_row_is_read_by_field_name_only():
    # A row's fields are named, so a read by position would break silently
    # when a field is added; and a strategy's budget fields are stated in its
    # row alone, so its options reader names none of the budget options.
    found = []
    for path in [*sorted(PACKAGE.rglob("*.py")), *sorted(TESTS.glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _positional_row_reads(tree)]
    assert found == []
    for _, operands in _STRATEGY_INPUTS.values():
        assert set(operands).isdisjoint(_BUDGET_OPTIONS)


def test_every_argument_parser_in_the_library_passes_a_formatter_class():
    # A parser made without one gets argparse's HelpFormatter class, which
    # reads the terminal size again for each option added; the argparse
    # tree reads it once and passes it on in the formatter class.  A
    # subparser's add_parser call makes a parser too, and does not inherit
    # the root's formatter class.
    found, made = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) in (
                    "ArgumentParser", "add_parser"):
                made += 1
                if not any(kw.arg == "formatter_class" for kw in node.keywords):
                    found.append(f"{path.name}:{node.lineno}")
    assert made >= 2 and found == []


def test_report_values_are_converted_only_by_the_writer():
    # report.dumps_stable converts toolkit values (rationals, NatSets, bases)
    # as it writes them; an object's to_json_dict and a CLI subcommand hand
    # it their values as the library returns them, so no second conversion
    # of the same value can drift from the writer's.
    found, read = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) or not (
                    func.name == "to_json_dict"
                    or path.name == "cli.py" and func.name.startswith("_cmd_")):
                continue
            read.append((path.name, func.name))
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("rational_str", "jsonable") or name == "list" and any(
                        isinstance(arg, ast.Attribute) and arg.attr == "elements"
                        for arg in node.args):
                    found.append(f"{path.name}:{node.lineno}")
    # Record's default form and the three records that give their own.
    forms = [(name, "to_json_dict") for name in
             ("adversary.py", "reduction.py", "report.py")]
    commands = [("cli.py", f"_cmd_{name}") for name in
                ("adversary", "canonize", "fs", "oracle", "search", "verify")]
    assert sorted(read) == sorted(forms + commands)
    assert found == []


def test_the_writer_imports_no_engine_layer():
    # report.py writes any record from its slots, with no hook per record
    # class, so it needs nothing from the layers whose records it writes.
    path = PACKAGE / "report.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    layers = {"adversary", "canonical", "sparse", "reduction", "cli"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names
                                           if node.level and not node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"report.py:{node.lineno}" for name in names
                  if set(name.split(".")) & layers]
    assert found == []


def test_the_engines_decide_conflicts_by_mask_not_by_building_conflict_sets():
    # A sum x of FS(D) meets the conflict set of y iff D.mask(x) & D.mask(y),
    # so the engines and checkers ask that of each sum they test; a built
    # conflict set would be a second formulation of the same question.
    path = PACKAGE / "adversary.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"adversary.py:{node.lineno}" for alias in node.names
                      if alias.name.split(".")[-1] == "conflict_set"]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("conflict_set", "sums_meeting"):
                found.append(f"adversary.py:{node.lineno}")
    assert found == []


def test_only_record_fill_sets_a_slot_past_the_records_refusal():
    # Every record refuses assignment once built; ``Record._fill`` is the one
    # way to set its slots, so no record is filled, or changed, any other way.
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                found.append((path.name, ".".join(scope)))
            visit(child, path, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, ())
    assert found == [("ideals.py", "Record._fill")]


def test_no_library_module_imports_dataclasses():
    # Importing dataclasses loads inspect, ast, dis and tokenize, and each
    # @dataclass exec()s its methods: together about half of a CLI start-up.
    # The records are plain slotted classes instead.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Module names, not a time: a fresh interpreter that imports the CLI
    # must not pull in either module through any import the package makes.
    # It must load every layer, since bench/tracing.import_ms takes the
    # median of each layer's import time over such spawns.
    layers = [f"idealforge.{name}" for name in
              ("ideals", "sparse", "canonical", "adversary", "reduction", "report", "cli")]
    code = ("import sys, idealforge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
            f"print(sorted(set({layers!r}) - set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env(), timeout=60, check=True)
    assert done.stdout.split("\n") == ["[]", "[]", ""]
