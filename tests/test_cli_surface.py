"""The command line's help, usage errors and parsed options, pinned byte for
byte, and the argparse work one call does.

A plain call is read from the option table alone and builds no argparse
object; a help or error call builds the whole argparse tree from the same
table.  The pinned help and namespaces catch an option either path drops or
changes, and the work counts catch argparse work on a plain call.

Regenerate the pinned file with ``python tests/test_cli_surface.py`` (only
for a deliberate change to the command line).
"""

import argparse
import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest

from idealforge import cli
from idealforge.cli import build_parser, main

PINNED = Path(__file__).parent / "pinned_reports" / "cli_surface.json"

SUBCOMMANDS = ("oracle", "fs", "canonize", "adversary", "search", "verify")

INVOCATIONS = [("help", ["-h"]), ("no_subcommand", [])] + [
    (f"{name}_help", [name, "-h"]) for name in SUBCOMMANDS
] + [
    ("unknown_subcommand", ["nosuch"]),
    ("oracle_without_ideal", ["oracle", "--set", "1,2"]),
    ("oracle_bad_choice", ["oracle", "--ideal", "nope"]),
    ("fs_unknown_option", ["fs", "--op", "fs", "--bogus", "1"]),
]

# One parse per subcommand, root option included.
PARSES = {
    "oracle": ["--out", "r.json", "oracle", "--ideal", "vdw", "--set", "1,2,3"],
    "fs": ["fs", "--op", "fs", "--set", "1,2"],
    "canonize": ["canonize", "--kind", "pairs", "--phi", "min", "--window", "5"],
    "adversary": ["adversary", "--strategy", "w-summable", "--phi", "identity"],
    "search": ["search", "--src-ideal", "vdw", "--src-ground", "0..3",
               "--dst-ideal", "vdw", "--dst-ground", "0..3"],
    "verify": ["verify", "--what", "hnr", "--bundle", "b.json"],
}


def invocation(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def namespace(argv):
    args = vars(build_parser().parse_args(argv))
    return {key: value.__name__ if key == "func" else value
            for key, value in sorted(args.items())}


def surface() -> str:
    """The pinned document; needs COLUMNS=80 so help wraps the same way."""
    return json.dumps({
        "invocations": {name: invocation(argv) for name, argv in INVOCATIONS},
        "namespaces": {name: namespace(argv) for name, argv in PARSES.items()},
    }, indent=2) + "\n"


def test_help_usage_and_namespaces_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert surface() == PINNED.read_text(encoding="utf-8")


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def counted(monkeypatch, cls, method):
    """The positional arguments of each later call of cls.method."""
    calls = []
    original = getattr(cls, method)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counting)
    return calls


# Calls the table parser answers, beyond one per subcommand: a negative value,
# which argparse reads as a value, not as an option.
PLAIN = PARSES | {"negative_value": ["fs", "--op", "shift", "--set", "3,5", "--offset", "-2"]}
# Calls the table parser declines, each of which builds the argparse tree.
FALLBACKS = {name: argv for name, argv in INVOCATIONS if name != "no_subcommand"} | {
    "dash_value": ["fs", "--op", "fs", "--set", "-x"],
    "abbreviation": ["fs", "--op", "fs", "--se", "1,2"],
    "equals": ["fs", "--op=fs", "--set", "1,2"],
}
# Per call: ArgumentParsers constructed, add_argument calls and terminal-size
# reads.  The tree is the root and one parser per subcommand; its 61
# add_argument calls are the root's -h and --out, each subcommand's -h, and
# the 53 options of the table.
PLAIN_WORK = (0, 0, 0)
TREE_WORK = (1 + len(SUBCOMMANDS), 61, 1)
WORK = [(name, argv, PLAIN_WORK) for name, argv in PLAIN.items()] + [
    (name, argv, TREE_WORK) for name, argv in [("no_subcommand", []), *FALLBACKS.items()]]


def parse(argv):
    """build_parser().parse_args(argv), help and usage errors silenced."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pass


def test_the_argparse_tree_adds_every_subcommands_table_options():
    tree = cli._argparse_tree()
    assert list(subparsers(tree)) == list(SUBCOMMANDS) == list(cli._COMMANDS)
    for name, sub in subparsers(tree).items():
        assert [action.option_strings for action in sub._actions] == [
            ["-h", "--help"], *([flag] for flag in cli._COMMANDS[name].options)]


@pytest.mark.parametrize("name, argv, work", WORK, ids=[name for name, *_ in WORK])
def test_argument_parsers_built_per_call(name, argv, work, monkeypatch):
    inits = counted(monkeypatch, argparse.ArgumentParser, "__init__")
    parse(argv)
    assert len(inits) == work[0]


def test_one_parser_serves_every_subcommand_twice(monkeypatch, capsys):
    # The argparse tree gives each subcommand's help after other subcommands
    # have parsed, then again once it has parsed a call of its own; each of
    # those namespaces equals the table parser's.
    monkeypatch.setenv("COLUMNS", "80")
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))["invocations"]
    tree = cli._argparse_tree()
    for _ in range(2):
        for name, argv in PARSES.items():
            with pytest.raises(SystemExit):
                tree.parse_args([name, "-h"])
            assert capsys.readouterr().out == pinned[f"{name}_help"]["stdout"]
            assert vars(tree.parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("name, argv, work", WORK, ids=[name for name, *_ in WORK])
def test_add_argument_calls_per_parse(name, argv, work, monkeypatch):
    calls = counted(monkeypatch, argparse._ActionsContainer, "add_argument")
    parse(argv)
    assert len(calls) == work[1]


@pytest.mark.parametrize("name, argv, work", WORK, ids=[name for name, *_ in WORK])
def test_terminal_size_reads_per_parse(name, argv, work, monkeypatch):
    # The argparse tree reads the width once and hands it to every
    # formatter, which would otherwise each read it; a plain call reads none.
    calls, read = [], shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *args: calls.append(args) or read(*args))
    parse(argv)
    assert len(calls) == work[2]


@pytest.mark.parametrize("columns", ["40", "80", "132"])
def test_help_wraps_as_a_default_formatter_would(columns, monkeypatch):
    # The width read when the tree was built gives the same text as
    # argparse's own formatter, which reads the terminal size itself.
    monkeypatch.setenv("COLUMNS", columns)
    tree = cli._argparse_tree()
    parsers = [tree, *subparsers(tree).values()]
    assert len(parsers) == 1 + len(SUBCOMMANDS)
    for each in parsers:
        text = each.format_help()
        each.formatter_class = argparse.HelpFormatter
        assert each.format_help() == text, each.prog


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    PINNED.write_text(surface(), encoding="utf-8")
