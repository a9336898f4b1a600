"""The command line's help, usage errors and parsed options, pinned byte for
byte, and the argparse work one call does.

A subcommand's parser, with its options, is built the first time a call
names that subcommand, so the pinned help and namespaces catch an option
that lazy building drops, and the parser and action counts catch work done
for subcommands not named.

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


def test_a_call_adds_only_the_named_subcommands_options():
    parser = build_parser()
    parser.parse_args(PARSES["fs"])
    built = {name: sub for name, sub in subparsers(parser).items()
             if isinstance(sub, argparse.ArgumentParser)}
    assert list(built) == ["fs"]
    assert [action.dest for action in built["fs"]._actions] == [
        "help", "op", "set", "pool", "k", "x", "y", "offset", "direction"]
    assert list(subparsers(parser)) == list(SUBCOMMANDS)
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_argument_parsers_built_per_call(name, monkeypatch):
    # The root parser, then the named subcommand's parser and no other.
    inits = counted(monkeypatch, argparse.ArgumentParser, "__init__")
    parser = build_parser()
    assert len(inits) == 1
    parser.parse_args(PARSES[name])
    assert len(inits) == 2


def test_one_parser_serves_every_subcommand_twice(monkeypatch, capsys):
    # Each subcommand's help is first asked for after other subcommands
    # have parsed, then again once its own parser is built and has parsed.
    monkeypatch.setenv("COLUMNS", "80")
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))["invocations"]
    parser = build_parser()
    for _ in range(2):
        for name, argv in PARSES.items():
            with pytest.raises(SystemExit):
                parser.parse_args([name, "-h"])
            assert capsys.readouterr().out == pinned[f"{name}_help"]["stdout"]
            assert vars(parser.parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("name, added", [
    ("oracle", 16), ("fs", 11), ("canonize", 9), ("adversary", 13), ("search", 12),
    ("verify", 10),
])
def test_add_argument_calls_per_parse(name, added, monkeypatch):
    # The root's two options and the named subcommand's -h are common to
    # every call; the rest are that subcommand's own options.
    calls = counted(monkeypatch, argparse._ActionsContainer, "add_argument")
    build_parser().parse_args(PARSES[name])
    assert len(calls) == added


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_terminal_size_read_per_parse(name, monkeypatch):
    # build_parser reads the width once and hands it to every formatter,
    # which would otherwise each read it: 13.7 reads a call on average.
    calls, read = [], shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *args: calls.append(args) or read(*args))
    build_parser().parse_args(PARSES[name])
    assert len(calls) == 1


@pytest.mark.parametrize("columns", ["40", "80", "132"])
def test_help_wraps_as_a_default_formatter_would(columns, monkeypatch):
    # The width read when the parser was built gives the same text as
    # argparse's own formatter, which reads the terminal size itself.
    monkeypatch.setenv("COLUMNS", columns)
    parser = build_parser()
    for argv in PARSES.values():
        parser.parse_args(argv)
    parsers = [parser, *subparsers(parser).values()]
    assert len(parsers) == 1 + len(SUBCOMMANDS)
    for each in parsers:
        text = each.format_help()
        each.formatter_class = argparse.HelpFormatter
        assert each.format_help() == text, each.prog


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    PINNED.write_text(surface(), encoding="utf-8")
