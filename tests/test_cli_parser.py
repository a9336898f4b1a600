"""The table parser against argparse, its slow oracle.

``cli._parse_plain`` reads a plain call from the option table alone and
declines any other argv; the argparse tree, built from the same table,
parses every argv.  Wherever the table parser answers, its namespace must
equal argparse's.  The argvs are drawn from the table, plain and mutated,
and taken from both pinned corpora.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealforge import cli

from corpus import CORPORA

SETTINGS = settings(max_examples=300, deadline=None)

# A value argparse reads as a value, not as an option.
TEXT = st.text(max_size=6).filter(lambda text: not text.startswith("-"))
DIGITS = st.from_regex(r"[0-9]{1,5}", fullmatch=True)
# Int texts that int() alone may read but _int refuses: not ASCII digits only.
NOT_ASCII_INTS = ["٣", "²", "1_0", " 3", "+4", "3\n", "1e3", "", "0x1"]


@pytest.fixture(scope="module")
def tree():
    return cli._argparse_tree()


def argparse_vars(tree, argv):
    """vars() of argparse's namespace, or None where it exits: help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(tree.parse_args(argv))
        except SystemExit:
            return None


def answered(tree, argv) -> bool:
    """Whether the table parser answers argv, asserting that it answers as argparse does."""
    args = cli._parse_plain(list(argv))
    if args is None:
        return False
    assert vars(args) == argparse_vars(tree, argv), argv
    return True


def values(option):
    if option.choices is not None:
        return st.sampled_from(option.choices)
    return DIGITS if option.type is cli._int else TEXT


@st.composite
def plain_calls(draw):
    """(root pairs, subcommand, option pairs) of a call the table parser must answer."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[name].options
    flags = draw(st.permutations(
        [flag for flag, option in options.items() if option.required or draw(st.booleans())]))
    root = [["--out", draw(TEXT)]] if draw(st.booleans()) else []
    return root, name, [[flag, draw(values(options[flag]))] for flag in flags]


def argv_of(call):
    root, name, pairs = call
    return [token for pair in root for token in pair] + [name] + [
        token for pair in pairs for token in pair]


def pick(draw, pairs, keep):
    """The index of a drawn flag-value pair whose flag ``keep`` accepts, or
    None if none does; an earlier mutation may have left single tokens."""
    at = [i for i, pair in enumerate(pairs) if len(pair) == 2 and keep(pair[0])]
    return draw(st.sampled_from(at)) if at else None


def option(name, flag):
    return cli._COMMANDS[name].options.get(flag, cli._Option())


def drop_required(draw, root, name, pairs):
    i = pick(draw, pairs, lambda flag: option(name, flag).required)
    return root, name, pairs if i is None else pairs[:i] + pairs[i + 1:]


def bad_choice(draw, root, name, pairs):
    i = pick(draw, pairs, lambda flag: option(name, flag).choices is not None)
    if i is not None:
        pairs[i][1] = draw(st.sampled_from(["nope", pairs[i][1].upper(), pairs[i][1] + "x"]))
    return root, name, pairs


def not_ascii_int(draw, root, name, pairs):
    i = pick(draw, pairs, lambda flag: option(name, flag).type is cli._int)
    if i is not None:
        pairs[i][1] = draw(st.sampled_from(NOT_ASCII_INTS))
    return root, name, pairs


def dash_value(draw, root, name, pairs):
    """A value, --out's included, starting with '-': a negative number, which
    argparse reads as a value, or text, which it reads as an option."""
    i = pick(draw, root + pairs, lambda flag: True)
    if i is not None:
        (root + pairs)[i][1] = "-" + (root + pairs)[i][1]
    return root, name, pairs


def abbreviated(draw, root, name, pairs):
    i = pick(draw, pairs, lambda flag: len(flag) > 3)
    if i is not None:
        flag = pairs[i][0]
        pairs[i][0] = flag[:draw(st.integers(3, len(flag) - 1))]
    return root, name, pairs


def equals_form(draw, root, name, pairs):
    i = pick(draw, pairs, lambda flag: True)
    if i is not None:
        pairs[i] = ["=".join(pairs[i])]
    return root, name, pairs


def repeated(draw, root, name, pairs):
    i = pick(draw, pairs, lambda flag: True)
    if i is not None:
        pairs.insert(draw(st.integers(i + 1, len(pairs))), [pairs[i][0], pairs[i][1]])
    return root, name, pairs


def help_flag(draw, root, name, pairs):
    at = draw(st.integers(0, len(pairs)))
    return root, name, pairs[:at] + [[draw(st.sampled_from(["-h", "--help"]))]] + pairs[at:]


def root_after_subcommand(draw, root, name, pairs):
    at = draw(st.integers(0, len(pairs)))
    return root, name, pairs[:at] + [["--out", draw(TEXT)]] + pairs[at:]


MUTATIONS = [drop_required, bad_choice, not_ascii_int, dash_value, abbreviated,
             equals_form, repeated, help_flag, root_after_subcommand]


@st.composite
def mutated_calls(draw):
    call = draw(plain_calls())
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        call = mutate(draw, *call)
    return call


@SETTINGS
@given(plain_calls())
def test_the_table_parser_answers_every_plain_call_as_argparse_does(tree, call):
    assert answered(tree, argv_of(call))


@SETTINGS
@given(mutated_calls())
@example(([["--out", "-abc"]], "fs", [["--op", "fs"]]))  # argparse: --out needs a value
@example(([["--out", "-"]], "fs", [["--op", "fs"]]))  # argparse: '-' alone is a value
@example(([], "fs", [["--op", "shift"], ["--offset", "-2"]]))
@example(([], "fs", [["--op", "shift"], ["--offset", "-1\n"]]))  # argparse: a value, not an int
@example(([["--out", "-.5"]], "oracle", [["--ideal", "vdw"], ["--tau", "-.5"]]))
@example(([], "fs", [["--op", "fs"], ["--op", "sparse"]]))  # argparse: the last one wins
def test_the_table_parser_declines_or_answers_as_argparse_does(tree, call):
    answered(tree, argv_of(call))


def test_the_table_parser_agrees_with_argparse_on_both_corpora(tree):
    argvs = [case.argv for _, make in CORPORA.values() for case in make()]
    declined = [argv for argv in argvs if not answered(tree, argv)]
    assert len(argvs) == 1500
    # The 14 help calls.  The 14 calls with a negative value (--offset -3,
    # --target -1, --tau -1), which argparse reads as a value, are answered.
    assert len(declined) == 14
