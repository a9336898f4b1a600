"""The command line's one-pass readers against the per-token and per-line
loops they replace (``tests/conftest.py``): every set literal, pair literal
and table file gives the same value, or the same error type, message and
position."""

import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealforge import cli
from idealforge.errors import IdealforgeError

from conftest import ref_parse_pair_literal, ref_parse_set_literal, ref_read_table


def outcome(read, *args):
    """What a reader gives: its value, or its error's type, message and position."""
    try:
        return "value", read(*args)
    except (IdealforgeError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# Separators the loops split at: ASCII ones the one-pass patterns accept and
# Unicode ones (\xa0, \u2003, \x1c) that only the loops read.
ASCII_GAPS = st.sampled_from([",", " ", ", ", ",,", " ,\t", "\t", "\n", "\r\n", "\r", "\v", "\f"])
GAPS = ASCII_GAPS | st.sampled_from(["\xa0", "\u2003", "\x1c", ",\xa0"])
NATURALS = st.integers(0, 40).map(str) | st.integers(0, 40).map(lambda n: f"00{n}")
BAD = st.sampled_from(["٣", "²", "1٣", "x", "-1", "1.5", "1_0", "pow2(٣)", "1..٣", "0x1"])
SET_TOKENS = NATURALS | st.builds("{}..{}".format, st.integers(0, 12), st.integers(0, 12)) \
    | st.integers(0, 8).map("pow2({})".format) | BAD


@st.composite
def spaced(draw, tokens, gaps, edges):
    """The tokens with a gap between each two and an edge before and after."""
    body = tokens[:1]
    for token in tokens[1:]:
        body += [draw(gaps), token]
    return draw(edges) + "".join(body) + draw(edges)


def joined(tokens, gaps):
    """Up to 12 tokens, separated by gaps, each end maybe a gap too."""
    return st.lists(tokens, max_size=12).flatmap(
        lambda ts: spaced(ts, gaps, gaps | st.just("")))


@settings(max_examples=300, deadline=None)
@given(text=joined(NATURALS, ASCII_GAPS) | joined(SET_TOKENS, GAPS),
       cap=st.sampled_from([cli.LITERAL_CAP, 3, 8]))
@example(text="", cap=cli.LITERAL_CAP)
@example(text="1,2,3,4", cap=3)
@example(text="1 2\xa03", cap=cli.LITERAL_CAP)
def test_set_literals_read_as_the_token_loop_reads_them(text, cap):
    with mock.patch.object(cli, "LITERAL_CAP", cap):
        assert outcome(cli.parse_set_literal, text) == outcome(ref_parse_set_literal, text)


PAIR_GAPS = st.sampled_from([" ", "\t", "  ", "\n", "\v", "\xa0"])
PAIRS = st.builds("{} {}".format, NATURALS, NATURALS)
# A chunk between commas or semicolons: mostly two naturals, else other counts or bad tokens.
PAIR_CHUNKS = PAIRS | st.lists(NATURALS | BAD, max_size=3).flatmap(
    lambda ts: spaced(ts, PAIR_GAPS, PAIR_GAPS | st.just("")))


@settings(max_examples=300, deadline=None)
@given(text=joined(PAIRS, st.sampled_from([",", ";", ", ", " ; "]))
       | joined(PAIR_CHUNKS, st.sampled_from([",", ";", ",,", "; "])))
@example(text="0 0, 0 1; 1 5")
@example(text="1 2, 1")
@example(text="\t5 6 ;; 7")
def test_pair_literals_read_as_the_chunk_loop_reads_them(text):
    assert outcome(cli.parse_pair_literal, text) == outcome(ref_parse_pair_literal, text)


PLAIN_GAPS = st.sampled_from([" ", "\t", "  ", " \t"])
INNER_GAPS = PLAIN_GAPS | st.sampled_from(["\v", "\f", "\xa0"])
EDGE_GAPS = st.sampled_from(["", "", " ", "\t", "\xa0"])


@st.composite
def table_lines(draw, width, plain):
    """One line of a table file, without its line end: mostly a row of the
    kind's width over few points, so points repeat and pairs come in both
    orders, else a row of another width or a blank line, and unless plain a
    comment, a bad entry or a gap the one-pass pattern leaves to the loop."""
    shapes = ["row"] * 6 + ["width", "blank"] + ([] if plain else ["comment", "bad"])
    shape = draw(st.sampled_from(shapes))
    edges = PLAIN_GAPS | st.just("") if plain else EDGE_GAPS
    if shape == "blank":
        return draw(edges)
    if shape == "comment":
        return draw(edges) + "# note 1 2"
    n = width if shape == "row" else draw(st.integers(1, 4))
    tokens = draw(st.lists(st.integers(0, 4).map(str) | NATURALS, min_size=n, max_size=n))
    if shape == "bad":
        tokens[draw(st.integers(0, n - 1))] = draw(BAD)
    line = draw(spaced(tokens, PLAIN_GAPS if plain else INNER_GAPS, edges))
    return line if plain else line + draw(st.sampled_from(["", " # c"]))


@st.composite
def table_files(draw):
    kind, plain = draw(st.sampled_from(["nat", "pair"])), draw(st.booleans())
    lines = draw(st.lists(table_lines(2 if kind == "nat" else 3, plain), max_size=10))
    ends = draw(st.lists(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # a last line with no line end
    return kind, text


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def read_both(path, kind):
    """Each reader's outcome, with a table's items in order: from_table meets
    its errors in that order."""
    fast, ref = outcome(cli._read_table, str(path), kind), outcome(ref_read_table, str(path), kind)
    return [(o[0], list(o[1].items())) if o[0] == "value" else o for o in (fast, ref)]


@settings(max_examples=400, deadline=None)
@given(case=table_files())
@example(case=("nat", ""))
@example(case=("nat", "0 0\r1 1\r\n2 2"))
@example(case=("pair", "0 1 5\n1 0 5\n"))
@example(case=("pair", "2 2 1\n"))
@example(case=("nat", "0 1\n1 1 1\n5 x\n"))
def test_table_files_read_as_the_line_loop_reads_them(case, table_dir):
    kind, text = case
    path = table_dir / "table.tbl"
    path.write_bytes(text.encode("utf-8"))
    fast, ref = read_both(path, kind)
    assert fast == ref


@pytest.mark.parametrize("data", [
    b"0 0\n" * 3000 + b"\xff 1\n",   # past the first 8 KiB the loop decodes
    b"0 \xff\n" + b"1 1\n" * 3000,   # in the first 8 KiB
    b"0 x\n" + b"1 1\n" * 3000 + b"\xff\n",  # a bad entry before the undecodable byte
])
def test_an_undecodable_table_raises_what_the_line_loop_raises(data, tmp_path):
    path = tmp_path / "table.tbl"
    path.write_bytes(data)
    fast, ref = read_both(path, "nat")
    assert fast == ref and fast[0] != "value"
