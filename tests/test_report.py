"""Reports: exact rationals as ``"p/q"`` strings of any size, and the
writer's bytes, which are ``json.dumps(indent=2)``'s."""

import json
from collections import OrderedDict, namedtuple
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealforge import EdgeSet, NatSet, SparseBasis
from idealforge.adversary import SearchBudget, TranscriptStep
from idealforge.cli import build_parser, run
from idealforge.ideals import Record
from idealforge.report import CheckItem, Report, StepChecks, dumps_stable, rational_str

from conftest import random_block_basis, ref_jsonable

# CPython's default limit on int-to-decimal conversion, in digits.
LIMIT = 4300

PINNED = Path(__file__).parent / "pinned_reports"

# Strings with any code point, lone surrogates included, since the writer
# escapes them as json.dumps does; ints well past 64 bits, either sign.
leaves = (st.none() | st.booleans() | st.integers(-(1 << 200), 1 << 200)
          | st.text(st.characters(exclude_categories=())))
trees = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(st.integers(-(1 << 70), 1 << 70), max_size=6)
                   | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4),
                                     inner, max_size=6)),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(trees)
def test_dumps_stable_writes_the_bytes_of_json_dumps_indent_2(tree):
    assert dumps_stable(tree) == json.dumps(tree, indent=2) + "\n"


# Toolkit values as well, which the writer converts as it writes them: exact
# rationals, NatSets, EdgeSets, block and sparse bases, records, tuples, sets,
# int-keyed dicts, and subclasses of int, str, tuple and dict.
class Count(int):
    pass


class Label(str):
    pass


Pair = namedtuple("Pair", "left right")

fractions = st.builds(Fraction, st.integers(-(1 << 80), 1 << 80), st.integers(1, 1 << 80))
natsets = st.builds(NatSet, st.lists(st.integers(0, 1 << 70), max_size=6))
edgesets = st.integers(2, 6).flatmap(lambda n: st.builds(
    EdgeSet, st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=6)))
block_bases = st.builds(random_block_basis, st.randoms(use_true_random=False),
                        st.integers(0, 6))
sparse_bases = st.builds(SparseBasis, st.sets(st.integers(0, 40).map(lambda i: 3 ** i),
                                              max_size=6))

# Records, which the writer writes from their slots unless they give their
# own report form (Report does).
wide = st.integers(-(1 << 70), 1 << 70)
relations = st.sampled_from((">", ">=", "=="))
WIDTHS = {"nat": 1, "pair": 2}  # the args width of each check kind


@st.composite
def column_records(draw):
    """A step's checks as a column record: nat args of one exact int or pair
    args of two, values and a bound of any size, either sign."""
    kind = draw(st.sampled_from(sorted(WIDTHS)))
    args = draw(st.lists(st.tuples(*[wide] * WIDTHS[kind]), max_size=6))
    values = draw(st.lists(wide, min_size=len(args), max_size=len(args)))
    return StepChecks(kind, draw(relations), draw(wide), tuple(args), tuple(values))


@st.composite
def odd_columns(draw):
    """The columns of a column record with one made odd, which the report's
    one row format could not write: a kind that is not the exact str "nat"
    or "pair", a relation that is not an exact str key of RELATIONS, a bool
    or int-subclass bound or value, or args that are not a tuple of the
    kind's width holding exact ints."""
    kind = draw(st.sampled_from(sorted(WIDTHS)))
    width = WIDTHS[kind]
    relation, bound = draw(relations), draw(wide)
    args = draw(st.lists(st.tuples(*[wide] * width), min_size=1, max_size=6))
    values = draw(st.lists(wide, min_size=len(args), max_size=len(args)))
    odd = draw(st.sampled_from(("kind", "relation", "bound", "value", "args")))
    if odd == "kind":
        kind = draw(st.sampled_from(sorted(WIDTHS)).map(Label)
                    | st.text(max_size=4).filter(lambda k: k not in WIDTHS))
    elif odd == "relation":
        relation = draw(relations.map(Label)
                        | st.text(max_size=3).filter(lambda r: r not in (">", ">=", "==")))
    elif odd == "bound":
        bound = draw(st.booleans() | wide.map(Count))
    else:
        i = draw(st.integers(0, len(args) - 1))
        if odd == "value":
            values[i] = draw(st.booleans() | wide.map(Count))
        else:
            args[i] = draw(st.just(()) | st.tuples(*[wide] * (3 - width))
                           | st.tuples(*[wide] * (width - 1), st.booleans() | wide.map(Count))
                           | st.lists(wide, min_size=width, max_size=width))
    return kind, relation, bound, tuple(args), tuple(values)


# Besides the fields the engines record, a bool among the chosen points and a
# str-subclass note, which the record writer hands to the general path.
transcript_steps = st.builds(TranscriptStep, wide,
                             st.lists(wide | st.booleans(), max_size=4).map(tuple),
                             column_records(),
                             st.text(max_size=4) | st.text(max_size=4).map(Label))
check_items = st.builds(CheckItem, st.text(max_size=4), st.booleans(), st.text(max_size=4))


class Tally(Record):
    """A record of one field, whose getter gives the value, not a 1-tuple."""

    __slots__ = ("count",)

    def __init__(self, count):
        self._fill(count)


tallies = st.builds(Tally, leaves | wide.map(Count) | st.lists(wide, max_size=3).map(tuple))
budgets = st.builds(SearchBudget, st.integers(1, 1 << 40), st.integers(1, 50), st.integers(1, 9))
records = column_records() | transcript_steps | check_items | budgets | tallies
toolkit_trees = st.recursive(
    leaves | fractions | natsets | edgesets | block_bases | sparse_bases | records
    | st.integers(-(1 << 70), 1 << 70).map(Count) | st.text(max_size=4).map(Label),
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(inner, max_size=6).map(tuple)
                   | st.builds(Pair, inner, inner)
                   | st.sets(st.integers(-(1 << 70), 1 << 70) | fractions, max_size=6)
                   | st.frozensets(st.integers(0, 50), max_size=6)
                   | st.dictionaries(st.integers(-5, 1 << 70) | st.text(max_size=3),
                                     inner, max_size=6)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=6).map(OrderedDict)
                   | st.builds(Report, st.lists(check_items, max_size=4),
                               st.dictionaries(st.text(max_size=3), inner, max_size=4))),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(toolkit_trees)
def test_dumps_stable_matches_the_isinstance_chain_on_toolkit_values(tree):
    assert dumps_stable(tree) == json.dumps(ref_jsonable(tree), indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(check_items, min_size=1, max_size=8)
       | st.lists(budgets, min_size=1, max_size=4).map(tuple)
       | st.lists(transcript_steps, min_size=1, max_size=4)
       | st.lists(tallies, min_size=1, max_size=4)
       | st.lists(records, min_size=2, max_size=6))
def test_record_lists_match_the_isinstance_chain(items):
    """Lists of records of one class, written with one format per class and
    indent, and lists that mix record classes, which are not."""
    assert dumps_stable(items) == json.dumps(ref_jsonable(items), indent=2) + "\n"
    assert dumps_stable({"nested": [items]}) == \
        json.dumps(ref_jsonable({"nested": [items]}), indent=2) + "\n"


@settings(max_examples=500, deadline=None)
@given(column_records(), st.lists(column_records(), max_size=3))
def test_column_records_write_as_the_rows_they_hold(record, others):
    """The one-format-per-step writing of a column record gives the bytes of
    its row dicts, alone, in a list and inside transcript steps."""
    assert dumps_stable(record) == json.dumps(ref_jsonable(record), indent=2) + "\n"
    items = [record, *others]
    assert dumps_stable(items) == json.dumps(ref_jsonable(items), indent=2) + "\n"
    steps = [TranscriptStep(n, (n,), checks) for n, checks in enumerate(items)]
    assert dumps_stable(steps) == json.dumps(ref_jsonable(steps), indent=2) + "\n"


@settings(max_examples=500, deadline=None)
@given(odd_columns())
def test_column_records_refuse_the_columns_the_writer_cannot_write(columns):
    with pytest.raises(ValueError):
        StepChecks(*columns)


def test_bools_stay_json_booleans():
    # bool is an int subclass; matched by exact type, it is still a bool.
    assert dumps_stable({"a": True, "b": [False, 1]}) == \
        '{\n  "a": true,\n  "b": [\n    false,\n    1\n  ]\n}\n'


def test_every_pinned_report_redumps_to_its_bytes():
    paths = sorted(PINNED.glob("*.json"))
    assert len(paths) == 12
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert dumps_stable(json.loads(text)) == text, path.name


@st.composite
def below_the_limit(draw):
    """An int of 1 to LIMIT digits, either sign."""
    digits = draw(st.integers(min_value=1, max_value=LIMIT))
    n = draw(st.integers(min_value=10 ** (digits - 1), max_value=10 ** digits - 1))
    return -n if draw(st.booleans()) else n


@settings(max_examples=300, deadline=None)
@given(below_the_limit(), below_the_limit())
def test_rational_str_matches_str_below_the_limit(n, d):
    q = Fraction(n, abs(d))
    assert rational_str(q) == f"{q.numerator}/{q.denominator}"


def test_rational_str_copies_only_what_is_not_a_fraction():
    class Half(Fraction):
        pass

    assert rational_str(Fraction(-6, 4)) == "-3/2"
    assert rational_str("-6/4") == "-3/2"
    assert rational_str(7) == "7/1"
    assert rational_str(Half(1, 2)) == "1/2"


def parse_digits(text: str) -> int:
    """int(text) in chunks of 1,000 digits, each under the conversion limit."""
    value = 0
    for at in range(0, len(text), 1000):
        chunk = text[at:at + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_rational_str_above_the_limit():
    # 10^k + 1 has k + 1 digits, and the zeros inside must survive every split.
    for k in (LIMIT, 5000, 25000):
        assert rational_str(Fraction(10 ** k + 1)) == "1" + "0" * (k - 1) + "1/1"
    num, den = rational_str(Fraction(-(7 ** 40000), 10 ** 25000 + 1)).split("/")
    assert num[0] == "-" and len(num) == 33805  # 7^40000 has 33,804 digits
    assert parse_digits(num[1:]) == 7 ** 40000
    assert den == "1" + "0" * 24999 + "1"


def test_certificate_above_the_limit_prints_and_reverifies(tmp_path):
    # The INJ run picks 11 blocks of pow2(13); FS of 11 blocks has 2,047
    # values, and their reciprocal sum has a denominator of over 4,300 digits.
    table = tmp_path / "square.txt"
    table.write_text("".join(f"{x} {x * x + 1}\n" for x in range(8192)), encoding="utf-8")
    code, rep = run(build_parser().parse_args([
        "adversary", "--strategy", "h-summable", "--case", "inj", "--basis", "pow2(13)",
        "--window", "8192", "--nmax", "11",
        "--phi", str(table),
    ]))
    assert code == 0, rep["body"]
    body = json.loads(dumps_stable(rep))["body"]
    assert body["reverified"]["passed"] is True
    transcript = body["transcript"]
    assert len(transcript["image"]) == 2047
    num, den = transcript["certificate"]["sum"].split("/")
    assert len(den) > LIMIT
    assert Fraction(parse_digits(num), parse_digits(den)) == sum(
        (Fraction(1, v + 1) for v in transcript["image"]), Fraction(0))
