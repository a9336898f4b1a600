"""Command-line front end.

Subcommands: ``oracle`` (positivity and witness queries), ``fs`` (finite
sums and sparse-basis operations), ``canonize`` (coloring classification),
``adversary`` (construction strategies, each emitting a self-verified
transcript), ``search`` (reduction-map search), ``verify`` (re-verification
of maps, grown chains, condition bundles, and the closing replay).

Reports are JSON with a fixed field order and no timestamps: identical
invocations produce byte-identical output.  Exit codes: 0 completed, 1
input error, 2 a bounded construction exhausted its budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import re
import shutil
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import __version__
from .adversary import R_HINDMAN_BUDGET, R_HINDMAN_FS_SIZE, STRATEGIES, GammaMap, \
    RnhCase1Bundle, RnhCase2Bundle, SearchBudget, check_hnr_conditions, check_rnh_conditions, \
    replay_final_contradiction, verify_transcript
from .canonical import BlockBasis, CanonicalCase, NatColoring, PairColoring, \
    classify_fs_on, classify_pairs_on, find_block_basis, find_canonical_subset
from .errors import IdealforgeError, MalformedBundle, ParseError, SearchExhausted, TooLarge
from .ideals import EdgeSet, IdealId, NatSet, ScaleParams, find_ap, find_clique, \
    heavy_columns, is_positive, longest_ap, reciprocal_sum, tall_witness
from .reduction import FiniteIdealSpec, one_each, search_reduction, verify_reduction
from .report import dumps_stable
from .sparse import SparseBasis, conflict_set, find_fs_subset, fs, is_sparse, \
    is_very_sparse, very_sparse_subset

_TOKEN = re.compile(r"[,\s]+")
# Literals whose every token the loops below read as int(token): ASCII digits
# between separators that str.split and those loops treat alike.
_PLAIN_SET = re.compile(r"[0-9,\s]*", re.ASCII)
_PLAIN_PAIRS = re.compile(r"(?:{0}[,;])*{0}".format(r"\s*(?:[0-9]+\s+[0-9]+\s*)?"), re.ASCII)
_RANGE = re.compile(r"^(\d+)\.\.(\d+)$", re.ASCII)
_POW2 = re.compile(r"^pow2\((\d+)\)$", re.ASCII)
_INT = re.compile(r"-?[0-9]+")  # int() alone also reads '٣' as 3, '1_0' as 10 and ' 7' as 7
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's own: a value, not an option
LITERAL_CAP = 1 << 16  # points one set literal may list, counted before expanding
POW2_CAP = 1024  # largest n in pow2(n), whose last power has n bits


def _is_nat(token: str) -> bool:
    """Digits 0-9 only: str.isdigit alone also passes '²' (which int refuses)
    and '٣' (which int reads as 3)."""
    return token.isascii() and token.isdigit()


def parse_set_literal(text: str) -> NatSet:
    """Grammar: naturals, ranges ``a..b``, and ``pow2(n)`` for the first n
    powers of two, separated by commas or whitespace.  A token that takes the
    literal past ``LITERAL_CAP`` points, or a pow2(n) with n past ``POW2_CAP``,
    raises TooLarge before it expands.  A plain list is read in one pass; the
    token loop reads the rest and raises every error."""
    if _PLAIN_SET.fullmatch(text):
        tokens = text.replace(",", " ").split()
        if len(tokens) <= LITERAL_CAP:
            return NatSet(map(int, tokens))
    out: List[int] = []
    pos = 0
    for token in _TOKEN.split(text):
        if not token:
            continue
        at = text.find(token, pos)
        pos = at + len(token)
        if _is_nat(token):
            points = (int(token),)
        elif m := _RANGE.match(token):
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise ParseError(f"empty range {token!r}", at)
            points = range(lo, hi + 1)
        elif m := _POW2.match(token):
            n = int(m.group(1))
            if n > POW2_CAP:
                raise TooLarge(f"{token!r} exceeds the pow2 cap {POW2_CAP}")
            points = [1 << i for i in range(n)]
        else:
            raise ParseError(f"bad token {token!r}", at)
        if len(out) + len(points) > LITERAL_CAP:
            raise TooLarge(f"{token!r} takes the literal past {LITERAL_CAP} points")
        out.extend(points)
    return NatSet(out)


def parse_pair_literal(text: str) -> List[Tuple[int, int]]:
    """Pairs ``a b`` separated by commas or semicolons; a bad pair's position
    is where its own chunk starts.  Plain pairs are read in one pass."""
    if _PLAIN_PAIRS.fullmatch(text):
        it = map(int, text.replace(",", " ").replace(";", " ").split())
        return list(zip(it, it))
    pairs = []
    for m in re.finditer(r"[^,;]+", text):
        parts = m.group().split()
        if not parts:
            continue
        if len(parts) != 2 or not all(map(_is_nat, parts)):
            chunk = m.group().strip()
            raise ParseError(f"bad pair {chunk!r}", text.find(chunk, m.start()))
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


# Per coloring kind: its class, the shape of a table row, and its builtins.
_KINDS = {
    "nat": (NatColoring, "x value", {
        "identity": NatColoring.identity,
        "min-alpha": NatColoring.min_alpha,
        "max-alpha": NatColoring.max_alpha,
        "minmax-alpha": NatColoring.minmax_alpha,
    }),
    "pair": (PairColoring, "i j value", {
        "min": PairColoring.minimum,
        "max": PairColoring.maximum,
        "pairing": PairColoring.pairing,
    }),
}

# Per kind: a table file each line of which is blank or one row of ASCII digits.
_PLAIN_ROWS = {kind: re.compile(r"(?:{0}\n)*{0}".format(
    r"[ \t]*(?:[0-9]+" + r"[ \t]+[0-9]+" * (len(shape.split()) - 1) + r"[ \t]*)?"))
    for kind, (_, shape, _) in _KINDS.items()}


def _table_rows(lines, kind: str) -> Dict[Any, int]:
    """A table's points and values read line by line, the source of every
    table error: each names its line, and bad entries come before bad rows."""
    row_shape = _KINDS[kind][1]
    width = len(row_shape.split())
    rows = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not all(map(_is_nat, parts)):
            raise ParseError(f"line {lineno}: bad entry {line!r}", lineno)
        rows.append((lineno, [int(p) for p in parts]))
    table = {}
    for lineno, row in rows:
        if len(row) != width:
            raise ParseError(f"line {lineno}: {kind} table rows are '{row_shape}', got {row}",
                             lineno)
        key = row[0] if width == 2 else (min(row[:2]), max(row[:2]))
        if key in table:
            raise ParseError(f"line {lineno}: {kind} table gives {key} twice", lineno)
        table[key] = row[-1]
    return table


def _read_table(path: str, kind: str) -> Dict[Any, int]:
    """A table file's points and values: in one pass when each line is blank
    or one row of ASCII digits and no point repeats, else by ``_table_rows``."""
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:  # iteration decodes 8 KiB at a time: it names the byte
        with open(path, "r", encoding="utf-8") as handle:
            return _table_rows(handle, kind)
    if _PLAIN_ROWS[kind].fullmatch(text):
        width = len(_KINDS[kind][1].split())
        nums = list(map(int, text.split()))
        cols = [nums[c::width] for c in range(width)]
        keys = cols[0] if width == 2 else zip(map(min, *cols[:2]), map(max, *cols[:2]))
        table = dict(zip(keys, cols[-1]))
        if len(table) * width == len(nums):  # no point repeats
            return table
    return _table_rows(text.split("\n"), kind)  # as iteration does, lines end at "\n" only


def load_coloring(spec: str, window: int, kind: str):
    """A coloring from a builtin name or a table file.

    ``kind`` is "nat" or "pair".  Nat tables have lines ``x value``; pair
    tables have lines ``i j value``, a pair in either order; '#' starts a
    comment.  Each point is given once, and totality over the window is
    enforced: missing entries are an error.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be nat or pair, got {kind!r}")
    cls, _, builtins = _KINDS[kind]
    if spec.startswith("const:"):
        v = spec.split(":", 1)[1]
        if not _is_nat(v):
            raise ParseError(f"bad constant {spec!r}")
        return cls.constant(window, int(v))
    if spec in builtins:
        return builtins[spec](window)
    if not os.path.exists(spec):
        known = ", ".join(sorted(builtins) + ["const:v"])
        raise ParseError(f"{spec!r} is neither a file nor a builtin ({known})")
    return cls.from_table(window, _read_table(spec, kind))


def _given(args: argparse.Namespace, fields: Dict[str, str]) -> Dict[str, Any]:
    """Options the user set, keyed by field name; unset ones (None) are left
    to the record's defaults, and a given 0 reaches its validation."""
    values = {field: getattr(args, option, None) for option, field in fields.items()}
    return {field: value for field, value in values.items() if value is not None}


def _scale_params(args: argparse.Namespace, ground: Optional[NatSet] = None) -> ScaleParams:
    given = _given(args, {dest: dest for dest in map(_dest, _SCALE)})
    if "window" not in given:
        given["window"] = (ground.max() + 1) if ground else ScaleParams().window
    return ScaleParams(**given)


def _budget(args: argparse.Namespace, default: SearchBudget = SearchBudget()) -> SearchBudget:
    return SearchBudget(**default.fields() | _given(args, _BUDGET_OPTIONS))


def _need(args: argparse.Namespace, *options: str) -> None:
    """Raise ParseError naming the first of these options, all needed by the
    requested operation, that the user left out."""
    for option in options:
        if getattr(args, option) is None:
            raise ParseError(f"this operation needs --{option}")


def _refuse(args: argparse.Namespace, options, reads, what: str) -> None:
    """Raise ParseError naming the first of these options not in ``reads``
    that is set to other than its default in the option table."""
    table = _COMMANDS[args.subcommand].options
    for option in options:
        flag = "--" + option.replace("_", "-")
        if option not in reads and getattr(args, option) != table[flag].default:
            raise ParseError(f"{flag} does not apply to {what}")


# The carrier options of each ideal, the first of them needed; the others read --set.
_CARRIERS = {IdealId.RAMSEY: ("edges", "n"), IdealId.FIN2: ("pairs",)}


def _cmd_oracle(args) -> Dict[str, Any]:
    ideal = IdealId(args.ideal)
    op = args.op
    body: Dict[str, Any] = {"ideal": ideal.value, "op": op}
    reads = _CARRIERS.get(ideal, ("set",))
    _need(args, reads[0])
    _refuse(args, ("set", "edges", "n", "pairs"), reads, f"--ideal {ideal.value}")
    if ideal is IdealId.RAMSEY:
        pairs = parse_pair_literal(args.edges)
        n = args.n if args.n is not None else (max((max(p) for p in pairs), default=-1) + 1)
        carrier = EdgeSet(n, pairs)
        params = _scale_params(args)
    elif ideal is IdealId.FIN2:
        carrier = frozenset(parse_pair_literal(args.pairs))
        params = _scale_params(args)
    else:
        carrier = parse_set_literal(args.set)
        params = _scale_params(args, carrier)
    if op == "positive":
        body["positive"] = is_positive(carrier, ideal, params)
    elif op == "longest-ap":
        body["longest_ap"] = longest_ap(carrier)
    elif op == "find-ap":
        _need(args, "k")
        hit = find_ap(carrier, args.k)
        body["progression"] = None if hit is None else {"start": hit[0], "difference": hit[1]}
    elif op == "sum":
        body["reciprocal_sum"] = reciprocal_sum(carrier)
    elif op == "clique":
        body["clique"] = find_clique(carrier, args.k if args.k is not None else params.clique_size)
    elif op == "heavy-columns":
        threshold = params.fs_size if args.k is None else args.k
        body["heavy_columns"] = heavy_columns(carrier, threshold)
    else:  # tall-witness; the option table allows no other op
        body["witness"] = tall_witness(carrier, ideal, params, args.target)
    body["params"] = params.fields()
    return body


# The options each fs op needs, where they are not just --set; it reads no other operand.
_FS_NEEDS = {
    "alpha": ("set", "x"), "very-sparse-subset": ("pool", "k"), "fs-subset": ("set", "k"),
    "conflict": ("set", "y"),
}


def _cmd_fs(args) -> Dict[str, Any]:
    op = args.op
    body: Dict[str, Any] = {"op": op}
    needs = _FS_NEEDS.get(op, ("set",))
    _need(args, *needs)
    _refuse(args, ("set", "pool", "k", "x", "y", "offset", "direction"),
            needs + ("offset", "direction") if op == "shift" else needs, f"--op {op}")
    if op == "fs":
        body["fs"] = fs(parse_set_literal(args.set))
    elif op == "sparse":
        body["sparse"] = is_sparse(parse_set_literal(args.set))
    elif op == "alpha":
        basis = SparseBasis(parse_set_literal(args.set))
        body["alpha"] = basis.alpha(args.x)
    elif op == "very-sparse":
        flag = is_very_sparse(parse_set_literal(args.set))
        body["verified"] = flag.verified
        body["counterexample"] = flag.counterexample
    elif op == "very-sparse-subset":
        body["basis"] = very_sparse_subset(parse_set_literal(args.pool), args.k)
    elif op == "fs-subset":
        body["basis"] = find_fs_subset(parse_set_literal(args.set), args.k)
    elif op == "conflict":
        basis = SparseBasis(parse_set_literal(args.set))
        body["conflict_set"] = conflict_set(basis, args.y)
    else:  # shift; the option table allows no other op
        A = parse_set_literal(args.set)
        body["shifted"] = A + args.offset if args.direction == "up" else A - args.offset
    return body


def _cmd_canonize(args) -> Dict[str, Any]:
    body: Dict[str, Any] = {"kind": args.kind, "op": args.op}
    if args.kind == "fs" or args.op == "classify":
        _need(args, "ground")
    else:
        _refuse(args, ("ground",), (), "--kind pairs --op find")
    if args.op == "classify":
        _refuse(args, ("m",), (), "--op classify")
    if args.kind == "pairs":
        phi = load_coloring(args.phi, args.window, "pair")
        if args.op == "classify":
            T = parse_set_literal(args.ground)
            case = classify_pairs_on(phi, T)
            body["case"] = case.value if case else None
        else:
            hit = find_canonical_subset(phi, args.m)
            body["result"] = None if hit is None else {
                "set": hit[0], "case": hit[1].value,
            }
    else:
        phi = load_coloring(args.phi, args.window, "nat")
        pool = BlockBasis(parse_set_literal(args.ground))
        if args.op == "classify":
            case = classify_fs_on(phi, pool)
            body["case"] = case.value if case else None
        else:
            hit = find_block_basis(phi, pool, args.m)
            body["result"] = None if hit is None else {
                "basis": hit[0], "case": hit[1].value,
            }
    return body


# Per strategy: the window its options imply (--window overrides it), and its engine's inputs.
def _w_summable_inputs(args):
    budget = _budget(args)
    return budget.max_element, (budget,)


def _h_summable_inputs(args):
    budget = _budget(args)
    pool = BlockBasis(parse_set_literal(args.basis))
    return sum(pool.elements) + 1, (pool, CanonicalCase(args.case), budget)


def _r_summable_inputs(args):
    budget = _budget(args)
    T = parse_set_literal(args.ground)  # a T of 0 or 1 points gets the least pair window, 2
    return max(T.max() + 1 if T else 0, 2), (T, CanonicalCase(args.case), budget)


def _r_hindman_inputs(args):
    budget = _budget(args, R_HINDMAN_BUDGET)
    basis = SparseBasis(parse_set_literal(args.basis))
    fs_size = R_HINDMAN_FS_SIZE if args.fs_size is None else args.fs_size
    return budget.max_element, (basis, budget, fs_size)


# The SearchBudget field each budget option sets; a strategy reads those its row lists.
_BUDGET_OPTIONS = {"budget_max_element": "max_element", "nmax": "max_steps",
                   "candidate_cap": "candidate_cap"}
# Per strategy: its inputs and the operands it reads; it needs each of them but --fs-size.
_STRATEGY_INPUTS = {
    "w-summable": (_w_summable_inputs, ()),
    "h-summable": (_h_summable_inputs, ("basis", "case")),
    "r-summable": (_r_summable_inputs, ("ground", "case")),
    "r-hindman": (_r_hindman_inputs, ("basis", "fs_size")),
}


def _cmd_adversary(args) -> Dict[str, Any]:
    row = STRATEGIES[args.strategy]
    reader, operands = _STRATEGY_INPUTS[args.strategy]
    _need(args, *(option for option in operands if option in ("basis", "case", "ground")))
    budget = (option for option, field in _BUDGET_OPTIONS.items() if field in row.budget)
    _refuse(args, map(_dest, _COMMANDS["adversary"].options),
            ("strategy", "phi", "window", *operands, *budget), f"--strategy {args.strategy}")
    window, inputs = reader(args)
    phi = load_coloring(args.phi, window if args.window is None else args.window, row.kind)
    t = row.engine(phi, *inputs)
    return {"strategy": args.strategy, "transcript": t, "reverified": verify_transcript(t)}


def _finite_spec(ideal: str, ground: str, params: ScaleParams) -> FiniteIdealSpec:
    ideal_id = IdealId(ideal)
    if ideal_id is IdealId.RAMSEY:
        if not _INT.fullmatch(ground):
            raise ParseError(f"bad vertex count {ground!r}")
        return FiniteIdealSpec(ideal_id, params, int(ground))
    return FiniteIdealSpec(ideal_id, params, parse_set_literal(ground))


def _cmd_search(args) -> Dict[str, Any]:
    params_src = _scale_params(args)
    src = _finite_spec(args.src_ideal, args.src_ground, params_src)
    dst = _finite_spec(args.dst_ideal, args.dst_ground, params_src)
    outcome = search_reduction(src, dst)
    return {"src": args.src_ideal, "dst": args.dst_ideal,
            "outcome": outcome}


def _is_int(v: Any) -> bool:
    """A JSON integer: bool is an int subclass, but ``true`` is not a number."""
    return isinstance(v, int) and not isinstance(v, bool)


# The JSON type of each bundle field.  A "flat list" is one that holds no
# list or object; its items go to NatSet, which reports any that are not
# naturals.  Fields whose items are used as ints directly are "a list of ints".
_FIELD_TYPES: Dict[str, Callable[[Any], bool]] = {
    "an int": _is_int,
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a flat list": lambda v: isinstance(v, list)
    and not any(isinstance(x, (list, dict)) for x in v),
    "a list of ints": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "an int or a pair of ints": lambda v: _is_int(v)
    or isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
}


def _field(bundle: Dict[str, Any], name: str, kind: str = "an int",
           row: Optional[str] = None, width: Optional[int] = None,
           item: Optional[str] = None) -> Any:
    """bundle[name] if it is ``kind``, or with ``row`` a list of rows that are
    each ``row``, of ``width`` items each ``item`` if given (kinds are keys
    of _FIELD_TYPES); else MalformedBundle("<name>: ..."), which says
    "missing" for a field the bundle lacks."""
    value = _present(bundle, name)
    if row is None:
        if not _FIELD_TYPES[kind](value):
            raise MalformedBundle(f"{name}: must be {kind}, got {json.dumps(value)}")
        return value
    if not isinstance(value, list):
        raise MalformedBundle(f"{name}: must be a list of rows, got {json.dumps(value)}")
    for i, r in enumerate(value):
        if not _FIELD_TYPES[row](r):
            raise MalformedBundle(f"{name}: row {i} must be {row}, got {json.dumps(r)}")
        if width is not None and len(r) != width:
            raise MalformedBundle(
                f"{name}: row {i} must have {width} items, got {json.dumps(r)}")
        if item is not None and not all(map(_FIELD_TYPES[item], r)):
            raise MalformedBundle(
                f"{name}: row {i} items must each be {item}, got {json.dumps(r)}")
    return value


def _present(bundle: Dict[str, Any], name: str) -> Any:
    """bundle[name], or MalformedBundle("<name>: missing")."""
    if name not in bundle:
        raise MalformedBundle(f"{name}: missing")
    return bundle[name]


def _bundle_spec(bundle: Dict[str, Any], side: str, params: ScaleParams) -> FiniteIdealSpec:
    spec = _field(bundle, side, "an object")
    return _finite_spec(_present(spec, "ideal"), _field(spec, "ground", "a string"), params)


def _bundle_bases(bundle: Dict[str, Any], name: str) -> List[SparseBasis]:
    return [SparseBasis(d) for d in _field(bundle, name, row="a flat list")]


def _cmd_verify(args) -> Dict[str, Any]:
    what = args.what
    scale = [_dest(flag) for flag in _SCALE]
    _refuse(args, scale, scale if what == "reduction" else (), f"--what {what}")
    with open(args.bundle, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    if not isinstance(bundle, dict):
        raise MalformedBundle(f"bundle must be a JSON object, got {type(bundle).__name__}")
    if what == "reduction":
        params = _scale_params(args)
        src = _bundle_spec(bundle, "src", params)
        dst = _bundle_spec(bundle, "dst", params)
        tupled = lambda v: tuple(v) if isinstance(v, list) else v
        entries = [(tupled(key), tupled(value))
                   for key, value in _field(bundle, "map", row="a list", width=2,
                                            item="an int or a pair of ints")]
        report = verify_reduction(entries, src, dst)
        return {"what": what, "report": report}
    if what in ("hnr", "final"):
        rows = _field(bundle, "f", row="a list of ints", width=3)
        f = PairColoring.from_table(_field(bundle, "window"), one_each(
            (((min(i, j), max(i, j)), v) for i, j, v in rows), "f gives pair"))
        if what == "hnr":
            report = check_hnr_conditions(
                _field(bundle, "b", "a list of ints"),
                [NatSet(B) for B in _field(bundle, "B", row="a flat list")], f,
                SparseBasis(_field(bundle, "D", "a flat list")),
                fs_size=_field(bundle, "fs_size") if "fs_size" in bundle else R_HINDMAN_FS_SIZE,
            )
        else:
            b = NatSet(_field(bundle, "b", "a flat list"))
            report = replay_final_contradiction(
                f, SparseBasis(_field(bundle, "D", "a flat list")), b,
                NatSet(_field(bundle, "C", "a flat list")))
        return {"what": what, "report": report}
    rows = _field(bundle, "f", row="a list of ints", width=3)  # rnh, the one target left
    f = GammaMap(one_each(((x, (z0, z1)) for x, z0, z1 in rows), "f gives point"))
    X = SparseBasis(_field(bundle, "X", "a flat list"))
    case = _present(bundle, "case")
    if not _is_int(case) or case not in (1, 2):
        raise MalformedBundle(f"case must be 1 or 2, got {case!r}")
    if case == 1:
        data = RnhCase1Bundle(
            k=_field(bundle, "k"), D=SparseBasis(_field(bundle, "D", "a flat list")),
            xs=_field(bundle, "x", "a list of ints"), Ds=_bundle_bases(bundle, "Dn"),
        )
    else:
        data = RnhCase2Bundle(
            ns=_field(bundle, "n", "a list of ints"),
            js=_field(bundle, "j", "a list of ints"),
            ks=_field(bundle, "k", "a list of ints"),
            Fs=[frozenset(F) for F in _field(bundle, "F", row="a list of ints")],
            xs=_field(bundle, "x", "a list of ints"), Ds=_bundle_bases(bundle, "Dn"),
        )
    report = check_rnh_conditions(data, f, X)
    return {"what": what, "report": report}


def _int(text: str) -> int:
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class _Option(NamedTuple):
    """An option's facts, as ``add_argument`` takes them after its flag; its
    dest is the flag's name with '_' for '-'."""
    type: Optional[Callable[[str], Any]] = None
    choices: Optional[Tuple[str, ...]] = None
    default: Any = None
    required: bool = False
    help: Optional[str] = None


class _Command(NamedTuple):
    help: str
    func: Callable[[argparse.Namespace], Dict[str, Any]]
    options: Dict[str, _Option]  # by flag, in the order help lists them


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


_SCALE = {
    "--window": _Option(_int),
    "--ap-len": _Option(_int),
    "--clique-size": _Option(_int),
    "--fs-size": _Option(_int),
    "--tau": _Option(str),
}
_IDEALS = tuple(i.value for i in IdealId)

# Every subcommand, in the order help lists them, with every option it takes.
# The table parser and the argparse tree both read it.
_COMMANDS = {
    "oracle": _Command("positivity and witness queries", _cmd_oracle, {
        "--ideal": _Option(required=True, choices=_IDEALS),
        "--op": _Option(default="positive", choices=(
            "positive", "longest-ap", "find-ap", "sum", "clique", "heavy-columns",
            "tall-witness")),
        "--set": _Option(help="set literal, e.g. '1,3,9' or '0..8' or 'pow2(6)'"),
        "--edges": _Option(help="edge list, e.g. '0 1, 0 2, 1 2'"),
        "--pairs": _Option(help="ordered pairs, e.g. '0 0, 0 1, 1 5'"),
        "--n": _Option(_int, help="vertex count for edge sets"),
        "--k": _Option(_int, help="progression/clique/threshold size"),
        "--target": _Option(_int, default=2, help="tall-witness size"),
        **_SCALE,
    }),
    "fs": _Command("finite sums and sparse bases", _cmd_fs, {
        "--op": _Option(required=True, choices=(
            "fs", "sparse", "alpha", "very-sparse", "very-sparse-subset", "fs-subset",
            "conflict", "shift")),
        "--set": _Option(help="basis or carrier literal"),
        "--pool": _Option(help="pool literal for very-sparse-subset"),
        "--k": _Option(_int, help="requested basis size"),
        "--x": _Option(_int, help="value to decompose"),
        "--y": _Option(_int, help="value whose conflict set is wanted"),
        "--offset": _Option(_int, default=0),
        "--direction": _Option(choices=("up", "down"), default="up"),
    }),
    "canonize": _Command("canonical coloring classification", _cmd_canonize, {
        "--kind": _Option(required=True, choices=("pairs", "fs")),
        "--op": _Option(default="classify", choices=("classify", "find")),
        "--phi": _Option(required=True, help="builtin name or table file"),
        "--window": _Option(_int, required=True),
        "--ground": _Option(help="T literal (pairs) or block pool literal (fs)"),
        "--m": _Option(_int, default=3),
    }),
    "adversary": _Command("construction strategies", _cmd_adversary, {
        "--strategy": _Option(required=True, choices=tuple(STRATEGIES)),
        "--phi": _Option(required=True, help="builtin name or table file"),
        "--case": _Option(choices=tuple(c.value for c in CanonicalCase),
                          help="declared canonical case (h/r-summable)"),
        "--basis": _Option(help="block pool (h-summable) or sparse basis (r-hindman)"),
        "--ground": _Option(help="T literal for r-summable"),
        "--window": _Option(_int),
        "--nmax": _Option(_int),
        "--budget-max-element": _Option(_int),
        "--candidate-cap": _Option(_int),
        "--fs-size": _Option(_int),
    }),
    "search": _Command("micro-scale reduction-map search", _cmd_search, {
        "--src-ideal": _Option(required=True, choices=_IDEALS),
        "--src-ground": _Option(required=True, help="set literal, or vertex count for ramsey"),
        "--dst-ideal": _Option(required=True, choices=_IDEALS),
        "--dst-ground": _Option(required=True),
        **_SCALE,
    }),
    "verify": _Command("re-verify maps, chains, and bundles", _cmd_verify, {
        "--what": _Option(required=True, choices=("reduction", "hnr", "rnh", "final")),
        "--bundle": _Option(required=True, help="JSON bundle path"),
        **_SCALE,
    }),
}


def _parse_plain(argv: List[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse gives a plain call, read from the table alone:
    ``[--out P] <subcommand>`` then ``--flag value`` pairs, each flag the
    subcommand's own and given at most once, no value starting with '-' but
    a negative number, every required option given and every value of its
    type and choices.  None for any other argv, which argparse then parses."""
    out = None
    if argv[:1] == ["--out"]:
        if len(argv) < 2 or argv[1].startswith("-") and not _NEGATIVE.match(argv[1]):
            return None
        out, argv = argv[1], argv[2:]
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    command = _COMMANDS[argv[0]]
    values: Dict[str, Any] = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = command.options.get(flag)
        if option is None or flag in values or text.startswith("-") and not _NEGATIVE.match(text):
            return None
        try:
            value = text if option.type is None else option.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None  # argparse catches these three and reports a usage error
        if option.choices is not None and value not in option.choices:
            return None
        values[flag] = value
    args = argparse.Namespace(out=out, subcommand=argv[0])
    for flag, option in command.options.items():
        if flag not in values and option.required:
            return None
        setattr(args, _dest(flag), values.get(flag, option.default))
    args.func = command.func
    return args


def _argparse_tree() -> argparse.ArgumentParser:
    """The argparse parser of the whole command line, built from the table,
    for the calls ``_parse_plain`` declines: help, usage errors and the
    argv forms only argparse reads."""
    # argparse makes a HelpFormatter for each parser and each add_argument,
    # and one made without a width reads the terminal size, less 2, itself.
    # Read it once per parser tree instead; help wraps the same.
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="idealforge",
        description="Finite-scale workbench for Ramsey-type ideals.",
        formatter_class=formatter,
    )
    parser.add_argument("--out", help="write the report to this path")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, formatter_class=formatter)
        for flag, option in command.options.items():
            p.add_argument(flag, **option._asdict())
        p.set_defaults(func=command.func)
    return parser


class Parser:
    """The command line's parser: a plain call is read from the option table
    and builds no argparse object; any other argv goes to the argparse tree."""

    def parse_args(self, argv: Optional[List[str]] = None) -> argparse.Namespace:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _parse_plain(argv)
        return _argparse_tree().parse_args(argv) if args is None else args


def build_parser() -> Parser:
    return Parser()


def run(args: argparse.Namespace) -> Tuple[int, Dict[str, Any]]:
    """Dispatch one parsed invocation; returns (exit code, report).

    The report is a dict of toolkit values as the library returns them
    (NatSets, rationals, transcripts, reports); ``dumps_stable`` converts
    them as it writes the JSON."""
    options = {
        key: value for key, value in sorted(vars(args).items())
        if key not in ("func", "out") and value is not None
    }
    header = {
        "tool": "idealforge",
        "version": __version__,
        "subcommand": args.subcommand,
        "options": options,
    }
    try:
        body = args.func(args)
        body.setdefault("status", "ok")
        return 0, {"header": header, "body": body}
    except (IdealforgeError, ValueError, OSError, KeyError) as exc:
        exhausted = isinstance(exc, SearchExhausted)
        error = {"code": type(exc).__name__, **({"step": exc.step} if exhausted else {}),
                 "message": str(exc)}
        body = {"status": "exhausted" if exhausted else "error", "error": error}
        return 2 if exhausted else 1, {"header": header, "body": body}


def main(argv: Optional[List[str]] = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    code, report = run(args)
    text = dumps_stable(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
