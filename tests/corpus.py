"""Two seeded corpora of ``idealforge`` calls and their pinned output.

Each case is an id, an argv list, the files the call reads and the terminal
width (``COLUMNS``) that help text wraps to.  The report header echoes
``--phi`` and ``--bundle``, so a file is always named by a fixed relative
path (``phi.txt``, ``bundle.json``) and the case runs in a fresh working
directory that holds it.  The generators are seeded and share no code with
``bench/``.

The adversary corpus covers all four strategies, builtin, ``const:`` and
table colorings, every ``--case``, nmax 1 to 6, several windows, and the
error paths: a missing option, an unknown builtin, an incomplete or
malformed table, a case mismatch, minmax for pairs and an exhausted search.

The CLI corpus covers the other five subcommands: ``oracle`` for all six
ideals and every ``--op``, ``fs`` for every ``--op``, ``canonize`` for both
kinds and both ops over builtin, ``const:`` and table colorings, ``search``
with ``TooLarge`` and ``fin2`` refusals, and ``verify`` for each ``--what``
with valid, mutated and malformed bundles; and ``-h`` for the root and for
each subcommand at 40 and 132 columns.

``pinned_reports/adversary_corpus.json`` and ``pinned_reports/cli_corpus.json``
map each case id to the sha256 of the call's stdout and its exit code.
Rewrite both with

    PYTHONPATH=src python tests/corpus.py --write

only for a deliberate change to the reports, logged in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from idealforge.cli import main
from idealforge.report import dumps_stable

PINNED = Path(__file__).parent / "pinned_reports"
TABLE = "phi.txt"
BUNDLE = "bundle.json"


class Case(NamedTuple):
    id: str
    argv: List[str]
    files: Dict[str, str]  # relative path -> text, written before the call
    columns: int = 80


def _case(case_id: str, argv: List[str], table: Optional[str]) -> Case:
    return Case(case_id, argv, {} if table is None else {TABLE: table})


NAT_BUILTINS = ["identity", "min-alpha", "max-alpha", "minmax-alpha"]
PAIR_BUILTINS = ["min", "max", "pairing"]
CASES = ["const", "min", "max", "minmax", "inj"]
# The case each coloring kind fits on most grounds; a random table fits inj
# when its values spread wide enough.
H_FITS = {"identity": "inj", "min-alpha": "min", "max-alpha": "max",
          "minmax-alpha": "minmax", "const": "const", "table": "inj"}
R_FITS = {"min": "min", "max": "max", "pairing": "inj", "const": "const", "table": "inj"}


def _nat_table(rng: random.Random, window: int) -> str:
    top = 1 << rng.randint(1, 14)
    return "".join(f"{x} {rng.randrange(top)}\n" for x in range(window))


def _pair_table(rng: random.Random, window: int, values) -> str:
    """Pairs in a random order, each written in a random orientation."""
    pairs = [(i, j) for i in range(window) for j in range(i + 1, window)]
    rng.shuffle(pairs)
    lines = [f"{j} {i}" if rng.random() < 0.5 else f"{i} {j}" for i, j in pairs]
    return "".join(f"{line} {values(rng)}\n" for line in lines)


def _spoiled(rng: random.Random, table: str) -> str:
    """The table with one line dropped (an incomplete table), or with a bad
    entry on one line."""
    lines = table.splitlines(keepends=True)
    at = rng.randrange(len(lines))
    if rng.random() < 0.7:
        return "".join(lines[:at] + lines[at + 1:])
    return "".join(lines[:at] + ["oops\n"] + lines[at + 1:])


def _block_basis(rng: random.Random) -> str:
    """A block basis literal: each block's bits lie above the last block's."""
    blocks, pos = [], rng.randint(0, 2)
    for _ in range(rng.randint(3, 8)):
        width = rng.randint(1, 2)
        bits = [b for b in range(pos, pos + width) if rng.random() < 0.7] or [pos]
        blocks.append(sum(1 << b for b in bits))
        pos += width + rng.randint(0, 1)
    return ",".join(map(str, blocks))


def _declared(rng: random.Random, fits: str) -> str:
    """The fitting case three times in four, else any case."""
    return fits if rng.random() < 0.75 else rng.choice(CASES)


def w_summable_cases(rng: random.Random, count: int) -> List[Case]:
    out = []
    for i in range(count):
        nmax = rng.randint(1, 6)
        argv = ["adversary", "--strategy", "w-summable", "--nmax", str(nmax)]
        table = None
        kind = rng.choice(NAT_BUILTINS + ["const", "table", "table"])
        window = rng.choice([None, 16, 64, 200, 1000, 4096])
        if kind == "table":
            window = rng.choice([4, 16, 40, 64])
            table = _nat_table(rng, window)
            if rng.random() < 0.2:
                table = _spoiled(rng, table)
            phi = TABLE
        elif kind == "const":
            phi = f"const:{rng.choice([0, 1, 5, 100, 5000])}"
        else:
            phi = kind
        argv += ["--phi", phi]
        if window is not None:
            argv += ["--window", str(window)]
        if rng.random() < 0.3:
            argv += ["--budget-max-element", str(rng.choice([8, 50, 300, 2000]))]
        elif window is None:
            argv += ["--budget-max-element", str(rng.choice([100, 1000, 4096]))]
        out.append(_case(f"w-{i:03d}", argv, table))
    return out


def h_summable_cases(rng: random.Random, count: int) -> List[Case]:
    out = []
    for i in range(count):
        nmax = rng.randint(1, 6)
        argv = ["adversary", "--strategy", "h-summable", "--nmax", str(nmax)]
        table = None
        kind = rng.choice(NAT_BUILTINS + ["const", "table"])
        argv += ["--case", _declared(rng, H_FITS[kind])]
        if kind == "table":
            k = rng.randint(3, 6)
            basis = f"pow2({k})"
            table = _nat_table(rng, 1 << k)
            if rng.random() < 0.2:
                table = _spoiled(rng, table)
            phi = TABLE
        else:
            basis = rng.choice([f"pow2({rng.randint(3, 12)})", _block_basis(rng),
                                _block_basis(rng)])
            phi = f"const:{rng.choice([0, 3, 64])}" if kind == "const" else kind
        argv += ["--phi", phi, "--basis", basis]
        if table is None and rng.random() < 0.2:
            argv += ["--window", str(rng.choice([16, 100, 1000]))]
        out.append(_case(f"h-{i:03d}", argv, table))
    return out


def _ground(rng: random.Random) -> str:
    shape = rng.randrange(3)
    if shape == 0:
        return f"0..{rng.randint(2, 40)}"
    if shape == 1:
        return f"{rng.randint(1, 5)}..{rng.randint(8, 30)}"
    return ",".join(map(str, sorted(rng.sample(range(40), rng.randint(2, 14)))))


def r_summable_cases(rng: random.Random, count: int) -> List[Case]:
    out = []
    for i in range(count):
        nmax = rng.randint(1, 6)
        argv = ["adversary", "--strategy", "r-summable", "--nmax", str(nmax)]
        table = None
        kind = rng.choice(PAIR_BUILTINS + ["const", "table"])
        spread = rng.choice([1, 4, 1 << 10])
        fits = "const" if kind == "table" and spread == 1 else R_FITS[kind]
        argv += ["--case", _declared(rng, fits)]
        if kind == "table":
            window = rng.randint(4, 9)
            ground = f"0..{window - 1}"
            table = _pair_table(rng, window, lambda r: r.randrange(spread))
            if rng.random() < 0.2:
                table = _spoiled(rng, table)
            phi = TABLE
        else:
            ground = _ground(rng)
            phi = f"const:{rng.choice([0, 2, 9])}" if kind == "const" else kind
        argv += ["--phi", phi, "--ground", ground]
        if table is None and rng.random() < 0.2:
            argv += ["--window", str(rng.choice([41, 64]))]
        out.append(_case(f"r-{i:03d}", argv, table))
    return out


def r_hindman_cases(rng: random.Random, count: int) -> List[Case]:
    bases = ["1,3,9,27", "1,2,4", "1,3,9", "1,4,16,64", "pow2(4)", "1,3,9,27,81"]
    out = []
    for i in range(count):
        basis = rng.choice(bases)
        window = rng.randint(3, 6)
        argv = ["adversary", "--strategy", "r-hindman", "--basis", basis,
                "--nmax", str(rng.randint(1, 4)),
                "--candidate-cap", str(rng.randint(1, 4))]
        argv += rng.choice([["--window", str(window)], ["--budget-max-element", str(window)]])
        if rng.random() < 0.3:
            argv += ["--fs-size", str(rng.randint(2, 3))]
        table = None
        kind = rng.choice(PAIR_BUILTINS + ["const", "const", "table", "table", "table"])
        if kind == "table":
            parts = [int(p) for p in basis.split(",")] if "," in basis else [1, 2, 4, 8]
            sums = sorted({sum(p for k, p in enumerate(parts) if m >> k & 1)
                           for m in range(1, 1 << len(parts))})
            if rng.random() < 0.2:
                sums.append(sums[-1] * 3 + 1)  # a value outside the finite sums
            table = _pair_table(rng, window, lambda r: r.choice(sums))
            phi = TABLE
        elif kind == "const":
            phi = f"const:{rng.choice([1, 3, 4, 10, 12])}"
        else:
            phi = kind
        argv += ["--phi", phi]
        out.append(_case(f"rh-{i:03d}", argv, table))
    return out


def named_cases() -> List[Case]:
    """Calls picked by hand: one or more down each error path, and the
    defaults."""
    nat_gap = "".join(f"{x} {x}\n" for x in range(8) if x != 5)
    pair_gap = "".join(f"{i} {j} 1\n" for i in range(4) for j in range(i + 1, 4)
                       if (i, j) != (1, 3))
    rows = [
        ("w-default-budget", ["--strategy", "w-summable", "--phi", "identity",
                              "--nmax", "3"]),
        ("h-missing-basis", ["--strategy", "h-summable", "--phi", "identity", "--case", "inj"]),
        ("h-missing-case", ["--strategy", "h-summable", "--phi", "identity", "--basis",
                            "1,2,4"]),
        ("r-missing-ground", ["--strategy", "r-summable", "--phi", "min", "--case", "min"]),
        ("r-missing-case", ["--strategy", "r-summable", "--phi", "min", "--ground", "0..9"]),
        ("rh-missing-basis", ["--strategy", "r-hindman", "--phi", "const:1", "--window", "4"]),
        ("w-unknown-builtin", ["--strategy", "w-summable", "--phi", "nosuch", "--window", "8"]),
        ("h-unknown-builtin", ["--strategy", "h-summable", "--phi", "min", "--case", "min",
                               "--basis", "1,2,4"]),
        ("r-unknown-builtin", ["--strategy", "r-summable", "--phi", "identity", "--case",
                               "min", "--ground", "0..5"]),
        ("rh-unknown-builtin", ["--strategy", "r-hindman", "--phi", "nosuch", "--basis",
                                "1,3", "--window", "4"]),
        ("w-bad-constant", ["--strategy", "w-summable", "--phi", "const:x", "--window", "8"]),
        ("h-bad-literal", ["--strategy", "h-summable", "--phi", "identity", "--case", "inj",
                           "--basis", "1,2,oops"]),
        ("h-not-a-block-basis", ["--strategy", "h-summable", "--phi", "identity", "--case",
                                 "inj", "--basis", "3,5"]),
        ("h-small-pool", ["--strategy", "h-summable", "--phi", "identity", "--case", "inj",
                          "--basis", "1,2"]),
        ("rh-not-sparse", ["--strategy", "r-hindman", "--phi", "const:1", "--basis", "1,2,3",
                           "--window", "4", "--nmax", "2", "--candidate-cap", "2"]),
        ("w-incomplete-table", ["--strategy", "w-summable", "--phi", TABLE, "--window", "8"],
         nat_gap),
        ("w-default-window-table", ["--strategy", "w-summable", "--phi", TABLE], nat_gap),
        ("r-incomplete-table", ["--strategy", "r-summable", "--phi", TABLE, "--case", "const",
                                "--ground", "0..3"], pair_gap),
        ("rh-incomplete-table", ["--strategy", "r-hindman", "--phi", TABLE, "--basis", "1,3",
                                 "--window", "4", "--nmax", "2", "--candidate-cap", "2"],
         pair_gap),
        ("h-case-mismatch", ["--strategy", "h-summable", "--phi", "identity", "--case", "min",
                             "--basis", "pow2(6)"]),
        ("r-case-mismatch", ["--strategy", "r-summable", "--phi", "pairing", "--case", "max",
                             "--ground", "0..9"]),
        ("r-minmax", ["--strategy", "r-summable", "--phi", "min", "--case", "minmax",
                      "--ground", "0..9"]),
        ("r-small-ground", ["--strategy", "r-summable", "--phi", "min", "--case", "min",
                            "--ground", "3,7"]),
        ("r-empty-ground-window", ["--strategy", "r-summable", "--phi", "min", "--case", "min",
                                   "--ground", "", "--window", "8"]),
        ("r-empty-ground", ["--strategy", "r-summable", "--phi", "min", "--case", "min",
                            "--ground", ""]),
        ("r-one-point-ground", ["--strategy", "r-summable", "--phi", "min", "--case", "min",
                                "--ground", "0"]),
        ("w-exhausted", ["--strategy", "w-summable", "--phi", "const:0", "--nmax", "2"]),
        ("h-exhausted", ["--strategy", "h-summable", "--phi", "min-alpha", "--case", "min",
                         "--basis", "pow2(4)", "--nmax", "6"]),
        ("r-exhausted", ["--strategy", "r-summable", "--phi", "min", "--case", "min",
                         "--ground", "0..5", "--nmax", "6"]),
        ("rh-outside-sums", ["--strategy", "r-hindman", "--phi", "pairing", "--basis",
                             "1,3,9", "--window", "5"]),
        # r-hindman with some or all of its budget options left unset.
        ("rh-default-budget", ["--strategy", "r-hindman", "--phi", "const:1", "--basis",
                               "1,2,4"]),
        ("rh-unset-steps-const", ["--strategy", "r-hindman", "--phi", "const:1", "--basis",
                                  "1,3,9", "--window", "5"]),
        ("rh-unset-steps-cap", ["--strategy", "r-hindman", "--phi", "const:4", "--basis",
                                "1,4,16", "--budget-max-element", "6", "--nmax", "3"]),
        ("rh-unset-cap", ["--strategy", "r-hindman", "--phi", "const:3", "--basis",
                          "1,3,9,27", "--window", "6", "--nmax", "4"]),
        ("w-zero-nmax", ["--strategy", "w-summable", "--phi", "identity", "--nmax", "0"]),
        ("rh-zero-fs-size", ["--strategy", "r-hindman", "--phi", "const:1", "--basis",
                             "1,3,9", "--fs-size", "0", "--nmax", "3",
                             "--budget-max-element", "4"]),
    ]
    return [_case(f"named-{row[0]}", ["adversary", *row[1]], row[2] if len(row) > 2 else None)
            for row in rows]


def adversary_corpus() -> List[Case]:
    return (w_summable_cases(random.Random(1), 75) + h_summable_cases(random.Random(2), 75)
            + r_summable_cases(random.Random(3), 75) + r_hindman_cases(random.Random(4), 45)
            + named_cases())


# ------------------------------------------------------------ the CLI corpus

IDEALS = ["vdw", "hindman", "ramsey", "summable", "fin", "fin2"]
ORACLE_OPS = ["positive", "longest-ap", "find-ap", "sum", "clique", "heavy-columns",
              "tall-witness"]
FS_OPS = ["fs", "sparse", "alpha", "very-sparse", "very-sparse-subset", "fs-subset",
          "conflict", "shift"]
# Rationals, a float literal that Fraction reads, and values that must fail.
TAUS = ["1/2", "1", "3/2", "2", "7/3", "5", "1.5", "0", "-1", "1/0", "abc"]
BAD_SETS = ["", "1,x,3", "5..2", "pow2(x)"]


def _literal(xs) -> str:
    return ",".join(map(str, xs))


def _set_literal(rng: random.Random) -> str:
    """A set literal in one of the grammar's shapes, one time in 16 empty
    or malformed."""
    shape = rng.randrange(7) if rng.random() < 15 / 16 else 7
    if shape == 0:
        lo = rng.randint(0, 5)
        return f"{lo}..{lo + rng.randint(0, 14)}"
    if shape == 1:
        return f"pow2({rng.randint(0, 8)})"
    if shape in (2, 3):
        return _literal(sorted(rng.sample(range(40), rng.randint(1, 12))))
    if shape == 4:
        return f"{rng.randint(0, 4)}..{rng.randint(5, 9)} pow2({rng.randint(1, 5)}) " \
               f"{rng.randint(10, 60)}"
    if shape == 5:
        return _literal(3 ** i for i in range(rng.randint(1, 6)))
    if shape == 6:
        return " ".join(map(str, rng.sample(range(1, 30), rng.randint(2, 8))))
    return rng.choice(BAD_SETS)


def _edge_literal(rng: random.Random, n: int) -> str:
    """Edges on n vertices, either orientation, ',' or ';' between them."""
    density = rng.choice([0.3, 0.6, 1.0])
    edges = [(j, i) if rng.random() < 0.3 else (i, j)
             for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    if rng.random() < 0.05:
        return "0 1, nope"
    return rng.choice([", ", "; "]).join(f"{i} {j}" for i, j in edges)


def _pair_literal(rng: random.Random) -> str:
    pairs = sorted({(rng.randint(0, 4), rng.randint(0, 6)) for _ in range(rng.randint(1, 12))})
    return ", ".join(f"{n} {k}" for n, k in pairs)


def _scale_options(rng: random.Random, p: float = 0.2) -> List[str]:
    """Each scale option given with probability p; one in ten of those out
    of range."""
    argv = []
    for option, good, bad in (("--ap-len", [3, 4, 5], [0, 2]), ("--clique-size", [3, 4], [2]),
                              ("--fs-size", [2, 3], [1]), ("--tau", TAUS[:7], TAUS[7:]),
                              ("--window", [40, 64, 256], [0, 8])):
        if rng.random() < p:
            argv += [option, str(rng.choice(bad if rng.random() < 0.1 else good))]
    return argv


def _carrier_options(rng: random.Random, ideal: str) -> List[str]:
    """The ideal's own carrier 19 times in 20, else another kind or none."""
    kind = {"ramsey": "edges", "fin2": "pairs"}.get(ideal, "set")
    if rng.random() < 0.05:
        kind = rng.choice(["set", "edges", "pairs", None])
    if kind == "set":
        return ["--set", _set_literal(rng)]
    if kind == "pairs":
        return ["--pairs", _pair_literal(rng)]
    if kind == "edges":
        n = rng.randint(2, 8)
        argv = ["--edges", _edge_literal(rng, n)]
        if rng.random() < 0.4:
            argv += ["--n", str(rng.choice([n, n + 2, 1]))]
        return argv
    return []


def oracle_cases(rng: random.Random, count: int) -> List[Case]:
    """Every (ideal, op) pair in turn; the default op is left implicit at
    times."""
    out = []
    for i in range(count):
        ideal = IDEALS[i % len(IDEALS)]
        op = ORACLE_OPS[i // len(IDEALS) % len(ORACLE_OPS)]
        argv = ["oracle", "--ideal", ideal]
        if op != "positive" or rng.random() < 0.5:
            argv += ["--op", op]
        argv += _carrier_options(rng, ideal)
        if op == "find-ap" and rng.random() < 0.9:
            argv += ["--k", str(rng.choice([0, 1, 2, 3, 3, 4, 5]))]
        elif op in ("clique", "heavy-columns") and rng.random() < 0.5:
            argv += ["--k", str(rng.choice([1, 2, 3, 4]))]
        elif op == "tall-witness" and rng.random() < 0.7:
            argv += ["--target", str(rng.choice([-1, 0, 1, 2, 3, 5, 8]))]
        argv += _scale_options(rng)
        out.append(Case(f"oracle-{i:03d}", argv, {}))
    return out


def _basis_literal(rng: random.Random) -> str:
    """Mostly sparse bases; at times one with a repeated sum, one with 0,
    an empty one or one past the enumeration cap."""
    shape = rng.randrange(10)
    if shape < 3:
        return f"pow2({rng.randint(1, 10)})"
    if shape < 5:
        return _literal(3 ** i for i in range(rng.randint(1, 7)))
    if shape == 5:
        return _block_basis(rng)
    if shape == 6:
        return _literal(sorted(rng.sample(range(1, 100), rng.randint(1, 6))))
    return rng.choice(["1,2,3", "0,1,4", "", "pow2(25)", "5,5,10"])


def fs_cases(rng: random.Random, count: int) -> List[Case]:
    """Every op in turn, each option it needs left out one time in ten."""
    out = []
    for i in range(count):
        op = FS_OPS[i % len(FS_OPS)]
        basis = _basis_literal(rng)
        options = {"--set": basis}
        if op == "alpha":
            options["--x"] = str(rng.randint(0, 300))
            if basis.replace(",", "").isdigit() and rng.random() < 0.7:
                parts = [int(x) for x in basis.split(",")]
                options["--x"] = str(sum(x for x in parts if rng.random() < 0.5) or parts[0])
        elif op == "very-sparse-subset":
            del options["--set"]
            options["--pool"] = rng.choice([f"1..{rng.randint(5, 80)}", _set_literal(rng),
                                            "pow2(12)", ""])
            options["--k"] = str(rng.choice([0, 1, 2, 3, 4, 5]))
        elif op == "fs-subset":
            options["--set"] = rng.choice([f"1..{rng.randint(3, 30)}", _set_literal(rng),
                                           "1,2,3,4,5,6,7", "pow2(6)"])
            options["--k"] = str(rng.choice([0, 1, 2, 3]))
        elif op == "conflict":
            options["--y"] = str(rng.randint(0, 200))
        elif op == "shift":
            if rng.random() < 0.7:
                options["--offset"] = str(rng.choice([-3, 0, 1, 2, 7, 100]))
            if rng.random() < 0.7:
                options["--direction"] = rng.choice(["up", "down"])
        argv = ["fs", "--op", op]
        for option, value in options.items():
            if rng.random() < 0.95 or option in ("--offset", "--direction"):
                argv += [option, value]
        out.append(Case(f"fs-{i:03d}", argv, {}))
    return out


def canonize_cases(rng: random.Random, count: int) -> List[Case]:
    """Both kinds and both ops over builtin, ``const:`` and table colorings."""
    out = []
    for i in range(count):
        kind = ("pairs", "fs")[i % 2]
        op = ("classify", "find")[i // 2 % 2]
        argv = ["canonize", "--kind", kind]
        if op == "find" or rng.random() < 0.5:
            argv += ["--op", op]
        files = {}
        phi = rng.choice((PAIR_BUILTINS if kind == "pairs" else NAT_BUILTINS)
                         + ["const", "table"])
        if kind == "pairs":
            window = rng.randint(3, 8)
            # One ground in ten reaches past the window or has under 3 points.
            top, least = (window + 1, 1) if rng.random() < 0.1 else (window, 3)
            ground = _literal(sorted(rng.sample(range(top), rng.randint(least, window))))
            if phi == "table":
                spread = rng.choice([1, 3, 1 << 8])
                files[TABLE] = _pair_table(rng, window, lambda r: r.randrange(spread))
        else:
            k = rng.randint(3, 6)
            ground = f"pow2({k})"
            window = 1 << k
            if phi != "table":
                if rng.random() < 0.3:
                    ground = _block_basis(rng)
                    window = sum(map(int, ground.split(","))) + 1
                window = rng.choice([window, 1 << 20])
                # One in ten: not a block basis, under 3 blocks, or a window
                # short of the pool's sums.
                if rng.random() < 0.1:
                    ground, window = rng.choice([("3,5", 9), ("1,2", 4), ("1,2,4", 6)])
            else:
                files[TABLE] = _nat_table(rng, window)
        if phi == "table":
            if rng.random() < 0.15:
                files[TABLE] = _spoiled(rng, files[TABLE])
            phi = TABLE
        elif phi == "const":
            phi = f"const:{rng.choice([0, 2, 7])}"
        argv += ["--phi", phi, "--window", str(window)]
        if rng.random() < 0.9:
            argv += ["--ground", ground]
        if op == "find" and rng.random() < 0.7:
            argv += ["--m", str(rng.choice([2, 3, 3, 4, 4, 5, 9]))]
        out.append(Case(f"canonize-{i:03d}", argv, files))
    return out


def _search_ground(rng: random.Random, ideal: str) -> str:
    """A small ground, at times one past the search's carrier cap."""
    if ideal == "ramsey":
        return str(rng.choice([2, 3, 3, 4, 4, 4, 6]))
    if ideal == "fin2":
        return "1,2"
    if rng.random() < 0.04:
        return "0..12"
    return rng.choice([f"0..{rng.randint(1, 4)}",
                       _literal(sorted(rng.sample(range(1, 9), rng.randint(2, 5))))])


def search_cases(rng: random.Random, count: int) -> List[Case]:
    out = []
    for i in range(count):
        src = rng.choice(IDEALS[:5] * 4 + ["fin2"])
        dst = "fin2" if i % 20 == 19 else IDEALS[i % 5]
        argv = ["search", "--src-ideal", src, "--src-ground", _search_ground(rng, src),
                "--dst-ideal", dst, "--dst-ground", _search_ground(rng, dst)]
        argv += ["--ap-len", "3", "--clique-size", "3", "--fs-size", "2"]
        argv += ["--tau", rng.choice(["1/2", "1", "3/2", "2"]),
                 "--window", str(rng.choice([2, 9, 9, 9]))]
        out.append(Case(f"search-{i:03d}", argv, {}))
    return out


TEN = [1, 10, 100, 1000, 10000]


def _ten_sums() -> List[int]:
    return sorted(sum(x for k, x in enumerate(TEN) if m >> k & 1)
                  for m in range(1, 1 << len(TEN)))


def _gamma_rows(*rows) -> List[List[int]]:
    """f rows, one per point of FS(TEN): (1, 0) but where a row is given."""
    table = {x: [x, 1, 0] for x in _ten_sums()}
    table.update((row[0], list(row)) for row in rows)
    return list(table.values())


# A bundle of each kind, all but the rnh ones verifying.
BUNDLES = {
    "hnr": {"window": 4, "f": [[0, 1, 1], [0, 2, 4], [0, 3, 3], [1, 2, 13], [1, 3, 9],
                               [2, 3, 4]],
            "b": [0, 1], "B": [[0, 1, 2, 3], [1, 2, 3]], "D": [1, 3, 9, 27]},
    "final": {"window": 4, "f": [[0, 1, 1], [0, 2, 3], [1, 2, 4], [0, 3, 9], [1, 3, 9],
                                 [2, 3, 9]],
              "D": [1, 3, 9], "b": [0, 1, 2, 3], "C": [1, 3]},
    "rnh-1": {"case": 1, "X": [1, 10], "D": [1, 10], "k": 0, "x": [1], "Dn": [[10]],
              "f": [[1, 1, 0], [10, 1, 0], [11, 1, 0]]},
    "rnh-1-ten": {"case": 1, "X": TEN, "D": TEN, "k": 0, "x": [1, 1],
                  "Dn": [[10, 100], [100]], "f": _gamma_rows([100, 5, 1], [110, 5, 1])},
    "rnh-2": {"case": 2, "X": TEN, "n": [1, 6], "j": [0, 0], "k": [-1, -1], "F": [[], []],
              "x": [11, 100], "Dn": [[100, 1000], [100000]],
              "f": _gamma_rows([11, 5, 1], [111, 6, 1], [1011, 3, 1], [1111, 4, 1],
                               [100, 7, 6], [1100, 8, 6])},
}


def _search_carrier(ideal: str, ground: str) -> List:
    if ideal == "ramsey":
        n = int(ground)
        return [[i, j] for i in range(n) for j in range(i + 1, n)]
    if ".." in ground:
        lo, hi = map(int, ground.split(".."))
        return list(range(lo, hi + 1))
    return [int(x) for x in ground.split(",")]


def _reduction_bundle(rng: random.Random) -> Dict:
    """A map from a small dst carrier to a small src carrier.  Where the
    ideals are the same, and three times in ten otherwise, each element that
    is also a src element is kept; every other element is sent anywhere."""
    src = rng.choice(["vdw", "summable", "fin", "ramsey", "hindman"])
    dst = rng.choice(["vdw", "summable", "fin", "ramsey", "hindman"])
    grounds = {ideal: _search_ground(rng, ideal).replace("0..12", "0..5")
               for ideal in dict.fromkeys([src, dst])}
    src_elems = _search_carrier(src, grounds[src])
    dst_elems = _search_carrier(dst, grounds[dst])
    keep = src == dst or rng.random() < 0.3
    pairs = [[x, x if keep and x in src_elems else rng.choice(src_elems)] for x in dst_elems]
    return {"src": {"ideal": src, "ground": grounds[src]},
            "dst": {"ideal": dst, "ground": grounds[dst]}, "map": pairs}


def _mutated(rng: random.Random, bundle: Dict) -> Tuple[str, object]:
    """The bundle with one change: a recolored or changed entry, a dropped,
    retyped or nested field, a duplicated row, or the whole bundle replaced
    by a list; named by the change."""
    bundle = json.loads(json.dumps(bundle))
    key = rng.choice(sorted(bundle))
    value = bundle[key]
    how = rng.randrange(7)
    if how == 0:
        del bundle[key]
        return f"drop-{key}", bundle
    if how == 1:
        bundle[key] = rng.choice(["2", None, True, {"a": 1}, 7, [], [[1, [2]]]])
        return f"retype-{key}", bundle
    if how == 2 and isinstance(value, list) and value:
        bundle[key] = value + [value[rng.randrange(len(value))]]
        return f"repeat-{key}", bundle
    if how == 3 and isinstance(value, list) and value:
        at = rng.randrange(len(value))
        row = value[at]
        if isinstance(row, list) and row and all(isinstance(x, int) for x in row):
            row[rng.randrange(len(row))] += rng.choice([1, 2, 5, -1])
        elif isinstance(row, int):
            value[at] = row + rng.choice([1, 2, 5, -1])
        return f"change-{key}", bundle
    if how == 4 and isinstance(value, int) and not isinstance(value, bool):
        bundle[key] = value + rng.choice([1, -1, 3])
        return f"change-{key}", bundle
    if how == 5:
        return "a-list", [bundle]
    return "unchanged", bundle


def verify_cases(rng: random.Random, count: int) -> List[Case]:
    """Valid and mutated bundles of each kind, text that is not JSON, and a
    bundle file that is not there."""
    out = []
    for i in range(count):
        name = rng.choice(["reduction", "reduction", "hnr", "final", "rnh-1", "rnh-1-ten",
                           "rnh-2"])
        bundle = _reduction_bundle(rng) if name == "reduction" else BUNDLES[name]
        what = name.split("-")[0]
        change, bundle = ("unchanged", bundle) if rng.random() < 0.3 else \
            _mutated(rng, bundle)
        text = json.dumps(bundle)
        if rng.random() < 0.04:
            change, text = "not-json", text[: len(text) // 2]
        argv = ["verify", "--what", what, "--bundle", BUNDLE]
        if what == "reduction":
            argv += ["--ap-len", "3", "--clique-size", "3", "--fs-size", "2",
                     "--tau", rng.choice(["1/2", "1", "3/2"]), "--window", "9"]
        files = {BUNDLE: text}
        if rng.random() < 0.03:
            change, files = "no-file", {}
        out.append(Case(f"verify-{i:03d}-{name}-{change}", argv, files))
    return out


def help_cases() -> List[Case]:
    """``-h`` for the root and each subcommand, narrow and wide."""
    return [Case(f"help-{name or 'root'}-{columns}", [name, "-h"] if name else ["-h"], {},
                 columns)
            for columns in (40, 132)
            for name in ("", "oracle", "fs", "canonize", "adversary", "search", "verify")]


def cli_corpus() -> List[Case]:
    return (oracle_cases(random.Random(11), 420) + fs_cases(random.Random(12), 240)
            + canonize_cases(random.Random(13), 200) + search_cases(random.Random(14), 120)
            + verify_cases(random.Random(15), 200) + help_cases())


CORPORA: Dict[str, Tuple[Path, Callable[[], List[Case]]]] = {
    "adversary": (PINNED / "adversary_corpus.json", adversary_corpus),
    "cli": (PINNED / "cli_corpus.json", cli_corpus),
}


def run_case(case: Case) -> Dict[str, object]:
    """The sha256 of the call's stdout and its exit code, run in the current
    working directory after writing the case's files there, with COLUMNS
    set to its width.  An exception that escapes the command line is
    recorded by its type in place of a code."""
    for name, text in case.files.items():
        Path(name).write_text(text, encoding="utf-8")
    os.environ["COLUMNS"] = str(case.columns)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(case.argv)
            code: object = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is pinned as such, never hidden
            code = f"raised {type(exc).__name__}"
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "exit": code}


def outputs(cases: List[Case], workdir: str) -> Dict[str, Dict[str, object]]:
    """Every case's result, each run in its own directory under workdir."""
    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    got = {}
    try:
        for case in cases:
            case_dir = os.path.join(workdir, case.id)
            os.mkdir(case_dir)
            os.chdir(case_dir)
            got[case.id] = run_case(case)
    finally:
        os.chdir(here)
        if columns is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = columns
    return got


def check_corpus(corpus: Tuple[Path, Callable[[], List[Case]]],
                 workdir: str) -> Tuple[List[Case], float]:
    """Recompute a corpus against its pins: its cases and the seconds the
    run took, or an AssertionError naming the first 10 cases that differ."""
    path, make = corpus
    pinned = json.loads(path.read_text(encoding="utf-8"))
    cases = make()
    start = time.perf_counter()
    got = outputs(cases, workdir)
    elapsed = time.perf_counter() - start
    assert set(got) == set(pinned)
    wrong = [f"{case.id} {case.argv}" for case in cases if got[case.id] != pinned[case.id]]
    assert wrong[:10] == [], f"{len(wrong)} of {len(cases)} cases differ"
    return cases, elapsed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: corpus.py --write")
    for path, cases in CORPORA.values():
        with tempfile.TemporaryDirectory() as workdir:
            pinned = outputs(cases(), workdir)
        path.write_text(dumps_stable(pinned), encoding="utf-8")
        print(f"wrote {len(pinned)} cases to {path}")
