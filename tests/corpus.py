"""A seeded corpus of ``idealforge adversary`` calls and their pinned output.

Each case is an id, an argv list and, for a table coloring, the text of the
table file.  The report header echoes ``--phi``, so a table file is always
named by the fixed relative path ``phi.txt`` and the case runs in a fresh
working directory that holds it.  The generators are seeded and share no
code with ``bench/``; they cover all four strategies, builtin, ``const:``
and table colorings, every ``--case``, nmax 1 to 6, several windows, and
the error paths: a missing option, an unknown builtin, an incomplete or
malformed table, a case mismatch, minmax for pairs and an exhausted search.

``pinned_reports/adversary_corpus.json`` maps each case id to the sha256 of
the call's stdout and its exit code.  Rewrite it with

    PYTHONPATH=src python tests/corpus.py --write

only for a deliberate change to the reports, logged in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from idealforge.cli import main
from idealforge.report import dumps_stable

PINNED = Path(__file__).parent / "pinned_reports" / "adversary_corpus.json"
TABLE = "phi.txt"

Case = Tuple[str, List[str], Optional[str]]  # (id, argv, table text or None)

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
        out.append((f"w-{i:03d}", argv, table))
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
        out.append((f"h-{i:03d}", argv, table))
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
        out.append((f"r-{i:03d}", argv, table))
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
        out.append((f"rh-{i:03d}", argv, table))
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
    return [(f"named-{row[0]}", ["adversary", *row[1]], row[2] if len(row) > 2 else None)
            for row in rows]


def corpus() -> List[Case]:
    return (w_summable_cases(random.Random(1), 75) + h_summable_cases(random.Random(2), 75)
            + r_summable_cases(random.Random(3), 75) + r_hindman_cases(random.Random(4), 45)
            + named_cases())


def run_case(argv: List[str], table: Optional[str]) -> Dict[str, object]:
    """The sha256 of the call's stdout and its exit code, run in the current
    working directory after writing the table file there.  An exception that
    escapes the command line is recorded by its type in place of a code."""
    if table is not None:
        Path(TABLE).write_text(table, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(argv)
            code: object = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is pinned as such, never hidden
            code = f"raised {type(exc).__name__}"
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "exit": code}


def outputs(workdir: str) -> Dict[str, Dict[str, object]]:
    """Every case's result, each run in its own directory under workdir."""
    here = os.getcwd()
    got = {}
    try:
        for case_id, argv, table in corpus():
            case_dir = os.path.join(workdir, case_id)
            os.mkdir(case_dir)
            os.chdir(case_dir)
            got[case_id] = run_case(argv, table)
    finally:
        os.chdir(here)
    return got


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: corpus.py --write")
    with tempfile.TemporaryDirectory() as workdir:
        pinned = outputs(workdir)
    PINNED.write_text(dumps_stable(pinned), encoding="utf-8")
    print(f"wrote {len(pinned)} cases to {PINNED}")
