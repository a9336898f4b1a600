"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Checks that one seed always generates the same inputs (and another seed
different ones), that honest outputs pass, and that a tampered certificate,
a conflict set missing one element or a wrong clique each count as a failed
op.  Exits non-zero on the first broken property.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def plain(x):
    """The generated inputs as plain data; library objects show as their type."""
    if isinstance(x, dict):
        return [[plain(k), plain(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return type(x).__name__


def fingerprint(ops) -> str:
    return json.dumps(plain(ops))


def make_ops(name: str, seed: int, rounds: int, workdir: str):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(random.Random(f"{name}:{seed}:setup"), workdir)
    rng = random.Random(f"{name}:{seed}")
    return [op for r in range(rounds) for op in workload.make_round(rng, r, ctx)]


def failures_with(name: str, ops, mutate) -> int:
    """Failed-op count when every output passes through ``mutate`` first."""
    honest = workloads.WORKLOADS[name]
    tampered = workloads.Workload(name, honest.make_round,
                                  lambda op, span: mutate(honest.execute(op, span)),
                                  honest.check)
    _, failures = run.run_ops(tampered, ops, run._no_span)
    return len(failures)


def bump_certificate(out):
    doc = json.loads(out["text"])
    cert = Fraction(doc["certificate"]["sum"]) + Fraction(1, 10 ** 9)
    doc["certificate"]["sum"] = checks.rational(cert)
    return dict(out, text=json.dumps(doc))


def drop_conflict(out):
    y = out["fs"][-1]
    conflict = dict(out["conflict"])
    conflict[y] = conflict[y][:-1]
    return dict(out, conflict=conflict)


def shift_clique(out):
    code, text = out
    doc = json.loads(text)
    doc["body"]["clique"][-1] += 1
    return code, json.dumps(doc)


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_build", "bench", f"selftest-{os.getpid()}")
    problems = []

    def expect(ok: bool, what: str):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    try:
        for name in run.NAMES:
            a = fingerprint(make_ops(name, 7, 2, os.path.join(workdir, "a")))
            b = fingerprint(make_ops(name, 7, 2, os.path.join(workdir, "a")))
            c = fingerprint(make_ops(name, 8, 2, os.path.join(workdir, "a")))
            expect(a == b, f"{name}: one seed gives identical inputs")
            expect(a != c, f"{name}: another seed gives other inputs")

        replay = [op for op in make_ops("replay", 3, 1, workdir)
                  if op["strategy"] == "h" and op["case"] != "const"][:1]
        sums = [op for op in make_ops("sums", 3, 1, workdir)
                if op["kind"] == "basis" and op["k"] >= 3][:2]
        queries = [op for op in make_ops("queries", 3, 40, workdir)
                   if op["kind"] == "oracle-ramsey" and op["q"]["op"] == "clique"
                   and checks_clique(op)][:2]
        expect(len(replay) == 1 and len(sums) == 2 and len(queries) == 2,
               "found ops to tamper with")
        for name, ops, mutate, what in (
                ("replay", replay, bump_certificate, "tampered certificate"),
                ("sums", sums, drop_conflict, "conflict set missing one element"),
                ("queries", queries, shift_clique, "wrong clique")):
            expect(failures_with(name, ops, lambda out: out) == 0,
                   f"{name}: honest outputs pass")
            expect(failures_with(name, ops, mutate) == len(ops),
                   f"{name}: {what} counts as a failed op")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if problems else 0


def checks_clique(op) -> bool:
    q = op["q"]
    return workloads._first_clique(q["n"], q["edges"], q["k"]) is not None


if __name__ == "__main__":
    sys.exit(main())
