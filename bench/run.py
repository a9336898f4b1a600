"""idealforge benchmark: seeded closed-loop workloads with checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload replay|sums|queries|all --seed N \
        --seconds S --trace 0|1

One client in one process runs whole cycles of rounds of ops back to back
until the time is up (and at least MIN_OPS ops are done).  Only the library
calls are timed; input generation and the independent checks run between
ops.  Times are scaled to a reference speed measured beside them (see
``measure``).  With ``--trace 0`` the last stdout line is a JSON object
carrying the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of traced passes over a fixed prefix of the op stream, so
that its counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

from checks import Bad

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
NAMES = ("replay", "sums", "queries")

MIN_OPS = 100  # so that ten samples lie beyond the p90
SETUP_SPAWNS = 15
IMPORT_SPAWNS = 5
# Seconds the reference routine takes on a quiet machine of the kind the
# benchmark was written on (2 shared cores, CPython 3.11).  Times are scaled
# by REFERENCE_S over the reference time measured next to them.
REFERENCE_S = 0.004
# Rounds in one traced pass: a fixed op list, a few seconds long each.
TRACE_ROUNDS = {"replay": 4, "sums": 4, "queries": 25}

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import idealforge\n"
    "from idealforge import cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_sample() -> float:
    """Seconds from a fresh interpreter to a built parser.

    Interpreter start-up is excluded: the clock starts inside the child.
    """
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def reference() -> int:
    """Fixed pure-Python work of the kind the library does: dicts, sets,
    small ints, sorting and exact fractions."""
    total = 0
    seen = {}
    for i in range(12000):
        key = (i * 7919) % 1009
        seen[key] = seen.get(key, 0) + 1
        total += key & -key
    members = set(range(0, 24000, 3))
    total += sum(1 for i in range(24000) if i in members)
    total += len(sorted(seen.items(), key=lambda kv: kv[1]))
    total += sum((Fraction(1, k + 1) for k in range(160)), Fraction(0)).numerator % 7
    return total


def reference_seconds() -> float:
    """Best of three timings of ``reference``: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


_NULL = nullcontext()


def _no_span(layer, name):
    return _NULL


def run_ops(workload, ops, span, tracer=None, first=0):
    """Time each op, then check it; returns (latencies, failures)."""
    latencies = []
    failures = []
    clock = time.perf_counter
    for i, op in enumerate(ops, first):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            out = workload.execute(op, span)
        except Exception as exc:  # an op may raise; it is counted as failed below
            out = exc
        dt = clock() - t0
        if tracer is not None:
            tracer.end_op(dt)
        latencies.append(dt)
        if isinstance(out, Exception):
            failures.append(f"op {i}: raised {type(out).__name__}: {out}")
            continue
        try:
            workload.check(op, out)
        except Bad as exc:
            failures.append(f"op {i}: {exc}")
        except Exception as exc:  # malformed output that the check cannot read
            failures.append(f"op {i}: unreadable output ({type(exc).__name__}: {exc})")
    return latencies, failures


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(name: str, seed: int, seconds: float, workdir: str) -> dict:
    """Whole cycles of rounds until the time is up.

    The host's speed drifts by tens of percent over minutes, so every time
    is scaled to the reference speed measured around it: the ops of one
    cycle by the mean of the reference timings before and after the cycle,
    and each set-up spawn likewise.  Set-up spawns are spread over the run.
    """
    import workloads

    workload = workloads.WORKLOADS[name]
    setup_sample()  # compiles the bytecode cache; not measured
    ref = reference_seconds()
    setups = []

    def timed_setup():
        nonlocal ref
        sample = setup_sample()
        after = reference_seconds()
        setups.append(sample * 2 * REFERENCE_S / (ref + after))
        ref = after

    timed_setup()
    ctx = workload.setup(random.Random(f"{name}:{seed}:setup"), workdir)
    rng = random.Random(f"{name}:{seed}")
    latencies, scaled, failures, factors = [], [], [], []
    start = last_setup = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        lat = []
        for _ in range(workload.cycle):
            more, fail = run_ops(workload, workload.make_round(rng, r, ctx), _no_span,
                                 first=len(latencies) + len(lat))
            lat += more
            failures += fail
            r += 1
        after = reference_seconds()
        factor = 2 * REFERENCE_S / (ref + after)
        ref = after
        factors.append(factor)
        latencies += lat
        scaled += [x * factor for x in lat]
        if (len(setups) < SETUP_SPAWNS
                and time.perf_counter() - last_setup >= seconds / SETUP_SPAWNS):
            timed_setup()
            last_setup = time.perf_counter()
    while len(setups) < SETUP_SPAWNS:
        timed_setup()
    done = len(latencies) - len(failures)
    return {
        "rounds": r,
        "attempted": len(latencies),
        "failures": failures,
        "raw": {
            "ops_per_s": done / sum(latencies),
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_p90_ms": 1000.0 * quantile(latencies, 0.90),
            "speed_factor": statistics.median(factors),
        },
        "metrics": {
            "ops_per_s": (done / sum(scaled), "ops/s"),
            "latency_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
            "latency_p90_ms": (1000.0 * quantile(scaled, 0.90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }


def measure_traced(name: str, seed: int, seconds: float, workdir: str) -> dict:
    """Per-layer metrics over one fixed op list.

    Untraced and span-traced passes alternate until the time is up; self
    times are medians over the traced passes.  A last pass adds the hot
    counters; its counts are reported, and the counts that the span passes
    also see must agree with it exactly.
    """
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(random.Random(f"{name}:{seed}:setup"), workdir)
    rng = random.Random(f"{name}:{seed}")
    ops = [op for r in range(TRACE_ROUNDS[name]) for op in workload.make_round(rng, r, ctx)]

    def traced_pass(hot: bool):
        tracer = tracing.Tracer(hot)
        tracer.install()
        try:
            lat, fail = run_ops(workload, ops, tracer.span, tracer)
        finally:
            tracer.uninstall()
        return len(ops) / sum(lat), tracer, fail

    plain_rates, traced, failures = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        lat, fail = run_ops(workload, ops, _no_span)
        plain_rates.append(len(ops) / sum(lat))
        rate, tracer, fail2 = traced_pass(hot=False)
        traced.append((rate, tracer.metrics()))
        failures += fail + fail2
        if len(traced) == 1:
            tracer.dump(os.path.join(os.path.dirname(workdir), f"spans-{name}-seed{seed}.jsonl"))
    _, counter, fail = traced_pass(hot=True)
    failures += fail
    values = counter.metrics()
    for _, other in traced:
        for key in tracing.SPAN_COUNTS:
            if other[key] != values[key]:
                failures.append(f"count {key} differs between traced passes")
    for key in tracing.TIMES:
        values[key] = statistics.median(m[key] for _, m in traced)
    values["trace.overhead_ratio"] = (statistics.median(rate for rate, _ in traced)
                                      / statistics.median(plain_rates))
    values.update(tracing.import_ms(ROOT, IMPORT_SPAWNS))
    return {
        "rounds": TRACE_ROUNDS[name],
        "attempted": (2 * len(traced) + 1) * len(ops),
        "failures": failures,
        "ops": len(ops),
        "passes": len(traced),
        "metrics": {k: (values[k], unit) for k, unit in tracing.METRICS.items()},
    }


def _report(name, seed, result, trace) -> dict:
    failed = len(result["failures"])
    attempted = result["attempted"]
    what = (f"{result['passes']} traced passes of {result['ops']} ops"
            if trace else f"{attempted} ops in {result['rounds']} rounds")
    print(f"{name} seed {seed}: {what}; failed {failed}/{attempted} "
          f"(failed_ratio {failed / attempted:.4f})")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:32s} {value:14.4f} {unit}")
    for key, value in result.get("raw", {}).items():
        print(f"  unscaled {key:23s} {value:14.4f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def run_all(args) -> int:
    """Run each workload in its own process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "idealforge", "__init__.py")):
        sys.stderr.write(f"no idealforge sources under {SRC}; run from a checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)

    workdir = os.path.join(ROOT, ".bench_build", "bench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(_report(args.workload, args.seed, result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
