"""The benchmark's own ops run clean against the library: one whole cycle of
each workload in bench/workloads.py goes through bench/run.run_ops with the
benchmark's checks and fails no op.  A library change that breaks the
harness fails here, before a benchmark run."""

import argparse
import hashlib
import importlib
import random
from pathlib import Path

import pytest

from idealforge import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py and bench/workloads.py, imported from the bench directory."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("run"), importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["replay", "sums", "queries"])
def test_one_cycle_of_each_workload_fails_no_op(bench, name, tmp_path):
    run, workloads = bench
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(random.Random(f"{name}:1:setup"), str(tmp_path / name))
    rng = random.Random(f"{name}:1")
    ops = [op for r in range(workload.cycle) for op in workload.make_round(rng, r, ctx)]
    latencies, failures = run.run_ops(workload, ops, run._no_span)
    assert len(latencies) == len(ops) > 0
    assert failures == []


def test_a_queries_cycle_is_parsed_without_argparse(bench, tmp_path, monkeypatch):
    # The table parser answers every argv of one seed-11 cycle, so the
    # cycle constructs no ArgumentParser and makes no add_argument call.
    run, workloads = bench
    workload = workloads.WORKLOADS["queries"]
    ctx = workload.setup(random.Random("queries:11:setup"), str(tmp_path))
    rng = random.Random("queries:11")
    ops = [op for r in range(workload.cycle) for op in workload.make_round(rng, r, ctx)]
    assert len(ops) == 76
    assert [op["argv"] for op in ops if cli._parse_plain(op["argv"]) is None] == []
    calls = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda *args, **kwargs: calls.append("ArgumentParser"))
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda *args, **kwargs: calls.append("add_argument"))
    latencies, failures = run.run_ops(workload, ops, run._no_span)
    assert failures == [] and calls == []


# sha256 of repr(outputs) for one seed-11 cycle: the list of what
# workload.execute returns for each op, in op order.  A kernel change that
# keeps these hashes gives byte-identical output on the cycle.  queries is
# left out: its reports embed the paths of the table files set-up writes.
OUTPUT_SHA256 = {
    "replay": "f4799afd3d3baab7911048cdadcdebb2a11986c1f72d5aeb1540985679952c6e",
    "sums": "1fe2726e354c4dfc61c73927f1833fc8e43963728da2c7dc4f83dbacfdd1c3a0",
}


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_a_seed_11_cycle_gives_the_pinned_outputs(bench, name, tmp_path):
    run, workloads = bench
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(random.Random(f"{name}:11:setup"), str(tmp_path))
    rng = random.Random(f"{name}:11")
    ops = [op for r in range(workload.cycle) for op in workload.make_round(rng, r, ctx)]
    outputs = [workload.execute(op, run._no_span) for op in ops]
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == OUTPUT_SHA256[name]
