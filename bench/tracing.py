"""Per-layer tracing from outside the library.

Each layer is one module of ``idealforge``.  The tracer wraps the layer's
public functions wherever a module binds them (so nested calls such as
``adversary.classify_fs_on`` are seen too) and records a span per call.
Hot methods (``NatSet.__init__``, ``SparseBasis.alpha``, coloring queries)
get plain counters instead, and only in a separate counting pass: a wrapper
costs about 0.4 us per call, and millions of calls would otherwise be
charged to the caller's self time.  Everything is restored by
``uninstall``.  Spans stay in memory and are written out after the run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import Counter

from idealforge import adversary, canonical, cli, ideals, reduction, report, sparse
from idealforge.errors import SearchExhausted

MODULES = (ideals, sparse, canonical, adversary, reduction, report, cli)

SPANNED = {
    ideals: ("find_ap", "longest_ap", "find_clique", "is_positive", "reciprocal_sum",
             "tall_witness"),
    sparse: ("fs", "conflict_set", "find_fs_subset", "is_very_sparse", "very_sparse_subset"),
    canonical: ("classify_fs_on", "classify_pairs_on", "find_canonical_subset",
                "find_block_basis"),
    adversary: ("defeat_w_summable", "defeat_h_summable", "defeat_r_summable",
                "defeat_r_hindman", "verify_transcript", "check_hnr_conditions",
                "check_rnh_conditions", "replay_final_contradiction"),
    reduction: ("search_reduction", "verify_reduction", "positive_family"),
    report: ("dumps_stable",),
    cli: ("build_parser", "run"),
}
SPANNED_METHODS = (
    (sparse, sparse.SparseBasis, "__init__"),
    (report, report.Report, "to_json_dict"),
)
COUNTED_METHODS = (
    ("ideals.natset_inits", ideals.NatSet, "__init__"),
    ("sparse.alpha_calls", sparse.SparseBasis, "alpha"),
    ("canonical.coloring_queries", canonical.NatColoring, "__call__"),
    ("canonical.coloring_queries", canonical.PairColoring, "__call__"),
)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)
CONSTRUCT = {"defeat_w_summable", "defeat_h_summable", "defeat_r_summable",
             "defeat_r_hindman"}

# Per-layer metrics, in the order they are reported; all are totals over the
# traced pass except the ratios.
METRICS = {
    "ideals.calls": "count", "ideals.self_ms": "ms", "ideals.natset_inits": "count",
    "ideals.import_ms": "ms",
    "sparse.calls": "count", "sparse.self_ms": "ms", "sparse.alpha_calls": "count",
    "sparse.fs_subset_hit_ratio": "ratio", "sparse.import_ms": "ms",
    "canonical.calls": "count", "canonical.self_ms": "ms",
    "canonical.points_classified": "count", "canonical.coloring_queries": "count",
    "canonical.classified_ratio": "ratio", "canonical.import_ms": "ms",
    "adversary.construct_ms": "ms", "adversary.verify_ms": "ms", "adversary.steps": "count",
    "adversary.checks_recorded": "count", "adversary.exhausted": "count",
    "adversary.import_ms": "ms",
    "reduction.calls": "count", "reduction.self_ms": "ms", "reduction.nodes": "count",
    "reduction.positive_checks": "count", "reduction.import_ms": "ms",
    "report.self_ms": "ms", "report.bytes": "bytes", "report.import_ms": "ms",
    "cli.parse_ms": "ms", "cli.dispatch_ms": "ms", "cli.import_ms": "ms",
    "trace.unattributed_ms": "ms", "trace.overhead_ratio": "ratio",
}
TIMES = tuple(k for k, unit in METRICS.items() if unit == "ms" and "import" not in k)
HOT = ("ideals.natset_inits", "sparse.alpha_calls", "canonical.coloring_queries")
# Counts that every traced pass sees, with or without the hot counters.
SPAN_COUNTS = tuple(k for k, unit in METRICS.items() if unit in ("count", "bytes", "ratio")
                    and k != "trace.overhead_ratio" and k not in HOT)


class _Span:
    __slots__ = ("tracer", "layer", "name", "sid")

    def __init__(self, tracer, layer, name):
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        self.sid = self.tracer.open(self.layer, self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


class Tracer:
    """Spans ``[name, layer, start, end, parent, op]`` plus named counts."""

    def __init__(self, hot: bool = False):
        self.hot = hot
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self.op_walls = []
        self._restore = []

    # -- recording
    def open(self, layer, name) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, 0.0, 0.0, parent, self.op])
        self.stack.append(sid)
        self.spans[sid][2] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def span(self, layer, name):
        return _Span(self, layer, name)

    def begin_op(self, index: int) -> None:
        self.op = index

    def end_op(self, wall: float) -> None:
        self.op_walls.append(wall)

    # -- installation
    def _on_result(self, name, args, result, sid):
        counts = self.counts
        if name == "find_fs_subset":
            counts["fs_subset.calls"] += 1
            counts["fs_subset.hits"] += result is not None
        elif name in SPANNED[canonical]:
            counts["canonical.results"] += 1
            counts["canonical.classified"] += result is not None
            if name == "classify_fs_on":
                counts["canonical.points_classified"] += (1 << len(args[1])) - 1
            elif name == "classify_pairs_on":
                counts["canonical.points_classified"] += len(args[1])
        elif name in CONSTRUCT:
            counts["adversary.steps"] += len(result.steps)
            counts["adversary.checks_recorded"] += sum(len(s.checks) for s in result.steps)
        elif name == "search_reduction":
            counts["reduction.nodes"] += result.nodes
        elif name == "dumps_stable":
            counts["report.bytes"] += len(result)
        elif name == "is_positive":
            parent = self.spans[sid][4]
            if parent >= 0 and self.spans[parent][1] == "reduction":
                counts["reduction.positive_checks"] += 1

    def _spanned(self, layer, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except SearchExhausted:
                if name in CONSTRUCT:
                    tracer.counts["adversary.exhausted"] += 1
                raise
            finally:
                tracer.close(sid)
            tracer._on_result(name, args, result, sid)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        binders = [sys.modules["idealforge"], *MODULES]
        for module, names in SPANNED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                wrapper = self._spanned(layer, name, original)
                for binder in binders:
                    if getattr(binder, name, None) is original:
                        self._patch(binder, name, wrapper)
        for module, cls, attr in SPANNED_METHODS:
            layer = module.__name__.rsplit(".", 1)[1]
            label = f"{cls.__name__}.{attr}"
            self._patch(cls, attr, self._spanned(layer, label, cls.__dict__[attr]))
        if self.hot:
            for key, cls, attr in COUNTED_METHODS:
                self._patch(cls, attr, self._counted(key, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reduction to metrics
    def metrics(self) -> dict:
        """Self times (ms) and counts, totalled over the traced ops."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        self_ms = Counter()
        for (name, layer, start, end, parent, op), inner in zip(self.spans, child):
            ms = 1000.0 * (end - start - inner)
            self_ms[layer] += ms
            if layer == "adversary":
                self_ms["construct" if name in CONSTRUCT else "verify"] += ms
            elif layer == "cli":
                self_ms["dispatch" if name == "run" else "parse"] += ms
        calls = Counter(layer for _, layer, *_ in self.spans)
        c = self.counts
        out = {
            "ideals.calls": calls["ideals"], "ideals.self_ms": self_ms["ideals"],
            "ideals.natset_inits": c["ideals.natset_inits"],
            "sparse.calls": calls["sparse"], "sparse.self_ms": self_ms["sparse"],
            "sparse.alpha_calls": c["sparse.alpha_calls"],
            "sparse.fs_subset_hit_ratio": _ratio(c["fs_subset.hits"], c["fs_subset.calls"]),
            "canonical.calls": calls["canonical"], "canonical.self_ms": self_ms["canonical"],
            "canonical.points_classified": c["canonical.points_classified"],
            "canonical.coloring_queries": c["canonical.coloring_queries"],
            "canonical.classified_ratio": _ratio(c["canonical.classified"],
                                                 c["canonical.results"]),
            "adversary.construct_ms": self_ms["construct"],
            "adversary.verify_ms": self_ms["verify"],
            "adversary.steps": c["adversary.steps"],
            "adversary.checks_recorded": c["adversary.checks_recorded"],
            "adversary.exhausted": c["adversary.exhausted"],
            "reduction.calls": calls["reduction"], "reduction.self_ms": self_ms["reduction"],
            "reduction.nodes": c["reduction.nodes"],
            "reduction.positive_checks": c["reduction.positive_checks"],
            "report.self_ms": self_ms["report"], "report.bytes": c["report.bytes"],
            "cli.parse_ms": self_ms["parse"], "cli.dispatch_ms": self_ms["dispatch"],
            "trace.unattributed_ms": 1000.0 * (sum(self.op_walls) - top),
        }
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, layer, start, end, parent, op]) + "\n")


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def import_ms(root: str, spawns: int) -> dict:
    """Median self import time of each layer module in fresh interpreters."""
    code = "import sys; sys.path.insert(0, 'src'); import idealforge.cli"
    samples = {layer: [] for layer in LAYERS}
    for _ in range(spawns):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=root,
                              capture_output=True, text=True, timeout=60, check=True)
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name.startswith("idealforge.") and name[len("idealforge."):] in samples:
                samples[name[len("idealforge."):]].append(int(self_us) / 1000.0)
    return {f"{layer}.import_ms": statistics.median(v) for layer, v in samples.items()}
