"""Outside-in tracer: spans and counts recorded around gradate's layers.

Nothing inside ``src/`` knows about it. ``Tracer.install`` replaces public
functions at the module attribute through which their callers reach them
(the "import binding"), records one span per call (name, start, end,
parent) plus a few counts read from arguments and results, and
``uninstall`` puts every original back. Spans stay in memory until
``dump`` writes them out. Only the traced run installs it; the untraced
run patches nothing.

The process is single-threaded (jobs=1), so one stack gives every span its
parent, and child spans never overlap: self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict


def _fgw_result(counts, args, kwargs, result):
    counts["fgw.fw_iterations"] += result.iterations
    counts["fgw.nonconverged"] += not result.converged


def _embeddings(counts, args, kwargs, result):
    counts["linear_fgw.embed.nonconverged"] += sum(not e.converged for e in result)


def _great_result(counts, args, kwargs, result):
    counts["great.iterations"] += len(result[1].iterations)


def _cache_read(counts, args, kwargs, result):
    counts["io.cache.bytes_read"] += os.path.getsize(args[0])


def _barycenter_graphs(counts, args, kwargs, result):
    return len(args[0])


def _lp_cells(counts, args, kwargs, result):
    rows, cols = args[0].shape
    return rows * cols


# (module, attribute, span name, hook). A hook adds to the counts and may
# return a payload kept on the span. A function reached through
# several bindings is wrapped at each of them under one span name. The
# `gradate.gdd` module is imported by name: the package attribute of that
# name is the `gdd()` function re-exported by `gradate/__init__.py`.
BINDINGS = [
    ("gradate.fgw", "solve_exact_ot", "ot.inner_lp", None),
    ("gradate.pipeline", "solve_exact_ot", "ot.outer_lp", _lp_cells),
    ("gradate.gdd", "solve_exact_ot", "ot.outer_lp", _lp_cells),
    ("gradate.pipeline", "solve_sinkhorn", "ot.sinkhorn", None),
    ("gradate.fgw", "fgw_distance", "fgw.solve", _fgw_result),
    ("gradate.linear_fgw", "fgw_distance", "fgw.solve", _fgw_result),
    ("gradate.gdd", "fgw_barycenter", "fgw.barycenter", _barycenter_graphs),
    ("gradate.linear_fgw", "fgw_barycenter", "fgw.barycenter", _barycenter_graphs),
    ("gradate.gdd", "embed_all", "linear_fgw.embed", _embeddings),
    ("gradate.linear_fgw", "embed_all", "linear_fgw.embed", _embeddings),
    ("gradate.gdd", "linear_fgw_distance", "linear_fgw.pair", None),
    ("gradate.linear_fgw", "linear_fgw_distance", "linear_fgw.pair", None),
    ("gradate.pipeline", "cross_linear_fgw", "gdd.cross_block", None),
    ("gradate.cli", "cross_linear_fgw", "gdd.cross_block", None),
    ("gradate.gdd", "label_distance_table", "gdd.label_table", None),
    ("gradate.pipeline", "label_informed_cost", "gdd.label_cost", None),
    ("gradate.cli", "label_informed_cost", "gdd.label_cost", None),
    ("gradate.great", "gdd_from_cost", "gdd.outer", None),
    ("gradate.cli", "gdd_from_cost", "gdd.outer", None),
    ("gradate.pipeline", "great_select", "great.loop", _great_result),
    ("gradate.pipeline", "gradate", "pipeline.select", None),
    ("gradate.cli", "gradate", "pipeline.select", None),
    ("gradate.cli", "lava_select", "pipeline.select", None),
    ("gradate.io", "load_dataset", "io.load_dataset", None),
    ("gradate.io", "dataset_hash", "io.dataset_hash", None),
    ("gradate.pipeline", "dataset_hash", "io.dataset_hash", None),
    ("gradate.io", "load_matrix_cache", "io.cache_read", _cache_read),
    ("gradate.io", "save_matrix_cache", "io.cache_write", None),
    ("gradate.io", "save_selection", "io.save_selection", None),
    ("gradate.cli", "main", "cli.command", None),
    ("gradate.cli", "degree_one_hot_features", "cli.featurize", None),
]

# Per-layer metrics: name -> (unit, better). Their order is the report order.
PER_LAYER = {
    "ot.inner_lp.calls": ("count", "lower"),
    "ot.inner_lp.busy_s": ("s", "lower"),
    "ot.inner_lp.us_per_call": ("us", "lower"),
    "ot.outer_lp.calls": ("count", "lower"),
    "ot.outer_lp.busy_s": ("s", "lower"),
    "ot.outer_lp.max_cells": ("cells", "lower"),
    "ot.sinkhorn.calls": ("count", "lower"),
    "ot.sinkhorn.busy_s": ("s", "lower"),
    "fgw.solve.calls": ("count", "lower"),
    "fgw.solve.self_s": ("s", "lower"),
    "fgw.fw_iterations": ("count", "lower"),
    "fgw.nonconverged": ("count", "lower"),
    "fgw.barycenter.busy_s": ("s", "lower"),
    "fgw.barycenter.rounds": ("count", "higher"),
    "linear_fgw.embed.busy_s": ("s", "lower"),
    "linear_fgw.embed.nonconverged": ("count", "lower"),
    "linear_fgw.pair.calls": ("count", "lower"),
    "linear_fgw.pair.busy_s": ("s", "lower"),
    "gdd.cross_block.self_s": ("s", "lower"),
    "gdd.label_table.busy_s": ("s", "lower"),
    "gdd.label_cost.self_s": ("s", "lower"),
    "gdd.outer.calls": ("count", "lower"),
    "great.loop.busy_s": ("s", "lower"),
    "great.loop.self_s": ("s", "lower"),
    "great.iterations": ("count", "lower"),
    "pipeline.select.calls": ("count", "lower"),
    "pipeline.select.self_s": ("s", "lower"),
    "io.load_dataset.busy_s": ("s", "lower"),
    "io.dataset_hash.calls": ("count", "lower"),
    "io.dataset_hash.busy_s": ("s", "lower"),
    "io.cache.hits": ("count", "higher"),
    "io.cache.misses": ("count", "lower"),
    "io.cache.hit_ratio": ("ratio", "higher"),
    "io.cache.bytes_read": ("bytes", "lower"),
    "io.save_selection.busy_s": ("s", "lower"),
    "cli.command.self_s": ("s", "lower"),
    "cli.featurize.busy_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        self._originals = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, payload]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                spans[index][4] = hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every binding that exists; return the ones that do not."""
        missing = []
        for module_name, attr, name, hook in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))
        return missing

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans],
                       "counts": dict(self.counts)}, fh)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        return layer_metrics(self.spans, self.counts)


def layer_metrics(spans, counts) -> dict[str, float]:
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]

    def has_ancestor(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    calls, busy, self_time = Counter(), defaultdict(float), defaultdict(float)
    max_cells = 0
    for i, (name, _, _, _, payload) in enumerate(spans):
        # Label-table LPs reach the same solver binding as the outer LP;
        # they are label-table work, not the selection's outer OT.
        if name == "ot.outer_lp":
            if has_ancestor(i, "gdd.label_table"):
                name = "gdd.label_table.lp"
            else:
                max_cells = max(max_cells, payload)
        calls[name] += 1
        self_time[name] += duration[i] - child_time[i]
        if not has_ancestor(i, name):
            busy[name] += duration[i]

    # One barycenter round solves one coupling per input graph.
    solves_under = Counter(parent for name, _, _, parent, _ in spans if name == "fgw.solve")
    rounds = max((solves_under[i] / n_graphs for i, (name, _, _, _, n_graphs) in enumerate(spans)
                  if name == "fgw.barycenter"), default=0.0)
    hits, misses = calls["io.cache_read"], calls["io.cache_write"]
    inner = calls["ot.inner_lp"]
    return {
        "ot.inner_lp.calls": inner,
        "ot.inner_lp.busy_s": busy["ot.inner_lp"],
        "ot.inner_lp.us_per_call": 1e6 * busy["ot.inner_lp"] / inner if inner else 0.0,
        "ot.outer_lp.calls": calls["ot.outer_lp"],
        "ot.outer_lp.busy_s": busy["ot.outer_lp"],
        "ot.outer_lp.max_cells": max_cells,
        "ot.sinkhorn.calls": calls["ot.sinkhorn"],
        "ot.sinkhorn.busy_s": busy["ot.sinkhorn"],
        "fgw.solve.calls": calls["fgw.solve"],
        "fgw.solve.self_s": self_time["fgw.solve"],
        "fgw.fw_iterations": counts["fgw.fw_iterations"],
        "fgw.nonconverged": counts["fgw.nonconverged"],
        "fgw.barycenter.busy_s": busy["fgw.barycenter"],
        "fgw.barycenter.rounds": rounds,
        "linear_fgw.embed.busy_s": busy["linear_fgw.embed"],
        "linear_fgw.embed.nonconverged": counts["linear_fgw.embed.nonconverged"],
        "linear_fgw.pair.calls": calls["linear_fgw.pair"],
        "linear_fgw.pair.busy_s": busy["linear_fgw.pair"],
        "gdd.cross_block.self_s": self_time["gdd.cross_block"],
        "gdd.label_table.busy_s": busy["gdd.label_table"],
        "gdd.label_cost.self_s": self_time["gdd.label_cost"],
        "gdd.outer.calls": calls["gdd.outer"],
        "great.loop.busy_s": busy["great.loop"],
        "great.loop.self_s": self_time["great.loop"],
        "great.iterations": counts["great.iterations"],
        "pipeline.select.calls": calls["pipeline.select"],
        "pipeline.select.self_s": self_time["pipeline.select"],
        "io.load_dataset.busy_s": busy["io.load_dataset"],
        "io.dataset_hash.calls": calls["io.dataset_hash"],
        "io.dataset_hash.busy_s": busy["io.dataset_hash"],
        "io.cache.hits": hits,
        "io.cache.misses": misses,
        "io.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "io.cache.bytes_read": counts["io.cache.bytes_read"],
        "io.save_selection.busy_s": busy["io.save_selection"],
        "cli.command.self_s": self_time["cli.command"],
        "cli.featurize.busy_s": busy["cli.featurize"],
        "trace.spans": len(spans),
    }
