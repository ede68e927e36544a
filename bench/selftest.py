"""Self-test of the benchmark's own parts; no timing.

    python3 bench/selftest.py

Checks that the two_domain generator reproduces the acceptance suite's
criterion-6 corpus, that the generators are seeded, that every tracer
binding exists and is restored, that the span arithmetic is right, and that
BENCHMARK.json names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import importlib  # noqa: E402
from collections import Counter  # noqa: E402

from gradate import io  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

failures = []


def check(condition: bool, message: str) -> None:
    print(("PASS " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def corpus_checks() -> None:
    from test_acceptance import _two_domain_corpus

    ours, theirs = workloads.two_domain_corpus(97), _two_domain_corpus(seed=97)
    check([io.dataset_hash(d) for d in ours] == [io.dataset_hash(d) for d in theirs],
          "two_domain(97) has the criterion-6 corpus's dataset hashes")
    a, b = workloads.shifted_corpus(3, 50), workloads.shifted_corpus(3, 50)
    c = workloads.shifted_corpus(4, 50)
    check(io.dataset_hash(a) == io.dataset_hash(b) != io.dataset_hash(c),
          "shifted corpus is a function of its seed")
    x, y = workloads.shifted_input(1, 50), workloads.shifted_input(2, 50)
    check(io.dataset_hash(x) != io.dataset_hash(y)
          and io.covariate_split(x, "density") == io.covariate_split(y, "density"),
          "relabeling changes the input bytes but not the density split")
    train, val = workloads.shifted_split(5)
    check((len(train), len(val)) == (300, 100), "shifted_labeled splits 300 train x 100 val")


def binding_checks() -> None:
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _, _ in tracer.BINDINGS}
    t = tracer.Tracer()
    check(all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items()),
          "creating a tracer patches nothing")
    missing = t.install()
    check(not missing, f"every tracer binding exists ({missing or 'none missing'})")
    check(all(getattr(importlib.import_module(m), a) is not f
              for (m, a), f in originals.items()), "install wraps every binding")
    t.uninstall()
    check(all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items()),
          "uninstall restores every binding")


def span_checks() -> None:
    spans = [
        ["gdd.cross_block", 0.0, 10.0, -1, None],
        ["fgw.barycenter", 0.0, 6.0, 0, 2],
        ["fgw.solve", 0.0, 3.0, 1, None],
        ["ot.inner_lp", 0.0, 2.0, 2, None],
        ["fgw.solve", 3.0, 6.0, 1, None],
        ["gdd.label_table", 6.0, 8.0, 0, None],
        ["ot.outer_lp", 6.0, 7.0, 5, 12],
        ["ot.outer_lp", 8.0, 9.5, 0, 30],
    ]
    m = tracer.layer_metrics(spans, Counter())
    check(m["gdd.cross_block.self_s"] == 10.0 - 6.0 - 2.0 - 1.5, "self time subtracts children")
    check(m["fgw.solve.self_s"] == 1.0 + 3.0, "self time sums over spans of one name")
    check(m["fgw.barycenter.rounds"] == 1.0, "rounds = barycenter solves / graphs")
    check((m["ot.outer_lp.calls"], m["ot.outer_lp.max_cells"]) == (1, 30),
          "label-table LPs are not counted as outer LPs")
    check(set(m) | {"trace.overhead_frac"} == set(tracer.PER_LAYER),
          "layer_metrics yields every per-layer metric")


def manifest_checks() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in manifest["workloads"]} <= set(run.WORKLOADS),
          "every BENCHMARK.json workload is one run.py runs")
    check({m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check({m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
          == tracer.PER_LAYER, "BENCHMARK.json per_layer matches tracer.PER_LAYER")


if __name__ == "__main__":
    corpus_checks()
    binding_checks()
    span_checks()
    manifest_checks()
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
