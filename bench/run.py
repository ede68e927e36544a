"""gradate benchmark: three selection workloads, end-to-end and per-layer metrics.

One run of one workload (the form BENCHMARK.json names):

    python3 bench/run.py --workload two_domain --seed 1 --seconds 20 --trace 0

Every workload, untraced and then traced, with a summary table:

    python3 bench/run.py --workload all --seed 1 --seconds 20

A run starts fresh worker processes one after another (never two at once)
until --seconds have passed, at least two of them and, untraced, at least
three operations. Each worker sets the
workload up from the seed and runs operations on it; see workloads.py for
what one operation is. Human-readable lines go to stderr. The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run alternates untraced and traced workers, so it also
measures the tracing overhead.

``failed`` counts operations whose call failed or whose output disagreed
with its reference. ``correct`` is false when a run-level check fails:
operations that disagree across fresh processes, a non-finite GDD ratio,
or per-layer counts that do not repeat between traced operations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("two_domain", "shifted_labeled", "cli_warm")
RUN_LIMIT_S = 170.0   # a run must end within 180 s
MIN_WORKERS = 2       # so that setup_s is a median
MIN_OPS = 3           # so that one slow operation does not set wall_s
CLI_PASSES = 6        # warm passes per cli_warm worker
COUNT_UNITS = ("count", "cells", "bytes")   # per-layer values that must repeat exactly

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "selected_gdd_ratio": "ratio",
}
# Printed and kept in the results file, outside the bounded set: failed_frac
# is 0 on healthy runs, the warm medians exist only on cli_warm.
REPORTED = {"failed_frac": "ratio", "select_warm_s": "s", "gdd_warm_s": "s"}


class RunFailed(RuntimeError):
    pass


def _worker(workload: str, seed: int, workdir: Path, deadline: float, *flags) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {' '.join(flags)} exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _one_worker(workload: str, seed: int, workdir: Path, deadline: float, traced: bool) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.monotonic()
    flags = ["--trace"] if traced else []
    if workload == "cli_warm":
        _worker(workload, seed, workdir, deadline, "--prepare")
        flags += ["--ops", str(CLI_PASSES)]
    record = _worker(workload, seed, workdir, deadline, *flags)
    record["setup_s"] = record["ready"] - started
    record["traced"] = traced
    return record


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".bench_work" / workload
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workers = []
    while (len(workers) < MIN_WORKERS or time.monotonic() - start < seconds
           or not trace and sum(len(w["ops"]) for w in workers) < MIN_OPS):
        traced = trace and len(workers) % 2 == 1
        workers.append(_one_worker(workload, seed, workdir, deadline, traced))

    ops = [op for w in workers for op in w["ops"]]
    plain_ops = [op for w in workers if not w["traced"] for op in w["ops"]]
    traced_ops = [op for w in workers if w["traced"] for op in w["ops"]]
    problems = []

    # Every operation of a run must produce the same outputs in every fresh
    # process.
    digests = {op["digest"] for op in ops if op["digest"] is not None}
    if len(digests) > 1:
        problems.append(f"outputs differ across processes ({len(digests)} variants)")

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    select_s = [t for op in plain_ops for t in op.get("select_s", [])]
    gdd_s = [t for op in plain_ops for t in op.get("gdd_s", [])]
    values = {
        "wall_s": _median(op["wall_s"] for op in plain_ops),
        "setup_s": _median(w["setup_s"] for w in workers if not w["traced"]),
        "peak_rss_mb": _median(w["peak_rss_mb"] for w in workers if not w["traced"]),
        "selected_gdd_ratio": _median(op["selected_gdd_ratio"] for op in ops),
        "failed_frac": failed / attempted,
        "select_warm_s": _median(select_s) if select_s else None,
        "gdd_warm_s": _median(gdd_s) if gdd_s else None,
    }
    failures = sorted({f for op in ops for f in op["failures"]})
    for name in END_TO_END:
        if not math.isfinite(values[name]):
            raise RunFailed(f"{name} is {values[name]!r}; failures: {failures}")
    if values["selected_gdd_ratio"] <= 0:
        problems.append(f"selected_gdd_ratio is {values['selected_gdd_ratio']!r}")

    layers = {}
    if trace:
        for name, (unit, _) in PER_LAYER.items():
            samples = [op["layers"][name] for op in traced_ops if name in op.get("layers", {})]
            if unit in COUNT_UNITS:
                if len(set(samples)) > 1:
                    problems.append(f"{name} does not repeat: {sorted(set(samples))}")
                layers[name] = samples[0] if samples else 0
            else:
                layers[name] = _median(samples)
        layers["trace.overhead_frac"] = (
            _median(op["wall_s"] for op in traced_ops) / values["wall_s"] - 1.0)

    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "values": values, "layers": layers,
        "failures": failures,
        "workers": len(workers), "ops": len(plain_ops), "traced_ops": len(traced_ops),
        "op_wall_s": [op["wall_s"] for op in plain_ops],
        "worker_setup_s": [w["setup_s"] for w in workers],
        "untraced_bindings": sorted({b for w in workers for b in w["untraced_bindings"]}),
        "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "machine": platform.machine(), **workers[0]["env"]},
    }


def contract_line(result: dict) -> str:
    if result["trace"]:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result["values"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def summary(result: dict) -> str:
    lines = [f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
             f"{result['ops']} timed operations in {result['workers']} fresh processes"
             + (f", {result['traced_ops']} traced" if result["trace"] else "")]
    for name, unit in {**END_TO_END, **REPORTED}.items():
        value = result["values"][name]
        if value is not None:
            lines.append(f"  {name:<22} {value:>14.6g} {unit}")
    lines.append(f"  {'failed/attempted':<22} {result['failed']:>9} / {result['attempted']}")
    if result["trace"]:
        for name, (unit, _) in PER_LAYER.items():
            lines.append(f"  {name:<32} {result['layers'][name]:>14.6g} {unit}")
    lines += [f"  failure: {f}" for f in result["failures"]]
    lines += [f"  run check failed: {p}" for p in result["problems"]]
    if result["untraced_bindings"]:
        lines.append(f"  bindings not found: {', '.join(result['untraced_bindings'])}")
    lines.append(f"  env: {json.dumps(result['env'], sort_keys=True)}")
    return "\n".join(lines)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradate" / "__init__.py").is_file():
        print(f"error: no gradate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    results = []
    try:
        for name in names:
            for trace in modes:
                result = run_workload(name, args.seed, args.seconds, bool(trace))
                print(summary(result), file=sys.stderr, flush=True)
                results.append(result)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".bench_work"
    if args.workload == "all":
        report = {"cpu_model": _cpu_model(), "results": results}
        (out_dir / f"results-all-seed{args.seed}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True))
        print(json.dumps({r["workload"] + ("/traced" if r["trace"] else ""):
                          {"correct": r["correct"], "attempted": r["attempted"],
                           "failed": r["failed"], **r["values"], **r["layers"]}
                          for r in results}))
        return 0
    (out_dir / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results[0], indent=1, sort_keys=True))
    print(contract_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
