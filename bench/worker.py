"""One benchmark worker process: set a workload up, run it, report JSON.

run.py starts a fresh worker for every measurement so that peak RSS and
in-process caches (such as the LP constraint cache in ``gradate.ot``) do
not carry over. The last stdout line is one JSON object.

    python3 bench/worker.py --workload cli_warm --seed 1 --workdir DIR --prepare
    python3 bench/worker.py --workload two_domain --seed 1 --workdir DIR [--trace]
"""

from __future__ import annotations

import os

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gradate  # noqa: E402

if not Path(gradate.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"gradate imported from {gradate.__file__}, not from {ROOT / 'src'}")

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run_op(workload, state) -> dict:
    try:
        return workload.run_op(state)
    except Exception:  # the worker must still report the other operations
        return {"wall_s": None, "attempted": 1, "failed": 1,
                "failures": [traceback.format_exc(limit=3)],
                "selected_gdd_ratio": None, "digest": None}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ops", type=int, default=1)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    if args.prepare:
        workload.prepare(args.seed, args.workdir)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    state = workload.setup(args.seed, args.workdir)
    ready = time.monotonic()
    tracer = Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    ops = []
    try:
        for k in range(args.ops):
            if tracer:
                tracer.reset()
            op = _run_op(workload, state)
            if tracer:
                op["layers"] = tracer.metrics()
                # Beside the work directory, which the next worker clears.
                tracer.dump(args.workdir.parent / f"spans-{args.workload}-op{k}.json")
            ops.append(op)
    finally:
        if tracer:
            tracer.uninstall()

    print(json.dumps({
        "ready": ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "untraced_bindings": missing,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "pinned": {var: os.environ[var] for var in PINNED}},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
