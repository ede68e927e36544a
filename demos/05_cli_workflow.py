#!/usr/bin/env python3
"""The command-line workflow: split, measure, select.

Builds a featureless dataset on disk, splits it by graph density, prints the
train-val dataset distance and selects training data three ways. Everything
the CLI writes is byte-reproducible for fixed inputs and seed. The working
directory lives in the system temp dir and is removed when the demo ends.
"""

import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import gradate
from gradate import AttributedGraph, LabeledGraphDataset, io

rng = np.random.default_rng(4)

graphs, labels = [], []
for _ in range(30):
    n = int(rng.integers(6, 11))
    prob = rng.uniform(0.1, 0.9)
    A = (rng.random((n, n)) < prob).astype(float)
    A = np.triu(A, 1)
    A = A + A.T
    graphs.append(AttributedGraph(A))
    labels.append(int(prob > 0.5))
dataset = LabeledGraphDataset(graphs, labels, label_set=[0, 1])

workdir = Path(tempfile.mkdtemp(prefix="gradate-demo-"))
atexit.register(shutil.rmtree, workdir)  # removed however the demo ends
io.save_dataset_json(dataset, workdir / "graphs.json")
print("workdir:", workdir)


# The CLI runs in workdir, so hand it the package this script imported,
# installed or not.
package_root = str(Path(gradate.__file__).resolve().parents[1])
env = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def cli(*args):
    cmd = [sys.executable, "-m", "gradate.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workdir, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return proc.stdout.strip()


# 1. Sort by density, split 60/20/20: the shifted domains.
out = cli("split", "graphs.json", "--by", "density", "--out", "split.json")
print("split:", out)

# 2. How far is the training split from validation?
out = cli("gdd", "graphs.json", "split.json", "--c", "0", "--alpha", "0.5")
print("gdd:", json.loads(out)["gdd"])

# 3. Select 20% of the training split, three ways.
for method in ("gradate", "lava", "random"):
    cli("select", "graphs.json", "split.json",
        "--method", method, "--tau", "0.2", "--seed", "0",
        "--out", f"{method}.json", *(["--trace", "trace.csv"]
                                     if method == "gradate" else []))
    payload = json.loads((workdir / f"{method}.json").read_text())
    print(f"{method:8s} indices: {payload['indices']}")

# 4. The trace shows the distance falling as the support shrinks.
print("\ntrace.csv:")
print((workdir / "trace.csv").read_text())

# 5. Selections are ordinary JSON; reload with validation against the data.
selection = io.load_selection(workdir / "gradate.json",
                              expected_hash=io.dataset_hash(dataset))
print("reloaded:", selection.method, len(selection.indices), "indices")
