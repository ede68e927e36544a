"""Seeded corpora and the three benchmark workloads.

Every input is generated here; the program under test only ever receives
the generated datasets (as objects for the library workloads, as native
JSON files for the CLI workload).

How the seed is used. FGW work is heavy-tailed across corpora: a few
conditional-gradient solves per corpus run to the 200-iteration cap, and
their number moves the inner LP count by +-30 % from one generated corpus
to the next (1,800-3,700 LPs over seeds 1-15). A fresh corpus per seed
would make the run-to-run spread a property of the data rather than of
the program. So each workload has one fixed corpus, and the seed relabels
the nodes of every graph: different input bytes of identical difficulty.
FGW is invariant under relabeling, so outputs agree across seeds up to
rounding. two_domain is the exception and ignores the seed: its degree
features are integer-valued, the LP subproblems have exact ties, and the
relabeled copies take different conditional-gradient paths.

two_domain       criterion-6 corpus, cold library ``gradate()`` at c=0.
                 Inner FGW LPs dominate; GREAT is under 2 % of the time.
shifted_labeled  attributed three-class corpus split by density, cold
                 library ``gradate()`` at c=1. FGW, outer LPs and the
                 per-pair Python loops all carry a visible share.
cli_warm         a smaller corpus of the same kind driven through
                 ``gradate.cli.main`` on a cache that preparation filled.
                 No FGW work at all: outer LPs, GREAT, dataset load and
                 hash, cache reads and the CLI itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import time
from functools import partial
from pathlib import Path

import numpy as np

import gradate
from gradate import AttributedGraph, LabeledGraphDataset, io
from gradate import cli, pipeline
from gradate.great import floor_budget, validate_weights
from gradate.pipeline import SelectionConfig

TAU = 0.2
TWO_DOMAIN_SEED = 97   # the criterion-6 corpus
CORPUS_SEED = 0        # base corpus of shifted_labeled and cli_warm
SHIFTED_GRAPHS = 500   # 300 train x 100 val after the 60/20/20 density split
CLI_GRAPHS = 300       # 180 train x 60 val
SINKHORN_RTOL = 1e-9   # library reference vs CLI output for the entropic gdd


# ---------------------------------------------------------------------------
# generators

def _random_graph(rng, n_nodes, edge_prob, features=None):
    # Same draw order as tests/conftest.py::random_graph with feature_dim=0.
    A = (rng.random((n_nodes, n_nodes)) < edge_prob).astype(float)
    A = np.triu(A, 1)
    return AttributedGraph(A + A.T, features)


def two_domain_corpus(seed: int):
    """60 dense + 60 sparse featureless train graphs, 20 dense val graphs.

    With seed=97 this is exactly the criterion-6 corpus of the acceptance
    suite (same generator calls in the same order).
    """
    rng = np.random.default_rng(seed)

    def block(count, prob):
        return [_random_graph(rng, int(rng.integers(7, 12)), prob) for _ in range(count)]

    train = LabeledGraphDataset(block(60, 0.7) + block(60, 0.15),
                                [0] * 60 + [1] * 60, label_set=[0, 1])
    val = LabeledGraphDataset(block(20, 0.7), [0] * 20, label_set=[0, 1])
    return train, val


def shifted_corpus(seed: int, n_graphs: int) -> LabeledGraphDataset:
    """Three classes, 4-8 nodes, 3-d features correlated with edge density.

    Each graph draws its own edge probability, so sorting by density (the
    covariate split) moves both structure and feature location between
    the train and val domains; the class shifts one feature coordinate.
    """
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for _ in range(n_graphs):
        y = int(rng.integers(0, 3))
        n = int(rng.integers(4, 9))
        prob = rng.uniform(0.1, 0.9)
        A = (rng.random((n, n)) < prob).astype(float)
        A = np.triu(A, 1)
        center = np.array([2.0 * prob, y - 1.0, 0.5 * prob * y])
        X = center + 0.3 * rng.standard_normal((n, 3))
        graphs.append(AttributedGraph(A + A.T, X))
        labels.append(y)
    return LabeledGraphDataset(graphs, labels, label_set=[0, 1, 2])


def relabel_nodes(dataset: LabeledGraphDataset, seed: int) -> LabeledGraphDataset:
    """The same graphs with their nodes in a seeded random order."""
    rng = np.random.default_rng(seed)
    graphs = []
    for g in dataset.graphs:
        perm = rng.permutation(g.n_nodes)
        graphs.append(AttributedGraph(g.adjacency[np.ix_(perm, perm)], g.features[perm]))
    return LabeledGraphDataset(graphs, dataset.labels, label_set=dataset.label_set)


def shifted_input(seed: int, n_graphs: int) -> LabeledGraphDataset:
    return relabel_nodes(shifted_corpus(CORPUS_SEED, n_graphs), seed)


def shifted_split(seed: int, n_graphs: int = SHIFTED_GRAPHS):
    dataset = shifted_input(seed, n_graphs)
    split = io.covariate_split(dataset, "density")
    return dataset.subset(split.train_idx), dataset.subset(split.val_idx)


def two_domain_input(seed: int):
    return two_domain_corpus(TWO_DOMAIN_SEED)


# ---------------------------------------------------------------------------
# shared checks

def _selection_problems(n: int, tau: float, indices, weights) -> list[str]:
    w = np.zeros(n)
    try:
        w[list(indices)] = weights
        validate_weights(w, budget=floor_budget(n, tau))
    except (gradate.GradateError, IndexError, ValueError) as exc:
        return [f"invalid selection: {exc}"]
    return []


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# library workloads

class LibraryWorkload:
    """One operation = one cold ``gradate()`` call in a fresh process."""

    def __init__(self, make, cfg: SelectionConfig, dense_check: bool):
        self.make = make
        self.cfg = cfg
        self.dense_check = dense_check

    def setup(self, seed: int, workdir: Path):
        return self.make(seed)

    def run_op(self, state) -> dict:
        train, val = state
        start = time.perf_counter()
        # Looked up on the module at call time so a traced run sees it.
        result = pipeline.gradate(train, val, self.cfg)
        wall = time.perf_counter() - start

        trace = result.trace
        first, final = trace.iterations[0].gdd_value, trace.final_gdd
        problems = _selection_problems(len(train), self.cfg.tau,
                                       result.indices, result.weights)
        if self.dense_check:
            dense = float(np.mean([i < 60 for i in result.indices]))
            if dense < 0.9:
                problems.append(f"dense fraction {dense:.2f} < 0.9")
            if final > first + 1e-9:
                problems.append(f"final gdd {final!r} above first {first!r}")
        return {
            "wall_s": wall,
            "attempted": 1,
            "failed": int(bool(problems)),
            "failures": problems,
            "selected_gdd_ratio": final / first,
            # Compared across the run's fresh processes by the parent.
            "digest": _digest([list(result.indices), [repr(x) for x in result.weights]]),
        }


# ---------------------------------------------------------------------------
# CLI workload

def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # module attribute: traced runs wrap it
    return code, out.getvalue()


def _read_cached_d(cache_dir: Path) -> np.ndarray:
    """The cached LinearFGW block; its cache key is read from the file header."""
    (path,) = sorted(cache_dir.glob("D-*.gdd"))
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[4:8], "little")
    key = json.loads(blob[8:8 + header_len])["key"]
    return io.load_matrix_cache(path, key)


class CliWarmWorkload:
    """One operation = one pass over the warm command list.

    Preparation (its own process) writes the dataset and split, runs the
    command list once on an empty cache, and keeps that pass's outputs as
    references. The sinkhorn ``gdd`` is checked instead against the library
    result computed from the cached D with the entropic solver, because the
    exact pass filled the label-informed cache entry it reuses.
    """

    commands = (
        ("select_a", "select", ["--method", "gradate", "--tau", "0.2"]),
        ("select_b", "select", ["--method", "gradate", "--tau", "0.4"]),
        ("select_lava", "select", ["--method", "lava", "--tau", "0.2"]),
        ("gdd_weights", "gdd", ["--weights", "{select_a}"]),
        ("gdd_sinkhorn", "gdd", ["--solver", "sinkhorn", "--epsilon", "0.5"]),
    )
    taus = {"select_a": 0.2, "select_b": 0.4, "select_lava": 0.2}

    def _argv(self, workdir: Path, label: str, verb: str, extra: list[str]) -> list[str]:
        argv = [verb, str(workdir / "dataset.json"), str(workdir / "split.json"),
                "--c", "1", "--cache-dir", str(workdir / "cache")]
        argv += [x.format(select_a=workdir / "select_a.json") for x in extra]
        if verb == "select":
            argv += ["--out", str(workdir / f"{label}.json")]
        return argv

    def prepare(self, seed: int, workdir: Path) -> None:
        io.save_dataset_json(shifted_input(seed, CLI_GRAPHS), workdir / "dataset.json")
        code, _ = _cli(["split", str(workdir / "dataset.json"), "--by", "density",
                        "--out", str(workdir / "split.json")])
        if code != 0:
            raise RuntimeError(f"gradate split exited {code}")
        refs = {}
        for label, verb, extra in self.commands:
            code, out = _cli(self._argv(workdir, label, verb, extra))
            if code != 0:
                raise RuntimeError(f"setup pass: {label} exited {code}")
            refs[label] = {"stdout": out}
            if verb == "select":
                refs[label]["file"] = (workdir / f"{label}.json").read_text()

        raw = io.load_dataset(workdir / "dataset.json")
        split = io.load_split(workdir / "split.json")
        train, val = raw.subset(split.train_idx), raw.subset(split.val_idx)
        D = _read_cached_d(workdir / "cache")
        sinkhorn = partial(gradate.solve_sinkhorn, epsilon=0.5)
        dt_sink = gradate.label_informed_cost(train, val, D, 1.0, sinkhorn)
        dt_exact = gradate.label_informed_cost(train, val, D, 1.0, gradate.solve_exact_ot)
        refs["gdd_sinkhorn"]["value"] = gradate.gdd_from_cost(dt_sink, None, sinkhorn)[0]
        refs["uniform_gdd"] = gradate.gdd_from_cost(dt_exact, None)[0]
        refs["n_train"] = len(train)
        (workdir / "refs.json").write_text(json.dumps(refs, sort_keys=True))

    def setup(self, seed: int, workdir: Path):
        return workdir, json.loads((workdir / "refs.json").read_text())

    def run_op(self, state) -> dict:
        workdir, refs = state
        failures: list[str] = []
        select_s, gdd_s = [], []
        total = 0.0
        outputs = {}
        for label, verb, extra in self.commands:
            argv = self._argv(workdir, label, verb, extra)
            start = time.perf_counter()
            code, out = _cli(argv)
            elapsed = time.perf_counter() - start
            total += elapsed
            (select_s if verb == "select" else gdd_s).append(elapsed)
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            ref = refs[label]
            if verb == "gdd":
                outputs[label] = json.loads(out)["gdd"]
            if label == "gdd_sinkhorn":
                got, want = outputs[label], ref["value"]
                if abs(got - want) > SINKHORN_RTOL * abs(want):
                    failures.append(f"{label}: gdd {got!r} != library reference {want!r}")
                continue
            if out != ref["stdout"]:
                failures.append(f"{label}: stdout differs from the setup pass")
            if verb == "select":
                text = (workdir / f"{label}.json").read_text()
                if text != ref["file"]:
                    failures.append(f"{label}: selection file differs from the setup pass")
                payload = json.loads(text)
                outputs[label] = [payload["indices"], [repr(x) for x in payload["weights"]]]
                failures += [f"{label}: {p}" for p in _selection_problems(
                    refs["n_train"], self.taus[label], payload["indices"], payload["weights"])]
        return {
            "wall_s": total,
            "attempted": len(self.commands),
            "failed": len({f.split(":", 1)[0] for f in failures}),
            "failures": failures,
            "selected_gdd_ratio": outputs.get("gdd_weights", float("nan")) / refs["uniform_gdd"],
            "digest": _digest(outputs),
            "select_s": select_s,
            "gdd_s": gdd_s,
        }


WORKLOADS = {
    "two_domain": LibraryWorkload(
        two_domain_input,
        SelectionConfig(tau=TAU, T=10, eta=1e-4, alpha=0.5, c=0.0, seed=0),
        dense_check=True),
    "shifted_labeled": LibraryWorkload(
        shifted_split,
        SelectionConfig(tau=TAU, T=10, eta=1e-4, alpha=0.5, c=1.0, seed=0),
        dense_check=False),
    "cli_warm": CliWarmWorkload(),
}
