import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import gradate.ot as ot
from gradate import AttributedGraph, LabeledGraphDataset
from gradate.errors import HashMismatch, SchemaError
from gradate.io import covariate_split


def random_graph(rng, n_nodes=None, edge_prob=0.4, feature_dim=3):
    """A random undirected 0/1 graph with Gaussian features."""
    if n_nodes is None:
        n_nodes = int(rng.integers(4, 9))
    A = (rng.random((n_nodes, n_nodes)) < edge_prob).astype(float)
    A = np.triu(A, 1)
    A = A + A.T
    feats = rng.standard_normal((n_nodes, feature_dim)) if feature_dim else None
    return AttributedGraph(A, feats)


def random_dataset(rng, n_graphs, n_classes=2, feature_dim=3, edge_prob=0.4,
                   size_range=(4, 9)):
    graphs = [
        random_graph(rng, n_nodes=int(rng.integers(*size_range)),
                     edge_prob=edge_prob, feature_dim=feature_dim)
        for _ in range(n_graphs)
    ]
    labels = [int(rng.integers(0, n_classes)) for _ in range(n_graphs)]
    return LabeledGraphDataset(graphs, labels, label_set=range(n_classes))


def heterogeneous_graphs(seed, n_graphs, size_range=(5, 10), feature_dim=3):
    """Graphs that genuinely differ: varied density and feature location.

    An i.i.d.-feature ensemble makes every pairwise distance noise-driven;
    rank-correlation checks need real between-graph variation.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n_graphs):
        n = int(rng.integers(*size_range))
        prob = rng.uniform(0.15, 0.85)
        A = (rng.random((n, n)) < prob).astype(float)
        A = np.triu(A, 1)
        A = A + A.T
        mu = rng.uniform(-2, 2, size=feature_dim)
        X = mu + 0.3 * rng.standard_normal((n, feature_dim))
        graphs.append(AttributedGraph(A, X))
    return graphs


def two_domain_corpus(seed=97):
    """60 dense + 60 sparse featureless train graphs and 20 dense val graphs.

    At seed 97 this is the criterion-6 corpus, and the two_domain corpus of
    the benchmark.
    """
    rng = np.random.default_rng(seed)

    def block(count, prob):
        return [random_graph(rng, n_nodes=int(rng.integers(7, 12)),
                             edge_prob=prob, feature_dim=0) for _ in range(count)]

    train = LabeledGraphDataset(block(60, 0.7) + block(60, 0.15),
                                [0] * 60 + [1] * 60, label_set=[0, 1])
    val = LabeledGraphDataset(block(20, 0.7), [0] * 20, label_set=[0, 1])
    return train, val


def shifted_split(seed, n_graphs=500):
    """The train and val sets of the benchmark's shifted corpus, nodes relabeled by `seed`.

    Three classes of 4-8 nodes with 3-d features correlated with edge
    density, drawn from seed 0, each graph's nodes permuted by a generator
    seeded with `seed`, then split 60/20/20 by density. With the default
    500 graphs that is 300 train by 100 val graphs.
    """
    rng = np.random.default_rng(0)
    graphs, labels = [], []
    for _ in range(n_graphs):
        y = int(rng.integers(0, 3))
        n = int(rng.integers(4, 9))
        prob = rng.uniform(0.1, 0.9)
        A = np.triu((rng.random((n, n)) < prob).astype(float), 1)
        center = np.array([2.0 * prob, y - 1.0, 0.5 * prob * y])
        graphs.append((A + A.T, center + 0.3 * rng.standard_normal((n, 3))))
        labels.append(y)
    rng = np.random.default_rng(seed)
    relabeled = []
    for A, X in graphs:
        perm = rng.permutation(len(X))
        relabeled.append(AttributedGraph(A[np.ix_(perm, perm)], X[perm]))
    dataset = LabeledGraphDataset(relabeled, labels, label_set=[0, 1, 2])
    split = covariate_split(dataset, "density")
    return dataset.subset(split.train_idx), dataset.subset(split.val_idx)


def path_graph(n, feature_dim=0):
    g = AttributedGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if feature_dim:
        feats = np.arange(n * feature_dim, dtype=float).reshape(n, feature_dim)
        g = AttributedGraph(g.adjacency, feats)
    return g


def count_lps(monkeypatch) -> list:
    """Patch the HiGHS entry point so that each HiGHS run appends to the returned list.

    A full LP, each round of a grown-support solve and the tree model of a
    certified one are one run each; the list holds the (rows, columns) of
    the model each run solved.
    """
    calls = []
    original = ot._run_highs
    monkeypatch.setattr(ot, "_run_highs", lambda highs: calls.append(
        (highs.getNumRow(), highs.getNumCol())) or original(highs))
    return calls


def count_full_lps(monkeypatch) -> list:
    """Patch the full transportation LP so that each one appends its (n, m) to the returned list.

    A solve that the grown-support path certifies runs no full LP.
    """
    calls = []
    original = ot._solve_transport_lp
    monkeypatch.setattr(ot, "_solve_transport_lp",
                        lambda *a: calls.append(a[2:]) or original(*a))
    return calls


@pytest.fixture
def lp_fallbacks(monkeypatch) -> list:
    """Each cost the planned FGW linear step hands to the full LP, in order.

    The step calls `ot._full_lp_vertex` for every cost its assignment does
    not certify, so a step that leaves this list as it was answered by the
    assignment.
    """
    costs = []
    original = ot._full_lp_vertex
    monkeypatch.setattr(ot, "_full_lp_vertex",
                        lambda cost, p, q: costs.append(cost) or original(cost, p, q))
    return costs


def shifted_style_dtilde(seed, n=300, m=100, n_classes=3):
    """A label-informed cost shaped like a covariate-shifted split's D-tilde.

    Squared distances between Gaussian train points and shifted val points,
    plus a random offset per (train label, val label) pair.
    """
    rng = np.random.default_rng(seed)
    D = cdist(rng.standard_normal((n, 3)), rng.standard_normal((m, 3)) + 0.5, "sqeuclidean")
    offsets = rng.random((n_classes, n_classes))
    return D + offsets[np.ix_(rng.integers(0, n_classes, n), rng.integers(0, n_classes, m))]


def _payload_start(blob: bytes) -> int:
    return 8 + int.from_bytes(blob[4:8], "little")


# Edits of a cache file's bytes: each with the error it makes a read raise,
# and a part of that error's message.
CORRUPT_ENTRIES = {
    "bad-magic": (lambda b: b"NOPE" + b[4:], SchemaError, "bad cache magic"),
    "cut-short": (lambda b: b[:-8], SchemaError, "payload has"),
    "one-element": (lambda b: b[:_payload_start(b) + 8], SchemaError, "payload has 8 bytes"),
    "other-key": (lambda b: b.replace(json.loads(b[8:_payload_start(b)])["config_hash"].encode(),
                                      b"0" * 64),
                  HashMismatch, "cache key disagrees"),
}


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
