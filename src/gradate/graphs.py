"""Attributed graphs and labeled graph datasets.

Graphs are stored dense: the sets this package targets are small (a few
hundred nodes at most) and every distance kernel downstream is dense anyway.
All containers are immutable after construction: their arrays are
read-only, so a graph can be shared between datasets without copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import AsymmetryError, DanglingEdge, DimensionMismatch, SchemaError
from .ot import _check_marginal

SYMMETRY_TOL = 1e-9
# Most float64 cells the dense adjacency of one graph may hold: 2**30, 8 GiB.
# So a graph of more than 32,768 nodes is refused; the graphs this package
# targets have a few hundred. A file that declares a larger n is then a
# named input error before anything of size n or n**2 is allocated, not a
# MemoryError from numpy. The bound is per graph: a dataset of many graphs
# under it is not refused, whatever their total.
MAX_ADJACENCY_CELLS = 2 ** 30


def _check_adjacency_cells(sizes, first: int | None = None) -> None:
    """Refuse the first graph whose dense adjacency passes `MAX_ADJACENCY_CELLS`.

    sizes : node count of each graph, numbered from `first` in the message;
        without `first` the graph is unnumbered.
    """
    # In float64, so that no square overflows.
    over = np.square(np.asarray(sizes, dtype=np.float64)) > MAX_ADJACENCY_CELLS
    if over.any():
        k = int(np.argmax(over))
        n = int(sizes[k])
        graph = "a graph" if first is None else f"graph {first + k}"
        raise DimensionMismatch(f"{graph} of {n} nodes needs {n * n} adjacency cells, "
                                f"above MAX_ADJACENCY_CELLS = {MAX_ADJACENCY_CELLS}")


def _checked_features(features, n: int) -> np.ndarray:
    """The (n, d) float64 feature matrix of a graph of n nodes; None is d = 0."""
    if features is None:
        return np.zeros((n, 0))
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if features.ndim != 2:
        raise DimensionMismatch(f"features must be an (n, d) matrix, got shape {features.shape}")
    if features.shape[0] != n:
        raise DimensionMismatch(
            f"features has {features.shape[0]} rows for {n} nodes"
        )
    if not np.isfinite(features).all():
        raise ValueError("feature entries must be finite")
    return features


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AttributedGraph:
    """An undirected attributed graph: adjacency, node features, node weights.

    adjacency : (n, n) symmetric matrix of nonnegative reals. Weighted
        symmetric adjacencies are accepted as-is; asymmetric input is
        rejected rather than silently symmetrized.
    features : (n, d) finite real matrix; d may be 0 for featureless graphs.
    node_weights : probability vector over nodes. Defaults to uniform.
    """

    adjacency: np.ndarray
    features: np.ndarray
    node_weights: np.ndarray

    def __init__(self, adjacency, features=None, node_weights=None):
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise DimensionMismatch(f"adjacency must be square, got {adjacency.shape}")
        n = adjacency.shape[0]
        if n < 1:
            raise DimensionMismatch("a graph needs at least one node")
        # min and max propagate NaN, so these two tests also reject NaN.
        if not (adjacency.min() >= 0 and adjacency.max() < np.inf):
            raise ValueError("adjacency entries must be finite and nonnegative")
        if ((adjacency != adjacency.T).any()
                and np.abs(adjacency - adjacency.T).max() > SYMMETRY_TOL):
            raise AsymmetryError("adjacency is not symmetric; directed graphs are out of scope")

        features = _checked_features(features, n)

        if node_weights is None:
            node_weights = np.full(n, 1.0 / n)
        elif np.shape(node_weights) != (n,):
            raise DimensionMismatch("node_weights length must equal node count")
        else:
            node_weights = _check_marginal(node_weights, n, "node_weights")

        object.__setattr__(self, "adjacency", _freeze(adjacency))
        object.__setattr__(self, "features", _freeze(features))
        object.__setattr__(self, "node_weights", _freeze(node_weights))

    @classmethod
    def from_edges(cls, n_nodes: int, edges: Iterable[tuple[int, int]],
                   features=None, node_weights=None) -> "AttributedGraph":
        """Build a 0/1 graph from an undirected edge list over nodes 0..n-1.

        The features are checked first, then the adjacency's size against
        `MAX_ADJACENCY_CELLS`, before the adjacency is allocated.
        """
        features = _checked_features(features, n_nodes)
        _check_adjacency_cells([n_nodes])
        adj = np.zeros((n_nodes, n_nodes))
        edges = list(edges)
        ends = np.array(edges)
        if len(ends):
            if ends.ndim != 2 or ends.shape[1] != 2:
                raise ValueError("each edge must be a pair of node indices")
            if ends.dtype.kind not in "iu":
                # Integers beyond int64 make an object or float array; they leave the nodes too.
                exact = np.array(edges, dtype=object)
                if not all(type(v) is int or isinstance(v, np.integer) for v in exact.flat):
                    raise IndexError(f"edge endpoints must be integers, got {ends.dtype}")
                ends = exact
            if ends.min() < 0 or ends.max() >= n_nodes:
                i, j = ends[((ends < 0) | (ends >= n_nodes)).any(axis=1)][0]
                raise DanglingEdge(f"edge ({i}, {j}) leaves the nodes 0..{n_nodes - 1}")
            i, j = ends.T
            adj[i, j] = adj[j, i] = 1.0
        return cls(adj, features=features, node_weights=node_weights)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        """Integer degree per node: the number of adjacent nonzero entries."""
        return np.count_nonzero(self.adjacency, axis=1)


def _graphs_from_arrays(sizes, edge_graph, ends, features,
                        first: int | None = None) -> list[AttributedGraph]:
    """The 0/1 graphs of a whole dataset, built in one pass from flat arrays.

    sizes : (G,) node count of each graph.
    edge_graph, ends : (E,) graph of each edge and (E, 2) integer endpoints,
        local to that graph (0..n-1).
    features : (sum(sizes), d) feature rows, stacked in graph order.
    first : the number of the first graph, for error messages; without it
        no graph is numbered.

    A graph whose adjacency needs more than `MAX_ADJACENCY_CELLS` cells is
    a DimensionMismatch that names it and its n, raised before anything of
    its size is allocated.

    The whole dataset is checked at once for what `from_edges` and the
    constructor check per graph. If a check fails, the first failing graph
    goes through `from_edges` alone, which raises its error, prefixed with
    the graph's number when `first` is given; so does a lone graph (G = 1)
    given in any other form `from_edges` takes. Otherwise each graph holds
    read-only views into three shared buffers (adjacencies, features,
    uniform node weights), and no constructor runs; the arrays equal those
    of `from_edges(n, edges, features)` byte for byte.
    """
    # A copy owned here: views of a frozen owner cannot be made writeable again.
    features = np.array(features, dtype=np.float64, order="C")
    stacked = features.ndim == 2 and features.shape[0] == sum(sizes)
    given = ends
    if stacked:  # edges that are not pairs may be ragged, and then do not convert
        ends = np.asarray(ends) if len(ends) else np.zeros((0, 2), dtype=np.int64)
        stacked = ends.dtype == np.int64 and ends.shape[1:] == (2,)
    if not stacked:
        if len(sizes) == 1:
            _recheck(sizes[0], given, features, first)
        raise DimensionMismatch(f"edges or features do not stack for {sum(sizes)} nodes")
    sizes = np.asarray(sizes, dtype=np.int64)
    _check_adjacency_cells(sizes, first)
    edge_graph = np.asarray(edge_graph, dtype=np.int64)
    node_start = np.concatenate(([0], np.cumsum(sizes)))

    bad = sizes < 1
    if not bad.any():
        edge_n = sizes[edge_graph]
        bad[edge_graph[((ends < 0) | (ends >= edge_n[:, None])).any(axis=1)]] = True
        row_graph = np.repeat(np.arange(len(sizes)), sizes)
        bad[row_graph[~np.isfinite(features).all(axis=1)]] = True
    if bad.any():
        k = int(np.argmax(bad))
        _recheck(int(sizes[k]), ends[edge_graph == k],
                 features[node_start[k]:node_start[k + 1]], None if first is None else first + k)
        raise AssertionError(f"graph {k} failed a bulk check but passed from_edges")

    adj_start = np.concatenate(([0], np.cumsum(sizes * sizes)))
    adjacency = np.zeros(adj_start[-1])
    i, j = ends.T
    cell = adj_start[edge_graph]
    adjacency[cell + i * edge_n + j] = 1.0
    adjacency[cell + j * edge_n + i] = 1.0
    weights = np.repeat(1.0 / sizes, sizes)
    for buf in (adjacency, features, weights):
        buf.setflags(write=False)

    graphs = []
    for n, a, s in zip(sizes.tolist(), adj_start.tolist(), node_start.tolist()):
        g = object.__new__(AttributedGraph)
        object.__setattr__(g, "adjacency", adjacency[a:a + n * n].reshape(n, n))
        object.__setattr__(g, "features", features[s:s + n])
        object.__setattr__(g, "node_weights", weights[s:s + n])
        graphs.append(g)
    return graphs


def _recheck(n: int, edges, features, number: int | None) -> None:
    """Run `from_edges(n, edges, features)` for its checks alone.

    With a `number`, an error keeps its type and its message starts with
    "graph {number}: ".
    """
    try:
        AttributedGraph.from_edges(n, edges, features=features)
    except (DanglingEdge, DimensionMismatch, IndexError, ValueError) as exc:
        if number is None:
            raise
        raise type(exc)(f"graph {number}: {exc}") from None


@dataclass(frozen=True)
class LabeledGraphDataset:
    """An ordered collection of (graph, class-label) pairs sharing a label set.

    Ordering is significant: selection results index into it by position.
    Labels and label_set entries are Python or NumPy integers in the int64
    range, stored as int; any other value, a bool too, is a SchemaError.
    `label_names` optionally records the original label values per class id
    when labels were remapped at load time.
    """

    graphs: tuple[AttributedGraph, ...]
    labels: tuple[int, ...]
    label_set: tuple[int, ...]
    label_names: tuple | None = field(default=None, compare=False)

    def __init__(self, graphs: Sequence[AttributedGraph], labels: Sequence[int],
                 label_set: Sequence[int] | None = None, label_names=None):
        graphs = tuple(graphs)
        labels = tuple(_class_label(y, "label") for y in labels)
        if len(graphs) != len(labels):
            raise DimensionMismatch("graphs and labels must have equal length")
        if label_set is None:
            label_set = sorted(set(labels))
        label_set = tuple(_class_label(y, "label_set entry") for y in label_set)
        missing = set(labels) - set(label_set)
        if missing:
            raise ValueError(f"labels {sorted(missing)} not in label_set")
        dims = {g.feature_dim for g in graphs}
        if len(dims) > 1:
            raise DimensionMismatch(f"graphs disagree on feature dimension: {sorted(dims)}")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_set", label_set)
        object.__setattr__(self, "label_names",
                           tuple(label_names) if label_names is not None else None)

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].feature_dim if self.graphs else 0

    def subset(self, indices: Sequence[int]) -> "LabeledGraphDataset":
        """Dataset restricted to `indices`, in the given order."""
        idx = [int(i) for i in indices]
        return LabeledGraphDataset(
            [self.graphs[i] for i in idx],
            [self.labels[i] for i in idx],
            label_set=self.label_set,
            label_names=self.label_names,
        )

    def indices_with_label(self, label) -> list[int]:
        return [i for i, y in enumerate(self.labels) if y == label]


def _class_label(y, what: str) -> int:
    """A Python or NumPy integer in the int64 range as an int; else a SchemaError.

    A bool is no integer here. Labels are hashed and cached as int64.
    """
    if isinstance(y, bool) or not isinstance(y, (int, np.integer)):
        raise SchemaError(f"{what} must be an integer, got {y!r}")
    y = int(y)
    if not -2 ** 63 <= y < 2 ** 63:
        raise SchemaError(f"{what} must fit in int64, got {y}")
    return y


def concat_datasets(first: LabeledGraphDataset, second: LabeledGraphDataset) -> LabeledGraphDataset:
    """Concatenate two datasets, unioning their label sets."""
    label_set = tuple(sorted(set(first.label_set) | set(second.label_set)))
    return LabeledGraphDataset(
        first.graphs + second.graphs,
        first.labels + second.labels,
        label_set=label_set,
    )


def degree_one_hot_features(dataset: LabeledGraphDataset) -> LabeledGraphDataset:
    """Synthesize degree one-hot node features for a featureless dataset.

    The feature dimension is (max degree over the whole dataset) + 1 and node
    v receives the indicator of its integer degree, so embeddings remain
    comparable across any split of the same dataset. Datasets that already
    carry features are returned unchanged.
    """
    if dataset.feature_dim > 0:
        return dataset
    degs = [g.degrees() for g in dataset.graphs]
    dim = int(max((d.max() for d in degs if d.size), default=0)) + 1
    new_graphs = []
    for g, d in zip(dataset.graphs, degs):
        feats = np.zeros((g.n_nodes, dim))
        feats[np.arange(g.n_nodes), d] = 1.0
        new_graphs.append(AttributedGraph(g.adjacency, feats, g.node_weights))
    return LabeledGraphDataset(new_graphs, dataset.labels,
                               label_set=dataset.label_set,
                               label_names=dataset.label_names)


def graph_density(g: AttributedGraph) -> float:
    """Simple-graph density 2|E| / (n(n-1)); 0 for a single node.

    |E| counts nonzero entries strictly above the diagonal, so weighted
    adjacencies contribute by support, not weight.
    """
    n = g.n_nodes
    if n < 2:
        return 0.0
    edges = np.count_nonzero(np.triu(g.adjacency, k=1))
    return 2.0 * edges / (n * (n - 1))
