"""Dataset ingestion, covariate-shift splitting and persistence.

Supports TUDataset-style flat files and a native JSON graph format, plus
content-addressed binary caches for distance matrices and OT solutions, and
JSON round-trips for splits and selection results. Writers are atomic
(write to a sibling temp file, then rename) and deterministic byte for byte.

Both dataset readers check and build all graphs of a dataset in one
vectorized pass (`graphs._graphs_from_arrays`): the graphs of a loaded
dataset are read-only views into three shared buffers, and no per-graph
constructor runs. A JSON file that fails a check, or that holds a field
in a shape the one-pass reader does not take (a string where it expects a
list, say), is read entry by entry instead, so a fault is reported as the
first failing graph's own error.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import struct
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    ConfigInvalid,
    DanglingEdge,
    DatasetTooSmall,
    HashMismatch,
    ParseError,
    SchemaError,
)
from .graphs import AttributedGraph, LabeledGraphDataset, _graphs_from_arrays, graph_density

CACHE_MAGIC = b"GDD1"


# ---------------------------------------------------------------------------
# hashing

def dataset_hash(dataset: LabeledGraphDataset) -> str:
    """Content hash of a dataset: graphs, order, labels and label set."""
    h = hashlib.sha256()
    h.update(struct.pack("<q", len(dataset)))
    # A graph's arrays are frozen C-contiguous float64, so their buffers are
    # the bytes to hash.
    for g, y in zip(dataset.graphs, dataset.labels):
        h.update(struct.pack("<qqq", *g.features.shape, y))  # n, d, label
        h.update(g.adjacency)
        h.update(g.features)
        h.update(g.node_weights)
    h.update(json.dumps(list(dataset.label_set)).encode())
    return h.hexdigest()


def config_hash(key: dict) -> str:
    """Hash of a cache key dict, canonicalized."""
    return hashlib.sha256(
        json.dumps(key, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write `data` to a temp file of this call's own beside `path`, then rename it.

    Two processes writing one cache entry never rename each other's temp
    file; the last rename wins, with one writer's complete bytes.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n").encode()


def _read_text(path) -> str:
    """A file's text; bytes that are not UTF-8 are a ParseError at their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8 text (byte {data[exc.start]:#04x})") from None


def _read_json(path):
    """The parsed contents of a JSON file; a decode error is a ParseError."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from None


# ---------------------------------------------------------------------------
# TUDataset flat files

def _nonblank_lines(path: Path):
    """(1-based line number, stripped text) of each nonblank line of a file."""
    for ln, raw in enumerate(_read_text(path).splitlines(), start=1):
        raw = raw.strip()
        if raw:
            yield ln, raw


def _parse_lines(path: Path, parse, what: str) -> list:
    """`parse` applied to each nonblank line; a ValueError names its line."""
    values = []
    for ln, raw in _nonblank_lines(path):
        try:
            values.append(parse(raw))
        except ValueError:
            raise ParseError(path, ln, f"bad {what} {raw!r}") from None
    return values


def load_tudataset(dir_path) -> LabeledGraphDataset:
    """Load a TUDataset-style directory of flat files.

    Expects DS_A.txt (1-indexed edge list), DS_graph_indicator.txt and
    DS_graph_labels.txt; DS_node_attributes.txt adds real-valued features
    and DS_node_labels.txt is tolerated but not turned into features.
    Edge lists are symmetrized by construction: TU files list both
    directions and a missing reverse direction is simply added. Original
    graph labels are remapped to contiguous 0-based ids; the mapping is
    recorded on the dataset as `label_names`.
    """
    root = Path(dir_path)
    candidates = sorted(root.glob("*_A.txt"))
    if not candidates:
        raise ParseError(root, 0, "no *_A.txt edge file found")
    prefix = candidates[0].name[: -len("_A.txt")]

    def path_for(suffix):
        return root / f"{prefix}_{suffix}.txt"

    indicator_path = path_for("graph_indicator")
    labels_path = path_for("graph_labels")
    for required in (indicator_path, labels_path):
        if not required.exists():
            raise ParseError(required, 0, "required file missing")

    node_graph = _parse_lines(indicator_path, lambda s: int(s) - 1, "graph id")
    n_nodes_total = len(node_graph)
    if n_nodes_total == 0:
        raise ParseError(indicator_path, 0, "no nodes")
    if min(node_graph) < 0:  # would wrap onto the last graph
        raise ParseError(indicator_path, 0, "graph ids must count from 1")
    n_graphs = max(node_graph) + 1

    # Global node id -> (graph, local index), following indicator order.
    sizes = np.bincount(node_graph, minlength=n_graphs)
    if not sizes.all():
        raise ParseError(indicator_path, 0, f"graph id {np.argmin(sizes) + 1} has no nodes")
    by_graph = np.argsort(node_graph, kind="stable")  # each graph's nodes in indicator order
    local_index = np.empty(n_nodes_total, dtype=np.int64)
    local_index[by_graph] = np.arange(n_nodes_total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    local_index = local_index.tolist()

    edge_graph, ends = [], []
    for ln, raw in _nonblank_lines(path_for("A")):
        parts = raw.replace(",", " ").split()
        if len(parts) != 2:
            raise ParseError(path_for("A"), ln, f"expected 'i, j', got {raw!r}")
        try:
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            raise ParseError(path_for("A"), ln, f"non-integer endpoint in {raw!r}") from None
        if not (0 <= u < n_nodes_total and 0 <= v < n_nodes_total):
            raise DanglingEdge(f"{path_for('A')}:{ln}: node id out of range in {raw!r}")
        if node_graph[u] != node_graph[v]:
            raise ParseError(path_for("A"), ln,
                             f"edge {raw!r} crosses graphs {node_graph[u] + 1} and {node_graph[v] + 1}")
        edge_graph.append(node_graph[u])
        ends.append((local_index[u], local_index[v]))

    raw_labels = _parse_lines(labels_path, int, "graph label")
    if len(raw_labels) != n_graphs:
        raise ParseError(labels_path, len(raw_labels),
                         f"{len(raw_labels)} labels for {n_graphs} graphs")

    attr_path = path_for("node_attributes")
    features = np.zeros((n_nodes_total, 0))
    if attr_path.exists():
        rows = _parse_lines(attr_path, lambda s: [float(x) for x in s.split(",")],
                            "attribute row")
        if len(rows) != n_nodes_total:
            raise ParseError(attr_path, len(rows),
                             f"{len(rows)} attribute rows for {n_nodes_total} nodes")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ParseError(attr_path, 0, f"ragged attribute rows: widths {sorted(widths)}")
        features = np.array(rows)[by_graph]

    label_names = sorted(set(raw_labels))
    remap = {orig: i for i, orig in enumerate(label_names)}
    try:
        graphs = _graphs_from_arrays(sizes, edge_graph, ends, features)
    except ValueError as exc:
        raise SchemaError(f"{root}: {exc}") from None
    return LabeledGraphDataset(
        graphs,
        [remap[y] for y in raw_labels],
        label_set=range(len(label_names)),
        label_names=label_names,
    )


# ---------------------------------------------------------------------------
# native JSON graph format

def save_dataset_json(dataset: LabeledGraphDataset, path) -> None:
    """Write the native JSON graph format.

    Schema: {"graphs": [{"n", "edges", "features", "label"}], "label_set"}.
    Edges are the 0-indexed strictly-upper-triangle support of the
    adjacency, so only 0/1 graphs round-trip exactly.
    """
    payload = {
        "graphs": [
            {
                "n": g.n_nodes,
                "edges": [[int(i), int(j)] for i, j in zip(*np.nonzero(np.triu(g.adjacency, k=1)))],
                "features": [list(map(float, row)) for row in g.features],
                "label": int(y),
            }
            for g, y in zip(dataset.graphs, dataset.labels)
        ],
        "label_set": list(dataset.label_set),
    }
    _atomic_write_bytes(Path(path), _dump_json(payload))


def _json_int(value, what: str) -> int:
    # JSON true and false load as bool, a subclass of int; they are not integers here.
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def load_dataset_json(path) -> LabeledGraphDataset:
    """Read the native JSON graph format; a graph failing its checks is a SchemaError.

    `n`, labels, `label_set` entries and edge endpoints must be JSON integers,
    and `n` at least 1. A file whose fields have the shapes `_json_arrays`
    takes is checked and built in one pass; any other file, and any file that
    fails a check, is read entry by entry, which reports the first fault.
    """
    payload = _read_json(path)
    try:
        arrays = _json_arrays(payload)
        if arrays is None:
            return _json_dataset_by_entry(payload)
        sizes, edge_graph, ends, features, labels = arrays
        return LabeledGraphDataset(_graphs_from_arrays(sizes, edge_graph, ends, features),
                                   labels, label_set=payload["label_set"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed dataset JSON ({exc})") from None


def _json_arrays(payload):
    """A dataset payload as flat arrays for `_graphs_from_arrays`, or None.

    None unless every JSON-integer field holds a JSON integer, every `n` is at
    least 1, every edge is a pair, and every graph's features are a list of
    `n` rows (or `n` numbers, one column) that stack into one matrix, or `[]`
    in every graph.
    """
    try:
        entries = payload["graphs"]
        sizes = [entry["n"] for entry in entries]
        edges = [entry["edges"] for entry in entries]
        feats = [entry["features"] for entry in entries]
        labels = [entry["label"] for entry in entries]
        pairs = list(chain.from_iterable(edges))
        endpoints = list(chain.from_iterable(pairs))
        if (set(map(type, chain(sizes, labels, payload["label_set"], endpoints))) - {int}
                or set(map(len, pairs)) - {2} or set(map(type, feats)) - {list}
                or min(sizes, default=1) < 1):
            return None
        ends = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
        rows = list(chain.from_iterable(feats))
        features = np.array(rows, dtype=np.float64)
        if not rows:
            features = np.zeros((sum(sizes), 0))
        elif features.ndim == 1:
            features = features[:, None]
    except (LookupError, TypeError, ValueError, OverflowError):
        return None
    if features.ndim != 2 or (rows and list(map(len, feats)) != sizes):
        return None
    edge_counts = np.array(list(map(len, edges)), dtype=np.int64)
    return sizes, np.repeat(np.arange(len(sizes)), edge_counts), ends, features, labels


def _json_dataset_by_entry(payload) -> LabeledGraphDataset:
    """The payload's dataset, each entry checked and built on its own."""
    graphs = []
    labels = []
    for k, entry in enumerate(payload["graphs"]):
        n = _json_int(entry["n"], f"graph {k}: n")
        if n < 1:
            raise ValueError(f"graph {k}: n must be at least 1, got {n}")
        edges = entry["edges"]
        if set(map(type, chain.from_iterable(edges))) - {int}:
            _json_int(next(v for v in chain.from_iterable(edges) if type(v) is not int),
                      f"graph {k}: edge endpoint")
        feats = np.array(entry["features"], dtype=np.float64)
        if feats.size == 0:
            feats = np.zeros((n, 0))
        graphs.append(AttributedGraph.from_edges(n, edges, features=feats))
        labels.append(_json_int(entry["label"], f"graph {k}: label"))
    label_set = [_json_int(y, "label_set entry") for y in payload["label_set"]]
    return LabeledGraphDataset(graphs, labels, label_set=label_set)


def load_dataset(path) -> LabeledGraphDataset:
    """Dispatch on path type: directory = TU flat files, file = native JSON."""
    path = Path(path)
    if path.is_dir():
        return load_tudataset(path)
    if path.suffix == ".json":
        return load_dataset_json(path)
    raise ParseError(path, 0, "expected a TUDataset directory or a .json dataset")


# ---------------------------------------------------------------------------
# covariate-shift splitting

@dataclass(frozen=True)
class DomainSplit:
    """Disjoint train/val/test index lists covering a dataset."""

    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    by: str = "density"

    def __post_init__(self):
        all_idx = self.train_idx + self.val_idx + self.test_idx
        if len(set(all_idx)) != len(all_idx):
            raise SchemaError("split index lists overlap")
        if sorted(all_idx) != list(range(len(all_idx))):
            raise SchemaError("split index lists do not cover the dataset")


def covariate_split(dataset: LabeledGraphDataset, property_name: str) -> DomainSplit:
    """Sort graphs ascending by a property and split 60/20/20.

    Ties keep original order, so the split is a deterministic function of
    the (property, index) pairs. Train gets floor(0.6 N), val floor(0.2 N),
    test the remainder.
    """
    if property_name == "density":
        keys = [graph_density(g) for g in dataset.graphs]
    elif property_name == "size":
        keys = [g.n_nodes for g in dataset.graphs]
    else:
        raise ConfigInvalid(f"unknown shift property {property_name!r}")
    n = len(dataset)
    if n < 5:
        raise DatasetTooSmall(f"need at least 5 graphs to split, got {n}")
    order = np.argsort(np.asarray(keys, dtype=np.float64), kind="stable")
    n_train = 6 * n // 10
    n_val = 2 * n // 10
    return DomainSplit(
        train_idx=tuple(int(i) for i in order[:n_train]),
        val_idx=tuple(int(i) for i in order[n_train:n_train + n_val]),
        test_idx=tuple(int(i) for i in order[n_train + n_val:]),
        by=property_name,
    )


def save_split(split: DomainSplit, path, dataset_digest: str | None = None) -> None:
    payload = {
        "by": split.by,
        "train": list(split.train_idx),
        "val": list(split.val_idx),
        "test": list(split.test_idx),
    }
    if dataset_digest is not None:
        payload["dataset_hash"] = dataset_digest
    _atomic_write_bytes(Path(path), _dump_json(payload))


def load_split(path, expected_hash: str | None = None) -> DomainSplit:
    """Load a split; one stored with a hash other than `expected_hash` raises HashMismatch."""
    payload = _read_json(path)
    try:
        split = DomainSplit(
            train_idx=tuple(payload["train"]),
            val_idx=tuple(payload["val"]),
            test_idx=tuple(payload["test"]),
            by=payload.get("by", "density"),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed split JSON ({exc})") from None
    stored = payload.get("dataset_hash", expected_hash)
    if expected_hash is not None and stored != expected_hash:
        raise HashMismatch(f"{path}: split was made for dataset {str(stored)[:12]}..., "
                           f"expected {expected_hash[:12]}...")
    return split


# ---------------------------------------------------------------------------
# selection results

def save_selection(result, path, created_at: str | None = None) -> None:
    """Persist a selection result as JSON.

    `created_at` defaults to the current UTC time; callers that need
    byte-reproducible outputs (the CLI does) pass a deterministic stamp.
    """
    if created_at is None:
        created_at = _dt.datetime.now(_dt.timezone.utc).isoformat()
    payload = {
        "method": result.method,
        "indices": [int(i) for i in result.indices],
        "weights": [float(x) for x in result.weights],
        "config": result.provenance.get("config", {}),
        "dataset_hash": result.provenance.get("dataset_hash", ""),
        "created_at": created_at,
    }
    _validate_selection_payload(payload)
    _atomic_write_bytes(Path(path), _dump_json(payload))


def _validate_selection_payload(payload) -> None:
    required = {"method", "indices", "weights", "config", "dataset_hash", "created_at"}
    missing = required - set(payload)
    if missing:
        raise SchemaError(f"selection JSON missing fields {sorted(missing)}")
    indices = payload["indices"]
    weights = payload["weights"]
    if not isinstance(indices, list) or any(type(i) is not int for i in indices):
        raise SchemaError("selection indices must be a list of integers")
    if not isinstance(weights, list) or any(type(x) not in (int, float) for x in weights):
        raise SchemaError("selection weights must be a list of numbers")
    if len(set(indices)) != len(indices):
        raise SchemaError("selection indices contain duplicates")
    if any(i < 0 for i in indices):
        raise SchemaError("selection indices must be nonnegative")
    if sorted(indices) != list(indices):
        raise SchemaError("selection indices must be sorted ascending")
    if len(weights) != len(indices):
        raise SchemaError("weights and indices differ in length")
    # NaN fails x >= 0, and an infinite entry fails the sum.
    if not all(x >= 0 for x in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise SchemaError("selection weights must be a probability vector")


def load_selection(path, expected_hash: str | None = None, force: bool = False):
    """Load and validate a selection result.

    When `expected_hash` is given and disagrees with the stored one, raises
    HashMismatch unless `force` is set, in which case a warning is emitted.
    """
    from .pipeline import SelectionResult  # local import to avoid a cycle

    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: selection JSON must be an object")
    _validate_selection_payload(payload)
    stored = payload["dataset_hash"]
    if expected_hash is not None and stored != expected_hash:
        if not force:
            raise HashMismatch(
                f"{path}: selection was computed on dataset {stored[:12]}..., "
                f"expected {expected_hash[:12]}..."
            )
        warnings.warn(f"{path}: dataset hash mismatch ignored by force", RuntimeWarning)
    return SelectionResult(
        indices=tuple(payload["indices"]),
        weights=tuple(payload["weights"]),
        method=payload["method"],
        trace=None,
        provenance={
            "config": payload["config"],
            "dataset_hash": stored,
            "created_at": payload["created_at"],
        },
    )


# ---------------------------------------------------------------------------
# binary matrix cache

def cache_file_name(kind: str, key: dict) -> str:
    return f"{kind}-{config_hash(key)[:20]}.gdd"


def save_matrix_cache(path, matrix: np.ndarray, key: dict) -> None:
    """Write a distance matrix to the binary cache format.

    Layout: magic "GDD1", little-endian uint32 header length, JSON header
    (dims + config hash + the key itself), then the row-major float64
    little-endian payload. Files are written once and never mutated.
    """
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    header = {
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "config_hash": config_hash(key),
        "key": key,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob = (CACHE_MAGIC + struct.pack("<I", len(header_bytes))
            + header_bytes + matrix.tobytes(order="C"))
    _atomic_write_bytes(Path(path), blob)


def load_matrix_cache(path, key: dict) -> np.ndarray:
    """Read a cached matrix, verifying magic, exact key agreement and size."""
    blob = Path(path).read_bytes()
    if blob[:4] != CACHE_MAGIC:
        raise SchemaError(f"{path}: bad cache magic {blob[:4]!r}")
    header_len = struct.unpack("<I", blob[4:8])[0] if len(blob) >= 8 else None
    if header_len is None or len(blob) < 8 + header_len:
        raise SchemaError(f"{path}: cache header is truncated")
    try:
        header = json.loads(blob[8:8 + header_len].decode())
        stored_hash, rows, cols = header["config_hash"], header["rows"], header["cols"]
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError, KeyError) as exc:
        raise SchemaError(f"{path}: cache header is unreadable ({exc!r})") from None
    if stored_hash != config_hash(key):
        raise HashMismatch(f"{path}: cache key disagrees with the request")
    payload = blob[8 + header_len:]
    if len(payload) != 8 * rows * cols:
        raise SchemaError(
            f"{path}: payload has {len(payload)} bytes, expected {8 * rows * cols}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
