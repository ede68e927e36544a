"""Dataset ingestion, covariate-shift splitting and persistence.

Supports TUDataset-style flat files and a native JSON graph format, plus
content-addressed binary caches for distance matrices, OT solutions and
JSON datasets, and JSON round-trips for splits and selection results.
Writers are atomic (write to a sibling temp file, then rename) and
deterministic byte for byte.

Both dataset readers check and build all graphs of a dataset in one
vectorized pass (`graphs._graphs_from_arrays`): the graphs of a loaded
dataset are read-only views into three shared buffers, and no per-graph
constructor runs. The JSON reader is one function, `_json_graphs`; when
its pass over all entries raises, it runs on each entry alone, so the
first faulty graph reports its own error.

With a cache directory, `load_dataset` keeps a JSON dataset as a "DS"
entry keyed on the sha256 of the file's bytes: a warm load rebuilds the
graphs from the entry's flat arrays, through the same builder and checks,
and skips the JSON parse.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import struct
import warnings
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    ConfigInvalid,
    DanglingEdge,
    DatasetTooSmall,
    DimensionMismatch,
    GradateError,
    HashMismatch,
    ParseError,
    SchemaError,
)
from .graphs import LabeledGraphDataset, _graphs_from_arrays, graph_density

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


def _read_text(path, data: bytes | None = None) -> str:
    """A file's text, decoded from `data` if its bytes were read already.

    Bytes that are not UTF-8 are a ParseError at their line.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8 text (byte {data[exc.start]:#04x})") from None


def _read_json(path, data: bytes | None = None):
    """The parsed contents of a JSON file, or of its bytes `data`.

    A decode error is a ParseError.
    """
    try:
        return json.loads(_read_text(path, data))
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
    ids = set(node_graph)
    if len(ids) < n_graphs:  # found before bincount allocates a count for each id
        empty = next(k for k in range(n_graphs) if k not in ids)
        raise ParseError(indicator_path, 0, f"graph id {empty + 1} has no nodes")

    # Global node id -> (graph, local index), following indicator order.
    sizes = np.bincount(node_graph, minlength=n_graphs)
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
        graphs = _graphs_from_arrays(sizes, edge_graph, ends, features, first=1)
    except (DimensionMismatch, ValueError) as exc:
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
    Edges are `_dataset_edges`'s: the 0-indexed upper-triangle support of
    the adjacency, diagonal included, so every 0/1 graph, self-loops too,
    round-trips exactly.
    """
    _, edge_graph, ends = _dataset_edges(dataset.graphs)
    edges = np.split(ends, np.cumsum(np.bincount(edge_graph, minlength=len(dataset)))[:-1])
    payload = {
        "graphs": [
            {
                "n": g.n_nodes,
                "edges": e.tolist(),
                "features": [list(map(float, row)) for row in g.features],
                "label": int(y),
            }
            for g, e, y in zip(dataset.graphs, edges, dataset.labels)
        ],
        "label_set": list(dataset.label_set),
    }
    _atomic_write_bytes(Path(path), _dump_json(payload))


def load_dataset_json(path) -> LabeledGraphDataset:
    """Read the native JSON graph format; a graph failing its checks is a SchemaError.

    `n`, labels, `label_set` entries and edge endpoints must be JSON
    integers, and `n` at least 1; labels and `label_set` entries must fit in
    int64. All entries are checked and built in one pass; if it raises, each
    entry is read alone in turn, so the first faulty graph raises its own
    error, and graphs whose feature layouts do not stack (a flat column
    beside rows, say) still load. An edge that leaves its graph's nodes is
    a DanglingEdge, and a graph whose features or size do not fit its n a
    DimensionMismatch, each naming the file and the graph.
    """
    return _dataset_from_json(path, Path(path).read_bytes())


def _dataset_from_json(path, data: bytes) -> LabeledGraphDataset:
    """`load_dataset_json` of the file `path`, whose bytes `data` were read already."""
    payload = _read_json(path, data)
    try:
        entries = payload["graphs"]
        try:
            graphs, labels = _json_graphs(entries, 0)
        except (GradateError, LookupError, TypeError, ValueError, OverflowError):
            graphs, labels = [], []
            for k, entry in enumerate(entries):
                graph, label = _json_graphs([entry], k)
                graphs += graph
                labels += label
        _require_json_labels(payload["label_set"], "label_set entry")
        return LabeledGraphDataset(graphs, labels, label_set=payload["label_set"])
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed dataset JSON ({exc})") from None
    except (DanglingEdge, DimensionMismatch) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _require_json_ints(values, what: str) -> None:
    # JSON true and false load as bool, a subclass of int; they are not integers here.
    if set(map(type, values)) - {int}:
        value = next(v for v in values if type(v) is not int)
        raise TypeError(f"{what} must be an integer, got {json.dumps(value)}")


def _require_json_labels(values, what: str) -> None:
    # Labels are hashed and cached as int64; `graphs._class_label` checks
    # the range too, but without naming the file and the graph.
    _require_json_ints(values, what)
    if values and not -2 ** 63 <= min(values) <= max(values) < 2 ** 63:
        value = next(v for v in values if not -2 ** 63 <= v < 2 ** 63)
        raise ValueError(f"{what} must fit in int64, got {value}")


def _json_graphs(entries, first: int):
    """The graphs and labels of dataset entries, checked and built in one pass.

    Raises at the first failing check, in this order: `n` is a JSON integer
    and at least 1, edge endpoints are JSON integers, features convert to
    floats, `graphs._graphs_from_arrays`'s checks, labels are JSON integers
    in the int64 range.
    Entries whose features do not stack into one matrix raise too. Messages
    name graph `first`, so they are exact for a lone entry.
    """
    sizes = [entry["n"] for entry in entries]
    _require_json_ints(sizes, f"graph {first}: n")
    if min(sizes, default=1) < 1:
        raise ValueError(f"graph {first}: n must be at least 1, got {min(sizes)}")
    edges = [entry["edges"] for entry in entries]
    pairs = list(chain.from_iterable(edges))
    endpoints = list(chain.from_iterable(pairs))
    _require_json_ints(endpoints, f"graph {first}: edge endpoint")
    feats = [entry["features"] for entry in entries]
    if len(feats) > 1 and (set(map(type, feats)) - {list}
                           or (any(feats) and list(map(len, feats)) != sizes)):
        raise ValueError("the graphs' features do not stack into one matrix")
    # A lone entry's features convert as given, so that `from_edges` judges any form.
    features = np.array(feats[0] if len(feats) == 1 else list(chain.from_iterable(feats)),
                        dtype=np.float64)
    if features.size == 0:  # [], or any list of empty lists: no features
        features = np.zeros((sum(sizes), 0))
    elif features.ndim == 1:
        features = features[:, None]
    ends = pairs  # as given, for `from_edges` to judge, unless they are int64 pairs
    if set(map(len, pairs)) <= {2}:
        with suppress(OverflowError):  # the flat list converts faster than the nested one
            ends = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
    edge_graph = np.repeat(np.arange(len(entries)), list(map(len, edges)))
    graphs = _graphs_from_arrays(sizes, edge_graph, ends, features, first)
    labels = [entry["label"] for entry in entries]
    _require_json_labels(labels, f"graph {first}: label")
    return graphs, labels


def load_dataset(path, cache_dir=None) -> LabeledGraphDataset:
    """Dispatch on path type: directory = TU flat files, file = native JSON.

    With `cache_dir`, a JSON dataset goes through a "DS" cache entry keyed
    on the sha256 of the file's bytes and the entry layout
    (`DATASET_ENTRY`): an edited file misses. The file is read once. On a
    miss its bytes are checked and built as `load_dataset_json` does, and
    only a dataset that passed every check is written. A hit rebuilds the dataset
    from the entry's flat arrays through the same builder and checks, so it
    equals the cold load byte for byte. TU directories are read directly.
    """
    path = Path(path)
    if path.is_dir():
        return load_tudataset(path)
    if path.suffix != ".json":
        raise ParseError(path, 0, "expected a TUDataset directory or a .json dataset")
    if cache_dir is None:
        return load_dataset_json(path)
    data = path.read_bytes()
    key = {"entry": DATASET_ENTRY, "sha256": hashlib.sha256(data).hexdigest()}
    return _cached(cache_dir, "DS", key, lambda: _dataset_from_json(path, data),
                   _load_dataset_entry, _save_dataset_entry)


# ---------------------------------------------------------------------------
# covariate-shift splitting

# The graph properties a covariate split can sort by, each with its sort key.
_SHIFT_PROPERTIES = {"density": graph_density, "size": lambda g: g.n_nodes}


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
    # Membership in a tuple, so an unhashable name is refused like any other.
    if property_name not in tuple(_SHIFT_PROPERTIES):
        raise ConfigInvalid(f"unknown shift property {property_name!r}")
    keys = [_SHIFT_PROPERTIES[property_name](g) for g in dataset.graphs]
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
        for name in ("train", "val", "test"):
            _require_json_ints(payload[name], f"{name} index")
        by = payload.get("by", "density")
        if by not in tuple(_SHIFT_PROPERTIES):
            names = " or ".join(map(json.dumps, _SHIFT_PROPERTIES))
            raise ValueError(f"by must be {names}, got {json.dumps(by)}")
        split = DomainSplit(
            train_idx=tuple(payload["train"]),
            val_idx=tuple(payload["val"]),
            test_idx=tuple(payload["test"]),
            by=by,
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    for name in ("method", "dataset_hash", "created_at"):
        if not isinstance(payload[name], str):
            raise SchemaError(f"selection {name} must be a string")
    if not isinstance(payload["config"], dict):
        raise SchemaError("selection config must be an object")
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
    try:
        _validate_selection_payload(payload)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
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
# binary caches
#
# Every cache file has one layout: magic "GDD1", little-endian uint32 header
# length, a JSON header (sizes, config hash and the key itself), then
# little-endian int64 or float64 buffers. Files are written once and never
# mutated.

def cache_file_name(kind: str, key: dict) -> str:
    return f"{kind}-{config_hash(key)[:20]}.gdd"


def _cached(cache_dir, kind: str, key: dict, compute, load=None, save=None):
    """`compute()`, read from or written to the `kind` entry of `key` under `cache_dir`.

    Without `cache_dir` this is `compute()`. An entry that exists is read
    with `load(path, key)`; otherwise `compute()` runs and `save(path, value,
    key)` writes its result. Both default to the matrix entry functions,
    looked up on this module at call time.
    """
    if cache_dir is None:
        return compute()
    path = Path(cache_dir) / cache_file_name(kind, key)
    if path.exists():
        return (load or load_matrix_cache)(path, key)
    value = compute()
    (save or save_matrix_cache)(path, value, key)
    return value


def _save_entry(path, sizes: dict, key: dict, payload: bytes) -> None:
    header = {**sizes, "config_hash": config_hash(key), "key": key}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    _atomic_write_bytes(Path(path), CACHE_MAGIC + struct.pack("<I", len(header_bytes))
                        + header_bytes + payload)


def _load_entry(path, key: dict, sizes: tuple[str, ...], n_items) -> tuple[list, memoryview]:
    """The header sizes and the payload of a cache file, checked against `key`.

    `n_items(*sizes)` is the payload's length in 8-byte items; sizes
    that are not nonnegative integers, or a payload of another length, are
    a SchemaError.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != CACHE_MAGIC:
        raise SchemaError(f"{path}: bad cache magic {blob[:4]!r}")
    header_len = struct.unpack("<I", blob[4:8])[0] if len(blob) >= 8 else None
    if header_len is None or len(blob) < 8 + header_len:
        raise SchemaError(f"{path}: cache header is truncated")
    try:
        header = json.loads(blob[8:8 + header_len].decode())
        stored_hash, values = header["config_hash"], [header[name] for name in sizes]
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError, KeyError) as exc:
        raise SchemaError(f"{path}: cache header is unreadable ({exc!r})") from None
    if stored_hash != config_hash(key):
        raise HashMismatch(f"{path}: cache key disagrees with the request")
    if any(type(v) is not int or v < 0 for v in values):
        raise SchemaError(f"{path}: cache header sizes {values} are not counts")
    payload = memoryview(blob)[8 + header_len:]
    expected = 8 * n_items(*values)
    if len(payload) != expected:
        raise SchemaError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    return values, payload


def save_matrix_cache(path, matrix: np.ndarray, key: dict) -> None:
    """Write a distance matrix: header sizes `rows` and `cols`, then row-major float64."""
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    _save_entry(path, {"rows": int(matrix.shape[0]), "cols": int(matrix.shape[1])}, key,
                matrix.tobytes(order="C"))


def load_matrix_cache(path, key: dict, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Read a cached matrix, verifying magic, exact key agreement, size and finite values.

    With `shape`, a matrix of another shape is a malformed entry. No matrix
    entry holds a NaN or an infinity, so one is a damaged file. Both are a
    SchemaError naming the file.
    """
    (rows, cols), payload = _load_entry(path, key, ("rows", "cols"), lambda r, c: r * c)
    if shape is not None and (rows, cols) != shape:
        kind = Path(path).name.split("-")[0]  # the kind of `cache_file_name`
        raise SchemaError(f"{path}: malformed {kind} cache entry")
    matrix = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    if not np.isfinite(matrix).all():
        raise SchemaError(f"{path}: cache payload has non-finite values")
    return matrix


# The layout of a "DS" entry, part of its key. Rename it whenever the JSON
# reader changes what it accepts or builds, so that entries written before
# miss once and are rewritten.
DATASET_ENTRY = "json-dataset-arrays"
_DATASET_SIZES = ("graphs", "edges", "rows", "cols", "classes")


def _dataset_edges(graphs):
    """The node count of each graph, and the graph and endpoint pair of each edge.

    Edges are the upper-triangle support of each adjacency, diagonal
    included, in row-major order: the flat arrays `graphs._graphs_from_arrays`
    rebuilds 0/1 graphs from, as int64 arrays of shapes (G,), (E,), (E, 2).
    """
    sizes = np.array([g.n_nodes for g in graphs], dtype=np.int64)
    adj_start = np.concatenate(([0], np.cumsum(sizes * sizes)))
    cells = np.flatnonzero(np.concatenate([np.zeros(0)] + [g.adjacency.ravel() for g in graphs]))
    edge_graph = np.searchsorted(adj_start, cells, side="right") - 1
    i, j = np.divmod(cells - adj_start[edge_graph], sizes[edge_graph])
    upper = i <= j
    return sizes, edge_graph[upper], np.stack([i[upper], j[upper]], axis=1)


def _save_dataset_entry(path, dataset: LabeledGraphDataset, key: dict) -> None:
    """Write the flat arrays that `graphs._graphs_from_arrays` rebuilds `dataset` from.

    Payload, int64 then float64: the graph sizes, the labels, each edge's
    graph and its endpoint pair (`_dataset_edges`), the label set, then the
    stacked feature rows.
    """
    graphs = dataset.graphs
    sizes, edge_graph, ends = _dataset_edges(graphs)
    features = np.concatenate([g.features for g in graphs] or [np.zeros((0, 0))])
    counts = dict(zip(_DATASET_SIZES, (len(graphs), len(edge_graph), *features.shape,
                                       len(dataset.label_set))))
    ints = [sizes, dataset.labels, edge_graph, ends, dataset.label_set]
    ints = np.concatenate([np.asarray(a, dtype=np.int64).ravel() for a in ints])
    _save_entry(path, counts, key,
                ints.astype("<i8").tobytes() + features.astype("<f8").tobytes())


def _load_dataset_entry(path, key: dict) -> LabeledGraphDataset:
    """The dataset of a "DS" entry, built and checked as the JSON reader builds it."""
    (n_graphs, n_edges, rows, cols, n_classes), payload = _load_entry(
        path, key, _DATASET_SIZES, lambda g, e, r, c, k: 2 * g + 3 * e + k + r * c)
    ints = np.frombuffer(payload, dtype="<i8", count=2 * n_graphs + 3 * n_edges + n_classes)
    sizes, labels, edge_graph, ends, label_set = np.split(
        ints.astype(np.int64), np.cumsum([n_graphs, n_graphs, n_edges, 2 * n_edges]))
    features = np.frombuffer(payload, dtype="<f8", offset=ints.nbytes).reshape(rows, cols)
    try:
        graphs = _graphs_from_arrays(sizes.tolist(), edge_graph, ends.reshape(-1, 2), features)
        return LabeledGraphDataset(graphs, labels.tolist(), label_set=label_set.tolist())
    except (GradateError, ValueError, IndexError) as exc:
        raise SchemaError(f"{path}: malformed dataset cache entry ({exc})") from None
