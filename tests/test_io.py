import json
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradate import AttributedGraph, LabeledGraphDataset, io, random_select
from gradate.errors import (
    ConfigInvalid,
    DanglingEdge,
    DatasetTooSmall,
    DimensionMismatch,
    GradateError,
    HashMismatch,
    ParseError,
    SchemaError,
)

from conftest import CORRUPT_ENTRIES, path_graph, random_dataset, random_graph


def write_tu(tmp_path, name="DS", edges=((1, 2), (2, 1)), indicator=(1, 1, 2),
             labels=(1, 2), attributes=None, node_labels=None):
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    (d / f"{name}_A.txt").write_text("\n".join(f"{i}, {j}" for i, j in edges) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("\n".join(map(str, indicator)) + "\n")
    (d / f"{name}_graph_labels.txt").write_text("\n".join(map(str, labels)) + "\n")
    if attributes is not None:
        (d / f"{name}_node_attributes.txt").write_text("\n".join(attributes) + "\n")
    if node_labels is not None:
        (d / f"{name}_node_labels.txt").write_text("\n".join(map(str, node_labels)) + "\n")
    return d


class TestTuLoader:
    def test_minimal_two_graph_file(self, tmp_path):
        ds = io.load_tudataset(write_tu(tmp_path))
        assert len(ds) == 2
        assert np.array_equal(ds.graphs[0].adjacency, [[0, 1], [1, 0]])
        assert ds.graphs[1].n_nodes == 1
        assert ds.labels == (0, 1)  # remapped from (1, 2)
        assert ds.label_names == (1, 2)
        assert ds.feature_dim == 0

    def test_attributes_become_features(self, tmp_path):
        d = write_tu(tmp_path, attributes=["0.5, 1.0", "2.0, 3.0", "4.0, 5.0"])
        ds = io.load_tudataset(d)
        assert np.array_equal(ds.graphs[0].features, [[0.5, 1.0], [2.0, 3.0]])
        assert np.array_equal(ds.graphs[1].features, [[4.0, 5.0]])

    def test_node_labels_file_is_tolerated(self, tmp_path):
        d = write_tu(tmp_path, node_labels=[7, 8, 9])
        ds = io.load_tudataset(d)
        assert ds.feature_dim == 0

    def test_missing_reverse_direction_is_added(self, tmp_path):
        d = write_tu(tmp_path, edges=((1, 2),))
        ds = io.load_tudataset(d)
        assert np.array_equal(ds.graphs[0].adjacency, [[0, 1], [1, 0]])

    def test_dangling_edge(self, tmp_path):
        d = write_tu(tmp_path, edges=((1, 9),))
        with pytest.raises(DanglingEdge):
            io.load_tudataset(d)

    def test_parse_error_carries_the_line(self, tmp_path):
        d = write_tu(tmp_path, edges=((1, 2),))
        (d / "DS_A.txt").write_text("1, 2\nnot an edge\n")
        with pytest.raises(ParseError, match=":2:"):
            io.load_tudataset(d)

    def test_graph_id_below_one_rejected(self, tmp_path):
        # Id 0 would index graph -1 and join the last graph.
        d = write_tu(tmp_path, indicator=(1, 1, 0), labels=(1,))
        with pytest.raises(ParseError, match=":0: graph ids must count from 1"):
            io.load_tudataset(d)

    def test_non_finite_attribute_is_a_schema_error(self, tmp_path):
        d = write_tu(tmp_path, attributes=["0.5, 1.0", "nan, 3.0", "4.0, 5.0"])
        with pytest.raises(SchemaError, match="finite"):
            io.load_tudataset(d)

    def test_a_graph_that_fails_its_checks_is_named_with_the_directory(self, tmp_path):
        # Graph 2 holds the third node, whose attribute is not finite.
        d = write_tu(tmp_path, attributes=["0.5, 1.0", "2.0, 3.0", "nan, 5.0"])
        message = f"{d}: graph 2: feature entries must be finite"
        with pytest.raises(SchemaError, match=re.escape(message)):
            io.load_tudataset(d)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        d = write_tu(tmp_path)
        (d / "DS_graph_labels.txt").write_bytes(b"1\n\xff2\n")
        with pytest.raises(ParseError, match=r"DS_graph_labels.txt:2: not UTF-8 text \(byte 0xff\)"):
            io.load_tudataset(d)

    def test_cross_graph_edge_rejected(self, tmp_path):
        d = write_tu(tmp_path, edges=((1, 3),))
        with pytest.raises(ParseError, match="crosses"):
            io.load_tudataset(d)

    def test_round_trip_through_native_json(self, tmp_path):
        d = write_tu(tmp_path, attributes=["0.5, 1.0", "2.0, 3.0", "4.0, 5.0"])
        ds = io.load_tudataset(d)
        out = tmp_path / "ds.json"
        io.save_dataset_json(ds, out)
        again = io.load_dataset_json(out)
        assert io.dataset_hash(again) == io.dataset_hash(ds)
        io.save_dataset_json(again, tmp_path / "ds2.json")
        assert (tmp_path / "ds.json").read_bytes() == (tmp_path / "ds2.json").read_bytes()

    def test_self_loop_round_trips_through_native_json(self, tmp_path):
        d = write_tu(tmp_path, edges=((1, 1), (1, 2), (2, 1)))
        ds = io.load_tudataset(d)
        assert ds.graphs[0].adjacency[0, 0] == 1.0
        io.save_dataset_json(ds, tmp_path / "ds.json")
        assert io.dataset_hash(io.load_dataset_json(tmp_path / "ds.json")) == io.dataset_hash(ds)

    @pytest.mark.parametrize("files, fault, where, message", [
        ({"indicator": ("1", "x", "2")}, None, ("graph_indicator", 2), "bad graph id 'x'"),
        ({}, "no-edge-file", (None, 0), "no *_A.txt edge file found"),
        ({}, "no-indicator", ("graph_indicator", 0), "required file missing"),
        ({"indicator": (), "labels": ()}, None, ("graph_indicator", 0), "no nodes"),
        ({"edges": (("1", "x"),)}, None, ("A", 1), "non-integer endpoint in '1, x'"),
        ({"labels": (1,)}, None, ("graph_labels", 1), "1 labels for 2 graphs"),
        ({"attributes": ["0.5", "2.0"]}, None, ("node_attributes", 2),
         "2 attribute rows for 3 nodes"),
        ({"attributes": ["0.5, 1.0", "2.0", "4.0, 5.0"]}, None, ("node_attributes", 0),
         "ragged attribute rows: widths [1, 2]"),
    ], ids=["bad-line", "no-edge-file", "required-file-missing", "no-nodes",
            "non-integer-endpoint", "label-count", "attribute-row-count", "ragged-attributes"])
    def test_input_errors_name_the_file_and_line(self, tmp_path, files, fault, where, message):
        d = write_tu(tmp_path, **files)
        if fault == "no-edge-file":
            (d / "DS_A.txt").unlink()
        elif fault == "no-indicator":
            (d / "DS_graph_indicator.txt").unlink()
        suffix, line = where
        path = d if suffix is None else d / f"DS_{suffix}.txt"
        with pytest.raises(ParseError) as info:
            io.load_tudataset(d)
        assert (info.value.path, info.value.line) == (str(path), line)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_load_dataset_dispatch(self, tmp_path):
        d = write_tu(tmp_path)
        ds = io.load_dataset(d)
        out = tmp_path / "native.json"
        io.save_dataset_json(ds, out)
        assert io.dataset_hash(io.load_dataset(out)) == io.dataset_hash(ds)
        with pytest.raises(ParseError):
            io.load_dataset(tmp_path / "nope.txt")


def write_json_dataset(path, edges=((0, 1),), features=((0.5,), (1.0,), (2.0,)),
                       label=0, label_set=(0, 1)):
    graph = {"n": 3, "edges": [list(e) for e in edges],
             "features": [list(r) for r in features], "label": label}
    path.write_text(json.dumps({"graphs": [graph], "label_set": list(label_set)}))
    return path


class TestJsonLoader:
    @pytest.mark.parametrize("edge", [(0, -1), (0, 3), (0, 2 ** 63), (0, 2 ** 70),
                                      (0, -2 ** 63 - 1)],
                             ids=["minus-one", "n", "2^63", "2^70", "below-int64"])
    def test_endpoint_outside_the_nodes_is_a_dangling_edge(self, tmp_path, edge):
        # -1 used to wrap round to node 2 and add the edge 0-2. Beyond int64, numpy
        # makes a float or object array of the edges, not an integer one.
        message = rf"edge \(0, {edge[1]}\) leaves the nodes 0..2"
        with pytest.raises(DanglingEdge, match=message):
            AttributedGraph.from_edges(3, [edge])
        with pytest.raises(DanglingEdge, match=message):
            io.load_dataset_json(write_json_dataset(tmp_path / "ds.json", edges=[edge]))

    def test_a_graph_that_fails_its_checks_is_named_with_the_file(self, tmp_path):
        graph = entry(3, [(0, 1)], [])
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"graphs": [graph, entry(2, [(0, 5)], []), graph],
                                    "label_set": [0]}))
        message = f"{path}: graph 1: edge (0, 5) leaves the nodes 0..1"
        with pytest.raises(DanglingEdge, match=re.escape(message)):
            io.load_dataset_json(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_feature_is_a_schema_error(self, tmp_path, bad):
        with pytest.raises(ValueError, match="finite"):
            AttributedGraph(np.zeros((2, 2)), features=[[0.0], [bad]])
        path = write_json_dataset(tmp_path / "ds.json", features=((0.5,), (bad,), (2.0,)))
        with pytest.raises(SchemaError, match="finite"):
            io.load_dataset_json(path)

    def test_self_loop_round_trips(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"graphs": [entry(2, [(0, 0), (0, 1)], [])],
                                    "label_set": [0]}))
        ds = io.load_dataset_json(path)
        io.save_dataset_json(ds, tmp_path / "again.json")
        assert json.loads((tmp_path / "again.json").read_text())["graphs"][0]["edges"] \
            == [[0, 0], [0, 1]]
        assert io.dataset_hash(io.load_dataset_json(tmp_path / "again.json")) \
            == io.dataset_hash(ds)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = write_json_dataset(tmp_path / "ds.json")
        path.write_bytes(b'{"graphs": [],\n "label_set": ["\xff"]}')
        with pytest.raises(ParseError, match=r"ds.json:2: not UTF-8 text \(byte 0xff\)"):
            io.load_dataset_json(path)

    def test_label_outside_the_label_set_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match=r"labels \[7\] not in label_set"):
            io.load_dataset_json(write_json_dataset(tmp_path / "ds.json", label=7))

    @pytest.mark.parametrize("field, value, named", [
        ("label", 2 ** 64, "graph 0: label"),
        ("label_set", [0, 1, -2 ** 63 - 1], "label_set entry"),
    ], ids=["label-2^64", "label-set-below-int64"])
    def test_labels_beyond_int64_are_schema_errors(self, tmp_path, field, value, named):
        path = write_json_dataset(tmp_path / "ds.json")
        payload = json.loads(path.read_text())
        if field == "label_set":
            payload["label_set"] = value
        else:
            payload["graphs"][0][field] = value
            payload["label_set"].append(value)
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=f"{named} must fit in int64"):
            io.load_dataset_json(path)

    @pytest.mark.parametrize("field, value, named", [
        ("label", 0.9, "graph 0: label"),
        ("label", "1", "graph 0: label"),
        ("label", True, "graph 0: label"),
        ("n", 3.0, "graph 0: n"),
        ("edges", [[False, 1]], "graph 0: edge endpoint"),
        ("edges", [[True, 2]], "graph 0: edge endpoint"),
        ("edges", [[0, 1.0]], "graph 0: edge endpoint"),
        ("label_set", [0, 1, "x"], "label_set entry"),
    ], ids=["label-float", "label-string", "label-true", "n-float", "edge-false",
            "edge-true", "edge-float", "label-set-string"])
    def test_integer_fields_take_only_json_integers(self, tmp_path, field, value, named):
        path = write_json_dataset(tmp_path / "ds.json")
        payload = json.loads(path.read_text())
        if field == "label_set":
            payload["label_set"] = value
        else:
            payload["graphs"][0][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=f"{named} must be an integer"):
            io.load_dataset_json(path)


def assert_same_graphs(loaded, reference):
    """Equal graphs byte for byte, in the same order, and equal dataset hashes."""
    assert len(loaded) == len(reference)
    for g, ref in zip(loaded.graphs, reference.graphs):
        for name in ("adjacency", "features", "node_weights"):
            a, b = getattr(g, name), getattr(ref, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert io.dataset_hash(loaded) == io.dataset_hash(reference)


def entry(n, edges, features, label=0):
    return {"n": n, "edges": [list(e) for e in edges], "features": features, "label": label}


# Each fault of one graph of a valid file: the edit that makes it, then the
# error it raises and its message, where {k} is the graph's number.
FAULTS = {
    "dangling-edge": (lambda g: g["edges"].append([0, 5]),
                      DanglingEdge, r"edge \(0, 5\) leaves the nodes 0..2"),
    "nan-feature": (lambda g: g["features"].__setitem__(1, [float("nan")]),
                    SchemaError, "feature entries must be finite"),
    "few-feature-rows": (lambda g: g["features"].pop(),
                         DimensionMismatch, "features has 2 rows for 3 nodes"),
    "3-d-features": (lambda g: g.update(features=[[r] for r in g["features"]]),
                     DimensionMismatch, r"must be an \(n, d\) matrix, got shape \(3, 1, 1\)"),
    "string-label": (lambda g: g.update(label="x"),
                     SchemaError, "graph {k}: label must be an integer"),
    "float-endpoint": (lambda g: g["edges"].append([0, 1.0]),
                       SchemaError, "graph {k}: edge endpoint must be an integer"),
    "no-nodes": (lambda g: g.update(n=0, edges=[], features=[]),
                 SchemaError, "graph {k}: n must be at least 1, got 0"),
    "non-pair-edge": (lambda g: g.update(edges=[[0, 1, 2]]),
                      SchemaError, "each edge must be a pair of node indices"),
    "label-outside-set": (lambda g: g.update(label=7),
                          SchemaError, r"labels \[7\] not in label_set"),
    # Too large to allocate: refused before any buffer of size n or n**2.
    "huge-n": (lambda g: g.update(n=2 ** 40, edges=[], features=[]),
               DimensionMismatch, f"graph {{k}} of {2 ** 40} nodes needs {2 ** 80} adjacency "
                                  f"cells, above MAX_ADJACENCY_CELLS"),
    "huge-n-two-rows": (lambda g: g.update(n=2 ** 20, edges=[], features=g["features"][:2]),
                        DimensionMismatch, f"features has 2 rows for {2 ** 20} nodes"),
}

# JSON values of each kind, beside the valid one they replace.
_BIG_INTS = (st.sampled_from([2 ** 63, 2 ** 64, -2 ** 63 - 1, 10 ** 400])
             | st.integers(min_value=2 ** 63, max_value=2 ** 1100)
             | st.integers(min_value=-2 ** 1100, max_value=-2 ** 63 - 1))
_STRINGS = st.text(max_size=3) | st.sampled_from(["0", "1", "2.5", "nan"])
_LEAVES = _BIG_INTS | st.floats() | _STRINGS | st.booleans() | st.none()
_NESTED = st.recursive(
    st.integers(min_value=-1, max_value=5) | _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=6)
OTHER_JSON_VALUES = (_LEAVES | st.lists(_NESTED, max_size=3)
                     | st.dictionaries(st.text(max_size=2), _NESTED, max_size=2))


@st.composite
def mutated_payloads(draw):
    """A valid two-graph dataset payload with one or two fields replaced by OTHER_JSON_VALUES.

    A field is found by a walk from the root that stops at each level with
    probability 1/2, so `n`, `edges` and `label_set` are hit as often as
    single feature values.
    """
    d = draw(st.integers(min_value=0, max_value=2))
    flat = d == 1 and draw(st.booleans())
    graphs = []
    for label in (0, 1):
        n = draw(st.integers(min_value=1, max_value=50))
        node = st.integers(min_value=0, max_value=n - 1)
        features = [[float(i + j) for j in range(d)] for i in range(n)]
        graphs.append({"n": n, "edges": draw(st.lists(st.lists(node, min_size=2, max_size=2),
                                                       max_size=4)),
                       "features": [row[0] for row in features] if flat else features,
                       "label": label})
    payload = {"graphs": graphs, "label_set": [0, 1]}
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        parent, key = None, None
        value = payload
        while key is None or (isinstance(value, (dict, list)) and value and draw(st.booleans())):
            parent, key = value, draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                                      else range(len(value))))
            value = parent[key]
        parent[key] = draw(OTHER_JSON_VALUES)
    return payload


@pytest.fixture
def constructor_calls(monkeypatch):
    """Patch AttributedGraph.__init__ so that each call appends to the returned list."""
    calls = []
    init = AttributedGraph.__init__
    monkeypatch.setattr(AttributedGraph, "__init__",
                        lambda self, *a, **kw: calls.append(a) or init(self, *a, **kw))
    return calls


# The entries of small JSON datasets, one for each feature layout the reader takes.
LAYOUTS = {
    "attributed": [entry(3, [(0, 1), (1, 2)], [[0.5, -1.0], [2.0, 0.0], [1.5, 3.25]]),
                   entry(1, [], [[0.0, 1.0]], label=1),
                   entry(4, [(3, 0), (2, 2), (0, 3)], [[1, 2], [3, 4], [5, 6], [7, 8]])],
    "featureless": [entry(2, [(0, 1)], []), entry(1, [], [], label=1),
                    entry(5, [(0, 4), (1, 3)], [])],
    "empty-rows": [entry(2, [(0, 1)], [[], []]), entry(1, [], [[]])],
    "one-d-features": [entry(2, [(0, 1)], [0.5, 1.5]), entry(1, [], [2.0], label=1)],
    "column-beside-rows": [entry(2, [(0, 1)], [0.5, 1.5]), entry(1, [], [[2.0]], label=1)],
    "empty-beside-empty-rows": [entry(1, [], []), entry(2, [(0, 1)], [[], []], label=1)],
}


class TestOnePassLoad:
    @pytest.mark.parametrize("entries", list(LAYOUTS.values()), ids=list(LAYOUTS))
    def test_graphs_equal_those_built_one_by_one(self, tmp_path, entries):
        reference = LabeledGraphDataset(
            [AttributedGraph.from_edges(e["n"], e["edges"],
                                        features=e["features"] if np.size(e["features"]) else None)
             for e in entries],
            [e["label"] for e in entries], label_set=[0, 1])
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"graphs": entries, "label_set": [0, 1]}))
        assert_same_graphs(io.load_dataset_json(path), reference)

    @given(st.integers(min_value=0, max_value=2 ** 20), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_save_and_load_round_trip(self, tmp_path_factory, seed, feature_dim):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, int(rng.integers(0, 7)), n_classes=3, feature_dim=feature_dim,
                            size_range=(1, 7))
        path = tmp_path_factory.mktemp("round-trip") / "ds.json"
        io.save_dataset_json(ds, path)
        assert_same_graphs(io.load_dataset_json(path), ds)

    def test_tu_and_json_copies_hash_equal(self, tmp_path):
        # The indicator interleaves the two graphs, so the TU reader regroups nodes.
        d = write_tu(tmp_path, edges=((1, 3), (3, 1), (2, 4), (4, 5)),
                     indicator=(1, 2, 1, 2, 2), labels=(5, 7),
                     attributes=["0.5, 1", "2, 3", "4, 5", "6, 7", "8, 9.5"])
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"graphs": [
            entry(2, [(0, 1)], [[0.5, 1], [4, 5]]),
            entry(3, [(0, 1), (1, 2)], [[2, 3], [6, 7], [8, 9.5]], label=1),
        ], "label_set": [0, 1]}))
        assert_same_graphs(io.load_tudataset(d), io.load_dataset_json(path))

    def test_loaded_arrays_are_read_only(self, tmp_path, rng):
        io.save_dataset_json(random_dataset(rng, 5), tmp_path / "ds.json")
        (tmp_path / "one-d.json").write_text(json.dumps(
            {"graphs": [entry(2, [(0, 1)], [0.5, 1.5])], "label_set": [0]}))
        d = write_tu(tmp_path, attributes=["0.5, 1.0", "2.0, 3.0", "4.0, 5.0"])
        for ds in (io.load_dataset_json(tmp_path / "ds.json"),
                   io.load_dataset_json(tmp_path / "one-d.json"), io.load_tudataset(d)):
            for g in ds.graphs:
                for a in (g.adjacency, g.features, g.node_weights):
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a.setflags(write=True)

    def test_a_valid_file_runs_no_graph_constructor(self, tmp_path, rng, constructor_calls):
        ds = random_dataset(rng, 20)
        io.save_dataset_json(ds, tmp_path / "ds.json")
        d = write_tu(tmp_path, attributes=["0.5, 1.0", "2.0, 3.0", "4.0, 5.0"])
        constructor_calls.clear()
        assert_same_graphs(io.load_dataset_json(tmp_path / "ds.json"), ds)
        assert len(io.load_tudataset(d)) == 2
        assert constructor_calls == []

    def test_json_graph_without_nodes_names_itself(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"graphs": [entry(2, [(0, 1)], []), entry(0, [], [])],
                                    "label_set": [0]}))
        with pytest.raises(SchemaError, match="graph 1: n must be at least 1, got 0"):
            io.load_dataset_json(path)

    def test_tu_graph_without_nodes_names_itself(self, tmp_path):
        d = write_tu(tmp_path, indicator=(1, 1, 3), labels=(1, 2, 1))
        with pytest.raises(ParseError, match=r"DS_graph_indicator.txt:0: graph id 2 has no nodes"):
            io.load_tudataset(d)

    def test_a_huge_tu_graph_id_is_named_before_any_allocation(self, tmp_path):
        # Counting the nodes of every id up to this one would take 8 TiB.
        d = write_tu(tmp_path, indicator=(1, 1, 2 ** 40), labels=(1, 2))
        with pytest.raises(ParseError, match=r"DS_graph_indicator.txt:0: graph id 2 has no nodes"):
            io.load_tudataset(d)

    def test_a_tu_graph_over_the_size_bound_is_named_by_its_id(self, tmp_path, monkeypatch):
        monkeypatch.setattr("gradate.graphs.MAX_ADJACENCY_CELLS", 64)
        d = write_tu(tmp_path, indicator=(1, 1) + (2,) * 9 + (3,), labels=(1, 2, 1))
        message = f"{d}: graph 2 of 9 nodes needs 81 adjacency cells, above MAX_ADJACENCY_CELLS"
        with pytest.raises(SchemaError, match=re.escape(message)):
            io.load_tudataset(d)

    @pytest.mark.parametrize("second", sorted(FAULTS))
    @pytest.mark.parametrize("first", sorted(FAULTS))
    def test_of_two_faulty_graphs_the_earlier_is_reported(self, tmp_path, first, second):
        ds = LabeledGraphDataset([path_graph(3, feature_dim=1)] * 5, [0] * 5)
        path = tmp_path / "ds.json"
        io.save_dataset_json(ds, path)
        payload = json.loads(path.read_text())
        FAULTS[first][0](payload["graphs"][1])
        FAULTS[second][0](payload["graphs"][3])
        path.write_text(json.dumps(payload))
        # A label outside label_set is a fault of the dataset, found after every graph's.
        k, kind = (1, first) if first != "label-outside-set" else (3, second)
        error, message = FAULTS[kind][1:]
        with pytest.raises(error, match=message.format(k=k)):
            io.load_dataset_json(path)

    @given(mutated_payloads())
    @example({"graphs": [entry(2, [(0, 2 ** 70)], [[0.5], [1.0]]), entry(1, [], [[2.0]])],
              "label_set": [0]})
    @example({"graphs": [entry(2, [(0, 1)], [[0.5], [10 ** 400]]), entry(1, [], [[2.0]])],
              "label_set": [0]})
    @settings(max_examples=150, deadline=None)
    def test_a_mutated_file_loads_or_raises_a_gradate_error(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(payload))
        try:
            io.load_dataset_json(path)
        except GradateError:
            pass

    @given(mutated_payloads())
    @example({"graphs": [entry(2, [(0, 1)], [[0.5], [1.0]], label=2 ** 64), entry(1, [], [[2.0]])],
              "label_set": [0, 2 ** 64]})
    @settings(max_examples=100, deadline=None)
    def test_a_mutated_file_loads_alike_cold_and_warm(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(payload))
        cache = tmp_path_factory.mktemp("cache")
        cold, warm = (load_outcome(path, cache) for _ in range(2))
        assert cold == warm == load_outcome(path)
        assert len(list(cache.glob("DS-*.gdd"))) == (not isinstance(cold, tuple))


def load_outcome(path, cache_dir=None):
    """The dataset hash of a load, or the type and message of the GradateError it raised."""
    try:
        return io.dataset_hash(io.load_dataset(path, cache_dir))
    except GradateError as exc:
        return type(exc), str(exc)


class TestDatasetEntry:
    @pytest.mark.parametrize("layout", ["attributed", "featureless", "column-beside-rows",
                                        "empty-beside-empty-rows"])
    def test_a_hit_rebuilds_the_cold_load_without_parsing(self, tmp_path, monkeypatch, layout):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"graphs": LAYOUTS[layout], "label_set": [0, 1]}))
        cold = io.load_dataset(path, tmp_path)
        assert len(list(tmp_path.glob("DS-*.gdd"))) == 1
        monkeypatch.setattr(io, "_json_graphs",
                            lambda *a: pytest.fail("a hit ran the JSON reader"))
        warm = io.load_dataset(path, tmp_path)
        assert_same_graphs(warm, cold)
        assert (warm.labels, warm.label_set) == (cold.labels, cold.label_set)
        assert all(type(y) is int for y in warm.labels + warm.label_set)

    def test_an_edited_file_misses_and_writes_a_second_entry(self, tmp_path):
        path = write_json_dataset(tmp_path / "ds.json")
        io.load_dataset(path, tmp_path)
        path.write_bytes(path.read_bytes().replace(b"0.5", b"0.6"))
        assert io.load_dataset(path, tmp_path).graphs[0].features[0, 0] == 0.6
        assert len(list(tmp_path.glob("DS-*.gdd"))) == 2

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_a_failing_file_writes_no_entry_and_raises_alike(self, tmp_path, fault):
        ds = LabeledGraphDataset([path_graph(3, feature_dim=1)] * 5, [0] * 5)
        path = tmp_path / "ds.json"
        io.save_dataset_json(ds, path)
        payload = json.loads(path.read_text())
        FAULTS[fault][0](payload["graphs"][1])
        path.write_text(json.dumps(payload))
        cache = tmp_path / "cache"
        cache.mkdir()
        outcomes = [load_outcome(path, cache) for _ in range(2)] + [load_outcome(path)]
        assert outcomes[0][0] is FAULTS[fault][1]
        assert outcomes == outcomes[:1] * 3
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("big", [None, 2], ids=["all-under", "graph-2-over"])
    def test_the_size_bound_is_per_graph_cold_warm_and_uncached(self, tmp_path, monkeypatch,
                                                                 big):
        # Five graphs of 25 cells each pass a bound of 64 cells; 125 in all must not matter.
        monkeypatch.setattr("gradate.graphs.MAX_ADJACENCY_CELLS", 64)
        entries = [entry(5, [(0, 1), (3, 4)], [[float(i)] for i in range(5)]) for _ in range(5)]
        if big is not None:
            entries[big] = entry(9, [(0, 8)], [[0.5]] * 9)
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"graphs": entries, "label_set": [0]}))
        cache = tmp_path / "cache"
        cache.mkdir()
        outcomes = [load_outcome(path, cache) for _ in range(2)] + [load_outcome(path)]
        assert outcomes == outcomes[:1] * 3
        if big is None:
            assert isinstance(outcomes[0], str)
            assert len(list(cache.glob("DS-*.gdd"))) == 1
        else:
            assert outcomes[0] == (DimensionMismatch, f"{path}: graph 2 of 9 nodes needs 81 "
                                                      "adjacency cells, above "
                                                      "MAX_ADJACENCY_CELLS = 64")
            assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("corruption", sorted(CORRUPT_ENTRIES))
    def test_a_malformed_entry_is_rejected(self, tmp_path, corruption):
        path = write_json_dataset(tmp_path / "ds.json")
        io.load_dataset(path, tmp_path)
        (entry_path,) = tmp_path.glob("DS-*.gdd")
        edit, error, message = CORRUPT_ENTRIES[corruption]
        entry_path.write_bytes(edit(entry_path.read_bytes()))
        with pytest.raises(error, match=message):
            io.load_dataset(path, tmp_path)

    def test_an_entry_the_builder_rejects_is_a_schema_error(self, tmp_path):
        path = write_json_dataset(tmp_path / "ds.json", edges=((0, 1), (1, 2)))
        io.load_dataset(path, tmp_path)
        (entry_path,) = tmp_path.glob("DS-*.gdd")
        blob = bytearray(entry_path.read_bytes())
        # Payload: size, label, 2 edge graphs, then the first endpoint pair.
        start = 8 + int.from_bytes(blob[4:8], "little") + 8 * 4
        blob[start + 8:start + 16] = (7).to_bytes(8, "little")
        entry_path.write_bytes(bytes(blob))
        with pytest.raises(SchemaError, match=r"malformed dataset cache entry \(edge \(0, 7\)"):
            io.load_dataset(path, tmp_path)

    def test_a_tu_directory_is_read_directly(self, tmp_path):
        d = write_tu(tmp_path, attributes=["0.5, 1.0", "2.0, 3.0", "4.0, 5.0"])
        cache = tmp_path / "cache"
        cache.mkdir()
        assert_same_graphs(io.load_dataset(d, cache), io.load_tudataset(d))
        assert list(cache.iterdir()) == []


class TestCovariateSplit:
    def test_split_by_size_orders_ascending(self, rng):
        graphs = [random_graph(rng, n_nodes=n, feature_dim=0) for n in range(10, 0, -1)]
        ds = LabeledGraphDataset(graphs, [0] * 10)
        split = io.covariate_split(ds, "size")
        sizes = [ds.graphs[i].n_nodes for i in split.train_idx]
        assert sizes == [1, 2, 3, 4, 5, 6]
        assert [ds.graphs[i].n_nodes for i in split.val_idx] == [7, 8]
        assert [ds.graphs[i].n_nodes for i in split.test_idx] == [9, 10]

    def test_ties_keep_original_order(self):
        ds = LabeledGraphDataset([path_graph(3) for _ in range(6)], [0] * 6)
        split = io.covariate_split(ds, "density")
        assert split.train_idx == (0, 1, 2)
        assert split.val_idx == (3,)
        assert split.test_idx == (4, 5)

    def test_563_graphs_split_337_112_114(self):
        g = AttributedGraph(np.zeros((1, 1)))
        ds = LabeledGraphDataset([g] * 563, [0] * 563)
        split = io.covariate_split(ds, "size")
        assert (len(split.train_idx), len(split.val_idx), len(split.test_idx)) \
            == (337, 112, 114)

    def test_too_small_dataset(self):
        g = AttributedGraph(np.zeros((1, 1)))
        ds = LabeledGraphDataset([g] * 4, [0] * 4)
        with pytest.raises(DatasetTooSmall):
            io.covariate_split(ds, "size")

    def test_membership_is_permutation_invariant_for_distinct_keys(self, rng):
        # With all property values distinct, which graphs land in which
        # split does not depend on the storage order.
        graphs = [random_graph(rng, n_nodes=n, feature_dim=0)
                  for n in range(2, 12)]
        ds = LabeledGraphDataset(graphs, [0] * 10)
        perm = rng.permutation(10)
        shuffled = ds.subset(perm)
        split_a = io.covariate_split(ds, "size")
        split_b = io.covariate_split(shuffled, "size")

        def members(ds_, idx):
            return {ds_.graphs[i].n_nodes for i in idx}

        assert members(ds, split_a.train_idx) == members(shuffled, split_b.train_idx)
        assert members(ds, split_a.val_idx) == members(shuffled, split_b.val_idx)
        assert members(ds, split_a.test_idx) == members(shuffled, split_b.test_idx)

    def test_split_round_trip(self, tmp_path):
        g = AttributedGraph(np.zeros((1, 1)))
        ds = LabeledGraphDataset([g] * 8, [0] * 8)
        split = io.covariate_split(ds, "density")
        path = tmp_path / "split.json"
        io.save_split(split, path, dataset_digest=io.dataset_hash(ds))
        again = io.load_split(path)
        assert again == split

    def test_split_of_another_dataset_rejected(self, tmp_path):
        g = AttributedGraph(np.zeros((1, 1)))
        ds = LabeledGraphDataset([g] * 8, [0] * 8)
        split = io.covariate_split(ds, "density")
        path = tmp_path / "split.json"
        io.save_split(split, path, dataset_digest=io.dataset_hash(ds))
        assert io.load_split(path, expected_hash=io.dataset_hash(ds)) == split
        with pytest.raises(HashMismatch, match="split was made for dataset"):
            io.load_split(path, expected_hash="0" * 64)

    def test_split_without_a_stored_hash_loads(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"train": [0, 1, 2], "val": [3], "test": [4]}))
        assert io.load_split(path, expected_hash="0" * 64).train_idx == (0, 1, 2)

    @pytest.mark.parametrize("index", [1.0, True, "1", None],
                             ids=["float", "true", "string", "null"])
    def test_split_indices_take_only_json_integers(self, tmp_path, index):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"by": "size", "train": [0, index, 2], "val": [3],
                                    "test": [4]}))
        with pytest.raises(SchemaError, match="train index must be an integer"):
            io.load_split(path)

    @pytest.mark.parametrize("by", [5, "degree", None, ["size"]],
                             ids=["int", "other-name", "null", "list"])
    def test_split_by_is_density_or_size(self, tmp_path, by):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"by": by, "train": [0, 1, 2], "val": [3], "test": [4]}))
        with pytest.raises(SchemaError, match='by must be "density" or "size"'):
            io.load_split(path)

    @pytest.mark.parametrize("name", ["degree", "Density", ["size"]],
                             ids=["other-name", "capitalized", "list"])
    def test_unknown_property_rejected(self, rng, name):
        ds = LabeledGraphDataset([random_graph(rng) for _ in range(6)], [0] * 6)
        with pytest.raises(ConfigInvalid, match="unknown shift property"):
            io.covariate_split(ds, name)

    def test_overlapping_split_rejected(self):
        with pytest.raises(SchemaError):
            io.DomainSplit(train_idx=(0, 1), val_idx=(1,), test_idx=(2,))

    def test_split_with_a_gap_rejected(self):
        with pytest.raises(SchemaError, match="do not cover the dataset"):
            io.DomainSplit(train_idx=(0, 1), val_idx=(3,), test_idx=(4,))


class TestSelectionPersistence:
    @pytest.fixture
    def result(self, rng):
        ds = LabeledGraphDataset([random_graph(rng) for _ in range(8)], [0] * 8)
        res = random_select(ds, tau=0.5, seed=1)
        res.provenance["dataset_hash"] = io.dataset_hash(ds)
        return res

    def test_round_trip(self, tmp_path, result):
        path = tmp_path / "sel.json"
        io.save_selection(result, path, created_at="2026-01-01T00:00:00+00:00")
        loaded = io.load_selection(path)
        assert loaded.indices == result.indices
        assert loaded.weights == result.weights
        assert loaded.method == "random"

    def test_duplicate_indices_rejected(self, tmp_path, result):
        path = tmp_path / "sel.json"
        io.save_selection(result, path)
        payload = json.loads(path.read_text())
        payload["indices"] = [0, 0, 1, 2]
        payload["weights"] = [0.25, 0.25, 0.25, 0.25]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            io.load_selection(path)

    def test_nan_weight_rejected(self, tmp_path, result):
        path = tmp_path / "sel.json"
        io.save_selection(result, path)
        payload = json.loads(path.read_text())
        payload["weights"][0] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="probability vector"):
            io.load_selection(path)

    @pytest.mark.parametrize("field, value, message", [
        ("weights", "a", "weights must be a list of numbers"),
        ("weights", True, "weights must be a list of numbers"),
        ("weights", None, "weights must be a list of numbers"),
        ("indices", "a", "indices must be a list of integers"),
        ("indices", False, "indices must be a list of integers"),
        ("indices", None, "indices must be a list of integers"),
        ("indices", 1.0, "indices must be a list of integers"),
    ], ids=["weight-str", "weight-bool", "weight-null", "index-str", "index-bool",
            "index-null", "index-float"])
    def test_entry_of_the_wrong_type_rejected(self, tmp_path, result, field, value,
                                              message):
        path = tmp_path / "sel.json"
        io.save_selection(result, path)
        payload = json.loads(path.read_text())
        payload[field][0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=message):
            io.load_selection(path)

    def test_fields_that_are_not_lists_rejected(self, tmp_path, result):
        path = tmp_path / "sel.json"
        io.save_selection(result, path)
        payload = json.loads(path.read_text())
        for field in ("indices", "weights"):
            path.write_text(json.dumps({**payload, field: None}))
            with pytest.raises(SchemaError, match=f"{field} must be a list"):
                io.load_selection(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda payload: payload.pop("created_at"),
         "selection JSON missing fields ['created_at']"),
        (lambda payload: payload.update(indices=[-1, 0, 1, 2]),
         "selection indices must be nonnegative"),
        (lambda payload: payload["indices"].reverse(), "selection indices must be sorted ascending"),
        (lambda payload: payload["weights"].pop(), "weights and indices differ in length"),
        (lambda payload: payload.update(dataset_hash=None),
         "selection dataset_hash must be a string"),
        (lambda payload: payload.update(dataset_hash=12), "selection dataset_hash must be a string"),
        (lambda payload: payload.update(method=["random"]), "selection method must be a string"),
        (lambda payload: payload.update(created_at=0), "selection created_at must be a string"),
        (lambda payload: payload.update(config=[]), "selection config must be an object"),
    ], ids=["missing-field", "negative-index", "unsorted", "length-mismatch", "null-hash",
            "numeric-hash", "list-method", "numeric-created-at", "list-config"])
    def test_malformed_selection_names_its_fault(self, tmp_path, result, edit, message):
        path = tmp_path / "sel.json"
        io.save_selection(result, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
            io.load_selection(path)

    @pytest.mark.parametrize("provenance, message", [
        ({"dataset_hash": None}, "selection dataset_hash must be a string"),
        ({"config": None}, "selection config must be an object"),
    ], ids=["null-hash", "null-config"])
    def test_a_selection_that_would_not_load_is_not_written(self, tmp_path, result, provenance,
                                                           message):
        result.provenance.update(provenance)
        path = tmp_path / "sel.json"
        with pytest.raises(SchemaError, match=message):
            io.save_selection(result, path)
        assert not path.exists()

    def test_selection_that_is_no_object_names_the_file(self, tmp_path):
        path = tmp_path / "sel.json"
        path.write_text("[0.5, 0.5]")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: selection JSON must be an object")):
            io.load_selection(path)

    def test_hash_mismatch_without_force(self, tmp_path, result):
        path = tmp_path / "sel.json"
        io.save_selection(result, path)
        with pytest.raises(HashMismatch):
            io.load_selection(path, expected_hash="0" * 64)

    def test_hash_mismatch_with_force_warns(self, tmp_path, result):
        path = tmp_path / "sel.json"
        io.save_selection(result, path)
        with pytest.warns(RuntimeWarning, match="mismatch"):
            loaded = io.load_selection(path, expected_hash="0" * 64, force=True)
        assert loaded.indices == result.indices

    def test_matching_hash_is_silent(self, tmp_path, result):
        path = tmp_path / "sel.json"
        io.save_selection(result, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.load_selection(path, expected_hash=result.provenance["dataset_hash"])


class TestMatrixCache:
    def test_round_trip(self, tmp_path, rng):
        key = {"dataset_hash": "abc", "alpha": 0.5, "r": 2, "nbar": 4, "seed": 0}
        M = rng.random((5, 3))
        path = tmp_path / io.cache_file_name("D", key)
        io.save_matrix_cache(path, M, key)
        back = io.load_matrix_cache(path, key)
        assert np.array_equal(back, M)

    def test_key_mismatch_raises(self, tmp_path, rng):
        key = {"dataset_hash": "abc", "alpha": 0.5}
        path = tmp_path / "m.gdd"
        io.save_matrix_cache(path, rng.random((2, 2)), key)
        with pytest.raises(HashMismatch):
            io.load_matrix_cache(path, {"dataset_hash": "abc", "alpha": 0.9})

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.gdd"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(SchemaError):
            io.load_matrix_cache(path, {})

    @pytest.mark.parametrize("resize", [lambda b: b[:6], lambda b: b[:20], lambda b: b[:-16],
                                        lambda b: b + b"\x00" * 8])
    def test_truncated_or_overlong_file_rejected(self, tmp_path, rng, resize):
        key = {"x": 1}
        path = tmp_path / "m.gdd"
        io.save_matrix_cache(path, rng.random((3, 2)), key)
        path.write_bytes(resize(path.read_bytes()))
        with pytest.raises(SchemaError):
            io.load_matrix_cache(path, key)

    @pytest.mark.parametrize("header", [b'{"cols":2,"config_hash":"\xff","rows":3}',
                                        b'{"cols":2,"rows":3}', b'[2, 3]', b'{"rows'],
                             ids=["non-utf8", "no-config-hash", "not-an-object", "not-json"])
    def test_unreadable_header_rejected(self, tmp_path, header):
        path = tmp_path / "m.gdd"
        path.write_bytes(io.CACHE_MAGIC + len(header).to_bytes(4, "little") + header
                         + b"\x00" * 48)
        with pytest.raises(SchemaError):
            io.load_matrix_cache(path, {"x": 1})

    @pytest.mark.parametrize("rows", ["3", -1, 2.5, True, None])
    def test_header_sizes_that_are_not_counts_rejected(self, tmp_path, rows):
        key = {"x": 1}
        header = json.dumps({"cols": 2, "config_hash": io.config_hash(key), "key": key,
                             "rows": rows}).encode()
        path = tmp_path / "m.gdd"
        path.write_bytes(io.CACHE_MAGIC + len(header).to_bytes(4, "little") + header
                         + b"\x00" * 48)
        with pytest.raises(SchemaError, match="cache header sizes .* are not counts"):
            io.load_matrix_cache(path, key)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_payload_rejected(self, tmp_path, rng, value):
        key = {"x": 1}
        matrix = rng.random((3, 2))
        matrix[1, 0] = value
        path = tmp_path / "m.gdd"
        io.save_matrix_cache(path, matrix, key)
        with pytest.raises(SchemaError, match="m.gdd: cache payload has non-finite values"):
            io.load_matrix_cache(path, key)

    def test_write_is_atomic(self, tmp_path, rng):
        key = {"x": 1}
        path = tmp_path / "m.gdd"
        io.save_matrix_cache(path, rng.random((2, 2)), key)
        assert not list(tmp_path.glob("*.tmp"))

    def test_a_writer_that_finishes_first_does_not_break_a_slower_one(self, tmp_path,
                                                                       monkeypatch):
        # Two processes write one entry: the second writes and renames its
        # file between the first one's write and its rename.
        path = tmp_path / "OT-x.gdd"
        rename = os.replace
        nested = []

        def interleaved(src, dst):
            if not nested:
                nested.append(src)
                io._atomic_write_bytes(path, b"second writer, longer bytes")
            rename(src, dst)

        monkeypatch.setattr(io.os, "replace", interleaved)
        io._atomic_write_bytes(path, b"first writer")
        assert path.read_bytes() == b"first writer"
        assert not list(tmp_path.glob("*.tmp"))

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(io.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            io._atomic_write_bytes(tmp_path / "m.gdd", b"bytes")
        assert list(tmp_path.iterdir()) == []


class TestDatasetHash:
    def test_sensitive_to_order_and_labels(self, rng):
        graphs = [random_graph(rng) for _ in range(3)]
        a = LabeledGraphDataset(graphs, [0, 1, 0])
        b = LabeledGraphDataset(graphs[::-1], [0, 1, 0])
        c = LabeledGraphDataset(graphs, [1, 0, 0])
        assert io.dataset_hash(a) != io.dataset_hash(b)
        assert io.dataset_hash(a) != io.dataset_hash(c)

    def test_digest_is_pinned(self, tmp_path):
        # Split files, selection files and the D cache key store this digest.
        ds = LabeledGraphDataset(
            [AttributedGraph.from_edges(3, [(0, 1), (1, 2)],
                                        features=[[0.5, -1.0], [2.0, 0.0], [1.5, 3.25]]),
             AttributedGraph.from_edges(1, [], features=[[0.0, 1.0]]),
             AttributedGraph.from_edges(2, [(0, 1)], features=[[1.0, 1.0], [-2.0, 0.125]])],
            [1, 0, 1], label_set=[0, 1, 2])
        pinned = "f6a3628223776695eb3c1bba0f071cb0b8acaae5ea728b49ddada510d6a39cdf"
        assert io.dataset_hash(ds) == pinned
        io.save_dataset_json(ds, tmp_path / "ds.json")
        assert io.dataset_hash(io.load_dataset_json(tmp_path / "ds.json")) == pinned

    def test_stable_across_identical_builds(self, rng):
        g = random_graph(rng)
        a = LabeledGraphDataset([g], [0])
        b = LabeledGraphDataset([AttributedGraph(g.adjacency, g.features)], [0])
        assert io.dataset_hash(a) == io.dataset_hash(b)
