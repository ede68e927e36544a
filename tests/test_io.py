import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradate import AttributedGraph, LabeledGraphDataset, io, random_select
from gradate.errors import (
    DanglingEdge,
    DatasetTooSmall,
    DimensionMismatch,
    HashMismatch,
    ParseError,
    SchemaError,
)

from conftest import path_graph, random_dataset, random_graph


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
    @pytest.mark.parametrize("edge", [(0, -1), (0, 3)], ids=["minus-one", "n"])
    def test_endpoint_outside_the_nodes_is_a_dangling_edge(self, tmp_path, edge):
        # -1 used to wrap round to node 2 and add the edge 0-2.
        with pytest.raises(DanglingEdge):
            AttributedGraph.from_edges(3, [edge])
        with pytest.raises(DanglingEdge):
            io.load_dataset_json(write_json_dataset(tmp_path / "ds.json", edges=[edge]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_feature_is_a_schema_error(self, tmp_path, bad):
        with pytest.raises(ValueError, match="finite"):
            AttributedGraph(np.zeros((2, 2)), features=[[0.0], [bad]])
        path = write_json_dataset(tmp_path / "ds.json", features=((0.5,), (bad,), (2.0,)))
        with pytest.raises(SchemaError, match="finite"):
            io.load_dataset_json(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = write_json_dataset(tmp_path / "ds.json")
        path.write_bytes(b'{"graphs": [],\n "label_set": ["\xff"]}')
        with pytest.raises(ParseError, match=r"ds.json:2: not UTF-8 text \(byte 0xff\)"):
            io.load_dataset_json(path)

    def test_label_outside_the_label_set_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match=r"labels \[7\] not in label_set"):
            io.load_dataset_json(write_json_dataset(tmp_path / "ds.json", label=7))

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


@pytest.fixture
def constructor_calls(monkeypatch):
    """Patch AttributedGraph.__init__ so that each call appends to the returned list."""
    calls = []
    init = AttributedGraph.__init__
    monkeypatch.setattr(AttributedGraph, "__init__",
                        lambda self, *a, **kw: calls.append(a) or init(self, *a, **kw))
    return calls


class TestOnePassLoad:
    @pytest.mark.parametrize("entries", [
        [entry(3, [(0, 1), (1, 2)], [[0.5, -1.0], [2.0, 0.0], [1.5, 3.25]]),
         entry(1, [], [[0.0, 1.0]], label=1),
         entry(4, [(3, 0), (2, 2), (0, 3)], [[1, 2], [3, 4], [5, 6], [7, 8]])],
        [entry(2, [(0, 1)], []), entry(1, [], [], label=1), entry(5, [(0, 4), (1, 3)], [])],
        [entry(2, [(0, 1)], [[], []]), entry(1, [], [[]])],
        [entry(2, [(0, 1)], [0.5, 1.5]), entry(1, [], [2.0], label=1)],
    ], ids=["attributed", "featureless", "empty-rows", "one-d-features"])
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

    @pytest.mark.parametrize("first, second, error, message", [
        ("dangling-edge", "nan-feature", DanglingEdge, r"edge \(0, 5\) leaves the nodes 0..2"),
        ("nan-feature", "dangling-edge", SchemaError, "feature entries must be finite"),
        ("few-feature-rows", "dangling-edge", DimensionMismatch, "features has 2 rows for 3 nodes"),
        ("string-label", "dangling-edge", SchemaError, "graph 1: label must be an integer"),
        ("dangling-edge", "string-label", DanglingEdge, r"edge \(0, 5\) leaves the nodes 0..2"),
        ("float-endpoint", "nan-feature", SchemaError, "graph 1: edge endpoint must be an integer"),
        ("dangling-edge", "no-nodes", DanglingEdge, r"edge \(0, 5\) leaves the nodes 0..2"),
    ])
    def test_of_two_faulty_graphs_the_earlier_is_reported(self, tmp_path, first, second,
                                                          error, message):
        faults = {
            "dangling-edge": lambda g: g["edges"].append([0, 5]),
            "nan-feature": lambda g: g["features"].__setitem__(1, [float("nan")]),
            "few-feature-rows": lambda g: g["features"].pop(),
            "string-label": lambda g: g.__setitem__("label", "x"),
            "float-endpoint": lambda g: g["edges"].append([0, 1.0]),
            "no-nodes": lambda g: g.update(n=0, edges=[], features=[]),
        }
        ds = LabeledGraphDataset([path_graph(3, feature_dim=1)] * 5, [0] * 5)
        path = tmp_path / "ds.json"
        io.save_dataset_json(ds, path)
        payload = json.loads(path.read_text())
        faults[first](payload["graphs"][1])
        faults[second](payload["graphs"][3])
        path.write_text(json.dumps(payload))
        with pytest.raises(error, match=message):
            io.load_dataset_json(path)


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
