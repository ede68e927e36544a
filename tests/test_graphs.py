import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradate import (
    AttributedGraph,
    LabeledGraphDataset,
    concat_datasets,
    degree_one_hot_features,
    graph_density,
)
from gradate.errors import (
    AsymmetryError,
    DanglingEdge,
    DimensionMismatch,
    InfeasibleMarginals,
    SchemaError,
)

from conftest import path_graph, random_graph


class TestAttributedGraph:
    def test_defaults_uniform_weights(self):
        g = AttributedGraph.from_edges(3, [(0, 1)])
        assert np.allclose(g.node_weights, 1 / 3)
        assert g.feature_dim == 0

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(AsymmetryError):
            AttributedGraph([[0, 1], [0, 0]])

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AttributedGraph(np.zeros((3, 3)), features=np.zeros((2, 4)))

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 3, 1, 2), ()])
    def test_rejects_features_that_are_not_a_matrix(self, shape):
        with pytest.raises(DimensionMismatch, match=r"features must be an \(n, d\) matrix"):
            AttributedGraph(np.zeros((2, 2)), features=np.zeros(shape))

    def test_rejects_bad_weights(self):
        with pytest.raises(InfeasibleMarginals):
            AttributedGraph(np.zeros((2, 2)), node_weights=[0.7, 0.7])
        with pytest.raises(InfeasibleMarginals, match="non-finite"):
            AttributedGraph(np.zeros((3, 3)), node_weights=[np.nan, 0.5, 0.5])

    def test_weighted_symmetric_accepted(self):
        A = np.array([[0.0, 2.5], [2.5, 0.0]])
        g = AttributedGraph(A)
        assert g.adjacency[0, 1] == 2.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_or_negative_adjacency(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            AttributedGraph([[0.0, bad], [bad, 0.0]])

    def test_from_edges_takes_any_iterable_and_rejects_what_is_not_a_pair(self):
        g = AttributedGraph.from_edges(3, ((i, i + 1) for i in range(2)))
        assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert not AttributedGraph.from_edges(2, []).adjacency.any()
        with pytest.raises(ValueError, match="pair"):
            AttributedGraph.from_edges(3, [(0, 1, 2)])
        with pytest.raises(IndexError, match="integers"):
            AttributedGraph.from_edges(3, [(0, 1.0)])
        with pytest.raises(IndexError, match="integers"):
            AttributedGraph.from_edges(3, [(0, 2 ** 70), (0, 1.0)])
        with pytest.raises(DanglingEdge, match=r"edge \(2, 3\) leaves the nodes 0..2"):
            AttributedGraph.from_edges(3, [(0, 1), (2, 3), (-1, 0)])
        with pytest.raises(DanglingEdge, match=r"edge \(2, 3\) leaves the nodes 0..2"):
            AttributedGraph.from_edges(3, [(0, 1), (2, 3), (0, 2 ** 70)])

    def test_from_edges_refuses_a_graph_too_large_to_allocate(self):
        n = 2 ** 20  # n * n is 1,024 times MAX_ADJACENCY_CELLS
        with pytest.raises(DimensionMismatch, match=f"a graph of {n} nodes needs {n * n} "):
            AttributedGraph.from_edges(n, [(0, 1)])
        with pytest.raises(DimensionMismatch, match=f"features has 2 rows for {n} nodes"):
            AttributedGraph.from_edges(n, [(0, 1)], features=np.zeros((2, 1)))

    def test_immutable_arrays(self):
        g = AttributedGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.adjacency[0, 0] = 1.0


class TestDataset:
    def test_labels_must_be_in_label_set(self):
        g = AttributedGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            LabeledGraphDataset([g], [3], label_set=[0, 1])

    @pytest.mark.parametrize("labels, label_set", [
        ([0.9, 1.7], None),
        ([0, 1.0], [0, 1]),
        (["1"], [1]),
        ([True], [0, 1]),
        ([np.bool_(True)], [0, 1]),
        ([np.float64(1.0)], [0, 1]),
        ([0], [0, "x"]),
        ([0], [0, 1.5]),
        ([0], [0, True]),
    ], ids=["floats", "one-float", "str", "bool", "numpy-bool", "numpy-float",
            "label-set-str", "label-set-float", "label-set-bool"])
    def test_labels_and_label_set_take_only_integers(self, labels, label_set):
        graphs = [AttributedGraph.from_edges(2, [(0, 1)])] * len(labels)
        with pytest.raises(SchemaError, match="must be an integer"):
            LabeledGraphDataset(graphs, labels, label_set=label_set)

    @pytest.mark.parametrize("labels, label_set", [
        ([2 ** 63], [0, 2 ** 63]),
        ([0], [0, -2 ** 63 - 1]),
        ([np.uint64(2 ** 64 - 1)], None),
    ], ids=["label-2^63", "label-set-below-int64", "numpy-uint64-max"])
    def test_labels_beyond_int64_are_schema_errors(self, labels, label_set):
        g = AttributedGraph.from_edges(2, [(0, 1)])
        with pytest.raises(SchemaError, match="must fit in int64"):
            LabeledGraphDataset([g] * len(labels), labels, label_set=label_set)

    def test_numpy_integer_labels_become_ints(self):
        g = AttributedGraph.from_edges(2, [(0, 1)])
        ds = LabeledGraphDataset([g, g], np.array([1, 0]), label_set=np.arange(2))
        assert ds.labels == (1, 0) and ds.label_set == (0, 1)
        assert all(type(y) is int for y in ds.labels + ds.label_set)

    def test_feature_dims_must_agree(self):
        g0 = AttributedGraph(np.zeros((2, 2)), features=np.zeros((2, 3)))
        g1 = AttributedGraph(np.zeros((2, 2)), features=np.zeros((2, 5)))
        with pytest.raises(DimensionMismatch):
            LabeledGraphDataset([g0, g1], [0, 0])

    def test_subset_preserves_order(self, rng):
        ds = LabeledGraphDataset([random_graph(rng) for _ in range(5)],
                                 [0, 1, 0, 1, 0])
        sub = ds.subset([3, 1])
        assert sub.labels == (1, 1)
        assert sub.graphs[0] is ds.graphs[3]

    def test_concat_unions_label_sets(self, rng):
        a = LabeledGraphDataset([random_graph(rng)], [0], label_set=[0])
        b = LabeledGraphDataset([random_graph(rng)], [2], label_set=[2])
        merged = concat_datasets(a, b)
        assert merged.label_set == (0, 2)
        assert len(merged) == 2


class TestDegreeOneHot:
    def test_three_node_path(self):
        # Degrees 1, 2, 1; dataset max degree 2 -> dimension 3.
        ds = LabeledGraphDataset([path_graph(3)], [0])
        out = degree_one_hot_features(ds)
        expected = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(out.graphs[0].features, expected)

    def test_isolated_node_gets_degree_zero_indicator(self):
        iso = AttributedGraph(np.zeros((1, 1)))
        ds = LabeledGraphDataset([iso, path_graph(3)], [0, 0])
        out = degree_one_hot_features(ds)
        assert np.array_equal(out.graphs[0].features, [[1, 0, 0]])

    def test_already_featured_dataset_is_returned_unchanged(self, rng):
        ds = LabeledGraphDataset([random_graph(rng, feature_dim=9)], [0])
        assert degree_one_hot_features(ds) is ds

    def test_dimension_is_shared_across_the_dataset(self):
        star = AttributedGraph.from_edges(5, [(0, i) for i in range(1, 5)])
        ds = LabeledGraphDataset([path_graph(3), star], [0, 1])
        out = degree_one_hot_features(ds)
        assert out.feature_dim == 5  # hub degree 4 -> dimension 5
        assert all(g.feature_dim == 5 for g in out.graphs)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, n, seed):
        rng = np.random.default_rng(seed)
        ds = LabeledGraphDataset([random_graph(rng, n_nodes=n, feature_dim=0)
                                  for _ in range(3)], [0, 0, 0])
        out = degree_one_hot_features(ds)
        for g in out.graphs:
            assert np.array_equal(g.features.sum(axis=1), np.ones(g.n_nodes))

    def test_preserves_order_and_labels(self, rng):
        ds = LabeledGraphDataset([random_graph(rng, feature_dim=0) for _ in range(4)],
                                 [1, 0, 1, 0])
        out = degree_one_hot_features(ds)
        assert out.labels == ds.labels
        assert [g.n_nodes for g in out.graphs] == [g.n_nodes for g in ds.graphs]


class TestGraphDensity:
    def test_complete_graph(self):
        k3 = AttributedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert graph_density(k3) == 1.0

    def test_path_graph(self):
        assert graph_density(path_graph(3)) == pytest.approx(2 / 3)

    def test_single_node(self):
        assert graph_density(AttributedGraph(np.zeros((1, 1)))) == 0.0

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=40, deadline=None)
    def test_density_in_unit_interval(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n_nodes=n, edge_prob=rng.random())
        assert 0.0 <= graph_density(g) <= 1.0


class TestTypedErrors:
    @pytest.mark.parametrize("make, message", [
        (lambda: AttributedGraph(np.zeros((2, 3))), r"adjacency must be square, got \(2, 3\)"),
        (lambda: AttributedGraph(np.zeros((0, 0))), "a graph needs at least one node"),
        (lambda: AttributedGraph(np.zeros((3, 3)), node_weights=[0.5, 0.5]),
         "node_weights length must equal node count"),
        (lambda: LabeledGraphDataset([path_graph(2), path_graph(3)], [0]),
         "graphs and labels must have equal length"),
    ], ids=["non-square", "no-nodes", "weights-length", "more-graphs-than-labels"])
    def test_shape_faults_are_dimension_mismatches(self, make, message):
        with pytest.raises(DimensionMismatch, match=message):
            make()
