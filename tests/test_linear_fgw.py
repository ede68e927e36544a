import numpy as np
import pytest
from scipy.stats import spearmanr

from gradate import (
    AttributedGraph,
    LabeledGraphDataset,
    barycentric_embed,
    cross_linear_fgw,
    fgw_barycenter,
    fgw_distance,
    linear_fgw_distance,
    pairwise_linear_fgw,
)
import gradate.fgw as fgw
import gradate.linear_fgw as linear_fgw
from gradate.errors import ConfigInvalid, EmptyDataset, ReferenceMismatch
from gradate.fgw import FGWConfig, FGWResult
from gradate.graphs import concat_datasets, degree_one_hot_features
from gradate.linear_fgw import BarycentricEmbedding, embed_all

from conftest import heterogeneous_graphs, random_dataset, random_graph
from oracles import straight_line_fgw


class TestBarycentricEmbed:
    def test_identity_projection_against_itself(self, rng):
        g = random_graph(rng, n_nodes=5)
        emb = barycentric_embed(g, g, FGWConfig(alpha=0.5))
        assert np.abs(emb.t_node - g.features).max() <= 1e-9
        assert np.abs(emb.t_edge - g.adjacency).max() <= 1e-9

    def test_single_node_reference_aggregates(self, rng):
        g = random_graph(rng, n_nodes=6)
        ref = AttributedGraph(np.zeros((1, 1)), np.zeros((1, 3)))
        emb = barycentric_embed(g, ref, FGWConfig(alpha=0.5))
        assert np.allclose(emb.t_node, g.features.mean(axis=0))
        assert np.allclose(emb.t_edge, [[g.adjacency.mean()]])

    def test_isomorphic_graphs_share_embeddings(self, rng):
        g = random_graph(rng, n_nodes=6)
        perm = rng.permutation(6)
        h = AttributedGraph(g.adjacency[np.ix_(perm, perm)], g.features[perm])
        ref = random_graph(rng, n_nodes=5)
        cfg = FGWConfig(alpha=0.5)
        e1 = barycentric_embed(g, ref, cfg)
        e2 = barycentric_embed(h, ref, cfg)
        assert np.abs(e1.t_node - e2.t_node).max() <= 1e-5
        assert np.abs(e1.t_edge - e2.t_edge).max() <= 1e-5

    def test_nonuniform_reference_rejected(self, rng):
        g = random_graph(rng, n_nodes=4)
        ref = AttributedGraph(np.zeros((2, 2)), np.zeros((2, 3)),
                              node_weights=[0.9, 0.1])
        with pytest.raises(ReferenceMismatch):
            barycentric_embed(g, ref, FGWConfig())

    def test_t_edge_is_symmetric(self, rng):
        g = random_graph(rng, n_nodes=7)
        ref = random_graph(rng, n_nodes=4)
        emb = barycentric_embed(g, ref, FGWConfig(alpha=0.5))
        assert np.abs(emb.t_edge - emb.t_edge.T).max() <= 1e-6


class TestLinearFgwDistance:
    def test_self_distance_zero(self, rng):
        g = random_graph(rng)
        ref = random_graph(rng, n_nodes=4)
        e = barycentric_embed(g, ref, FGWConfig(alpha=0.5))
        assert linear_fgw_distance(e, e, 0.5) == 0.0

    def test_single_entry_perturbation(self):
        t_node = np.zeros((3, 2))
        t_edge = np.zeros((3, 3))
        e1 = BarycentricEmbedding(t_node, t_edge)
        bumped = t_node.copy()
        bumped[1, 0] = 0.25
        e2 = BarycentricEmbedding(bumped, t_edge)
        assert linear_fgw_distance(e1, e2, 0.5) == pytest.approx(0.5 * 0.25 ** 2)

    def test_matches_direct_matrix_arithmetic(self, rng):
        e1 = BarycentricEmbedding(rng.standard_normal((4, 3)), rng.standard_normal((4, 4)))
        e2 = BarycentricEmbedding(rng.standard_normal((4, 3)), rng.standard_normal((4, 4)))
        alpha = 0.3
        expected = ((1 - alpha) * np.linalg.norm(e1.t_node - e2.t_node, "fro") ** 2
                    + alpha * np.linalg.norm(e1.t_edge - e2.t_edge, "fro") ** 2)
        assert linear_fgw_distance(e1, e2, alpha) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha, message", [
        (2.0, r"alpha must be in \[0, 1\], got 2.0"),
        (-0.5, r"alpha must be in \[0, 1\], got -0.5"),
        (float("nan"), r"alpha must be in \[0, 1\], got nan"),
        (True, "alpha must be a real number, got True"),
        ("0.5", "alpha must be a real number, got '0.5'"),
    ], ids=["above-one", "negative", "nan", "bool", "string"])
    def test_alpha_outside_the_unit_interval_is_rejected(self, alpha, message):
        # FGWConfig's rule: outside [0, 1] the "squared distance" can be negative.
        e1 = BarycentricEmbedding(np.zeros((2, 1)), np.zeros((2, 2)))
        e2 = BarycentricEmbedding(np.ones((2, 1)), np.zeros((2, 2)))
        with pytest.raises(ConfigInvalid, match=f"^{message}$"):
            linear_fgw_distance(e1, e2, alpha)
        with pytest.raises(ConfigInvalid, match=f"^{message}$"):
            FGWConfig(alpha=alpha)

    def test_reference_mismatch_raises(self, rng):
        e1 = BarycentricEmbedding(np.zeros((3, 2)), np.zeros((3, 3)))
        e2 = BarycentricEmbedding(np.zeros((4, 2)), np.zeros((4, 4)))
        with pytest.raises(ReferenceMismatch):
            linear_fgw_distance(e1, e2, 0.5)


class TestPairwise:
    def test_single_graph_dataset(self, rng):
        ds = LabeledGraphDataset([random_graph(rng)], [0])
        D = pairwise_linear_fgw(ds, FGWConfig(alpha=0.5))
        assert D.shape == (1, 1) and D[0, 0] == 0.0

    def test_duplicate_graphs_coincide(self, rng):
        g = random_graph(rng, n_nodes=5)
        others = [random_graph(rng) for _ in range(4)]
        ds = LabeledGraphDataset([g, others[0], g, *others[1:]], [0] * 6)
        D = pairwise_linear_fgw(ds, FGWConfig(alpha=0.5, seed=1))
        assert D[0, 2] <= 1e-6

    def test_symmetry_and_zero_diagonal(self, rng):
        ds = LabeledGraphDataset([random_graph(rng) for _ in range(5)], [0] * 5)
        D = pairwise_linear_fgw(ds, FGWConfig(alpha=0.5, seed=1))
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)

    def test_rank_correlates_with_true_fgw(self):
        graphs = heterogeneous_graphs(seed=2, n_graphs=6)
        ds = LabeledGraphDataset(graphs, [0] * 6)
        cfg = FGWConfig(alpha=0.5, seed=2)
        D_lin = pairwise_linear_fgw(ds, cfg)
        n = len(graphs)
        D_true = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D_true[i, j] = D_true[j, i] = fgw_distance(graphs[i], graphs[j], cfg).distance
        iu = np.triu_indices(n, k=1)
        rho = spearmanr(D_lin[iu], D_true[iu]).statistic
        assert rho > 0.7

    def test_sqrt_satisfies_triangle_inequality(self, rng):
        graphs = [random_graph(rng, n_nodes=int(rng.integers(4, 8))) for _ in range(7)]
        ds = LabeledGraphDataset(graphs, [0] * 7)
        D = np.sqrt(pairwise_linear_fgw(ds, FGWConfig(alpha=0.5, seed=3)))
        n = len(graphs)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert D[i, k] <= D[i, j] + D[j, k] + 1e-12

    def test_deterministic_given_seed(self, rng):
        graphs = [random_graph(rng) for _ in range(4)]
        ds = LabeledGraphDataset(graphs, [0] * 4)
        cfg = FGWConfig(alpha=0.5, seed=9)
        assert np.array_equal(pairwise_linear_fgw(ds, cfg), pairwise_linear_fgw(ds, cfg))


class TestBlockKernel:
    """Every block entry equals the single-pair distance on the same embeddings."""

    @staticmethod
    def reference_block(rows, cols, graphs, cfg):
        embs = embed_all(graphs, fgw_barycenter(graphs, cfg=cfg), cfg)
        return np.array([[linear_fgw_distance(embs[i], embs[j], cfg.alpha) for j in cols]
                         for i in rows])

    @pytest.mark.parametrize("feature_dim", [0, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_cross_block_matches_pairwise_distance(self, rng, alpha, feature_dim):
        train = random_dataset(rng, 5, feature_dim=feature_dim)
        val = random_dataset(rng, 3, feature_dim=feature_dim)
        cfg = FGWConfig(alpha=alpha, seed=5)
        # The cross block embeds the joint set, degree-featurized if featureless.
        joint = degree_one_hot_features(concat_datasets(train, val))
        expected = self.reference_block(range(5), range(5, 8), joint.graphs, cfg)
        assert np.array_equal(cross_linear_fgw(train, val, cfg), expected)

    @pytest.mark.parametrize("feature_dim", [0, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_square_block_matches_pairwise_distance(self, rng, alpha, feature_dim):
        ds = random_dataset(rng, 5, feature_dim=feature_dim)
        cfg = FGWConfig(alpha=alpha, seed=6)
        expected = self.reference_block(range(5), range(5), ds.graphs, cfg)
        assert np.array_equal(pairwise_linear_fgw(ds, cfg), expected)


def _straight_line_solves(graphs, target, cfg, couplings_init=None):
    """`fgw._fgw_solves` as one `oracles.straight_line_fgw` per graph, in list order."""
    results = []
    for g, init in zip(graphs, couplings_init or [None] * len(graphs)):
        T, curve, converged = straight_line_fgw(g, target, cfg.alpha, init,
                                                fgw.FW_MAX_ITER, fgw.FW_TOL)
        results.append(FGWResult(max(curve[-1], 0.0) ** 0.5, T, converged, len(curve) - 1, curve))
    return results


def _weighted_dataset(rng, n_graphs):
    """Attributed graphs of 4-6 nodes, each with one of two node-weight vectors of its size.

    One vector of each size is uniform and the other is not; one of those
    puts no mass on a node.
    """
    weights = {n: [np.full(n, 1.0 / n), rng.random(n) + 0.2] for n in (4, 5, 6)}
    weights[5][1][2] = 0.0
    graphs = []
    for _ in range(n_graphs):
        n = int(rng.integers(4, 7))
        g = random_graph(rng, n_nodes=n)
        w = weights[n][int(rng.integers(0, 2))]
        graphs.append(AttributedGraph(g.adjacency, g.features, w / w.sum()))
    return LabeledGraphDataset(graphs, [int(rng.integers(0, 2)) for _ in graphs], label_set=[0, 1])


class TestLockstepSolves:
    """A stage's FGW solves, run in lockstep per weight group, against the one-pair loop."""

    @staticmethod
    def recorded(monkeypatch, compute, solves):
        """`compute()` with `solves` as every stage's `_fgw_solves`, and each stage's results."""
        stages = []

        def recording(*args):
            stages.append(solves(*args))
            return stages[-1]

        with monkeypatch.context() as patch:
            patch.setattr(fgw, "_fgw_solves", recording)
            patch.setattr(linear_fgw, "_fgw_solves", recording)
            return compute(), stages

    def assert_same_bits(self, monkeypatch, compute):
        D, stages = self.recorded(monkeypatch, compute, fgw._fgw_solves)
        D_ref, ref_stages = self.recorded(monkeypatch, compute, _straight_line_solves)
        assert D.tobytes() == D_ref.tobytes()
        assert len(stages) == len(ref_stages) >= 2  # the barycenter round and the embedding
        for results, ref_results in zip(stages, ref_stages):
            assert len(results) == len(ref_results)
            for res, ref in zip(results, ref_results):
                assert res.coupling.tobytes() == ref.coupling.tobytes()
                assert res.objective_curve.tobytes() == ref.objective_curve.tobytes()
                assert res.converged is ref.converged

    @pytest.mark.parametrize("corpus", ["attributed", "featureless", "weighted", "one-step"])
    def test_cross_and_pairwise_blocks_equal_the_straight_line(self, monkeypatch, corpus):
        rng = np.random.default_rng(71)
        if corpus == "one-step":
            monkeypatch.setattr(fgw, "FW_MAX_ITER", 1)
        if corpus == "weighted":
            train, val = _weighted_dataset(rng, 12), _weighted_dataset(rng, 5)
        else:
            feature_dim = 0 if corpus == "featureless" else 3
            train = random_dataset(rng, 12, feature_dim=feature_dim, size_range=(4, 8))
            val = random_dataset(rng, 5, feature_dim=feature_dim, size_range=(4, 8))
        cfg = FGWConfig(alpha=0.5, seed=4)
        self.assert_same_bits(monkeypatch, lambda: cross_linear_fgw(train, val, cfg))
        self.assert_same_bits(monkeypatch, lambda: pairwise_linear_fgw(train, cfg))

    def test_each_stage_builds_one_step_per_weight_group(self, monkeypatch):
        rng = np.random.default_rng(72)
        graphs = _weighted_dataset(rng, 16).graphs
        stages, solves, step = [], fgw._fgw_solves, fgw._LinearStep

        def recording(*args):
            stages.append([])
            return solves(*args)

        class Spy(step):
            def __init__(self, p, q):
                stages[-1].append(p.tobytes())
                super().__init__(p, q)

        monkeypatch.setattr(fgw, "_fgw_solves", recording)
        monkeypatch.setattr(linear_fgw, "_fgw_solves", recording)
        monkeypatch.setattr(fgw, "_LinearStep", Spy)
        linear_fgw._reference_embeddings(graphs, FGWConfig(alpha=0.5), None)
        groups = list(dict.fromkeys(g.node_weights.tobytes() for g in graphs))
        assert len(graphs) > len(groups) >= 4
        assert len(stages) >= 2  # the barycenter round and the embedding
        assert all(steps == groups for steps in stages)


class TestTypedErrors:
    def test_pairwise_on_an_empty_dataset_is_empty_dataset(self):
        with pytest.raises(EmptyDataset, match="cannot compute pairwise distances"):
            pairwise_linear_fgw(LabeledGraphDataset([], []))
