import numpy as np
import pytest
from scipy.spatial.distance import cdist

import gradate.fgw as fgw
import gradate.ot as ot
from gradate import AttributedGraph, fgw_barycenter, fgw_distance, solve_exact_ot
from gradate.errors import ConfigInvalid, DimensionMismatch, EmptyDataset
from gradate.fgw import FGWConfig, default_reference_size
from gradate.graphs import _graphs_from_arrays
from gradate.gdd import cross_linear_fgw
from gradate.linear_fgw import embed_all

from conftest import count_full_lps, random_graph, shifted_split
from oracles import barycenter_round, straight_line_fgw


def naive_objective(g1, g2, T, alpha):
    """Explicit quadruple-sum squared-loss FGW objective, the oracle for the factored path."""
    total = 0.0
    if g1.feature_dim:
        M = cdist(g1.features, g2.features) ** 2
        total += (1 - alpha) * float(np.sum(M * T))
    else:
        alpha = 1.0
    A1, A2 = g1.adjacency, g2.adjacency
    L = (A1[:, None, :, None] - A2[None, :, None, :]) ** 2
    total += alpha * float(np.einsum("ijkl,ij,kl->", L, T, T))
    return total


class TestFgwDistance:
    def test_self_distance_identity_init(self, rng):
        g = random_graph(rng, n_nodes=6)
        res = fgw_distance(g, g, FGWConfig(alpha=0.5),
                           coupling_init=np.diag(g.node_weights))
        assert res.distance <= 1e-8
        assert res.converged

    def test_permuted_copy_is_at_distance_zero(self, rng):
        for _ in range(5):
            g = random_graph(rng, n_nodes=int(rng.integers(4, 10)))
            perm = rng.permutation(g.n_nodes)
            h = AttributedGraph(g.adjacency[np.ix_(perm, perm)], g.features[perm])
            res = fgw_distance(g, h, FGWConfig(alpha=0.5))
            assert res.distance <= 1e-6

    def test_two_node_analytic_case(self):
        # Single edge vs empty graph, alpha=1, r=2: the structure objective is
        # constant over the one-parameter coupling family, at value 0.5.
        g1 = AttributedGraph([[0.0, 1.0], [1.0, 0.0]])
        g2 = AttributedGraph([[0.0, 0.0], [0.0, 0.0]])
        for a in np.linspace(0.0, 0.5, 11):
            T = np.array([[a, 0.5 - a], [0.5 - a, a]])
            assert naive_objective(g1, g2, T, 1.0) == pytest.approx(0.5, abs=1e-12)
        res = fgw_distance(g1, g2, FGWConfig(alpha=1.0))
        assert res.distance == pytest.approx(np.sqrt(0.5), abs=1e-6)

    def test_alpha_zero_single_nodes_is_feature_distance(self):
        x = np.array([[1.0, 2.0, 2.0]])
        y = np.array([[4.0, 6.0, 2.0]])
        g1 = AttributedGraph(np.zeros((1, 1)), x)
        g2 = AttributedGraph(np.zeros((1, 1)), y)
        res = fgw_distance(g1, g2, FGWConfig(alpha=0.0))
        assert res.distance == pytest.approx(5.0, abs=1e-9)

    def test_alpha_zero_equals_exact_wasserstein(self, rng):
        g1 = random_graph(rng, n_nodes=5)
        g2 = AttributedGraph(g1.adjacency, rng.standard_normal((5, 3)))
        res = fgw_distance(g1, g2, FGWConfig(alpha=0.0))
        M2 = cdist(g1.features, g2.features) ** 2
        exact = solve_exact_ot(M2, g1.node_weights, g2.node_weights).value
        assert res.distance == pytest.approx(np.sqrt(exact), abs=1e-6)

    def test_symmetry(self, rng):
        for _ in range(5):
            g1 = random_graph(rng)
            g2 = random_graph(rng)
            d12 = fgw_distance(g1, g2, FGWConfig(alpha=0.5)).distance
            d21 = fgw_distance(g2, g1, FGWConfig(alpha=0.5)).distance
            assert abs(d12 - d21) <= 1e-6

    def test_monotone_descent(self, rng):
        for _ in range(5):
            res = fgw_distance(random_graph(rng, n_nodes=7),
                               random_graph(rng, n_nodes=6),
                               FGWConfig(alpha=0.5))
            curve = res.objective_curve
            assert np.all(np.diff(curve) <= 1e-12)

    def test_scale_response(self, rng):
        g1 = random_graph(rng, n_nodes=5, feature_dim=0)
        g2 = random_graph(rng, n_nodes=6, feature_dim=0)
        s = 3.0
        cfg = FGWConfig(alpha=1.0)
        d1 = fgw_distance(g1, g2, cfg).distance
        ds = fgw_distance(AttributedGraph(s * g1.adjacency),
                          AttributedGraph(s * g2.adjacency), cfg).distance
        assert ds == pytest.approx(s * d1, rel=1e-9)

    def test_coupling_marginals(self, rng):
        g1, g2 = random_graph(rng, n_nodes=6), random_graph(rng, n_nodes=4)
        res = fgw_distance(g1, g2, FGWConfig(alpha=0.5))
        assert np.abs(res.coupling.sum(axis=1) - g1.node_weights).max() <= 1e-6
        assert np.abs(res.coupling.sum(axis=0) - g2.node_weights).max() <= 1e-6

    def test_factored_contraction_matches_naive_tensor(self, rng):
        g1, g2 = random_graph(rng, n_nodes=5), random_graph(rng, n_nodes=4)
        res = fgw_distance(g1, g2, FGWConfig(alpha=0.7))
        assert res.objective_curve[-1] == pytest.approx(
            naive_objective(g1, g2, res.coupling, 0.7), abs=1e-10)

    def test_feature_dim_mismatch_raises(self, rng):
        g1 = random_graph(rng, feature_dim=3)
        g2 = random_graph(rng, feature_dim=4)
        with pytest.raises(DimensionMismatch):
            fgw_distance(g1, g2, FGWConfig())

    def test_budget_exhaustion_returns_best_iterate(self, rng, monkeypatch):
        g1 = random_graph(rng, n_nodes=8, feature_dim=0)
        g2 = random_graph(rng, n_nodes=8, feature_dim=0, edge_prob=0.8)
        monkeypatch.setattr(fgw, "FW_MAX_ITER", 1)
        res = fgw_distance(g1, g2, FGWConfig(alpha=1.0))
        assert not res.converged
        assert res.distance >= 0.0


class TestLinearStepPaths:
    """The assignment path of the linear step changes no FGW result."""

    @staticmethod
    def _both_paths(monkeypatch, lp_fallbacks, g1, g2):
        """The run as planned, the run with every step a full LP, and the assigned step count."""
        lp_fallbacks.clear()
        fast = fgw_distance(g1, g2, FGWConfig(alpha=0.5))
        assigned = fast.iterations - len(lp_fallbacks)
        lp_fallbacks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ot, "_ASSIGNMENT_MAX_LCM", 0)  # no lcm qualifies: the LP-only run
            slow = fgw_distance(g1, g2, FGWConfig(alpha=0.5))
        assert len(lp_fallbacks) == slow.iterations
        return fast, slow, assigned

    def test_attributed_pairs_match_the_lp_only_run(self, rng, monkeypatch, lp_fallbacks):
        assignments = 0
        for _ in range(8):
            g1 = random_graph(rng, n_nodes=int(rng.integers(4, 10)))
            g2 = random_graph(rng, n_nodes=int(rng.integers(4, 10)))
            fast, slow, assigned = self._both_paths(monkeypatch, lp_fallbacks, g1, g2)
            assignments += assigned
            assert fast.iterations == slow.iterations
            assert fast.distance == pytest.approx(slow.distance, rel=1e-12, abs=1e-12)
            assert np.abs(fast.coupling - slow.coupling).max() <= 1e-12
        assert assignments > 0

    def test_tied_featureless_pair_is_bit_identical(self, monkeypatch, lp_fallbacks):
        path = AttributedGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        cycle = AttributedGraph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
        fast, slow, assigned = self._both_paths(monkeypatch, lp_fallbacks, path, cycle)
        assert fast.iterations > 0 and assigned == 0
        assert fast.iterations == slow.iterations
        assert fast.distance == slow.distance
        assert np.array_equal(fast.coupling, slow.coupling)
        assert np.array_equal(fast.objective_curve, slow.objective_curve)

    def test_the_straight_line_reference_gives_the_same_bits(self, rng, lp_fallbacks):
        # `oracles.straight_line_fgw`: the one-pair loop with the reference
        # certificate on every iterate, else linprog's vertex.
        path = AttributedGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        cycle = AttributedGraph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
        pairs = [(path, cycle)] + [
            (random_graph(rng, n_nodes=int(rng.integers(3, 11)), feature_dim=d),
             random_graph(rng, n_nodes=int(rng.integers(3, 11)), feature_dim=d))
            for d in (0, 3) for _ in range(6)]
        steps = 0
        for g1, g2 in pairs:
            lp_fallbacks.clear()
            planned = fgw_distance(g1, g2, FGWConfig(alpha=0.5))
            steps += planned.iterations - len(lp_fallbacks)
            coupling, curve, converged = straight_line_fgw(g1, g2, 0.5)
            assert np.array_equal(planned.objective_curve, curve)
            assert np.array_equal(planned.coupling, coupling)
            assert planned.converged is converged
        assert steps > 0  # some steps were certified by the assignment

    def test_zero_weight_nodes_leave_the_lp_and_change_no_result(self, rng, monkeypatch):
        g, other = random_graph(rng, n_nodes=6), random_graph(rng, n_nodes=5)
        w = np.array([0.25, 0.25, 0.0, 0.25, 0.25, 0.0])
        keep = np.flatnonzero(w)
        padded = AttributedGraph(g.adjacency, g.features, w)
        trimmed = AttributedGraph(g.adjacency[np.ix_(keep, keep)], g.features[keep])
        full = count_full_lps(monkeypatch)
        res = fgw_distance(padded, other, FGWConfig(alpha=0.5))
        assert full and set(full) == {(4, 5)}  # every step: one LP on the positive atoms
        ref = fgw_distance(trimmed, other, FGWConfig(alpha=0.5))
        assert np.all(res.coupling[w == 0] == 0.0)
        assert res.iterations == ref.iterations
        assert res.distance == pytest.approx(ref.distance, rel=1e-12, abs=1e-12)
        assert np.abs(res.coupling[keep] - ref.coupling).max() <= 1e-12

    @pytest.mark.parametrize("floor", [None, 1])
    def test_lp_steps_never_take_the_grown_support_path(self, rng, monkeypatch, floor):
        # 25 x 24 uniform (lcm 600, above the assignment path's cap, 600
        # cells, above the grown path's floor) and a non-uniform pair; with
        # the floor lowered to 1 even small LPs would qualify.
        if floor is not None:
            monkeypatch.setattr(ot, "_GROWN_MIN_CELLS", floor)
        grown = []
        monkeypatch.setattr(ot, "_certified_grown_lp", lambda *a: grown.append(a) or None)
        full = count_full_lps(monkeypatch)
        g1, g2 = random_graph(rng, n_nodes=25), random_graph(rng, n_nodes=24)
        w = rng.random(7) + 0.1
        g3 = AttributedGraph(random_graph(rng, n_nodes=7).adjacency,
                             rng.standard_normal((7, 3)), w / w.sum())
        fgw_distance(g1, g2, FGWConfig(alpha=0.5))
        fgw_distance(g3, random_graph(rng, n_nodes=5), FGWConfig(alpha=0.5))
        assert len(full) > 0
        assert grown == []


class TestPreviousVertex:
    """Each FW step hands the linear step its previous vertex, which saves repeated assignments."""

    def test_each_repeated_vertex_saves_one_assignment(self, monkeypatch):
        # A cold `cross_linear_fgw` on the benchmark's shifted corpus, whose
        # every step is a certified assignment: 1,817 assignments when each
        # step ran its own, and 800 of those steps returned the vertex of
        # the step before.
        train, val = shifted_split(1)
        assignments, repeats = [], []
        lsap, solve = ot._lsap.linear_sum_assignment, ot._LinearStep.solve
        monkeypatch.setattr(ot._lsap, "linear_sum_assignment",
                            lambda cost: assignments.append(cost.shape) or lsap(cost))

        def counted(step, costs, previous=None, was_certified=None):
            vertices, certified = solve(step, costs, previous, was_certified)
            if previous is not None:
                same = (vertices == previous).all(axis=(1, 2))
                repeats.append(int((same & was_certified & certified).sum()))
            return vertices, certified

        monkeypatch.setattr(ot._LinearStep, "solve", counted)
        cross_linear_fgw(train, val, FGWConfig(alpha=0.5, seed=0))
        assert sum(repeats) == 800
        assert len(assignments) == 1817 - 800


class TestFeatureDistances:
    """The feature term and the barycenter start keep `cdist`'s bits."""

    @pytest.mark.parametrize("d", [1, 3, 8, 13, 40])
    def test_feature_term_equals_cdist(self, rng, d):
        # Graphs as a loaded dataset hands them out: read-only views into
        # one shared feature buffer.
        sizes = np.array([5, 7, 4])
        graphs = _graphs_from_arrays(sizes, np.zeros(0, dtype=int), np.zeros((0, 2), dtype=int),
                                     rng.standard_normal((sizes.sum(), d)))
        assert not graphs[1].features.flags.writeable
        own = random_graph(rng, n_nodes=6, feature_dim=d)
        for g1, g2 in [(graphs[0], graphs[1]), (graphs[2], own), (own, graphs[1])]:
            for alpha in (0.0, 0.5, 0.3):
                F = fgw._QuadObjective([g1], g2, FGWConfig(alpha=alpha)).F[0]
                expected = (1 - alpha) * cdist(g1.features, g2.features) ** 2
                assert F.tobytes() == expected.tobytes()

    def test_random_barycenter_start_equals_cdist(self, rng, monkeypatch):
        calls = []
        real = fgw._distance.cdist_euclidean

        def spy(X, Y):
            result = real(X, Y)
            calls.append((X.copy(), Y.copy(), result.copy()))
            return result

        monkeypatch.setattr(fgw._distance, "cdist_euclidean", spy)
        graphs = [random_graph(rng, n_nodes=n) for n in (4, 5, 9)]
        fgw_barycenter(graphs, nbar=7, cfg=FGWConfig(alpha=0.5, seed=2))
        pts = np.random.default_rng(2).standard_normal((7, 2))
        start = calls[0]
        assert np.array_equal(start[0], pts) and np.array_equal(start[1], pts)
        assert start[2].tobytes() == cdist(pts, pts).tobytes()


class TestBarycenter:
    def test_single_element_barycenter_reproduces_the_graph(self, rng):
        g = random_graph(rng, n_nodes=5)
        ref = fgw_barycenter([g], nbar=g.n_nodes, cfg=FGWConfig(alpha=0.5, seed=0))
        assert fgw_distance(ref, g, FGWConfig(alpha=0.5)).distance <= 1e-6

    def test_duplicate_pair_behaves_like_single(self, rng):
        g = random_graph(rng, n_nodes=5)
        ref = fgw_barycenter([g, g], nbar=g.n_nodes, cfg=FGWConfig(alpha=0.5, seed=0))
        assert fgw_distance(ref, g, FGWConfig(alpha=0.5)).distance <= 1e-6

    def test_two_graph_structure_barycenter(self):
        g_edge = AttributedGraph([[0.0, 1.0], [1.0, 0.0]])
        g_empty = AttributedGraph([[0.0, 0.0], [0.0, 0.0]])
        cfg = FGWConfig(alpha=1.0, seed=3)
        ref = fgw_barycenter([g_edge, g_empty], nbar=2, cfg=cfg)
        assert np.all(ref.adjacency >= 0.0) and np.all(ref.adjacency <= 1.0)

        def objective(candidate):
            return sum(fgw_distance(g, candidate, cfg).distance ** 2
                       for g in (g_edge, g_empty))

        assert objective(ref) <= min(objective(g_edge), objective(g_empty)) + 1e-9

    def test_a_featureless_reference_without_a_graph_of_its_size_starts_from_points(self, rng):
        # No graph has nbar = 7 nodes, so the structure starts from a random
        # point cloud and, with no features to pool, the features are empty.
        graphs = [random_graph(rng, n_nodes=n, feature_dim=0) for n in (4, 5, 9, 6)]
        cfg = FGWConfig(alpha=0.5, seed=4)
        ref = fgw_barycenter(graphs, nbar=7, cfg=cfg)
        assert ref.features.shape == (7, 0)
        assert np.array_equal(ref.adjacency, ref.adjacency.T)
        assert (ref.adjacency >= 0).all() and ref.adjacency.max() > 0
        again = fgw_barycenter(graphs, nbar=7, cfg=cfg)
        assert again.adjacency.tobytes() == ref.adjacency.tobytes()
        other_seed = fgw_barycenter(graphs, nbar=7, cfg=FGWConfig(alpha=0.5, seed=5))
        assert other_seed.adjacency.tobytes() != ref.adjacency.tobytes()
        embeddings = embed_all(graphs, ref, cfg)
        assert len(embeddings) == len(graphs)
        for emb in embeddings:
            assert emb.t_node.shape == (7, 0) and emb.t_edge.shape == (7, 7)
            assert np.isfinite(emb.t_edge).all()

    @pytest.mark.parametrize("corpus", ["attributed", "featureless", "weighted", "random-start"])
    def test_the_reference_is_one_oracle_round_from_its_start(self, monkeypatch, corpus):
        rng = np.random.default_rng(73)
        graphs = [random_graph(rng, n_nodes=int(rng.integers(4, 8)),
                               feature_dim=0 if corpus == "featureless" else 3)
                  for _ in range(10)]
        if corpus == "weighted":
            weights = [rng.random(g.n_nodes) + 0.2 for g in graphs]
            weights[0][1] = 0.0  # a node without mass
            graphs = [AttributedGraph(g.adjacency, g.features, w / w.sum())
                      for g, w in zip(graphs, weights)]
        cfg = FGWConfig(alpha=0.5, seed=4)
        if corpus == "random-start":
            # No graph has nbar = 9 nodes: the start is the seeded point cloud
            # scaled to the largest edge weight, with pooled feature rows.
            nbar, draws = 9, np.random.default_rng(cfg.seed)
            pts = draws.standard_normal((nbar, 2))
            A = cdist(pts, pts)
            A = A / A.max() * max(g.adjacency.max() for g in graphs)
            pooled = np.vstack([g.features for g in graphs])
            start = AttributedGraph(A, pooled[draws.integers(0, len(pooled), size=nbar)])
        else:
            nbar = graphs[3].n_nodes
            first = next(g for g in graphs if g.n_nodes == nbar)
            start = AttributedGraph(first.adjacency, first.features)
        calls, solves = [], fgw._fgw_solves
        monkeypatch.setattr(fgw, "_fgw_solves", lambda *args: calls.append(args) or solves(*args))
        ref = fgw_barycenter(graphs, nbar=nbar, cfg=cfg)
        assert len(calls) == 1  # one round: one solve per graph, from the product couplings
        adjacency, features = barycenter_round(graphs, start, cfg.alpha)
        assert ref.adjacency.tobytes() == adjacency.tobytes()
        assert ref.features.shape == features.shape
        assert ref.features.tobytes() == features.tobytes()

    def test_reference_has_uniform_weights_and_requested_size(self, rng):
        graphs = [random_graph(rng) for _ in range(4)]
        ref = fgw_barycenter(graphs, nbar=6, cfg=FGWConfig(alpha=0.5))
        assert ref.n_nodes == 6
        assert np.allclose(ref.node_weights, 1 / 6)

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            fgw_barycenter([], nbar=3)

    def test_a_reference_size_out_of_bounds_is_refused_before_any_work(self, rng, monkeypatch):
        monkeypatch.setattr("gradate.graphs.MAX_ADJACENCY_CELLS", 64)
        monkeypatch.setattr(fgw.np.random, "default_rng", None)  # any work would fail on this
        graphs = [random_graph(rng, n_nodes=4)]
        with pytest.raises(ConfigInvalid, match="nbar must be >= 1, got 0"):
            fgw_barycenter(graphs, nbar=0)
        with pytest.raises(ConfigInvalid, match="nbar must be <= 8, got 9"):
            fgw_barycenter(graphs, nbar=9)

    def test_default_reference_size_is_median_rounded_up(self, rng):
        sizes = [3, 5, 9]
        graphs = [random_graph(rng, n_nodes=s) for s in sizes]
        assert default_reference_size(graphs) == 5
        graphs = [random_graph(rng, n_nodes=s) for s in (3, 4)]
        assert default_reference_size(graphs) == 4


class TestTypedErrors:
    @pytest.mark.parametrize("call, error, message", [
        (lambda g, h: fgw_distance(g, h, coupling_init=np.full((2, 2), 0.25)),
         DimensionMismatch, r"initial coupling has shape \(2, 2\)"),
        (lambda g, h: fgw_distance(
            g, h, coupling_init=2.0 * np.outer(g.node_weights, h.node_weights)),
         ConfigInvalid, "initial coupling does not match the node weights"),
        (lambda g, h: fgw_barycenter([g, AttributedGraph(h.adjacency, np.ones((h.n_nodes, 2)))]),
         DimensionMismatch, "barycenter inputs disagree on feature dimension"),
    ], ids=["coupling-shape", "coupling-marginals", "barycenter-feature-dims"])
    def test_each_fault_raises_its_typed_error(self, rng, call, error, message):
        g, h = random_graph(rng, n_nodes=4), random_graph(rng, n_nodes=5)
        with pytest.raises(error, match=message):
            call(g, h)
