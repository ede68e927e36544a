"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them inline).
Criteria with runtime budgets assert the elapsed wall time too.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import spearmanr

from gradate import (
    AttributedGraph,
    LabeledGraphDataset,
    build_cost,
    fgw_distance,
    gdd,
    gdd_from_cost,
    gdd_gradient,
    gradate,
    io,
    pairwise_linear_fgw,
    random_select,
    solve_exact_ot,
    sparsity_schedule,
)
from gradate.cli import main as cli_main
from gradate.fgw import FGWConfig
from gradate.great import floor_budget, great_select, validate_weights
from gradate.pipeline import SelectionConfig

from conftest import heterogeneous_graphs, random_graph, two_domain_corpus
from oracles import (
    brute_force_ot,
    random_rational_marginal,
    simplex_central_difference,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def test_criterion_1_exact_ot_matches_enumeration_oracle():
    with criterion(1, "exact OT matches the transportation-polytope enumeration oracle"):
        rng = np.random.default_rng(123)
        start = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            total = max(n, m) + int(rng.integers(0, 4))
            cost = rng.random((n, m))
            supplies = random_rational_marginal(rng, n, total)
            demands = random_rational_marginal(rng, m, total)
            p = supplies / total
            q = demands / total
            expected = brute_force_ot(cost, supplies, demands)
            sol = solve_exact_ot(cost, p, q)
            assert abs(sol.value - expected) <= 1e-8
            feas = sol.dual_source[:, None] + sol.dual_target[None, :] - cost
            assert feas.max() <= 1e-6
            assert abs(p @ sol.dual_source + q @ sol.dual_target - sol.value) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_fgw_correctness():
    with criterion(2, "FGW self-distance, isomorphism invariance, alpha=0 and analytic case"):
        rng = np.random.default_rng(7)
        cfg = FGWConfig(alpha=0.5)

        g = random_graph(rng, n_nodes=7)
        self_res = fgw_distance(g, g, cfg, coupling_init=np.diag(g.node_weights))
        assert self_res.distance <= 1e-8

        for _ in range(20):
            h = random_graph(rng, n_nodes=int(rng.integers(3, 11)))
            perm = rng.permutation(h.n_nodes)
            h_perm = AttributedGraph(h.adjacency[np.ix_(perm, perm)], h.features[perm])
            assert fgw_distance(h, h_perm, cfg).distance <= 1e-6

        g1 = random_graph(rng, n_nodes=6)
        g2 = AttributedGraph(g1.adjacency, rng.standard_normal((6, 3)))
        got = fgw_distance(g1, g2, FGWConfig(alpha=0.0)).distance
        M2 = cdist(g1.features, g2.features) ** 2
        exact = solve_exact_ot(M2, g1.node_weights, g2.node_weights).value
        assert abs(got - np.sqrt(exact)) <= 1e-6

        edge = AttributedGraph([[0.0, 1.0], [1.0, 0.0]])
        empty = AttributedGraph([[0.0, 0.0], [0.0, 0.0]])
        # Grid-search oracle over the one-parameter coupling family
        # [[a, 0.5-a], [0.5-a, a]]: the objective is constant at 0.5.
        A1, A2 = edge.adjacency, empty.adjacency
        L = np.abs(A1[:, None, :, None] - A2[None, :, None, :]) ** 2
        for a in np.linspace(0.0, 0.5, 51):
            T = np.array([[a, 0.5 - a], [0.5 - a, a]])
            obj = float(np.einsum("ijkl,ij,kl->", L, T, T))
            assert abs(obj - 0.5) <= 1e-12
        res = fgw_distance(edge, empty, FGWConfig(alpha=1.0))
        assert abs(res.distance - np.sqrt(0.5)) <= 1e-6


def test_criterion_3_linear_fgw_metric_properties():
    with criterion(3, "LinearFGW metric properties and rank agreement with FGW"):
        graphs = heterogeneous_graphs(seed=11, n_graphs=12)
        ds = LabeledGraphDataset(graphs, [0] * 12)
        cfg = FGWConfig(alpha=0.5, seed=11)
        D = pairwise_linear_fgw(ds, cfg)

        assert np.all(np.diag(D) == 0.0)
        assert np.array_equal(D, D.T)
        root = np.sqrt(D)
        n = len(graphs)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert root[i, k] <= root[i, j] + root[j, k] + 1e-12

        true = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                true[i, j] = true[j, i] = fgw_distance(graphs[i], graphs[j], cfg).distance
        iu = np.triu_indices(n, k=1)
        rho = spearmanr(D[iu], true[iu]).statistic
        assert rho > 0.7, f"spearman {rho:.3f}"


def test_criterion_4_gradient_contract():
    with criterion(4, "calibrated duals match finite differences of the exact value"):
        rng = np.random.default_rng(29)
        start = time.perf_counter()
        for _ in range(10):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(3, 7))
            dtilde = rng.random((n, m))
            for _ in range(10):
                w = rng.random(n) + 0.1
                w /= w.sum()
                grad = gdd_gradient(dtilde, w)
                assert abs(grad.sum()) <= 1e-9
                fd = simplex_central_difference(
                    lambda v: gdd_from_cost(dtilde, v)[0], w, h=1e-5)
                rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
                assert rel.max() <= 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_great_behavior():
    with criterion(5, "selection loop invariants and the sparsity schedule"):
        assert sparsity_schedule(100, 0.2, 10, 9) == 42
        rng = np.random.default_rng(31)
        dtilde = rng.random((25, 8))
        tau, T = 0.2, 10
        selected, trace = great_select(dtilde, tau=tau, T=T, eta=0.01)
        sizes = [it.support_size for it in trace.iterations]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        for it in trace.iterations:
            validate_weights(it.weights, budget=sparsity_schedule(25, tau, T, it.t))
        assert len(selected) == floor_budget(25, tau)


def test_criterion_6_selection_quality_at_desk_scale():
    with criterion(6, "two-domain selection quality against uniform and random"):
        start = time.perf_counter()
        train, val = two_domain_corpus()
        cfg = SelectionConfig(tau=0.2, T=10, eta=1e-4, alpha=0.5, seed=0)
        dtilde = build_cost(train, val, cfg)
        result = gradate(train, val, cfg, dtilde=dtilde)

        dense_frac = np.mean([i < 60 for i in result.indices])
        assert dense_frac >= 0.9, f"dense fraction {dense_frac:.2f}"
        assert result.trace.final_gdd <= result.trace.iterations[0].gdd_value + 1e-9

        D = dtilde.base

        def subset_gdd(indices):
            w = np.zeros(len(train))
            w[list(indices)] = 1.0 / len(indices)
            return gdd_from_cost(D, w)[0]

        ours = subset_gdd(result.indices)
        randoms = [subset_gdd(random_select(train, 0.2, seed=s).indices)
                   for s in range(10)]
        assert ours <= np.median(randoms)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_7_label_free_distance_ignores_classes():
    with criterion(7, "c=0 dataset distance is bit-identical under label collapse"):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            graphs = [random_graph(rng, n_nodes=int(rng.integers(4, 9)))
                      for _ in range(10)]
            labels = [int(rng.integers(0, 3)) for _ in range(10)]
            train = LabeledGraphDataset(graphs[:6], labels[:6], label_set=[0, 1, 2])
            val = LabeledGraphDataset(graphs[6:], labels[6:], label_set=[0, 1, 2])
            collapsed_train = LabeledGraphDataset(train.graphs, [0] * 6, label_set=[0])
            collapsed_val = LabeledGraphDataset(val.graphs, [0] * 4, label_set=[0])
            cfg = FGWConfig(alpha=0.5, seed=seed)
            a, _ = gdd(train, val, c=0.0, cfg=cfg)
            b, _ = gdd(collapsed_train, collapsed_val, c=0.0, cfg=cfg)
            assert a == b


def test_criterion_8_reproducibility(tmp_path, monkeypatch, capsys):
    with criterion(8, "byte-identical CLI selections and the 60/20/20 split sizes"):
        g = AttributedGraph(np.zeros((1, 1)))
        ds563 = LabeledGraphDataset([g] * 563, [0] * 563)
        split = io.covariate_split(ds563, "size")
        assert (len(split.train_idx), len(split.val_idx), len(split.test_idx)) \
            == (337, 112, 114)

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GRADATE_CACHE_DIR", raising=False)
        rng = np.random.default_rng(41)
        graphs = [random_graph(rng, n_nodes=int(rng.integers(5, 9)),
                               edge_prob=rng.uniform(0.2, 0.8), feature_dim=0)
                  for _ in range(20)]
        io.save_dataset_json(LabeledGraphDataset(graphs, [0] * 20), "ds.json")
        assert cli_main(["split", "ds.json", "--out", "split.json"]) == 0
        for out in ("a.json", "b.json"):
            code = cli_main(["select", "ds.json", "split.json",
                             "--method", "gradate", "--tau", "0.5",
                             "--seed", "3", "--out", out])
            assert code == 0
        capsys.readouterr()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["method"] == "gradate"
        assert len(payload["indices"]) == 6  # floor(12 * 0.5)
