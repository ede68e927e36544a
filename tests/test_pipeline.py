import json
from dataclasses import fields, replace

import numpy as np
import pytest

import gradate.ot as ot
import gradate.pipeline as pipeline
from gradate import (
    LabeledGraphDataset,
    LabelInformedCost,
    build_cost,
    gdd,
    gdd_from_cost,
    gradate,
    io,
    lava_select,
    random_select,
)
from gradate.errors import ConfigInvalid, DimensionMismatch, InfeasibleMarginals, SchemaError
from gradate.fgw import FGWConfig
from gradate.pipeline import SelectionConfig

from conftest import count_lps, random_graph, shifted_style_dtilde


def two_domain(rng, n_dense=8, n_sparse=8, n_val=4, feature_dim=0):
    dense = [random_graph(rng, n_nodes=int(rng.integers(7, 11)), edge_prob=0.75,
                          feature_dim=feature_dim) for _ in range(n_dense)]
    sparse = [random_graph(rng, n_nodes=int(rng.integers(7, 11)), edge_prob=0.15,
                           feature_dim=feature_dim) for _ in range(n_sparse)]
    val = [random_graph(rng, n_nodes=int(rng.integers(7, 11)), edge_prob=0.75,
                        feature_dim=feature_dim) for _ in range(n_val)]
    train = LabeledGraphDataset(dense + sparse, [0] * n_dense + [1] * n_sparse,
                                label_set=[0, 1])
    return train, LabeledGraphDataset(val, [0] * n_val, label_set=[0, 1])


class TestSelectionConfig:
    def test_defaults_follow_the_reference_settings(self):
        cfg = SelectionConfig(tau=0.2)
        assert (cfg.alpha, cfg.T, cfg.eta) == (0.5, 10, 1e-4)
        assert cfg.c in (0.0, 5.0)

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            SelectionConfig(tau=0.0)
        with pytest.raises(ConfigInvalid):
            SelectionConfig(tau=0.5, alpha=1.5)
        with pytest.raises(ConfigInvalid):
            SelectionConfig(tau=0.5, solver="magic")
        with pytest.raises(ConfigInvalid):
            SelectionConfig(tau=0.5, T=1)

    @pytest.mark.parametrize("nbar", [0, -3])
    def test_reference_size_below_one_rejected(self, nbar):
        with pytest.raises(ConfigInvalid, match=f"nbar must be >= 1, got {nbar}"):
            SelectionConfig(tau=0.5, nbar=nbar)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_settings_are_rejected(self, bad):
        with pytest.raises(ConfigInvalid, match="c must be finite"):
            SelectionConfig(tau=0.5, c=bad)
        with pytest.raises(ConfigInvalid, match="eta must be finite"):
            SelectionConfig(tau=0.5, eta=bad)
        for solver in ("exact", "sinkhorn"):
            with pytest.raises(ConfigInvalid, match="epsilon must be finite"):
                SelectionConfig(tau=0.5, solver=solver, epsilon=bad)


class TestBuildCost:
    def test_cached_cost_is_bit_identical_to_a_cold_build(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        cfg = SelectionConfig(tau=0.5, c=1.0, seed=0)
        cold = build_cost(train, val, cfg)
        filled = build_cost(train, val, cfg, cache_dir=tmp_path)

        def boom(*a, **k):
            raise AssertionError("cross block recomputed despite a warm cache")

        monkeypatch.setattr(pipeline, "cross_linear_fgw", boom)
        warm = build_cost(train, val, cfg, cache_dir=tmp_path)
        assert cold.c == 1.0
        for cost in (filled, warm):
            for f in fields(LabelInformedCost):
                assert np.array_equal(getattr(cost, f.name), getattr(cold, f.name)), f.name

    def test_c_zero_caches_only_d(self, tmp_path):
        rng = np.random.default_rng(15)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        cost = build_cost(train, val, SelectionConfig(tau=0.5, c=0.0), cache_dir=tmp_path)
        assert [p.name[:2] for p in tmp_path.iterdir()] == ["D-"]
        assert np.array_equal(cost.values, cost.base)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_gdd_matches_the_built_cost_on_featureless_data(self, c):
        # gdd() and build_cost (hence the CLI) embed the same featurized block.
        rng = np.random.default_rng(16)
        train, val = two_domain(rng, n_dense=4, n_sparse=4, n_val=3)
        assert train.feature_dim == val.feature_dim == 0
        direct, _ = gdd(train, val, c=c, cfg=FGWConfig(alpha=0.5, seed=0))
        cost = build_cost(train, val, SelectionConfig(tau=1.0, c=c, alpha=0.5, seed=0))
        assert direct == gdd_from_cost(cost)[0]

    @pytest.mark.parametrize("change", [{"alpha": 0.3}, {"seed": 1}])
    def test_fgw_settings_are_part_of_the_cache_key(self, tmp_path, monkeypatch, change):
        rng = np.random.default_rng(14)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        cfg = SelectionConfig(tau=0.5, seed=0)
        build_cost(train, val, cfg, cache_dir=tmp_path)

        calls = []
        original = pipeline.cross_linear_fgw
        monkeypatch.setattr(pipeline, "cross_linear_fgw",
                            lambda *a, **k: calls.append(k) or original(*a, **k))
        changed = replace(cfg, **change)
        cost = build_cost(train, val, changed, cache_dir=tmp_path)
        assert len(calls) == 1
        assert calls[0]["cfg"] == changed.fgw_config()
        assert np.array_equal(cost.base, build_cost(train, val, changed).base)
        assert len(list(tmp_path.glob("D-*.gdd"))) == 2

    def test_cache_keys_hold_exactly_the_inputs_of_each_matrix(self, tmp_path):
        rng = np.random.default_rng(18)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        for solver in ("exact", "sinkhorn"):
            build_cost(train, val, SelectionConfig(tau=0.5, c=1.0, solver=solver, epsilon=0.5),
                       cache_dir=tmp_path)

        def key_fields(kind):
            found = set()
            for path in tmp_path.glob(f"{kind}-*.gdd"):
                blob = path.read_bytes()
                header_len = int.from_bytes(blob[4:8], "little")
                found.add(tuple(sorted(json.loads(blob[8:8 + header_len])["key"])))
            return found

        d_key = ("alpha", "dataset_hash", "nbar", "seed", "shape")
        assert key_fields("D") == {d_key}
        assert key_fields("Dtilde") == {tuple(sorted(d_key + ("c", "solver"))),
                                        tuple(sorted(d_key + ("c", "solver", "epsilon")))}

    def test_exact_dtilde_is_shared_across_epsilons(self, tmp_path, monkeypatch):
        # The exact solver never reads epsilon, so it is not in the key.
        rng = np.random.default_rng(17)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        cfg = SelectionConfig(tau=0.5, c=1.0, epsilon=0.01)
        first = build_cost(train, val, cfg, cache_dir=tmp_path)

        def boom(*a, **k):
            raise AssertionError("label table recomputed for another epsilon")

        monkeypatch.setattr(pipeline, "label_informed_cost", boom)
        second = build_cost(train, val, replace(cfg, epsilon=0.5), cache_dir=tmp_path)
        assert np.array_equal(first.values, second.values)
        assert len(list(tmp_path.glob("Dtilde-*.gdd"))) == 1
        monkeypatch.undo()
        for epsilon in (0.5, 0.7):
            build_cost(train, val, replace(cfg, solver="sinkhorn", epsilon=epsilon),
                       cache_dir=tmp_path)
        assert len(list(tmp_path.glob("Dtilde-*.gdd"))) == 3


def bits(sol):
    return (np.float64(sol.value).tobytes(), sol.dual_source.tobytes(),
            sol.dual_target.tobytes())


def entry(path):
    """The key and the payload floats of a cache file."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[4:8], "little")
    key = json.loads(blob[8:8 + header_len])["key"]
    return key, np.frombuffer(blob[8 + header_len:], dtype="<f8")


def assert_malformed_entries_are_schema_errors(tmp_path, cfg, payloads):
    cost = np.random.default_rng(6).random((4, 3))
    p, q = np.full(4, 0.25), np.full(3, 1 / 3)
    solve = cfg.ot_solver(tmp_path)
    solve(cost, p, q)
    (path,) = tmp_path.glob("OT-*.gdd")
    key, _ = entry(path)
    for payload in payloads:
        io.save_matrix_cache(path, np.asarray(payload, dtype=float)[:, None], key)
        with pytest.raises(SchemaError, match="malformed OT cache entry"):
            solve(cost, p, q)


class TestOtCache:
    def test_without_a_cache_dir_the_solver_is_the_plain_one(self):
        assert SelectionConfig(tau=0.5).ot_solver() is ot.solve_exact_ot
        sinkhorn = SelectionConfig(tau=0.5, solver="sinkhorn", epsilon=0.3).ot_solver()
        assert (sinkhorn.func, sinkhorn.keywords) == (ot.solve_sinkhorn, {"epsilon": 0.3})

    @pytest.mark.parametrize("solver", ["exact", "sinkhorn"])
    def test_a_hit_returns_the_bits_of_the_solve(self, tmp_path, monkeypatch, solver):
        rng = np.random.default_rng(3)
        cost = rng.random((7, 5))
        p = np.array([0.25, 0.0, 0.25, 0.0, 0.3, 0.2, 0.0])
        q = np.full(5, 0.2)
        cfg = SelectionConfig(tau=0.5, solver=solver, epsilon=0.5)
        direct = cfg.ot_solver()(cost, p, q)
        cached = cfg.ot_solver(tmp_path)
        miss = cached(cost, p, q)
        assert miss.coupling is None
        assert bits(miss) == bits(direct)
        calls = count_lps(monkeypatch)
        # -0.0 is no mass, as 0.0 is: the same entry answers.
        hit = cached(cost, np.where(p > 0, p, -0.0), q)
        assert hit.coupling is None
        assert bits(hit) == bits(direct)
        assert calls == []
        assert len(list(tmp_path.glob("OT-*.gdd"))) == 1

    @pytest.mark.parametrize("solver", ["exact", "sinkhorn"])
    def test_an_entry_is_the_value_and_the_duals(self, tmp_path, solver):
        # 1 + n + m floats for either solver, with a dual for each zero-mass atom.
        cost = np.random.default_rng(4).random((40, 30))
        p = np.where(np.arange(40) % 4 == 0, 0.0, 1 / 30)
        q = np.full(30, 1 / 30)
        cfg = SelectionConfig(tau=0.5, solver=solver, epsilon=0.5)
        sol = cfg.ot_solver()(cost, p, q)
        cfg.ot_solver(tmp_path)(cost, p, q)
        (path,) = tmp_path.glob("OT-*.gdd")
        _, payload = entry(path)
        assert payload.size == 1 + 40 + 30
        assert payload.tobytes() == b"".join(bits(sol))

    @pytest.mark.parametrize("solver", ["exact", "sinkhorn"])
    def test_an_entry_that_also_holds_the_coupling_is_never_read(self, tmp_path, solver):
        # Entries that stored the coupling after the duals had no "entry" key
        # field: exact ones its nonzero cells and their masses, Sinkhorn ones
        # all n * m cells under "coupling": "dense". Such an entry misses.
        n, m = 4, 4
        cost = np.random.default_rng(7).random((n, m))
        p, q = np.full(n, 1 / n), np.full(m, 1 / m)
        cfg = SelectionConfig(tau=0.5, solver=solver, epsilon=0.5)
        sol = cfg.ot_solver()(cost, p, q)
        cached = cfg.ot_solver(tmp_path)
        cached(cost, p, q)
        (path,) = tmp_path.glob("OT-*.gdd")
        key = {field: value for field, value in entry(path)[0].items() if field != "entry"}
        path.unlink()
        flat = sol.coupling.ravel()
        if solver == "sinkhorn":
            key["coupling"] = "dense"
            tail = [flat]
        else:
            cells = np.flatnonzero(flat.view(np.uint64))
            tail = [cells, flat[cells]]
        old = np.concatenate([[sol.value], sol.dual_source, sol.dual_target, *tail])
        io.save_matrix_cache(tmp_path / io.cache_file_name("OT", key), old[:, None], key)
        assert bits(cached(cost, p, q)) == bits(sol)
        assert len(list(tmp_path.glob("OT-*.gdd"))) == 2

    @pytest.mark.parametrize("tail", [[0.0], [2.5, 0.5], [12.0, 0.5], [np.nan, 0.5]],
                             ids=["odd-length", "fractional-cell", "cell-outside", "nan-cell"])
    def test_an_entry_that_is_no_solution_is_a_schema_error(self, tmp_path, tail):
        # An entry is exactly the value and 4 + 3 duals: one float short is
        # malformed, and so is any tail after the duals, such as the cells and
        # masses of a coupling, well formed or not.
        assert_malformed_entries_are_schema_errors(
            tmp_path, SelectionConfig(tau=0.5), [np.zeros(1 + 4 + 3 - 1), np.r_[np.zeros(8), tail]])

    def test_a_sinkhorn_entry_of_the_wrong_length_is_a_schema_error(self, tmp_path):
        assert_malformed_entries_are_schema_errors(
            tmp_path, SelectionConfig(tau=0.5, solver="sinkhorn", epsilon=0.5),
            [np.zeros(1 + 4 + 3 - 1), np.zeros(1 + 4 + 3 + 1)])

    def test_input_a_solve_rejects_is_rejected_on_a_warm_cache(self, tmp_path):
        cost = np.random.default_rng(5).random((4, 3))
        p, q = np.array([0.5, 0.5, 0.0, 0.0]), np.full(3, 1 / 3)
        solve = SelectionConfig(tau=0.5).ot_solver(tmp_path)
        solve(cost, p, q)
        # Same positive entries as the cached problem, plus one negative weight.
        with pytest.raises(InfeasibleMarginals, match="negative entries"):
            solve(cost, np.array([0.5, 0.5, -0.5, 0.5]), q)
        with pytest.raises(ValueError, match="finite"):
            solve(np.where(cost > 0.5, np.inf, cost), p, q)

    def test_ot_keys_hold_exactly_the_inputs_of_a_solve(self, tmp_path):
        rng = np.random.default_rng(18)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        for solver in ("exact", "sinkhorn"):
            lava_select(train, val, SelectionConfig(tau=0.5, solver=solver, epsilon=2.0),
                        cache_dir=tmp_path)
        keys = {tuple(sorted(entry(path)[0])) for path in tmp_path.glob("OT-*.gdd")}
        base = ("cost", "entry", "p", "q", "shape", "solver")
        assert keys == {base, tuple(sorted(base + ("epsilon",)))}

    def test_two_values_of_c_share_the_label_table_solves(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(19)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        val = LabeledGraphDataset(val.graphs, [0, 1], label_set=[0, 1])
        build_cost(train, val, SelectionConfig(tau=0.5, c=1.0), cache_dir=tmp_path)
        uncached = build_cost(train, val, SelectionConfig(tau=0.5, c=2.0))
        calls = count_lps(monkeypatch)
        cost = build_cost(train, val, SelectionConfig(tau=0.5, c=2.0), cache_dir=tmp_path)
        assert calls == []
        assert np.array_equal(cost.values, uncached.values)
        assert len(list(tmp_path.glob("Dtilde-*.gdd"))) == 2

    def test_a_warm_selection_runs_no_lp_and_repeats_its_result(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        train, val = two_domain(rng, n_dense=4, n_sparse=4, n_val=3)
        cfg = SelectionConfig(tau=0.25, c=1.0)
        plain = gradate(train, val, cfg)
        first = gradate(train, val, cfg, cache_dir=tmp_path)
        calls = count_lps(monkeypatch)
        again = gradate(train, val, cfg, cache_dir=tmp_path)
        lava = lava_select(train, val, cfg, cache_dir=tmp_path)
        assert calls == []
        for result in (first, again):
            assert result == plain
            assert result.trace.rows() == plain.trace.rows()
            assert result.trace.final_weights.tobytes() == plain.trace.final_weights.tobytes()
        assert lava == lava_select(train, val, cfg)

    def test_a_warm_run_above_the_grown_floor_runs_no_highs(self, tmp_path, monkeypatch):
        # 300 x 100: the cold run's reweighted solves take the grown-support
        # path, whose rounds are HiGHS runs that the cache must also spare.
        rng = np.random.default_rng(24)
        graphs = [random_graph(rng, n_nodes=3, feature_dim=1) for _ in range(400)]
        train = LabeledGraphDataset(graphs[:300], [i % 3 for i in range(300)], label_set=range(3))
        val = LabeledGraphDataset(graphs[300:], [i % 3 for i in range(100)], label_set=range(3))
        dtilde = shifted_style_dtilde(0)
        cfg = SelectionConfig(tau=0.2, c=1.0)
        calls = count_lps(monkeypatch)
        cold = gradate(train, val, cfg, dtilde=dtilde, cache_dir=tmp_path)
        assert len(calls) > cfg.T  # the T solves took more runs than one each
        calls.clear()
        warm = gradate(train, val, cfg, dtilde=dtilde, cache_dir=tmp_path)
        assert calls == []
        assert warm == cold
        assert warm.trace.final_weights.tobytes() == cold.trace.final_weights.tobytes()


class TestGradate:
    def test_duplicated_validation_graphs_are_recovered(self):
        rng = np.random.default_rng(1)
        val_graphs = [random_graph(rng, n_nodes=6) for _ in range(4)]
        other = [random_graph(rng, n_nodes=6) for _ in range(6)]
        train = LabeledGraphDataset(val_graphs + other, [0] * 10)
        val = LabeledGraphDataset(val_graphs, [0] * 4)
        cfg = SelectionConfig(tau=0.4, c=0.0, seed=0)
        res = gradate(train, val, cfg)
        dup_hits = sum(1 for i in res.indices if i < 4)
        assert dup_hits >= 0.9 * len(res.indices)

    def test_tau_one_selects_everything(self):
        rng = np.random.default_rng(2)
        train, val = two_domain(rng, n_dense=4, n_sparse=4, n_val=3)
        res = gradate(train, val, SelectionConfig(tau=1.0, seed=0))
        assert res.indices == tuple(range(8))

    def test_two_domain_selection_prefers_matching_family(self):
        rng = np.random.default_rng(3)
        train, val = two_domain(rng, n_dense=10, n_sparse=10, n_val=5)
        res = gradate(train, val, SelectionConfig(tau=0.2, seed=0))
        dense_frac = np.mean([i < 10 for i in res.indices])
        assert dense_frac >= 0.9

    def test_beats_random_on_shifted_data(self):
        rng = np.random.default_rng(4)
        train, val = two_domain(rng, n_dense=10, n_sparse=10, n_val=5)
        cfg = SelectionConfig(tau=0.3, seed=0)
        # Evaluate every selection in the embedding space the optimizer
        # actually works in: one cross block over the full train set.
        dtilde = build_cost(train, val, cfg)
        res = gradate(train, val, cfg, dtilde=dtilde)
        D = dtilde.base

        def subset_gdd(indices):
            w = np.zeros(len(train))
            w[list(indices)] = 1.0 / len(indices)
            return gdd_from_cost(D, w)[0]

        ours = subset_gdd(res.indices)
        randoms = [subset_gdd(random_select(train, 0.3, seed=s).indices)
                   for s in range(10)]
        assert ours <= np.median(randoms) + 1e-9
        assert res.trace.final_gdd <= res.trace.iterations[0].gdd_value + 1e-9

    def test_bit_reproducible(self):
        rng = np.random.default_rng(5)
        train, val = two_domain(rng, n_dense=5, n_sparse=5, n_val=3)
        cfg = SelectionConfig(tau=0.4, seed=7)
        a = gradate(train, val, cfg)
        b = gradate(train, val, cfg)
        assert a.indices == b.indices
        assert a.weights == b.weights
        assert [it.gdd_value for it in a.trace.iterations] \
            == [it.gdd_value for it in b.trace.iterations]

    def test_zero_budget_rejected(self):
        rng = np.random.default_rng(7)
        train, val = two_domain(rng, n_dense=2, n_sparse=2, n_val=2)
        with pytest.raises(ConfigInvalid):
            gradate(train, val, SelectionConfig(tau=0.1, seed=0))

    def test_featureless_and_featured_mix_rejected(self, rng):
        train = LabeledGraphDataset([random_graph(rng, feature_dim=0)], [0])
        val = LabeledGraphDataset([random_graph(rng, feature_dim=3)], [0])
        with pytest.raises(DimensionMismatch):
            gradate(train, val, SelectionConfig(tau=1.0))

    def test_prebuilt_cost_of_the_wrong_shape_rejected(self, rng):
        train, val = two_domain(rng, n_dense=2, n_sparse=2, n_val=3)
        with pytest.raises(DimensionMismatch, match=r"dtilde has shape \(10, 3\)"):
            gradate(train, val, SelectionConfig(tau=0.5), dtilde=rng.random((10, 3)))

    def test_sinkhorn_solver_is_a_usable_acceleration(self):
        rng = np.random.default_rng(12)
        train, val = two_domain(rng, n_dense=8, n_sparse=8, n_val=4)
        cfg = SelectionConfig(tau=0.25, seed=0, solver="sinkhorn", epsilon=0.05)
        res = gradate(train, val, cfg)
        assert len(res.indices) == 4
        dense_frac = np.mean([i < 8 for i in res.indices])
        assert dense_frac >= 0.75


class TestLava:
    def test_identical_sets_fall_back_to_index_order(self):
        rng = np.random.default_rng(8)
        graphs = [random_graph(rng, n_nodes=6) for _ in range(6)]
        train = LabeledGraphDataset(graphs, [0] * 6)
        val = LabeledGraphDataset(graphs, [0] * 6)
        res = lava_select(train, val, SelectionConfig(tau=0.5, c=0.0, seed=0))
        assert res.indices == (0, 1, 2)

    def test_outlier_has_maximal_dual_and_is_excluded(self):
        rng = np.random.default_rng(9)
        base = [random_graph(rng, n_nodes=6, edge_prob=0.4) for _ in range(7)]
        outlier = random_graph(rng, n_nodes=6, edge_prob=0.4)
        outlier = LabeledGraphDataset(
            base[:3] + [outlier] + base[3:], [0] * 8).graphs[3]
        # Push the outlier far away in feature space.
        from gradate import AttributedGraph
        outlier = AttributedGraph(outlier.adjacency, outlier.features + 50.0)
        train = LabeledGraphDataset(base[:3] + [outlier] + base[3:], [0] * 8)
        val = LabeledGraphDataset([random_graph(rng, n_nodes=6, edge_prob=0.4)
                                   for _ in range(4)], [0] * 4)
        for tau in (0.25, 0.5, 0.75):
            res = lava_select(train, val, SelectionConfig(tau=tau, seed=0))
            assert 3 not in res.indices

    def test_tau_one_keeps_all(self):
        rng = np.random.default_rng(10)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        res = lava_select(train, val, SelectionConfig(tau=1.0, seed=0))
        assert res.indices == tuple(range(6))

    def test_prebuilt_cost_of_the_wrong_shape_rejected(self, rng):
        train, val = two_domain(rng, n_dense=2, n_sparse=2, n_val=3)
        cost = LabelInformedCost(values=rng.random((10, 3)), base=rng.random((10, 3)), c=0.0)
        with pytest.raises(DimensionMismatch, match=r"dtilde has shape \(10, 3\)"):
            lava_select(train, val, SelectionConfig(tau=0.5), dtilde=cost)


class TestRandom:
    def test_deterministic_per_seed(self, rng):
        train = LabeledGraphDataset([random_graph(rng) for _ in range(9)], [0] * 9)
        a = random_select(train, tau=0.5, seed=7)
        b = random_select(train, tau=0.5, seed=7)
        assert a.indices == b.indices

    def test_counts_and_tau_one(self, rng):
        train = LabeledGraphDataset([random_graph(rng) for _ in range(9)], [0] * 9)
        assert len(random_select(train, tau=0.5, seed=0).indices) == 4
        assert random_select(train, tau=1.0, seed=0).indices == tuple(range(9))

    @pytest.mark.parametrize("tau", [1.5, 2.0, 0.0, -0.5, float("nan")])
    def test_tau_outside_unit_interval_rejected(self, rng, tau):
        train = LabeledGraphDataset([random_graph(rng) for _ in range(9)], [0] * 9)
        with pytest.raises(ConfigInvalid, match=r"tau must be in \(0, 1\]"):
            random_select(train, tau, 0)


class TestResultSchema:
    def test_all_methods_share_the_same_contract(self):
        rng = np.random.default_rng(11)
        train, val = two_domain(rng, n_dense=4, n_sparse=4, n_val=3)
        cfg = SelectionConfig(tau=0.5, seed=0)
        results = [gradate(train, val, cfg), lava_select(train, val, cfg),
                   random_select(train, 0.5, 0)]
        for res in results:
            assert list(res.indices) == sorted(set(res.indices))
            assert all(0 <= i < len(train) for i in res.indices)
            assert len(res.indices) == 4
            assert len(res.weights) == len(res.indices)
            assert abs(sum(res.weights) - 1.0) <= 1e-9
            assert all(x >= 0 for x in res.weights)
            assert set(res.provenance) == {"config"}
        assert {r.method for r in results} == {"gradate", "lava", "random"}
