import json
from dataclasses import asdict, fields, replace

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
from gradate.errors import (ConfigInvalid, DimensionMismatch, EmptyDataset, InfeasibleMarginals,
                            SchemaError)
from gradate.fgw import FGWConfig
from gradate.graphs import concat_datasets
from gradate.pipeline import SelectionConfig

from conftest import count_lps, random_graph, shifted_split, shifted_style_dtilde


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", True, None])
    def test_a_seed_that_is_no_nonnegative_integer_is_rejected(self, seed):
        # numpy's default_rng refuses these; the config refuses them first.
        with pytest.raises(ConfigInvalid, match="seed must be a nonnegative integer"):
            FGWConfig(seed=seed)
        with pytest.raises(ConfigInvalid, match="seed must be a nonnegative integer"):
            SelectionConfig(tau=0.5, seed=seed)

    def test_a_numpy_integer_seed_is_its_int(self, tmp_path):
        cfg = SelectionConfig(tau=0.5, c=1.0, seed=np.int64(3))
        assert type(cfg.seed) is int and type(cfg.fgw_config().seed) is int
        assert cfg == SelectionConfig(tau=0.5, c=1.0, seed=3)
        # It enters the cache keys as the int does.
        rng = np.random.default_rng(17)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        build_cost(train, val, SelectionConfig(tau=0.5, c=1.0, seed=3), cache_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        build_cost(train, val, cfg, cache_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        seeded = random_select(train, 0.5, np.int64(3))
        assert type(seeded.provenance["config"]["seed"]) is int
        assert seeded == random_select(train, 0.5, 3)

    def test_a_reference_size_over_the_adjacency_bound_is_rejected(self, monkeypatch):
        monkeypatch.setattr("gradate.graphs.MAX_ADJACENCY_CELLS", 64)
        SelectionConfig(tau=0.5, nbar=8)
        with pytest.raises(ConfigInvalid, match="nbar must be <= 8, got 9"):
            SelectionConfig(tau=0.5, nbar=9)

    @pytest.mark.parametrize("name, value, kind", [
        ("tau", np.float32(0.5), float), ("tau", 1, float), ("alpha", np.float32(0.5), float),
        ("alpha", 1, float), ("c", np.float32(1), float), ("c", 1, float),
        ("eta", np.float64(1e-4), float), ("epsilon", np.float32(0.5), float),
        ("T", np.int64(3), int), ("nbar", np.int64(4), int)])
    def test_numeric_fields_are_stored_as_python_numbers(self, name, value, kind):
        cfg = SelectionConfig(**{"tau": 0.5, "solver": "sinkhorn", name: value})
        assert type(getattr(cfg, name)) is kind and getattr(cfg, name) == value
        assert json.loads(json.dumps(asdict(cfg)))[name] == value
        if name == "alpha":
            assert type(cfg.fgw_config().alpha) is float

    @pytest.mark.parametrize("name, value", [
        ("tau", True), ("alpha", False), ("c", True), ("eta", True), ("epsilon", True),
        ("T", True), ("nbar", True), ("T", 2.5), ("T", 3.0), ("nbar", 4.0),
        ("nbar", np.float64(4)), ("tau", "0.5"), ("c", None), ("eta", np.True_)])
    def test_a_bool_or_a_number_of_the_wrong_kind_is_rejected(self, name, value):
        with pytest.raises(ConfigInvalid, match=f"^{name} must be an? "):
            SelectionConfig(**{"tau": 0.5, name: value})
        if name == "alpha":
            with pytest.raises(ConfigInvalid, match="^alpha must be a real number"):
                FGWConfig(alpha=value)

    @pytest.mark.parametrize("written, read", [
        ({}, {"c": 1}), ({}, {"c": np.float32(1)}), ({}, {"alpha": np.float32(0.5)}),
        ({"nbar": 4}, {"nbar": np.int64(4)}),
        ({"solver": "sinkhorn", "epsilon": 0.5},
         {"solver": "sinkhorn", "epsilon": np.float32(0.5)})])
    def test_numpy_and_int_values_read_the_python_float_entries(self, tmp_path, written, read):
        rng = np.random.default_rng(17)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        reference = SelectionConfig(**{"tau": 0.5, "c": 1.0, **written})
        cold = build_cost(train, val, reference, cache_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        cfg = SelectionConfig(**{"tau": 0.5, "c": 1.0, **written, **read})
        assert cfg == reference
        warm = build_cost(train, val, cfg, cache_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert np.array_equal(np.asarray(warm), np.asarray(cold))


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

        d_key = ("alpha", "dataset_hash", "nbar", "seed", "shape", "barycenter_stop",
                 "graph_order", "inner_tie", "reference", "fw_max_iter", "fw_tol",
                 "inner_assignment_max_lcm", "inner_certificate_margin")
        assert key_fields("D") == {tuple(sorted(d_key))}
        assert key_fields("Dtilde") == {tuple(sorted(d_key + ("c", "solver") + EXACT_RULES)),
                                        tuple(sorted(d_key + ("c", "solver", "epsilon")
                                                     + SINKHORN_RULES))}

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


# The rule fields of the exact and the Sinkhorn solver's keys.
EXACT_RULES = ("outer_duals", "outer_assignment_max_expansion", "outer_certificate_margin",
               "grown_min_cells", "grown_start_cells", "grown_growth", "grown_max_rounds")
SINKHORN_RULES = ("iteration", "plan_check", "max_iter", "tol")


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

    def test_a_hit_indexes_no_restricted_block(self, tmp_path, monkeypatch):
        # A warm CLI pass makes about 40 hits; each checks its input and
        # hashes it, and builds no positive-atom block.
        cost = np.random.default_rng(8).random((6, 4))
        p, q = np.array([0.5, 0.0, 0.25, 0.0, 0.25, 0.0]), np.full(4, 0.25)
        cached = SelectionConfig(tau=0.5).ot_solver(tmp_path)
        miss = cached(cost, p, q)
        monkeypatch.setattr(ot._Restricted, "block", property(
            lambda self: pytest.fail("an OT-cache hit built the restricted block")))
        assert bits(cached(cost, p, q)) == bits(miss)
        with pytest.raises(pytest.fail.Exception):
            cached(cost, np.full(6, 1 / 6), q)

    @pytest.mark.parametrize("solver, name", [("exact", "OT-9a29184a651f4f6be68c.gdd"),
                                              ("sinkhorn", "OT-9b33d41d2ffd40c7c2e3.gdd")],
                             ids=["exact", "sinkhorn"])
    def test_the_entry_name_of_a_fixed_problem_is_pinned(self, tmp_path, solver, name):
        # A refactor of the key, or of the checks that feed it, must not move
        # an entry: a moved name misses every entry written before it.
        cost = np.arange(12.0).reshape(3, 4) / 8
        p, q = np.array([0.5, 0.0, 0.5]), np.array([0.25, 0.25, 0.0, 0.5])
        SelectionConfig(tau=0.5, solver=solver, epsilon=0.5).ot_solver(tmp_path)(cost, p, q)
        assert [path.name for path in tmp_path.iterdir()] == [name]

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

    @pytest.mark.parametrize("kind", ["OT", "Dtilde"])
    def test_a_sinkhorn_entry_written_before_the_column_check_is_never_read(self, tmp_path,
                                                                           kind):
        # Such an entry's key had no "plan_check" field. Its bytes may hold a
        # plan that missed q, so it must miss; here it holds a marked value.
        rng = np.random.default_rng(20)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        cfg = SelectionConfig(tau=0.5, c=1.0, solver="sinkhorn", epsilon=2.0)
        (tmp_path / "cold").mkdir()
        cold = build_cost(train, val, cfg, cache_dir=tmp_path / "cold")
        lava_select(train, val, cfg, dtilde=cold, cache_dir=tmp_path / "cold")
        for path in (tmp_path / "cold").glob(f"{kind}-*.gdd"):
            key, payload = entry(path)
            key.pop("plan_check", None)
            old = np.full_like(payload, 7.0).reshape(-1, 1 if kind == "OT" else len(val))
            io.save_matrix_cache(tmp_path / io.cache_file_name(kind, key), old, key)
        warm = build_cost(train, val, cfg, cache_dir=tmp_path)
        assert np.array_equal(warm.values, cold.values)
        assert lava_select(train, val, cfg, dtilde=warm, cache_dir=tmp_path) \
            == lava_select(train, val, cfg, dtilde=cold)

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

    @pytest.mark.parametrize("bad", ["non-finite-cost", "negative-cost", "1-d-cost",
                                     "p-of-wrong-shape", "p-sums-to-2", "nan-in-q"])
    def test_every_solve_entry_rejects_an_input_alike(self, tmp_path, bad):
        cost = np.random.default_rng(5).random((4, 3))
        p, q = np.array([0.5, 0.5, 0.0, 0.0]), np.full(3, 1 / 3)
        args = {"non-finite-cost": (np.where(cost > 0.5, np.inf, cost), p, q),
                "negative-cost": (cost - 0.5, p, q),
                "1-d-cost": (cost[0], p, q),
                "p-of-wrong-shape": (cost, np.full(3, 1 / 3), q),
                "p-sums-to-2": (cost, 2 * p, q),
                "nan-in-q": (cost, p, np.array([0.5, 0.5, np.nan]))}[bad]

        def outcome(solve):
            with pytest.raises((ValueError, InfeasibleMarginals)) as info:
                solve(*args)
            return type(info.value), str(info.value)

        outcomes = [outcome(ot.solve_exact_ot),
                    outcome(lambda *a: ot.solve_sinkhorn(*a, epsilon=0.5))]
        for solver in ("exact", "sinkhorn"):
            (tmp_path / solver).mkdir()
            solve = SelectionConfig(tau=0.5, solver=solver, epsilon=0.5).ot_solver(
                tmp_path / solver)
            outcomes.append(outcome(solve))  # cold
            solve(cost, p, q)
            outcomes.append(outcome(solve))  # warm
            assert len(list((tmp_path / solver).glob("OT-*.gdd"))) == 1
        assert outcomes == outcomes[:1] * 6

    def test_ot_keys_hold_exactly_the_inputs_of_a_solve(self, tmp_path):
        rng = np.random.default_rng(18)
        train, val = two_domain(rng, n_dense=3, n_sparse=3, n_val=2)
        for solver in ("exact", "sinkhorn"):
            lava_select(train, val, SelectionConfig(tau=0.5, solver=solver, epsilon=2.0),
                        cache_dir=tmp_path)
        keys = {tuple(sorted(entry(path)[0])) for path in tmp_path.glob("OT-*.gdd")}
        base = ("cost", "entry", "p", "q", "shape", "solver")
        assert keys == {tuple(sorted(base + EXACT_RULES)),
                        tuple(sorted(base + ("epsilon",) + SINKHORN_RULES))}

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


def entry_names(cache_dir, dataset_path, train, val):
    """The entry names one pass writes to an empty `cache_dir`, by kind and solver.

    The pass loads the JSON dataset through the cache (a "DS" entry), then,
    for each solver, builds D-tilde at c = 1, selects with `lava_select` and
    solves `gdd_from_cost` at non-uniform weights.
    """
    io.load_dataset(dataset_path, cache_dir=cache_dir)
    w = np.arange(len(train), dtype=float) / sum(range(len(train)))
    for solver in ("exact", "sinkhorn"):
        cfg = SelectionConfig(tau=0.5, c=1.0, solver=solver, epsilon=2.0)
        cost = build_cost(train, val, cfg, cache_dir=cache_dir)
        lava_select(train, val, cfg, dtilde=cost, cache_dir=cache_dir)
        gdd_from_cost(cost, w, cfg.ot_solver(cache_dir))
    names = {}
    for path in cache_dir.glob("*.gdd"):
        names.setdefault((path.name.split("-")[0], entry(path)[0].get("solver")),
                         set()).add(path.name)
    return names


class TestResultRules:
    """Each cache kind is keyed on exactly the rules of `pipeline._RESULT_RULES` behind it."""

    @pytest.mark.parametrize("group, renamed", [
        ("D", {("D", None), ("Dtilde", "exact"), ("Dtilde", "sinkhorn")}),
        ("exact", {("Dtilde", "exact"), ("OT", "exact")}),
        ("sinkhorn", {("Dtilde", "sinkhorn"), ("OT", "sinkhorn")}),
    ], ids=["D", "exact", "sinkhorn"])
    def test_a_new_rule_value_renames_exactly_the_entries_it_decides(
            self, tmp_path, monkeypatch, group, renamed):
        train, val = two_domain(np.random.default_rng(21), n_dense=3, n_sparse=3, n_val=2)
        dataset_path = tmp_path / "ds.json"
        io.save_dataset_json(concat_datasets(train, val), dataset_path)
        (tmp_path / "before").mkdir()
        before = entry_names(tmp_path / "before", dataset_path, train, val)
        assert set(before) == {("DS", None), ("D", None), ("Dtilde", "exact"),
                               ("Dtilde", "sinkhorn"), ("OT", "exact"), ("OT", "sinkhorn")}
        for rule, value in pipeline._RESULT_RULES[group].items():
            with monkeypatch.context() as patch:
                patch.setitem(pipeline._RESULT_RULES[group], rule, value * 2)  # a new value
                (tmp_path / rule).mkdir()
                after = entry_names(tmp_path / rule, dataset_path, train, val)
            assert set(after) == set(before)
            for kind, names in before.items():
                if kind in renamed:
                    assert names.isdisjoint(after[kind]), (rule, kind)
                else:
                    assert after[kind] == names, (rule, kind)

    def test_the_canonical_outer_duals_rename_the_exact_entries_and_keep_d(self, tmp_path,
                                                                             monkeypatch):
        # A cache filled while the exact duals were HiGHS's keeps its D and
        # Sinkhorn entries, and misses its exact OT and D-tilde entries once.
        train, val = two_domain(np.random.default_rng(23), n_dense=3, n_sparse=3, n_val=2)
        dataset_path = tmp_path / "ds.json"
        io.save_dataset_json(concat_datasets(train, val), dataset_path)
        assert pipeline._RESULT_RULES["exact"]["outer_duals"] == "canonical-duals"
        names = {}
        for value in ("canonical-duals", "highs-tree-duals"):
            monkeypatch.setitem(pipeline._RESULT_RULES["exact"], "outer_duals", value)
            (tmp_path / value).mkdir()
            names[value] = entry_names(tmp_path / value, dataset_path, train, val)
        now, before = names["canonical-duals"], names["highs-tree-duals"]
        for kind in [("DS", None), ("D", None), ("Dtilde", "sinkhorn"), ("OT", "sinkhorn")]:
            assert now[kind] == before[kind]
        for kind in [("Dtilde", "exact"), ("OT", "exact")]:
            assert now[kind].isdisjoint(before[kind])

    def test_a_cache_filled_before_the_rule_fields_misses_once(self, tmp_path):
        # Such an entry's key holds no rule field but "plan_check", which
        # Sinkhorn keys held already. Its bytes may come from other rules, so
        # it must miss and be rewritten; here it holds a marked payload.
        train, val = two_domain(np.random.default_rng(22), n_dense=3, n_sparse=3, n_val=2)
        rules = {rule for group in pipeline._RESULT_RULES.values() for rule in group}
        configs = [SelectionConfig(tau=0.5, c=1.0, solver=solver, epsilon=2.0)
                   for solver in ("exact", "sinkhorn")]
        (tmp_path / "cold").mkdir()
        costs = [build_cost(train, val, cfg, cache_dir=tmp_path / "cold") for cfg in configs]
        for cfg, cost in zip(configs, costs):
            lava_select(train, val, cfg, dtilde=cost, cache_dir=tmp_path / "cold")
        cold = list((tmp_path / "cold").iterdir())
        for path in cold:
            kind = path.name.split("-")[0]
            key, payload = entry(path)
            key = {field: value for field, value in key.items()
                   if field not in rules or field == "plan_check"}
            old = np.full_like(payload, 7.0).reshape(-1, 1 if kind == "OT" else len(val))
            io.save_matrix_cache(tmp_path / io.cache_file_name(kind, key), old, key)
        for cfg, cost in zip(configs, costs):
            warm = build_cost(train, val, cfg, cache_dir=tmp_path)
            assert np.array_equal(warm.base, cost.base)
            assert np.array_equal(warm.values, cost.values)
            assert gdd_from_cost(warm, None, cfg.ot_solver(tmp_path))[0] \
                == gdd_from_cost(cost, None, cfg.ot_solver())[0]
            assert lava_select(train, val, cfg, dtilde=warm, cache_dir=tmp_path) \
                == lava_select(train, val, cfg, dtilde=cost)
        names = {path.name for path in tmp_path.glob("*.gdd")}
        assert len(names) == 2 * len(cold)
        assert {path.name for path in cold} < names


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

    def test_a_cold_shifted_run_makes_48_highs_runs(self, monkeypatch):
        # Each grown round adds every violated cell: 48 runs in all, 19 of
        # them in the label table. The FGW stage runs no LP here.
        train, val = shifted_split(1)
        calls = count_lps(monkeypatch)
        table_runs = []
        table = pipeline.label_informed_cost

        def counted(*args, **kwargs):
            before = len(calls)
            result = table(*args, **kwargs)
            table_runs.append(len(calls) - before)
            return result

        monkeypatch.setattr(pipeline, "label_informed_cost", counted)
        gradate(train, val, SelectionConfig(tau=0.2, c=1.0))
        assert (len(calls), table_runs) == (48, [19])


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

    def test_tau_is_recorded_as_a_float(self, rng):
        train = LabeledGraphDataset([random_graph(rng) for _ in range(9)], [0] * 9)
        res = random_select(train, np.float32(0.5), 0)
        assert type(res.provenance["config"]["tau"]) is float
        assert res == random_select(train, 0.5, 0)
        assert json.loads(json.dumps(res.provenance)) == {"config": {"tau": 0.5, "seed": 0}}
        with pytest.raises(ConfigInvalid, match="^tau must be a real number"):
            random_select(train, True, 0)

    @pytest.mark.parametrize("seed", [-1, 2.0, None])
    def test_a_seed_that_is_no_nonnegative_integer_is_rejected(self, rng, seed):
        train = LabeledGraphDataset([random_graph(rng) for _ in range(9)], [0] * 9)
        with pytest.raises(ConfigInvalid, match="seed must be a nonnegative integer"):
            random_select(train, 0.5, seed)


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


class TestTypedErrors:
    def test_sinkhorn_needs_a_positive_epsilon(self):
        with pytest.raises(ConfigInvalid, match="sinkhorn epsilon must be > 0, got 0.0"):
            SelectionConfig(tau=0.5, solver="sinkhorn", epsilon=0)

    @pytest.mark.parametrize("call, message", [
        (lambda train, val, empty: build_cost(empty, val, SelectionConfig(tau=0.5)),
         "train and val must both be nonempty"),
        (lambda train, val, empty: gradate(train, empty, SelectionConfig(tau=0.5),
                                           dtilde=np.ones((len(train), 0))),
         "train and val must both be nonempty"),
        (lambda train, val, empty: random_select(empty, 0.5, 0), "train must be nonempty"),
    ], ids=["build_cost", "gradate-with-dtilde", "random_select"])
    def test_an_empty_split_is_empty_dataset(self, rng, call, message):
        train, val = two_domain(rng, n_dense=2, n_sparse=2, n_val=2)
        with pytest.raises(EmptyDataset, match=message):
            call(train, val, LabeledGraphDataset([], []))
