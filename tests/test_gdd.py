import numpy as np
import pytest

import gradate.ot as ot
from gradate import (
    LabeledGraphDataset,
    cross_linear_fgw,
    gdd,
    gdd_from_cost,
    graph_label_distance,
    great_select,
    label_distance_table,
    label_informed_cost,
    linear_fgw_distance,
    solve_exact_ot,
)
from gradate.errors import (AllZeroWeights, ConfigInvalid, DimensionMismatch, EmptyClass,
                            EmptyDataset)
from gradate.fgw import FGWConfig
from gradate.linear_fgw import BarycentricEmbedding
from gradate.pipeline import SelectionConfig

from conftest import random_graph, shifted_split, two_domain_corpus
from oracles import brute_force_ot


def labeled(rng, labels, **kw):
    return LabeledGraphDataset([random_graph(rng, **kw) for _ in labels], labels,
                               label_set=sorted(set(labels)))


class TestGraphLabelDistance:
    def test_singleton_classes_give_the_entry_itself(self, rng):
        train = labeled(rng, [0, 1])
        val = labeled(rng, [1, 0])
        D = np.array([[1.0, 2.0], [3.0, 4.0]])
        # train label 0 is row 0, val label 1 is column 0.
        assert graph_label_distance(train, val, D, 0, 1) == pytest.approx(1.0)
        assert graph_label_distance(train, val, D, 1, 0) == pytest.approx(4.0)

    def test_zero_intra_block_gives_zero(self, rng):
        train = labeled(rng, [0, 0])
        val = labeled(rng, [0, 0])
        D = np.zeros((2, 2))
        assert graph_label_distance(train, val, D, 0, 0) == 0.0

    def test_matches_transport_oracle_on_sub_block(self, rng):
        train = labeled(rng, [0, 0, 1])
        val = labeled(rng, [0, 0, 0])
        D = rng.random((3, 3))
        got = graph_label_distance(train, val, D, 0, 0)
        # Uniform 2-vs-3 measures: supplies 3/6, demands 2/6.
        expected = brute_force_ot(D[np.ix_([0, 1], [0, 1, 2])], [3, 3], [2, 2, 2])
        assert got == pytest.approx(expected, abs=1e-10)

    def test_empty_class_raises(self, rng):
        train = labeled(rng, [0, 0])
        val = labeled(rng, [1, 1])
        D = np.zeros((2, 2))
        with pytest.raises(EmptyClass):
            graph_label_distance(train, val, D, 1, 1)
        with pytest.raises(EmptyClass):
            graph_label_distance(train, val, D, 0, 0)


class TestLabelInformedCost:
    def test_c_zero_is_bit_exact_copy(self, rng):
        train = labeled(rng, [0, 1, 0])
        val = labeled(rng, [1, 0])
        D = rng.random((3, 2))
        dtilde = label_informed_cost(train, val, D, c=0.0)
        assert np.array_equal(dtilde.values, D)
        assert np.array_equal(dtilde.base, D)

    def test_as_an_array_it_is_its_values(self, rng):
        train = labeled(rng, [0, 1, 0])
        val = labeled(rng, [1, 0])
        dtilde = label_informed_cost(train, val, rng.random((3, 2)), c=1.0)
        assert np.asarray(dtilde) is dtilde.values
        assert np.shape(dtilde) == (3, 2)
        as_float32 = np.asarray(dtilde, dtype=np.float32)
        assert as_float32.dtype == np.float32
        assert np.array_equal(as_float32, dtilde.values.astype(np.float32))
        copied = np.array(dtilde, copy=True)
        assert copied is not dtilde.values and np.array_equal(copied, dtilde.values)
        # numpy 1.x calls the protocol without `copy`.
        assert dtilde.__array__() is dtilde.values
        assert dtilde.__array__(np.float32).dtype == np.float32
        # Every solve takes the object and its values alike.
        assert gdd_from_cost(dtilde)[0] == gdd_from_cost(dtilde.values)[0]

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy passes `copy` to `__array__` from 2.0 on")
    def test_a_copy_it_cannot_avoid_is_refused(self, rng):
        train = labeled(rng, [0, 1, 0])
        val = labeled(rng, [1, 0])
        dtilde = label_informed_cost(train, val, rng.random((3, 2)), c=1.0)
        assert np.asarray(dtilde, copy=False) is dtilde.values
        with pytest.raises(ValueError):
            np.asarray(dtilde, dtype=np.float32, copy=False)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_c_is_rejected(self, rng, c):
        train = labeled(rng, [0, 1, 0])
        val = labeled(rng, [1, 0])
        with pytest.raises(ConfigInvalid, match="c must be finite"):
            label_informed_cost(train, val, rng.random((3, 2)), c=c)

    def test_single_shared_label_is_constant_shift(self, rng):
        train = labeled(rng, [0, 0, 0])
        val = labeled(rng, [0, 0])
        D = rng.random((3, 2))
        c = 2.0
        dtilde = label_informed_cost(train, val, D, c)
        self_dist = graph_label_distance(train, val, D, 0, 0)
        assert np.allclose(dtilde.values, D + c * self_dist)

    def test_two_class_blocks_match_hand_driven_calls(self, rng):
        train = labeled(rng, [0, 1, 0, 1])
        val = labeled(rng, [1, 0, 1])
        D = rng.random((4, 3))
        c = 1.5
        dtilde = label_informed_cost(train, val, D, c)
        for i, y in enumerate(train.labels):
            for j, y_prime in enumerate(val.labels):
                expected = D[i, j] + c * graph_label_distance(train, val, D, y, y_prime)
                assert dtilde.values[i, j] == pytest.approx(expected, abs=1e-10)

    def test_offsets_are_c_times_table_entries_bit_exact(self, rng):
        train = labeled(rng, [2, 0, 1, 0, 2, 1])
        val = labeled(rng, [0, 2, 2, 0])  # label 1 absent on the val side
        D = rng.random((6, 4))
        c = 0.7
        dtilde = label_informed_cost(train, val, D, c)
        table = label_distance_table(train, val, D)
        at = table.labels.index
        expected = np.array([[c * table.values[at(y), at(y_prime)] for y_prime in val.labels]
                             for y in train.labels])
        assert np.array_equal(dtilde.values, D + expected)
        assert np.array_equal(dtilde.base, D)

    def test_dominates_base_for_nonnegative_c(self, rng):
        train = labeled(rng, [0, 1])
        val = labeled(rng, [0, 1])
        D = rng.random((2, 2))
        for c in (0.0, 0.5, 5.0):
            dtilde = label_informed_cost(train, val, D, c)
            assert np.all(dtilde.values >= D - 1e-12)

    def test_table_symmetry_when_supports_coincide(self, rng):
        ds = labeled(rng, [0, 1, 1, 0])
        D = rng.random((4, 4))
        D = (D + D.T) / 2
        table = label_distance_table(ds, ds, D)
        assert table.labels == (0, 1)
        assert abs(table.values[0, 1] - table.values[1, 0]) <= 1e-6

    def test_absent_pair_is_nan(self, rng):
        train = labeled(rng, [0, 0])
        val = labeled(rng, [0, 0])
        train = LabeledGraphDataset(train.graphs, train.labels, label_set=[0, 1])
        val = LabeledGraphDataset(val.graphs, val.labels, label_set=[0, 1])
        D = np.abs(rng.random((2, 2)))
        table = label_distance_table(train, val, D)
        assert np.isnan(table.values[1, 1])


# The route of each outer exact solve, in order, at c = 1 for the label table
# (train class by val class) and then for GREAT's 9 steps and final solve.
_TREES = ["tree"] * 9
OUTER_ROUTES = {
    "shifted": (lambda: shifted_split(1), 1.0,
                ["full LP", "tree", "assignment"] + ["tree"] * 5 + ["full LP"],
                ["assignment"] + _TREES),
    "two_domain": (two_domain_corpus, 0.0, [],
                   ["assignment"] + ["tree"] * 6 + ["no tree", "full LP"] * 2 + ["full LP"]),
    "shifted300": (lambda: shifted_split(1, 300), 1.0,
                   ["tree", "full LP", "tree", "tree", "full LP", "tree", "tree", "full LP",
                    "full LP"],
                   ["assignment"] + _TREES),
}


class TestOuterStarts:
    """Each label-table block starts from its train class's block before; no answer changes."""

    def test_label_table_bits_with_and_without_starts(self, tmp_path):
        train, val = shifted_split(1)
        D = cross_linear_fgw(train, val, FGWConfig(alpha=0.5, seed=0))
        starts = []

        def no_start(cost, p, q, start=None):
            starts.append(start is not None)
            return solve_exact_ot(cost, p, q)

        chained = label_distance_table(train, val, D).values
        assert np.array_equal(label_distance_table(train, val, D, no_start).values, chained)
        assert starts == [False, True, True] * 3
        cached = SelectionConfig(tau=0.2).ot_solver(tmp_path)
        for _ in ("cold", "warm"):
            assert np.array_equal(label_distance_table(train, val, D, cached).values, chained)
        assert len(list(tmp_path.glob("OT-*.gdd"))) == 9

    def test_a_block_starts_from_the_solution_of_the_block_before(self, rng):
        # The start is the previous block's solution itself, whose columns
        # are another val class's.
        train, val = labeled(rng, [0] * 5), labeled(rng, [0, 1, 1, 0, 1, 1])
        D = rng.random((5, 6))
        seen = []

        def spy(cost, p, q, start=None):
            sol = solve_exact_ot(cost, p, q, start=start)
            seen.append((cost, start, sol))
            return sol

        label_distance_table(train, val, D, spy)
        (first, none, solution), (second, start, _) = seen
        assert none is None and first.shape == (5, 2) and second.shape == (5, 4)
        assert start is solution

    @pytest.mark.parametrize("name", list(OUTER_ROUTES))
    def test_every_outer_solve_keeps_its_route(self, name, monkeypatch):
        make, c, table_routes, great_routes = OUTER_ROUTES[name]
        train, val = make()
        D = cross_linear_fgw(train, val, FGWConfig(alpha=0.5, seed=0))
        routes = []

        def solver(cost, p, q, start=None):
            routes.append([])
            return solve_exact_ot(cost, p, q, start=start)

        def spy(name, original, event):
            def spied(*args):
                result = original(*args)
                routes[-1].append(event(result))
                return result
            monkeypatch.setattr(ot, name, spied)

        spy("_assign", ot._assign, lambda _: "assignment")
        spy("_certified_grown_lp", ot._certified_grown_lp,
            lambda tree: "no tree" if tree is None else "tree")
        spy("_solve_transport_lp", ot._solve_transport_lp, lambda _: "full LP")
        dtilde = label_informed_cost(train, val, D, c, solver)
        assert sum(routes, []) == table_routes
        assert all(len(route) == 1 or route == ["no tree", "full LP"] for route in routes)
        routes.clear()
        great_select(dtilde, tau=0.2, T=10, eta=1e-4, solver=solver)
        assert sum(routes, []) == great_routes


class TestGdd:
    def test_identical_sets_have_zero_distance(self, rng):
        ds = labeled(rng, [0, 1, 0])
        value, sol = gdd(ds, ds, c=0.0, cfg=FGWConfig(alpha=0.5, seed=1))
        assert abs(value) <= 1e-8
        assert sol.coupling.shape == (3, 3)

    def test_point_mass_weight_averages_one_row(self, rng):
        dtilde = rng.random((3, 4))
        w = np.array([0.0, 1.0, 0.0])
        value, _ = gdd_from_cost(dtilde, w)
        assert value == pytest.approx(dtilde[1].mean(), abs=1e-10)

    def test_toy_instance_matches_oracle(self, rng):
        dtilde = rng.random((3, 2))
        value, _ = gdd_from_cost(dtilde)
        expected = brute_force_ot(dtilde, [2, 2, 2], [3, 3])
        assert value == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_c(self, rng):
        train = labeled(rng, [0, 1, 0, 1])
        val = labeled(rng, [0, 1, 1])
        cfg = FGWConfig(alpha=0.5, seed=2)
        values = [gdd(train, val, c=c, cfg=cfg)[0] for c in (0.0, 1.0, 5.0)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_c_zero_equals_collapsed_labels_bit_exact(self, rng):
        train = labeled(rng, [0, 1, 0, 1])
        val = labeled(rng, [1, 0])
        collapsed_train = LabeledGraphDataset(train.graphs, [0] * len(train), label_set=[0])
        collapsed_val = LabeledGraphDataset(val.graphs, [0] * len(val), label_set=[0])
        cfg = FGWConfig(alpha=0.5, seed=3)
        a, _ = gdd(train, val, c=0.0, cfg=cfg)
        b, _ = gdd(collapsed_train, collapsed_val, c=0.0, cfg=cfg)
        assert a == b  # bit-identical, not approximately equal

    def test_empty_val_raises(self, rng):
        train = labeled(rng, [0])
        val = LabeledGraphDataset([], [], label_set=[0])
        with pytest.raises(EmptyDataset):
            gdd(train, val)

    def test_all_zero_weights_raise(self, rng):
        with pytest.raises(AllZeroWeights):
            gdd_from_cost(rng.random((2, 2)), np.zeros(2))

    def test_solution_carries_duals_for_the_weights(self, rng):
        dtilde = rng.random((4, 3))
        w = rng.random(4)
        w /= w.sum()
        value, sol = gdd_from_cost(dtilde, w)
        q = np.full(3, 1 / 3)
        assert abs(w @ sol.dual_source + q @ sol.dual_target - value) <= 1e-8


class TestGeneralizationGapDiagnostic:
    def test_gdd_gap_tracks_validation_loss_gap(self, capsys):
        # Two clusters of embeddings; validation lives in cluster A. For
        # random candidate subsets, the subset with lower dataset distance
        # should usually have lower 1-nearest-neighbor validation error.
        # Diagnostic only: the agreement rate is reported, not asserted.
        rng = np.random.default_rng(0)
        n_per, m = 12, 8

        def cluster_embeddings(center, count):
            return [BarycentricEmbedding(
                t_node=center + 0.5 * rng.standard_normal((2, 2)),
                t_edge=np.zeros((2, 2))) for _ in range(count)]

        train_emb = cluster_embeddings(np.zeros((2, 2)), n_per) \
            + cluster_embeddings(np.full((2, 2), 1.0), n_per)
        train_labels = np.array([0] * n_per + [1] * n_per)
        val_emb = cluster_embeddings(np.zeros((2, 2)), m)
        val_labels = np.zeros(m, dtype=int)

        D = np.array([[linear_fgw_distance(a, b, 0.5) for b in val_emb]
                      for a in train_emb])

        n = 2 * n_per
        agreements, comparable = 0, 0
        for _ in range(60):
            s1 = rng.choice(n, size=6, replace=False)
            s2 = rng.choice(n, size=6, replace=False)
            gaps = []
            for s in (s1, s2):
                w = np.zeros(n)
                w[s] = 1.0 / len(s)
                value, _ = gdd_from_cost(D, w)
                nearest = s[np.argmin(D[s], axis=0)]
                loss = float(np.mean(train_labels[nearest] != val_labels))
                gaps.append((value, loss))
            dg = gaps[0][0] - gaps[1][0]
            dl = gaps[0][1] - gaps[1][1]
            if abs(dg) < 1e-9 or dl == 0.0:
                continue
            comparable += 1
            agreements += int(np.sign(dg) == np.sign(dl))
        rate = agreements / comparable if comparable else float("nan")
        print(f"generalization-gap diagnostic: sign agreement {agreements}/{comparable}"
              f" = {rate:.2f}")
        assert comparable > 0


class TestTypedErrors:
    @pytest.mark.parametrize("call, error, message", [
        (lambda train, val: label_informed_cost(train, val, np.ones((3, 2)), 1.0),
         DimensionMismatch, r"D has shape \(3, 2\), expected \(2, 3\)"),
        (lambda train, val: gdd_from_cost(np.ones((2, 3)), np.full(3, 1.0 / 3.0)),
         DimensionMismatch, r"weights have shape \(3,\), expected \(2,\)"),
        (lambda train, val: label_informed_cost(train, val, np.ones((2, 3)), True),
         ConfigInvalid, "^label weight c must be a real number, got True"),
        (lambda train, val: label_informed_cost(train, val, np.ones((2, 3)), None),
         ConfigInvalid, "^label weight c must be a real number, got None"),
        (lambda train, val: gdd_from_cost(np.zeros((4, 0))),
         EmptyDataset, r"cost of shape \(4, 0\) has no train rows or no val columns"),
        (lambda train, val: gdd_from_cost(np.zeros((0, 3))),
         EmptyDataset, r"cost of shape \(0, 3\) has no train rows or no val columns"),
        (lambda train, val: gdd_from_cost(np.zeros(3)),
         DimensionMismatch, r"cost must be 2-D, got shape \(3,\)"),
    ], ids=["cost-shape", "weights-shape", "c-bool", "c-none", "cost-without-columns",
            "cost-without-rows", "cost-not-2d"])
    def test_each_fault_raises_its_typed_error(self, rng, call, error, message):
        train, val = labeled(rng, [0, 1]), labeled(rng, [0, 1, 0])
        with pytest.raises(error, match=message):
            call(train, val)
