import importlib
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import gradate.great as great_module
import gradate.ot as ot
from gradate import (LabeledGraphDataset, gdd_from_cost, gdd_gradient, great_select,
                     lava_select, sparsity_schedule)
from gradate.errors import ConfigInvalid, DimensionMismatch, EmptyDataset
from gradate.great import floor_budget, validate_weights
from gradate.pipeline import SelectionConfig
from gradate.ot import TransportSolution

from conftest import count_full_lps, path_graph, shifted_style_dtilde
from oracles import great_loop, simplex_central_difference


def random_weights(rng, n):
    w = rng.random(n) + 0.1
    return w / w.sum()


class TestSparsitySchedule:
    def test_early_iterations_keep_full_support(self):
        assert sparsity_schedule(100, 0.2, 10, 1) == 100

    def test_hand_derived_value(self):
        # max(0.2, 2/9 + 0.2 * 9/9) = 0.42222..., times 100, floored.
        assert sparsity_schedule(100, 0.2, 10, 9) == 42

    def test_tau_one_requests_no_sparsification(self):
        for t in (1, 4, 9):
            assert sparsity_schedule(64, 1.0, 10, t) == 64

    def test_non_increasing_in_t(self):
        ks = [sparsity_schedule(100, 0.2, 10, t) for t in range(1, 10)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_never_below_ceil_n_tau(self):
        for t in range(1, 10):
            assert sparsity_schedule(337, 0.2, 10, t) >= 68

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            sparsity_schedule(10, 0.0, 10, 1)
        with pytest.raises(ConfigInvalid):
            sparsity_schedule(10, 0.5, 1, 1)
        with pytest.raises(ConfigInvalid):
            sparsity_schedule(10, 0.5, 10, 10)

    @pytest.mark.parametrize("args, message", [
        ((10, 0.5, 2.5, 1), "^T must be an integer"),
        ((10, 0.5, 3.0, 1), "^T must be an integer"),
        ((10, 0.5, 10, 1.5), "^t must be an integer"),
        ((10, True, 10, 1), "^tau must be a real number"),
    ], ids=["T-float", "T-integral-float", "t-float", "tau-bool"])
    def test_settings_of_the_wrong_type_are_rejected(self, args, message):
        with pytest.raises(ConfigInvalid, match=message):
            sparsity_schedule(*args)

    def test_float_dust_does_not_shift_the_budget(self):
        assert floor_budget(100, 0.2) == 20
        assert floor_budget(337, 0.2) == 67
        assert floor_budget(10, 0.1) == 1


class TestGddGradient:
    def test_symmetric_optimum_has_zero_gradient(self, rng):
        D = rng.random((5, 5))
        D = (D + D.T) / 2
        np.fill_diagonal(D, 0.0)
        grad = gdd_gradient(D, np.full(5, 0.2))
        assert np.allclose(grad, 0.0, atol=1e-9)

    def test_single_atom_gradient_is_zero(self):
        grad = gdd_gradient(np.array([[1.0, 2.0]]), np.array([1.0]))
        assert np.array_equal(grad, [0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        dtilde = rng.random((5, 4))
        for _ in range(10):
            w = random_weights(rng, 5)
            grad = gdd_gradient(dtilde, w)

            def value_at(v):
                return gdd_from_cost(dtilde, v)[0]

            fd = simplex_central_difference(value_at, w, h=1e-5)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) <= 1e-3

    def test_gradient_sums_to_zero(self, rng):
        for _ in range(10):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            dtilde = rng.random((n, m))
            grad = gdd_gradient(dtilde, random_weights(rng, n))
            assert abs(grad.sum()) <= 1e-9

    def test_zero_weight_atoms_are_ranked(self, rng):
        dtilde = rng.random((4, 3))
        dtilde[2] += 10.0  # atom 2 is clearly bad
        w = np.array([0.5, 0.5, 0.0, 0.0])
        grad = gdd_gradient(dtilde, w)
        assert np.isfinite(grad).all()
        assert grad[2] == max(grad)

    def test_first_order_lower_bound_on_the_simplex(self):
        # The OT value is convex piecewise-linear in the weights, so the
        # calibrated dual is a subgradient: values dominate the linearization.
        rng = np.random.default_rng(23)
        dtilde = rng.random((6, 5))
        for _ in range(5):
            w = random_weights(rng, 6)
            base = gdd_from_cost(dtilde, w)[0]
            grad = gdd_gradient(dtilde, w)
            delta = rng.standard_normal(6)
            delta -= delta.mean()
            delta /= np.abs(delta).max() * 4  # stay inside the simplex
            for s in (1e-4, 1e-3):
                moved = gdd_from_cost(dtilde, w + s * delta)[0]
                assert moved >= base + s * float(grad @ delta) - 1e-6


class TestGreatSelect:
    def test_tau_one_keeps_everything(self, rng):
        dtilde = rng.random((6, 4))
        selected, trace = great_select(dtilde, tau=1.0, T=5, eta=1e-3)
        assert list(selected) == list(range(6))
        for it in trace.iterations:
            validate_weights(it.weights)

    def test_eta_zero_reduces_to_schedule_behavior(self, rng):
        dtilde = rng.random((10, 4))
        selected, trace = great_select(dtilde, tau=0.3, T=6, eta=0.0)
        assert list(selected) == [0, 1, 2]
        final = trace.final_weights
        assert np.allclose(final[selected], 1.0 / 3.0)

    def test_simplex_preserved_every_iteration(self, rng):
        dtilde = rng.random((12, 5))
        _, trace = great_select(dtilde, tau=0.25, T=8, eta=0.05)
        for it in trace.iterations:
            validate_weights(it.weights)

    def test_support_sizes_non_increasing_and_capped_by_schedule(self, rng):
        dtilde = rng.random((20, 6))
        _, trace = great_select(dtilde, tau=0.2, T=10, eta=0.01)
        sizes = [it.support_size for it in trace.iterations]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        for it in trace.iterations:
            assert it.support_size <= sparsity_schedule(20, 0.2, 10, it.t)

    def test_final_support_is_floor_n_tau(self, rng):
        for n, tau in ((20, 0.2), (13, 0.4), (7, 1.0)):
            dtilde = rng.random((n, 5))
            selected, trace = great_select(dtilde, tau=tau, T=6, eta=0.01)
            assert len(selected) == floor_budget(n, tau)
            assert list(selected) == sorted(set(int(i) for i in selected))
            assert np.array_equal(np.flatnonzero(trace.final_weights), selected)

    def test_two_cluster_selection_prefers_the_near_cluster(self):
        rng = np.random.default_rng(3)
        n_a, n_b, m = 10, 10, 6
        # Cluster A sits on top of the validation support, cluster B far away.
        D_a = 0.1 * rng.random((n_a, m))
        D_b = 2.0 + 0.1 * rng.random((n_b, m))
        dtilde = np.vstack([D_a, D_b])
        selected, trace = great_select(dtilde, tau=0.5, T=10, eta=1e-3)
        frac_a = np.mean(selected < n_a)
        assert frac_a >= 0.9
        uniform_gdd = trace.iterations[0].gdd_value
        assert trace.final_gdd <= uniform_gdd + 1e-9

    def test_validation_errors(self, rng):
        dtilde = rng.random((4, 3))
        with pytest.raises(ConfigInvalid):
            great_select(dtilde, tau=0.0, T=5, eta=0.1)
        with pytest.raises(ConfigInvalid):
            great_select(dtilde, tau=0.5, T=1, eta=0.1)
        with pytest.raises(ConfigInvalid):
            great_select(dtilde, tau=0.5, T=5, eta=-1.0)
        for eta in (np.nan, np.inf):
            with pytest.raises(ConfigInvalid, match="eta must be finite"):
                great_select(dtilde, tau=0.5, T=5, eta=eta)
        with pytest.raises(ConfigInvalid):
            great_select(rng.random((3, 2)), tau=0.2, T=5, eta=0.1)

    @pytest.mark.parametrize("tau, T, eta, message", [
        (0.5, 2.5, 1e-4, "^T must be an integer"),
        (0.5, 3.0, 1e-4, "^T must be an integer"),
        (0.5, True, 1e-4, "^T must be an integer"),
        (True, 5, 1e-4, "^tau must be a real number"),
        ("0.5", 5, 1e-4, "^tau must be a real number"),
        (0.5, 5, True, "^eta must be a real number"),
        (0.5, 5, None, "^eta must be a real number"),
    ], ids=["T-float", "T-integral-float", "T-bool", "tau-bool", "tau-string", "eta-bool",
            "eta-none"])
    def test_settings_of_the_wrong_type_are_rejected(self, rng, tau, T, eta, message):
        # The rule SelectionConfig applies: a ConfigInvalid that names the field.
        with pytest.raises(ConfigInvalid, match=message):
            great_select(rng.random((6, 3)), tau, T, eta)

    @pytest.mark.parametrize("w, budget, message", [
        ([0.6, 0.6, -0.2], None, "nonnegative"),
        ([0.5, 0.4, 0.0], None, "sum to"),
        ([0.5, 0.25, 0.25], 2, "support 3 exceeds budget 2"),
    ], ids=["negative", "sum", "budget"])
    def test_validate_weights_names_each_fault(self, w, budget, message):
        with pytest.raises(ConfigInvalid, match=message):
            validate_weights(w, budget)

    @pytest.mark.parametrize("call", [lambda d: great_select(d, 0.5, 3, 1e-4),
                                      lambda d: gdd_gradient(d, None)],
                             ids=["great_select", "gdd_gradient"])
    def test_a_cost_without_columns_is_empty_dataset(self, call):
        with pytest.raises(EmptyDataset, match=r"cost of shape \(4, 0\) has no train rows"):
            call(np.zeros((4, 0)))

    @pytest.mark.parametrize("call", [lambda d: great_select(d, 0.5, 3, 1e-4),
                                      lambda d: gdd_gradient(d, None)],
                             ids=["great_select", "gdd_gradient"])
    def test_a_cost_that_is_not_2d_is_a_dimension_mismatch(self, call):
        with pytest.raises(DimensionMismatch, match=r"cost must be 2-D, got shape \(3,\)"):
            call(np.zeros(3))

    def test_a_cost_without_rows_is_empty_dataset_before_tau_is_read(self):
        # floor(0 * tau) = 0 would otherwise blame tau for an empty cost.
        with pytest.raises(EmptyDataset, match=r"cost of shape \(0, 3\) has no train rows"):
            great_select(np.zeros((0, 3)), 0.5, 3, 1e-4)

    def test_a_zero_budget_names_n_and_tau(self, rng):
        # The message every selector gives, great_select called directly too.
        with pytest.raises(ConfigInvalid, match=r"floor\(3 \* 0\.2\) = 0; nothing would be selected"):
            great_select(rng.random((3, 2)), tau=0.2, T=5, eta=0.1)

    def test_validate_weights_rejects_nan(self):
        with pytest.raises(ConfigInvalid, match="finite"):
            validate_weights([np.nan, 0.5, 0.5])

    def test_annihilating_update_recovers_and_is_recorded(self, rng, monkeypatch):
        # Reachable only with uncalibrated gradients; force it by stubbing
        # the calibration to return a large all-positive dual vector.
        dtilde = rng.random((6, 4))

        def fake_calibrate(sol):
            return TransportSolution(sol.value, sol.coupling,
                                     np.full(len(sol.dual_source), 1e9),
                                     sol.dual_target)

        monkeypatch.setattr(great_module, "calibrate_duals", fake_calibrate)
        selected, trace = great_select(dtilde, tau=0.5, T=4, eta=1.0)
        assert any(it.recovered for it in trace.iterations)
        for it in trace.iterations:
            validate_weights(it.weights)
        assert len(selected) == 3

    def test_trace_rows_expose_t_gdd_support(self, rng):
        dtilde = rng.random((8, 3))
        _, trace = great_select(dtilde, tau=0.5, T=4, eta=0.01)
        rows = trace.rows()
        assert [r[0] for r in rows] == [1, 2, 3]
        assert all(len(r) == 3 for r in rows)


class TestStraightLineReference:
    """great_select against `oracles.great_loop`, which shares no code with it, bit for bit."""

    @staticmethod
    def assert_same_bits(dtilde, tau, T, eta, calibrate=ot.calibrate_duals):
        selected, trace = great_select(dtilde, tau, T, eta)
        steps, final_weights, final_gdd = great_loop(dtilde, tau, T, eta, calibrate)
        assert len(trace.iterations) == len(steps)
        for it, (weights, value, recovered) in zip(trace.iterations, steps):
            assert it.weights.tobytes() == weights.tobytes()
            assert repr(it.gdd_value) == repr(value)
            assert it.recovered is recovered
        assert trace.final_weights.tobytes() == final_weights.tobytes()
        assert repr(trace.final_gdd) == repr(final_gdd)
        assert np.array_equal(selected, np.flatnonzero(final_weights))
        return trace

    @pytest.mark.parametrize("seed", range(8))
    def test_random_costs(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(10, 40)), int(rng.integers(2, 12))
        tau = (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7, 1.0)[seed]
        T = int(rng.integers(2, 12))
        eta = float(10.0 ** rng.uniform(-4, 0))
        self.assert_same_bits(rng.random((n, m)), tau, T, eta)

    @pytest.mark.parametrize("eta", [0.0, 1e-3, 0.5])
    def test_weights_with_ties(self, rng, eta):
        # Repeated rows of small integer costs give equal weights, which the
        # top-k step must break by index; eta = 0 keeps every weight tied.
        dtilde = np.repeat(rng.integers(0, 3, size=(12, 5)).astype(float), 4, axis=0)
        trace = self.assert_same_bits(dtilde, 0.3, 8, eta)
        assert any(len(np.unique(it.weights[it.weights > 0])) < it.support_size
                   for it in trace.iterations)

    def test_the_forced_recovery(self, rng, monkeypatch):
        # The stub of test_annihilating_update_recovers_and_is_recorded.
        def fake_calibrate(sol):
            return TransportSolution(sol.value, sol.coupling,
                                     np.full(len(sol.dual_source), 1e9),
                                     sol.dual_target)

        monkeypatch.setattr(great_module, "calibrate_duals", fake_calibrate)
        trace = self.assert_same_bits(rng.random((6, 4)), 0.5, 4, 1.0, fake_calibrate)
        assert any(it.recovered for it in trace.iterations)

    def test_warm_started_certified_solves(self, monkeypatch):
        # 60 x 30 is above the grown path's floor: every solve after the
        # uniform first one is certified and started from the one before.
        starts = []
        # `gradate.gdd` as a module: the package attribute is the `gdd` function.
        monkeypatch.setattr(importlib.import_module("gradate.gdd"), "solve_exact_ot",
                            lambda cost, p, q, start=None: starts.append(start is not None)
                            or ot.solve_exact_ot(cost, p, q, start))
        full = count_full_lps(monkeypatch)
        self.assert_same_bits(shifted_style_dtilde(0, 60, 30), 0.5, 6, 1e-3)
        assert 60 * 30 >= ot._GROWN_MIN_CELLS
        assert starts == [False] + [True] * 5
        # great_select's first solve and the oracle's are uniform with gcd 30:
        # assignments, not full LPs.
        assert full == []


class TestCertifiedOuterSolves:
    """GREAT's reweighted outer LPs on the grown-support path, against the full LP."""

    def test_reweighted_solves_are_certified_and_select_the_same(self, monkeypatch):
        dtilde = shifted_style_dtilde(0)
        full = count_full_lps(monkeypatch)
        selected, trace = great_select(dtilde, tau=0.2, T=10, eta=1e-4)
        # The first solve has uniform weights (gcd(300, 100) > 1) and is an
        # assignment. Solves 2..T and the final one are certified, except
        # the one at 233 rows, whose tree has a mass of 4.5e-7, below
        # `_CERTIFICATE_MARGIN`.
        assert full == [(233, 100)]
        monkeypatch.setattr(ot, "_GROWN_MIN_CELLS", math.inf)
        ref_selected, ref = great_select(dtilde, tau=0.2, T=10, eta=1e-4)
        assert len(full) == 1 + 9
        assert np.array_equal(selected, ref_selected)
        for it, ref_it in zip(trace.iterations, ref.iterations):
            assert np.abs(it.weights - ref_it.weights).max() <= 1e-12
            assert it.gdd_value == pytest.approx(ref_it.gdd_value, rel=1e-12, abs=0)
        assert np.abs(trace.final_weights - ref.final_weights).max() <= 1e-12
        assert trace.final_gdd == pytest.approx(ref.final_gdd, rel=1e-12, abs=0)

    def test_devex_and_steepest_edge_rounds_select_the_same_bits(self, monkeypatch):
        # The grown rounds price by Devex; a certified answer is read from
        # the tree model, so dual steepest-edge rounds give the same bits.
        dtilde = shifted_style_dtilde(0)

        def run():
            solutions, certified = [], []
            grown = ot._certified_grown_lp

            def spy(*args):
                result = grown(*args)
                certified.append(result is not None)
                return result

            def solver(cost, p, q, start=None):
                solutions.append(ot.solve_exact_ot(cost, p, q, start=start))
                return solutions[-1]

            with monkeypatch.context() as patch:
                patch.setattr(ot, "_certified_grown_lp", spy)
                selected, trace = great_select(dtilde, tau=0.2, T=10, eta=1e-4, solver=solver)
            assert sum(certified) >= 8
            return (selected.tobytes(), trace.final_weights.tobytes(),
                    [(s.dual_source.tobytes(), s.dual_target.tobytes()) for s in solutions])

        assert ot._grown_options().simplex_dual_edge_weight_strategy == 1  # Devex
        devex = run()
        steepest_edge = ot._dual_simplex_options()
        steepest_edge.simplex_dual_edge_weight_strategy = 2
        monkeypatch.setattr(ot, "_grown_options", lambda: steepest_edge)
        assert run() == devex

    def test_rounds_with_presolve_off_make_the_same_runs(self, monkeypatch):
        # Every grown round starts from a set basis, so HiGHS skips presolve
        # there: the rounds' options need no presolve switch of their own.
        dtilde = shifted_style_dtilde(0, 300, 100)

        def run():
            iterations = []
            run_highs = ot._run_highs

            def counted(highs):
                optimal = run_highs(highs)
                iterations.append(highs.getInfo().simplex_iteration_count)
                return optimal

            with monkeypatch.context() as patch:
                patch.setattr(ot, "_run_highs", counted)
                selected, trace = great_select(dtilde, tau=0.2, T=10, eta=1e-4)
            return selected.tobytes(), trace.final_weights.tobytes(), len(iterations), \
                sum(iterations)

        assert ot._grown_options().presolve == "on"
        with_presolve = run()
        presolve_off = ot._dual_simplex_options()
        presolve_off.presolve = "off"
        presolve_off.simplex_dual_edge_weight_strategy = 1  # Devex
        monkeypatch.setattr(ot, "_grown_options", lambda: presolve_off)
        assert run() == with_presolve


def _two_domain_style_dtilde(seed):
    """A 120 x 20 cost shaped like two_domain's: 60 train points near the val points, 60 away."""
    rng = np.random.default_rng(seed)
    train = np.concatenate([rng.standard_normal((60, 3)), rng.standard_normal((60, 3)) + 1.5])
    return cdist(train, rng.standard_normal((20, 3)), "sqeuclidean")


def _lava_indices(cost):
    """`lava_select`'s indices on a given cost; the splits only give it their sizes."""
    n, m = cost.shape
    train, val = (LabeledGraphDataset([path_graph(2)] * k, [0] * k) for k in (n, m))
    return lava_select(train, val, SelectionConfig(tau=0.2), dtilde=cost).indices


class TestTheOrderOfTheOuterAtoms:
    """Permuting the val columns or the train rows of the outer cost changes no selection.

    The uniform outer solve of both costs is degenerate (gcd(n, m) > 1), so
    its optimal duals are not unique; the canonical point does not depend on
    which optimal plan a solver finds for one order or the other.
    """

    COSTS = {"shifted": lambda: shifted_style_dtilde(0),
             "two_domain": lambda: _two_domain_style_dtilde(0)}

    @pytest.mark.parametrize("axis", ["val", "train"])
    @pytest.mark.parametrize("name", ["shifted", "two_domain"])
    def test_a_permutation_changes_no_gradient_and_no_selection(self, name, axis):
        cost = self.COSTS[name]()
        n, m = cost.shape
        order = np.random.default_rng(5).permutation(n if axis == "train" else m)
        permuted = cost[order] if axis == "train" else cost[:, order]
        rows = order if axis == "train" else np.arange(n)  # row r of `permuted` is rows[r]

        grad, permuted_grad = gdd_gradient(cost, None), np.empty(n)
        permuted_grad[rows] = gdd_gradient(permuted, None)
        assert np.abs(permuted_grad - grad).max() <= 1e-12 * np.abs(cost).max()
        ranking = np.argsort(grad, kind="stable")
        assert np.array_equal(rows[np.argsort(gdd_gradient(permuted, None), kind="stable")],
                              ranking)
        assert sorted(rows[list(_lava_indices(permuted))]) == list(_lava_indices(cost))
        selected = great_select(cost, tau=0.2, T=10, eta=1e-4)[0]
        permuted_selected = great_select(permuted, tau=0.2, T=10, eta=1e-4)[0]
        assert np.array_equal(np.sort(rows[permuted_selected]), selected)

    def test_no_uniform_solve_is_a_full_lp_at_600_by_200(self, monkeypatch):
        # The uniform first solve is an assignment. Full LPs of this shape
        # still run for reweighted solves that keep all 600 rows and fail
        # the certificate.
        uniform = []
        solve = ot._solve_transport_lp
        monkeypatch.setattr(ot, "_solve_transport_lp", lambda c, b, n, m: uniform.append(
            bool(np.all(b[:n] == b[0]))) or solve(c, b, n, m))
        great_select(shifted_style_dtilde(0, 600, 200), tau=0.2, T=10, eta=1e-4)
        assert not any(uniform)
