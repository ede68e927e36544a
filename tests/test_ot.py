import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.special import logsumexp

import gradate.ot as ot
from gradate import (AttributedGraph, LabeledGraphDataset, calibrate_duals,
                     degree_one_hot_features, great_select, solve_exact_ot, solve_sinkhorn)
from gradate.errors import DimensionMismatch, InfeasibleMarginals, NonConvergence, NumericalFailure
from gradate.fgw import FGWConfig, _QuadObjective
from gradate.pipeline import SelectionConfig
from gradate.ot import TransportSolution, _LinearStep, _logsumexp, as_cost_matrix

import oracles
from conftest import count_full_lps, count_lps, shifted_style_dtilde
from oracles import (
    brute_force_assignment,
    brute_force_ot,
    canonical_duals,
    is_optimal_dual,
    lp_vertex,
    random_rational_marginal,
    sinkhorn_coupling_per_sweep,
    unique_uniform_vertex,
    zero_mass_extension,
)


def check_solution(sol, cost, p, q, tol=1e-6):
    cost = np.asarray(cost, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    assert np.abs(sol.coupling.sum(axis=1) - p).max() <= tol
    assert np.abs(sol.coupling.sum(axis=0) - q).max() <= tol
    assert abs(np.sum(sol.coupling * cost) - sol.value) <= tol
    feas = sol.dual_source[:, None] + sol.dual_target[None, :] - cost
    assert feas.max() <= tol
    assert abs(p @ sol.dual_source + q @ sol.dual_target - sol.value) <= tol


class TestExactSolver:
    def test_single_point(self):
        sol = solve_exact_ot([[0.0]], [1.0], [1.0])
        assert sol.value == 0.0
        assert np.array_equal(sol.coupling, [[1.0]])

    def test_zero_cost_matching(self):
        cost = [[0.0, 1.0], [1.0, 0.0]]
        sol = solve_exact_ot(cost, [0.5, 0.5], [0.5, 0.5])
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.coupling, np.diag([0.5, 0.5]))
        check_solution(sol, cost, [0.5, 0.5], [0.5, 0.5])

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        cost = rng.random((4, 3))
        supplies = random_rational_marginal(rng, 4, 8)
        demands = random_rational_marginal(rng, 3, 8)
        p = supplies / 8.0
        q = demands / 8.0
        expected = brute_force_ot(cost, supplies, demands)
        sol = solve_exact_ot(cost, p, q)
        assert sol.value == pytest.approx(expected, abs=1e-10)
        check_solution(sol, cost, p, q)

    def test_rejects_non_simplex_marginal(self):
        with pytest.raises(InfeasibleMarginals):
            solve_exact_ot(np.zeros((2, 2)), [0.7, 0.7], [0.5, 0.5])
        with pytest.raises(InfeasibleMarginals):
            solve_exact_ot(np.zeros((2, 2)), [1.5, -0.5], [0.5, 0.5])
        # A NaN atom must not pass as zero mass.
        nan_p = [np.nan, 0.5, 0.5]
        with pytest.raises(InfeasibleMarginals, match="non-finite"):
            solve_exact_ot(np.ones((3, 2)), nan_p, [0.5, 0.5])
        with pytest.raises(InfeasibleMarginals, match="non-finite"):
            solve_sinkhorn(np.ones((3, 2)), nan_p, [0.5, 0.5], epsilon=0.1)

    def test_rejects_bad_cost(self):
        with pytest.raises(ValueError):
            as_cost_matrix([[np.inf, 0.0]])
        with pytest.raises(ValueError):
            as_cost_matrix([[-1.0, 0.0]])

    def test_zero_weight_atoms_are_reinserted(self):
        rng = np.random.default_rng(11)
        cost = rng.random((4, 3))
        p = np.array([0.5, 0.0, 0.5, 0.0])
        q = np.array([0.2, 0.0, 0.8])
        sol = solve_exact_ot(cost, p, q)
        assert np.all(sol.coupling[1] == 0) and np.all(sol.coupling[3] == 0)
        assert np.all(sol.coupling[:, 1] == 0)
        check_solution(sol, cost, p, q)
        # Reinserted duals: tightest reduced-cost-feasible values.
        feas = sol.dual_source[:, None] + sol.dual_target[None, :] - cost
        assert feas.max() <= 1e-9

    def test_symmetry_under_transpose(self, rng):
        cost = rng.random((5, 4))
        p = rng.random(5)
        p /= p.sum()
        q = rng.random(4)
        q /= q.sum()
        a = solve_exact_ot(cost, p, q)
        b = solve_exact_ot(cost.T, q, p)
        assert a.value == pytest.approx(b.value, abs=1e-9)

    @given(st.integers(min_value=0, max_value=2 ** 20),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_constant_shift_adds_kappa(self, seed, kappa):
        rng = np.random.default_rng(seed)
        cost = rng.random((3, 4))
        p = rng.random(3)
        p /= p.sum()
        q = rng.random(4)
        q /= q.sum()
        base = solve_exact_ot(cost, p, q).value
        shifted = solve_exact_ot(cost + kappa, p, q).value
        assert shifted == pytest.approx(base + kappa, abs=1e-8)

    def test_uniform_square_matches_assignment(self, rng):
        for n in (2, 4, 6):
            cost = rng.random((n, n))
            u = np.full(n, 1.0 / n)
            sol = solve_exact_ot(cost, u, u)
            assert sol.value * n == pytest.approx(brute_force_assignment(cost), abs=1e-8)

    def test_returns_a_basic_solution(self, rng):
        # A vertex of the transportation polytope has at most n + m - 1
        # nonzero entries.
        for _ in range(10):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            cost = rng.random((n, m))
            p = rng.random(n)
            p /= p.sum()
            q = rng.random(m)
            q /= q.sum()
            sol = solve_exact_ot(cost, p, q)
            assert np.count_nonzero(sol.coupling > 1e-12) <= n + m - 1


def _uniform(n):
    return np.full(n, 1.0 / n)


def _random_marginal(rng, size):
    v = rng.random(size) + 0.1
    return v / v.sum()


def _transport_a_eq(n, m):
    """The (n + m) x (n * m) equality constraints: row sums, then column sums."""
    rows = sparse.kron(sparse.eye(n), np.ones((1, m)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(m))
    return sparse.vstack([rows, cols]).tocsc()


def _linprog(cost, p, q):
    """`linprog(method="highs-ds")` on the positive-mass block, and that block's indices."""
    keep_i, keep_j = np.flatnonzero(p > 0), np.flatnonzero(q > 0)
    res = linprog(cost[np.ix_(keep_i, keep_j)].ravel(),
                  A_eq=_transport_a_eq(len(keep_i), len(keep_j)),
                  b_eq=np.concatenate([p[keep_i], q[keep_j]]),
                  bounds=(0, None), method="highs-ds")
    assert res.status == 0
    return res, keep_i, keep_j


class TestDirectHighs:
    """The direct HiGHS call against `linprog(method="highs-ds")`, bit for bit."""

    @staticmethod
    def assert_linprog_bits(cost, p, q):
        sol = solve_exact_ot(cost, p, q)
        res, keep_i, keep_j = _linprog(cost, p, q)
        ns = len(keep_i)
        assert np.array_equal(sol.coupling[np.ix_(keep_i, keep_j)].ravel(), res.x)
        assert np.count_nonzero(sol.coupling) == np.count_nonzero(res.x)
        assert np.array_equal(sol.dual_source[keep_i], res.eqlin.marginals[:ns])
        assert np.array_equal(sol.dual_target[keep_j], res.eqlin.marginals[ns:])
        assert sol.value == res.fun

    def test_outer_lp_with_zero_weight_rows(self, monkeypatch):
        # Certified by the grown-support path otherwise; pinned to the full LP.
        monkeypatch.setattr(ot, "_GROWN_MIN_CELLS", math.inf)
        rng = np.random.default_rng(21)
        p = np.zeros(300)
        kept = rng.choice(300, size=200, replace=False)
        p[kept] = _random_marginal(rng, 200)
        self.assert_linprog_bits(rng.random((300, 100)), p, _uniform(100))

    @pytest.mark.parametrize("shape", [(100, 33), (7, 2)])
    def test_label_table_shapes(self, shape, monkeypatch):
        # The class-pair LPs: uniform weights over the graphs of one class.
        # (100, 33) has gcd 1 and is certified otherwise; pinned to the full LP.
        # A shape with gcd > 1, such as (60, 20), is an assignment with
        # canonical duals: `TestCanonicalDuals`.
        monkeypatch.setattr(ot, "_GROWN_MIN_CELLS", math.inf)
        rng = np.random.default_rng(shape[0])
        cost = rng.random(shape) ** 2
        self.assert_linprog_bits(cost, _uniform(shape[0]), _uniform(shape[1]))

    def test_tied_integer_inner_lps(self):
        # Integer FW gradients tie often, so the vertex is HiGHS's choice.
        # The FGW step's full LP keeps linprog's vertex on every tie.
        rng = np.random.default_rng(13)
        for _ in range(60):
            n, m = (int(x) for x in rng.integers(2, 10, size=2))
            cost = rng.integers(0, 3, size=(n, m)).astype(float)
            p, q = _uniform(n), _uniform(m)
            assert np.array_equal(ot._full_lp_vertex(cost, p, q).ravel(),
                                  _linprog(cost, p, q)[0].x)

    def test_seeded_sweep_of_shapes_weights_and_ties(self):
        # Wide and tall LPs, zero-weight rows and columns, and integer costs
        # that tie: each one's vertex, duals and objective are linprog's.
        rng = np.random.default_rng(29)
        for t in range(200):
            n, m = (int(x) for x in rng.integers(1, 7, size=2))
            n, m = [(n, 6 * m + 20), (6 * n + 20, m), (n + m, m + 3), (n, m)][t % 4]
            if t % 3:
                cost = rng.integers(0, 3, size=(n, m)).astype(float)
            else:
                cost = rng.random((n, m))
            p, q = _random_marginal(rng, n), _uniform(m)
            if t % 5 == 0 and n > 1:
                p[rng.choice(n, size=n // 2, replace=False)] = 0.0
                p /= p.sum()
            if t % 7 == 0 and m > 1:
                q[: m // 3] = 0.0
                q /= q.sum()
            self.assert_linprog_bits(cost, p, q)

    def test_status_other_than_optimal_is_a_numerical_failure(self, monkeypatch):
        class Infeasible(ot._highspy._Highs):
            def getModelStatus(self):
                return HighsModelStatus.kInfeasible

        monkeypatch.setattr(ot._highspy, "_Highs", Infeasible)
        with pytest.raises(NumericalFailure, match="transportation LP failed: Infeasible"):
            solve_exact_ot(np.ones((2, 3)), _uniform(2), _uniform(3))


def assert_canonical_duals(sol, cost, plan=None):
    """`sol` meets the exact dual contract and its duals are the oracle's canonical point.

    `plan` is an optimal plan of the problem, `linprog`'s when None; the
    oracle reads it, and any optimal plan gives the same point. Every check
    holds to 1e-12 of max|cost|: feasibility, strong duality, tightness on
    the plan's support, and the calibrated duals of the positive atoms.
    """
    cost = np.asarray(cost, dtype=float)
    tol = 1e-12 * np.abs(cost).max()
    p, q = sol.coupling.sum(axis=1), sol.coupling.sum(axis=0)
    if plan is None:
        res, keep_i, keep_j = _linprog(cost, p, q)
        plan = np.zeros(cost.shape)
        plan[np.ix_(keep_i, keep_j)] = res.x.reshape(len(keep_i), len(keep_j))
    assert abs(p @ sol.dual_source + q @ sol.dual_target - sol.value) <= tol
    assert is_optimal_dual(cost, plan, sol.dual_source, sol.dual_target, tol)
    f, g = canonical_duals(cost, plan)
    keep_i, keep_j = p > 0, q > 0
    shift = sol.dual_source[keep_i].mean()
    assert np.abs(sol.dual_source[keep_i] - shift - f).max() <= tol
    assert np.abs(sol.dual_target[keep_j] + shift - g).max() <= tol


def _balanced_supplies(rng, n, m, half):
    """Integer supplies and demands, each summing to 2 * half, with equal first halves.

    The first n // 2 rows carry exactly the mass of the first m // 2
    columns. Equal partial sums make the transportation LP degenerate, so
    its optimal duals need not be unique.
    """
    parts = [random_rational_marginal(rng, k, half) for k in (n // 2, n - n // 2,
                                                              m // 2, m - m // 2)]
    return np.concatenate(parts[:2]), np.concatenate(parts[2:])


class TestCanonicalDuals:
    """The exact duals are the canonical optimal point, whatever plan the solver finds."""

    def test_seeded_uniform_problems_with_a_common_divisor(self):
        # Assignments and full LPs, with the plan checked against enumeration
        # where the problem is small.
        rng = np.random.default_rng(71)
        checked = 0
        for t in range(40):
            g, a, b = (int(x) for x in rng.integers(1, 5, size=3))
            n, m = g * a, g * b
            cost = rng.random((n, m)) if t % 2 else rng.integers(0, 3, size=(n, m)).astype(float)
            sol = solve_exact_ot(cost, _uniform(n), _uniform(m))
            assert_canonical_duals(sol, cost)
            L = math.lcm(n, m)
            if n * m <= 12:
                expected = brute_force_ot(cost, [L // n] * n, [L // m] * m)
                assert sol.value == pytest.approx(expected, abs=1e-12)
                checked += 1
        assert checked >= 5

    def test_label_table_shape_with_a_common_divisor(self, monkeypatch):
        # (60, 20) of `TestDirectHighs.test_label_table_shapes`: an assignment
        # on the 60 x 60 expansion; its value is linprog's to rounding.
        rng = np.random.default_rng(60)
        cost = rng.random((60, 20)) ** 2
        full = count_full_lps(monkeypatch)
        sol = solve_exact_ot(cost, _uniform(60), _uniform(20))
        res = _linprog(cost, _uniform(60), _uniform(20))[0]
        assert sol.value == pytest.approx(res.fun, abs=1e-15)
        assert np.array_equal(np.unique(sol.coupling), [0.0, 1 / 60])  # counts / L
        assert_canonical_duals(sol, cost)
        assert full == []

    def test_zero_mass_atoms(self):
        # Uniform on the positive atoms, so the restricted problem is an
        # assignment; the zero-mass atoms are extended from its duals.
        rng = np.random.default_rng(72)
        cost = rng.random((14, 9))
        p, q = np.zeros(14), np.zeros(9)
        p[rng.choice(14, size=8, replace=False)] = 1 / 8
        q[rng.choice(9, size=4, replace=False)] = 1 / 4
        sol = solve_exact_ot(cost, p, q)
        assert_canonical_duals(sol, cost)
        keep_i, keep_j = p > 0, q > 0
        want = zero_mass_extension(cost, p, q, solve_exact_ot(cost[np.ix_(keep_i, keep_j)],
                                                              p[keep_i], q[keep_j]))
        assert _solution_bits(sol.value, sol.coupling, sol.dual_source,
                              sol.dual_target) == _solution_bits(*want)

    def test_non_uniform_degenerate_problems(self, monkeypatch):
        # Equal partial sums: HiGHS's vertex may have a disconnected support.
        # The 40 x 30 ones fail the grown path's certificate first.
        rng = np.random.default_rng(73)
        full = count_full_lps(monkeypatch)
        for t in range(30):
            n, m = (40, 30) if t % 10 == 0 else (int(x) for x in rng.integers(2, 6, size=2))
            half = 60 if n == 40 else 4
            supplies, demands = _balanced_supplies(rng, n, m, half)
            cost = rng.random((n, m)) if t % 2 else rng.integers(0, 3, size=(n, m)).astype(float)
            sol = solve_exact_ot(cost, supplies / (2 * half), demands / (2 * half))
            assert_canonical_duals(sol, cost)
            if n * m <= 12:
                expected = brute_force_ot(cost, supplies, demands)
                assert sol.value == pytest.approx(expected, abs=1e-12)
        assert (40, 30) in full

    def test_the_assignment_and_the_full_lp_give_the_same_duals(self, monkeypatch):
        rng = np.random.default_rng(74)
        problems = []
        for _ in range(30):
            g, a, b = (int(x) for x in rng.integers(2, 6, size=3))
            cost = rng.random((g * a, g * b))
            problems.append((cost, _uniform(g * a), _uniform(g * b)))
        problems.append((shifted_style_dtilde(0), _uniform(300), _uniform(100)))
        assignments = [solve_exact_ot(*problem) for problem in problems]
        full = count_full_lps(monkeypatch)
        monkeypatch.setattr(ot, "_OUTER_ASSIGNMENT_MAX_EXPANSION", 0)
        for (cost, p, q), sol in zip(problems, assignments):
            lp = solve_exact_ot(cost, p, q)
            tol = 1e-12 * np.abs(cost).max()
            assert abs(lp.value - sol.value) <= tol
            a, b = calibrate_duals(sol), calibrate_duals(lp)
            assert np.abs(a.dual_source - b.dual_source).max() <= tol
            assert np.abs(a.dual_target - b.dual_target).max() <= tol
        assert len(full) == len(problems)

    def test_transposing_the_problem_swaps_the_duals(self):
        rng = np.random.default_rng(76)
        for n, m in [(6, 4), (30, 10), (8, 12)]:
            cost = rng.random((n, m))
            a = calibrate_duals(solve_exact_ot(cost, _uniform(n), _uniform(m)))
            b = solve_exact_ot(cost.T, _uniform(m), _uniform(n))
            shift = b.dual_target.mean()
            assert np.abs(a.dual_source - (b.dual_target - shift)).max() <= 1e-12
            assert np.abs(a.dual_target - (b.dual_source + shift)).max() <= 1e-12

    def test_a_plan_with_an_empty_atom_is_a_numerical_failure(self, monkeypatch):
        solve = ot._solve_transport_lp

        def emptied(c, b, n, m):
            x, duals, value = solve(c, b, n, m)
            x[:m] = 0.0  # row 0 sends nothing
            return x, duals, value

        monkeypatch.setattr(ot, "_solve_transport_lp", emptied)
        rng = np.random.default_rng(77)
        with pytest.raises(NumericalFailure, match="leaves an atom of positive mass empty"):
            solve_exact_ot(rng.random((4, 3)), _random_marginal(rng, 4), _uniform(3))


def _near_tie(rng):
    """A cost whose unique optimum has an off-support reduced cost of 1e-8."""
    cost = shifted_style_dtilde(1, 40, 30)
    p = _random_marginal(rng, 40)
    sol = solve_exact_ot(cost, p, _uniform(30))
    reduced = cost - sol.dual_source[:, None] - sol.dual_target[None, :]
    i, j = np.unravel_index(np.argmin(np.where(sol.coupling > 0, np.inf, reduced)), cost.shape)
    cost[i, j] -= reduced[i, j] - 1e-8
    return cost - min(cost.min(), 0.0), p, _uniform(30)


class TestCertifiedGrownLp:
    """The grown-support path against linprog and the brute-force oracle, and its fall-backs."""

    def test_matches_linprog_on_non_uniform_outer_lps(self, monkeypatch):
        full = count_full_lps(monkeypatch)
        runs = count_lps(monkeypatch)
        rng = np.random.default_rng(41)
        for t in range(6):
            p = _random_marginal(rng, 300)
            if t % 2:
                p[rng.choice(300, size=100, replace=False)] = 0.0
                p /= p.sum()
            cost, q = shifted_style_dtilde(t), _uniform(100)
            sol = solve_exact_ot(cost, p, q)
            res, keep_i, keep_j = _linprog(cost, p, q)
            ns = len(keep_i)
            assert abs(sol.value - res.fun) <= 1e-12
            assert np.abs(sol.coupling[np.ix_(keep_i, keep_j)].ravel() - res.x).max() <= 1e-12
            assert np.count_nonzero(sol.coupling) == ns + 100 - 1
            shift, ref_shift = sol.dual_source[keep_i].mean(), res.eqlin.marginals[:ns].mean()
            assert np.abs((sol.dual_source[keep_i] - shift)
                          - (res.eqlin.marginals[:ns] - ref_shift)).max() <= 1e-12
            assert np.abs((sol.dual_target + shift)
                          - (res.eqlin.marginals[ns:] + ref_shift)).max() <= 1e-12
            check_solution(sol, cost, p, q, tol=1e-12)
        assert full == []  # all certified
        assert len(runs) > 6  # and grown: more HiGHS runs than solves

    def test_matches_the_enumeration_oracle_at_small_sizes(self, monkeypatch):
        # Floor and starting support lowered, so that tiny LPs grow in rounds.
        monkeypatch.setattr(ot, "_GROWN_MIN_CELLS", 1)
        monkeypatch.setattr(ot, "_GROWN_START_CELLS", 1)
        full = count_full_lps(monkeypatch)
        runs = count_lps(monkeypatch)
        rng = np.random.default_rng(43)
        certified = 0
        for t in range(40):
            n, m = (int(x) for x in rng.integers(2, 5, size=2))
            supplies = random_rational_marginal(rng, n, 9)
            demands = random_rational_marginal(rng, m, 9)
            cost = rng.random((n, m))
            lps = len(full)
            sol = solve_exact_ot(cost, supplies / 9, demands / 9)
            certified += len(full) == lps
            assert sol.value == pytest.approx(brute_force_ot(cost, supplies, demands), abs=1e-12)
            check_solution(sol, cost, supplies / 9, demands / 9, tol=1e-12)
        assert certified >= 10 and len(full) >= 5  # both outcomes are checked
        assert len(runs) - len(full) > certified  # some solves grew

    @pytest.mark.parametrize("case", ["uniform-gcd", "equal-rows", "near-tie", "round-cap",
                                      "not-optimal"])
    def test_fall_backs_return_the_linprog_bits(self, case, monkeypatch):
        rng = np.random.default_rng(47)
        cost, p, q = shifted_style_dtilde(0, 60, 30), _random_marginal(rng, 60), _uniform(30)
        if case == "uniform-gcd":
            # 30 of the 60 rows balance 15 of the 30 columns: not attempted.
            p = _uniform(60)
        elif case == "equal-rows":
            # Each copy of the row outweighs a column, so the two split their
            # mass over shared or tied columns: never a unique tree.
            cost[1] = cost[0]
            p[:2] = 0.1
            p[2:] *= 0.8 / p[2:].sum()
        elif case == "near-tie":
            cost, p, q = _near_tie(rng)
        elif case == "round-cap":
            monkeypatch.setattr(ot, "_GROWN_MAX_ROUNDS", 1)
        else:
            run_highs = ot._run_highs
            monkeypatch.setattr(ot, "_run_highs",
                                lambda highs: highs.getNumCol() == 60 * 30 and run_highs(highs))
        full = count_full_lps(monkeypatch)
        runs = count_lps(monkeypatch)
        if case == "uniform-gcd":
            # Taken off the assignment route; the plan and value are the full
            # LP's, the duals the canonical point of its disconnected support.
            monkeypatch.setattr(ot, "_OUTER_ASSIGNMENT_MAX_EXPANSION", 0)
            sol, (res, _, _) = solve_exact_ot(cost, p, q), _linprog(cost, p, q)
            assert np.array_equal(sol.coupling.ravel(), res.x) and sol.value == res.fun
            assert_canonical_duals(sol, cost)
        else:
            TestDirectHighs.assert_linprog_bits(cost, p, q)
        assert len(full) == 1
        # The full LP runs after at least one grown run, unless none was attempted.
        assert (len(runs) == 1) == (case == "uniform-gcd")

    def test_a_tree_model_that_is_not_optimal_is_a_numerical_failure(self, monkeypatch):
        # The certified tree's answer is built and run as the full LP is, so
        # a failed run raises as the full LP's does, with no fall-back.
        rng = np.random.default_rng(47)
        cost, p, q = shifted_style_dtilde(0, 60, 30), _random_marginal(rng, 60), _uniform(30)
        full = count_full_lps(monkeypatch)
        solve_exact_ot(cost, p, q)
        assert full == []  # certified
        original, tree_models = ot._run_highs, []

        def run_highs(highs):
            if highs.getNumCol() == 60 + 30 - 1:  # the tree model fails
                tree_models.append(highs)
                return False
            return original(highs)

        monkeypatch.setattr(ot, "_run_highs", run_highs)
        with pytest.raises(NumericalFailure, match="transportation LP failed"):
            solve_exact_ot(cost, p, q)
        assert len(tree_models) == 1 and full == []


class TestNorthWestCorner:
    """The north-west-corner cells: the np.union1d formula's, without numpy.ma."""

    @staticmethod
    def _numpy_north_west_corner(p, q):
        # The plan's cells as computed with np.union1d.
        P, Q = np.cumsum(p), np.cumsum(q)
        edges = np.union1d([0.0], np.concatenate([P, Q]))
        mid = 0.5 * (edges[:-1] + edges[1:])
        rows = np.minimum(np.searchsorted(P, mid, side="right"), len(p) - 1)
        cols = np.minimum(np.searchsorted(Q, mid, side="right"), len(q) - 1)
        return rows * len(q) + cols

    def test_cumulative_sums_with_shared_breakpoints(self):
        # A shared breakpoint repeats a cell; the set of cells is the formula's.
        rng = np.random.default_rng(59)
        cases = [([.25, .25, .5], [.5, .5]), ([.5, .5], [.25, .25, .5]), ([1.0], [.5, .5]),
                 ([.125] * 8, [.25] * 4), (_uniform(6), _uniform(4)),
                 (_random_marginal(rng, 9), _random_marginal(rng, 7))]
        for p, q in cases:
            p, q = np.asarray(p), np.asarray(q)
            assert (set(ot._north_west_corner(p, q).tolist())
                    == set(self._numpy_north_west_corner(p, q).tolist()))
        # Rows [0, .25), [.25, .5), [.5, 1) against columns [0, .5), [.5, 1).
        assert set(ot._north_west_corner(np.array([.25, .25, .5]), np.array([.5, .5])).tolist()) \
            == {0, 2, 5}


def _next_great_solve(seed, n, m):
    """A cost, the weights of two consecutive GREAT steps on it, and the solution at the first.

    That solution is the `start` GREAT passes to its solve at the second.
    """
    cost, q = shifted_style_dtilde(seed, n, m), _uniform(m)
    before, p = (it.weights for it in great_select(cost, 0.5, 4, 1e-3)[1].iterations[:2])
    return cost, p, q, solve_exact_ot(cost, before, q)


class TestGrowthRule:
    """Each grown round adds every cell of negative reduced cost outside the model."""

    def test_each_round_adds_every_violated_cell_in_flat_order(self, monkeypatch):
        # GREAT's steps after the first start from the step before's duals.
        models = {}  # id of each HiGHS instance: (instance, its cost, its events)
        add_cells, run_highs = ot._add_cells, ot._run_highs

        def added(highs, c, cells, n, m):
            models.setdefault(id(highs), (highs, c.reshape(n, m), []))[2].append(cells.copy())
            add_cells(highs, c, cells, n, m)

        def ran(highs):
            optimal = run_highs(highs)
            _, cost, events = models[id(highs)]
            duals = np.array(highs.getSolution().row_dual)
            n = len(cost)
            events.append(cost - duals[:n, None] - duals[None, n:])
            return optimal

        monkeypatch.setattr(ot, "_add_cells", added)
        monkeypatch.setattr(ot, "_run_highs", ran)
        great_select(shifted_style_dtilde(0), 0.2, 10, 1e-4)
        grown = 0
        for _, cost, events in models.values():
            adds, runs = events[0::2], events[1::2]
            assert len(adds) == len(runs)  # add, run, add, run, ...
            in_model = np.zeros(cost.size, dtype=bool)
            for cells, reduced, grown_cells in zip(adds, runs, adds[1:]):
                in_model[cells] = True
                outside = np.where(in_model, np.inf, reduced.ravel())
                assert np.array_equal(grown_cells, np.flatnonzero(outside < 0))
                grown += 1
        assert grown > 0


class TestAnswerDependsOnTheProblemAlone:
    """A certified solve's bytes against every start and starting support."""

    @pytest.mark.parametrize("seed, n, m", [(0, 60, 30), (1, 45, 20), (2, 100, 33)])
    def test_any_start_gives_the_same_bytes(self, monkeypatch, seed, n, m):
        cost, p, q, previous = _next_great_solve(seed, n, m)
        assert cost.size >= ot._GROWN_MIN_CELLS
        full = count_full_lps(monkeypatch)
        runs = count_lps(monkeypatch)
        answers, models = [], []
        starts = {"none": None, "previous": previous,
                  "zero duals": TransportSolution(0.0, None, np.zeros(n), np.zeros(m)),
                  "4 start cells": None}
        for name, start in starts.items():
            if name == "4 start cells":
                monkeypatch.setattr(ot, "_GROWN_START_CELLS", 4)
            sol = solve_exact_ot(cost, p, q, start)
            answers.append(_solution_bits(sol.value, sol.coupling, sol.dual_source,
                                          sol.dual_target))
            models.append(runs[:])
            runs.clear()
        assert full == []  # every solve certified
        assert answers == [answers[0]] * 4
        assert len({tuple(model) for model in models}) > 1  # with different rounds

    def test_a_start_from_the_previous_step_cuts_the_first_runs_iterations(self, monkeypatch):
        # The tree of least reduced cost under the previous duals is a dual
        # feasible basis, so the first run repairs only the moved masses.
        cost, p, q, previous = _next_great_solve(0, 60, 30)
        iterations = []
        run_highs = ot._run_highs

        def counted(highs):
            optimal = run_highs(highs)
            iterations.append(highs.getInfo().simplex_iteration_count)
            return optimal

        monkeypatch.setattr(ot, "_run_highs", counted)
        first = []
        for start in (None, previous):
            iterations.clear()
            solve_exact_ot(cost, p, q, start)
            first.append(iterations[0])
        assert first[1] * 3 < first[0]

    def test_the_start_column_duals_are_never_read(self, monkeypatch):
        # The first cells are ranked by the start's row duals alone, so
        # column duals that are all NaN give the same rounds and bytes.
        cost, p, q, previous = _next_great_solve(0, 60, 30)
        blind = TransportSolution(previous.value, previous.coupling, previous.dual_source,
                                  np.full_like(previous.dual_target, np.nan))
        runs = count_lps(monkeypatch)
        answers, models = [], []
        for start in (previous, blind):
            sol = solve_exact_ot(cost, p, q, start)
            answers.append(_solution_bits(sol.value, sol.coupling, sol.dual_source,
                                          sol.dual_target))
            models.append(runs[:])
            runs.clear()
        assert len(models[0]) > 1  # grown rounds and the tree model
        assert answers[0] == answers[1] and models[0] == models[1]

    def test_start_row_duals_of_another_length_are_a_dimension_mismatch(self, monkeypatch):
        # 31 x 20 has gcd 1, so the solve takes the grown path that reads a start.
        cost, p, q = shifted_style_dtilde(0, 31, 20), _uniform(31), _uniform(20)
        start = TransportSolution(0.0, None, np.zeros(30), np.zeros(20))
        with pytest.raises(DimensionMismatch, match=r"start row duals have shape \(30,\)"):
            solve_exact_ot(cost, p, q, start)
        runs = count_lps(monkeypatch)
        answers, models = [], []
        for g in (np.zeros(20), np.zeros(19), np.zeros(0), np.zeros(21)):
            sol = solve_exact_ot(cost, p, q, TransportSolution(0.0, None, np.zeros(31), g))
            answers.append(_solution_bits(sol.value, sol.coupling, sol.dual_source,
                                          sol.dual_target))
            models.append(runs[:])
            runs.clear()
        assert answers == [answers[0]] * 4 and models == [models[0]] * 4

    def test_sinkhorn_ignores_start(self):
        cost, p, q = shifted_style_dtilde(0, 30, 20), _uniform(30), _uniform(20)
        sol = solve_sinkhorn(cost, p, q, 0.5)
        hinted = solve_sinkhorn(cost, p, q, 0.5, start=sol)
        assert (_solution_bits(hinted.value, hinted.coupling, hinted.dual_source,
                               hinted.dual_target)
                == _solution_bits(sol.value, sol.coupling, sol.dual_source, sol.dual_target))


def _degree_feature_gradient():
    # FGW gradient at the product coupling between a 5-path and a 4-cycle
    # with degree one-hot features: every entry is 0.5 or 1.5.
    path = AttributedGraph.from_edges(5, [(i, i + 1) for i in range(4)])
    cycle = AttributedGraph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
    g1, g2 = degree_one_hot_features(LabeledGraphDataset([path, cycle], [0, 0])).graphs
    obj = _QuadObjective([g1], g2, FGWConfig())
    return obj.gradient(obj.contract(np.outer(obj.p, obj.q)[None]))[0]


def _certified_vertex(lp_fallbacks, cost, p, q):
    """The planned linear step's vertex of `cost` if its assignment certified it, else None."""
    lp_fallbacks.clear()
    vertex = _LinearStep(p, q).solve(cost[None])[0][0]
    return None if lp_fallbacks else vertex


class TestUniformAssignmentVertex:
    """The FGW step's assignment path against the LP and the brute-force oracle."""

    def test_certified_coupling_matches_the_lp_and_the_oracle(self, lp_fallbacks):
        rng = np.random.default_rng(8)
        certified = oracle_checked = 0
        for _ in range(300):
            n, m = (int(x) for x in rng.integers(1, 13, size=2))
            cost = rng.standard_normal((n, m))  # FW gradients can be negative
            p, q = _uniform(n), _uniform(m)
            T = _certified_vertex(lp_fallbacks, cost, p, q)
            if T is None:
                continue
            certified += 1
            assert np.abs(T - lp_vertex(cost, p, q)).max() <= 1e-14
            L = np.lcm(n, m)
            if L <= 12 and n * m <= 12:
                expected = brute_force_ot(cost, [L // n] * n, [L // m] * m)
                assert float(np.sum(T * cost)) == pytest.approx(expected, abs=1e-12)
                oracle_checked += 1
        assert certified >= 290 and oracle_checked >= 10

    @pytest.mark.parametrize("name", ["constant", "duplicated_rows", "degree_features"])
    def test_ties_fall_back_to_the_lp_vertex_bit_for_bit(self, name, lp_fallbacks):
        rng = np.random.default_rng(3)
        cost = {
            "constant": np.full((4, 6), 0.7),
            "duplicated_rows": np.repeat(rng.standard_normal((3, 5)), 2, axis=0),
            "degree_features": _degree_feature_gradient(),
        }[name]
        p, q = _uniform(cost.shape[0]), _uniform(cost.shape[1])
        assert _certified_vertex(lp_fallbacks, cost, p, q) is None
        assert np.array_equal(_LinearStep(p, q).solve(cost[None])[0][0], lp_vertex(cost, p, q))

    def test_integer_costs_take_either_path_with_the_lp_coupling(self, monkeypatch,
                                                                 lp_fallbacks):
        # Small integer costs tie often and in every way: equal rows, a
        # support with a cycle, and tied vertices only the certificate
        # finds. Which check refused a cost shows in whether the step ran
        # its one assignment and whether it reached the certificate.
        assignments, certificates = [], []
        lsap, certificate = ot._lsap.linear_sum_assignment, ot._unique_optimum
        monkeypatch.setattr(ot._lsap, "linear_sum_assignment",
                            lambda cost: assignments.append(cost.shape) or lsap(cost))
        monkeypatch.setattr(ot, "_unique_optimum", lambda costs, support: certificates.append(
            len(costs)) or certificate(costs, support))
        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(300):
            n, m = (int(x) for x in rng.integers(2, 10, size=2))
            cost = rng.integers(-2, 3, size=(n, m)).astype(float)
            p, q = _uniform(n), _uniform(m)
            assignments.clear()
            certificates.clear()
            T = _certified_vertex(lp_fallbacks, cost, p, q)
            outcomes.add((T is not None, len(assignments), len(certificates)))
            ref = lp_vertex(cost, p, q)
            if T is None:
                assert np.array_equal(_LinearStep(p, q).solve(cost[None])[0][0], ref)
            else:
                assert np.abs(T - ref).max() <= 1e-14
        # Accepted; equal rows or columns; a cycle; a tie.
        assert outcomes == {(True, 1, 1), (False, 0, 0), (False, 1, 0), (False, 1, 1)}

    def test_non_uniform_weights_and_large_lcm_fall_back(self, lp_fallbacks):
        rng = np.random.default_rng(4)
        cost = rng.standard_normal((4, 5))
        p = np.array([0.1, 0.2, 0.3, 0.4])
        assert _certified_vertex(lp_fallbacks, cost, p, _uniform(5)) is None
        assert np.array_equal(_LinearStep(p, _uniform(5)).solve(cost[None])[0][0],
                              lp_vertex(cost, p, _uniform(5)))
        n, m = 16, 9  # lcm 144
        assert np.lcm(n, m) > ot._ASSIGNMENT_MAX_LCM
        cost = rng.standard_normal((n, m))
        assert _certified_vertex(lp_fallbacks, cost, _uniform(n), _uniform(m)) is None
        assert np.lcm(14, m) <= ot._ASSIGNMENT_MAX_LCM  # lcm 126
        assert _certified_vertex(lp_fallbacks, cost[:14], _uniform(14), _uniform(m)) is not None


class TestPlannedStepMatchesTheReference:
    """The planned linear step against the straight-line `unique_uniform_vertex`.

    Each planned step must return the reference's vertex, bit for bit, and
    fall back to the full LP exactly where the reference returns None, after
    the same check: the step runs one assignment where the reference runs
    one or two, and hands the plan to its certificate, `_unique_optimum`,
    exactly where the reference runs its second, raised assignment.
    """

    @pytest.fixture(autouse=True)
    def _spies(self, monkeypatch, lp_fallbacks):
        self.fallbacks = lp_fallbacks
        self.assignments = {ot._lsap: 0, oracles: 0}
        for module in self.assignments:
            def counted(cost, module=module, lsap=module.linear_sum_assignment):
                self.assignments[module] += 1
                return lsap(cost)
            monkeypatch.setattr(module, "linear_sum_assignment", counted)
        self.certified = []
        certificate = ot._unique_optimum
        monkeypatch.setattr(ot, "_unique_optimum", lambda costs, support: self.certified.append(
            len(costs)) or certificate(costs, support))

    def assert_same_decisions(self, costs, p, q) -> int:
        """Check each cost; return how many of them the assignment certified."""
        step = _LinearStep(p, q)
        certified = 0
        for cost in costs:
            self.fallbacks.clear()
            self.certified.clear()
            self.assignments.update({ot._lsap: 0, oracles: 0})
            vertex = step.solve(cost[None])[0][0]
            expected = unique_uniform_vertex(cost, p, q)
            assert (expected is None) == bool(self.fallbacks)
            assert self.assignments[ot._lsap] == min(self.assignments[oracles], 1)
            assert self.certified == [1] * (self.assignments[oracles] == 2)
            if expected is not None:
                assert np.array_equal(vertex, expected)
                certified += 1
        return certified

    def test_random_normal_costs(self):
        rng = np.random.default_rng(61)
        certified = 0
        for _ in range(150):
            n, m = (int(x) for x in rng.integers(1, 13, size=2))
            costs = [rng.standard_normal((n, m)) for _ in range(2)]
            certified += self.assert_same_decisions(costs, _uniform(n), _uniform(m))
        assert certified >= 280

    def test_small_integer_costs(self):
        rng = np.random.default_rng(62)
        certified = 0
        for _ in range(150):
            n, m = (int(x) for x in rng.integers(2, 10, size=2))
            costs = [rng.integers(-2, 3, size=(n, m)).astype(float) for _ in range(2)]
            certified += self.assert_same_decisions(costs, _uniform(n), _uniform(m))
        assert 0 < certified < 300

    def test_degree_feature_gradient(self):
        cost = _degree_feature_gradient()
        p, q = _uniform(cost.shape[0]), _uniform(cost.shape[1])
        assert self.assert_same_decisions([cost, -cost, 2.0 * cost], p, q) == 0

    def test_shapes_up_to_the_lcm_cap(self):
        # Every lcm L from 1 to 126 as (1, L) and as the smallest n < m of
        # lcm L, both ways round; some squares; then shapes above the cap.
        rng = np.random.default_rng(63)
        shapes = {(6, 6), (42, 42), (126, 126), (16, 9), (9, 16), (127, 1), (1, 127)}
        for L in range(1, ot._ASSIGNMENT_MAX_LCM + 1):
            smallest = next(((n, m) for m in range(2, L + 1) for n in range(1, m)
                             if math.lcm(n, m) == L), (1, L))
            shapes |= {(1, L), (L, 1), smallest, smallest[::-1]}
        certified = 0
        for n, m in sorted(shapes):
            costs = [rng.standard_normal((n, m)), rng.integers(0, 3, size=(n, m)).astype(float)]
            certified += self.assert_same_decisions(costs, _uniform(n), _uniform(m))
        assert certified >= len(shapes)  # of 2 * len(shapes) costs

    def test_non_uniform_weights(self):
        rng = np.random.default_rng(64)
        p, q = _random_marginal(rng, 5), _uniform(4)
        costs = [rng.standard_normal((5, 4)) for _ in range(3)]
        assert self.assert_same_decisions(costs, p, q) == 0


class TestPreviousVertex:
    """`_LinearStep.solve` re-certifies the step before's certified vertices on the new costs.

    A re-certified vertex is returned as it is, with no assignment; the
    others take the fresh step's path. Either way each vertex and flag has
    the bits of a step that is given no previous stack.
    """

    @staticmethod
    def _mixed_stack(rng, n, m):
        """Costs that certify, with two equal rows, of small integers (ties, cycles), then signed."""
        equal = rng.standard_normal((n, m))
        equal[1] = equal[0]
        return np.stack([rng.standard_normal((n, m)), rng.standard_normal((n, m)), equal,
                         rng.integers(-2, 3, size=(n, m)).astype(float),
                         rng.integers(0, 2, size=(n, m)).astype(float)])

    @staticmethod
    def _next(rng, costs, scale):
        """The next stack: each cost nudged by `scale`, cost 1 given two equal rows."""
        nxt = costs + scale * rng.standard_normal(costs.shape)
        nxt[1, 1] = nxt[1, 0]
        return nxt

    @staticmethod
    def assert_same_bits(step, costs, previous, before_again=lambda: None):
        """`step.solve` of `costs` with `previous`, checked against the solve without it."""
        fresh = step.solve(costs)
        before_again()
        again = step.solve(costs, *previous)
        assert np.array_equal(again[0], fresh[0]) and np.array_equal(again[1], fresh[1])
        return again

    @pytest.mark.parametrize("shape", [(6, 7), (4, 6), (9, 14), (5, 5), (2, 63)],
                             ids=lambda shape: "%dx%d" % shape)
    def test_a_previous_stack_changes_no_bit(self, shape, monkeypatch):
        assignments = []
        lsap = ot._lsap.linear_sum_assignment
        monkeypatch.setattr(ot._lsap, "linear_sum_assignment",
                            lambda cost: assignments.append(cost.shape) or lsap(cost))
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        n, m = shape
        step = _LinearStep(_uniform(n), _uniform(m))
        reused = refused = 0
        for scale in (0.0, 1e-9, 1e-3, 0.3, 3.0):
            costs = self._mixed_stack(rng, n, m)
            previous = step.solve(costs)
            assert previous[1][0]  # a Gaussian cost certifies
            nxt = self._next(rng, costs, scale)
            vertices, certified = self.assert_same_bits(step, nxt, previous, assignments.clear)
            kept = previous[1] & certified & (vertices == previous[0]).all(axis=(1, 2))
            # Every cost that is not a re-certified vertex runs its assignment, or,
            # with equal rows, goes to the LP without one.
            assert len(assignments) <= len(nxt) - kept.sum()
            reused += kept.sum()
            refused += (previous[1] & ~kept).sum()
            assert not certified[1]  # two equal rows: never the old vertex
        # Small nudges keep a vertex, large ones move it, beyond the equal rows.
        assert reused >= 3 and refused > 5

    def test_weights_of_the_lp_path_reuse_nothing(self, monkeypatch, lp_fallbacks):
        certificates = []
        certificate = ot._unique_optimum
        monkeypatch.setattr(ot, "_unique_optimum", lambda costs, support: certificates.append(
            len(costs)) or certificate(costs, support))
        rng = np.random.default_rng(81)
        for p, q in [(_random_marginal(rng, 6), _uniform(7)), (_uniform(16), _uniform(9))]:
            step = _LinearStep(p, q)
            costs = rng.standard_normal((3, len(p), len(q)))
            previous = step.solve(costs)
            assert not previous[1].any()
            lp_fallbacks.clear()
            self.assert_same_bits(step, costs, previous)
            assert len(lp_fallbacks) == 2 * len(costs)
        assert certificates == []

    def test_a_vertex_of_the_lp_is_never_reused(self, monkeypatch, lp_fallbacks):
        # A stack flagged as not certified is never read: NaN vertices
        # change nothing, on the same costs or on costs that would certify.
        rng = np.random.default_rng(82)
        step = _LinearStep(_uniform(5), _uniform(7))
        tied = np.stack([np.full((5, 7), 0.5), _planted_cycle(rng, 5, 7, 1 / 8)[0]])
        _, certified = step.solve(tied)
        assert not certified.any() and len(lp_fallbacks) == 2
        for costs in (tied, rng.standard_normal((2, 5, 7))):
            lp_fallbacks.clear()
            fresh = step.solve(costs)
            again = step.solve(costs, np.full(costs.shape, np.nan), certified)
            assert np.array_equal(again[0], fresh[0]) and np.array_equal(again[1], fresh[1])
            assert len(lp_fallbacks) == 2 * int((~fresh[1]).sum())
        # A certified vertex on an unchanged cost runs no assignment and no LP.
        costs = rng.standard_normal((2, 5, 7))
        previous = step.solve(costs)
        assert previous[1].all()
        lp_fallbacks.clear()
        monkeypatch.setattr(ot._lsap, "linear_sum_assignment", None)
        again = step.solve(costs, *previous)
        assert again[0] is not previous[0] and np.array_equal(again[0], previous[0])
        assert again[1].all() and lp_fallbacks == []


def _planted_cycle(rng, n, m, gap):
    """A uniform (n, m) cost, gcd(n, m) = 1, with a known optimal tree and one near rival.

    The cost is u[i] + v[j] + r[i, j] for random potentials u, v: r is 0 on
    the support of the optimal vertex of a random cost, a spanning tree, and
    1 to 2 elsewhere, except at the cell whose cycle through the tree is
    longest, where it is `gap` times delta = `_CERTIFICATE_MARGIN` *
    max(1, max|cost|). Moving mass around that cycle costs `gap` * delta per
    unit; every other cycle costs at least 1. Returns the cost, the tree's
    support and the cycle's length in cells.
    """
    support = lp_vertex(rng.standard_normal((n, m)), _uniform(n), _uniform(m)) > 0
    assert support.sum() == n + m - 1
    # Tree distances from each row to each column, in cells.
    neighbours = [[] for _ in range(n + m)]
    for i, j in zip(*np.nonzero(support)):
        neighbours[i].append(n + j)
        neighbours[n + j].append(i)
    hops = np.empty((n, m), dtype=int)
    for i in range(n):
        depth, frontier = {i: 0}, [i]
        while frontier:
            reached = []
            for a in frontier:
                for b in neighbours[a]:
                    if b not in depth:
                        depth[b] = depth[a] + 1
                        reached.append(b)
            frontier = reached
        hops[i] = [depth[n + j] for j in range(m)]
    cycle = np.where(support, -1, hops)
    cell = np.unravel_index(np.argmax(cycle), cycle.shape)
    r = np.where(support, 0.0, 1.0 + rng.random((n, m)))
    r[cell] = 0.0
    cost = rng.uniform(-3, 3, n)[:, None] + rng.uniform(-3, 3, m)[None, :] + r
    delta = ot._CERTIFICATE_MARGIN * max(1.0, float(np.abs(cost).max()))
    cost[cell] += gap * delta  # delta moves by a relative 1e-6 at most
    return cost, support, int(cycle[cell]) + 1


class TestCertificate:
    """`_unique_optimum` on planted near-ties: accepted plans are the LP's vertex."""

    # Coprime shapes, so each optimum is a spanning tree, up to lcm 126.
    SHAPES = [(2, 3), (3, 5), (5, 8), (7, 9), (10, 11), (9, 13), (14, 9), (9, 14), (2, 63),
              (63, 2)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "%dx%d" % shape)
    def test_planted_cycle_gaps(self, shape, lp_fallbacks):
        # A cycle dearer by delta / 8 is refused, one dearer by delta / 2 or
        # 2 delta is not; where the gap is clear of delta / 2 the raised
        # assignment of `unique_uniform_vertex` decides alike.
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        n, m = shape
        p, q = _uniform(n), _uniform(m)
        for gap, accepted in [(1 / 8, False), (1 / 2, True), (2, True)]:
            for _ in range(3):
                cost, support, _ = _planted_cycle(rng, n, m, gap)
                T = _certified_vertex(lp_fallbacks, cost, p, q)
                assert (T is not None) is accepted
                if gap != 1 / 2:
                    assert (unique_uniform_vertex(cost, p, q) is not None) is accepted
                # A stack of the plan twice decides as the stack of one.
                twice = ot._unique_optimum(np.stack([cost, cost]), np.stack([support] * 2))
                assert twice.tolist() == [accepted] * 2
                if accepted:
                    assert np.array_equal(T > 0, support)
                    assert np.abs(T - lp_vertex(cost, p, q)).max() <= 1e-14

    def test_long_cycles_in_one_stack(self):
        # Problems of every gap in one call: each one's decision is its own.
        rng = np.random.default_rng(73)
        costs, supports, alone = [], [], []
        for gap in (1 / 8, 2, 1 / 8, 2, 1 / 2):
            cost, support, length = _planted_cycle(rng, 9, 14, gap)
            assert length >= 10
            costs.append(cost)
            supports.append(support)
            alone.append(bool(ot._unique_optimum(cost[None], support[None])[0]))
        together = ot._unique_optimum(np.stack(costs), np.stack(supports))
        assert together.tolist() == alone
        assert alone == [False, True, False, True, True]


class TestSinkhorn:
    def test_constant_cost_any_epsilon(self):
        for eps in (1.0, 0.1, 0.01):
            sol = solve_sinkhorn(np.full((3, 5), 2.5), np.full(3, 1 / 3),
                                 np.full(5, 0.2), epsilon=eps)
            assert sol.value == pytest.approx(2.5, abs=1e-9)

    def test_small_epsilon_approaches_exact(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = np.array([0.5, 0.5])
        sol = solve_sinkhorn(cost, u, u, epsilon=0.01)
        assert abs(sol.value - 0.0) <= 0.05

    def test_epsilon_ladder_monotone(self, rng):
        cost = rng.random((5, 5))
        p = rng.random(5)
        p /= p.sum()
        q = rng.random(5)
        q /= q.sum()
        exact = solve_exact_ot(cost, p, q).value
        values = [solve_sinkhorn(cost, p, q, epsilon=eps).value
                  for eps in (1.0, 0.3, 0.1, 0.03, 0.01)]
        for hi, lo in zip(values, values[1:]):
            assert hi >= lo - 1e-9
        assert values[-1] == pytest.approx(exact, abs=0.1 * cost.max())
        assert all(v >= exact - 1e-9 for v in values)

    def test_random_8x8_within_a_tenth_of_the_cost_scale(self, rng, monkeypatch):
        # At epsilon = 0.01 * mean(cost) the entropic value stays within
        # 0.1 * max(cost) of the exact one. Convergence is slow at this
        # epsilon, so the marginal tolerance is relaxed; the value bound is
        # what matters.
        monkeypatch.setattr(ot, "SINKHORN_MAX_ITER", 50_000)
        monkeypatch.setattr(ot, "SINKHORN_TOL", 1e-6)
        for _ in range(5):
            cost = rng.random((8, 8))
            p = rng.random(8)
            p /= p.sum()
            q = rng.random(8)
            q /= q.sum()
            exact = solve_exact_ot(cost, p, q).value
            approx = solve_sinkhorn(cost, p, q, epsilon=0.01 * cost.mean()).value
            assert abs(approx - exact) <= 0.1 * cost.max()

    def test_marginals_within_tolerance(self, rng, monkeypatch):
        cost = rng.random((6, 4))
        p = rng.random(6)
        p /= p.sum()
        q = rng.random(4)
        q /= q.sum()
        monkeypatch.setattr(ot, "SINKHORN_TOL", 1e-10)
        sol = solve_sinkhorn(cost, p, q, epsilon=0.05)
        assert np.abs(sol.coupling.sum(axis=1) - p).max() <= 1e-9
        assert np.abs(sol.coupling.sum(axis=0) - q).max() <= 1e-9

    def test_nonconvergence_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        cost = rng.random((8, 8))
        p = rng.random(8)
        p /= p.sum()
        q = rng.random(8)
        q /= q.sum()
        monkeypatch.setattr(ot, "SINKHORN_MAX_ITER", 2)
        monkeypatch.setattr(ot, "SINKHORN_TOL", 1e-12)
        with pytest.raises(NonConvergence):
            solve_sinkhorn(cost, p, q, epsilon=0.001)

    @pytest.mark.parametrize("seed, shape, scale, epsilon, uniform", [
        (0, (180, 60), 20.0, 0.5, True),
        (1, (30, 30), 1.0, 0.003, False),
        (3, (50, 20), 2.0, 0.01, False),
        (6, (12, 9), 1.0, 0.005, False),
    ])
    def test_same_bits_and_sweeps_as_testing_the_coupling(self, seed, shape, scale,
                                                          epsilon, uniform, monkeypatch):
        rng = np.random.default_rng(seed)
        cost = scale * rng.random(shape)
        n, m = shape
        if uniform:
            p, q = _uniform(n), _uniform(m)
        else:
            p, q = _random_marginal(rng, n), _random_marginal(rng, m)
        f, g, pi, sweeps = sinkhorn_coupling_per_sweep(cost, p, q, epsilon)
        monkeypatch.setattr(ot, "SINKHORN_MAX_ITER", sweeps)
        sol = solve_sinkhorn(cost, p, q, epsilon)
        assert np.array_equal(sol.coupling, pi)
        assert np.array_equal(sol.dual_source, f)
        assert np.array_equal(sol.dual_target, g)
        assert sol.value == float(np.sum(pi * cost))
        monkeypatch.setattr(ot, "SINKHORN_MAX_ITER", sweeps - 1)
        with pytest.raises(NonConvergence):
            solve_sinkhorn(cost, p, q, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, np.nan, np.inf])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            solve_sinkhorn(np.ones((2, 2)), _uniform(2), _uniform(2), epsilon)

    def test_zero_atoms_supported(self):
        cost = np.array([[0.0, 2.0], [1.0, 0.5], [3.0, 1.0]])
        p = np.array([0.5, 0.0, 0.5])
        q = np.array([0.5, 0.5])
        sol = solve_sinkhorn(cost, p, q, epsilon=0.1)
        assert np.all(sol.coupling[1] == 0)
        assert np.isfinite(sol.dual_source).all()

    def test_zero_mass_source_and_target_atoms_are_reinserted(self):
        # The case of TestExactSolver.test_zero_weight_atoms_are_reinserted.
        rng = np.random.default_rng(11)
        cost = rng.random((4, 3))
        p = np.array([0.5, 0.0, 0.5, 0.0])
        q = np.array([0.2, 0.0, 0.8])
        sol = solve_sinkhorn(cost, p, q, epsilon=0.1)
        assert np.all(sol.coupling[[1, 3]] == 0) and np.all(sol.coupling[:, 1] == 0)
        rows, cols = [0, 2], [0, 2]
        reduced = solve_sinkhorn(cost[np.ix_(rows, cols)], p[rows], q[cols], epsilon=0.1)
        assert np.array_equal(sol.coupling[np.ix_(rows, cols)], reduced.coupling)
        assert np.array_equal(sol.dual_source[rows], reduced.dual_source)
        assert np.array_equal(sol.dual_target[cols], reduced.dual_target)
        assert np.isfinite(sol.dual_source).all() and np.isfinite(sol.dual_target).all()

    @pytest.mark.parametrize("epsilon", [1e-30, 1e-17, 1e-13])
    def test_a_plan_whose_columns_miss_q_raises(self, epsilon):
        # The exact optimum is 5.25. At these epsilons (g - C) / eps saturates
        # the f-update, so the row-sum stopping test reads 0 while the columns
        # miss q. Unchecked, the plan at 1e-17 is infeasible and its value 4.25.
        cost = np.array([[6.7, 6.5], [6.2, 3.8]])
        with pytest.raises(NonConvergence, match="misses the target marginal"):
            solve_sinkhorn(cost, _uniform(2), _uniform(2), epsilon)


def _zero_mass_problem(case, seed):
    """A cost with zero-mass rows, columns or both, and its restriction to the positive atoms.

    "grown" has 1,200 positive cells and non-uniform p, so its exact solve
    takes the grown-support path; the others take the full LP.
    """
    rng = np.random.default_rng(seed)
    n, m = (48, 30) if case == "grown" else (9, 7)
    cost = rng.random((n, m)) * 3.0
    p, q = _random_marginal(rng, n), _random_marginal(rng, m)
    if case in ("rows", "both", "grown"):
        p[rng.choice(n, size=n // 6 + 1, replace=False)] = 0.0
    if case in ("columns", "both", "grown"):
        q[rng.choice(m, size=m // 5 + 1, replace=False)] = 0.0
    p, q = p / p.sum(), q / q.sum()
    rows, cols = np.flatnonzero(p > 0), np.flatnonzero(q > 0)
    return cost, p, q, (cost[np.ix_(rows, cols)], p[rows], q[cols])


def _solution_bits(value, coupling, dual_source, dual_target):
    return tuple(np.asarray(x, dtype=np.float64).tobytes()
                 for x in (value, coupling, dual_source, dual_target))


class TestZeroMassExtension:
    """Both solvers against the straight-line extension of `oracles`, bit for bit."""

    CASES = ["rows", "columns", "both", "grown"]
    SOLVERS = {"exact": (solve_exact_ot, None),
               "sinkhorn": (lambda c, a, b: solve_sinkhorn(c, a, b, 0.3), 0.3)}

    @pytest.mark.parametrize("solver", ["exact", "sinkhorn"])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_coupling_and_duals_match_the_oracle(self, solver, case, seed):
        solve, epsilon = self.SOLVERS[solver]
        cost, p, q, restricted = _zero_mass_problem(case, seed)
        want = zero_mass_extension(cost, p, q, solve(*restricted), epsilon)
        sol = solve(cost, p, q)
        assert _solution_bits(sol.value, sol.coupling, sol.dual_source,
                              sol.dual_target) == _solution_bits(*want)

    def test_the_grown_case_takes_the_grown_path(self, monkeypatch):
        cost, p, q, _ = _zero_mass_problem("grown", 0)
        full = count_full_lps(monkeypatch)
        solve_exact_ot(cost, p, q)
        assert full == []

    @pytest.mark.parametrize("solver", ["exact", "sinkhorn"])
    @pytest.mark.parametrize("case", CASES)
    def test_a_cache_hit_matches_the_oracle(self, tmp_path, monkeypatch, solver, case):
        solve, epsilon = self.SOLVERS[solver]
        cost, p, q, restricted = _zero_mass_problem(case, 3)
        value, _, beta, psi = zero_mass_extension(cost, p, q, solve(*restricted), epsilon)
        cached = SelectionConfig(tau=0.5, solver=solver, epsilon=0.3).ot_solver(tmp_path)
        cached(cost, p, q)
        runs = count_lps(monkeypatch)
        hit = cached(cost, p, q)
        assert runs == [] and hit.coupling is None
        assert (_solution_bits(hit.value, 0.0, hit.dual_source, hit.dual_target)
                == _solution_bits(value, 0.0, beta, psi))


class TestLogsumexp:
    """Sinkhorn's log-sum-exp against `scipy.special.logsumexp`, bit for bit."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_random_arrays_with_ties_and_magnitudes(self, axis):
        rng = np.random.default_rng(31 + axis)
        for t in range(150):
            shape = (int(rng.integers(1, 90)), int(rng.integers(1, 90)))
            shape = [shape, (1, shape[1]), (shape[0], 1)][t % 3]
            scale = 10.0 ** rng.uniform(-1, 4)
            a = scale * rng.standard_normal(shape)
            if t % 2:
                a = scale * np.round(2 * a / scale)  # many tied maxima
            assert np.array_equal(_logsumexp(a, axis), logsumexp(a, axis=axis))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_entries_give_scipys_result(self, axis):
        a = np.array([[-np.inf, -np.inf, 1.0, np.inf],
                      [-np.inf, 2.0, -np.inf, np.inf]])
        a = a if axis == 1 else a.T
        assert np.array_equal(_logsumexp(a, axis), logsumexp(a, axis=axis))
        everywhere_minus_inf = np.full((2, 3), -np.inf)
        assert np.array_equal(_logsumexp(everywhere_minus_inf, axis),
                              logsumexp(everywhere_minus_inf, axis=axis))


class TestCalibration:
    def test_constant_vector_goes_to_zero(self):
        sol = solve_exact_ot(np.ones((3, 3)), np.full(3, 1 / 3), np.full(3, 1 / 3))
        base = sol.__class__(sol.value, sol.coupling, np.array([1.0, 1.0, 1.0]),
                             sol.dual_target)
        assert np.allclose(calibrate_duals(base).dual_source, 0.0)

    def test_two_point_example(self):
        sol = solve_exact_ot(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5])
        base = sol.__class__(sol.value, sol.coupling, np.array([2.0, 0.0]),
                             np.array([0.0, 0.0]))
        cal = calibrate_duals(base)
        assert np.allclose(cal.dual_source, [1.0, -1.0])
        assert np.allclose(cal.dual_target, [1.0, 1.0])

    @given(st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=25, deadline=None)
    def test_calibration_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        cost = rng.random((n, m))
        p = rng.random(n)
        p /= p.sum()
        q = rng.random(m)
        q /= q.sum()
        sol = solve_exact_ot(cost, p, q)
        cal = calibrate_duals(sol)
        assert abs(cal.dual_source.sum()) <= 1e-9
        assert np.array_equal(cal.coupling, sol.coupling)
        assert cal.value == sol.value
        # Feasibility and strong duality survive the shift.
        check_solution(cal, cost, p, q)
