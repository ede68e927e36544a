"""Discrete optimal transport between weighted point sets.

Two solvers share one result type: an exact transportation-LP solver that
also returns optimal dual potentials, and an entropic (Sinkhorn) solver with
log-domain potentials. The exact duals are the gradient carrier used by the
selection loop, so their feasibility and strong duality are part of the
contract here, not an afterthought. Every exact LP runs HiGHS's dual simplex,
called directly through scipy's private bindings with the options of
`linprog(method="highs-ds")` and the model as NumPy buffers, without
`linprog`'s per-call Python overhead. It takes one of two paths:

- the LP path: one run on the full model `linprog` would pass, which returns
  `linprog`'s bits;
- the certified path, `_certified_grown_lp`: for `solve_exact_ot`'s LPs
  above a measured size, runs on a support grown by violated reduced costs,
  whose result is kept only when it is certified to be the unique optimum,
  and so equals the LP path's vertex, calibrated duals and value to
  rounding. The FGW inner step solves through `_exact_ot` with this path
  off, so its couplings, and so D, keep `linprog`'s bits at every size.

Sinkhorn's log-sum-exp is `_logsumexp`, scipy 1.17's arithmetic in plain
NumPy, so its bits no longer depend on the installed scipy.

The FGW linear step also has a private assignment path for uniform weights,
`_unique_uniform_vertex`, which returns a coupling only when it is certified
to be the unique optimum and so the LP's vertex.

The package calls three compiled scipy functions, and `_scipy_extension`
loads their extension modules straight from scipy's directory:
`scipy.optimize._lsap` (`linear_sum_assignment`),
`scipy.optimize._highspy._core` (HiGHS) and
`scipy.spatial._distance_pybind` (`cdist_euclidean`, what
`cdist(X, Y)` runs, used by `fgw`). Importing them through
`scipy.optimize` and `scipy.spatial` would run those packages' `__init__`s,
which load scipy.linalg, scipy.sparse, scipy.special and more: 0.65 s of
the 0.82 s an `import gradate` took, and 36 MB of a warm CLI command's
80 MB peak RSS. These private paths are those of scipy 1.17.1, and the
package is built against scipy >=1.17,<1.18 (pyproject.toml); a release
that moves one makes the import fail with an ImportError naming it.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import module_from_spec

import numpy as np
# np.unique imports numpy.ma on its first call: load it with the package,
# not inside the first solve.
import numpy.ma  # noqa: F401
import scipy

from .errors import InfeasibleMarginals, NonConvergence, NumericalFailure


def _scipy_extension(name: str):
    """The compiled scipy module `name`, loaded without running its packages' `__init__`.

    A module already in `sys.modules` is returned as it is. A fresh one is
    found in its directory under scipy's and registered under `name`, so a
    later `import scipy.optimize` reuses it rather than loading a pybind11
    module twice. Raises ImportError when `name` is not a compiled module
    there; it never falls back to the package import.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    path = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:-1])
    spec = PathFinder.find_spec(name, [path])
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        raise ImportError(
            f"no compiled module {name} in scipy {scipy.__version__} at {path}", name=name
        )
    module = module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


linear_sum_assignment = _scipy_extension("scipy.optimize._lsap").linear_sum_assignment
_highspy = _scipy_extension("scipy.optimize._highspy._core")
HighsModelStatus, HighsOptions, _Highs, kHighsInf = (
    _highspy.HighsModelStatus, _highspy.HighsOptions, _highspy._Highs, _highspy.kHighsInf
)

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class TransportSolution:
    """An OT solution: objective value, primal coupling and dual potentials.

    For the exact solver the duals satisfy beta[i] + psi[j] <= cost[i, j]
    and strong duality p @ beta + q @ psi == value. For Sinkhorn they are the
    converged log-domain potentials. Both solvers return the coupling; the
    cached solver of `SelectionConfig.ot_solver` keeps none and returns None.
    """

    value: float
    coupling: np.ndarray | None
    dual_source: np.ndarray
    dual_target: np.ndarray


def as_cost_matrix(values) -> np.ndarray:
    """Validate and return a dense nonnegative finite cost matrix."""
    cost = np.asarray(values, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
    if (cost < 0).any():
        raise ValueError("cost matrix entries must be nonnegative")
    return cost


def _check_marginal(v, size: int, name: str) -> np.ndarray:
    """`v` as a probability vector, dust below 0 clipped; also checks node weights."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (size,):
        raise InfeasibleMarginals(f"{name} has shape {v.shape}, expected ({size},)")
    if not np.isfinite(v).all():
        raise InfeasibleMarginals(f"{name} has non-finite entries")
    if (v < -SIMPLEX_TOL).any():
        raise InfeasibleMarginals(f"{name} has negative entries")
    if abs(v.sum() - 1.0) > SIMPLEX_TOL:
        raise InfeasibleMarginals(f"{name} sums to {v.sum()!r}, expected 1")
    return np.maximum(v, 0.0)


def solve_exact_ot(cost, p, q) -> TransportSolution:
    """Exact OT(p, q, cost) via the transportation linear program.

    Returns an optimal basic solution together with optimal dual potentials.
    On the LP path these are the vertex and row duals of HiGHS's dual
    simplex, the same bits as `linprog(method="highs-ds")` gives. The
    certified path (`_certified_grown_lp`) answers only where the optimum is
    unique, and returns it to rounding: the coupling, value and calibrated
    duals agree with the LP path's, the raw duals up to their additive
    constant. Any HiGHS outcome other than optimal on the LP path raises
    NumericalFailure. Zero-mass atoms are dropped before the solve and
    re-inserted afterwards: their coupling rows/columns are zero and their
    duals are set to the tightest reduced-cost-feasible value, so a
    sparsified training measure still yields a full-length, feasible dual
    vector.
    """
    return _exact_ot(cost, p, q, certified_path=True)


def _exact_ot(cost, p, q, certified_path: bool) -> TransportSolution:
    """`solve_exact_ot`, trying the certified path only when `certified_path` is set.

    The FGW inner step sets it False. Its gradient costs are often exactly
    tied, and a tie never certifies, so a grown attempt there would mostly
    be paid for and then thrown away; on the LP path alone its couplings
    keep `linprog`'s bits at every graph size.
    """
    cost = as_cost_matrix(cost)
    n, m = cost.shape
    p = _check_marginal(p, n, "source marginal p")
    q = _check_marginal(q, m, "target marginal q")

    keep_i = np.flatnonzero(p > 0)
    keep_j = np.flatnonzero(q > 0)
    sub = cost[np.ix_(keep_i, keep_j)]
    ps, qs = p[keep_i], q[keep_j]
    ns, ms = len(keep_i), len(keep_j)

    solved = _certified_grown_lp(sub, ps, qs) if certified_path else None
    if solved is None:
        solved = _solve_transport_lp(sub.ravel(), np.concatenate([ps, qs]), ns, ms)
    x, duals, value = solved
    coupling = np.zeros((n, m))
    coupling[np.ix_(keep_i, keep_j)] = x.reshape(ns, ms)
    beta = np.empty(n)
    psi = np.empty(m)
    beta[keep_i] = duals[:ns]
    psi[keep_j] = duals[ns:]
    # Extend duals to zero-mass atoms: columns first against the kept rows,
    # then rows against all columns, so feasibility holds for every pair.
    drop_j = np.flatnonzero(q <= 0)
    if drop_j.size:
        psi[drop_j] = np.min(cost[np.ix_(keep_i, drop_j)] - beta[keep_i, None], axis=0)
    drop_i = np.flatnonzero(p <= 0)
    if drop_i.size:
        beta[drop_i] = np.min(cost[drop_i] - psi[None, :], axis=1)

    return TransportSolution(value, coupling, beta, psi)


# The HiGHS options `linprog(method="highs-ds")` passes: presolve on, dual
# simplex, no debug checks, no output. Changing any of them can change the
# vertex HiGHS picks on a tie, and so the selections.
_HIGHS_OPTIONS = HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.solver = "simplex"
_HIGHS_OPTIONS.simplex_strategy = 1  # dual
_HIGHS_OPTIONS.highs_debug_level = 0
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False


def _transport_model(b: np.ndarray) -> _Highs:
    """A fresh HiGHS instance holding the equality rows A x = b of a transportation LP."""
    highs = _Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    no_entries = np.empty(0, dtype=np.int32)
    highs.addRows(b.size, b, b, 0, no_entries, no_entries, np.empty(0))
    return highs


def _add_cells(highs: _Highs, c: np.ndarray, cells: np.ndarray, n: int, m: int) -> None:
    """Append the columns of the flat cells k = i * m + j, cost c[k], to an (n, m) model.

    Column k has a 1 in rows i and n + j. The columns go in as NumPy
    buffers, so no Python loop touches them.
    """
    index = np.empty(2 * cells.size, dtype=np.int32)
    index[0::2] = cells // m
    index[1::2] = n + cells % m
    highs.addCols(cells.size, c[cells], np.zeros(cells.size), np.full(cells.size, kHighsInf),
                  index.size, np.arange(0, index.size, 2, dtype=np.int32), index,
                  np.ones(index.size))


def _run_highs(highs: _Highs) -> bool:
    """Run HiGHS on the model it holds; whether it ended optimal.

    Every exact LP solve of this module, full or on a grown support, is one
    call here.
    """
    highs.run()
    return highs.getModelStatus() == HighsModelStatus.kOptimal


def _solve_transport_lp(c: np.ndarray, b: np.ndarray, n: int, m: int):
    """x, row duals and objective of the (n, m) transportation LP min c @ x, A x = b, x >= 0.

    One dual-simplex HiGHS run on a fresh instance, with the model `linprog`
    would pass: the n + m equality rows, then the n * m columns in flat
    order. Unlike `linprog` it reads no basis. A fresh instance per call
    carries no state from one LP to the next, and peaks lower in memory than
    one reused instance.
    """
    highs = _transport_model(b)
    _add_cells(highs, c, np.arange(n * m, dtype=np.int32), n, m)
    if not _run_highs(highs):
        raise NumericalFailure("transportation LP failed: "
                               + highs.modelStatusToString(highs.getModelStatus()))
    solution = highs.getSolution()
    return (np.array(solution.col_value), np.array(solution.row_dual),
            highs.getInfo().objective_function_value)


# Smallest n * m the grown-support path is tried on, at the measured
# crossover. On a 2-vCPU VM (20 random costs with non-uniform p per shape,
# the best of five timings of each) it broke even with the full LP at
# 400-450 cells (median time ratios 0.95-0.99), won 19-20 of 20 from 576
# cells on, and took 0.5x the time at 1,600 cells and 0.06x at 600 x 200.
_GROWN_MIN_CELLS = 576
_GROWN_START_CELLS = 8   # each row's and each column's cheapest cells start the model
_GROWN_ADDED_PER_ROW = 2  # the most violated cells a violated row adds per round
# Cap on HiGHS runs per grown solve. GREAT's outer LPs took 3-5 on the
# shifted_labeled benchmark corpus and 3-9 on shifted-style costs up to
# 1200 x 400; random costs took 1-2.
_GROWN_MAX_ROUNDS = 30
# Certificate margins, 10x HiGHS's absolute 1e-7 primal and dual feasibility
# tolerances. A basis adjacent to a certified one has a basic mass below
# -_CERTIFIED_MIN_MASS or a reduced cost below -_CERTIFIED_MIN_REDUCED_COST,
# so no run of the full LP within those tolerances stops at it. GREAT's
# certified outer LPs on shifted_labeled had a smallest tree mass of 1.9e-6
# and a smallest off-support reduced cost of 2.4e-5, with max|cost| = 55.
_CERTIFIED_MIN_MASS = 1e-6
_CERTIFIED_MIN_REDUCED_COST = 1e-6


def _certified_grown_lp(cost: np.ndarray, p: np.ndarray, q: np.ndarray):
    """`_solve_transport_lp`'s result on a grown support, if provably the unique optimum.

    `p` and `q` are positive. The model starts on each row's and each
    column's `_GROWN_START_CELLS` cheapest cells and the north-west-corner
    plan, so it is feasible. After each HiGHS run, every row with a cell of
    negative reduced cost outside the model adds its
    `_GROWN_ADDED_PER_ROW` most negative ones, and HiGHS runs again on the
    same instance from its last basis. When no cell is violated, the
    optimum is accepted only under a certificate:

    - its positive cells number n + m - 1 and form a spanning tree, each
      with mass above `_CERTIFIED_MIN_MASS`, so the vertex is nondegenerate
      and the duals (up to their additive constant) are unique;
    - every other cell's reduced cost is above
      `_CERTIFIED_MIN_REDUCED_COST`, so the vertex is the unique optimum.

    It then equals the full LP's vertex, calibrated duals and value to
    rounding. Returns None (the caller solves the full LP) below
    `_GROWN_MIN_CELLS` cells, for uniform marginals with gcd(n, m) > 1, after
    `_GROWN_MAX_ROUNDS` runs, on a non-optimal status, or when the
    certificate fails. Uniform marginals with g = gcd(n, m) > 1 balance n/g
    rows against m/g columns at mass 1/g each, so the LP has degenerate
    vertices; at the shapes where m divides n, as in GREAT's first solve and
    LAVA's, no optimum measured had a tree support.
    """
    n, m = cost.shape
    if n * m < _GROWN_MIN_CELLS:
        return None
    if np.all(p == p[0]) and np.all(q == q[0]) and math.gcd(n, m) > 1:
        return None
    kr, kc = min(_GROWN_START_CELLS, m), min(_GROWN_START_CELLS, n)
    by_row = np.argpartition(cost, kr - 1, axis=1)[:, :kr]
    by_col = np.argpartition(cost, kc - 1, axis=0)[:kc]
    cells = np.unique(np.concatenate([
        (np.arange(n)[:, None] * m + by_row).ravel(),
        (by_col * m + np.arange(m)).ravel(),
        _north_west_corner(p, q)])).astype(np.int32)
    c = cost.ravel()
    in_model = np.zeros(n * m, dtype=bool)
    highs = _transport_model(np.concatenate([p, q]))
    model_cells = []
    for _ in range(_GROWN_MAX_ROUNDS):
        _add_cells(highs, c, cells, n, m)
        in_model[cells] = True
        model_cells.append(cells)
        if not _run_highs(highs):
            return None
        duals = np.array(highs.getSolution().row_dual)
        reduced = cost - duals[:n, None] - duals[None, n:]
        outside = np.where(in_model.reshape(n, m), np.inf, reduced)
        violated = np.flatnonzero(outside.min(axis=1) < 0)
        if violated.size == 0:
            break
        # m >= 2 here: with one column, the starting model holds every cell.
        worst = np.argpartition(outside[violated], _GROWN_ADDED_PER_ROW - 1,
                                axis=1)[:, :_GROWN_ADDED_PER_ROW]
        cells = (violated[:, None] * m + worst).ravel()
        cells = cells[outside.ravel()[cells] < 0].astype(np.int32)
    else:
        return None
    x = np.zeros(n * m)
    x[np.concatenate(model_cells)] = highs.getSolution().col_value
    support = x > 0
    if (np.count_nonzero(support) != n + m - 1
            or x[support].min() <= _CERTIFIED_MIN_MASS
            or reduced.ravel()[~support].min(initial=np.inf) <= _CERTIFIED_MIN_REDUCED_COST
            or not _is_forest(support.reshape(n, m))):
        return None
    return x, duals, highs.getInfo().objective_function_value


def _north_west_corner(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Flat cells i * len(q) + j of the north-west-corner plan of positive marginals p, q.

    Row i covers [P[i-1], P[i]) of the unit interval and column j covers
    [Q[j-1], Q[j]), with P and Q the cumulative sums; the plan moves mass
    along every overlap, a staircase through every row and column.
    """
    P, Q = np.cumsum(p), np.cumsum(q)
    edges = np.union1d([0.0], np.concatenate([P, Q]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    rows = np.minimum(np.searchsorted(P, mid, side="right"), len(p) - 1)
    cols = np.minimum(np.searchsorted(Q, mid, side="right"), len(q) - 1)
    return rows * len(q) + cols


# Largest lcm(n, m) the assignment path takes, at the measured crossover:
# its two L x L assignments grow as L^3, the direct HiGHS LP barely with L.
# On a 2-vCPU VM (40 Gaussian costs per lcm, the best of five timings of
# each) it won at every lcm up to 126 (1.0 against 1.1 ms there), broke even
# from 130 to 140 (time ratios 0.93-1.10) and lost from 143 on (3.2 against
# 1.4 ms at 210).
_ASSIGNMENT_MAX_LCM = 126


def _unique_uniform_vertex(cost: np.ndarray, p: np.ndarray, q: np.ndarray):
    """The optimal coupling of uniform OT by assignment, if provably unique.

    `cost` may be signed. With uniform p (n atoms) and q (m atoms), repeating
    each row L/n times and each column L/m times (L = lcm(n, m)) turns the
    transportation LP into an L x L assignment whose block counts / L are an
    optimal vertex. That vertex is returned only when it is certified to be
    the unique LP optimum, so that it agrees with `solve_exact_ot`'s vertex
    to rounding:

    - its support is a forest, so no other plan lives on the same support;
    - raising every support cell by delta = 1e-6 * max(1, max|cost|) leaves
      it optimal, so every other plan costs at least delta more per unit of
      mass moved off the support. delta sits above HiGHS's 1e-7 dual
      tolerance, so near-ties are left to the LP as well.

    Returns None (the caller solves the LP) for non-uniform weights, an lcm
    above `_ASSIGNMENT_MAX_LCM`, a support with a cycle, or a (near-)tie,
    such as two equal rows or columns.
    """
    n, m = cost.shape
    if np.any(p != p[0]) or np.any(q != q[0]):
        return None
    L = math.lcm(n, m)
    if L > _ASSIGNMENT_MAX_LCM:
        return None
    # Two equal rows of a uniform problem can trade their mass, so a unique
    # optimum must send both to one column alone, which needs 1/m >= 2/n:
    # a tie in every other case, found without an assignment. Same for
    # columns.
    if (2 * m > n and _has_equal_rows(cost)) or (2 * n > m and _has_equal_rows(cost.T)):
        return None
    row_of = np.arange(L) // (L // n)
    col_of = np.arange(L) // (L // m)
    expanded = cost[np.ix_(row_of, col_of)]
    rows, cols = linear_sum_assignment(expanded)
    counts = np.bincount(row_of * m + col_of[cols], minlength=n * m).reshape(n, m)
    support = counts > 0
    if not _is_forest(support):
        return None
    delta = 1e-6 * max(1.0, float(np.abs(cost).max()))
    raised = expanded + delta * support[np.ix_(row_of, col_of)]
    _, rival = linear_sum_assignment(raised)
    # Any other plan leaves >= 1 of the L unit masses off the support and so
    # drops by >= delta when it ties; half of delta is far above the rounding
    # of an L-term sum.
    if raised[rows, rival].sum() < raised[rows, cols].sum() - 0.5 * delta:
        return None
    return counts / L


def _has_equal_rows(a: np.ndarray) -> bool:
    return len({row.tobytes() for row in a}) < len(a)


def _is_forest(support: np.ndarray) -> bool:
    """Whether the bipartite row-column graph of a boolean matrix is acyclic."""
    n, m = support.shape
    parent = list(range(n + m))

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, j in np.argwhere(support).tolist():
        a, b = root(i), root(n + j)
        if a == b:
            return False
        parent[a] = b
    return True


def solve_sinkhorn(cost, p, q, epsilon: float, max_iter: int = 10_000,
                   tol: float = 1e-9) -> TransportSolution:
    """Entropic OT via log-domain Sinkhorn iterations.

    The reported value is <coupling, cost> without the regularization term;
    dual_source/dual_target are the converged potentials. Each half-sweep is
    one `_logsumexp`, which gives the bits of scipy 1.17's `logsumexp`.
    Zero-mass atoms are dropped before the sweeps and re-inserted after.
    Raises ValueError unless epsilon is positive and finite, and
    NonConvergence when the marginal violation still exceeds `tol` after
    `max_iter` sweeps.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    cost = as_cost_matrix(cost)
    n, m = cost.shape
    p = _check_marginal(p, n, "source marginal p")
    q = _check_marginal(q, m, "target marginal q")

    keep_i = np.flatnonzero(p > 0)
    keep_j = np.flatnonzero(q > 0)
    sub = cost[np.ix_(keep_i, keep_j)]
    ps, qs = p[keep_i], q[keep_j]
    logp, logq = np.log(ps), np.log(qs)

    def f_update(g):
        return -epsilon * (_logsumexp((g[None, :] - sub) / epsilon + logq[None, :], axis=1))

    # At potentials (f, g) the coupling's row sums are ps * exp((f - f_next) / eps),
    # f_next the next f-update, and after the g-update its column sums are qs
    # to rounding. So the stopping test needs no coupling, and f_next is
    # carried into the next sweep.
    f_next = f_update(np.zeros(len(keep_j)))
    err = np.inf
    for _ in range(max_iter):
        f = f_next
        g = -epsilon * (_logsumexp((f[:, None] - sub) / epsilon + logp[:, None], axis=0))
        f_next = f_update(g)
        err = np.abs(ps * np.expm1((f - f_next) / epsilon)).max()
        if err <= tol:
            break
    else:
        raise NonConvergence(
            f"sinkhorn marginal violation {err:.3e} > {tol:.3e} after {max_iter} iterations"
        )

    pi = np.exp((f[:, None] + g[None, :] - sub) / epsilon + logp[:, None] + logq[None, :])
    coupling = np.zeros((n, m))
    coupling[np.ix_(keep_i, keep_j)] = pi
    beta = np.empty(n)
    psi = np.empty(m)
    beta[keep_i] = f
    psi[keep_j] = g
    drop_j = np.flatnonzero(q <= 0)
    if drop_j.size:
        # Soft-min extension of the potentials to unused atoms.
        psi[drop_j] = -epsilon * _logsumexp(
            (beta[keep_i, None] - cost[np.ix_(keep_i, drop_j)]) / epsilon
            + logp[:, None], axis=0)
    drop_i = np.flatnonzero(p <= 0)
    if drop_i.size:
        beta[drop_i] = -epsilon * _logsumexp(
            (psi[None, :] - cost[drop_i]) / epsilon
            + np.log(np.maximum(q[None, :], 1e-300)), axis=1)

    value = float(np.sum(coupling * cost))
    return TransportSolution(value, coupling, beta, psi)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)) with the arithmetic of scipy 1.17's `logsumexp`.

    The maximum and its ties are taken out of the sum: the rest is
    exponentiated against the maximum and summed, then divided by the number
    of ties, and the result is log1p(sum) + log(ties) + maximum. These are
    scipy's operations in scipy's order, so the bits agree, without its
    array-API dispatch and its second, unshifted pass. Non-finite input gives
    scipy's result as well: -inf, inf or NaN.
    """
    amax = a.max(axis=axis, keepdims=True)
    ties = a == amax
    count = ties.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # as scipy, for inf - inf
        rest = np.exp(a - amax)
        rest[ties] = 0.0
        out = np.log1p(rest.sum(axis=axis, keepdims=True) / count) + np.log(count) + amax
    return out.squeeze(axis)


def calibrate_duals(sol: TransportSolution) -> TransportSolution:
    """Resolve the additive-constant ambiguity of OT duals.

    Shifts dual_source to sum to zero and dual_target oppositely, leaving
    every beta[i] + psi[j] (hence feasibility and strong duality for unit
    masses) unchanged. Primal fields are untouched.
    """
    shift = float(np.mean(sol.dual_source))
    return replace(sol,
                   dual_source=sol.dual_source - shift,
                   dual_target=sol.dual_target + shift)
