"""Discrete optimal transport between weighted point sets.

This module decides how every transport problem of the package is solved.
Two solvers share one result type: an exact transportation-LP solver that
also returns optimal dual potentials, and an entropic (Sinkhorn) solver with
log-domain potentials. The exact duals are the gradient carrier used by the
selection loop, so their feasibility and strong duality are part of the
contract here, not an afterthought.

Every solve, and the key of the OT cache, starts from one checked problem,
`_Restricted(cost, p, q)`: it runs the input checks, solves only on the atoms
of positive mass, lifts the plan back to full length and extends the duals
to the zero-mass atoms by the solver's own min rule. There are three solve
paths:

- The FGW linear step reads only a coupling. `_LinearStep(p, q)` plans it
  once per group of FGW solves that share the weights p, q, and each
  lockstep iterate calls it on the stack of the group's costs. For uniform
  weights with lcm(n, m) <= `_ASSIGNMENT_MAX_LCM` each cost is one
  assignment problem, whose coupling is used only when `_unique_optimum`,
  run on the whole stack at once, certifies it to be the unique optimum,
  and so the LP's vertex. A pair's certified vertex of the step before is
  first re-certified on the new cost and, when that passes, kept with no
  assignment. Otherwise, ties included, it is one full HiGHS LP
  (`_full_lp_vertex`) and never a grown support, so its couplings, and so
  D, keep `linprog`'s bits at every size.
- The outer, `gdd` and label-table solves, `solve_exact_ot`, return the
  coupling and duals, and `solve_exact_ot` alone routes them. Uniform
  weights with gcd(n, m) > 1 make the LP degenerate; up to an expansion
  factor nm / gcd(n, m)^2 of `_OUTER_ASSIGNMENT_MAX_EXPANSION` such a
  solve is the assignment on the lcm expansion, with no LP. Every other
  solve of `_GROWN_MIN_CELLS` cells or more first tries a support grown by
  violated reduced costs, `_certified_grown_lp`, whose tree is kept only
  when it is certified to be the unique optimum. A start is one thing:
  the row duals f of `start`, an earlier solution on the same rows (GREAT
  passes each step's solution to the next, the label table each block's
  to the next block of its train class), or each row's minimum of the
  cost when there is none. The rounds' first cells and starting basis
  are ranked by `cost - f` minus that matrix's column minima. An optimum
  has a tight cell in every column of positive mass, so those minima
  are its column duals, and the start's own column duals, whose length
  may differ, are never read. The answer is read from a model of the
  certified tree's cells alone, built and run by `_transport_lp` as the
  full LP is, so it equals the full LP's vertex, calibrated duals and
  value to rounding.
  Otherwise the full LP runs. On every path the duals are the canonical
  ones of `_canonical_duals`: one point of the optimal dual set, chosen
  by a rule of the problem alone. Where that set is one point up to a
  constant (a connected support: every certified tree and every
  nondegenerate vertex) they are the solver's own, and a certified
  tree's are returned with no walk over its support.
- `solve_sinkhorn` runs log-domain Sinkhorn sweeps. Its log-sum-exp is
  `_logsumexp`, scipy 1.17's arithmetic in plain NumPy, so its bits do not
  depend on the installed scipy.

Every exact LP runs HiGHS's dual simplex, called directly through scipy's
private bindings with the model as NumPy buffers. Every LP whose answer is
returned is built and run by `_transport_lp`, with the options of
`linprog(method="highs-ds")`; the rounds of a grown support, whose answer
is never returned, run with those options and Devex pricing. Both
uniqueness certificates use one margin, `_CERTIFICATE_MARGIN`, 10x
HiGHS's feasibility tolerances.

Every module constant that can change a returned bit (the route
thresholds, the grown support's settings, the certificate margin and
Sinkhorn's budget) is also a rule field of `pipeline._RESULT_RULES`, by
value, so editing one renames the cache entries it decides.

The package calls three compiled scipy functions, and `_scipy_extension`
loads their extension modules straight from scipy's directory:
`scipy.optimize._lsap` (`linear_sum_assignment`),
`scipy.optimize._highspy._core` (HiGHS) and
`scipy.spatial._distance_pybind` (`cdist_euclidean`, what
`cdist(X, Y)` runs, used by `fgw`). Importing them through
`scipy.optimize` and `scipy.spatial` would run those packages' `__init__`s,
which load scipy.linalg, scipy.sparse, scipy.special and more: 0.65 s of
the 0.82 s an `import gradate` took, and 36 MB of a warm CLI command's
80 MB peak RSS. scipy's directory is found with `find_spec`, so not even
the `scipy` package's own `__init__` runs. These private paths are those
of scipy 1.17.1, and the package is built against scipy >=1.17,<1.18
(pyproject.toml). All three are located with the package, so a release
that moves one makes the import fail with an ImportError naming it, and
each is loaded on the first call that needs it (`_Extension`), so a
process that solves nothing, such as a warm CLI command, never loads
HiGHS; the first LP pays its load, about 8 ms. Nor do the solves call
what numpy loads lazily: no np.unique or np.union1d, whose first call
imports numpy.ma; the grown support keeps its cells in a boolean mask,
and the north-west corner sorts its breakpoints with np.sort.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from functools import cache, cached_property
from importlib.machinery import ExtensionFileLoader, ModuleSpec, PathFinder
from importlib.util import find_spec, module_from_spec
from itertools import compress, islice

import numpy as np

from .errors import DimensionMismatch, InfeasibleMarginals, NonConvergence, NumericalFailure


def _locate(name: str) -> ModuleSpec:
    """The spec of the compiled scipy module `name`, found in its directory under scipy's.

    scipy's directory comes from `find_spec("scipy")`, which runs no scipy
    code; without scipy this raises the ModuleNotFoundError that `import
    scipy` would. Raises ImportError when `name` is not a compiled module
    there; it never falls back to the package import.
    """
    scipy_spec = find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    path = os.path.join(scipy_spec.submodule_search_locations[0], *name.split(".")[1:-1])
    spec = PathFinder.find_spec(name, [path])
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        from importlib.metadata import version  # read for this message alone
        raise ImportError(
            f"no compiled module {name} in scipy {version('scipy')} at {path}", name=name
        )
    return spec


_LOAD_LOCK = threading.Lock()


def _scipy_extension(name: str):
    """The compiled scipy module `name`, loaded without running any scipy package's `__init__`.

    A module already in `sys.modules` is returned as it is. A fresh one is
    found by `_locate` and registered under `name`, so a later `import
    scipy.optimize` reuses it rather than loading a pybind11 module twice.
    The lookup and the load run under one lock, so two threads' first calls
    load the module once.
    """
    with _LOAD_LOCK:
        module = sys.modules.get(name)
        if module is None:
            spec = _locate(name)
            module = module_from_spec(spec)
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[name]
                raise
    return module


class _Extension:
    """A compiled scipy module, located when this is made and loaded on first use.

    Making one runs `_locate` unless the module is in `sys.modules`
    already, so a scipy that lacks or moved it fails `import gradate`, not
    a first solve. The first read of each attribute loads the module with
    `_scipy_extension` and keeps the attribute here, so later reads are
    plain lookups, and a process that reads none never loads the module.
    """

    def __init__(self, name: str):
        if name not in sys.modules:
            _locate(name)
        self._name = name

    def __getattr__(self, attr: str):
        value = getattr(_scipy_extension(self._name), attr)
        setattr(self, attr, value)
        return value


_lsap = _Extension("scipy.optimize._lsap")
_highspy = _Extension("scipy.optimize._highspy._core")

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


class _Restricted:
    """A checked transport problem, restricted to its atoms of positive mass.

    `cost` is `as_cost_matrix(cost)`, `p` and `q` are as `_check_marginal`
    returns them, `keep_i` and `keep_j` index their positive atoms and `ps`,
    `qs` are those masses. Every solve and the OT cache build one, so each
    raises the same error for the same input. A solve runs on `block`, the
    cost of the kept rows and columns, which is built on first use, so an
    OT-cache hit indexes none; `lift` and `extend_duals` return its result
    at full length.
    """

    def __init__(self, cost, p, q):
        self.cost = as_cost_matrix(cost)
        n, m = self.cost.shape
        self.p = _check_marginal(p, n, "source marginal p")
        self.q = _check_marginal(q, m, "target marginal q")
        self.keep_i, self.keep_j = np.flatnonzero(self.p > 0), np.flatnonzero(self.q > 0)
        self.ps, self.qs = self.p[self.keep_i], self.q[self.keep_j]

    @cached_property
    def block(self) -> np.ndarray:
        return self.cost[np.ix_(self.keep_i, self.keep_j)]

    def full_lp(self):
        """`_solve_transport_lp` on the block: its x, row duals and objective."""
        return _solve_transport_lp(self.block.ravel(), np.concatenate([self.ps, self.qs]),
                                   *self.block.shape)

    def lift(self, plan: np.ndarray) -> np.ndarray:
        """A plan on the block, 2-D or flat, at full length: 0 on the zero-mass rows and columns."""
        full = np.zeros(self.cost.shape)
        full[np.ix_(self.keep_i, self.keep_j)] = plan.reshape(len(self.ps), len(self.qs))
        return full

    def extend_duals(self, f: np.ndarray, g: np.ndarray, least):
        """Full-length duals: f and g on the kept atoms, and each zero-mass atom's tightest value.

        `least(reduced, axis)` is the solver's min rule over the reduced costs
        `cost - dual` along `axis`: a hard min for the exact LP, the
        epsilon-soft-min for Sinkhorn. Zero-mass columns are extended first,
        against the kept rows, then zero-mass rows against all columns, so
        for the exact LP feasibility holds for every pair.
        """
        beta, psi = np.zeros(len(self.p)), np.zeros(len(self.q))
        beta[self.keep_i], psi[self.keep_j] = f, g
        drop_j = np.flatnonzero(self.q <= 0)
        if drop_j.size:
            psi[drop_j] = least(self.cost[np.ix_(self.keep_i, drop_j)] - beta[self.keep_i, None], 0)
        drop_i = np.flatnonzero(self.p <= 0)
        if drop_i.size:
            beta[drop_i] = least(self.cost[drop_i] - psi, 1)
        return beta, psi


def solve_exact_ot(cost, p, q, start: TransportSolution | None = None) -> TransportSolution:
    """Exact OT(p, q, cost) via the transportation linear program.

    Returns an optimal plan, its value and the canonical optimal duals of
    `_canonical_duals`, which depend on (cost, p, q) alone, up to rounding
    and the additive constant that `calibrate_duals` removes. This is the
    one place that routes a solve, on the atoms of positive mass:

    - Uniform weights with g = gcd(n, m) > 1 balance n/g rows against m/g
      columns at mass 1/g each, so every vertex is degenerate. Up to
      nm / g^2 = `_OUTER_ASSIGNMENT_MAX_EXPANSION` the plan is the counts / L
      of the assignment on the lcm expansion, which is not a vertex when
      the assignment is tied; above it, the full LP.
    - Every other solve of `_GROWN_MIN_CELLS` cells or more tries
      `_certified_grown_lp`. A certified tree's answer is read from a HiGHS
      model of its cells alone, so the coupling, value and calibrated duals
      agree with the full LP's to rounding, the raw duals up to their
      additive constant.
    - Otherwise, and when the certificate fails, one full LP: HiGHS's
      dual-simplex vertex, the same bits as `linprog(method="highs-ds")`
      gives, and so are the duals where its support is connected.

    Any HiGHS outcome other than optimal on the full LP or the tree model
    raises NumericalFailure. Zero-mass atoms are dropped before the solve
    and re-inserted afterwards: their coupling rows/columns are zero and
    their duals are set to the tightest reduced-cost-feasible value, so a
    sparsified training measure still yields a full-length, feasible dual
    vector.

    `start` is an earlier solution on the same rows, such as the previous
    step of the selection loop or, in the label table, the previous block
    of the same train class. Only its full-length row duals are read, to
    rank the grown support's first cells and starting basis; its column
    duals, of any length, are ignored. The answer depends on (cost, p, q)
    alone, with or without it. Row duals of another length than the
    cost's rows are a DimensionMismatch.
    """
    problem = _Restricted(cost, p, q)
    f = None
    if start is not None:
        f = np.asarray(start.dual_source)
        if f.shape != problem.p.shape:
            raise DimensionMismatch(f"start row duals have shape {f.shape}, "
                                    f"expected {problem.p.shape}")
        f = f[problem.keep_i]
    block, ps, qs = problem.block, problem.ps, problem.qs
    n, m = block.shape
    divisor = math.gcd(n, m) if _is_uniform(ps, qs) else 1  # > 1: every vertex is degenerate
    tree = None
    if divisor > 1 and n * m <= _OUTER_ASSIGNMENT_MAX_EXPANSION * divisor**2:
        x = _assign(block, _expansion(n, m)) / math.lcm(n, m)
        duals, value = None, float(block.ravel() @ x)
    else:
        tree = (_certified_grown_lp(block, ps, qs, f)
                if divisor == 1 and n * m >= _GROWN_MIN_CELLS else None)
        x, duals, value = (problem.full_lp() if tree is None else
                           _transport_lp(block.ravel(), np.concatenate([ps, qs]), n, m, tree))
    # A certified tree spans every atom, so its duals are already the canonical ones.
    f, g = _canonical_duals(block, x, duals) if tree is None else (duals[:n], duals[n:])
    beta, psi = problem.extend_duals(f, g, np.min)
    return TransportSolution(value, problem.lift(x), beta, psi)


# Largest expansion factor (L/n)(L/m) = n m / gcd(n, m)^2 at which a uniform
# outer solve with gcd(n, m) > 1 runs as the L x L assignment of
# `_expansion` rather than as a full LP. The assignment grows as L^3 =
# (g a b)^3 for n = g a, m = g b, the LP with n m. On a 2-vCPU VM (shifted-
# style costs, 3 per shape, the best of five timings of each, canonical
# duals included on both routes) its median time against the full LP's was,
# at g = 5, 10, 20 and 40: 0.08-0.19 for factors 2-6; 0.34-0.74 at 20;
# 0.37-0.81 at 24; 0.52-1.23 at 28, which lost at g >= 20; 0.57-1.45 at 30;
# and 1.5-3.0 at 63.
_OUTER_ASSIGNMENT_MAX_EXPANSION = 24


def _canonical_duals(cost: np.ndarray, x: np.ndarray, duals: np.ndarray | None = None):
    """The canonical optimal duals (f, g) of the LP on `cost` that the flat plan `x` solves.

    The optimal duals are those that are feasible, f[i] + g[j] <= cost[i, j],
    and tight on the support of any one optimal plan. Within a connected
    component of that support's row-column graph they are fixed up to one
    shift t (f + t on its rows, g - t on its columns), so the set is the
    shifts, one per component, with t[a] - t[b] <= W[a, b], the least reduced
    cost from a row of component a to a column of component b. Holding one
    atom's potential fixed, the optimal duals pointwise largest on that
    atom's side (f for a row, g for a column) shift each component a by
    +D[a, k] or -D[k, a], D the min-plus closure of W (Floyd-Warshall over
    the K components) and k the atom's component. The canonical point is the
    mean of those duals over all n + m atoms. It depends on the problem
    alone, not on the plan or the potentials it starts from, up to rounding
    and the additive constant that `calibrate_duals` removes. Transposing
    the problem swaps f and g, and a symmetric cost with a zero diagonal
    gets zero duals at uniform weights.

    With a connected support (K = 1) the duals are unique up to that
    constant, and `duals`, the solver's row duals when it has them, are
    returned as they are. A plan that leaves a positive atom without mass is
    a NumericalFailure.
    """
    n, m = cost.shape
    label, f, g = _support_potentials(cost, np.flatnonzero(x > 0))
    sizes = np.bincount(label)
    if sizes.size == 1:
        return (f, g) if duals is None else (duals[:n], duals[n:])
    if sizes.min() < 2:
        raise NumericalFailure("transportation plan leaves an atom of positive mass empty")
    rows, cols = label[:n], label[n:]
    by_row, by_col = np.argsort(rows, kind="stable"), np.argsort(cols, kind="stable")
    components = np.arange(sizes.size)
    closure = np.minimum.reduceat((cost - f[:, None] - g[None, :])[by_row],
                                  np.searchsorted(rows[by_row], components), axis=0)
    closure = np.minimum.reduceat(closure[:, by_col],
                                  np.searchsorted(cols[by_col], components), axis=1)
    np.fill_diagonal(closure, 0.0)
    for k in components:
        np.minimum(closure, closure[:, k, None] + closure[k], out=closure)
    # Summed term by term, so that a symmetric closure cancels exactly.
    shift = (closure * np.bincount(rows) - closure.T * np.bincount(cols)).sum(axis=1) / (n + m)
    return f + shift[rows], g - shift[cols]


def _support_potentials(cost: np.ndarray, cells: np.ndarray):
    """Components and potentials of the row-column graph of the flat cells i * m + j of `cost`.

    Returns each of the n + m atoms' component label (rows, then columns),
    numbered in order of each component's first atom, and potentials f, g
    that are 0 at that atom and satisfy f[i] + g[j] == cost[i, j] along a
    spanning tree of each component.
    """
    n, m = cost.shape
    neighbours = [[] for _ in range(n + m)]
    for cell, c in zip(cells.tolist(), cost.ravel()[cells].tolist()):
        i, j = divmod(cell, m)
        neighbours[i].append((n + j, c))
        neighbours[n + j].append((i, c))
    label, potential = [-1] * (n + m), [0.0] * (n + m)
    count = 0
    for root in range(n + m):
        if label[root] >= 0:
            continue
        label[root], stack = count, [root]
        while stack:
            a = stack.pop()
            for b, c in neighbours[a]:
                if label[b] < 0:
                    label[b], potential[b] = count, c - potential[a]
                    stack.append(b)
        count += 1
    potential = np.array(potential)
    return np.array(label), potential[:n], potential[n:]


def _full_lp_vertex(cost: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The vertex of one full HiGHS LP on the positive atoms; `cost` may be signed.

    On a tie the vertex is HiGHS's own pick; never the grown support. The
    step reads only the coupling, so no duals are built.
    """
    lo = cost.min()
    if lo < 0:
        cost = cost - lo
    problem = _Restricted(cost, p, q)
    return problem.lift(problem.full_lp()[0])


def _dual_simplex_options() -> _highspy.HighsOptions:
    """The HiGHS options `linprog(method="highs-ds")` passes.

    Presolve on, dual simplex, no debug checks, no output.
    """
    options = _highspy.HighsOptions()
    options.presolve = "on"
    options.solver = "simplex"
    options.simplex_strategy = 1  # dual
    options.highs_debug_level = 0
    options.output_flag = False
    options.log_to_console = False
    return options


# Every LP whose answer is returned runs with linprog's options, built on the
# first LP: changing any of them can change the vertex HiGHS picks on a tie,
# and so the selections.
_highs_options = cache(_dual_simplex_options)


@cache
def _grown_options() -> _highspy.HighsOptions:
    """The options of a grown support's rounds, built on the first grown solve.

    The rounds, whose answer is never returned, price by Devex rather than
    HiGHS's default dual steepest edge: a certified answer is read from the
    tree model, so only its speed can change. Every round starts from a set
    basis, so HiGHS skips presolve there.
    """
    options = _dual_simplex_options()
    options.simplex_dual_edge_weight_strategy = 1  # Devex
    return options


def _transport_model(b: np.ndarray, options: _highspy.HighsOptions) -> _highspy._Highs:
    """A fresh HiGHS instance with `options`, holding the rows A x = b of a transportation LP."""
    highs = _highspy._Highs()
    highs.passOptions(options)
    no_entries = np.empty(0, dtype=np.int32)
    highs.addRows(b.size, b, b, 0, no_entries, no_entries, np.empty(0))
    return highs


def _add_cells(highs: _highspy._Highs, c: np.ndarray, cells: np.ndarray, n: int, m: int) -> None:
    """Append the columns of the flat cells k = i * m + j, cost c[k], to an (n, m) model.

    Column k has a 1 in rows i and n + j. The columns go in as NumPy
    buffers, so no Python loop touches them.
    """
    index = np.empty(2 * cells.size, dtype=np.int32)
    index[0::2] = cells // m
    index[1::2] = n + cells % m
    highs.addCols(cells.size, c[cells], np.zeros(cells.size),
                  np.full(cells.size, _highspy.kHighsInf), index.size,
                  np.arange(0, index.size, 2, dtype=np.int32), index, np.ones(index.size))


def _run_highs(highs: _highspy._Highs) -> bool:
    """Run HiGHS on the model it holds; whether it ended optimal.

    Every exact LP solve of this module, full or on a grown support, is one
    call here.
    """
    highs.run()
    return highs.getModelStatus() == _highspy.HighsModelStatus.kOptimal


def _transport_lp(c: np.ndarray, b: np.ndarray, n: int, m: int, cells: np.ndarray):
    """x, row duals and objective of the (n, m) transportation LP on the flat `cells` alone.

    min c @ x, A x = b, x >= 0, with x zero off `cells`: one dual-simplex
    HiGHS run with `_highs_options()` on a fresh instance, which holds the
    n + m equality rows, then the columns of `cells` in the order given.
    Unlike `linprog` it reads no basis. A fresh instance per call carries no
    state from one LP to the next, and peaks lower in memory than one
    reused instance. Any outcome but optimal is a NumericalFailure.
    """
    highs = _transport_model(b, _highs_options())
    _add_cells(highs, c, cells, n, m)
    if not _run_highs(highs):
        raise NumericalFailure("transportation LP failed: "
                               + highs.modelStatusToString(highs.getModelStatus()))
    solution = highs.getSolution()
    x = np.zeros(n * m)
    x[cells] = solution.col_value
    return x, np.array(solution.row_dual), highs.getInfo().objective_function_value


def _solve_transport_lp(c: np.ndarray, b: np.ndarray, n: int, m: int):
    """The full LP: `_transport_lp` on all n * m cells in flat order, as `linprog` passes them."""
    return _transport_lp(c, b, n, m, np.arange(n * m, dtype=np.int32))


# Smallest n * m the grown-support path is tried on. On a 2-vCPU VM (20
# costs with non-uniform p per shape, the best of five timings of each, no
# start, the tree model included) its median time against the full LP's
# was, at 200, 300, 576 and 1,600 cells, 1.08, 0.89, 0.67 and 0.39 on
# uniform random costs and 1.06, 0.92, 0.88 and 0.61 on shifted-style ones:
# it breaks even near 250 cells. The floor stays above that: the smallest
# outer or label-table LP of the benchmark workloads has 1,026 cells, and a
# lower floor would move the bits of the small LPs it reroutes from the
# full LP to the tree model.
_GROWN_MIN_CELLS = 576
_GROWN_START_CELLS = 8  # each row's and each column's best cells start the model
# Cap on HiGHS runs per grown solve. From cost-ranked starts GREAT's outer
# LPs took 2-3 on the shifted_labeled benchmark corpus and 2-4 on
# shifted-style costs up to 1200 x 400; started from the previous step's
# duals, 1-3 and 1-4. Random 300 x 100 costs took 1.
_GROWN_MAX_ROUNDS = 30
# Margin of both uniqueness certificates, 10x HiGHS's absolute 1e-7 primal
# and dual feasibility tolerances. A basis adjacent to a certified grown one
# has a basic mass or a reduced cost below -_CERTIFICATE_MARGIN, so no run of
# the full LP within those tolerances stops at it; the assignment path's
# margin is this one relative to max(1, max|cost|). GREAT's certified outer
# LPs on shifted_labeled had a smallest tree mass of 1.9e-6 and a smallest
# off-support reduced cost of 2.4e-5, with max|cost| = 55.
_CERTIFICATE_MARGIN = 1e-6


def _certified_grown_lp(cost: np.ndarray, p: np.ndarray, q: np.ndarray, f=None):
    """The flat cells of the LP's optimal tree on `cost`, found on a grown support, if certified.

    `p` and `q` are positive. The model starts on each row's and each
    column's `_GROWN_START_CELLS` cells of least reduced cost `cost - f - g`
    and the north-west-corner plan, so it is feasible, and the first run
    starts from the basis `_set_tree_basis` picks. This is the one start
    rule: `f` is the row duals of an earlier solve on the same rows, or
    without one each row's minimum of the cost, and g is each column's
    minimum of `cost - f`. So f, g are feasible, and for an earlier
    optimum's f, g is its column duals up to rounding. The model is one
    boolean (n, m) mask of its cells. After each HiGHS run, every cell
    outside the model whose reduced cost is negative is added, in flat
    order, and HiGHS runs again on the same instance from its last basis.
    The rounds run with `_grown_options()`.
    When no cell is violated, the optimum is accepted only under a
    certificate:

    - its positive cells number n + m - 1 and form a spanning tree, each
      with mass above `_CERTIFICATE_MARGIN`, so the vertex is nondegenerate
      and the duals (up to their additive constant) are unique;
    - every other cell's reduced cost is above
      `_CERTIFICATE_MARGIN`, so the vertex is the unique optimum.

    Returns that tree's cells, which depend on (cost, p, q) alone, never on
    `f`, the rounds or their options. Returns None after
    `_GROWN_MAX_ROUNDS` runs, on a non-optimal status, or when the
    certificate fails.
    """
    n, m = cost.shape
    kr, kc = min(_GROWN_START_CELLS, m), min(_GROWN_START_CELLS, n)
    ranked = cost - (cost.min(axis=1) if f is None else f)[:, None]
    ranked -= ranked.min(axis=0)
    in_model = np.zeros((n, m), dtype=bool)
    np.put_along_axis(in_model, np.argpartition(ranked, kr - 1, axis=1)[:, :kr], True, axis=1)
    np.put_along_axis(in_model, np.argpartition(ranked, kc - 1, axis=0)[:kc], True, axis=0)
    in_model.flat[_north_west_corner(p, q)] = True
    cells = np.flatnonzero(in_model).astype(np.int32)
    c = cost.ravel()
    highs = _transport_model(np.concatenate([p, q]), _grown_options())
    _add_cells(highs, c, cells, n, m)
    _set_tree_basis(highs, cells, ranked.ravel()[cells], n, m)
    model_cells = [cells]
    for _ in range(_GROWN_MAX_ROUNDS):
        if not _run_highs(highs):
            return None
        duals = np.array(highs.getSolution().row_dual)
        reduced = cost - duals[:n, None] - duals[None, n:]
        cells = np.flatnonzero((reduced < 0) & ~in_model).astype(np.int32)
        if cells.size == 0:
            break
        _add_cells(highs, c, cells, n, m)
        in_model.flat[cells] = True
        model_cells.append(cells)
    else:
        return None
    x = np.zeros(n * m)
    x[np.concatenate(model_cells)] = highs.getSolution().col_value
    support = x > 0
    tree = np.flatnonzero(support).astype(np.int32)
    if (tree.size != n + m - 1
            or x[tree].min() <= _CERTIFICATE_MARGIN
            or reduced.ravel()[~support].min(initial=np.inf) <= _CERTIFICATE_MARGIN
            or not _is_forest(tree, n, m)):
        return None
    return tree


def _set_tree_basis(highs: _highspy._Highs, cells: np.ndarray, reduced: np.ndarray,
                    n: int, m: int) -> None:
    """Start HiGHS on the spanning tree of the model's `cells` of least `reduced` cost.

    The tree is grown in order of reduced cost (Kruskal's rule), so under
    duals for which its cells are tight, as an earlier optimum's are, the
    basis is dual feasible and the dual simplex only repairs the masses
    that changed. Row 0's logical completes the n + m basic variables; its
    equation is the one the others imply. The north-west-corner cells in
    the model make it connected.
    """
    status = _highspy.HighsBasisStatus
    order = np.argsort(reduced, kind="stable")
    col = [status.kLower] * cells.size
    for k in islice(compress(order.tolist(), _joins(cells[order], n, m)), n + m - 1):
        col[k] = status.kBasic
    basis = _highspy.HighsBasis()
    basis.col_status = col
    basis.row_status = [status.kBasic] + [status.kLower] * (n + m - 1)
    basis.valid = True
    highs.setBasis(basis)


def _north_west_corner(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Flat cells i * len(q) + j of the north-west-corner plan of positive marginals p, q.

    Row i covers [P[i-1], P[i]) of the unit interval and column j covers
    [Q[j-1], Q[j]), with P and Q the cumulative sums; the plan moves mass
    along every overlap, a staircase through every row and column. A
    breakpoint that P and Q share gives a cell of the plan twice.
    """
    P, Q = np.cumsum(p), np.cumsum(q)
    edges = np.sort(np.concatenate([[0.0], P, Q]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    rows = np.minimum(np.searchsorted(P, mid, side="right"), len(p) - 1)
    cols = np.minimum(np.searchsorted(Q, mid, side="right"), len(q) - 1)
    return rows * len(q) + cols


# Largest lcm(n, m) the assignment path takes. Its L x L assignment grows as
# L^3, the direct HiGHS LP barely with L. The cap was the crossover when each
# step ran two assignments. With one assignment and the stacked certificate
# (a 2-vCPU VM, 40 Gaussian costs per lcm, the best of five timings of each,
# one cost per call) the median time ratio to the LP was 0.72 at 126,
# 0.65-0.91 from 130 to 156, 1.04 at 168 and 1.65 at 210. The cap stays:
# raising it would send steps from the LP to the assignment, which moves
# D's bits.
_ASSIGNMENT_MAX_LCM = 126


class _LinearStep:
    """The FGW linear step for weights p, q: maps a stack of signed costs to optimal vertices.

    `solve` takes a (B, n, m) stack and returns the B vertices. With
    uniform p (n atoms) and q (m atoms), repeating each row L/n times and
    each column L/m times (L = lcm(n, m)) turns the transportation LP into
    an L x L assignment whose block counts / L are an optimal vertex. That
    vertex is returned only when it is certified to be the unique LP
    optimum, so that it agrees with the full LP's vertex to rounding: its
    support is a forest, so no other plan lives on the same support, and
    `_unique_optimum`, run on the whole stack at once, finds every other
    plan dearer by a margin.

    Every other cost goes to `_full_lp_vertex`: non-uniform weights or an
    lcm above `_ASSIGNMENT_MAX_LCM` (decided here, once), a support with a
    cycle, or a (near-)tie, such as two equal rows or columns. `solve`
    takes the vertices of the step before: those that were certified are
    re-certified on the new stack in one call, and each that passes is
    returned as it is, with no assignment. What depends
    only on p and q is computed here, once per group of FGW solves: the
    expansion as one flat gather index into the cost, the flat index of each
    expanded row's first cell, and which equal-row checks can find a tie.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray):
        self.p, self.q = p, q
        n, m = len(p), len(q)
        self.L = math.lcm(n, m)
        self.expansion = (_expansion(n, m) if self.L <= _ASSIGNMENT_MAX_LCM and _is_uniform(p, q)
                          else None)
        # Two equal rows of a uniform problem can trade their mass, so a unique
        # optimum must send both to one column alone, which needs 1/m >= 2/n:
        # a tie in every other case, found without an assignment. Same for
        # columns. Each check is (transposed, bytes per float64 row, rows).
        self.tie_checks = [(False, 8 * m, n)] * (2 * m > n) + [(True, 8 * n, m)] * (2 * n > m)

    def solve(self, costs: np.ndarray, previous: np.ndarray | None = None,
              was_certified: np.ndarray | None = None):
        """The vertices of a (B, n, m) stack, and which of them are certified assignments.

        `previous` and `was_certified` are what this returned for the step
        before, one entry per cost. Each vertex that was certified is first
        re-certified on its new cost, in one stacked `_unique_optimum`
        call, and returned as it is when that passes: a certified unique
        optimum is the plan the assignment would find, counts / L, and the
        certificate refuses every tie that the equal-row check finds, so
        the bits are those of a fresh step. A vertex of the full LP is
        never reused.
        """
        vertices, certified = np.empty(costs.shape), np.zeros(len(costs), dtype=bool)
        if was_certified is not None and was_certified.any():
            again = np.flatnonzero(was_certified)
            again = again[_unique_optimum(costs[again], previous[again] > 0)]
            vertices[again], certified[again] = previous[again], True
        held = []  # the stack positions of assigned plans that await the certificate
        for b in np.flatnonzero(~certified).tolist():
            cost = costs[b]
            if self.expansion is not None and not self._has_equal_rows(cost):
                counts = _assign(cost, self.expansion)
                if _is_forest(np.flatnonzero(counts), *cost.shape):
                    vertices[b] = counts.reshape(cost.shape) / self.L
                    held.append(b)
                    continue
            vertices[b] = _full_lp_vertex(cost, self.p, self.q)
        if held:
            certified[held] = _unique_optimum(costs[held], vertices[held] > 0)
            for b in compress(held, ~certified[held]):
                vertices[b] = _full_lp_vertex(costs[b], self.p, self.q)
        return vertices, certified

    def _has_equal_rows(self, cost: np.ndarray) -> bool:
        """Whether the tie checks find two equal rows or, transposed, two equal columns."""
        for transposed, size, rows in self.tie_checks:
            b = (cost.T if transposed else cost).tobytes()
            if len({b[k:k + size] for k in range(0, len(b), size)}) < rows:
                return True
        return False


def _unique_optimum(costs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Which of a stack of optimal transport plans are certified to be the unique optimum.

    `costs` is (B, n, m) and `support` the plans' supports, each a forest.
    The residual graph of a plan has an arc from row i to column j of
    length cost[i, j] for every cell and one back, of length -cost[i, j],
    for each support cell. A plan is kept when that graph has no negative
    cycle once every support cell is raised by delta / 2, delta =
    `_CERTIFICATE_MARGIN` * max(1, max|cost|). A cycle of a forest's graph
    takes at least one arc off the support, so its raised length is at
    least delta / 2 below its true one, and every other plan costs at least
    delta / 4 more per unit of mass moved along a cycle (the tolerance below
    takes the other quarter). That is above HiGHS's 1e-7 dual tolerance, so
    near-ties are left to the LP as well.

    The test is a Bellman-Ford from a virtual source at 0 to every atom, run
    on the whole stack at once: each round relaxes every column from the
    rows, then every row from the columns along the back arcs. A relaxation
    counts only if it lowers a label by more than delta / (4 (n + m));
    without that, the zero-length cycle of a support cell, forward and back,
    can round below 0. A plan whose labels stop moving has no negative
    cycle; one still relaxing after n + m rounds is refused. Each round
    costs O(B n m), with no L x L assignment.
    """
    _, n, m = costs.shape
    delta = _CERTIFICATE_MARGIN * np.maximum(1.0, np.abs(costs).max(axis=(1, 2)))
    forward = costs + (0.5 * delta)[:, None, None] * support
    back = np.where(support, -forward, np.inf)
    tol = (delta / (4 * (n + m)))[:, None]
    rows, cols = np.zeros(costs.shape[:2]), np.zeros((len(costs), m))
    for _ in range(n + m):
        lower = (rows[:, :, None] + forward).min(axis=1)
        moved = lower < cols - tol
        cols = np.where(moved, lower, cols)
        relaxing = moved.any(axis=1)
        lower = (cols[:, None, :] + back).min(axis=2)
        moved = lower < rows - tol
        rows = np.where(moved, lower, rows)
        relaxing |= moved.any(axis=1)
        if not relaxing.any():
            break
    return ~relaxing


def _is_uniform(p: np.ndarray, q: np.ndarray) -> bool:
    """Whether both marginals are uniform."""
    return bool((p == p[0]).all() and (q == q[0]).all())


def _expansion(n: int, m: int):
    """The L x L assignment of a uniform (n, m) problem, L = lcm(n, m), as flat indices.

    Expanded row r is row r // (L/n) and expanded column c is column
    c // (L/m). Returns the flat gather index of the expanded cost into the
    (n, m) cost, and the flat index of each expanded row's first cell.
    """
    L = math.lcm(n, m)
    row_base = np.arange(L) // (L // n) * m  # flat cell (i, 0) of expanded row r
    col_of = np.arange(L) // (L // m)  # column j of expanded column c
    return row_base[:, None] + col_of, np.arange(0, L * L, L)


def _assign(cost: np.ndarray, expansion) -> np.ndarray:
    """How many cells of one assignment on the `_expansion` of `cost` fall on each flat cell.

    counts / L is an optimal plan of the uniform transportation LP.
    """
    index, row_start = expansion
    _, cols = _lsap.linear_sum_assignment(cost.take(index))
    return np.bincount(index.take(row_start + cols), minlength=cost.size)


def _is_forest(cells: np.ndarray, n: int, m: int) -> bool:
    """Whether the flat cells i * m + j of an (n, m) matrix form an acyclic row-column graph."""
    return all(_joins(cells, n, m))


def _joins(cells: np.ndarray, n: int, m: int):
    """For each flat cell i * m + j in turn, whether it joins two trees of the cells before it.

    A union-find over the n rows and m columns; a lazy generator, so a
    caller can stop at the first cycle or the last tree edge it needs.
    """
    parent = list(range(n + m))
    for cell in cells.tolist():
        a, b = cell // m, n + cell % m
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        yield a != b
        parent[a] = b


# Sinkhorn's budget: the most sweeps, and the marginal violation below which
# they stop and within which the returned plan's column sums must fall.
SINKHORN_MAX_ITER = 10_000
SINKHORN_TOL = 1e-9


def solve_sinkhorn(cost, p, q, epsilon: float,
                   start: TransportSolution | None = None) -> TransportSolution:
    """Entropic OT via log-domain Sinkhorn iterations.

    The reported value is <coupling, cost> without the regularization term;
    dual_source/dual_target are the converged potentials. Each half-sweep is
    one `_logsumexp`, which gives the bits of scipy 1.17's `logsumexp`.
    Zero-mass atoms are dropped before the sweeps and re-inserted after.
    `start` is taken for the solver interface `solve_exact_ot` defines and
    ignored: the sweeps always start from zero potentials.
    Raises ValueError unless epsilon is positive and finite, and
    NonConvergence when the marginal violation still exceeds `SINKHORN_TOL`
    after `SINKHORN_MAX_ITER` sweeps, or when the returned plan's column
    sums miss q by more than `SINKHORN_TOL` (a small epsilon can saturate
    the sweeps' stopping test).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    problem = _Restricted(cost, p, q)
    sub, ps, qs = problem.block, problem.ps, problem.qs
    logp, logq = np.log(ps), np.log(qs)

    def f_update(g):
        return -epsilon * (_logsumexp((g[None, :] - sub) / epsilon + logq[None, :], axis=1))

    # At potentials (f, g) the coupling's row sums are ps * exp((f - f_next) / eps),
    # f_next the next f-update, and after the g-update its column sums are qs
    # to rounding. So the stopping test needs no coupling, and f_next is
    # carried into the next sweep.
    f_next = f_update(np.zeros(len(qs)))
    err, tol = np.inf, SINKHORN_TOL
    for _ in range(SINKHORN_MAX_ITER):
        f = f_next
        g = -epsilon * (_logsumexp((f[:, None] - sub) / epsilon + logp[:, None], axis=0))
        f_next = f_update(g)
        err = np.abs(ps * np.expm1((f - f_next) / epsilon)).max()
        if err <= tol:
            break
    else:
        raise NonConvergence(f"sinkhorn marginal violation {err:.3e} > {tol:.3e} "
                             f"after {SINKHORN_MAX_ITER} iterations")

    pi = np.exp((f[:, None] + g[None, :] - sub) / epsilon + logp[:, None] + logq[None, :])
    # The stopping test reads only the row sums. Once (g - C) / eps
    # saturates `_logsumexp`, f stops moving and the test reads 0 while the
    # columns are still off, so they are checked once, here.
    column_err = np.abs(pi.sum(axis=0) - qs).max()
    if column_err > tol:
        raise NonConvergence(
            f"sinkhorn plan misses the target marginal by {column_err:.3e} > {tol:.3e}"
        )

    def soft_min(reduced, axis):
        # Columns weigh the kept rows by p; rows weigh every column by q, 0 as 1e-300.
        log_w = logp[:, None] if axis == 0 else np.log(np.maximum(problem.q, 1e-300))
        return -epsilon * _logsumexp(-reduced / epsilon + log_w, axis=axis)

    coupling = problem.lift(pi)
    beta, psi = problem.extend_duals(f, g, soft_min)
    return TransportSolution(float(np.sum(coupling * problem.cost)), coupling, beta, psi)


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
