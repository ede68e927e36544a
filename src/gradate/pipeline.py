"""End-to-end training-data selectors.

Three methods share one result schema: the iterative reweighting selector,
a one-shot ranking by calibrated duals, and a seeded random baseline.
Downstream consumers cannot distinguish them except by the method field.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import io
from .errors import ConfigInvalid, DimensionMismatch, EmptyDataset, SchemaError
from .fgw import (FW_MAX_ITER, FW_TOL, FGWConfig, _as_number, _checked_nbar,
                  _checked_nonnegative, _checked_seed, default_reference_size)
from .gdd import LabelInformedCost, cross_linear_fgw, label_informed_cost
from .graphs import LabeledGraphDataset, concat_datasets
from .great import (GreatTrace, _checked_T, _checked_tau, _selection_budget, gdd_gradient,
                    great_select)
from .io import dataset_hash
from .ot import (SINKHORN_MAX_ITER, SINKHORN_TOL, TransportSolution, _ASSIGNMENT_MAX_LCM,
                 _CERTIFICATE_MARGIN, _GROWN_MAX_ROUNDS, _GROWN_MIN_CELLS, _GROWN_START_CELLS,
                 _OUTER_ASSIGNMENT_MAX_EXPANSION, _Restricted, solve_exact_ot, solve_sinkhorn)


# Every rule that decides a cached value without being an input to it, with
# its value today, grouped by the stage that applies it. D's key holds the
# "D" group, and `SelectionConfig._solver`'s key fields hold the solver's
# group; D-tilde's key extends D's with those fields, and an OT key holds
# them, so no field name is in two groups. A module constant that decides
# a returned bit is read here by value; a change to what a rule computes
# edits its value, so every entry that depends on it is renamed, misses
# once and is rewritten.
_RESULT_RULES = {
    # barycenter_stop: the barycenter is one block-coordinate round, from
    # the product couplings. inner_assignment_max_lcm,
    # inner_certificate_margin: the FGW linear step's assignment cap and
    # certificate margin.
    "D": {"barycenter_stop": "first-round", "graph_order": "input-order",
          "inner_tie": "highs-vertex", "reference": "all-graphs",
          "fw_max_iter": FW_MAX_ITER, "fw_tol": FW_TOL,
          "inner_assignment_max_lcm": _ASSIGNMENT_MAX_LCM,
          "inner_certificate_margin": _CERTIFICATE_MARGIN},
    # outer_duals: the canonical point of the optimal dual set
    # (`ot._canonical_duals`), whichever optimal plan the solve finds.
    # grown_growth: each grown round adds every cell of negative reduced
    # cost outside the model. The other fields route a solve: to the
    # assignment, to a certified grown tree or, below the floor, past the
    # round cap or on a failed certificate, to the full LP.
    "exact": {"outer_duals": "canonical-duals",
              "outer_assignment_max_expansion": _OUTER_ASSIGNMENT_MAX_EXPANSION,
              "outer_certificate_margin": _CERTIFICATE_MARGIN,
              "grown_min_cells": _GROWN_MIN_CELLS, "grown_start_cells": _GROWN_START_CELLS,
              "grown_growth": "every-violated-cell",
              "grown_max_rounds": _GROWN_MAX_ROUNDS},
    # plan_check: the returned plan's column sums are checked against q.
    "sinkhorn": {"iteration": "plain", "plan_check": "column-sums",
                 "max_iter": SINKHORN_MAX_ITER, "tol": SINKHORN_TOL},
}


@dataclass(frozen=True)
class SelectionConfig:
    """Everything a selection run needs, serializable for provenance.

    tau : fraction of training samples to keep (budget floor(n * tau)).
    alpha : FGW feature/structure trade-off.
    c : label signal strength in the dataset distance.
    T : number of update steps (T - 1 gradient iterations).
    eta : learning rate of the weight updates.
    solver : "exact" for LP duals, "sinkhorn" for entropic acceleration.

    Without validation labels, use c = 0: the cost then reads no label.
    The FGW solves stop at the `fgw` module's FW_MAX_ITER and FW_TOL.
    T, seed and nbar must be integers and the other numbers real, none a
    bool; each is stored as a Python int or float, so a numpy scalar or an
    int c enters cache keys and provenance as the equal Python number. seed
    must be nonnegative, and nbar, when given, at least 1 and small enough
    that the reference's dense adjacency stays within
    `graphs.MAX_ADJACENCY_CELLS`.
    """

    tau: float
    alpha: float = 0.5
    c: float = 0.0
    T: int = 10
    eta: float = 1e-4
    seed: int = 0
    solver: str = "exact"
    epsilon: float = 0.01
    nbar: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tau", _checked_tau(self.tau))
        # Checks alpha and seed, and stores them as FGWConfig does.
        for name, value in asdict(self.fgw_config()).items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "c", _checked_nonnegative("c", self.c))
        if self.nbar is not None:
            object.__setattr__(self, "nbar", _checked_nbar(self.nbar))
        object.__setattr__(self, "T", _checked_T(self.T))
        object.__setattr__(self, "eta", _checked_nonnegative("eta", self.eta))
        object.__setattr__(self, "epsilon", _as_number("epsilon", self.epsilon, float))
        if self.solver not in ("exact", "sinkhorn"):
            raise ConfigInvalid(f"solver must be 'exact' or 'sinkhorn', got {self.solver!r}")
        if not math.isfinite(self.epsilon):
            raise ConfigInvalid(f"epsilon must be finite, got {self.epsilon}")
        if self.solver == "sinkhorn" and self.epsilon <= 0:
            raise ConfigInvalid(f"sinkhorn epsilon must be > 0, got {self.epsilon}")

    def fgw_config(self) -> FGWConfig:
        return FGWConfig(alpha=self.alpha, seed=self.seed)

    def _solver(self):
        """The OT solve this config names, and the fields that name it in the OT and D-tilde cache keys.

        The fields are the solver's name, epsilon for Sinkhorn, and the
        solver's group of `_RESULT_RULES`.
        """
        if self.solver == "sinkhorn":
            return (partial(solve_sinkhorn, epsilon=self.epsilon),
                    {"solver": "sinkhorn", "epsilon": self.epsilon, **_RESULT_RULES["sinkhorn"]})
        return solve_exact_ot, {"solver": "exact", **_RESULT_RULES["exact"]}

    def ot_solver(self, cache_dir=None):
        """The OT solver this config names, cached under `cache_dir` if one is given.

        Without `cache_dir` this is `solve_exact_ot`, or `solve_sinkhorn` at
        `epsilon`. With it, each solve first runs the solver's own input
        checks, then reads an "OT" cache entry keyed on `_solver`'s fields, the
        entry layout, the cost's shape and float64 bytes, and the indices
        and values of the positive entries of p and q; a miss solves and
        writes the entry. The cache keeps no coupling: a miss and a hit
        alike return the solve's value and duals bit for bit, with
        `coupling` None.
        """
        solve, solver_key = self._solver()
        if cache_dir is None:
            return solve
        return partial(_cached_ot, cache_dir, solver_key, solve)


@dataclass(frozen=True)
class SelectionResult:
    """A selected training subset with its weights and provenance.

    indices are sorted positions into the training dataset; weights align
    with them and sum to one.
    """

    indices: tuple[int, ...]
    weights: tuple[float, ...]
    method: str
    trace: GreatTrace | None = field(default=None, compare=False)
    provenance: dict = field(default_factory=dict, compare=False)


def build_cost(train: LabeledGraphDataset, val: LabeledGraphDataset,
               cfg: SelectionConfig, cache_dir=None) -> LabelInformedCost:
    """The label-informed cross cost D-tilde that every selection step reuses.

    D is `cross_linear_fgw`'s block, which featurizes featureless data over
    train and val together. With `cache_dir`, each matrix is read from or
    written to a content-addressed file keyed on exactly the inputs of the
    call that computes it: D on the joint dataset before featurization (the
    featurization is a pure function of it), the train/val shape, the
    resolved reference size, the FGW config and the "D" group of
    `_RESULT_RULES`; D-tilde on that key plus c and the solver fields of
    `SelectionConfig._solver`. At c = 0, D-tilde is D, so only D is cached.
    A cached D or D-tilde that holds a NaN, an infinity or a negative value
    is a SchemaError naming its file. The label-table solves of a D-tilde
    build go through the OT cache of `SelectionConfig.ot_solver`, so two
    values of c share them.
    """
    if len(train) == 0 or len(val) == 0:
        raise EmptyDataset("train and val must both be nonempty")
    if train.feature_dim != val.feature_dim:
        raise DimensionMismatch(
            f"train has feature dimension {train.feature_dim}, val {val.feature_dim}"
        )
    fgw_cfg = cfg.fgw_config()
    joint = concat_datasets(train, val)
    nbar = cfg.nbar if cfg.nbar is not None else default_reference_size(joint.graphs)
    key = {"dataset_hash": dataset_hash(joint), "shape": [len(train), len(val)],
           "nbar": nbar, **asdict(fgw_cfg), **_RESULT_RULES["D"]}
    D = io._cached(cache_dir, "D", key, lambda: cross_linear_fgw(
        train, val, cfg=fgw_cfg, nbar=nbar), load=_load_cost)
    if cfg.c == 0:
        return label_informed_cost(train, val, D, cfg.c)
    key = {**key, "c": cfg.c, **cfg._solver()[1]}
    values = io._cached(cache_dir, "Dtilde", key, lambda: label_informed_cost(
        train, val, D, cfg.c, cfg.ot_solver(cache_dir)).values, load=_load_cost)
    return LabelInformedCost(values=values, base=D, c=float(cfg.c))


def _load_cost(path, key: dict) -> np.ndarray:
    """A cached D or D-tilde, as `io.load_matrix_cache` reads it.

    No cost entry is negative, so a negative one is a damaged file and a
    SchemaError naming it.
    """
    values = io.load_matrix_cache(path, key)
    if (values < 0).any():
        raise SchemaError(f"{path}: cost cache entry has negative values")
    return values


def _cached_ot(cache_dir, solver_key: dict, solve, cost, p, q,
               start: TransportSolution | None = None) -> TransportSolution:
    """`solve(cost, p, q, start=start)` through an "OT" cache entry; see `ot_solver`.

    The solver's checks run before the lookup, so a hit accepts no input that
    a solve rejects. Zero-mass atoms are dropped by both solvers, so only the
    positive entries of p and q enter the key (and 0.0 and -0.0 are one key).
    The entry is one column of 1 + n + m floats: the value, the n source
    duals, then the m target duals, zero-mass atoms included; a cached
    column of another length, or with a NaN or an infinity, is a SchemaError
    naming its file. The key's `"entry"` field names that layout, so entries
    that also stored the coupling have other file names and miss once.
    `start` is passed on to a miss's solve and is not in the key: it never
    changes the answer.
    """
    problem = _Restricted(cost, p, q)
    n, m = problem.cost.shape
    key = {**solver_key, "entry": "value+duals", "shape": [n, m],
           "cost": hashlib.sha256(np.ascontiguousarray(problem.cost, dtype="<f8")).hexdigest(),
           "p": _positive_digest(problem.keep_i, problem.ps),
           "q": _positive_digest(problem.keep_j, problem.qs)}

    def compute():
        sol = solve(problem.cost, p, q, start=start)
        return np.concatenate([[sol.value], sol.dual_source, sol.dual_target])[:, None]

    column = io._cached(cache_dir, "OT", key, compute,
                        load=partial(io.load_matrix_cache, shape=(1 + n + m, 1))).ravel()
    return TransportSolution(float(column[0]), None, column[1:1 + n], column[1 + n:])


def _positive_digest(keep: np.ndarray, values: np.ndarray) -> str:
    """sha256 of a marginal's positive-entry indices `keep` and of their float64 `values`."""
    h = hashlib.sha256(keep.astype("<i8").tobytes())
    h.update(values.astype("<f8").tobytes())
    return h.hexdigest()


def _budget_and_cost(train, val, cfg: SelectionConfig, dtilde, cache_dir):
    """The selection budget, and `dtilde` checked against the splits or built."""
    if len(train) == 0 or len(val) == 0:
        raise EmptyDataset("train and val must both be nonempty")
    budget = _selection_budget(len(train), cfg.tau)
    if dtilde is None:
        return budget, build_cost(train, val, cfg, cache_dir)
    shape = np.shape(dtilde)
    if shape != (len(train), len(val)):
        raise DimensionMismatch(f"dtilde has shape {shape}, expected {(len(train), len(val))}")
    return budget, dtilde


def gradate(train: LabeledGraphDataset, val: LabeledGraphDataset,
            cfg: SelectionConfig, dtilde=None, cache_dir=None) -> SelectionResult:
    """Select the training subset that minimizes the dataset distance.

    Builds the joint barycenter and the label-informed cost once, then runs
    the iterative reweighting loop and returns the nonzero support of the
    final weights, with the optimization trace attached. A cost from
    `build_cost` (for instance a cached one) can be passed as `dtilde` to
    skip the embedding stage; it must be len(train) by len(val). With
    `cache_dir`, the cost is read from or written to `build_cost`'s cache
    and every outer OT solve goes through the OT cache of
    `SelectionConfig.ot_solver`, so a repeated run, or one at another tau
    (the first three solves do not depend on tau), reuses its solves.
    """
    _, dtilde = _budget_and_cost(train, val, cfg, dtilde, cache_dir)
    selected, trace = great_select(dtilde, cfg.tau, cfg.T, cfg.eta, cfg.ot_solver(cache_dir))
    return SelectionResult(
        indices=tuple(int(i) for i in selected),
        weights=tuple(float(x) for x in trace.final_weights[selected]),
        method="gradate",
        trace=trace,
        provenance={"config": asdict(cfg)},
    )


def lava_select(train: LabeledGraphDataset, val: LabeledGraphDataset,
                cfg: SelectionConfig, dtilde=None, cache_dir=None) -> SelectionResult:
    """One-shot selection by calibrated duals at uniform weights.

    Solves a single OT between the uniform train and val measures, ranks
    training samples by calibrated dual ascending (ties to the lower index)
    and keeps the floor(n * tau) smallest. With the exact solver the duals
    are the canonical point of the optimal set, so they, and the ranking up
    to exact ties, do not depend on the order of the rows or columns of the
    cost. No iteration. `dtilde` is as for
    `gradate`; with `cache_dir` the cost and the solve are cached as there,
    and the solve is the one `gradate`'s first iteration makes.
    """
    budget, dtilde = _budget_and_cost(train, val, cfg, dtilde, cache_dir)
    ranking = np.argsort(gdd_gradient(dtilde, None, cfg.ot_solver(cache_dir)), kind="stable")
    return _uniform_result(ranking[:budget], "lava", asdict(cfg))


def random_select(train: LabeledGraphDataset, tau: float, seed: int) -> SelectionResult:
    """Uniform sample without replacement of floor(n * tau) indices; seed as for `FGWConfig`."""
    n = len(train)
    if n == 0:
        raise EmptyDataset("train must be nonempty")
    tau = _checked_tau(tau)
    budget = _selection_budget(n, tau)
    seed = _checked_seed(seed)
    rng = np.random.default_rng(seed)
    return _uniform_result(rng.choice(n, size=budget, replace=False), "random",
                           {"tau": tau, "seed": seed})


def _uniform_result(chosen, method: str, config: dict) -> SelectionResult:
    """The one-shot result of a method that keeps `chosen` at equal weights."""
    indices = tuple(sorted(int(i) for i in chosen))
    return SelectionResult(indices=indices, weights=tuple(1.0 / len(indices) for _ in indices),
                           method=method, provenance={"config": config})
