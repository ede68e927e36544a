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
from pathlib import Path

import numpy as np

from . import io
from .errors import ConfigInvalid, DimensionMismatch, EmptyDataset, SchemaError
from .fgw import FGWConfig, default_reference_size
from .gdd import LabelInformedCost, cross_linear_fgw, label_informed_cost
from .graphs import LabeledGraphDataset, concat_datasets
from .great import GreatTrace, floor_budget, gdd_gradient, great_select
from .io import dataset_hash
from .ot import (TransportSolution, _check_marginal, as_cost_matrix, solve_exact_ot,
                 solve_sinkhorn)


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
        if not 0.0 < self.tau <= 1.0:
            raise ConfigInvalid(f"tau must be in (0, 1], got {self.tau}")
        self.fgw_config()  # checks alpha
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ConfigInvalid(f"c must be finite and >= 0, got {self.c}")
        if self.nbar is not None and self.nbar < 1:
            raise ConfigInvalid(f"nbar must be >= 1, got {self.nbar}")
        if self.T < 2:
            raise ConfigInvalid(f"T must be >= 2, got {self.T}")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ConfigInvalid(f"eta must be finite and >= 0, got {self.eta}")
        if self.solver not in ("exact", "sinkhorn"):
            raise ConfigInvalid(f"solver must be 'exact' or 'sinkhorn', got {self.solver!r}")
        if not math.isfinite(self.epsilon):
            raise ConfigInvalid(f"epsilon must be finite, got {self.epsilon}")
        if self.solver == "sinkhorn" and self.epsilon <= 0:
            raise ConfigInvalid(f"sinkhorn epsilon must be > 0, got {self.epsilon}")

    def fgw_config(self) -> FGWConfig:
        return FGWConfig(alpha=self.alpha, seed=self.seed)

    def ot_solver(self, cache_dir=None):
        """The OT solver this config names, cached under `cache_dir` if one is given.

        Without `cache_dir` this is `solve_exact_ot`, or `solve_sinkhorn` at
        `epsilon`. With it, each solve first runs the solver's own input
        checks, then reads an "OT" cache entry keyed on the solver (and, for
        Sinkhorn only, epsilon), the entry layout, the cost's shape and
        float64 bytes, and the indices and values of the positive entries of
        p and q; a miss solves and writes the entry. The cache keeps no
        coupling: a miss and a hit alike return the solve's value and duals
        bit for bit, with `coupling` None.
        """
        if self.solver == "sinkhorn":
            solve = partial(solve_sinkhorn, epsilon=self.epsilon)
            solver_key = {"solver": "sinkhorn", "epsilon": self.epsilon}
        else:
            solve, solver_key = solve_exact_ot, {"solver": "exact"}
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
    resolved reference size and the FGW config; D-tilde on that key plus c,
    the OT solver and, for Sinkhorn only, epsilon. At c = 0, D-tilde is D,
    so only D is cached. The label-table solves of a D-tilde build go
    through the OT cache of `SelectionConfig.ot_solver`, so two values of c
    share them.
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
           "nbar": nbar, **asdict(fgw_cfg)}
    D = _cached(cache_dir, "D", key, lambda: cross_linear_fgw(
        train, val, cfg=fgw_cfg, nbar=nbar))
    if cfg.c == 0:
        return label_informed_cost(train, val, D, cfg.c)
    key = {**key, "c": cfg.c, "solver": cfg.solver}
    if cfg.solver == "sinkhorn":
        key["epsilon"] = cfg.epsilon
    values = _cached(cache_dir, "Dtilde", key, lambda: label_informed_cost(
        train, val, D, cfg.c, cfg.ot_solver(cache_dir)).values)
    return LabelInformedCost(values=values, base=D, c=float(cfg.c))


def _cached(cache_dir, kind: str, key: dict, compute) -> np.ndarray:
    if cache_dir is None:
        return compute()
    path = Path(cache_dir) / io.cache_file_name(kind, key)
    if path.exists():
        return io.load_matrix_cache(path, key)
    matrix = compute()
    io.save_matrix_cache(path, matrix, key)
    return matrix


def _cached_ot(cache_dir, solver_key: dict, solve, cost, p, q) -> TransportSolution:
    """`solve(cost, p, q)` through an "OT" cache entry; see `SelectionConfig.ot_solver`.

    The solver's checks run before the lookup, so a hit accepts no input that
    a solve rejects. Zero-mass atoms are dropped by both solvers, so only the
    positive entries of p and q enter the key (and 0.0 and -0.0 are one key).
    The entry is one column of 1 + n + m floats: the value, the n source
    duals, then the m target duals, zero-mass atoms included. The key's
    `"entry"` field names that layout, so entries that also stored the
    coupling have other file names and miss once.
    """
    cost = as_cost_matrix(cost)
    n, m = cost.shape
    key = {**solver_key, "entry": "value+duals", "shape": [n, m],
           "cost": hashlib.sha256(np.ascontiguousarray(cost, dtype="<f8")).hexdigest(),
           "p": _positive_digest(_check_marginal(p, n, "source marginal p")),
           "q": _positive_digest(_check_marginal(q, m, "target marginal q"))}

    def compute():
        sol = solve(cost, p, q)
        return np.concatenate([[sol.value], sol.dual_source, sol.dual_target])[:, None]

    column = _cached(cache_dir, "OT", key, compute).ravel()
    if column.size != 1 + n + m:
        raise SchemaError(f"{io.cache_file_name('OT', key)}: malformed OT cache entry")
    return TransportSolution(float(column[0]), None, column[1:1 + n], column[1 + n:])


def _positive_digest(v: np.ndarray) -> str:
    """sha256 of the indices and float64 values of the positive entries of `v`."""
    keep = np.flatnonzero(v > 0)
    h = hashlib.sha256(keep.astype("<i8").tobytes())
    h.update(v[keep].astype("<f8").tobytes())
    return h.hexdigest()


def _check_budget(n: int, tau: float) -> int:
    if not 0.0 < tau <= 1.0:
        raise ConfigInvalid(f"tau must be in (0, 1], got {tau}")
    budget = floor_budget(n, tau)
    if budget < 1:
        raise ConfigInvalid(f"floor({n} * {tau}) = 0; nothing would be selected")
    return budget


def _budget_and_cost(train, val, cfg: SelectionConfig, dtilde, cache_dir):
    """The selection budget, and `dtilde` checked against the splits or built."""
    if len(train) == 0 or len(val) == 0:
        raise EmptyDataset("train and val must both be nonempty")
    budget = _check_budget(len(train), cfg.tau)
    if dtilde is None:
        return budget, build_cost(train, val, cfg, cache_dir)
    shape = np.shape(dtilde.values if isinstance(dtilde, LabelInformedCost) else dtilde)
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
    and keeps the floor(n * tau) smallest. No iteration. `dtilde` is as for
    `gradate`; with `cache_dir` the cost and the solve are cached as there,
    and the solve is the one `gradate`'s first iteration makes.
    """
    budget, dtilde = _budget_and_cost(train, val, cfg, dtilde, cache_dir)
    ranking = np.argsort(gdd_gradient(dtilde, None, cfg.ot_solver(cache_dir)), kind="stable")
    indices = sorted(int(i) for i in ranking[:budget])
    return SelectionResult(
        indices=tuple(indices),
        weights=tuple(1.0 / budget for _ in indices),
        method="lava",
        trace=None,
        provenance={"config": asdict(cfg)},
    )


def random_select(train: LabeledGraphDataset, tau: float, seed: int) -> SelectionResult:
    """Uniform sample without replacement of floor(n * tau) indices."""
    n = len(train)
    if n == 0:
        raise EmptyDataset("train must be nonempty")
    budget = _check_budget(n, tau)
    rng = np.random.default_rng(seed)
    indices = sorted(int(i) for i in rng.choice(n, size=budget, replace=False))
    return SelectionResult(
        indices=tuple(indices),
        weights=tuple(1.0 / budget for _ in indices),
        method="random",
        trace=None,
        provenance={"config": {"tau": tau, "seed": seed}},
    )
