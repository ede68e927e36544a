"""End-to-end training-data selectors.

Three methods share one result schema: the iterative reweighting selector,
a one-shot ranking by calibrated duals, and a seeded random baseline.
Downstream consumers cannot distinguish them except by the method field.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import io
from .errors import ConfigInvalid, DimensionMismatch, EmptyDataset
from .fgw import FGWConfig, default_reference_size
from .gdd import LabelInformedCost, cross_linear_fgw, label_informed_cost
from .graphs import LabeledGraphDataset, concat_datasets
from .great import GreatTrace, floor_budget, gdd_gradient, great_select
from .io import dataset_hash
from .ot import solve_exact_ot, solve_sinkhorn


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

    def ot_solver(self):
        if self.solver == "sinkhorn":
            return partial(solve_sinkhorn, epsilon=self.epsilon)
        return solve_exact_ot


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
    so only D is cached.
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
        train, val, D, cfg.c, cfg.ot_solver()).values)
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


def _provenance(train, val, cfg: SelectionConfig) -> dict:
    return {
        "config": asdict(cfg),
        "train_hash": dataset_hash(train),
        "val_hash": dataset_hash(val),
    }


def _check_budget(n: int, tau: float) -> int:
    if not 0.0 < tau <= 1.0:
        raise ConfigInvalid(f"tau must be in (0, 1], got {tau}")
    budget = floor_budget(n, tau)
    if budget < 1:
        raise ConfigInvalid(f"floor({n} * {tau}) = 0; nothing would be selected")
    return budget


def _budget_and_cost(train, val, cfg: SelectionConfig, dtilde):
    """The selection budget, and `dtilde` checked against the splits or built."""
    if len(train) == 0 or len(val) == 0:
        raise EmptyDataset("train and val must both be nonempty")
    budget = _check_budget(len(train), cfg.tau)
    if dtilde is None:
        return budget, build_cost(train, val, cfg)
    shape = np.shape(dtilde.values if isinstance(dtilde, LabelInformedCost) else dtilde)
    if shape != (len(train), len(val)):
        raise DimensionMismatch(f"dtilde has shape {shape}, expected {(len(train), len(val))}")
    return budget, dtilde


def gradate(train: LabeledGraphDataset, val: LabeledGraphDataset,
            cfg: SelectionConfig, dtilde=None) -> SelectionResult:
    """Select the training subset that minimizes the dataset distance.

    Builds the joint barycenter and the label-informed cost once, then runs
    the iterative reweighting loop and returns the nonzero support of the
    final weights, with the optimization trace attached. A cost from
    `build_cost` (for instance a cached one) can be passed as `dtilde` to
    skip the embedding stage; it must be len(train) by len(val).
    """
    _, dtilde = _budget_and_cost(train, val, cfg, dtilde)
    selected, trace = great_select(dtilde, cfg.tau, cfg.T, cfg.eta, cfg.ot_solver())
    return SelectionResult(
        indices=tuple(int(i) for i in selected),
        weights=tuple(float(x) for x in trace.final_weights[selected]),
        method="gradate",
        trace=trace,
        provenance=_provenance(train, val, cfg),
    )


def lava_select(train: LabeledGraphDataset, val: LabeledGraphDataset,
                cfg: SelectionConfig, dtilde=None) -> SelectionResult:
    """One-shot selection by calibrated duals at uniform weights.

    Solves a single OT between the uniform train and val measures, ranks
    training samples by calibrated dual ascending (ties to the lower index)
    and keeps the floor(n * tau) smallest. No iteration.
    """
    budget, dtilde = _budget_and_cost(train, val, cfg, dtilde)
    ranking = np.argsort(gdd_gradient(dtilde, None, cfg.ot_solver()), kind="stable")
    indices = sorted(int(i) for i in ranking[:budget])
    return SelectionResult(
        indices=tuple(indices),
        weights=tuple(1.0 / budget for _ in indices),
        method="lava",
        trace=None,
        provenance=_provenance(train, val, cfg),
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
        provenance={
            "config": {"tau": tau, "seed": seed},
            "train_hash": dataset_hash(train),
        },
    )
