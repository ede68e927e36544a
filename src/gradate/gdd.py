"""Label-informed distance between labeled graph datasets.

The dataset distance is an optimal transport problem whose ground cost is
the LinearFGW block between training and validation graphs, optionally
shifted per label pair by a graph-label distance: the OT distance between
the label-specific uniform measures over graphs, using the same LinearFGW
block as cost. With label weight c=0 the label structure drops out exactly.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AllZeroWeights, DimensionMismatch, EmptyClass, EmptyDataset
from .fgw import FGWConfig, _checked_nonnegative
from .graphs import LabeledGraphDataset, concat_datasets, degree_one_hot_features
from .linear_fgw import _linear_fgw_block, _reference_embeddings
from .ot import TransportSolution, solve_exact_ot

# Called as solver(cost, p, q, start=None), `start` an earlier solution on the
# same rows, whose columns may differ, that may speed the solve up but must
# not change its answer; the exact solver reads only its row duals.
OTSolver = Callable[..., TransportSolution]


@dataclass(frozen=True)
class LabelDistanceTable:
    """Pairwise OT distances between train-side and val-side label measures.

    values[a, b] is the distance between the measure of train graphs with
    label labels[a] and val graphs with label labels[b]. A pair with an empty
    class on either side is absent and holds NaN, never zero.
    """

    values: np.ndarray
    labels: tuple


@dataclass(frozen=True)
class LabelInformedCost:
    """Cross cost D-tilde = base LinearFGW block + c * label offsets.

    As an array (`np.asarray(cost)`, `np.shape(cost)`) it is `values`, so
    every consumer of a cost takes this object and a plain matrix alike.
    """

    values: np.ndarray
    base: np.ndarray
    c: float

    def __array__(self, dtype=None, copy=None):
        # numpy 2 passes `copy`; numpy 1.x passes none and its np.array has no copy=None mode.
        if copy is None:
            return np.asarray(self.values, dtype=dtype)
        return np.array(self.values, dtype=dtype, copy=copy)


def cross_linear_fgw(train: LabeledGraphDataset, val: LabeledGraphDataset,
                     cfg: FGWConfig | None = None, nbar: int | None = None) -> np.ndarray:
    """Train-by-val LinearFGW block against one joint reference.

    The barycenter is built from train and val together so both sides live
    in the same embedding space; splitting the reference per side would make
    the block meaningless. When both are featureless, degree one-hot
    features are synthesized over the joint set first, so every caller
    (`gdd`, `build_cost`, the CLI) compares the same features.
    """
    if len(train) == 0 or len(val) == 0:
        raise EmptyDataset("both datasets must be nonempty")
    cfg = cfg or FGWConfig()
    joint = degree_one_hot_features(concat_datasets(train, val))
    embeddings = _reference_embeddings(joint.graphs, cfg, nbar)
    n = len(train)
    return _linear_fgw_block(embeddings[:n], embeddings[n:], cfg.alpha)


def graph_label_distance(train: LabeledGraphDataset, val: LabeledGraphDataset,
                         D: np.ndarray, y, y_prime,
                         solver: OTSolver | None = None) -> float:
    """OT distance between the label-y train measure and label-y' val measure.

    Both measures are uniform over their class members; the cost is the
    matching sub-block of the cross LinearFGW matrix D.
    """
    return _label_pair_solve(train, val, D, y, y_prime, solver)[0]


def _label_pair_solve(train, val, D, y, y_prime, solver, previous=None):
    """`graph_label_distance`'s value and solution.

    `previous`, a solution on the same train rows for another val class,
    is passed as the solver's start.
    """
    rows = train.indices_with_label(y)
    cols = val.indices_with_label(y_prime)
    if not rows:
        raise EmptyClass(y, "train")
    if not cols:
        raise EmptyClass(y_prime, "val")
    return gdd_from_cost(D[np.ix_(rows, cols)], None, solver, previous)


def label_distance_table(train: LabeledGraphDataset, val: LabeledGraphDataset,
                         D: np.ndarray,
                         solver: OTSolver | None = None) -> LabelDistanceTable:
    """All label-pair distances, computed once and reused across cost builds.

    A pair with an empty class on either side, which `graph_label_distance`
    refuses with EmptyClass, stays NaN. The blocks of one train class share
    their rows, so each solve starts from the solution of the class's block
    before it; a start never changes the answer.
    """
    labels = tuple(sorted(set(train.label_set) | set(val.label_set)))
    k = len(labels)
    values = np.full((k, k), np.nan)
    for a, y in enumerate(labels):
        previous = None
        for b, y_prime in enumerate(labels):
            with suppress(EmptyClass):
                values[a, b], previous = _label_pair_solve(train, val, D, y, y_prime, solver,
                                                           previous)
    return LabelDistanceTable(values=values, labels=labels)


def label_informed_cost(train: LabeledGraphDataset, val: LabeledGraphDataset,
                        D: np.ndarray, c: float,
                        solver: OTSolver | None = None) -> LabelInformedCost:
    """Shift every (i, j) entry of D by c times its label-pair distance.

    The result holds D-tilde and the base D. With c=0 the values are
    bit-identical to D and no label distance is ever computed, so unlabeled
    validation data degrades gracefully.
    """
    c = _checked_nonnegative("label weight c", c)
    D = np.asarray(D, dtype=np.float64)
    if D.shape != (len(train), len(val)):
        raise DimensionMismatch(
            f"D has shape {D.shape}, expected ({len(train)}, {len(val)})"
        )
    if c == 0:
        return LabelInformedCost(values=D.copy(), base=D.copy(), c=0.0)
    table = label_distance_table(train, val, D, solver)
    # Every label here has members on its own side, so each looked-up pair
    # is present and no NaN reaches the offsets.
    position = {y: a for a, y in enumerate(table.labels)}
    train_pos = [position[y] for y in train.labels]
    val_pos = [position[y] for y in val.labels]
    offsets = c * table.values[np.ix_(train_pos, val_pos)]
    return LabelInformedCost(values=D + offsets, base=D.copy(), c=c)


def _outer_cost(dtilde) -> np.ndarray:
    """`dtilde` as an array, checked: not 2-D is a DimensionMismatch, empty an EmptyDataset."""
    values = np.asarray(dtilde)
    if values.ndim != 2:
        raise DimensionMismatch(f"cost must be 2-D, got shape {values.shape}")
    if 0 in values.shape:
        raise EmptyDataset(f"cost of shape {values.shape} has no train rows or no val columns")
    return values


def gdd_from_cost(dtilde, w: np.ndarray | None = None, solver: OTSolver | None = None,
                  start: TransportSolution | None = None) -> tuple[float, TransportSolution]:
    """Dataset distance given a prebuilt label-informed cost.

    Solves OT(p(w), uniform, D-tilde) where w defaults to uniform over the
    training rows; a cost that is not 2-D is a DimensionMismatch, one
    without rows or columns an EmptyDataset. This is the only piece
    re-solved inside the selection loop; the cost itself is built once.
    `start`, an earlier solution on the same rows, is passed to the
    solver; it never changes the answer.
    """
    solver = solver or solve_exact_ot
    values = _outer_cost(dtilde)
    n, m = values.shape
    if w is None:
        w = np.full(n, 1.0 / n)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights have shape {w.shape}, expected ({n},)")
    if np.max(w, initial=0.0) <= 0.0:
        raise AllZeroWeights("the training weight vector carries no mass")
    q = np.full(m, 1.0 / m)
    sol = solver(values, w, q, start=start)
    return sol.value, sol


def gdd(train: LabeledGraphDataset, val: LabeledGraphDataset,
        w: np.ndarray | None = None, c: float = 0.0,
        cfg: FGWConfig | None = None, nbar: int | None = None,
        solver: OTSolver | None = None) -> tuple[float, TransportSolution]:
    """Graph dataset distance between a weighted train set and a val set.

    End-to-end: joint barycenter, LinearFGW cross block, label-informed
    shift, outer OT. The returned solution carries the dual potentials that
    act as the gradient of the distance in the training weights.
    """
    cfg = cfg or FGWConfig()
    D = cross_linear_fgw(train, val, cfg=cfg, nbar=nbar)
    dtilde = label_informed_cost(train, val, D, c, solver)
    return gdd_from_cost(dtilde, w, solver)
