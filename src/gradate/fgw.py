"""Fused Gromov-Wasserstein distances between attributed graphs.

The distance blends a feature (Wasserstein) term and a structure
(Gromov-Wasserstein) term, weighted by alpha. It is computed by conditional
gradient: linearize the quadratic structure term at the current coupling,
solve the linear OT subproblem exactly, and take the closed-form line-search
step of the quadratic objective. The barycenter is one round of block-
coordinate descent: a coupling solve per graph against a starting
reference, then the closed-form feature and structure updates.

The solves of a stage (the barycenter's, the embeddings) run in
lockstep, one stack per group of graphs that share their node weights, so
their size: the gradient, contraction, line search and objective value are
each one NumPy call on the (B, n, m) stack, and a pair leaves the stack
when it stops. Every operation treats each pair on its own, so a pair gets
the bits it gets alone, and `fgw_distance` is the stack of one. The linear
subproblem is solved by the step `ot._LinearStep` plans once per group; the
`ot` module docstring describes its paths, which agree to rounding
wherever both answer.

Both terms use the squared loss, the only one for which the barycenter
updates and the LinearFGW embeddings built on these couplings are closed
forms. The structure gradient is then the factored contraction
constC - A1 @ T @ (2 A2), which costs O(n^2 m + n m^2). Each iterate's
contraction is computed once and serves both its objective value and the
next gradient.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, EmptyDataset
from . import graphs as _graphs
from .graphs import AttributedGraph
from .ot import _Extension, _LinearStep

# `scipy.spatial.distance.cdist(X, Y)` dispatches to this module's compiled
# `cdist_euclidean` for its default "euclidean" metric, so results keep
# cdist's bits. Located with the package, loaded on the first feature term
# or random barycenter start.
_distance = _Extension("scipy.spatial._distance_pybind")

FW_MAX_ITER = 200  # conditional-gradient iteration budget per coupling solve
FW_TOL = 1e-9  # relative objective decrease that ends a coupling solve


@dataclass(frozen=True)
class FGWConfig:
    """Solver settings shared by the distance and barycenter routines.

    alpha : trade-off in [0, 1] between features (0) and structure (1),
        stored as a float.
    seed : controls barycenter initialization; a nonnegative integer.
    """

    alpha: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _checked_alpha(self.alpha))
        object.__setattr__(self, "seed", _checked_seed(self.seed))


def _checked_alpha(alpha) -> float:
    """`alpha` as a Python float in [0, 1], or a ConfigInvalid naming alpha."""
    alpha = _as_number("alpha", alpha, float)
    if not 0.0 <= alpha <= 1.0:
        raise ConfigInvalid(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def _checked_seed(seed) -> int:
    """`seed` as an int, or ConfigInvalid if `np.random.default_rng` would refuse it.

    Only nonnegative integers pass; a numpy integer becomes the equal int, so
    it enters cache keys and selection files as that int does.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigInvalid(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _as_number(name: str, value, kind: type):
    """`value` as a Python `kind`, float or int, or ConfigInvalid.

    A float takes any real number, an int only an integer (so not 4.0);
    neither takes a bool. A numpy scalar becomes the equal Python number, so
    it enters cache keys and provenance as that number does.
    """
    abstract, noun = ((numbers.Integral, "an integer") if kind is int
                      else (numbers.Real, "a real number"))
    if isinstance(value, bool) or not isinstance(value, abstract):
        raise ConfigInvalid(f"{name} must be {noun}, got {value!r}")
    return kind(value)


def _checked_nonnegative(name: str, value) -> float:
    """`value` as a finite Python float of at least 0, or a ConfigInvalid naming `name`."""
    value = _as_number(name, value, float)
    if not (math.isfinite(value) and value >= 0):
        raise ConfigInvalid(f"{name} must be finite and >= 0, got {value}")
    return value


def _checked_nbar(nbar) -> int:
    """`nbar` as an int; ConfigInvalid unless it is an integer of at least 1 whose dense
    adjacency stays within `graphs.MAX_ADJACENCY_CELLS` (so at most its integer square
    root, 32,768)."""
    nbar = _as_number("nbar", nbar, int)
    if nbar < 1:
        raise ConfigInvalid(f"nbar must be >= 1, got {nbar}")
    largest = math.isqrt(_graphs.MAX_ADJACENCY_CELLS)
    if nbar > largest:
        raise ConfigInvalid(f"nbar must be <= {largest}, got {nbar}")
    return nbar


@dataclass(frozen=True)
class FGWResult:
    """Outcome of one conditional-gradient solve.

    distance is objective**0.5; objective_curve records the objective
    after every iteration (index 0 is the initial coupling), which the tests
    use to assert monotone descent.
    """

    distance: float
    coupling: np.ndarray
    converged: bool
    iterations: int
    objective_curve: np.ndarray


class _QuadObjective:
    """Squared-loss FGW objectives E_b(T) = <F_b, T> + alpha * <L_b x T, T> of a stack of pairs.

    Pair b couples `graphs[b]` with `target`; every graph of `graphs` has
    the node weights p, so each array is a (B, n, m) or (B, n, n) stack, and
    one pair is a stack of one. F holds (1 - alpha) times the squared
    feature distances and L_b[i, j, k, l] = (A1_b[i, k] - A2[j, l])**2; L is
    only ever applied in the factored form of `contract`. Every method works
    on each pair of the stack independently, so pair b gets the bits it
    gets alone.
    """

    def __init__(self, graphs: Sequence[AttributedGraph], target: AttributedGraph,
                 cfg: FGWConfig):
        for g in graphs:
            if g.feature_dim != target.feature_dim:
                raise DimensionMismatch(
                    f"feature dimensions differ: {g.feature_dim} vs {target.feature_dim}"
                )
        self.p, self.q = graphs[0].node_weights, target.node_weights
        shape = (len(graphs), len(self.p), len(self.q))
        A1, A2 = np.stack([g.adjacency for g in graphs]), target.adjacency
        # Featureless graphs carry no Wasserstein term; alpha degenerates to 1.
        self.alpha = alpha = 1.0 if target.feature_dim == 0 else cfg.alpha
        if target.feature_dim:
            # One cdist over the stacked rows: it computes each pair of rows on its own.
            rows = np.vstack([g.features for g in graphs])
            self.F = ((1.0 - alpha) * _distance.cdist_euclidean(rows, target.features) ** 2
                      ).reshape(shape)
        else:
            self.F = np.zeros(shape)
        self.constC = ((A1 ** 2) @ self.p)[:, :, None] + (A2 ** 2) @ self.q
        self.hC1, self.hC2 = A1, 2.0 * A2

    def take(self, keep: np.ndarray) -> _QuadObjective:
        """The objective of the pairs `keep` selects."""
        sub = copy.copy(self)
        sub.F, sub.constC, sub.hC1 = self.F[keep], self.constC[keep], self.hC1[keep]
        return sub

    def contract(self, T: np.ndarray) -> np.ndarray:
        """(L_b x T_b)[i, j] = sum_kl L_b[i, j, k, l] T_b[k, l] for true couplings T_b."""
        return self.constC - self.hC1 @ T @ self.hC2

    def value(self, T: np.ndarray, LT: np.ndarray) -> np.ndarray:
        """E_b(T_b) of each pair, given the contractions LT = `contract(T)`."""
        return (self.F * T).sum(axis=(1, 2)) + self.alpha * (LT * T).sum(axis=(1, 2))

    def gradient(self, LT: np.ndarray) -> np.ndarray:
        """The gradient of each E_b at T_b, given the contractions LT = `contract(T)`."""
        return self.F + 2.0 * self.alpha * LT

    def line_search(self, delta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Exact minimizer of s -> E_b(T_b + s * delta_b) over [0, 1], for each pair.

        delta is a difference of couplings, so its marginals vanish and the
        quadratic coefficient needs only the cross term of the structure
        tensor.
        """
        b = (grad * delta).sum(axis=(1, 2))
        a = -self.alpha * ((self.hC1 @ delta @ self.hC2) * delta).sum(axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.minimum(np.maximum(-b / (2.0 * a), 0.0), 1.0)
        return np.where(a > 0, vertex, np.where(a + b < 0, 1.0, 0.0))


def _check_coupling(T, p, q):
    T = np.asarray(T, dtype=np.float64)
    if T.shape != (len(p), len(q)):
        raise DimensionMismatch(f"initial coupling has shape {T.shape}")
    if (np.abs(T.sum(axis=1) - p).max() > 1e-8
            or np.abs(T.sum(axis=0) - q).max() > 1e-8):
        raise ConfigInvalid("initial coupling does not match the node weights")
    return T


def _frank_wolfe(obj: _QuadObjective, T: np.ndarray, linear_step: _LinearStep):
    """Conditional gradient on every pair of `obj` in lockstep, from the stack of couplings T.

    A pair stops once its step is 0 or its objective's relative decrease
    is at most FW_TOL, and leaves the stack. Each step hands the linear
    step the vertices of the step before, which it re-certifies before it
    solves anew. Returns the final couplings, each pair's objective curve
    as a list of floats (index 0 is the initial coupling) and whether it
    converged.
    """
    final = np.empty_like(T)
    converged = np.zeros(len(T), dtype=bool)
    live = np.arange(len(T))
    LT = obj.contract(T)
    value = obj.value(T, LT)
    curves = [[v] for v in value.tolist()]
    vertices = certified = None  # each live pair's last vertex; whether it was certified
    for _ in range(FW_MAX_ITER):
        grad = obj.gradient(LT)
        vertices, certified = linear_step.solve(grad, vertices, certified)
        delta = vertices - T
        step = obj.line_search(delta, grad)
        # A pair whose step is 0 keeps its T and stops here.
        T = T + step[:, None, None] * delta
        LT = obj.contract(T)
        prev, value = value, obj.value(T, LT)
        for i, v in zip(live.tolist(), value.tolist()):
            curves[i].append(v)
        stop = (step == 0.0) | (prev - value <= FW_TOL * np.maximum(np.abs(prev), 1e-16))
        if stop.any():
            final[live[stop]], converged[live[stop]] = T[stop], True
            keep = ~stop
            live, T, LT, value, obj = live[keep], T[keep], LT[keep], value[keep], obj.take(keep)
            vertices, certified = vertices[keep], certified[keep]
            if not live.size:
                break
    final[live] = T
    return final, curves, converged


def _fgw_solves(graphs: Sequence[AttributedGraph], target: AttributedGraph, cfg: FGWConfig,
                couplings_init: Sequence[np.ndarray | None] | None = None) -> list[FGWResult]:
    """One FGW solve of each graph against `target`; result i is graph i's.

    The graphs are grouped by their node weights (so by size), in order of
    each group's first graph, and each group's solves run as one lockstep
    `_frank_wolfe` with one `ot._LinearStep` of its weights. Couplings start
    at the product measure p q^T, or at `couplings_init[i]` where that is
    not None.
    """
    if couplings_init is None:
        couplings_init = [None] * len(graphs)
    groups: dict[bytes, list[int]] = {}
    for i, g in enumerate(graphs):
        groups.setdefault(g.node_weights.tobytes(), []).append(i)
    results: list[FGWResult | None] = [None] * len(graphs)
    for members in groups.values():
        obj = _QuadObjective([graphs[i] for i in members], target, cfg)
        T0 = np.stack([np.outer(obj.p, obj.q) if couplings_init[i] is None
                       else _check_coupling(couplings_init[i], obj.p, obj.q) for i in members])
        T, curves, converged = _frank_wolfe(obj, T0, _LinearStep(obj.p, obj.q))
        for b, i in enumerate(members):
            results[i] = FGWResult(distance=max(curves[b][-1], 0.0) ** 0.5, coupling=T[b],
                                   converged=bool(converged[b]), iterations=len(curves[b]) - 1,
                                   objective_curve=np.array(curves[b]))
    return results


def fgw_distance(g1: AttributedGraph, g2: AttributedGraph,
                 cfg: FGWConfig | None = None,
                 coupling_init: np.ndarray | None = None) -> FGWResult:
    """Fused Gromov-Wasserstein distance between two attributed graphs.

    Conditional gradient finds a stationary point of the (non-convex) FGW
    objective; the reported distance is objective**0.5. The coupling
    starts at the product measure p q^T unless `coupling_init` is given. The
    exact line search makes the iterates monotone, so the last iterate is
    the best one; a non-converged run returns it with converged=False rather
    than raising. It is the stack of one of the lockstep solves that the
    barycenter and the embeddings run.
    """
    return _fgw_solves([g1], g2, cfg or FGWConfig(), [coupling_init])[0]


def default_reference_size(graphs: Sequence[AttributedGraph]) -> int:
    """Median node count of the dataset, rounded up."""
    # The mean of the two middle sizes, which are one size when the count is
    # odd. np.median would page in numpy's partition code, about 0.4 MB of
    # peak RSS in a warm CLI run.
    sizes = sorted(g.n_nodes for g in graphs)
    return math.ceil((sizes[(len(sizes) - 1) // 2] + sizes[len(sizes) // 2]) / 2)


def fgw_barycenter(graphs: Sequence[AttributedGraph], nbar: int | None = None,
                   cfg: FGWConfig | None = None) -> AttributedGraph:
    """FGW barycenter of a dataset: a reference graph under uniform weights.

    One round of block-coordinate descent (Vayer et al., 2019): solve one
    coupling per dataset graph against the starting reference, from the
    product coupling, then set the reference features to the
    coupling-weighted barycentric average and the reference structure to
    the coupling-weighted average of transported adjacencies. The per-graph
    solves run by `_fgw_solves`, in lockstep per group of graphs with equal
    node weights.

    The reference starts from the first dataset graph of nbar nodes when
    there is one. Otherwise it starts from draws of
    `np.random.default_rng(cfg.seed)`, created in that branch alone, so
    only a random start loads numpy.random (on numpy 2, where
    `import numpy` leaves it out).

    nbar is checked by `_checked_nbar` before anything of its size is allocated.
    """
    graphs = list(graphs)
    if not graphs:
        raise EmptyDataset("cannot build a barycenter from zero graphs")
    cfg = cfg or FGWConfig()
    if nbar is None:
        nbar = default_reference_size(graphs)
    nbar = _checked_nbar(nbar)
    if len({g.feature_dim for g in graphs}) > 1:
        raise DimensionMismatch("barycenter inputs disagree on feature dimension")

    pbar = np.full(nbar, 1.0 / nbar)

    # Initialize from the first dataset graph of nbar nodes, otherwise from
    # a random point cloud (structure) and pooled rows (features).
    first = next((g for g in graphs if g.n_nodes == nbar), None)
    if first is not None:
        A, X = first.adjacency, first.features
    else:
        rng = np.random.default_rng(cfg.seed)
        pts = rng.standard_normal((nbar, 2))
        A = _distance.cdist_euclidean(pts, pts)
        if A.max() > 0:
            A /= A.max()
        scale = max(g.adjacency.max() for g in graphs)
        A *= scale if scale > 0 else 1.0
        pooled = np.vstack([g.features for g in graphs])
        X = pooled[rng.integers(0, len(pooled), size=nbar)]

    reference = AttributedGraph(_symmetrize(A), X, pbar)
    couplings = [res.coupling for res in _fgw_solves(graphs, reference, cfg)]
    lam = 1.0 / len(graphs)
    X = sum(lam * (T.T @ g.features) for T, g in zip(couplings, graphs)) / pbar[:, None]
    A = sum(lam * (T.T @ g.adjacency @ T) for T, g in zip(couplings, graphs))
    A /= np.outer(pbar, pbar)
    return AttributedGraph(_symmetrize(A), X, pbar)


def _symmetrize(A: np.ndarray) -> np.ndarray:
    # Barycenter updates and projections are symmetric up to round-off; make it exact.
    return 0.5 * (A + A.T)
