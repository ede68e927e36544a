"""Fused Gromov-Wasserstein distances between attributed graphs.

The distance blends a feature (Wasserstein) term and a structure
(Gromov-Wasserstein) term, weighted by alpha. It is computed by conditional
gradient: linearize the quadratic structure term at the current coupling,
solve the linear OT subproblem exactly, and take the closed-form line-search
step of the quadratic objective. The barycenter solver alternates coupling
solves with closed-form feature/structure updates.

The linear subproblem is solved by the step `ot._linear_step` plans once
per solve; the `ot` module docstring describes its paths, which agree to
rounding wherever both answer.

Both terms use the squared loss, the only one for which the barycenter
updates and the LinearFGW embeddings built on these couplings are closed
forms. The structure gradient is then the factored contraction
constC - A1 @ T @ (2 A2), which costs O(n^2 m + n m^2). Each iterate's
contraction is computed once and serves both its objective value and the
next gradient.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
# numpy loads numpy.random on first use: load it with the package, not
# inside the first barycenter.
import numpy.random  # noqa: F401

from .errors import ConfigInvalid, DimensionMismatch, EmptyDataset
from . import graphs as _graphs
from .graphs import AttributedGraph
from .ot import _linear_step, _scipy_extension

# `scipy.spatial.distance.cdist(X, Y)` dispatches to this compiled function
# for its default "euclidean" metric, so results keep cdist's bits.
_cdist = _scipy_extension("scipy.spatial._distance_pybind").cdist_euclidean

FW_MAX_ITER = 200  # conditional-gradient iteration budget per coupling solve
FW_TOL = 1e-9  # relative objective decrease that ends a coupling solve
BARYCENTER_ROUNDS = 10  # cap on the barycenter's block-coordinate rounds
BARYCENTER_TOL = 1e-9  # relative decrease of the summed objective that ends them


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
    """Squared-loss FGW objective E(T) = <F, T> + alpha * <L x T, T> for one pair.

    F holds (1 - alpha) times the squared feature distances and
    L[i, j, k, l] = (A1[i, k] - A2[j, l])**2; L is only ever applied in
    the factored form of `contract`.
    """

    def __init__(self, g1: AttributedGraph, g2: AttributedGraph, cfg: FGWConfig):
        if g1.feature_dim != g2.feature_dim:
            raise DimensionMismatch(
                f"feature dimensions differ: {g1.feature_dim} vs {g2.feature_dim}"
            )
        self.p = g1.node_weights
        self.q = g2.node_weights
        A1, A2 = g1.adjacency, g2.adjacency
        # Featureless graphs carry no Wasserstein term; alpha degenerates to 1.
        self.alpha = alpha = 1.0 if g1.feature_dim == 0 else cfg.alpha
        self.F = ((1.0 - alpha) * _cdist(g1.features, g2.features) ** 2 if g1.feature_dim
                  else np.zeros((g1.n_nodes, g2.n_nodes)))
        self.constC = np.add.outer((A1 ** 2) @ self.p, (A2 ** 2) @ self.q)
        self.hC1, self.hC2 = A1, 2.0 * A2

    def contract(self, T: np.ndarray) -> np.ndarray:
        """(L x T)[i, j] = sum_kl L[i, j, k, l] T[k, l] for a true coupling T."""
        return self.constC - self.hC1 @ T @ self.hC2

    def value(self, T: np.ndarray, LT: np.ndarray) -> float:
        """E(T), given its contraction LT = `contract(T)`."""
        return float((self.F * T).sum() + self.alpha * (LT * T).sum())

    def gradient(self, LT: np.ndarray) -> np.ndarray:
        """The gradient of E at T, given its contraction LT = `contract(T)`."""
        return self.F + 2.0 * self.alpha * LT

    def line_search(self, delta: np.ndarray, grad: np.ndarray) -> float:
        """Exact minimizer of s -> E(T + s * delta) over [0, 1].

        delta is a difference of couplings, so its marginals vanish and the
        quadratic coefficient needs only the cross term of the structure
        tensor.
        """
        b = float((grad * delta).sum())
        a = -self.alpha * float(((self.hC1 @ delta @ self.hC2) * delta).sum())
        if a > 0:
            return min(max(-b / (2.0 * a), 0.0), 1.0)
        return 1.0 if a + b < 0 else 0.0


def _check_coupling(T, p, q):
    T = np.asarray(T, dtype=np.float64)
    if T.shape != (len(p), len(q)):
        raise DimensionMismatch(f"initial coupling has shape {T.shape}")
    if (np.abs(T.sum(axis=1) - p).max() > 1e-8
            or np.abs(T.sum(axis=0) - q).max() > 1e-8):
        raise ConfigInvalid("initial coupling does not match the node weights")
    return T


def _frank_wolfe(obj: _QuadObjective, T: np.ndarray):
    linear_step = _linear_step(obj.p, obj.q)
    LT = obj.contract(T)
    curve = [obj.value(T, LT)]
    for _ in range(FW_MAX_ITER):
        grad = obj.gradient(LT)
        delta = linear_step(grad) - T
        step = obj.line_search(delta, grad)
        if step > 0.0:
            T = T + step * delta
            LT = obj.contract(T)
        curve.append(obj.value(T, LT))
        if step == 0.0 or curve[-2] - curve[-1] <= FW_TOL * max(abs(curve[-2]), 1e-16):
            return T, curve, True
    return T, curve, False


def fgw_distance(g1: AttributedGraph, g2: AttributedGraph,
                 cfg: FGWConfig | None = None,
                 coupling_init: np.ndarray | None = None) -> FGWResult:
    """Fused Gromov-Wasserstein distance between two attributed graphs.

    Conditional gradient finds a stationary point of the (non-convex) FGW
    objective; the reported distance is objective**0.5. The coupling
    starts at the product measure p q^T unless `coupling_init` is given. The
    exact line search makes the iterates monotone, so the last iterate is
    the best one; a non-converged run returns it with converged=False rather
    than raising.
    """
    cfg = cfg or FGWConfig()
    obj = _QuadObjective(g1, g2, cfg)
    if coupling_init is not None:
        T0 = _check_coupling(coupling_init, obj.p, obj.q)
    else:
        T0 = np.outer(obj.p, obj.q)
    T, curve, converged = _frank_wolfe(obj, T0)
    value = max(curve[-1], 0.0)
    return FGWResult(
        distance=float(value ** 0.5),
        coupling=T,
        converged=converged,
        iterations=len(curve) - 1,
        objective_curve=np.asarray(curve),
    )


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

    Block-coordinate descent: solve one coupling per dataset graph against
    the current reference, then refresh the reference features as the
    coupling-weighted barycentric average and the reference structure as the
    coupling-weighted average of transported adjacencies. The per-graph
    solves of a round run serially, each warm-started from that graph's
    coupling of the previous round, for at most BARYCENTER_ROUNDS rounds,
    fewer once a round stops lowering the summed objective.

    nbar is checked by `_checked_nbar` before anything of its size is allocated.
    """
    graphs = list(graphs)
    if not graphs:
        raise EmptyDataset("cannot build a barycenter from zero graphs")
    cfg = cfg or FGWConfig()
    if nbar is None:
        nbar = default_reference_size(graphs)
    nbar = _checked_nbar(nbar)
    d = graphs[0].feature_dim
    for g in graphs:
        if g.feature_dim != d:
            raise DimensionMismatch("barycenter inputs disagree on feature dimension")

    rng = np.random.default_rng(cfg.seed)
    pbar = np.full(nbar, 1.0 / nbar)

    # Initialize from the size-nearest dataset graph when it fits exactly,
    # otherwise from a random point cloud (structure) and pooled rows
    # (features).
    sizes = np.array([g.n_nodes for g in graphs])
    nearest = int(np.argmin(np.abs(sizes - nbar)))
    if graphs[nearest].n_nodes == nbar:
        A = np.array(graphs[nearest].adjacency)
        X = np.array(graphs[nearest].features)
    else:
        pts = rng.standard_normal((nbar, 2))
        A = _cdist(pts, pts)
        if A.max() > 0:
            A /= A.max()
        scale = max(g.adjacency.max() for g in graphs)
        A *= scale if scale > 0 else 1.0
        if d:
            pooled = np.vstack([g.features for g in graphs])
            X = pooled[rng.integers(0, len(pooled), size=nbar)]
        else:
            X = np.zeros((nbar, 0))

    reference = AttributedGraph(_symmetrize(A), X, pbar)
    lam = 1.0 / len(graphs)
    couplings: list[np.ndarray | None] = [None] * len(graphs)
    prev_obj = np.inf

    for _ in range(BARYCENTER_ROUNDS):
        results = [fgw_distance(g, reference, cfg, coupling_init=warm)
                   for g, warm in zip(graphs, couplings)]
        couplings = [res.coupling for res in results]
        obj = sum(res.objective_curve[-1] for res in results)

        if d:
            X = sum(lam * (T.T @ g.features) for T, g in zip(couplings, graphs)) / pbar[:, None]
        A = sum(lam * (T.T @ g.adjacency @ T) for T, g in zip(couplings, graphs))
        A /= np.outer(pbar, pbar)
        reference = AttributedGraph(_symmetrize(A), X, pbar)

        if prev_obj - obj <= BARYCENTER_TOL * max(abs(prev_obj), 1e-16):
            break
        prev_obj = obj

    return reference


def _symmetrize(A: np.ndarray) -> np.ndarray:
    # Barycenter updates and projections are symmetric up to round-off; make it exact.
    return 0.5 * (A + A.T)
