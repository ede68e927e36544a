"""Dataset-distance minimization over the sparse probability simplex.

Starting from uniform training weights, each iteration takes a gradient
step along the calibrated OT dual potentials, projects to nonnegativity,
keeps only the top-k entries under a shrinking schedule and renormalizes.
The nonzero indices of the final weight vector are the selected samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid
from .fgw import _as_number, _checked_nonnegative
from .gdd import OTSolver, _outer_cost, gdd_from_cost
from .ot import calibrate_duals

_SNAP_EPS = 1e-9


def _snap(x: float) -> float:
    # Guard floor/ceil against float dust in products like 0.2 * 100.
    r = round(x)
    return float(r) if abs(x - r) <= _SNAP_EPS else x


def floor_budget(n: int, tau: float) -> int:
    """The sparsity budget floor(n * tau)."""
    return int(math.floor(_snap(n * tau)))


def _checked_tau(tau) -> float:
    """`tau` as a Python float in (0, 1], or a ConfigInvalid naming tau."""
    tau = _as_number("tau", tau, float)
    if not 0.0 < tau <= 1.0:
        raise ConfigInvalid(f"tau must be in (0, 1], got {tau}")
    return tau


def _checked_T(T) -> int:
    """`T` as a Python int of at least 2, or a ConfigInvalid naming T."""
    T = _as_number("T", T, int)
    if T < 2:
        raise ConfigInvalid(f"T must be >= 2, got {T}")
    return T


def _selection_budget(n: int, tau: float) -> int:
    """floor(n * tau) for a tau in (0, 1]; a budget of zero is a ConfigInvalid."""
    tau = _checked_tau(tau)
    budget = floor_budget(n, tau)
    if budget < 1:
        raise ConfigInvalid(f"floor({n} * {tau}) = 0; nothing would be selected")
    return budget


def validate_weights(w: np.ndarray, budget: int | None = None) -> np.ndarray:
    """Check the weight-vector invariants: finite simplex point, sparsity bound."""
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ConfigInvalid("weights must be finite")
    if np.any(w < 0):
        raise ConfigInvalid("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ConfigInvalid(f"weights sum to {w.sum()!r}, expected 1")
    if budget is not None and np.count_nonzero(w) > budget:
        raise ConfigInvalid(f"support {np.count_nonzero(w)} exceeds budget {budget}")
    return w


@dataclass(frozen=True)
class GreatIteration:
    """One optimization step: distance seen and support kept.

    `weights` is the full weight vector after this step, kept for
    diagnostics and invariant checks; `recovered` marks a step that
    annihilated every weight and restored the pre-update top-k.
    """

    t: int
    gdd_value: float
    support_size: int
    weights: np.ndarray | None = None
    recovered: bool = False


@dataclass(frozen=True)
class GreatTrace:
    """Per-iteration log plus the final state of the selection run."""

    iterations: tuple[GreatIteration, ...]
    final_weights: np.ndarray
    final_gdd: float

    def rows(self) -> list[tuple[int, float, int]]:
        """(t, gdd, support) triplets for CSV-style serialization."""
        return [(it.t, it.gdd_value, it.support_size) for it in self.iterations]


def gdd_gradient(dtilde, w: np.ndarray | None,
                 solver: OTSolver | None = None) -> np.ndarray:
    """Gradient of the dataset distance in the training weights.

    Solves the outer OT at w (uniform when None) and returns the calibrated
    (zero-sum) source dual vector. Where the optimal duals are not unique,
    as at uniform weights with gcd(n, m) > 1, the exact solver returns their
    canonical point, so the gradient does not depend on the order of the
    rows or columns. Zero-weight atoms keep their reduced-cost-feasible dual
    value from the solver, so pruned samples can still be ranked.
    """
    _, sol = gdd_from_cost(dtilde, w, solver)
    return calibrate_duals(sol).dual_source


def sparsity_schedule(n: int, tau: float, T: int, t: int) -> int:
    """Support budget k(t) = n * max(tau, (T-t+1)/(T-1) + tau*t/(T-1)).

    The raw value exceeds n for small t; it is clamped to [ceil(n*tau), n]
    and rounded down. Non-increasing in t.
    """
    tau, T, t = _checked_tau(tau), _checked_T(T), _as_number("t", t, int)
    if not 1 <= t <= T - 1:
        raise ConfigInvalid(f"iteration t={t} outside [1, {T - 1}]")
    raw = n * max(tau, (T - t + 1) / (T - 1) + tau * t / (T - 1))
    lo = int(math.ceil(_snap(n * tau)))
    return int(math.floor(_snap(min(max(raw, lo), n))))


def _keep_top(w: np.ndarray, k: int) -> np.ndarray:
    """A copy of `w` with all but its k largest entries zeroed, renormalized to sum 1."""
    # Stable sort on -w: ties keep the lower index, as required for
    # reproducible selections.
    top = np.argsort(-w, kind="stable")[:k]
    kept = np.zeros_like(w)
    kept[top] = w[top]
    return kept / kept.sum()


def great_select(dtilde, tau: float, T: int, eta: float,
                 solver: OTSolver | None = None) -> tuple[np.ndarray, GreatTrace]:
    """Select training samples by iterative reweighting and sparsification.

    For t = 1..T-1: gradient step w <- max(w - eta * g, 0), keep the k(t)
    largest entries (ties to the lower index), renormalize. A terminal clamp
    to floor(n * tau) entries is applied before extracting the selected
    index set, since the schedule itself never goes below ceil(n * tau).

    If a step annihilates every coordinate (possible only for uncalibrated
    gradients, but handled defensively), the pre-update weights restricted
    to their top-k support are restored and the event is recorded on the
    trace.

    Each outer solve after the first passes the previous one as the
    solver's `start`. The cost is checked as `gdd_from_cost` checks it,
    before tau: not 2-D is a DimensionMismatch, without rows or columns an
    EmptyDataset. tau, T and eta are checked, and refused with a
    ConfigInvalid that names them, by the rules `SelectionConfig` applies.
    """
    values = _outer_cost(dtilde)
    n = values.shape[0]
    budget = _selection_budget(n, tau)
    T, eta = _checked_T(T), _checked_nonnegative("eta", eta)

    w = np.full(n, 1.0 / n)
    records: list[GreatIteration] = []
    sol = None
    for t in range(1, T):
        value, sol = gdd_from_cost(values, w, solver, start=sol)
        grad = calibrate_duals(sol).dual_source
        k = sparsity_schedule(n, tau, T, t)

        updated = np.maximum(w - eta * grad, 0.0)
        recovered = bool(updated.max() <= 0.0)
        updated = _keep_top(w if recovered else updated, k)

        records.append(GreatIteration(
            t=t,
            gdd_value=value,
            support_size=int(np.count_nonzero(updated)),
            weights=updated.copy(),
            recovered=recovered,
        ))
        w = updated

    if np.count_nonzero(w) > budget:
        w = _keep_top(w, budget)

    final_value, _ = gdd_from_cost(values, w, solver, start=sol)
    trace = GreatTrace(iterations=tuple(records), final_weights=w, final_gdd=final_value)
    return np.flatnonzero(w), trace
