"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: enumeration, finite differences and
a Sinkhorn loop that tests the coupling it builds, no shared code with the
solvers under test.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import logsumexp


def enumerate_transport_tables(supplies, demands):
    """Yield every nonnegative integer matrix with the given margins.

    Supplies and demands are integer vectors with equal totals. Any vertex of
    the scaled transportation polytope is such a table, so the minimum cost
    over tables equals the LP optimum for rational marginals.
    """
    supplies = [int(s) for s in supplies]
    demands = [int(d) for d in demands]
    assert sum(supplies) == sum(demands)
    n, m = len(supplies), len(demands)

    def rows(i, remaining):
        if i == n:
            yield []
            return
        for row in compositions(supplies[i], remaining):
            rest = tuple(r - x for r, x in zip(remaining, row))
            for tail in rows(i + 1, rest):
                yield [row] + tail

    def compositions(total, caps):
        # All ways to split `total` into len(caps) parts bounded by caps.
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in compositions(total - first, caps[1:]):
                yield (first,) + rest

    for table in rows(0, tuple(demands)):
        yield np.array(table, dtype=np.int64)


def brute_force_ot(cost, supplies, demands):
    """Exact OT value for marginals supplies/total and demands/total.

    Enumerates all integer transport tables and minimizes the cost; returns
    the value expressed in probability mass (divided by the common total).
    """
    cost = np.asarray(cost, dtype=np.float64)
    total = int(sum(int(s) for s in supplies))
    best = np.inf
    for table in enumerate_transport_tables(supplies, demands):
        v = float(np.sum(table * cost))
        if v < best:
            best = v
    return best / total


def brute_force_assignment(cost):
    """Minimum-cost perfect matching by permutation enumeration."""
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    idx = np.arange(n)
    return min(float(cost[idx, perm].sum()) for perm in itertools.permutations(range(n)))


def simplex_central_difference(fn, w, h=1e-5):
    """Central finite differences of fn along the directions e_i - 1/n.

    The perturbations stay on the probability simplex, matching the zero-sum
    calibration of dual-based gradients.
    """
    w = np.asarray(w, dtype=np.float64)
    n = len(w)
    grad = np.empty(n)
    for i in range(n):
        delta = -np.full(n, 1.0 / n)
        delta[i] += 1.0
        grad[i] = (fn(w + h * delta) - fn(w - h * delta)) / (2.0 * h)
    return grad


def random_rational_marginal(rng, size, total):
    """An integer supply vector of the given total with no zero entries."""
    cuts = rng.choice(np.arange(1, total), size=size - 1, replace=False)
    cuts.sort()
    parts = np.diff(np.concatenate([[0], cuts, [total]]))
    assert parts.sum() == total and np.all(parts >= 1)
    return parts.astype(np.int64)


def sinkhorn_coupling_per_sweep(cost, p, q, epsilon, max_iter=10_000, tol=1e-9):
    """Log-domain Sinkhorn that builds the coupling on every sweep to test it.

    The loop `solve_sinkhorn` ran before it tested the row sums in closed
    form. Returns (f, g, coupling, sweeps) for strictly positive p and q,
    or None when `max_iter` sweeps do not reach `tol`.
    """
    cost = np.asarray(cost, dtype=np.float64)
    logp, logq = np.log(p), np.log(q)
    f = np.zeros(len(p))
    g = np.zeros(len(q))
    for sweep in range(1, max_iter + 1):
        f = -epsilon * (logsumexp((g[None, :] - cost) / epsilon + logq[None, :], axis=1))
        g = -epsilon * (logsumexp((f[:, None] - cost) / epsilon + logp[:, None], axis=0))
        log_pi = (f[:, None] + g[None, :] - cost) / epsilon + logp[:, None] + logq[None, :]
        pi = np.exp(log_pi)
        err = max(np.abs(pi.sum(axis=1) - p).max(), np.abs(pi.sum(axis=0) - q).max())
        if err <= tol:
            return f, g, pi, sweep
    return None
