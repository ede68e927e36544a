"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: enumeration, finite differences, a
Sinkhorn loop that tests the coupling it builds, the extension of a solve to
zero-mass atoms, the FGW linear step's assignment certificate, one FGW
solve of one pair, one barycenter round, the canonical outer duals by
shortest paths and the GREAT selection loop written straight through. They share no code with the
solvers under test; the certificate reads only the two constants of `ot`
that define it, and the GREAT loop calls only the outer OT solve and its
dual calibration.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from gradate.ot import _ASSIGNMENT_MAX_LCM, _CERTIFICATE_MARGIN, calibrate_duals, solve_exact_ot


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


def zero_mass_extension(cost, p, q, restricted, epsilon=None):
    """A solve with zero-mass atoms, built from `restricted`, the solve on the positive atoms alone.

    The extension written straight through, as each solver of `ot` carried
    it before one routine did it for both. The coupling is `restricted`'s at
    the positive atoms and 0 elsewhere. Each zero-mass column's dual is the
    min over the positive rows of cost - beta, then each zero-mass row's the
    min over all columns of cost - psi. For the exact LP (`epsilon` None)
    these are hard mins. For Sinkhorn they are epsilon-soft-mins by scipy's
    `logsumexp`, weighted by p for the columns and by q, with 0 as 1e-300,
    for the rows, and the value is <coupling, cost>. Returns (value,
    coupling, dual_source, dual_target); p and q must be nonnegative.
    """
    cost, p, q = (np.asarray(a, dtype=np.float64) for a in (cost, p, q))
    keep_i, keep_j = np.flatnonzero(p > 0), np.flatnonzero(q > 0)
    drop_i, drop_j = np.flatnonzero(p <= 0), np.flatnonzero(q <= 0)
    coupling = np.zeros(cost.shape)
    coupling[np.ix_(keep_i, keep_j)] = restricted.coupling
    beta, psi = np.zeros(len(p)), np.zeros(len(q))
    beta[keep_i], psi[keep_j] = restricted.dual_source, restricted.dual_target
    if epsilon is None:
        if drop_j.size:
            psi[drop_j] = np.min(cost[np.ix_(keep_i, drop_j)] - beta[keep_i, None], axis=0)
        if drop_i.size:
            beta[drop_i] = np.min(cost[drop_i] - psi[None, :], axis=1)
        return restricted.value, coupling, beta, psi
    if drop_j.size:
        psi[drop_j] = -epsilon * logsumexp(
            (beta[keep_i, None] - cost[np.ix_(keep_i, drop_j)]) / epsilon
            + np.log(p[keep_i])[:, None], axis=0)
    if drop_i.size:
        beta[drop_i] = -epsilon * logsumexp(
            (psi[None, :] - cost[drop_i]) / epsilon
            + np.log(np.maximum(q[None, :], 1e-300)), axis=1)
    return float(np.sum(coupling * cost)), coupling, beta, psi


def unique_uniform_vertex(cost, p, q):
    """The optimal coupling of uniform OT by assignment, if certified unique; else None.

    The FGW linear step's assignment path written straight through, one
    fresh expansion per call, as `ot` ran it before the step was planned
    once per pair: the equal-row and equal-column precheck, the L x L
    assignment on the lcm expansion, the forest check, and the second
    assignment with the support raised by delta, which must not find a plan
    cheaper by 0.5 delta. Returns None where the step must solve the full
    LP: non-uniform weights, lcm(n, m) above the cap, a tie or a cycle.
    """
    n, m = cost.shape
    if np.any(p != p[0]) or np.any(q != q[0]):
        return None
    L = math.lcm(n, m)
    if L > _ASSIGNMENT_MAX_LCM:
        return None
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
    delta = _CERTIFICATE_MARGIN * max(1.0, float(np.abs(cost).max()))
    raised = expanded + delta * support[np.ix_(row_of, col_of)]
    _, rival = linear_sum_assignment(raised)
    if raised[rows, rival].sum() < raised[rows, cols].sum() - 0.5 * delta:
        return None
    return counts / L


def _has_equal_rows(a):
    return len({row.tobytes() for row in a}) < len(a)


def _is_forest(support):
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


def lp_vertex(cost, p, q):
    """`linprog(method="highs-ds")`'s vertex of OT(p, q, cost) on the positive atoms, full length.

    A cost with a negative entry is first shifted by its minimum, as the FGW
    step's full LP does; zero-mass rows and columns get no mass.
    """
    cost = cost - min(cost.min(), 0.0)
    keep_i, keep_j = np.flatnonzero(p > 0), np.flatnonzero(q > 0)
    n, m = len(keep_i), len(keep_j)
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))]).tocsc()
    res = linprog(cost[np.ix_(keep_i, keep_j)].ravel(), A_eq=a_eq,
                  b_eq=np.concatenate([p[keep_i], q[keep_j]]), bounds=(0, None),
                  method="highs-ds")
    assert res.status == 0
    vertex = np.zeros(cost.shape)
    vertex[np.ix_(keep_i, keep_j)] = res.x.reshape(n, m)
    return vertex


def straight_line_fgw(g1, g2, alpha, coupling_init=None, max_iter=200, tol=1e-9):
    """One FGW conditional-gradient solve of the pair (g1, g2), written straight through.

    The one-pair loop `fgw_distance` ran before the solves of a stage ran in
    lockstep: the squared-loss objective <F, T> + alpha <L x T, T> (alpha 1
    on featureless graphs), the factored contraction constC - A1 T (2 A2),
    the closed-form line search on [0, 1], and a linear step that is
    `unique_uniform_vertex` where it certifies a vertex and `lp_vertex`
    otherwise. The coupling starts at p q^T unless `coupling_init` is given;
    a solve stops when its step is 0 or its objective falls by at most
    `tol` relative, or after `max_iter` steps. Returns (coupling, objective
    curve, converged).
    """
    p, q = g1.node_weights, g2.node_weights
    A1, A2 = g1.adjacency, g2.adjacency
    if g1.feature_dim == 0:
        alpha = 1.0
    F = ((1.0 - alpha) * cdist(g1.features, g2.features) ** 2 if g1.feature_dim
         else np.zeros((len(p), len(q))))
    constC = np.add.outer((A1 ** 2) @ p, (A2 ** 2) @ q)
    T = np.outer(p, q) if coupling_init is None else np.asarray(coupling_init, dtype=np.float64)
    LT = constC - A1 @ T @ (2.0 * A2)
    curve = [float((F * T).sum() + alpha * (LT * T).sum())]
    for _ in range(max_iter):
        grad = F + 2.0 * alpha * LT
        vertex = unique_uniform_vertex(grad, p, q)
        delta = (lp_vertex(grad, p, q) if vertex is None else vertex) - T
        b = float((grad * delta).sum())
        a = -alpha * float(((A1 @ delta @ (2.0 * A2)) * delta).sum())
        if a > 0:
            step = min(max(-b / (2.0 * a), 0.0), 1.0)
        else:
            step = 1.0 if a + b < 0 else 0.0
        if step > 0.0:
            T = T + step * delta
            LT = constC - A1 @ T @ (2.0 * A2)
        curve.append(float((F * T).sum() + alpha * (LT * T).sum()))
        if step == 0.0 or curve[-2] - curve[-1] <= tol * max(abs(curve[-2]), 1e-16):
            return T, np.array(curve), True
    return T, np.array(curve), False


def barycenter_round(graphs, start, alpha):
    """One block-coordinate round of the FGW barycenter from `start`, written out.

    One `straight_line_fgw` coupling T_g per graph against `start`, from
    p q^T; then, with pbar the start's node weights and lam = 1 / len(graphs),
    the features sum_g lam T_g^T X_g / pbar and the structure
    sum_g lam T_g^T A_g T_g / (pbar pbar^T), made exactly symmetric as
    (A + A^T) / 2. The sums run in list order and multiply by lam before they
    add, the float order that fixes the bits. Returns (adjacency, features).
    """
    pbar = start.node_weights
    lam = 1.0 / len(graphs)
    X = np.zeros(start.features.shape)
    A = np.zeros(start.adjacency.shape)
    for g in graphs:
        T, _, _ = straight_line_fgw(g, start, alpha)
        X = X + lam * (T.T @ g.features)
        A = A + lam * ((T.T @ g.adjacency) @ T)
    A = A / np.outer(pbar, pbar)
    return 0.5 * (A + A.T), X / pbar[:, None]


def canonical_duals(cost, plan):
    """The canonical optimal duals of an exact OT problem, from one optimal `plan`, by Bellman-Ford.

    The rule `solve_exact_ot` documents, written straight through on the
    positive atoms (rows and columns of `plan` with mass) in plain Python.
    With u = f on the rows and v = -g on the columns, each cell (i, j) gives
    the constraint u_i - v_j <= cost[i, j], an arc from column j to row i
    of that length, and each cell of the plan's support also gives
    v_j - u_i <= -cost[i, j], an arc back. Holding a row's u at 0, the
    optimal duals with every f largest are the shortest-path distances from
    that row; holding a column's v at 0, those with every g largest are
    minus the distances to that column, found on the reversed arcs. One
    Bellman-Ford run over every arc per atom. Returns (f, g) on the positive
    atoms: the mean over all atoms of those duals, shifted so that f sums to
    zero.
    """
    cost, plan = np.asarray(cost, dtype=np.float64), np.asarray(plan, dtype=np.float64)
    rows = [i for i in range(plan.shape[0]) if plan[i].sum() > 0]
    cols = [j for j in range(plan.shape[1]) if plan[:, j].sum() > 0]
    n, m = len(rows), len(cols)
    arcs = []
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            c = float(cost[i, j])
            arcs.append((n + b, a, c))
            if plan[i, j] > 0:
                arcs.append((a, n + b, -c))
    total = [0.0] * (n + m)
    for anchor in range(n + m):
        # From a row anchor along the arcs, to a column anchor against them.
        sign = 1.0 if anchor < n else -1.0
        directed = arcs if anchor < n else [(head, tail, c) for tail, head, c in arcs]
        dist = [math.inf] * (n + m)
        dist[anchor] = 0.0
        for _ in range(n + m):
            changed = False
            for tail, head, length in directed:
                if dist[tail] + length < dist[head]:
                    dist[head] = dist[tail] + length
                    changed = True
            if not changed:
                break
        total = [t + sign * d for t, d in zip(total, dist)]
    f = [t / (n + m) for t in total[:n]]
    g = [-t / (n + m) for t in total[n:]]
    shift = sum(f) / n
    return np.array([x - shift for x in f]), np.array([y + shift for y in g])


def is_optimal_dual(cost, plan, f, g, tol):
    """Whether (f, g) is feasible to `tol` and tight to `tol` on the support of the optimal `plan`.

    Such duals and the plan satisfy complementary slackness, so both are
    optimal: this is the exact test of an optimal dual, given one optimal
    plan.
    """
    slack = np.asarray(cost, dtype=np.float64) - np.add.outer(f, g)
    return bool(slack.min() >= -tol and np.abs(slack[np.asarray(plan) > 0]).max() <= tol)


def great_loop(dtilde, tau, T, eta, calibrate=calibrate_duals):
    """GREAT selection written straight through, from uniform weights.

    Returns one (weights, gdd value, recovered) triple per iteration, then
    the final weights and the final gdd value. The budgets are computed in
    exact rational arithmetic on the decimal reading of tau:
    k(t) = floor(min(n, max(ceil(n tau), n max(tau, (T-t+1)/(T-1) + tau t/(T-1))))),
    and floor(n tau) at the end. The top k is a Python sort on (-w_i, i),
    so ties go to the lower index. The float arithmetic that defines the
    weights' bits is the algorithm's own: the step max(w - eta g, 0) and a
    division of the kept full-length vector by its numpy sum.
    """
    values = np.asarray(dtilde, dtype=np.float64)
    n, m = values.shape
    q = np.full(m, 1.0 / m)
    rate = Fraction(repr(float(tau)))

    def schedule(t):
        raw = n * max(rate, Fraction(T - t + 1, T - 1) + rate * Fraction(t, T - 1))
        return math.floor(min(n, max(math.ceil(n * rate), raw)))

    def keep_top(v, k):
        kept = np.zeros(n)
        for i in sorted(range(n), key=lambda i: (-v[i], i))[:k]:
            kept[i] = v[i]
        return kept / kept.sum()

    w = np.full(n, 1.0 / n)
    steps = []
    for t in range(1, T):
        sol = solve_exact_ot(values, w, q)
        stepped = np.maximum(w - eta * calibrate(sol).dual_source, 0.0)
        recovered = not (stepped > 0).any()
        w = keep_top(w if recovered else stepped, schedule(t))
        steps.append((w, sol.value, recovered))
    if np.count_nonzero(w) > math.floor(n * rate):
        w = keep_top(w, math.floor(n * rate))
    return steps, w, solve_exact_ot(values, w, q).value
