#!/usr/bin/env python3
"""Linear-time graph comparison through a shared reference.

Pairwise FGW over N graphs needs N^2 coupling solves. Embedding every graph
once against a common barycenter and comparing projections brings that down
to N solves while preserving the distance ranking almost perfectly.
"""

import time

import numpy as np
from scipy.stats import spearmanr

from gradate import (
    LabeledGraphDataset,
    barycentric_embed,
    fgw_barycenter,
    fgw_distance,
    pairwise_linear_fgw,
)
from gradate.fgw import FGWConfig

rng = np.random.default_rng(1)

# A dozen graphs with genuinely different densities and feature locations.
graphs = []
for _ in range(12):
    n = int(rng.integers(6, 11))
    A = (rng.random((n, n)) < rng.uniform(0.2, 0.8)).astype(float)
    A = np.triu(A, 1)
    A = A + A.T
    X = rng.uniform(-2, 2, size=3) + 0.3 * rng.standard_normal((n, 3))
    from gradate import AttributedGraph
    graphs.append(AttributedGraph(A, X))
dataset = LabeledGraphDataset(graphs, [0] * len(graphs))

cfg = FGWConfig(alpha=0.5, seed=1)

# --- the reference graph ----------------------------------------------------
reference = fgw_barycenter(graphs, cfg=cfg)
print(f"barycenter: {reference.n_nodes} nodes (median size, rounded up), "
      f"adjacency range [{reference.adjacency.min():.2f}, {reference.adjacency.max():.2f}]")

# One embedding per graph: the coupling pushes features and structure onto
# the reference support.
emb = barycentric_embed(graphs[0], reference, cfg)
print("embedding shapes:", emb.t_node.shape, emb.t_edge.shape)

# --- full pairwise matrices, both ways --------------------------------------
t0 = time.perf_counter()
D_linear = pairwise_linear_fgw(dataset, cfg)
t_linear = time.perf_counter() - t0

t0 = time.perf_counter()
n = len(graphs)
D_true = np.zeros((n, n))
for i in range(n):
    for j in range(i + 1, n):
        D_true[i, j] = D_true[j, i] = fgw_distance(graphs[i], graphs[j], cfg).distance
t_true = time.perf_counter() - t0

iu = np.triu_indices(n, k=1)
rho = spearmanr(D_linear[iu], D_true[iu]).statistic
print(f"linear matrix: {t_linear:.2f}s   full FGW matrix: {t_true:.2f}s")
print(f"spearman rank correlation: {rho:.3f}")

# The square root of the linear distance is a true metric on embeddings;
# spot-check the triangle inequality on a few triples.
root = np.sqrt(D_linear)
worst = max(root[i, k] - root[i, j] - root[j, k]
            for i in range(n) for j in range(n) for k in range(n))
print("worst triangle slack (should be <= 0):", worst)
