"""Linear-time FGW approximation through barycentric embeddings.

Every graph is coupled once against a shared reference graph; the coupling
projects its features and structure onto the reference support. Pairs of
graphs are then compared by a closed-form weighted squared Frobenius
distance between projections, so an N-graph dataset costs N coupling solves
instead of N^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, ReferenceMismatch
from .fgw import FGWConfig, _checked_alpha, _symmetrize, fgw_barycenter, fgw_distance
from .graphs import AttributedGraph, LabeledGraphDataset


@dataclass(frozen=True)
class BarycentricEmbedding:
    """Projection of one graph onto the reference support.

    t_node : (nbar, d) feature projection nbar * pi^T X.
    t_edge : (nbar, nbar) structure projection nbar^2 * pi^T A pi.
    converged : whether the underlying coupling solve converged.
    """

    t_node: np.ndarray
    t_edge: np.ndarray
    converged: bool = True

    @property
    def reference_size(self) -> int:
        return self.t_edge.shape[0]


def barycentric_embed(g: AttributedGraph, reference: AttributedGraph,
                      cfg: FGWConfig | None = None) -> BarycentricEmbedding:
    """Embed a graph against a uniform-weight reference graph.

    Solves the FGW coupling between `g` and `reference`, then projects. The
    final conditional-gradient coupling is used even when it did not
    converge; the flag is carried on the embedding.
    """
    cfg = cfg or FGWConfig()
    nbar = reference.n_nodes
    if np.abs(reference.node_weights - 1.0 / nbar).max() > 1e-9:
        raise ReferenceMismatch("reference graph must carry uniform node weights")
    res = fgw_distance(g, reference, cfg)
    pi = res.coupling.T  # (nbar, n): reference rows, graph columns
    t_node = nbar * (pi @ g.features)
    t_edge = nbar ** 2 * (pi @ g.adjacency @ pi.T)
    return BarycentricEmbedding(t_node=t_node, t_edge=_symmetrize(t_edge),
                                converged=res.converged)


def linear_fgw_distance(e1: BarycentricEmbedding, e2: BarycentricEmbedding,
                        alpha: float) -> float:
    """Squared-form LinearFGW distance between two embeddings.

    Returns (1 - alpha) * ||dT_node||_F^2 + alpha * ||dT_edge||_F^2. This is
    a squared distance; its square root is a metric on embeddings. alpha is
    checked as `FGWConfig` checks it.
    """
    alpha = _checked_alpha(alpha)
    if (e1.reference_size != e2.reference_size
            or e1.t_node.shape != e2.t_node.shape):
        raise ReferenceMismatch(
            f"embeddings disagree on reference: {e1.t_node.shape} vs {e2.t_node.shape}"
        )
    return float(_linear_fgw_block([e1], [e2], alpha)[0, 0])


def embed_all(graphs: Sequence[AttributedGraph], reference: AttributedGraph,
              cfg: FGWConfig | None = None) -> list[BarycentricEmbedding]:
    """Embed graphs against one reference, serially; embedding i is graph i's."""
    cfg = cfg or FGWConfig()
    return [barycentric_embed(g, reference, cfg) for g in graphs]


def _reference_embeddings(graphs: Sequence[AttributedGraph], cfg: FGWConfig,
                          nbar: int | None) -> list[BarycentricEmbedding]:
    """Embed every graph against the FGW barycenter of all of them.

    The one reference-embedding stage of every LinearFGW matrix: the
    barycenter (`nbar` nodes, the median size when None) and one coupling
    solve per graph. Embedding i is graph i's.
    """
    reference = fgw_barycenter(graphs, nbar=nbar, cfg=cfg)
    return embed_all(graphs, reference, cfg)


def pairwise_linear_fgw(dataset: LabeledGraphDataset,
                        cfg: FGWConfig | None = None,
                        nbar: int | None = None) -> np.ndarray:
    """Full N x N LinearFGW matrix over one dataset.

    Builds the barycenter of the whole dataset, embeds every graph once and
    fills the matrix with `linear_fgw_distance`'s arithmetic. The result is
    bit-exactly symmetric with a zero diagonal: entry (i, j) sums the squares
    of e_i - e_j and entry (j, i) those of e_j - e_i, which are the same
    floats because negation is exact, and e_i - e_i is exactly zero.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot compute pairwise distances on an empty dataset")
    cfg = cfg or FGWConfig()
    embeddings = _reference_embeddings(dataset.graphs, cfg, nbar)
    return _linear_fgw_block(embeddings, embeddings, cfg.alpha)


def _linear_fgw_block(rows: Sequence[BarycentricEmbedding],
                      cols: Sequence[BarycentricEmbedding],
                      alpha: float) -> np.ndarray:
    """LinearFGW distance of every (row, col) pair of same-reference embeddings.

    Entry (i, j) equals `linear_fgw_distance(rows[i], cols[j], alpha)` bit for
    bit: each row sums its squared differences along one contiguous axis,
    which is the summation a full `np.sum` does on one pair. Each row
    allocates O(len(cols) * (nbar * d + nbar^2)), never a rows x cols tensor.
    """
    node = np.stack([e.t_node.ravel() for e in cols])
    edge = np.stack([e.t_edge.ravel() for e in cols])
    D = np.empty((len(rows), len(cols)))
    for i, e in enumerate(rows):
        dn = e.t_node.ravel() - node
        de = e.t_edge.ravel() - edge
        D[i] = (1.0 - alpha) * np.sum(dn * dn, axis=1) + alpha * np.sum(de * de, axis=1)
    return D
