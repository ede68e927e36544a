"""Linear-time FGW approximation through barycentric embeddings.

Every graph is coupled once against a shared reference graph; the coupling
projects its features and structure onto the reference support. Pairs of
graphs are then compared by a closed-form weighted squared Frobenius
distance between projections, so an N-graph dataset costs N coupling solves
instead of N^2. Those solves run in lockstep per group of graphs with equal
node weights (`fgw._fgw_solves`), each with the bits it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, ReferenceMismatch
from .fgw import (FGWConfig, FGWResult, _checked_alpha, _fgw_solves, _symmetrize, fgw_barycenter,
                  fgw_distance)
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
    converge; the flag is carried on the embedding. This is the stack of one
    of `embed_all`.
    """
    _check_reference(reference)
    return _projection(g, fgw_distance(g, reference, cfg or FGWConfig()))


def _check_reference(reference: AttributedGraph) -> None:
    """ReferenceMismatch unless the reference carries uniform node weights."""
    if np.abs(reference.node_weights - 1.0 / reference.n_nodes).max() > 1e-9:
        raise ReferenceMismatch("reference graph must carry uniform node weights")


def _projection(g: AttributedGraph, res: FGWResult) -> BarycentricEmbedding:
    """The embedding of `g` by its solve `res` against the reference."""
    pi = res.coupling.T  # (nbar, n): reference rows, graph columns
    nbar = pi.shape[0]
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
    """Embed graphs against one reference; embedding i is graph i's.

    The coupling solves run in lockstep, one stack per group of graphs with
    equal node weights (`fgw._fgw_solves`), and each embedding equals
    `barycentric_embed`'s bit for bit.
    """
    _check_reference(reference)
    results = _fgw_solves(graphs, reference, cfg or FGWConfig())
    return [_projection(g, res) for g, res in zip(graphs, results)]


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
