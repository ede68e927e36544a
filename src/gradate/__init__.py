"""Optimal-transport training-data selection for attributed graph datasets.

The package compares attributed graphs with fused Gromov-Wasserstein
distances, approximates them in linear time through barycentric embeddings,
aggregates them into a label-informed dataset distance, and minimizes that
distance over a sparse simplex of training weights to pick the source subset
best matched to a validation domain.
"""

from .errors import GradateError
from .graphs import (
    AttributedGraph,
    LabeledGraphDataset,
    concat_datasets,
    degree_one_hot_features,
    graph_density,
)
from .ot import TransportSolution, calibrate_duals, solve_exact_ot, solve_sinkhorn
from .fgw import FGWConfig, FGWResult, fgw_barycenter, fgw_distance
from .linear_fgw import (
    BarycentricEmbedding,
    barycentric_embed,
    linear_fgw_distance,
    pairwise_linear_fgw,
)
from .gdd import (
    LabelDistanceTable,
    LabelInformedCost,
    cross_linear_fgw,
    gdd,
    gdd_from_cost,
    graph_label_distance,
    label_distance_table,
    label_informed_cost,
)
from .great import GreatTrace, gdd_gradient, great_select, sparsity_schedule
from .pipeline import (
    SelectionConfig,
    SelectionResult,
    build_cost,
    gradate,
    lava_select,
    random_select,
)
from . import io

__all__ = [
    "GradateError",
    "AttributedGraph",
    "LabeledGraphDataset",
    "concat_datasets",
    "degree_one_hot_features",
    "graph_density",
    "TransportSolution",
    "solve_exact_ot",
    "solve_sinkhorn",
    "calibrate_duals",
    "FGWConfig",
    "FGWResult",
    "fgw_distance",
    "fgw_barycenter",
    "BarycentricEmbedding",
    "barycentric_embed",
    "linear_fgw_distance",
    "pairwise_linear_fgw",
    "LabelDistanceTable",
    "LabelInformedCost",
    "cross_linear_fgw",
    "graph_label_distance",
    "label_distance_table",
    "label_informed_cost",
    "gdd",
    "gdd_from_cost",
    "GreatTrace",
    "gdd_gradient",
    "sparsity_schedule",
    "great_select",
    "SelectionConfig",
    "SelectionResult",
    "build_cost",
    "gradate",
    "lava_select",
    "random_select",
    "io",
]
