"""Discrete convexity and subharmonic functions on graphs and norm lattices.

The package provides:

* shortest-path metrics on finite weighted graphs (:mod:`graphconvex.graph`);
* metric betweenness, convex sets/hulls and pointwise convex functions with
  values in the extended reals (:mod:`graphconvex.convexity`);
* neighborhood-mean comparisons: subharmonic/harmonic vertices and the graph
  laplacian (:mod:`graphconvex.subharmonic`);
* norm-ball lattice graphs on integer windows, midpoint convexity and the
  nearest-neighbor property (:mod:`graphconvex.lattice`);
* exhaustive enumeration of small connected graphs
  (:mod:`graphconvex.enumeration`);
* claim checkers and counterexample search tying the two notions together
  (:mod:`graphconvex.theorems`);
* a text format and CLI (:mod:`graphconvex.io`, :mod:`graphconvex.cli`).
"""

from .convexity import (
    ConvexityVerdict,
    ConvexityWitness,
    betweenness_closure,
    brute_force_convex_hull,
    convex_hull,
    distance_function,
    distance_to_set,
    indicator,
    is_between,
    is_convex_at,
    is_convex_set,
    set_distance_function,
)
from .enumeration import connected_unit_graphs, count_connected_graphs
from .extreal import DEFAULT_TOL, INF, approx_eq, approx_le, exact_div, scaled
from .generators import (
    cycle,
    grid,
    grid_interior,
    int_path,
    king_grid,
    path,
    random_connected_graph,
    random_graph,
    tiling_interior,
    triangular_tiling,
)
from .graph import Graph, Metric, UnknownVertexError, sort_vertices
from .io import (
    FormatError,
    format_graph,
    format_vertex,
    format_vertex_function,
    parse_graph,
    parse_vertex_function,
    parse_vertex_set,
)
from .lattice import (
    NORMS,
    GroupLattice,
    LatticeSpec,
    MidpointVerdict,
    MidpointWitness,
    NearestNeighborVerdict,
    NearestNeighborWitness,
    build_lattice,
    group_metric,
    has_nearest_neighbor_property,
    is_midpoint_convex_at,
)
from .subharmonic import (
    MeanComparison,
    compare_to_neighborhood_mean,
    is_harmonic_at,
    is_subharmonic_at,
    laplacian,
)
from .theorems import (
    CLAIM_IDS,
    ClaimReport,
    SearchWitness,
    aggregate_reports,
    exhaustive_small_graph_sweep,
    indicator_samples,
    integer_function_samples,
    max_affine_samples,
    pairing_hypothesis,
    search_counterexample,
    sweep_max_affine,
    sweep_subsets_dist_convex,
    sweep_subsets_nn,
    triangle_free_hypothesis,
    verify_degree2_equivalence,
    verify_dist_convex_implies_set_convex,
    verify_dist_to_point_midpoint_convex,
    verify_nn_implies_dist_midpoint_convex,
    verify_pointwise_implication,
)

__version__ = "0.1.0"

__all__ = [
    "ConvexityVerdict", "ConvexityWitness", "betweenness_closure",
    "brute_force_convex_hull", "convex_hull", "distance_function",
    "distance_to_set", "indicator", "is_between", "is_convex_at",
    "is_convex_set", "set_distance_function",
    "connected_unit_graphs", "count_connected_graphs",
    "DEFAULT_TOL", "INF", "approx_eq", "approx_le", "exact_div", "scaled",
    "cycle", "grid", "grid_interior", "int_path", "king_grid", "path",
    "random_connected_graph", "random_graph", "tiling_interior",
    "triangular_tiling",
    "Graph", "Metric", "UnknownVertexError", "sort_vertices",
    "FormatError", "format_graph", "format_vertex", "format_vertex_function",
    "parse_graph", "parse_vertex_function", "parse_vertex_set",
    "NORMS", "GroupLattice", "LatticeSpec", "MidpointVerdict",
    "MidpointWitness", "NearestNeighborVerdict", "NearestNeighborWitness",
    "build_lattice", "group_metric", "has_nearest_neighbor_property",
    "is_midpoint_convex_at",
    "MeanComparison", "compare_to_neighborhood_mean", "is_harmonic_at",
    "is_subharmonic_at", "laplacian",
    "CLAIM_IDS", "ClaimReport", "SearchWitness", "aggregate_reports",
    "exhaustive_small_graph_sweep", "indicator_samples",
    "integer_function_samples", "max_affine_samples", "pairing_hypothesis",
    "search_counterexample", "sweep_max_affine", "sweep_subsets_dist_convex",
    "sweep_subsets_nn", "triangle_free_hypothesis",
    "verify_degree2_equivalence", "verify_dist_convex_implies_set_convex",
    "verify_dist_to_point_midpoint_convex",
    "verify_nn_implies_dist_midpoint_convex", "verify_pointwise_implication",
]
