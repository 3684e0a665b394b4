"""Graph analysis: hop metrics (Figs. 7-8), small-world indices, load balance."""

from repro.analysis.balance import LoadStats, channel_loads, gini, load_stats
from repro.analysis.blocked import HopStats, hop_stats_from_dense, streaming_hop_stats
from repro.analysis.bisection import BisectionEstimate, bisection_estimate, cut_links
from repro.analysis.paths import PathDiversity, path_diversity
from repro.analysis.metrics import (
    GraphMetrics,
    analyze,
    average_shortest_path_length,
    diameter,
    eccentricities,
    hop_histogram,
    shortest_path_matrix,
)
from repro.analysis.smallworld import (
    SmallWorldIndices,
    clustering_coefficient,
    small_world_indices,
)

__all__ = [
    "GraphMetrics",
    "HopStats",
    "hop_stats_from_dense",
    "streaming_hop_stats",
    "analyze",
    "average_shortest_path_length",
    "diameter",
    "eccentricities",
    "hop_histogram",
    "shortest_path_matrix",
    "SmallWorldIndices",
    "clustering_coefficient",
    "small_world_indices",
    "LoadStats",
    "channel_loads",
    "gini",
    "load_stats",
    "BisectionEstimate",
    "bisection_estimate",
    "cut_links",
    "PathDiversity",
    "path_diversity",
]
