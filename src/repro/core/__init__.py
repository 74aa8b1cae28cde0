"""The paper's core contribution: the parallel index-based SCAN algorithm."""

from .clustering import UNCLUSTERED, Clustering
from .doubling import (
    prefix_length_at_least,
    prefix_lengths_at_least,
)
from .neighbor_order import NeighborOrder, build_neighbor_order
from .core_order import CoreOrder, build_core_order
from .query import cluster, get_cores
from .sweep_query import query_many
from .hubs import classify_unclustered
from .index import ScanIndex

__all__ = [
    "UNCLUSTERED",
    "Clustering",
    "prefix_length_at_least",
    "prefix_lengths_at_least",
    "NeighborOrder",
    "build_neighbor_order",
    "CoreOrder",
    "build_core_order",
    "cluster",
    "query_many",
    "get_cores",
    "classify_unclustered",
    "ScanIndex",
]
