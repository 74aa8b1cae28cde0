"""Graph substrate: CSR graphs, builders, generators, I/O, and properties."""

from .graph import Graph
from .builders import (
    complete_graph,
    empty_graph,
    from_edge_list,
    from_weighted_edge_list,
)
from .generators import (
    PAPER_EXAMPLE_EDGES,
    dense_clustered_graph,
    dense_weighted_association,
    erdos_renyi,
    hub_and_spoke_web,
    paper_example_graph,
    planted_partition,
    planted_partition_labels,
    preferential_attachment,
    with_random_weights,
)
from .io import read_adjacency, read_edge_list, write_adjacency, write_edge_list
from .properties import (
    GraphSummary,
    arboricity_estimate,
    arboricity_lower_bound,
    arboricity_upper_bound,
    average_degree,
    degeneracy,
    degeneracy_ordering,
    density,
)

__all__ = [
    "Graph",
    "complete_graph",
    "empty_graph",
    "from_edge_list",
    "from_weighted_edge_list",
    "PAPER_EXAMPLE_EDGES",
    "dense_clustered_graph",
    "dense_weighted_association",
    "erdos_renyi",
    "hub_and_spoke_web",
    "paper_example_graph",
    "planted_partition",
    "planted_partition_labels",
    "preferential_attachment",
    "with_random_weights",
    "read_adjacency",
    "read_edge_list",
    "write_adjacency",
    "write_edge_list",
    "GraphSummary",
    "arboricity_estimate",
    "arboricity_lower_bound",
    "arboricity_upper_bound",
    "average_degree",
    "degeneracy",
    "degeneracy_ordering",
    "density",
]
