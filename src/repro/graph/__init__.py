"""Graph substrate: containers, builders, generators, I/O, and analysis.

This subpackage is the study's data layer.  The canonical storage forms are
:class:`~repro.graph.csr.CSRGraph` (vertex-based kernels) and
:class:`~repro.graph.coo.COOGraph` (edge-based kernels), matching Section 4.2
of the paper.
"""

from .builder import (
    MAX_WEIGHT,
    csr_to_coo,
    deterministic_weights,
    from_edge_arrays,
    from_edge_list,
)
from .coo import COOGraph
from .csr import CSRGraph
from .datasets import (
    DATASETS,
    EXTRA_DATASETS,
    DatasetSpec,
    dataset_names,
    extra_dataset_names,
    load_all,
    load_dataset,
    load_extra,
)
from .generators import (
    clustered,
    grid2d,
    hub_and_spokes,
    power_law,
    random_uniform,
    rmat,
    road_network,
)
from .io import (
    load_graph,
    read_dimacs,
    read_edge_list,
    read_matrix_market,
    write_dimacs,
    write_edge_list,
    write_matrix_market,
)
from .properties import (
    GraphProperties,
    analyze,
    bfs_levels,
    connected_components_count,
    estimate_diameter,
)
from .validate import (
    MAX_SAFE_WEIGHT,
    GraphParseError,
    GraphValidationError,
    GraphValidator,
    quarantine_file,
    sanitize_graph,
)

__all__ = [
    "CSRGraph",
    "COOGraph",
    "from_edge_arrays",
    "from_edge_list",
    "csr_to_coo",
    "deterministic_weights",
    "MAX_WEIGHT",
    "grid2d",
    "road_network",
    "rmat",
    "power_law",
    "clustered",
    "hub_and_spokes",
    "random_uniform",
    "GraphProperties",
    "analyze",
    "bfs_levels",
    "estimate_diameter",
    "connected_components_count",
    "DatasetSpec",
    "DATASETS",
    "EXTRA_DATASETS",
    "extra_dataset_names",
    "load_extra",
    "dataset_names",
    "load_dataset",
    "load_all",
    "load_graph",
    "read_dimacs",
    "write_dimacs",
    "read_edge_list",
    "write_edge_list",
    "read_matrix_market",
    "write_matrix_market",
    "GraphValidator",
    "GraphParseError",
    "GraphValidationError",
    "sanitize_graph",
    "quarantine_file",
    "MAX_SAFE_WEIGHT",
]
