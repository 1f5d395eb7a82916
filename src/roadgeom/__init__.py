"""roadgeom: geometric analysis of road-network-like graphs.

Builds disk neighborhood systems over embedded graphs, measures
non-planarity and ply, constructs randomized circle-separator
decompositions, runs comparison-model shortest paths and graph Voronoi
labelings, and assembles circle arrangements.
"""

from .arrangement import (
    build_inductive,
    build_naive,
    complexity_audit,
    system_ply,
    vertex_depths,
)
from .augment import clustering_check, grid_augment, neighborly_check
from .crossings import CrossingTable, crossing_histogram, find_crossings, planarize, proper_only
from .disks import (
    DiskSystem,
    build_disk_system,
    charge_audit,
    exceptional_decomposition,
    ply_report,
)
from .graphs import (
    Edge,
    GeometricGraph,
    NetworkStats,
    gen_gotham,
    gen_hub_spoke,
    gen_random_geometric,
    load_csv,
    load_dimacs,
    save_csv,
    save_dimacs,
    stats,
)
from .routing import sssp, voronoi_direct, voronoi_via_tree
from .separators import build_decomposition, find_separator

__version__ = "0.1.0"

__all__ = [
    "CrossingTable",
    "DiskSystem",
    "Edge",
    "GeometricGraph",
    "NetworkStats",
    "build_decomposition",
    "build_disk_system",
    "build_inductive",
    "build_naive",
    "charge_audit",
    "clustering_check",
    "complexity_audit",
    "crossing_histogram",
    "exceptional_decomposition",
    "find_crossings",
    "find_separator",
    "gen_gotham",
    "gen_hub_spoke",
    "gen_random_geometric",
    "grid_augment",
    "load_csv",
    "load_dimacs",
    "neighborly_check",
    "planarize",
    "ply_report",
    "proper_only",
    "save_csv",
    "save_dimacs",
    "sssp",
    "stats",
    "system_ply",
    "vertex_depths",
    "voronoi_direct",
    "voronoi_via_tree",
    "__version__",
]
