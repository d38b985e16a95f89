"""Join-reachability graphs and indexes for pairs of directed graphs."""

from .graph import (
    CyclicGraphError,
    Digraph,
    GraphClassError,
    condense_pair,
    dfs_intervals,
    dipath_of,
    layer_decompose,
    path_order,
    read_graph,
    split_unoriented_path,
    transitive_closure,
    write_graph,
)
from .geom import (
    CartesianTree,
    EnclosureIndex,
    RangeTree2D,
    SegRayIndex,
)
from .hpd import (
    hpd_build,
    hpd_two_trees_build,
    hpd_two_trees_report,
)
from .minimal import and_closure, minimal_restricted_join, transitive_reduction
from .cover import PathCover, from_ranks, min_path_cover
from .explicit import (
    JoinGraph,
    build_pathcover,
    build_tree_path,
    build_two_paths,
    build_two_trees,
    build_unoriented_trees,
    read_join,
    verify_join_graph,
    write_join,
)
from .jrindex import (
    JRIndex,
    index_hpd_two_trees,
    index_pathcover,
    index_planar_st,
    index_tree_path,
    index_two_paths,
    index_two_trees,
    kameda_labels,
)
from .gen import gen_bitreversal, generate
from .classes import CLASSES, build, classify, index

__all__ = [name for name in dir() if not name.startswith("_")]
