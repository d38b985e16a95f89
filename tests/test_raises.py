"""Each input check of the library that no other test reaches, with the
exact exception type and message it raises."""

import math
import random

import pytest

from joinreach.cover import from_ranks, min_path_cover
from joinreach.explicit import build_pathcover, build_two_trees
from joinreach.gen import generate, rand_sp_st
from joinreach.graph import (
    CyclicGraphError,
    Digraph,
    GraphClassError,
    dfs_intervals,
    dipath_of,
    layer_decompose,
    split_unoriented_path,
)
from joinreach.hpd import hpd_two_trees_build
from joinreach.jrindex import index_pathcover, index_planar_st

OUT_TREE = Digraph(3, [(0, 1), (0, 2)], kind="out-tree")
UTREE = Digraph(3, [(1, 0), (1, 2)], kind="utree")
DIPATH = dipath_of([0, 1, 2])
CYCLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])
EMPTY2 = Digraph(2, [])
SP_ST = Digraph(3, [(0, 1), (1, 2), (0, 2)], kind="planar-st", out_order=[[1, 2], [2], []])

RAISES = {
    "digraph-unknown-kind": (
        lambda: Digraph(2, [], kind="tree"), GraphClassError, "unknown graph kind 'tree'"),
    "layer-decompose-disconnected": (
        lambda: layer_decompose(Digraph(3, [(0, 1)])), ValueError,
        "layer decomposition requires a weakly connected graph"),
    "split-not-a-path": (
        lambda: split_unoriented_path(OUT_TREE), GraphClassError, "split requires kind=path"),
    "dfs-intervals-inner-root": (
        lambda: dfs_intervals(DIPATH, root=1), GraphClassError,
        "vertex 1 is neither an out-root nor an in-root"),
    "from-ranks-cyclic": (
        lambda: from_ranks(CYCLE, min_path_cover(DIPATH)), CyclicGraphError,
        "from-ranks require an acyclic digraph"),
    "two-trees-unrooted": (
        lambda: build_two_trees(UTREE, OUT_TREE), GraphClassError,
        "both graphs must be rooted trees"),
    "pathcover-size-mismatch": (
        lambda: build_pathcover(EMPTY2, DIPATH), ValueError, "vertex-set mismatch"),
    "hpd-second-unrooted": (
        lambda: hpd_two_trees_build(OUT_TREE, DIPATH), GraphClassError,
        "second graph must be a rooted tree"),
    "hpd-size-mismatch": (
        lambda: hpd_two_trees_build(OUT_TREE, Digraph(2, [(0, 1)], kind="in-tree")),
        ValueError, "vertex-set mismatch"),
    "index-pathcover-size-mismatch": (
        lambda: index_pathcover(EMPTY2, DIPATH), ValueError, "vertex-set mismatch"),
    "index-pathcover-cyclic-second": (
        lambda: index_pathcover(DIPATH, CYCLE), CyclicGraphError,
        "second graph must be acyclic"),
    "index-planar-st-size-mismatch": (
        lambda: index_planar_st(SP_ST, EMPTY2), ValueError, "vertex-set mismatch"),
    "generate-unknown-kind": (
        lambda: generate("grid", 4), ValueError, "unknown generator kind 'grid'"),
    "generate-empty": (lambda: generate("path", 0), ValueError, "n must be positive"),
    **{
        f"generate-p-{p}": (lambda p=p: generate("dag-gnp", 5, 0, p), ValueError, "p must lie in [0, 1]")
        for p in (-0.5, math.inf, 1.5, math.nan)
    },
    "sp-st-one-vertex": (
        lambda: rand_sp_st(random.Random(0), 1), ValueError, "sp-st needs n >= 2"),
}


@pytest.mark.parametrize("call,exc,msg", RAISES.values(), ids=RAISES)
def test_input_check_raises(call, exc, msg):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is exc
    assert str(info.value) == msg
