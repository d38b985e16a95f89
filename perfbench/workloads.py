"""The benchmark's workloads: which inputs each one builds, reads and checks.

Each item names the public library call it times and makes its input
pair from a ``random.Random`` seeded by (workload, seed, item). Sizes sit
in the item names. They are scaled down from the roadmap's targets so
that one pass over a workload takes a few seconds on a 2-core machine and
a run repeats it several times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from joinreach import gen

import shapes


@dataclass(frozen=True)
class Item:
    name: str
    op: str  # "explicit", "minimal" or "index"
    call: str  # the joinreach function timed for this item
    make: Callable  # rng -> (g1, g2)
    # Index items: the structure kind whose probe counts the queries
    # report, and how many seeded query vertices (None: every vertex).
    kind: str = ""
    sample: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple


def _trees(k1, k2, n):
    return lambda r: (gen.rand_tree(r, n, k1), gen.rand_tree(r, n, k2))


def _tree_path(kind, n):
    return lambda r: (gen.rand_tree(r, n, kind), gen.rand_path(r, n))


# The write path: every explicit builder, each join graph written, re-read
# and verified, plus the minimal join. No index code runs, so this is the
# workload on which geom, hpd and jrindex changes predict no change.
EXPLICIT_BUILD = Workload(
    "explicit-build",
    (
        Item("bitrev-2048", "explicit", "build_two_paths",
             lambda r: shapes.bitrev_pair(r, 1 << 11)),
        Item("out-in-trees-2048", "explicit", "build_two_trees",
             _trees("out-tree", "in-tree", 1 << 11)),
        Item("out-tree-path-2048", "explicit", "build_tree_path",
             _tree_path("out-tree", 1 << 11)),
        Item("zigzag-upath-96", "explicit", "build_unoriented_trees",
             lambda r: (shapes.zigzag_path(r, 96), gen.rand_upath(r, 96))),
        Item("dag-path-512", "explicit", "build_pathcover",
             lambda r: (shapes.rand_dag(r, 1 << 9), gen.rand_path(r, 1 << 9))),
        Item("bitrev-512", "minimal", "minimal_restricted_join",
             lambda r: shapes.bitrev_pair(r, 1 << 9)),
    ),
)

# The read path: one build per index, then a query per vertex. Tree
# queries are many and short; dipath and chain-vs-star queries are long,
# so small-k and large-k gains show apart. The explicit builders idle.
INDEX_SWEEP = Workload(
    "index-sweep",
    (
        Item("dipaths-1024", "index", "index_two_paths",
             lambda r: (gen.rand_path(r, 1 << 10), gen.rand_path(r, 1 << 10)), kind="ct"),
        Item("chain-star-2048", "index", "index_two_trees",
             lambda r: shapes.chain_star(r, 1 << 11), kind="enc_derived"),
        Item("out-out-trees-4096", "index", "index_two_trees",
             _trees("out-tree", "out-tree", 1 << 12), kind="enc_derived"),
        Item("out-in-trees-4096", "index", "index_two_trees",
             _trees("out-tree", "in-tree", 1 << 12), kind="seg"),
        Item("in-out-trees-4096", "index", "index_two_trees",
             _trees("in-tree", "out-tree", 1 << 12), kind="seg"),
        Item("in-in-trees-4096", "index", "index_two_trees",
             _trees("in-tree", "in-tree", 1 << 12), kind="rt_derived"),
        Item("out-tree-path-4096", "index", "index_tree_path",
             _tree_path("out-tree", 1 << 12), kind="seg"),
        Item("in-tree-path-4096", "index", "index_tree_path",
             _tree_path("in-tree", 1 << 12), kind="ct"),
        Item("hpd-out-in-4096", "index", "index_hpd_two_trees",
             _trees("out-tree", "in-tree", 1 << 12), kind="hpd"),
        Item("utrees-2048", "index", "index_two_trees",
             lambda r: (gen.rand_utree(r, 1 << 11), gen.rand_utree(r, 1 << 11)),
             kind="utree_blocks_partly_derived"),
    ),
)

# Build-heavy indexes: path covers of ladder and random DAGs and planar
# st-labels dominate, and queries are a smaller share. The query time of
# one random series-parallel graph changes twofold from seed to seed, so
# the planar pairs are four small graphs rather than one large one; the
# ladder queries are a 512-vertex sample for the same reason.
DAG_INDEX = Workload(
    "dag-index",
    (
        Item("ladders-4096", "index", "index_pathcover",
             lambda r: (shapes.ladder_dag(r, 1 << 12), shapes.ladder_dag(r, 1 << 12)),
             kind="ct", sample=512),
        Item("dags-768", "index", "index_pathcover",
             lambda r: (shapes.rand_dag(r, 768), shapes.rand_dag(r, 768)), kind="ct"),
        Item("dag-out-tree-512", "index", "index_pathcover",
             lambda r: (shapes.rand_dag(r, 1 << 9), gen.rand_tree(r, 1 << 9, "out-tree")),
             kind="seg"),
        *(Item(f"sp-st-path-384-{k}", "index", "index_planar_st",
               lambda r: (shapes.rand_sp_st(r, 384), gen.rand_path(r, 384)),
               kind="planar_st_derived") for k in range(4)),
    ),
)

WORKLOADS = {w.name: w for w in (EXPLICIT_BUILD, INDEX_SWEEP, DAG_INDEX)}

# Structure kinds of the index items, with the report spans of the traced
# run that each kind's queries may reach. EnclosureIndex, RangeTree2D and
# the planar-st candidate filter report probes derived from len(result) + 1,
# not counted work; unoriented tree blocks mix those with real counters.
# An item's kind copies jrindex's choice of structure for its input
# orientations, so a traced run fails when an item's queries reach a report
# span its kind does not list: a change to that choice in jrindex then shows
# as a failure that asks for the item's kind here to be updated.
KIND_REPORTS = {
    "ct": {"geom.CartesianTree.report"},
    "seg": {"geom.SegRayIndex.report"},
    "hpd": {"hpd.hpd_two_trees_report"},
    "enc_derived": {"geom.EnclosureIndex.report"},
    "rt_derived": {"geom.RangeTree2D.report"},
    "planar_st_derived": {"geom.RangeTree2D.report"},
    "utree_blocks_partly_derived": {
        "geom.EnclosureIndex.report", "geom.SegRayIndex.report", "geom.RangeTree2D.report",
    },
}
PROBE_KINDS = tuple(KIND_REPORTS)
