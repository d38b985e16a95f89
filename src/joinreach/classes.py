"""Which construction serves which pair of input classes.

`classify` names the class of a pair of graphs and puts the pair in the
order its builders expect; `CLASSES` maps each class name to its
explicit builder and its index builder; `build` and `index` are
`classify` plus one lookup. A pair that no specialised class matches
goes to the path-cover construction, which takes any two digraphs over
one vertex set. Its builders compute each input's topological order once
and raise CyclicGraphError when one has none; such a pair is condensed
and built on its condensation.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .explicit import (
    JoinGraph,
    build_pathcover,
    build_tree_path,
    build_two_paths,
    build_two_trees,
    build_unoriented_trees,
)
from .graph import CyclicGraphError, Digraph, condense_pair
from .jrindex import (
    JRIndex,
    index_pathcover,
    index_planar_st,
    index_tree_path,
    index_two_paths,
    index_two_trees,
)


def _build_pathcover(g1, g2):
    try:
        return build_pathcover(g1, g2)
    except CyclicGraphError:
        cp = condense_pair(g1, g2)
    # Each subcomponent becomes an id-ordered cycle through its members;
    # its first member carries the subcomponent's arcs in the inner join.
    inner = build_pathcover(cp.g1_hat, cp.g2_hat)
    n = g1.n
    arcs = [(ms[k - 1], ms[k]) for ms in cp.members if len(ms) > 1 for k in range(len(ms))]
    vertex = [ms[0] for ms in cp.members] + list(range(n, n + inner.steiner_count))
    arcs += [(vertex[u], vertex[v]) for u, row in enumerate(inner.graph.out) for v in row]
    return JoinGraph(Digraph(n + inner.steiner_count, arcs), n, list(inner.steiner_tags))


class _CondensedQueries:
    """Queries on a cyclic pair, answered by the index of its condensation."""

    def __init__(self, sub_of, members, inner):
        self.sub_of = sub_of
        self.members = members
        self.inner = inner

    def query_counted(self, b):
        subs, probes, pairs = self.inner.query_counted(self.sub_of[b])
        return {v for s in subs for v in self.members[s]}, probes, pairs


def _index_pathcover(g1, g2):
    try:
        return index_pathcover(g1, g2)
    except CyclicGraphError:
        cp = condense_pair(g1, g2)
    inner = index_pathcover(cp.g1_hat, cp.g2_hat)
    return JRIndex("pathcover", g1.n, _CondensedQueries(cp.sub_of, cp.members, inner))


class PairClass(NamedTuple):
    explicit: Callable  # (g1, g2) -> JoinGraph
    index: Callable  # (g1, g2) -> JRIndex


# A planar st-graph is a DAG, so its explicit side is the path cover's.
CLASSES = {
    "two-paths": PairClass(build_two_paths, index_two_paths),
    "tree-path": PairClass(build_tree_path, index_tree_path),
    "two-trees": PairClass(build_two_trees, index_two_trees),
    "unoriented-trees": PairClass(build_unoriented_trees, index_two_trees),
    "pathcover": PairClass(_build_pathcover, _index_pathcover),
    "planar-st": PairClass(_build_pathcover, index_planar_st),
}

_WITH_PATH = {"path": "two-paths", "out-tree": "tree-path", "in-tree": "tree-path",
              "utree": "tree-path", "planar-st": "planar-st"}


def classify(g1, g2):
    """(name, g1, g2): the pair's class in `CLASSES`, and the pair with a
    path moved second, where every builder expects it."""
    if g1.kind == "path" != g2.kind:
        g1, g2 = g2, g1
    kinds = {g1.kind, g2.kind}
    if g2.kind == "path":
        name = _WITH_PATH.get(g1.kind, "pathcover")
        if name == "planar-st" and not g2.is_directed_path():
            name = "pathcover"  # the planar-st index ranks a dipath
    elif kinds <= {"out-tree", "in-tree"}:
        name = "two-trees"
    elif kinds <= {"out-tree", "in-tree", "utree"}:
        name = "unoriented-trees"
    else:
        name = "pathcover"
    return name, g1, g2


def build(g1, g2):
    """Explicit join graph of any pair, by its class's construction."""
    name, g1, g2 = classify(g1, g2)
    return CLASSES[name].explicit(g1, g2)


def index(g1, g2):
    """Join-reachability index of any pair, by its class's construction."""
    name, g1, g2 = classify(g1, g2)
    return CLASSES[name].index(g1, g2)
