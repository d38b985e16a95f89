"""Heavy-path decomposition and the two-tree index built on it.

`hpd_build` splits a rooted tree into heavy paths, so a root path meets
at most floor(lg n) + 1 of them. `hpd_two_trees_build` pairs an out-tree
with a second rooted tree: the out-tree's heavy paths are one more
dipath cover, indexed against the second tree by
`cover.paths_against_tree`, and each vertex keeps only the heavy paths
that report for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import from_ranks, paths_against_tree
from .graph import GraphClassError, tree_parents


@dataclass
class HeavyPathDecomp:
    root: int
    parent: list
    size: list
    heavy_child: list
    is_heavy: list
    light_level: list
    paths: list
    path_of: list


def hpd_build(g, root=None):
    """Partition the underlying rooted tree into heavy paths.

    A child is heavy iff its subtree holds at least half of its parent's;
    at most one child can qualify. Light level counts the light vertices
    strictly below the root on the root path, which keeps it within
    floor(log2 n).
    """
    if root is None:
        root = g.root()
    parent = tree_parents(g, root)
    n = g.n
    children = [[] for _ in range(n)]
    order = [root]
    i = 0
    while i < len(order):  # BFS so reversal gives a bottom-up order
        v = order[i]
        i += 1
        for w in g.out[v] + g.inn[v]:
            if parent[w] == v:
                children[v].append(w)
                order.append(w)
    size = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    heavy_child = [-1] * n
    for v in range(n):
        for c in children[v]:
            if 2 * size[c] >= size[v]:
                heavy_child[v] = c
                break
    is_heavy = [False] * n
    for v in range(n):
        if heavy_child[v] != -1:
            is_heavy[heavy_child[v]] = True
    light_level = [0] * n
    for v in order:
        if v == root:
            continue
        light_level[v] = light_level[parent[v]] + (0 if is_heavy[v] else 1)
    paths = []
    path_of = [None] * n
    for v in order:
        if v != root and is_heavy[v]:
            continue
        path = [v]
        while heavy_child[path[-1]] != -1:
            path.append(heavy_child[path[-1]])
        pid = len(paths)
        paths.append(path)
        for pos, x in enumerate(path):
            path_of[x] = (pid, pos)
    return HeavyPathDecomp(root, parent, size, heavy_child, is_heavy, light_level, paths, path_of)


@dataclass
class HpdTwoTrees:
    """Join-reachability queries for an out-tree paired with a rooted tree.

    The out-tree's heavy paths are a dipath cover of it, and a vertex's
    from-rank on a heavy path is the position of its deepest ancestor
    there, so `cover.paths_against_tree` lays them out against the second
    tree. lists[b] holds the heavy paths on b's root path whose report
    for b is nonempty, as (key, structure, report method name, arguments).
    """

    hpd: HeavyPathDecomp
    lists: list

    def query_counted(self, b):
        """(predecessor set, probes, keys of the heavy paths touched)."""
        res, probes = hpd_two_trees_report(self, b)
        return res, probes, [key for key, *_ in self.lists[b]]


def hpd_two_trees_build(t1, t2):
    if t1.kind != "out-tree":
        raise GraphClassError("first graph must be an out-tree")
    if t2.kind not in ("out-tree", "in-tree"):
        raise GraphClassError("second graph must be a rooted tree")
    if t1.n != t2.n:
        raise ValueError("vertex-set mismatch")
    hpd = hpd_build(t1)
    return HpdTwoTrees(hpd, paths_against_tree(hpd.paths, from_ranks(t1, hpd).rows, t2))


def hpd_two_trees_report(idx, b):
    """(set of the vertices reaching b in both trees, probe count).

    Only heavy paths that report a vertex for b are listed, so a query
    with k answers costs O(1 + k) probes.
    """
    out = {b}
    probes = 0
    for _, struct, report, args in idx.lists[b]:
        hits, pr = getattr(struct, report)(*args)
        out.update(hits)
        probes += pr
    return out, probes
