"""Heavy-path decomposition and the two-tree index built on it.

`hpd_build` splits a rooted tree into heavy paths, so a root path meets
at most floor(lg n) + 1 of them. It reads subtree sizes off the tree's
DFS intervals and lays out the paths, a `cover.PathCover`, in one
breadth-first walk of the child lists. `hpd_two_trees_build` pairs an
out-tree with a second rooted tree: the out-tree's heavy paths are one
more dipath cover, indexed against the second tree by
`cover.paths_against_tree`, and each vertex keeps only the heavy paths
that report for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import PathCover, from_ranks, paths_against_tree
from .graph import GraphClassError, dfs_intervals


def hpd_build(g):
    """Partition a rooted tree into heavy paths, top to bottom, as a
    `PathCover`: paths[0][0] is the root, and v's heavy child is the next
    vertex on its path, so v is heavy iff its rank is above 0.

    A child is heavy iff its subtree holds at least half of its parent's;
    at most one child can qualify, and a root path meets at most
    floor(log2 n) light vertices below the root. Paths are numbered in
    breadth-first order of their heads.
    """
    root = g.root()
    iv = dfs_intervals(g)
    s, t = iv.s, iv.t  # t - s = 2 * subtree size - 1
    kids = g.inn if g.kind == "in-tree" else g.out
    paths = [[root]]
    path_of = [None] * g.n
    path_of[root] = (0, 0)
    order = [root]
    for v in order:  # grows as the walk finds children: a BFS
        pid, pos = path_of[v]
        for c in kids[v]:
            order.append(c)
            if 2 * (t[c] - s[c] + 1) >= t[v] - s[v] + 1:
                path_of[c] = (pid, pos + 1)
                paths[pid].append(c)
            else:
                path_of[c] = (len(paths), 0)
                paths.append([c])
    return PathCover(paths, path_of)


@dataclass
class HpdTwoTrees:
    """Join-reachability queries for an out-tree paired with a rooted tree.

    The out-tree's heavy paths are a dipath cover of it, and a vertex's
    from-rank on a heavy path is the position of its deepest ancestor
    there, so `cover.paths_against_tree` lays them out against the second
    tree. lists[b] holds the heavy paths on b's root path whose report
    for b is nonempty, as (key, structure, report method name, arguments).
    """

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
    # Heads are numbered breadth first, so each head's parent lies on an
    # earlier path: the paths in turn are a topological order of t1.
    order = [v for path in hpd.paths for v in path]
    return HpdTwoTrees(paths_against_tree(hpd, from_ranks(t1, hpd, order), t2))


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
