"""Heavy-path decomposition and the two-tree index built on it.

`hpd_build` splits a rooted tree into heavy paths, so a root path meets
at most floor(lg n) + 1 of them. `hpd_two_trees_build` pairs an out-tree
with a second rooted tree: one packed Cartesian tree or segment/ray
sweep holds all heavy paths, and each vertex keeps one report per heavy
path on its root path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .geom import CartesianTree, HSegment, SegRayIndex
from .graph import GraphClassError, dfs_intervals, tree_parents


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

    One structure holds every heavy path of the out-tree, path k's x1
    shifted by k times a stride above every DFS time of the second tree:
    a Cartesian tree over (preorder, path position) when the second tree
    is an in-tree, else a segment/ray sweep over (DFS interval, height on
    the path). lists[b] holds one report per heavy path on b's root path,
    nearest first: (lo column, hi column, position bound) for the tree, or
    the query point for the sweep.
    """

    hpd: HeavyPathDecomp
    ct: CartesianTree | None
    seg: SegRayIndex | None
    lists: list


def hpd_two_trees_build(t1, t2):
    if t1.kind != "out-tree":
        raise GraphClassError("first graph must be an out-tree")
    if t2.kind not in ("out-tree", "in-tree"):
        raise GraphClassError("second graph must be a rooted tree")
    if t1.n != t2.n:
        raise ValueError("vertex-set mismatch")
    hpd = hpd_build(t1)
    paths, path_of = hpd.paths, hpd.path_of
    top_parent = [hpd.parent[path[0]] for path in paths]
    iv2 = dfs_intervals(t2)
    s2, e2 = iv2.s, iv2.t
    stride = 2 * t1.n + 1  # DFS times lie in 1..2n
    ct = seg = None
    if t2.kind == "in-tree":
        ct = CartesianTree(
            [(k * stride + s2[a], pos, a) for k, path in enumerate(paths) for pos, a in enumerate(path)]
        )
        colx = ct.colx
        start = list(accumulate(map(len, paths), initial=0))  # path k's first column
    else:
        seg = SegRayIndex(
            [
                HSegment(k * stride + s2[a], k * stride + e2[a], len(path) - 1 - pos, a)
                for k, path in enumerate(paths)
                for pos, a in enumerate(path)
            ],
            [],
        )
    lists = []
    for b in range(t1.n):
        entries = []
        sb, eb = s2[b], e2[b]
        p = b
        while p != -1:
            k, pos = path_of[p]
            base = k * stride
            if ct is not None:
                # T2-descendants on the path: s2(a) strictly inside I2(b),
                # at positions up to p's
                lo, hi = start[k], start[k + 1]
                entries.append((
                    bisect_left(colx, base + sb + 1, lo, hi),
                    bisect_right(colx, base + eb - 1, lo, hi) - 1,
                    pos,
                ))
            else:
                # T2-ancestors on the path: segments I2(a) stabbed at s2(b),
                # at heights from p's up
                entries.append((base + sb, len(paths[k]) - 1 - pos))
            p = top_parent[k]
        lists.append(entries)
    return HpdTwoTrees(hpd, ct, seg, lists)


def hpd_two_trees_report(idx, b):
    """(set of the vertices reaching b in both trees, probe count).

    Each heavy path on b's root path costs at least one probe, also when
    it reports nothing, so a query with k answers costs at most
    3k + 3(light_level[b] + 1).
    """
    out = {b}
    probes = 0
    if idx.ct is not None:
        for lo, hi, pos in idx.lists[b]:
            hits, pr = idx.ct.report_range(lo, hi, pos)
            out.update(hits)
            probes += max(pr, 1)
    else:
        for q in idx.lists[b]:
            hits, pr = idx.seg.report_at(*q)
            out.update(hits)
            probes += max(pr, 1)
    return out, probes
