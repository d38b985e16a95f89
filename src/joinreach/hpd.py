"""Heavy-path decomposition and the label-threshold query structures
built on it: subtree reporting for in-trees, root-path reporting for
out-trees, and the per-path secondary structures for an out-tree paired
with a second rooted tree.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def path_top_parent(self, pid):
        return self.parent[self.paths[pid][0]]

    def height_in_path(self, v):
        pid, pos = self.path_of[v]
        return len(self.paths[pid]) - 1 - pos


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
        for w in g.neighbors(v):
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
class InTreeLabelIndex:
    """Reports all a in T(b) with label(a) > j.

    Stores per-vertex subtree maxima h(T(a)), the maxima h'(T(a)) of the
    subtree minus its heavy child's, light children ordered by decreasing
    h(T(c)), heavy-path vertices ordered by decreasing h'(T(d)), and one
    Cartesian tree per path for suffix starts in the middle of a path.
    """

    hpd: HeavyPathDecomp
    labels: list
    h_sub: list
    h_rest: list
    light_children: list
    path_order: list
    path_ct: list


def intree_build(g, labels, root=None):
    hpd = hpd_build(g, root)
    n = g.n
    children = [[] for _ in range(n)]
    order = [hpd.root]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in g.neighbors(v):
            if hpd.parent[w] == v:
                children[v].append(w)
                order.append(w)
    h_sub = list(labels)
    for v in reversed(order):
        p = hpd.parent[v]
        if p >= 0 and h_sub[v] > h_sub[p]:
            h_sub[p] = h_sub[v]
    h_rest = []
    for v in range(n):
        best = labels[v]
        for c in children[v]:
            if c != hpd.heavy_child[v]:
                best = max(best, h_sub[c])
        h_rest.append(best)
    light_children = [
        sorted(((h_sub[c], c) for c in children[v] if c != hpd.heavy_child[v]), reverse=True)
        for v in range(n)
    ]
    path_order = [
        sorted(((h_rest[d], d) for d in path), reverse=True) for path in hpd.paths
    ]
    path_ct = [
        CartesianTree([(pos, -h_rest[d], d) for pos, d in enumerate(path)])
        for path in hpd.paths
    ]
    return InTreeLabelIndex(hpd, list(labels), h_sub, h_rest, light_children, path_order, path_ct)


def intree_report(idx, b, j):
    """All vertices a in the subtree of b with label(a) > j, plus probes."""
    hpd = idx.hpd
    out = []
    probes = 0
    pid, pos = hpd.path_of[b]
    hits, pr = idx.path_ct[pid].report_range(pos, len(hpd.paths[pid]) - 1, -(j + 1))
    probes += pr
    todo = list(hits)
    while todo:
        d = todo.pop()
        if idx.labels[d] > j:
            out.append(d)
        for hval, c in idx.light_children[d]:
            probes += 1
            if hval <= j:
                break
            cpid = hpd.path_of[c][0]
            for hr, d2 in idx.path_order[cpid]:
                probes += 1
                if hr <= j:
                    break
                todo.append(d2)
    return sorted(out), probes


@dataclass
class OutTreeLabelIndex:
    """Reports the ancestors a of b (inclusive) with label(a) > j via one
    Cartesian tree per heavy path over (path position, label)."""

    hpd: HeavyPathDecomp
    labels: list
    path_ct: list


def outtree_build(g, labels, root=None):
    hpd = hpd_build(g, root)
    path_ct = [
        CartesianTree([(pos, -labels[d], d) for pos, d in enumerate(path)])
        for path in hpd.paths
    ]
    return OutTreeLabelIndex(hpd, list(labels), path_ct)


def outtree_report(idx, b, j):
    hpd = idx.hpd
    out = []
    probes = 0
    p = b
    while p != -1:
        pid, pos = hpd.path_of[p]
        hits, pr = idx.path_ct[pid].report_range(0, pos, -(j + 1))
        out.extend(hits)
        probes += pr
        p = hpd.path_top_parent(pid)
    return sorted(out), probes


@dataclass
class HpdTwoTrees:
    """Join-reachability queries for an out-tree paired with a rooted tree,
    answered through per-heavy-path secondary structures."""

    hpd: HeavyPathDecomp
    kind2: str
    iv2: object
    path_struct: list


def hpd_two_trees_build(t1, t2):
    if t1.kind != "out-tree":
        raise GraphClassError("first graph must be an out-tree")
    if t2.kind not in ("out-tree", "in-tree"):
        raise GraphClassError("second graph must be a rooted tree")
    if t1.n != t2.n:
        raise ValueError("vertex-set mismatch")
    hpd = hpd_build(t1)
    iv2 = dfs_intervals(t2)
    structs = []
    for path in hpd.paths:
        if t2.kind == "out-tree":
            segs = [
                HSegment(iv2.s[a], iv2.t[a], len(path) - 1 - pos, a)
                for pos, a in enumerate(path)
            ]
            structs.append(SegRayIndex(segs, []))
        else:
            structs.append(CartesianTree([(iv2.s[a], pos, a) for pos, a in enumerate(path)]))
    return HpdTwoTrees(hpd, t2.kind, iv2, structs)


def hpd_two_trees_report(idx, b):
    """Vertices reaching b in both trees, sorted; probe count included."""
    hpd = idx.hpd
    iv2 = idx.iv2
    out = {b}
    probes = 0
    p = b
    while p != -1:
        pid, pos = hpd.path_of[p]
        struct = idx.path_struct[pid]
        if idx.kind2 == "out-tree":
            # ancestors on P in T2 as well: segments I2(a) stabbed at s2(b),
            # restricted to heights at or above p's
            height_p = len(hpd.paths[pid]) - 1 - pos
            hits, pr = struct.report_at(iv2.s[b], height_p)
        else:
            # T2-descendants on P: s2(a) strictly inside I2(b), positions above p
            hits, pr = struct.report_range(
                *struct.col_span(iv2.s[b] + 1, iv2.t[b] - 1), pos
            )
        out.update(hits)
        probes += pr
        p = hpd.path_top_parent(pid)
    return sorted(out), probes
