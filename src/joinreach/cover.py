"""Vertex-disjoint dipath covers of DAGs, the per-vertex from-rank rows
(a plain list of {cover path: rank} dicts) the path-cover join
constructions consume, and the index of a dipath cover against a rooted
tree.

`paths_against_tree` is the one layout of cover paths against a second
graph that is a rooted tree. The path-cover index uses it with a minimum
cover of a DAG, the heavy-path index with the heavy paths of an out-tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import CartesianTree, SegRayIndex
from .graph import CyclicGraphError, dfs_intervals, topo_order


@dataclass
class PathCover:
    """Vertex-disjoint dipaths covering a DAG; consecutive pairs are arcs.

    A minimum cover (`min_path_cover`) is one; the heavy paths of an
    out-tree (`hpd.hpd_build`) are another."""

    paths: list
    path_of: list  # vertex -> (path index, rank within path)

    @property
    def kappa(self):
        return len(self.paths)


def min_path_cover(g, order=None):
    """Minimum dipath cover of an acyclic digraph.

    kappa = n - |maximum matching| on the split bipartite graph (each arc
    u -> v joins u's out-copy to v's in-copy). The matching is an
    iterative Hopcroft-Karp: O(m sqrt n) time, no recursion. `order` is a
    topological order of g when the caller already has one; without it
    one is computed to reject cyclic inputs.
    """
    if order is None and topo_order(g) is None:
        raise CyclicGraphError("path cover requires an acyclic digraph")
    n, out = g.n, g.out
    match_succ = [-1] * n  # chosen successor of each vertex
    match_pred = [-1] * n
    inf = n + 1
    while True:
        # BFS layers of out-copies from the free ones along alternating
        # paths, up to the first layer with an arc to a free in-copy
        free = [u for u in range(n) if match_succ[u] == -1]
        dist = [0 if s == -1 else inf for s in match_succ]
        frontier, limit = free, inf
        while frontier and limit == inf:
            nxt = []
            for u in frontier:
                for v in out[u]:
                    w = match_pred[v]
                    if w == -1:
                        limit = dist[u]
                    elif dist[w] == inf:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if limit == inf:
            break
        # vertex-disjoint shortest augmenting paths by layered DFS; arc
        # pointers make one phase scan each arc once. The BFS found no arc
        # to a free in-copy before layer `limit`, so w == -1 only there.
        ptr = [0] * n
        for s in free:
            stack = [s]
            while stack:
                u = stack[-1]
                du, adj = dist[u], out[u]
                for k in range(ptr[u], len(adj)):
                    v = adj[k]
                    w = match_pred[v]
                    if w == -1 or (du < limit and dist[w] == du + 1):
                        break
                else:
                    dist[u] = inf  # dead end for the rest of the phase
                    stack.pop()
                    continue
                ptr[u] = k + 1
                if w != -1:
                    stack.append(w)
                    continue
                # flip the path: each stacked vertex takes the in-copy
                # its successor on the stack held
                for u in reversed(stack):
                    match_pred[v] = u
                    match_succ[u], v = v, match_succ[u]
                    dist[u] = inf
                break

    paths = []
    for v in range(n):
        if match_pred[v] == -1:
            path = [v]
            while match_succ[path[-1]] != -1:
                path.append(match_succ[path[-1]])
            paths.append(path)
    path_of = [None] * n
    for pid, path in enumerate(paths):
        for rank, v in enumerate(path):
            path_of[v] = (pid, rank)
    return PathCover(paths, path_of)


def shared_vertices(pc1, pc2):
    """{(i, j): the vertices on path i of pc1 and path j of pc2, in path-j
    order}, for the nonempty pairs only, keyed in increasing (i, j)."""
    groups = {}
    for j, path in enumerate(pc2.paths):
        for v in path:
            groups.setdefault((pc1.path_of[v][0], j), []).append(v)
    return dict(sorted(groups.items()))


def from_ranks(g, pc, order=None):
    """rows[v] = {cover path i: highest rank on i of a vertex reaching v},
    from a max-propagating pass in topological order.

    A vertex on a path trivially reaches itself, and values are monotone
    along arcs. Each row holds only the paths that reach its vertex
    (Jagadish's chain-compressed closure), so the pass costs the sum over
    arcs of the tail's row size, not m * kappa. Any topological order
    gives the same values; `order` is one when the caller has it.
    """
    order = topo_order(g) if order is None else order
    if order is None:
        raise CyclicGraphError("from-ranks require an acyclic digraph")
    rows = [{} for _ in range(g.n)]
    for v in order:
        pid, rank = pc.path_of[v]
        row = rows[v]
        row[pid] = rank  # only lower ranks of its own path reach v
        for w in g.out[v]:
            wrow = rows[w]
            for i, x in row.items():
                if wrow.get(i, -1) < x:
                    wrow[i] = x
    return rows


def band_stride(n):
    """Pair stride of the packed structures here and in `jrindex`. It
    exceeds every x1 they hold or query: cover positions lie below n, and
    doubled DFS or contracted-tree times (a layer's contracted tree may
    add a root to its members) reach at most 4n + 4."""
    return 4 * n + 5


def paths_against_tree(cover, rows, tree):
    """Per-vertex reports of dipaths of one graph against a rooted tree.

    `cover.paths` are vertex-disjoint dipaths covering the first graph,
    `cover.path_of[v]` is v's (path, rank), as in a `PathCover`, and
    rows[b] is {path i: highest rank on i of a vertex reaching b}, as
    `from_ranks` returns. Path i holds its vertices at (doubled DFS interval
    in the tree, rank on i), its x1 shifted by i times a stride above
    every doubled DFS time: segments of one segment/ray sweep for an
    out-tree, stabbed just right of b's interval start (b's ancestors and
    b), or points of one Cartesian tree at the interval start for an
    in-tree, taken strictly inside b's interval (b's proper descendants).

    Returns lists: lists[b] is I(b), the paths of rows[b] whose report
    for b is nonempty, each as ((i, 0), structure, report method name,
    arguments); the named method returns (payloads, probes), and path
    i's entries share one key tuple. Emptiness is the smallest rank over
    the query's range against the from-rank: for an out-tree, the
    smallest rank on each path among b's ancestors and b, which one walk
    in DFS order keeps on a stack per path, so each test is O(1); for an
    in-tree one `col_span_min` of the Cartesian tree per entry.
    """
    paths, path_of = cover.paths, cover.path_of
    n = len(rows)
    stride = band_stride(n)
    s, t = dfs_intervals(tree)
    lists = [[] for _ in range(n)]
    keys = [(i, 0) for i in range(len(paths))]
    if tree.kind == "out-tree":
        seg = SegRayIndex(
            (i * stride + 2 * s[v], i * stride + 2 * t[v], rank, v)
            for i, path in enumerate(paths)
            for rank, v in enumerate(path)
        )
        # low[i][-1]: the smallest rank on path i among the vertices on the
        # walk's current root path, n (above every rank) if there is none
        low = [[n] for _ in paths]
        stack = [tree.root()]  # ~v: leave v
        while stack:
            b = stack.pop()
            if b < 0:
                low[path_of[~b][0]].pop()
                continue
            i, rank = path_of[b]
            low[i].append(min(rank, low[i][-1]))
            stack.append(~b)
            stack += tree.out[b]
            for i, f in rows[b].items():
                if low[i][-1] <= f:
                    x = i * stride + 2 * s[b] + 1
                    lists[b].append((keys[i], seg, "report_at", (x, 0, f)))
    else:
        ct = CartesianTree(
            [(i * stride + 2 * s[v], rank, v) for i, path in enumerate(paths) for rank, v in enumerate(path)]
        )
        for b, row in enumerate(rows):
            x_lo, x_hi = 2 * s[b] + 1, 2 * t[b] - 1
            if x_lo == x_hi:  # a leaf has no proper descendant
                continue
            for i, f in row.items():
                lo, hi, low = ct.col_span_min(i * stride + x_lo, i * stride + x_hi)
                if low is not None and low <= f:  # None: no point in the range
                    lists[b].append((keys[i], ct, "report_range", (lo, hi, f)))
    return lists
