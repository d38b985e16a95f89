"""Implicit join-reachability indexes.

Each builder returns a JRIndex whose query(b) reports exactly the
vertices that reach b in both input graphs, b included. Tree inputs come
as the blocks of `graph.tree_blocks`: a rooted tree is one block, an
unoriented tree one block per layer graph, and every vertex lies in at
most two. The indexes split the join into pairs: of two blocks, of a
block and a path run, of two path runs, or of two cover paths. A pair
sharing only the query vertex could report only that vertex, which
`JRIndex` adds to every answer anyway, so only pairs sharing at least two
vertices are kept, and a tree or path query touches at most four, all
within the two layer graphs that can hold its predecessors.

The two-path, tree-path and path-cover indexes pack all their pairs into
one Cartesian tree and one segment/ray sweep, pair k's x1 shifted by k
times a stride above every coordinate; a query within pair k's band
never meets another pair's points. At build each vertex gets the list of
pairs that can report for it, with the columns or the registered query
point and the bound each report needs, so a query is one loop over that
list. The two-tree index still builds one structure per block pair.
Probe counts and the list of pairs touched are exposed for
output-sensitivity checks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, product

from .cover import from_ranks, min_path_cover, shared_vertices
from .geom import CartesianTree, HSegment, RangeTree2D, SegRayIndex
from .graph import (
    CyclicGraphError,
    GraphClassError,
    block_pairs,
    dfs_intervals,
    path_order,
    topo_order,
    transitive_closure,
    tree_blocks,
)
from .hpd import hpd_two_trees_build, hpd_two_trees_report
from .explicit import split_unoriented_path


class JRIndex:
    """Facade over the per-class implicit structures."""

    def __init__(self, variant, n, impl):
        self.variant = variant
        self.n = n
        self._impl = impl

    def query(self, b):
        return self.query_counted(b)[0]

    def query_counted(self, b):
        """(sorted predecessor list, structure probes, pair-structures touched).

        The implementation returns a fresh set of the predecessors it
        found; b joins that set and it is sorted once.
        """
        if not (0 <= b < self.n):
            raise ValueError(f"query vertex {b} out of range")
        found, probes, pairs = self._impl.query_counted(b)
        found.add(b)
        return sorted(found), probes, pairs


# ----------------------------------------------------------------------
# Two paths


def _path_runs(p):
    """(pos, runs_of): for each maximal dipath (run) of a path, in arc
    direction, its vertex -> position map; and per vertex the ascending
    indices of the at most two runs holding it."""
    if p.kind != "path":
        raise GraphClassError("expected kind=path")
    runs = [path_order(p)] if p.is_directed_path() else split_unoriented_path(p)
    runs_of = [[] for _ in range(p.n)]
    for j, run in enumerate(runs):
        for v in run:
            runs_of[v].append(j)
    return [{v: k for k, v in enumerate(run)} for run in runs], runs_of


class _Packed:
    """Reports from one packed Cartesian tree `ct` and one packed sweep
    `seg` through per-vertex lists.

    A subclass puts pair k's points or segments into the shared structure
    with their x1 shifted by k * _stride(n), so a query within pair k's
    band never meets another pair's. It lists per vertex b the pairs that
    can report for it: tree_of[b] holds (pair key, lo column, hi column,
    x2 bound) and sweep_of[b] holds (pair key, registered query point, x2
    bound or None).
    """

    def query_counted(self, b):
        out = set()
        probes = 0
        pairs = []
        for key, lo, hi, x2 in self.tree_of[b]:
            res, pr = self.ct.report_range(lo, hi, x2)
            pairs.append(key)
            out.update(res)
            probes += pr
        for key, q, x2 in self.sweep_of[b]:
            res, pr = self.seg.report_registered(q, x2)
            pairs.append(key)
            out.update(res)
            probes += pr
        return out, probes, pairs


def _stride(n):
    """Pair stride of the packed structures. It exceeds every x1 they hold
    or query: run and cover positions lie below n, and doubled DFS or
    contracted-tree times (a layer's contracted tree may add a root to
    its members) reach at most 4n + 4."""
    return 4 * n + 5


class _TwoPaths(_Packed):
    """Pairs of runs sharing at least two vertices, packed into one
    Cartesian tree on the shared vertices' positions in the two runs; each
    member reports, per pair, the points its own dominates."""

    def __init__(self, p1, p2):
        if p1.n != p2.n:
            raise ValueError("vertex-set mismatch")
        n = self.n = p1.n
        pos1, of1 = _path_runs(p1)
        pos2, of2 = _path_runs(p2)
        stride = _stride(n)
        pairs = [(key, m) for key, m in sorted(block_pairs(of1, of2).items()) if len(m) > 1]
        self.ct = CartesianTree(
            [
                (k * stride + pos1[i][v], pos2[j][v], v)
                for k, ((i, j), members) in enumerate(pairs)
                for v in members
            ]
        )
        self.tree_of = [[] for _ in range(n)]
        self.sweep_of = [()] * n
        # pair k's columns follow pair k - 1's, in run-position order
        lo = 0
        for key, members in pairs:
            members.sort(key=pos1[key[0]].__getitem__)
            for hi, v in enumerate(members, lo):
                self.tree_of[v].append((key, lo, hi, pos2[key[1]][v]))
            lo += len(members)


def index_two_paths(p1, p2):
    return JRIndex("two-paths", p1.n, _TwoPaths(p1, p2))


# ----------------------------------------------------------------------
# Tree and path


class _TreePath(_Packed):
    """(tree block, path run) pairs packed into one sweep and one Cartesian
    tree.

    Out-core blocks store one horizontal segment per member (the member's
    supervertex interval at its run height) and answer core queries with
    a registered upward ray; fringe queries skip the block. In-core
    blocks store one point per core member and answer grounded range
    queries; fringe queries widen the range to their supervertex's
    interval, inclusive on the left so the fringe root is found.
    """

    def __init__(self, t1, p2):
        if t1.n != p2.n:
            raise ValueError("vertex-set mismatch")
        n = self.n = t1.n
        blocks, of = tree_blocks(t1)
        pos, runs_of = _path_runs(p2)
        stride = _stride(n)
        pts, segs, queries = [], [], []
        self.tree_of = [[] for _ in range(n)]
        self.sweep_of = [[] for _ in range(n)]
        pairs = [(key, m) for key, m in sorted(block_pairs(of, runs_of).items()) if len(m) > 1]
        for k, (key, members) in enumerate(pairs):
            blk = blocks[key[0]]
            base = k * stride
            members.sort(key=pos[key[1]].__getitem__)
            if blk.orient == "out":
                # label by height in the run: predecessors sit at or above
                for h, v in enumerate(reversed(members)):
                    lo, hi = blk.su_iv[v]
                    segs.append(HSegment(base + lo, base + hi, h, v))
                    if blk.core[v]:
                        q = (base + lo + 1, h)
                        queries.append(q)
                        self.sweep_of[v].append((key, q, None))
            else:
                # label by run position: predecessors sit at or below
                pts += [(base + blk.su_iv[v][0], r, v) for r, v in enumerate(members) if blk.core[v]]
        self.seg = SegRayIndex(segs, queries)
        self.ct = CartesianTree(pts)
        for k, (key, members) in enumerate(pairs):
            blk = blocks[key[0]]
            if blk.orient == "out":
                continue
            base = k * stride
            for r, v in enumerate(members):
                lo, hi = blk.su_iv[v]
                if blk.core[v]:
                    lo, hi = lo + 1, hi - 1
                lo, hi = self.ct.col_span(base + lo, base + hi)
                if lo <= hi:
                    self.tree_of[v].append((key, lo, hi, r))


def index_tree_path(t1, p2):
    return JRIndex("tree-path", t1.n, _TreePath(t1, p2))


# ----------------------------------------------------------------------
# Two trees


class _TwoTrees:
    def __init__(self, t1, t2):
        if t1.n != t2.n:
            raise ValueError("vertex-set mismatch")
        self.n = t1.n
        blocks1, self.of1 = tree_blocks(t1)
        blocks2, self.of2 = tree_blocks(t2)
        self.structs = {
            (i, j): self._build_pair(blocks1[i], blocks2[j], members)
            for (i, j), members in block_pairs(self.of1, self.of2).items()
            if len(members) > 1
        }

    @staticmethod
    def _storable(blk, v):
        return blk.orient == "out" or blk.core[v]

    def _build_pair(self, b1, b2, members):
        stored = [v for v in members if self._storable(b1, v) and self._storable(b2, v)]
        o1, o2 = b1.orient, b2.orient
        if o1 == "out" and o2 == "out":
            from .geom import Rect, EnclosureIndex

            rects = [
                Rect(b1.su_iv[v][0], b1.su_iv[v][1], b2.su_iv[v][0], b2.su_iv[v][1], v)
                for v in stored
            ]
            return ("enc", b1, b2, EnclosureIndex(rects))
        if o1 == "out" and o2 == "in":
            segs = [HSegment(b1.su_iv[v][0], b1.su_iv[v][1], b2.su_iv[v][0], v) for v in stored]
            return ("seg", b1, b2, SegRayIndex(segs, []))
        if o1 == "in" and o2 == "out":
            segs = [HSegment(b2.su_iv[v][0], b2.su_iv[v][1], b1.su_iv[v][0], v) for v in stored]
            return ("gseg", b1, b2, SegRayIndex(segs, []))
        pts = [(b1.su_iv[v][0], b2.su_iv[v][0], v) for v in stored]
        return ("rt", b1, b2, RangeTree2D(pts))

    @staticmethod
    def _query_interval(blk, b):
        lo, hi = blk.su_iv[b]
        if blk.core[b]:
            return lo + 1, hi - 1
        return lo, hi

    def query_counted(self, b):
        out = set()
        probes = 0
        pairs = []
        for key in product(self.of1[b], self.of2[b]):
            try:
                kind, b1, b2, idx = self.structs[key]
            except KeyError:  # the pair shares only b
                continue
            # an out-core block cannot hold predecessors of its fringe
            if (b1.orient == "out" and not b1.core[b]) or (
                b2.orient == "out" and not b2.core[b]
            ):
                continue
            pairs.append(key)
            if kind == "enc":
                res = idx.report(b1.su_iv[b][0] + 1, b2.su_iv[b][0] + 1)
                probes += len(res) + 1
            elif kind == "seg":
                lo, hi = self._query_interval(b2, b)
                res, pr = idx.report_at(b1.su_iv[b][0] + 1, lo, hi)
                probes += pr
            elif kind == "gseg":
                lo, hi = self._query_interval(b1, b)
                res, pr = idx.report_at(b2.su_iv[b][0] + 1, lo, hi)
                probes += pr
            else:
                lo1, hi1 = self._query_interval(b1, b)
                lo2, hi2 = self._query_interval(b2, b)
                res = []
                if lo1 <= hi1 and lo2 <= hi2:
                    res = idx.report(lo1, hi1, lo2, hi2)
                probes += len(res) + 1
            out.update(res)
        return out, probes, pairs


def index_two_trees(t1, t2):
    return JRIndex("two-trees", t1.n, _TwoTrees(t1, t2))


def index_hpd_two_trees(t1, t2):
    """Heavy-path alternative for two rooted trees; one must be an out-tree."""
    if t1.kind != "out-tree" and t2.kind == "out-tree":
        t1, t2 = t2, t1

    class _Hpd:
        def __init__(self):
            self.idx = hpd_two_trees_build(t1, t2)

        def query_counted(self, b):
            res, probes = hpd_two_trees_report(self.idx, b)
            return res, probes, [(0, 0)]

    return JRIndex("hpd-two-trees", t1.n, _Hpd())


# ----------------------------------------------------------------------
# Path covers


class _PathCover(_Packed):
    """Cover-path pairs packed into one dominance structure, reported from
    the nonempty lists I(v).

    For a second tree each first-graph cover path is one pair, laid out
    in the tree-and-path geometry with the path rank as threshold. I(v)
    keeps a query's probes proportional to the pairs that actually report
    something. It is read off v's sparse from-rank rows, so the build
    scales with the cover sizes rather than with n times their product.
    """

    def __init__(self, g1, g2):
        if g1.n != g2.n:
            raise ValueError("vertex-set mismatch")
        n = self.n = g1.n
        tree2 = g2.kind in ("out-tree", "in-tree")
        order1 = topo_order(g1)
        if order1 is None:
            raise CyclicGraphError("first graph must be acyclic")
        order2 = None if tree2 else topo_order(g2)
        if order2 is None and not tree2:
            raise CyclicGraphError("second graph must be acyclic")
        self.pc1 = min_path_cover(g1, order1)
        fr1 = from_ranks(g1, self.pc1, order1)
        self.tree_of = self.sweep_of = [()] * n
        if tree2:
            self._build_tree_side(g2, fr1)
        else:
            self.pc2 = min_path_cover(g2, order2)
            self._build_cover_side(fr1, from_ranks(g2, self.pc2, order2))

    def _build_cover_side(self, fr1, fr2):
        """Pair k = (i, j) holds the vertices on both cover paths at
        (rank on i, rank on j). It is in I(v) when one of them has rank at
        most fr1(v, i) on i and at most fr2(v, j) on j, which one flat
        array of prefix minima over each pair's columns answers."""
        stride = _stride(self.n)
        path_of1, path_of2 = self.pc1.path_of, self.pc2.path_of
        shared = sorted(shared_vertices(self.pc1, self.pc2).items())
        ct = self.ct = CartesianTree(
            [
                (k * stride + path_of1[v][1], path_of2[v][1], v)
                for k, (_, common) in enumerate(shared)
                for v in common
            ]
        )
        first, mins = [], []
        pair_of = [{} for _ in range(self.pc1.kappa)]  # i -> {j: k}
        for k, ((i, j), common) in enumerate(shared):
            pair_of[i][j] = k
            first.append(len(mins))
            mins += accumulate((p[1] for p in ct.reps[first[k] : first[k] + len(common)]), min)
        self.tree_of = []
        for row1, row2 in zip(fr1.rows, fr2.rows):
            hits = []
            for i, f1 in row1.items():
                for j in pair_of[i].keys() & row2.keys():
                    k = pair_of[i][j]
                    hi = bisect_right(ct.colx, k * stride + f1) - 1
                    if hi >= first[k] and mins[hi] <= row2[j]:
                        hits.append((shared[k][0], first[k], hi, row2[j]))
            self.tree_of.append(sorted(hits))

    def _build_tree_side(self, t2, fr1):
        """Cover path i holds its vertices at (doubled DFS interval in the
        tree, rank on i): segments for an out-tree, points at the interval
        start for an in-tree. It is in I(v) when v's query finds one of
        rank at most fr1(v, i)."""
        stride = _stride(self.n)
        iv = dfs_intervals(t2)
        path_of = self.pc1.path_of
        reached = fr1.reached(self.pc1.kappa)
        keys = [(i, 0) for i in range(self.pc1.kappa)]
        lists = [[] for _ in range(self.n)]
        if t2.kind == "out-tree":
            segs = [
                HSegment(i * stride + 2 * iv.s[v], i * stride + 2 * iv.t[v], path_of[v][1], v)
                for i, p1 in enumerate(self.pc1.paths)
                for v in p1
            ]
            # only reached vertices ever query a path
            queries = [(i, b, (i * stride + 2 * iv.s[b] + 1, 0)) for i, bs in enumerate(reached) for b in bs]
            seg = self.seg = SegRayIndex(segs, [q for _, _, q in queries])
            for i, b, q in queries:
                f1 = fr1.get(b, i)
                # the sweep reports by increasing rank: its first entry decides
                entry = seg.entries[q]
                if entry and entry[-1].key[0] <= f1:
                    lists[b].append((keys[i], q, f1))
            self.sweep_of = lists
        else:
            ct = self.ct = CartesianTree(
                [(i * stride + 2 * iv.s[v], path_of[v][1], v) for i, p1 in enumerate(self.pc1.paths) for v in p1]
            )
            for i, bs in enumerate(reached):
                for b in bs:
                    f1 = fr1.get(b, i)
                    lo, hi = ct.col_span(i * stride + 2 * iv.s[b] + 1, i * stride + 2 * iv.t[b] - 1)
                    if lo <= hi and ct.min_x2_in_range(lo, hi) <= f1:
                        lists[b].append((keys[i], lo, hi, f1))
            self.tree_of = lists


def index_pathcover(g1, g2):
    return JRIndex("pathcover", g1.n, _PathCover(g1, g2))


# ----------------------------------------------------------------------
# Planar st-graphs


@dataclass
class KamedaLabels:
    l1: list
    l2: list


def kameda_labels(g):
    """Two-label dominance characterization of planar st-graph reachability.

    Labels come from two depth-first searches that scan out-arcs in
    leftmost-first and rightmost-first embedding order, numbering
    vertices by reverse completion. The label equivalence is validated
    exactly against the closure oracle, word-parallel: each vertex's
    dominance row (the vertices with both labels at least its own) is
    the AND of two suffix masks of the label orders, compared with its
    closure row. Inputs failing it are rejected, naming the
    lexicographically first mismatched pair.
    """
    if g.kind != "planar-st" or g.out_order is None:
        raise GraphClassError("kameda labels need a planar-st graph with embedding")
    l1 = _postorder_labels(g, reverse_order=False)
    l2 = _postorder_labels(g, reverse_order=True)
    m = transitive_closure(g)
    at_least1, at_least2 = _suffix_masks(l1), _suffix_masks(l2)
    for a in range(g.n):
        diff = m.rows[a] ^ (at_least1[l1[a]] & at_least2[l2[a]])
        if diff:
            b = (diff & -diff).bit_length() - 1
            raise GraphClassError(
                f"label equivalence fails at pair ({a},{b}); "
                "input is not a validly embedded planar st-graph"
            )
    return KamedaLabels(l1, l2)


def _suffix_masks(labels):
    """masks[k]: bitmask of the vertices labelled k or more (labels 1..n)."""
    masks = [0] * (len(labels) + 2)
    for v in sorted(range(len(labels)), key=labels.__getitem__, reverse=True):
        masks[labels[v]] = masks[labels[v] + 1] | (1 << v)
    return masks


def _postorder_labels(g, reverse_order):
    source = next(v for v in range(g.n) if not g.inn[v])
    labels = [0] * g.n
    next_label = g.n
    seen = [False] * g.n
    order = [tuple(reversed(ws)) if reverse_order else ws for ws in g.out_order]
    stack = [(source, 0)]
    seen[source] = True
    while stack:
        v, k = stack[-1]
        if k < len(order[v]):
            stack[-1] = (v, k + 1)
            w = order[v][k]
            if not seen[w]:
                seen[w] = True
                stack.append((w, 0))
        else:
            stack.pop()
            labels[v] = next_label
            next_label -= 1
    if any(not s for s in seen):
        raise GraphClassError("source does not reach every vertex")
    return labels


class _PlanarSt:
    def __init__(self, g1, p2):
        if g1.n != p2.n:
            raise ValueError("vertex-set mismatch")
        self.n = g1.n
        lab = kameda_labels(g1)
        self.l1, self.l2 = lab.l1, lab.l2
        self.l3 = [0] * self.n
        for r, v in enumerate(path_order(p2)):
            self.l3[v] = r
        self.rt = RangeTree2D([(self.l1[v], self.l2[v], v) for v in range(self.n)])

    def query_counted(self, b):
        cands = self.rt.report(1, self.l1[b], 1, self.l2[b])
        out = {a for a in cands if self.l3[a] <= self.l3[b]}
        return out, len(cands) + 1, [(0, 0)]


def index_planar_st(g1, p2):
    return JRIndex("planar-st", g1.n, _PlanarSt(g1, p2))
