"""Implicit join-reachability indexes.

Each builder returns a JRIndex whose query(b) reports exactly the
vertices that reach b in both input graphs, b included. Tree inputs come
as the blocks of `graph.tree_blocks`: a rooted tree is one block, an
unoriented tree one block per layer graph, and every vertex lies in at
most two. One geometric structure is built per pair of blocks (or of a
block and a path run, or of two path runs) that share at least two
vertices, so a query touches at most four pair structures, all within
the two layer graphs that can hold its predecessors. A pair sharing
only the query vertex could report only that vertex, which `JRIndex`
adds to every answer anyway. Probe counts and the list of pair
structures touched are exposed for output-sensitivity checks.
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


class _TwoPaths:
    """One Cartesian tree per pair of runs, on the shared vertices'
    positions in the two runs."""

    def __init__(self, p1, p2):
        if p1.n != p2.n:
            raise ValueError("vertex-set mismatch")
        self.n = p1.n
        pos1, of1 = _path_runs(p1)
        pos2, of2 = _path_runs(p2)
        self.structs = {}
        self.pairs_of = [[] for _ in range(self.n)]
        for (i, j), members in sorted(block_pairs(of1, of2).items()):
            if len(members) < 2:
                continue
            ct = CartesianTree([(pos1[i][v], pos2[j][v], v) for v in members])
            self.structs[(i, j)] = (ct, pos1[i], pos2[j])
            for v in members:
                self.pairs_of[v].append((i, j))

    def query_counted(self, b):
        out = set()
        probes = 0
        pairs = []
        for key in self.pairs_of[b]:
            ct, pos1, pos2 = self.structs[key]
            pairs.append(key)
            res, pr = ct.report_dominated(pos1[b], pos2[b])
            out.update(res)
            probes += pr
        return out, probes, pairs


def index_two_paths(p1, p2):
    return JRIndex("two-paths", p1.n, _TwoPaths(p1, p2))


# ----------------------------------------------------------------------
# Tree and path


class _TreePath:
    """Per (tree block, path run) structure.

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
        self.n = t1.n
        blocks, of = tree_blocks(t1)
        pos, runs_of = _path_runs(p2)
        self.structs = {}
        self.pairs_of = [[] for _ in range(self.n)]
        for key, members in sorted(block_pairs(of, runs_of).items()):
            if len(members) < 2:
                continue
            blk = blocks[key[0]]
            members.sort(key=pos[key[1]].__getitem__)
            if blk.orient == "out":
                # label by height in the run: predecessors sit at or above
                lab = {v: len(members) - 1 - k for k, v in enumerate(members)}
                segs = [
                    HSegment(blk.su_iv[v][0], blk.su_iv[v][1], lab[v], v)
                    for v in members
                ]
                queries = [
                    (blk.su_iv[v][0] + 1, lab[v], v)
                    for v in members
                    if blk.core[v]
                ]
                idx = SegRayIndex(segs, queries)
                self.structs[key] = ("out", blk, idx, lab)
            else:
                # label by run position: predecessors sit at or below
                lab = {v: k for k, v in enumerate(members)}
                pts = [
                    (blk.su_iv[v][0], lab[v], v) for v in members if blk.core[v]
                ]
                ct = CartesianTree(pts) if pts else None
                self.structs[key] = ("in", blk, ct, lab)
            for v in members:
                self.pairs_of[v].append(key)

    def query_counted(self, b):
        out = set()
        probes = 0
        pairs = []
        for key in self.pairs_of[b]:
            orient, blk, idx, lab = self.structs[key]
            if orient == "out":
                if not blk.core[b]:
                    continue
                pairs.append(key)
                res, pr = idx.report_registered((blk.su_iv[b][0] + 1, lab[b]))
                out.update(res)
                probes += pr
            else:
                pairs.append(key)
                if idx is None:
                    continue
                lo, hi = blk.su_iv[b]
                if blk.core[b]:
                    lo, hi = lo + 1, hi - 1
                res, pr = idx.report_range(*idx.col_span(lo, hi), lab[b])
                out.update(res)
                probes += pr
        return out, probes, pairs


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
            return set(res), probes, [(0, 0)]

    return JRIndex("hpd-two-trees", t1.n, _Hpd())


# ----------------------------------------------------------------------
# Path covers


class _PathCover:
    """Per cover-path-pair dominance structures plus nonempty lists I(v).

    For a second tree the per-path structure follows the tree-and-path
    geometry with the path rank as threshold; I(v) keeps a query's probes
    proportional to the structures that actually report something. I(v)
    is read off v's sparse from-rank rows, so the build scales with the
    cover sizes rather than with n times their product.
    """

    def __init__(self, g1, g2):
        if g1.n != g2.n:
            raise ValueError("vertex-set mismatch")
        self.n = g1.n
        tree2 = g2.kind in ("out-tree", "in-tree")
        order1 = topo_order(g1)
        if order1 is None:
            raise CyclicGraphError("first graph must be acyclic")
        order2 = None if tree2 else topo_order(g2)
        if order2 is None and not tree2:
            raise CyclicGraphError("second graph must be acyclic")
        self.pc1 = min_path_cover(g1, order1)
        self.fr1 = from_ranks(g1, self.pc1, order1)
        if tree2:
            self._build_tree_side(g2)
        else:
            pc2 = min_path_cover(g2, order2)
            self._build_cover_side(pc2, from_ranks(g2, pc2, order2))

    def _build_cover_side(self, pc2, fr2):
        self.mode = "cover"
        self.pc2 = pc2
        self.fr2 = fr2
        self.structs = {}
        # per first path i: {j: (x1 columns, prefix minima of x2)}
        prefix = [{} for _ in range(self.pc1.kappa)]
        for (i, j), common in shared_vertices(self.pc1, pc2).items():
            ct = CartesianTree([(self.pc1.path_of[v][1], pc2.path_of[v][1], v) for v in common])
            self.structs[(i, j)] = ct
            prefix[i][j] = (ct.colx, list(accumulate((p[1] for p in ct.reps), min)))
        self.nonempty = []
        for row1, row2 in zip(self.fr1.rows, fr2.rows):
            hits = []
            for i, f1 in row1.items():
                for j in prefix[i].keys() & row2.keys():
                    colx, mins = prefix[i][j]
                    hi = bisect_right(colx, f1) - 1
                    if hi >= 0 and mins[hi] <= row2[j]:
                        hits.append((i, j))
            self.nonempty.append(sorted(hits))

    def _build_tree_side(self, t2):
        self.mode = "tree"
        self.orient2 = "out" if t2.kind == "out-tree" else "in"
        iv = self.iv2 = dfs_intervals(t2)
        reached = self.fr1.reached(self.pc1.kappa)
        self.structs = {}
        self.nonempty = [[] for _ in range(self.n)]
        for i, p1 in enumerate(self.pc1.paths):
            if self.orient2 == "out":
                segs = [
                    HSegment(2 * iv.s[v], 2 * iv.t[v], self.pc1.path_of[v][1], v)
                    for v in p1
                ]
                # only reached vertices ever query this structure
                queries = [(2 * iv.s[b] + 1, 0, b) for b in reached[i]]
                st = SegRayIndex(segs, queries)
            else:
                st = CartesianTree([(2 * iv.s[v], self.pc1.path_of[v][1], v) for v in p1])
            self.structs[i] = st
            for b in reached[i]:
                f1 = self.fr1.get(b, i)
                if self.orient2 == "out":
                    entry = st.entries[(2 * iv.s[b] + 1, 0)]
                    if entry and entry[-1].key[0] <= f1:
                        self.nonempty[b].append(i)
                else:
                    lo, hi = st.col_span(2 * iv.s[b] + 1, 2 * iv.t[b] - 1)
                    if lo <= hi and st.min_x2_in_range(lo, hi) <= f1:
                        self.nonempty[b].append(i)

    def query_counted(self, b):
        out = set()
        probes = 0
        pairs = []
        if self.mode == "cover":
            for (i, j) in self.nonempty[b]:
                pairs.append((i, j))
                ct = self.structs[(i, j)]
                res, pr = ct.report_dominated(self.fr1.get(b, i), self.fr2.get(b, j))
                out.update(res)
                probes += pr
            return out, probes, pairs
        for i in self.nonempty[b]:
            pairs.append((i, 0))
            st = self.structs[i]
            f1 = self.fr1.get(b, i)
            if self.orient2 == "out":
                res, pr = st.report_registered((2 * self.iv2.s[b] + 1, 0), f1)
            else:
                lo, hi = st.col_span(2 * self.iv2.s[b] + 1, 2 * self.iv2.t[b] - 1)
                res, pr = st.report_range(lo, hi, f1)
            out.update(res)
            probes += pr
        return out, probes, pairs


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
