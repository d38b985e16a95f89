"""Implicit join-reachability indexes.

Each builder returns a JRIndex whose query(b) reports exactly the
vertices that reach b in both input graphs, b included. Paths and trees
come as the blocks of `graph.tree_blocks`: a rooted tree or a dipath is
one block, a path one chain block per maximal run, and an unoriented
tree one block per layer graph; every vertex lies in at most two. The
path and tree indexes split the join into pairs of blocks, the path-cover
index into pairs of cover paths. A pair sharing only the query vertex
could report only that vertex, which `JRIndex` adds to every answer
anyway, so only pairs sharing at least two vertices are kept, and a path
or tree query touches at most four, all within the blocks holding it.
A cover against a rooted tree second goes through
`cover.paths_against_tree`, which the heavy-path index shares, with the
heavy paths of its out-tree as the cover.

Both kinds of index pack all their pairs into at most one Cartesian
tree, one segment/ray sweep, one enclosure index and one range tree,
pair k's x1 shifted by k times a stride above every coordinate; a query
within pair k's band never meets another pair's points. At build each
vertex gets the list of pairs that can report for it, each with the
structure holding the pair, the name of its report method and the
arguments, so a query is one loop over that list. Probe counts and the
list of pairs touched are exposed for output-sensitivity checks; every
structure's `report` returns its payloads with the elementary work it
counted, so a probe count is real work in every index.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .cover import band_stride, from_ranks, min_path_cover, paths_against_tree, shared_vertices
from .geom import CartesianTree, EnclosureIndex, HSegment, RangeTree2D, Rect, SegRayIndex
from .graph import (
    CyclicGraphError,
    GraphClassError,
    block_pairs,
    path_order,
    topo_order,
    transitive_closure,
)
from .hpd import hpd_two_trees_build


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


class _Packed:
    """Reports from packed structures through per-vertex lists.

    A subclass puts pair k's points, segments or rectangles into the
    shared structures with their x1 shifted by k times a stride, so a query
    within pair k's band never meets another pair's. lists[b] holds, per
    pair that can report for b, (pair key, structure, method name,
    arguments): the named method of the structure holding the pair
    returns (payloads, probes). It is looked up at each query, so a
    tracer installed after the build still sees it.
    """

    def query_counted(self, b):
        out = set()
        probes = 0
        pairs = []
        for key, struct, report, args in self.lists[b]:
            res, pr = getattr(struct, report)(*args)
            pairs.append(key)
            out.update(res)
            probes += pr
        return out, probes, pairs


# ----------------------------------------------------------------------
# Paths and trees


def _rank(blk):
    """0 for an out-oriented block, 1 for an in-oriented one, 2 for a chain."""
    return 2 if blk.chain else int(blk.orient == "in")


def _pred_range(blk, b):
    """(lo, hi): the interval starts of b's predecessors in an in-oriented
    or chain block. A chain's run up to b; otherwise b's interval, open at
    a core b and closed at a fringe one, which its supervertex reaches."""
    lo, hi = blk.su_iv[b]
    if blk.chain:
        return 0, lo
    if blk.core[b]:
        return lo + 1, hi - 1
    return lo, hi


class _BlockPairs(_Packed):
    """Pairs of path or tree blocks, packed by the roles of their sides.

    In an out-oriented block that is not a chain, b's predecessors are the
    members whose interval holds b's: a query stabs intervals. In an
    in-oriented or chain block they are the members whose interval start
    lies in `_pred_range`. The join is symmetric, so each pair is ordered
    out, in, chain by `_rank` and stored as
    - out with out: rectangles, stabbed in the enclosure index in
      O(log^2 m + k) counted probes;
    - out with in or chain: segments over the first side's intervals at
      the second side's starts, stabbed by a ray in the sweep;
    - in with in: points, reported in a rectangle of the range tree in
      O(log^2 m + k) counted probes;
    - in or chain with chain: points in the Cartesian tree, whose 3-sided
      query bounds the chain side from above.
    A fringe member stands at its supervertex's interval. It is stored
    only on out-oriented sides, where it reaches its supervertex, and an
    out-oriented side holds no predecessor of its fringe.
    """

    def __init__(self, g1, g2):
        n = self.n = g1.n
        blocks1, blocks2, pairs = block_pairs(g1, g2)
        stride = band_stride(n)
        sides = [sorted((blocks1[i], blocks2[j]), key=_rank) for (i, j), _ in pairs]
        rects, segs, rpts, pts = [], [], [], []
        for k, ((b1, b2), (_, members)) in enumerate(zip(sides, pairs)):
            base = k * stride
            iv1, iv2 = b1.su_iv, b2.su_iv
            stored = [
                v for v in members
                if (b1.orient == "out" or b1.core[v]) and (b2.orient == "out" or b2.core[v])
            ]
            if _rank(b2) == 0:
                rects += [Rect(base + iv1[v][0], base + iv1[v][1], *iv2[v], v) for v in stored]
            elif _rank(b1) == 0:
                segs += [HSegment(base + iv1[v][0], base + iv1[v][1], iv2[v][0], v) for v in stored]
            else:
                (rpts if _rank(b2) == 1 else pts).extend((base + iv1[v][0], iv2[v][0], v) for v in stored)
        ct, seg = CartesianTree(pts), SegRayIndex(segs)
        enc, rt = EnclosureIndex(rects), RangeTree2D(rpts)
        self.lists = [[] for _ in range(n)]
        for k, ((b1, b2), (key, members)) in enumerate(zip(sides, pairs)):
            base = k * stride
            r1, r2 = _rank(b1), _rank(b2)
            for b in members:
                if r1 == 0:
                    if not b1.core[b] or (r2 == 0 and not b2.core[b]):
                        continue
                    x = base + b1.su_iv[b][0] + 1
                    if r2 == 0:
                        entry = (key, enc, "report", (x, b2.su_iv[b][0] + 1))
                    else:
                        entry = (key, seg, "report_at", (x, *_pred_range(b2, b)))
                else:
                    lo, hi = _pred_range(b1, b)
                    lo2, hi2 = _pred_range(b2, b)
                    if r2 == 1:
                        entry = (key, rt, "report", (base + lo, base + hi, lo2, hi2))
                    else:
                        lo, hi = ct.col_span(base + lo, base + hi)
                        if lo > hi:
                            continue
                        entry = (key, ct, "report_range", (lo, hi, hi2))
                self.lists[b].append(entry)


def index_two_paths(p1, p2):
    return JRIndex("two-paths", p1.n, _BlockPairs(p1, p2))


def index_tree_path(t1, p2):
    return JRIndex("tree-path", t1.n, _BlockPairs(t1, p2))


def index_two_trees(t1, t2):
    return JRIndex("two-trees", t1.n, _BlockPairs(t1, t2))


def index_hpd_two_trees(t1, t2):
    """Heavy-path alternative for two rooted trees; one must be an out-tree.

    A query reports the heavy paths it touched as keys (path, 0)."""
    if t1.kind != "out-tree" and t2.kind == "out-tree":
        t1, t2 = t2, t1
    return JRIndex("hpd-two-trees", t1.n, hpd_two_trees_build(t1, t2))


# ----------------------------------------------------------------------
# Path covers


class _PathCover(_Packed):
    """Cover-path pairs packed into one dominance structure, reported from
    the nonempty lists I(v).

    For a second tree each first-graph cover path is one pair, laid out
    against the tree by `cover.paths_against_tree`. I(v)
    keeps a query's probes proportional to the pairs that actually report
    something. It is read off v's sparse from-rank rows, so the build
    scales with the cover sizes rather than with n times their product.
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
        fr1 = from_ranks(g1, self.pc1, order1)
        if tree2:
            self.lists = paths_against_tree(self.pc1.paths, fr1, g2)
        else:
            self.pc2 = min_path_cover(g2, order2)
            self._build_cover_side(fr1, from_ranks(g2, self.pc2, order2))

    def _build_cover_side(self, fr1, fr2):
        """Pair k = (i, j) holds the vertices on both cover paths at
        (rank on i, rank on j). It is in I(v) when one of them has rank at
        most fr1(v, i) on i and at most fr2(v, j) on j, which one flat
        array of prefix minima over each pair's columns answers."""
        stride = band_stride(self.n)
        path_of1, path_of2 = self.pc1.path_of, self.pc2.path_of
        shared = list(shared_vertices(self.pc1, self.pc2).items())
        ct = CartesianTree(
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
        self.lists = []
        for row1, row2 in zip(fr1, fr2):
            hits = []
            for i, f1 in row1.items():
                for j in pair_of[i].keys() & row2.keys():
                    k = pair_of[i][j]
                    hi = bisect_right(ct.colx, k * stride + f1) - 1
                    if hi >= first[k] and mins[hi] <= row2[j]:
                        hits.append((shared[k][0], ct, "report_range", (first[k], hi, row2[j])))
            self.lists.append(sorted(hits))


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
        cands, probes = self.rt.report(1, self.l1[b], 1, self.l2[b])
        out = {a for a in cands if self.l3[a] <= self.l3[b]}
        return out, probes, [(0, 0)]


def index_planar_st(g1, p2):
    return JRIndex("planar-st", g1.n, _PlanarSt(g1, p2))
