"""Implicit join-reachability indexes.

Each builder returns a JRIndex whose query(b) reports exactly the
vertices that reach b in both input graphs, b included. Paths and trees
come as the blocks of `graph.tree_blocks`: a rooted tree or a dipath is
one block, a path one chain block per maximal run, and an unoriented
tree one block per layer graph; every vertex lies in at most two. A block
keeps its members' doubled DFS starts and ends as two int columns, which
the path and tree indexes read as point coordinates and predecessor
ranges without a tuple per member. They split the join into pairs of
blocks, the path-cover index into pairs of cover paths. A pair sharing
only the query vertex could report only that vertex, which `JRIndex`
adds to every answer anyway, so only pairs sharing at least two vertices
are kept, and a path or tree query touches at most four, all within the
blocks holding it.
A cover against a rooted tree second goes through
`cover.paths_against_tree`, which the heavy-path index shares, with the
heavy paths of its out-tree as the cover.

Both kinds of index pack all their pairs into at most one Cartesian
tree, one segment/ray sweep, one enclosure index and one range tree,
pair k's x1 shifted by k times a stride above every coordinate; a query
within pair k's band never meets another pair's points. At build each
vertex gets the list of pairs that can report for it, each with the
structure holding the pair, the name of its report method and the
arguments, so a query is one loop over that list. The lists skip pairs
that cannot report: the path-cover lists test each pair by a prefix or
range minimum, and the block pairs drop an in-oriented range holding no
member start and test each Cartesian-tree range by its minimum, keeping
only enclosure and chain-side entries untested. Probe counts and the
list of pairs touched are exposed for output-sensitivity checks; every
structure's `report` returns its payloads with the elementary work it
counted, so a probe count is real work in every index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate

from .cover import band_stride, from_ranks, min_path_cover, paths_against_tree, shared_vertices
from .geom import CartesianTree, EnclosureIndex, RangeTree2D, SegRayIndex
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

        The implementation returns a fresh list of the predecessors it
        found, none twice but b, which it may hold once or not at all. An
        empty list or [b] answers [b] at once, as most queries whose
        lists hold no entry do. Otherwise b is appended, the list sorted
        once, and b's second copy, if any, dropped. An answer of at least
        n/4 vertices goes through a set instead: CPython iterates a set of
        ints that dense almost in order, which the sort then finishes in
        near-linear time.
        """
        if not (0 <= b < self.n):
            raise ValueError(f"query vertex {b} out of range")
        found, probes, pairs = self._impl.query_counted(b)
        if not found or len(found) == 1 and found[0] == b:
            return [b], probes, pairs
        found.append(b)
        if 4 * len(found) >= self.n:
            return sorted(set(found)), probes, pairs
        found.sort()
        i = bisect_left(found, b)
        if i + 1 < len(found) and found[i + 1] == b:
            del found[i]
        return found, probes, pairs


class _Packed:
    """Reports from packed structures through per-vertex lists.

    A subclass puts pair k's points, segments or rectangles into the
    shared structures with their x1 shifted by k times a stride, so a query
    within pair k's band never meets another pair's. lists[b] holds, per
    pair that can report for b, (pair key, structure, method name,
    arguments): the named method of the structure holding the pair
    returns (payloads, probes). It is looked up at each query, so a
    tracer installed after the build still sees it. A query concatenates
    the reports into one list.
    """

    def query_counted(self, b):
        out = []
        probes = 0
        pairs = []
        for key, struct, report, args in self.lists[b]:
            res, pr = getattr(struct, report)(*args)
            pairs.append(key)
            out += res
            probes += pr
        return out, probes, pairs


# ----------------------------------------------------------------------
# Paths and trees


def _rank(blk):
    """0 for an out-oriented block, 1 for an in-oriented one, 2 for a chain."""
    return 2 if blk.chain else int(blk.orient == "in")


_ENC, _SEG, _RT, _CT = range(4)


def _role(b1, b2):
    """The structure holding a pair whose sides are ordered by `_rank`."""
    r1, r2 = _rank(b1), _rank(b2)
    return _ENC if r2 == 0 else _SEG if r1 == 0 else _RT if r2 == 1 else _CT


class _BlockPairs(_Packed):
    """Pairs of path or tree blocks, packed by the roles of their sides.

    In an out-oriented block that is not a chain, b's predecessors are the
    members whose interval holds b's: a query stabs intervals. In an
    in-oriented or chain block they are the members whose interval start
    lies in b's predecessor range: a chain's run up to b, 0..s[b];
    otherwise b's interval, open at a core b and closed at a fringe one,
    which its supervertex reaches. The join is symmetric, so each pair is
    ordered out, in, chain by `_rank` and stored as
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
    out-oriented side holds no predecessor of its fringe. Coordinates and
    predecessor ranges are read from the blocks' `s` and `t` columns in
    the loop that writes each point or report entry.

    lists[b] leaves out an entry whose range is known to hold no member
    but b. Doubled DFS clocks are even and a leaf's end is its start
    plus 2, so a core b at s .. s + 2 on an in-oriented side, a leaf of
    its block, has no member start in its open range: it gets no segment
    or range-tree entry. A Cartesian-tree entry is kept when the minimum
    x2 over its columns, from the sparse table, is at most b's chain
    start: exactly when it reports. A chain side's range 0 .. s[b] holds
    b itself, and an out/out query reports b's common ancestors, which no
    O(1) test finds, so those entries stay. Each structure is built from
    a generator over the pairs of its role, so one structure's input is
    alive at a time, and a block is freed once its last pair's entries
    are written.

    A pair reports each of its members at most once, but a vertex in two
    blocks of a tree can be reported by two pairs, so a query touching
    more than one pair drops repeats through a set. With one block per
    tree there is one pair.
    """

    def __init__(self, g1, g2):
        n = g1.n
        blocks1, blocks2, pairs = block_pairs(g1, g2)
        stride = band_stride(n)
        sides = [sorted((blocks1[i], blocks2[j]), key=_rank) for (i, j), _ in pairs]
        roles = [_role(b1, b2) for b1, b2 in sides]
        del blocks1, blocks2  # each block is freed after its last pair's entries

        def placed(role):
            """(x1 shift, s1, t1, s2, t2, stored members) of each pair in
            the role, read as the role's structure is built."""
            for k, ((b1, b2), (_, members)) in enumerate(zip(sides, pairs)):
                if roles[k] == role:
                    f1 = b1.fringe if b1.orient == "in" else ()
                    f2 = b2.fringe if b2.orient == "in" else ()
                    stored = [v for v in members if v not in f1 and v not in f2] if f1 or f2 else members
                    yield k * stride, b1.s, b1.t, b2.s, b2.t, stored

        enc = EnclosureIndex(
            (x + s1[v], x + t1[v], s2[v], t2[v], v) for x, s1, t1, s2, t2, vs in placed(_ENC) for v in vs
        )
        seg = SegRayIndex((x + s1[v], x + t1[v], s2[v], v) for x, s1, t1, s2, _, vs in placed(_SEG) for v in vs)
        rt = RangeTree2D((x + s1[v], s2[v], v) for x, s1, _, s2, _, vs in placed(_RT) for v in vs)
        ct = CartesianTree((x + s1[v], s2[v], v) for x, s1, _, s2, _, vs in placed(_CT) for v in vs)
        lists = self.lists = [[] for _ in range(n)]
        # d1 = 1 opens a core b's range; a fringe b's closed range on the
        # second side is the block's own two ints, which the entry shares.
        for k, (key, members) in enumerate(pairs):
            (b1, b2), sides[k], pairs[k] = sides[k], None, None
            base = k * stride
            role = roles[k]
            s1, t1, f1 = b1.s, b1.t, b1.fringe
            s2, t2, f2 = b2.s, b2.t, b2.fringe
            if role == _ENC:
                for b in members:
                    if b not in f1 and b not in f2:
                        lists[b].append((key, enc, "report", (base + s1[b] + 1, s2[b] + 1)))
            elif role == _SEG:
                for b in members:
                    if b in f1:
                        continue
                    if b2.chain:
                        lo2, hi2 = 0, s2[b]
                    elif b in f2:
                        lo2, hi2 = s2[b], t2[b]
                    elif t2[b] - s2[b] > 2:
                        lo2, hi2 = s2[b] + 1, t2[b] - 1
                    else:
                        continue
                    lists[b].append((key, seg, "report_at", (base + s1[b] + 1, lo2, hi2)))
            elif role == _RT:
                for b in members:
                    if b in f1:
                        d1 = 0
                    elif t1[b] - s1[b] > 2:
                        d1 = 1
                    else:
                        continue
                    if b in f2:
                        lo2, hi2 = s2[b], t2[b]
                    elif t2[b] - s2[b] > 2:
                        lo2, hi2 = s2[b] + 1, t2[b] - 1
                    else:
                        continue
                    lists[b].append((key, rt, "report", (base + s1[b] + d1, base + t1[b] - d1, lo2, hi2)))
            else:
                for b in members:
                    if b1.chain:
                        lo, hi, low = ct.col_span_min(base, base + s1[b])
                    else:
                        d1 = 0 if b in f1 else 1
                        lo, hi, low = ct.col_span_min(base + s1[b] + d1, base + t1[b] - d1)
                    if low is not None and low <= s2[b]:  # None: no point in the range
                        lists[b].append((key, ct, "report_range", (lo, hi, s2[b])))

    def query_counted(self, b):
        out, probes, pairs = _Packed.query_counted(self, b)
        if len(pairs) > 1:
            out = list(set(out))
        return out, probes, pairs


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
        tree2 = g2.kind in ("out-tree", "in-tree")
        order1 = topo_order(g1)
        if order1 is None:
            raise CyclicGraphError("first graph must be acyclic")
        order2 = None if tree2 else topo_order(g2)
        if order2 is None and not tree2:
            raise CyclicGraphError("second graph must be acyclic")
        pc1 = min_path_cover(g1, order1)
        fr1 = from_ranks(g1, pc1, order1)
        if tree2:
            self.lists = paths_against_tree(pc1, fr1, g2)
        else:
            pc2 = min_path_cover(g2, order2)
            self._build_cover_side(pc1, pc2, fr1, from_ranks(g2, pc2, order2))

    def _build_cover_side(self, pc1, pc2, fr1, fr2):
        """Pair k = (i, j) holds the vertices on both cover paths at
        (rank on i, rank on j). It is in I(v) when one of them has rank at
        most fr1(v, i) on i and at most fr2(v, j) on j, which one flat
        array of prefix minima over each pair's columns answers. Each of
        v's pairs (i, j) is found by looking up the smaller of the two
        dicts keyed by j in the larger, and v's two rows are released as
        soon as its list is written."""
        stride = band_stride(len(fr1))
        path_of1, path_of2 = pc1.path_of, pc2.path_of
        shared = list(shared_vertices(pc1, pc2).items())
        pts = sorted(
            (k * stride + path_of1[v][1], path_of2[v][1], v)
            for k, (_, common) in enumerate(shared)
            for v in common
        )
        ranks2 = [p[1] for p in pts]
        first, mins = [], []
        pair_of = [{} for _ in range(pc1.kappa)]  # i -> {j: k}
        for k, ((i, j), common) in enumerate(shared):
            pair_of[i][j] = k
            first.append(len(mins))
            mins += accumulate(ranks2[first[k] : first[k] + len(common)], min)
        ct = CartesianTree(pts)
        del pts, ranks2
        self.lists = []
        for v, (row1, row2) in enumerate(zip(fr1, fr2)):
            hits = []
            for i, f1 in row1.items():
                pairs = pair_of[i]
                small, large = (pairs, row2) if len(pairs) < len(row2) else (row2, pairs)
                for j in small:
                    if j in large:
                        k, f2 = pairs[j], row2[j]
                        hi = bisect_right(ct.colx, k * stride + f1) - 1
                        if hi >= first[k] and mins[hi] <= f2:
                            hits.append((shared[k][0], ct, "report_range", (first[k], hi, f2)))
            self.lists.append(sorted(hits))
            fr1[v] = fr2[v] = None  # v's rows are read for the last time


def index_pathcover(g1, g2):
    return JRIndex("pathcover", g1.n, _PathCover(g1, g2))


# ----------------------------------------------------------------------
# Planar st-graphs


def kameda_labels(g):
    """(l1, l2): Kameda's two labels of a planar st-graph; a reaches b
    iff l1[a] <= l1[b] and l2[a] <= l2[b].

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
    rows = transitive_closure(g)
    at_least1, at_least2 = _suffix_masks(l1), _suffix_masks(l2)
    for a in range(g.n):
        diff = rows[a] ^ (at_least1[l1[a]] & at_least2[l2[a]])
        if diff:
            b = (diff & -diff).bit_length() - 1
            raise GraphClassError(
                f"label equivalence fails at pair ({a},{b}); "
                "input is not a validly embedded planar st-graph"
            )
    return l1, l2


def _suffix_masks(labels):
    """masks[k]: bitmask of the vertices labelled k or more (labels 1..n)."""
    masks = [0] * (len(labels) + 2)
    for v in sorted(range(len(labels)), key=labels.__getitem__, reverse=True):
        masks[labels[v]] = masks[labels[v] + 1] | (1 << v)
    return masks


def _postorder_labels(g, reverse_order):
    """Labels n down to 1 in the order a search from the source, taking
    arcs in `g.out_order` or its reverse, leaves the vertices (pops ~v)."""
    label = g.n
    labels = [0] * label
    seen = [False] * label
    stack = [g.inn.index(())]
    while stack:
        v = stack.pop()
        if v < 0:
            labels[~v] = label
            label -= 1
        elif not seen[v]:
            seen[v] = True
            stack.append(~v)
            stack += g.out_order[v] if reverse_order else reversed(g.out_order[v])
    if label:
        raise GraphClassError("source does not reach every vertex")
    return labels


class _PlanarSt:
    def __init__(self, g1, p2):
        if g1.n != p2.n:
            raise ValueError("vertex-set mismatch")
        n = g1.n
        self.l1, self.l2 = kameda_labels(g1)
        self.l3 = [0] * n
        for r, v in enumerate(path_order(p2)):
            self.l3[v] = r
        self.rt = RangeTree2D([(self.l1[v], self.l2[v], v) for v in range(n)])

    def query_counted(self, b):
        cands, probes = self.rt.report(1, self.l1[b], 1, self.l2[b])
        l3, rank = self.l3, self.l3[b]
        return [a for a in cands if l3[a] <= rank], probes, [(0, 0)]


def index_planar_st(g1, p2):
    return JRIndex("planar-st", g1.n, _PlanarSt(g1, p2))
