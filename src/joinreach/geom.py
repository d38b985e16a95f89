"""Output-sensitive geometric reporting structures.

Cartesian trees for dominance and grounded (3-sided) range reporting, a
persistent-treap sweep for horizontal segments with laminar (nested or
disjoint) x1 spans versus vertical rays, an interval tree for rectangle
point enclosure, and a two-level range tree for orthogonal range
reporting. All structures are immutable after build. The Cartesian tree
finds range minima in a sparse table over its column keys and descends
whole subtrees through child links with no lookup. It and the sweep
return (payloads, probe_count) so callers can assert output
sensitivity; a probe is one tree node or treap node visited.
"""

from __future__ import annotations

import random as _random
from bisect import bisect_left, bisect_right
from typing import NamedTuple


class Point2(NamedTuple):
    x1: int
    x2: int
    payload: int


class HSegment(NamedTuple):
    x1_lo: int
    x1_hi: int
    x2: int
    payload: int


# ----------------------------------------------------------------------
# Cartesian tree


class CartesianTree:
    """Binary tree over points: in-order by x1, heap order (min) on x2.

    Each point is one column; x1 coordinates must be distinct. Ties in x2
    go to the leftmost column.

    Range minima come from a sparse table over the columns' x2 keys
    (Bender and Farach-Colton): level k holds, per start column, the
    leftmost minimum of the 2^k columns from there, so a lookup reads two
    entries and the build is O(m log m) for m columns. Reports descend
    whole subtrees through child links in heap order (Gabow, Bentley and
    Tarjan). A probe is one node visited.
    """

    __slots__ = (
        "colx", "reps", "left", "right", "root", "npoints",
        "_x2", "_payload", "_table",
    )

    def __init__(self, points):
        reps = self.reps = sorted(points)
        colx = self.colx = [p[0] for p in reps]
        m = self.npoints = len(colx)
        if len(set(colx)) < m:
            raise ValueError("duplicate x1 coordinate")
        x2 = self._x2 = [p[1] for p in reps]
        self._payload = [p[2] for p in reps]
        left = self.left = [-1] * m
        right = self.right = [-1] * m
        stack = []
        for i, key in enumerate(x2):
            last = -1
            while stack and x2[stack[-1]] > key:
                last = stack.pop()
            left[i] = last
            if stack:
                right[stack[-1]] = i
            stack.append(i)
        self.root = stack[0] if stack else -1
        table = self._table = [list(range(m))]
        span = 1
        while 2 * span <= m:
            row = table[-1]
            table.append([a if x2[a] <= x2[b] else b for a, b in zip(row, row[span:])])
            span *= 2

    def range_min(self, lo, hi):
        """Column index of the minimum-x2 point among columns lo..hi, the
        leftmost one on ties."""
        k = (hi - lo + 1).bit_length() - 1
        row = self._table[k]
        a, b = row[lo], row[hi - (1 << k) + 1]
        return b if self._x2[b] < self._x2[a] else a

    def col_span(self, x1_lo, x1_hi):
        """(lo, hi): the columns whose x1 lies in [x1_lo, x1_hi]; lo > hi
        when there are none."""
        return bisect_left(self.colx, x1_lo), bisect_right(self.colx, x1_hi) - 1

    def report_range(self, lo_col, hi_col, x2_max):
        """Payloads of points in columns lo..hi with x2 <= x2_max, in
        O(1 + k) probes for k reported points, at most 3k + 3.

        Only a pending range that is not one subtree costs a range-minimum
        lookup, and at most two are pending: those cut by lo_col and by
        hi_col. With c the minimum of lo..hi, the columns lo..c-1 are c's
        whole left subtree exactly when column lo-1 is missing or keyed
        below c; likewise hi+1 on the right.
        """
        out = []
        if self.root == -1 or lo_col > hi_col:
            return out, 0
        x2, payload, table = self._x2, self._payload, self._table
        left, right = self.left, self.right
        last = len(x2) - 1
        probes = 0
        nodes = []  # roots of whole subtrees inside the range
        cuts = [(lo_col, hi_col)]
        while cuts:
            lo, hi = cuts.pop()
            k = (hi - lo + 1).bit_length() - 1
            row = table[k]
            c, d = row[lo], row[hi - (1 << k) + 1]
            if x2[d] < x2[c]:
                c = d
            probes += 1
            key = x2[c]
            if key > x2_max:
                continue
            out.append(payload[c])
            if lo < c:
                if lo == 0 or x2[lo - 1] <= key:
                    nodes.append(left[c])
                else:
                    cuts.append((lo, c - 1))
            if c < hi:
                if hi == last or x2[hi + 1] < key:
                    nodes.append(right[c])
                else:
                    cuts.append((c + 1, hi))
        # the loop also visits the children it appends, each node once
        for c in nodes:
            if x2[c] > x2_max:
                continue
            out.append(payload[c])
            if left[c] != -1:
                nodes.append(left[c])
            if right[c] != -1:
                nodes.append(right[c])
        return out, probes + len(nodes)

    def report_dominated(self, x1_max, x2_max):
        """Payloads of points with x1 <= x1_max and x2 <= x2_max."""
        return self.report_range(0, bisect_right(self.colx, x1_max) - 1, x2_max)

    def min_x2_in_range(self, lo_col, hi_col):
        if self.root == -1 or lo_col > hi_col:
            return None
        return self._x2[self.range_min(lo_col, hi_col)]


# ----------------------------------------------------------------------
# Persistent-treap sweep for segment / vertical-ray intersection
#
# A treap node is a plain tuple (key, prio, payload, left, right) with
# key = (x2, segment position): in-order by key, min-heap on prio.


def _persistent_insert(root, key, prio, payload):
    """The version of `root` with one more node, by path copying and
    without recursion: copy the path down to where the node's priority
    puts it, split the subtree found there around `key`, copy back up."""
    path = []
    t = root
    while t is not None and t[1] < prio:
        path.append(t)
        t = t[3] if key < t[0] else t[4]
    lower, upper = [], []  # the split's nodes below and above key, top down
    while t is not None:
        if t[0] < key:
            lower.append(t)
            t = t[4]
        else:
            upper.append(t)
            t = t[3]
    left = right = None
    for k, p, v, l, _ in reversed(lower):
        left = (k, p, v, l, left)
    for k, p, v, _, r in reversed(upper):
        right = (k, p, v, right, r)
    node = (key, prio, payload, left, right)
    for k, p, v, l, r in reversed(path):
        node = (k, p, v, node, r) if key < k else (k, p, v, l, node)
    return node


def _seed_stack(root, key_lo):
    """Path to the smallest key >= key_lo; the stack drives an in-order walk."""
    stack = []
    node = root
    while node is not None:
        if node[0] >= key_lo:
            stack.append(node)
            node = node[3]
        else:
            node = node[4]
    return tuple(stack)


def _walk(stack_seed, x2_hi):
    """(payloads in key order up to x2 <= x2_hi, nodes visited)."""
    out = []
    stack = list(stack_seed)
    probes = 0
    while stack:
        node = stack.pop()
        probes += 1
        if x2_hi is not None and node[0][0] > x2_hi:
            break
        out.append(node[2])
        t = node[4]
        while t is not None:
            probes += 1
            stack.append(t)
            t = t[3]
    return out, probes


class SegRayIndex:
    """Horizontal segments queried by upward vertical rays.

    A query from (x, y) reports exactly the segments with
    x1_lo < x < x1_hi and x2 >= y, in increasing x2 order, ties by
    position in `segments`. Query points registered at build time get a
    precomputed entry stack, so reporting does no point-location search;
    unregistered points pay one binary search over sweep versions.

    The segments' x1 spans must be laminar: any two are nested, equal or
    disjoint, and spans that only touch at an endpoint are disjoint. DFS
    intervals of one tree are, and so are bands of them shifted apart.
    Crossing spans raise ValueError. The sweep keeps a stack of the open
    spans, outermost first; a span's treap version is one persistent
    insert into the version of the span enclosing it, and when it closes
    that enclosing version is current again. So the build makes expected
    O(log m) new nodes per segment and deletes nothing.
    """

    __slots__ = ("segments", "entries", "_xs", "_mid", "_end")

    def __init__(self, segments, query_points):
        segs = self.segments = list(segments)
        rng = _random.Random(0x5E9)
        prios = [rng.random() for _ in segs]
        queries = {}
        for q in query_points:
            queries.setdefault(q[0], []).append(q[1])
        xs = self._xs = sorted({s.x1_lo for s in segs} | {s.x1_hi for s in segs} | queries.keys())
        # Outer spans first. A treap's shape is fixed by its (key, prio)
        # set, so the order among equal spans changes no version.
        pending = iter(sorted((s.x1_lo, -s.x1_hi, s.x2, i, s.payload) for i, s in enumerate(segs)))
        nxt = next(pending, None)
        entries = self.entries = {}
        mids = self._mid = []
        ends = self._end = []
        opened = [(float("inf"), None)]  # (x1_hi, version) of the open spans
        for x in xs:
            while opened[-1][0] == x:
                opened.pop()
            root = opened[-1][1]
            mids.append(root)
            for y in queries.get(x, ()):
                entries[(x, y)] = _seed_stack(root, (y, -1))
            while nxt is not None and nxt[0] == x:
                _, hi, x2, i, payload = nxt
                hi = -hi
                if hi <= x:
                    raise ValueError("segment with empty x1 span")
                if hi > opened[-1][0]:
                    raise ValueError("segment x1 spans cross")
                root = _persistent_insert(root, (x2, i), prios[i], payload)
                opened.append((hi, root))
                nxt = next(pending, None)
            ends.append(root)

    def report_registered(self, q, x2_hi=None):
        """Report for a query point registered at build time."""
        key = (q[0], q[1])
        if key not in self.entries:
            raise KeyError(f"query point {key} was not registered")
        return _walk(self.entries[key], x2_hi)

    def min_x2_registered(self, q):
        """Smallest x2 that a registered point reports, or None."""
        stack = self.entries[(q[0], q[1])]
        return stack[-1][0][0] if stack else None

    def report_at(self, x, y_lo, x2_hi=None):
        """Report for an arbitrary point; costs a version search."""
        i = bisect_right(self._xs, x) - 1
        if i < 0:
            return [], 0
        root = self._mid[i] if self._xs[i] == x else self._end[i]
        return _walk(_seed_stack(root, (y_lo, -1)), x2_hi)


# ----------------------------------------------------------------------
# Rectangle point enclosure via an interval tree on x1 spans


class _ENode(NamedTuple):
    center: int
    by_lo: tuple
    by_hi: tuple
    left: object
    right: object


class Rect(NamedTuple):
    x1_lo: int
    x1_hi: int
    x2_lo: int
    x2_hi: int
    payload: int


def _enclosure_node(rects):
    if not rects:
        return None
    xs = sorted(x for r in rects for x in (r.x1_lo, r.x1_hi))
    center = xs[len(xs) // 2]
    here, left, right = [], [], []
    for r in rects:
        if r.x1_hi < center:
            left.append(r)
        elif r.x1_lo > center:
            right.append(r)
        else:
            here.append(r)
    return _ENode(
        center,
        tuple(sorted(here, key=lambda r: r.x1_lo)),
        tuple(sorted(here, key=lambda r: -r.x1_hi)),
        _enclosure_node(left),
        _enclosure_node(right),
    )


class EnclosureIndex:
    """Interval tree over rectangle x1-spans with per-node sorted lists."""

    __slots__ = ("root", "nrects")

    def __init__(self, rects):
        self.nrects = len(rects)
        self.root = _enclosure_node(list(rects))

    def report(self, qx, qy):
        """Rectangles strictly containing (qx, qy)."""
        out = []
        node = self.root
        while node is not None:
            if qx < node.center:
                for r in node.by_lo:
                    if r.x1_lo >= qx:
                        break
                    if r.x2_lo < qy < r.x2_hi:
                        out.append(r.payload)
                node = node.left
            elif qx > node.center:
                for r in node.by_hi:
                    if r.x1_hi <= qx:
                        break
                    if r.x2_lo < qy < r.x2_hi:
                        out.append(r.payload)
                node = node.right
            else:
                for r in node.by_lo:
                    if r.x1_lo < qx < r.x1_hi and r.x2_lo < qy < r.x2_hi:
                        out.append(r.payload)
                node = None
        return out

    def report_counted(self, qx, qy):
        """(report(qx, qy), its length + 1 as the probe count)."""
        res = self.report(qx, qy)
        return res, len(res) + 1


# ----------------------------------------------------------------------
# Two-level range tree for orthogonal range reporting


class _RNode(NamedTuple):
    x_lo: int
    x_hi: int
    ys: tuple
    left: object
    right: object


def _range_node(pts):
    if len(pts) == 1:
        p = pts[0]
        return _RNode(p[0], p[0], ((p[1], p[2]),), None, None)
    mid = len(pts) // 2
    left = _range_node(pts[:mid])
    right = _range_node(pts[mid:])
    ys = tuple(sorted(left.ys + right.ys))
    return _RNode(pts[0][0], pts[-1][0], ys, left, right)


class RangeTree2D:
    """Balanced tree on x1 with x2-sorted arrays per node."""

    __slots__ = ("root", "npoints")

    def __init__(self, points):
        pts = sorted(points)
        self.npoints = len(pts)
        self.root = _range_node(pts) if pts else None

    def report(self, x1_lo, x1_hi, x2_lo, x2_hi):
        if x1_lo > x1_hi or x2_lo > x2_hi:
            raise ValueError("malformed rectangle (lo > hi)")
        out = []
        if self.root is None:
            return out
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is None or node.x_lo > x1_hi or node.x_hi < x1_lo:
                continue
            if x1_lo <= node.x_lo and node.x_hi <= x1_hi:
                lo = bisect_left(node.ys, (x2_lo, -1))
                hi = bisect_right(node.ys, (x2_hi, float("inf")))
                out.extend(p for _, p in node.ys[lo:hi])
                continue
            stack.append(node.left)
            stack.append(node.right)
        return out

    def report_counted(self, x1_lo, x1_hi, x2_lo, x2_hi):
        """(report(...), its length + 1 as the probe count)."""
        res = self.report(x1_lo, x1_hi, x2_lo, x2_hi)
        return res, len(res) + 1
