"""Output-sensitive geometric reporting structures.

Cartesian trees for dominance and grounded (3-sided) range reporting, a
persistent-treap sweep for horizontal segments with laminar (nested or
disjoint) x1 spans versus vertical rays, its nodes keyed by one int per
segment, and, both in O(log^2 m + k), an interval tree over segment
trees for point enclosure in integer rectangles and a merge-sort range
tree for orthogonal range reporting. Points, segments and rectangles are
plain tuples. All structures are immutable after build. The Cartesian
tree is stored in preorder: range minima come from a sparse table of
preorder positions, and a whole subtree is one run of positions. Every
report returns (payloads, probes) so callers can assert output
sensitivity: a probe is one node, run or list entry visited, and the
enclosure index and the range tree charge each binary search its bit
length.
"""

from __future__ import annotations

import random as _random
from bisect import bisect_left, bisect_right
from math import ceil, floor, inf
from operator import index, itemgetter


# ----------------------------------------------------------------------
# Cartesian tree


class CartesianTree:
    """Binary tree over points: in-order by x1, heap order (min) on x2.

    Each point is one column; x1 coordinates must be distinct, `colx`
    holds them in order. Ties in x2 go to the leftmost column. Node p in
    preorder has key `px2[p]`, payload `ppay[p]` and column `colp[p]`;
    its subtree is the run p .. `pend[p]` - 1. A column range's leftmost
    minimum is its lowest common ancestor, the first in preorder, so
    range minima come from a sparse table of preorder positions (Bender
    and Farach-Colton): level 0 maps columns to positions, level k holds
    the smallest over each 2^k columns, and the O(m log m) build reads no
    key. Reports walk whole subtrees as preorder runs (Gabow, Bentley and
    Tarjan). A probe is one node visited.
    """

    __slots__ = ("colx", "px2", "ppay", "pend", "colp", "_table")

    def __init__(self, points):
        pts = sorted(points)
        colx = self.colx = [p[0] for p in pts]
        m = len(colx)
        if len(set(colx)) < m:
            raise ValueError("duplicate x1 coordinate")
        x2 = [p[1] for p in pts]
        ids = list(range(m + 1))  # one int per position: pos, colp and pend share them
        pos = [0] * m
        colp, pend = self.colp, self.pend = [0] * m, [0] * m
        # One pass from the right. Beneath column c on the stack lie its d
        # ancestors right of it, the nearest (or m) one past its subtree.
        # The column x that pops c is the one just before its subtree, so
        # c's position is x + 1 + d. Columns never popped are the root's
        # left spine, at positions 0, 1, ...
        stack = []
        for x in range(m - 1, -1, -1):
            key = x2[x]
            while stack and x2[stack[-1]] >= key:
                c = stack.pop()
                d = len(stack)
                p = ids[x + 1 + d]
                pos[c], colp[p] = p, c
                pend[p] = ids[d + (stack[-1] if stack else m)]
            stack.append(ids[x])
        for d, c in enumerate(stack):
            pos[c], colp[d] = ids[d], c
            pend[d] = ids[d + (stack[d - 1] if d else m)]
        self.px2 = [x2[c] for c in colp]
        self.ppay = [pts[c][2] for c in colp]
        table = self._table = [pos]
        span = 1
        while 2 * span <= m:
            row = table[-1]
            table.append([a if a < b else b for a, b in zip(row, row[span:])])
            span *= 2

    def col_span(self, x1_lo, x1_hi):
        """(lo, hi): the columns whose x1 lies in [x1_lo, x1_hi]; lo > hi
        when there are none."""
        return bisect_left(self.colx, x1_lo), bisect_right(self.colx, x1_hi) - 1

    def col_span_min(self, x1_lo, x1_hi):
        """(lo, hi, low): the columns of `col_span(x1_lo, x1_hi)` and the
        minimum x2 over them, None when there are none."""
        colx = self.colx
        lo, hi = bisect_left(colx, x1_lo), bisect_right(colx, x1_hi) - 1
        if lo > hi:
            return lo, hi, None
        k = (hi - lo + 1).bit_length() - 1
        row = self._table[k]
        return lo, hi, self.px2[min(row[lo], row[hi - (1 << k) + 1])]

    def report_range(self, lo_col, hi_col, x2_max):
        """Payloads of points in columns lo..hi with x2 <= x2_max, in
        O(1 + k) probes for k reported points, at most 3k + 3.

        Only a pending range that is not one subtree costs a range-minimum
        lookup, and at most two are pending: those cut by lo_col and by
        hi_col. With p the minimum of lo..hi, at column c, the columns
        lo..c-1 are p's whole left subtree, one preorder run, exactly when
        column lo-1 is missing or before p in preorder; likewise c+1..hi
        when hi+1 is missing or outside p's subtree.
        """
        out = []
        if lo_col > hi_col:
            return out, 0
        px2, ppay, pend, colp, table = self.px2, self.ppay, self.pend, self.colp, self._table
        pos, last = table[0], len(px2) - 1
        probes = 0
        runs = []  # (start, end) of each whole subtree inside the range
        cuts = [(lo_col, hi_col)]
        while cuts:
            lo, hi = cuts.pop()
            k = (hi - lo + 1).bit_length() - 1
            row = table[k]
            a, b = row[lo], row[hi - (1 << k) + 1]
            p = a if a < b else b
            probes += 1
            if px2[p] > x2_max:
                continue
            out.append(ppay[p])
            c = colp[p]
            if lo < c:
                if lo == 0 or pos[lo - 1] < p:
                    runs.append((p + 1, p + 1 + c - lo))
                else:
                    cuts.append((lo, c - 1))
            if c < hi:
                e = pend[p]
                if hi == last or not p < pos[hi + 1] < e:
                    runs.append((e - hi + c, e))
                else:
                    cuts.append((c + 1, hi))
        probes -= len(out)  # a run's node is reported, or skipped with its subtree
        for i, j in runs:
            while i < j:
                if px2[i] <= x2_max:
                    out.append(ppay[i])
                    i += 1
                else:
                    i = pend[i]
                    probes += 1
        return out, probes + len(out)

    def report_dominated(self, x1_max, x2_max):
        """Payloads of points with x1 <= x1_max and x2 <= x2_max."""
        return self.report_range(0, bisect_right(self.colx, x1_max) - 1, x2_max)


# ----------------------------------------------------------------------
# Persistent-treap sweep for segment / vertical-ray intersection
#
# A treap node is a plain tuple (key, prio, payload, left, right) with
# the int key x2 * w + position, w being the segment count plus one:
# in-order by (x2, position), min-heap on prio.


def _persistent_insert(root, key, prio, payload):
    """The version of `root` with one more node, by path copying and
    without recursion: copy the path down to where the node's priority
    puts it, split the subtree found there around `key`, copy back up."""
    path = []
    t = root
    while t is not None and t[1] < prio:
        path.append(t)
        t = t[3] if key < t[0] else t[4]
    if t is None:
        node = (key, prio, payload, None, None)
    else:
        lower, upper = [], []  # the split's nodes below and above key, top down
        while t is not None:
            if t[0] < key:
                lower.append(t)
                t = t[4]
            else:
                upper.append(t)
                t = t[3]
        left = right = None
        while lower:
            k, p, v, l, _ = lower.pop()
            left = (k, p, v, l, left)
        while upper:
            k, p, v, _, r = upper.pop()
            right = (k, p, v, right, r)
        node = (key, prio, payload, left, right)
    while path:
        k, p, v, l, r = path.pop()
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
    return stack


def _walk(stack, key_end):
    """(payloads in key order below key_end, nodes visited); it consumes
    `stack`."""
    out = []
    probes = 0
    while stack:
        node = stack.pop()
        probes += 1
        if node[0] >= key_end:
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

    A segment is a tuple (x1_lo, x1_hi, x2, payload); its x2 is an
    integer, read through `operator.index`, so a float raises TypeError.
    A query from (x, y) reports exactly the segments with
    x1_lo < x < x1_hi and x2 >= y, in increasing x2 order, ties by
    position in `segments`, up to a cap on x2; y and the cap are reals
    or infinities. It finds the treap
    version at x by one binary search over the sweep's stops (persistent
    point location, Sarnak and Tarjan) and descends to the first key
    >= y; nothing is stored per query point. A node's key is the int
    x2 * w + position with w the segment count plus one, so keys order
    as (x2, position) pairs and a query's x2 bounds scale by w.

    The segments' x1 spans must be laminar: any two are nested, equal or
    disjoint, and spans that only touch at an endpoint are disjoint. DFS
    intervals of one tree are, and so are bands of them shifted apart.
    Crossing spans raise ValueError. The sweep keeps a stack of the open
    spans, outermost first; a span's treap version is one persistent
    insert into the version of the span enclosing it, and when it closes
    that enclosing version is current again. So the build makes expected
    O(log m) new nodes per segment and deletes nothing.
    """

    __slots__ = ("_xs", "_mid", "_end", "_w")

    def __init__(self, segments):
        segs = list(segments)
        m = len(segs)
        rng = _random.Random(0x5E9)
        prios = [rng.random() for _ in segs]
        los, his, x2s, pays = zip(*segs) if segs else ((),) * 4
        w = self._w = m + 1
        keys = [index(x2) * w + i for i, x2 in enumerate(x2s)]
        xs = self._xs = sorted({*los, *his})
        # Outer spans first: by x1_lo, then x1_hi descending. A treap's
        # shape is fixed by its (key, prio) set, so the order among equal
        # spans changes no version.
        order = sorted(range(m), key=his.__getitem__, reverse=True)
        order.sort(key=los.__getitem__)
        pending = iter(order)
        j = next(pending, -1)  # the next span to open; -1 once all are open
        mids = self._mid = []
        ends = self._end = []
        opened = [(inf, None)]  # (x1_hi, version) of the open spans
        for x in xs:
            while opened[-1][0] == x:
                opened.pop()
            root = opened[-1][1]
            mids.append(root)
            while j >= 0 and los[j] == x:
                hi = his[j]
                if hi <= x:
                    raise ValueError("segment with empty x1 span")
                if hi > opened[-1][0]:
                    raise ValueError("segment x1 spans cross")
                root = _persistent_insert(root, keys[j], prios[j], pays[j])
                opened.append((hi, root))
                j = next(pending, -1)
            ends.append(root)

    def _version(self, x):
        """Treap of the segments whose open x1 span holds x, or None."""
        i = bisect_right(self._xs, x) - 1
        if i < 0:
            return None
        return self._mid[i] if self._xs[i] == x else self._end[i]

    def report_at(self, x, y_lo, x2_hi):
        """(payloads of the segments stabbed by the ray from (x, y_lo) with
        x2 <= x2_hi, probes); the probes count the walk only. A finite
        bound is rounded to the integer x2 it admits: y_lo up, x2_hi down."""
        lo = y_lo if y_lo.__class__ is int or not -inf < y_lo < inf else ceil(y_lo)
        hi = x2_hi if x2_hi.__class__ is int or not -inf < x2_hi < inf else floor(x2_hi)
        return _walk(_seed_stack(self._version(x), lo * self._w), (hi + 1) * self._w)

    # An alias only: perfbench/tracing.py's METHODS still wraps this name.
    report_registered = report_at


# ----------------------------------------------------------------------
# Rectangle point enclosure: an interval tree on x1 over segment trees on x2


def _segment_tree(lo_entries, hi_entries):
    """A flat segment tree over the x2 ranges of one node's boxes, given
    as (key, x2 lo, x2 hi, payload) entries in two key orders.

    Leaf j is the range brk[j] .. brk[j + 1] - 1, and node p has children
    2p and 2p + 1. Each x2 range's canonical cover, the O(log m) nodes
    that cover it exactly, is walked once and its entries are filed there
    in both orders, so the nodes on a leaf's path to the root hold
    exactly the boxes containing that leaf. Returns ((brk, leaf count,
    bit length of len(brk)), lo side, hi side); a side is (keys,
    payloads) per segment node, None where empty, in the entries' order.
    """
    brk = sorted({e[1] for e in lo_entries} | {e[2] + 1 for e in lo_entries})
    at = {y: i for i, y in enumerate(brk)}
    nl = len(brk) - 1
    covers = {}
    for _, y_lo, y_hi, _ in lo_entries:
        lo, hi = at[y_lo] + nl, at[y_hi + 1] + nl
        cover = covers[y_lo, y_hi] = []
        while lo < hi:
            if lo & 1:
                cover.append(lo)
            if hi & 1:
                cover.append(hi - 1)
            lo = (lo + 1) >> 1
            hi >>= 1
    sides = []
    for entries in (lo_entries, hi_entries):
        keys, pays = [None] * (2 * nl), [None] * (2 * nl)
        for k, y_lo, y_hi, pay in entries:
            for p in covers[y_lo, y_hi]:
                if keys[p] is None:
                    keys[p], pays[p] = [k], [pay]
                else:
                    keys[p].append(k)
                    pays[p].append(pay)
        sides.append((keys, pays))
    return (brk, nl, len(brk).bit_length()), *sides


class EnclosureIndex:
    """Rectangles reported by the points they strictly contain.

    A rectangle is a tuple (x1_lo, x1_hi, x2_lo, x2_hi, payload). Its
    coordinates are integers, read through `operator.index`, so a float
    raises TypeError. A rectangle's open spans are the closed ranges
    x1_lo + 1 .. x1_hi - 1 and x2_lo + 1 .. x2_hi - 1, its box, and a
    rectangle empty on either axis is dropped. The outer level is an
    interval tree over the boxes' x1 ranges, built without recursion from
    boxes presorted once by x1_lo and once by x1_hi: a node's center is
    the lower end of its median box in x1_lo order, it keeps the boxes
    whose range holds the center (the median box among them), and each
    child gets at most half of them, in both orders by partition. With m
    rectangles in all, a subtree of at most s = ceil(lg m) boxes is one
    leaf, scanned whole. A query at or left of a center wants the node's
    boxes with x1_lo at or below it, one right of it those with x1_hi at
    or above it, each also containing qy; in x1_lo or x1_hi-descending
    order they are a prefix. A node keeping at most s boxes scans it.
    A larger one reads its segment tree over x2 (`_segment_tree`)
    instead, where every list on qy's leaf-to-root path holds only boxes
    containing qy, in the same order, so each list's entries before its
    one stop are reported.

    A probe is one tree node or list entry visited; a list is charged
    as scanned up to its first miss, and a binary search its bit length.
    With G = ceil(lg m) + 1 for m rectangles, a query reporting k costs
    at most 3G^2 + 4G + k probes: at most G outer nodes of at most
    3G + 4 each (the node, then a scan of at most G - 1 entries, or a
    leaf search of G + 1 and G + 1 segment nodes with one stop each),
    beside the reported entries.
    """

    __slots__ = ("_nodes",)

    def __init__(self, rects):
        boxes = []  # (x1 lo, x1 hi, x2 lo, x2 hi, payload), closed ranges
        for x1_lo, x1_hi, x2_lo, x2_hi, payload in rects:
            lo1, hi1 = index(x1_lo) + 1, index(x1_hi) - 1
            lo2, hi2 = index(x2_lo) + 1, index(x2_hi) - 1
            if lo1 <= hi1 and lo2 <= hi2:
                boxes.append((lo1, hi1, lo2, hi2, payload))
        small = (len(boxes) - 1).bit_length()
        # A node is [center, left child, right child, axis, lo side, hi
        # side], children -1 when absent, the root first. Without a
        # segment tree the axis is None and a side is the node's boxes as
        # (key, x2 lo, x2 hi, payload) entries ascending by key: x1_lo on
        # the lo side, -x1_hi on the hi side. With one, the axis and the
        # sides are what `_segment_tree` returns. A leaf is [None, -1, -1,
        # None, boxes, None].
        nodes = self._nodes = []
        todo = [(-1, 0, sorted(boxes, key=itemgetter(0)),
                 sorted(boxes, key=itemgetter(1), reverse=True))]
        while todo:
            parent, child, by_lo, by_hi = todo.pop()
            if parent >= 0:
                nodes[parent][child] = len(nodes)
            if len(by_lo) <= small:
                nodes.append([None, -1, -1, None, by_lo, None])
                continue
            c = by_lo[len(by_lo) // 2][0]
            lo_end = bisect_right(by_lo, c, key=itemgetter(0))
            hi_end = bisect_right(by_hi, -c, key=lambda b: -b[1])
            lo_pre, hi_pre = by_lo[:lo_end], by_hi[:hi_end]
            here_lo = [(b[0], b[2], b[3], b[4]) for b in lo_pre if b[1] >= c]
            here_hi = [(-b[1], b[2], b[3], b[4]) for b in hi_pre if b[0] <= c]
            if len(here_lo) > small:
                nodes.append([c, -1, -1, *_segment_tree(here_lo, here_hi)])
            else:
                nodes.append([c, -1, -1, None, here_lo, here_hi])
            left = [b for b in lo_pre if b[1] < c]
            if left:
                todo.append((len(nodes) - 1, 1, left, by_hi[hi_end:]))
            right = [b for b in hi_pre if b[0] > c]
            if right:
                todo.append((len(nodes) - 1, 2, by_lo[lo_end:], right))

    def report(self, qx, qy):
        """(payloads of the rectangles strictly containing (qx, qy), probes)."""
        probes = 0
        out = []
        nodes = self._nodes
        v = 0
        while v >= 0:
            c, left, right, axis, lo, hi = nodes[v]
            probes += 1
            if c is None:
                probes += len(lo)
                for b in lo:
                    if b[0] <= qx <= b[1] and b[2] <= qy <= b[3]:
                        out.append(b[4])
                break
            if qx <= c:
                side, key = lo, qx
                v = left if qx < c else -1
            else:
                side, key = hi, -qx
                v = right
            if axis is None:
                for e in side:
                    probes += 1
                    if e[0] > key:
                        break
                    if e[1] <= qy <= e[2]:
                        out.append(e[3])
                continue
            brk, nl, search = axis
            seg_keys, seg_pays = side
            probes += search
            p = bisect_right(brk, qy) - 1
            if 0 <= p < nl:
                p += nl
                while p:
                    probes += 1
                    ks = seg_keys[p]
                    if ks:
                        t = bisect_right(ks, key)
                        if t:
                            out += seg_pays[p][:t]
                        probes += t + (t < len(ks))
                    p >>= 1
        return out, probes


# ----------------------------------------------------------------------
# Range tree for orthogonal range reporting, in the merge-sort layout

_first = itemgetter(0)  # a point's x1, an (x2, payload) entry's x2


class RangeTree2D:
    """Points reported by an axis-parallel closed rectangle.

    The points are sorted by x1 once. Level k holds the (x2, payload)
    pairs of each aligned run of 2^k points, run j being x1 ranks
    j 2^k .. (j + 1) 2^k - 1, sorted by x2. Level 0 is x1 order, and each
    level above sorts each pair of runs below, so a run is a range-tree
    node's canonical list with no node stored (Bentley's merge-sort
    layout). A query finds its x1 ranks by two searches of the x1 column,
    covers them bottom up with at most two runs per level, and reports
    each run's x2 span, found by two binary searches.

    A probe is one run or list entry visited, a binary search charged its
    bit length. With G = ceil(lg m) + 1 for m points, a query reporting k
    costs at most 2G^2 + 6G + k <= 8G^2 + k probes: two column searches of
    at most G each, and at most two runs on each of the G levels k that
    hold a run of 2^k <= m points, each run costing itself and two
    searches of k + 1, beside the reported entries.

    Only coordinates are compared, never payloads, so any payload serves;
    bounds may be any numbers, infinities included.
    """

    __slots__ = ("_x1", "_levels")

    def __init__(self, points):
        pts = sorted(points, key=_first)
        self._x1 = [p[0] for p in pts]
        level = [(p[1], p[2]) for p in pts]
        levels = self._levels = [level]
        m, width = len(pts), 1
        while width < m:
            width *= 2
            level = [e for j in range(0, m, width) for e in sorted(level[j : j + width], key=_first)]
            levels.append(level)

    def report(self, x1_lo, x1_hi, x2_lo, x2_hi):
        """(payloads of the points with x1_lo <= x1 <= x1_hi and
        x2_lo <= x2 <= x2_hi, probes)."""
        if x1_lo > x1_hi or x2_lo > x2_hi:
            raise ValueError("malformed rectangle (lo > hi)")
        x1 = self._x1
        lo, hi = bisect_left(x1, x1_lo), bisect_right(x1, x1_hi)
        probes = 2 * len(x1).bit_length()
        runs, k = [], 0  # (level, run index) covering ranks lo .. hi - 1
        while lo < hi:
            if lo & 1:
                runs.append((k, lo))
            if hi & 1:
                runs.append((k, hi - 1))
            lo, hi, k = (lo + 1) >> 1, hi >> 1, k + 1
        out = []
        for k, j in runs:
            level, s, e = self._levels[k], j << k, (j + 1) << k
            a = bisect_left(level, x2_lo, s, e, key=_first)
            b = bisect_right(level, x2_hi, a, e, key=_first)
            out += [p for _, p in level[a:b]]
            probes += 3 + 2 * k + b - a
        return out, probes
