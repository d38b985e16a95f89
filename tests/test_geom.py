import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from joinreach.geom import (
    CartesianTree,
    EnclosureIndex,
    HSegment,
    RangeTree2D,
    Rect,
    SegRayIndex,
)
from joinreach.graph import Digraph, dfs_intervals


def bitrev(x, bits):
    r = 0
    for _ in range(bits):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


def test_ct_diagonal_is_right_spine():
    """Keys rising with x1: each column's subtree is itself and every
    column right of it, so preorder is column order and no node has a
    left child."""
    n = 8
    ct = CartesianTree([(i, i, 10 + i) for i in range(n)])
    assert ct.colp == list(range(n))
    assert ct.pend == [n] * n
    assert ct.px2 == list(range(n))
    assert ct.ppay == [10 + i for i in range(n)]


def test_ct_antidiagonal_is_left_spine():
    """Keys falling with x1: the last column is the root, and each column's
    subtree is itself and every column left of it, so preorder runs from
    the last column to the first and no node has a right child."""
    n = 8
    ct = CartesianTree([(i, n - 1 - i, 10 + i) for i in range(n)])
    assert ct.colp == list(range(n - 1, -1, -1))
    assert ct.pend == [n] * n
    assert ct.ppay == [10 + i for i in range(n - 1, -1, -1)]


def _subtree_columns(ys, c):
    """The columns of c's subtree when ties go to the leftmost column: it
    reaches left over larger keys and right over keys at least c's."""
    lo = hi = c
    while lo > 0 and ys[lo - 1] > ys[c]:
        lo -= 1
    while hi < len(ys) - 1 and ys[hi + 1] >= ys[c]:
        hi += 1
    return list(range(lo, hi + 1))


def test_ct_range_min_equals_scan_all_subranges():
    """The smaller of a range's two table entries is the preorder position
    of its leftmost minimum, and each node's subtree is its `pend` run."""
    rng = random.Random(13)
    n = 64
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    # the second input repeats x2 values, so ties go to the leftmost column
    for ys in (shuffled, [rng.randrange(8) for _ in range(n)]):
        pts = [(x, y, x) for x, y in enumerate(ys)]
        ct = CartesianTree(pts)
        for lo in range(n):
            for hi in range(lo, n):
                want = min(range(lo, hi + 1), key=lambda i: ys[i])
                k = (hi - lo + 1).bit_length() - 1
                row = ct._table[k]
                assert ct.colp[min(row[lo], row[hi - (1 << k) + 1])] == want
                assert ct.col_span_min(lo, hi) == (lo, hi, ys[want])
        for p, c in enumerate(ct.colp):
            assert ct._table[0][c] == p
            assert (ct.px2[p], ct.ppay[p]) == (ys[c], c)
            assert sorted(ct.colp[p : ct.pend[p]]) == _subtree_columns(ys, c)


def dominance_scan(pts, bx1, bx2):
    return sorted(p for x1, x2, p in pts if x1 <= bx1 and x2 <= bx2)


def test_ct_dominance_below_everything_is_cheap():
    pts = [(i, i + 5, i) for i in range(10)]
    ct = CartesianTree(pts)
    out, visits = ct.report_dominated(9, 0)
    assert out == [] and visits <= 3


def test_ct_dominance_full_report():
    pts = [(i, 10 - i, i) for i in range(10)]
    ct = CartesianTree(pts)
    out, _ = ct.report_dominated(100, 100)
    assert sorted(out) == list(range(10))


def test_ct_dominance_bit_reversal_query():
    n, bits = 16, 4
    pts = [(i, bitrev(i, bits), i) for i in range(n)]
    ct = CartesianTree(pts)
    out, _ = ct.report_dominated(12, bitrev(12, bits))
    assert sorted(out) == dominance_scan(pts, 12, bitrev(12, bits))


def test_ct_dominance_matches_scan_with_visit_bound():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(1, 65)
        xs = list(range(n))
        ys = list(range(n))
        rng.shuffle(ys)
        pts = [(x, y, 100 + x) for x, y in zip(xs, ys)]
        ct = CartesianTree(pts)
        for _ in range(5):
            bx1, bx2 = rng.randrange(-1, n + 1), rng.randrange(-1, n + 1)
            out, visits = ct.report_dominated(bx1, bx2)
            want = dominance_scan(pts, bx1, bx2)
            assert sorted(out) == want
            assert visits <= 3 * len(want) + 3


def test_ct_three_sided_matches_scan():
    rng = random.Random(4)
    n = 60
    ys = list(range(n))
    rng.shuffle(ys)
    # 2^13-point spines make a tree of depth m: the descent must not recurse
    spine = 1 << 13
    for pts, queries in (
        ([(i * 3, ys[i], i) for i in range(n)], 200),
        ([(i * 3, i, i) for i in range(spine)], 20),
        ([(i * 3, spine - i, i) for i in range(spine)], 20),
    ):
        ct = CartesianTree(pts)
        top = 3 * len(pts)
        for _ in range(queries):
            lo = rng.randrange(-2, top + 2)
            hi = rng.randrange(lo, top + 3)
            bound = rng.randrange(-1, len(pts) + 1)
            out, visits = ct.report_range(*ct.col_span(lo, hi), bound)
            want = sorted(p for x1, x2, p in pts if lo <= x1 <= hi and x2 <= bound)
            assert sorted(out) == want
            assert visits <= 3 * len(want) + 3


def _range_tree_children(ys, lo, hi):
    """{column: its children} in the Cartesian tree of columns lo..hi
    alone, by leftmost-minimum splitting: a range's leftmost minimum is
    the root, and its left and right parts root its children."""
    children = {}
    todo = [(lo, hi, None)]
    while todo:
        a, b, parent = todo.pop()
        if a > b:
            continue
        c = min(range(a, b + 1), key=lambda i: ys[i])
        children[c] = []
        if parent is not None:
            children[parent].append(c)
        todo += [(a, c - 1, c), (c + 1, b, c)]
    return children


def test_ct_probes_are_the_nodes_a_report_visits():
    """A report visits the root of its range's own Cartesian tree and
    each child of a reported node, and reports exactly the scanned
    points: its probes are those visits, checked against a tree built by
    brute force, on 0, 1, 2 and more columns with tied keys."""
    rng = random.Random(35)
    for _ in range(400):
        m = rng.choice((0, 1, 2, rng.randrange(3, 40)))
        ys = [rng.randrange(rng.choice((1, 3, m + 1))) for _ in range(m)]
        pts = [(3 * x, y, 100 + x) for x, y in enumerate(ys)]
        ct = CartesianTree(pts)
        for _ in range(12):
            x1_lo = rng.randrange(-2, 3 * m + 2)
            x1_hi = rng.randrange(x1_lo - 1, 3 * m + 3)
            bound = rng.randrange(-1, max(ys, default=0) + 2)
            lo, hi = ct.col_span(x1_lo, x1_hi)
            out, probes = ct.report_range(lo, hi, bound)
            want = [100 + x for x in range(lo, hi + 1) if ys[x] <= bound]
            assert sorted(out) == want
            children = _range_tree_children(ys, lo, hi)
            visits = sum(len(kids) for c, kids in children.items() if ys[c] <= bound)
            assert probes == (visits + 1 if children else 0)


def test_ct_duplicate_columns():
    with pytest.raises(ValueError):
        CartesianTree([(0, 3, 0), (0, 1, 1), (0, 7, 2), (2, 2, 3), (2, 9, 4)])
    with pytest.raises(ValueError):
        CartesianTree([(0, 1, 0), (0, 1, 1)])


def test_seg_nested_reports_bottom_up():
    segs = [
        HSegment(1, 8, 3, 30),
        HSegment(2, 7, 2, 20),
        HSegment(3, 6, 1, 10),
    ]
    idx = SegRayIndex(segs)
    out, _ = idx.report_at(4, 0, math.inf)
    assert out == [10, 20, 30]


def test_seg_disjoint_spans():
    segs = [HSegment(0, 3, 5, 0), HSegment(4, 7, 5, 1), HSegment(8, 11, 5, 2)]
    idx = SegRayIndex(segs)
    out, _ = idx.report_at(5, 0, math.inf)
    assert out == [1]


def seg_scan(segs, qx, qy, y_hi=None):
    out = [
        (s.x2, s.payload)
        for s in segs
        if s.x1_lo < qx < s.x1_hi and s.x2 >= qy and (y_hi is None or s.x2 <= y_hi)
    ]
    return [p for _, p in sorted(out)]


def test_seg_random_tree_intervals_match_scan():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(2, 50)
        parent = [-1] + [rng.randrange(v) for v in range(1, n)]
        g = Digraph(n, [(parent[v], v) for v in range(1, n)], kind="out-tree")
        iv = dfs_intervals(g)
        heights = list(range(n))
        rng.shuffle(heights)
        segs = [HSegment(iv.s[a], iv.t[a], heights[a], a) for a in range(n)]
        idx = SegRayIndex(segs)
        for x, y in [(iv.s[b], heights[b]) for b in range(n)]:
            out, visits = idx.report_at(x, y, math.inf)
            want = seg_scan(segs, x, y)
            assert out == want
            assert visits <= 2 * len(want) + 2
            # capped variant
            cap = rng.randrange(n + 1)
            out2, _ = idx.report_at(x, y, cap)
            assert out2 == seg_scan(segs, x, y, cap)


def test_seg_crossing_or_empty_spans_raise():
    for segs in (
        [HSegment(0, 4, 1, 0), HSegment(2, 6, 1, 1)],
        [HSegment(2, 6, 1, 1), HSegment(0, 4, 1, 0)],
        # the crossing pair sits inside a third span
        [HSegment(0, 10, 1, 0), HSegment(1, 5, 1, 1), HSegment(3, 8, 1, 2)],
        [HSegment(0, 10, 1, 0), HSegment(3, 3, 1, 1)],
        [HSegment(5, 2, 1, 0)],
    ):
        with pytest.raises(ValueError):
            SegRayIndex(segs)


def test_seg_empty_segment_list_builds():
    idx = SegRayIndex([])
    assert idx.report_at(3, 0, math.inf) == ([], 0)
    assert idx.report_at(0, 0, math.inf) == ([], 0)


def test_seg_equal_spans_all_reported():
    # fringe members share their supervertex's interval
    segs = [HSegment(2, 8, 5, 0), HSegment(2, 8, 5, 1), HSegment(2, 8, 3, 2), HSegment(3, 7, 4, 3)]
    idx = SegRayIndex(segs)
    assert idx.report_at(5, 0, math.inf)[0] == [2, 3, 0, 1]
    assert idx.report_at(2, 0, math.inf)[0] == []


def test_seg_spans_touching_at_an_endpoint():
    segs = [HSegment(0, 4, 1, 0), HSegment(4, 8, 2, 1), HSegment(8, 12, 3, 2), HSegment(0, 12, 9, 3)]
    idx = SegRayIndex(segs)
    for x in range(-1, 14):
        assert idx.report_at(x, 0, math.inf)[0] == seg_scan(segs, x, 0)
    assert idx.report_at(4, 0, math.inf)[0] == [3]
    assert idx.report_at(6, 0, math.inf)[0] == [1, 3]


def test_seg_query_at_an_endpoint_is_strict():
    segs = [HSegment(2, 6, 1, 0)]
    idx = SegRayIndex(segs)
    for x in (2, 6):
        assert idx.report_at(x, 0, math.inf)[0] == []
    assert idx.report_at(3, 0, math.inf)[0] == [0]
    assert idx.report_at(5, 1, math.inf)[0] == [0]
    assert idx.report_at(5, 2, math.inf)[0] == []


def test_seg_deep_nested_chain_builds_without_recursion():
    m = 1 << 15
    heights = list(range(m))
    random.Random(37).shuffle(heights)
    segs = [HSegment(i, 2 * m - i, heights[i], i) for i in range(m)]
    idx = SegRayIndex(segs)
    order = sorted(range(m), key=heights.__getitem__)
    out, probes = idx.report_at(m, 0, math.inf)
    assert out == order
    assert probes <= 2 * m + 2
    assert idx.report_at(m, 0, 9)[0] == order[:10]


def laminar_segments(rng, budget):
    """Nested, equal, touching and disjoint spans with tied x2 values."""
    spans = []
    todo = [(0, 20), (20, 40), (45, 60)]
    while todo and len(spans) < budget:
        a, b = todo.pop(rng.randrange(len(todo)))
        spans.append((a, b))
        if rng.random() < 0.3:
            spans.append((a, b))
        if b - a >= 2:
            cuts = sorted(rng.sample(range(a, b + 1), rng.randrange(2, min(5, b - a + 2))))
            todo += [(c, d) for c, d in zip(cuts, cuts[1:]) if rng.random() < 0.8]
    rng.shuffle(spans)
    # payloads increase with the index, so ties in x2 break the same way;
    # negative heights check the key order x2 * w + position below zero
    return [HSegment(a, b, rng.randrange(-3, 4), 7 * i + 3) for i, (a, b) in enumerate(spans)]


def test_seg_random_laminar_families_match_scan():
    rng = random.Random(53)
    for _ in range(40):
        segs = laminar_segments(rng, rng.randrange(1, 40))
        queries = [(x, rng.randrange(-4, 5)) for x in range(-1, 62)]
        idx = SegRayIndex(segs)
        for x, y in queries:
            want = seg_scan(segs, x, y)
            out, probes = idx.report_at(x, y, math.inf)
            assert out == want
            assert probes <= 2 * len(want) + 2
            cap = rng.randrange(-4, 5)
            assert idx.report_at(x, y, cap)[0] == seg_scan(segs, x, y, cap)


def test_seg_rejects_non_integer_x2():
    good = HSegment(0, 4, 1, 7)
    assert SegRayIndex([good]).report_at(2, 0, math.inf)[0] == [7]
    assert SegRayIndex([tuple(good)]).report_at(2, -math.inf, 1)[0] == [7]
    with pytest.raises(TypeError):
        SegRayIndex([good, good._replace(x2=1.0)])


def test_seg_finite_non_integer_bounds_round_to_the_integers_they_admit():
    segs = [(0, 10, 3, "a"), (0, 10, 3, "b"), (0, 10, 2, "c"), (0, 10, 2, "d")]
    idx = SegRayIndex(segs)
    assert idx.report_at(5, 0, 2.5) == idx.report_at(5, 0, 2)
    assert idx.report_at(5, 0, 2.5)[0] == ["c", "d"]
    assert idx.report_at(5, 2.5, 9) == idx.report_at(5, 3, 9)
    assert idx.report_at(5, 2.5, 9)[0] == ["a", "b"]
    assert idx.report_at(5, Fraction(5, 2), Fraction(7, 2)) == idx.report_at(5, 3, 3)
    assert idx.report_at(5, -2.5, 2.9999)[0] == ["c", "d"]
    assert idx.report_at(5, -math.inf, math.inf)[0] == ["c", "d", "a", "b"]
    assert idx.report_at(5, 2.1, 2.9)[0] == []


def test_enclosure_concentric():
    rects = [Rect(-i, i, -i, i, i) for i in range(1, 6)]
    idx = EnclosureIndex(rects)
    assert sorted(idx.report(0, 0)[0]) == [1, 2, 3, 4, 5]
    assert idx.report(100, 0)[0] == []


def test_enclosure_tree_rectangles_match_scan():
    rng = random.Random(61)
    n = 50
    parent1 = [-1] + [rng.randrange(v) for v in range(1, n)]
    parent2 = [-1] + [rng.randrange(v) for v in range(1, n)]
    g1 = Digraph(n, [(parent1[v], v) for v in range(1, n)], kind="out-tree")
    g2 = Digraph(n, [(parent2[v], v) for v in range(1, n)], kind="out-tree")
    iv1, iv2 = dfs_intervals(g1), dfs_intervals(g2)
    rects = [Rect(iv1.s[a], iv1.t[a], iv2.s[a], iv2.t[a], a) for a in range(n)]
    idx = EnclosureIndex(rects)
    for b in range(n):
        qx, qy = iv1.s[b], iv2.s[b]
        got = sorted(idx.report(qx, qy)[0])
        want = sorted(
            r.payload
            for r in rects
            if r.x1_lo < qx < r.x1_hi and r.x2_lo < qy < r.x2_hi
        )
        assert got == want


def test_enclosure_random_rectangles_match_scan():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randrange(1, 40)
        rects = []
        for i in range(n):
            x = sorted(rng.sample(range(200), 2))
            y = sorted(rng.sample(range(200), 2))
            rects.append(Rect(x[0], x[1], y[0], y[1], i))
        idx = EnclosureIndex(rects)
        for _ in range(10):
            qx, qy = rng.randrange(201), rng.randrange(201)
            got = sorted(idx.report(qx, qy)[0])
            want = sorted(
                r.payload
                for r in rects
                if r.x1_lo < qx < r.x1_hi and r.x2_lo < qy < r.x2_hi
            )
            assert got == want


def enclosure_scan(rects, qx, qy):
    return sorted(r.payload for r in rects if r.x1_lo < qx < r.x1_hi and r.x2_lo < qy < r.x2_hi)


def enclosure_probe_bound(m, k):
    """c((ceil(lg m) + 1)^2 + k) with c = 12: with G = ceil(lg m) + 1 the
    structure's argument (its docstring) allows 3G^2 + 4G + k probes,
    at most 12(G^2 + k) for G >= 1."""
    g = (m - 1).bit_length() + 1 if m else 1
    return 12 * (g * g + k)


def assert_enclosure_matches_scan(rects, queries):
    idx = EnclosureIndex(rects)
    for qx, qy in queries:
        want = enclosure_scan(rects, qx, qy)
        got, probes = idx.report(qx, qy)
        assert sorted(got) == want, (qx, qy)
        assert probes <= enclosure_probe_bound(len(rects), len(want)), (len(rects), qx, qy, probes)


def grid(lo, hi):
    return [(x, y) for x in range(lo, hi + 1) for y in range(lo, hi + 1)]


def test_enclosure_empty_and_single_rectangle():
    assert_enclosure_matches_scan([], grid(-3, 3))
    assert_enclosure_matches_scan([Rect(-3, 5, -7, -1, 9)], grid(-9, 7))


def test_enclosure_duplicate_degenerate_and_negative_on_every_slot():
    # Even coordinates and every integer query: each endpoint, each point
    # between endpoints (so every node's center, one above a lower x1 end)
    # and points outside all spans are queried. Degenerate rectangles
    # contain nothing and are never reported.
    rng = random.Random(83)
    for trial in range(12):
        m = rng.randrange(2, 60)
        rects = []
        for i in range(m):
            if rects and rng.random() < 0.2:
                rects.append(rng.choice(rects)._replace(payload=i))
                continue
            x = sorted(2 * rng.randrange(-10, 11) for _ in "ab")
            y = sorted(2 * rng.randrange(-10, 11) for _ in "ab")
            if trial % 3 == 0:  # nested x1 spans: one large interval-tree node
                x = [-2 * (i % 10) - 2, 2 * (i % 10) + 2]
            if rng.random() < 0.15:
                x[1] = x[0]
            if rng.random() < 0.15:
                y[1] = y[0]
            rects.append(Rect(x[0], x[1], y[0], y[1], i))
        degenerate = {r.payload for r in rects if r.x1_lo == r.x1_hi or r.x2_lo == r.x2_hi}
        assert_enclosure_matches_scan(rects, grid(-23, 23))
        idx = EnclosureIndex(rects)
        assert not degenerate & {p for q in grid(-23, 23) for p in idx.report(*q)[0]}


def test_enclosure_deep_concentric_family_within_the_probe_bound():
    # The degenerate rectangle adds the endpoint 0 inside the innermost
    # span, so every lower end lies below every upper end; the interval
    # tree must still split at the median. Queries on the line y = m
    # report nothing, so the bound leaves no room for a deep walk.
    m = 1 << 11
    rects = [Rect(-i, i, -i, i, i) for i in range(1, m + 1)] + [Rect(0, 0, 0, 0, 0)]
    queries = [(x, y) for x in range(-m - 1, m + 2, 41) for y in (-5, 0, 3, m)]
    assert_enclosure_matches_scan(rects, queries)


def test_enclosure_chain_star_rectangles():
    # Doubled DFS intervals, as the two-trees index stores them, so every
    # rectangle holds its own point (2 s1 + 1, 2 s2 + 1). The chain's x1
    # spans nest: each interval-tree node keeps the spans starting at or
    # before its center, about half of those it is given, and passes the
    # inner ones on, so several nodes each keep a segment tree over the
    # star's x2 spans (seven at this n).
    n = 1 << 11
    rng = random.Random(89)
    order = list(range(n))
    rng.shuffle(order)
    chain = Digraph(n, list(zip(order, order[1:])), kind="out-tree")
    star = Digraph(n, [(order[0], v) for v in order[1:]], kind="out-tree")
    iv1, iv2 = dfs_intervals(chain), dfs_intervals(star)
    rects = [Rect(2 * iv1.s[a], 2 * iv1.t[a], 2 * iv2.s[a], 2 * iv2.t[a], a) for a in range(n)]
    idx = EnclosureIndex(rects)
    by_x2 = sorted(rects, key=lambda r: r.x2_lo)
    x2_los = [r.x2_lo for r in by_x2]
    for b in range(n):
        for qx, qy in ((2 * iv1.s[b] + 1, 2 * iv2.s[b] + 1), (2 * iv1.s[b], 2 * iv2.s[b])):
            # a rectangle holding (qx, qy) starts below qy on x2
            want = enclosure_scan(by_x2[: bisect_right(x2_los, qy)], qx, qy)
            got, probes = idx.report(qx, qy)
            assert sorted(got) == want, b
            assert probes <= enclosure_probe_bound(n, len(want))
        assert b in idx.report(2 * iv1.s[b] + 1, 2 * iv2.s[b] + 1)[0], b


def test_enclosure_rejects_non_integer_coordinates():
    good = Rect(0, 4, 0, 4, 7)
    assert EnclosureIndex([good]).report(2, 2)[0] == [7]
    for field in ("x1_lo", "x1_hi", "x2_lo", "x2_hi"):
        bad = good._replace(**{field: float(getattr(good, field))})
        with pytest.raises(TypeError):
            EnclosureIndex([good, bad])


def range_scan(pts, x1_lo, x1_hi, x2_lo, x2_hi):
    return sorted(p for x, y, p in pts if x1_lo <= x <= x1_hi and x2_lo <= y <= x2_hi)


def range_probe_bound(m, k):
    """c(ceil(lg m) + 1)^2 + k with c = 8: with G = ceil(lg m) + 1 the
    structure's argument (its docstring) allows 2G^2 + 6G + k probes,
    at most 8G^2 + k for G >= 1."""
    g = (m - 1).bit_length() + 1 if m else 1
    return 8 * g * g + k


def assert_range_matches_scan(pts, queries):
    idx = RangeTree2D(pts)
    for q in queries:
        want = range_scan(pts, *q)
        got, probes = idx.report(*q)
        assert sorted(got) == want, q
        assert probes <= range_probe_bound(len(pts), len(want)), (len(pts), q, probes)


def boxes(lo, hi):
    """Every closed rectangle with integer corners in lo..hi."""
    spans = [(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)]
    return [(*s1, *s2) for s1 in spans for s2 in spans]


def test_range2d_empty_and_single_point():
    assert_range_matches_scan([], boxes(-2, 2))
    assert_range_matches_scan([(0, 5, -7)], boxes(-1, 6))
    assert RangeTree2D([(0, 5, -7)]).report(0, 0, 5, 5)[0] == [-7]


def test_range2d_duplicates_and_negative_payloads_on_the_boundaries():
    # Sizes 2..40 pass the powers of two up to 32, coordinates from a
    # small range repeat on both axes, and negative payloads sit on every
    # x2_lo and x2_hi a query takes.
    rng = random.Random(87)
    for m in range(2, 41):
        pts = [(rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-9, 9)) for _ in range(m)]
        if m % 5 == 0:  # one column, one row
            pts = [(1, y, p) for _, y, p in pts] if m % 2 else [(x, 1, p) for x, _, p in pts]
        assert_range_matches_scan(pts, boxes(-4, 4))


def test_range2d_never_compares_payloads():
    idx = RangeTree2D([(1, 2, "a"), (2, 3, "b")])
    assert idx.report(0, 5, 2.5, 3) == idx.report(0, 5, 3, 3)
    assert idx.report(0, 5, 2.5, 3)[0] == ["b"]
    assert sorted(idx.report(-math.inf, math.inf, -math.inf, math.inf)[0]) == ["a", "b"]
    # ties on x1, on x2 and on both, with payloads that do not compare
    pts = [(x, y, p) for x, y in [(0, 0), (0, 0), (0, 1), (1, 1), (2, 0), (2, 1)] for p in (None, "s")]
    idx = RangeTree2D(pts)
    for q in boxes(-1, 3):
        got, probes = idx.report(*q)
        want = [p for x, y, p in pts if q[0] <= x <= q[1] and q[2] <= y <= q[3]]
        assert sorted(got, key=str) == sorted(want, key=str), q
        assert probes <= range_probe_bound(len(pts), len(want))


def test_range2d_full_and_empty():
    pts = [(i, 2 * i, i) for i in range(20)]
    idx = RangeTree2D(pts)
    assert sorted(idx.report(0, 19, 0, 40)[0]) == list(range(20))
    assert idx.report(100, 200, 0, 40)[0] == []
    with pytest.raises(ValueError):
        idx.report(5, 4, 0, 1)


def test_range2d_random_matches_scan():
    rng = random.Random(81)
    pts = []
    used = set()
    while len(pts) < 200:
        x, y = rng.randrange(500), rng.randrange(500)
        if (x, y) not in used:
            used.add((x, y))
            pts.append((x, y, len(pts)))
    idx = RangeTree2D(pts)
    for _ in range(50):
        x1 = sorted((rng.randrange(500), rng.randrange(500)))
        x2 = sorted((rng.randrange(500), rng.randrange(500)))
        got, probes = idx.report(x1[0], x1[1], x2[0], x2[1])
        want = range_scan(pts, x1[0], x1[1], x2[0], x2[1])
        assert sorted(got) == want
        assert probes <= range_probe_bound(len(pts), len(want))


def test_ct_min_x2_of_an_empty_range_is_none():
    assert CartesianTree([]).col_span_min(0, 0) == (0, -1, None)
    ct = CartesianTree([(0, 5, "a"), (1, 3, "b")])
    assert ct.col_span_min(1, 0) == (1, 0, None)
    assert ct.col_span_min(0, 1) == (0, 1, 3)
