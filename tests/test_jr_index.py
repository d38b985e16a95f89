import gc
import hashlib
import random
import subprocess
import sys
import textwrap
import tracemalloc
import types
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import joinreach
from joinreach import classes
from joinreach.cover import PathCover, min_path_cover
from joinreach.geom import CartesianTree, EnclosureIndex, RangeTree2D, SegRayIndex

from joinreach.explicit import build_unoriented_trees, verify_join_graph
from joinreach.gen import (
    rand_dag,
    rand_path,
    rand_sp_st,
    rand_tree,
    rand_upath,
    rand_utree,
)
from joinreach.graph import (
    CondensedPair,
    Digraph,
    GraphClassError,
    dipath_of,
    layer_decompose,
    topo_order,
    transitive_closure,
)
from joinreach.hpd import hpd_build
from joinreach.jrindex import (
    index_hpd_two_trees,
    index_pathcover,
    index_planar_st,
    index_tree_path,
    index_two_paths,
    index_two_trees,
    _PathCover,
    _postorder_labels,
    kameda_labels,
)
from test_explicit import _cyclic_digraph, zigzag_path
from test_geom import enclosure_probe_bound, range_probe_bound


def chain_star(rng, n):
    """Out-tree chain and out-tree star on a shuffled vertex order, sharing
    their root: every answer is {root, b}."""
    order = list(range(n))
    rng.shuffle(order)
    chain = Digraph(n, list(zip(order, order[1:])), kind="out-tree")
    star = Digraph(n, [(order[0], v) for v in order[1:]], kind="out-tree")
    return chain, star


def caterpillar(rng, n, kind):
    """A spine of ceil(n/2) vertices, a leaf hanging off each spine vertex
    in turn, over a seeded relabelling: an out-tree from one end of the
    spine, or the in-tree of the same arcs reversed."""
    h = (n + 1) // 2
    perm = list(range(n))
    rng.shuffle(perm)
    tree = [(k, k + 1) for k in range(h - 1)] + [(k, h + k) for k in range(n - h)]
    arcs = [(perm[u], perm[v]) if kind == "out-tree" else (perm[v], perm[u]) for u, v in tree]
    return Digraph(n, arcs, kind=kind)


def run_blocks_of(p):
    """Per vertex, the indices of the maximal runs of path p holding it:
    the walk starts at the smaller end, and a run ends where the arc
    direction flips."""
    n = p.n
    arcs = set(p.arcs)
    nbrs = [[] for _ in range(n)]
    for u, v in p.arcs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seq = [min((v for v in range(n) if len(nbrs[v]) == 1), default=0)]
    while len(seq) < n:
        seq.append(next(w for w in nbrs[seq[-1]] if len(seq) < 2 or w != seq[-2]))
    of = [{0} for _ in range(n)]
    run = 0
    for k in range(1, n - 1):
        if ((seq[k - 1], seq[k]) in arcs) != ((seq[k], seq[k + 1]) in arcs):
            run += 1
            of[seq[k]].add(run)
        of[seq[k + 1]] = {run}
    return of


def allowed_blocks_of(g):
    """Per vertex, the blocks that may hold its predecessors: the runs
    holding it for a path, the one block of a tree oriented one way, the
    layer graphs iota - 1 and iota for any other tree."""
    if g.kind == "path":
        return run_blocks_of(g)
    if all(len(p) <= 1 for p in g.inn) or all(len(s) <= 1 for s in g.out):
        return [{0}] * g.n
    dec = layer_decompose(g, 0)
    return [{dec.iota[b] - 1, dec.iota[b]} for b in range(g.n)]


def oracle_pred_sets(g1, g2):
    m1 = transitive_closure(g1)
    m2 = transitive_closure(g2)
    n = g1.n
    return [
        sorted(a for a in range(n) if m1[a] >> b & 1 and m2[a] >> b & 1)
        for b in range(n)
    ]


def assert_index_matches(idx, g1, g2):
    want = oracle_pred_sets(g1, g2)
    for b in range(g1.n):
        assert idx.query(b) == want[b], (idx.variant, b)


def test_two_paths_identical_chains():
    p = dipath_of(list(range(8)))
    idx = index_two_paths(p, p)
    assert idx.query(7) == list(range(8))
    assert idx.query(0) == [0]


def test_two_paths_reversed_reflexive_only():
    p = dipath_of(list(range(8)))
    q = dipath_of(list(range(7, -1, -1)))
    idx = index_two_paths(p, q)
    for b in range(8):
        assert idx.query(b) == [b]


def test_two_paths_bit_reversal_queries():
    from joinreach.gen import gen_bitreversal

    p1, p2 = gen_bitreversal(16)
    idx = index_two_paths(p1, p2)
    want = oracle_pred_sets(p1, p2)
    for b in range(16):
        res, probes, _ = idx.query_counted(b)
        assert res == want[b]
        assert probes <= 6 * (len(res) + 1)


def test_two_paths_oracle_with_probe_bound():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 65)
        p1, p2 = rand_path(rng, n), rand_path(rng, n)
        idx = index_two_paths(p1, p2)
        want = oracle_pred_sets(p1, p2)
        for b in range(n):
            res, probes, _ = idx.query_counted(b)
            assert res == want[b]
            assert probes <= 6 * (len(res) + 1)


def test_two_paths_unoriented_pairs_probed():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 49)
        p1, p2 = rand_upath(rng, n), rand_upath(rng, n)
        for first in (p1, zigzag_path(n)):
            idx = index_two_paths(first, p2)
            want = oracle_pred_sets(first, p2)
            for b in range(n):
                res, _, pairs = idx.query_counted(b)
                assert res == want[b]
                assert len(pairs) <= 4


def test_tree_path_rooted_both_orientations():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 65)
        kind = "out-tree" if rng.random() < 0.5 else "in-tree"
        t = rand_tree(rng, n, kind)
        p = rand_path(rng, n)
        idx = index_tree_path(t, p)
        want = oracle_pred_sets(t, p)
        for b in range(n):
            res, probes, _ = idx.query_counted(b)
            assert res == want[b]
            assert probes <= 6 * (len(res) + 1)


def test_tree_path_in_star_grounded_semantics():
    n = 6
    star = Digraph(n, [(v, 0) for v in range(1, n)], kind="in-tree")
    p = dipath_of([1, 2, 3, 4, 5, 0])  # center last in the dipath
    idx = index_tree_path(star, p)
    assert idx.query(0) == list(range(n))
    assert idx.query(1) == [1]


def test_tree_path_unoriented_layer_probes():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(2, 49)
        t = rand_utree(rng, n)
        p = rand_path(rng, n)
        for tree in (t, zigzag_path(n)):
            idx = index_tree_path(tree, p)
            want = oracle_pred_sets(tree, p)
            allowed = allowed_blocks_of(tree)
            for b in range(n):
                res, _, pairs = idx.query_counted(b)
                assert res == want[b]
                assert all(i in allowed[b] for i, _ in pairs)


def test_tree_path_unoriented_path_side():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(2, 49)
        t = rand_utree(rng, n)
        p = rand_upath(rng, n)
        idx = index_tree_path(t, p)
        assert_index_matches(idx, t, p)


def test_two_trees_rooted_all_mixes():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(2, 65)
        k1 = "out-tree" if rng.random() < 0.5 else "in-tree"
        k2 = "out-tree" if rng.random() < 0.5 else "in-tree"
        t1, t2 = rand_tree(rng, n, k1), rand_tree(rng, n, k2)
        idx = index_two_trees(t1, t2)
        want = oracle_pred_sets(t1, t2)
        for b in range(n):
            res, probes, _ = idx.query_counted(b)
            assert res == want[b], (k1, k2, b)
            if k1 == "out-tree" and k2 == "in-tree":
                assert probes <= 6 * (len(res) + 1)


def test_two_trees_same_tree_is_ancestry():
    rng = random.Random(15)
    t = rand_tree(rng, 32, "out-tree")
    idx = index_two_trees(t, t)
    assert_index_matches(idx, t, t)


def test_two_trees_unoriented_pairs():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(2, 49)
        t1, t2 = rand_utree(rng, n), rand_utree(rng, n)
        for first in (t1, zigzag_path(n)):
            idx = index_two_trees(first, t2)
            want = oracle_pred_sets(first, t2)
            a1, a2 = allowed_blocks_of(first), allowed_blocks_of(t2)
            for b in range(n):
                res, _, pairs = idx.query_counted(b)
                assert res == want[b]
                assert len(pairs) <= 4
                assert all(i in a1[b] and j in a2[b] for i, j in pairs)


def test_two_trees_mixed_rooted_unoriented():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randrange(2, 41)
        t1 = rand_tree(rng, n, "out-tree")
        t2 = rand_utree(rng, n)
        assert_index_matches(index_two_trees(t1, t2), t1, t2)


def test_hpd_two_trees_variant():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randrange(2, 49)
        t1 = rand_tree(rng, n, "out-tree")
        t2 = rand_tree(rng, n, "in-tree" if rng.random() < 0.5 else "out-tree")
        assert_index_matches(index_hpd_two_trees(t1, t2), t1, t2)
        # swapped arguments work when the second tree is the out-tree
        assert_index_matches(index_hpd_two_trees(t2, t1), t2, t1)


def test_two_trees_and_hpd_on_chain_star():
    rng = random.Random(39)
    for n in (2, 3, 5, 17, 64, 150):
        chain, star = chain_star(rng, n)
        for g1, g2 in ((chain, star), (star, chain)):
            assert_index_matches(index_two_trees(g1, g2), g1, g2)
            assert_index_matches(index_hpd_two_trees(g1, g2), g1, g2)


def test_two_trees_on_chain_star_counts_polylog_probes():
    # One out/out block pair: each query is one enclosure report of the
    # root and b from at most n rectangles. With G = ceil(lg n) + 1 the
    # enclosure's bound 4G^2 + 6G + 2 + k, k = 2, is at most c G^2 with
    # c = 12 for G >= 2, and its probes are counted visits.
    rng = random.Random(97)
    for e in range(6, 12):
        n = 1 << e
        chain, star = chain_star(rng, n)
        idx = index_two_trees(chain, star)
        total = sum(idx.query_counted(b)[1] for b in range(n))
        assert total <= n * 12 * (e + 1) ** 2, (n, total)


def query_probe_bound(idx, b, k):
    """The bounds derived for the structures of the pairs a query of b
    touches, summed: the range tree's and the enclosure index's for
    m = 4n points or rectangles (a vertex lies in at most four block
    pairs), and 6(k + 1) for the sweep and the Cartesian tree, with k the
    size of the answer."""
    m = 4 * idx.n
    total = 0
    for _, struct, _, _ in idx._impl.lists[b]:
        if isinstance(struct, RangeTree2D):
            total += range_probe_bound(m, k)
        elif isinstance(struct, EnclosureIndex):
            total += enclosure_probe_bound(m, k)
        else:
            total += 6 * (k + 1)
    return total


def test_in_in_and_unoriented_tree_probes_within_the_derived_bounds():
    # The range tree serves in/in block pairs: every pair of two rooted
    # in-trees, and the in-oriented layer graphs of unoriented trees.
    rng = random.Random(57)
    range_queries = 0
    for _ in range(16):
        n = rng.randrange(2, 65)
        for g1, g2 in (
            (rand_tree(rng, n, "in-tree"), rand_tree(rng, n, "in-tree")),
            (rand_utree(rng, n), rand_utree(rng, n)),
        ):
            idx = index_two_trees(g1, g2)
            want = oracle_pred_sets(g1, g2)
            for b in range(n):
                res, probes, pairs = idx.query_counted(b)
                assert res == want[b]
                assert len(pairs) <= 4
                assert probes <= query_probe_bound(idx, b, len(res)), (n, b, probes)
                range_queries += any(isinstance(e[1], RangeTree2D) for e in idx._impl.lists[b])
    assert range_queries > 500


def tree_mix(rng, kind, n):
    """One tree or path of the named shape on n vertices."""
    if kind == "dipath":
        return rand_path(rng, n)
    if kind == "upath":
        return rand_upath(rng, n)
    if kind == "zigzag":
        return zigzag_path(n)
    if kind == "utree":
        return rand_utree(rng, n)
    return rand_tree(rng, n, kind)


def test_every_path_and_tree_mix_against_the_oracle():
    shapes = ("dipath", "upath", "zigzag", "out-tree", "in-tree", "utree")
    rng = random.Random(43)
    for n in (1, 2, 3, 6, 13, 24):
        for k1, k2 in product(shapes, repeat=2):
            g1, g2 = tree_mix(rng, k1, n), tree_mix(rng, k2, n)
            want = oracle_pred_sets(g1, g2)
            a1, a2 = allowed_blocks_of(g1), allowed_blocks_of(g2)
            builds = [index_two_trees]
            if g2.kind == "path":
                builds.append(index_tree_path)
            for build in builds:
                idx = build(g1, g2)
                for b in range(n):
                    res, _, pairs = idx.query_counted(b)
                    assert res == want[b], (k1, k2, n, b)
                    assert len(pairs) <= 4
                    assert all(i in a1[b] and j in a2[b] for i, j in pairs), (k1, k2, n, b)
            jg = build_unoriented_trees(g1, g2)
            assert verify_join_graph(jg, g1, g2).ok, (k1, k2, n)


def test_caterpillars_against_the_oracle_within_6_k_plus_1_probes():
    """Caterpillars on either side of every route that takes a rooted
    tree: every answer is the oracle's, in at most 6(k + 1) probes for an
    answer of k vertices."""
    rng = random.Random(255)
    for n in (2, 3, 64, 255):
        cat_out, cat_in = caterpillar(rng, n, "out-tree"), caterpillar(rng, n, "in-tree")
        out, inn = rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")
        for build, g1, g2 in (
            (index_pathcover, rand_dag(rng, n, 0.2), cat_in),
            (index_hpd_two_trees, out, cat_in),
            (index_hpd_two_trees, cat_out, inn),
            (index_two_trees, out, cat_in),
            (index_two_trees, cat_out, cat_in),
            (index_tree_path, cat_in, rand_path(rng, n)),
            (index_tree_path, cat_out, rand_path(rng, n)),
        ):
            idx = build(g1, g2)
            want = oracle_pred_sets(g1, g2)
            for b in range(n):
                res, probes, _ = idx.query_counted(b)
                assert res == want[b], (build.__name__, n, b)
                assert probes <= 6 * (len(res) + 1), (build.__name__, n, b, probes)


def test_each_index_builds_at_most_one_structure_of_each_kind(monkeypatch):
    built = Counter()
    kinds = (CartesianTree, SegRayIndex, EnclosureIndex, RangeTree2D)
    for cls in kinds:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    rng = random.Random(41)
    n = 48
    cases = [
        (index_two_paths, zigzag_path(n), zigzag_path(n)),
        (index_two_paths, rand_upath(rng, n), rand_upath(rng, n)),
        (index_tree_path, rand_utree(rng, n), rand_upath(rng, n)),
        (index_tree_path, rand_tree(rng, n, "out-tree"), rand_path(rng, n)),
        (index_tree_path, rand_tree(rng, n, "in-tree"), rand_upath(rng, n)),
        (index_pathcover, rand_dag(rng, n, 0.1), rand_dag(rng, n, 0.1)),
        (index_pathcover, rand_dag(rng, n, 0.1), rand_tree(rng, n, "out-tree")),
        (index_pathcover, rand_dag(rng, n, 0.1), rand_tree(rng, n, "in-tree")),
        (index_hpd_two_trees, rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")),
        (index_hpd_two_trees, rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "out-tree")),
        (index_two_trees, rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "out-tree")),
        (index_two_trees, rand_tree(rng, n, "in-tree"), rand_tree(rng, n, "in-tree")),
        (index_two_trees, rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")),
        (index_two_trees, *chain_star(rng, n)),
        (index_two_trees, rand_utree(rng, n), rand_utree(rng, n)),
        (index_two_trees, zigzag_path(n), rand_utree(rng, n)),
    ]
    for build, g1, g2 in cases:
        built.clear()
        idx = build(g1, g2)
        assert all(built[cls.__name__] <= 1 for cls in kinds), (idx.variant, built)
        assert_index_matches(idx, g1, g2)


def test_tree_indexes_answer_as_pinned():
    """Every vertex's `query_counted` triple (answer, probes, pairs
    touched) from the path, tree and heavy-path indexes on seeded pairs,
    adversarial shapes included, hashed; recorded before tree blocks kept
    their doubled DFS clocks as two int columns."""
    rng = random.Random(34)
    digest = hashlib.sha256()
    for n in (1, 2, 5, 45, 200):
        out1, out2 = rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "out-tree")
        in1, in2 = rand_tree(rng, n, "in-tree"), rand_tree(rng, n, "in-tree")
        path1, path2 = rand_path(rng, n), rand_path(rng, n)
        upath = rand_upath(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        deep = Digraph(n, list(zip(order, order[1:])), kind="out-tree")
        cases = [
            (index_two_trees, out1, out2),
            (index_two_trees, out1, in1),
            (index_two_trees, in1, out2),
            (index_two_trees, in1, in2),
            (index_tree_path, out2, path1),
            (index_tree_path, in2, path1),
            (index_two_paths, path1, path2),
            (index_two_paths, upath, path2),
            (index_two_trees, rand_utree(rng, n), rand_utree(rng, n)),
            (index_tree_path, rand_utree(rng, n), upath),
            (index_two_trees, *chain_star(rng, n)),
            (index_two_paths, zigzag_path(n), upath),
            (index_two_trees, deep, in1),
            (index_hpd_two_trees, out1, in2),
            (index_hpd_two_trees, out2, out1),
        ]
        for build, g1, g2 in cases:
            idx = build(g1, g2)
            digest.update(repr((idx.variant, [idx.query_counted(b) for b in range(n)])).encode())
    assert digest.hexdigest() == "28ffd0fdcaadcb874e45861531a50dd3d494214f18bd66f594f7f6992f8b5ad2"


def ladder(rng, n):
    """Two dipaths over a shuffled vertex order, the first n // 2 vertices
    and the rest, with a rung from the k-th vertex of the first to the
    k-th of the second: a path cover of two paths."""
    order = list(range(n))
    rng.shuffle(order)
    a, b = order[: n // 2], order[n // 2 :]
    return Digraph(n, list(zip(a, a[1:])) + list(zip(b, b[1:])) + list(zip(a, b)))


def test_pathcover_indexes_answer_as_pinned():
    """Every vertex's `query_counted` triple from the path-cover index,
    both cover sides and the Cartesian-tree side against an in-tree
    included, hashed; recorded before the Cartesian tree was laid out in
    preorder."""
    rng = random.Random(35)
    digest = hashlib.sha256()
    for n in (1, 2, 45, 200):
        p = min(1.0, 4 / n)
        cases = [
            (ladder(rng, n), ladder(rng, n)),
            (rand_dag(rng, n, p), rand_dag(rng, n, p)),
            (rand_dag(rng, n, p), rand_tree(rng, n, "in-tree")),
            (rand_dag(rng, n, p), rand_tree(rng, n, "out-tree")),
        ]
        for g1, g2 in cases:
            idx = index_pathcover(g1, g2)
            digest.update(repr((idx.variant, [idx.query_counted(b) for b in range(n)])).encode())
    assert digest.hexdigest() == "3cf10681f8549f33727efabc54bc8541f3c44ee4681362df73cdacc33d1a42ed"


def test_pathcover_kappa_one_behaves_as_two_paths():
    rng = random.Random(23)
    p1, p2 = rand_path(rng, 20), rand_path(rng, 20)
    g1 = Digraph(20, p1.arcs)
    idx = index_pathcover(g1, p2)
    ref = index_two_paths(p1, p2)
    for b in range(20):
        assert idx.query(b) == ref.query(b)


def test_pathcover_antichain_reflexive_only():
    g1 = Digraph(12, [])
    p2 = rand_path(random.Random(25), 12)
    idx = index_pathcover(g1, p2)
    for b in range(12):
        assert idx.query(b) == [b]


def test_pathcover_dag_path_tree_dag_shapes():
    rng = random.Random(27)
    for _ in range(12):
        n = rng.randrange(2, 41)
        g1 = rand_dag(rng, n, 0.25)
        shapes = [
            rand_path(rng, n),
            rand_tree(rng, n, "out-tree"),
            rand_tree(rng, n, "in-tree"),
            rand_dag(rng, n, 0.25),
        ]
        for g2 in shapes:
            idx = index_pathcover(g1, g2)
            want = oracle_pred_sets(g1, g2)
            for b in range(n):
                res, probes, _ = idx.query_counted(b)
                assert res == want[b], (g2.kind, b)
                assert probes <= 6 * (len(res) + 1)


def test_pathcover_nonempty_lists_match_definition():
    """(i, j) is in I(v) iff some a on both cover paths reaches v in both
    graphs. The heavy-path index is one more input: its cover is the heavy
    paths of its out-tree, against a second tree as cover path 0."""
    rng = random.Random(35)
    cases = []  # (index, g1, g2, cover path of a in g1, of a in g2)
    for _ in range(10):
        n = rng.randrange(2, 41)
        g1 = rand_dag(rng, n, 0.2)
        for g2 in (
            rand_dag(rng, n, 0.2),
            rand_tree(rng, n, "out-tree"),
            rand_tree(rng, n, "in-tree"),
        ):
            of2 = min_path_cover(g2).path_of if g2.kind == "digraph" else [(0, 0)] * n
            cases.append((_PathCover(g1, g2), g1, g2, min_path_cover(g1).path_of, of2))
    rng = random.Random(36)
    for _ in range(10):
        n = rng.randrange(1, 41)
        t1 = rand_tree(rng, n, "out-tree")
        for t2 in (rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")):
            cases.append((index_hpd_two_trees(t1, t2), t1, t2, hpd_build(t1).path_of, [(0, 0)] * n))
    for idx, g1, g2, of1, of2 in cases:
        m1, m2 = transitive_closure(g1), transitive_closure(g2)
        # an in-tree structure's range is open at v, as the query adds v
        skip_self = g2.kind == "in-tree"
        for v in range(g1.n):
            want = sorted(
                {
                    (of1[a][0], of2[a][0])
                    for a in range(g1.n)
                    if m1[a] >> v & 1 and m2[a] >> v & 1 and not (skip_self and a == v)
                }
            )
            assert sorted(idx.query_counted(v)[2]) == want, (idx, g2.kind, v)


def _held(root):
    """Every object reachable from root through `gc.get_referents`,
    stopping at classes, modules and functions, which reach the whole
    program."""
    seen, stack = {id(root)}, [root]
    while stack:
        obj = stack.pop()
        yield obj
        for r in gc.get_referents(obj):
            if id(r) not in seen and not isinstance(r, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(r))
                stack.append(r)


def test_an_index_holds_no_graph_or_decomposition():
    """A built index keeps what its queries read: no input or condensed
    graph and no path cover, on every route."""
    rng = random.Random(38)
    n = 40
    indexes = [
        index_two_paths(rand_upath(rng, n), rand_path(rng, n)),
        index_tree_path(rand_tree(rng, n, "in-tree"), rand_path(rng, n)),
        index_two_trees(rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")),
        classes.index(rand_utree(rng, n), rand_utree(rng, n)),
        index_pathcover(rand_dag(rng, n, 0.2), rand_dag(rng, n, 0.2)),
        index_pathcover(rand_dag(rng, n, 0.2), rand_tree(rng, n, "out-tree")),
        index_pathcover(rand_dag(rng, n, 0.2), rand_tree(rng, n, "in-tree")),
        index_hpd_two_trees(rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")),
        index_planar_st(rand_sp_st(rng, n), rand_path(rng, n)),
        classes.index(_cyclic_digraph(rng, n), _cyclic_digraph(rng, n)),
    ]
    assert type(indexes[-1]._impl).__name__ == "_CondensedQueries"
    for idx in indexes:
        kept = [type(o).__name__ for o in _held(idx) if isinstance(o, (Digraph, PathCover, CondensedPair))]
        assert not kept, (idx.variant, kept)


def test_a_two_trees_build_peaks_below_1_6_times_what_it_holds():
    """Two random unoriented trees at 2^12: the build drops its point,
    segment and rectangle tuples once the four structures are built, so
    its tracemalloc peak stays below 1.6 times the bytes the index keeps
    (1.49 measured on CPython 3.11; keeping the tuples alive beside the
    report lists gives 1.70)."""
    n = 1 << 12
    rng = random.Random(n)
    g1, g2 = rand_utree(rng, n), rand_utree(rng, n)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        idx = index_two_trees(g1, g2)
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert idx.n == n
    assert peak < 1.6 * held, (peak, held)


def test_pathcover_rejects_cycles():
    cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(Exception):
        index_pathcover(cyc, dipath_of([0, 1, 2]))


def test_pathcover_against_an_out_tree_at_2_13_in_256_mb():
    """A DAG of arc probability 8/n against an out-tree at n = 2^13, built
    and queried at every vertex in a child process whose own address space
    is capped at 256 MB; the largest answer is checked by search.
    Registering a sweep point per from-rank entry (995,951 here) needed
    more."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    child = textwrap.dedent(
        """
        import random, resource, sys
        sys.path.insert(0, sys.argv[1])
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 256 << 20
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        from joinreach.gen import rand_dag, rand_tree
        from joinreach.jrindex import index_pathcover

        n = 1 << 13
        rng = random.Random(13)
        g1, g2 = rand_dag(rng, n, 8 / n), rand_tree(rng, n, "out-tree")
        idx = index_pathcover(g1, g2)
        answers = [idx.query_counted(v) for v in range(n)]
        assert all(probes <= 6 * (len(found) + 1) for found, probes, _ in answers)
        b = max(range(n), key=lambda v: len(answers[v][0]))
        found = answers[b][0]
        want = None
        for g in (g1, g2):
            seen, todo = {b}, [b]
            while todo:
                for a in g.inn[todo.pop()]:
                    if a not in seen:
                        seen.add(a)
                        todo.append(a)
            want = seen if want is None else want & seen
        assert found == sorted(want), (found, sorted(want))
        """
    )
    src = str(Path(joinreach.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", child, src], capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr[-2000:]


def test_kameda_single_arc_and_diamond():
    g = Digraph(2, [(0, 1)], kind="planar-st", out_order=[[1], []])
    l1, l2 = kameda_labels(g)
    assert l1[0] < l1[1] and l2[0] < l2[1]
    d = Digraph(
        4,
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        kind="planar-st",
        out_order=[[1, 2], [3], [3], []],
    )
    l1, l2 = kameda_labels(d)
    # the two middle vertices are incomparable on the two axes
    assert (l1[1] < l1[2]) != (l2[1] < l2[2])


def test_kameda_random_sp_graphs():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randrange(2, 101)
        g = rand_sp_st(rng, n)
        l1, l2 = kameda_labels(g)
        m = transitive_closure(g)
        for a in range(n):
            for b in range(n):
                assert bool(m[a] >> b & 1) == (l1[a] <= l1[b] and l2[a] <= l2[b])


def test_kameda_rejects_exactly_the_misembedded_graphs():
    rng = random.Random(37)
    rejected = 0
    for _ in range(40):
        n = rng.randrange(4, 61)
        g = rand_sp_st(rng, n)
        # reversing a single vertex's out-arcs only mirrors parallel
        # branches and left every sampled graph valid, so shuffle them all
        order = [list(ws) for ws in g.out_order]
        for ws in order:
            rng.shuffle(ws)
        bad = Digraph(n, g.arcs, kind="planar-st", out_order=order)
        l1 = _postorder_labels(bad, reverse_order=False)
        l2 = _postorder_labels(bad, reverse_order=True)
        m = transitive_closure(bad)
        first = next(
            (
                (a, b)
                for a in range(n)
                for b in range(n)
                if bool(m[a] >> b & 1) != (l1[a] <= l1[b] and l2[a] <= l2[b])
            ),
            None,
        )
        if first is None:
            assert kameda_labels(bad) == (l1, l2)
            continue
        rejected += 1
        with pytest.raises(GraphClassError, match=rf"at pair \({first[0]},{first[1]}\);"):
            kameda_labels(bad)
    assert rejected >= 5


def test_postorder_labels_as_pinned():
    """Both label orders of seeded rand_sp_st graphs, as embedded and with
    every out-arc order shuffled, hashed; recorded with the frame-based
    walk that the push-all walk replaced."""
    rng = random.Random(43)
    digest = hashlib.sha256()
    for _ in range(300):
        g = rand_sp_st(rng, rng.randrange(2, 81))
        order = [list(ws) for ws in g.out_order]
        for ws in order:
            rng.shuffle(ws)
        for h in (g, Digraph(g.n, g.arcs, kind="planar-st", out_order=order)):
            for reverse_order in (False, True):
                digest.update(repr(_postorder_labels(h, reverse_order)).encode())
    assert digest.hexdigest() == "c3bde659dd71c56088b043376a364721f984f22309d7d527afe03226466ec782"


def test_kameda_rejects_missing_embedding():
    g = Digraph(2, [(0, 1)])
    with pytest.raises(GraphClassError):
        kameda_labels(g)


def test_planar_st_index_oracle():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randrange(2, 81)
        g1 = rand_sp_st(rng, n)
        p2 = rand_path(rng, n)
        idx = index_planar_st(g1, p2)
        assert_index_matches(idx, g1, p2)


def test_planar_st_reversed_topological_path_answers_only_b():
    # The second graph reaches b only from b's successors in the first,
    # so every answer is {b}, while the range tree reports all of b's
    # predecessors in the first graph and the count charges them.
    rng = random.Random(59)
    for n in (2, 3, 17, 64, 1 << 8):
        g1 = rand_sp_st(rng, n)
        p2 = dipath_of(topo_order(g1)[::-1])
        idx = index_planar_st(g1, p2)
        want = oracle_pred_sets(g1, p2)
        m1 = transitive_closure(g1)
        for b in range(n):
            res, probes, _ = idx.query_counted(b)
            assert res == want[b] == [b]
            preds = sum(m1[a] >> b & 1 for a in range(n))
            assert preds <= probes <= range_probe_bound(n, preds), (n, b, probes)


def test_planar_st_topo_order_path_collapses_to_g1():
    rng = random.Random(33)
    g1 = rand_sp_st(rng, 30)
    order = topo_order(g1)
    p2 = dipath_of(order)
    idx = index_planar_st(g1, p2)
    m = transitive_closure(g1)
    for b in range(30):
        assert idx.query(b) == sorted(a for a in range(30) if m[a] >> b & 1)


def test_query_rejects_out_of_range():
    p = dipath_of([0, 1, 2])
    idx = index_two_paths(p, p)
    with pytest.raises(ValueError):
        idx.query(5)
