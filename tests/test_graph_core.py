import gc
import hashlib
import random
import tracemalloc
from itertools import groupby

import pytest

from joinreach.graph import (
    CondensedPair,
    Digraph,
    GraphClassError,
    block_pairs,
    condense_pair,
    contracted_intervals,
    dfs_intervals,
    dipath_of,
    layer_decompose,
    parse_graph,
    format_graph,
    path_order,
    split_unoriented_path,
    tarjan_scc,
    tree_blocks,
    topo_order,
    transitive_closure,
)

from joinreach.classes import build, index
from joinreach.explicit import (
    build_pathcover,
    build_tree_path,
    build_two_paths,
    build_two_trees,
    build_unoriented_trees,
    parse_join,
    verify_join_graph,
)
from joinreach.gen import rand_dag, rand_path, rand_sp_st, rand_tree, rand_upath, rand_utree
from joinreach.geom import CartesianTree
from joinreach.jrindex import (
    index_hpd_two_trees,
    index_pathcover,
    index_planar_st,
    index_tree_path,
    index_two_paths,
    index_two_trees,
)
from layer_ref import layer_graphs


def reach_oracle(g):
    """Independent oracle: one list-based DFS per source."""
    out = []
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.out[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(seen)
    return out


# differs from gen.rand_utree, which relabels: here parents stay below children
def random_utree(rng, n):
    arcs = []
    for v in range(1, n):
        p = rng.randrange(v)
        arcs.append((p, v) if rng.random() < 0.5 else (v, p))
    return Digraph(n, arcs, kind="utree")


def is_transitive(rows):
    """True iff the bit-row relation `rows` is transitive: each row holds
    the rows of all its members. The tests' reference check, independent
    of `minimal.transitive_reduction`'s word-parallel one."""
    for row in rows:
        rest = row
        while rest:
            b = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rows[b] & ~row:
                return False
    return True


def test_closure_single_vertex():
    m = transitive_closure(Digraph(1, []))
    assert m[0] >> 0 & 1


def test_closure_dipath_total_order():
    g = dipath_of([0, 1, 2])
    m = transitive_closure(g)
    for a in range(3):
        for b in range(3):
            assert bool(m[a] >> b & 1) == (a <= b)


def test_closure_matches_dfs_oracle_on_random_dags():
    rng = random.Random(7)
    for _ in range(20):
        g = rand_dag(rng, 20)
        m = transitive_closure(g)
        oracle = reach_oracle(g)
        for a in range(20):
            for b in range(20):
                assert bool(m[a] >> b & 1) == (b in oracle[a])


def test_closure_cyclic_graph():
    g = Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    m = transitive_closure(g)
    for a in range(3):
        for b in range(4):
            assert m[a] >> b & 1
    assert not m[3] >> 0 & 1


def test_closure_reflexive_transitive_fixpoint():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(2, 24)
        g = Digraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
        m = transitive_closure(g)
        assert all(m[a] >> a & 1 for a in range(n))
        assert is_transitive(m)


def test_tarjan_components_topological():
    g = Digraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)])
    comp_of, comps = tarjan_scc(g)
    assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4], [5]]
    for u, v in g.arcs:
        assert comp_of[u] <= comp_of[v]


def fixpoint_rows(rows):
    """Reflexive-transitive closure of the adjacency `rows` as bit rows,
    by OR-ing each vertex's successors' rows in place, sweeping last
    vertex first and then first vertex first in turn, until nothing
    changes: no component or topological order is used."""
    reach = [1 << v for v in range(len(rows))]
    sweep = range(len(rows))
    changed = True
    while changed:
        changed = False
        sweep = sweep[::-1]
        for v in sweep:
            r = reach[v]
            for w in rows[v]:
                r |= reach[w]
            if r != reach[v]:
                reach[v] = r
                changed = True
    return reach


def scc_reference_graphs():
    """Seeded digraphs of n <= 40, with self-loops and repeated arcs in the
    input, then a 2^12-vertex cycle and a 2^12-vertex random digraph."""
    rng = random.Random(4099)
    for _ in range(400):
        n = rng.randrange(1, 41)
        arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n + 1))]
        arcs += rng.sample(arcs, len(arcs) // 4) + [(v, v) for v in range(0, n, 7)]
        yield Digraph(n, arcs)
    n = 1 << 12
    yield Digraph(n, [(v, (v + 1) % n) for v in range(n)])
    yield Digraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])


def test_tarjan_components_match_mutual_reach_and_their_pinned_digest():
    digest = hashlib.sha256()
    for g in scc_reference_graphs():
        comp_of, comps = tarjan_scc(g)
        digest.update(repr((comp_of, comps)).encode())
        fwd, back = fixpoint_rows(g.out), fixpoint_rows(g.inn)
        assert sorted(v for comp in comps for v in comp) == list(range(g.n))
        for i, comp in enumerate(comps):
            assert comp == sorted(comp)
            mask = sum(1 << v for v in comp)
            # a vertex shares its component with exactly the vertices it
            # reaches and is reached by
            assert all(comp_of[v] == i and fwd[v] & back[v] == mask for v in comp)
        assert all(comp_of[u] <= comp_of[v] for u, v in g.arcs)
    # recorded with the frame-based Tarjan that the push-all walk replaced
    assert digest.hexdigest() == "612b6f91d6fb6f808322173eb48b81b0b608cee979b1c2fe9ea68f42a78f895b"


def join_rows(g1, g2):
    m1 = transitive_closure(g1)
    m2 = transitive_closure(g2)
    return [a & b for a, b in zip(m1, m2)]


def test_condense_acyclic_inputs_are_isomorphic():
    rng = random.Random(11)
    g1 = rand_dag(rng, 12)
    g2 = rand_dag(rng, 12)
    cp = condense_pair(g1, g2)
    assert len(cp.members) == 12
    assert all(len(ms) == 1 for ms in cp.members)
    # singleton subcomponents: relabeled copies of the originals
    relabel = {ms[0]: s for s, ms in enumerate(cp.members)}
    assert set(cp.g1_hat.arcs) == {(relabel[u], relabel[v]) for u, v in g1.arcs}
    assert set(cp.g2_hat.arcs) == {(relabel[u], relabel[v]) for u, v in g2.arcs}


def test_condense_identical_cycles_collapse():
    cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    cp = condense_pair(cyc, cyc)
    assert len(cp.members) == 1
    assert cp.g1_hat.m == 0 and cp.g2_hat.m == 0


def test_condense_split_cycle_preserves_join():
    g1 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    g2 = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    cp = condense_pair(g1, g2)
    assert len(cp.members) == 2
    _assert_join_preserved(g1, g2, cp)


def _assert_join_preserved(g1, g2, cp):
    rows = join_rows(g1, g2)
    h1 = transitive_closure(cp.g1_hat)
    h2 = transitive_closure(cp.g2_hat)
    n = g1.n
    for a in range(n):
        for b in range(n):
            want = bool(rows[a] >> b & 1)
            sa, sb = cp.sub_of[a], cp.sub_of[b]
            got = sa == sb or (bool(h1[sa] >> sb & 1) and bool(h2[sa] >> sb & 1))
            assert want == got, (a, b)


def test_condense_join_relation_random_pairs():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 33)
        g1 = Digraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
        g2 = Digraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
        cp = condense_pair(g1, g2)
        assert is_transitive(transitive_closure(cp.g1_hat))
        assert topo_order(cp.g1_hat) is not None
        assert topo_order(cp.g2_hat) is not None
        _assert_join_preserved(g1, g2, cp)


def test_condense_rejects_size_mismatch():
    with pytest.raises(ValueError):
        condense_pair(Digraph(2, []), Digraph(3, []))


def test_layers_dipath_from_source():
    g = dipath_of([0, 1, 2, 3])
    dec = layer_decompose(g, 0)
    assert len(dec.layers) == 1
    assert dec.layers[0] == [0, 1, 2, 3]


def test_layers_out_tree_from_root_single_layer():
    g = Digraph(5, [(0, 1), (0, 2), (1, 3), (1, 4)], kind="out-tree")
    dec = layer_decompose(g, 0)
    assert len(dec.layers) == 1
    assert len(layer_graphs(g, dec)) == 1
    assert all(dec.iota[v] == 0 for v in range(5))  # every vertex core in graph 0


def test_layers_rejects_bad_start():
    with pytest.raises(ValueError):
        layer_decompose(dipath_of([0, 1]), 5)


def test_layers_properties_on_random_utrees():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(2, 40)
        g = random_utree(rng, n)
        dec = layer_decompose(g, 0)
        graphs = layer_graphs(g, dec)
        # every vertex non-root in at most two graphs
        appear = {v: 0 for v in range(n)}
        for lg in graphs:
            for idx, v in enumerate(lg.orig_of):
                if v is not None and idx != 0:
                    appear[v] += 1
                elif v is not None and idx == 0 and lg.index == 0:
                    appear[v] += 1
        assert all(c <= 2 for c in appear.values())
        # size of the sequence stays within 4x the input
        assert sum(lg.digraph.size for lg in graphs) <= 4 * g.size
        # predecessors of v are realized inside graphs iota(v)-1, iota(v)
        m = transitive_closure(g)
        locals_reach = [transitive_closure(lg.digraph) for lg in graphs]
        for v in range(n):
            for u in range(n):
                if u == v or not m[u] >> v & 1:
                    continue
                ok = False
                for gi in (dec.iota[v] - 1, dec.iota[v]):
                    if gi < 0:
                        continue
                    lg = graphs[gi]
                    lu = lg.local_of.get(u)
                    lv = lg.local_of.get(v)
                    if lu is not None and lv is not None and locals_reach[gi][lu] >> lv & 1:
                        ok = True
                        break
                assert ok, (u, v)
        # per-graph reachability between non-root vertices never invents pairs
        for gi, lg in enumerate(graphs):
            lr = locals_reach[gi]
            for lu, u in enumerate(lg.orig_of):
                for lv, v in enumerate(lg.orig_of):
                    if u is None or v is None or u == v:
                        continue
                    if lu == 0 and lg.index > 0:
                        continue
                    if lr[lu] >> lv & 1:
                        assert m[u] >> v & 1, (u, v, gi)


def test_layers_fringe_roles_on_utrees():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randrange(3, 32)
        g = random_utree(rng, n)
        dec = layer_decompose(g, 0)
        m = transitive_closure(g)
        # v is core in graph iota(v) and fringe in graph iota(v) - 1
        for v in range(n):
            i = dec.iota[v] - 1
            if i < 0:
                continue
            root = dec.fringe_root[v]
            assert dec.iota[root] == i  # a core vertex of graph i
            if i % 2 == 0:
                assert m[v] >> root & 1
            else:
                assert m[root] >> v & 1


def ref_contracted_intervals(lg, core):
    """Layer graph lg's intervals per core vertex from a parent search of
    its underlying tree from local root 0, with the fringe dropped and
    children by original id."""
    g = lg.digraph
    parent = {0: -1}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.out[v] + g.inn[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    core_locals = [0] + [lg.local_of[v] for v in core if lg.local_of[v] != 0]
    children = {c: [] for c in core_locals}
    for c in core_locals[1:]:
        children[parent[c]].append(c)
    for c in children:
        children[c].sort(key=lambda x: lg.orig_of[x])
    s, t, clock = {}, {}, 0
    stack = [(0, False)]
    while stack:
        c, done = stack.pop()
        clock += 1
        if done:
            t[c] = clock
            continue
        s[c] = clock
        stack.append((c, True))
        stack.extend((w, False) for w in reversed(children[c]))
    return {lg.orig_of[c]: (s[c], t[c]) for c in core_locals if lg.orig_of[c] is not None}


def _assert_intervals_match_reference(g, v0=0):
    dec = layer_decompose(g, v0)
    for lg, core in zip(layer_graphs(g, dec, v0), dec.layers):
        ref = ref_contracted_intervals(lg, core)
        assert contracted_intervals(dec, lg.index) == (
            {v: 2 * start for v, (start, _) in ref.items()},
            {v: 2 * end for v, (_, end) in ref.items()},
        )
    return dec


def test_contracted_intervals_match_reference_on_random_utrees():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(1, 60)
        g = random_utree(rng, n)
        _assert_intervals_match_reference(g, rng.randrange(n))


def test_contracted_intervals_small_and_adversarial():
    assert contracted_intervals(layer_decompose(Digraph(1, [], kind="utree")), 0) == ({0: 2}, {0: 4})
    for arcs, mu in (([(0, 1)], 1), ([(1, 0)], 2)):
        assert len(_assert_intervals_match_reference(Digraph(2, arcs, kind="utree")).layers) == mu
    # a star with mixed directions: 0 -> 1, 2, 3 and 4, 5, 6 -> 0
    star = Digraph(7, [(0, 1), (0, 2), (0, 3), (4, 0), (5, 0), (6, 0)], kind="utree")
    for v0 in range(7):
        _assert_intervals_match_reference(star, v0)
    # a zigzag path 0 -> 1 <- 2 -> 3 <- ..., one layer per vertex after 1
    n = 41
    zig = Digraph(n, [(k, k + 1) if k % 2 == 0 else (k + 1, k) for k in range(n - 1)], kind="utree")
    dec = _assert_intervals_match_reference(zig)
    assert len(dec.layers) == n - 1
    # the contracted root of a later layer takes tick 1
    assert contracted_intervals(dec, 5) == ({6: 4}, {6: 6})


def test_dfs_intervals_single_vertex():
    g = Digraph(1, [], kind="out-tree")
    s, t = dfs_intervals(g)
    assert (s[0], t[0]) == (1, 2)


def test_dfs_intervals_root_two_leaves():
    g = Digraph(3, [(0, 1), (0, 2)], kind="out-tree")
    s, t = dfs_intervals(g)
    assert (s[0], t[0]) == (1, 6)
    assert (s[1], t[1]) == (2, 3)
    assert (s[2], t[2]) == (4, 5)


def random_parent_tree(rng, n):
    parent = [-1] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v)
    return parent


def test_dfs_intervals_ancestry_matches_parent_chasing():
    rng = random.Random(41)
    n = 50
    parent = random_parent_tree(rng, n)
    g = Digraph(n, [(parent[v], v) for v in range(1, n)], kind="out-tree")
    s, t = dfs_intervals(g)
    vals = sorted(s + t)
    assert vals == list(range(1, 2 * n + 1))

    def contains(a, b):
        return s[a] <= s[b] and t[b] <= t[a]

    def is_ancestor(a, b):
        while b != -1:
            if a == b:
                return True
            b = parent[b]
        return False

    for a in range(n):
        for b in range(n):
            assert contains(a, b) == is_ancestor(a, b)
            # laminar: disjoint or nested
            lo = max(s[a], s[b])
            hi = min(t[a], t[b])
            if lo <= hi:
                assert contains(a, b) or contains(b, a)


def test_dfs_intervals_rejects_non_tree():
    for n, arcs in (
        (3, [(0, 1), (1, 2), (0, 2)]),  # too many arcs
        (4, [(0, 1), (0, 2), (1, 2)]),  # 2 is reached twice
        (4, [(0, 1), (2, 3), (3, 2)]),  # 2 and 3 are not reached
    ):
        with pytest.raises(GraphClassError):
            dfs_intervals(Digraph(n, arcs), root=0)


def test_kind_validation():
    with pytest.raises(GraphClassError):
        Digraph(3, [(0, 1)], kind="path")  # disconnected
    with pytest.raises(GraphClassError):
        Digraph(3, [(0, 1), (0, 2), (1, 2)], kind="utree")
    with pytest.raises(GraphClassError):
        Digraph(3, [(0, 2), (1, 2)], kind="out-tree")
    Digraph(3, [(0, 1), (2, 1)], kind="path")  # unoriented path is fine


def test_normalization_drops_loops_and_duplicates():
    g = Digraph(3, [(0, 1), (0, 1), (1, 1), (1, 2)])
    assert g.arcs == ((0, 1), (1, 2))
    assert (g.m, g.size) == (2, 5)


def test_normalization_names_first_bad_arc_in_input_order():
    # (0, 7) sorts before (5, 1) but comes after it in the input
    with pytest.raises(ValueError, match=r"arc \(5,1\) out of range for n=4"):
        Digraph(4, [(1, 2), (5, 1), (0, 7)])
    with pytest.raises(ValueError, match=r"arc \(2,-1\) out of range for n=4"):
        Digraph(4, [(0, 1), (2, -1), (-3, 0)])
    with pytest.raises(ValueError, match=r"arc \(0,0\) out of range for n=0"):
        Digraph(0, [(0, 0)])
    # A one-shot generator is read once, in order, and a negative tail
    # raises rather than wrapping into row n - 1.
    with pytest.raises(ValueError, match=r"arc \(3,4\) out of range for n=4"):
        Digraph(4, (a for a in [(0, 1), (1, 2), (3, 4), (5, 0)]))
    with pytest.raises(ValueError, match=r"arc \(-1,2\) out of range for n=4"):
        Digraph(4, (a for a in [(0, 1), (2, 3), (-1, 2)]))
    # Both parsers read arc lines as the constructor reads arcs.
    for parse, tail in ((parse_graph, ""), (parse_join, "steiner 0\n")):
        with pytest.raises(ValueError, match=r"arc \(5,1\) out of range for n=4"):
            parse("4 3 digraph\n1 2\n5 1\n0 7\n" + tail)
        with pytest.raises(ValueError, match=r"arc \(-1,2\) out of range for n=4"):
            parse("4 3 digraph\n0 1\n-1 2\n2 -3\n" + tail)


def test_normalization_stores_sorted_tuples_from_any_iterable():
    want = ((0, 2), (1, 0), (1, 2))
    for arcs in ([[1, 2], [0, 2], [1, 0]], ((u, v) for u, v in [(1, 2), (1, 0), (0, 2)])):
        g = Digraph(3, arcs)
        assert g.arcs == want and all(type(a) is tuple for a in g.arcs)
        assert g.out == ((2,), (0, 2), ()) and g.inn == ((1,), (), (0, 1))
    g = Digraph(0, [])
    assert (g.n, g.arcs, g.out, g.inn) == (0, (), (), ())


# n = 0, 1 and 2 with no arcs, only loops, only duplicates, and both
# ways; then duplicates and loops spread through unsorted arcs
NORMALIZATION_EDGES = [
    (0, []), (1, []), (2, []),
    (1, [(0, 0)]), (2, [(0, 0), (1, 1), (0, 0)]),
    (2, [(0, 1), (0, 1)]), (2, [(1, 0), (0, 1), (1, 0), (0, 1)]),
    (4, [(2, 0), (1, 1), (0, 2), (2, 0), (3, 3), (0, 2), (1, 3), (2, 2), (3, 0), (1, 0), (2, 0)]),
]


def _normalization_inputs():
    yield from NORMALIZATION_EDGES
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 12)
        yield n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(30))]


def test_normalization_matches_brute_force():
    for n, arcs in _normalization_inputs():
        g = Digraph(n, arcs)
        want = sorted({(u, v) for u, v in arcs if u != v})
        assert g.arcs == tuple(want)
        assert (g.m, g.size) == (len(want), n + len(want))
        assert g.out == tuple(tuple(v for u, v in want if u == w) for w in range(n))
        assert g.inn == tuple(tuple(u for u, v in want if v == w) for w in range(n))
        back = parse_graph(format_graph(g))
        assert (back.n, back.m, back.arcs, back.out, back.inn) == (n, g.m, g.arcs, g.out, g.inn)


def test_rows_normalize_as_arcs_do():
    # Digraph.from_rows takes each vertex's heads as one row, in any order
    # and with repeats, and must give the graph Digraph(n, arcs) gives.
    for n, arcs in _normalization_inputs():
        rows = [[] for _ in range(n)]
        for u, v in reversed(arcs):
            rows[u].append(v)
        want, got = Digraph(n, arcs), Digraph.from_rows(n, rows, "digraph")
        assert (got.n, got.m, got.kind) == (n, want.m, want.kind)
        assert (got.out, got.inn) == (want.out, want.inn)
    g = Digraph.from_rows(4, [[3, 1, 2, 1], [], [0], [2, 0]], "digraph")
    assert g.out == ((1, 2, 3), (), (0,), (0, 2)) and g.m == 6
    assert all(type(row) is tuple for row in g.out)
    g = Digraph.from_rows(3, [[0, 1, 0], [1], [2, 0, 2]], "digraph")  # loops are dropped
    assert (g.out, g.m) == (((1,), (), (0,)), 2)


def test_rows_name_their_first_bad_arc_in_row_order():
    # (0, 9) comes first in row order, though -2 sorts before 9 in its
    # row; the loop (0, 0) in the second case does not hide (2, -1).
    with pytest.raises(ValueError, match=r"arc \(0,9\) out of range for n=4"):
        Digraph.from_rows(4, [[1, 9, -2], [-1], [], [7]], "digraph")
    with pytest.raises(ValueError, match=r"arc \(2,-1\) out of range for n=4"):
        Digraph.from_rows(4, [[0, 1], [1], [3, -1, 5], [9]], "digraph")
    with pytest.raises(ValueError, match="3 rows for n=4"):
        Digraph.from_rows(4, [[1], [2], [3]], "digraph")


@pytest.mark.parametrize("kind,rows,msg", [
    ("path", [[1], [], [1]], None),
    ("path", [[1, 2], [2], []], "a path on n vertices needs n-1 arcs"),
    ("out-tree", [[1, 2], [], []], None),
    ("out-tree", [[1], [0], []], "out-tree is not connected"),
    ("in-tree", [[2], [2], []], None),
    ("in-tree", [[1, 2], [], []], "in-tree vertex with out-degree > 1"),
    ("utree", [[1], [], [1]], None),
    ("utree", [[1], [0, 2], [0]], "a tree on n vertices needs n-1 arcs"),
    ("planar-st", [[1, 2], [2], []], None),
    ("planar-st", [[1], [2], [0]], "planar-st graph must be acyclic"),
    ("digraph", [[1, 2], [0], [0]], None),
    ("tree", [[1], [], []], "unknown graph kind 'tree'"),
])
def test_rows_validate_their_kind(kind, rows, msg):
    arcs = [(u, v) for u, row in enumerate(rows) for v in row]
    if msg is None:
        got = Digraph.from_rows(3, rows, kind)
        assert (got.kind, got.out) == (kind, Digraph(3, arcs, kind).out)
    else:
        for make in (lambda: Digraph.from_rows(3, rows, kind), lambda: Digraph(3, arcs, kind)):
            with pytest.raises(GraphClassError, match=msg):
                make()


def test_in_rows_read_before_and_after_the_out_rows():
    arcs = [(2, 0), (0, 1), (1, 2), (0, 2)]
    in_first, out_first = Digraph(3, arcs), Digraph(3, arcs)
    inn = in_first.inn
    assert inn == ((2,), (0,), (0, 1))
    assert in_first.out == out_first.out == ((1, 2), (2,), (0,))
    assert out_first.inn == inn
    assert in_first.inn is inn  # built once, then kept
    with pytest.raises(AttributeError):
        in_first.inn = ()


def test_in_rows_hold_the_ints_of_the_out_rows():
    # Every arc brings fresh ints (values above 256 are not cached); an in
    # row enters each tail as an int object the out rows already hold.
    n = 600
    g = Digraph(n, [(int(str(u)), int(str((u * 7 + 1) % n))) for u in range(n)])
    heads = {id(v) for row in g.out for v in row}
    assert len(heads) == n
    assert all(id(u) in heads for row in g.inn for u in row)


def _brute_kind(kind, n, arcs):
    """(message of the first failing check of `kind` in the order
    `Digraph._validate` documents, or None; in-degrees; out-degrees;
    connected) by degree counts and union-find."""
    indeg, outdeg = [0] * n, [0] * n
    comp = list(range(n))

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    for u, v in arcs:
        outdeg[u] += 1
        indeg[v] += 1
        comp[find(u)] = find(v)
    connected = len({find(v) for v in range(n)}) <= 1
    count = len(arcs) == n - 1
    checks = {
        "path": [
            (count, "a path on n vertices needs n-1 arcs"),
            (all(a + b <= 2 for a, b in zip(indeg, outdeg)), "path vertex with degree > 2"),
            (connected, "path is not connected"),
        ],
        "out-tree": [
            (count, "a tree on n vertices needs n-1 arcs"),
            (all(d <= 1 for d in indeg), "out-tree vertex with in-degree > 1"),
            (connected, "out-tree is not connected"),
        ],
        "in-tree": [
            (count, "a tree on n vertices needs n-1 arcs"),
            (all(d <= 1 for d in outdeg), "in-tree vertex with out-degree > 1"),
            (connected, "in-tree is not connected"),
        ],
        "utree": [(count, "a tree on n vertices needs n-1 arcs"), (connected, "utree is not connected")],
    }
    msg = next((f"{kind}: {msg}" for ok, msg in checks[kind] if not ok), None)
    return msg, indeg, outdeg, connected


def _brute_runs(n, arcs):
    """Maximal uniformly oriented runs of a path, walked from its smaller end."""
    if n == 1:
        return [[0]]
    nb = [[] for _ in range(n)]
    for u, v in arcs:
        nb[u].append((v, True))
        nb[v].append((u, False))
    seq, fwd = [min(v for v in range(n) if len(nb[v]) == 1)], []
    while len(seq) < n:
        prev = seq[-2] if len(seq) > 1 else None
        ((w, d),) = [(w, d) for w, d in nb[seq[-1]] if w != prev]
        seq.append(w)
        fwd.append(d)
    runs = []
    for d, ks in groupby(range(n - 1), key=fwd.__getitem__):
        ks = list(ks)
        run = seq[ks[0] : ks[-1] + 2]
        runs.append(run if d else run[::-1])
    return runs


def test_validation_matches_brute_force_on_every_arc_set_up_to_4_vertices():
    """Every arc set on n <= 4 vertices (n = 0 and arc-free graphs too),
    under each tree and path kind: the constructor accepts exactly what
    the brute-force checks accept and otherwise names their first failing
    check; on accepted graphs root, is_directed_path, path_order,
    split_unoriented_path and the lazily built in rows match brute
    force, and only out-trees and dipaths leave their in rows unbuilt."""
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            arcs = [a for k, a in enumerate(pairs) if mask >> k & 1]
            for kind in ("path", "out-tree", "in-tree", "utree"):
                want, indeg, outdeg, connected = _brute_kind(kind, n, arcs)
                try:
                    g = Digraph(n, arcs, kind=kind)
                except GraphClassError as e:
                    assert str(e) == want, (kind, n, arcs)
                    continue
                assert want is None, (kind, n, arcs)
                is_dipath = len(arcs) == n - 1 and connected and max(indeg + outdeg, default=0) <= 1
                assert g.is_directed_path() == is_dipath, (kind, arcs)
                if kind in ("out-tree", "in-tree"):
                    deg = indeg if kind == "out-tree" else outdeg
                    assert g.root() == deg.index(0)
                else:
                    with pytest.raises(GraphClassError):
                        g.root()
                if is_dipath:
                    order = [indeg.index(0)]
                    while len(order) < n:
                        order.append(next(v for u, v in arcs if u == order[-1]))
                    assert path_order(g) == order
                else:
                    with pytest.raises(GraphClassError):
                        path_order(g)
                if kind == "path":
                    assert split_unoriented_path(g) == _brute_runs(n, arcs)
                assert (g._inn is None) == (kind == "out-tree" or kind == "path" and is_dipath)
                assert g.inn == tuple(tuple(u for u, v in sorted(arcs) if v == w) for w in range(n))


def test_out_trees_and_dipaths_never_build_their_in_rows():
    """A 2^10 out-tree and dipath (each with a partner of its kind) go
    through every explicit and index builder that accepts them and
    through verification without building their in rows; read after, the
    in rows are right."""
    rng = random.Random(1024)
    n = 1 << 10
    t1, t2 = rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "out-tree")
    p1, p2 = rand_path(rng, n), rand_path(rng, n)
    st = rand_sp_st(rng, n)
    graphs = (t1, t2, p1, p2)
    assert all(g._inn is None for g in graphs)
    explicit = [
        (build_two_paths, p1, p2), (build_tree_path, t1, p1), (build_two_trees, t1, t2),
        (build_unoriented_trees, t1, t2), (build_unoriented_trees, t1, p1),
        (build_pathcover, t1, p1), (build_pathcover, p1, t1), (build_pathcover, t1, t2),
        (build, t1, p1), (build, p1, p2), (build, t1, t2),
    ]
    for builder, a, b in explicit:
        jg = builder(a, b)
        assert all(g._inn is None for g in graphs), builder
        assert verify_join_graph(jg, a, b).ok, builder
        assert all(g._inn is None for g in graphs), builder
    indexes = [
        (index_two_paths, p1, p2), (index_tree_path, t1, p1), (index_two_trees, t1, t2),
        (index_two_trees, t1, p1), (index_hpd_two_trees, t1, t2), (index_pathcover, t1, p1),
        (index_pathcover, p1, t1), (index_pathcover, t1, t2), (index_planar_st, st, p1),
        (index, t1, p1), (index, p1, p2), (index, t1, t2), (index, st, p1),
    ]
    for builder, a, b in indexes:
        builder(a, b).query(0)
        assert all(g._inn is None for g in graphs), builder
    for g in graphs:
        assert g.inn == tuple(tuple(u for u, row in enumerate(g.out) if w in row) for w in range(n))


def test_path_order_roundtrip():
    order = [3, 1, 4, 0, 2]
    g = dipath_of(order)
    assert path_order(g) == order


def test_graph_format_roundtrip():
    rng = random.Random(9)
    g = rand_dag(rng, 10, 0.3)
    g2 = parse_graph(format_graph(g))
    assert g2.n == g.n and g2.arcs == g.arcs and g2.kind == g.kind


def test_graph_format_planar_st_roundtrip():
    g = Digraph(
        4,
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        kind="planar-st",
        out_order=[[1, 2], [3], [3], []],
    )
    g2 = parse_graph(format_graph(g))
    assert g2.out_order == ((1, 2), (3,), (3,), ())


def test_graph_parse_ignores_padding_spaces_and_blank_lines():
    # Tokens are read by split and int, so no line needs stripping first:
    # spaces around any token, and lines of only spaces, change nothing,
    # out-order lines such as " 0 : 1 2" included.
    g = rand_sp_st(random.Random(5), 16)
    clean = format_graph(g)
    padded = "\n \t\n".join(
        "  " + ln.replace(":", " :").replace(" ", "  ") + " \t" for ln in clean.splitlines()
    ) + "\n\n  \n"
    assert " 0  :  " in padded
    want, got = parse_graph(clean), parse_graph(padded)
    assert (got.n, got.kind, got.arcs, got.out_order) == (want.n, want.kind, want.arcs, want.out_order)
    assert want.out_order is not None


def test_out_order_of_the_wrong_length_is_an_input_error():
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    rows = [[1, 2], [3], [3], []]
    for order, k in ((rows[:3], 3), (rows + [[]], 5)):
        with pytest.raises(GraphClassError, match=f"out_order has {k} rows for 4 vertices"):
            Digraph(4, arcs, kind="planar-st", out_order=order)


def test_an_out_order_listed_twice_is_an_input_error():
    # Each vertex has one out-order line at most; a second would replace
    # the first.
    text = "3 2 planar-st\n0 1\n1 2\n0: 2\n0: 1\n1: 2\n"
    with pytest.raises(ValueError, match="out-order of vertex 0 listed twice"):
        parse_graph(text)


def test_tree_blocks_match_brute_force():
    """Every block's members, fringe and intervals against the of lists,
    the layers and reachability: core members nest exactly as they reach
    one another along the block's orientation, and a fringe member sits
    at its fringe root's interval."""
    rng = random.Random(2501)
    graphs = []
    for n in [1, 2, 3] + [rng.randrange(4, 41) for _ in range(12)]:
        graphs += [rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree"), rand_path(rng, n),
                   rand_upath(rng, n), rand_utree(rng, n)]
        graphs += [Digraph(n, rand_tree(rng, n, k).arcs, kind="utree") for k in ("out-tree", "in-tree")]
    for g in graphs:
        n = g.n
        m = transitive_closure(g)
        blocks, of = tree_blocks(g)
        in_deg = [0] * n
        for u, v in g.arcs:
            in_deg[v] += 1
        rooted = g.kind != "path" and (max(in_deg, default=0) <= 1 or max(map(len, g.out), default=0) <= 1)
        runs = split_unoriented_path(g) if g.kind == "path" else None
        dec = layer_decompose(g, 0) if g.kind == "utree" and not rooted else None
        assert len(blocks) == (len(runs) if runs else len(dec.layers) if dec else 1)
        for v in range(n):
            assert list(of[v]) == sorted(set(of[v])) and 1 <= len(of[v]) <= 2
        for k, blk in enumerate(blocks):
            members = range(n) if isinstance(blk.s, list) else blk.s
            assert sorted(members) == [v for v in range(n) if k in of[v]]
            if dec:
                want = dec.layers[k + 1] if k + 1 < len(dec.layers) else []
                assert sorted(blk.fringe) == want and sorted(members) == sorted(dec.layers[k] + want)
                assert blk.orient == ("in" if k % 2 else "out") and not blk.chain
            else:
                assert not blk.fringe and blk.chain == bool(runs)
                if runs:
                    assert list(members) == runs[k] and blk.orient == "out"
            s, t = blk.s, blk.t
            assert (sorted(t) if isinstance(t, dict) else list(range(len(t)))) == sorted(members)
            core = [v for v in members if v not in blk.fringe]
            for a in core:
                for b in core:
                    nested = s[a] <= s[b] and t[b] <= t[a]
                    assert nested == (bool(m[a] >> b & 1) if blk.orient == "out" else bool(m[b] >> a & 1)), (g, k, a, b)
            for v in blk.fringe:
                root = dec.fringe_root[v]
                assert dec.iota[root] == k and (s[v], t[v]) == (s[root], t[root])


def test_block_pairs_match_brute_force():
    """The pairs of blocks sharing at least two members, each with its
    shared members ascending, in key order, for every pairing of tree
    kinds; two one-block trees give the one pair of all vertices."""
    rng = random.Random(3001)
    makers = (
        lambda n: rand_tree(rng, n, "out-tree"),
        lambda n: rand_tree(rng, n, "in-tree"),
        lambda n: rand_path(rng, n),
        lambda n: rand_upath(rng, n),
        lambda n: rand_utree(rng, n),
    )
    for n in [1, 2] + [rng.randrange(3, 41) for _ in range(4)]:
        for make1 in makers:
            for make2 in makers:
                g1, g2 = make1(n), make2(n)
                blocks1, blocks2, pairs = block_pairs(g1, g2)
                assert blocks1 == tree_blocks(g1)[0] and blocks2 == tree_blocks(g2)[0]
                members1, members2 = (
                    [set(range(n)) if isinstance(blk.s, list) else set(blk.s) for blk in blocks]
                    for blocks in (blocks1, blocks2)
                )
                want = [
                    ((i, j), sorted(m1 & m2))
                    for i, m1 in enumerate(members1)
                    for j, m2 in enumerate(members2)
                    if len(m1 & m2) >= 2
                ]
                assert pairs == want, (g1, g2)


def _held_bytes_per_vertex(build, n):
    """Bytes per vertex that build() allocates and its result keeps. A
    full collection empties the interpreter's free lists before and after,
    so a freed tuple parked on one is not counted as kept."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / n, kept
    finally:
        tracemalloc.stop()


# Bounds on held memory, from the containers kept: a list slot is 8 bytes,
# plus an eighth for over-allocation, and an int below 2^30 at most 32.
SLOT, INT = 8 * 9 / 8, 32


def test_tree_blocks_held_bytes_per_vertex():
    """A rooted tree's block keeps, per vertex, an `s` and a `t` slot
    holding an int each, and an `of` slot: 3 * 9 + 2 * 32 = 91 bytes
    (87 measured on CPython 3.11), so neither a per-member tuple (135
    bytes with one) nor a per-vertex dict fits beside them."""
    n = 1 << 12
    g = rand_tree(random.Random(12), n, "out-tree")
    held, _ = _held_bytes_per_vertex(lambda: tree_blocks(g), n)
    assert held <= 3 * SLOT + 2 * INT, held


def test_cartesian_tree_held_bytes_per_vertex():
    """A Cartesian tree keeps, per column, five column slots (`colx`,
    and by preorder position `px2`, `ppay`, `pend` and `colp`), its
    sparse table's entries and one int (positions, columns and subtree
    ends share one int per position): 176 bytes at 4,096 columns (161
    measured), so no copy of its input fits beside them."""
    n = 1 << 12
    rng = random.Random(4096)
    ys = [rng.randrange(n) for _ in range(n)]
    xs = list(range(n))
    rng.shuffle(xs)
    held, ct = _held_bytes_per_vertex(lambda: CartesianTree((x, ys[x], x) for x in xs), n)
    slots = 5 * n + sum(map(len, ct._table))
    assert held <= (slots * SLOT + n * INT) / n, held
