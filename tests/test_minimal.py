import random

import pytest

from joinreach.gen import gen_bitreversal
from joinreach.graph import Digraph, ReachMatrix, transitive_closure
from joinreach.minimal import and_closure, minimal_restricted_join, transitive_reduction


def random_dag(rng, n, p=0.25):
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Digraph(n, arcs)


def random_digraph(rng, n, p):
    """Random digraph with arcs both ways, so usually cyclic."""
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return Digraph(n, arcs)


def test_and_closure_identity_and_annihilator():
    rng = random.Random(2)
    g = random_dag(rng, 12)
    m = transitive_closure(g)
    full = ReachMatrix(12, [(1 << 12) - 1] * 12)
    ident = ReachMatrix(12, [1 << a for a in range(12)])
    assert and_closure(m, full) == m
    assert and_closure(m, ident) == ident


def test_and_closure_entrywise():
    rng = random.Random(3)
    m1 = transitive_closure(random_dag(rng, 20))
    m2 = transitive_closure(random_dag(rng, 20))
    m = and_closure(m1, m2)
    for a in range(20):
        for b in range(20):
            assert m.reach(a, b) == (m1.reach(a, b) and m2.reach(a, b))
    with pytest.raises(ValueError):
        and_closure(m1, transitive_closure(random_dag(rng, 5)))


def test_reduction_of_chain_is_chain():
    g = Digraph(6, [(i, i + 1) for i in range(5)])
    red = transitive_reduction(transitive_closure(g))
    assert set(red.arcs) == {(i, i + 1) for i in range(5)}


def test_reduction_of_empty_matrix_is_empty():
    red = transitive_reduction(ReachMatrix(0, []))
    assert (red.n, red.arcs) == (0, ())


def test_reduction_of_identity_is_arcless():
    red = transitive_reduction(ReachMatrix(5, [1 << a for a in range(5)]))
    assert red.m == 0


def test_reduction_rejects_non_closure():
    bad = ReachMatrix(3, [0b011, 0b110, 0b100])
    with pytest.raises(ValueError):
        transitive_reduction(bad)


def test_reduction_minimal_on_random_dags():
    rng = random.Random(5)
    inputs = []
    for _ in range(20):
        n = rng.randrange(2, 25)
        inputs.append(random_dag(rng, n))
    for _ in range(20):
        n = rng.randrange(2, 25)
        inputs.append(random_digraph(rng, n, rng.choice([0.03, 0.06, 0.12])))
    assert any(m.rows[a] >> b & 1 and m.rows[b] >> a & 1
               for m in map(transitive_closure, inputs)
               for a in range(m.n) for b in range(a))
    for g in inputs:
        n = g.n
        m = transitive_closure(g)
        red = transitive_reduction(m)
        assert transitive_closure(red) == m
        # deleting any arc strictly shrinks the closure
        for drop in red.arcs:
            g2 = Digraph(n, [a for a in red.arcs if a != drop])
            assert transitive_closure(g2) != m
        # each class of mutually reachable vertices is one cycle in id order
        classes = {}
        for v in range(n):
            classes.setdefault(m.rows[v], []).append(v)
        for members in classes.values():
            inner = {(u, v) for u, v in red.arcs if u in members and v in members}
            if len(members) > 1:
                assert inner == set(zip(members, members[1:] + members[:1]))
            else:
                assert not inner


def test_reduction_raises_exactly_on_non_transitive_flips():
    rng = random.Random(6)
    raised = kept = 0
    for _ in range(150):
        n = rng.randrange(2, 20)
        p = rng.choice([0.04, 0.08, 0.15])
        m = and_closure(transitive_closure(random_digraph(rng, n, p)),
                        transitive_closure(random_digraph(rng, n, p)))
        a, b = rng.sample(range(n), 2)
        rows = list(m.rows)
        rows[a] ^= 1 << b
        bad = ReachMatrix(n, rows)
        if bad.is_transitive():
            kept += 1
            assert transitive_closure(transitive_reduction(bad)) == bad
        else:
            raised += 1
            with pytest.raises(ValueError, match="not transitive"):
                transitive_reduction(bad)
    assert raised and kept


def test_reduction_rejects_missing_diagonal():
    with pytest.raises(ValueError, match="not reflexive"):
        transitive_reduction(ReachMatrix(2, [0b11, 0b00]))


def test_reduction_expands_cycles_in_id_order():
    g = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)])
    m = transitive_closure(g)
    red = transitive_reduction(m)
    assert transitive_closure(red) == m
    arcs = set(red.arcs)
    assert {(0, 1), (1, 2), (2, 0)} <= arcs
    assert {(3, 4), (4, 3)} <= arcs


def test_minimal_join_same_graph_is_reduction():
    rng = random.Random(7)
    g = random_dag(rng, 16)
    out = minimal_restricted_join(g, g)
    assert transitive_closure(out) == transitive_closure(g)


def test_minimal_join_reversed_dag_is_arcless():
    rng = random.Random(9)
    g = random_dag(rng, 14)
    out = minimal_restricted_join(g, g.reverse())
    assert out.m == 0


def test_minimal_join_bitrev_has_at_least_half_n_lg_n_arcs():
    for k in range(10):
        n = 1 << k
        p1, p2 = gen_bitreversal(n)
        out = minimal_restricted_join(p1, p2)
        assert out.m >= n * k // 2, (n, out.m)
        if n == 512:
            assert out.m == 3073


def test_minimal_join_tiny_inputs():
    for n in (1, 2):
        empty = Digraph(n, [])
        assert minimal_restricted_join(empty, empty).arcs == ()
    one = Digraph(2, [(0, 1)])
    back = Digraph(2, [(1, 0)])
    both = Digraph(2, [(0, 1), (1, 0)])
    assert minimal_restricted_join(one, one).arcs == ((0, 1),)
    assert minimal_restricted_join(one, both).arcs == ((0, 1),)
    assert minimal_restricted_join(one, back).arcs == ()
    assert minimal_restricted_join(one, Digraph(2, [])).arcs == ()
    assert minimal_restricted_join(both, both).arcs == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        minimal_restricted_join(Digraph(1, []), one)


def test_minimal_join_closure_is_and_of_closures():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 49)
        g1 = random_dag(rng, n)
        g2 = random_dag(rng, n)
        out = minimal_restricted_join(g1, g2)
        want = and_closure(transitive_closure(g1), transitive_closure(g2))
        assert transitive_closure(out) == want


def test_minimal_join_unique_under_relabeling():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randrange(2, 33)
        g1 = random_dag(rng, n)
        g2 = random_dag(rng, n)
        out = minimal_restricted_join(g1, g2)
        perm = list(range(n))
        rng.shuffle(perm)
        h1 = Digraph(n, [(perm[u], perm[v]) for u, v in g1.arcs])
        h2 = Digraph(n, [(perm[u], perm[v]) for u, v in g2.arcs])
        out_p = minimal_restricted_join(h1, h2)
        unperm = {(perm[u], perm[v]) for u, v in out.arcs}
        assert unperm == set(out_p.arcs)
