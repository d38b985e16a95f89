import math
import random

import pytest

from joinreach.graph import Digraph, GraphClassError, transitive_closure
from joinreach.hpd import (
    hpd_build,
    hpd_two_trees_build,
    hpd_two_trees_report,
)


# differs from gen.rand_tree, which relabels and returns only the graph:
# here parents stay below children and come back with it
def random_out_tree(rng, n):
    parent = [-1] + [rng.randrange(v) for v in range(1, n)]
    return Digraph(n, [(parent[v], v) for v in range(1, n)], kind="out-tree"), parent


def light_levels(g):
    """Per vertex of a rooted tree, the light vertices strictly below the
    root on its root path, by a walk to the root: a vertex is light iff it
    heads its heavy path."""
    path_of = hpd_build(g).path_of
    up = g.out if g.kind == "in-tree" else g.inn
    levels = []
    for v in range(g.n):
        lv = 0
        while up[v]:
            lv += path_of[v][1] == 0
            v = up[v][0]
        levels.append(lv)
    return levels


def test_hpd_chain_single_path():
    g = Digraph(6, [(i, i + 1) for i in range(5)], kind="out-tree")
    hpd = hpd_build(g)
    assert len(hpd.paths) == 1
    assert hpd.paths[0] == list(range(6))
    assert light_levels(g) == [0] * 6


def test_hpd_star_heavy_only_for_tiny_n():
    two = Digraph(2, [(0, 1)], kind="out-tree")
    assert hpd_build(two).paths[0] == [0, 1]  # 1 is 0's heavy child
    for n in (3, 4, 6):
        star = Digraph(n, [(0, v) for v in range(1, n)], kind="out-tree")
        hpd = hpd_build(star)
        assert hpd.paths[0] == [0]  # 0 has no heavy child
        assert light_levels(star) == [0] + [1] * (n - 1)


def test_hpd_light_level_bound_and_root_walk():
    rng = random.Random(151)
    n = 128
    g, parent = random_out_tree(rng, n)
    hpd = hpd_build(g)
    bound = int(math.log2(n))
    for v in range(n):
        # the light level, by walking to the root
        lv, x = 0, v
        while x != hpd.paths[0][0]:
            if not hpd.path_of[x][1]:  # rank 0 on its path: light
                lv += 1
            x = parent[x]
        assert lv <= bound
    # heavy paths partition the vertex set
    seen = sorted(v for p in hpd.paths for v in p)
    assert seen == list(range(n))
    # topmost vertex of each heavy path is light
    for p in hpd.paths:
        assert hpd.path_of[p[0]][1] == 0


def test_hpd_build_matches_brute_force_on_out_and_in_trees():
    # Sizes by parent chasing, the heavy-child rule (the first child in
    # ascending id whose subtree holds at least half of its parent's),
    # light levels within floor(lg n), and paths that partition the
    # vertices, numbered in the breadth-first order of their heads.
    rng = random.Random(157)
    cases = []
    for n in [1, 2, 2] + [rng.randrange(3, 90) for _ in range(30)]:
        perm = list(range(n))
        rng.shuffle(perm)
        par = [-1] + [rng.randrange(v) for v in range(1, n)]
        parent = [-1] * n
        for v in range(1, n):
            parent[perm[v]] = perm[par[v]]
        down = [(parent[v], v) for v in range(n) if parent[v] != -1]
        cases.append((Digraph(n, down, kind="out-tree"), parent))
        cases.append((Digraph(n, [(v, u) for u, v in down], kind="in-tree"), parent))
    for g, parent in cases:
        n = g.n
        hpd = hpd_build(g)
        root = parent.index(-1)
        assert hpd.paths[0][0] == root
        # v's heavy child is the next vertex on its path; v is heavy iff
        # its rank there is above 0
        heavy_child = [-1] * n
        for path in hpd.paths:
            for a, b in zip(path, path[1:]):
                heavy_child[a] = b
        is_heavy = [hpd.path_of[v][1] > 0 for v in range(n)]
        size = [0] * n
        for v in range(n):
            x = v
            while x != -1:
                size[x] += 1
                x = parent[x]
        bound = int(math.log2(n)) if n > 1 else 0
        order = [root]  # breadth first, children in ascending id
        for v in order:
            kids = [c for c in range(n) if parent[c] == v]
            order += kids
            heavy = [c for c in kids if 2 * size[c] >= size[v]]
            assert heavy_child[v] == (heavy[0] if heavy else -1), (g.kind, v)
            assert is_heavy[v] == (v != root and heavy_child[parent[v]] == v)
            lv, x = 0, v
            while x != root:
                lv += not is_heavy[x]
                x = parent[x]
            assert lv <= bound
        assert sorted(order) == list(range(n))
        heads = [v for v in order if not is_heavy[v]]
        assert [p[0] for p in hpd.paths] == heads
        # so the paths in turn are a topological order of the tree
        assert all(hpd.path_of[parent[p[0]]][0] < pid for pid, p in enumerate(hpd.paths) if pid)
        assert sorted(v for p in hpd.paths for v in p) == list(range(n))
        for pid, path in enumerate(hpd.paths):
            assert all(heavy_child[a] == b for a, b in zip(path, path[1:]))
            assert heavy_child[path[-1]] == -1
            assert all(hpd.path_of[v] == (pid, k) for k, v in enumerate(path))


def _ancestors(parent, b):
    x = b
    while x != -1:
        yield x
        x = parent[x]


def join_oracle(g1, g2, b):
    m1 = transitive_closure(g1)
    m2 = transitive_closure(g2)
    return sorted(a for a in range(g1.n) if m1[a] >> b & 1 and m2[a] >> b & 1)


def test_hpd_two_trees_same_tree_gives_ancestry():
    rng = random.Random(17)
    g, parent = random_out_tree(rng, 24)
    idx = hpd_two_trees_build(g, g)
    for b in range(24):
        got, _ = hpd_two_trees_report(idx, b)
        assert sorted(got) == sorted(_ancestors(parent, b))


def test_hpd_two_trees_disjoint_ancestry_reflexive_only():
    n = 8
    chain_down = Digraph(n, [(i, i + 1) for i in range(n - 1)], kind="out-tree")
    chain_up = Digraph(n, [(i + 1, i) for i in range(n - 1)], kind="in-tree")
    idx = hpd_two_trees_build(chain_down, chain_up)
    for b in range(n):
        got, _ = hpd_two_trees_report(idx, b)
        assert sorted(got) == [b]


def test_hpd_two_trees_matches_oracle():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randrange(2, 64)
        g1, _ = random_out_tree(rng, n)
        parent2 = [-1] + [rng.randrange(v) for v in range(1, n)]
        arcs2 = [(v, parent2[v]) for v in range(1, n)]
        g2 = Digraph(n, arcs2, kind="in-tree")
        idx = hpd_two_trees_build(g1, g2)
        for b in range(n):
            got, _ = hpd_two_trees_report(idx, b)
            assert sorted(got) == join_oracle(g1, g2, b)
        g3, _ = random_out_tree(rng, n)
        idx2 = hpd_two_trees_build(g1, g3)
        for b in range(n):
            got, _ = hpd_two_trees_report(idx2, b)
            assert sorted(got) == join_oracle(g1, g3, b)


def test_hpd_two_trees_probes_charge_only_reporting_heavy_paths():
    """Only heavy paths that report a vertex for b are listed and probed."""
    rng = random.Random(23)
    pairs = []
    for n in (1, 2, 9, 40, 120):
        g1, _ = random_out_tree(rng, n)
        parent2 = [-1] + [rng.randrange(v) for v in range(1, n)]
        pairs.append((g1, Digraph(n, [(v, parent2[v]) for v in range(1, n)], kind="in-tree")))
        pairs.append((g1, random_out_tree(rng, n)[0]))
        # chain against star, both ways round, sharing the root
        order = list(range(n))
        rng.shuffle(order)
        chain = list(zip(order, order[1:]))
        star = [(order[0], v) for v in order[1:]]
        pairs.append((Digraph(n, chain, kind="out-tree"),
                      Digraph(n, [(w, v) for v, w in star], kind="in-tree")))
        pairs.append((Digraph(n, star, kind="out-tree"),
                      Digraph(n, [(w, v) for v, w in chain], kind="in-tree")))
    for g1, g2 in pairs:
        idx = hpd_two_trees_build(g1, g2)
        levels = light_levels(g1)
        for b in range(g1.n):
            got, probes = hpd_two_trees_report(idx, b)
            assert sorted(got) == join_oracle(g1, g2, b)
            touched = idx.lists[b]
            assert all(getattr(struct, report)(*args)[0] for _, struct, report, args in touched), b
            level = levels[b]
            assert len(touched) <= probes <= 3 * len(got) + 3 * (level + 1), (b, probes)


def test_hpd_two_trees_rejects_wrong_classes():
    g_in = Digraph(3, [(1, 0), (2, 1)], kind="in-tree")
    g_out = Digraph(3, [(0, 1), (1, 2)], kind="out-tree")
    with pytest.raises(GraphClassError):
        hpd_two_trees_build(g_in, g_out)
