import gc
import hashlib
import math
import random
import re
import sys
import tracemalloc
from itertools import product

import pytest

from joinreach.explicit import (
    build_pathcover,
    build_tree_path,
    build_two_paths,
    build_two_trees,
    build_unoriented_trees,
    format_join,
    parse_join,
    tag_depth,
    verify_join_graph,
    JoinGraph,
)
from joinreach.cover import min_path_cover
from joinreach import classes
from joinreach.gen import gen_bitreversal, rand_dag, rand_path, rand_tree, rand_upath, rand_utree
from joinreach.graph import (
    Digraph,
    GraphClassError,
    dipath_of,
    parse_graph,
    split_unoriented_path,
    topo_order,
    transitive_closure,
)
from joinreach import graph as graph_mod
from test_graph_core import random_utree
from test_parse_fuzz import _valid_texts


# gen makes no zigzag path
def zigzag_path(n):
    """Unoriented path 0-1-...-(n-1) whose arcs alternate direction."""
    arcs = [(k, k + 1) if k % 2 == 0 else (k + 1, k) for k in range(n - 1)]
    return Digraph(n, arcs, kind="path")


def logceil(n):
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def test_two_paths_identical_and_reversed():
    rng = random.Random(1)
    p1 = rand_path(rng, 12)
    jg = build_two_paths(p1, p1)
    assert verify_join_graph(jg, p1, p1).ok
    p2 = Digraph(12, [(v, u) for u, v in p1.arcs], kind="path")
    jg2 = build_two_paths(p1, p2)
    assert verify_join_graph(jg2, p1, p2).ok
    # opposite orders relate nothing beyond reflexivity
    rows = transitive_closure(jg2.graph)
    for a in range(12):
        for b in range(12):
            if a != b:
                assert not rows[a] >> b & 1


def test_two_paths_bitrev_matches_dominance_scan():
    p1, p2 = gen_bitreversal(16)
    jg = build_two_paths(p1, p2)
    assert verify_join_graph(jg, p1, p2).ok
    m = transitive_closure(jg.graph)
    from joinreach.graph import path_order

    r1 = {v: r for r, v in enumerate(path_order(p1))}
    r2 = {v: r for r, v in enumerate(path_order(p2))}
    for a in range(16):
        for b in range(16):
            want = r1[a] <= r1[b] and r2[a] <= r2[b]
            assert bool(m[a] >> b & 1) == want


def test_two_paths_size_bound_and_random_instances():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(1, 65)
        p1 = rand_path(rng, n)
        p2 = rand_path(rng, n)
        jg = build_two_paths(p1, p2)
        assert verify_join_graph(jg, p1, p2).ok
        assert jg.size <= 3 * n * (logceil(n) + 1)


def test_two_paths_steiner_tags_stay_in_their_slab():
    n = 48
    rng = random.Random(33)
    out_tree, in_tree = rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")
    cases = [
        ("two-paths", build_two_paths(rand_path(rng, n), rand_path(rng, n))),
        ("tree-path", build_tree_path(out_tree, rand_path(rng, n))),
        ("tree-path", build_tree_path(in_tree, rand_path(rng, n))),
        # a random out/in pair keeps no relay; an out-tree with itself does
        ("two-trees", build_two_trees(out_tree, out_tree)),
        ("tree-path", build_tree_path(random_utree(rng, n), rand_path(rng, n))),
        ("pathcover", build_pathcover(rand_dag(rng, n, 0.1), rand_path(rng, n))),
    ]
    # tag format: <label>[;i<i>;j<j>[;rev]][;p<k>];d<depth>;h=<lo>..<hi>; the
    # slab at depth d is a ceil-halving of [0, m), where m <= n for the
    # members of a block pair and m <= 2n for a cover-path pair, whose h
    # ranks each x2 once as a sink and once as a source; so its width is at
    # most ceil(m / 2^d)
    for label, jg in cases:
        m = 2 * n if label == "pathcover" else n
        assert jg.steiner_count > 0, label
        for tag in jg.steiner_tags:
            parts = tag.split(";")
            assert parts[0] == label
            if label == "pathcover":
                assert parts[1][0] == "i" and parts[2][0] == "j" and len(parts) == 5, tag
            assert parts[-2][0] == "d" and parts[-1].startswith("h="), tag
            depth = int(parts[-2][1:])
            lo, hi = (int(x) for x in parts[-1][2:].split(".."))
            assert 0 <= lo < hi <= m
            assert hi - lo <= math.ceil(m / 2 ** depth)
    # two rooted trees that are not chains are wired in 3-D
    assert all(tag.split(";")[1][0] == "p" for tag in cases[3][1].steiner_tags)


def test_split_oriented_path_is_identity():
    p = dipath_of([2, 0, 1, 3])
    runs = split_unoriented_path(p)
    assert runs == [[2, 0, 1, 3]]


def test_split_alternating_path():
    # 0-1-2-3-4 with arcs 0->1, 2->1, 2->3, 4->3
    p = Digraph(5, [(0, 1), (2, 1), (2, 3), (4, 3)], kind="path")
    runs = split_unoriented_path(p)
    assert sorted(map(tuple, runs)) == [(0, 1), (2, 1), (2, 3), (4, 3)]


def test_split_random_paths_cover_and_multiplicity():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 51)
        seq = list(range(n))
        rng.shuffle(seq)
        arcs = []
        for a, b in zip(seq, seq[1:]):
            arcs.append((a, b) if rng.random() < 0.5 else (b, a))
        p = Digraph(n, arcs, kind="path")
        runs = split_unoriented_path(p)
        counts = {}
        arcset = set(p.arcs)
        for run in runs:
            for v in run:
                counts[v] = counts.get(v, 0) + 1
            for a, b in zip(run, run[1:]):
                assert (a, b) in arcset
        assert max(counts.values()) <= 2
        assert set(counts) == set(range(n))
        # every arc appears in exactly one run
        run_arcs = [(a, b) for run in runs for a, b in zip(run, run[1:])]
        assert sorted(run_arcs) == sorted(arcset)


def test_bitreversal_values():
    p1, p2 = gen_bitreversal(16)
    from joinreach.graph import path_order

    r2 = {v: r for r, v in enumerate(path_order(p2))}
    assert r2[1] == 8  # 0001 reversed over 4 bits is 1000
    assert r2[8] == 1
    # one-bit-difference dominated pairs number (n/2) * log2(n)
    r1 = {v: r for r, v in enumerate(path_order(p1))}
    pairs = 0
    for a in range(16):
        for b in range(16):
            if a == b:
                continue
            diff = r1[a] ^ r1[b]
            if diff and not (diff & (diff - 1)) and r1[a] < r1[b]:
                pairs += 1
    assert pairs == 32
    p1, p2 = gen_bitreversal(2)
    assert path_order(p2) == [0, 1]
    with pytest.raises(ValueError):
        gen_bitreversal(12)


def test_tree_path_chain_equals_order():
    chain = Digraph(6, [(i, i + 1) for i in range(5)], kind="out-tree")
    p = dipath_of(list(range(6)))
    jg = build_tree_path(chain, p)
    assert verify_join_graph(jg, chain, p).ok
    m = transitive_closure(jg.graph)
    for a in range(6):
        for b in range(6):
            assert bool(m[a] >> b & 1) == (a <= b)


def test_tree_path_star_with_root_last():
    n = 6
    star = Digraph(n, [(0, v) for v in range(1, n)], kind="out-tree")
    p = dipath_of(list(range(1, n)) + [0])  # root has minimal height
    jg = build_tree_path(star, p)
    assert verify_join_graph(jg, star, p).ok
    m = transitive_closure(jg.graph)
    for a in range(n):
        for b in range(n):
            assert bool(m[a] >> b & 1) == (a == b)


def test_tree_path_random_instances_both_orientations():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 49)
        kind = "out-tree" if rng.random() < 0.5 else "in-tree"
        t = rand_tree(rng, n, kind)
        p = rand_path(rng, n)
        jg = build_tree_path(t, p)
        assert verify_join_graph(jg, t, p).ok
        assert jg.size <= 3 * n * (logceil(n) + 1)


def test_two_trees_same_tree_is_ancestry():
    rng = random.Random(7)
    t = rand_tree(rng, 20, "out-tree")
    jg = build_two_trees(t, t)
    assert verify_join_graph(jg, t, t).ok


def test_two_trees_chain_second_matches_tree_path_relation():
    rng = random.Random(9)
    t = rand_tree(rng, 16, "out-tree")
    order = list(range(16))
    rng.shuffle(order)
    chain = Digraph(16, [(order[i], order[i + 1]) for i in range(15)], kind="out-tree")
    p = dipath_of(order)
    jg_tree = build_two_trees(t, chain)
    jg_path = build_tree_path(t, p)
    assert verify_join_graph(jg_tree, t, chain).ok
    m1 = transitive_closure(jg_tree.graph)
    m2 = transitive_closure(jg_path.graph)
    for a in range(16):
        for b in range(16):
            assert bool(m1[a] >> b & 1) == bool(m2[a] >> b & 1)


def test_two_trees_all_orientation_mixes():
    rng = random.Random(11)
    for _ in range(24):
        n = rng.randrange(2, 49)
        k1 = "out-tree" if rng.random() < 0.5 else "in-tree"
        k2 = "out-tree" if rng.random() < 0.5 else "in-tree"
        t1 = rand_tree(rng, n, k1)
        t2 = rand_tree(rng, n, k2)
        jg = build_two_trees(t1, t2)
        assert verify_join_graph(jg, t1, t2).ok, (n, k1, k2)
        assert jg.size <= 4 * n * (logceil(n) + 1) ** 2


def test_unoriented_trees_delegates_when_oriented():
    rng = random.Random(13)
    t1 = rand_tree(rng, 14, "in-tree")
    t2 = rand_tree(rng, 14, "out-tree")
    u1 = Digraph(14, t1.arcs, kind="utree")
    u2 = Digraph(14, t2.arcs, kind="utree")
    jg = build_unoriented_trees(u1, u2)
    assert verify_join_graph(jg, u1, u2).ok


def test_unoriented_trees_random_instances():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randrange(2, 41)
        g1 = random_utree(rng, n)
        g2 = random_utree(rng, n)
        p = rand_path(rng, n)
        z = zigzag_path(n)
        for a, b in ((g1, g2), (z, g2), (g1, z), (z, p), (p, z)):
            jg = build_unoriented_trees(a, b)
            assert verify_join_graph(jg, a, b).ok, n
            if z in (a, b):
                # a zigzag's runs are its arcs, so each of its block pairs
                # has at most two members and is wired without a relay
                assert jg.steiner_count == 0
        # a dipath is one chain block: each block pair is wired in 2-D
        for a in (g1, rand_upath(rng, n), z):
            jg = build_unoriented_trees(a, p)
            assert verify_join_graph(jg, a, p).ok, n
            assert jg.size <= 3 * n * (logceil(n) + 1), n


def test_pathcover_dipath_reduces_to_two_paths():
    rng = random.Random(17)
    p1 = rand_path(rng, 20)
    p2 = rand_path(rng, 20)
    g1 = Digraph(20, p1.arcs)  # same arcs, digraph kind: kappa = 1
    jg = build_pathcover(g1, p2)
    assert verify_join_graph(jg, g1, p2).ok
    mm = transitive_closure(jg.graph)
    ref = transitive_closure(build_two_paths(p1, p2).graph)
    for a in range(20):
        for b in range(20):
            assert bool(mm[a] >> b & 1) == bool(ref[a] >> b & 1)


def test_pathcover_antichain_is_reflexive_only():
    g1 = Digraph(10, [])
    p2 = dipath_of(list(range(10)))
    jg = build_pathcover(g1, p2)
    assert verify_join_graph(jg, g1, p2).ok
    m = transitive_closure(jg.graph)
    for a in range(10):
        for b in range(10):
            assert bool(m[a] >> b & 1) == (a == b)
    # a join with no arc is the bare vertex set, with no relay
    for n in (1, 2, 64):
        g1, p2 = Digraph(n, []), dipath_of(list(range(n)))
        jg = build_pathcover(g1, p2)
        assert (jg.steiner_count, jg.size) == (0, n), n


def test_pairs_with_an_empty_join_get_no_relay():
    # a dipath or out-tree against its reverse relates no two vertices
    rng = random.Random(45)
    for n in (1, 2, 64):
        p = rand_path(rng, n)
        t = rand_tree(rng, n, "out-tree")
        cases = [
            (build_two_paths, p, Digraph(n, [(v, u) for u, v in p.arcs], kind="path")),
            (build_two_trees, t, Digraph(n, [(v, u) for u, v in t.arcs], kind="in-tree")),
        ]
        for build, g1, g2 in cases:
            jg = build(g1, g2)
            assert verify_join_graph(jg, g1, g2).ok
            assert (jg.steiner_count, jg.size) == (0, n), (build.__name__, n)


def test_three_d_wiring_work_follows_the_output(monkeypatch):
    # The wiring kernel drops members that can never be wired before each
    # level and each meeting of a two-coordinate halving, so an out-tree
    # against its own reverse, which has nothing to wire, stops at once.
    # Without that, each of these builds made 47,104 wiring calls. A
    # meeting or half with no source or no sink left is not called at all,
    # nor is a half of one rank, which holds no source above a sink: the
    # bit-reversal pair made 2,048 such calls of its 4,095.
    import joinreach.explicit as ex

    stats = {"calls": 0, "depth": 0, "deepest": 0, "empty": 0, "unit": 0}
    nest = ex._nest_connect

    def counted(*args, **kwargs):
        stats["calls"] += 1
        if not (args[1] and args[2]):
            stats["empty"] += 1
        if args[6] - args[5] <= 1:
            stats["unit"] += 1
        stats["depth"] += 1
        stats["deepest"] = max(stats["deepest"], stats["depth"])
        try:
            return nest(*args, **kwargs)
        finally:
            stats["depth"] -= 1

    monkeypatch.setattr(ex, "_nest_connect", counted)
    n = 2048
    lg = logceil(n)
    rng = random.Random(53)
    t = rand_tree(rng, n, "out-tree")
    t_rev = Digraph(n, [(v, u) for u, v in t.arcs], kind="in-tree")
    out_t, in_t = rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")
    p1, p2 = gen_bitreversal(n)
    for g1, g2 in ((t, t_rev), (out_t, in_t), (in_t, out_t), (p1, p2)):
        stats.update(calls=0, deepest=0, empty=0, unit=0)
        build = build_two_paths if g1 is p1 else build_two_trees
        m = build(g1, g2).graph.m
        bound = 4 if g1 is t else 4 * (m + 1) * lg
        assert stats["calls"] <= bound, (g1.kind, m, stats)
        assert stats["empty"] == 0, (g1.kind, stats)
        assert stats["unit"] == 0, (g1.kind, stats)
        # two halvings deep at most, one per coordinate
        assert stats["deepest"] <= 2 * lg + 2, (g1.kind, stats)


def _laminar_ends(rng, m):
    """end[p] for m walk positions whose ranges p..end[p] nest: a random
    forest laid out in preorder."""
    end = list(range(m))
    stack = []
    for p in range(m):
        while stack and rng.random() < 0.4:
            stack.pop()
        for q in stack:
            end[q] = p
        stack.append(p)
    return end


def _live_by_sets(srcs, snks, end, h):
    """The stack walk `_live` replaced: list stack entries, set membership
    per position and a final filter; kept as its oracle."""
    is_src, is_snk = set(srcs), set(snks)
    live, k_live = set(), []
    stack = []  # enclosing sources: [end, source, max h on the stack, min sink h]
    for p in sorted(is_src | is_snk) + [len(end)]:
        while stack and stack[-1][0] < p:
            _, s, _, low = stack.pop()
            if low < h[s]:
                live.add(s)
            if stack:
                stack[-1][3] = min(stack[-1][3], low)
        if p in is_src:
            stack.append([end[p], p, max(h[p], stack[-1][2]) if stack else h[p], len(h)])
        if p in is_snk and stack:
            if stack[-1][2] > h[p]:
                k_live.append(p)
            stack[-1][3] = min(stack[-1][3], h[p])
    return [p for p in srcs if p in live], k_live


def test_live_matches_the_set_walk():
    from joinreach.explicit import _live

    rng = random.Random(67)
    for trial in range(3000):
        m = rng.randrange(1, 48)
        end = _laminar_ends(rng, m)
        # distinct ranks, as the two-coordinate wiring passes, or ties
        h = rng.sample(range(m), m) if trial % 2 else [rng.randrange(m) for _ in range(m)]
        srcs = [p for p in range(m) if rng.random() < 0.7]
        snks = srcs if trial % 3 == 0 else [p for p in range(m) if rng.random() < 0.7]
        assert _live(srcs, snks, end, h) == _live_by_sets(srcs, snks, end, h), trial


def assert_relays_pay(jg):
    """A relay with i in-arcs and o out-arcs stands for i * o direct arcs
    at the cost of i + o arcs and itself, so every kept one has
    i * o > i + o."""
    g, n = jg.graph, jg.n_original
    for v in range(n, g.n):
        i, o = len(g.inn[v]), len(g.out[v])
        assert i * o > i + o, (i, o, jg.steiner_tags[v - n])


def test_no_relay_costs_more_than_its_direct_arcs():
    rng = random.Random(71)
    steiner = {}
    for n in (2, 5, 16, 37, 64, 128):
        order = rng.sample(range(n), n)
        chain = Digraph(n, list(zip(order, order[1:])), kind="out-tree")
        star = Digraph(n, [(order[0], v) for v in order[1:]], kind="out-tree")
        cases = [
            (build_two_paths, rand_path(rng, n), rand_path(rng, n)),
            (build_two_paths, rand_upath(rng, n), rand_path(rng, n)),
            (build_tree_path, rand_tree(rng, n, "out-tree"), rand_path(rng, n)),
            (build_tree_path, rand_tree(rng, n, "in-tree"), rand_path(rng, n)),
            (build_two_trees, chain, star),
            (build_two_trees, star, chain),
            (build_unoriented_trees, zigzag_path(n), rand_upath(rng, n)),
            (build_unoriented_trees, random_utree(rng, n), zigzag_path(n)),
            (build_unoriented_trees, random_utree(rng, n), rand_path(rng, n)),
            (build_pathcover, rand_dag(rng, n, 0.2), rand_path(rng, n)),
            (build_pathcover, rand_dag(rng, n, 0.2), rand_dag(rng, n, 0.2)),
            (build_pathcover, rand_dag(rng, n, 0.2), rand_tree(rng, n, "out-tree")),
        ]
        cases += [(build_two_trees, rand_tree(rng, n, k1), rand_tree(rng, n, k2))
                  for k1, k2 in product(("out-tree", "in-tree"), repeat=2)]
        t = rand_tree(rng, n, "out-tree")
        cases.append((build_two_trees, t, t))  # random pairs keep few relays; this keeps some
        if not n & (n - 1):
            cases.append((build_two_paths, *gen_bitreversal(n)))
        for build, g1, g2 in cases:
            jg = build(g1, g2)
            assert verify_join_graph(jg, g1, g2).ok, (build.__name__, n)
            assert_relays_pay(jg)
            steiner[build.__name__] = steiner.get(build.__name__, 0) + jg.steiner_count
    # the check runs on kept relays of every builder
    assert all(steiner.values()) and len(steiner) == 5, steiner


def test_nest_connect_matches_brute_force_in_one_to_three_coordinates(monkeypatch):
    # Source p reaches sink q directly when q lies in p's range and
    # strictly below p in every coordinate. Original a must reach original
    # b through the kernel's arcs exactly when the transitive closure of
    # that relation holds.
    import joinreach.explicit as ex

    depth = {"now": 0, "deepest": 0}
    nest = ex._nest_connect

    def counted(*args, **kwargs):
        depth["now"] += 1
        depth["deepest"] = max(depth["deepest"], depth["now"])
        try:
            return nest(*args, **kwargs)
        finally:
            depth["now"] -= 1

    monkeypatch.setattr(ex, "_nest_connect", counted)
    rng = random.Random(59)
    for trial in range(240):
        k = 1 + trial % 3
        m = rng.randrange(1, 40)
        end = _laminar_ends(rng, m)
        hs = tuple([rng.randrange(m) for _ in range(m)] for _ in range(k))
        srcs = [p for p in range(m) if rng.random() < 0.7]
        snks = srcs if trial % 4 == 0 else [p for p in range(m) if rng.random() < 0.7]
        b = ex._Builder(m)
        depth["deepest"] = 0
        ex._nest_connect(b, srcs, snks, end, hs, 0, m, list(range(m)), "t")
        jg = b.finish()

        is_snk = set(snks)
        want = Digraph(m, [(p, q) for p in srcs for q in range(p, end[p] + 1)
                           if q in is_snk and all(h[q] < h[p] for h in hs)])
        got = transitive_closure(jg.graph)[:m]
        mask = (1 << m) - 1
        assert [r & mask for r in got] == transitive_closure(want), (trial, k, m)
        for t in jg.steiner_tags:
            assert re.search(r";d\d+;h=\d+\.\.\d+$", t), t
        assert depth["deepest"] <= k * (logceil(m) + 1), (trial, k, m, depth)


def assert_relays_live(jg):
    """Every Steiner vertex is reached from an original vertex and reaches
    one, so none is dead weight."""
    g, n = jg.graph, jg.n_original
    for adj in (g.out, g.inn):
        seen = [False] * g.n
        stack = list(range(n))
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        dead = [v for v in range(n, g.n) if not seen[v]]
        assert not dead, (len(dead), jg.steiner_tags[dead[0] - n])


def _tree_mix(rng, kind, n):
    if kind == "dipath":
        return rand_path(rng, n)
    if kind == "upath":
        return rand_upath(rng, n)
    if kind == "zigzag":
        return zigzag_path(n)
    if kind == "utree":
        return random_utree(rng, n)
    return rand_tree(rng, n, kind)


def test_every_relay_is_live():
    rng = random.Random(47)
    shapes = ("dipath", "upath", "zigzag", "out-tree", "in-tree", "utree")
    for n in (1, 2, 3, 6, 13, 24, 48):
        for k1, k2 in product(shapes, repeat=2):
            g1, g2 = _tree_mix(rng, k1, n), _tree_mix(rng, k2, n)
            jg = build_unoriented_trees(g1, g2)
            assert verify_join_graph(jg, g1, g2).ok, (k1, k2, n)
            assert_relays_live(jg)
    n = 2
    while n <= 256:
        p1, p2 = gen_bitreversal(n)
        jg = build_two_paths(p1, p2)
        assert_relays_live(jg)
        n *= 2
    for _ in range(10):
        n = rng.randrange(2, 49)
        g1 = rand_dag(rng, n, 0.15)
        for g2 in (rand_path(rng, n), rand_dag(rng, n, 0.15), rand_tree(rng, n, "out-tree")):
            jg = build_pathcover(g1, g2)
            assert verify_join_graph(jg, g1, g2).ok
            assert_relays_live(jg)


def test_pathcover_random_dag_and_path():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randrange(2, 41)
        g1 = rand_dag(rng, n, 0.25)
        p2 = rand_path(rng, n)
        jg = build_pathcover(g1, p2)
        assert verify_join_graph(jg, g1, p2).ok


def test_pathcover_two_dags():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randrange(2, 41)
        g1 = rand_dag(rng, n, 0.3)
        g2 = rand_dag(rng, n, 0.3)
        jg = build_pathcover(g1, g2)
        assert verify_join_graph(jg, g1, g2).ok
        k1 = min_path_cover(g1).kappa
        k2 = min_path_cover(g2).kappa
        bound = 4 * (k1 * k2 + 1) * n * (logceil(n) + 2)
        assert jg.size <= bound


def test_pathcover_rejects_cycles():
    cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(Exception):
        build_pathcover(cyc, dipath_of([0, 1, 2]))


def test_verify_detects_mutations():
    chain = dipath_of([0, 1, 2, 3])
    jg = build_two_paths(chain, chain)
    assert verify_join_graph(jg, chain, chain).ok
    # drop one arc on the unique witness path 0 -> 1
    g = jg.graph
    needed = None
    for drop in g.arcs:
        g2 = Digraph(g.n, [a for a in g.arcs if a != drop])
        rep = verify_join_graph(JoinGraph(g2, jg.n_original, jg.steiner_tags), chain, chain)
        if not rep.ok:
            needed = rep
            break
    assert needed is not None
    a, b, kind = needed.first_violation
    assert kind == "missing"
    # spurious arc: join graph claiming 3 reaches 0
    g3 = Digraph(g.n, list(g.arcs) + [(3, 0)])
    rep = verify_join_graph(JoinGraph(g3, jg.n_original, jg.steiner_tags), chain, chain)
    assert not rep.ok
    assert rep.first_violation[2] == "spurious"


def _bfs_report(jg, g1, g2):
    """verify_join_graph's report, from a BFS over the join graph per original."""
    n = jg.n_original
    want = [x & y for x, y in zip(transitive_closure(g1), transitive_closure(g2))]
    g = jg.graph
    for a in range(n):
        seen = {a}
        queue = [a]
        for v in queue:
            for w in g.out[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        for b in range(n):
            if (b in seen) != bool(want[a] >> b & 1):
                return False, (a, b, "spurious" if b in seen else "missing"), n * n
    return True, None, n * n


def test_verify_matches_bfs_on_perturbed_join_graphs():
    rng = random.Random(53)
    builds = []
    for _ in range(12):
        n = rng.randrange(2, 20)
        g1, g2 = rand_path(rng, n), rand_path(rng, n)
        builds.append((build_two_paths(g1, g2), g1, g2))
        kinds = ("out-tree", "in-tree")
        g1, g2 = rand_tree(rng, n, rng.choice(kinds)), rand_tree(rng, n, rng.choice(kinds))
        builds.append((build_two_trees(g1, g2), g1, g2))
        g1, g2 = rand_dag(rng, n, 0.25), rand_dag(rng, n, 0.25)
        builds.append((build_pathcover(g1, g2), g1, g2))
    cyclic = steiner_cycles = 0
    for jg, g1, g2 in builds:
        g = jg.graph
        n = jg.n_original
        variants = [list(g.arcs)]
        # a cycle through Steiner vertices only: reverse a Steiner-Steiner arc,
        # or join two Steiner vertices both ways
        inner = [(u, v) for u, v in g.arcs if u >= n and v >= n]
        if inner:
            u, v = rng.choice(inner)
            variants.append(list(g.arcs) + [(v, u)])
        elif g.n - n >= 2:
            u, v = rng.sample(range(n, g.n), 2)
            variants.append(list(g.arcs) + [(u, v), (v, u)])
        for _ in range(3):
            extra = [tuple(rng.sample(range(g.n), 2)) for _ in range(rng.randrange(1, 4))]
            kept = [arc for arc in g.arcs if rng.random() < 0.9]
            variants.append(kept + extra)
        for arcs in variants:
            h = Digraph(g.n, arcs)
            if topo_order(h) is None:
                cyclic += 1
                sub = Digraph(g.n, [(u, v) for u, v in h.arcs if u >= n and v >= n])
                steiner_cycles += topo_order(sub) is None
            rep = verify_join_graph(JoinGraph(h, n, jg.steiner_tags), g1, g2)
            assert (rep.ok, rep.first_violation, rep.pairs_checked) == _bfs_report(
                JoinGraph(h, n, jg.steiner_tags), g1, g2)
    assert cyclic and steiner_cycles and cyclic < len(builds) * 5


def test_join_format_roundtrip():
    p1, p2 = gen_bitreversal(8)
    # spaces around a tag line change nothing: the tag is read unpadded
    padded = parse_join("2 1 digraph\n0 1\nsteiner 1\n  t;d3;h=0..1  \n")
    assert padded.steiner_tags == ["t;d3;h=0..1"] and tag_depth(padded.steiner_tags[0]) == 3
    for jg in (build_two_paths(p1, p2), padded):
        jg2 = parse_join(format_join(jg))
        assert jg2.n_original == jg.n_original
        assert jg2.graph.arcs == jg.graph.arcs
        assert jg2.steiner_tags == jg.steiner_tags


def _cyclic_digraph(rng, n):
    """A random digraph with about 1.5 arcs per vertex: cyclic for most n."""
    return Digraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n // 2)])


# Seeded pairs that take every builder and every wiring path: one rank
# array (a dipath pair, an out-tree with a dipath), two (out/in trees,
# and an out-tree with itself, which keeps relays), a reversed pair (an
# in-tree first), in-core layer blocks (a zigzag path, a random
# unoriented tree), path-cover walks with few sources, and a cyclic pair
# built on its condensation.
JOIN_PIN_CASES = {
    "dipath-dipath": lambda r, n: build_two_paths(rand_path(r, n), rand_path(r, n)),
    "out-tree-dipath": lambda r, n: build_tree_path(rand_tree(r, n, "out-tree"), rand_path(r, n)),
    "out-in-trees": lambda r, n: build_two_trees(rand_tree(r, n, "out-tree"),
                                                  rand_tree(r, n, "in-tree")),
    "out-tree-twice": lambda r, n: build_two_trees(*[rand_tree(r, n, "out-tree")] * 2),
    "in-tree-dipath": lambda r, n: build_tree_path(rand_tree(r, n, "in-tree"), rand_path(r, n)),
    "zigzag-upath": lambda r, n: build_unoriented_trees(zigzag_path(n), rand_upath(r, n)),
    "utree-dipath": lambda r, n: build_unoriented_trees(rand_utree(r, n), rand_path(r, n)),
    # fringes on the second block, which the cases above never have
    "dipath-utree": lambda r, n: build_unoriented_trees(rand_path(r, n), rand_utree(r, n)),
    "utree-utree": lambda r, n: build_unoriented_trees(rand_utree(r, n), rand_utree(r, n)),
    "dag-dipath": lambda r, n: build_pathcover(rand_dag(r, n, 0.2), rand_path(r, n)),
    "dag-dag": lambda r, n: build_pathcover(rand_dag(r, n, 0.2), rand_dag(r, n, 0.2)),
    "cyclic-pair": lambda r, n: classes.build(_cyclic_digraph(r, n), _cyclic_digraph(r, n)),
}
JOIN_PIN_SIZES = (1, 2, 5, 16, 45, 200)
# SHA-256 over `format_join` of each case at JOIN_PIN_SIZES, recorded
# before the wiring kernel wrote adjacency rows: a change to any arc,
# Steiner id or tag changes its digest.
PINNED_JOIN_DIGESTS = {
    "dipath-dipath": "487e5ee4e4e16ba526883113aab6b2174883a625878379dd030deb456f8379ca",
    "out-tree-dipath": "ed7dc814351cc94f3f98109343be0c852442d540157f759d83ea2e7e685370e8",
    "out-in-trees": "07aa366a2b2f92b74796209904c60c0a6d0bdc5fc0f62ab1fa3ed6de5d531459",
    "out-tree-twice": "9be19bb6e2510b0740fc9fe9fa5eefd69acd281cf5ca346f7954234983168c2c",
    "in-tree-dipath": "c736b472d511c3d18659b8d11296815940ad0b17018de7a01c5b8a2b07d47f45",
    "zigzag-upath": "ab42a3238d86521fa02de03adb6d0403b27b251c07e9d34ae10dff7fcb11db28",
    "utree-dipath": "2c2adb8dd00cba750a4060ce08e679d6bf865b621abd22ba3a76d10799b46d29",
    "dipath-utree": "e47ebd2f843dec94fb47df4d23ff21ce4860a77ebee0765cb98e2ddb57f3589f",
    "utree-utree": "d4915a5f412be20f79ace500d2217dc87f562423c34576f35a4191c01cb2c7db",
    "dag-dipath": "ce33b8051e536b27ac53471cfe170b71d22165fa9defdc727e17ef57dd23a23d",
    "dag-dag": "0a7e8c5fba14f4b121562044af05c7d985cba8c621f070a09f58099eff35c9ba",
    "cyclic-pair": "8d387ff456e35a59130300c8ff0405b13dd59e2b1abe55f32db9e96767ed5192",
}


def test_joins_build_as_pinned():
    assert set(PINNED_JOIN_DIGESTS) == set(JOIN_PIN_CASES)
    for name, make in JOIN_PIN_CASES.items():
        h = hashlib.sha256()
        for n in JOIN_PIN_SIZES:
            h.update(format_join(make(random.Random(f"{name};{n}"), n)).encode())
        assert h.hexdigest() == PINNED_JOIN_DIGESTS[name], name


def _perturbed(rng, text):
    """(name, text) pairs: `text` with its arc lines shuffled, one of them
    repeated, a self-loop line added, padded graph-section lines between
    blank ones, CRLF line ends, and all of these at once."""
    lines = text.splitlines()
    n, m, kind = lines[0].split()
    arc_lines, rest = lines[1 : 1 + int(m)], lines[1 + int(m) :]
    loop = list(arc_lines)
    loop.insert(rng.randrange(len(loop) + 1), f"{rng.randrange(int(n))} " * 2)
    mixed = rng.sample(loop, len(loop)) + [rng.choice(arc_lines)]

    def text_of(arc_lines, pad="", sep="\n"):
        section = [f"{n} {len(arc_lines)} {kind}"] + arc_lines
        padded = [pad + ln.replace(" ", " " + pad) + pad for ln in section]
        blank = sep + pad + sep if pad else sep
        return blank.join(padded + rest) + sep

    return [
        ("shuffled", text_of(rng.sample(arc_lines, len(arc_lines)))),
        ("repeat", text_of(arc_lines + [rng.choice(arc_lines)])),
        ("loop", text_of(loop)),
        ("padded", text_of(arc_lines, pad=" \t ")),
        ("crlf", text_of(arc_lines, sep="\r\n")),
        ("all", text_of(mixed, pad="  ", sep="\r\n")),
    ]


def _arc_section(text):
    """(n, kind, arcs) read back from a graph section's lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, m, kind = lines[0].split()
    return int(n), kind, [tuple(map(int, ln.split())) for ln in lines[1 : 1 + int(m)]]


def test_parsed_arcs_normalize_as_the_constructor_does(monkeypatch):
    arcs = [(3, 1), (0, 2), (3, 1), (2, 2), (1, 0), (0, 2), (2, 3)]
    section = f"4 {len(arcs)} digraph\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    want = Digraph(4, arcs)
    jg = parse_join(section + "steiner 1\nt;d0;h=0..1\n")
    assert jg.n_original == 3
    for g in (parse_graph(section), jg.graph):
        assert (g.n, g.m, g.kind, g.out, g.inn) == (4, 4, "digraph", want.out, want.inn)
    # Every valid fuzz text, perturbed: each parse equals the constructor's
    # graph of the arcs as the file lists them. A repeated line puts a row
    # out of order, so the rows are sorted; a self-loop, padding and CRLF
    # ends leave every row ascending, so they are not.
    sorts = []
    sorted_rows = graph_mod._sorted_rows
    monkeypatch.setattr(graph_mod, "_sorted_rows", lambda rows: sorts.append(1) or sorted_rows(rows))
    rng = random.Random(32)
    for text, parse in _valid_texts():
        plain = parse(text)
        for name, variant in _perturbed(rng, text):
            before = len(sorts)
            got = parse(variant)
            sorted_here = len(sorts) > before
            if parse is parse_join:
                assert (got.n_original, got.steiner_tags) == (plain.n_original, plain.steiner_tags)
                got, plain_graph = got.graph, plain.graph
            else:
                plain_graph = plain
            n, kind, arcs = _arc_section(variant)
            want = Digraph(n, arcs, kind, out_order=plain_graph.out_order)
            assert (got.out, got.m, got.kind, got.out_order) == (want.out, want.m, want.kind, want.out_order), name
            assert got.out == plain_graph.out, name
            if name in ("repeat", "all"):
                assert sorted_here, name
            elif name != "shuffled":
                assert not sorted_here, name


def _held_bytes(make, rows):
    """(bytes freed by dropping the graph make() returns, its n and m, the
    bound of a layout of `rows` row tuples per vertex). Traced from
    before the graph is made, so every block it holds is counted."""
    tracemalloc.start()
    try:
        g = make()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        n, m = g.n, g.m
        # The row layout: per vertex `rows` row tuples, each referenced
        # from its outer tuple, and one int; per arc one pointer in each
        # of its rows. An int's struct is padded to a whole pointer.
        # Vertices with no row entries or ids below 257 (cached ints)
        # hold less.
        empty = sys.getsizeof(())
        ptr = sys.getsizeof((0,)) - empty
        int_size = -(-sys.getsizeof(n) // ptr) * ptr
        bound = (n * (rows * (empty + ptr) + int_size) + m * rows * ptr
                 + rows * empty + sys.getsizeof(g))
        del g
        gc.collect()
        return before - tracemalloc.get_traced_memory()[0], n, m, bound
    finally:
        tracemalloc.stop()


def test_a_built_and_a_parsed_join_hold_only_their_rows():
    # A verified join holds its out rows alone: verification walks them
    # and counts in-degrees off them, so no in row is built (at most 27.6
    # bytes per (n + m) here, against 46.5 with both rows). Once `inn` is
    # read the in rows are kept, and they reuse the graph's one int per
    # vertex: without that, each tail above 256 would be a fresh int.
    p1, p2 = gen_bitreversal(1 << 12)
    text = format_join(build_two_paths(p1, p2))

    def verified(make):
        jg = make()
        assert verify_join_graph(jg, p1, p2).ok
        return jg.graph

    def in_rows_read(make):
        g = verified(make)
        assert len(g.inn) == g.n
        return g

    for what, make in (("built", lambda: build_two_paths(p1, p2)),
                       ("parsed", lambda: parse_join(text))):
        for rows, held_graph in ((1, verified), (2, in_rows_read)):
            held, n, m, bound = _held_bytes(lambda: held_graph(make), rows)
            assert held <= bound, (what, rows, n, m, held / (n + m), bound / (n + m))


def test_builders_reject_mismatched_sizes():
    with pytest.raises(ValueError):
        build_two_paths(dipath_of([0, 1]), dipath_of([0, 1, 2]))
    with pytest.raises(GraphClassError):
        build_tree_path(Digraph(3, [(0, 1), (0, 2)]), dipath_of([0, 1, 2]))
