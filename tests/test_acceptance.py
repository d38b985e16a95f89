"""Acceptance suite: every release criterion as a test, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time

from joinreach.cover import min_path_cover
from joinreach.explicit import (
    build_pathcover,
    build_tree_path,
    build_two_paths,
    build_two_trees,
    build_unoriented_trees,
    verify_join_graph,
)
from joinreach.gen import (
    gen_bitreversal,
    rand_dag,
    rand_path,
    rand_sp_st,
    rand_tree,
    rand_upath,
    rand_utree,
)
from joinreach.graph import (
    Digraph,
    condense_pair,
    dfs_intervals,
    layer_decompose,
    transitive_closure,
)
from joinreach.jrindex import (
    index_hpd_two_trees,
    index_pathcover,
    index_planar_st,
    index_tree_path,
    index_two_paths,
    index_two_trees,
    kameda_labels,
)
from joinreach.minimal import and_closure, minimal_restricted_join

from layer_ref import layer_graphs
from test_hpd import light_levels


def logceil(n):
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def _pred_sets(g1, g2):
    m1 = transitive_closure(g1)
    m2 = transitive_closure(g2)
    n = g1.n
    rows = [a & b for a, b in zip(m1, m2)]
    cols = [[] for _ in range(n)]
    for a in range(n):
        row = rows[a]
        while row:
            b = (row & -row).bit_length() - 1
            row &= row - 1
            cols[b].append(a)
    return cols


def _c1_instances(cls, seed):
    rng = random.Random((cls, seed).__repr__())
    n = rng.randrange(2, 65)
    if cls == "two-paths":
        return rand_path(rng, n), rand_path(rng, n)
    if cls == "tree-path":
        kind = "out-tree" if seed % 2 == 0 else "in-tree"
        return rand_tree(rng, n, kind), rand_path(rng, n)
    if cls == "two-trees":
        mixes = [("out-tree", "out-tree"), ("out-tree", "in-tree"),
                 ("in-tree", "out-tree"), ("in-tree", "in-tree")]
        k1, k2 = mixes[seed % 4]
        return rand_tree(rng, n, k1), rand_tree(rng, n, k2)
    if cls == "unoriented-trees":
        return rand_utree(rng, n), rand_utree(rng, n)
    if cls == "pathcover-single":
        return rand_dag(rng, n, 0.25), rand_path(rng, n)
    return rand_dag(rng, n, 0.25), rand_dag(rng, n, 0.25)


_C1_BUILDERS = {
    "two-paths": build_two_paths,
    "tree-path": build_tree_path,
    "two-trees": build_two_trees,
    "unoriented-trees": build_unoriented_trees,
    "pathcover-single": build_pathcover,
    "pathcover-double": build_pathcover,
}


def test_criterion_1_explicit_oracle_equivalence():
    t0 = time.perf_counter()
    for cls, builder in _C1_BUILDERS.items():
        for seed in range(200):
            g1, g2 = _c1_instances(cls, seed)
            jg = builder(g1, g2)
            rep = verify_join_graph(jg, g1, g2)
            assert rep.ok, (cls, seed, rep.first_violation)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"\nACCEPTANCE 1: PASS - 200x{len(_C1_BUILDERS)} explicit builds verified "
          f"({dt:.1f}s)")


def _c2_instances(variant, seed):
    rng = random.Random((variant, seed).__repr__())
    n = rng.randrange(2, 65)
    if variant == "two-paths":
        if seed % 3 == 2:
            return rand_upath(rng, n), rand_upath(rng, n)
        return rand_path(rng, n), rand_path(rng, n)
    if variant == "tree-path-rooted":
        kind = "out-tree" if seed % 2 == 0 else "in-tree"
        return rand_tree(rng, n, kind), rand_path(rng, n)
    if variant == "tree-path-unoriented":
        p = rand_upath(rng, n) if seed % 2 else rand_path(rng, n)
        return rand_utree(rng, n), p
    if variant == "two-trees":
        shapes = [("out-tree", "out-tree"), ("out-tree", "in-tree"),
                  ("in-tree", "out-tree"), ("in-tree", "in-tree"),
                  ("utree", "utree"), ("out-tree", "utree")]
        k1, k2 = shapes[seed % 6]
        t1 = rand_utree(rng, n) if k1 == "utree" else rand_tree(rng, n, k1)
        t2 = rand_utree(rng, n) if k2 == "utree" else rand_tree(rng, n, k2)
        return t1, t2
    if variant == "pathcover":
        g1 = rand_dag(rng, n, 0.25)
        shape = seed % 3
        if shape == 0:
            return g1, rand_path(rng, n)
        if shape == 1:
            kind = "out-tree" if seed % 2 else "in-tree"
            return g1, rand_tree(rng, n, kind)
        return g1, rand_dag(rng, n, 0.25)
    return rand_sp_st(rng, n), rand_path(rng, n)


_C2_INDEXERS = {
    "two-paths": index_two_paths,
    "tree-path-rooted": index_tree_path,
    "tree-path-unoriented": index_tree_path,
    "two-trees": index_two_trees,
    "pathcover": index_pathcover,
    "planar-st": index_planar_st,
}


def test_criterion_2_implicit_oracle_equivalence():
    t0 = time.perf_counter()
    for variant, indexer in _C2_INDEXERS.items():
        for seed in range(100):
            g1, g2 = _c2_instances(variant, seed)
            idx = indexer(g1, g2)
            want = _pred_sets(g1, g2)
            for b in range(g1.n):
                assert idx.query(b) == want[b], (variant, seed, b)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"\nACCEPTANCE 2: PASS - 100x{len(_C2_INDEXERS)} index variants, every "
          f"query equals the closure-AND set ({dt:.1f}s)")


def test_criterion_3_two_paths_size_bound_and_build_time():
    timings = {}
    for exp in (8, 10, 12, 14):
        n = 1 << exp
        p1, p2 = gen_bitreversal(n)
        t0 = time.perf_counter()
        jg = build_two_paths(p1, p2)
        timings[n] = time.perf_counter() - t0
        assert jg.size <= 3 * n * (logceil(n) + 1), n
    assert timings[1 << 14] < 5.0
    print(f"\nACCEPTANCE 3: PASS - bitrev sizes within 3n(ceil(lg n)+1); "
          f"build at n=2^14 took {timings[1 << 14]:.2f}s")


def test_criterion_4_lower_bound_reproduction():
    for n, want in ((16, 32), (64, 192), (256, 1024)):
        p1, p2 = gen_bitreversal(n)
        out = minimal_restricted_join(p1, p2)
        assert out.m >= want, (n, out.m)
    print("\nACCEPTANCE 4: PASS - minimal join on bitrev has >= (n/2)lg n arcs "
          "for n in {16, 64, 256}")


def test_criterion_5_restricted_minimality():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randrange(2, 33)
        g1 = rand_dag(rng, n, 0.3)
        g2 = rand_dag(rng, n, 0.3)
        out = minimal_restricted_join(g1, g2)
        want = and_closure(transitive_closure(g1), transitive_closure(g2))
        assert transitive_closure(out) == want
        for drop in out.arcs:
            g3 = Digraph(n, [a for a in out.arcs if a != drop])
            assert transitive_closure(g3) != want, (seed, drop)
    print("\nACCEPTANCE 5: PASS - 50 DAG pairs: closure equals the AND and every "
          "arc is necessary")


def test_criterion_6_output_sensitivity():
    checked = 0
    for variant in ("two-paths", "tree-path-rooted", "pathcover"):
        for seed in range(100):
            g1, g2 = _c2_instances(variant, seed)
            if variant == "two-paths" and not g1.is_directed_path():
                continue
            idx = _C2_INDEXERS[variant](g1, g2)
            for b in range(g1.n):
                res, probes, _ = idx.query_counted(b)
                assert probes <= 6 * (len(res) + 1), (variant, seed, b, probes)
                checked += 1
    # orthogonal-segment case of two rooted trees
    for seed in range(100):
        rng = random.Random(("c6-seg", seed).__repr__())
        n = rng.randrange(2, 65)
        t1 = rand_tree(rng, n, "out-tree")
        t2 = rand_tree(rng, n, "in-tree")
        idx = index_two_trees(t1, t2)
        for b in range(n):
            res, probes, _ = idx.query_counted(b)
            assert probes <= 6 * (len(res) + 1), ("two-trees-out/in", seed, b)
            checked += 1
    # heavy-path index: out/in, out/out, and chain against star both ways
    for seed in range(100):
        rng = random.Random(("c6-hpd", seed).__repr__())
        n = rng.randrange(2, 65)
        t1 = rand_tree(rng, n, "out-tree")
        order = list(range(n))
        rng.shuffle(order)
        chain = Digraph(n, list(zip(order, order[1:])), kind="out-tree")
        star = Digraph(n, [(order[0], v) for v in order[1:]], kind="out-tree")
        for name, g1, g2 in (
            ("out/in", t1, rand_tree(rng, n, "in-tree")),
            ("out/out", t1, rand_tree(rng, n, "out-tree")),
            ("chain/star", chain, star),
            ("star/chain", star, chain),
        ):
            idx = index_hpd_two_trees(g1, g2)
            for b in range(n):
                res, probes, _ = idx.query_counted(b)
                assert probes <= 6 * (len(res) + 1), ("hpd-" + name, seed, b, probes)
                checked += 1
    print(f"\nACCEPTANCE 6: PASS - probe counts within 6(k+1) on {checked} queries")


def test_criterion_7_structural_invariants():
    lam_checked = light_checked = layer_checked = cond_checked = 0
    # DFS laminarity and light levels on the tree-path corpus
    for seed in range(200):
        t, _p = _c1_instances("tree-path", seed)
        s, t_ = dfs_intervals(t)
        n = t.n
        vals = sorted(s + t_)
        assert vals == list(range(1, 2 * n + 1))
        for a in range(n):
            for b in range(n):
                lo = max(s[a], s[b])
                hi = min(t_[a], t_[b])
                if lo <= hi:
                    assert (s[a] <= s[b] and t_[b] <= t_[a]) or (s[b] <= s[a] and t_[a] <= t_[b])
        lam_checked += 1
        bound = int(math.log2(n)) if n > 1 else 0
        assert all(lv <= bound for lv in light_levels(t))
        light_checked += 1
    # layer decomposition invariants on the unoriented-tree corpus
    for seed in range(200):
        g1, g2 = _c1_instances("unoriented-trees", seed)
        for g in (g1, g2):
            graphs = layer_graphs(g, layer_decompose(g, 0))
            counts = {v: 0 for v in range(g.n)}
            for lg in graphs:
                for idx_l, v in enumerate(lg.orig_of):
                    if v is not None and (idx_l != 0 or lg.index == 0):
                        counts[v] += 1
            assert max(counts.values()) <= 2
            assert sum(lg.digraph.size for lg in graphs) <= 4 * g.size
            layer_checked += 1
    # condensation preserves the join relation, including cyclified pairs
    for seed in range(200):
        g1, g2 = _c1_instances("pathcover-double", seed)
        rng = random.Random(("cyc", seed).__repr__())
        n = g1.n
        extra1 = [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
        extra2 = [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
        h1 = Digraph(n, list(g1.arcs) + extra1)
        h2 = Digraph(n, list(g2.arcs) + extra2)
        for a1, a2 in ((g1, g2), (h1, h2)):
            cp = condense_pair(a1, a2)
            want = and_closure(transitive_closure(a1), transitive_closure(a2))
            r1 = transitive_closure(cp.g1_hat)
            r2 = transitive_closure(cp.g2_hat)
            for a in range(n):
                sa = cp.sub_of[a]
                for b in range(n):
                    sb = cp.sub_of[b]
                    got = sa == sb or (bool(r1[sa] >> sb & 1) and bool(r2[sa] >> sb & 1))
                    assert got == bool(want[a] >> b & 1), (seed, a, b)
            cond_checked += 1
    print(
        "\nACCEPTANCE 7: PASS - laminarity x{}, light levels x{}, layers x{}, "
        "condensation x{}".format(lam_checked, light_checked, layer_checked, cond_checked)
    )


def test_criterion_8_kameda_label_property():
    for seed in range(50):
        rng = random.Random(("kameda", seed).__repr__())
        n = rng.randrange(2, 201)
        g = rand_sp_st(rng, n)
        l1, l2 = kameda_labels(g)  # build validates; re-check independently
        m = transitive_closure(g)
        for a in range(n):
            for b in range(n):
                want = bool(m[a] >> b & 1)
                got = l1[a] <= l1[b] and l2[a] <= l2[b]
                assert want == got, (seed, a, b)
    print("\nACCEPTANCE 8: PASS - label equivalence holds on 50 series-parallel "
          "st-graphs up to n=200")
