import random
import sys

import pytest

from joinreach.cover import (
    PathCover,
    from_ranks,
    min_path_cover,
    paths_against_tree,
)
from joinreach.gen import rand_dag, rand_tree
from joinreach.graph import CyclicGraphError, Digraph, transitive_closure


def matching_oracle(g):
    """Independent max-matching size via simple alternating BFS search."""
    n = g.n
    match_of_right = {}

    def try_augment(u, banned):
        for v in g.out[u]:
            if v in banned:
                continue
            banned.add(v)
            if v not in match_of_right or try_augment(match_of_right[v], banned):
                match_of_right[v] = u
                return True
        return False

    size = 0
    for u in range(n):
        if try_augment(u, set()):
            size += 1
    return size


def assert_valid_cover(g, pc):
    seen = sorted(v for p in pc.paths for v in p)
    assert seen == list(range(g.n))
    arcset = set(g.arcs)
    for path in pc.paths:
        for a, b in zip(path, path[1:]):
            assert (a, b) in arcset
    for pid, path in enumerate(pc.paths):
        for rank, v in enumerate(path):
            assert pc.path_of[v] == (pid, rank)


def test_cover_of_dipath_is_single_path():
    g = Digraph(7, [(i, i + 1) for i in range(6)])
    pc = min_path_cover(g)
    assert pc.kappa == 1
    assert pc.paths[0] == list(range(7))


def test_cover_of_antichain_is_n_paths():
    g = Digraph(9, [])
    pc = min_path_cover(g)
    assert pc.kappa == 9


def test_cover_rejects_cycles():
    with pytest.raises(CyclicGraphError):
        min_path_cover(Digraph(3, [(0, 1), (1, 2), (2, 0)]))


def test_cover_minimality_matches_matching_oracle():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randrange(2, 31)
        g = rand_dag(rng, n, 0.25)
        pc = min_path_cover(g)
        assert_valid_cover(g, pc)
        assert pc.kappa == n - matching_oracle(g)
    for n in (60, 120, 200):
        for p in (1.5 / n, 4.0 / n, 0.1):
            g = rand_dag(rng, n, p)
            pc = min_path_cover(g)
            assert_valid_cover(g, pc)
            assert pc.kappa == n - matching_oracle(g)


@pytest.mark.parametrize(
    "g, kappa",
    [
        (Digraph(1, []), 1),
        (Digraph(2, []), 2),
        (Digraph(2, [(1, 0)]), 1),
        (Digraph(5, []), 5),
    ],
)
def test_cover_edge_cases(g, kappa):
    pc = min_path_cover(g)
    assert_valid_cover(g, pc)
    assert pc.kappa == kappa


def test_cover_of_long_ladder_keeps_recursion_limit():
    half = 1 << 14
    arcs = [(i, i + 1) for i in range(half - 1)]
    arcs += [(half + i, half + i + 1) for i in range(half - 1)]
    arcs += [(i, half + i) for i in range(half)]
    g = Digraph(2 * half, arcs)
    limit = sys.getrecursionlimit()
    pc = min_path_cover(g)
    assert sys.getrecursionlimit() == limit
    assert pc.kappa == 2
    assert_valid_cover(g, pc)


def test_from_ranks_reflexive_and_sources():
    rng = random.Random(81)
    g = rand_dag(rng, 20, 0.2)
    pc = min_path_cover(g)
    fr = from_ranks(g, pc)
    for v in range(20):
        pid, rank = pc.path_of[v]
        assert fr[v].get(pid) is not None and fr[v].get(pid) >= rank
        if not g.inn[v]:
            for i in range(pc.kappa):
                if i != pid:
                    assert fr[v].get(i) is None


def test_from_ranks_match_closure_scan():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randrange(2, 36)
        g = rand_dag(rng, n, 0.2)
        pc = min_path_cover(g)
        fr = from_ranks(g, pc)
        m = transitive_closure(g)
        for v in range(n):
            for i, path in enumerate(pc.paths):
                ranks = [r for r, z in enumerate(path) if m[z] >> v & 1]
                want = max(ranks) if ranks else None
                assert fr[v].get(i) == want
        # monotone along arcs
        for u, v in g.arcs:
            for i in range(pc.kappa):
                fu, fv = fr[u].get(i), fr[v].get(i)
                if fu is not None:
                    assert fv is not None and fu <= fv


def cover_of(paths):
    return PathCover(paths, [pr for _, pr in sorted((v, (i, r)) for i, p in enumerate(paths) for r, v in enumerate(p))])


def out_tree_lists_by_scan(paths, rows, tree):
    """lists[b] of `paths_against_tree` for an out-tree, as (key, args):
    path i reports for b iff one of its vertices on b's root path, b
    included, has rank at most f = rows[b][i]."""
    up = [None] * tree.n
    for u, row in enumerate(tree.out):
        for v in row:
            up[v] = u
    on = {v: (i, r) for i, path in enumerate(paths) for r, v in enumerate(path)}
    lists = []
    for b, row in enumerate(rows):
        anc = [b]
        while up[anc[-1]] is not None:
            anc.append(up[anc[-1]])
        lists.append([
            (i, f) for i, f in row.items()
            if min((on[a][1] for a in anc if on[a][0] == i), default=tree.n) <= f
        ])
    return lists


def test_paths_against_tree_nested_root_paths():
    """The emptiness test of an out-tree second at nested DFS spans:
    root 3 above the chain 0 -> 1 -> 2, leaf 4 beside it, and path 0 of
    the cover holding 4, 2, 1, 0 at ranks 0..3. Its smallest rank on the
    root path is none at the root (above the first span), 3, 2, 1 down the
    chain (strictly inside the nested spans) and 0 at the leaf (a
    disjoint span). With 1 and 0 swapped on the path, 1's larger rank
    hides behind 0's."""
    tree = Digraph(5, [(3, 0), (0, 1), (1, 2), (3, 4)], kind="out-tree")
    root_path = {3: [], 0: [0], 1: [0, 1], 2: [0, 1, 2], 4: [4]}
    for path, low in (
        ([4, 2, 1, 0], {3: None, 0: 3, 1: 2, 2: 1, 4: 0}),
        ([4, 2, 0, 1], {3: None, 0: 2, 1: 2, 2: 1, 4: 0}),
    ):
        for f in range(4):
            lists = paths_against_tree(cover_of([path, [3]]), [{0: f} for _ in range(5)], tree)
            for b, want in low.items():
                assert bool(lists[b]) == (want is not None and want <= f), (path, b, f)
                for _, struct, report, args in lists[b]:
                    got = getattr(struct, report)(*args)[0]
                    assert sorted(got) == [v for v in root_path[b] if path.index(v) <= f]


def test_paths_against_tree_out_tree_lists_match_scan():
    rng = random.Random(87)
    for _ in range(40):
        n = rng.randrange(1, 40)
        tree = rand_tree(rng, n, "out-tree")
        vs = list(range(n))
        rng.shuffle(vs)
        cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
        paths = [vs[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        rows = [
            {i: rng.randrange(len(paths[i])) for i in rng.sample(range(len(paths)), rng.randrange(len(paths) + 1))}
            for _ in range(n)
        ]
        lists = paths_against_tree(cover_of(paths), rows, tree)
        got = [[(key[0], args[2]) for key, _, _, args in row] for row in lists]
        assert got == out_tree_lists_by_scan(paths, rows, tree)
