"""Metamorphic checks across index routes, with no oracle.

Swapping a pair, relabelling both graphs, or reversing both graphs moves
a pair to another route or another structure: reversal turns out/out
enclosure into in/in range trees, and an out-tree sweep against a chain
into an in-tree Cartesian tree. The answers must move as the relation
does, so each route is checked against the others.
"""

import random
from itertools import product

from joinreach import classes
from joinreach.gen import generate
from joinreach.graph import Digraph
from joinreach.jrindex import index_hpd_two_trees

KINDS = ("path", "utree-random", "out-tree", "in-tree", "dag-gnp", "sp-st")
FLIP = {"out-tree": "in-tree", "in-tree": "out-tree"}


def relabel(g, perm):
    """g with vertex v renamed perm[v], kind and embedding kept."""
    out_order = None
    if g.out_order is not None:
        out_order = [None] * g.n
        for v, ws in enumerate(g.out_order):
            out_order[perm[v]] = [perm[w] for w in ws]
    return Digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs], kind=g.kind, out_order=out_order)


def reverse(g):
    """g with every arc turned round: an out-tree becomes an in-tree and
    an in-tree an out-tree; other kinds keep theirs."""
    return Digraph(g.n, [(v, u) for u, v in g.arcs], kind=FLIP.get(g.kind, g.kind))


def answers(build, g1, g2):
    idx = build(g1, g2)
    return [idx.query(b) for b in range(g1.n)]


def pairs():
    """(label, g1, g2): every ordered pair of KINDS at n = 2, 17 and 64
    with two seeds each, and the bit-reversal pair where n is a power
    of two."""
    for n, seed in product((2, 17, 64), (1, 2)):
        for k1, k2 in product(KINDS, repeat=2):
            (g1,) = generate(k1, n, 2 * seed)
            (g2,) = generate(k2, n, 2 * seed + 1)
            yield (k1, k2, n, seed), g1, g2
        if n & (n - 1) == 0:
            yield ("bitrev", n, seed), *generate("bitrev", n, seed)


def assert_metamorphic(build, label, g1, g2, reversible):
    """Checks the three symmetries and returns the pair's answers."""
    n = g1.n
    want = answers(build, g1, g2)
    assert answers(build, g2, g1) == want, ("swap", label)
    perm = list(range(n))
    random.Random(repr(label)).shuffle(perm)
    moved = answers(build, relabel(g1, perm), relabel(g2, perm))
    for b in range(n):
        assert moved[perm[b]] == sorted(perm[a] for a in want[b]), ("relabel", label, b)
    if reversible:
        # a reaches b in both graphs iff b reaches a in both reversed ones
        back = answers(build, reverse(g1), reverse(g2))
        relation = {(a, b) for b in range(n) for a in want[b]}
        assert relation == {(a, b) for a in range(n) for b in back[a]}, ("reverse", label)
    return want


def test_classes_index_is_symmetric_equivariant_and_transposed_by_reversal():
    cases = 0
    for label, g1, g2 in pairs():
        planar = "planar-st" in (g1.kind, g2.kind)
        assert_metamorphic(classes.index, label, g1, g2, reversible=not planar)
        cases += 1
    assert cases == 220


def test_hpd_two_trees_is_symmetric_equivariant_and_transposed_by_reversal():
    """Rooted pairs holding an out-tree; a pair is reversed only when the
    reversed pair still holds one. Its answers are also those of
    `classes.index`, a different route for the same pair."""
    cases = 0
    for label, g1, g2 in pairs():
        kinds = (g1.kind, g2.kind)
        if not set(kinds) <= {"out-tree", "in-tree"} or "out-tree" not in kinds:
            continue
        want = assert_metamorphic(index_hpd_two_trees, label, g1, g2, reversible="in-tree" in kinds)
        assert want == answers(classes.index, g1, g2), label
        cases += 1
    assert cases == 18
