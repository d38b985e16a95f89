"""Seeded instance generators for every supported graph class.

Identical (kind, n, seed, p) always reproduce identical instances.
"""

from __future__ import annotations

import random

from .graph import Digraph


# Each `jr gen` kind and its maker (rng, n, p) -> [graphs]; only dag-gnp
# reads the arc probability p, and bitrev, a pair, reads no rng.
GENERATORS = {
    "path": lambda rng, n, p: [rand_path(rng, n)],
    "utree-random": lambda rng, n, p: [rand_utree(rng, n)],
    "out-tree": lambda rng, n, p: [rand_tree(rng, n, "out-tree")],
    "in-tree": lambda rng, n, p: [rand_tree(rng, n, "in-tree")],
    "dag-gnp": lambda rng, n, p: [rand_dag(rng, n, p)],
    "bitrev": lambda rng, n, p: list(gen_bitreversal(n)),
    "sp-st": lambda rng, n, p: [rand_sp_st(rng, n)],
}


def generate(kind, n, seed=0, p=0.2):
    """The graphs of one `jr gen` kind, drawn from an rng seeded by
    (kind, n, seed); bitrev yields a pair. The arc probability p must lie
    in [0, 1] whichever kind reads it."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= p <= 1:  # also false for nan
        raise ValueError("p must lie in [0, 1]")
    return GENERATORS[kind](random.Random((kind, n, seed).__repr__()), n, p)


def gen_bitreversal(n):
    """The two dipaths whose rank spaces are related by bit reversal."""
    if n < 1 or n & (n - 1):
        raise ValueError("n must be a power of two")
    bits = n.bit_length() - 1

    def rev(x):
        r = 0
        for _ in range(bits):
            r = (r << 1) | (x & 1)
            x >>= 1
        return r

    p1 = Digraph(n, [(i, i + 1) for i in range(n - 1)], kind="path")
    order = sorted(range(n), key=rev)
    p2 = Digraph(n, [(order[i], order[i + 1]) for i in range(n - 1)], kind="path")
    return p1, p2


def rand_path(rng, n):
    """Permutation dipath."""
    order = list(range(n))
    rng.shuffle(order)
    return Digraph(n, [(order[i], order[i + 1]) for i in range(n - 1)], kind="path")


def rand_upath(rng, n):
    """Unoriented path: random vertex order, random arc orientations."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = []
    for a, b in zip(order, order[1:]):
        arcs.append((a, b) if rng.random() < 0.5 else (b, a))
    return Digraph(n, arcs, kind="path")


def rand_tree(rng, n, kind):
    parent = [-1] + [rng.randrange(v) for v in range(1, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    if kind == "out-tree":
        arcs = [(perm[parent[v]], perm[v]) for v in range(1, n)]
    else:
        arcs = [(perm[v], perm[parent[v]]) for v in range(1, n)]
    return Digraph(n, arcs, kind=kind)


def rand_utree(rng, n):
    parent = [-1] + [rng.randrange(v) for v in range(1, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = []
    for v in range(1, n):
        a, b = perm[parent[v]], perm[v]
        arcs.append((a, b) if rng.random() < 0.5 else (b, a))
    return Digraph(n, arcs, kind="utree")


def rand_dag(rng, n, p=0.2):
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    perm = list(range(n))
    rng.shuffle(perm)
    return Digraph(n, [(perm[u], perm[v]) for u, v in arcs])


def rand_sp_st(rng, n):
    """Series-parallel st-digraph with a left-to-right out-arc embedding.

    Grown by arc expansion: a random arc is either subdivided or doubled
    into a parallel two-arc branch inserted beside it, so the result is
    planar with the source and sink on the outer face.
    """
    if n < 2:
        raise ValueError("sp-st needs n >= 2")
    out_order = [[1], []]
    arcs = [(0, 1)]
    nxt = 2
    while nxt < n:
        u, v = arcs[rng.randrange(len(arcs))]
        w = nxt
        nxt += 1
        pos = out_order[u].index(v)
        if rng.random() < 0.5:
            # series: u -> w -> v
            out_order[u][pos] = w
            out_order.append([v])
            arcs.remove((u, v))
            arcs.extend([(u, w), (w, v)])
        else:
            # parallel: u -> w -> v beside the old arc
            side = rng.random() < 0.5
            out_order[u].insert(pos + (1 if side else 0), w)
            out_order.append([v])
            arcs.extend([(u, w), (w, v)])
    return Digraph(n, arcs, kind="planar-st", out_order=out_order)
