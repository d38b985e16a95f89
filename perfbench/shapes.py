"""Seeded input shapes for the benchmark workloads.

Every generator takes a ``random.Random`` and returns ``Digraph`` inputs
only; the program never sees the seed. Plain random shapes come straight
from ``joinreach.gen``; the adversarial shapes named in the roadmap (zigzag
unoriented path, chain-vs-star out-trees, ladder DAG) live here, each
laid over a seeded vertex permutation.
"""

from __future__ import annotations

from joinreach import Digraph, gen, gen_bitreversal


def _perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(g, perm):
    """g with vertex v renamed perm[v]; kind and embedding carried over."""
    out_order = None
    if g.out_order is not None:
        out_order = [None] * g.n
        for v, ws in enumerate(g.out_order):
            out_order[perm[v]] = [perm[w] for w in ws]
    return Digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs], kind=g.kind, out_order=out_order)


def bitrev_pair(rng, n):
    """The bit-reversal dipath pair (worst-case join size), seeded relabelling."""
    perm = _perm(rng, n)
    p1, p2 = gen_bitreversal(n)
    return relabel(p1, perm), relabel(p2, perm)


def zigzag_path(rng, n):
    """Unoriented path whose arcs alternate direction.

    Vertex 0, where the library's layer decomposition starts, sits at one
    end, so the path splits into the most layers: n - 1 single-arc ones.
    """
    order = _perm(rng, n)
    order.remove(0)
    order.insert(0, 0)
    arcs = [
        (a, b) if k % 2 == 0 else (b, a)
        for k, (a, b) in enumerate(zip(order, order[1:]))
    ]
    return Digraph(n, arcs, kind="path")


def chain_star(rng, n):
    """Out-tree chain and out-tree star sharing their root.

    Every vertex's answer is {root, b}, yet the enclosure structure on
    this pair stabs Theta(n) rectangles per query.
    """
    order = _perm(rng, n)
    chain = Digraph(n, list(zip(order, order[1:])), kind="out-tree")
    star = Digraph(n, [(order[0], v) for v in order[1:]], kind="out-tree")
    return chain, star


def ladder_dag(rng, n):
    """Two dipaths a_0..a_{L-1}, b_0..b_{L-1} joined by rungs a_i -> b_i.

    Sparse, with a minimum path cover of two paths, so any matching or
    from-rank cost that grows faster than n times the cover size shows.
    Vertex ids are a seeded permutation.
    """
    half = n // 2
    perm = _perm(rng, 2 * half)
    a, b = perm[:half], perm[half:]
    arcs = list(zip(a, a[1:])) + list(zip(b, b[1:])) + list(zip(a, b))
    return Digraph(2 * half, arcs)


def rand_dag(rng, n):
    """Random DAG with arc probability 4/n: about 2n arcs, wide path covers."""
    return gen.rand_dag(rng, n, 4.0 / n)


def rand_sp_st(rng, n):
    """Series-parallel planar st-graph with its embedding, seeded relabelling."""
    return relabel(gen.rand_sp_st(rng, n), _perm(rng, n))
