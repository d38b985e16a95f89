"""Closure-AND oracle, kept apart from the library's own closure code.

The benchmark checks answers against these rows, so a change to
``joinreach.graph.transitive_closure`` cannot also change the reference.
"""

from __future__ import annotations


def ancestor_rows(n, arcs):
    """rows[v]: bitset of the vertices with a path to v, v included.

    Built from the arc list alone in topological order; raises ValueError
    on a cycle, since every benchmark input is acyclic.
    """
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        inn[v].append(u)
    indeg = [len(p) for p in inn]
    ready = [v for v in range(n) if not indeg[v]]
    rows = [0] * n
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        r = 1 << v
        for u in inn[v]:
            r |= rows[u]
        rows[v] = r
        for w in out[v]:
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    if done != n:
        raise ValueError("oracle input has a cycle")
    return rows


def bit_list(x):
    """Positions of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out
