"""Smallest restricted join graph: entrywise AND of two closures followed
by transitive reduction. No auxiliary vertices are introduced, so the
result is the minimum-size digraph over the original vertex set whose
closure equals the AND.

The reduction works on whole bit rows. In a reflexive, transitive
relation two vertices are mutually related iff their rows are equal, so
the classes come from one dict over the row ints, and the smallest
member represents its class. Each representative's row is then swept
once: the lowest candidate successor not yet covered is taken and all it
strictly reaches is covered. That is at most one step per set bit of the
row, and one per cover arc when ids follow a topological order.

The same pass checks transitivity, word-parallel: a reflexive matrix is
transitive iff each representative's row is the OR of its class and its
cover successors' rows. If so, a cycle of cover arcs would force equal
rows, so the cover arcs are acyclic and each row is closed by induction
along them; conversely, in a transitive matrix every bit outside a
row's class lies in the row of some cover successor.
"""

from __future__ import annotations

from .graph import Digraph, transitive_closure


def and_closure(m1, m2):
    """Entrywise AND of two closures given as bit rows (`transitive_closure`);
    transitive and reflexive."""
    if len(m1) != len(m2):
        raise ValueError("matrix size mismatch")
    return [x & y for x, y in zip(m1, m2)]


def transitive_reduction(rows):
    """Minimum digraph over 0..n-1, n = len(rows), whose closure is the
    bit-row matrix `rows` (row a has bit b set iff a reaches b).

    Mutually-related classes (equal rows) are condensed, each keeps
    exactly its cover arcs between representatives, and each class with
    two or more members is re-expanded as a simple cycle in increasing id
    order. For the acyclic part the result is the unique reduction.
    Raises ValueError unless the matrix is reflexive and transitive.
    """
    if any(not (row >> a & 1) for a, row in enumerate(rows)):
        raise ValueError("matrix is not reflexive")

    classes = {}
    for v, row in enumerate(rows):
        classes.setdefault(row, []).append(v)
    reps = 0
    for members in classes.values():
        reps |= 1 << members[0]

    arcs = []
    for row, members in classes.items():
        a = members[0]
        rebuilt = 0
        for v in members:
            rebuilt |= 1 << v
        if len(members) > 1:
            arcs.extend(zip(members, members[1:] + members[:1]))
        # Take the lowest candidate not yet covered and cover all it
        # strictly reaches; what stays uncovered are the cover arcs.
        cand = (row & reps) ^ (1 << a)
        covered = 0
        rest = cand
        while rest:
            low = rest & -rest
            covered |= rows[low.bit_length() - 1] ^ low
            rest = (rest ^ low) & ~covered
        keep = cand & ~covered
        while keep:
            low = keep & -keep
            keep ^= low
            b = low.bit_length() - 1
            rebuilt |= rows[b]
            arcs.append((a, b))
        # the transitivity test of the module docstring
        if rebuilt != row:
            raise ValueError("matrix is not transitive")
    return Digraph(len(rows), arcs)


def minimal_restricted_join(g1, g2):
    """Minimum join-reachability digraph over the original vertices."""
    if g1.n != g2.n:
        raise ValueError("vertex-set mismatch")
    m = and_closure(transitive_closure(g1), transitive_closure(g2))
    return transitive_reduction(m)
