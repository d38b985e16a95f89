"""Explicit join-reachability graphs.

Given two graphs over a shared vertex set, each builder emits a digraph
over the original vertices plus Steiner relay vertices whose closure,
restricted to originals, is exactly the pairwise AND of the input
reachability relations. Divide-and-conquer in rank space keeps the
output near-linear for paths and trees and cover-factor-linear for DAGs.

Every builder wires through one kernel, `_nest_connect`, which walks
nested ranges of walk positions and halves the last of a tuple of rank
arrays: a source reaches each sink of its range lying below it in every
array. With one array, the upper half's sources meet the lower half's
sinks in one relay walk: a source gets a relay only when its range holds
such a sink, the outermost one is its own relay, and a nested one gets
a Steiner vertex only when that beats direct arcs: entered from its
vertex and the enclosing relay, it must reach three targets or more
(i * o > i + o); a call too small to keep one wires its arcs directly.
With more arrays, the halves meet by the kernel on the arrays before the
last, after dropping the members that can never be wired (`_live`): no
output changes, but nothing to wire stops at once.

Paths and trees: each pair of tree blocks (`graph.tree_blocks`; a path
gives one chain block per maximal run, a dipath exactly one) is walked
along the first block's nested intervals, with ranks (h2, h3) encoding
the second block; a pair whose members form a chain there, as with a
path second, has h2 == h3 and is wired in h2 alone. Path covers: each
pair of cover paths is one walk in x1 order whose ranges all run to its
end, with h ranking x2, so it is inclusive dominance in (x1, x2).

Steiner tags end in `d<k>;h=<lo>..<hi>`: the depth of the last halving
and the rank slab being halved (`tag_depth` reads k back). Before that comes the builder's label,
then `i<i>;j<j>` for the cover-path pair, or for the block pair (and
`rev` for an in-core first block) unless both inputs are one block, then
one `p<k>` per further array, outermost first: the depth of the halving
whose meeting made the relay. So tags read
`pathcover;i<i>;j<j>;d<k>;h=<lo>..<hi>` or `two-trees;p2;d1;h=0..1024`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass

from .cover import from_ranks, min_path_cover, shared_vertices
from .graph import (
    CyclicGraphError,
    Digraph,
    GraphClassError,
    _graph_section,
    _reach_rows,
    block_pairs,
    format_graph,
    topo_order,
    transitive_closure,
)
from .minimal import and_closure


@dataclass
class JoinGraph:
    graph: Digraph
    n_original: int
    steiner_tags: list

    @property
    def steiner_count(self):
        return len(self.steiner_tags)

    @property
    def size(self):
        return self.graph.size


class _Builder:
    """The join being built: the heads of each vertex's out-arcs, one list
    per vertex (`out`), and the Steiner tags. `_nest_connect` wires into
    `rows`, which is `out` but while an in-core first block is wired
    into a scratch map (`_pair_connect`)."""

    def __init__(self, n_original):
        self.n_original = n_original
        self.out = self.rows = [[] for _ in range(n_original)]
        self.tags = []

    def steiner(self, tag):
        self.tags.append(tag)
        self.out.append([])
        return len(self.out) - 1

    def finish(self):
        g = Digraph.from_rows(len(self.out), self.out, "digraph")
        return JoinGraph(g, self.n_original, self.tags)


# ----------------------------------------------------------------------
# Paths and trees: one tree-block join


def build_two_paths(p1, p2):
    """Join graph of two paths; size at most 3n(ceil(log2 n)+1) for two
    dipaths."""
    return _tree_blocks_join(p1, p2, "two-paths")


def build_tree_path(t1, p2):
    """Join graph of a tree and a path; same size bound as two dipaths
    for a rooted tree and a dipath."""
    return _tree_blocks_join(t1, p2, "tree-path")


def build_two_trees(t1, t2):
    """Join graph of two rooted trees; size within 4n(ceil(log2 n)+1)^2."""
    if t1.kind not in ("out-tree", "in-tree") or t2.kind not in ("out-tree", "in-tree"):
        raise GraphClassError("both graphs must be rooted trees")
    return _tree_blocks_join(t1, t2, "two-trees")


def build_unoriented_trees(g1, g2):
    """Join graph of two trees of any orientation via their tree blocks."""
    return _tree_blocks_join(g1, g2, "utrees")


def _tree_blocks_join(g1, g2, label):
    # One wiring per pair of blocks sharing at least two vertices; a pair
    # of rooted trees or dipaths is the single pair of their fringeless blocks.
    blocks1, blocks2, pairs = block_pairs(g1, g2)
    rooted = len(blocks1) == len(blocks2) == 1
    b = _Builder(g1.n)
    for (i, j), members in pairs:
        blk1 = blocks1[i]
        if rooted:
            tag = label
        else:
            tag = f"{label};i{i};j{j}" + (";rev" if blk1.orient == "in" else "")
        _pair_connect(b, blk1, blocks2[j], members, tag)
    return b.finish()


def _pair_connect(b, blk1, blk2, members, tag):
    # An in-core first block is wired on the reversed pair, into a scratch
    # map that is then transposed into the out rows.
    rev = blk1.orient == "in"
    eff_o2 = ({"out": "in", "in": "out"}[blk2.orient]) if rev else blk2.orient
    fringe1, fringe2, s1, t1 = blk1.fringe, blk2.fringe, blk1.s, blk1.t
    # Walk order of the first block: by supervertex interval, fringe
    # hangers before their core supervertex. Position p's range
    # p..end[p] then holds every member p reaches in that block; the
    # others it holds are fringe hangers, which are never sinks there.
    vert = sorted(members, key=lambda v: (s1[v], v not in fringe1, v))
    starts = [s1[v] for v in vert]
    end = [bisect_left(starts, t1[v]) - 1 for v in vert]

    # After an effective reversal the first side is out-core: its fringe
    # hangers may only emit. Out-core fringes on the second side likewise
    # emit only; in-core fringes only receive.
    if eff_o2 == "out":
        srcs = list(range(len(vert)))
        snks = [p for p, v in enumerate(vert) if v not in fringe1 and v not in fringe2]
    else:
        srcs = [p for p, v in enumerate(vert) if v not in fringe2]
        snks = [p for p, v in enumerate(vert) if v not in fringe1]

    if snks == srcs:
        snks = srcs  # one list: every member is a source and a sink

    h2, h3 = _interval_orders(vert, blk2, eff_o2)
    if rev:
        b.rows = defaultdict(list)
    # Members forming a chain in the second block relate by h2 alone.
    hs = (h2,) if h2 == h3 else (h2, h3)
    _nest_connect(b, srcs, snks, end, hs, 0, len(vert), vert, tag)
    if rev:  # transpose the scratch map into the out rows
        out = b.out
        for u, heads in b.rows.items():
            for v in heads:
                out[v].append(u)
        b.rows = out


def _interval_orders(vert, blk2, o2):
    """(h2, h3): rank-space coordinates per walk position encoding the
    relation of the second block `blk2`.

    Dominance (h2[z], h3[z]) <= (h2[a], h3[a]) must hold iff a's interval
    contains z's (out-orientation) or z's contains a's (in-orientation),
    with role-consistent tie-breaks inside equal-interval groups: the
    side that genuinely reaches the other gets the dominating rank.
    """
    m = len(vert)
    s2, t2, fringe2 = blk2.s, blk2.t, blk2.fringe
    s_key = [(s2[v], v not in fringe2, v) for v in vert]
    t_key = [(t2[v], v in fringe2, v) for v in vert]
    by_s = sorted(range(m), key=s_key.__getitem__)
    by_t = sorted(range(m), key=t_key.__getitem__)
    (by_s if o2 == "out" else by_t).reverse()
    h2 = [0] * m
    h3 = [0] * m
    for r, p in enumerate(by_s):
        h2[p] = r
    for r, p in enumerate(by_t):
        h3[p] = r
    return h2, h3


def _live(srcs, snks, end, h):
    """The sources whose nested range holds a sink below them in h, and the
    sinks such a source encloses, ascending: one stack walk, the ranges
    being laminar."""
    stop = len(end)
    # Event 2p is p as a sink and 2p + 1 p as a source, so a member that is
    # both meets the sources enclosing it before its own range opens.
    walk = sorted([p << 1 for p in snks] + [p << 1 | 1 for p in srcs])
    walk.append(stop << 1)  # the sentinel closes every range
    live, k_live = [], []
    # per enclosing source: range end, max h over it and those enclosing
    # it, position, min h of the sinks in its range so far
    ends, tops, ps, lows = [], [], [], []
    for e in walk:
        p = e >> 1
        while ends and ends[-1] < p:
            ends.pop()
            tops.pop()
            q = ps.pop()
            low = lows.pop()
            if low < h[q]:
                live.append(q)
            if lows and low < lows[-1]:
                lows[-1] = low
        if p == stop:
            break
        hp = h[p]
        if e & 1:
            ends.append(end[p])
            tops.append(tops[-1] if tops and tops[-1] > hp else hp)
            ps.append(p)
            lows.append(stop)
        elif ends:
            if tops[-1] > hp:
                k_live.append(p)
            if hp < lows[-1]:
                lows[-1] = hp
    live.sort()
    return live, k_live


def _nest_connect(b, srcs, snks, end, hs, lo, hi, vert, tag, depth=0):
    """Wire each source to every sink of its nested range that lies below
    it in every rank array of hs, halving [lo, hi) in the last one.

    srcs and snks are ascending walk positions, or one list when every
    member is both; position p's nested range is p..end[p], and vert[p]
    is its vertex. Each arc is a head appended to its tail's list in
    `b.rows`. With one array h, a source in the upper half of
    [lo, hi) whose range holds a lower-half sink gets a relay, and each
    lower-half sink hangs off the relay of its nearest such source. A
    relay's targets are held until its range closes, inner ranges first.
    A source that no other relayed source encloses is its own relay and
    gets an arc to each target. A nested one would be a Steiner vertex
    entered from its vertex and from the enclosing relay: kept when it
    has three targets or more, else its vertex gets an arc to each target
    and the targets pass to the enclosing relay. With more, the
    upper half's sources meet the lower half's sinks by a call on hs[:-1]
    over the whole rank range [0, len(end)); members that can never be
    wired, in the halved array for the level and in the next for the
    meeting, are dropped first. The recursion then halves [lo, hi),
    entering only halves that hold a source and a sink and span more than
    one rank: within one rank no source lies above a sink.

    A kept relay needs two sources, itself and the one enclosing it, and
    three sinks below them, so five members. Every call beneath this one
    takes a subset of its sources and sinks, so a call with fewer than
    two sources, three sinks or five members keeps no relay anywhere
    beneath it, and the recursion would give each source an arc to
    exactly the sinks of its range that lie below it in every array.
    Such a call wires those arcs directly and returns: no Steiner
    vertex, tag or id changes.
    """
    if not srcs or not snks:
        return
    if (len(srcs) < 2 or len(snks) < 3
            or max(len(srcs), len(snks)) < 5 and len(set(srcs).union(snks)) < 5):
        rows = b.rows
        for p in srcs:
            qs = snks[bisect_right(snks, p):bisect_right(snks, end[p])]
            for h in hs:
                hp = h[p]
                qs = [q for q in qs if h[q] < hp]
            if qs:
                rows[vert[p]] += [vert[q] for q in qs]
        return
    h = hs[-1]
    if len(hs) > 1:
        srcs, snks = _live(srcs, snks, end, h)
        if not srcs:
            return
    mid = (lo + hi + 1) // 2
    s_hi = [p for p in srcs if h[p] >= mid]
    k_lo = [p for p in snks if h[p] < mid]
    if srcs is snks:
        k_hi, s_lo = s_hi, k_lo
    else:
        k_hi = [p for p in snks if h[p] >= mid]
        s_lo = [p for p in srcs if h[p] < mid]
    if len(hs) > 1:
        s_live, k_live = _live(s_hi, k_lo, end, hs[-2])
        if s_live:
            _nest_connect(b, s_live, k_live, end, hs[:-1], 0, len(end), vert,
                          f"{tag};p{depth}")
    elif s_hi and k_lo:
        label = f"{tag};d{depth};h={lo}..{hi}"
        rows = b.rows
        stop = len(end)  # the walk's sentinel: it closes every open range
        ends = []  # range ends of the enclosing relayed sources
        us = []  # and their vertices
        outs = []  # and the targets their relays reach so far
        nxt, n_lo = 0, len(k_lo)  # k_lo[nxt]: the first sink after p
        for p in (srcs if srcs is snks else sorted(s_hi + k_lo)) + [stop]:
            while ends and ends[-1] < p:
                ends.pop()
                u = us.pop()
                ts = outs.pop()
                if outs:  # nested: a relay costs 1 + 2 + o, direct arcs 2o
                    if len(ts) > 2:
                        sv = b.steiner(label)
                        rows[u].append(sv)
                        outs[-1].append(sv)
                        u = sv
                    else:
                        outs[-1] += ts
                rows[u] += ts
            if p == stop:
                break
            if h[p] < mid:
                nxt += 1
                if outs:
                    outs[-1].append(vert[p])
                continue
            if nxt == n_lo or k_lo[nxt] > end[p]:
                continue  # no sink in its range: no relay
            ends.append(end[p])
            us.append(vert[p])
            outs.append([])
    if s_hi and k_hi and hi - mid > 1:
        _nest_connect(b, s_hi, k_hi, end, hs, mid, hi, vert, tag, depth + 1)
    if s_lo and k_lo and mid - lo > 1:
        _nest_connect(b, s_lo, k_lo, end, hs, lo, mid, vert, tag, depth + 1)


def tag_depth(tag):
    """The recursion depth k of a Steiner tag ending `d<k>;h=<lo>..<hi>`."""
    parts = tag.split(";")
    if len(parts) < 2 or parts[-2][:1] != "d" or not parts[-2][1:].isdigit():
        raise ValueError(f"Steiner tag {tag!r} has no d<k> depth field")
    return int(parts[-2][1:])


# ----------------------------------------------------------------------
# Path covers for general DAG pairs


def build_pathcover(g1, g2):
    """Join graph of a DAG and a dipath or second DAG via dipath covers.

    Each cover-path pair (i, j) is inclusive dominance in (x1, x2), wired
    by one `_nest_connect` walk. Every vertex z that path i reaches and
    path j reaches sits at (fr1(z, i), fr2(z, j)) as a sink; one on both
    paths sits at its two ranks there and is a source too.
    """
    if g1.n != g2.n:
        raise ValueError("vertex-set mismatch")
    order1, order2 = topo_order(g1), topo_order(g2)
    if order1 is None or order2 is None:
        raise CyclicGraphError("path-cover construction requires acyclic inputs")
    pc1 = min_path_cover(g1, order1)
    pc2 = min_path_cover(g2, order2)
    fr1 = from_ranks(g1, pc1, order1)
    fr2 = from_ranks(g2, pc2, order2)
    reached1 = [[] for _ in range(pc1.kappa)]
    for z, row in enumerate(fr1):
        for i in row:
            reached1[i].append(z)
    b = _Builder(g1.n)
    for i, j in shared_vertices(pc1, pc2):
        # The walk goes by x1, sources first, and every range runs to its
        # end. h ranks (-x2, is source) densely, so a source lies above
        # exactly the sinks of its x2 or more and the slab stays within
        # the walk.
        ents = []
        for z in reached1[i]:
            x2 = fr2[z].get(j)
            if x2 is not None:
                src = pc1.path_of[z][0] == i and pc2.path_of[z][0] == j
                ents.append((fr1[z][i], not src, (-x2, src), z))
        ents.sort()
        keys = sorted({e[2] for e in ents})
        rank = {k: r for r, k in enumerate(keys)}
        h = [rank[e[2]] for e in ents]
        m = len(ents)
        _nest_connect(b, [p for p in range(m) if not ents[p][1]], list(range(m)),
                      [m - 1] * m, (h,), 0, len(keys), [e[3] for e in ents],
                      f"pathcover;i{i};j{j}")
    return b.finish()


# ----------------------------------------------------------------------
# Verification


@dataclass
class VerifyReport:
    ok: bool
    first_violation: tuple | None
    pairs_checked: int

    def __bool__(self):
        return self.ok


def verify_join_graph(jg, g1, g2):
    """Check the defining equivalence of a join graph against the oracle.

    Passes iff, over original vertices, reachability in the join graph
    equals reachability in both inputs. On failure the lexicographically
    first violating pair is reported with its direction.
    """
    n = jg.n_original
    if not n == g1.n == g2.n:
        raise ValueError(
            f"join graph has {n} original vertices, the inputs {g1.n} and {g2.n}"
        )
    want = and_closure(transitive_closure(g1), transitive_closure(g2))
    got = _reach_rows(jg.graph, n)
    for a in range(n):
        if got[a] == want[a]:
            continue
        diff = got[a] ^ want[a]
        bvs = diff & -diff
        bpos = bvs.bit_length() - 1
        kind = "spurious" if got[a] >> bpos & 1 else "missing"
        return VerifyReport(False, (a, bpos, kind), n * n)
    return VerifyReport(True, None, n * n)


# ----------------------------------------------------------------------
# Join-graph file format: the graph section of a `digraph` graph file
# (`graph.format_graph`, `graph._graph_section`), then "steiner k" and k
# tag lines


def format_join(jg):
    tags = "".join(f"{t}\n" for t in jg.steiner_tags)
    return f"{format_graph(jg.graph)}steiner {jg.steiner_count}\n{tags}"


def parse_join(text):
    """The join graph of a join file; a bad arc line is reported before a
    bad kind or Steiner section, as `_graph_section` reads arcs first."""
    n, _, kind, out, rest = _graph_section(text)
    if kind != "digraph":
        raise ValueError(f"join file kind must be digraph, not {kind!r}")
    sline = rest[0].split() if rest else []
    if len(sline) != 2 or sline[0] != "steiner":
        raise ValueError("missing steiner section")
    k = int(sline[1])
    tags = [t.strip() for t in rest[1:]]
    if len(tags) != k or not 0 <= k <= n:
        raise ValueError(f"steiner section says {k} tags for n={n}; {len(tags)} tag lines follow")
    return JoinGraph(Digraph._of_rows(n, out, "digraph"), n - k, tags)


def read_join(path):
    with open(path, encoding="utf-8") as f:
        return parse_join(f.read())


def write_join(jg, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_join(jg))
