"""Explicit join-reachability graphs.

Given two graphs over a shared vertex set, each builder emits a digraph
over the original vertices plus Steiner relay vertices whose closure,
restricted to originals, is exactly the pairwise AND of the input
reachability relations. Divide-and-conquer in rank space keeps the
output near-linear for paths and trees and cover-factor-linear for DAGs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .cover import from_ranks, min_path_cover, shared_vertices
from .graph import (
    CyclicGraphError,
    Digraph,
    GraphClassError,
    _parse_arcs,
    block_pairs,
    dfs_intervals,
    path_order,
    tarjan_scc,
    topo_order,
    transitive_closure,
    tree_blocks,
)


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
    def __init__(self, n_original):
        self.n_original = n_original
        self.arcs = []
        self.tags = []

    def steiner(self, tag):
        v = self.n_original + len(self.tags)
        self.tags.append(tag)
        return v

    def arc(self, u, v):
        self.arcs.append((u, v))

    def finish(self):
        g = Digraph(self.n_original + len(self.tags), self.arcs)
        return JoinGraph(g, self.n_original, self.tags)


def _reverse_join(jg):
    g = jg.graph
    return JoinGraph(Digraph(g.n, [(v, u) for u, v in g.arcs]), jg.n_original, jg.steiner_tags)


# ----------------------------------------------------------------------
# Two paths / shared dominance recursion


def _dominance_connect(b, sources, targets, lo, hi, depth, tag):
    """Connect each source to every target it dominates in (x1, x2).

    Entries are (x1, x2, graph-vertex) triples; dominance is inclusive.
    Recursion halves the x1 range; within a single x1 column entries are
    chained in x2 order, sources before targets at equal x2.
    """
    if not sources or not targets:
        return
    if hi - lo <= 1:
        ents = sorted(
            [(x2, 0, vid) for _, x2, vid in sources]
            + [(x2, 1, vid) for _, x2, vid in targets]
        )
        for (_, _, u), (_, _, v) in zip(ents, ents[1:]):
            b.arc(u, v)
        return
    mid = (lo + hi + 1) // 2
    s_left = [s for s in sources if s[0] < mid]
    s_right = [s for s in sources if s[0] >= mid]
    t_left = [t for t in targets if t[0] < mid]
    t_right = [t for t in targets if t[0] >= mid]
    if s_left and t_right:
        ts = sorted(t_right, key=lambda t: (t[1], t[2]))
        label = f"{tag};d{depth};x1={lo}..{hi}"
        chain = [b.steiner(label) for _ in ts]
        for sv, (_, _, tv) in zip(chain, ts):
            b.arc(sv, tv)
        for i in range(len(chain) - 1):
            b.arc(chain[i], chain[i + 1])
        xs = [t[1] for t in ts]
        for _, sx2, sv in s_left:
            k = bisect_left(xs, sx2)
            if k < len(chain):
                b.arc(sv, chain[k])
    _dominance_connect(b, s_left, t_left, lo, mid, depth + 1, tag)
    _dominance_connect(b, s_right, t_right, mid, hi, depth + 1, tag)


def build_two_paths(p1, p2):
    """Join graph of two dipaths; size at most 3n(ceil(log2 n)+1)."""
    if p1.n != p2.n:
        raise ValueError("vertex-set mismatch")
    o1 = path_order(p1)
    o2 = path_order(p2)
    n = p1.n
    x1 = [0] * n
    x2 = [0] * n
    for r, v in enumerate(o1):
        x1[v] = r
    for r, v in enumerate(o2):
        x2[v] = r
    b = _Builder(n)
    points = [(x1[v], x2[v], v) for v in range(n)]
    _dominance_connect(b, points, points, 0, n, 0, "two-paths")
    return b.finish()


def split_unoriented_path(p):
    """Maximal uniformly oriented subpaths of an unoriented dipath.

    Returned as vertex sequences in arc direction; each vertex lies on at
    most two of them.
    """
    if p.kind != "path":
        raise GraphClassError("split requires kind=path")
    n = p.n
    if n == 1:
        return [[0]]
    ends = [v for v in range(n) if len(p.neighbors(v)) == 1]
    seq = [min(ends)]
    prev = -1
    while len(seq) < n:
        nxt = [w for w in p.neighbors(seq[-1]) if w != prev]
        prev = seq[-1]
        seq.append(nxt[0])
    arcset = set(p.arcs)
    runs = []
    cur = [seq[0], seq[1]]
    cur_dir = (seq[0], seq[1]) in arcset
    for a, b in zip(seq[1:], seq[2:]):
        d = (a, b) in arcset
        if d == cur_dir:
            cur.append(b)
        else:
            runs.append(cur if cur_dir else cur[::-1])
            cur = [a, b]
            cur_dir = d
    runs.append(cur if cur_dir else cur[::-1])
    return runs


# ----------------------------------------------------------------------
# Tree and path


def build_tree_path(t1, p2):
    """Join graph of a rooted tree and a dipath; same size bound as paths.

    The in-tree variant is the out-tree construction on the reversed
    inputs with every arc flipped.
    """
    if t1.n != p2.n:
        raise ValueError("vertex-set mismatch")
    if t1.kind == "in-tree":
        return _reverse_join(build_tree_path(t1.reverse(), _reverse_path(p2)))
    if t1.kind != "out-tree":
        raise GraphClassError("tree side must be an out-tree or in-tree")
    n = t1.n
    o2 = path_order(p2)
    h = [0] * n
    for r, v in enumerate(o2):
        h[v] = n - 1 - r
    iv = dfs_intervals(t1)
    by_s = sorted(range(n), key=lambda v: iv.s[v])
    b = _Builder(n)
    _tree_path_connect(b, by_s, h, iv, 0, n, 0)
    return b.finish()


def _reverse_path(p):
    return Digraph(p.n, [(v, u) for u, v in p.arcs], kind="path")


def _tree_path_connect(b, sub, h, iv, lo, hi, depth):
    if len(sub) <= 1 or hi - lo <= 1:
        return
    mid = (lo + hi + 1) // 2
    up = [v for v in sub if h[v] >= mid]
    down = [v for v in sub if h[v] < mid]
    if up and down:
        label = f"tree-path;d{depth};h={lo}..{hi}"
        upset = set(up)
        steiner_of = {}
        stack = []
        for v in sub:
            while stack and not (iv.s[stack[-1]] < iv.s[v] and iv.t[v] < iv.t[stack[-1]]):
                stack.pop()
            near = stack[-1] if stack else None
            if v in upset:
                sv = b.steiner(label)
                steiner_of[v] = sv
                b.arc(v, sv)
                if near is not None:
                    b.arc(steiner_of[near], sv)
                stack.append(v)
            elif near is not None:
                b.arc(steiner_of[near], v)
    _tree_path_connect(b, up, h, iv, mid, hi, depth + 1)
    _tree_path_connect(b, down, h, iv, lo, mid, depth + 1)


# ----------------------------------------------------------------------
# Two trees (3d divide and conquer), rooted and unoriented


def _interval_orders(members, su2_iv, core2, o2):
    """Rank-space coordinates encoding the second tree's relation.

    Dominance (x2(b), x3(b)) <= (x2(a), x3(a)) must hold iff a's interval
    contains b's (out-orientation) or b's contains a's (in-orientation),
    with role-consistent tie-breaks inside equal-interval groups: the
    side that genuinely reaches the other gets the dominating rank.
    """
    m = len(members)
    s_sort = sorted(members, key=lambda v: (su2_iv[v][0], core2[v], v))
    t_sort = sorted(members, key=lambda v: (su2_iv[v][1], not core2[v], v))
    x2 = {}
    x3 = {}
    if o2 == "out":
        for r, v in enumerate(s_sort):
            x2[v] = m - 1 - r
        for r, v in enumerate(t_sort):
            x3[v] = r
    else:
        for r, v in enumerate(s_sort):
            x2[v] = r
        for r, v in enumerate(t_sort):
            x3[v] = m - 1 - r
    return x2, x3


def _three_d_connect(b, members, anc_iv, chain, x2, x3, src_ok, snk_ok, emit, tag):
    """Steiner wiring for pairs related by tree ancestry and planar dominance.

    anc_iv maps each vertex to its (possibly shared) ancestor-tree
    interval; equal intervals are ordered by `chain`, whose order must be
    consistent with actual reachability among the allowed role pairs.
    """
    m = len(members)

    def contains(p, v):
        sp, tp = anc_iv[p]
        sv, tv = anc_iv[v]
        if sp == sv and tp == tv:
            return chain[p] < chain[v]
        return sp < sv and tv < tp

    def sort_key(v):
        return (anc_iv[v][0], chain[v])

    def cross(aa, bb, lo2, hi2, od, id_):
        if not aa or not bb or hi2 - lo2 <= 1:
            return
        mid2 = (lo2 + hi2 + 1) // 2
        a_hi = [v for v in aa if x2[v] >= mid2]
        b_lo = [v for v in bb if x2[v] < mid2]
        if a_hi and b_lo:
            label = f"{tag};p{od};l{id_};x2={lo2}..{hi2}"
            upset = set(a_hi)
            ents = sorted(a_hi + b_lo, key=sort_key)
            steiner_of = {}
            stack = []
            for v in ents:
                while stack and not contains(stack[-1], v):
                    stack.pop()
                near = stack[-1] if stack else None
                if v in upset:
                    sv = b.steiner(label)
                    steiner_of[v] = sv
                    emit(v, sv)
                    if near is not None:
                        emit(steiner_of[near], sv)
                    stack.append(v)
                elif near is not None:
                    emit(steiner_of[near], v)
        cross([v for v in aa if x2[v] >= mid2], [v for v in bb if x2[v] >= mid2],
              mid2, hi2, od, id_ + 1)
        cross([v for v in aa if x2[v] < mid2], [v for v in bb if x2[v] < mid2],
              lo2, mid2, od, id_ + 1)

    def outer(mem, lo3, hi3, od):
        if len(mem) <= 1 or hi3 - lo3 <= 1:
            return
        mid3 = (lo3 + hi3 + 1) // 2
        above = [v for v in mem if x3[v] >= mid3]
        below = [v for v in mem if x3[v] < mid3]
        cross([v for v in above if src_ok[v]], [v for v in below if snk_ok[v]],
              0, m, od, 0)
        outer(above, mid3, hi3, od + 1)
        outer(below, lo3, mid3, od + 1)

    outer(list(members), 0, m, 0)


def build_two_trees(t1, t2):
    """Join graph of two rooted trees; size within 4n(ceil(log2 n)+1)^2."""
    if t1.kind not in ("out-tree", "in-tree") or t2.kind not in ("out-tree", "in-tree"):
        raise GraphClassError("both graphs must be rooted trees")
    return _tree_blocks_join(t1, t2)


def build_unoriented_trees(g1, g2):
    """Join graph of two trees of any orientation via their tree blocks."""
    return _tree_blocks_join(g1, g2)


def _tree_blocks_join(g1, g2):
    # One 3d wiring per pair of blocks sharing at least two vertices; a
    # pair of rooted trees is the single pair of their all-core blocks.
    if g1.n != g2.n:
        raise ValueError("vertex-set mismatch")
    blocks1, of1 = tree_blocks(g1)
    blocks2, of2 = tree_blocks(g2)
    rooted = len(blocks1) == len(blocks2) == 1
    b = _Builder(g1.n)
    for (i, j), members in sorted(block_pairs(of1, of2).items()):
        if len(members) < 2:
            continue
        blk1 = blocks1[i]
        if rooted:
            tag = "two-trees"
        else:
            tag = f"utrees;i{i};j{j}" + (";rev" if blk1.orient == "in" else "")
        _pair_connect(b, blk1, blocks2[j], members, tag)
    return b.finish()


def _pair_connect(b, blk1, blk2, members, tag):
    # An in-core first block is wired on the reversed pair, arcs flipped.
    rev = blk1.orient == "in"
    eff_o2 = ({"out": "in", "in": "out"}[blk2.orient]) if rev else blk2.orient
    core1, core2 = blk1.core, blk2.core
    # fringe hangers precede their core representative in the ancestor chain
    chain = {v: (core1[v], v) for v in members}

    # After an effective reversal the first side is out-core: its fringe
    # hangers may only emit. Out-core fringes on the second side likewise
    # emit only; in-core fringes only receive.
    src_ok = {}
    snk_ok = {}
    for v in members:
        if eff_o2 == "out":
            ok2_src, ok2_snk = True, core2[v]
        else:
            ok2_src, ok2_snk = core2[v], True
        src_ok[v] = ok2_src
        snk_ok[v] = core1[v] and ok2_snk

    x2, x3 = _interval_orders(members, blk2.su_iv, core2, eff_o2)
    emit = (lambda u, v: b.arc(v, u)) if rev else b.arc
    _three_d_connect(b, members, blk1.su_iv, chain, x2, x3, src_ok, snk_ok, emit, tag)


# ----------------------------------------------------------------------
# Path covers for general DAG pairs


def build_pathcover(g1, g2):
    """Join graph of a DAG and a dipath or second DAG via dipath covers.

    One dominance structure per cover-path pair, on coordinates
    (rank on the first path, from-rank on the second).
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
    reached1 = fr1.reached(pc1.kappa)
    b = _Builder(g1.n)
    for (i, j), shared in shared_vertices(pc1, pc2).items():
        tag = f"pathcover;i{i};j{j}"
        sources = []
        for a in shared:
            sv = b.steiner(f"{tag};src")
            b.arc(a, sv)
            sources.append((pc1.path_of[a][1], pc2.path_of[a][1], sv))
        targets = []
        for z in reached1[i]:
            if j not in fr2.rows[z]:
                continue
            tv = b.steiner(f"{tag};dst")
            b.arc(tv, z)
            targets.append((fr1.rows[z][i], fr2.rows[z][j], tv))
        _dominance_connect(b, sources, targets, 0, len(pc1.paths[i]), 0, tag)
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
    want = transitive_closure(g1).and_with(transitive_closure(g2))
    got = _original_reach_rows(jg)
    for a in range(n):
        if got[a] == want.rows[a]:
            continue
        diff = got[a] ^ want.rows[a]
        bvs = diff & -diff
        bpos = bvs.bit_length() - 1
        kind = "spurious" if got[a] >> bpos & 1 else "missing"
        return VerifyReport(False, (a, bpos, kind), n * n)
    return VerifyReport(True, None, n * n)


def _original_reach_rows(jg):
    """Reachability over originals through the full join graph, cycle-safe."""
    g = jg.graph
    n = jg.n_original
    comp_of, comps = tarjan_scc(g)
    c = len(comps)
    crow = [0] * c
    for ci, comp in enumerate(comps):
        bits = 0
        for v in comp:
            if v < n:
                bits |= 1 << v
        crow[ci] = bits
    succs = [set() for _ in range(c)]
    for u, v in g.arcs:
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv:
            succs[cu].add(cv)
    for ci in range(c - 1, -1, -1):
        bits = crow[ci]
        for cj in succs[ci]:
            bits |= crow[cj]
        crow[ci] = bits
    return [crow[comp_of[a]] | (1 << a) for a in range(n)]


# ----------------------------------------------------------------------
# Join-graph file format: the graph section plus a steiner section


def format_join(jg):
    g = jg.graph
    lines = [f"{g.n} {g.m} digraph"]
    lines.extend(f"{u} {v}" for u, v in g.arcs)
    lines.append(f"steiner {jg.steiner_count}")
    lines.extend(jg.steiner_tags)
    return "\n".join(lines) + "\n"


def parse_join(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty join file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"bad header {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise ValueError(f"negative count in header {lines[0]!r}")
    arcs = _parse_arcs(lines[1 : 1 + m], m)
    sline = lines[1 + m].split() if len(lines) > 1 + m else []
    if len(sline) != 2 or sline[0] != "steiner":
        raise ValueError("missing steiner section")
    k = int(sline[1])
    tags = lines[2 + m :]
    if len(tags) != k or not 0 <= k <= n:
        raise ValueError(f"steiner section says {k} tags for n={n}; {len(tags)} tag lines follow")
    return JoinGraph(Digraph(n, arcs), n - k, tags)


def read_join(path):
    with open(path, encoding="utf-8") as f:
        return parse_join(f.read())


def write_join(jg, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_join(jg))
