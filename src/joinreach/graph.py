"""Directed-graph substrate shared by every other module.

Provides the adjacency digraph with class tags, bitset reachability
closures, strong-component condensation of a digraph pair, the layer
partition of an unoriented tree with the contracted DFS intervals of its
layer graphs, DFS intervals on rooted trees, and path runs and tree
blocks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import add


KINDS = ("digraph", "path", "out-tree", "in-tree", "utree", "planar-st")


class GraphClassError(ValueError):
    """Graph violates the invariants of its declared kind."""


class CyclicGraphError(ValueError):
    """Operation requires an acyclic digraph."""


def _sorted_rows(rows):
    """Each row as the sorted tuple of its distinct entries."""
    return tuple([tuple(sorted(set(row))) if len(row) > 1 else tuple(row) for row in rows])


class Digraph:
    """Simple digraph over vertices 0..n-1.

    Arcs are normalized on construction, row by row, in time linear in n
    plus the arcs but for the sort of each row. `Digraph(n, arcs)` makes
    one pass over the arcs, any iterable of pairs (a one-shot generator
    too): it raises on the first out-of-range arc in input order, drops
    self-loops and puts each other arc in its tail's row.
    `Digraph.from_rows(n, rows, kind)` takes one row per vertex instead
    and checks each once it is sorted: its ends must lie in range and its
    tail must not be in it. A row that fails sends all the rows, in row
    order, through the pass over arcs. Both share one normaliser
    (`_sorted_rows`, `_keep`), which sorts and deduplicates each row and
    validates the kind. A parsed file's arc lines take that pass in
    `_graph_section`, which sorts only rows that arrive out of order, and
    are kept through `_of_rows`, as `from_rows` keeps its rows. The graph
    keeps only these out rows and its arc count. `arcs` is read off the
    out rows on each access; the in rows `inn` are built from them on
    first read and then kept. In-trees, unoriented paths, utrees and
    planar-st graphs read them to validate their kind, so build them at
    once; out-trees and dipaths are validated by one heads check and one
    walk of the out rows (`_walk`), and build them only when a caller
    reads `inn`. An in row holds the int object its vertex has as a head,
    so a graph whose heads share one int per vertex, as a built and a
    parsed one do (`_graph_section`), holds one int per vertex. Instances
    are treated as immutable after construction.
    """

    __slots__ = ("n", "m", "kind", "out", "out_order", "_inn", "_root")

    def __init__(self, n, arcs, kind="digraph", out_order=None):
        out = [[] for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u != v:
                out[u].append(v)
        self._keep(n, _sorted_rows(out), kind, out_order)

    @classmethod
    def from_rows(cls, n, rows, kind):
        """The graph whose row u lists the heads of u's out-arcs, in any
        order and with repeats: n rows of ints. Unless a row has a loop
        or a head out of range, they are sorted and kept; else its arcs
        are read row by row as `Digraph(n, arcs)` reads arcs, which drops
        the loops and names the first bad arc in row order."""
        if len(rows) != n:
            raise ValueError(f"{len(rows)} rows for n={n}")
        out = _sorted_rows(rows)
        for u in compress(range(n), out):  # the rows with arcs
            row = out[u]
            if row[0] < 0 or row[-1] >= n or u in row:
                return cls(n, ((t, v) for t, heads in enumerate(rows) for v in heads), kind)
        return cls._of_rows(n, out, kind)

    @classmethod
    def _of_rows(cls, n, out, kind, out_order=None):
        """The graph of the normalised rows `out`, kept as they are."""
        g = cls.__new__(cls)
        g._keep(n, out, kind, out_order)
        return g

    def _keep(self, n, out, kind, out_order):
        """Keep the sorted rows `out` and validate the kind."""
        if kind not in KINDS:
            raise GraphClassError(f"unknown graph kind {kind!r}")
        self.n = n
        self.out = out
        self.m = sum(map(len, self.out))
        self.kind = kind
        self._inn = self._root = None
        self.out_order = None
        if out_order is not None:
            order = tuple(tuple(ws) for ws in out_order)
            if len(order) != n:
                raise GraphClassError(f"out_order has {len(order)} rows for {n} vertices")
            for v in range(n):
                if sorted(order[v]) != sorted(self.out[v]):
                    raise GraphClassError(
                        f"out-arc order of vertex {v} is not a permutation of its out-arcs"
                    )
            self.out_order = order
        self._validate()

    @property
    def inn(self):
        """The sorted in rows, built from the out rows on first read and
        then kept; an out-tree or a dipath never builds them unless read
        here. A tail is entered as the int object the out rows hold for it
        as a head, and only a source gets a new one, so building them
        makes no int per arc."""
        if self._inn is None:
            n, out = self.n, self.out
            ids = [None] * n
            for row in out:
                for v in row:
                    ids[v] = v
            inn = [[] for _ in range(n)]
            for u, row in enumerate(out):
                if ids[u] is not None:  # else a source: its int is made here
                    u = ids[u]
                for v in row:
                    inn[v].append(u)
            self._inn = tuple(map(tuple, inn))
        return self._inn

    @property
    def arcs(self):
        """The arcs as a sorted tuple of (u, v) pairs, built anew from the
        out rows on each access."""
        return tuple((u, v) for u, row in enumerate(self.out) for v in row)

    @property
    def size(self):
        """Vertex count plus arc count."""
        return self.n + self.m

    def _validate(self):
        """Raise the first failing check of the kind, in this order:
        - path: n - 1 arcs, degrees at most 2, connected; a dipath
          (`_dipath_walk`) passes at once
        - out-tree: n - 1 arcs, in-degrees at most 1, connected
        - in-tree: n - 1 arcs, out-degrees at most 1, connected
        - utree: n - 1 arcs, connected
        - planar-st: acyclic, one source, one sink
        A tree with n - 1 arcs and in-degrees (or out-degrees) at most 1
        has exactly one root, so no root check can fail after them."""
        kind, n, out = self.kind, self.n, self.out
        if kind == "digraph":
            return
        if kind == "path":
            if self._dipath_walk() is not None:
                return
            self._require(self.m == n - 1, "a path on n vertices needs n-1 arcs")
            deg = map(add, map(len, out), map(len, self.inn))
            self._require(max(deg) <= 2, "path vertex with degree > 2")
            self._require(self._underlying_connected(), "path is not connected")
        elif kind in ("out-tree", "in-tree"):
            rows = out if kind == "out-tree" else self.inn
            order = self._walk(rows)
            if order is None:  # name the first failing check
                self._require(self.m == n - 1, "a tree on n vertices needs n-1 arcs")
                ends = set(chain.from_iterable(rows))
                degree = "in-degree" if kind == "out-tree" else "out-degree"
                self._require(len(ends) == self.m, f"{kind} vertex with {degree} > 1")
                self._require(False, f"{kind} is not connected")
            self._root = order[0]
        elif kind == "utree":
            self._require(self.m == n - 1, "a tree on n vertices needs n-1 arcs")
            self._require(self._underlying_connected(), "utree is not connected")
        elif kind == "planar-st":
            self._require(topo_order(self) is not None, "planar-st graph must be acyclic")
            self._require(self.inn.count(()) == 1, "planar-st graph must have exactly one source")
            self._require(out.count(()) == 1, "planar-st graph must have exactly one sink")

    def _walk(self, rows):
        """The vertices in the order a walk of `rows` (the out rows or the
        in rows) meets them from the one vertex in no row, or None unless
        the graph has n - 1 arcs with n - 1 distinct row entries and the
        walk reaches all n vertices: that is, unless it is an out-tree
        (an in-tree for the in rows). Distinct entries mean the walk meets
        each vertex at most once, and the vertex in no row is the sum
        0 + ... + (n - 1) less the entries'."""
        n = self.n
        if self.m != n - 1:
            return None
        ends = set(chain.from_iterable(rows))
        if len(ends) != n - 1:
            return None
        order = [n * (n - 1) // 2 - sum(ends)]
        for v in order:
            order += rows[v]
        return order if len(order) == n else None

    def _dipath_walk(self):
        """`_walk` of the out rows if every row has at most one arc, else
        None: the vertices of a fully oriented dipath from source to sink,
        or None unless the graph is one."""
        out = self.out
        return self._walk(out) if max(map(len, out), default=0) <= 1 else None

    def _require(self, cond, msg):
        if not cond:
            raise GraphClassError(f"{self.kind}: {msg}")

    def _underlying_connected(self):
        # each caller first requires m == n - 1, so n >= 1 here
        seen = [False] * self.n
        order = [0]
        out, inn = self.out, self.inn
        for v in order:  # each arc adds its far end from both ends: 2m + 1 at most
            if not seen[v]:
                seen[v] = True
                order += out[v] + inn[v]
        return all(seen)

    def root(self):
        """Root of a rooted tree (out-tree or in-tree), kept from the walk
        that validated it, so an out-tree's in rows are not built."""
        if self._root is None:
            raise GraphClassError(f"{self.kind} has no canonical root")
        return self._root

    def is_directed_path(self):
        """True iff the graph is a fully oriented dipath (`_dipath_walk`);
        the in rows are not read."""
        return self._dipath_walk() is not None

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m}, kind={self.kind!r})"


def path_order(g):
    """Vertex sequence of a fully oriented dipath, source to sink: its
    `_dipath_walk`, so the in rows are not read."""
    order = g._dipath_walk()
    if order is None:
        raise GraphClassError("graph is not a fully oriented dipath")
    return order


def dipath_of(order):
    """Dipath Digraph visiting `order` front to back."""
    arcs = [(order[i], order[i + 1]) for i in range(len(order) - 1)]
    return Digraph(len(order), arcs, kind="path")


def topo_order(g):
    """A topological order of g, or None if g has a cycle: Kahn's pass
    with a stack of the vertices whose in-arcs are all taken. In-degrees
    are counted off the out rows, so g's in rows are not built."""
    indeg = [0] * g.n
    for row in g.out:
        for w in row:
            indeg[w] += 1
    stack = [v for v in range(g.n) if not indeg[v]]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in g.out[v]:
            indeg[w] -= 1
            if not indeg[w]:
                stack.append(w)
    return order if len(order) == g.n else None


def tarjan_scc(g):
    """Strong components in topological order.

    Returns (comp_of, comps) where comps[i] is the sorted member list of
    the i-th component and i < j implies no arc from comps[j] to comps[i].
    Tarjan's search as one stack walk that pushes ~v, then v's arcs; ~v
    takes its heads' low values. Emission order is reversed to obtain a
    topological order of the condensation.
    """
    n = g.n
    out = g.out
    index_of = [-1] * n
    low = [0] * n
    stack = []  # the vertices of the components not yet closed
    comps = []  # in emission order
    counter = 0
    work = list(range(n - 1, -1, -1))  # each vertex starts a search unless met before
    while work:
        v = work.pop()
        if v < 0:
            v = ~v
            for w in out[v]:
                if low[w] < low[v]:
                    low[v] = low[w]
            if low[v] == index_of[v]:
                # a closed vertex's low becomes n plus its component's emission
                # index: above every number, so it lowers no other vertex's
                comp = []
                w = -1
                while w != v:
                    w = stack.pop()
                    low[w] = n + len(comps)
                    comp.append(w)
                comp.sort()
                comps.append(comp)
        elif index_of[v] == -1:
            index_of[v] = low[v] = counter
            counter += 1
            stack.append(v)
            work.append(~v)
            work.extend(reversed(out[v]))
    comps.reverse()
    last = n + len(comps) - 1
    return [last - x for x in low], comps


def _reach_rows(g, keep):
    """Per vertex of g, the bit row of the vertices below `keep` that it
    reaches, itself included.

    One row OR per arc in reverse topological order. Only a cyclic g is
    condensed first (`tarjan_scc`): a component's row holds its members,
    and its arcs OR the rows of the later components they enter.
    """
    order = topo_order(g)
    if order is not None:
        rows = [0] * g.n
        for v in reversed(order):
            bits = 1 << v if v < keep else 0
            for w in g.out[v]:
                bits |= rows[w]
            rows[v] = bits
        return rows
    comp_of, comps = tarjan_scc(g)
    crow = [0] * len(comps)
    for ci in range(len(comps) - 1, -1, -1):
        bits = 0
        for v in comps[ci]:
            if v < keep:
                bits |= 1 << v
            for w in g.out[v]:
                bits |= crow[comp_of[w]]  # 0 inside the component, not yet set
        crow[ci] = bits
    return [crow[c] for c in comp_of]


def transitive_closure(g):
    """Reachability oracle: the reflexive-transitive closure of g as one
    int bit row per vertex, bit b of row a set iff a reaches b."""
    return _reach_rows(g, g.n)


@dataclass
class CondensedPair:
    """Acyclic sibling digraphs over the joint subcomponents of a pair."""

    g1_hat: Digraph
    g2_hat: Digraph
    sub_of: list
    members: list


def condense_pair(g1, g2):
    """Condense two digraphs over a common vertex set.

    Vertices share a subcomponent iff they are mutually reachable in both
    inputs. Within each strong component of one graph, its subcomponents
    are chained following the topological order of the other graph's
    condensation, and inter-component arcs run from last subcomponent to
    first, so the join relation over original vertices is preserved.
    """
    if g1.n != g2.n:
        raise ValueError("vertex-set mismatch")
    comp1_of, comps1 = tarjan_scc(g1)
    comp2_of, comps2 = tarjan_scc(g2)

    keys = list(zip(comp1_of, comp2_of))
    key_to_sub = {key: s for s, key in enumerate(sorted(set(keys)))}
    sub_of = [key_to_sub[key] for key in keys]
    members = [[] for _ in key_to_sub]
    for v, s in enumerate(sub_of):
        members[s].append(v)

    def build_hat(comps_a, comp_a_of, comp_b_of, g):
        # Subcomponents of one a-component, chained by the other graph's
        # topological position; inter-component arcs last-sub -> first-sub.
        arcs, first_sub, last_sub = [], [], []
        for comp in comps_a:
            subs = [s for _, s in sorted({(comp_b_of[v], sub_of[v]) for v in comp})]
            first_sub.append(subs[0])
            last_sub.append(subs[-1])
            arcs += zip(subs, subs[1:])
        for u, row in enumerate(g.out):
            cu = comp_a_of[u]
            arcs += [(last_sub[cu], first_sub[comp_a_of[v]]) for v in row if comp_a_of[v] != cu]
        return Digraph(len(members), arcs)

    g1_hat = build_hat(comps1, comp1_of, comp2_of, g1)
    g2_hat = build_hat(comps2, comp2_of, comp1_of, g2)
    return CondensedPair(g1_hat, g2_hat, sub_of, members)


@dataclass
class LayerDecomposition:
    """The layers of a tree, as a partition of its vertices.

    iota[v] is v's layer. up[v] is the vertex v was first reached from
    when that lies in v's own layer, else -1: v hangs off the root of its
    layer graph (v0 also has -1). fringe_root[v] is the vertex of layer
    iota[v] - 1 that v hangs off in that layer's graph, -1 in layer 0.
    """

    layers: list
    iota: list
    up: list
    fringe_root: list

    @property
    def mu(self):
        return len(self.layers)


def layer_decompose(g, v0=None):
    """Partition g into layers, the cores of its 2-layered graph sequence.

    Layer 0 holds v0 and everything reachable from it; odd layers gather
    the remaining vertices that reach earlier layers, even layers those
    reachable from earlier layers. Graph i is induced by layers i, i+1
    plus a root contracting everything earlier; only the partition is
    returned. Requires g acyclic (as a digraph) and weakly connected.

    Each layer is one search from the layer before it over unassigned
    vertices: the earlier layers are already closed in the search's
    direction, so O(n + m) in total. The search also records each
    vertex's parent in its layer (`up`) and, for each vertex of layer
    i+1, the vertex of layer i its fringe tree hangs off in graph i
    (`fringe_root`).
    """
    n = g.n
    if v0 is None:
        v0 = 0
    if not (0 <= v0 < n):
        raise ValueError(f"v0={v0} out of range")
    iota = [-1] * n
    iota[v0] = 0
    up = [-1] * n
    fringe_root = [-1] * n

    def search(i, seeds):
        # Unassigned vertices reached from seeds, labelled layer i.
        adj = g.inn if i % 2 else g.out
        found = []
        queue = list(seeds)
        for v in queue:
            for w in adj[v]:
                if iota[w] < 0:
                    iota[w] = i
                    if iota[v] == i:
                        up[w] = v
                    if i:
                        fringe_root[w] = v if iota[v] < i else fringe_root[v]
                    found.append(w)
                    queue.append(w)
        return found

    layers = [[v0] + search(0, [v0])]
    assigned = len(layers[0])
    while assigned < n:
        cur = search(len(layers), layers[-1])
        if not cur:
            raise ValueError("layer decomposition requires a weakly connected graph")
        assigned += len(cur)
        layers.append(cur)
    return LayerDecomposition([sorted(layer) for layer in layers], iota, up, fringe_root)


def contracted_intervals(dec, i):
    """(s, t): {core vertex: doubled DFS start} and {core vertex: doubled
    DFS end} of layer graph i, fringe trees contracted.

    Core vertices form a connected crown at the graph's root, so the
    contracted tree is the root plus layer i, each vertex below its `up`
    (or the root), children in increasing id. In tree g the path to the
    root is unique, so the search parent is the tree parent. Layer 0's
    root is v0, a core vertex; a later layer's root stands for the earlier
    layers and takes the first tick, its own interval unused.
    """
    core, up = dec.layers[i], dec.up
    kids = {v: [] for v in core}
    top = []  # v0 in layer 0, else the vertices below the contracted root
    for v in core:
        (kids[up[v]] if up[v] >= 0 else top).append(v)
    clock = 2 if i else 0
    s, t = {}, {}
    stack = top[::-1]
    while stack:
        v = stack.pop()
        clock += 2
        if v is None:  # leave the vertex beneath: the dicts share its int
            t[stack.pop()] = clock
            continue
        s[v] = clock
        stack += v, None
        stack += kids[v][::-1]
    return s, t


@dataclass
class TreeBlock:
    """One block of a tree: the tree itself when it is rooted, one maximal
    run of a path (a dipath is one run), or one graph of an unoriented
    tree's layer decomposition.

    Core members form a tree oriented `orient` ("out" or "in") below the
    block's root. `fringe` holds the other members: none in a rooted tree
    or a run, layer i + 1 in layer block i. Each fringe member hangs off a
    core member, its supervertex, and shares that member's interval. A
    member's interval is its supervertex's DFS start and end, doubled, in
    the int columns `s` and `t`: lists over all vertices for a rooted
    tree, dicts over the members otherwise, so no member holds a tuple. A
    chain block (a run, out-oriented) orders its members totally: b's
    predecessors in it are the members whose interval starts at or before
    b's.
    """

    orient: str
    fringe: frozenset
    s: dict | list  # member -> doubled DFS start of its supervertex
    t: dict | list  # member -> doubled DFS end of its supervertex
    chain: bool


def split_unoriented_path(p):
    """Maximal uniformly oriented subpaths (runs) of a path.

    Returned as vertex sequences in arc direction, in walk order from the
    smaller end; each vertex lies on at most two of them. A dipath is one
    run, its `_dipath_walk`, found without reading the in rows.
    """
    if p.kind != "path":
        raise GraphClassError("split requires kind=path")
    order = p._dipath_walk()
    if order is not None:
        return [order]
    n, out, inn = p.n, p.out, p.inn
    v = min(x for x in range(n) if len(out[x]) + len(inn[x]) == 1)
    seq, fwd = [v], []  # fwd[k]: the arc of seq[k] and seq[k + 1] points forward
    prev = -1
    while len(seq) < n:
        step = [(w, True) for w in out[v] if w != prev] + [(w, False) for w in inn[v] if w != prev]
        prev, (v, d) = v, step[0]
        seq.append(v)
        fwd.append(d)
    runs = []
    start = 0
    for k in range(1, n):
        if k == n - 1 or fwd[k] != fwd[start]:
            run = seq[start : k + 1]
            runs.append(run if fwd[start] else run[::-1])
            start = k
    return runs


def tree_blocks(g):
    """(blocks, of): the blocks of a tree, and per vertex the ascending
    indices of the at most two blocks holding it.

    A rooted tree is one block with no fringe, its `s` and `t` lists over
    all vertices doubled from `dfs_intervals`, and a path one chain block
    with no fringe per maximal run (a dipath is one run). An unoriented
    tree gives block i for layer graph i: out-oriented for even i,
    in-oriented for odd i, core on layer i and fringe on layer i + 1.
    """
    if g.kind not in ("out-tree", "in-tree", "utree", "path"):
        raise GraphClassError("expected a tree")
    n = g.n
    if g.kind == "path":
        blocks = []
        of = [[] for _ in range(n)]
        for j, run in enumerate(split_unoriented_path(g)):
            # the DFS intervals of the run walked from its source, doubled:
            # the k-th vertex enters at 2k + 2 and leaves at 4 len(run) - 2k
            s = {v: 2 * k + 2 for k, v in enumerate(run)}
            end = 4 * len(run) + 2
            t = {v: end - x for v, x in s.items()}
            blocks.append(TreeBlock("out", frozenset(), s, t, True))
            for v in run:
                of[v].append(j)
        return blocks, of
    orient = {"out-tree": "out", "in-tree": "in"}.get(g.kind)
    if orient is not None:
        iv = dfs_intervals(g)
    elif all(len(p) <= 1 for p in g.inn):
        orient, iv = "out", dfs_intervals(g, g.inn.index(()))
    elif all(len(s) <= 1 for s in g.out):
        orient, iv = "in", dfs_intervals(g, g.out.index(()))
    if orient is not None:
        s, t = [x + x for x in iv.s], [x + x for x in iv.t]
        return [TreeBlock(orient, frozenset(), s, t, False)], [(0,)] * n
    dec = layer_decompose(g, 0)
    blocks = []
    of = [[] for _ in range(n)]
    for i, core in enumerate(dec.layers):
        fringe = frozenset(dec.layers[i + 1] if i + 1 < dec.mu else ())
        s, t = contracted_intervals(dec, i)
        for v in fringe:
            root = dec.fringe_root[v]
            s[v], t[v] = s[root], t[root]
        blocks.append(TreeBlock("in" if i % 2 else "out", fringe, s, t, False))
        for v in s:
            of[v].append(i)
    return blocks, of


def block_pairs(g1, g2):
    """(blocks1, blocks2, pairs): the tree blocks of two trees over one
    vertex set, and the pairs of blocks that share at least two vertices
    as ((k1, k2), ascending shared vertices), in key order, from one pass
    over the vertices. A pair sharing one vertex could relate only that
    vertex to itself.

    When each tree is one block, as a rooted tree or a dipath is, that
    block holds every vertex, so the one pair is ((0, 0), all vertices)
    and there is none for n = 1; it is returned without the pass."""
    if g1.n != g2.n:
        raise ValueError("vertex-set mismatch")
    blocks1, of1 = tree_blocks(g1)
    blocks2, of2 = tree_blocks(g2)
    if len(blocks1) == len(blocks2) == 1:
        return blocks1, blocks2, [((0, 0), list(range(g1.n)))] if g1.n > 1 else []
    # pair (k1, k2) is grouped under the int k1 * w + k2, in the same order
    w = len(blocks2)
    groups = defaultdict(list)
    for v, (ks1, ks2) in enumerate(zip(of1, of2)):
        for k1 in ks1:
            for k2 in ks2:
                groups[k1 * w + k2].append(v)
    return blocks1, blocks2, [(divmod(k, w), vs) for k, vs in sorted(groups.items()) if len(vs) > 1]


@dataclass
class DfsIntervals:
    """First/last visit times of a rooted-tree DFS, all 2n values distinct."""

    s: list
    t: list

    def contains(self, a, b):
        """True iff the interval of a contains the interval of b."""
        return self.s[a] <= self.s[b] and self.t[b] <= self.t[a]


def dfs_intervals(g, root=None):
    """DFS intervals of a rooted tree g, walked away from `root`.

    The walk follows out-arcs from an out-root and in-arcs from an
    in-root, children in increasing vertex id. With no `root` it starts
    at a rooted tree's own root and walks its child rows, so an out-tree
    reads no in rows; an explicit `root` walks out rows if it has no
    in-arcs and in rows if it has no out-arcs. A counter is bumped after
    every visit and every leave, so the 2n assigned values are distinct
    and ancestry equals interval nesting. Raises unless the walk is a
    spanning tree of g.
    """
    if root is None:
        root = g.root()
        adj = g.inn if g.kind == "in-tree" else g.out
    elif not g.inn[root]:
        adj = g.out
    elif not g.out[root]:
        adj = g.inn
    else:
        raise GraphClassError(f"vertex {root} is neither an out-root nor an in-root")
    n = g.n
    if g.m != n - 1:
        raise GraphClassError("not a tree: wrong arc count")
    s = [0] * n
    t = [0] * n
    clock = 0
    stack = [root]
    while stack:
        v = stack.pop()
        clock += 1
        if v < 0:
            t[~v] = clock
            continue
        if s[v]:
            raise GraphClassError("not a tree: a vertex is reached twice")
        s[v] = clock
        stack.append(~v)
        stack += adj[v][::-1]
    if clock != 2 * n:
        raise GraphClassError("not a tree: disconnected")
    return DfsIntervals(s, t)


# ----------------------------------------------------------------------
# Graph file format: line 1 "n m kind", then m lines "u v"; planar-st
# files append per-vertex clockwise out-arc order lines "v: w1 w2 ...".
# A join file is this graph section plus a Steiner section
# (`explicit.parse_join`). Blank lines are dropped; tokens are read by
# str.split and int, which ignore the spaces around them.

def parse_graph(text):
    n, m, kind, out, rest = _graph_section(text)
    if any(kind != "planar-st" or ":" not in ln for ln in rest):
        raise ValueError(f"header says {m} arcs, but more arc lines follow")
    out_order = None
    if kind == "planar-st":
        out_order = [[] for _ in range(n)]
        listed = set()
        for ln in rest:
            vpart, _, ws = ln.partition(":")
            v = int(vpart)
            if not 0 <= v < n:
                raise ValueError(f"out-order line of vertex {v} out of range for n={n}")
            if v in listed:
                raise ValueError(f"out-order of vertex {v} listed twice")
            listed.add(v)
            out_order[v] = [int(w) for w in ws.split()]
    return Digraph._of_rows(n, out, kind, out_order)


def _graph_section(text):
    """(n, m, kind, out, rest) of a graph or join file: its header, the
    normalised out rows of its m arc lines, and the nonblank lines after.
    The arc lines are read first, in one pass, as `Digraph(n, arcs)` reads
    arcs, so a malformed one is reported before any later fault. Rows that
    all arrived strictly ascending, as `format_graph` writes them, become
    tuples in place; else every row is sorted (`_sorted_rows`). Heads of
    one value share one int object, which the in rows reuse, so a parsed
    graph holds one int per vertex, as a built one does."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"bad header {lines[0]!r}")
    n, m, kind = int(head[0]), int(head[1]), head[2]
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if n < 0 or m < 0:
        raise ValueError(f"negative count in header {lines[0]!r}")
    if len(lines) <= m:
        raise ValueError(f"header says {m} arcs, but fewer arc lines follow")
    ids = list(range(n))
    out = [[] for _ in range(n)]
    ascending = True
    for ln in islice(lines, 1, 1 + m):
        u, v = ln.split()  # ValueError unless two tokens
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u},{v}) out of range for n={n}")
        if u != v:
            row = out[u]
            if row and row[-1] >= v:
                ascending = False
            row.append(ids[v])
    if not ascending:
        return n, m, kind, _sorted_rows(out), lines[1 + m :]
    for u in range(n):  # each list is freed as its tuple is made
        out[u] = tuple(out[u])
    return n, m, kind, tuple(out), lines[1 + m :]


def format_graph(g):
    lines = [f"{g.n} {g.m} {g.kind}"]
    lines.extend(f"{u} {v}" for u, row in enumerate(g.out) for v in row)
    if g.kind == "planar-st" and g.out_order is not None:
        for v in range(g.n):
            lines.append(f"{v}: " + " ".join(str(w) for w in g.out_order[v]))
    return "\n".join(lines) + "\n"


def read_graph(path):
    with open(path, encoding="utf-8") as f:
        return parse_graph(f.read())


def write_graph(g, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_graph(g))
