"""Reference layer graphs of a layer decomposition, built for the tests.

The library keeps only the partition (`layers`, `iota`, `up`,
`fringe_root`). Graph i of the paper's 2-layered sequence is induced by
layer i (its core) and layer i + 1 (its fringe) plus a root, local vertex
0: graph 0's root is the start vertex v0, and a later graph's root
contracts every earlier layer. The graphs are built here from `layers`
and `iota` alone, so the tests can check the sequence's invariants on
the library's partition.
"""

from dataclasses import dataclass

from joinreach.graph import Digraph


@dataclass
class LayerGraph:
    index: int
    digraph: Digraph
    orig_of: list   # local id -> original vertex; None for a contracted root
    local_of: dict  # original vertex -> local id


def layer_graphs(g, dec, v0=0):
    """The induced layer graphs of `dec`, a decomposition of g from v0."""
    layers, iota = dec.layers, dec.iota
    graphs = []
    for i, core in enumerate(layers):
        fringe = layers[i + 1] if i + 1 < len(layers) else []
        if i == 0:
            locs = [v0] + [v for v in core if v != v0] + fringe
        else:
            locs = [None] + core + fringe
        local_of = {v: k for k, v in enumerate(locs) if v is not None}
        arcs = set()
        for v, lv in local_of.items():
            for w in g.out[v]:
                lw = local_of.get(w, 0 if iota[w] < i else None)
                if lw is not None:
                    arcs.add((lv, lw))
            for w in g.inn[v]:
                lw = local_of.get(w, 0 if iota[w] < i else None)
                if lw is not None:
                    arcs.add((lw, lv))
        graphs.append(LayerGraph(i, Digraph(len(locs), arcs), locs, local_of))
    return graphs
