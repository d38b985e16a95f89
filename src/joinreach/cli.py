"""Command line front end.

Subcommands: gen, build, query, verify, stats, bench. Exit codes:
0 success, 1 verification failure, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import gen as generators
from .explicit import (
    build_pathcover,
    build_tree_path,
    build_two_paths,
    build_two_trees,
    build_unoriented_trees,
    format_join,
    read_join,
    verify_join_graph,
    write_join,
    _Builder,
)
from .graph import condense_pair, read_graph, topo_order, write_graph
from .jrindex import (
    index_hpd_two_trees,
    index_pathcover,
    index_planar_st,
    index_tree_path,
    index_two_paths,
    index_two_trees,
)


CLASSES = (
    "two-paths",
    "tree-path",
    "two-trees",
    "unoriented-trees",
    "pathcover",
    "planar-st",
    "hpd-two-trees",
)


class UsageError(ValueError):
    pass


def detect_class(g1, g2):
    k1, k2 = g1.kind, g2.kind
    trees = ("out-tree", "in-tree")
    if k1 == "path" and k2 == "path":
        return "two-paths"
    if (k1 in trees and k2 == "path") or (k1 == "path" and k2 in trees):
        return "tree-path"
    if k1 == "utree" and k2 == "path" or k1 == "path" and k2 == "utree":
        return "tree-path"
    if k1 in trees and k2 in trees:
        return "two-trees"
    if "utree" in (k1, k2) and {k1, k2} <= {"utree", "out-tree", "in-tree", "path"}:
        return "unoriented-trees"
    if "planar-st" in (k1, k2) and "path" in (k1, k2):
        return "planar-st"
    if "digraph" in (k1, k2):
        return "pathcover"
    raise UsageError(
        f"cannot choose a class for kinds ({k1}, {k2}); pass --class explicitly"
    )


def _tree_first(g1, g2):
    if g2.kind in ("out-tree", "in-tree", "utree") and g1.kind == "path":
        return g2, g1
    return g1, g2


def _dag_first(g1, g2):
    if g1.kind == "path" and g2.kind == "digraph":
        return g2, g1
    return g1, g2


def _is_oriented_path(g):
    return g.kind == "path" and g.is_directed_path()


def _condensed(g1, g2):
    """Reduce a cyclic pair to subcomponent DAGs plus the expansion maps."""
    cp = condense_pair(g1, g2)
    return cp


def build_explicit(cls, g1, g2):
    if cls == "two-paths":
        if _is_oriented_path(g1) and _is_oriented_path(g2):
            return build_two_paths(g1, g2)
        return build_unoriented_trees(g1, g2)
    if cls == "tree-path":
        t, p = _tree_first(g1, g2)
        if t.kind in ("out-tree", "in-tree") and _is_oriented_path(p):
            return build_tree_path(t, p)
        return build_unoriented_trees(t, p)
    if cls == "two-trees":
        return build_two_trees(g1, g2)
    if cls == "unoriented-trees":
        return build_unoriented_trees(g1, g2)
    if cls == "pathcover":
        g1, g2 = _dag_first(g1, g2)
        if topo_order(g1) is None or topo_order(g2) is None:
            return _build_pathcover_cyclic(g1, g2)
        return build_pathcover(g1, g2)
    raise UsageError(f"class {cls} has no explicit construction")


def _build_pathcover_cyclic(g1, g2):
    """Condense a cyclic pair, build over subcomponents, splice originals in.

    Each subcomponent becomes an id-ordered cycle through its members; its
    first member carries the subcomponent's arcs in the built join graph.
    """
    cp = _condensed(g1, g2)
    inner = build_pathcover(cp.g1_hat, cp.g2_hat)
    n = g1.n
    b = _Builder(n)
    shift = {}
    for s, members in enumerate(cp.members):
        if len(members) > 1:
            for i in range(len(members)):
                b.arc(members[i], members[(i + 1) % len(members)])
        shift[s] = members[0]
    offset = n - cp.n_sub
    for tag in inner.steiner_tags:
        b.steiner(tag)
    for u, v in inner.graph.arcs:
        uu = shift[u] if u < cp.n_sub else u + offset
        vv = shift[v] if v < cp.n_sub else v + offset
        b.arc(uu, vv)
    return b.finish()


def build_index(cls, g1, g2):
    if cls == "two-paths":
        return index_two_paths(g1, g2)
    if cls == "tree-path":
        t, p = _tree_first(g1, g2)
        return index_tree_path(t, p)
    if cls == "two-trees" or cls == "unoriented-trees":
        return index_two_trees(g1, g2)
    if cls == "hpd-two-trees":
        return index_hpd_two_trees(g1, g2)
    if cls == "planar-st":
        if g2.kind == "planar-st":
            g1, g2 = g2, g1
        return index_planar_st(g1, g2)
    if cls == "pathcover":
        g1, g2 = _dag_first(g1, g2)
        if topo_order(g1) is None or topo_order(g2) is None:
            return _CondensedIndex(g1, g2)
        return index_pathcover(g1, g2)
    raise UsageError(f"unknown class {cls}")


class _CondensedIndex:
    """Query adapter for cyclic digraph pairs via pair condensation."""

    def __init__(self, g1, g2):
        self.cp = _condensed(g1, g2)
        self.inner = index_pathcover(self.cp.g1_hat, self.cp.g2_hat)
        self.n = g1.n

    def query(self, b):
        subs = self.inner.query(self.cp.sub_of[b])
        out = []
        for s in subs:
            out.extend(self.cp.members[s])
        return sorted(out)


def cmd_gen(args):
    spec = generators.InstanceSpec(args.kind, args.n, args.seed, {})
    if args.p is not None:
        spec.params["p"] = args.p
    graphs = generators.generate(spec)
    outs = [args.output] + (args.extra_output or [])
    if len(graphs) != len(outs):
        raise UsageError(
            f"generator {args.kind} produces {len(graphs)} file(s); "
            f"{len(outs)} output path(s) given"
        )
    for g, path in zip(graphs, outs):
        write_graph(g, path)
    return 0


def cmd_build(args):
    g1 = read_graph(args.g1)
    g2 = read_graph(args.g2)
    cls = args.cls or detect_class(g1, g2)
    if args.mode == "explicit":
        jg = build_explicit(cls, g1, g2)
        if args.output:
            write_join(jg, args.output)
        else:
            sys.stdout.write(format_join(jg))
        print(
            f"built {cls}: n={jg.n_original} steiner={jg.steiner_count} "
            f"arcs={jg.graph.m} size={jg.size}",
            file=sys.stderr,
        )
        return 0
    idx = build_index(cls, g1, g2)
    print(f"index {cls}: n={g1.n} ready (in-memory only; use `jr query` to ask)")
    return 0


def cmd_query(args):
    g1 = read_graph(args.g1)
    g2 = read_graph(args.g2)
    cls = args.cls or detect_class(g1, g2)
    idx = build_index(cls, g1, g2)
    for a in idx.query(args.vertex):
        print(a)
    return 0


def cmd_verify(args):
    jg = read_join(args.join)
    g1 = read_graph(args.g1)
    g2 = read_graph(args.g2)
    rep = verify_join_graph(jg, g1, g2)
    if rep.ok:
        print(f"ok: {rep.pairs_checked} pairs")
        return 0
    a, b, kind = rep.first_violation
    print(f"FAIL: pair ({a},{b}) {kind}")
    return 1


def _ratios(jg):
    n = jg.n_original
    logn = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    return jg.size / (n * logn), jg.size / (n * logn * logn)


def cmd_stats(args):
    jg = read_join(args.join)
    r1, r2 = _ratios(jg)
    print(f"n\t{jg.n_original}")
    print(f"steiner\t{jg.steiner_count}")
    print(f"arcs\t{jg.graph.m}")
    print(f"size\t{jg.size}")
    print(f"ratio_log\t{r1:.3f}")
    print(f"ratio_log2\t{r2:.3f}")
    return 0


BENCH_CAPS = {"paths": 1 << 14, "trees": 1 << 14, "pathcover": 1 << 10}


def cmd_bench(args):
    import random as _random

    suite = args.suite
    cap = min(args.max_n, BENCH_CAPS[suite])
    print("suite\tinst\tn\tseed\tbuild_s\tsize\tratio_log\tverify")
    n = 256
    while n <= cap:
        for inst, (g1, g2) in _bench_instances(suite, n, args.seed):
            t0 = time.perf_counter()
            jg = build_explicit(_bench_class(suite), g1, g2)
            dt = time.perf_counter() - t0
            r1, _ = _ratios(jg)
            if n <= 512:
                status = "ok" if verify_join_graph(jg, g1, g2).ok else "FAIL"
            else:
                status = "skip"
            print(f"{suite}\t{inst}\t{n}\t{args.seed}\t{dt:.3f}\t{jg.size}\t{r1:.3f}\t{status}")
        n *= 4
    return 0


def _bench_class(suite):
    return {"paths": "two-paths", "trees": "unoriented-trees", "pathcover": "pathcover"}[suite]


def _bench_instances(suite, n, seed):
    import random as _random

    rng = _random.Random((suite, n, seed).__repr__())
    if suite == "paths":
        from .explicit import gen_bitreversal

        yield "bitrev", gen_bitreversal(n)
        yield "random", (generators.rand_path(rng, n), generators.rand_path(rng, n))
    elif suite == "trees":
        yield "random", (generators.rand_utree(rng, n), generators.rand_utree(rng, n))
    else:
        yield "random", (
            generators.rand_dag(rng, n, 4.0 / n),
            generators.rand_path(rng, n),
        )


def make_parser():
    ap = argparse.ArgumentParser(prog="jr", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instance files")
    g.add_argument("--kind", required=True, choices=generators.GENERATOR_KINDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--p", type=float, default=None, help="arc probability for dag-gnp")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("extra_output", nargs="*", help="second file for bitrev")
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build an explicit join graph or an index")
    b.add_argument("--mode", choices=("explicit", "index"), default="explicit")
    b.add_argument("--class", dest="cls", choices=CLASSES, default=None)
    b.add_argument("g1")
    b.add_argument("g2")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="report all vertices reaching b in both graphs")
    q.add_argument("--class", dest="cls", choices=CLASSES, default=None)
    q.add_argument("g1")
    q.add_argument("g2")
    q.add_argument("-b", "--vertex", type=int, required=True)
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="check a join graph against its inputs")
    v.add_argument("join")
    v.add_argument("g1")
    v.add_argument("g2")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("stats", help="size accounting of a join graph file")
    s.add_argument("join")
    s.set_defaults(func=cmd_stats)

    be = sub.add_parser("bench", help="size/time sweep, tab-separated table")
    be.add_argument("--suite", choices=("paths", "trees", "pathcover"), required=True)
    be.add_argument("--max-n", type=int, default=1 << 14)
    be.add_argument("--seed", type=int, default=0)
    be.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
