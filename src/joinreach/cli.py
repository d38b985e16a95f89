"""Command line front end.

Subcommands: gen, build, query, verify, stats, bench. Exit codes:
0 success, 1 verification failure, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from collections import Counter

from . import gen as generators
from .classes import CLASSES, build, classify
from .explicit import format_join, read_join, tag_depth, verify_join_graph, write_join
from .graph import read_graph, write_graph


class UsageError(ValueError):
    pass


def _pair_class(args):
    """The two input graphs of a build or query, in their builders' order,
    with the name of their class (`--class` when given)."""
    name, g1, g2 = classify(read_graph(args.g1), read_graph(args.g2))
    return args.cls or name, g1, g2


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
    cls, g1, g2 = _pair_class(args)
    jg = CLASSES[cls].explicit(g1, g2)
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


def cmd_query(args):
    cls, g1, g2 = _pair_class(args)
    for a in CLASSES[cls].index(g1, g2).query(args.vertex):
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
    n = max(1, jg.n_original)  # an empty join reads 0, not a division by zero
    logn = max(1, math.ceil(math.log2(n)))
    return jg.size / (n * logn), jg.size / (n * logn * logn)


def cmd_stats(args):
    jg = read_join(args.join)
    depths = Counter(map(tag_depth, jg.steiner_tags))
    r1, r2 = _ratios(jg)
    print(f"n\t{jg.n_original}")
    print(f"steiner\t{jg.steiner_count}")
    print(f"arcs\t{jg.graph.m}")
    print(f"size\t{jg.size}")
    print(f"ratio_log\t{r1:.3f}")
    print(f"ratio_log2\t{r2:.3f}")
    for depth, count in sorted(depths.items()):
        print(f"steiner_d{depth}\t{count}")
    return 0


BENCH_CAPS = {"paths": 1 << 14, "trees": 1 << 14, "pathcover": 1 << 10}


def cmd_bench(args):
    suite = args.suite
    cap = min(args.max_n, BENCH_CAPS[suite])
    print("suite\tinst\tn\tseed\tbuild_s\tsize\tratio_log\tverify")
    n, failed = 256, False
    while n <= cap:
        for inst, (g1, g2) in _bench_instances(suite, n, args.seed):
            t0 = time.perf_counter()
            jg = build(g1, g2)
            dt = time.perf_counter() - t0
            r1, _ = _ratios(jg)
            if n <= 512:
                status = "ok" if verify_join_graph(jg, g1, g2).ok else "FAIL"
            else:
                status = "skip"
            print(f"{suite}\t{inst}\t{n}\t{args.seed}\t{dt:.3f}\t{jg.size}\t{r1:.3f}\t{status}")
            failed = failed or status == "FAIL"
        n *= 4
    return 1 if failed else 0


def _bench_instances(suite, n, seed):
    rng = random.Random((suite, n, seed).__repr__())
    if suite == "paths":
        yield "bitrev", generators.gen_bitreversal(n)
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

    b = sub.add_parser("build", help="build an explicit join graph")
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
