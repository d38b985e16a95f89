"""Explicit join-graph sizes on a seeded random corpus of all five builders,
of planar st-graph pairs, of cyclic pairs and of DAG + in-tree pairs.

Run from the repository root:

    PYTHONPATH=src python scripts/join_sizes.py -o sizes.json
    PYTHONPATH=src python scripts/join_sizes.py --against sizes.json

The first form writes each pair's size, the SHA-256 of its join file
(`format_join`), two SHA-256s over every vertex's `query_counted`
triple from the pair's index (`classes.index`, plus
`index_hpd_two_trees` when both graphs are rooted trees, one an
out-tree), one of the answers with the pairs touched and one of the
probe counts, the pair's probe total, and a SHA-256 of the answer sets:
every vertex's answer with its touched pairs sorted. The second, run on
another checkout, compares with such a file: it counts the pairs whose
join bytes, index answers, index probes and answer sets changed, prints
the corpus probe totals before and after with the numbers of pairs whose
probes rose and fell, and exits 1 when a pair is larger. Pairs are
compared in order, so rows the file lacks, appended to the corpus after
it was written, are only counted as new. A pair whose index
answers changed but whose answer sets did not lists the same pairs in
another order. A file whose rows are not of this script's eight fields
exits 2; regenerate it with the first form.
Every output is checked with `verify_join_graph` as it is built.

Each pair's smallest join without relay vertices
(`minimal_restricted_join`) is built too, and its closure checked to be
the AND of the inputs' closures; its size is totalled per builder beside
the emitted size ("restricted"), as is the emitted joins' Steiner vertex
count ("steiner"), but both are kept out of the rows and the comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from joinreach import classes, explicit
from joinreach.graph import Digraph, topo_order, transitive_closure
from joinreach.jrindex import index_hpd_two_trees
from joinreach.minimal import and_closure, minimal_restricted_join
from joinreach.gen import rand_dag, rand_path, rand_sp_st, rand_tree, rand_upath, rand_utree


def _pair(rng, builder, n):
    if builder == "build_two_paths":
        pick = rng.choice((rand_path, rand_upath))
        return pick(rng, n), rand_path(rng, n)
    if builder == "build_tree_path":
        kind = rng.choice(("out-tree", "in-tree"))
        return rand_tree(rng, n, kind), rand_path(rng, n)
    if builder == "build_two_trees":
        return tuple(rand_tree(rng, n, rng.choice(("out-tree", "in-tree"))) for _ in "12")
    if builder == "build_unoriented_trees":
        return rand_utree(rng, n), rng.choice((rand_utree, rand_upath, rand_path))(rng, n)
    if builder == "cyclic":
        g1 = _graph(rng, n, "cyclic")
        return g1, _graph(rng, n, rng.choice(("dag", "path", "out-tree", "cyclic")))
    g2 = _graph(rng, n, rng.choice(("dag", "path", "out-tree")))
    return _graph(rng, n, "dag"), g2


def _graph(rng, n, shape):
    """A random dipath, out-tree, DAG, or ("cyclic") DAG plus both arcs of
    one pair u != v and ceil(n/8) random arcs."""
    if shape == "path":
        return rand_path(rng, n)
    if shape == "out-tree":
        return rand_tree(rng, n, "out-tree")
    g = rand_dag(rng, n, 4.0 / n)
    if shape == "dag":
        return g
    u, v = rng.sample(range(n), 2)
    extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(-(-n // 8))]
    g = Digraph(n, [*g.arcs, (u, v), (v, u), *extra])
    assert topo_order(g) is None
    return g


BUILDERS = ("build_two_paths", "build_tree_path", "build_two_trees",
            "build_unoriented_trees", "build_pathcover")


def _index_digests(g1, g2):
    """(answers, probes, probe total, answer sets): SHA-256 of every
    vertex's answer and pairs touched, SHA-256 of its probe count, the sum
    of those counts, and SHA-256 of every vertex's answer with its pairs
    touched sorted, from the pair's class index and, for an out-tree with
    a rooted tree, the heavy-path index."""
    indexes = [classes.index(g1, g2)]
    kinds = {g1.kind, g2.kind}
    if "out-tree" in kinds and kinds <= {"out-tree", "in-tree"}:
        indexes.append(index_hpd_two_trees(g1, g2))
    answers, probes, sets = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    total = 0
    for idx in indexes:
        for b in range(g1.n):
            found, count, pairs = idx.query_counted(b)
            answers.update(repr((found, pairs)).encode())
            probes.update(repr(count).encode())
            sets.update(repr((sorted(found), sorted(pairs))).encode())
            total += count
    return answers.hexdigest(), probes.hexdigest(), total, sets.hexdigest()


def _row(name, build, g1, g2):
    """One corpus row, the pair's join built by `build` and verified, its
    Steiner vertex count, and the size of its minimal restricted join,
    checked against the oracle."""
    jg = build(g1, g2)
    if not explicit.verify_join_graph(jg, g1, g2).ok:
        raise SystemExit(f"{name} at n={g1.n}: output fails verification")
    digest = hashlib.sha256(explicit.format_join(jg).encode()).hexdigest()
    red = minimal_restricted_join(g1, g2)
    if transitive_closure(red) != and_closure(transitive_closure(g1), transitive_closure(g2)):
        raise SystemExit(f"{name} at n={g1.n}: minimal join's closure is not the AND")
    return (name, g1.n, jg.size, digest, *_index_digests(g1, g2)), jg.steiner_count, red.size


def corpus_sizes():
    """([(builder, n, size, join sha256, answers sha256, probes sha256,
    probe total, answer sets sha256)], [Steiner vertex count], [minimal
    restricted join size]) for 480 seeded pairs: 60 per
    builder, n < 80, then 60 planar st-graphs with a dipath, 60 cyclic
    digraphs with a DAG, dipath, out-tree or cyclic digraph, and 60 DAGs
    with an in-tree, 2 <= n < 80, built and indexed by their class
    (builders "planar-st", "cyclic" and "dag-in-tree")."""
    rng = random.Random(0)
    out = []
    for builder in BUILDERS:
        for _ in range(60):
            n = rng.randrange(1, 80)
            out.append(_row(builder, getattr(explicit, builder), *_pair(rng, builder, n)))
    for _ in range(60):
        n = rng.randrange(2, 80)
        out.append(_row("planar-st", classes.build, rand_sp_st(rng, n), rand_path(rng, n)))
    for _ in range(60):
        n = rng.randrange(2, 80)
        out.append(_row("cyclic", classes.build, *_pair(rng, "cyclic", n)))
    for _ in range(60):
        n = rng.randrange(2, 80)
        g1 = rand_dag(rng, n, 4.0 / n)
        out.append(_row("dag-in-tree", classes.build, g1, rand_tree(rng, n, "in-tree")))
    rows, steiner, restricted = zip(*out)
    return list(rows), steiner, restricted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", help="write the per-pair sizes as JSON")
    ap.add_argument("--against", help="JSON sizes to compare with")
    args = ap.parse_args(argv)
    sizes, steiner, restricted = corpus_sizes()
    for name in dict.fromkeys(s[0] for s in sizes):
        emitted = sum(s[2] for s in sizes if s[0] == name)
        relays = sum(k for s, k in zip(sizes, steiner) if s[0] == name)
        least = sum(r for s, r in zip(sizes, restricted) if s[0] == name)
        print(f"{name}\t{emitted}\tsteiner\t{relays}\trestricted\t{least}")
    print(f"total\t{sum(s[2] for s in sizes)}\tsteiner\t{sum(steiner)}"
          f"\trestricted\t{sum(restricted)}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(sizes, f)
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            old = json.load(f)
        if any(len(o) != len(sizes[0]) for o in old):
            print(f"{args.against}: rows are not of {len(sizes[0])} fields;"
                  " regenerate it with -o", file=sys.stderr)
            return 2
        larger = [(k, o, s) for k, (o, s) in enumerate(zip(old, sizes)) if s[2] > o[2]]
        print(f"against\t{sum(o[2] for o in old)}\tlarger pairs\t{len(larger)}")
        print(f"new pairs\t{max(len(sizes) - len(old), 0)}")
        for col, what in ((3, "changed pairs"), (4, "changed index answers"),
                          (5, "changed index probes"), (7, "changed answer sets")):
            print(f"{what}\t{sum(o[col] != s[col] for o, s in zip(old, sizes))}")
        rose = sum(s[6] > o[6] for o, s in zip(old, sizes))
        fell = sum(s[6] < o[6] for o, s in zip(old, sizes))
        now = sum(s[6] for _, s in zip(old, sizes))
        print(f"probe total\t{sum(o[6] for o in old)}\t{now}\tpairs with more probes\t{rose}"
              f"\tpairs with fewer probes\t{fell}")
        for k, o, s in larger:
            print(f"  pair {k} {s[0]} n={s[1]}: {o[2]} -> {s[2]}")
        return 1 if larger else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
