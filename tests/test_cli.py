import random

import pytest

from joinreach import classes, cli, cover, explicit, jrindex
from joinreach import graph as graph_mod
from joinreach.classes import index
from joinreach.cli import main
from joinreach.gen import InstanceSpec, generate, rand_dag, rand_path, rand_sp_st, rand_upath
from joinreach.graph import Digraph, read_graph, transitive_closure, write_graph
from joinreach.explicit import read_join


def test_generators_are_deterministic():
    for kind, n in [
        ("path", 9),
        ("utree-random", 12),
        ("out-tree", 10),
        ("in-tree", 10),
        ("dag-gnp", 15),
        ("bitrev", 16),
        ("sp-st", 20),
    ]:
        a = generate(InstanceSpec(kind, n, seed=3))
        b = generate(InstanceSpec(kind, n, seed=3))
        assert [g.arcs for g in a] == [g.arcs for g in b]
        c = generate(InstanceSpec(kind, n, seed=4))
        if kind != "bitrev":  # bitrev ignores the seed
            assert [g.arcs for g in a] != [g.arcs for g in c] or n <= 2


def test_generator_class_invariants():
    rng = random.Random(0)
    for seed in range(5):
        for kind in ("path", "utree-random", "out-tree", "in-tree", "sp-st"):
            n = rng.randrange(2, 40)
            (g,) = generate(InstanceSpec(kind, n, seed=seed))
            assert g.n == n  # kind validation ran in the constructor


def test_cli_gen_build_verify_roundtrip(tmp_path):
    a = tmp_path / "a.g"
    b = tmp_path / "b.g"
    out = tmp_path / "j.jg"
    assert main(["gen", "--kind", "bitrev", "--n", "16", "-o", str(a), str(b)]) == 0
    assert main(["build", "--class", "two-paths", str(a), str(b), "-o", str(out)]) == 0
    assert main(["verify", str(out), str(a), str(b)]) == 0
    jg = read_join(str(out))
    assert jg.n_original == 16


def test_cli_query_identical_chains(tmp_path, capsys):
    a = tmp_path / "a.g"
    with open(a, "w") as f:
        f.write("5 4 path\n0 1\n1 2\n2 3\n3 4\n")
    assert main(["query", str(a), str(a), "-b", "4"]) == 0
    outp = capsys.readouterr().out.strip().splitlines()
    assert outp == ["0", "1", "2", "3", "4"]


def test_cli_verify_failure_exit_code(tmp_path, capsys):
    a = tmp_path / "a.g"
    with open(a, "w") as f:
        f.write("3 2 path\n0 1\n1 2\n")
    bad = tmp_path / "bad.jg"
    with open(bad, "w") as f:
        f.write("3 1 digraph\n2 0\nsteiner 0\n")
    assert main(["verify", str(bad), str(a), str(a)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "nope.g"
    assert main(["query", str(bad), str(bad), "-b", "0"]) == 2


def test_cli_verify_vertex_count_mismatch_is_input_error(tmp_path, capsys):
    a = tmp_path / "a.g"
    with open(a, "w") as f:
        f.write("4 3 path\n0 1\n1 2\n2 3\n")
    small = tmp_path / "small.jg"
    with open(small, "w") as f:
        f.write("3 0 digraph\nsteiner 0\n")
    assert main(["verify", str(small), str(a), str(a)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


MALFORMED_FILES = {
    "join-empty": (".jg", ""),
    "join-arcs-cut-short": (".jg", "4 3 digraph\n0 1\n"),
    "join-no-steiner-section": (".jg", "4 1 digraph\n0 1\n"),
    "join-steiner-cut-short": (".jg", "4 1 digraph\n0 1\nsteiner 2\nt0\n"),
    "join-m-too-low": (".jg", "4 1 digraph\n0 1\n1 2\nsteiner 0\n"),
    "join-m-too-high": (".jg", "4 2 digraph\n0 1\nsteiner 0\n"),
    "join-k-too-low": (".jg", "4 1 digraph\n0 1\nsteiner 0\nt0\n"),
    "join-tag-without-depth": (".jg", "4 1 digraph\n0 3\nsteiner 1\nt0\n"),
    "join-arc-one-token": (".jg", "4 1 digraph\n0\nsteiner 0\n"),
    "join-arc-three-tokens": (".jg", "4 1 digraph\n0 1 2\nsteiner 0\n"),
    "join-arc-not-integer": (".jg", "4 1 digraph\n0 x\nsteiner 0\n"),
    "join-kind-not-digraph": (".jg", "4 1 path\n0 1\nsteiner 0\n"),
    "graph-empty": (".g", ""),
    "graph-m-too-high": (".g", "3 5 digraph\n0 1\n"),
    "graph-m-too-low": (".g", "3 1 digraph\n0 1\n1 2\n"),
    "graph-out-order-vertex": (".g", "3 2 planar-st\n0 1\n1 2\n0: 1\n1: 2\n7: 0\n"),
    "graph-arc-one-token": (".g", "3 1 digraph\n0\n"),
    "graph-arc-three-tokens": (".g", "3 1 digraph\n0 1 2\n"),
    "graph-arc-not-integer": (".g", "3 1 digraph\n0 1.5\n"),
}


@pytest.mark.parametrize("suffix,text", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_cli_malformed_file_is_input_error(tmp_path, capsys, suffix, text):
    bad = tmp_path / f"bad{suffix}"
    with open(bad, "w") as f:
        f.write(text)
    argv = ["stats", str(bad)] if suffix == ".jg" else ["query", str(bad), str(bad), "-b", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_stats_two_paths_ratio(tmp_path, capsys):
    a = tmp_path / "a.g"
    b = tmp_path / "b.g"
    out = tmp_path / "j.jg"
    main(["gen", "--kind", "bitrev", "--n", "1024", "-o", str(a), str(b)])
    main(["build", "--class", "two-paths", str(a), str(b), "-o", str(out)])
    assert main(["stats", str(out)]) == 0
    lines = dict(
        ln.split("\t") for ln in capsys.readouterr().out.strip().splitlines()
    )
    assert int(lines["n"]) == 1024
    assert float(lines["ratio_log"]) <= 3.0


def test_cli_stats_on_an_empty_join(tmp_path, capsys):
    a, out = tmp_path / "a.g", tmp_path / "j.jg"
    a.write_text("0 0 digraph\n")
    assert main(["build", str(a), str(a), "-o", str(out)]) == 0
    assert out.read_text() == "0 0 digraph\nsteiner 0\n"
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    rows = [ln.split("\t") for ln in capsys.readouterr().out.strip().splitlines()]
    assert rows == [
        ["n", "0"], ["steiner", "0"], ["arcs", "0"], ["size", "0"],
        ["ratio_log", "0.000"], ["ratio_log2", "0.000"],
    ]


@pytest.mark.parametrize("cls,kind1,kind2", [
    ("two-paths", "bitrev", None),
    ("two-trees", "out-tree", "in-tree"),
    ("unoriented-trees", "utree-random", "path"),
    ("pathcover", "dag-gnp", "path"),
])
def test_cli_stats_steiner_rows_per_depth(tmp_path, capsys, cls, kind1, kind2):
    a, b, out = tmp_path / "a.g", tmp_path / "b.g", tmp_path / "j.jg"
    if kind2 is None:
        assert main(["gen", "--kind", kind1, "--n", "256", "-o", str(a), str(b)]) == 0
    else:
        assert main(["gen", "--kind", kind1, "--n", "256", "--seed", "3", "-o", str(a)]) == 0
        assert main(["gen", "--kind", kind2, "--n", "256", "--seed", "4", "-o", str(b)]) == 0
    assert main(["build", "--class", cls, str(a), str(b), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    rows = dict(ln.split("\t") for ln in capsys.readouterr().out.strip().splitlines())
    per_depth = {k: int(v) for k, v in rows.items() if k.startswith("steiner_d")}
    assert per_depth and all(per_depth.values()), rows
    assert sum(per_depth.values()) == int(rows["steiner"])
    want = {}
    for tag in read_join(str(out)).steiner_tags:
        key = "steiner_" + tag.split(";")[-2]
        want[key] = want.get(key, 0) + 1
    assert per_depth == want


def test_cli_class_detection_and_swap(tmp_path, capsys):
    rng = random.Random(1)
    t = tmp_path / "t.g"
    p = tmp_path / "p.g"
    main(["gen", "--kind", "out-tree", "--n", "12", "--seed", "5", "-o", str(t)])
    main(["gen", "--kind", "path", "--n", "12", "--seed", "6", "-o", str(p)])
    # path first: still detected and swapped into tree-path
    assert main(["query", str(p), str(t), "-b", "3"]) == 0
    got = [int(x) for x in capsys.readouterr().out.split()]
    g1 = read_graph(str(p))
    g2 = read_graph(str(t))
    m1, m2 = transitive_closure(g1), transitive_closure(g2)
    want = sorted(a for a in range(12) if m1.reach(a, 3) and m2.reach(a, 3))
    assert got == want


def test_cli_pathcover_cyclic_inputs(tmp_path, capsys):
    g1 = tmp_path / "g1.g"
    g2 = tmp_path / "g2.g"
    # directed cycles with different component structure
    with open(g1, "w") as f:
        f.write("4 4 digraph\n0 1\n1 2\n2 3\n3 0\n")
    with open(g2, "w") as f:
        f.write("4 4 digraph\n0 1\n1 0\n2 3\n3 2\n")
    assert main(["query", str(g1), str(g2), "-b", "1"]) == 0
    got = [int(x) for x in capsys.readouterr().out.split()]
    ga, gb = read_graph(str(g1)), read_graph(str(g2))
    ma, mb = transitive_closure(ga), transitive_closure(gb)
    assert got == sorted(a for a in range(4) if ma.reach(a, 1) and mb.reach(a, 1))
    # explicit build over the condensed pair verifies too
    out = tmp_path / "j.jg"
    assert main(["build", "--class", "pathcover", str(g1), str(g2), "-o", str(out)]) == 0
    assert main(["verify", str(out), str(g1), str(g2)]) == 0


def test_classes_pathcover_orders_each_input_once(monkeypatch):
    calls = []
    real = graph_mod.topo_order

    def counted(g):
        calls.append(g)
        return real(g)

    for mod in (graph_mod, cover, explicit, jrindex, classes):
        monkeypatch.setattr(mod, "topo_order", counted, raising=False)
    rng = random.Random(31)
    g1, g2 = rand_dag(rng, 64), rand_path(rng, 64)
    assert classes.classify(g1, g2)[0] == "pathcover"
    for make in (classes.build, classes.index):
        calls.clear()
        make(g1, g2)
        assert len(calls) == 2 and {id(g) for g in calls} == {id(g1), id(g2)}, make


def oracle_preds(g1, g2, b):
    m1, m2 = transitive_closure(g1), transitive_closure(g2)
    return sorted(a for a in range(g1.n) if m1.reach(a, b) and m2.reach(a, b))


@pytest.mark.parametrize("kind2", ["path", "out-tree", "sp-st", "utree-random"])
def test_cli_planar_st_with_any_kind_builds_and_queries(tmp_path, capsys, kind2):
    g1 = tmp_path / "g1.g"
    g2 = tmp_path / "g2.g"
    out = tmp_path / "j.jg"
    assert main(["gen", "--kind", "sp-st", "--n", "20", "--seed", "7", "-o", str(g1)]) == 0
    assert main(["gen", "--kind", kind2, "--n", "20", "--seed", "8", "-o", str(g2)]) == 0
    assert main(["build", str(g1), str(g2), "-o", str(out)]) == 0
    assert main(["verify", str(out), str(g1), str(g2)]) == 0
    ga, gb = read_graph(str(g1)), read_graph(str(g2))
    capsys.readouterr()
    for b in range(20):
        assert main(["query", str(g1), str(g2), "-b", str(b)]) == 0
        got = [int(x) for x in capsys.readouterr().out.split()]
        assert got == oracle_preds(ga, gb, b), b


def test_planar_st_with_an_unoriented_path_goes_to_the_path_cover(tmp_path, capsys):
    # The planar-st index ranks its second graph as a dipath, so a path
    # with both arc directions is indexed by the path cover.
    rng = random.Random(61)
    for n in (3, 8, 21, 50):
        g1 = rand_sp_st(rng, n)
        g2 = rand_upath(rng, n)
        while g2.is_directed_path():
            g2 = rand_upath(rng, n)
        assert classes.classify(g1, g2)[0] == "pathcover"
        idx = index(g1, g2)
        m1, m2 = transitive_closure(g1), transitive_closure(g2)
        for b in range(n):
            assert idx.query(b) == [a for a in range(n) if m1.reach(a, b) and m2.reach(a, b)]
    sp, up = tmp_path / "sp.g", tmp_path / "up.g"
    write_graph(g1, str(sp))
    write_graph(g2, str(up))
    capsys.readouterr()
    assert main(["query", str(sp), str(up), "-b", "3"]) == 0
    assert [int(x) for x in capsys.readouterr().out.split()] == idx.query(3)


def test_cli_cyclic_query_checks_range(tmp_path, capsys):
    g1 = tmp_path / "c1.g"
    g2 = tmp_path / "c2.g"
    with open(g1, "w") as f:
        f.write("4 4 digraph\n0 1\n1 2\n2 3\n3 0\n")
    with open(g2, "w") as f:
        f.write("4 4 digraph\n0 1\n1 0\n2 3\n3 2\n")
    for b in ("9", "-1"):
        assert main(["query", str(g1), str(g2), "-b", b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    ga, gb = read_graph(str(g1)), read_graph(str(g2))
    idx = index(ga, gb)
    for b in range(4):
        assert idx.query(b) == oracle_preds(ga, gb, b)


def test_cli_planar_st_query(tmp_path, capsys):
    g1 = tmp_path / "g1.g"
    g2 = tmp_path / "g2.g"
    main(["gen", "--kind", "sp-st", "--n", "20", "--seed", "7", "-o", str(g1)])
    main(["gen", "--kind", "path", "--n", "20", "--seed", "8", "-o", str(g2)])
    assert main(["query", str(g1), str(g2), "-b", "10"]) == 0
    got = [int(x) for x in capsys.readouterr().out.split()]
    ga, gb = read_graph(str(g1)), read_graph(str(g2))
    ma, mb = transitive_closure(ga), transitive_closure(gb)
    assert got == sorted(a for a in range(20) if ma.reach(a, 10) and mb.reach(a, 10))


def test_cli_bench_table_shape(capsys):
    assert main(["bench", "--suite", "paths", "--max-n", "256"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == [
        "suite", "inst", "n", "seed", "build_s", "size", "ratio_log", "verify",
    ]
    assert len(lines) == 3  # bitrev + random at n=256
    for ln in lines[1:]:
        cols = ln.split("\t")
        assert cols[0] == "paths" and cols[2] == "256" and cols[7] == "ok"


def test_cli_bench_exits_1_when_a_row_fails(monkeypatch, capsys):
    failing = explicit.VerifyReport(False, (0, 1, "missing"), 1)
    monkeypatch.setattr(cli, "verify_join_graph", lambda jg, g1, g2: failing)
    assert main(["bench", "--suite", "paths", "--max-n", "256"]) == 1
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rows and all(ln.split("\t")[7] == "FAIL" for ln in rows)


def test_cli_gen_output_count_mismatch(tmp_path):
    a = tmp_path / "a.g"
    assert main(["gen", "--kind", "bitrev", "--n", "8", "-o", str(a)]) == 2


PIPELINE_PAIRS = [
    ("two-paths", "path", "path"),
    ("tree-path", "out-tree", "path"),
    ("tree-path", "in-tree", "path"),
    ("two-trees", "out-tree", "in-tree"),
    ("unoriented-trees", "utree-random", "utree-random"),
    ("pathcover", "dag-gnp", "path"),
    ("pathcover", "dag-gnp", "dag-gnp"),
]


def test_cli_pipeline_every_class_pair_50_seeds(tmp_path):
    rng = random.Random(123)
    for cls, k1, k2 in PIPELINE_PAIRS:
        for seed in range(50):
            n = rng.randrange(2, 41)
            a = tmp_path / f"{cls}-{seed}-a.g"
            b = tmp_path / f"{cls}-{seed}-b.g"
            out = tmp_path / f"{cls}-{seed}.jg"
            assert main(["gen", "--kind", k1, "--n", str(n),
                         "--seed", str(seed), "-o", str(a)]) == 0
            assert main(["gen", "--kind", k2, "--n", str(n),
                         "--seed", str(seed + 1), "-o", str(b)]) == 0
            assert main(["build", "--class", cls, str(a), str(b), "-o", str(out)]) == 0
            assert main(["verify", str(out), str(a), str(b)]) == 0, (cls, seed)
