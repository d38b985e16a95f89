import hashlib
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import joinreach
from joinreach import classes, cli, cover, explicit, jrindex
from joinreach import graph as graph_mod
from joinreach.classes import index
from joinreach.cli import main
from joinreach.gen import GENERATORS, generate, rand_dag, rand_path, rand_sp_st, rand_upath
from joinreach.graph import Digraph, format_graph, read_graph, transitive_closure, write_graph
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
        a = generate(kind, n, seed=3)
        b = generate(kind, n, seed=3)
        assert [g.arcs for g in a] == [g.arcs for g in b]
        c = generate(kind, n, seed=4)
        if kind != "bitrev":  # bitrev ignores the seed
            assert [g.arcs for g in a] != [g.arcs for g in c] or n <= 2


def test_generator_class_invariants():
    rng = random.Random(0)
    for seed in range(5):
        for kind in ("path", "utree-random", "out-tree", "in-tree", "sp-st"):
            n = rng.randrange(2, 40)
            (g,) = generate(kind, n, seed=seed)
            assert g.n == n  # kind validation ran in the constructor


# SHA-256 over `format_graph` of every graph a kind makes at PIN_POINTS
# (n, seed), recorded before the kinds moved into `gen.GENERATORS`: a
# change to any generator's draws, or to the order it takes them from its
# rng, changes its digest. bitrev takes powers of two only.
PIN_POINTS = ((2, 0), (16, 3), (256, 0), (257, 1))
PINNED_DIGESTS = {
    ("path", 0.2): "7238c62c1471e17a1eb496ceecf3c950e0eec5a92ad9f1477253e7dceb9d477d",
    ("utree-random", 0.2): "282b2dcdbc7a930b530d7e2458a6c49dd1b046dfdaa64ec510ace20dadc45538",
    ("out-tree", 0.2): "ddb6b3589d38dae16f6297d051eab5b9daf1048afc106a460beb6ad6c030cf18",
    ("in-tree", 0.2): "d0685a36de1379f368c263e0374d1a9655e49b629ef45de6c6d3ac8aa2f868b1",
    ("dag-gnp", 0.2): "a7a6e699e6613e91af45b6c049ed8adfdd066470549bc6fb8bdd093df7d69422",
    ("dag-gnp", 0.05): "5902ad0a1588ebbe8c16b595241d5331e96f2ae2d443fbe82a60dd52e9ef48b9",
    ("dag-gnp", 0.9): "dca614da59af24fa45a290c8e7eabcd20669234092d456e7bb39c171d3a101f4",
    ("bitrev", 0.2): "08f6eef61e1677e8d878bfa97edc86fc6af185d665a5ed89928b16ded9f68d4c",
    ("sp-st", 0.2): "bc5e445942e9f16db54cc5f06110a6285ab82fc2c4472569c320310977aed14e",
}


def test_generators_draw_as_pinned():
    assert {kind for kind, _ in PINNED_DIGESTS} == set(GENERATORS)
    for (kind, p), want in PINNED_DIGESTS.items():
        h = hashlib.sha256()
        for n, seed in PIN_POINTS:
            if kind == "bitrev" and n & (n - 1):
                continue
            for g in generate(kind, n, seed, p):
                h.update(format_graph(g).encode())
        assert h.hexdigest() == want, (kind, p)


def test_readme_quick_start_runs():
    """The python block under "Library quick start" runs as written, so
    the README names no public name the package lacks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from joinreach import" in block
    exec(compile(block, "README.md quick start", "exec"), {})


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
    # the arc lines are read before the steiner section
    "join-bad-arc-and-bad-steiner": (".jg", "4 2 digraph\n0 x\n1 2\nsteiner 3\nt0\n"),
    "graph-empty": (".g", ""),
    "graph-m-too-high": (".g", "3 5 digraph\n0 1\n"),
    "graph-m-too-low": (".g", "3 1 digraph\n0 1\n1 2\n"),
    "graph-out-order-vertex": (".g", "3 2 planar-st\n0 1\n1 2\n0: 1\n1: 2\n7: 0\n"),
    "graph-out-order-twice": (".g", "3 2 planar-st\n0 1\n1 2\n0: 2\n0: 1\n1: 2\n"),
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


# A file's arc lines are read first: the first bad one is named, in file
# order, before any fault in the kind, out-order or Steiner lines after.
ARC_LINE_FIRST = {
    "join-out-of-range-in-file-order": (".jg", "4 3 digraph\n1 2\n5 1\n0 7\nsteiner 0\n",
                                        r"arc \(5,1\) out of range for n=4"),
    "graph-out-of-range-in-file-order": (".g", "4 3 digraph\n1 2\n5 1\n0 7\n",
                                         r"arc \(5,1\) out of range for n=4"),
    "join-out-of-range-and-bad-steiner": (".jg", "4 2 digraph\n0 1\n5 1\nsteiner 3\nt0\n",
                                          r"arc \(5,1\) out of range for n=4"),
    "join-out-of-range-and-bad-kind": (".jg", "4 1 path\n0 9\nsteiner 0\n",
                                    r"arc \(0,9\) out of range for n=4"),
    "join-one-token-and-no-steiner": (".jg", "4 2 digraph\n0 1\n2\n", "not enough values"),
    "join-not-integer-and-no-steiner": (".jg", "4 1 digraph\n0 x\n", "invalid literal for int"),
    "graph-out-of-range-and-bad-out-order": (".g", "3 2 planar-st\n0 1\n1 5\n0: 1\n7: 0\n",
                                             r"arc \(1,5\) out of range for n=3"),
    "graph-not-integer-and-bad-out-order": (".g", "3 2 planar-st\n0 1\n1 2.0\n0: 1\n7: 0\n",
                                            "invalid literal for int"),
    "graph-three-tokens-and-extra-arc-line": (".g", "3 1 digraph\n0 1 2\n1 2\n", "too many values"),
}


@pytest.mark.parametrize("suffix,text,msg", ARC_LINE_FIRST.values(), ids=ARC_LINE_FIRST)
def test_a_bad_arc_line_is_reported_before_the_lines_after_it(tmp_path, capsys, suffix, text, msg):
    parse = explicit.parse_join if suffix == ".jg" else graph_mod.parse_graph
    with pytest.raises(ValueError, match=msg):
        parse(text)
    bad, g, jg = tmp_path / f"bad{suffix}", tmp_path / "ok.g", tmp_path / "ok.jg"
    bad.write_text(text)
    g.write_text("1 0 path\n")
    jg.write_text("1 0 digraph\nsteiner 0\n")
    verify = [str(bad), str(g), str(g)] if suffix == ".jg" else [str(jg), str(bad), str(g)]
    for argv in (["stats", str(bad)], ["verify", *verify]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert re.search(msg, err), (argv, err)


def test_cli_oversized_header_is_input_error(tmp_path):
    """A join file whose header names 10^9 vertices, read by `jr stats` in
    a child process whose own address space is capped at 256 MB: the
    allocation fails with MemoryError, which is an input error."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    bad = tmp_path / "huge.jg"
    bad.write_text("1000000000 0 digraph\nsteiner 0\n")
    child = textwrap.dedent(
        """
        import resource, sys
        sys.path.insert(0, sys.argv[1])
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 256 << 20
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        from joinreach.cli import main

        sys.exit(main(["stats", sys.argv[2]]))
        """
    )
    src = str(Path(joinreach.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", child, src, str(bad)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 2, run.stderr[-2000:]
    assert run.stderr == "error: memory ran out\n"


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
    assert sum(per_depth.values()) == int(rows["steiner"]), rows  # at 0 too
    # this out-tree + in-tree join has no Steiner vertex: no nested relay
    # in it reaches the three targets that make one pay
    if cls != "two-trees":
        assert per_depth and all(per_depth.values()), rows
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
    want = sorted(a for a in range(12) if m1[a] >> 3 & 1 and m2[a] >> 3 & 1)
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
    assert got == sorted(a for a in range(4) if ma[a] >> 1 & 1 and mb[a] >> 1 & 1)
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
    return sorted(a for a in range(g1.n) if m1[a] >> b & 1 and m2[a] >> b & 1)


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
            assert idx.query(b) == [a for a in range(n) if m1[a] >> b & 1 and m2[a] >> b & 1]
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
    assert got == sorted(a for a in range(20) if ma[a] >> 10 & 1 and mb[a] >> 10 & 1)


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


def test_cli_gen_dag_gnp_reads_p(tmp_path, capsys):
    a, b = tmp_path / "a.g", tmp_path / "b.g"
    assert main(["gen", "--kind", "dag-gnp", "--n", "40", "--seed", "5", "--p", "0.5", "-o", str(a)]) == 0
    assert main(["gen", "--kind", "dag-gnp", "--n", "40", "--seed", "5", "-o", str(b)]) == 0
    (want,) = generate("dag-gnp", 40, 5, 0.5)
    assert a.read_text() == format_graph(want)
    assert b.read_text() == format_graph(*generate("dag-gnp", 40, 5))
    assert a.read_text() != b.read_text()
    c = tmp_path / "c.g"
    for p in ("-0.5", "inf", "1.5", "nan"):
        assert main(["gen", "--kind", "dag-gnp", "--n", "5", "--p", p, "-o", str(c)]) == 2
        assert capsys.readouterr().err == "error: p must lie in [0, 1]\n"
    assert not c.exists()


def test_cli_build_without_output_writes_the_join_to_stdout(tmp_path, capsys):
    a, b = tmp_path / "a.g", tmp_path / "b.g"
    assert main(["gen", "--kind", "bitrev", "--n", "16", "-o", str(a), str(b)]) == 0
    assert main(["build", str(a), str(b)]) == 0
    captured = capsys.readouterr()
    jg = explicit.parse_join(captured.out)
    assert explicit.verify_join_graph(jg, read_graph(str(a)), read_graph(str(b))).ok
    assert captured.err == (
        f"built two-paths: n=16 steiner={jg.steiner_count} arcs={jg.graph.m} size={jg.size}\n"
    )


def test_cli_usage_error_exit_code(capsys):
    assert main(["gen", "--kind", "no-such-kind", "--n", "4", "-o", "x.g"]) == 2
    assert main(["bench", "--suite", "no-such-suite"]) == 2
    assert main([]) == 2
    assert "usage: jr" in capsys.readouterr().err


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
