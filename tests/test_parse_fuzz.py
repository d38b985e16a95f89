"""Seeded fuzz of the two file parsers: any text gives an object or
ValueError, never another exception."""

import random

from joinreach import explicit, graph
from joinreach.explicit import format_join, parse_join
from joinreach.gen import GENERATOR_KINDS, generate, rand_dag, rand_path, rand_tree, rand_utree
from joinreach.graph import format_graph, parse_graph

PARSERS = (parse_graph, parse_join)
MUTATIONS = 12_000
# Inserted or substituted material: single characters, and short tokens
# of the two formats.
CHARS = "0123456789 -:;.x\t\n"
TOKENS = ("0", "1", "-1", "99", "1.5", "steiner", "digraph", "path", "planar-st",
          "out-tree", ":", ";d1", "\n\n", " 0 1\n", "\nsteiner 0\n")
# A header naming more vertices is drawn again: the graph reader
# allocates per vertex before it reads an arc, and without a cap on the
# address space an allocation that large ends in an out-of-memory kill,
# not a MemoryError (which `jr` reports as an input error; see
# tests/test_cli.py::test_cli_oversized_header_is_input_error).
MAX_N = 4096


def _valid_texts():
    """(text, its parser) for graph files of every `gen` kind and join
    files from the five builders."""
    texts = []
    for kind in GENERATOR_KINDS:
        for g in generate(kind, 16, seed=1):
            texts.append((format_graph(g), parse_graph))
    rng = random.Random(7)
    n = 10
    pairs = (
        ("build_two_paths", rand_path(rng, n), rand_path(rng, n)),
        ("build_tree_path", rand_tree(rng, n, "out-tree"), rand_path(rng, n)),
        ("build_two_trees", rand_tree(rng, n, "out-tree"), rand_tree(rng, n, "in-tree")),
        ("build_unoriented_trees", rand_utree(rng, n), rand_utree(rng, n)),
        ("build_pathcover", rand_dag(rng, n, 0.3), rand_dag(rng, n, 0.3)),
    )
    for name, g1, g2 in pairs:
        texts.append((format_join(getattr(explicit, name)(g1, g2)), parse_join))
    return texts


def _mutate(rng, text):
    """One to three insertions, deletions (of one to four characters) or
    replacements of a character or short token."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        piece = rng.choice(CHARS) if rng.random() < 0.6 else rng.choice(TOKENS)
        op = rng.randrange(3)
        if op == 0:
            text = text[:at] + piece + text[at:]
        elif op == 1:
            text = text[:at] + text[at + rng.randint(1, 4):]
        else:
            text = text[:at] + piece + text[at + len(piece):]
    return text


def _header_n(text):
    for ln in text.splitlines():
        if ln.strip():
            try:
                return int(ln.split()[0])
            except ValueError:
                return 0
    return 0


def test_parsers_return_an_object_or_raise_value_error():
    texts = _valid_texts()
    for text, parse in texts:
        parse(text)  # every unmutated text is valid for its own parser
    rng = random.Random(20)
    outcomes = {parse: set() for parse in PARSERS}
    done = 0
    while done < MUTATIONS:
        text = _mutate(rng, rng.choice(texts)[0])
        if _header_n(text) > MAX_N:
            continue
        done += 1
        for parse in PARSERS:
            try:
                parse(text)
            except ValueError:
                outcomes[parse].add("error")
            else:
                outcomes[parse].add("object")
    # each parser both accepted and rejected some mutants
    assert all(seen == {"error", "object"} for seen in outcomes.values()), outcomes


def test_written_files_are_read_without_a_sort(monkeypatch):
    # format_graph and format_join write every row ascending, so reading
    # them back never sorts a row, and writes back the same text.
    texts = _valid_texts()

    def no_sort(rows):
        raise AssertionError("a written file's rows were sorted")

    monkeypatch.setattr(graph, "_sorted_rows", no_sort)
    for text, parse in texts:
        write = format_join if parse is parse_join else format_graph
        assert write(parse(text)) == text
