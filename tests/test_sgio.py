"""Text-format round trips and parse diagnostics."""

import random

import pytest

from sgraph import SignedGraph, sgio
from sgraph.errors import ParseError
from sgraph.extremal import extremal_graph

from helpers import random_signed_graph


def test_roundtrip_construction(tmp_path):
    g, _ = extremal_graph(3, 4)
    path = tmp_path / "g.sg"
    sgio.dump(g, path)
    assert sgio.load(path) == g
    # writer output is byte-stable
    assert sgio.dumps(sgio.load(path)) == sgio.dumps(g)


def test_roundtrip_random():
    rng = random.Random(2)
    for _ in range(50):
        g = random_signed_graph(rng, rng.randint(0, 10))
        assert sgio.loads(sgio.dumps(g)) == g


def test_edges_emitted_sorted():
    g = SignedGraph.from_edge_list(4, [(2, 3, -1), (0, 1, 1), (1, 2, 1)])
    lines = sgio.dumps(g).strip().splitlines()[1:]
    pairs = [tuple(map(int, ln.split()[:2])) for ln in lines]
    assert pairs == sorted(pairs)


def test_comments_and_blank_lines():
    text = """# a comment
sg 3 2
0 1 +1  # trailing comment

1 2 -1
"""
    g = sgio.loads(text)
    assert g.edges == ((0, 1, 1), (1, 2, -1))


def test_bare_sign_token_accepted():
    assert sgio.loads("sg 2 1\n0 1 1\n").edges == ((0, 1, 1),)


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("sg x y\n", 1),
        ("sg 2 1\n0 1 +2\n", 2),
        ("sg 2 1\n0 1\n", 2),
        ("sg 2 1\n0 q +1\n", 2),
        ("sg 2 2\n0 1 +1\n", 1),  # fewer edges than declared
        ("sg 2 1\n0 1 +1\n1 0 -1\n", 3),  # more edges than declared
        ("sg 2 1\n0 2 +1\n", 1),  # vertex out of range surfaces on the header
        ("sg -1 0\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        sgio.loads(text)
    assert exc.value.line == line


def test_empty_graph():
    g = sgio.loads("sg 3 0\n")
    assert g.n == 3 and g.m == 0
    assert sgio.dumps(g) == "sg 3 0\n"


@pytest.mark.parametrize("n", [sgio.MAX_VERTICES + 1, 10**20])
def test_vertex_limit_is_a_parse_error(n):
    with pytest.raises(ParseError) as exc:
        sgio.loads(f"sg {n} 0\n")
    assert exc.value.line == 1


def test_vertex_limit_is_inclusive():
    assert sgio.loads(f"sg {sgio.MAX_VERTICES} 0\n").n == sgio.MAX_VERTICES
