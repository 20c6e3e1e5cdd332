"""Fuzzing the parser and the ``check`` command.

The parser is total: any text gives a graph or a ``ParseError``, and the
writer's output parses back to the same graph.  ``sgraph check`` on any
file exits 0 with one JSON document or 2 with one error line, never with
a traceback or another code.  Examples are derandomized, so every run
tries the same inputs.  A header the parser accepts declares at most 8
vertices, so the module runs in a few seconds.
"""

import contextlib
import io
import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from sgraph import SignedGraph, cli, sgio
from sgraph.errors import ParseError

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# an explicit alphabet: printable ASCII, whitespace and line-break
# look-alikes, a NUL, a BOM and non-ASCII digits
ALPHABET = string.printable + "\x00\x0c\x1c\x85\u2028\ufeffé٣𝟙"
chars = st.text(alphabet=ALPHABET, max_size=10)
# strategies are built once: building them inside a draw costs more than
# the parse under test.  Counts and endpoints are small, past the vertex
# limit, past a float, or not integers at all; headers lean to the extremes.
EXTREME = ["1000001", "99999999999999999999"]
JUNK = ["1.0", "1_0", "٣", "x", ""]
number = st.sampled_from([str(i) for i in range(-1, 9)] + EXTREME + JUNK)
order = st.sampled_from([str(i) for i in range(9)] + EXTREME * 4 + JUNK)
sign = st.sampled_from(["+1", "-1", "1", "+1", "-1", "0", "+2", "x"])
space = st.sampled_from([" ", "  ", "\t", " \x0b "])
header_word = st.sampled_from(["sg"] * 6 + ["SG", "g"])
shape = st.sampled_from(["ok"] * 6 + ["short", "long"])
filler = st.sampled_from(["", "", "#", "# c", "  "]) | chars.map("#".__add__)
edge_count = st.integers(0, 4)
honest_count = st.sampled_from([True, True, True, False])
newline = st.sampled_from(["\n", "\r\n"])


def fields_of(draw, ok: list) -> list:
    """The fields ``ok``, or one too few, or one too many."""
    kind = draw(shape)
    return ok if kind == "ok" else ok[:-1] if kind == "short" else ok + [draw(number)]


@st.composite
def sg_lines(draw):
    """Text shaped like an sg file: a header whose edge count is mostly
    the true one, edge lines, comments and blank lines."""
    edges = [
        draw(space).join(fields_of(draw, [draw(number), draw(number), draw(sign)]))
        for _ in range(draw(edge_count))
    ]
    m = str(len(edges)) if draw(honest_count) else draw(number)
    header = draw(space).join(fields_of(draw, [draw(header_word), draw(order), m]))
    lines = []
    for line in [header] + edges:
        lines += [draw(filler), line]
    return draw(newline).join(lines) + draw(newline)


@st.composite
def signed_graphs(draw):
    """A graph on at most 9 vertices: each pair is absent, +1 or -1."""
    n = draw(st.integers(0, 9))
    signs = draw(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SignedGraph.from_edge_list(
        n, [(u, v, sign) for (u, v), sign in zip(pairs, signs) if sign]
    )


def parse_or_reject(text: str) -> SignedGraph | None:
    try:
        return sgio.loads(text)
    except ParseError:
        return None


@FUZZ
@given(st.text(alphabet=ALPHABET, max_size=60))
def test_loads_raises_only_parse_error(text):
    parse_or_reject(text)


@FUZZ
@given(sg_lines())
def test_loads_structured_raises_only_parse_error(text):
    g = parse_or_reject(text)
    if g is not None:
        assert sgio.loads(sgio.dumps(g)) == g


@FUZZ
@given(signed_graphs())
def test_dumps_loads_roundtrip(g):
    assert sgio.loads(sgio.dumps(g)) == g


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.sg"


@FUZZ
@given(data=st.one_of(st.binary(max_size=60), sg_lines().map(str.encode)))
def test_check_exits_0_or_2(fuzz_path, data):
    fuzz_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(fuzz_path)])
    if code == 0:
        assert json.loads(out.getvalue())["schema"] == 1 and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
