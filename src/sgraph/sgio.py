"""Text interchange format for signed graphs.

One graph per file: a header line ``sg <n> <m>`` followed by m edge lines
``<u> <v> <+1|-1>``.  Lines starting with ``#`` (or trailing ``#`` parts)
are comments; blank lines are ignored.  Writers emit edges sorted by
(u, v), which the SignedGraph storage order already guarantees.  A header
may declare at most ``MAX_VERTICES`` vertices; a larger one is a parse
error, raised before anything is built for it.
"""

from __future__ import annotations

import io
from pathlib import Path

from .core import SignedGraph
from .errors import ParseError, SgraphError

MAX_VERTICES = 1_000_000  # per-vertex structures of this many fit in memory


def dumps(g: SignedGraph) -> str:
    lines = [f"sg {g.n} {g.m}"]
    lines.extend(f"{u} {v} {'+1' if s == 1 else '-1'}" for u, v, s in g.edges)
    return "\n".join(lines) + "\n"


def dump(g: SignedGraph, path) -> None:
    Path(path).write_text(dumps(g), encoding="utf-8")


def loads(text: str) -> SignedGraph:
    return _parse(io.StringIO(text))


def load(path) -> SignedGraph:
    with open(path, encoding="utf-8") as fh:
        return _parse(fh)


def _parse(fh) -> SignedGraph:
    header = None
    edges: list[tuple[int, int, int]] = []
    n = m = 0
    for lineno, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 3 or fields[0] != "sg":
                raise ParseError(lineno, f"expected header 'sg <n> <m>', got {line!r}")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(lineno, f"non-integer header counts in {line!r}") from None
            if n < 0 or m < 0:
                raise ParseError(lineno, "header counts must be nonnegative")
            if n > MAX_VERTICES:
                raise ParseError(
                    lineno, f"n = {n} exceeds the limit of {MAX_VERTICES} vertices"
                )
            header = lineno
            continue
        if len(fields) != 3:
            raise ParseError(lineno, f"expected '<u> <v> <+1|-1>', got {line!r}")
        if fields[2] not in ("+1", "-1", "1"):
            raise ParseError(lineno, f"bad sign token {fields[2]!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer endpoints in {line!r}") from None
        sign = 1 if fields[2] in ("+1", "1") else -1
        edges.append((u, v, sign))
        if len(edges) > m:
            raise ParseError(lineno, f"more than the declared {m} edges")
    if header is None:
        raise ParseError(1, "empty file, expected 'sg <n> <m>' header")
    if len(edges) != m:
        raise ParseError(header, f"declared {m} edges, found {len(edges)}")
    try:
        return SignedGraph.from_edge_list(n, edges)
    except SgraphError as exc:
        raise ParseError(header, str(exc)) from exc
