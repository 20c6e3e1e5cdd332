"""Signed-graph data model and switching machinery.

A signed graph is a simple undirected graph whose edges carry a sign in
{+1, -1}.  Vertices are 0-based integers.  Edges are stored as (u, v, sign)
tuples with u < v, sorted by (u, v), so two graphs are equal exactly when
they have the same vertex count and the same signed edge set.

Everything here is immutable: operations return new graphs and never mutate
their inputs, so values can be shared freely across threads or processes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import (
    BadSignError,
    DuplicateEdgeError,
    NotBipartiteError,
    SelfLoopError,
    SgraphError,
    UnderlyingGraphMismatchError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int, int]  # (u, v, sign) with u < v and sign in {+1, -1}


@dataclass(frozen=True)
class SignedGraph:
    """An immutable signed graph on vertices 0..n-1."""

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edge_list(cls, n: int, edges: Sequence[tuple[int, int, int]]) -> "SignedGraph":
        """Validate and canonicalize an edge list into a SignedGraph.

        Raises VertexOutOfRangeError, SelfLoopError, BadSignError or
        DuplicateEdgeError on malformed input.
        """
        if n < 0:
            raise VertexOutOfRangeError(f"vertex count must be nonnegative, got {n}")
        seen: set[tuple[int, int]] = set()
        normalized: list[Edge] = []
        for u, v, sign in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if sign not in (1, -1):
                raise BadSignError(f"edge ({u},{v}) has sign {sign!r}, want +1 or -1")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append((key[0], key[1], sign))
        normalized.sort()
        return cls(n, tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, sign), sorted by neighbor."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, s in self.edges:
            adj[u].append((v, s))
            adj[v].append((u, s))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _sign_index(self) -> dict[tuple[int, int], int]:
        return {(u, v): s for u, v, s in self.edges}

    def sign(self, u: int, v: int) -> int:
        """Sign of edge uv, or 0 when uv is not an edge."""
        key = (u, v) if u < v else (v, u)
        return self._sign_index.get(key, 0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.sign(u, v) != 0

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v, _ in self.edges)


@dataclass(frozen=True)
class Bipartition:
    """The two sides of a bipartite graph, with len(left) <= len(right)."""

    left: frozenset[int]
    right: frozenset[int]

    @property
    def r(self) -> int:
        return len(self.left)

    @property
    def s(self) -> int:
        return len(self.right)


@dataclass(frozen=True)
class CycleWitness:
    """A cycle given by its vertex sequence, with its edge-sign product."""

    vertices: tuple[int, ...]
    sign: int

    @property
    def length(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_vertices(cls, g: SignedGraph, seq: Sequence[int]) -> "CycleWitness":
        """Build a canonical witness from a vertex sequence, validating it.

        The sequence is rotated so its smallest vertex comes first and the
        direction is the lexicographically smaller of the two, which keeps
        witnesses byte-stable across runs.
        """
        t = len(seq)
        if t < 3:
            raise ValueError(f"cycle needs at least 3 vertices, got {t}")
        if len(set(seq)) != t:
            raise ValueError("cycle vertices must be distinct")
        sign = 1
        for i in range(t):
            s = g.sign(seq[i], seq[(i + 1) % t])
            if s == 0:
                raise ValueError(f"({seq[i]},{seq[(i + 1) % t]}) is not an edge")
            sign *= s
        return cls(_canonical_rotation(tuple(seq)), sign)

    def is_chordless(self, g: SignedGraph) -> bool:
        """True when no non-consecutive pair on the cycle is adjacent: every
        neighbour a cycle vertex has on the cycle sits one position before
        or after it.  One pass over the cycle vertices' adjacency lists."""
        t = len(self.vertices)
        pos = {v: i for i, v in enumerate(self.vertices)}
        return all(
            (pos[w] - i) % t in (1, t - 1)
            for i, v in enumerate(self.vertices)
            for w, _ in g.adjacency[v]
            if w in pos
        )


@dataclass(frozen=True)
class SwitchCanonicalForm:
    """Forest-normalized representative of a switching class.

    ``graph`` carries +1 on every spanning-forest edge; ``cotree_signs``
    lists the signs of the remaining edges in edge-list order.  Two signed
    graphs on the same labeled underlying graph are switching equivalent
    exactly when their cotree sign vectors agree.
    """

    graph: SignedGraph
    switch_set: frozenset[int]
    forest: tuple[tuple[int, int], ...]
    cotree_signs: tuple[int, ...]


def _canonical_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate so the smallest vertex is first; pick the lex-smaller direction."""
    k = seq.index(min(seq))
    forward = seq[k:] + seq[:k]
    backward = (forward[0],) + tuple(reversed(forward[1:]))
    return min(forward, backward)


def _check_vertex_subset(g: SignedGraph, u_set) -> frozenset[int]:
    u_set = frozenset(u_set)
    for v in u_set:
        if not (0 <= v < g.n):
            raise VertexOutOfRangeError(f"switch vertex {v} outside 0..{g.n - 1}")
    return u_set


def switch(g: SignedGraph, u_set) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in ``u_set``."""
    u_set = _check_vertex_subset(g, u_set)
    edges = tuple(
        (u, v, -s if (u in u_set) != (v in u_set) else s) for u, v, s in g.edges
    )
    return SignedGraph(g.n, edges)


def negate(g: SignedGraph) -> SignedGraph:
    """Reverse the sign of every edge."""
    return SignedGraph(g.n, tuple((u, v, -s) for u, v, s in g.edges))


def relabel(g: SignedGraph, mapping: Sequence[int]) -> SignedGraph:
    """Apply the vertex bijection ``mapping`` (old label -> new label)."""
    if sorted(mapping) != list(range(g.n)):
        raise VertexOutOfRangeError("mapping is not a bijection on 0..n-1")
    return SignedGraph.from_edge_list(
        g.n, [(mapping[u], mapping[v], s) for u, v, s in g.edges]
    )


def _bfs_forest(g: SignedGraph):
    """Deterministic BFS forest over all components.

    Roots are the smallest unvisited labels, neighbors are scanned in sorted
    order.  Returns (parent, depth, theta, component) where theta[v] is the
    product of edge signs on the forest path from v's root, and the forest
    edge set as sorted (u, v) pairs.
    """
    n = g.n
    parent: list[int | None] = [None] * n
    depth = [0] * n
    theta = [1] * n
    comp = [-1] * n
    forest: list[tuple[int, int]] = []
    adj = g.adjacency
    c = 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = c
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in adj[u]:
                if comp[v] >= 0:
                    continue
                comp[v] = c
                parent[v] = u
                depth[v] = depth[u] + 1
                theta[v] = theta[u] * s
                forest.append((u, v) if u < v else (v, u))
                queue.append(v)
        c += 1
    return parent, depth, theta, comp, sorted(forest)


def bipartition(g: SignedGraph) -> Bipartition:
    """2-color the underlying graph, or raise NotBipartiteError.

    Component roots go to the left side; the sides are swapped at the end
    if needed so that len(left) <= len(right).  The error carries an odd
    CycleWitness built from the BFS tree.
    """
    parent, depth, _, _, _ = _bfs_forest(g)
    for u, v, _s in g.edges:
        # forest edges always change depth parity, so only chords can trip this
        if (depth[u] + depth[v]) % 2 == 0:
            raise NotBipartiteError(_odd_cycle_witness(g, parent, u, v))
    left = frozenset(v for v in range(g.n) if depth[v] % 2 == 0)
    right = frozenset(v for v in range(g.n) if depth[v] % 2 == 1)
    if len(left) > len(right):
        left, right = right, left
    return Bipartition(left, right)


def _odd_cycle_witness(g, parent, u, v) -> CycleWitness:
    """Cycle through the BFS-tree paths of u and v plus the edge uv."""
    # BFS puts the ends of an edge at most one level apart, so u and v, of
    # equal depth parity, are at equal depth and climb to the LCA in step
    pu, pv = u, v
    path_u, path_v = [u], [v]
    while pu != pv:
        pu = parent[pu]
        pv = parent[pv]
        path_u.append(pu)
        path_v.append(pv)
    # path_u ends at the LCA; drop it from path_v and splice
    seq = path_u + list(reversed(path_v[:-1]))
    return CycleWitness.from_vertices(g, seq)


def component_count(g: SignedGraph) -> int:
    """Number of connected components of the underlying graph."""
    _, _, _, comp, _ = _bfs_forest(g)
    return max(comp) + 1 if g.n else 0


def underlying_positive(g: SignedGraph) -> SignedGraph:
    """The all-positive signature on g's underlying graph."""
    return SignedGraph(g.n, tuple((u, v, 1) for u, v, _ in g.edges))


def _frustrated(g: SignedGraph, theta: list[int]):
    """The edges uv with theta[u]*sign(uv)*theta[v] = -1, theta the BFS
    forest's path signs: each closes a negative cycle with the forest.
    Forest edges never do, so a component is balanced iff it has none."""
    return (e for e in g.edges if theta[e[0]] * e[2] * theta[e[1]] == -1)


def is_balanced(g: SignedGraph) -> bool:
    """True iff every cycle has positive sign: no edge is ``_frustrated``."""
    _, _, theta, _, _ = _bfs_forest(g)
    return not any(_frustrated(g, theta))


def forest_normalize(g: SignedGraph) -> SwitchCanonicalForm:
    """Switch so the deterministic BFS spanning forest is all-positive.

    The result is the unique representative of the switching class of g
    for this forest and labeling, so it doubles as a class fingerprint.
    """
    _, _, theta, _, forest = _bfs_forest(g)
    u_set = frozenset(v for v in range(g.n) if theta[v] == -1)
    normalized = switch(g, u_set)
    forest_set = set(forest)
    cotree = tuple(s for u, v, s in normalized.edges if (u, v) not in forest_set)
    return SwitchCanonicalForm(normalized, u_set, tuple(forest), cotree)


def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff g2 = switch(g1, U) for some U (same labeled underlying graph)."""
    if g1.n != g2.n or g1.underlying_edges() != g2.underlying_edges():
        raise UnderlyingGraphMismatchError("graphs have different underlying graphs")
    return forest_normalize(g1).graph.edges == forest_normalize(g2).graph.edges


def _negative_walk(adj, v0: int, cutoff: int | None) -> list[int] | None:
    """A shortest negative closed walk through v0, as its vertices from v0
    back to v0, or None when none is at most ``cutoff`` edges long (None:
    any length).

    A BFS of the signed double cover from (v0, 0) to (v0, 1): each vertex
    v lifts to (v, 0) and (v, 1), and an edge uv links sheets ((u,e) to
    (v,e)) when positive and crosses them when negative.
    """
    start = 2 * v0  # node id = 2*v + sheet
    dist = {start: 0}
    par: dict[int, int] = {}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if cutoff is not None and dist[node] >= cutoff:
            return None
        u, sheet = node >> 1, node & 1
        for w, s in adj[u]:
            nxt = 2 * w + (sheet if s == 1 else 1 - sheet)
            if nxt in dist:
                continue
            dist[nxt] = dist[node] + 1
            par[nxt] = node
            if nxt == start + 1:
                walk = [nxt]
                while walk[-1] != start:
                    walk.append(par[walk[-1]])
                return [x >> 1 for x in reversed(walk)]
            queue.append(nxt)
    return None


def shortest_negative_cycle(g: SignedGraph) -> CycleWitness | None:
    """A minimum-length negative cycle, or None when the graph is balanced.

    A shortest negative closed walk over all start vertices is a simple
    cycle: a repeated vertex would split it into two shorter closed walks,
    one of them negative.  A chord would split it the same way, so the
    cycle is also chordless.  The witness is the walk ``_negative_walk``
    finds from the smallest vertex on a cycle of the minimum length L.

    Every negative cycle holds a ``_frustrated`` edge (the forest's path
    signs cancel around it), so L is found by searching from one end of
    each, each search cut off at the best length so far.  Then each vertex
    below the smallest end that reaches L, in ascending order and in
    unbalanced components only, is searched with cutoff L: the first to
    reach L gives the witness, and if none does, that end's walk is it.
    Vertices outside the 2-core, peeled off first in O(n + m), are not
    searched: one at distance d from the core closes no negative walk
    shorter than L + 2d, so the cutoff would reject it anyway.  On a
    balanced graph the cost is one BFS forest.
    """
    adj = g.adjacency
    _, _, theta, comp, _ = _bfs_forest(g)
    ends = sorted({u for u, _, _ in _frustrated(g, theta)})
    shortest: list[int] | None = None
    for u in ends:
        walk = _negative_walk(adj, u, None if shortest is None else len(shortest) - 1)
        if walk is not None and (shortest is None or len(walk) < len(shortest)):
            shortest = walk
    if shortest is None:
        return None
    unbalanced = {comp[u] for u in ends}
    deg = [len(nbrs) for nbrs in adj]  # >= 2 exactly on the 2-core once peeled
    peel = [v for v, d in enumerate(deg) if d < 2]
    for v in peel:
        for w, _ in adj[v]:
            deg[w] -= 1
            if deg[w] == 1:
                peel.append(w)
    for v0 in range(shortest[0]):
        if comp[v0] in unbalanced and deg[v0] >= 2:
            walk = _negative_walk(adj, v0, len(shortest) - 1)
            if walk is not None:
                shortest = walk
                break
    cycle = shortest[:-1]
    if len(set(cycle)) != len(cycle):
        raise SgraphError(f"shortest negative walk {shortest} repeats a vertex")
    witness = CycleWitness.from_vertices(g, cycle)
    if witness.sign != -1:
        raise SgraphError(f"cycle {witness.vertices} found as negative is positive")
    if not witness.is_chordless(g):
        raise SgraphError(f"shortest negative cycle {witness.vertices} has a chord")
    return witness


def has_negative_c4(g: SignedGraph) -> CycleWitness | None:
    """A negative 4-cycle, or None.

    For each u in ascending order, every two-step walk u-x-w with w > u
    files w under ``plus`` or ``minus`` by the sign of sign(ux)*sign(xw),
    keeping the lowest x (adjacency lists are sorted).  A negative 4-cycle
    through u and w exists iff w is under both; the smallest such w gives
    (u, lowest plus, w, lowest minus), the first such pair u < w in order.
    The work is the number of two-step walks from vertices with two
    neighbours or more, the only ones a 4-cycle can pass through.
    """
    adj = g.adjacency
    for u, nbrs in enumerate(adj):
        if len(nbrs) < 2:
            continue
        plus: dict[int, int] = {}
        minus: dict[int, int] = {}
        for x, sx in nbrs:
            for w, sw in adj[x]:
                if w > u:
                    (plus if sx == sw else minus).setdefault(w, x)
        both = plus.keys() & minus.keys()
        if both:
            w = min(both)
            return CycleWitness.from_vertices(g, (u, plus[w], w, minus[w]))
    return None


def switching_class_representatives(g: SignedGraph) -> Iterator[SignedGraph]:
    """All switching classes of g's underlying graph, one representative each.

    Representatives carry +1 on the deterministic BFS forest and iterate
    every sign pattern on the co-tree edges, so exactly 2^(m-n+c) graphs
    are produced; the first one (all co-tree edges positive) is the
    balanced class.  The input's own signs are ignored.
    """
    _, _, _, _, forest = _bfs_forest(g)
    forest_set = set(forest)
    pairs = g.underlying_edges()
    cotree_idx = [i for i, uv in enumerate(pairs) if uv not in forest_set]
    k = len(cotree_idx)
    base = [(u, v, 1) for u, v in pairs]
    for bits in range(1 << k):
        edges = list(base)
        for b, i in enumerate(cotree_idx):
            if bits >> b & 1:
                u, v, _ = edges[i]
                edges[i] = (u, v, -1)
        yield SignedGraph(g.n, tuple(edges))


def _degree_profiles(g: SignedGraph) -> list[int]:
    """Switching-invariant vertex colours: colour refinement to the stable
    partition.  Every vertex starts from its degree; each round gives it
    the rank, among the round's distinct values, of (its colour, the sorted
    colours of its neighbours), and rounds stop when the number of colours
    stops growing.  The ranks depend only on the graph up to relabelling
    and switching, so colours can be ordered and compared across graphs."""
    adj = g.adjacency
    colors = [len(a) for a in adj]
    count = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w, _ in a))) for v, a in enumerate(adj)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [rank[sig] for sig in sigs]
        if len(rank) == count:
            return colors
        count = len(rank)


def _is_twin(nbr: list[dict[int, int]], v: int, w: int) -> bool:
    """True when N(v) - {w} = N(w) - {v} and sign(v,x)*sign(w,x) is the same
    for each such x, ``nbr[v]`` mapping v's neighbours to edge signs: then
    swapping v and w (and switching both when that sign is -1) fixes g.  An
    equivalence: true and false twins cannot mix, and the sign factors multiply."""
    a, b = nbr[v], nbr[w]
    return a.keys() - {w} == b.keys() - {v} and len(
        {s * b[x] for x, s in a.items() if x != w}
    ) <= 1


def _twin_classes(nbr: list[dict[int, int]]) -> list[list[int]]:
    """The twin classes of ``_is_twin``, each in ascending order, listed by
    their smallest vertex.  False twins share their open neighbourhood and
    true twins their closed one, so v is tested only against the classes
    filed under those two sets."""
    classes: list[list[int]] = []
    filed: dict[tuple[bool, frozenset], list[int]] = {}
    for v, a in enumerate(nbr):
        keys = ((False, frozenset(a)), (True, frozenset(a).union((v,))))
        home = next((i for key in keys for i in filed.get(key, ())
                     if _is_twin(nbr, v, classes[i][0])), None)
        if home is None:
            home = len(classes)
            classes.append([])
            for key in keys:
                filed.setdefault(key, []).append(home)
        classes[home].append(v)
    return classes


Row = tuple[int, int, int]  # (adjacency bits, co-tree bit count, co-tree bits)


def _order_search(g: SignedGraph, prof: list[int], target: list[Row] | None = None,
                  first: bool = False) -> tuple[tuple[int, ...], list[Row]] | None:
    """Depth-first search over the vertex orders of g that list ``prof`` in
    ascending order, compared by their encoding.

    Placing vertex v at depth d encodes one row: its adjacency to the d
    vertices before it, as a d-bit integer with the first vertex highest,
    and one sign bit per cycle-closing back edge, 1 for a negative cycle,
    after normalizing the earliest-edge spanning forest to all positive
    signs (tracked with a signed union-find).  Rows compare as tuples, so
    encodings compare lexicographically.

    At depth d the candidates are the unplaced vertices whose profile is
    the d-th smallest, one per twin class (twins are interchanged by a
    switching automorphism, so their subtrees have the same encodings),
    ordered by row.  Profiles are invariant under relabelling and
    switching, so these orders, and the smallest encoding among them, are
    too.  Within a twin class vertices are placed in ascending order.

    By default the search returns the smallest encoding: only the
    candidates with the smallest row at a node can start it, and a prefix
    above the best encoding found is pruned.  With ``first`` it stops at
    the first, greedy leaf.  With ``target``, a list of rows, it stops at
    the first order whose encoding is ``target``, pruning every other
    prefix, and returns None when there is none.  The result is (order,
    rows).  The search keeps its own stack, so n is not bounded by the
    recursion limit.
    """
    n = g.n
    nbr = [dict(a) for a in g.adjacency]
    members = _twin_classes(nbr)
    cells: dict[int, list[int]] = {}  # profile -> its twin classes
    for c, vs in enumerate(members):
        cells.setdefault(prof[vs[0]], []).append(c)
    want = sorted(prof)
    used = [0] * len(members)  # how many of each class are placed
    pos = [-1] * n  # depth of each placed vertex
    parent = list(range(n))
    sgn = [1] * n
    order: list[int] = []
    placed: list[tuple[int, int, dict]] = []  # (v, class, roots joined) per depth
    rows: list[Row] = []

    def find(x: int) -> tuple[int, int]:
        s = 1
        while parent[x] != x:
            s *= sgn[x]
            x = parent[x]
        return x, s

    def row_of(v: int) -> tuple[Row, dict[int, int]]:
        """v's row if placed next, and the roots that its spanning-forest
        edges join under v, each with its sign to v."""
        d = len(order)
        adj = k = cot = 0
        joined: dict[int, int] = {}
        for i in sorted(pos[p] for p in nbr[v] if pos[p] >= 0):
            p = order[i]
            adj |= 1 << (d - 1 - i)
            root, s = find(p)
            s *= nbr[v][p]
            if root in joined:
                cot = cot << 1 | (joined[root] != s)
                k += 1
            else:
                joined[root] = s
        return (adj, k, cot), joined

    def candidates() -> list:
        """The (row, v, class, joined) to try at the next depth, best last."""
        d = len(order)
        scored = []
        for c in cells[want[d]]:
            if used[c] < len(members[c]):
                v = members[c][used[c]]
                row, joined = row_of(v)
                if target is None or row == target[d]:
                    scored.append((row, v, c, joined))
        if target is None:
            low = min(t[0] for t in scored)
            scored = [t for t in scored if t[0] == low]
        return scored[::-1]

    if n == 0:
        return (), []
    best: list[Row] | None = None
    found: tuple[int, ...] = ()
    below = False  # the current prefix is already below best's
    stack = [candidates()]
    while stack:
        while len(placed) >= len(stack):  # undo this depth's last placement
            v, c, joined = placed.pop()
            order.pop()
            rows.pop()
            used[c] -= 1
            pos[v] = -1
            for root in joined:
                parent[root], sgn[root] = root, 1
        todo = stack[-1]
        if not todo:
            stack.pop()
            continue
        row, v, c, joined = todo.pop()
        d = len(order)
        if target is None and best is not None and not below:
            if row > best[d]:
                continue
            below = row < best[d]
        pos[v] = d
        used[c] += 1
        for root, s in joined.items():
            parent[root], sgn[root] = v, s
        order.append(v)
        rows.append(row)
        placed.append((v, c, joined))
        if d + 1 < n:
            stack.append(candidates())
            continue
        if target is not None or first:
            return tuple(order), rows
        if best is None or below:
            best, found, below = list(rows), tuple(order), False
    return None if target is not None else (found, best)


def switching_isomorphism(
    g1: SignedGraph, g2: SignedGraph
) -> tuple[tuple[int, ...], frozenset[int]] | None:
    """A certificate (mapping, switch set) with switch(relabel(g1, mapping), U) == g2.

    Returns None at once when the sizes or the sorted ``_degree_profiles``
    differ.  Otherwise takes g2's vertex order from the first leaf of the
    ordering search and searches g1's orders, which list the same profiles
    in the same ascending order, for the same rows.  Equal encodings mean
    equal adjacency and equal co-tree signs on the same earliest-edge
    forest, so mapping g1's order onto g2's is a switching isomorphism;
    the switch set comes from normalizing both graphs' BFS forests.
    Returns None when the graphs are not switching isomorphic.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    prof1 = _degree_profiles(g1)
    prof2 = _degree_profiles(g2)
    if sorted(prof1) != sorted(prof2):
        return None
    order2, rows2 = _order_search(g2, prof2, first=True)
    match = _order_search(g1, prof1, target=rows2)
    if match is None:
        return None
    mapping = tuple(v2 for _, v2 in sorted(zip(match[0], order2)))
    nf_h = forest_normalize(relabel(g1, mapping))
    nf2 = forest_normalize(g2)
    if nf_h.graph.edges != nf2.graph.edges:
        raise SgraphError("equal order encodings gave inequivalent graphs")
    return mapping, frozenset(nf_h.switch_set ^ nf2.switch_set)


def switching_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff some relabeling of g1 is switching equivalent to g2."""
    return switching_isomorphism(g1, g2) is not None


def canonical_key(g: SignedGraph) -> bytes:
    """A total invariant of the switching-isomorphism class of g, as bytes.

    The smallest encoding over the profile-ordered vertex orders of
    ``_order_search``, packed flat: n as 4 big-endian bytes, then one bit
    string holding the adjacency bits of the order's rows (row d has d
    bits, first vertex first), then their co-tree sign bits in row order,
    zero-padded to whole bytes.  The adjacency bits fix the graph, hence
    the number of sign bits, so the bytes determine the encoding.  The
    co-tree sign vector determines all cycle signs, hence the switching
    class, so equal keys mean switching isomorphic.  Beyond twins the
    search prunes no automorphisms, so some graphs, such as many disjoint
    copies of one graph, still cost exponential time.
    """
    adj = cot = width = 0
    if g.n:
        for d, (a, k, c) in enumerate(_order_search(g, _degree_profiles(g))[1]):
            adj = adj << d | a
            cot = cot << k | c
            width += k
    bits = g.n * (g.n - 1) // 2 + width
    pad = -bits % 8
    packed = (adj << width | cot) << pad
    return g.n.to_bytes(4, "big") + packed.to_bytes((bits + pad) // 8, "big")
