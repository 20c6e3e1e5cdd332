"""Shared generators and brute-force oracles for the test suite.

The oracles here deliberately avoid the package's algorithmic shortcuts:
balance is decided by trying every switching, negative 4-cycles by
scanning every 4-subset, shortest negative cycles by exhaustive simple
cycle enumeration, switching classes by orbit flooding over single
vertex switchings, and switching isomorphism by trying every relabelling.
The ``reference_*`` functions are earlier, plainer implementations of the
package's kernels, kept as oracles for their faster replacements.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from itertools import combinations, permutations

from sgraph import CycleWitness, SignedGraph, relabel, switch
from sgraph.search import _place


def random_signed_graph(rng: random.Random, n: int, p: float = 0.45) -> SignedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.choice((1, -1))))
    return SignedGraph.from_edge_list(n, edges)


def random_connected_signed_graph(rng: random.Random, n: int, extra: float = 0.3) -> SignedGraph:
    """Random spanning tree plus density ``extra`` chords, random signs."""
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        edges.append((min(u, v), max(u, v), rng.choice((1, -1))))
    present = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra:
                edges.append((u, v, rng.choice((1, -1))))
    return SignedGraph.from_edge_list(n, edges)


def random_bipartite_signed_graph(
    rng: random.Random, r: int, s: int, p: float = 0.5
) -> SignedGraph:
    edges = []
    for u in range(r):
        for v in range(r, r + s):
            if rng.random() < p:
                edges.append((u, v, rng.choice((1, -1))))
    return SignedGraph.from_edge_list(r + s, edges)


def brute_is_balanced(g: SignedGraph) -> bool:
    """Balanced iff some switching makes every edge positive (2^n trials,
    fixing vertex 0 out of the switch set since U and its complement act
    identically)."""
    if g.n == 0:
        return True
    for mask in range(1 << (g.n - 1)):
        u_set = {v for v in range(1, g.n) if mask >> (v - 1) & 1}
        if all(s == 1 for _, _, s in switch(g, u_set).edges):
            return True
    return False


def brute_has_negative_c4(g: SignedGraph) -> bool:
    """Scan every 4-subset and both pairings for a negative 4-cycle."""
    for quad in combinations(range(g.n), 4):
        a, b, c, d = quad
        for order in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            signs = [
                g.sign(order[i], order[(i + 1) % 4]) for i in range(4)
            ]
            if all(signs) and signs[0] * signs[1] * signs[2] * signs[3] == -1:
                return True
    return False


def brute_shortest_negative_cycle_length(g: SignedGraph) -> int | None:
    """Length of the shortest negative simple cycle, by exhaustive DFS over
    simple paths (smallest-vertex-rooted), pruned to the best length."""
    best: int | None = None
    adj = g.adjacency

    def dfs(root: int, path: list[int], sign: int):
        nonlocal best
        if best is not None and len(path) >= best:
            return
        u = path[-1]
        for v, s in adj[u]:
            if v == root and len(path) >= 3:
                if sign * s == -1 and (best is None or len(path) < best):
                    best = len(path)
            elif v > root and v not in path:
                path.append(v)
                dfs(root, path, sign * s)
                path.pop()

    for root in range(g.n):
        dfs(root, [root], 1)
    return best


def brute_switching_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Try every relabelling of g1 that gives g2's underlying graph; one
    works iff the edge-wise product of the two signatures is balanced."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    pairs2 = set(g2.underlying_edges())
    for perm in permutations(range(g1.n)):
        if any((perm[u], perm[v]) not in pairs2 and (perm[v], perm[u]) not in pairs2
               for u, v, _ in g1.edges):
            continue
        h = relabel(g1, perm)
        product = tuple((u, v, s * t) for (u, v, s), (_, _, t) in zip(h.edges, g2.edges))
        if brute_is_balanced(SignedGraph(g2.n, product)):
            return True
    return False


def count_switching_classes_brute(g: SignedGraph) -> int:
    """Orbits of the 2^m signatures under switching, by orbit flooding."""
    pairs = g.underlying_edges()
    m = len(pairs)
    seen = [False] * (1 << m)
    classes = 0
    for start in range(1 << m):
        if seen[start]:
            continue
        classes += 1
        stack = [start]
        seen[start] = True
        while stack:
            cur = stack.pop()
            for v in range(g.n):
                flipped = cur
                for i, (a, b) in enumerate(pairs):
                    if (a == v) != (b == v):
                        flipped ^= 1 << i
                if not seen[flipped]:
                    seen[flipped] = True
                    stack.append(flipped)
    return classes


def signature_from_mask(g: SignedGraph, mask: int) -> SignedGraph:
    """Signature on g's underlying graph: bit i set = edge i negative."""
    return SignedGraph(
        g.n,
        tuple(
            (u, v, -1 if mask >> i & 1 else 1)
            for i, (u, v, _) in enumerate(g.edges)
        ),
    )


def multiset_close(xs, ys, tol: float) -> bool:
    if len(xs) != len(ys):
        return False
    return all(abs(a - b) <= tol for a, b in zip(sorted(xs), sorted(ys)))


def reference_cotree(mask: int, r: int, s: int) -> int:
    """Co-tree slot mask of the subset graph of slot ``mask`` (slot a*s + b
    is the edge (a, r + b)), by union-find: the forest keeps each slot, in
    ascending order, that joins two components."""
    root = list(range(r + s))
    cotree = 0
    for i in range(r * s):
        if not mask >> i & 1:
            continue
        u, v = i // s, r + i % s
        while root[u] != u:
            u = root[u]
        while root[v] != v:
            v = root[v]
        if u == v:
            cotree |= 1 << i
        else:
            root[u] = v
    return cotree


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _type_count(parts: tuple[int, ...]) -> int:
    """Number of permutations of sum(parts) points with cycle type parts:
    n! / prod(i^m_i * m_i!) over the multiplicities m_i."""
    z = math.prod(i**m * math.factorial(m) for i, m in Counter(parts).items())
    return math.factorial(sum(parts)) // z


def polya_orbit_counts(r: int, s: int) -> list[int]:
    """Entry m is the number of S_r x S_s orbits of the r*s cells' subsets
    with m cells, by Polya counting: a pair of permutations with cycle
    types lam and mu moves the cells in gcd(a, b) cycles of length
    lcm(a, b) for each cycle a of lam and b of mu, so it fixes
    prod (1 + x^lcm(a, b))^gcd(a, b) subsets, counted by size; the orbit
    counts are the average of that polynomial over S_r x S_s."""
    total = [0] * (r * s + 1)
    for lam in _partitions(r):
        for mu in _partitions(s):
            poly = [1]
            for a in lam:
                for b in mu:
                    step = a * b // math.gcd(a, b)
                    for _ in range(math.gcd(a, b)):
                        grown = poly + [0] * step
                        for i, c in enumerate(poly):
                            grown[i + step] += c
                        poly = grown
            weight = _type_count(lam) * _type_count(mu)
            for m, c in enumerate(poly):
                total[m] += weight * c
    order = math.factorial(r) * math.factorial(s)
    return [c // order for c in total]


def reference_has_negative_c4(g: SignedGraph) -> CycleWitness | None:
    """The first negative 4-cycle (u, plus, w, minus) over pairs u < w in
    order, plus and minus the lowest common neighbours whose two-edge
    products are +1 and -1, by a dict scan of the adjacency lists."""
    adj = g.adjacency
    for u in range(g.n):
        nbr_u = {x: s for x, s in adj[u]}
        for w in range(u + 1, g.n):
            plus = minus = None
            for x, sw in adj[w]:
                su = nbr_u.get(x)
                if su is None:
                    continue
                if su * sw == 1:
                    if plus is None:
                        plus = x
                elif minus is None:
                    minus = x
                if plus is not None and minus is not None:
                    return CycleWitness.from_vertices(g, (u, plus, w, minus))
    return None


def reference_shortest_negative_cycle(g: SignedGraph) -> CycleWitness | None:
    """A minimum-length negative cycle by a double-cover BFS from every
    vertex in ascending order, each cut off at the best length so far: the
    walk from the first vertex that reaches the minimum is the witness."""
    adj = g.adjacency
    best: list[int] | None = None
    for v0 in range(g.n):
        dist = {2 * v0: 0}
        par: dict[int, int] = {}
        queue = deque([2 * v0])
        found = None
        while queue and found is None:
            node = queue.popleft()
            if best is not None and dist[node] >= len(best) - 1:
                break
            u, sheet = node >> 1, node & 1
            for w, s in adj[u]:
                nxt = 2 * w + (sheet if s == 1 else 1 - sheet)
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    par[nxt] = node
                    if nxt == 2 * v0 + 1:
                        found = nxt
                        break
                    queue.append(nxt)
        if found is not None and (best is None or dist[found] < len(best) - 1):
            walk = [found]
            while walk[-1] != 2 * v0:
                walk.append(par[walk[-1]])
            best = [node >> 1 for node in reversed(walk)]
    return None if best is None else CycleWitness.from_vertices(g, best[:-1])


def reference_minimal_masks(r: int, s: int, k: int) -> list[tuple[int, int]]:
    """(mask, orbit size) of every S_r x S_s orbit minimum with first row
    2^k - 1, in increasing order: each row t >= the prefix's last is
    appended and the whole tuple is placed by ``_place`` from scratch.
    |Aut| is the placement count times the factorials of the multiplicities
    of equal rows and of equal columns."""
    out = []
    scale = math.factorial(r) * math.factorial(s)

    def extend(prefix):
        for t in range(prefix[-1], 1 << s):
            rows = prefix + (t,)
            mult = Counter(rows)
            branches = _place(rows, 0, [((1 << s) - 1, 0)], mult)
            if branches is None:
                continue
            if len(rows) < r:
                extend(rows)
            else:
                cols = Counter(tuple(row >> j & 1 for row in rows) for j in range(s))
                perms = math.prod(
                    math.factorial(c) for c in (*mult.values(), *cols.values())
                )
                mask = sum(row << (r - 1 - i) * s for i, row in enumerate(rows))
                out.append((mask, scale // (branches * perms)))

    extend(((1 << k) - 1,))
    return out
