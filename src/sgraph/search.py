"""Exhaustive and randomized verification of the extremal bounds.

Enumeration unit: (underlying bipartite graph, switching class).  For a
fixed left side 0..r-1 and right side r..r+s-1, an underlying graph is an
edge mask over the r*s complete-bipartite slots; bit a*s + b is the edge
(a, r + b), so row a of the mask is the s-bit neighbourhood of left vertex
a.  On each graph, switching classes are walked by fixing a spanning
forest all-positive, so that only co-tree edges may be negative
(2^(m-n+c) classes, one per class).  Any spanning forest will do; the
search takes the slots, in ascending order, that join two components,
computed row by row over column bitmasks (see ``_cotree``).  A class is
then a negative-edge slot mask inside the co-tree.  The empty mask is the
balanced class and is skipped; a class is admissible when it is
unbalanced and every 4-cycle has positive sign.  The 4-cycle condition
is a linear system over GF(2) in the co-tree slots, so the admissible
classes are the nonzero vectors of its solution space, listed from a
basis (see ``_classes``, which the exhaustive scans and the randomized
sampler share).

The exhaustive search visits one mask per orbit of the row and column
permutations S_r x S_s, which are graph isomorphisms: the smallest.  Its
rows, read as s-bit integers, ascend from row r-1, the most significant,
so mask order is the lexicographic order of that row tuple.  The minima
are generated row by row (Read and McKay's orderly generation), keeping
a prefix only when no row and column permutation makes it smaller, and
each stands for its orbit of r!*s!/|Aut| labelled graphs.  A kept prefix
keeps the nodes of its placement tree and the rows left at each: only
rows packed in the cells of its own row order are tried, and each is
tested and placed at those nodes, never from the root.  A prefix's one
completion by full rows is a minimum whenever the prefix is, so it is
emitted with its weight in closed form (see ``_minimal_masks``).  The
counters are isomorphism invariants, so the weighted totals equal those
of the full 2^(r*s) cube.  A graph whose rows are absorbed one by one,
each through 4-cycles with the rows before it, carries no admissible
class, so its classes are counted in closed form, with no co-tree or
parity system (see ``_absorbed``); at every size up to (5,6) that is
every minimum with no admissible class.  Spectral radii are
sqrt(lambda_max(B B^T)) for the r x s signed biadjacency matrix B, solved
by numpy in one stack per search.  A graph with m edges has
rho^2 <= tr(B B^T) = m, so its classes skip the eigensolve when m is
below beta, the square of the closed-form bound; for integer m that is
exactly m < r*s - r - s (see ``_scan``).

The exhaustive searches find the maximum spectral radius over admissible
classes, group every class within ``BOUND_TOL`` of the maximum by
switching isomorphism, and certify against the closed-form bounds.  The
representative reported for a class is its ``core.forest_normalize`` form,
so the search's own forest never shows in the output.  A class's masks
are closed under S_r x S_s, so its smallest mask is an orbit minimum, every
class on it is solved, and the first one of each class in (mask,
normal-form co-tree bits) order is the one a scan of the full cube would
report.  The unit of work is the first row of a minimum, 2^k - 1 for
k = 0..s: each of these s + 1 tasks generates and scans its own minima
and returns its counters and the classes the prune keeps.

A command is priced before any task starts: its price is the number of
minima its searches visit, Polya's count of the S_r x S_s orbits summed
over every (r, s) it searches (see ``orbit_price``).  The price is held
against the budget, and it decides whether the command forks: a command
priced under ``MINIMA_PER_WORKER`` minima runs its tasks in the calling
process, since a forked worker only pays for itself on a search about
that large, and any other command uses up to ``--jobs`` processes, no
more than the usable CPUs or its tasks.  A command left with one process
runs its tasks in the calling process.  Otherwise the tasks of every
(r, s) it searches, all the splits of an order included, fan out
together over it and its children, each process claiming the next task
when it is free (see ``_fan_out``).
The parent concatenates each search's results in task order and solves
its kept classes in one stack; numpy's radius for a class does not
depend on the stack it is solved in, so the parallelism width never
changes the output.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass, fields
from functools import reduce
from itertools import islice
from operator import or_, xor
from typing import Callable, Iterable

import numpy as np

from . import sgio
from .core import (
    SignedGraph,
    component_count,
    forest_normalize,
    switching_isomorphic,
)
from .errors import BadParamsError, BudgetExceededError, SgraphError
from .extremal import bound_fixed_order, bound_fixed_sizes, check_sizes, extremal_graph
from .spectral import symmetric_eigenvalues

# budgets in orbit minima, the prices of the largest orders each tier takes
DEFAULT_BUDGET = 9_608  # verify order 10; beyond this the stretch flag is required
STRETCH_BUDGET = 415_859  # verify order 12
# A search priced under this many minima runs in the calling process.  One
# against two workers, 25 interleaved pairs on 2 vCPUs, median wall ms (price):
#   order 8 (507) 5.3 / 7.8; (4,5) (1,053) 10.4 / 10.7;
#   (3,8) (1,324) 8.8 / 9.7; order 9 (1,439) 13.4 / 12.6;
#   (4,6) (3,250) 30.6 / 22.7; (5,5) (5,624) 69.8 / 44.5;
#   order 10 (9,608) 102.3 / 65.4.
# Wall time breaks even near 1,400 minima, but the fork costs CPU time
# too, so the second worker waits until it wins clearly.  Only one against
# two was measured, so past this price --jobs alone sets the count, capped
# by the CPUs and the tasks.
MINIMA_PER_WORKER = 2_000
CUBE_BUDGET_RS = 20  # enumerate_admissible walks all 2^(r*s) labelled masks
BOUND_TOL = 1e-8  # verdict tolerance: maximizers kept, and the max against the bound
SOLVE_BLOCK = 256  # sampler draws per stacked eigensolve

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SearchSpace:
    """Enumeration parameters for one (r, s) class, refused when built if
    they are bad.  The budget is held against the price of the command
    that searches it (see ``_priced``)."""

    r: int
    s: int
    jobs: int = 1
    stretch: bool = False

    def __post_init__(self):
        check_sizes(self.r, self.s)
        if self.jobs < 1:
            raise BadParamsError("jobs must be >= 1")


def _cycle_types(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(cycle lengths, permutations) for every cycle type of S_n: the type
    with m_i cycles of length i has n! / prod(i^m_i * m_i!) permutations."""
    out = []

    def grow(left: int, largest: int, lengths: tuple[int, ...]) -> None:
        if not left:
            z = math.prod(i**m * math.factorial(m) for i, m in Counter(lengths).items())
            out.append((lengths, math.factorial(n) // z))
        for part in range(min(left, largest), 0, -1):
            grow(left - part, part, lengths + (part,))

    grow(n, n, ())
    return out


def orbit_price(r: int, s: int) -> int:
    """The number of S_r x S_s orbits of r x s 0/1 matrices: the number of
    minima ``_minimal_masks`` emits over k = 0..s, the price of an (r, s)
    search.

    A pair of permutations with cycle types lam and mu moves the cells in
    gcd(a, b) cycles for each cycle a of lam and b of mu, so it fixes
    2^(sum of those gcds) matrices; by Burnside's lemma the orbit count is
    the average of that over S_r x S_s.  For each lam, the sum over the
    column permutations is F[s], where F[n] sums, over the permutations of
    n columns, the product of f(b) = 2^(sum of gcd(a, b) over a in lam)
    over their cycles b.  The cycle through the last column has length b
    and (n-1)!/(n-b)! choices of its other columns, so F[n] is the sum of
    (n-1)!/(n-b)! * f(b) * F[n - b] over b = 1..n.  That is s^2 terms per
    cycle type of S_r, so ``_priced`` tests the sizes with
    ``_surely_over`` first.
    """
    total = 0
    for lam, perms in _cycle_types(r):
        f = [0] + [1 << sum(math.gcd(a, b) for a in lam) for b in range(1, s + 1)]
        F = [1]
        for n in range(1, s + 1):
            F.append(sum(math.perm(n - 1, b - 1) * f[b] * F[n - b] for b in range(1, n + 1)))
        total += perms * F[s]
    return total // (math.factorial(r) * math.factorial(s))


def _surely_over(r: int, s: int) -> bool:
    """True when ``orbit_price(r, s)`` is surely above ``STRETCH_BUDGET``,
    decided in a few steps whatever the sizes.

    Rows past the q-th, q = min(r, 8), only add orbits (a zero row keeps
    distinct orbits apart), and an orbit of q-row matrices holds at most
    q! multisets of s columns drawn from 2^q values.  So the price is at
    least C(s + v, v) / q!, v = 2^q - 1.  That binomial is built as a
    product whose partial values at least double each step, so the test
    stops after about log2(STRETCH_BUDGET * q!) steps.
    """
    q = min(r, 8)
    v = (1 << q) - 1
    over = STRETCH_BUDGET * math.factorial(q)
    c = 1
    for i in range(1, min(s, v) + 1):
        c = c * (max(s, v) + i) // i  # C(max(s, v) + i, i), an integer
        if c > over:
            return True
    return False


def _priced(spaces: Iterable[SearchSpace]) -> tuple[list[SearchSpace], int]:
    """The spaces of one command and its price, the sum of theirs;
    ``BudgetExceededError`` when the price is over the budget, the stretch
    budget when every space has the stretch flag.

    A space priced surely over every budget is refused before the next
    one is built, so a large order never builds its n/2 splits and
    ``orbit_price`` only walks partitions of small sizes.
    """
    kept: list[SearchSpace] = []
    price = 0
    for space in spaces:
        if _surely_over(space.r, space.s):
            raise BudgetExceededError(
                f"searching ({space.r},{space.s}) costs more than "
                f"{STRETCH_BUDGET:,} orbit minima, the stretch budget"
            )
        price += orbit_price(space.r, space.s)
        kept.append(space)
    if all(space.stretch for space in kept):
        limit, name = STRETCH_BUDGET, f"the stretch budget of {STRETCH_BUDGET:,}"
    else:
        limit, name = DEFAULT_BUDGET, (
            f"the default budget of {DEFAULT_BUDGET:,} "
            f"(the stretch flag allows {STRETCH_BUDGET:,})"
        )
    if price > limit:
        sizes = ", ".join(f"({space.r},{space.s})" for space in kept)
        raise BudgetExceededError(
            f"searching {sizes} costs {price:,} orbit minima, more than {name}"
        )
    return kept, price


@dataclass(frozen=True)
class SearchStats:
    """Counters over one enumeration run."""

    graphs: int = 0
    graphs_skipped: int = 0
    classes: int = 0
    balanced_skipped: int = 0
    c4_skipped: int = 0
    admissible: int = 0
    pruned: int = 0
    eigensolved: int = 0

    def merge(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    def to_dict(self) -> dict:
        return dict(vars(self))


def _signed_graph(r: int, s: int, mask: int, neg: int) -> SignedGraph:
    """The signed graph of the class (mask, neg): its edges and its
    negative edges as masks over the r*s slots.  The edges are listed in
    slot order, taken row by row."""
    full = (1 << s) - 1
    edges = []
    for a in range(r):
        row = mask >> a * s & full
        signs = neg >> a * s
        while row:
            low = row & -row
            edges.append((a, r + low.bit_length() - 1, -1 if signs & low else 1))
            row ^= low
    return SignedGraph(r + s, tuple(edges))


def _rows_of(mask: int, r: int, s: int) -> list[int]:
    full = (1 << s) - 1
    return [(mask >> (a * s)) & full for a in range(r)]


def _packed(row: int, cells: list[tuple[int, int]]) -> int:
    """The smallest image of ``row`` when each cell (column mask, first
    position) keeps its positions: the row's ones in a cell go lowest."""
    img = 0
    for cols, lo in cells:
        img |= ((1 << (row & cols).bit_count()) - 1) << lo
    return img


def _refine(row: int, cells: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Split every cell into the row's ones, placed first, and its zeros."""
    out = []
    for cols, lo in cells:
        ones = row & cols
        if ones:
            out.append((ones, lo))
        if ones != cols:
            out.append((cols ^ ones, lo + ones.bit_count()))
    return out


def _place(rows, depth, cells, left, nodes=None) -> int | None:
    """Place the rows ``left`` (value -> count) at positions depth, depth+1,
    ... of the ascending tuple ``rows``, trying each value whose packed
    image is the smallest.  None when a placement gives a smaller tuple;
    else the number of orders of distinct values that give ``rows``.  Each
    node it expands is appended to ``nodes`` if given: (depth, cells, rows
    left).
    """
    if nodes is not None:
        nodes.append((depth, cells, dict(left)))
    if depth == len(rows):
        return 1
    total = 0
    for value, count in left.items():
        if not count:
            continue
        img = _packed(value, cells)
        if img < rows[depth]:
            return None
        if img == rows[depth]:
            left[value] = count - 1
            sub = _place(rows, depth + 1, _refine(value, cells), left, nodes)
            left[value] = count
            if sub is None:
                return None
            total += sub
    return total


def _minimal_masks(r: int, s: int, k: int) -> list[tuple[int, int]]:
    """(mask, orbit size) for the smallest mask of every S_r x S_s orbit
    whose first row is 2^k - 1, in increasing order.

    The first row of a minimum has its ones packed lowest, so k = 0..s
    splits the minima into s + 1 disjoint lists.  A prefix of the
    ascending row tuple grows by a row t >= its last and is kept when
    ``_place`` finds no smaller image of it; the test is hereditary, so a
    rejected prefix is never extended.  |Aut| of a full tuple is its
    placement count times prod(mult!) over its equal rows and over its
    equal columns, the cells of its own row order.

    A kept prefix P carries the nodes of its ``_place`` tree; a leaf is a
    node with no rows left.  Placed in their own order, P's rows reach a
    leaf whose cells are intervals, the last node; a row not packed in
    them has a smaller image there, so only packed rows are tried, and
    each ties at that leaf.  The tree of P + (t,) is P's, with t added to
    the rows left at every node, plus the placements of t.  So t is
    rejected if its image at a node is below the tuple's row there, and
    ``_place`` places it wherever the image ties and the rows left do not
    already hold t: t always goes last of its equal copies, and only the
    first row is placed from the root.  At the last row a tie at a leaf
    is one placement, and nothing is placed.  P also carries its mask and
    prod(mult!) over its equal rows, so a full tuple's weight needs only
    t's ones in each of P's cells.

    The full row 2^s - 1 is the largest candidate, and every row after it
    is full.  Column permutations fix full rows, and full rows sort last,
    so P + full^(r - j), for P of j rows, is a minimum exactly when P is,
    with P's leaves as its placements and P's cells.  It is emitted last
    among P's extensions, with weight r!*s! / (leaves(P) * prod(mult(P)!)
    * (r - j)! * prod(cell(P)!)), and never placed or extended.
    """
    full = (1 << s) - 1
    if k == s:
        return [((1 << r * s) - 1, 1)]
    out = []
    fact = [math.factorial(i) for i in range(max(r, s) + 1)]
    scale = fact[r] * fact[s]
    root = [(full, 0)]

    def extend(prefix, nodes, pmask, perms, run):
        # pmask is the prefix's mask, perms the product of mult! over its
        # equal rows and run the number of copies of its last row.  The
        # last node is the leaf of the prefix's own row order: every
        # packed row ties there, and placing it there appends the new one
        j = len(prefix)
        ident = nodes[-1][1]
        others = nodes[:-1]
        packed = [0]
        for cols, lo in ident:
            ones = range(cols.bit_count() + 1)
            packed = [x | ((1 << c) - 1) << lo for x in packed for c in ones]
        # the full row is packed and the largest candidate, so it comes last
        for t in sorted(x for x in packed if x >= prefix[-1])[:-1]:
            rows = prefix + (t,)
            ties = []
            for d, cells, left in others:
                img = _packed(t, cells)
                if img < rows[d]:
                    break
                if img == rows[d] and not left.get(t):
                    ties.append((d, cells, left))
            else:
                trun = run + 1 if t == prefix[-1] else 1
                mask = pmask << s | t
                if j + 1 < r:
                    grown = [(d, c, {**left, t: left.get(t, 0) + 1}) for d, c, left in nodes]
                    ties.append(nodes[-1])
                    if all(_place(rows, d + 1, _refine(t, c), left, grown) is not None
                           for d, c, left in ties):
                        extend(rows, grown, mask, perms * trun, trun)
                    continue
                # a full tuple needs no tree, and a tie at a leaf, the last
                # node's included, is one placement
                count = 1
                for d, c, left in ties:
                    sub = 1 if d == j else _place(rows, d + 1, _refine(t, c), left)
                    if sub is None:
                        break
                    count += sub
                else:
                    colperms = 1
                    for cols, _ in ident:
                        ones = (t & cols).bit_count()
                        colperms *= fact[ones] * fact[cols.bit_count() - ones]
                    out.append((mask, scale // (count * perms * trun * colperms)))
        # P + full^(r - j) is a minimum since P is: its placements are P's
        # leaves and its cells P's
        rest = r - j
        leaves = sum(d == j for d, _, _ in nodes)
        colperms = math.prod(fact[cols.bit_count()] for cols, _ in ident)
        out.append((
            pmask << rest * s | (1 << rest * s) - 1,
            scale // (leaves * perms * fact[rest] * colperms),
        ))

    first = ((1 << k) - 1,)
    nodes = []
    _place(first, 0, root, {first[0]: 1}, nodes)
    extend(first, nodes, first[0], 1, 1)
    return out


def _cotree(rows: list[int], s: int) -> int:
    """Co-tree slot mask of the graph whose row a is ``rows[a]``.

    The spanning forest keeps each slot, taken in ascending order, that
    joins two components; the co-tree is every other slot.  Rows are
    taken in turn, with the components met so far held as column masks.
    Left vertex a is new when row a comes, so of each component that the
    row meets the forest keeps the row's lowest column in it, and it keeps
    every column not seen before; those components then merge.
    """
    groups: list[int] = []
    seen = cotree = 0
    for a, row in enumerate(rows):
        if not row:
            continue
        keep = row & ~seen
        merged = row
        apart = []
        for cols in groups:
            hit = row & cols
            if hit:
                keep |= hit & -hit
                merged |= cols
            else:
                apart.append(cols)
        apart.append(merged)
        groups = apart
        seen |= row
        cotree |= (row ^ keep) << a * s
    return cotree


def _absorbed(rows: list[int]) -> int | None:
    """The number of components of the graph whose row a is ``rows[a]``,
    its isolated vertices left out, when absorption shows that the graph
    carries no admissible class; else None.

    Absorption grows a set R of rows whose edges every class with all
    4-cycles positive makes positive by a switching, with the columns of
    R split into the components of R's edges.  The rows are taken in
    turn, and again while a pass absorbs one, since a row refused early
    may join once R has grown.  Row a joins R when, in every component it
    meets, the columns T it shares with that component are linked through
    R: two columns are linked when a row b of R holds both, so a single
    column always is.  Switch so that R's edges are positive.  Each
    4-cycle (a, c, b, c') with b in R then forces sigma(a, c) =
    sigma(a, c'), so a's edges into one component have one sign.
    Switching every component where that sign is negative keeps R's
    edges positive and makes a's edges into them positive; switching each
    column new to R, whose only edge in R + a is to a, makes the rest
    positive.  The components a meets merge through a, and a row that
    meets none starts one.  So when every non-empty row joins, every
    class with all 4-cycles positive is balanced.
    """
    held: list[int] = []
    groups: list[int] = []  # the column mask of each component of R
    pending = rows
    while True:
        left = []
        for row in pending:
            if not row:
                continue
            merged = row
            apart = []
            for cols in groups:
                t = row & cols
                if not t:
                    apart.append(cols)
                    continue
                reach = t & -t
                while reach != t:
                    grown = reach
                    for b in held:
                        if b & grown:
                            grown |= b & t
                    if grown == reach:
                        break
                    reach = grown
                else:
                    merged |= cols
                    continue
                left.append(row)
                break
            else:
                held.append(row)
                apart.append(merged)
                groups = apart
        if not left:
            return len(groups)
        if len(left) == len(pending):
            return None
        pending = left


def _bit_list(x: int) -> list[int]:
    """Positions of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _gf2_nullspace_basis(rows: Iterable[int], cols: int) -> list[int]:
    """Basis of {x within cols : popcount(x & row) even for every row} over
    GF(2); the rows must lie within the column mask ``cols``.  Rows are
    consumed only until the constraints reach full rank.

    One vector per free column c: the unique solution whose free part is
    bit c.  The basis therefore depends only on the solution space, not
    on which rows span the constraints or their order.
    """
    full_rank = cols.bit_count()
    pivots: dict[int, int] = {}  # leading bit -> row with that leading bit
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                if len(pivots) == full_rank:
                    return []
                break
            row ^= pivot
    ascending = sorted(pivots.items())
    basis = []
    for fc in _bit_list(cols):
        if fc in pivots:
            continue
        v = 1 << fc
        for pc, pr in ascending:
            if (pr & v).bit_count() & 1:
                v ^= 1 << pc
        basis.append(v)
    return basis


def _admissible_basis(rows: list[int], s: int, cotree: int) -> list[int]:
    """Basis, as negative-slot masks inside the co-tree, of the classes
    under which every 4-cycle of the graph whose row a is ``rows[a]`` is
    positive.  Its nonzero span is the set of admissible classes (the
    empty mask is the balanced class).

    For left vertices a1 < a2 with common neighbours c0 < c1 < ..., the
    4-cycles through (c0, cj) span those through every pair (ci, cj), so
    only they become parity rows, each cut down to its co-tree slots.  The
    rows are made as the elimination asks for them.
    """
    r = len(rows)

    def parity():
        for a1 in range(r):
            for a2 in range(a1 + 1, r):
                common = rows[a1] & rows[a2]
                c0 = common & -common
                spread = 1 << a1 * s | 1 << a2 * s
                common ^= c0
                while common:
                    c = common & -common
                    yield (c0 | c) * spread & cotree
                    common ^= c

    return _gf2_nullspace_basis(parity(), cotree)


def _span(basis: list[int]) -> list[int]:
    """Every vector of span(basis); the zero vector comes first."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


def _spectral_radii(r: int, s: int, signed: list[tuple[int, int]]) -> np.ndarray:
    """Spectral radius of each bipartite signed graph given as (edge mask,
    negative-edge mask) over the r*s slots: sqrt(lambda_max(B B^T)) for its
    r x s signed biadjacency matrix B, one stacked eigensolve for all."""
    rs = r * s
    width = (rs + 7) // 8  # masks may exceed 64 bits in the sampler
    raw = b"".join(x.to_bytes(width, "little") for pair in signed for x in pair)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 2, width)
    bits = np.unpackbits(packed, axis=2, count=rs, bitorder="little")
    b = (bits[:, 0] - 2.0 * bits[:, 1]).reshape(-1, r, s)
    lam = symmetric_eigenvalues(b @ b.transpose(0, 2, 1))[:, -1]
    return np.sqrt(np.maximum(lam, 0.0))


def _classes(mask: int, r: int, s: int) -> tuple[int, list[int]]:
    """(k, basis) for the graph ``mask``: it carries 2^k switching classes,
    one per negative-slot mask inside its co-tree, and the nonzero span of
    ``basis`` is the set of its admissible ones.

    A graph whose rows are all absorbed (see ``_absorbed``) carries no
    admissible class, and its p components on its m edges and n'
    non-isolated vertices give k = m - n' + p, with no co-tree or parity
    system.  Only the graphs absorption leaves undecided pay for those.
    A full row or a full column is tested first, for it is cheap: it
    absorbs every row into one component.  The rows are tested, not a
    minimum's shape: the full-cube scan and the sampler pass arbitrary
    masks through here.
    """
    rows = _rows_of(mask, r, s)
    full = (1 << s) - 1
    common = full  # the columns every row holds
    for row in rows:
        if row == full:
            parts = 1
            break
        common &= row
    else:
        parts = 1 if common else _absorbed(rows)
        if parts is None:
            cotree = _cotree(rows, s)
            return cotree.bit_count(), _admissible_basis(rows, s, cotree)
    return mask.bit_count() - (r - rows.count(0)) - reduce(or_, rows).bit_count() + parts, []


def _inadmissible(mask: int, neg: int, r: int, s: int) -> str | None:
    """Why the class (mask, neg) is not admissible, or None when it is.

    An exact test on the bit rows that shares no code with ``_classes``,
    so the sampler can check what that routine hands it.  Each row a is a
    pair (columns, negative columns).  The 4-cycles through rows a < b are
    the pairs of their shared columns, and one is negative exactly when
    one of its columns is in odd = (neg_a ^ neg_b) & shared and the other
    is not: when odd is neither empty nor all of shared.  Balance is a
    switching propagated through the rows, a component at a time.  The
    first row of a component keeps its sign, so its negative columns are
    switched; every later row that meets the columns seen so far must
    read, on those columns, the switched pattern or its complement (then
    the row itself is switched), and its new columns take its own signs.
    A row that reads neither proves the class unbalanced.
    """
    if neg & ~mask:
        return "it has negative slots off its edges"
    full = (1 << s) - 1
    rows = [(mask >> a * s & full, neg >> a * s & full) for a in range(r)]
    rows = [row for row in rows if row[0]]
    for a, (cols_a, neg_a) in enumerate(rows):
        for cols_b, neg_b in rows[a + 1 :]:
            shared = cols_a & cols_b
            odd = (neg_a ^ neg_b) & shared
            if odd and odd != shared:
                return "it has a negative 4-cycle"
    while rows:
        seen, switched = rows.pop()
        grew = True
        while grew:
            grew = False
            apart = []
            for cols, sign in rows:
                met = cols & seen
                if not met:
                    apart.append((cols, sign))
                    continue
                flip = (sign ^ switched) & met
                if flip:
                    if flip != met:
                        return None
                    sign ^= cols
                switched |= sign & ~seen
                seen |= cols
                grew = True
            rows = apart
    return "it is balanced"


def _scan(
    r: int, s: int, masks: Iterable[tuple[int, int]]
) -> tuple[SearchStats, list[tuple[int, list[int], bool]]]:
    """Count the classes on every (mask, weight) of ``masks``, and list
    (mask, basis, skip_eig) for every graph with an admissible class, in
    scan order; the nonzero span of ``basis`` is the set of its admissible
    negative-slot masks (see ``_classes``).

    Each counter of a graph is multiplied by its weight, the number of
    labelled graphs it stands for.  Four sums are kept; the other counters
    are identities of them: every graph has exactly one balanced class, the
    empty mask, every other class is admissible or has a negative 4-cycle,
    and every admissible class is pruned or solved.

    ``skip_eig`` holds when the graph's m edges are fewer than beta, the
    larger root of f(x) = x^2 - c x + d, c = r s - r - s + 3 and
    d = (2r - 3)(2s - 3): then no class on it reaches the bound.  For
    integer m that is exactly m < c - 3 = r s - r - s, because beta lies
    in (c - 4, c - 3].  f(c - 3) = (r - 3)(s - 3) >= 0 and c - 3 >= c/2,
    the parabola's vertex, so c - 3 >= beta.  f(c - 4) = 13 - 2r - 2s < 0
    puts c - 4 between the roots, except at (3, 3), where
    c - 4 = 2 < c/2 = 3 <= beta.
    """
    floor = r * s - r - s
    graphs = classes = admissible = pruned = 0
    found_on = []
    for mask, weight in masks:
        graphs += weight
        k, basis = _classes(mask, r, s)
        classes += weight << k
        if not basis:
            continue
        found = weight * ((1 << len(basis)) - 1)
        admissible += found
        skip_eig = mask.bit_count() < floor
        if skip_eig:
            pruned += found
        found_on.append((mask, basis, skip_eig))
    return SearchStats(
        graphs=graphs,
        classes=classes,
        balanced_skipped=graphs,
        c4_skipped=classes - graphs - admissible,
        admissible=admissible,
        pruned=pruned,
        eigensolved=admissible - pruned,
    ), found_on


def enumerate_admissible(
    space: SearchSpace, visitor: Callable[[tuple[int, int]], None]
) -> SearchStats:
    """Visit every admissible (underlying graph, switching class) pair once,
    as its (edge mask, negative mask), in that order, over all 2^(r*s)
    labelled masks.

    A class is given by the representative that is all-positive on the
    search's spanning forest (see ``_cotree``), not by its
    ``forest_normalize`` form.  Balanced classes and classes with a
    negative 4-cycle are skipped and counted.  Runs in-process regardless
    of ``space.jobs`` because the visitor is an arbitrary callable.
    """
    r, s = space.r, space.s
    if r * s > CUBE_BUDGET_RS:
        raise BudgetExceededError(
            f"r*s = {r * s} exceeds the cube budget {CUBE_BUDGET_RS}"
        )
    stats, found_on = _scan(r, s, ((mask, 1) for mask in range(1 << (r * s))))
    for mask, basis, _ in found_on:
        for neg in sorted(_span(basis))[1:]:
            visitor((mask, neg))
    return stats


def _search_chunk(args) -> tuple[SearchStats, list[tuple[int, int]]]:
    """Worker: scan the orbit minima with first row 2^k - 1; returns the
    counters and the (mask, negative mask) of every class the prune
    keeps, in scan order."""
    space, k = args
    stats, found_on = _scan(space.r, space.s, _minimal_masks(space.r, space.s, k))
    return stats, [
        (mask, neg) for mask, basis, skip_eig in found_on if not skip_eig
        for neg in _span(basis)[1:]
    ]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exhaustive (r, s) search."""

    r: int
    s: int
    max_rho: float
    maximizers: tuple[SignedGraph, ...]  # one per switching-isomorphism class
    stats: SearchStats


@dataclass(frozen=True)
class Certificate:
    """Verdict for the fixed-sizes extremal claim at one (r, s)."""

    verdict: str
    r: int
    s: int
    claimed_bound: float
    observed_max: float
    unique: bool
    witnesses: tuple[str, ...]  # sg-format texts, one per maximizer class
    detail: str
    disconnected_tie: bool
    result: SearchResult

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "r": self.r,
            "s": self.s,
            "claimed_bound": self.claimed_bound,
            "observed_max": self.observed_max,
            "unique": self.unique,
            "witnesses": list(self.witnesses),
            "tolerance": BOUND_TOL,
            "detail": self.detail,
            "disconnected_tie": self.disconnected_tie,
            "stats": self.result.stats.to_dict(),
        }


# the counter columns are SearchStats's fields, in their order
CSV_HEADER = ",".join(
    ["schema", "r", "s"]
    + [f.name for f in fields(SearchStats)]
    + ["observed_max", "bound", "verdict", "unique"]
)


def certificate_csv_row(cert: Certificate) -> str:
    return ",".join(
        str(x)
        for x in (
            1,
            cert.r,
            cert.s,
            *cert.result.stats.to_dict().values(),
            repr(cert.observed_max),
            repr(cert.claimed_bound),
            cert.verdict,
            cert.unique,
        )
    )


def _group_into_classes(graphs: list[SignedGraph]) -> list[SignedGraph]:
    """Representatives of the switching-isomorphism classes, in input order."""
    reps: list[SignedGraph] = []
    for g in graphs:
        if not any(switching_isomorphic(g, rep) for rep in reps):
            reps.append(g)
    return reps


def _claim(work: list, counter) -> Iterable[tuple[int, tuple]]:
    """(index, result) of each task this process takes from the shared
    ``counter``, the index of the next unclaimed task, until none is left."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value += 1
        if i >= len(work):
            return
        yield i, _search_chunk(work[i])


def _worker(work: list, counter, conn) -> None:
    """A child of ``_fan_out``: sends its (index, result) pairs, or the
    exception that stopped it, in one message."""
    try:
        done = list(_claim(work, counter))
    except Exception as exc:
        done = exc
    conn.send(done)
    conn.close()


def _fan_out(work: list, workers: int) -> list:
    """``_search_chunk`` of every task, in task order, run by ``workers``
    processes: the calling one and ``workers - 1`` children.

    Each process claims the next task when it is free, so the heaviest
    first rows never queue behind each other in one worker.  A child's
    exception is re-raised here; a child that exits without reporting
    raises ``SgraphError``.  On any failure the children still running
    are terminated, and every child is joined before this returns.
    """
    import multiprocessing  # only a fan-out needs it; importing it at load slows every start-up

    counter = multiprocessing.Value("i", 0)
    children = []
    try:
        for _ in range(workers - 1):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_worker, args=(work, counter, send), daemon=True
            )
            child.start()
            send.close()  # so that the pipe reads EOF once the child is gone
            children.append((child, recv))
        done = dict(_claim(work, counter))
        for child, recv in children:
            try:
                part = recv.recv()
            except EOFError:
                child.join()
                raise SgraphError(
                    f"a search worker exited with code {child.exitcode} "
                    "before it reported its tasks"
                ) from None
            if isinstance(part, Exception):
                raise part
            done.update(part)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return [done[i] for i in range(len(work))]


def _search_all(spaces: Iterable[SearchSpace]) -> list[SearchResult]:
    """Exhaustive maximum-spectral-radius searches of every space of one
    command through one fan-out.

    The command is priced, and refused over budget, before any task
    starts (see ``_priced``).  The tasks of all spaces, space after space
    and k = 0..s within each, go to one ``_fan_out``, or run in the
    calling process when one worker is left.  Each space is then reduced
    from its own slice of the results, in task order.
    """
    spaces, price = _priced(spaces)
    work = [(space, k) for space in spaces for k in range(space.s + 1)]
    try:
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may use
    except AttributeError:  # a platform without affinity
        cpus = os.cpu_count() or 1
    # more processes than usable CPUs or tasks only add start-up cost, and
    # so does any fork for a search priced under MINIMA_PER_WORKER minima
    if price < MINIMA_PER_WORKER:
        workers = 1
    else:
        workers = min(max(space.jobs for space in spaces), cpus, len(work))
    if workers == 1:
        parts = [_search_chunk(w) for w in work]
    else:
        parts = _fan_out(work, workers)
    results = []
    parts = iter(parts)
    for space in spaces:
        r, s = space.r, space.s
        stats = SearchStats()
        kept: list[tuple[int, int]] = []
        for part_stats, part_kept in islice(parts, s + 1):
            stats = stats.merge(part_stats)
            kept.extend(part_kept)
        # the orbit weights must cover the cube exactly once
        if stats.graphs != 1 << (r * s):
            raise SgraphError(
                f"the ({r},{s}) orbit minima stand for {stats.graphs} labelled "
                f"graphs, not 2^{r * s}"
            )
        rhos = _spectral_radii(r, s, kept).tolist() if kept else []
        best = max(rhos, default=-math.inf)
        # representatives and their order come from core.forest_normalize alone
        normal = []
        for rho, (mask, neg) in zip(rhos, kept):
            if rho < best - BOUND_TOL:
                continue
            nf = forest_normalize(_signed_graph(r, s, mask, neg))
            bits = sum(1 << b for b, sign in enumerate(nf.cotree_signs) if sign < 0)
            normal.append((mask, bits, nf.graph))
        normal.sort(key=lambda c: c[:2])
        reps = _group_into_classes([g for _, _, g in normal])
        results.append(SearchResult(r, s, best, tuple(reps), stats))
    return results


def run_search(space: SearchSpace) -> SearchResult:
    """Exhaustive maximum-spectral-radius search over admissible classes."""
    return _search_all([space])[0]


def _certify(result: SearchResult) -> Certificate:
    """Certify one search against the fixed-sizes bound.

    CONFIRMED requires the observed maximum to match the closed-form bound
    within ``BOUND_TOL``, exactly one maximizer class within ``BOUND_TOL``
    of the observed maximum, and that class switching isomorphic to the
    extremal construction.
    """
    r, s = result.r, result.s
    construction, _ = extremal_graph(r, s)
    bound = bound_fixed_sizes(r, s)
    if not result.maximizers:
        verdict, detail = INCONCLUSIVE, "no admissible class found"
    elif abs(result.max_rho - bound) > BOUND_TOL:
        verdict = REFUTED
        detail = f"observed max {result.max_rho!r} vs bound {bound!r}"
    elif len(result.maximizers) != 1:
        verdict = REFUTED
        detail = f"{len(result.maximizers)} maximizer classes, expected 1"
    elif not switching_isomorphic(result.maximizers[0], construction):
        verdict = REFUTED
        detail = "maximizer class is not the extremal construction"
    else:
        verdict, detail = CONFIRMED, "unique maximizer matches the construction"
    disconnected_tie = any(component_count(g) > 1 for g in result.maximizers)
    return Certificate(
        verdict,
        r,
        s,
        bound,
        result.max_rho,
        len(result.maximizers) == 1,
        tuple(sgio.dumps(g) for g in result.maximizers),
        detail,
        disconnected_tie,
        result,
    )


def verify_fixed_sizes(
    r: int,
    s: int,
    *,
    jobs: int = 1,
    stretch: bool = False,
) -> Certificate:
    """Exhaustively check the fixed-sizes bound and maximizer uniqueness,
    as ``_certify`` says.  The price is held against the budget before
    any task starts or the construction is built."""
    return _certify(run_search(SearchSpace(r, s, jobs=jobs, stretch=stretch)))


@dataclass(frozen=True)
class OrderCertificate:
    """Verdict for the fixed-order extremal claim at one n."""

    verdict: str
    n: int
    claimed_bound: float
    observed_max: float
    winning_split: tuple[int, int]
    per_split: tuple[Certificate, ...]
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "n": self.n,
            "claimed_bound": self.claimed_bound,
            "observed_max": self.observed_max,
            "winning_split": list(self.winning_split),
            "per_split": [c.to_json_dict() for c in self.per_split],
            "tolerance": BOUND_TOL,
            "detail": self.detail,
        }


def verify_fixed_order(
    n: int,
    *,
    jobs: int = 1,
    stretch: bool = False,
) -> OrderCertificate:
    """Run the fixed-sizes search over every split (r, n-r), 3 <= r <= n//2,
    and certify that the global maximum matches the fixed-order bound and
    is attained only at the balanced split.

    The tasks of all splits fan out together over at most ``jobs``
    processes, the calling one included, and no more than the order's
    price pays for (see ``_search_all``); each split is then reduced and
    certified as ``verify_fixed_sizes`` would, so the certificate does not
    depend on ``jobs``.
    """
    if n < 6:
        raise BadParamsError(f"order verification needs n >= 6, got {n}")
    # the splits are priced as they are built, before any search, and one
    # surely over every budget is refused before the next is built: from
    # n = 27 on the first, (3, n - 3), so the splits built never grow with n
    spaces = (
        SearchSpace(r, n - r, jobs=jobs, stretch=stretch)
        for r in range(3, n // 2 + 1)
    )
    certs = [_certify(result) for result in _search_all(spaces)]
    best = max(certs, key=lambda c: c.observed_max)
    bound = bound_fixed_order(n)
    balanced = certs[-1]  # r = n//2 is the last split
    problems = []
    if abs(best.observed_max - bound) > BOUND_TOL:
        problems.append(f"global max {best.observed_max!r} vs bound {bound!r}")
    if (best.r, best.s) != (n // 2, n - n // 2):
        problems.append(f"maximum attained at split ({best.r},{best.s})")
    for cert in certs[:-1]:
        if cert.observed_max >= best.observed_max - BOUND_TOL:
            problems.append(f"split ({cert.r},{cert.s}) ties the maximum")
    if balanced.verdict != CONFIRMED:
        problems.append(f"balanced split verdict {balanced.verdict}")
    verdict = CONFIRMED if not problems else REFUTED
    detail = "; ".join(problems) if problems else (
        "maximum attained only at the balanced split, matching the bound"
    )
    return OrderCertificate(
        verdict,
        n,
        bound,
        best.observed_max,
        (best.r, best.s),
        tuple(certs),
        detail,
    )


@dataclass(frozen=True)
class SpotCheckReport:
    """Outcome of randomized bound checking on sampled admissible classes."""

    r: int
    s: int
    trials: int
    seed: int
    violations: int
    resampled: int
    max_observed: float
    bound: float

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def spot_check_random(
    r: int, s: int, trials: int, seed: int = 0
) -> SpotCheckReport:
    """Sample admissible classes uniformly over random underlying graphs
    and count as ``violations`` those whose radius exceeds the fixed-sizes
    bound by more than ``BOUND_TOL``; sizes may exceed the exhaustive
    budget.  It raises only when a sampled class is not admissible.

    Per trial an underlying graph is drawn edge-wise fair; the class, a
    negative-slot mask inside the co-tree, is drawn uniformly from the
    nonzero span of its ``_classes`` basis, the admissible classes the
    exhaustive scans count: a draw i in [1, 2^d) picks the XOR of the
    basis vectors at the set bits of i, the i-th vector ``_span`` lists.
    Graphs with no admissible class are resampled (counted); absorption
    decides nearly all of them with no co-tree or parity system (see
    ``_classes``).  Each class drawn is checked again on its bit rows by
    ``_inadmissible``, which shares no code with ``_classes``: the
    row-pair rule for negative 4-cycles and a switching propagated through
    the rows for balance, about 13 us a draw at (6,8) and (8,10) on
    2 vCPUs, with no ``SignedGraph`` built.  The check draws no random
    numbers, so it leaves the draws as they are.
    """
    check_sizes(r, s)
    if trials < 0:
        raise BadParamsError("trials must be nonnegative")
    rng = random.Random(seed)
    bound = bound_fixed_sizes(r, s)
    rs = r * s
    resampled = 0
    violations = 0
    max_observed = 0.0
    pending: list[tuple[int, int]] = []  # (mask, negative mask) per trial
    for done in range(1, trials + 1):
        while True:
            mask = rng.getrandbits(rs)
            _, basis = _classes(mask, r, s)
            if basis:
                break
            resampled += 1
        pick = rng.randrange(1, 1 << len(basis))
        neg = reduce(xor, (b for j, b in enumerate(basis) if pick >> j & 1))
        why = _inadmissible(mask, neg, r, s)
        if why:
            raise SgraphError(f"sampled class ({mask}, {neg}) is not admissible: {why}")
        pending.append((mask, neg))
        if len(pending) == SOLVE_BLOCK or done == trials:
            rhos = _spectral_radii(r, s, pending)
            violations += int(np.count_nonzero(rhos > bound + BOUND_TOL))
            max_observed = max(max_observed, float(rhos.max()))
            pending.clear()
    return SpotCheckReport(r, s, trials, seed, violations, resampled, max_observed, bound)
