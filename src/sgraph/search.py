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
basis.  The randomized sampler draws from the same solution space.

The exhaustive search visits one mask per orbit of the row and column
permutations S_r x S_s, which are graph isomorphisms: the smallest.  Its
rows, read as s-bit integers, ascend from row r-1, the most significant,
so mask order is the lexicographic order of that row tuple.  The minima
are generated row by row (Read and McKay's orderly generation), keeping
a prefix only when no row and column permutation makes it smaller, and
each stands for its orbit of r!*s!/|Aut| labelled graphs.  A kept prefix
keeps the nodes of its placement tree and the rows left at each: only
rows packed in the cells of its own row order are tried, and each is
tested and placed at those nodes, never from the root (see
``_minimal_masks``).  The counters
are isomorphism invariants, so the weighted totals equal those of the
full 2^(r*s) cube.  Spectral radii are sqrt(lambda_max(B B^T)) for the
r x s signed biadjacency matrix B, solved by numpy in one stack per search.
A graph with m edges has rho^2 <= tr(B B^T) = m, so its classes skip the
eigensolve when m is below beta, the square of the closed-form bound: an
integer test on (r, s, m) that the search derives from (r, s) alone.

The exhaustive searches find the maximum spectral radius over admissible
classes, group every class within a tolerance window of the maximum by
switching isomorphism, and certify against the closed-form bounds.  The
representative reported for a class is its ``core.forest_normalize`` form,
so the search's own forest never shows in the output.  A class's masks
are closed under S_r x S_s, so its smallest mask is an orbit minimum, every
class on it is solved, and the first one of each class in (mask,
normal-form co-tree bits) order is the one a scan of the full cube would
report.  The unit of work is the first row of a minimum, 2^k - 1 for
k = 0..s: each of these s + 1 tasks generates and scans its own minima
and returns its counters and the classes the prune keeps.  The tasks of
every (r, s) one command searches, all the splits of an order included,
run in the calling process or fan out together over it and its children,
each process claiming the next task when it is free (see ``_fan_out``).
The parent concatenates each search's results in task order and solves
its kept classes in one stack; numpy's radius for a class does not
depend on the stack it is solved in, so the parallelism width never
changes the output.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
from dataclasses import dataclass, fields, replace
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from . import sgio
from .core import (
    SignedGraph,
    component_count,
    forest_normalize,
    has_negative_c4,
    is_balanced,
    switching_isomorphic,
)
from .errors import BadParamsError, BudgetExceededError, SgraphError
from .extremal import _coeffs, bound_fixed_order, bound_fixed_sizes, check_sizes, extremal_graph
from .spectral import symmetric_eigenvalues

DEFAULT_EXHAUSTIVE_RS = 25  # beyond this the stretch flag is required
HARD_BUDGET_RS = 36
CUBE_BUDGET_RS = 20  # enumerate_admissible walks all 2^(r*s) labelled masks
WINDOW = 1e-9  # maximizer retention window around the observed max
BOUND_TOL = 1e-8  # certificate tolerance against the closed-form bound
SOLVE_BLOCK = 256  # sampler draws per stacked eigensolve

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SearchSpace:
    """Enumeration parameters for one (r, s) class, refused when built if
    they are bad or exceed the budget."""

    r: int
    s: int
    jobs: int = 1
    stretch: bool = False

    def __post_init__(self):
        check_sizes(self.r, self.s)
        if self.jobs < 1:
            raise BadParamsError("jobs must be >= 1")
        rs = self.r * self.s
        if rs > HARD_BUDGET_RS:
            raise BudgetExceededError(
                f"r*s = {rs} exceeds the hard budget {HARD_BUDGET_RS}"
            )
        if rs > DEFAULT_EXHAUSTIVE_RS and not self.stretch:
            raise BudgetExceededError(
                f"r*s = {rs} needs the stretch flag (default budget "
                f"{DEFAULT_EXHAUSTIVE_RS})"
            )


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


@dataclass(frozen=True)
class AdmissibleClass:
    """One admissible (underlying graph, switching class) pair: its edges
    and its negative edges as masks over the r*s slots."""

    r: int
    s: int
    edge_mask: int
    negative_mask: int

    def signed_graph(self) -> SignedGraph:
        r, s, neg = self.r, self.s, self.negative_mask
        return SignedGraph(
            r + s,
            tuple(
                (i // s, r + i % s, -1 if neg >> i & 1 else 1)
                for i in _bit_list(self.edge_mask)
            ),
        )


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
    leaf whose cells are intervals; a row not packed in them has a smaller
    image there, so only packed rows are tried.  The tree of P + (t,) is
    P's, with t added to the rows left at every node, plus the placements
    of t.  So t is rejected if its image at a node is below the tuple's
    row there, and ``_place`` places it wherever the image ties and the
    rows left do not already hold t: t always goes last of its equal
    copies, and only the first row is placed from the root.
    """
    out = []
    scale = math.factorial(r) * math.factorial(s)
    root = [((1 << s) - 1, 0)]

    def extend(prefix, nodes, ident):
        packed = [0]
        for cols, lo in ident:
            ones = range(cols.bit_count() + 1)
            packed = [x | ((1 << c) - 1) << lo for x in packed for c in ones]
        for t in sorted(x for x in packed if x >= prefix[-1]):
            rows = prefix + (t,)
            ties = []
            for d, cells, left in nodes:
                img = _packed(t, cells)
                if img < rows[d]:
                    break
                if img == rows[d] and not left.get(t):
                    ties.append((d, cells, left))
            else:
                grown = None if len(rows) == r else [  # a full tuple needs no tree
                    (d, c, {**left, t: left.get(t, 0) + 1}) for d, c, left in nodes]
                subs = [_place(rows, d + 1, _refine(t, c), left, grown) for d, c, left in ties]
                if None in subs:
                    continue
                cells = _refine(t, ident)
                if grown is not None:
                    extend(rows, grown, cells)
                else:
                    perms = math.prod(math.factorial(rows.count(x)) for x in set(rows))
                    perms *= math.prod(math.factorial(c.bit_count()) for c, _ in cells)
                    mask = sum(row << (r - 1 - i) * s for i, row in enumerate(rows))
                    out.append((mask, scale // (sum(subs) * perms)))

    first = ((1 << k) - 1,)
    nodes = []
    _place(first, 0, root, {first[0]: 1}, nodes)
    extend(first, nodes, _refine(first[0], root))
    return out


def _cotree(mask: int, r: int, s: int) -> int:
    """Co-tree slot mask of the subset graph.

    The spanning forest keeps each slot, taken in ascending order, that
    joins two components; the co-tree is every other slot.  Rows are
    taken in turn, with the components met so far held as column masks.
    Left vertex a is new when row a comes, so of each component that the
    row meets the forest keeps the row's lowest column in it, and it keeps
    every column not seen before; those components then merge.
    """
    full = (1 << s) - 1
    groups: list[int] = []
    seen = cotree = 0
    for a in range(r):
        row = mask >> a * s & full
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


def _admissible_basis(mask: int, r: int, s: int, cotree: int) -> list[int]:
    """Basis, as negative-slot masks inside the co-tree, of the classes
    under which every 4-cycle of the underlying graph is positive.  Its
    nonzero span is the set of admissible classes (the empty mask is the
    balanced class).

    For left vertices a1 < a2 with common neighbours c0 < c1 < ..., the
    4-cycles through (c0, cj) span those through every pair (ci, cj), so
    only they become parity rows, each cut down to its co-tree slots.  The
    rows are made as the elimination asks for them.
    """
    rows = _rows_of(mask, r, s)

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


def _scan(
    space: SearchSpace,
    masks: Iterable[tuple[int, int]],
    on_graph: Callable,
) -> SearchStats:
    """Count the classes on every (mask, weight) of ``masks``.

    Each counter of a graph is multiplied by its weight, the number of
    labelled graphs it stands for.  ``graphs_skipped`` is left to the
    caller, which alone sees the whole cube.  ``on_graph(mask, basis,
    skip_eig)`` runs once per graph with an admissible class; the nonzero
    span of ``basis`` is the set of admissible negative-slot masks.
    ``skip_eig`` holds when the graph's m edges are fewer than beta, the
    larger root of x^2 - c x + d: then no class on it reaches the bound.
    """
    r, s = space.r, space.s
    c, d = _coeffs(r, s)
    graphs = classes = c4_skipped = admissible = pruned = eigensolved = 0
    for mask, weight in masks:
        cotree = _cotree(mask, r, s)
        graphs += weight
        k = cotree.bit_count()
        classes += weight << k
        if k == 0:
            continue
        basis = _admissible_basis(mask, r, s, cotree)
        found = (1 << len(basis)) - 1
        c4_skipped += weight * ((1 << k) - 1 - found)
        if not found:
            continue
        admissible += weight * found
        m = mask.bit_count()
        skip_eig = not (2 * m >= c and m * m - c * m + d >= 0)
        if skip_eig:
            pruned += weight * found
        else:
            eigensolved += weight * found
        on_graph(mask, basis, skip_eig)
    # every graph has exactly one balanced class, the empty mask
    return SearchStats(
        graphs=graphs,
        classes=classes,
        balanced_skipped=graphs,
        c4_skipped=c4_skipped,
        admissible=admissible,
        pruned=pruned,
        eigensolved=eigensolved,
    )


def enumerate_admissible(
    space: SearchSpace, visitor: Callable[[AdmissibleClass], None]
) -> SearchStats:
    """Visit every admissible (underlying graph, switching class) pair once,
    in (edge mask, negative mask) order, over all 2^(r*s) labelled masks.

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

    def on_graph(mask, basis, skip_eig):
        for neg in sorted(_span(basis))[1:]:
            visitor(AdmissibleClass(r, s, mask, neg))

    stats = _scan(space, ((mask, 1) for mask in range(1 << (r * s))), on_graph)
    return replace(stats, graphs_skipped=(1 << (r * s)) - stats.graphs)


def _search_chunk(args) -> tuple[SearchStats, list[tuple[int, int]]]:
    """Worker: scan the orbit minima with first row 2^k - 1; returns the
    counters and the (mask, negative mask) of every class the prune
    keeps, in scan order."""
    space, k = args
    kept: list[tuple[int, int]] = []

    def on_graph(mask, basis, skip_eig):
        if not skip_eig:
            kept.extend((mask, neg) for neg in _span(basis)[1:])

    stats = _scan(space, _minimal_masks(space.r, space.s, k), on_graph)
    return stats, kept


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


def _search_all(spaces: list[SearchSpace]) -> list[SearchResult]:
    """Exhaustive maximum-spectral-radius searches of every space through
    one fan-out.

    The tasks of all spaces, space after space and k = 0..s within each,
    go to one ``_fan_out``, or run in the calling process when one worker
    is left.  Each space is then reduced from its own slice of the
    results, in task order.
    """
    work = [(space, k) for space in spaces for k in range(space.s + 1)]
    try:
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may use
    except AttributeError:  # a platform without affinity
        cpus = os.cpu_count() or 1
    # more processes than usable CPUs or tasks only add start-up cost
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
        stats = replace(stats, graphs_skipped=(1 << (r * s)) - stats.graphs)
        rhos = _spectral_radii(r, s, kept).tolist() if kept else []
        best = max(rhos, default=-math.inf)
        # representatives and their order come from core.forest_normalize alone
        normal = []
        for rho, (mask, neg) in zip(rhos, kept):
            if rho < best - WINDOW:
                continue
            nf = forest_normalize(AdmissibleClass(r, s, mask, neg).signed_graph())
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
    within ``BOUND_TOL``, exactly one maximizer class in the retention
    window, and that class switching isomorphic to the extremal
    construction.
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
    as ``_certify`` says.  The budget is checked before the construction
    is built."""
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
    processes, the calling one included; each split is then reduced and
    certified as ``verify_fixed_sizes`` would, so the certificate does not
    depend on ``jobs``.
    """
    if n < 6:
        raise BadParamsError(f"order verification needs n >= 6, got {n}")
    # a split over budget is refused as it is built, before any search:
    # from n = 16 on the first, (3, n - 3), so the list never grows with n
    spaces = [
        SearchSpace(r, n - r, jobs=jobs, stretch=stretch)
        for r in range(3, n // 2 + 1)
    ]
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
    solution space of the all-4-cycles-positive parity system, excluding
    the balanced class.  Graphs whose solution space is trivial are
    resampled (counted).
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
            basis = _admissible_basis(mask, r, s, _cotree(mask, r, s))
            if basis:
                break
            resampled += 1
        coeff = rng.randrange(1, 1 << len(basis))
        neg = 0
        for i, b in enumerate(basis):
            if coeff >> i & 1:
                neg ^= b
        g = AdmissibleClass(r, s, mask, neg).signed_graph()
        if is_balanced(g) or has_negative_c4(g) is not None:
            raise SgraphError(f"sampled class ({mask}, {neg}) is not admissible")
        pending.append((mask, neg))
        if len(pending) == SOLVE_BLOCK or done == trials:
            rhos = _spectral_radii(r, s, pending)
            violations += int(np.count_nonzero(rhos > bound + BOUND_TOL))
            max_observed = max(max_observed, float(rhos.max()))
            pending.clear()
    return SpotCheckReport(
        r,
        s,
        trials,
        seed,
        violations,
        resampled,
        max_observed,
        bound,
    )
