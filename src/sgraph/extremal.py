"""The extremal construction and its closed-form spectral bounds.

For partite sizes (r, s) in the domain ``check_sizes`` enforces, the
extremal unbalanced, negative-C4-free signed bipartite graph is built
from an all-positive complete bipartite graph on (r-1, s-1) vertices by
deleting one edge uv and reconnecting u and v through a path of length
three whose central edge is the unique negative edge.  Its spectral
radius has a closed form, which is also the sharp upper bound over the
whole class; this module evaluates those formulas and verifies the
spectrum structure of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Bipartition, SignedGraph
from .errors import BadParamsError, SgraphError, StructureCheckError
from .spectral import (
    MAX_DENSE_N,
    VertexPartition,
    adjacency_matrix,
    graph_spectrum,
    quotient_matrix,
    quotient_spectrum_contained,
)

STRICT_MARGIN = 1e-12  # strictness margin for monotonicity / lower-bound checks
STRUCTURE_TOL = 1e-8  # spectrum against its closed form in verify_spectrum_structure


def check_sizes(r: int, s: int) -> None:
    """Raise BadParamsError for partite sizes outside the domain of the
    construction, its bounds and the searches."""
    if r < 3 or r > s:
        raise BadParamsError(f"need 3 <= r <= s, got r={r}, s={s}")


def _sqrt(x: int | float) -> float:
    """math.sqrt of a closed-form term.  Sizes whose terms leave float
    range, or lose the small root to cancellation, are bad parameters."""
    try:
        return math.sqrt(x)
    except (OverflowError, ValueError):
        raise BadParamsError("sizes too large for the closed form in floats") from None


def _coeffs(r: int, s: int) -> tuple[int, int]:
    """(c, d) of the nonzero-eigenvalue quartic x^4 - c x^2 + d."""
    check_sizes(r, s)
    return (r - 1) * (s - 1) + 2, (2 * r - 3) * (2 * s - 3)


def extremal_graph(r: int, s: int) -> tuple[SignedGraph, Bipartition]:
    """Build the extremal graph for sizes (r, s), with its bipartition.

    Fixed vertex layout (keeps fixtures byte-stable): 0..r-2 and
    r-1..r+s-3 are the two sides of the complete block, the deleted edge
    is (0, r-1), vertex r+s-2 neighbors 0, vertex r+s-1 neighbors r-1,
    and the edge between those two path vertices is the negative one.

    Every caller takes the dense spectrum of the result or writes a file
    that ``sgraph spectrum`` must read, so sizes with r + s above
    ``spectral.MAX_DENSE_N`` raise BadParamsError before anything is built.
    """
    check_sizes(r, s)
    if r + s > MAX_DENSE_N:
        raise BadParamsError(
            f"r + s = {r + s} exceeds the dense-matrix limit {MAX_DENSE_N}"
        )
    u, v = 0, r - 1
    v1, u1 = r + s - 2, r + s - 1
    edges: list[tuple[int, int, int]] = []
    for a in range(r - 1):
        for b in range(r - 1, r + s - 2):
            if (a, b) != (u, v):
                edges.append((a, b, 1))
    edges += [(u, v1, 1), (v1, u1, -1), (v, u1, 1)]
    g = SignedGraph.from_edge_list(r + s, edges)
    left = frozenset(range(r - 1)) | {u1}
    right = frozenset(range(r - 1, r + s - 2)) | {v1}
    return g, Bipartition(left, right)


def bound_fixed_sizes(r: int, s: int) -> float:
    """Sharp spectral-radius bound for unbalanced negative-C4-free signed
    bipartite graphs with partite sizes (r, s)."""
    return nonzero_eigenvalue_pair(r, s)[0]


def nonzero_eigenvalue_pair(r: int, s: int) -> tuple[float, float]:
    """The two positive eigenvalues of the construction (larger first)."""
    c, d = _coeffs(r, s)
    disc = c * c - 4 * d
    if disc < 0:  # a difference of real squares, so never negative
        raise SgraphError(f"quartic discriminant {disc} is negative")
    root = _sqrt(disc)
    return _sqrt((c + root) / 2.0), _sqrt((c - root) / 2.0)


def bound_fixed_order(n: int) -> float:
    """Sharp bound over all partite splits of an order-n graph (n >= 6).

    Closed forms differ by parity; both agree with the fixed-sizes bound
    at the balanced split (floor(n/2), ceil(n/2)), which is checked.
    """
    if n < 6:
        raise BadParamsError(f"order bound needs n >= 6, got {n}")
    if n % 2 == 0:
        value = (n - 6 + _sqrt((n - 2) * (n + 6))) / 4.0
    else:
        t = n * n - 4 * n + 11
        value = _sqrt((t + _sqrt(t * t - 64 * (n - 2) * (n - 4))) / 8.0)
    balanced_split = bound_fixed_sizes(n // 2, n - n // 2)
    if abs(value - balanced_split) > 1e-12 * max(1.0, value):
        raise SgraphError(
            f"order bound {value!r} differs from the balanced split's {balanced_split!r}"
        )
    return value


def quotient_char_poly(r: int, s: int) -> tuple[int, ...]:
    """Ascending coefficients of x^2 (x^4 - c x^2 + d), degree 6."""
    c, d = _coeffs(r, s)
    return (0, 0, d, 0, -c, 0, 1)


def six_block_partition(r: int, s: int) -> VertexPartition:
    """The equitable 6-block partition of the construction's vertices:
    path endpoint u1, deleted-edge endpoint u, rest of u's side, path
    endpoint v1, deleted-edge endpoint v, rest of v's side."""
    check_sizes(r, s)
    return VertexPartition.from_blocks(
        [
            (r + s - 1,),
            (0,),
            tuple(range(1, r - 1)),
            (r + s - 2,),
            (r - 1,),
            tuple(range(r, r + s - 2)),
        ]
    )


def expected_quotient(r: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The 6x6 quotient matrix of the construction over six_block_partition."""
    check_sizes(r, s)
    return (
        (0, 0, 0, -1, 1, 0),
        (0, 0, 0, 1, 0, s - 2),
        (0, 0, 0, 0, 1, s - 2),
        (-1, 1, 0, 0, 0, 0),
        (1, 0, r - 2, 0, 0, 0),
        (0, 1, r - 2, 0, 0, 0),
    )


def verify_spectrum_structure(r: int, s: int) -> dict:
    """Check the construction's spectrum against its closed form.

    Verifies, in order: the sorted spectrum equals
    {+big, +small, 0 x (n-4), -small, -big} within STRUCTURE_TOL; the sum
    of squared eigenvalues equals twice the edge count within it; the 6-block
    partition is equitable in exact arithmetic; and the quotient spectrum
    is contained in the full spectrum.  Raises StructureCheckError naming
    the first violated clause; returns a report dict on success.
    """
    g, _ = extremal_graph(r, s)
    spec = graph_spectrum(g)
    big, small = nonzero_eigenvalue_pair(r, s)
    n = g.n
    expected = [big, small] + [0.0] * (n - 4) + [-small, -big]
    expected.sort(reverse=True)
    got = sorted(spec.eigenvalues, reverse=True)
    for e, v in zip(expected, got):
        if abs(e - v) > STRUCTURE_TOL:
            raise StructureCheckError(
                "nonzero_eigenvalues", f"expected {e:.12f}, got {v:.12f} at ({r},{s})"
            )
    total = sum(v * v for v in spec.eigenvalues)
    if abs(total - 2 * g.m) > STRUCTURE_TOL:
        raise StructureCheckError(
            "sum_of_squares", f"sum of squares {total} vs 2m={2 * g.m}"
        )
    part = six_block_partition(r, s)
    a = adjacency_matrix(g)
    q = quotient_matrix(a, part)
    if not q.equitable:
        raise StructureCheckError("equitable", f"6-block partition at ({r},{s})")
    if not quotient_spectrum_contained(a, part):
        raise StructureCheckError("quotient_contained", f"at ({r},{s})")
    return {
        "r": r,
        "s": s,
        "n": n,
        "m": g.m,
        "eigenvalues": got,
        "nonzero_pair": (big, small),
        "zero_multiplicity": n - 4,
        "equitable": True,
        "quotient_contained": True,
    }


def monotone_in_r(n: int, r_lo: int, r_hi: int) -> bool:
    """True iff the fixed-sizes bound strictly increases in r over
    [r_lo, r_hi] for splits (r, n-r), with margin STRICT_MARGIN."""
    if not (3 <= r_lo <= r_hi <= n // 2):
        raise BadParamsError(f"need 3 <= r_lo <= r_hi <= n//2, got {r_lo}..{r_hi}, n={n}")
    values = [bound_fixed_sizes(r, n - r) for r in range(r_lo, r_hi + 1)]
    return all(b - a > STRICT_MARGIN for a, b in zip(values, values[1:]))


def lower_bound_check(r: int, s: int) -> bool:
    """True iff the fixed-sizes bound strictly exceeds sqrt((r-1)(s-2)).

    Defined for s >= 4 (at (3,3) the comparison collapses; the sharp value
    there comes from the direct evaluation instead)."""
    check_sizes(r, s)
    if s < 4:
        raise BadParamsError(f"lower-bound comparison needs s >= 4, got s={s}")
    return bound_fixed_sizes(r, s) - math.sqrt((r - 1) * (s - 2)) > STRICT_MARGIN


@dataclass(frozen=True)
class BoundReport:
    """A bound evaluation next to the construction's actual radius."""

    branch: str  # "rs-form" | "even-n" | "odd-n"
    params: dict
    bound: float
    rho: float
    gap: float

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def bound_report_sizes(r: int, s: int) -> BoundReport:
    bound = bound_fixed_sizes(r, s)
    g, _ = extremal_graph(r, s)
    rho = graph_spectrum(g).rho
    return BoundReport("rs-form", {"r": r, "s": s}, bound, rho, bound - rho)


def bound_report_order(n: int) -> BoundReport:
    bound = bound_fixed_order(n)
    g, _ = extremal_graph(n // 2, n - n // 2)
    rho = graph_spectrum(g).rho
    branch = "even-n" if n % 2 == 0 else "odd-n"
    return BoundReport(branch, {"n": n}, bound, rho, bound - rho)
