"""Spectra of signed graphs and general symmetric matrices.

Adjacency matrices, full eigenvalue spectra with principal eigenvector,
spectral radius, the nonnegative-eigenvector switching, Rayleigh
quotients, equitable partitions and their quotient matrices, and the
edge-perturbation comparison used by the monotonicity property suite.

Every eigenvalue in the package comes from numpy's LAPACK-backed
``eigh``/``eigvalsh``, reached through ``symmetric_eigenvalues`` and
``eigen_spectrum`` here; a solver failure surfaces as
``ConvergenceFailureError``.  The principal eigenvector is signed so that
its largest-magnitude entry is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SignedGraph, switch
from .errors import (
    BadParamsError,
    ConvergenceFailureError,
    EdgeAbsentError,
    EdgePresentError,
    NotEquitableError,
    NotNegativeEdgeError,
    ZeroVectorError,
)

RESIDUAL_TOL = 1e-9  # residual bound, scaled by (1 + |lambda1|)
CONTAINMENT_TOL = 1e-7  # quotient-vs-full eigenvalue matching
# Largest order given a dense matrix: 2048^2 int64 entries are 32 MiB, and
# the float copies and workspace of the eigensolver take several times that.
MAX_DENSE_N = 2048


def as_symmetric_matrix(matrix) -> np.ndarray:
    """Validate and return a square, exactly symmetric 2-D array."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def adjacency_matrix(g: SignedGraph) -> np.ndarray:
    """The signed adjacency matrix: entries in {-1, 0, +1}, zero diagonal.

    Raises BadParamsError, before allocating, when n exceeds MAX_DENSE_N.
    """
    if g.n > MAX_DENSE_N:
        raise BadParamsError(
            f"n = {g.n} exceeds the dense-matrix limit {MAX_DENSE_N}"
        )
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v, s in g.edges:
        a[u, v] = s
        a[v, u] = s
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, plus the principal eigenvector.

    ``residual`` is the 2-norm of (A - lambda1*I) x for the unit vector x.
    ``m`` counts the nonzero entries above the diagonal, which are the
    edges when the matrix is a graph's.
    """

    n: int
    m: int
    eigenvalues: tuple[float, ...]
    principal_vector: tuple[float, ...]
    residual: float

    @property
    def lambda1(self) -> float:
        return self.eigenvalues[0] if self.n else 0.0

    @property
    def lambda_min(self) -> float:
        return self.eigenvalues[-1] if self.n else 0.0

    @property
    def rho(self) -> float:
        return max(self.lambda1, -self.lambda_min) if self.n else 0.0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "eigenvalues": list(self.eigenvalues),
            "lambda1": self.lambda1,
            "rho": self.rho,
            "residual": self.residual,
        }


def _solve(solver, a):
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigensolver failed: {exc}") from exc


def symmetric_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each in a stack, ascending."""
    return _solve(np.linalg.eigvalsh, a)


def eigen_spectrum(matrix) -> Spectrum:
    """Full spectrum of a symmetric matrix, descending, with principal vector."""
    a = as_symmetric_matrix(matrix)
    n = a.shape[0]
    m = int(np.count_nonzero(np.triu(a, 1)))
    if n == 0:
        return Spectrum(0, 0, (), (), 0.0)
    a = a.astype(float)
    values, vectors = _solve(np.linalg.eigh, a)
    lam1 = values[-1]
    vec = vectors[:, -1]
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec
    residual = float(np.linalg.norm(a @ vec - lam1 * vec))
    if not residual <= RESIDUAL_TOL * (1.0 + abs(lam1)):
        raise ConvergenceFailureError(
            f"principal eigenvector residual {residual:.3e} too large"
        )
    return Spectrum(n, m, tuple(values[::-1].tolist()), tuple(vec.tolist()), residual)


def graph_spectrum(g: SignedGraph) -> Spectrum:
    """Spectrum of the signed adjacency matrix of g."""
    spec = eigen_spectrum(adjacency_matrix(g))
    total = sum(v * v for v in spec.eigenvalues)
    if abs(total - 2 * g.m) > 1e-8 * max(1.0, 2.0 * g.m):
        raise ConvergenceFailureError(
            f"eigenvalue squares sum to {total!r}, expected {2 * g.m}"
        )
    return spec


def spectral_radius(g: SignedGraph) -> float:
    """Largest absolute eigenvalue; equals lambda1 for bipartite graphs."""
    return graph_spectrum(g).rho


def rayleigh_quotient(matrix, x: Sequence[float]) -> float:
    """x^T A x / x^T x; raises ZeroVectorError on the zero vector."""
    a = as_symmetric_matrix(matrix).astype(float)
    v = np.asarray(x, dtype=float)
    denom = float(v @ v)
    if denom == 0.0:
        raise ZeroVectorError("Rayleigh quotient of the zero vector")
    return float(v @ a @ v) / denom


def nonnegative_switching(
    g: SignedGraph,
) -> tuple[SignedGraph, frozenset[int], Spectrum]:
    """Switch g so that lambda1 has an entrywise nonnegative eigenvector.

    Switching on U = {v : x_v < 0} for a principal eigenvector x turns x
    into |x|, which is a principal eigenvector of the switched graph; the
    returned Spectrum carries that vector.  Switching is a similarity, so
    the switched graph has g's eigenvalues.  Zero entries stay out of U
    (any assignment would do).
    """
    spec = graph_spectrum(g)
    u_set = frozenset(v for v, xv in enumerate(spec.principal_vector) if xv < 0.0)
    h = switch(g, u_set)
    y = [abs(xv) for xv in spec.principal_vector]
    a = adjacency_matrix(h).astype(float)
    lam1 = spec.lambda1
    ay = a @ np.asarray(y)
    residual = float(np.linalg.norm(ay - lam1 * np.asarray(y))) if g.n else 0.0
    if residual > RESIDUAL_TOL * (1.0 + abs(lam1)):
        raise ConvergenceFailureError(
            f"switched eigenvector residual {residual:.3e} too large"
        )
    out = Spectrum(g.n, g.m, spec.eigenvalues, tuple(y), residual)
    return h, u_set, out


@dataclass(frozen=True)
class VertexPartition:
    """Ordered partition of 0..n-1 into nonempty disjoint blocks."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]]) -> "VertexPartition":
        cleaned = tuple(tuple(sorted(b)) for b in blocks)
        seen: set[int] = set()
        for b in cleaned:
            if not b:
                raise ValueError("empty block in partition")
            for v in b:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two blocks")
                seen.add(v)
        if seen != set(range(len(seen))):
            raise ValueError("blocks must cover 0..n-1 exactly")
        return cls(cleaned)

    @classmethod
    def singletons(cls, n: int) -> "VertexPartition":
        return cls(tuple((v,) for v in range(n)))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)


@dataclass(frozen=True)
class QuotientMatrix:
    """Average block row sums, with the equitability verdict."""

    matrix: tuple[tuple[float, ...], ...]
    equitable: bool
    block_sizes: tuple[int, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


def quotient_matrix(matrix, p: VertexPartition) -> QuotientMatrix:
    """Quotient of a symmetric matrix over a partition.

    Equitability (every row of every block-submatrix having the same row
    sum) is decided in exact integer arithmetic when the entries are
    integers, exact sums otherwise; nothing here depends on a tolerance.
    """
    a = as_symmetric_matrix(matrix)
    if p.n != a.shape[0]:
        raise ValueError(f"partition covers {p.n} vertices, matrix has {a.shape[0]}")
    integral = np.array_equal(a, np.rint(a))
    work = a.astype(np.int64) if integral else a.astype(float)
    t = len(p.blocks)
    entries = [[0.0] * t for _ in range(t)]
    equitable = True
    for i, bi in enumerate(p.blocks):
        for j, bj in enumerate(p.blocks):
            sums = [work[v, list(bj)].sum() for v in bi]
            if any(s != sums[0] for s in sums):
                equitable = False
            total = sum(int(s) if integral else float(s) for s in sums)
            entries[i][j] = total / len(bi)
    return QuotientMatrix(
        tuple(tuple(row) for row in entries), equitable, tuple(len(b) for b in p.blocks)
    )


def quotient_eigenvalues(q: QuotientMatrix) -> list[float]:
    """Eigenvalues of an equitable quotient, via the symmetrizing similarity.

    D^(1/2) Q D^(-1/2) with D = diag(block sizes) is symmetric because
    |X_i| q_ij = |X_j| q_ji for quotients of symmetric matrices.
    """
    if not q.equitable:
        raise NotEquitableError("partition is not equitable")
    d = np.sqrt(np.array(q.block_sizes, dtype=float))
    sym = q.as_array() * d[:, None] / d[None, :]
    # enforce exact symmetry on the float representation
    sym = 0.5 * (sym + sym.T)
    return symmetric_eigenvalues(sym)[::-1].tolist()


def quotient_spectrum_contained(matrix, p: VertexPartition) -> bool:
    """True iff the equitable quotient's spectrum embeds in the matrix's.

    Multiset containment by greedy matching of sorted values within
    CONTAINMENT_TOL.  Raises NotEquitableError when the partition is not
    equitable.
    """
    q_vals = sorted(quotient_eigenvalues(quotient_matrix(matrix, p)))
    full = symmetric_eigenvalues(as_symmetric_matrix(matrix)).tolist()
    i = 0
    for qv in q_vals:
        while i < len(full) and full[i] < qv - CONTAINMENT_TOL:
            i += 1
        if i == len(full) or abs(full[i] - qv) > CONTAINMENT_TOL:
            return False
        i += 1
    return True


PERTURB_OPS = ("add-positive-edge", "delete-negative-edge", "flip-negative-edge")


def perturb_check(g: SignedGraph, op: str, u: int, v: int) -> tuple[float, float]:
    """lambda1 before and after one edge perturbation.

    ``add-positive-edge`` requires uv absent; the other two require uv to
    be a negative edge.  The strict-increase property holds when some
    lambda1-eigenvector x has x_u * x_v >= 0 with not both zero; enforcing
    that hypothesis is the caller's (the property suite's) job.
    """
    if op not in PERTURB_OPS:
        raise ValueError(f"unknown perturbation {op!r}")
    if u > v:
        u, v = v, u
    sign = g.sign(u, v)
    if op == "add-positive-edge":
        if sign != 0:
            raise EdgePresentError(f"edge ({u},{v}) already present")
        edges = list(g.edges) + [(u, v, 1)]
    else:
        if sign == 0:
            raise EdgeAbsentError(f"edge ({u},{v}) not present")
        if sign != -1:
            raise NotNegativeEdgeError(f"edge ({u},{v}) is positive")
        if op == "delete-negative-edge":
            edges = [e for e in g.edges if (e[0], e[1]) != (u, v)]
        else:
            edges = [
                (a, b, -s) if (a, b) == (u, v) else (a, b, s) for a, b, s in g.edges
            ]
    h = SignedGraph.from_edge_list(g.n, edges)
    return graph_spectrum(g).lambda1, graph_spectrum(h).lambda1


def matrix_text(matrix) -> str:
    """Plain-text dump: n rows of n space-separated integer entries."""
    a = as_symmetric_matrix(matrix)
    if not np.array_equal(a, np.rint(a)):
        raise ValueError("matrix dump is defined for integer matrices")
    return "\n".join(" ".join(str(int(x)) for x in row) for row in a) + "\n"
