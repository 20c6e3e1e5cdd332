"""Eigenvalue machinery against the exact characteristic-polynomial oracle,
plus quotient matrices, Rayleigh quotients, and edge perturbations."""

import dataclasses
import math
import random

import numpy as np
import pytest

from sgraph import (
    SignedGraph,
    spectral,
    adjacency_matrix,
    eigen_spectrum,
    graph_spectrum,
    negate,
    nonnegative_switching,
    perturb_check,
    quotient_matrix,
    quotient_spectrum_contained,
    rayleigh_quotient,
    spectral_radius,
    switch,
    switching_equivalent,
    VertexPartition,
)
from sgraph.errors import (
    ConvergenceFailureError,
    EdgeAbsentError,
    EdgePresentError,
    NotEquitableError,
    NotNegativeEdgeError,
    ZeroVectorError,
)
from sgraph.extremal import expected_quotient, extremal_graph, six_block_partition
from sgraph.spectral import matrix_text

from charpoly_oracle import eigenvalues_exact
from helpers import multiset_close, random_signed_graph
from test_core import neg_c6


class TestAdjacencyMatrix:
    def test_single_negative_edge(self):
        g = SignedGraph.from_edge_list(2, [(0, 1, -1)])
        assert adjacency_matrix(g).tolist() == [[0, -1], [-1, 0]]

    def test_empty_graph(self):
        g = SignedGraph.from_edge_list(3, [])
        assert adjacency_matrix(g).tolist() == [[0] * 3] * 3

    def test_negative_c6(self):
        a = adjacency_matrix(neg_c6())
        assert a[0, 1] == a[1, 0] == -1
        assert a[1, 2] == 1 and a[0, 5] == 1
        assert np.count_nonzero(a) == 12 and np.all(np.diag(a) == 0)


class TestEigenSpectrum:
    def test_single_edge(self):
        spec = eigen_spectrum([[0, -1], [-1, 0]])
        assert multiset_close(spec.eigenvalues, [1.0, -1.0], 1e-12)

    def test_negative_c6_closed_form(self):
        spec = graph_spectrum(neg_c6())
        r3 = math.sqrt(3)
        assert multiset_close(spec.eigenvalues, [r3, r3, 0, 0, -r3, -r3], 1e-9)
        assert abs(sum(v * v for v in spec.eigenvalues) - 12) < 1e-9

    def test_extremal_3_3_radius(self):
        g, _ = extremal_graph(3, 3)
        assert abs(graph_spectrum(g).rho - math.sqrt(3)) < 1e-9

    def test_descending_order_and_count(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_signed_graph(rng, rng.randint(1, 10))
            spec = graph_spectrum(g)
            assert len(spec.eigenvalues) == g.n
            assert all(
                a >= b for a, b in zip(spec.eigenvalues, spec.eigenvalues[1:])
            )

    def test_residual_bound(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_signed_graph(rng, rng.randint(1, 10))
            spec = graph_spectrum(g)
            assert spec.residual <= 1e-9 * (1 + abs(spec.lambda1))

    def test_matches_exact_char_poly_oracle(self):
        rng = random.Random(101)
        for _ in range(150):
            g = random_signed_graph(rng, rng.randint(1, 6), p=0.6)
            got = sorted(graph_spectrum(g).eigenvalues)
            want = eigenvalues_exact(adjacency_matrix(g).tolist())
            assert multiset_close(got, want, 1e-9)

    def test_larger_orders_against_numpy(self):
        # the exact oracle is n <= 6; sanity-check bigger orders differently
        rng = random.Random(505)
        for n in (16, 32, 64):
            g = random_signed_graph(rng, n, p=0.3)
            got = sorted(graph_spectrum(g).eigenvalues)
            want = sorted(np.linalg.eigvalsh(adjacency_matrix(g).astype(float)))
            assert multiset_close(got, want, 1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eigen_spectrum([[0, 1], [0, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eigen_spectrum(np.zeros((2, 3)))

    def test_json_fields(self):
        spec = graph_spectrum(neg_c6())
        doc = spec.to_json_dict()
        assert set(doc) == {"n", "m", "eigenvalues", "lambda1", "rho", "residual"}
        assert doc["n"] == 6 and doc["m"] == 6


class TestSolverContract:
    def test_principal_vector_sign(self):
        rng = random.Random(17)
        for _ in range(40):
            x = graph_spectrum(random_signed_graph(rng, rng.randint(1, 9))).principal_vector
            assert max(x, key=abs) > 0  # first entry of largest magnitude

    def test_solver_failure_is_convergence_failure(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("synthetic")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailureError):
            graph_spectrum(neg_c6())
        with pytest.raises(ConvergenceFailureError):
            quotient_spectrum_contained(adjacency_matrix(neg_c6()), VertexPartition.singletons(6))

    def test_residual_guard(self, monkeypatch):
        # every eigenvalue off by one: the principal pair no longer fits
        eigh = np.linalg.eigh

        def shifted(a):
            values, vectors = eigh(a)
            return values + 1.0, vectors

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ConvergenceFailureError, match="residual"):
            graph_spectrum(neg_c6())

    def test_square_sum_guard(self, monkeypatch):
        # eigenvalues doubled: their squares sum to four times 2m
        exact = spectral.eigen_spectrum

        def doubled(a):
            spec = exact(a)
            return dataclasses.replace(spec, eigenvalues=tuple(2 * v for v in spec.eigenvalues))

        monkeypatch.setattr(spectral, "eigen_spectrum", doubled)
        with pytest.raises(ConvergenceFailureError, match="squares sum"):
            graph_spectrum(neg_c6())


class TestSpectralRadius:
    def test_all_positive_path(self):
        g = SignedGraph.from_edge_list(3, [(0, 1, 1), (1, 2, 1)])
        assert abs(spectral_radius(g) - math.sqrt(2)) < 1e-12

    def test_bipartite_radius_is_lambda1(self):
        rng = random.Random(3)
        for _ in range(30):
            r = rng.randint(1, 4)
            s = rng.randint(1, 4)
            edges = [
                (u, r + v, rng.choice((1, -1)))
                for u in range(r)
                for v in range(s)
                if rng.random() < 0.6
            ]
            g = SignedGraph.from_edge_list(r + s, edges)
            spec = graph_spectrum(g)
            assert abs(spec.rho - spec.lambda1) < 1e-9

    def test_extremal_3_4(self):
        g, _ = extremal_graph(3, 4)
        assert abs(spectral_radius(g) - math.sqrt(5)) < 1e-9


class TestNonnegativeSwitching:
    def test_all_positive_connected_identity(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        h, u_set, spec = nonnegative_switching(g)
        assert h == g and u_set == frozenset()
        assert min(spec.principal_vector) >= -1e-9

    def test_negated_positive_c6(self):
        g = negate(SignedGraph.from_edge_list(6, [(i, (i + 1) % 6, 1) for i in range(6)]))
        h, _, spec = nonnegative_switching(g)
        assert switching_equivalent(h, g)
        assert min(spec.principal_vector) >= -1e-9
        assert abs(spec.lambda1 - 2.0) < 1e-9  # positive 6-cycle index

    def test_extremal_3_4(self):
        g, _ = extremal_graph(3, 4)
        h, _, spec = nonnegative_switching(g)
        assert switching_equivalent(h, g)
        assert min(spec.principal_vector) >= -1e-9
        assert abs(spec.lambda1 - math.sqrt(5)) < 1e-9

    def test_residual_guard(self, monkeypatch):
        # a switching that also negates: |x| then belongs to -lambda1
        monkeypatch.setattr(spectral, "switch", lambda g, u_set: negate(switch(g, u_set)))
        with pytest.raises(ConvergenceFailureError, match="switched"):
            nonnegative_switching(neg_c6())

    def test_random_graphs(self):
        rng = random.Random(59)
        for _ in range(60):
            g = random_signed_graph(rng, rng.randint(1, 9))
            h, u_set, spec = nonnegative_switching(g)
            assert switch(g, u_set) == h
            assert min(spec.principal_vector) >= -1e-9
            assert spec.residual <= 1e-9 * (1 + abs(spec.lambda1))


class TestQuotient:
    def test_singleton_partition_is_matrix(self):
        g = neg_c6()
        a = adjacency_matrix(g)
        q = quotient_matrix(a, VertexPartition.singletons(6))
        assert q.equitable
        assert np.array_equal(q.as_array(), a.astype(float))
        assert quotient_spectrum_contained(a, VertexPartition.singletons(6))

    def test_construction_quotient_matches_closed_form(self):
        for r, s in [(3, 3), (3, 5), (4, 4), (5, 6)]:
            g, _ = extremal_graph(r, s)
            q = quotient_matrix(adjacency_matrix(g), six_block_partition(r, s))
            assert q.equitable
            assert q.matrix == tuple(
                tuple(float(x) for x in row) for row in expected_quotient(r, s)
            )

    def test_mixed_block_not_equitable(self):
        g, _ = extremal_graph(4, 5)
        # merge the path endpoint into the rest of u's side: row sums differ
        p = VertexPartition.from_blocks(
            [(8,), (0,), (1, 2, 7), (3,), tuple(range(4, 7))]
        )
        q = quotient_matrix(adjacency_matrix(g), p)
        assert not q.equitable
        with pytest.raises(NotEquitableError):
            quotient_spectrum_contained(adjacency_matrix(g), p)

    def test_quotient_eigenvalues_contained_3_3(self):
        g, _ = extremal_graph(3, 3)
        assert quotient_spectrum_contained(
            adjacency_matrix(g), six_block_partition(3, 3)
        )

    def test_repeated_quotient_eigenvalue_needs_as_many_matches(self, monkeypatch):
        """Containment is of multisets: [[0, 1], [1, 0]] has the eigenvalue
        1 once, so a quotient listing it twice is not contained."""
        a, p = [[0, 1], [1, 0]], VertexPartition.singletons(2)
        monkeypatch.setattr(spectral, "quotient_eigenvalues", lambda q: [1.0, 1.0])
        assert not quotient_spectrum_contained(a, p)
        monkeypatch.setattr(spectral, "quotient_eigenvalues", lambda q: [1.0])
        assert quotient_spectrum_contained(a, p)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            VertexPartition.from_blocks([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            VertexPartition.from_blocks([(0,), ()])
        with pytest.raises(ValueError):
            VertexPartition.from_blocks([(0,), (2,)])

    def test_partition_must_cover_the_matrix(self):
        with pytest.raises(ValueError, match="covers 5 vertices"):
            quotient_matrix(adjacency_matrix(neg_c6()), VertexPartition.singletons(5))


class TestRayleigh:
    def test_principal_vector_gives_lambda1(self):
        g, _ = extremal_graph(3, 4)
        spec = graph_spectrum(g)
        a = adjacency_matrix(g)
        assert abs(rayleigh_quotient(a, spec.principal_vector) - spec.lambda1) < 1e-9

    def test_all_ones_on_negative_c6(self):
        val = rayleigh_quotient(adjacency_matrix(neg_c6()), [1.0] * 6)
        assert abs(val - 4.0 / 3.0) < 1e-12
        assert val <= math.sqrt(3) + 1e-9

    def test_basis_vector_gives_zero(self):
        a = adjacency_matrix(neg_c6())
        assert rayleigh_quotient(a, [1, 0, 0, 0, 0, 0]) == 0.0

    def test_never_exceeds_lambda1(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_signed_graph(rng, rng.randint(2, 9))
            a = adjacency_matrix(g)
            lam1 = graph_spectrum(g).lambda1
            x = [rng.uniform(-1, 1) for _ in range(g.n)]
            if all(abs(v) < 1e-12 for v in x):
                continue
            assert rayleigh_quotient(a, x) <= lam1 + 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            rayleigh_quotient(adjacency_matrix(neg_c6()), [0.0] * 6)


class TestPerturbCheck:
    def test_add_edge_to_path_closes_triangle(self):
        g = SignedGraph.from_edge_list(3, [(0, 1, 1), (1, 2, 1)])
        before, after = perturb_check(g, "add-positive-edge", 0, 2)
        assert abs(before - math.sqrt(2)) < 1e-9
        assert abs(after - 2.0) < 1e-9

    def test_flip_negative_edge_of_c6(self):
        before, after = perturb_check(neg_c6(), "flip-negative-edge", 0, 1)
        assert abs(before - math.sqrt(3)) < 1e-9
        assert abs(after - 2.0) < 1e-9

    def test_delete_central_negative_edge_increases(self):
        g, _ = extremal_graph(3, 4)
        h, u_set, spec = nonnegative_switching(g)
        # the central edge is the unique negative one; find it post-switch
        neg = [(u, v) for u, v, s in h.edges if s == -1]
        assert len(neg) == 1
        u, v = neg[0]
        assert spec.principal_vector[u] * spec.principal_vector[v] >= 0
        before, after = perturb_check(h, "delete-negative-edge", u, v)
        assert after > before

    def test_preconditions(self):
        g = neg_c6()
        with pytest.raises(EdgePresentError):
            perturb_check(g, "add-positive-edge", 0, 1)
        with pytest.raises(EdgeAbsentError):
            perturb_check(g, "delete-negative-edge", 0, 2)
        with pytest.raises(NotNegativeEdgeError):
            perturb_check(g, "flip-negative-edge", 1, 2)
        with pytest.raises(ValueError):
            perturb_check(g, "sharpen-edge", 0, 1)

    def test_ends_in_either_order(self):
        g = neg_c6()
        assert perturb_check(g, "flip-negative-edge", 1, 0) == perturb_check(
            g, "flip-negative-edge", 0, 1
        )


class TestMatrixText:
    def test_dump_is_integers(self):
        text = matrix_text(adjacency_matrix(neg_c6()))
        lines = text.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].split() == ["0", "-1", "0", "0", "0", "1"]

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            matrix_text([[0, 0.5], [0.5, 0]])
