"""The extremal construction, closed-form bounds, and structure checks."""

import math

import pytest

from sgraph import (
    SignedGraph,
    VertexPartition,
    adjacency_matrix,
    bipartition,
    eigen_spectrum,
    extremal,
    bound_fixed_order,
    bound_fixed_sizes,
    graph_spectrum,
    has_negative_c4,
    is_balanced,
    monotone_in_r,
    lower_bound_check,
    quotient_char_poly,
    shortest_negative_cycle,
    spectral_radius,
    verify_spectrum_structure,
)
from sgraph.errors import BadParamsError, StructureCheckError
from sgraph.extremal import (
    bound_report_order,
    bound_report_sizes,
    check_sizes,
    extremal_graph,
    nonzero_eigenvalue_pair,
)

from helpers import multiset_close


class TestConstruction:
    def test_3_3_is_negative_c6(self):
        g, bp = extremal_graph(3, 3)
        assert g.n == 6 and g.m == 6
        assert all(g.degree(v) == 2 for v in range(6))
        assert sum(1 for *_, s in g.edges if s == -1) == 1
        assert (bp.r, bp.s) == (3, 3)

    def test_3_4_edge_count(self):
        g, _ = extremal_graph(3, 4)
        assert g.n == 7 and g.m == 2 * 3 + 2 == 8

    def test_4_5_admissibility(self):
        g, bp = extremal_graph(4, 5)
        assert g.n == 9 and g.m == 3 * 4 + 2 == 14
        assert not is_balanced(g)
        assert has_negative_c4(g) is None
        assert (bp.r, bp.s) == (4, 5)

    def test_sides_match_bipartition_op(self):
        for r, s in [(3, 3), (3, 6), (4, 4), (5, 7)]:
            g, bp = extremal_graph(r, s)
            found = bipartition(g)
            assert {found.left, found.right} == {bp.left, bp.right}

    def test_shortest_negative_cycle_is_six(self):
        for r, s in [(3, 3), (3, 4), (4, 4), (5, 6)]:
            g, _ = extremal_graph(r, s)
            w = shortest_negative_cycle(g)
            assert w is not None and w.length == 6

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            extremal_graph(2, 5)
        with pytest.raises(BadParamsError):
            extremal_graph(4, 3)
        with pytest.raises(BadParamsError):
            check_sizes(3, 2)

    def test_dense_limit(self):
        # r + s = 2049 is one vertex past spectral.MAX_DENSE_N: refused
        # before any edge is built; 2048 still builds
        with pytest.raises(BadParamsError, match="dense-matrix limit"):
            extremal_graph(3, 2046)
        g, _ = extremal_graph(3, 2045)
        assert g.n == 2048 and g.m == 2 * 2044 - 1 + 3


class TestBoundFixedSizes:
    def test_known_values(self):
        assert abs(bound_fixed_sizes(3, 3) - math.sqrt(3)) < 1e-15
        assert abs(bound_fixed_sizes(3, 4) - math.sqrt(5)) < 1e-15
        assert abs(bound_fixed_sizes(3, 5) - math.sqrt(7)) < 1e-15
        assert abs(bound_fixed_sizes(3, 6) - 3.0) < 1e-15
        assert abs(bound_fixed_sizes(4, 4) - math.sqrt((11 + math.sqrt(21)) / 2)) < 1e-15
        assert abs(bound_fixed_sizes(4, 5) - 3.2774468) < 5e-8
        assert abs(bound_fixed_sizes(4, 5) - math.sqrt(7 + math.sqrt(14))) < 1e-15

    def test_matches_construction_radius_sweep(self):
        for r in range(3, 9):
            for s in range(r, 9):
                g, _ = extremal_graph(r, s)
                assert abs(spectral_radius(g) - bound_fixed_sizes(r, s)) <= 1e-8

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            bound_fixed_sizes(2, 6)

    @pytest.mark.parametrize(
        "r,s", [(3, 10**200), (10**8, 10**16)], ids=["overflow", "cancellation"]
    )
    def test_beyond_float_range(self, r, s):
        # (3, 10^200): c^2 - 4d overflows a float; (10^8, 10^16): the small
        # root cancels below zero
        with pytest.raises(BadParamsError):
            nonzero_eigenvalue_pair(r, s)


class TestBoundFixedOrder:
    def test_known_values(self):
        assert abs(bound_fixed_order(6) - math.sqrt(3)) < 1e-15
        assert abs(bound_fixed_order(7) - math.sqrt(5)) < 1e-15
        assert abs(bound_fixed_order(8) - (2 + math.sqrt(84)) / 4) < 1e-15

    def test_consistency_with_balanced_split(self):
        for n in range(6, 17):
            assert (
                abs(bound_fixed_order(n) - bound_fixed_sizes(n // 2, n - n // 2))
                <= 1e-12
            )

    @pytest.mark.parametrize("n", [10**7, 10**7 + 1, 10**8])
    def test_large_n_agrees_with_balanced_split(self, n):
        # from n = 10^7 the bound is about 5e6, and the two closed forms
        # differ by ulps of that, far more than an absolute 1e-12
        value = bound_fixed_order(n)
        assert math.isclose(value, bound_fixed_sizes(n // 2, n - n // 2), rel_tol=1e-12)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            bound_fixed_order(5)

    @pytest.mark.parametrize("n", [10**400, 10**400 + 1], ids=["even", "odd"])
    def test_beyond_float_range(self, n):
        with pytest.raises(BadParamsError):
            bound_fixed_order(n)


class TestCharPoly:
    def test_coefficients(self):
        # x^2 (x^4 - c x^2 + d), ascending
        assert quotient_char_poly(3, 3) == (0, 0, 9, 0, -6, 0, 1)
        assert quotient_char_poly(3, 4) == (0, 0, 15, 0, -8, 0, 1)
        assert quotient_char_poly(4, 5) == (0, 0, 35, 0, -14, 0, 1)

    def test_nonzero_roots_match_spectrum(self):
        for r, s in [(3, 3), (3, 4), (4, 5), (5, 5)]:
            big, small = nonzero_eigenvalue_pair(r, s)
            g, _ = extremal_graph(r, s)
            spec = graph_spectrum(g)
            nonzero = [v for v in spec.eigenvalues if abs(v) > 1e-8]
            assert multiset_close(nonzero, [big, small, -small, -big], 1e-8)

    def test_3_4_roots_are_sqrt5_sqrt3(self):
        big, small = nonzero_eigenvalue_pair(3, 4)
        assert abs(big - math.sqrt(5)) < 1e-12
        assert abs(small - math.sqrt(3)) < 1e-12


class TestSpectrumStructure:
    def test_3_3(self):
        report = verify_spectrum_structure(3, 3)
        assert report["zero_multiplicity"] == 2
        r3 = math.sqrt(3)
        assert multiset_close(report["eigenvalues"], [r3, r3, 0, 0, -r3, -r3], 1e-8)

    def test_3_4(self):
        report = verify_spectrum_structure(3, 4)
        assert multiset_close(
            report["eigenvalues"],
            [math.sqrt(5), math.sqrt(3), 0, 0, 0, -math.sqrt(3), -math.sqrt(5)],
            1e-8,
        )

    def test_5_5_zero_multiplicity(self):
        report = verify_spectrum_structure(5, 5)
        assert report["zero_multiplicity"] == 6
        zeros = [v for v in report["eigenvalues"] if abs(v) <= 1e-8]
        assert len(zeros) == 6

    def test_full_sweep(self):
        for r in range(3, 9):
            for s in range(r, 9):
                verify_spectrum_structure(r, s)

    def test_nonzero_eigenvalues_clause(self, monkeypatch):
        pair = nonzero_eigenvalue_pair
        monkeypatch.setattr(
            extremal, "nonzero_eigenvalue_pair", lambda r, s: (pair(r, s)[0] + 1, pair(r, s)[1])
        )
        with pytest.raises(StructureCheckError) as exc:
            verify_spectrum_structure(3, 4)
        assert exc.value.clause == "nonzero_eigenvalues"

    def test_sum_of_squares_clause(self, monkeypatch):
        # one edge listed twice: the matrix, hence the spectrum, is the
        # construction's but the edge count is one more; graph_spectrum's
        # own square-sum guard is bypassed so that this clause is reached
        def doubled_edge(r, s):
            g, sides = extremal_graph(r, s)
            return SignedGraph(g.n, g.edges + g.edges[:1]), sides

        monkeypatch.setattr(extremal, "extremal_graph", doubled_edge)
        monkeypatch.setattr(extremal, "graph_spectrum", lambda g: eigen_spectrum(adjacency_matrix(g)))
        with pytest.raises(StructureCheckError) as exc:
            verify_spectrum_structure(3, 4)
        assert exc.value.clause == "sum_of_squares"

    def test_equitable_clause(self, monkeypatch):
        # one block: equitable only if every signed row sum were equal
        monkeypatch.setattr(
            extremal, "six_block_partition", lambda r, s: VertexPartition.from_blocks([range(r + s)])
        )
        with pytest.raises(StructureCheckError) as exc:
            verify_spectrum_structure(3, 4)
        assert exc.value.clause == "equitable"

    def test_quotient_contained_clause(self, monkeypatch):
        monkeypatch.setattr(extremal, "quotient_spectrum_contained", lambda a, p: False)
        with pytest.raises(StructureCheckError) as exc:
            verify_spectrum_structure(3, 4)
        assert exc.value.clause == "quotient_contained"


class TestMonotonicity:
    def test_n9(self):
        assert bound_fixed_sizes(3, 6) < bound_fixed_sizes(4, 5)
        assert monotone_in_r(9, 3, 4)

    def test_n8(self):
        assert bound_fixed_sizes(3, 5) < bound_fixed_sizes(4, 4)
        assert monotone_in_r(8, 3, 4)

    def test_n7_single_point(self):
        assert monotone_in_r(7, 3, 3)

    def test_sweep_up_to_16(self):
        for n in range(7, 17):
            assert monotone_in_r(n, 3, n // 2)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            monotone_in_r(9, 3, 5)  # r_hi beyond n//2
        with pytest.raises(BadParamsError):
            monotone_in_r(8, 2, 4)


class TestLowerBound:
    def test_examples(self):
        assert lower_bound_check(3, 4)  # sqrt5 > 2
        assert lower_bound_check(4, 4)  # 2.79129 > sqrt6

    def test_3_3_rejected(self):
        with pytest.raises(BadParamsError):
            lower_bound_check(3, 3)

    def test_sweep(self):
        for s in range(4, 17):
            for r in range(3, s + 1):
                assert lower_bound_check(r, s)


class TestBoundReports:
    def test_sizes_report_gap_vanishes(self):
        rep = bound_report_sizes(4, 6)
        assert rep.branch == "rs-form"
        assert abs(rep.gap) <= 1e-9

    def test_order_report_branches(self):
        assert bound_report_order(8).branch == "even-n"
        assert bound_report_order(9).branch == "odd-n"
        assert abs(bound_report_order(9).gap) <= 1e-9
