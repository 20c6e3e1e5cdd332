"""Signed-graph model, switching, balance, and cycle detection."""

import hashlib
import random
from itertools import chain

import pytest

from sgraph import (
    Bipartition,
    CycleWitness,
    SignedGraph,
    bipartition,
    canonical_key,
    forest_normalize,
    has_negative_c4,
    is_balanced,
    negate,
    relabel,
    shortest_negative_cycle,
    switch,
    switching_class_representatives,
    switching_equivalent,
    switching_isomorphic,
    switching_isomorphism,
)
from sgraph.core import (
    _degree_profiles,
    _is_twin,
    _twin_classes,
    component_count,
    underlying_positive,
)
from sgraph.errors import (
    BadSignError,
    DuplicateEdgeError,
    NotBipartiteError,
    SelfLoopError,
    UnderlyingGraphMismatchError,
    VertexOutOfRangeError,
)
from sgraph.extremal import extremal_graph

from helpers import (
    brute_switching_isomorphic,
    random_bipartite_signed_graph,
    random_connected_signed_graph,
    random_signed_graph,
    reference_has_negative_c4,
    reference_shortest_negative_cycle,
)


def relabelled_switched_copy(rng: random.Random, g: SignedGraph, flip: bool = False):
    """g relabelled and switched at random; with ``flip``, also one edge
    sign reversed (when g has an edge)."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(switch(g, {v for v in range(g.n) if rng.random() < 0.5}), perm)
    if flip and h.m:
        edges = list(h.edges)
        k = rng.randrange(len(edges))
        edges[k] = edges[k][:2] + (-edges[k][2],)
        h = SignedGraph(g.n, tuple(edges))
    return h


def neg_c6() -> SignedGraph:
    """The 6-cycle 0-1-...-5-0 with exactly edge (0,1) negative."""
    edges = [(i, i + 1, 1) for i in range(5)] + [(0, 5, 1)]
    edges[0] = (0, 1, -1)
    return SignedGraph.from_edge_list(6, edges)


class TestConstruction:
    def test_single_negative_edge(self):
        g = SignedGraph.from_edge_list(2, [(0, 1, -1)])
        assert g.n == 2 and g.m == 1
        assert g.sign(0, 1) == -1 and g.sign(1, 0) == -1

    def test_negative_c6_shape(self):
        g = neg_c6()
        assert g.m == 6
        assert all(g.degree(v) == 2 for v in range(6))
        assert sum(1 for *_, s in g.edges if s == -1) == 1

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            SignedGraph.from_edge_list(2, [(0, 1, 1), (0, 1, -1)])
        with pytest.raises(DuplicateEdgeError):
            SignedGraph.from_edge_list(2, [(0, 1, 1), (1, 0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            SignedGraph.from_edge_list(2, [(1, 1, 1)])

    def test_bad_sign_rejected(self):
        with pytest.raises(BadSignError):
            SignedGraph.from_edge_list(2, [(0, 1, 2)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            SignedGraph.from_edge_list(2, [(0, 2, 1)])

    def test_negative_vertex_count(self):
        with pytest.raises(VertexOutOfRangeError, match="nonnegative"):
            SignedGraph.from_edge_list(-1, [])

    def test_relabel_needs_a_bijection(self):
        with pytest.raises(VertexOutOfRangeError, match="bijection"):
            relabel(neg_c6(), [0, 0, 2, 3, 4, 5])

    def test_edges_stored_sorted(self):
        g = SignedGraph.from_edge_list(3, [(2, 1, -1), (1, 0, 1)])
        assert g.edges == ((0, 1, 1), (1, 2, -1))


class TestSwitch:
    def test_empty_switch_is_identity(self):
        g = neg_c6()
        assert switch(g, frozenset()) == g

    def test_full_switch_is_identity(self):
        g = neg_c6()
        assert switch(g, frozenset(range(6))) == g

    def test_single_vertex_switch_flips_incident_signs(self):
        g = neg_c6()
        h = switch(g, {0})
        assert h.sign(0, 1) == 1 and h.sign(0, 5) == -1
        assert h.sign(1, 2) == g.sign(1, 2)
        # cycle sign is invariant
        prod = 1
        for i in range(6):
            prod *= h.sign(i, (i + 1) % 6)
        assert prod == -1

    def test_switch_involution_random(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_signed_graph(rng, rng.randint(1, 9))
            u_set = frozenset(v for v in range(g.n) if rng.random() < 0.4)
            assert switch(switch(g, u_set), u_set) == g

    def test_switch_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            switch(neg_c6(), {7})


class TestNegate:
    def test_all_positive_path(self):
        g = SignedGraph.from_edge_list(3, [(0, 1, 1), (1, 2, 1)])
        assert negate(g).edges == ((0, 1, -1), (1, 2, -1))

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_signed_graph(rng, rng.randint(0, 8))
            assert negate(negate(g)) == g

    def test_negated_c6_still_unbalanced(self):
        h = negate(neg_c6())
        assert sum(1 for *_, s in h.edges if s == -1) == 5
        assert not is_balanced(h)


class TestBipartition:
    def test_negative_c6_sides(self):
        b = bipartition(neg_c6())
        assert {frozenset(b.left), frozenset(b.right)} == {
            frozenset({0, 2, 4}),
            frozenset({1, 3, 5}),
        }
        assert b.r == b.s == 3

    def test_triangle_not_bipartite(self):
        g = SignedGraph.from_edge_list(3, [(0, 1, 1), (1, 2, -1), (0, 2, 1)])
        with pytest.raises(NotBipartiteError) as exc:
            bipartition(g)
        w = exc.value.witness
        assert w.length == 3 and w.length % 2 == 1

    def test_construction_sides(self):
        g, _ = extremal_graph(3, 4)
        b = bipartition(g)
        assert (b.r, b.s) == (3, 4)

    def test_odd_cycle_witness_is_valid(self):
        rng = random.Random(23)
        found = 0
        while found < 20:
            g = random_signed_graph(rng, rng.randint(3, 9))
            try:
                bipartition(g)
            except NotBipartiteError as exc:
                w = exc.witness
                assert w.length % 2 == 1
                # revalidates adjacency and sign product
                CycleWitness.from_vertices(g, w.vertices)
                found += 1

    def test_r_le_s_convention(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        b = bipartition(g)
        assert b.r <= b.s
        assert b.left == frozenset({0})


class TestBalance:
    def test_forest_is_balanced(self):
        g = SignedGraph.from_edge_list(5, [(0, 1, -1), (1, 2, 1), (3, 4, -1)])
        assert is_balanced(g)

    def test_negative_c6_unbalanced_with_witness(self):
        g = neg_c6()
        assert not is_balanced(g)
        w = shortest_negative_cycle(g)
        assert w is not None and w.length == 6 and w.sign == -1

    def test_all_positive_complete_bipartite(self):
        edges = [(u, v, 1) for u in range(3) for v in range(3, 6)]
        assert is_balanced(SignedGraph.from_edge_list(6, edges))


class TestShortestNegativeCycle:
    def test_balanced_gives_none(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert shortest_negative_cycle(g) is None

    def test_negative_c6(self):
        w = shortest_negative_cycle(neg_c6())
        assert w.length == 6 and w.sign == -1

    def test_k4_one_negative_edge_has_negative_triangle(self):
        edges = [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
        edges[0] = (0, 1, -1)
        g = SignedGraph.from_edge_list(4, edges)
        w = shortest_negative_cycle(g)
        assert w.length == 3 and w.sign == -1
        # the negative edge must be on every negative triangle
        assert {0, 1} <= set(w.vertices)

    def test_witness_is_canonical_and_chordless(self):
        w = shortest_negative_cycle(neg_c6())
        assert w.vertices[0] == min(w.vertices)
        assert w.vertices[1] <= w.vertices[-1]
        assert w.is_chordless(neg_c6())

    def test_witness_matches_search_from_every_vertex(self):
        """The witness is the one a cut-off search from every vertex in
        ascending order gives, on sparse and dense, connected and split,
        general and bipartite graphs."""
        rng = random.Random(29)
        lengths = set()
        for i in range(2000):
            n = rng.randint(1, 16)
            if i % 3 == 0:
                g = random_signed_graph(rng, n, rng.uniform(0.05, 0.6))
            elif i % 3 == 1:
                g = random_connected_signed_graph(rng, n, rng.uniform(0.0, 0.2))
            else:
                r = rng.randint(1, 7)
                g = random_bipartite_signed_graph(rng, r, rng.randint(r, 9), rng.uniform(0.1, 0.6))
            w, ref = shortest_negative_cycle(g), reference_shortest_negative_cycle(g)
            assert (w is None) == (ref is None)
            if w is not None:
                assert (w.vertices, w.sign) == (ref.vertices, ref.sign)
                lengths.add(w.length)
        assert lengths >= set(range(3, 9))


class TestHasNegativeC4:
    def test_construction_has_none(self):
        for r, s in [(3, 3), (3, 5), (4, 4), (5, 6)]:
            g, _ = extremal_graph(r, s)
            assert has_negative_c4(g) is None

    def test_k22_one_negative(self):
        g = SignedGraph.from_edge_list(4, [(0, 2, -1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])
        w = has_negative_c4(g)
        assert w is not None and w.length == 4 and w.sign == -1

    def test_k22_two_disjoint_negatives_is_positive_cycle(self):
        g = SignedGraph.from_edge_list(4, [(0, 2, -1), (0, 3, 1), (1, 2, 1), (1, 3, -1)])
        assert has_negative_c4(g) is None

    def test_witness_matches_dict_scan_reference(self):
        """The two-step walk test returns the reference's witness, vertices
        and sign, on general and bipartite graphs."""
        rng = random.Random(23)
        found = 0
        for i in range(3000):
            if i % 2:
                g = random_signed_graph(rng, rng.randint(1, 13), rng.uniform(0.1, 0.9))
            else:
                r = rng.randint(1, 6)
                g = random_bipartite_signed_graph(rng, r, rng.randint(r, 8), rng.random())
            w, ref = has_negative_c4(g), reference_has_negative_c4(g)
            assert (w is None) == (ref is None)
            if w is not None:
                assert (w.vertices, w.sign) == (ref.vertices, ref.sign)
                found += 1
        assert 500 < found < 2500


class TestForestNormalize:
    def test_all_positive_fixed_point(self):
        g = underlying_positive(neg_c6())
        nf = forest_normalize(g)
        assert nf.graph == g and nf.switch_set == frozenset()

    def test_single_negative_tree_normalizes_positive(self):
        g = SignedGraph.from_edge_list(3, [(0, 1, -1), (1, 2, 1)])
        nf = forest_normalize(g)
        assert all(s == 1 for *_, s in nf.graph.edges)

    def test_negative_c6_single_negative_cotree_edge(self):
        nf = forest_normalize(neg_c6())
        assert sum(1 for s in nf.cotree_signs if s == -1) == 1
        assert len(nf.cotree_signs) == 1
        assert switching_equivalent(nf.graph, neg_c6())

    def test_forest_edges_positive_random(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_signed_graph(rng, rng.randint(1, 9))
            nf = forest_normalize(g)
            forest = set(nf.forest)
            for u, v, s in nf.graph.edges:
                if (u, v) in forest:
                    assert s == 1
            assert switch(g, nf.switch_set) == nf.graph


class TestSwitchingEquivalent:
    def test_switch_orbit(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_signed_graph(rng, rng.randint(1, 9))
            u_set = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            assert switching_equivalent(g, switch(g, u_set))

    def test_negative_vs_positive_c6(self):
        assert not switching_equivalent(neg_c6(), underlying_positive(neg_c6()))

    def test_one_vs_three_negative_edges_on_c6(self):
        g3 = SignedGraph.from_edge_list(
            6,
            [(0, 1, -1), (1, 2, -1), (2, 3, -1), (3, 4, 1), (4, 5, 1), (0, 5, 1)],
        )
        assert switching_equivalent(neg_c6(), g3)

    def test_underlying_mismatch_raises(self):
        g = neg_c6()
        h = SignedGraph.from_edge_list(6, [(0, 1, 1)])
        with pytest.raises(UnderlyingGraphMismatchError):
            switching_equivalent(g, h)


class TestSwitchingIsomorphic:
    def test_relabeled_switch_orbit(self):
        # random graphs up to n = 8, then the constructions at search sizes
        rng = random.Random(29)
        randoms = (random_signed_graph(rng, rng.randint(1, 8)) for _ in range(25))
        constructions = (
            extremal_graph(r, s)[0]
            for r, s in [(3, 5), (4, 4), (3, 6), (4, 5), (3, 7), (4, 6), (5, 5), (5, 6), (6, 6)]
        )
        for g in chain(randoms, constructions):
            h = relabelled_switched_copy(rng, g)
            cert = switching_isomorphism(g, h)
            assert cert is not None
            mapping, final_switch = cert
            assert switch(relabel(g, mapping), final_switch) == h

    def test_unbalanced_c6_is_single_class(self):
        construction, _ = extremal_graph(3, 3)
        g3 = SignedGraph.from_edge_list(
            6,
            [(0, 1, -1), (1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 5, -1), (0, 5, 1)],
        )
        assert switching_isomorphic(construction, g3)
        assert switching_isomorphic(neg_c6(), construction)

    def test_construction_not_isomorphic_to_balanced(self):
        construction, _ = extremal_graph(3, 4)
        assert not switching_isomorphic(construction, underlying_positive(construction))

    def test_different_underlying_not_isomorphic(self):
        g = neg_c6()
        path = SignedGraph.from_edge_list(
            6, [(i, i + 1, 1) for i in range(5)]
        )
        assert not switching_isomorphic(g, path)

    def test_canonical_key_agrees(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 7)
            g1 = random_signed_graph(rng, n)
            g2 = random_signed_graph(rng, n)
            assert (canonical_key(g1) == canonical_key(g2)) == switching_isomorphic(
                g1, g2
            )

    def test_agrees_with_brute_force(self):
        """switching_isomorphic, key equality and the relabelling oracle
        agree, also on pairs with equal degree sequences: a relabelled,
        switched copy, and such a copy with one edge sign flipped."""
        rng = random.Random(47)
        outcomes = set()
        for i in range(90):
            n = rng.randint(1, 6)
            g1 = random_signed_graph(rng, n)
            if i % 3 == 0:
                g2 = random_signed_graph(rng, n)
            else:
                g2 = relabelled_switched_copy(rng, g1, flip=i % 3 == 2)
            expected = brute_switching_isomorphic(g1, g2)
            assert switching_isomorphic(g1, g2) == expected
            assert (canonical_key(g1) == canonical_key(g2)) == expected
            outcomes.add((i % 3, expected))
        # flipped copies land on both sides
        assert {(2, True), (2, False)} <= outcomes

    def test_unsplit_profiles_agree_with_brute_force(self):
        """Graphs whose profiles colour refinement cannot split (a signed
        C8, K_{3,3}, K_{4,4} and the 3-cube, all vertex-transitive), so the
        ordering search branches over every vertex: key equality and
        switching_isomorphic agree with the relabelling oracle on
        relabelled, switched copies, with and without one sign flipped."""
        rng = random.Random(71)
        shapes = (
            [(i, (i + 1) % 8) for i in range(8)],
            [(u, v) for u in range(3) for v in range(3, 6)],
            [(u, v) for u in range(4) for v in range(4, 8)],
            [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1],
        )
        outcomes = set()
        for pairs in shapes:
            n = max(map(max, pairs)) + 1
            g = SignedGraph.from_edge_list(n, [(u, v, rng.choice((1, -1))) for u, v in pairs])
            assert len(set(_degree_profiles(g))) == 1
            for flip in (False, True):
                h = relabelled_switched_copy(rng, g, flip)
                expected = brute_switching_isomorphic(g, h)
                assert switching_isomorphic(g, h) == expected
                assert (canonical_key(g) == canonical_key(h)) == expected
                outcomes.add((flip, expected))
        assert {(False, True), (True, False)} <= outcomes

    def test_refined_profiles_differ_without_search(self, monkeypatch):
        """Two trees with the same degree sequence, a pendant vertex at the
        second or the third vertex of a 5-path, differ in their refined
        profiles, which ends the test before any ordering search."""
        def searched(*args, **kwargs):
            raise AssertionError("_order_search was called")

        t1, t2 = (
            SignedGraph.from_edge_list(6, [(i, i + 1, 1) for i in range(4)] + [(hub, 5, -1)])
            for hub in (1, 2)
        )
        assert sorted(map(t1.degree, range(6))) == sorted(map(t2.degree, range(6)))
        monkeypatch.setattr("sgraph.core._order_search", searched)
        assert switching_isomorphism(t1, t2) is None

    def test_large_star_within_recursion_limit(self):
        """The ordering search keeps its own stack: a star with 1,501
        leaves and mixed signs, far more vertices than Python's default
        recursion limit, gets a key and is switching isomorphic to a
        relabelled, switched copy of itself."""
        rng = random.Random(73)
        star = SignedGraph.from_edge_list(
            1502, [(0, i, rng.choice((1, -1))) for i in range(1, 1502)]
        )
        h = relabelled_switched_copy(rng, star)
        assert canonical_key(star) == canonical_key(h)
        assert switching_isomorphic(star, h)

    @pytest.mark.parametrize("n,key", [(0, b"\x00\x00\x00\x00"), (1, b"\x00\x00\x00\x01")])
    def test_no_vertex_and_one_vertex(self, n, key):
        """The ordering search's smallest inputs: nothing to place, or one
        vertex with no row bits."""
        g = SignedGraph(n, ())
        assert switching_isomorphism(g, g) == (tuple(range(n)), frozenset())
        assert canonical_key(g) == key

    def test_canonical_key_values_pinned(self):
        """Keys are compared across runs, so their values must not drift:
        the flat bytes of two keys, and the sha256 of the keys of a seeded
        set of graphs with n <= 9."""
        # n as 4 bytes, the rows' adjacency bits (0, 00, 011, 1010, 11000:
        # three independent vertices first), one co-tree bit (1: negative)
        # and 0 padding
        assert canonical_key(neg_c6()) == b"\x00\x00\x00\x06\x0e\xb1"
        assert canonical_key(extremal_graph(3, 4)[0]) == b"\x00\x00\x00\x07\xc0\x0e\xb6"
        rng = random.Random(53)
        keys = []
        for i in range(80):
            n = rng.randint(0, 9)
            if i % 2:
                g = random_signed_graph(rng, n, p=rng.choice((0.3, 0.5, 0.7)))
            else:
                g = random_connected_signed_graph(rng, max(n, 1))
            keys.append(canonical_key(g))
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()
        assert digest == "a4277c88ec03d45a208565e59e4f77917706ed369cecc0d01cf4771ca0fa1dcc"

    def test_canonical_key_invariant_under_relabel_switch(self):
        rng = random.Random(43)
        for _ in range(40):
            g = random_signed_graph(rng, rng.randint(1, 8))
            assert canonical_key(g) == canonical_key(relabelled_switched_copy(rng, g))


class TestTwins:
    """The ordering search tries one vertex per twin class, computed once
    per graph: that needs the twin test to be an equivalence, and each twin
    pair to be swapped by a switching automorphism."""

    def test_equivalence_swapped_by_switching(self):
        rng = random.Random(61)
        kinds = set()
        pairs = 0
        for i in range(2000):
            n = rng.randint(1, 9)
            g = random_signed_graph(rng, n, p=(0.2, 0.5, 0.8, 1.0)[i % 4])
            nbr = [dict(a) for a in g.adjacency]
            twins = {
                (v, w) for v in range(n) for w in range(n) if v != w and _is_twin(nbr, v, w)
            }
            # _twin_classes tests v only against the classes filed under
            # its open and closed neighbourhoods, yet finds every class
            classes = _twin_classes(nbr)
            assert [c[0] for c in classes] == sorted(c[0] for c in classes)
            assert {tuple(c) for c in classes} == {
                tuple(sorted({v} | {w for x, w in twins if x == v})) for v in range(n)
            }
            for v, w in twins:
                assert (w, v) in twins
                assert all((v, u) in twins for x, u in twins if x == w and u != v)
                if v < w:
                    swap = list(range(n))
                    swap[v], swap[w] = w, v
                    h = relabel(g, swap)
                    assert switching_equivalent(h, g)
                    kinds.add((w in nbr[v], h == g))
                    pairs += 1
        # true and false twins, swapped with and without a switch
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}
        assert pairs > 2000


class TestSwitchingClassRepresentatives:
    def test_c6_has_two_classes(self):
        reps = list(switching_class_representatives(underlying_positive(neg_c6())))
        assert len(reps) == 2
        balanced = [g for g in reps if is_balanced(g)]
        assert len(balanced) == 1

    def test_representative_count_formula(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_signed_graph(rng, rng.randint(1, 8))
            reps = list(switching_class_representatives(g))
            c = component_count(g)
            assert len(reps) == 1 << (g.m - g.n + c)

    def test_representatives_pairwise_inequivalent(self):
        g = random_signed_graph(random.Random(37), 6, p=0.6)
        reps = list(switching_class_representatives(g))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not switching_equivalent(reps[i], reps[j])


class TestCycleWitness:
    def test_sign_validation(self):
        g = neg_c6()
        w = CycleWitness.from_vertices(g, (0, 1, 2, 3, 4, 5))
        assert w.sign == -1
        with pytest.raises(ValueError):
            CycleWitness.from_vertices(g, (0, 1, 3))  # 1-3 is not an edge

    def test_too_short_or_repeated(self):
        g = neg_c6()
        with pytest.raises(ValueError, match="at least 3"):
            CycleWitness.from_vertices(g, (0, 1))
        with pytest.raises(ValueError, match="distinct"):
            CycleWitness.from_vertices(g, (0, 1, 0))

    def test_rotation_canonicalization(self):
        g = neg_c6()
        w1 = CycleWitness.from_vertices(g, (3, 4, 5, 0, 1, 2))
        w2 = CycleWitness.from_vertices(g, (0, 5, 4, 3, 2, 1))
        assert w1.vertices == w2.vertices == (0, 1, 2, 3, 4, 5)

    def test_chordless_matches_pairwise_definition(self):
        """is_chordless agrees with the pairwise definition (no two
        non-consecutive cycle vertices adjacent) on random cycles, with
        and without chords, inside random graphs."""
        rng = random.Random(29)
        seen = set()
        for _ in range(2000):
            n = rng.randint(3, 11)
            cycle = rng.sample(range(n), rng.randint(3, n))
            t = len(cycle)
            ring = {frozenset((cycle[i], cycle[(i + 1) % t])) for i in range(t)}
            p = rng.choice((0.0, 0.1, 0.4))
            edges = [
                (u, v, rng.choice((1, -1)))
                for u in range(n)
                for v in range(u + 1, n)
                if frozenset((u, v)) in ring or rng.random() < p
            ]
            g = SignedGraph.from_edge_list(n, edges)
            w = CycleWitness.from_vertices(g, cycle)
            pairwise = not any(
                g.has_edge(w.vertices[i], w.vertices[j])
                for i in range(t)
                for j in range(i + 2, t)
                if (i, j) != (0, t - 1)
            )
            assert w.is_chordless(g) == pairwise
            seen.add(pairwise)
        assert seen == {True, False}
