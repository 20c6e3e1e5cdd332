"""Exhaustive enumeration, certificates, determinism, and the sampler."""

import dataclasses
import math
import multiprocessing
import os
import random
import time
from functools import reduce
from itertools import combinations_with_replacement, permutations
from operator import and_

import pytest

from sgraph import (
    SignedGraph,
    canonical_key,
    forest_normalize,
    has_negative_c4,
    is_balanced,
    sgio,
    switching_class_representatives,
    switching_equivalent,
    switching_isomorphic,
)
from sgraph.core import underlying_positive
from sgraph.spectral import graph_spectrum
from sgraph.errors import BadParamsError, BudgetExceededError, SgraphError
from sgraph.extremal import bound_fixed_sizes, check_sizes, extremal_graph
from sgraph import extremal, search
from sgraph.search import (
    CONFIRMED,
    SearchSpace,
    _classes,
    _cotree,
    _gf2_nullspace_basis,
    _minimal_masks,
    _signed_graph,
    _span,
    _spectral_radii,
    certificate_csv_row,
    CSV_HEADER,
    enumerate_admissible,
    run_search,
    spot_check_random,
    verify_fixed_order,
    verify_fixed_sizes,
)

from helpers import polya_orbit_counts, reference_cotree, reference_minimal_masks


def brute_admissible_class_count(r: int, s: int) -> int:
    """Independent oracle: every subset of complete-bipartite edge slots,
    every signature on it, grouped into switching orbits, filtered by the
    honest detectors.  Exponential; keep to tiny (r, s)."""
    slots = [(a, r + b) for a in range(r) for b in range(s)]
    n = r + s
    total = 0
    for mask in range(1 << len(slots)):
        pairs = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        m = len(pairs)
        seen = [False] * (1 << m)
        for sig in range(1 << m):
            if seen[sig]:
                continue
            # flood the switching orbit of this signature
            orbit = [sig]
            seen[sig] = True
            while orbit:
                cur = orbit.pop()
                for v in range(n):
                    flipped = cur
                    for i, (a, b) in enumerate(pairs):
                        if (a == v) != (b == v):
                            flipped ^= 1 << i
                    if not seen[flipped]:
                        seen[flipped] = True
                        orbit.append(flipped)
            g = SignedGraph(
                n,
                tuple(
                    (a, b, -1 if sig >> i & 1 else 1)
                    for i, (a, b) in enumerate(pairs)
                ),
            )
            if not is_balanced(g) and has_negative_c4(g) is None:
                total += 1
    return total


class TestEnumeration:
    def test_3_3_admissible_count_golden(self):
        stats = enumerate_admissible(SearchSpace(3, 3), lambda ac: None)
        # frozen from the independent orbit-grouping oracle below
        assert stats.admissible == 6
        assert stats.graphs == 512
        assert stats.classes == 848
        assert stats.balanced_skipped == 512

    def test_3_3_admissible_count_matches_brute_oracle(self):
        assert brute_admissible_class_count(3, 3) == 6

    def test_visited_graphs_are_admissible(self):
        seen = []

        def visitor(ac):
            g = _signed_graph(3, 3, *ac)
            assert not is_balanced(g)
            assert has_negative_c4(g) is None
            seen.append(g)

        stats = enumerate_admissible(SearchSpace(3, 3), visitor)
        assert len(seen) == stats.admissible

    def test_all_positive_never_visited(self):
        def visitor(ac):
            assert ac[1] != 0
            assert any(s == -1 for *_, s in _signed_graph(3, 3, *ac).edges)

        enumerate_admissible(SearchSpace(3, 3), visitor)

    def test_restricted_to_c6_underlying(self):
        construction, _ = extremal_graph(3, 3)
        reps = list(switching_class_representatives(underlying_positive(construction)))
        assert len(reps) == 2  # 2^(6-6+1)
        admissible = [
            g for g in reps if not is_balanced(g) and has_negative_c4(g) is None
        ]
        assert len(admissible) == 1

    def test_budget_guards(self):
        # (5,6), 28,576 minima, needs the stretch flag, and its 2^30 masks
        # are past the cube's limit; the guard fires before the cube walk
        with pytest.raises(BudgetExceededError):
            enumerate_admissible(SearchSpace(5, 6), lambda ac: None)
        with pytest.raises(BudgetExceededError, match=(
            r"^searching \(5,6\) costs 28,576 orbit minima, more than the default "
            r"budget of 9,608 \(the stretch flag allows 415,859\)$"
        )):
            run_search(SearchSpace(5, 6))
        # (6,7), 2,141,733 minima, is past every budget
        with pytest.raises(BudgetExceededError, match=(
            r"^searching \(6,7\) costs more than 415,859 orbit minima, the stretch budget$"
        )):
            run_search(SearchSpace(6, 7, stretch=True))
        # the limits are the prices of verify order 10 and order 12
        assert search._priced([SearchSpace(5, 5)])[1] == 5624
        assert search._priced([SearchSpace(6, 6, stretch=True)])[1] == 251_610

        def order(n, stretch):
            return [SearchSpace(r, n - r, stretch=stretch) for r in range(3, n // 2 + 1)]

        assert search._priced(order(10, False))[1] == search.DEFAULT_BUDGET == 9608
        assert search._priced(order(12, True))[1] == search.STRETCH_BUDGET == 415_859
        # (3,12) and (4,7) fit the default budget, (4,11) the stretch one
        assert search._priced([SearchSpace(3, 12)])[1] == 9473
        assert search._priced([SearchSpace(4, 7)])[1] == 9343
        assert search._priced([SearchSpace(4, 11, stretch=True)])[1] == 357_009
        # the stretch budget needs the flag on every space of the command
        with pytest.raises(BudgetExceededError, match="costs 28,612 orbit minima"):
            search._priced([SearchSpace(5, 6, stretch=True), SearchSpace(3, 3)])
        # the labelled cube keeps its own limit: (5,5) would walk 2^25 masks
        with pytest.raises(BudgetExceededError):
            enumerate_admissible(SearchSpace(5, 5), lambda ac: None)
        with pytest.raises(BadParamsError):
            SearchSpace(2, 5)

    @pytest.mark.parametrize(
        "refuse",
        [SearchSpace, lambda r, s: spot_check_random(r, s, 1), extremal_graph, check_sizes],
        ids=["SearchSpace", "spot_check_random", "extremal_graph", "check_sizes"],
    )
    def test_one_size_check(self, refuse):
        # every entry point refuses sizes outside the domain in the same words
        with pytest.raises(BadParamsError) as exc:
            refuse(3, 2)
        assert str(exc.value) == "need 3 <= r <= s, got r=3, s=2"

    def test_solution_space_equals_parity_loop_3_3(self):
        """The negative masks listed from the GF(2) basis are exactly the
        nonzero co-tree masks that leave every 4-cycle positive.  Passed
        through forest_normalize, they are exactly the admissible classes
        of core's switching_class_representatives, so the search's choice
        of forest does not show."""
        by_mask: dict[int, list] = {}
        enumerate_admissible(
            SearchSpace(3, 3), lambda ac: by_mask.setdefault(ac[0], []).append(ac)
        )
        slots = [(a, 3 + b) for a in range(3) for b in range(3)]
        for mask in range(1 << 9):
            visited = by_mask.get(mask, [])
            cotree = _cotree(search._rows_of(mask, 3, 3), 3)
            want = [
                neg
                for neg in sorted(_span([1 << i for i in range(9) if cotree >> i & 1]))[1:]
                if has_negative_c4(_signed_graph(3, 3, mask, neg)) is None
            ]
            assert [ac[1] for ac in visited] == want
            edges = tuple((u, v, 1) for u, v in slots if mask >> (u * 3 + v - 3) & 1)
            reps = [
                g
                for g in switching_class_representatives(SignedGraph(6, edges))
                if not is_balanced(g) and has_negative_c4(g) is None
            ]
            normal = [forest_normalize(_signed_graph(3, 3, *ac)).graph for ac in visited]
            assert len(set(normal)) == len(normal)
            assert set(normal) == set(reps)

    @pytest.mark.parametrize("r,s", [(3, 5), (4, 4)])
    def test_prune_matches_float_rule(self, r, s):
        """The integer prune m < beta skips exactly the classes that the
        float rule sqrt(m) < rho0 - WINDOW skipped, rho0 the construction's
        radius.  At r = 3, beta = 2s - 3 is an integer and m = beta stays."""
        rho0 = graph_spectrum(extremal_graph(r, s)[0]).lambda1
        below = []
        stats = enumerate_admissible(
            SearchSpace(r, s),
            lambda ac: below.append(
                math.sqrt(ac[0].bit_count()) < rho0 - search.WINDOW
            ),
        )
        assert stats.pruned == sum(below) > 0
        assert stats.eigensolved == len(below) - sum(below)

    def test_edge_floor_is_the_quadratic_rule(self):
        """The prune's floor r*s - r - s is the smallest m with 2m >= c and
        m^2 - c m + d >= 0, (c, d) the coefficients of the construction's
        quartic, i.e. the smallest integer m >= beta.  That set of m is
        closed upwards (f increases from c/2 on), so it is enough that the
        floor is in it and the integer below is not."""
        for r in range(3, 400):
            for s in range(r, 400):
                c, d = extremal._coeffs(r, s)
                floor = r * s - r - s
                assert 2 * floor >= c and floor * floor - c * floor + d >= 0, (r, s)
                below = floor - 1
                assert not (2 * below >= c and below * below - c * below + d >= 0), (r, s)


def move_columns(row: int, cols: tuple[int, ...]) -> int:
    """The s-bit row with column b moved to column cols[b]."""
    return sum(1 << c for b, c in enumerate(cols) if row >> b & 1)


def mask_of_rows(rows, s: int) -> int:
    """The mask whose row a is rows[a]."""
    return sum(row << (a * s) for a, row in enumerate(rows))


def brute_orbit_minima(r: int, s: int) -> list[int]:
    """The row-sorted masks (row 0 >= row 1 >= ...) that no column
    permutation, followed by sorting the rows again, makes smaller."""
    out = []
    for rows in combinations_with_replacement(range(1 << s), r):
        rows = sorted(rows, reverse=True)
        mask = mask_of_rows(rows, s)
        lowest = min(
            mask_of_rows(sorted((move_columns(row, cols) for row in rows), reverse=True), s)
            for cols in permutations(range(s))
        )
        if lowest == mask:
            out.append(mask)
    return out


def all_minima(r: int, s: int) -> list[tuple[int, int]]:
    """The search's tasks' minima, first row 2^0 - 1 up to 2^s - 1."""
    return [m for k in range(s + 1) for m in _minimal_masks(r, s, k)]


def columns_of(rows: list[int], s: int) -> list[int]:
    """The r-bit neighbourhood of each right vertex."""
    return [sum((row >> b & 1) << a for a, row in enumerate(rows)) for b in range(s)]


def without_column(rows: list[int], b: int) -> list[int]:
    """The rows with column b deleted: the columns above it move down."""
    low = (1 << b) - 1
    return [row & low | row >> 1 & ~low for row in rows]


def admissible_dimension(rows: list[int], s: int) -> int:
    return len(search._admissible_basis(rows, s, _cotree(rows, s)))


def dominated(sets: list[int]) -> list[int]:
    """The v whose set lies inside another one's; of two twins, both."""
    return [
        v for v, nv in enumerate(sets)
        if any(nv & ~na == 0 for a, na in enumerate(sets) if a != v)
    ]


def fold(rows: list[int], s: int) -> tuple[list[int], int]:
    """(rows, s) of the core: a dominated row or column, an isolated one
    included, is deleted until none is left."""
    while True:
        if rows_left := dominated(rows):
            a = rows_left[0]
            rows = rows[:a] + rows[a + 1:]
        elif cols_left := dominated(columns_of(rows, s)):
            rows, s = without_column(rows, cols_left[0]), s - 1
        else:
            return rows, s


@pytest.fixture
def in_process_fan_out(monkeypatch):
    """Replace search's fan-out by a stand-in that runs every task
    in-process, so no process is started however many are asked for.
    Returns the worker counts asked for and the tasks handed out."""
    asked = []
    mapped = []

    def fan_out(work, workers):
        asked.append(workers)
        mapped.extend(work)
        return [search._search_chunk(w) for w in work]

    monkeypatch.setattr(search, "_fan_out", fan_out)
    return asked, mapped


class TestOrbitMinima:
    """The search visits one mask per row-and-column orbit, the smallest,
    and weights it by the orbit size; enumerate_admissible walks the full
    labelled cube.  Their counters must agree."""

    @pytest.mark.parametrize("r,s", [(3, 3), (3, 4), (4, 4)])
    def test_masks_are_the_sorted_row_orbit_minima(self, r, s):
        masks = [mask for mask, *_ in all_minima(r, s)]
        assert masks == sorted(brute_orbit_minima(r, s))

    @pytest.mark.parametrize("r,s", [(3, 3), (3, 4), (4, 4), (3, 6)])
    def test_task_k_minima_have_first_row_2_to_k_minus_1(self, r, s):
        for k in range(s + 1):
            minima = _minimal_masks(r, s, k)
            assert minima
            assert all(mask >> (r - 1) * s == (1 << k) - 1 for mask, _ in minima)

    @pytest.mark.parametrize("r,s", [(3, 3), (3, 4)])
    def test_weights_are_orbit_sizes(self, r, s):
        full = (1 << s) - 1
        for mask, weight in all_minima(r, s):
            rows = [(mask >> (a * s)) & full for a in range(r)]
            orbit = {
                mask_of_rows([move_columns(row, cols) for row in perm], s)
                for perm in permutations(rows)
                for cols in permutations(range(s))
            }
            assert weight == len(orbit)
            assert mask == min(orbit)

    @pytest.mark.parametrize(
        "r,s",
        [
            (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
            (4, 4), (4, 5), (4, 6), (4, 7), (5, 5), (5, 6),
        ],
    )
    def test_tree_reuse_matches_placement_from_scratch(self, r, s):
        # every (mask, weight) list, in order, equals the one from placing
        # each candidate tuple from scratch; (4,7) and (5,6) are rich in
        # rows that repeat the prefix's last row or tie at an inner node
        for k in range(s + 1):
            assert _minimal_masks(r, s, k) == reference_minimal_masks(r, s, k)

    @pytest.mark.parametrize(
        "r,s,count",
        [
            (3, 3, 36),
            (3, 4, 87),
            (3, 5, 190),
            (3, 6, 386),
            (3, 7, 734),
            (4, 4, 317),
            (4, 5, 1053),
            (4, 6, 3250),
            (5, 5, 5624),
            (5, 6, 28576),
        ],
    )
    def test_weights_cover_the_cube(self, r, s, count):
        """Orbit counts are OEIS A028657.  By edge number m, the minima
        are the Polya count of orbits with m cells, and their weights sum
        to the C(rs, m) labelled graphs with m edges."""
        minima = all_minima(r, s)
        assert len(minima) == count
        assert sum(weight for _, weight in minima) == 1 << (r * s)
        orbits = [0] * (r * s + 1)
        weights = [0] * (r * s + 1)
        for mask, weight in minima:
            orbits[mask.bit_count()] += 1
            weights[mask.bit_count()] += weight
        assert orbits == polya_orbit_counts(r, s)
        assert weights == [math.comb(r * s, m) for m in range(r * s + 1)]

    @pytest.mark.parametrize("r,s", [(3, 3), (3, 4), (3, 5), (4, 4)])
    @pytest.mark.parametrize("float_rule", [False, True], ids=["plain", "pruned"])
    def test_weighted_counters_equal_full_cube(self, r, s, float_rule):
        """The orbit-weighted counters equal the full cube's.  The pruned
        case also counts, class by class over the cube, the float rule
        sqrt(m) < rho0 - WINDOW and checks the weighted prune against it."""
        space = SearchSpace(r, s)
        below = []
        if float_rule:
            rho0 = graph_spectrum(extremal_graph(r, s)[0]).lambda1
            floor = rho0 - search.WINDOW
            cube = enumerate_admissible(
                space,
                lambda ac: below.append(math.sqrt(ac[0].bit_count()) < floor),
            )
        else:
            cube = enumerate_admissible(space, lambda ac: None)
        stats = run_search(space).stats
        assert stats.to_dict() == cube.to_dict()
        if float_rule:
            assert stats.pruned == sum(below)
            assert stats.eigensolved == len(below) - sum(below)

    @pytest.mark.parametrize(
        "r,s",
        [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6)],
    )
    def test_full_row_or_column_counted_in_closed_form(self, r, s):
        """A full row or a full column dominates every other vertex on its
        side, so its graph carries no admissible class, and _scan counts
        it without a co-tree.  Each such minimum is checked against the
        co-tree and the parity system: no basis vector, and 2^k classes
        with k the co-tree's size, all but the balanced one skipped."""
        full = (1 << s) - 1
        closed_form = 0
        for mask, _ in all_minima(r, s):
            rows = search._rows_of(mask, r, s)
            if full not in rows and not reduce(and_, rows):
                continue
            closed_form += 1
            cotree = _cotree(rows, s)
            assert search._admissible_basis(rows, s, cotree) == []
            stats, found_on = search._scan(r, s, [(mask, 1)])
            assert found_on == []
            assert stats.classes == 1 << cotree.bit_count()
            assert stats.c4_skipped == stats.classes - 1
            assert stats.admissible == 0
        assert closed_form

    @pytest.mark.parametrize("r,s,cases", [(4, 5, 6229), (5, 5, 35208)])
    def test_deleting_a_dominated_vertex_keeps_the_admissible_dimension(self, r, s, cases):
        """The domination lemma: if N(v) is inside N(a) for another vertex a
        on v's side, G and G - v have admissible spaces of one dimension.
        Checked for every such v of every minimum, rows and columns."""
        seen = 0
        for mask, _ in all_minima(r, s):
            rows = search._rows_of(mask, r, s)
            want = admissible_dimension(rows, s)
            for a in dominated(rows):
                assert admissible_dimension(rows[:a] + rows[a + 1:], s) == want
                seen += 1
            for b in dominated(columns_of(rows, s)):
                assert admissible_dimension(without_column(rows, b), s - 1) == want
                seen += 1
        assert seen == cases

    # size: (minima with an admissible class, distinct cores, minima whose
    # core is C6)
    CORES = {
        (3, 5): (9, 1, 9),
        (4, 4): (22, 4, 19),
        (4, 5): (110, 5, 96),
        (4, 6): (439, 6, 382),
        (5, 5): (911, 20, 767),
    }

    @pytest.mark.parametrize("r,s", list(CORES))
    def test_core_table(self, r, s):
        """Every minimum that carries an admissible class is folded to its
        core, and the cores are counted up to isomorphism by the
        canonical_key of the all-positive core.  Each core keeps its
        graph's admissible dimension: the lemma applied to the whole fold."""
        c6 = canonical_key(_signed_graph(3, 3, mask_of_rows([3, 5, 6], 3), 0))
        keys = []
        for mask, _ in all_minima(r, s):
            _, basis = _classes(mask, r, s)
            if not basis:
                continue
            rows, t = fold(search._rows_of(mask, r, s), s)
            core = mask_of_rows(rows, t)
            assert len(_classes(core, len(rows), t)[1]) == len(basis)
            keys.append(canonical_key(_signed_graph(len(rows), t, core, 0)))
        assert (len(keys), len(set(keys)), keys.count(c6)) == self.CORES[r, s]

    @pytest.mark.parametrize("r,s", [(3, 3), (4, 5), (6, 8), (8, 10)])
    def test_classes_on_labelled_masks(self, r, s):
        """_classes on arbitrary labelled masks, as the cube walk and the
        sampler pass them, equals the co-tree's size and the parity
        system's basis.  Rows and columns are blanked, then a full row or
        a full column may be planted: a full row leaves the blank rows
        isolated, and a full column the blank columns."""
        rng = random.Random(r * 100 + s)
        full = (1 << s) - 1
        column = sum(1 << a * s for a in range(r))
        isolated = {"row": 0, "column": 0}
        for _ in range(1000):
            density = rng.random()
            mask = sum(1 << i for i in range(r * s) if rng.random() < density)
            for a in range(r):
                if rng.random() < 0.2:
                    mask &= ~(full << a * s)
            for b in range(s):
                if rng.random() < 0.2:
                    mask &= ~(column << b)
            plant = rng.choice(["row", "column", None])
            if plant == "row":
                mask |= full << rng.randrange(r) * s
            elif plant == "column":
                mask |= column << rng.randrange(s)
            rows = search._rows_of(mask, r, s)
            cotree = _cotree(rows, s)
            k, basis = _classes(mask, r, s)
            assert (k, basis) == (cotree.bit_count(), search._admissible_basis(rows, s, cotree))
            if plant:
                assert basis == []
                blank = 0 in (rows if plant == "row" else columns_of(rows, s))
                isolated[plant] += blank
        assert min(isolated.values()) > 150

    def test_identical_across_jobs_3_5(self, cheap_workers):
        # at (4,5) three tasks keep classes, so their concatenation counts
        for r, s in [(3, 5), (4, 5)]:
            runs = [run_search(SearchSpace(r, s, jobs=jobs)) for jobs in (1, 2, 3)]
            assert runs[1] == runs[0] and runs[2] == runs[0]
            certs = [verify_fixed_sizes(r, s, jobs=jobs) for jobs in (1, 2, 3)]
            assert certs[1] == certs[0] and certs[2] == certs[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("r,s,kept", [(3, 5, 8), (4, 5, 52)])
    def test_one_solve_per_search(
        self, monkeypatch, in_process_fan_out, cheap_workers, r, s, kept, jobs
    ):
        """The workers solve nothing: run_search solves every class the
        prune keeps in one call."""
        calls = []
        solve = search._spectral_radii

        def recording(r, s, signed):
            calls.append(len(signed))
            return solve(r, s, signed)

        monkeypatch.setattr(search, "_spectral_radii", recording)
        run_search(SearchSpace(r, s, jobs=jobs))
        assert calls == [kept]

    @pytest.mark.parametrize("r,s", [(3, 5), (5, 6), (8, 10)])
    def test_radii_do_not_depend_on_stack_grouping(self, r, s):
        """One stack, slices of 97 and single classes give bit-identical
        radii, so solving a search's classes in one stack changes none."""
        rng = random.Random(r * 100 + s)
        signed = []
        while len(signed) < 700:
            mask = rng.getrandbits(r * s)
            _, basis = _classes(mask, r, s)
            if basis:
                signed.append((mask, _span(basis)[rng.randrange(1, 1 << len(basis))]))
        whole = _spectral_radii(r, s, signed).tolist()
        sliced = [
            rho
            for i in range(0, len(signed), 97)
            for rho in _spectral_radii(r, s, signed[i : i + 97]).tolist()
        ]
        single = [_spectral_radii(r, s, [c]).tolist()[0] for c in signed]
        assert whole == sliced == single

    def test_gram_radii_match_graph_spectrum(self):
        classes = []
        enumerate_admissible(SearchSpace(3, 4), classes.append)
        rhos = _spectral_radii(3, 4, classes)
        assert len(rhos) == len(classes) > 50
        for ac, rho in zip(classes, rhos):
            assert abs(rho - graph_spectrum(_signed_graph(3, 4, *ac)).rho) <= 1e-12

    def test_nullspace_basis_ignores_row_order_and_redundancy(self):
        rng = random.Random(5)
        for _ in range(200):
            cols = rng.getrandbits(14)
            rows = [rng.getrandbits(14) & cols for _ in range(rng.randint(0, 8))]
            basis = _gf2_nullspace_basis(rows, cols)
            rank = len(set(_span(rows))).bit_length() - 1
            assert len(basis) == cols.bit_count() - rank
            for v in basis:
                assert v & ~cols == 0
                assert all((v & row).bit_count() % 2 == 0 for row in rows)
            extra = [a ^ b for a, b in zip(rows, rows[1:])]
            shuffled = rows + extra
            rng.shuffle(shuffled)
            assert _gf2_nullspace_basis(shuffled, cols) == basis

    def test_cotree_matches_union_find(self):
        """The row-wise forest is the union-find forest in slot order, on
        masks of any density with empty rows and isolated columns."""
        rng = random.Random(17)
        blank_rows = blank_cols = 0
        for _ in range(4000):
            r, s = rng.randint(1, 8), rng.randint(1, 10)
            density = rng.random()
            mask = sum(1 << i for i in range(r * s) if rng.random() < density)
            for a in range(r):
                if rng.random() < 0.15:
                    mask &= ~(((1 << s) - 1) << a * s)
            column = sum(1 << a * s for a in range(r))
            for b in range(s):
                if rng.random() < 0.15:
                    mask &= ~(column << b)
            blank_rows += 0 in search._rows_of(mask, r, s)
            blank_cols += any(not (mask >> b) & column for b in range(s))
            assert _cotree(search._rows_of(mask, r, s), s) == reference_cotree(mask, r, s)
        assert blank_rows > 1000 and blank_cols > 1000

    @pytest.mark.parametrize("r,s", [(3, 3), (3, 4), (3, 5)])
    def test_maximizers_are_forest_normal_forms(self, r, s):
        for g in run_search(SearchSpace(r, s)).maximizers:
            assert forest_normalize(g).graph == g

    def test_jobs_capped_at_cpu_count(self, monkeypatch, in_process_fan_out, cheap_workers):
        """--jobs beyond the CPU count asks for no more processes than
        CPUs or tasks, and maps exactly the s + 1 first-row tasks that
        one job runs.  The fan-out is a stand-in that runs in-process, so
        no process is started however large jobs is."""
        asked, mapped = in_process_fan_out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        space = SearchSpace(3, 3, jobs=10_000)
        wide = run_search(space)
        one = run_search(SearchSpace(3, 3))
        assert asked == [2]
        assert mapped == [(space, k) for k in range(3 + 1)]
        assert wide == one

    def test_pool_of_one_runs_in_process(self, monkeypatch, in_process_fan_out, cheap_workers):
        """On one CPU, --jobs 2 leaves one worker, so the tasks run in the
        calling process and no fan-out is asked for, however cheap a
        worker is."""
        asked, mapped = in_process_fan_out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        wide = run_search(SearchSpace(3, 4, jobs=2))
        one = run_search(SearchSpace(3, 4))
        assert asked == [] and mapped == []
        assert wide == one

    def test_workers_capped_at_affinity(self, monkeypatch, in_process_fan_out, cheap_workers):
        """A process pinned to one of eight CPUs runs --jobs 2 in process:
        the CPUs it may use count, not the machine's."""
        asked, mapped = in_process_fan_out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        verify_fixed_order(8, jobs=2)
        run_search(SearchSpace(3, 4, jobs=2))
        assert asked == [] and mapped == []

    def test_small_search_stays_in_process(self, monkeypatch, in_process_fan_out):
        """Order 8 costs 507 minima, too few to pay for a second worker:
        --jobs 2 on two CPUs forks nothing and gives the one-job
        certificate."""
        asked, mapped = in_process_fan_out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert search.orbit_price(3, 5) + search.orbit_price(4, 4) < search.MINIMA_PER_WORKER
        wide = verify_fixed_order(8, jobs=2)
        assert asked == [] and mapped == []
        assert wide == verify_fixed_order(8, jobs=1)

    def test_priced_search_fans_out(self, monkeypatch, in_process_fan_out):
        """(4,6) costs 3,250 minima, enough for a second worker: --jobs 2
        on two CPUs asks for two, and --jobs 10000 for no more."""
        asked, mapped = in_process_fan_out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert search.orbit_price(4, 6) > search.MINIMA_PER_WORKER
        wide = run_search(SearchSpace(4, 6, jobs=2))
        run_search(SearchSpace(4, 6, jobs=10_000))
        assert asked == [2, 2]
        assert wide == run_search(SearchSpace(4, 6))

    @pytest.mark.parametrize("r,s", [(r, s) for r in (3, 4, 5) for s in range(r, 7)])
    def test_price_counts_the_minima(self, r, s):
        """The price equals the per-m Polya oracle's total and the number
        of minima the generator emits."""
        price = search.orbit_price(r, s)
        assert price == sum(polya_orbit_counts(r, s))
        assert price == sum(len(_minimal_masks(r, s, k)) for k in range(s + 1))

    def test_price_6_6(self):
        assert search.orbit_price(6, 6) == sum(polya_orbit_counts(6, 6)) == 251_610

    def test_price_floor_is_a_lower_bound(self):
        """Whatever _surely_over refuses is priced over the stretch
        budget, the sizes at the tier edges are decided as the exact
        price would be, and sizes far past them are refused at once."""
        for r in range(3, 7):
            for s in range(r, 19):
                if search._surely_over(r, s):
                    assert search.orbit_price(r, s) > search.STRETCH_BUDGET
        for r, s in [(3, 23), (4, 11), (6, 6)]:
            assert not search._surely_over(r, s)
        for r, s in [(3, 24), (4, 12), (5, 8), (6, 7), (9, 9), (10**11, 10**11)]:
            assert search._surely_over(r, s)
        # the product runs at most 2^8 - 1 steps whatever the sizes, so a
        # loop over s would show here as hours, not seconds
        start = time.perf_counter()
        assert search._surely_over(3, 10**11) and search._surely_over(200, 10**11)
        assert time.perf_counter() - start < 5


class TestVerifyFixedSizes:
    def test_3_3_confirmed(self):
        cert = verify_fixed_sizes(3, 3)
        assert cert.verdict == CONFIRMED
        assert abs(cert.observed_max - math.sqrt(3)) <= 1e-8
        assert cert.unique and not cert.disconnected_tie
        construction, _ = extremal_graph(3, 3)
        assert switching_isomorphic(sgio.loads(cert.witnesses[0]), construction)

    def test_3_4_confirmed(self):
        cert = verify_fixed_sizes(3, 4)
        assert cert.verdict == CONFIRMED
        assert abs(cert.observed_max - math.sqrt(5)) <= 1e-8

    def test_determinism_across_jobs(self):
        assert verify_fixed_sizes(3, 4, jobs=1) == verify_fixed_sizes(3, 4, jobs=2)

    def test_witness_roundtrip_bit_exact(self):
        cert = verify_fixed_sizes(3, 3)
        for text in cert.witnesses:
            assert sgio.dumps(sgio.loads(text)) == text

    def test_maximizers_pass_filters(self):
        cert = verify_fixed_sizes(3, 4)
        for g in cert.result.maximizers:
            assert not is_balanced(g)
            assert has_negative_c4(g) is None

    def test_csv_row_shape(self):
        cert = verify_fixed_sizes(3, 3)
        row = certificate_csv_row(cert)
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_json_fields(self):
        cert = verify_fixed_sizes(3, 3)
        doc = cert.to_json_dict()
        for key in ("verdict", "claimed_bound", "observed_max", "unique",
                    "witnesses", "tolerance", "stats"):
            assert key in doc


class TestVerifyFixedOrder:
    def test_n6(self):
        cert = verify_fixed_order(6)
        assert cert.verdict == CONFIRMED
        assert cert.winning_split == (3, 3)
        assert abs(cert.observed_max - math.sqrt(3)) <= 1e-8

    def test_n7(self):
        cert = verify_fixed_order(7)
        assert cert.verdict == CONFIRMED
        assert cert.winning_split == (3, 4)
        assert abs(cert.observed_max - math.sqrt(5)) <= 1e-8

    def test_n8_split_maxima_increase(self):
        cert = verify_fixed_order(8, jobs=2)
        assert cert.verdict == CONFIRMED
        maxima = [c.observed_max for c in cert.per_split]
        assert maxima == sorted(maxima) and maxima[0] < maxima[1]

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            verify_fixed_order(5)

    def test_budget_refused_before_any_split(self, monkeypatch):
        # order 11's splits (3,8), (4,7) and (5,6) cost 39,243 minima, over
        # the default budget: no split may run, whether through run_search,
        # a task in process or a fan-out
        def unreachable(space):
            raise AssertionError(f"searched ({space.r},{space.s})")

        def no_task(args):
            unreachable(args[0])

        def no_fan_out(work, workers):
            raise AssertionError(f"asked for a fan-out over {workers} workers")

        monkeypatch.setattr(search, "run_search", unreachable)
        monkeypatch.setattr(search, "_search_chunk", no_task)
        monkeypatch.setattr(search, "_fan_out", no_fan_out)
        with pytest.raises(BudgetExceededError, match="costs 39,243 orbit minima"):
            verify_fixed_order(11)
        # and past every budget, with or without the stretch flag
        for n, stretch in [(13, True), (10**11, False)]:
            with pytest.raises(BudgetExceededError):
                verify_fixed_order(n, stretch=stretch)

    def test_budget_names_first_split_over(self):
        # order 12 splits (3,9), (4,8), (5,7), (6,6): the price of all four
        # is named; order 13's (5,8) is surely over every budget on its own,
        # so it is named and (6,7) is never built
        with pytest.raises(BudgetExceededError, match=(
            r"^searching \(3,9\), \(4,8\), \(5,7\), \(6,6\) costs 415,859 orbit minima, "
            r"more than the default budget of 9,608"
        )):
            verify_fixed_order(12)
        with pytest.raises(BudgetExceededError, match=r"^searching \(5,8\) costs more than"):
            verify_fixed_order(13, stretch=True)

    def test_one_pool_per_order(self, monkeypatch, in_process_fan_out, cheap_workers):
        """Every split's tasks go through one fan-out, split after split
        and k = 0..s within each, and the certificate is the one-job one."""
        asked, mapped = in_process_fan_out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        wide = verify_fixed_order(8, jobs=2)
        assert asked == [2]
        assert mapped == [(SearchSpace(3, 5, jobs=2), k) for k in range(6)] + [
            (SearchSpace(4, 4, jobs=2), k) for k in range(5)
        ]
        assert wide == verify_fixed_order(8, jobs=1)


class TestFanOut:
    """The real fan-out: the calling process works too, and every
    task's result comes back once, in task order."""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched task reaches the child only when it is forked",
    )
    def test_results_in_task_order(self, monkeypatch):
        me = os.getpid()

        def chunk(i):
            if os.getpid() == me:
                time.sleep(0.05)  # so the child claims some however late it starts
            return os.getpid(), i

        monkeypatch.setattr(search, "_search_chunk", chunk)
        out = search._fan_out(list(range(30)), 2)
        assert [i for _, i in out] == list(range(30))
        pids = {pid for pid, _ in out}
        assert os.getpid() in pids and len(pids) == 2
        assert multiprocessing.active_children() == []


class TestResultValues:
    """Search results are frozen values, stats included."""

    def test_hash_equal_across_jobs(self, monkeypatch, cheap_workers):
        """Stats that cross a pipe still make results equal, with equal
        hashes, to the one-job ones."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        one, two = (verify_fixed_order(8, jobs=jobs) for jobs in (1, 2))
        assert one == two and hash(one) == hash(two)
        for a, b in zip(one.per_split, two.per_split):
            assert hash(a) == hash(b) and hash(a.result) == hash(b.result)
        assert len({one, two, *one.per_split}) == 3

    def test_stats_frozen_and_merged_into_a_new_value(self):
        left = search.SearchStats(graphs=1, pruned=2)
        right = search.SearchStats(graphs=3, eigensolved=4)
        assert left.merge(right) == search.SearchStats(graphs=4, pruned=2, eigensolved=4)
        assert left == search.SearchStats(graphs=1, pruned=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            left.graphs = 5


def _result(r, s, max_rho, *maximizers):
    return search.SearchResult(r, s, max_rho, maximizers, search.SearchStats())


class TestVerdicts:
    """Every verdict branch of _certify and verify_fixed_order, from search
    results built by hand."""

    @staticmethod
    def _other_33_inside_34():
        # the (3,3) construction with an isolated seventh vertex: a
        # disconnected class that is not the (3,4) construction
        g, _ = extremal_graph(3, 3)
        return SignedGraph(7, g.edges)

    def test_no_maximizer_inconclusive(self):
        cert = search._certify(_result(3, 4, -math.inf))
        assert cert.verdict == search.INCONCLUSIVE
        assert cert.detail == "no admissible class found"
        assert not cert.unique and cert.witnesses == () and not cert.disconnected_tie

    @pytest.mark.parametrize("offset", [1e-6, -1e-6])
    def test_maximum_off_bound_refuted(self, offset):
        g, _ = extremal_graph(3, 4)
        bound = bound_fixed_sizes(3, 4)
        cert = search._certify(_result(3, 4, bound + offset, g))
        assert cert.verdict == search.REFUTED
        assert cert.detail == f"observed max {bound + offset!r} vs bound {bound!r}"
        assert cert.unique and not cert.disconnected_tie

    def test_two_classes_refuted(self):
        g, _ = extremal_graph(3, 4)
        other = self._other_33_inside_34()
        cert = search._certify(_result(3, 4, bound_fixed_sizes(3, 4), g, other))
        assert cert.verdict == search.REFUTED
        assert cert.detail == "2 maximizer classes, expected 1"
        assert not cert.unique and cert.disconnected_tie
        assert cert.witnesses == (sgio.dumps(g), sgio.dumps(other))

    def test_other_class_refuted(self):
        other = self._other_33_inside_34()
        cert = search._certify(_result(3, 4, bound_fixed_sizes(3, 4), other))
        assert cert.verdict == search.REFUTED
        assert cert.detail == "maximizer class is not the extremal construction"
        assert cert.unique and cert.disconnected_tie

    def test_construction_confirmed(self):
        g, _ = extremal_graph(3, 4)
        result = _result(3, 4, bound_fixed_sizes(3, 4), g)
        cert = search._certify(result)
        assert cert.verdict == CONFIRMED and cert.result == result
        assert cert.detail == "unique maximizer matches the construction"
        assert cert.unique and not cert.disconnected_tie

    B35, B44 = bound_fixed_sizes(3, 5), bound_fixed_sizes(4, 4)

    @pytest.mark.parametrize(
        "rho35,rho44,classes44,detail",
        [
            (B35, B44 + 1e-6, 1,
             f"global max {B44 + 1e-6!r} vs bound {B44!r}; "
             "balanced split verdict REFUTED"),
            (B44, B44, 1,
             "maximum attained at split (3,5); split (3,5) ties the maximum"),
            (B44 - 1e-9, B44, 1, "split (3,5) ties the maximum"),
            (B35, B44, 2, "balanced split verdict REFUTED"),
        ],
        ids=["off_bound", "unbalanced_split", "tie", "balanced_refuted"],
    )
    def test_order_problems(self, monkeypatch, rho35, rho44, classes44, detail):
        g35, _ = extremal_graph(3, 5)
        g44, _ = extremal_graph(4, 4)
        results = [_result(3, 5, rho35, g35), _result(4, 4, rho44, *[g44] * classes44)]

        def search_all(spaces):
            assert [(sp.r, sp.s) for sp in spaces] == [(3, 5), (4, 4)]
            return results

        monkeypatch.setattr(search, "_search_all", search_all)
        cert = verify_fixed_order(8)
        assert cert.verdict == search.REFUTED
        assert cert.detail == detail
        assert [c.result for c in cert.per_split] == results


class TestSpotCheck:
    def test_small_space_no_violations(self):
        report = spot_check_random(3, 4, trials=400, seed=7)
        assert report.violations == 0
        assert report.trials == 400
        assert report.max_observed <= bound_fixed_sizes(3, 4) + 1e-8

    def test_zero_trials(self):
        report = spot_check_random(5, 5, trials=0, seed=1)
        assert report.violations == 0 and report.max_observed == 0.0

    def test_negative_trials_refused(self):
        with pytest.raises(BadParamsError):
            spot_check_random(3, 3, -1)

    def test_inadmissible_draw_raises(self, monkeypatch):
        # a detector that sees a negative 4-cycle in every draw
        monkeypatch.setattr(search, "has_negative_c4", lambda g: g)
        with pytest.raises(SgraphError, match="not admissible"):
            spot_check_random(3, 4, trials=1)

    def test_determinism(self):
        a = spot_check_random(4, 4, trials=100, seed=3)
        b = spot_check_random(4, 4, trials=100, seed=3)
        assert a == b

    def test_beyond_exhaustive_budget(self):
        report = spot_check_random(5, 5, trials=50, seed=11)
        assert report.violations == 0

    # The draws, and so every field of the report, follow
    # from the forest, the basis order and the guards, so a rewrite of any
    # of them must reproduce these bit for bit.  The first two are the
    # sample-bounds benchmark plan, seeds from random.Random(1).
    PINNED = [
        (6, 8, 2000, 577090037, 5870, 4.767150682035358, 5.788638097152354),
        (8, 10, 1000, 2444712010, 5980, 5.669358795875204, 7.835859367882814),
        (3, 4, 400, 7, 12108, 2.23606797749979, 2.23606797749979),
        (5, 5, 0, 1, 0, 0.0, 3.82842712474619),
        (4, 4, 100, 3, 1070, 2.7912878474779204, 2.79128784747792),
        (5, 5, 50, 11, 226, 3.3564009308471263, 3.82842712474619),
    ]

    @pytest.mark.parametrize("r,s,trials,seed,resampled,max_observed,bound", PINNED)
    def test_reports_pinned(self, r, s, trials, seed, resampled, max_observed, bound):
        assert spot_check_random(r, s, trials, seed).to_json_dict() == {
            "r": r,
            "s": s,
            "trials": trials,
            "seed": seed,
            "violations": 0,
            "resampled": resampled,
            "max_observed": max_observed,
            "bound": bound,
        }


class TestStretch:
    def test_3_6_confirmed(self):
        cert = verify_fixed_sizes(3, 6, stretch=True, jobs=2)
        assert cert.verdict == CONFIRMED
        assert abs(cert.observed_max - 3.0) <= 1e-8
