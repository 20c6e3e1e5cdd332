"""Acceptance suite: the package's exit criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Budgets quoted in the assertions are generous wall-clock ceilings for a
desktop-class machine; the searches here finish orders of magnitude
faster.
"""

import math
import time

from sgraph import (
    adjacency_matrix,
    bound_fixed_order,
    bound_fixed_sizes,
    graph_spectrum,
    has_negative_c4,
    is_balanced,
    lower_bound_check,
    monotone_in_r,
    quotient_matrix,
    quotient_spectrum_contained,
    shortest_negative_cycle,
    spectral_radius,
    switching_isomorphic,
)
from sgraph.extremal import (
    extremal_graph,
    nonzero_eigenvalue_pair,
    six_block_partition,
)
from sgraph.search import CONFIRMED, spot_check_random, verify_fixed_order, verify_fixed_sizes
from sgraph import sgio

import test_properties as props

from helpers import multiset_close

SWEEP = [(r, s) for r in range(3, 9) for s in range(r, 9)]


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_smallest_extremal_radius():
    t0 = time.perf_counter()
    g, _ = extremal_graph(3, 3)
    rho = spectral_radius(g)
    elapsed = time.perf_counter() - t0
    ok = abs(rho - math.sqrt(3)) <= 1e-9 and elapsed < 0.1
    _report(
        "1: smallest extremal graph has radius sqrt(3)",
        ok,
        f"rho={rho:.12f}, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_construction_sweep():
    t0 = time.perf_counter()
    ok = True
    for r, s in SWEEP:
        g, _ = extremal_graph(r, s)
        if abs(spectral_radius(g) - bound_fixed_sizes(r, s)) > 1e-8:
            ok = False
        if is_balanced(g) or has_negative_c4(g) is not None:
            ok = False
        witness = shortest_negative_cycle(g)
        if witness is None or witness.length != 6:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(
        "2: construction sweep (radius = bound, unbalanced, no neg C4, girth- 6)",
        ok,
        f"{len(SWEEP)} pairs in {elapsed:.2f} s",
    )


def test_criterion_3_spectrum_structure_sweep():
    ok = True
    for r, s in SWEEP:
        g, _ = extremal_graph(r, s)
        spec = graph_spectrum(g)
        big, small = nonzero_eigenvalue_pair(r, s)
        expected = sorted([big, small, -small, -big] + [0.0] * (g.n - 4))
        if not multiset_close(sorted(spec.eigenvalues), expected, 1e-8):
            ok = False
        if sum(1 for v in spec.eigenvalues if abs(v) <= 1e-8) != g.n - 4:
            ok = False
        if abs(sum(v * v for v in spec.eigenvalues) - 2 * g.m) > 1e-8:
            ok = False
    _report("3: spectrum structure (quartic roots, zeros, sum of squares)", ok)


def test_criterion_4_equitable_quotient_sweep():
    ok = True
    for r, s in SWEEP:
        g, _ = extremal_graph(r, s)
        a = adjacency_matrix(g)
        part = six_block_partition(r, s)
        if not quotient_matrix(a, part).equitable:
            ok = False
        if not quotient_spectrum_contained(a, part):
            ok = False
    _report("4: 6-block partition equitable, quotient spectrum contained", ok)


def test_criterion_5_exhaustive_fixed_sizes():
    budgets = {(3, 3): 1.0, (3, 4): 30.0, (3, 5): 600.0, (4, 4): 600.0}
    jobs = {(3, 3): 1, (3, 4): 1, (3, 5): 2, (4, 4): 2}
    ok = True
    details = []
    for (r, s), budget in budgets.items():
        t0 = time.perf_counter()
        cert = verify_fixed_sizes(r, s, jobs=jobs[r, s])
        elapsed = time.perf_counter() - t0
        construction, _ = extremal_graph(r, s)
        good = (
            cert.verdict == CONFIRMED
            and abs(cert.observed_max - bound_fixed_sizes(r, s)) <= 1e-8
            and cert.unique
            and switching_isomorphic(sgio.loads(cert.witnesses[0]), construction)
            and elapsed < budget
        )
        details.append(f"({r},{s}) {elapsed:.2f}s")
        ok = ok and good
    _report("5: exhaustive fixed-sizes verification CONFIRMED", ok, ", ".join(details))


def test_criterion_6_exhaustive_fixed_order():
    ok = True
    details = []
    for n in (6, 7, 8):
        t0 = time.perf_counter()
        cert = verify_fixed_order(n, jobs=2 if n == 8 else 1)
        elapsed = time.perf_counter() - t0
        good = (
            cert.verdict == CONFIRMED
            and cert.winning_split == (n // 2, n - n // 2)
            and (n != 8 or elapsed < 900.0)
        )
        details.append(f"n={n} {elapsed:.2f}s")
        ok = ok and good
    _report("6: exhaustive fixed-order verification CONFIRMED", ok, ", ".join(details))


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    props.run_switching_spectral_invariance(1000)
    props.run_underlying_bound(1000)
    props.run_perturbation_monotonicity(1000)
    props.run_detector_oracles(10000)
    props.run_class_count_oracle(1000)
    props.run_negative_girth_properties(1000)
    elapsed = time.perf_counter() - t0
    _report("7: randomized property suites, zero failures", True, f"{elapsed:.1f} s")


def test_criterion_8_formula_consistency():
    ok = True
    for n in range(6, 17):
        if abs(bound_fixed_order(n) - bound_fixed_sizes(n // 2, n - n // 2)) > 1e-12:
            ok = False
    for n in range(7, 17):
        if not monotone_in_r(n, 3, n // 2):
            ok = False
    for s in range(4, 17):
        for r in range(3, s + 1):
            if not lower_bound_check(r, s):
                ok = False
    _report("8: bound formulas consistent, monotone, above the floor", ok)


def test_criterion_9_randomized_bound_checks():
    ok = True
    details = []
    for r, s in ((5, 5), (5, 6)):
        t0 = time.perf_counter()
        report = spot_check_random(r, s, trials=10_000, seed=42)
        elapsed = time.perf_counter() - t0
        good = report.violations == 0 and elapsed < 120.0
        details.append(f"({r},{s}) max={report.max_observed:.6f} "
                       f"bound={report.bound:.6f} {elapsed:.1f}s")
        ok = ok and good
    _report("9: spot checks, zero bound violations", ok, "; ".join(details))
