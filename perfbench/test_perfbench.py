"""Tests of the benchmark's own metric math and input generation.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import envinfo
import run
import tracing
from workloads import WORKLOADS, cycle_problem, has_negative_c4, make_corpus


# --- percentile rule -------------------------------------------------------

@pytest.mark.parametrize("count, expected", [(0, False), (99, False), (100, True), (5000, True)])
def test_p90_needs_ten_samples_beyond_it(count, expected):
    assert tracing.has_p90_tail(count) == expected


def test_percentile_matches_numpy_linear_interpolation():
    rng = random.Random(7)
    xs = [rng.expovariate(1.0) for _ in range(137)]
    for p in (0, 10, 50, 90, 99, 100):
        assert tracing.percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-12)
    assert tracing.median([3.0, 1.0, 2.0]) == 2.0


def test_op_p90_needs_a_hundred_samples():
    wl = WORKLOADS["analyze-corpus"](1)

    def plain(n):
        ops = [SimpleOp(float(i)) for i in range(n)]
        return [run.Pass(1.0, 1.0, 0.0, ops)]

    assert run.op_latency(wl, plain(99))["op_p90_ms"] == 0.0
    lat = run.op_latency(wl, plain(100))
    assert lat["op_samples"] == 100
    assert lat["op_p90_ms"] == pytest.approx(np.percentile(range(100), 90) * 1e3)
    assert lat["op_p50_ms"] == pytest.approx(49.5e3)


class SimpleOp:
    def __init__(self, latency_s):
        self.latency_s = latency_s


# --- self time -------------------------------------------------------------

def test_self_time_without_children_is_the_duration():
    assert tracing.self_time(0.0, 10.0, []) == 10.0


def test_self_time_counts_overlapping_children_once():
    assert tracing.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == pytest.approx(6.0)


def test_self_time_with_nested_children():
    # (1, 3) lies inside (0.5, 4): only the outer interval is covered
    assert tracing.self_time(0.0, 10.0, [(0.5, 4.0), (1.0, 3.0)]) == pytest.approx(6.5)


def test_self_time_clips_children_to_the_span():
    assert tracing.self_time(0.0, 10.0, [(8.0, 12.0), (-3.0, 1.0)]) == pytest.approx(7.0)


def test_tracer_records_parents_and_self_time():
    tracer = tracing.Tracer()

    def leaf():
        return "leaf"

    wrapped_leaf = tracer.wrap(leaf, "inner")

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    assert tracer.wrap(outer, "outer", lambda a, k: {"tag": 1})() == "leafleaf"
    names = [sp.name for sp in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [sp.parent for sp in tracer.spans] == [None, 0, 0]
    assert tracer.spans[0].attrs == {"tag": 1}
    kids = tracer.children()
    assert kids == {0: [1, 2]}
    inner = tracer.spans[1].duration + tracer.spans[2].duration
    assert tracer.self_time(0, kids) == pytest.approx(tracer.spans[0].duration - inner)


def test_tracer_closes_the_span_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0].end >= tracer.spans[0].start and not tracer._stack


def test_install_and_uninstall_restore_module_attributes():
    mods = {key: type("M", (), {})() for key, _, _ in tracing.WRAP_TARGETS}
    originals = {}
    for key, attr, _ in tracing.WRAP_TARGETS:
        fn = (lambda a=attr: a)
        setattr(mods[key], attr, fn)
        originals[(key, attr)] = fn
    delattr(mods["sgio"], "dumps")  # a target the program no longer has
    del originals[("sgio", "dumps")]
    assert tracing.missing_targets(mods) == ["sgio.dumps"]
    undo = tracing.install(tracing.Tracer(), mods)
    assert all(getattr(mods[k], a) is not originals[(k, a)] for k, a in originals)
    assert not hasattr(mods["sgio"], "dumps")
    tracing.uninstall(undo)
    assert all(getattr(mods[k], a) is originals[(k, a)] for k, a in originals)


def test_measure_alternates_which_side_runs_first_when_tracing(monkeypatch):
    clock = [0.0]  # each pass takes one second
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def main():
        pass

    mods = SimpleNamespace(cli=SimpleNamespace(main=main), search=SimpleNamespace(),
                           sgio=SimpleNamespace(), core=SimpleNamespace())
    seen = []

    class Loop:
        def run_pass(self, m):
            seen.append("plain" if m.cli.main is main else "traced")
            clock[0] += 1.0
            return []

        def items(self, ops):
            return 0

    # Rounds of 2 s: the second ends at 4 s, a third would end past 5 s.
    plain, traced = run.measure(Loop(), mods, 5.0, trace=True)
    assert seen == ["plain", "traced", "traced", "plain"]
    assert (len(plain), len(traced)) == (2, 2) and mods.cli.main is main
    seen.clear()
    plain, traced = run.measure(Loop(), mods, 0.0, trace=True)
    assert seen == ["plain", "traced"]  # at least one round
    seen.clear()
    plain, traced = run.measure(Loop(), mods, 0.0, trace=False)
    assert seen == ["plain"] * run.MIN_PASSES and traced == []
    seen.clear()
    plain, traced = run.measure(Loop(), mods, 5.0, trace=False,
                                between=lambda: seen.append("between"))
    # the fifth pass ends at the deadline, a sixth would end past it
    assert seen == ["plain", "between"] * 5


# --- the base of each ratio ------------------------------------------------

class FakeWorkload:
    name = "fake"
    per_graph_ops = False

    def counts(self, ops):
        return {"classes": 1000, "admissible": 10, "eigensolved": 8, "pruned": 2,
                "trials": 30, "resampled": 90}


def _traced_pass(wall, spans):
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span(*s) for s in spans]
    return run.Pass(wall, wall, 0.5, [], tracer)


def test_layer_ratios_use_their_stated_bases():
    spans = [
        ("cli.main", 0.0, 2.5, None, {}),
        ("search.verify_fixed_sizes", 0.1, 2.4, 0, {}),
        ("search.run_search", 0.2, 2.2, 1, {"jobs": 2}),
        ("core.switching_isomorphic", 2.0, 2.1, 2, {}),
        ("extremal.extremal_graph", 0.1, 0.15, 1, {}),
    ]
    traced = [_traced_pass(2.75, spans)]
    plain = [run.Pass(2.5, 2.5, 0.0, [])]
    m = run.layer_metrics(FakeWorkload(), plain, traced, enumerate_s=1.2,
                          unwrapped=["sgio.dumps"])
    assert m["search.admissible_ratio"] == pytest.approx(10 / 1000)  # base: classes
    assert m["search.sampler_accept_ratio"] == pytest.approx(30 / 120)  # trials + resampled
    assert m["search.solve_us_per_class"] == pytest.approx((2.0 - 1.2) / 8 * 1e6)  # eigensolved
    assert m["trace.overhead_ratio"] == pytest.approx(2.75 / 2.5 - 1)  # untraced wall
    assert m["trace.coverage_ratio"] == pytest.approx(2.5 / 2.75)  # traced wall
    assert m["search.pool_wait_s"] == pytest.approx(2.0 - 0.1)  # run_search self time
    assert m["search.group_ms"] == pytest.approx(100.0)
    assert m["extremal.construct_us"] == pytest.approx(0.05 * 1e6)  # per certificate
    assert m["cli.self_ms"] == pytest.approx(0.2e3)
    assert m["search.child_cpu_s"] == 0.5
    assert m["trace.unwrapped_targets"] == 1


def test_end_to_end_times_average_over_the_window():
    passes = [run.Pass(1.0, 0.5, 0.25, []), run.Pass(3.0, 1.5, 0.75, [])]
    passes[0].items, passes[1].items = 10, 30
    m = run.end_to_end_metrics(passes, setup_s=0.1)
    assert m["wall_s"] == 2.0
    assert m["cpu_s"] == 1.5  # self + children, per pass
    assert m["items_per_s"] == pytest.approx(40 / 4.0)  # base: total measured wall
    assert m["setup_s"] == 0.1


def test_probe_drift_base_is_the_probe_before_the_passes():
    before, after = {"single_s": 0.10}, {"single_s": 0.13}
    assert envinfo.probe_drift(before, after) == {"drift": 0.3, "drifted": True}
    assert envinfo.probe_drift(before, {"single_s": 0.11})["drifted"] is False


def test_setup_times_a_fresh_import_from_src(tmp_path):
    imports, gens = [], []
    run.sample_setup(WORKLOADS["sample-bounds"](1), tmp_path, imports, gens)
    assert len(imports) == len(gens) == run.SETUP_REPS
    assert all(t > 0 for t in imports)
    assert run.setup_time([0.3, 0.1, 0.2], [0.02, 0.01]) == pytest.approx(0.11)


def test_setup_samples_between_passes_are_spaced_in_time(monkeypatch, tmp_path):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run, "fresh_import_s", lambda: 0.1)
    imports, gens = [], []
    sample = run.spaced_setup(WORKLOADS["sample-bounds"](1), tmp_path, imports, gens,
                              spacing=3.0)
    for _ in range(10):  # rounds of one second
        clock[0] += 1.0
        sample()
    assert imports == [0.1] * 3 and len(gens) == 3  # at 3, 6 and 9 s


def test_ratio_of_zero_base_is_zero():
    assert tracing.ratio(5, 0) == 0.0
    assert tracing.ratio(1, 4) == 0.25


def test_error_rate_base_is_attempted_ops():
    checked = run.Checked()
    for problem in (None, "bad", None, None):
        checked.add(problem)
    assert (checked.attempted, checked.failed) == (4, 1)
    assert tracing.ratio(checked.failed, checked.attempted) == 0.25


# --- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    def inputs(seed, sub):
        wl = WORKLOADS[name](seed)
        (tmp_path / sub).mkdir()
        wl.setup(tmp_path / sub)
        return wl.inputs()

    assert inputs(5, "a") == inputs(5, "b")
    if name in ("sample-bounds", "analyze-corpus"):
        assert inputs(5, "c") != inputs(6, "d")


def test_corpus_files_on_disk_match_the_inputs(tmp_path):
    wl = WORKLOADS["analyze-corpus"](3)
    wl.setup(tmp_path)
    on_disk = "".join(Path(wl.paths[g.name]).read_text() for g in wl.graphs)
    assert on_disk.encode() == wl.inputs()


def _two_colourable(n, edges):
    colour = [None] * n
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    for root in range(n):
        if colour[root] is None:
            colour[root], stack = 0, [root]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if colour[v] is None:
                        colour[v] = 1 - colour[u]
                        stack.append(v)
                    elif colour[v] == colour[u]:
                        return False
    return True


def test_corpus_plants_the_properties_it_claims():
    graphs = {g.name: g for g in make_corpus(11)}
    assert len(graphs) >= 100
    for g in graphs.values():
        assert _two_colourable(g.n, g.edges) == g.bipartite
        if g.twin:
            twin = graphs[g.twin]
            assert (twin.n, len(twin.edges), twin.balanced) == (g.n, len(g.edges), g.balanced)
            assert twin.twin == g.name


# --- output checks ---------------------------------------------------------------

def test_negative_c4_test_and_cycle_witness_check():
    square = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1)]
    a = np.zeros((4, 4))
    for u, v, s in square:
        a[u, v] = a[v, u] = s
    assert has_negative_c4(a)
    assert not has_negative_c4(np.abs(a))
    sign_of = {frozenset((u, v)): s for u, v, s in square}
    good = {"vertices": [0, 1, 2, 3], "sign": -1, "length": 4}
    assert cycle_problem(good, sign_of, want_sign=-1) is None
    assert cycle_problem({**good, "sign": 1}, sign_of) is not None
    assert cycle_problem({"vertices": [0, 2, 1, 3], "sign": -1, "length": 4}, sign_of)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
