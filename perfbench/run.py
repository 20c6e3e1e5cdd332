"""sgraph benchmark: time to certificate, sampler and analysis throughput.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each run times sgraph's import in fresh interpreters and the making of the
workload's inputs from ``--seed`` (``setup_s``), imports sgraph from
``src/``, then repeats timed passes of the workload for about
``--seconds``; every output is checked.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported, from spans this benchmark records around calls into sgraph's
public functions.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import tracing  # noqa: E402
from workloads import PINNED_STATS, WORKLOADS  # noqa: E402

SETUP_REPS = 3  # set-ups timed before the measured passes, and as many after
MIN_PASSES = 3  # untraced passes per run, even when they outlast --seconds
SGRAPH_MODULES = ("cli", "search", "sgio", "core", "spectral", "extremal")
# Run in a new interpreter: import every sgraph module, numpy and all, from
# the src/ directory given as argv[1]; print the seconds taken and where
# sgraph came from.  Interpreter start-up is not timed.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    f"import {', '.join(f'sgraph.{m}' for m in SGRAPH_MODULES)}\n"
    "t = time.perf_counter() - t0\n"
    "print(t, sgraph.__file__)\n"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "search.run_search_s": "s",
    "search.enumerate_s": "s",
    "search.solve_us_per_class": "us",
    "search.group_ms": "ms",
    "search.pool_wait_s": "s",
    "search.child_cpu_s": "s",
    "search.classes": "count",
    "search.admissible": "count",
    "search.eigensolved": "count",
    "search.pruned": "count",
    "search.admissible_ratio": "ratio",
    "search.spot_check_s": "s",
    "search.sampler_accept_ratio": "ratio",
    "spectral.graph_spectrum_us": "us",
    "spectral.graph_spectrum_calls": "count",
    "core.bipartition_us": "us",
    "core.is_balanced_us": "us",
    "core.has_negative_c4_us": "us",
    "core.shortest_negative_cycle_us": "us",
    "core.canonical_key_ms": "ms",
    "core.canonical_key_p90_ms": "ms",
    "core.switching_isomorphic_ms": "ms",
    "core.switching_isomorphic_calls": "count",
    "sgio.load_us": "us",
    "sgio.dumps_us": "us",
    "sgio.bytes_parsed": "bytes",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "extremal.construct_us": "us",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_samples": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "trace.unwrapped_targets": "count",
}

# Span attributes recorded by the wrappers: run_search's worker count, and
# the size of each file sgio.load parses.
SPAN_ATTRS = {
    "search.run_search": lambda args, kwargs: {"jobs": (args or [kwargs.get("space")])[0].jobs},
    "sgio.load": lambda args, kwargs: {"bytes": os.path.getsize(args[0])},
}


@dataclass
class Pass:
    wall: float
    cpu_self: float
    cpu_children: float
    ops: list
    tracer: tracing.Tracer | None = None
    items: int = 0

    @property
    def cpu(self) -> float:
        return self.cpu_self + self.cpu_children


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)


def _check_origin(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "sgraph").resolve():
        raise RuntimeError(f"imported sgraph from {path}, not from {SRC}")


def import_sgraph() -> SimpleNamespace:
    """Import sgraph from src/ and return its modules by short name."""
    pkg = importlib.import_module("sgraph")
    _check_origin(pkg.__file__)
    return SimpleNamespace(**{m: importlib.import_module(f"sgraph.{m}") for m in SGRAPH_MODULES})


def fresh_import_s() -> float:
    """Seconds a new interpreter takes to import sgraph from src/."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing sgraph failed:\n{proc.stderr}")
    seconds, path = proc.stdout.split(maxsplit=1)
    _check_origin(path.strip())
    return float(seconds)


def sample_setup(wl, workdir: Path, imports: list, gens: list, reps: int = SETUP_REPS) -> None:
    """Time reps fresh-interpreter imports of sgraph and as many input
    generations, appending the seconds to imports and gens."""
    for _ in range(reps):
        imports.append(fresh_import_s())
        t0 = time.perf_counter()
        wl.setup(workdir)
        gens.append(time.perf_counter() - t0)


def spaced_setup(wl, workdir: Path, imports: list, gens: list, spacing: float):
    """A ``between`` for measure: one set-up sample whenever ``spacing``
    seconds have passed since the last, so that a run takes about the same
    number of samples whether its passes are long or short."""
    last = time.perf_counter()

    def sample() -> None:
        nonlocal last
        if time.perf_counter() - last >= spacing:
            sample_setup(wl, workdir, imports, gens, reps=1)
            last = time.perf_counter()

    return sample


def setup_time(imports: list, gens: list) -> float:
    """setup_s: the fastest import plus the fastest input generation.

    The fastest, not the median, and from samples taken before, between and
    after the measured passes: on the 2-vCPU x86-64 box of the first
    baseline the speed of a fixed loop swung by up to 2x from one stretch of
    seconds to the next, and samples in a row all shared one stretch.
    """
    return min(imports) + min(gens)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def timed_pass(wl, mods, tracer=None) -> Pass:
    undo = tracing.install(tracer, vars(mods), SPAN_ATTRS) if tracer else []
    try:
        ch0, c0, t0 = _children_cpu(), time.process_time(), time.perf_counter()
        ops = wl.run_pass(mods)
        t1, c1, ch1 = time.perf_counter(), time.process_time(), _children_cpu()
    finally:
        tracing.uninstall(undo)
    p = Pass(t1 - t0, c1 - c0, ch1 - ch0, ops, tracer)
    p.items = wl.items(ops)
    return p


def measure(wl, mods, seconds: float, trace: bool,
            between=None) -> tuple[list[Pass], list[Pass]]:
    """Closed loop of passes for about ``seconds``.

    Untraced only, at least MIN_PASSES; or, when tracing, rounds of one
    untraced and one traced pass, at least one round, with the traced pass
    first in every other round so that drift in machine speed falls on both
    sides alike.  No round starts when the median round would end past the
    deadline.  ``between()``, if given, runs after every round, untimed.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced_first = trace and len(plain) % 2 == 1
        if traced_first:
            traced.append(timed_pass(wl, mods, tracing.Tracer()))
        plain.append(timed_pass(wl, mods))
        if trace and not traced_first:
            traced.append(timed_pass(wl, mods, tracing.Tracer()))
        round_s = tracing.median([p.wall for p in plain])
        if trace:
            round_s += tracing.median([p.wall for p in traced])
        if between:
            between()
        enough = trace or len(plain) >= MIN_PASSES
        if enough and time.perf_counter() - start + round_s > seconds:
            return plain, traced


def _fingerprint(out) -> str:
    if isinstance(out, dict):
        out = {k: v for k, v in out.items() if k != "wall_time"}
    return repr(out)


def validate(wl, passes: list[Pass], checked: Checked) -> None:
    """Check every op of every pass; each op must also repeat its first output."""
    first: dict = {}
    for p in passes:
        try:
            problems = wl.problems(p.ops)
        except Exception:
            problems = [traceback.format_exc(limit=3)] * len(p.ops)
        for op, problem in zip(p.ops, problems):
            fp = _fingerprint(op.out)
            if problem is None and first.setdefault(op.key, fp) != fp:
                problem = f"{op.key}: output differs from the first pass"
            checked.add(problem)


def time_enumeration(wl, mods, checked: Checked) -> float:
    """Seconds for enumerate_admissible with a no-op visitor on the workload's
    spaces; its counters must match the certificates' pinned ones."""
    total = 0.0
    for r, s in wl.spaces():
        space = mods.search.SearchSpace(r, s, stretch=True)
        t0 = time.perf_counter()
        stats = mods.search.enumerate_admissible(space, lambda ac: None)
        total += time.perf_counter() - t0
        pinned = PINNED_STATS[(r, s)]
        got = (stats.classes, stats.admissible)
        want = (pinned["classes"], pinned["admissible"])
        checked.add(None if got == want else f"enumerate ({r},{s}): {got} != {want}")
    return total


def _durations(passes: list[Pass], name: str) -> list[float]:
    return [sp.duration for p in passes for sp in p.tracer.spans if sp.name == name]


def _per_pass(passes: list[Pass], fn) -> float:
    return tracing.median([fn(p) for p in passes])


def _total(name):
    return lambda p: sum(sp.duration for sp in p.tracer.spans if sp.name == name)


def _calls(name):
    return lambda p: sum(1 for sp in p.tracer.spans if sp.name == name)


def _med(values, scale: float) -> float:
    return tracing.median(values) * scale if values else 0.0


def _coverage(p: Pass) -> float:
    roots = [(sp.start, sp.end) for sp in p.tracer.spans if sp.parent is None]
    return tracing.ratio(tracing.union_length(roots), p.wall)


def _pool_wait(p: Pass) -> float:
    kids = p.tracer.children()
    return sum(
        p.tracer.self_time(i, kids)
        for i, sp in enumerate(p.tracer.spans)
        if sp.name == "search.run_search" and sp.attrs["jobs"] > 1
    )


def _cli_self_times(passes: list[Pass]) -> list[float]:
    out = []
    for p in passes:
        kids = p.tracer.children()
        out += [p.tracer.self_time(i, kids) for i, sp in enumerate(p.tracer.spans)
                if sp.name == "cli.main"]
    return out


def _construct_per_cert(p: Pass) -> float:
    t = sum(sp.duration for sp in p.tracer.spans if sp.name.startswith("extremal."))
    return tracing.ratio(t, _calls("search.verify_fixed_sizes")(p))


def op_latency(wl, plain: list[Pass]) -> dict:
    """Per-graph latency on analyze-corpus: p50, and p90 when at least ten
    samples lie beyond it (at least 100 ops)."""
    if not wl.per_graph_ops:
        return {"op_p50_ms": 0.0, "op_p90_ms": 0.0, "op_samples": 0}
    lat = [op.latency_s for p in plain for op in p.ops]
    return {
        "op_p50_ms": tracing.median(lat) * 1e3,
        "op_p90_ms": (tracing.percentile(lat, 90) * 1e3
                      if tracing.has_p90_tail(len(lat)) else 0.0),
        "op_samples": len(lat),
    }


def layer_metrics(wl, plain: list[Pass], traced: list[Pass], enumerate_s: float,
                  unwrapped: list[str]) -> dict:
    counts = wl.counts(traced[0].ops)
    run_search_s = _per_pass(traced, _total("search.run_search"))
    key_calls = _durations(traced, "core.canonical_key")
    m = {
        "search.run_search_s": run_search_s,
        "search.enumerate_s": enumerate_s,
        # derived: search time not spent enumerating, per eigensolved class
        "search.solve_us_per_class": tracing.ratio(
            max(run_search_s - enumerate_s, 0.0), counts.get("eigensolved", 0)) * 1e6,
        "search.group_ms": _per_pass(traced, _total("core.switching_isomorphic")) * 1e3,
        "search.pool_wait_s": _per_pass(traced, _pool_wait),
        "search.child_cpu_s": _per_pass(traced, lambda p: p.cpu_children),
        "search.classes": counts.get("classes", 0),
        "search.admissible": counts.get("admissible", 0),
        "search.eigensolved": counts.get("eigensolved", 0),
        "search.pruned": counts.get("pruned", 0),
        "search.admissible_ratio": tracing.ratio(counts.get("admissible", 0),
                                                 counts.get("classes", 0)),
        "search.spot_check_s": _per_pass(traced, _total("search.spot_check_random")),
        "search.sampler_accept_ratio": tracing.ratio(
            counts.get("trials", 0), counts.get("trials", 0) + counts.get("resampled", 0)),
        "spectral.graph_spectrum_us": _med(_durations(traced, "spectral.graph_spectrum"), 1e6),
        "spectral.graph_spectrum_calls": _per_pass(traced, _calls("spectral.graph_spectrum")),
        "core.bipartition_us": _med(_durations(traced, "core.bipartition"), 1e6),
        "core.is_balanced_us": _med(_durations(traced, "core.is_balanced"), 1e6),
        "core.has_negative_c4_us": _med(_durations(traced, "core.has_negative_c4"), 1e6),
        "core.shortest_negative_cycle_us": _med(
            _durations(traced, "core.shortest_negative_cycle"), 1e6),
        "core.canonical_key_ms": _med(key_calls, 1e3),
        "core.canonical_key_p90_ms": (tracing.percentile(key_calls, 90) * 1e3
                                      if tracing.has_p90_tail(len(key_calls)) else 0.0),
        "core.switching_isomorphic_ms": _med(_durations(traced, "core.switching_isomorphic"), 1e3),
        "core.switching_isomorphic_calls": _per_pass(traced, _calls("core.switching_isomorphic")),
        "sgio.load_us": _med(_durations(traced, "sgio.load"), 1e6),
        "sgio.dumps_us": _med(_durations(traced, "sgio.dumps"), 1e6),
        "sgio.bytes_parsed": _per_pass(traced, lambda p: sum(
            sp.attrs["bytes"] for sp in p.tracer.spans if sp.name == "sgio.load")),
        "cli.main_ms": _med(_durations(traced, "cli.main"), 1e3),
        "cli.self_ms": _med(_cli_self_times(traced), 1e3),
        "extremal.construct_us": _per_pass(traced, _construct_per_cert) * 1e6,
        **op_latency(wl, plain),
        "trace.overhead_ratio": tracing.ratio(
            tracing.median([p.wall for p in traced]), tracing.median([p.wall for p in plain])) - 1,
        "trace.coverage_ratio": _per_pass(traced, _coverage),
        "trace.unwrapped_targets": len(unwrapped),
    }
    return m


def end_to_end_metrics(plain: list[Pass], setup_s: float) -> dict:
    """Pass times are averaged over the whole measured window, not taken as
    a median of passes.  On the 2-vCPU x86-64 box of the first baseline, CPU
    speed drifted by 20-30% over tens of seconds; over ten ladder runs the
    window mean spread 0.16 (quartile distance / median), the median of
    passes 0.24.
    """
    wall = sum(p.wall for p in plain)
    return {
        "wall_s": wall / len(plain),
        "cpu_s": sum(p.cpu for p in plain) / len(plain),
        "setup_s": setup_s,
        "items_per_s": tracing.ratio(sum(p.items for p in plain), wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(wl, metrics: dict, units: dict, plain: list[Pass], checked: Checked) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"workload {wl.name}: {len(plain)} untraced passes, {checked.attempted} ops checked")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
        if name == "items_per_s":
            print(f"  {wl.item:34s} {value:.6g} 1/s  (items_per_s on this workload)")
    if "wall_s" in metrics:
        lat = op_latency(wl, plain)
        if lat["op_samples"]:
            print(f"  {'op_p50_ms':34s} {lat['op_p50_ms']:.6g} ms  (n={lat['op_samples']})")
            print(f"  {'op_p90_ms':34s} {lat['op_p90_ms']:.6g} ms  (n={lat['op_samples']})")
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(f"  {'children_peak_rss_mb':34s} {child_rss:.6g} MB")
        by_key: dict = {}
        for p in plain:
            for op in p.ops:
                by_key.setdefault(op.key, []).append(op.latency_s)
        if len(by_key) <= 4:  # per-input times, e.g. each size of the ladder
            for key, lat in by_key.items():
                print(f"  op {str(key):31s} {tracing.median(lat):.6g} s  (median of {len(lat)})")
    print(f"  {'error_rate':34s} {tracing.ratio(checked.failed, checked.attempted):.6g} ratio"
          f"  ({checked.failed}/{checked.attempted})")
    for problem in checked.problems[:20]:
        print(f"  FAILED: {problem}")


def run_one(args) -> dict:
    wl = WORKLOADS[args.workload](args.seed)
    load_before = os.getloadavg()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=HERE / ".work"))
    try:
        imports, gens = [], []
        sample_setup(wl, workdir, imports, gens)
        mods = import_sgraph()
        unwrapped = tracing.missing_targets(vars(mods))
        probe_before = envinfo.cpu_probe()
        plain, traced = measure(wl, mods, args.seconds, bool(args.trace),
                                between=spaced_setup(wl, workdir, imports, gens,
                                                     args.seconds / 4))
        probe_after = envinfo.cpu_probe()
        sample_setup(wl, workdir, imports, gens)
        checked = Checked()
        if args.trace:
            enumerate_s = time_enumeration(wl, mods, checked)
            metrics = layer_metrics(wl, plain, traced, enumerate_s, unwrapped)
            units = PER_LAYER
        else:
            metrics, units = end_to_end_metrics(plain, setup_time(imports, gens)), END_TO_END
        load_after = os.getloadavg()
        validate(wl, plain + traced, checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    drift = envinfo.probe_drift(probe_before, probe_after)
    report(wl, metrics, units, plain, checked)
    print(f"  {'cpu_probe_drift':34s} {drift['drift']:+.3f}"
          f"{'  DRIFTED: machine speed moved during the run' if drift['drifted'] else ''}")
    if args.trace and unwrapped:
        print(f"  not traced, missing from sgraph: {', '.join(unwrapped)}")
    env = envinfo.describe()
    env.update(loadavg_before=load_before, loadavg_after=load_after,
               cpu_probe_before=probe_before, cpu_probe_after=probe_after,
               cpu_probe_drift=drift, unwrapped_targets=unwrapped,
               seed=args.seed, seconds=args.seconds,
               setup_import_samples_s=[round(t, 6) for t in imports],
               setup_input_samples_s=[round(t, 6) for t in gens],
               pass_walls_s=[round(p.wall, 6) for p in plain])
    print("env " + json.dumps(env))
    return {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in turn, each in its own process so that each gets
    the same fresh-process set-up and peak RSS as a single-workload run."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sgraph" / "__init__.py").is_file():
        print(f"error: no sgraph sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
