"""The benchmark's workloads: inputs made from the seed, one timed pass each,
and the checks every output must pass.

Each workload is a closed loop with a single caller: the next operation
starts when the previous one has returned, because a certificate is a
batch computation the user waits for.  The program receives only the
generated inputs (sizes, trial counts and seeds, ``sg`` files).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Certificate tolerance the program documents (sgraph.search.BOUND_TOL).
BOUND_TOL = 1e-8
# A witness's radius, recomputed here with numpy, must match the bound this closely.
WITNESS_TOL = 1e-9
# Spectra reported by `sgraph spectrum` must match numpy this closely,
# scaled by (1 + rho).
SPECTRUM_TOL = 1e-9

# SearchStats pinned per size; the verify workloads compare every certificate
# against them.  Neither chunking nor --jobs changes these counts.
PINNED_STATS = {
    (3, 5): dict(graphs=32768, classes=140288, c4_skipped=105690, admissible=1830,
                 pruned=60, eigensolved=1770),
    (4, 4): dict(graphs=65536, classes=380993, c4_skipped=309793, admissible=5664,
                 pruned=768, eigensolved=4896),
    (3, 6): dict(graphs=262144, classes=1917376, c4_skipped=1634772, admissible=20460,
                 pruned=4980, eigensolved=15480),
}


@dataclass
class Op:
    """One operation of a pass: what was asked, how long it took, what came back."""

    key: tuple
    latency_s: float
    rc: object  # exit code, or None when the call raised
    out: object  # stdout text, or a result mapping
    err: str = ""


def closed_form_bound(r: int, s: int) -> float:
    """The paper's fixed-sizes bound, computed independently of sgraph."""
    c, d = (r - 1) * (s - 1) + 2, (2 * r - 3) * (2 * s - 3)
    return math.sqrt((c + math.sqrt(c * c - 4 * d)) / 2.0)


def parse_sg(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Minimal reader for the ``sg`` format, independent of sgraph.sgio."""
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows or rows[0][0] != "sg" or len(rows[0]) != 3:
        raise ValueError("missing 'sg <n> <m>' header")
    n, m = int(rows[0][1]), int(rows[0][2])
    edges = [(int(u), int(v), int(s)) for u, v, s in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, found {len(edges)}")
    return n, edges


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v, s in edges:
        a[u, v] = a[v, u] = s
    return a


def witness_radius(text: str) -> float:
    n, edges = parse_sg(text)
    return float(np.max(np.abs(np.linalg.eigvalsh(adjacency(n, edges)))))


def has_negative_c4(a: np.ndarray) -> bool:
    """Exact test: a negative 4-cycle through u and w exists iff their common
    neighbours give both sign products, i.e. |(A^2)_uw| < (|A|^2)_uw."""
    p = a @ a
    q = np.abs(a) @ np.abs(a)
    np.fill_diagonal(p, 0)
    np.fill_diagonal(q, 0)
    return bool(np.any(np.abs(p) < q))


def cycle_problem(doc, sign_of, want_sign=None) -> str | None:
    """Check a CycleWitness JSON dict against the graph's own edge signs."""
    vs = doc["vertices"]
    if len(vs) != doc["length"] or len(set(vs)) != len(vs) or len(vs) < 3:
        return f"malformed cycle {vs}"
    sign = 1
    for i, u in enumerate(vs):
        s = sign_of.get(frozenset((u, vs[(i + 1) % len(vs)])))
        if s is None:
            return f"cycle {vs} uses a non-edge"
        sign *= s
    if sign != doc["sign"]:
        return f"cycle {vs} has sign {sign}, reported {doc['sign']}"
    if want_sign is not None and sign != want_sign:
        return f"cycle {vs} has sign {sign}, expected {want_sign}"
    return None


def call_cli(mods, argv: list[str], key: tuple) -> Op:
    """Run ``sgraph <argv>`` in process through sgraph.cli.main."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return Op(key, time.perf_counter() - t0, rc, out.getvalue(), err.getvalue())


def sizes_cert_problems(doc: dict, r: int, s: int) -> list[str]:
    """Problems with one fixed-sizes certificate (JSON dict) for (r, s)."""
    problems = []
    bound = closed_form_bound(r, s)
    if (doc.get("r"), doc.get("s")) != (r, s):
        problems.append(f"certificate is for ({doc.get('r')},{doc.get('s')})")
    if doc.get("verdict") != "CONFIRMED" or doc.get("unique") is not True:
        problems.append(f"verdict {doc.get('verdict')} unique={doc.get('unique')}")
    if abs(doc["claimed_bound"] - bound) > 1e-12:
        problems.append(f"claimed bound {doc['claimed_bound']!r} vs {bound!r}")
    if abs(doc["observed_max"] - bound) > BOUND_TOL:
        problems.append(f"observed max {doc['observed_max']!r} vs bound {bound!r}")
    if len(doc["witnesses"]) != 1:
        problems.append(f"{len(doc['witnesses'])} witnesses")
    else:
        rho = witness_radius(doc["witnesses"][0])
        if abs(rho - bound) > WITNESS_TOL:
            problems.append(f"witness radius {rho!r} vs bound {bound!r}")
    for name, want in PINNED_STATS.get((r, s), {}).items():
        if doc["stats"].get(name) != want:
            problems.append(f"stats.{name} = {doc['stats'].get(name)}, pinned {want}")
    return problems


class Workload:
    """Interface every workload implements."""

    name = ""
    item = ""  # the per-workload name of items_per_s, e.g. classes_per_s
    per_graph_ops = False  # ops are single graph files, so op latency is reported

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        """Generate the inputs (after sgraph has been imported)."""

    def inputs(self) -> bytes:
        """The generated inputs, serialized; equal seeds give equal bytes."""
        raise NotImplementedError

    def run_pass(self, mods) -> list[Op]:
        raise NotImplementedError

    def problems(self, ops: list[Op]) -> list[str | None]:
        """One entry per op: None when its output checks out."""
        raise NotImplementedError

    def items(self, ops: list[Op]) -> int:
        raise NotImplementedError

    def counts(self, ops: list[Op]) -> dict:
        """Exact per-pass counters reported by the program."""
        return {}

    def spaces(self) -> list[tuple[int, int]]:
        """(r, s) spaces whose bare enumeration the traced run times."""
        return []


class VerifyLadder(Workload):
    """`sgraph verify sizes r s --stretch` on the ladder, one job."""

    name = "verify-ladder"
    item = "classes_per_s"
    LADDER = ((3, 5), (4, 4), (3, 6))

    def argv(self, r, s):
        return ["verify", "sizes", str(r), str(s), "--stretch"]

    def inputs(self) -> bytes:
        return json.dumps([self.argv(r, s) for r, s in self.LADDER]).encode()

    def run_pass(self, mods):
        return [call_cli(mods, self.argv(r, s), (r, s)) for r, s in self.LADDER]

    def certs(self, op: Op) -> list[dict]:
        return [json.loads(op.out)]

    def problems(self, ops):
        out = []
        for op in ops:
            if op.rc != 0:
                out.append(f"{op.key}: exit code {op.rc}: {op.err[-400:]}")
                continue
            found = sizes_cert_problems(json.loads(op.out), *op.key)
            out.append(f"{op.key}: " + "; ".join(found) if found else None)
        return out

    def _stats(self, ops):
        for op in ops:
            try:
                docs = self.certs(op)
            except (ValueError, KeyError):
                continue  # no certificate; problems() reports the op
            for doc in docs:
                yield doc["stats"]

    def items(self, ops):
        return sum(st["classes"] for st in self._stats(ops))

    def counts(self, ops):
        keys = ("classes", "admissible", "eigensolved", "pruned")
        total = dict.fromkeys(keys, 0)
        for st in self._stats(ops):
            for k in keys:
                total[k] += st[k]
        return total

    def spaces(self):
        return list(self.LADDER)


class VerifyOrderJobs2(VerifyLadder):
    """`sgraph verify order 8 --jobs 2`: splits (3,5) and (4,4) through the Pool."""

    name = "verify-order-jobs2"
    N = 8
    ARGV = ["verify", "order", str(N), "--jobs", "2"]

    def inputs(self) -> bytes:
        return json.dumps([self.ARGV]).encode()

    def run_pass(self, mods):
        return [call_cli(mods, self.ARGV, ("order", self.N))]

    def certs(self, op):
        return json.loads(op.out)["per_split"]

    def problems(self, ops):
        splits = self.spaces()
        balanced = splits[-1]
        out = []
        for op in ops:
            if op.rc != 0:
                out.append(f"exit code {op.rc}: {op.err[-400:]}")
                continue
            doc = json.loads(op.out)
            found = []
            bound = closed_form_bound(*balanced)
            if doc.get("verdict") != "CONFIRMED":
                found.append(f"verdict {doc.get('verdict')}: {doc.get('detail')}")
            if doc.get("winning_split") != list(balanced):
                found.append(f"winning split {doc.get('winning_split')}")
            if abs(doc["claimed_bound"] - bound) > 1e-12:
                found.append(f"claimed bound {doc['claimed_bound']!r} vs {bound!r}")
            if abs(doc["observed_max"] - bound) > BOUND_TOL:
                found.append(f"observed max {doc['observed_max']!r} vs {bound!r}")
            per_split = doc["per_split"]
            if [(c["r"], c["s"]) for c in per_split] != splits:
                found.append("wrong splits")
            else:
                for c in per_split:
                    found.extend(sizes_cert_problems(c, c["r"], c["s"]))
            out.append("; ".join(found) if found else None)
        return out

    def spaces(self):
        return [(r, self.N - r) for r in range(3, self.N // 2 + 1)]


class SampleBounds(Workload):
    """search.spot_check_random at (6,8) and (8,10), seeds from the benchmark seed."""

    name = "sample-bounds"
    item = "trials_per_s"
    # Accepted trials per size.  A pass's cost follows the number of draws,
    # rejected ones included, which varies with the seed: over ten seeds the
    # draws at (8,10) spread 0.058 with 400 trials and 0.039 with 1000
    # (quartile distance / median).
    PLAN = ((6, 8, 2000), (8, 10, 1000))

    def setup(self, workdir):
        rng = random.Random(self.seed)
        self.plan = [(r, s, trials, rng.getrandbits(32)) for r, s, trials in self.PLAN]

    def inputs(self) -> bytes:
        return json.dumps(self.plan).encode()

    def run_pass(self, mods):
        ops = []
        for r, s, trials, seed in self.plan:
            t0 = time.perf_counter()
            try:
                rep = mods.search.spot_check_random(r, s, trials, seed)
                out, rc, err = rep.to_json_dict(), 0, ""
            except Exception:
                out, rc, err = {}, None, traceback.format_exc()
            ops.append(Op((r, s, trials, seed), time.perf_counter() - t0, rc, out, err))
        return ops

    def problems(self, ops):
        out = []
        for op in ops:
            if op.rc != 0:
                out.append(f"{op.key}: raised: {op.err[-400:]}")
                continue
            r, s, trials, seed = op.key
            rep = op.out
            bound = closed_form_bound(r, s)
            found = []
            if (rep["r"], rep["s"], rep["trials"], rep["seed"]) != op.key:
                found.append("report is for other parameters")
            if rep["violations"] != 0:
                found.append(f"{rep['violations']} violations")
            if abs(rep["bound"] - bound) > 1e-12:
                found.append(f"bound {rep['bound']!r} vs {bound!r}")
            if not 0.0 < rep["max_observed"] <= bound + BOUND_TOL:
                found.append(f"max observed {rep['max_observed']!r} vs bound {bound!r}")
            out.append(f"{op.key}: " + "; ".join(found) if found else None)
        return out

    def items(self, ops):
        return sum(op.out["trials"] for op in ops if op.rc == 0)

    def counts(self, ops):
        ok = [op.out for op in ops if op.rc == 0]
        return {
            "trials": sum(rep["trials"] for rep in ok),
            "resampled": sum(rep["resampled"] for rep in ok),
        }


@dataclass(frozen=True)
class CorpusGraph:
    """One generated ``sg`` file and the properties planted in it."""

    name: str
    n: int
    edges: tuple[tuple[int, int, int], ...]
    bipartite: bool
    sides: tuple[int, int] | None  # (smaller, larger) side sizes when bipartite
    balanced: bool
    planted_cycle: int  # length of the planted cycle (negative unless balanced)
    twin: str | None  # a relabeled and switched copy of this graph, if any

    @property
    def text(self) -> str:
        lines = [f"# analyze-corpus {self.name}", f"sg {self.n} {len(self.edges)}"]
        lines += [f"{u} {v} {'+1' if s > 0 else '-1'}" for u, v, s in self.edges]
        return "\n".join(lines) + "\n"


def _planted_graph(rng: random.Random, n: int, bipartite: bool, balanced: bool,
                   m_target: int):
    """A connected graph with planted bipartiteness, balance and one cycle.

    Signs come from a random switching of the all-positive graph, which is
    balanced; flipping one edge of the planted cycle makes that cycle
    negative, so the graph is unbalanced with a negative cycle of known length.
    """
    verts = list(range(n))
    rng.shuffle(verts)
    edges: set[tuple[int, int]] = set()

    def add(u, v):
        edges.add((min(u, v), max(u, v)))

    if bipartite:
        r = rng.randint(2, n // 2)
        left, right = verts[:r], verts[r:]
        side = {v: 0 for v in left} | {v: 1 for v in right}
        reached = {0: [left[0]], 1: [right[0]]}
        add(left[0], right[0])
        for v in rng.sample(left[1:] + right[1:], n - 2):
            add(v, rng.choice(reached[1 - side[v]]))
            reached[side[v]].append(v)
        half = 3 if r >= 3 and rng.random() < 0.5 else 2
        a, b = rng.sample(left, half), rng.sample(right, half)
        cycle = [x for pair in zip(a, b) for x in pair]
        sides = (r, n - r)
        max_m = r * (n - r)

        def allowed(u, v):
            return side[u] != side[v]
    else:
        for i in range(1, n):
            add(verts[i], verts[rng.randrange(i)])
        cycle = rng.sample(verts, 3)
        sides = None
        max_m = n * (n - 1) // 2

        def allowed(u, v):
            return True

    for i, u in enumerate(cycle):
        add(u, cycle[(i + 1) % len(cycle)])
    while len(edges) < min(m_target, max_m):
        u, v = rng.sample(verts, 2)
        if allowed(u, v):
            add(u, v)
    switched = {v for v in verts if rng.random() < 0.5}
    sign = {e: -1 if (e[0] in switched) != (e[1] in switched) else 1 for e in edges}
    if not balanced:
        e = (min(cycle[0], cycle[1]), max(cycle[0], cycle[1]))
        sign[e] = -sign[e]
    return tuple(sorted((u, v, sign[(u, v)]) for u, v in edges)), sides, len(cycle)


def _relabel_and_switch(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    switched = {v for v in range(n) if rng.random() < 0.5}
    out = []
    for u, v, s in edges:
        if (u in switched) != (v in switched):
            s = -s
        a, b = perm[u], perm[v]
        out.append((min(a, b), max(a, b), s))
    return tuple(sorted(out))


# Graph files with n <= KEY_MAX_N also get canonical_key.  Its cost grows
# steeply with n and is heavy-tailed from n = 10 on (13-245 ms per sparse
# n = 10 graph on a 2-vCPU x86-64 box), which made a pass's cost depend on
# the seed by up to 40%.  At n <= 9, with the fixed schedule below and this
# many graphs, the cost of a pass over ten seeds spread 0.025 (quartile
# distance / median, each graph timed interleaved across the seeds).
KEY_MAX_N = 9
SMALL_BASES = 120  # each also gets a relabeled, switched twin: 240 keyed files
LARGE_GRAPHS = 70  # n = 12..64: check and spectrum only


def make_corpus(seed: int) -> list[CorpusGraph]:
    """The seeded analyze-corpus inputs; equal seeds give equal graphs."""
    rng = random.Random(seed)
    # Orders, densities (edges per vertex) and planted properties follow a
    # fixed schedule and only the structure is random, so a pass costs about
    # the same for every seed.
    orders = KEY_MAX_N - 5
    specs = [(6 + i % orders, True, 1.3 + 0.7 * (i // orders) / (SMALL_BASES // orders - 1))
             for i in range(SMALL_BASES)]
    specs += [(12 + 52 * i // (LARGE_GRAPHS - 1), False,
               1.5 + 1.5 * (7 * i % LARGE_GRAPHS) / (LARGE_GRAPHS - 1))
              for i in range(LARGE_GRAPHS)]
    graphs: list[CorpusGraph] = []
    for i, (n, keyed, density) in enumerate(specs):
        bipartite = i % 2 == 0
        balanced = i % 5 < 2
        edges, sides, cyc = _planted_graph(rng, n, bipartite, balanced, round(n * density))
        name = f"g{len(graphs):03d}.sg"
        twin = f"g{len(graphs) + 1:03d}.sg" if keyed else None
        graphs.append(CorpusGraph(name, n, edges, bipartite, sides, balanced, cyc, twin))
        if keyed:
            graphs.append(CorpusGraph(twin, n, _relabel_and_switch(rng, n, edges),
                                      bipartite, sides, balanced, cyc, name))
    return graphs


class AnalyzeCorpus(Workload):
    """Per graph file: `sgraph check`, `sgraph spectrum`, and canonical_key for n <= 10."""

    name = "analyze-corpus"
    item = "graphs_per_s"
    per_graph_ops = True

    def setup(self, workdir):
        self.graphs = make_corpus(self.seed)
        self.paths = {}
        for g in self.graphs:
            path = workdir / g.name
            path.write_text(g.text)
            self.paths[g.name] = str(path)

    def inputs(self) -> bytes:
        return "".join(g.text for g in self.graphs).encode()

    def run_pass(self, mods):
        ops = []
        for g in self.graphs:
            path = self.paths[g.name]
            t0 = time.perf_counter()
            check = call_cli(mods, ["check", path], ())
            spec = call_cli(mods, ["spectrum", path], ())
            key, err = None, ""
            if g.n <= KEY_MAX_N:
                try:
                    key = mods.core.canonical_key(mods.sgio.load(path))
                except Exception:
                    err = traceback.format_exc()
            rc = (check.rc, spec.rc, None if err else 0)
            out = {"check": check.out, "spectrum": spec.out, "key": key}
            ops.append(Op((g.name,), time.perf_counter() - t0, rc, out,
                          check.err + spec.err + err))
        return ops

    def problems(self, ops):
        keys = {op.key[0]: op.out["key"] for op in ops}
        by_name = {g.name: g for g in self.graphs}
        out = []
        for op in ops:
            g = by_name[op.key[0]]
            if op.rc != (0, 0, 0):
                out.append(f"{g.name}: exit codes {op.rc}: {op.err[-400:]}")
                continue
            found = self._graph_problems(g, json.loads(op.out["check"]),
                                         json.loads(op.out["spectrum"]))
            if g.twin is not None and keys[g.name] != keys.get(g.twin):
                found.append(f"canonical_key differs from its twin {g.twin}")
            out.append(f"{g.name}: " + "; ".join(found) if found else None)
        return out

    @staticmethod
    def _graph_problems(g: CorpusGraph, check: dict, spec: dict) -> list[str]:
        found = []
        sign_of = {frozenset((u, v)): s for u, v, s in g.edges}
        a = adjacency(g.n, g.edges)
        if (check["n"], check["m"]) != (g.n, len(g.edges)):
            found.append("check reports the wrong n or m")
        if check["bipartite"] != g.bipartite:
            found.append(f"bipartite={check['bipartite']}, planted {g.bipartite}")
        elif g.bipartite and tuple(sorted(check["sides"])) != g.sides:
            found.append(f"sides {check['sides']}, planted {g.sides}")
        elif not g.bipartite:
            p = cycle_problem(check["odd_cycle"], sign_of)
            if p or check["odd_cycle"]["length"] % 2 == 0:
                found.append(f"odd cycle witness: {p or 'even length'}")
        if check["balanced"] != g.balanced:
            found.append(f"balanced={check['balanced']}, planted {g.balanced}")
        neg_c4 = has_negative_c4(a)
        if (check["neg_c4"] is not None) != neg_c4:
            found.append(f"neg_c4 reported {check['neg_c4']}, exists={neg_c4}")
        elif neg_c4:
            p = cycle_problem(check["neg_c4"], sign_of, want_sign=-1)
            if p or check["neg_c4"]["length"] != 4:
                found.append(f"neg_c4 witness: {p or 'not a 4-cycle'}")
        if g.balanced:
            if check["girth_neg"] is not None or check["neg_cycle"] is not None:
                found.append("negative cycle reported on a balanced graph")
        else:
            cyc = check["neg_cycle"]
            p = cycle_problem(cyc, sign_of, want_sign=-1) if cyc else "missing"
            if p:
                found.append(f"negative cycle witness: {p}")
            elif not cyc["length"] == check["girth_neg"] <= g.planted_cycle:
                found.append(f"girth_neg {check['girth_neg']} vs planted {g.planted_cycle}")
            elif neg_c4 and check["girth_neg"] > 4:
                found.append("girth_neg above 4 with a negative 4-cycle present")
        want = np.linalg.eigvalsh(a)[::-1]
        got = np.asarray(spec["eigenvalues"], dtype=float)
        rho = float(np.max(np.abs(want)))
        if (spec["n"], spec["m"]) != (g.n, len(g.edges)) or got.shape != want.shape:
            found.append("spectrum has the wrong shape")
        elif np.max(np.abs(got - want)) > SPECTRUM_TOL * (1 + rho):
            found.append(f"eigenvalues off by {np.max(np.abs(got - want)):.3g}")
        elif abs(spec["rho"] - rho) > SPECTRUM_TOL * (1 + rho):
            found.append(f"rho {spec['rho']!r} vs {rho!r}")
        return found

    def items(self, ops):
        return len(ops)


WORKLOADS = {
    w.name: w for w in (VerifyLadder, VerifyOrderJobs2, SampleBounds, AnalyzeCorpus)
}
