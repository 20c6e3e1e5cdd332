"""Spans recorded from outside the program, and the metric math on them.

The benchmark wraps public sgraph callables at the module attribute where
their caller looks them up (``sgraph.search.run_search``,
``sgraph.cli.graph_spectrum``, ...).  Each wrapped call records one span:
layer name, start, end and the index of the enclosing span.  Spans stay in
memory until the run ends; nothing is written while a pass is timed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (module key, attribute, span name).  The module key names the sgraph
# module whose attribute is replaced; the span name is the layer and the
# public function that runs.  Order matters only for readability.
WRAP_TARGETS = (
    ("cli", "main", "cli.main"),
    ("search", "verify_fixed_sizes", "search.verify_fixed_sizes"),
    ("search", "verify_fixed_order", "search.verify_fixed_order"),
    ("search", "run_search", "search.run_search"),
    ("search", "switching_isomorphic", "core.switching_isomorphic"),
    ("search", "extremal_graph", "extremal.extremal_graph"),
    ("search", "bound_fixed_sizes", "extremal.bound_fixed_sizes"),
    ("search", "bound_fixed_order", "extremal.bound_fixed_order"),
    ("search", "graph_spectrum", "spectral.graph_spectrum"),
    ("search", "spot_check_random", "search.spot_check_random"),
    ("cli", "graph_spectrum", "spectral.graph_spectrum"),
    ("cli", "bipartition", "core.bipartition"),
    ("cli", "is_balanced", "core.is_balanced"),
    ("cli", "has_negative_c4", "core.has_negative_c4"),
    ("cli", "shortest_negative_cycle", "core.shortest_negative_cycle"),
    ("sgio", "load", "sgio.load"),
    ("sgio", "dumps", "sgio.dumps"),
    ("core", "canonical_key", "core.canonical_key"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process and a single caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, attrs_of=None):
        """Return fn wrapped so that each call records a span named name.

        ``attrs_of(args, kwargs)`` may return a dict stored on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, attrs_of(args, kwargs) if attrs_of else {})
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, sp in enumerate(self.spans):
            if sp.parent is not None:
                kids.setdefault(sp.parent, []).append(i)
        return kids

    def self_time(self, idx: int, kids: dict[int, list[int]]) -> float:
        sp = self.spans[idx]
        return self_time(
            sp.start, sp.end, [(self.spans[c].start, self.spans[c].end) for c in kids.get(idx, ())]
        )


def missing_targets(modules: dict) -> list[str]:
    """WRAP_TARGETS the modules no longer have, as ``module.attribute``.

    install skips them; the traced result counts them, so that a refactor
    that drops an import shows instead of reading as a layer with no work.
    """
    return [f"{key}.{attr}" for key, attr, _ in WRAP_TARGETS
            if getattr(modules[key], attr, None) is None]


def install(tracer: Tracer, modules: dict, attrs_for: dict | None = None) -> list:
    """Wrap every WRAP_TARGETS callable the modules have; return the undo
    list for uninstall."""
    attrs_for = attrs_for or {}
    undo = []
    for mod_key, attr, name in WRAP_TARGETS:
        mod = modules[mod_key]
        original = getattr(mod, attr, None)
        if original is None:
            continue
        setattr(mod, attr, tracer.wrap(original, name, attrs_for.get(name)))
        undo.append((mod, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by the intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its children cover.

    Children may nest inside each other or overlap; covered time is counted
    once, and any part of a child outside the span is ignored.
    """
    return (end - start) - union_length(child_intervals, start, end)


def ratio(num: float, base: float) -> float:
    """num / base, or 0.0 when the base is zero (the layer did no work)."""
    return num / base if base else 0.0


def has_p90_tail(count: int) -> bool:
    """Whether p90 of count samples keeps at least ten samples beyond it:
    count * 10 / 100 >= 10, so from 100 samples up."""
    return count >= 100


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * float(p) / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)
