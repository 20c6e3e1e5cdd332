"""Command-line front end.

Subcommands: ``spectrum`` (eigenvalues of a graph file), ``check``
(balance / negative-4-cycle / bipartiteness report), ``construct`` (write
the extremal graph), ``bound`` (closed-form bounds), ``verify``
(exhaustive certification, by partite sizes or by order).

Exit codes: 0 success or CONFIRMED, 1 REFUTED, 2 parse, usage or I/O
error, 3 numeric or internal failure (a failed internal check or any
other exception, such as one raised in a worker), 4 bad parameters,
5 budget exceeded.  ``main`` writes a command's output once, after the
command finishes, so output that cannot be written (a full device, a
closed pipe or descriptor 1) exits 2; only argparse writes ``--help``
itself.  Machine output is JSON (``--csv`` switches the verify
statistics to CSV); every JSON document carries ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import search, sgio
from .core import (
    CycleWitness,
    bipartition,
    has_negative_c4,
    shortest_negative_cycle,
)
from .errors import (
    BadParamsError,
    BudgetExceededError,
    NotBipartiteError,
    ParseError,
    SgraphError,
)
from .extremal import (
    bound_fixed_order,
    bound_fixed_sizes,
    bound_report_order,
    bound_report_sizes,
    extremal_graph,
)
from .spectral import graph_spectrum

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_BAD_PARAMS = 4
EXIT_BUDGET = 5

# the first matching row gives the exit code; any other exception is EXIT_NUMERIC
EXIT_CODES = (
    ((ParseError, OSError, UnicodeDecodeError), EXIT_PARSE),
    (BudgetExceededError, EXIT_BUDGET),
    (BadParamsError, EXIT_BAD_PARAMS),
)


def _json(doc: dict) -> str:
    return json.dumps({"schema": 1, **doc}) + "\n"


def _witness_dict(w: CycleWitness | None) -> dict | None:
    if w is None:
        return None
    return {"vertices": list(w.vertices), "sign": w.sign, "length": w.length}


def _cmd_spectrum(args) -> tuple[int, str]:
    g = sgio.load(args.path)
    return EXIT_OK, _json(graph_spectrum(g).to_json_dict())


def _cmd_check(args) -> tuple[int, str]:
    g = sgio.load(args.path)
    try:
        sides = bipartition(g)
        bip: dict = {"bipartite": True, "sides": [sides.r, sides.s], "odd_cycle": None}
    except NotBipartiteError as exc:
        bip = {"bipartite": False, "sides": None, "odd_cycle": _witness_dict(exc.witness)}
    neg_cycle = shortest_negative_cycle(g)
    return EXIT_OK, _json(
        {
            "n": g.n,
            "m": g.m,
            **bip,
            # None exactly when no edge is frustrated, so the graph is balanced
            "balanced": neg_cycle is None,
            "neg_c4": _witness_dict(has_negative_c4(g)),
            "girth_neg": neg_cycle.length if neg_cycle else None,
            "neg_cycle": _witness_dict(neg_cycle),
        }
    )


def _cmd_construct(args) -> tuple[int, str]:
    g, _ = extremal_graph(args.r, args.s)
    if args.out == "-":
        return EXIT_OK, sgio.dumps(g)
    sgio.dump(g, args.out)
    return EXIT_OK, ""


def _cmd_bound(args) -> tuple[int, str]:
    # the plain value is the closed form alone; only --json builds the
    # construction for its radius
    sizes = (args.r, args.s)
    if args.n is not None and sizes == (None, None):
        params, bound, report = (args.n,), bound_fixed_order, bound_report_order
    elif args.n is None and None not in sizes:
        params, bound, report = sizes, bound_fixed_sizes, bound_report_sizes
    else:
        raise BadParamsError("give either --n or both --r and --s")
    if args.json:
        return EXIT_OK, _json(report(*params).to_json_dict())
    return EXIT_OK, repr(bound(*params)) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    if args.mode == "sizes":
        if args.b is None:
            raise BadParamsError("verify sizes takes r and s")
        cert = search.verify_fixed_sizes(
            args.a,
            args.b,
            jobs=args.jobs,
            stretch=args.stretch,
        )
        rows = [cert]
    else:
        if args.b is not None:
            raise BadParamsError("verify order takes a single n")
        cert = search.verify_fixed_order(args.a, jobs=args.jobs, stretch=args.stretch)
        rows = cert.per_split
    code = EXIT_OK if cert.verdict == search.CONFIRMED else EXIT_REFUTED
    if args.csv:
        lines = [search.CSV_HEADER, *map(search.certificate_csv_row, rows)]
        return code, "\n".join(lines) + "\n"
    return code, _json(cert.to_json_dict())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgraph", description="signed-graph spectral toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of a signed graph file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("check", help="balance / negative C4 / bipartiteness report")
    p.add_argument("path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="write the extremal graph for sizes (r, s)")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("out", help="output path, or - for stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bound", help="closed-form spectral-radius bound")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--json", action="store_true", help="full report instead of the value")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="exhaustive verification of the extremal claims")
    p.add_argument("mode", choices=["sizes", "order"])
    p.add_argument("a", type=int, help="r (sizes mode) or n (order mode)")
    p.add_argument("b", type=int, nargs="?", help="s (sizes mode only)")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="search on at most this many processes, the calling one included; "
        f"a search of fewer than {search.MINIMA_PER_WORKER:,} orbit minima "
        "stays in the calling process",
    )
    p.add_argument(
        "--stretch",
        action="store_true",
        help=f"allow searches of up to {search.STRETCH_BUDGET:,} orbit minima "
        f"(default limit {search.DEFAULT_BUDGET:,}, the price of verify order 10)",
    )
    p.add_argument("--csv", action="store_true", help="statistics as CSV")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
        if text:
            if sys.stdout is None:  # descriptor 1 was closed at startup
                raise OSError("standard output is closed")
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError:  # so Python's flush at exit cannot turn 2 into 120
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise
        return code
    except Exception as exc:  # every failure maps to a code, never REFUTED
        if isinstance(exc, (SgraphError, OSError, UnicodeDecodeError)):
            print(f"error: {exc}", file=sys.stderr)
        else:  # not one of ours: name its type
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(
            (code for types, code in EXIT_CODES if isinstance(exc, types)), EXIT_NUMERIC
        )


if __name__ == "__main__":
    sys.exit(main())
