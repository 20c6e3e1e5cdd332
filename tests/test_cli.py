"""Command-line interface: outputs, schemas, and exit codes."""

import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sgraph import cli, core, errors, extremal, search, sgio
from sgraph.errors import (
    BadParamsError,
    BudgetExceededError,
    ConvergenceFailureError,
    NotBipartiteError,
    ParseError,
    SgraphError,
    StructureCheckError,
)
from sgraph.extremal import bound_fixed_order, extremal_graph


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _instance(cls: type) -> SgraphError:
    """An instance of an sgraph.errors class, whatever its arguments."""
    args = {
        ParseError: (1, "p"),
        NotBipartiteError: (core.CycleWitness((0, 1, 2), 1),),
        StructureCheckError: ("clause", "c"),
    }
    return cls(*args.get(cls, ("e",)))


# every class sgraph.errors defines, with its exit code: these three have
# their own, every other one is a failed internal check and exits 3
SGRAPH_ERRORS = [
    (_instance(cls), {ParseError: 2, BadParamsError: 4, BudgetExceededError: 5}.get(cls, 3))
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, SgraphError)
]


@pytest.fixture
def g33_path(tmp_path):
    g, _ = extremal_graph(3, 3)
    path = tmp_path / "g33.sg"
    sgio.dump(g, path)
    return str(path)


class TestSpectrum:
    def test_extremal_3_3(self, capsys, g33_path):
        code, out, _ = run(capsys, "spectrum", g33_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert abs(doc["lambda1"] - math.sqrt(3)) < 1e-9
        assert abs(doc["rho"] - math.sqrt(3)) < 1e-9

    def test_empty_graph(self, capsys, tmp_path):
        path = tmp_path / "empty.sg"
        path.write_text("sg 4 0\n")
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalues"] == [0.0] * 4

    def test_malformed_header_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.sg"
        path.write_text("sg nope 3\n")
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == 2
        assert "line 1" in err

    def test_order_above_dense_limit_exit_4(self, capsys, tmp_path):
        # one past MAX_DENSE_N; the guard must fire before any allocation
        path = tmp_path / "huge.sg"
        path.write_text("sg 2049 0\n")
        code, out, err = run(capsys, "spectrum", str(path))
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "spectrum"])
    @pytest.mark.parametrize("n", ["1000001", "99999999999999999999"])
    def test_order_above_vertex_limit_exit_2(self, capsys, tmp_path, command, n):
        # sgio.MAX_VERTICES + 1 and 10^20: refused by the parser, never
        # an OverflowError or an O(n) allocation in check
        path = tmp_path / "huge.sg"
        path.write_text(f"sg {n} 0\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_convergence_failure_exit_3(self, capsys, g33_path, monkeypatch):
        def boom(_):
            raise ConvergenceFailureError("synthetic")

        monkeypatch.setattr(cli, "graph_spectrum", boom)
        code, _, err = run(capsys, "spectrum", g33_path)
        assert code == 3

    def test_negative_cycle_guard_exit_3(self, capsys, g33_path, monkeypatch):
        # the guard's failure is an internal error, not REFUTED (exit 1)
        monkeypatch.setattr(core.CycleWitness, "is_chordless", lambda self, g: False)
        code, out, err = run(capsys, "check", g33_path)
        assert code == 3 and out == ""
        assert err.startswith("error: ")


class TestCheck:
    def test_extremal_4_5(self, capsys, tmp_path):
        g, _ = extremal_graph(4, 5)
        path = tmp_path / "g45.sg"
        sgio.dump(g, path)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["balanced"] is False
        assert doc["neg_c4"] is None
        assert doc["girth_neg"] == 6
        assert doc["bipartite"] is True and doc["sides"] == [4, 5]

    def test_all_positive_k33(self, capsys, tmp_path):
        edges = [(u, v, 1) for u in range(3) for v in range(3, 6)]
        from sgraph import SignedGraph

        path = tmp_path / "k33.sg"
        sgio.dump(SignedGraph.from_edge_list(6, edges), path)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["balanced"] is True and doc["girth_neg"] is None

    def test_k22_one_negative_witness(self, capsys, tmp_path):
        from sgraph import SignedGraph

        g = SignedGraph.from_edge_list(
            4, [(0, 2, -1), (0, 3, 1), (1, 2, 1), (1, 3, 1)]
        )
        path = tmp_path / "k22.sg"
        sgio.dump(g, path)
        code, out, _ = run(capsys, "check", str(path))
        doc = json.loads(out)
        assert doc["neg_c4"]["sign"] == -1
        assert len(doc["neg_c4"]["vertices"]) == 4


    def test_triangle_not_bipartite(self, capsys, tmp_path):
        path = tmp_path / "triangle.sg"
        path.write_text("sg 3 3\n0 1 +1\n1 2 +1\n0 2 -1\n")
        code, out, err = run(capsys, "check", str(path))
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["bipartite"] is False and doc["sides"] is None
        assert doc["odd_cycle"] == {"vertices": [0, 1, 2], "sign": -1, "length": 3}


class TestNoVertices:
    """A graph with no vertices is valid input for every reading command."""

    @pytest.fixture
    def empty_path(self, tmp_path):
        path = tmp_path / "none.sg"
        path.write_text("sg 0 0\n")
        return str(path)

    def test_spectrum(self, capsys, empty_path):
        code, out, err = run(capsys, "spectrum", empty_path)
        assert code == 0 and err == ""
        assert out == (
            '{"schema": 1, "n": 0, "m": 0, "eigenvalues": [], "lambda1": 0.0, '
            '"rho": 0.0, "residual": 0.0}\n'
        )

    def test_check(self, capsys, empty_path):
        code, out, err = run(capsys, "check", empty_path)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert (doc["n"], doc["m"], doc["bipartite"], doc["balanced"]) == (0, 0, True, True)
        assert doc["odd_cycle"] is None and doc["neg_cycle"] is None


class TestConstruct:
    def test_3_3_file(self, capsys, tmp_path):
        out_path = tmp_path / "out.sg"
        code, _, _ = run(capsys, "construct", "3", "3", str(out_path))
        assert code == 0
        g = sgio.load(out_path)
        assert g.n == 6 and g.m == 6
        assert sum(1 for *_, s in g.edges if s == -1) == 1

    def test_3_4_edge_count(self, capsys, tmp_path):
        out_path = tmp_path / "out.sg"
        code, _, _ = run(capsys, "construct", "3", "4", str(out_path))
        assert code == 0
        assert sgio.load(out_path).m == 8

    def test_bad_params_exit_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "2", "5", str(tmp_path / "x.sg"))
        assert code == 4

    def test_past_dense_limit_exit_4(self, capsys):
        # r + s = 2049: sgraph spectrum could not read the file, so it is
        # refused before anything is built; 2048 is written
        code, out, err = run(capsys, "construct", "3", "2046", "-")
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out, _ = run(capsys, "construct", "3", "2045", "-")
        assert code == 0 and sgio.loads(out).n == 2048


class TestBound:
    def test_sizes(self, capsys):
        code, out, _ = run(capsys, "bound", "--r", "3", "--s", "4")
        assert code == 0
        assert abs(float(out) - math.sqrt(5)) < 1e-12

    def test_order_even(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "8")
        assert code == 0
        assert abs(float(out) - (2 + math.sqrt(84)) / 4) < 1e-12

    def test_order_json(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "9", "--json")
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["branch"] == "odd-n"
        assert abs(doc["gap"]) < 1e-9

    def test_order_past_dense_limit_exit_4(self, capsys):
        # the bound itself holds at n = 10^7; the construction's radius
        # is what cannot be computed, so the error names the dense limit
        code, out, err = run(capsys, "bound", "--n", str(10**7), "--json")
        assert code == 4 and out == ""
        assert err.startswith("error: ") and "dense-matrix limit" in err

    def test_plain_order_past_dense_limit_prints_closed_form(self, capsys, monkeypatch):
        # the plain value needs no construction, so none is built
        def unbuildable(r, s):
            raise AssertionError(f"built the construction for ({r},{s})")

        monkeypatch.setattr(extremal, "extremal_graph", unbuildable)
        code, out, err = run(capsys, "bound", "--n", str(10**7))
        assert code == 0 and err == ""
        assert out == repr(bound_fixed_order(10**7)) + "\n"
        n = 10**7
        assert abs(float(out) - (n - 6 + math.sqrt((n - 2) * (n + 6))) / 4) <= 1e-6

    def test_small_n_exit_4(self, capsys):
        code, _, _ = run(capsys, "bound", "--n", "5")
        assert code == 4

    def test_conflicting_params_exit_4(self, capsys):
        code, _, _ = run(capsys, "bound", "--n", "8", "--r", "3", "--s", "4")
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [("--r", "3", "--s", str(10**200)), ("--n", str(10**400))],
        ids=["sizes", "order"],
    )
    def test_beyond_float_range_exit_4(self, capsys, argv):
        # the closed form's integer terms overflow a float: bad parameters,
        # never an OverflowError traceback with exit 1, the REFUTED code
        code, out, err = run(capsys, "bound", *argv)
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_sizes_3_3(self, capsys):
        code, out, _ = run(capsys, "verify", "sizes", "3", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["verdict"] == "CONFIRMED"

    def test_order_6(self, capsys):
        code, out, _ = run(capsys, "verify", "order", "6")
        assert code == 0
        assert json.loads(out)["verdict"] == "CONFIRMED"

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "sizes", "3", "3", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("schema,r,s,")
        assert lines[1].startswith("1,3,3,")

    def test_budget_exit_5(self, capsys):
        # r*s = 30 needs --stretch; r*s = 42 is past the hard budget
        code, _, err = run(capsys, "verify", "sizes", "5", "6")
        assert code == 5
        code, _, err = run(capsys, "verify", "sizes", "6", "7", "--stretch")
        assert code == 5

    def test_budget_refused_before_construction(self, capsys, monkeypatch):
        # r*s = 3 * 10^11 is refused before the construction on 3 + 10^11
        # vertices is built
        def unbuildable(r, s):
            raise AssertionError(f"built the construction for ({r},{s})")

        monkeypatch.setattr(search, "extremal_graph", unbuildable)
        code, out, _ = run(capsys, "verify", "sizes", "3", str(10**11))
        assert code == 5 and out == ""

    @pytest.fixture
    def failing_fan_out(self, monkeypatch):
        """A stand-in fan-out that raises, on two usable CPUs, so that
        --jobs 2 asks for it on any machine."""

        def fan_out(work, workers):
            raise RuntimeError("worker died")

        monkeypatch.setattr(search, "_fan_out", fan_out)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_worker_failure_exit_3(self, capsys, failing_fan_out):
        # an exception re-raised by the fan-out is an internal failure, exit
        # 3, never a traceback with exit 1 (REFUTED)
        code, out, err = run(capsys, "verify", "sizes", "3", "3", "--jobs", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "worker died" in err

    def test_order_worker_failure_exit_3(self, capsys, failing_fan_out):
        # the order search's one fan-out fails the whole command: no split is
        # printed
        code, out, err = run(capsys, "verify", "order", "8", "--jobs", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "worker died" in err

    @pytest.mark.parametrize(
        "exc,code",
        [
            (OSError("o"), 2),
            (MemoryError(), 3),
            (np.linalg.LinAlgError("l"), 3),
            (ValueError("v"), 3),
        ]
        + SGRAPH_ERRORS,
        ids=lambda x: type(x).__name__ if isinstance(x, BaseException) else str(x),
    )
    def test_no_failure_exits_1(self, capsys, monkeypatch, exc, code):
        # exit 1 is kept for a REFUTED verdict; every failure maps elsewhere
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(search, "verify_fixed_sizes", fail)
        got, out, err = run(capsys, "verify", "sizes", "3", "3")
        assert got == code and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if isinstance(exc, (SgraphError, OSError)):  # our own words, no type name
            assert err == f"error: {exc}\n"

    def test_refuted_exits_1(self, capsys, monkeypatch):
        # a search that finds two maximizer classes: REFUTED on stdout,
        # exit 1, and nothing on stderr
        g, _ = extremal_graph(3, 4)
        rho = extremal.bound_fixed_sizes(3, 4)
        monkeypatch.setattr(
            search,
            "run_search",
            lambda space: search.SearchResult(3, 4, rho, (g, g), search.SearchStats()),
        )
        code, out, err = run(capsys, "verify", "sizes", "3", "4")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["verdict"] == "REFUTED"
        assert doc["detail"] == "2 maximizer classes, expected 1"

    def test_missing_s_exit_4(self, capsys):
        code, _, _ = run(capsys, "verify", "sizes", "3")
        assert code == 4

    @pytest.mark.parametrize("extra", [("7",)], ids=["second_size"])
    def test_order_refuses_sizes_options_exit_4(self, capsys, extra):
        # the order search runs every split in full; an option it would
        # ignore is refused, not dropped from the certificate in silence
        code, out, err = run(capsys, "verify", "order", "6", *extra)
        assert code == 4 and out == ""
        assert err.startswith("error: verify order ") and err.count("\n") == 1

    def test_unknown_option_exit_2(self, capsys):
        # argparse rejects a usage error before any command runs
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "sizes", "3", "3", "--connected-only"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            (("order", "9", "--csv"),
             "858408351ff4560e493f3496d759f392c990573fc01a4a0be1af50690683400e"),
            (("order", "10", "--stretch"),
             "b7968470ae2d2c4b9d1f05464ce1c99b9afd63b717087ed7f693e1e20f90e0bf"),
        ],
        ids=["order_9_csv", "order_10_stretch"],
    )
    def test_order_stdout_same_for_any_jobs(self, capsys, monkeypatch, argv, sha256):
        # a real fan-out over two processes: every split's tasks share it,
        # and stdout is the pinned bytes of the one-job run
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        outs = [run(capsys, "verify", *argv, "--jobs", jobs)[1] for jobs in ("1", "2")]
        assert outs[0] == outs[1]
        assert hashlib.sha256(outs[0].encode()).hexdigest() == sha256

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run(capsys, "verify", "sizes", "3", "3", "--jobs", "2")
        _, out2, _ = run(capsys, "verify", "sizes", "3", "3")
        assert out1 == out2
        _, csv1, _ = run(capsys, "verify", "sizes", "3", "3", "--csv")
        _, csv2, _ = run(capsys, "verify", "sizes", "3", "3", "--csv")
        assert csv1 == csv2


class Hung(BaseException):
    """Raised by ``deadline``; not an Exception, so cli.main cannot turn
    it into an exit code."""


@pytest.fixture
def deadline():
    """Fail a test still running after 60 s instead of letting it hang."""

    def hung(signum, frame):
        raise Hung("still running after 60 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched task reaches the children only when they are forked",
)
class TestRealWorkers:
    """verify order 8 --jobs 2 on two usable CPUs, with the calling process
    and one forked child sharing the tasks, and a failure in one of them:
    exit 3 within seconds, one error line, and no child left running."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, deadline):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def fail_in(monkeypatch, *, parent, child):
        """Run ``parent`` in place of a task in the calling process and
        ``child`` in place of one in a worker; either may return None to
        run the task as usual."""
        me = os.getpid()
        task = search._search_chunk

        def chunk(args):
            out = (parent if os.getpid() == me else child)(args)
            return task(args) if out is None else out

        monkeypatch.setattr(search, "_search_chunk", chunk)

    def failed(self, capsys) -> str:
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "order", "8", "--jobs", "2")
        assert time.perf_counter() - start < 10
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert multiprocessing.active_children() == []
        return err

    @staticmethod
    def slow(args):
        # the calling process waits before each task, so the child claims
        # some however late it starts
        time.sleep(0.05)

    def test_dead_worker_exit_3(self, capsys, monkeypatch):
        # a worker killed mid-task (as by the OOM killer) never reports
        self.fail_in(monkeypatch, parent=self.slow, child=lambda args: os._exit(1))
        assert "exited with code 1" in self.failed(capsys)

    def test_worker_exception_exit_3(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("raised in a worker")

        self.fail_in(monkeypatch, parent=self.slow, child=boom)
        assert "RuntimeError: raised in a worker" in self.failed(capsys)

    def test_parent_share_failure_terminates_workers(self, capsys, monkeypatch):
        # the child would sleep through every task it claims: only
        # terminating it lets the command return
        def boom(args):
            raise RuntimeError("raised in the calling process")

        self.fail_in(monkeypatch, parent=boom, child=lambda args: time.sleep(3600))
        assert "RuntimeError: raised in the calling process" in self.failed(capsys)


def test_spawned_workers_print_the_one_job_stdout(capsys):
    """Under the spawn start method (the default on macOS and Windows) the
    children import sgraph afresh and get their tasks pickled; stdout is
    still the one-job bytes."""
    script = (
        "import multiprocessing, os, sys\n"
        "from sgraph import cli\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        "    os.sched_getaffinity = lambda pid: {0, 1}\n"
        "    sys.exit(cli.main(['verify', 'order', '8', '--jobs', '2']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    spawned = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=50
    )
    assert spawned.returncode == 0, spawned.stderr
    assert spawned.stdout == run(capsys, "verify", "order", "8")[1]


class TestIOErrors:
    """I/O failures exit 2 with one error line, never 1 (REFUTED)."""

    def test_missing_input_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path / "no-such.sg"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "latin.sg"
        path.write_bytes(b"sg 2 0\n# caf\xe9\n")
        code, out, err = run(capsys, "spectrum", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "3", "4", str(tmp_path / "no" / "x.sg"))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestByteDeterminism:
    def test_spectrum_and_check(self, capsys, g33_path):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "spectrum", g33_path)
            outs.add(out)
            _, out, _ = run(capsys, "check", g33_path)
            outs.add(out)
        assert len(outs) == 2
