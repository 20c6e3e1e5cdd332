"""`sgraph verify` output against golden files.

The files in tests/golden/ are the JSON certificates of the full-cube
search with the pure-Python eigensolver that preceded the orbit-minimum
search ((4,5) took about 32 s that way, one process, 2-vCPU x86-64).
Every field must match byte for byte, except ``observed_max`` (top level
and per split), which may move in the last few ulps because the radius is
now sqrt(lambda_max(B B^T)) from LAPACK.  The order 8 ``--jobs 2`` file
came later, from the search over one row-sorted mask per row-permutation
orbit.  The (3,7), (4,6), (5,5) and order 10 files came from that same
search with its budget raised to r*s <= 36 (order 10 took about 36 s).
The search over one mask per row-and-column orbit takes the largest
radius over fewer isomorphic copies of the maximizer, so its
``observed_max`` can differ from these files by an ulp.  ``--jobs`` never
changes the output, so the (3,6) ``--jobs 2`` case shares the one-job
file.
"""

import json
from pathlib import Path

import pytest

from sgraph import cli

GOLDEN = Path(__file__).parent / "golden"
OBSERVED_MAX_TOL = 1e-12

CASES = [
    (["verify", "sizes", "3", "3"], "verify_sizes_3_3.json"),
    (["verify", "sizes", "3", "4"], "verify_sizes_3_4.json"),
    (["verify", "sizes", "3", "5"], "verify_sizes_3_5.json"),
    (["verify", "sizes", "4", "4"], "verify_sizes_4_4.json"),
    (["verify", "sizes", "3", "6", "--stretch"], "verify_sizes_3_6.json"),
    (["verify", "sizes", "4", "5", "--stretch"], "verify_sizes_4_5.json"),
    (["verify", "order", "6"], "verify_order_6.json"),
    (["verify", "order", "7"], "verify_order_7.json"),
    (["verify", "order", "8", "--jobs", "2"], "verify_order_8_jobs_2.json"),
    (["verify", "sizes", "3", "7", "--stretch"], "verify_sizes_3_7.json"),
    (["verify", "sizes", "4", "6", "--stretch"], "verify_sizes_4_6.json"),
    (["verify", "sizes", "5", "5", "--stretch"], "verify_sizes_5_5.json"),
    (["verify", "order", "10", "--stretch"], "verify_order_10.json"),
    (["verify", "sizes", "3", "6", "--stretch", "--jobs", "2"], "verify_sizes_3_6.json"),
]


def case_id(argv: list[str], name: str) -> str:
    """The golden file's stem, with the job count when the stem lacks it."""
    stem = name[:-5]
    if "--jobs" in argv and "_jobs_" not in stem:
        stem += "_jobs_" + argv[argv.index("--jobs") + 1]
    return stem


def pop_observed_max(doc: dict) -> list[float]:
    """Remove every ``observed_max`` from a certificate, returning them in
    document order."""
    values = [doc.pop("observed_max")]
    for sub in doc.get("per_split", []):
        values.extend(pop_observed_max(sub))
    return values


@pytest.mark.parametrize("argv,name", CASES, ids=[case_id(*c) for c in CASES])
def test_verify_matches_golden(capsys, argv, name):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    got = json.loads(out)
    want = json.loads((GOLDEN / name).read_text())
    got_max, want_max = pop_observed_max(got), pop_observed_max(want)
    assert len(got_max) == len(want_max)
    for g, w in zip(got_max, want_max):
        assert abs(g - w) <= OBSERVED_MAX_TOL
    assert json.dumps(got) == json.dumps(want)
