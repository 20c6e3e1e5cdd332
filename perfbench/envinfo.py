"""Environment record attached to every result.

The two-process CPU probe shows how much a second busy process slows the
first on this machine, so a contended box shows in the record instead of
posing as a regression.  It runs before and after the measured passes,
never during them; a run whose two probes disagree ran on a machine whose
speed moved under it.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

PROBE_LOOPS = 3_000_000
PROBE_TIMEOUT_S = 60
# A run is marked drifted when its two probes' single-process times differ
# by more than this share of the first.
PROBE_DRIFT_LIMIT = 0.2
# Each probe process waits for a common start time, then times a fixed loop.
_SPIN = """
import sys, time
def spin(start, loops):
    while time.time() < start:
        time.sleep(0.001)
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i
    return time.perf_counter() - t0
print(spin(float(sys.argv[1]), int(sys.argv[2])))
"""


def _timed_spins(workers: int) -> list[float]:
    start = time.time() + 0.25  # past the interpreters' start-up
    procs = [
        subprocess.Popen([sys.executable, "-c", _SPIN, repr(start), str(PROBE_LOOPS)],
                         stdout=subprocess.PIPE, text=True)
        for _ in range(workers)
    ]
    try:
        return [float(p.communicate(timeout=PROBE_TIMEOUT_S)[0]) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def cpu_probe() -> dict:
    """Parallel efficiency of two busy processes: 1.0 means two free cores."""
    single = _timed_spins(1)[0]
    pair = _timed_spins(2)
    return {
        "single_s": round(single, 4),
        "pair_s": [round(t, 4) for t in pair],
        "efficiency": round(single / max(pair), 3),
    }


def probe_drift(before: dict, after: dict) -> dict:
    """How far the machine's speed moved between two probes of one run."""
    drift = after["single_s"] / before["single_s"] - 1
    return {"drift": round(drift, 3), "drifted": abs(drift) > PROBE_DRIFT_LIMIT}


def describe() -> dict:
    import numpy

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
