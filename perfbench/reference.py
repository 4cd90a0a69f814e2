"""A fixed piece of interpreter work that measures how fast the machine is now.

The benchmark's machine is a few cores of a shared host, whose speed moves
by a fifth or more over minutes as other tenants come and go; processor time
moves with it, because the slow-down is contention on the core, not time off
it. Each worker runs ``reference_work`` just before every job and once after
the last one, and between the set-ups it times. The end-to-end times are
reported as a job's or set-up's time divided by the mean time of the two
reference runs either side of it. That ratio cancels the host's drift, which
a median of raw seconds cannot.

The work is plain Python of the kind the engine does (string formatting, dict
and set building, sorting with a key, tuple unpacking), uses no part of
``catamerge`` and must never change: a change here changes every reported
time. It takes about 0.075 s on a shared 2-core x86-64 VM with Python 3.11.
"""

from __future__ import annotations

import gc
import time

# The reference's median wall time over the runs that defined the benchmark
# (shared 2-core x86-64 VM, Python 3.11.7). ``setup_s`` must be reported in
# seconds, so set-up times are given in reference units times this constant:
# seconds on a machine as fast as that one was on average.
REFERENCE_S = 0.075

ROUNDS = 12
ITEMS = 12_000
KEYS = 1_999  # few and small, so the work adds nothing to the peak RSS


def reference_work() -> int:
    total = 0
    for round_ in range(ROUNDS):
        table: dict[str, int] = {}
        for i in range(ITEMS):
            key = f"k{(i * 7919 + round_) % KEYS}"
            table[key] = table.get(key, 0) + i
        rows = sorted(table.items(), key=lambda kv: (kv[1] % 101, kv[0]))
        for key, value in rows:
            total += len(key) + value % 97
        total += len({key[::-1] for key, _ in rows})
    return total


def time_reference() -> tuple[float, float]:
    """Wall and processor seconds of one ``reference_work``."""
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    reference_work()
    return time.perf_counter() - wall, time.process_time() - cpu
