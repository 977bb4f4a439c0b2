"""Host-speed calibration: how much slower than nominal the host runs now.

On shared virtual machines the same pure-Python work takes up to 2x longer
from one minute to the next. The benchmark times a fixed reference kernel
next to every measured call and divides the call's wall time by the
kernel's slowdown, so reported times are seconds on a host running at
nominal speed. The kernel is a tiny LRU cache simulation written here,
sharing no code with ``src/``: a change to the simulator cannot speed it
up or slow it down.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

#: Nominal seconds of one ``reference_kernel()`` call (its median on a
#: 2-vCPU x86-64 VM under CPython 3.11 when the host is quiet).
REFERENCE_S = 0.0045
#: Nominal seconds of one ``record_kernel()`` call: 2.27x ``REFERENCE_S``,
#: their median ratio over 1000 readings on the same host.
RECORD_REFERENCE_S = 0.0102


def reference_kernel() -> int:
    """Fixed work shaped like the simulator's inner loop: a random block
    stream through a 256-set, 8-way LRU cache of Python lists."""
    sets = [[] for _ in range(256)]
    hits = 0
    state = 12345
    for _ in range(6_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        block = (state >> 12) & 8191
        ways = sets[block & 255]
        if block in ways:
            ways.remove(block)
            hits += 1
        elif len(ways) == 8:
            ways.pop(0)
        ways.append(block)
    return hits


def record_kernel() -> int:
    """Fixed work shaped like a result store's writes and reads: 150
    records of 20 fields serialised to JSON and parsed back."""
    records = [{f"k{j}": [i, j, i * 0.5, "x" * (j % 7)] for j in range(20)}
               for i in range(150)]
    return len(json.loads(json.dumps(records)))


def _median_s(kernel, samples: int) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slowdown(samples: int = 1, records: bool = False) -> float:
    """Median reference-kernel time over ``samples`` calls, over nominal.

    With ``records`` the result is the mean of that and the same figure
    for ``record_kernel``: work that serialises and aggregates records
    (a campaign) tracks the pair better than the cache loop alone. The
    collector is paused while timing: the kernels allocate, and a
    collection they triggered would scan the caller's whole heap.
    """
    gc.disable()
    try:
        factor = _median_s(reference_kernel, samples) / REFERENCE_S
        if records:
            factor = (factor + _median_s(record_kernel, samples)
                      / RECORD_REFERENCE_S) / 2
    finally:
        gc.enable()
    return factor
