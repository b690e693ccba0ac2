"""A fixed pure-Python kernel that times how fast the host runs right now.

The shared host this benchmark runs on drifts between fast and slow
phases that last from seconds to minutes; in a slow phase every pass,
and this kernel, runs up to 1.8x slower.  The slowdown is lost
throughput, not lost CPU time (a pass's CPU time tracks its wall
time), so only a kernel run beside the pass sees it.  ``one_pass.py``
times the kernel just before and just after the measured call, and
``run.py`` rescales the call's wall time to the kernel's reference
time, :data:`REFERENCE_S`.  A phase cancels out of that ratio while a
change to the program does not: the kernel never imports ``repro``.

Its mix resembles the simulator's inner loops: a heap of tuples,
dict counters, list appends and float arithmetic.
"""

from __future__ import annotations

import heapq
import time

ITERATIONS = 150_000
#: The kernel's median time on the 2-core Xeon VM the benchmark was
#: tuned on.  A fixed constant: changing it rescales every host time.
REFERENCE_S = 0.2
#: How much of the kernel's slowdown a pass shares.  On a 10-minute
#: timeline of 237 passes of the four paths, log wall time against log
#: kernel time had slopes of 0.55-0.70 (correlation 0.65-0.89); with
#: this exponent the per-pass spread is 25-30% below that of the plain
#: ratio, which over-corrects.
SENSITIVITY = 0.65


def rescale(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` at the host speed where the kernel takes REFERENCE_S."""
    return wall_s * (REFERENCE_S / kernel_s) ** SENSITIVITY


def kernel(iterations: int = ITERATIONS) -> float:
    """Run the kernel once; returns a checksum so no work is skipped."""
    heap = []
    counts = {}
    log = []
    x = 12345
    total = 0.0
    for i in range(iterations):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        t = x / 2147483648.0
        heapq.heappush(heap, (t + i, i, "req"))
        key = x & 63
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 32:
            when, idx, _ = heapq.heappop(heap)
            total += when * 0.5 - idx * 1e-6
            log.append((idx, when))
        if len(log) > 512:
            log.sort(key=lambda r: r[1])
            total += log[len(log) // 2][1]
            log.clear()
    return total + sum(counts.values())


def time_kernel() -> float:
    """Host seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
