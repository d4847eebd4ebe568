"""The host's speed, read from a fixed reference kernel timed between jobs.

On a shared machine the speed one process sees drifts by a third or more
over seconds to minutes, and every timing drifts with it. The benchmark
times this kernel right before and right after each job and reports the
job at reference speed: its measured time times REF_SECONDS over the
kernel's mean time around it. The kernel is the program's kind of hot
loop, a small-integer cyclic convolution in pure Python, but shares no
code with the program, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

# the kernel's time at reference speed; close to its time on an idle
# 2-vCPU Intel Xeon virtual machine under Python 3.11
REF_SECONDS = 0.004
_N = 48


def kernel() -> list[int]:
    a = list(range(1, _N + 1))
    out = [0] * _N
    for _ in range(12):
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[(i + j) % _N] += x * y
    return out


def sample(repeats: int = 3) -> float:
    """The kernel's median time over a few back-to-back runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
