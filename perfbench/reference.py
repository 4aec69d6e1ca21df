"""A fixed pure-Python kernel that shows how fast the host runs right now.

The reference host is shared: the speed a process gets drifts with the
load of other tenants, in phases of seconds to minutes, and the process's
CPU time drifts with it.  Children time this kernel between the operations
they measure, and every timing is scaled by the ratio of ``NOMINAL_S`` to
the kernel's time measured next to it.  The kernel does the kind of work
qmink does (``Fraction`` arithmetic, small dicts keyed by tuples), so it
slows down with the host the way the program does.  It is part of the
benchmark, not of qmink, so a change to the program never changes it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.006   # about one kernel run on the reference host; fixes the scale
ROUNDS = 600
RUNS_PER_SAMPLE = 5


def kernel() -> int:
    acc = Fraction(0)
    table: dict[tuple, int] = {}
    x = 12345
    for k in range(ROUNDS):
        x = (x * 1103515245 + 12345) % 2**31
        acc = acc * Fraction(x % 10**6 + 1, (x >> 7) % 10**6 + 1) + Fraction(1, k + 1)
        acc = Fraction(acc.numerator % 10**12 + 1, acc.denominator % 10**12 + 1)
        key = (k % 97, x % 89, k & 3)
        table[key] = table.get(key, 0) + 1
    return len(sorted(table.items()))


def sample() -> float:
    """Median time of a few kernel runs, in seconds."""
    times = []
    for _ in range(RUNS_PER_SAMPLE):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
