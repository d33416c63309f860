"""Reference computation that every timing of the benchmark is divided by.

On the reference host the speed of the process changes by up to 1.7x: it
switches between a slow and a fast state every few tens of milliseconds, and
the share of fast time drifts over tens of seconds. Process CPU time changes
with it, so raw timings of the same work do not repeat. The kernel below is
timed next to the measured work, and each timing is rescaled to the kernel's
nominal duration: ``normalised = raw * NOMINAL_S / mean kernel time``.

The kernel mixes interpreted Python (arithmetic, dict and list traffic) with
small NumPy array operations, the two kinds of work the program does. It uses
only the standard library and NumPy, never ``wtrv`` or SciPy, so a change to
the program cannot change it. Keep this file as it is: editing the kernel or
``NOMINAL_S`` rescales every figure measured before the edit.
"""

import math
import time

import numpy as np

# Typical duration of one kernel call on the reference host (2-core VM,
# Python 3.11.7, NumPy 2.4.6) in its slow state, recorded once.
NOMINAL_S = 0.0070

_GRID = np.linspace(0.0, 4.0, 2048)


def kernel() -> float:
    """Fixed work; returns a checksum so that nothing is optimised away."""
    acc = 0.0
    table = {}
    items = []
    for i in range(6000):
        x = (i * 2654435761) % 1000003
        acc += math.sqrt(x) / (1.0 + (x & 7))
        table[x & 1023] = acc
        items.append(x & 255)
    acc += sum(sorted(items)[::97]) + len(table)
    for j in range(40):
        y = np.exp(-_GRID * (1.0 + 0.01 * j)) * np.log1p(_GRID)
        c = np.cumsum(y)
        idx = np.searchsorted(c, c[::13])
        acc += float(y[idx].sum()) + float(np.max(np.abs(np.diff(y))))
    return acc


def time_kernel(reps: int = 1) -> float:
    """Mean wall time in seconds of ``reps`` kernel calls.

    The mean, not the median: the host switches between a slow and a fast
    state every few tens of milliseconds, and only the mean estimates the
    average speed that the measured work saw.
    """
    t0 = time.perf_counter()
    for _ in range(reps):
        kernel()
    return (time.perf_counter() - t0) / reps
