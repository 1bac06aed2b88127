"""Host-speed calibration: fixed work timed next to every repetition.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same sweep can take 40% longer one minute than the next, with CPU time
tracking wall time, and no statistic over a half-minute run removes that.
run.py therefore times this kernel right before and right after every child
and scales the child's times by ``REFERENCE_S`` over the mean of the two.
The kernel does the kind of work the simulator does (distance arrays, argsort,
masks over a sparse grid, many small numpy calls from Python) and never
touches ``cotrack``, so a change to the program moves the scaled times and a
change of host speed mostly does not.

Set-up time is interpreter start and imports, which drift with the host more
than computation does (29% within ten minutes where the kernel-scaled figure
moved 8%), so it is scaled by ``import_seconds`` instead: a fresh
interpreter importing numpy, which moved it 4%.
"""

import subprocess
import sys
import time

import numpy as np

# The seconds of each on the 2-core Xeon the benchmark was tuned on. Scaled
# times are "seconds on a host that runs the kernel in REFERENCE_S" (or, for
# set-up, "that starts an interpreter and imports numpy in IMPORT_REFERENCE_S").
REFERENCE_S = 0.1
IMPORT_REFERENCE_S = 0.2

_POINTS = np.random.default_rng(1).normal(size=(20000, 3))


def _kernel() -> float:
    acc = 0.0
    for i in range(25):
        dist = np.hypot(_POINTS[:, 0] - i, _POINTS[:, 1])
        acc += float(dist[np.argsort(dist)[:10]].sum())
        grid = np.zeros((256, 256, 4))
        grid[::5, ::3] = 1.0
        acc += np.flatnonzero(np.any(grid != 0.0, axis=2)).size
    few = _POINTS[:2000]
    for i in range(400):
        dist = np.hypot(few[:, 0] - i * 0.01, few[:, 1])
        near = dist < 1.0
        acc += float(dist[near].sum()) + len(few[near])
        acc += sum(float(x) for x in dist[:20])
    return acc


def kernel_seconds() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to start and import numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start
