"""Host-speed probe, by which the warm workloads' table times are normalised.

On a shared host (the bounds were set on a 2-vCPU Intel Xeon VM) a process
can run up to 1.5 times slower for tens of seconds to minutes at a time, which
moves every in-process computation of a run together.  ``host_probe`` times a
fixed piece of work made of what the warm tables spend their time on
(interpreted Python, QUADPACK calling back into Python, small numpy
operations).  It uses no zenotraj code, so a change to the program does not
move it; only the host's speed does.  ``normalise`` scales a wall time by
REFERENCE_S over the probe time measured around it, so that a figure reads as
seconds on the host at its reference speed.

Starting a process and importing do not follow the probe (normalising them
by it widened their run-to-run spread), so ``setup_s`` and the cli-recipes
times stay wall times.
"""

from __future__ import annotations

import math
from time import perf_counter

# Median host_probe() time on the 2-vCPU Intel Xeon VM the bounds were set
# on; it only sets the scale of the normalised times.
REFERENCE_S = 0.030
_GRID = []


def _integrand(w, t):
    return w * math.exp(-w) * math.cos(w * t)


def host_probe():
    """Seconds the fixed probe work takes now.

    numpy and scipy are imported on the first call, not when the worker
    imports this module, so that they do not count in its set-up time.
    """
    import numpy as np
    from scipy.integrate import quad

    if not _GRID:
        _GRID.append(np.linspace(0.0, 10.0, 64))
    x = _GRID[0]
    start = perf_counter()
    acc = 0.0
    for i in range(17500):
        acc += (i * 0.5) % 7.0
    for k in range(35):
        acc += quad(_integrand, 0.0, 30.0, args=(0.7 + k,), limit=200)[0]
    for k in range(1400):
        acc += float(np.sum(np.exp(-x * (k * 1e-3)) * x))
    return perf_counter() - start


def around(probes, i, half=3):
    """Mean time of the ``2 * half`` probes nearest to the gap between
    ``probes[i]`` and ``probes[i + 1]``: one probe varies by about 20% from
    the next, the host's speed over seconds much less."""
    window = probes[max(0, i + 1 - half):i + 1 + half]
    return sum(window) / len(window)


def normalise(seconds, probe_s):
    """``seconds`` of wall time, measured while the probe took ``probe_s``,
    at the host's reference speed."""
    return seconds * REFERENCE_S / probe_s
