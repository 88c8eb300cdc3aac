"""Host-speed calibration: times on a fixed-speed scale.

The benchmark runs on a shared host whose CPU speed swings by up to ~1.6x
in phases of tens of seconds to minutes, longer than one run.  A run that
falls in a slow phase would read slow however long it measured.  So the
benchmark runs a fixed calibration kernel — plain Python and small-array
numpy work, the same mix as the program's hot paths, but none of the
program's code — between operations, and scales every timed interval by
how long the kernel took around it:

    scaled = raw * REFERENCE_S / (mean of the calibrations just before and after)

A scaled time is what the interval would have taken on a host where the
kernel takes :data:`REFERENCE_S`.  A change to the program moves the raw
time and leaves the kernel alone, so it moves the scaled time by the same
share; a change in host speed moves both and cancels out.  The raw times
are printed alongside.

The calibration width is the number of CPUs a workload keeps busy.  A
process pool on two CPUs is calibrated with two copies of the kernel at
once, one in a forked child.  A workload whose time is mostly waiting on
the wall clock (the daemon's 2 ms coalescer window, socket round trips) is
not scaled: width 0.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

#: the kernel's time on the reference host (seconds) by calibration width
#: (copies run at once); it defines the scale
REFERENCE_S = {0: 1.0, 1: 0.030, 2: 0.038}

_ARRAY = np.linspace(0.0, 1.0, 128)


def _kernel() -> float:
    # dict and float bookkeeping, like the splitting engine's Python side
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(80_000):
        table[i & 1023] = acc
        acc += (i * 0.5) % 7.0
    # many small-array operations, like the batch cost kernels
    x = _ARRAY
    for _ in range(3_000):
        x = np.minimum(np.cumsum(_ARRAY) * 0.001, _ARRAY + x * 0.5)
    return acc + float(x[0])


def calibrate(width: int = 1) -> float:
    """Seconds ``width`` (1 or 2) concurrent copies of the kernel take now.

    Width 0 runs nothing and returns the reference, so its scale is 1.
    """
    if width == 0:
        return REFERENCE_S[0]
    # the program's heap must not make the kernel slower: no collections
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        pid = os.fork() if width == 2 else None
        if pid == 0:
            try:
                _kernel()
            finally:
                os._exit(0)
        _kernel()
        if pid is not None:
            os.waitpid(pid, 0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scales(calibrations: list[float], width: int) -> list[float]:
    """One scale per interval between consecutive calibrations.

    Interval ``i`` lies between calibrations ``i`` and ``i + 1`` and is
    scaled by their mean.  Only the two bracketing calibrations are used:
    the host's speed changes within seconds, and on repeated runs of one
    Fig. 6 panel a wider window tracked it worse (IQR/median of 30-panel
    medians: raw 0.20, bracketing pair 0.033, six around it 0.056).  On a
    repeated exact campaign (two pool workers) width 2 tracked it and
    width 1 did not (40-campaign medians: raw 0.046, width 1 0.061,
    width 2 0.034).
    """
    return [2 * REFERENCE_S[width] / (calibrations[i] + calibrations[i + 1])
            for i in range(len(calibrations) - 1)]
