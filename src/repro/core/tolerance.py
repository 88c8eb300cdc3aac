"""The heuristics' feasibility tolerance: one predicate, one value.

A heuristic result counts as meeting a threshold ``bound`` when the achieved
metric is at most ``bound * (1 + 1e-9) + 1e-12``.  The splitting loops use
it as their stop test, the splitting engine as its latency-cap mask, the
result builder as the ``feasible`` flag, and frontier steps mode replays it
over a recorded trajectory.  Those call sites must agree to the last bit,
so the expression lives here and nowhere else.
"""

from __future__ import annotations

__all__ = ["limit", "fits"]

#: relative slack granted on top of a bound
REL_TOL = 1e-9
#: absolute slack, for bounds at or near zero
ABS_TOL = 1e-12


def limit(bound: float) -> float:
    """The largest value that still :func:`fits` under ``bound``."""
    return bound * (1 + REL_TOL) + ABS_TOL


def fits(value: float, bound: float) -> bool:
    """Whether ``value`` meets the threshold ``bound`` (within tolerance)."""
    return value <= limit(bound)
