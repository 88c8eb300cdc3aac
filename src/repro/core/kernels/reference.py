"""Reference implementations of the homogeneous-DP table kernels.

These are the oracle semantics every other backend must reproduce:

* the **numpy** table kernels are the broadcast/reduce DP inner loops of
  :mod:`repro.exact.homogeneous_dp`;
* the **scalar** table kernels are the original Python loops, kept as the
  human-auditable baseline.

The compiled backend (:mod:`repro.core.kernels.compiled`) validates itself
against these functions at load time and is rejected with a recorded reason
on any mismatch.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "min_period_tables_numpy",
    "min_period_tables_scalar",
    "min_latency_tables_numpy",
    "min_latency_tables_scalar",
]

_INF = float("inf")


# --------------------------------------------------------------------------- #
# homogeneous-DP tables
# --------------------------------------------------------------------------- #
def min_period_tables_numpy(
    cycle: np.ndarray, n: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck-partition DP, one broadcast/reduce per processor level.

    Level ``k`` builds the candidate matrix ``M[j, i-1] = max(dp[k-1, j],
    cycle[j, i-1])`` in one shot and reduces it column-wise; the triangular
    ``inf`` structure of ``cycle`` enforces ``j <= i - 1`` for free.
    """
    dp = np.full((p + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    parent = np.full((p + 1, n + 1), -1, dtype=np.int64)
    for k in range(1, p + 1):
        candidates = np.maximum(dp[k - 1, :n, None], cycle)
        if k - 1 > 0:
            candidates[: k - 1, :] = _INF  # j >= k - 1
        dp[k, 1:] = candidates.min(axis=0)
        best_j = candidates.argmin(axis=0)
        parent[k, 1:] = np.where(np.isfinite(dp[k, 1:]), best_j, -1)
    return dp, parent


def min_period_tables_scalar(
    cycle: np.ndarray, n: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference of the bottleneck-partition DP (benchmark baseline)."""
    dp = np.full((p + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    parent = np.full((p + 1, n + 1), -1, dtype=np.int64)
    for k in range(1, p + 1):
        for i in range(1, n + 1):
            best = _INF
            best_j = -1
            for j in range(k - 1, i):
                if dp[k - 1, j] == _INF:
                    continue
                candidate = max(dp[k - 1, j], cycle[j, i - 1])
                if candidate < best:
                    best = candidate
                    best_j = j
            dp[k, i] = best
            parent[k, i] = best_j
    return dp, parent


def min_latency_tables_numpy(
    cycle: np.ndarray,
    term: np.ndarray,
    period_bound: float,
    n: int,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Period-constrained additive DP, one broadcast/reduce per level.

    Cells whose interval violates the period bound are masked to ``inf``
    before the levels run, so every level is a plain ``min`` reduction of
    ``dp[k-1, j] + term[j, i-1]`` over the candidate matrix.
    """
    allowed = np.where(cycle <= period_bound + 1e-12, term, _INF)
    dp = np.full((p + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    parent = np.full((p + 1, n + 1), -1, dtype=np.int64)
    for k in range(1, p + 1):
        candidates = dp[k - 1, :n, None] + allowed
        if k - 1 > 0:
            candidates[: k - 1, :] = _INF
        dp[k, 1:] = candidates.min(axis=0)
        best_j = candidates.argmin(axis=0)
        parent[k, 1:] = np.where(np.isfinite(dp[k, 1:]), best_j, -1)
    return dp, parent


def min_latency_tables_scalar(
    cycle: np.ndarray,
    term: np.ndarray,
    period_bound: float,
    n: int,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference of the period-constrained DP (benchmark baseline).

    Note the historical ``1e-15`` improvement threshold: on exact ties the
    scalar tables may keep a different (equally optimal) predecessor than
    the numpy/compiled tables, so table parity against this path is asserted
    with a tolerance while numpy vs compiled is asserted bit for bit.
    """
    dp = np.full((p + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    parent = np.full((p + 1, n + 1), -1, dtype=np.int64)
    for k in range(1, p + 1):
        for i in range(k, n + 1):
            best = _INF
            best_j = -1
            for j in range(k - 1, i):
                if dp[k - 1, j] == _INF:
                    continue
                if cycle[j, i - 1] > period_bound + 1e-12:
                    continue
                candidate = dp[k - 1, j] + term[j, i - 1]
                if candidate < best - 1e-15:
                    best = candidate
                    best_j = j
            dp[k, i] = best
            parent[k, i] = best_j
    return dp, parent
