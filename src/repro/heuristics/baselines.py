"""Baseline mapping heuristics outside the paper's six.

The paper compares its six heuristics only against each other; to put their
performance in context the library also ships two simple baselines:

* :class:`ChainsPartitionBaseline` — build the stage partition with the
  *homogeneous* chains-to-chains solver on the work vector (ignoring
  communications and processor heterogeneity), then assign the fastest
  processors to the heaviest intervals.  This is what a practitioner armed
  with the classical 1-D partitioning literature ([6,10,13,14] in the paper)
  would do first, and measuring how far it lags behind ``Sp mono P``
  quantifies the value of heterogeneity-aware splitting.
* :class:`RandomMappingBaseline` — random interval boundaries and random
  processor choice (best of ``n_samples`` draws), the classical sanity floor.

Both follow the fixed-period interface so they can be dropped into the same
sweeps and failure-threshold machinery as H1–H4.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from ..chains.homogeneous import dp_optimal
from ..core.application import PipelineApplication
from ..core.costs import evaluate
from ..core.mapping import IntervalMapping
from ..core.platform import Platform
from ..core.tolerance import fits
from ..utils.rng import ensure_rng
from .base import FixedPeriodHeuristic, HeuristicResult

__all__ = ["ChainsPartitionBaseline", "RandomMappingBaseline"]


class ChainsPartitionBaseline(FixedPeriodHeuristic):
    """Homogeneous chains-to-chains partition + fastest-to-heaviest assignment.

    For every interval count ``m`` from 1 to ``min(n, p)`` the baseline
    computes the bottleneck-optimal partition of the *work* vector into ``m``
    intervals (communications ignored), assigns the ``m`` fastest processors
    to the intervals by decreasing total work, evaluates the true period and
    latency, and keeps the first ``m`` whose period meets the bound (or the
    best period seen if none does).
    """

    name: ClassVar[str] = "Chains baseline"
    key: ClassVar[str] = "B1"

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        order = platform.processors_by_speed(descending=True)
        best_mapping: IntervalMapping | None = None
        best_period = float("inf")
        history: list[tuple[float, float]] = []
        chosen_m = 1
        for m in range(1, min(app.n_stages, platform.n_processors) + 1):
            partition = dp_optimal(app.works, m)
            intervals = list(partition.intervals)
            # heaviest intervals get the fastest processors
            loads = [app.work_sum(start, end) for start, end in intervals]
            ranked = sorted(range(len(intervals)), key=lambda j: -loads[j])
            processors = [0] * len(intervals)
            for rank, j in enumerate(ranked):
                processors[j] = order[rank]
            mapping = IntervalMapping(intervals, processors)
            ev = evaluate(app, platform, mapping)
            history.append((ev.period, ev.latency))
            if ev.period < best_period:
                best_mapping, best_period = mapping, ev.period
                chosen_m = m
            if fits(ev.period, bound):
                best_mapping, best_period = mapping, ev.period
                chosen_m = m
                break
        assert best_mapping is not None
        return self._make_result(
            app, platform, best_mapping, bound, n_splits=chosen_m - 1, history=history
        )


class RandomMappingBaseline(FixedPeriodHeuristic):
    """Best of ``n_samples`` random interval mappings (sanity floor)."""

    name: ClassVar[str] = "Random baseline"
    key: ClassVar[str] = "B2"

    def __init__(self, n_samples: int = 100, seed: int | None = 0) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        self.n_samples = n_samples
        self.seed = seed

    def _random_mapping(
        self, rng: np.random.Generator, n_stages: int, n_processors: int
    ) -> IntervalMapping:
        max_intervals = min(n_stages, n_processors)
        m = int(rng.integers(1, max_intervals + 1))
        if m == 1:
            boundaries: list[int] = []
        else:
            boundaries = sorted(
                int(x) for x in rng.choice(n_stages - 1, size=m - 1, replace=False)
            )
        processors = [int(u) for u in rng.choice(n_processors, size=m, replace=False)]
        return IntervalMapping.from_boundaries(boundaries, processors, n_stages)

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        rng = ensure_rng(self.seed)
        best_mapping: IntervalMapping | None = None
        best_key = (float("inf"), float("inf"))
        history: list[tuple[float, float]] = []
        for _ in range(self.n_samples):
            mapping = self._random_mapping(rng, app.n_stages, platform.n_processors)
            ev = evaluate(app, platform, mapping)
            key = (ev.period, ev.latency)
            if key < best_key:
                best_mapping, best_key = mapping, key
                history.append(key)
        assert best_mapping is not None
        return self._make_result(
            app, platform, best_mapping, bound, n_splits=0, history=history
        )
