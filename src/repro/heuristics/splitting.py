"""Splitting heuristics: ``H1 Sp-mono-P``, ``H4 Sp-mono-L`` and ``H5 Sp-bi-L``.

All three repeatedly split the interval of the current bottleneck processor,
handing part of it to the next fastest unused processor:

* **Sp mono P** (H1, fixed period): among all cuts/orientations, apply the one
  minimising ``max(period(j), period(j'))`` provided it improves on the
  current bottleneck; stop as soon as the prescribed period is reached or no
  improving split exists.
* **Sp mono L** (H4, fixed latency): same selection rule, but splits are only
  allowed while the global latency stays within the prescribed bound, and
  splitting continues as long as the period keeps improving.
* **Sp bi L** (H5, fixed latency): same loop as H4 but the split is selected
  by the bi-criteria rule ``min max_i Δlatency / Δperiod(i)``.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.application import PipelineApplication
from ..core.platform import Platform
from ..core.tolerance import fits
from .base import FixedLatencyHeuristic, FixedPeriodHeuristic, HeuristicResult
from .engine import SelectionRule, SplitCandidate, SplittingState

__all__ = ["SplittingMonoPeriod", "SplittingMonoLatency", "SplittingBiLatency"]


class SplittingMonoPeriod(FixedPeriodHeuristic):
    """``H1 Sp mono P`` — mono-criterion splitting for a fixed period."""

    name: ClassVar[str] = "Sp mono P"
    key: ClassVar[str] = "H1"

    def _step_candidate(self, state: SplittingState) -> SplitCandidate | None:
        """The next split the heuristic would apply (``None`` when stalled).

        The selection never sees the threshold — the bound only decides when
        the loop *stops* — which is what makes the whole trajectory
        threshold-independent and the heuristic frontier-capable
        (:mod:`repro.solvers.frontier`).
        """
        unused = state.next_unused(1)
        if not unused:
            return None
        j = state.bottleneck_index
        return state.best_two_way_split(
            j, unused[0], rule=SelectionRule.MONO, require_improvement=True
        )

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        state = SplittingState(app, platform)
        history = [state.point()]
        n_splits = 0
        while not fits(state.period, bound):
            candidate = self._step_candidate(state)
            if candidate is None:
                break
            state.apply(candidate)
            n_splits += 1
            history.append(state.point())
        return self._make_result(app, platform, state.mapping(), bound, n_splits, history)


class _FixedLatencySplitting(FixedLatencyHeuristic):
    """Common loop of the fixed-latency splitting heuristics (H4 / H5)."""

    rule: ClassVar[str] = SelectionRule.MONO

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        state = SplittingState(app, platform)
        history = [state.point()]
        n_splits = 0
        # If even the latency-optimal initial mapping exceeds the bound, the
        # run is infeasible; the loop below can only keep latency <= bound.
        if fits(state.latency, bound):
            while True:
                unused = state.next_unused(1)
                if not unused:
                    break
                j = state.bottleneck_index
                candidate = state.best_two_way_split(
                    j,
                    unused[0],
                    rule=self.rule,
                    latency_cap=bound,
                    require_improvement=True,
                )
                if candidate is None:
                    break
                state.apply(candidate)
                n_splits += 1
                history.append(state.point())
        return self._make_result(app, platform, state.mapping(), bound, n_splits, history)


class SplittingMonoLatency(_FixedLatencySplitting):
    """``H4 Sp mono L`` — mono-criterion splitting for a fixed latency."""

    name: ClassVar[str] = "Sp mono L"
    key: ClassVar[str] = "H5"
    rule: ClassVar[str] = SelectionRule.MONO


class SplittingBiLatency(_FixedLatencySplitting):
    """``H5 Sp bi L`` — bi-criteria splitting for a fixed latency."""

    name: ClassVar[str] = "Sp bi L"
    key: ClassVar[str] = "H6"
    rule: ClassVar[str] = SelectionRule.RATIO
