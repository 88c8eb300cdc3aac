"""``H3 Sp-bi-P``: bi-criteria splitting with a binary search on the latency.

The heuristic fixes an *authorised latency* — the optimal latency of Lemma 1
multiplied by an allowed increase — and runs a splitting pass in which every
candidate split must keep the global latency within the authorised value;
candidates are selected by the bi-criteria rule ``min max_i Δlatency /
Δperiod(i)``.  If the pass reaches the prescribed period the authorised
latency is reduced, otherwise it is increased, following a classical binary
search; the best (smallest-latency) feasible solution found across the search
is returned.

The paper does not specify the upper bound of the search; we use the latency
obtained by an unconstrained pass (infinite authorised latency), which is
feasible whenever any pass can be.

The passes of one search share long prefixes: a cap only changes a step's
choice when it excludes a candidate ranked ahead.  Every split the engine
returns carries the cap window on which it stays the choice
(:attr:`~repro.heuristics.engine.SplitCandidate.blocked_at`), so one solve
keeps a :class:`_StepMemo` tree of the choices made so far and each pass
only asks the engine about steps no earlier pass has settled for its cap.
"""

from __future__ import annotations

import math
from typing import ClassVar

from ..core import tolerance
from ..core.application import PipelineApplication
from ..core.platform import Platform
from .base import FixedPeriodHeuristic, HeuristicResult
from .engine import SelectionRule, SplitCandidate, SplittingState

__all__ = ["SplittingBiPeriod"]


class _StepMemo:
    """The choices of one pass step (one node of a solve's choice tree).

    A node is reached by the sequence of splits applied so far.  It records
    every split chosen there under some cap, each with the child node the
    split leads to, plus the largest cap limit under which no split was
    possible.  All caps are compared in :func:`repro.core.tolerance.limit`
    space, the space the engine's cap mask works in; no cap is ``inf``.
    """

    __slots__ = ("choices", "stalled_up_to")

    def __init__(self) -> None:
        self.choices: list[tuple[SplitCandidate, _StepMemo]] = []
        #: no split fits under any cap limit at or below this value
        self.stalled_up_to = -math.inf

    def lookup(self, cap_limit: float) -> tuple[SplitCandidate, _StepMemo] | None:
        """The recorded choice that holds under ``cap_limit``, if any."""
        for choice in self.choices:
            candidate = choice[0]
            if candidate.new_latency <= cap_limit and (
                cap_limit < candidate.blocked_at or candidate.blocked_at == math.inf
            ):
                return choice
        return None

    def record(self, candidate: SplitCandidate) -> _StepMemo:
        """Remember a new choice; returns the node the split leads to."""
        child = _StepMemo()
        self.choices.append((candidate, child))
        return child


class SplittingBiPeriod(FixedPeriodHeuristic):
    """``H3 Sp bi P`` — bi-criteria splitting + binary search on the latency."""

    name: ClassVar[str] = "Sp bi P"
    key: ClassVar[str] = "H4"

    #: number of bisection steps on the authorised latency
    n_search_iterations: ClassVar[int] = 25
    #: stop the bisection once the latency window is this small (relative)
    search_rel_tol: ClassVar[float] = 1e-4

    def _splitting_pass(
        self,
        app: PipelineApplication,
        platform: Platform,
        period_bound: float,
        authorized_latency: float | None,
        memo: _StepMemo | None = None,
    ) -> tuple[SplittingState, int, list[tuple[float, float]]]:
        """One splitting pass under a latency cap (``None`` = unconstrained).

        ``memo`` is the root of the solve's choice tree; without one the pass
        computes every step itself.
        """
        node = _StepMemo() if memo is None else memo
        cap_limit = (
            math.inf if authorized_latency is None else tolerance.limit(authorized_latency)
        )
        state = SplittingState(app, platform)
        history = [state.point()]
        n_splits = 0
        while not tolerance.fits(state.period, period_bound):
            unused = state.next_unused(1)
            if not unused or cap_limit <= node.stalled_up_to:
                break
            choice = node.lookup(cap_limit)
            if choice is None:
                candidate = state.best_two_way_split(
                    state.bottleneck_index,
                    unused[0],
                    rule=SelectionRule.RATIO,
                    latency_cap=authorized_latency,
                    require_improvement=True,
                )
                if candidate is None:
                    node.stalled_up_to = cap_limit
                    break
                node = node.record(candidate)
            else:
                candidate, node = choice
            state.apply(candidate)
            n_splits += 1
            history.append(state.point())
        return state, n_splits, history

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        memo = _StepMemo()
        # Unconstrained pass: establishes feasibility and the upper bound of
        # the binary search on the authorised latency.
        state, n_splits, history = self._splitting_pass(app, platform, bound, None, memo)
        if not tolerance.fits(state.period, bound):
            # the prescribed period cannot be reached even without a latency cap
            return self._make_result(
                app, platform, state.mapping(), bound, n_splits, history
            )

        best_state, best_splits, best_history = state, n_splits, history
        lo = SplittingState(app, platform).latency  # optimal latency (Lemma 1)
        hi = state.latency
        for _ in range(self.n_search_iterations):
            if hi - lo <= self.search_rel_tol * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            trial_state, trial_splits, trial_history = self._splitting_pass(
                app, platform, bound, mid, memo
            )
            if tolerance.fits(trial_state.period, bound):
                hi = mid
                if trial_state.latency < best_state.latency - 1e-12:
                    best_state, best_splits, best_history = (
                        trial_state,
                        trial_splits,
                        trial_history,
                    )
            else:
                lo = mid
        return self._make_result(
            app, platform, best_state.mapping(), bound, best_splits, best_history
        )
