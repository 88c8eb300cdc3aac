"""Shared splitting engine used by every heuristic of Section 4.

All six heuristics of the paper work on the same internal state:

* processors are sorted by non-increasing speed;
* initially the whole pipeline is mapped onto the fastest processor;
* at each step the interval of the *bottleneck* processor (largest cycle
  time) is split, handing part of it to the next fastest processor(s) not yet
  used;
* candidate splits are scored either by the **mono-criterion** rule (the new
  ``max`` cycle time of the touched processors) or by the **bi-criteria**
  rule (the ``Δlatency / Δperiod`` ratio), possibly under a latency cap.

The engine below maintains that state incrementally (cycle time and latency
contribution per interval) and evaluates *all* candidates of a step in one
fused scorer: the part works and boundary communications of every cut
position are sliced from prefix sums into flat ``(parts, positions)``
arrays, every assignment pattern (orientation or permutation) is scored at
once as a ``(patterns, parts, positions)`` block, and one masked ``lexsort``
ranks the flattened, pattern-major candidates by ``(score, local max cycle,
new latency)``.  This keeps the experiment harness (hundreds of thousands of
heuristic runs for the figures) fast.

Under a latency cap the choice is the first improving candidate in rank
order whose new latency fits the cap, so it is a step function of the cap:
each returned candidate records ``blocked_at``, the cap limit from which a
candidate ranked ahead of it becomes the choice.  Sp-bi-P's bisection
(:mod:`repro.heuristics.binary_search`) replays these *cap windows* instead
of re-ranking steps an earlier probe already settled.

The engine assumes a communication-homogeneous platform, as in the paper; the
fully heterogeneous extension lives in :mod:`repro.extensions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from ..core import tolerance
from ..core.application import PipelineApplication
from ..core.exceptions import InvalidPlatformError
from ..core.mapping import Interval, IntervalMapping
from ..core.platform import Platform

__all__ = ["SelectionRule", "SplitCandidate", "SplittingState"]

_EPS = 1e-12


class SelectionRule:
    """Names of the two candidate-selection rules of the paper."""

    #: minimise ``max`` of the new cycle times (mono-criterion heuristics)
    MONO = "mono"
    #: minimise ``max_i Δlatency / Δperiod(i)`` (bi-criteria heuristics)
    RATIO = "ratio"


@dataclass(frozen=True)
class SplitCandidate:
    """One evaluated way of splitting the bottleneck interval.

    ``new_*`` fields describe the intervals replacing interval
    ``interval_index`` of the state; global metrics (``new_period``,
    ``new_latency``) account for the untouched intervals.
    """

    interval_index: int
    new_intervals: tuple[Interval, ...]
    new_processors: tuple[int, ...]
    new_cycles: tuple[float, ...]
    new_contributions: tuple[float, ...]
    new_period: float
    new_latency: float
    old_cycle: float
    old_latency: float
    score: float
    #: smallest new latency among the candidates ranked ahead of this one
    #: but over the latency cap (``inf`` when none were); the same candidate
    #: wins under every cap limit in ``[new_latency, blocked_at)``
    blocked_at: float = field(default=math.inf, compare=False)

    @property
    def local_max_cycle(self) -> float:
        """Largest cycle time among the intervals touched by the split."""
        return max(self.new_cycles)

    @property
    def delta_latency(self) -> float:
        """Latency increase caused by the split (usually non-negative)."""
        return self.new_latency - self.old_latency

    @property
    def improves_period(self) -> bool:
        """Whether the touched processors all beat the previous bottleneck."""
        return self.local_max_cycle < self.old_cycle - _EPS * (1.0 + self.old_cycle)


class SplittingState:
    """Mutable mapping state shared by the splitting/exploration heuristics."""

    def __init__(
        self,
        app: PipelineApplication,
        platform: Platform,
        processor_order: Sequence[int] | None = None,
    ) -> None:
        """Initialise the state with the whole pipeline on the first processor.

        ``processor_order`` overrides the order in which processors are
        consumed (default: non-increasing speed, as in the paper); it is used
        by the ablation study to quantify how much the speed sort matters.
        """
        if not platform.is_communication_homogeneous:
            raise InvalidPlatformError(
                "the Section 4 heuristics target communication-homogeneous "
                "platforms; use repro.extensions for heterogeneous links"
            )
        self.app = app
        self.platform = platform
        self._n = app.n_stages
        self._b = platform.uniform_bandwidth
        self._b_in = platform.input_bandwidth
        self._b_out = platform.output_bandwidth
        self._speeds = platform.speeds
        self._comm = app.comm_sizes
        self._prefix = app.work_prefix
        self._tail = float(self._comm[self._n]) / self._b_out

        if processor_order is None:
            order = platform.processors_by_speed(descending=True)
        else:
            order = [int(u) for u in processor_order]
            if sorted(order) != sorted(set(order)) or any(
                not 0 <= u < platform.n_processors for u in order
            ):
                raise InvalidPlatformError(
                    "processor_order must list distinct valid processor indices"
                )
        fastest = order[0]
        self.intervals: list[Interval] = [Interval(0, self._n - 1)]
        self.processors: list[int] = [fastest]
        self._unused: list[int] = list(order[1:])
        contrib = self._input_time(0) + (
            self._prefix[self._n] - self._prefix[0]
        ) / self._speeds[fastest]
        self._cycles: list[float] = [float(contrib + self._output_time(self._n - 1))]
        self._contribs: list[float] = [float(contrib)]

    # ------------------------------------------------------------------ #
    # metric helpers
    # ------------------------------------------------------------------ #
    def _input_time(self, d: int) -> float:
        """Time to receive ``delta_d``: the platform input link at stage 0."""
        return self._comm[d] / (self._b_in if d == 0 else self._b)

    def _output_time(self, e: int) -> float:
        """Time to send ``delta_{e+1}``: the platform output link at the end."""
        return self._comm[e + 1] / (self._b_out if e == self._n - 1 else self._b)

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #
    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    @property
    def period(self) -> float:
        """Current period (max cycle time over all intervals)."""
        return max(self._cycles)

    @property
    def latency(self) -> float:
        """Current latency (sum of contributions plus final output)."""
        return sum(self._contribs) + self._tail

    @property
    def bottleneck_index(self) -> int:
        """Index of the interval with the largest cycle time (ties: first)."""
        return self._cycles.index(max(self._cycles))

    def cycle(self, j: int) -> float:
        return self._cycles[j]

    def next_unused(self, count: int = 1) -> list[int]:
        """The next ``count`` fastest processors not yet enrolled (may be fewer)."""
        return list(self._unused[:count])

    @property
    def n_unused(self) -> int:
        return len(self._unused)

    def mapping(self) -> IntervalMapping:
        """Snapshot of the current state as an :class:`IntervalMapping`."""
        return IntervalMapping(list(self.intervals), list(self.processors))

    def point(self) -> tuple[float, float]:
        """Current ``(period, latency)`` objective point."""
        return (self.period, self.latency)

    # ------------------------------------------------------------------ #
    # candidate generation
    # ------------------------------------------------------------------ #
    def _best_split(
        self,
        j: int,
        patterns: Sequence[tuple[int, ...]],
        boundaries: np.ndarray,
        works: np.ndarray,
        intervals_at: Callable[[int], list[Interval]],
        rule: str,
        latency_cap: float | None,
        require_improvement: bool,
    ) -> SplitCandidate | None:
        """Score every (pattern, position) candidate of a split and pick one.

        ``patterns`` lists the processor assignments of the parts (both
        orientations of a 2-way split, the ``3!`` permutations of a 3-way
        one).  ``works`` holds the raw work of each part per cut position,
        shape ``(parts, positions)``, and ``boundaries`` the communication
        time of each part boundary, shape ``(parts + 1, positions)``: part
        ``k`` reads row ``k`` and writes row ``k + 1``.  ``intervals_at``
        maps a position to the parts' intervals.

        Candidates are ranked pattern-major by ``(score, local max cycle,
        new latency)``, lowest flat index first on ties.  Under a latency
        cap the choice is the first improving candidate in that order whose
        new latency fits the cap; its ``blocked_at`` is the smallest new
        latency among the candidates ranked ahead of it (all over the cap),
        so the same choice holds for every cap limit in ``[new_latency,
        blocked_at)``.
        """
        old_cycle = self._cycles[j]
        total = sum(self._contribs)
        old_latency = total + self._tail
        base_latency = total - self._contribs[j] + self._tail
        margin = _EPS * (1.0 + old_cycle)

        speeds = self._speeds[np.array(patterns)]  # (patterns, parts)
        contribs = boundaries[:-1] + works / speeds[:, :, np.newaxis]
        cycles = contribs + boundaries[1:]  # (patterns, parts, positions)
        local_max = cycles.max(axis=1)
        parts_sum = contribs[:, 0]
        for k in range(1, contribs.shape[1]):
            parts_sum = parts_sum + contribs[:, k]
        new_latency = base_latency + parts_sum  # (patterns, positions)

        if rule == SelectionRule.MONO:
            score = local_max
        elif rule == SelectionRule.RATIO:
            delta_per = old_cycle - cycles
            ratios = np.full(cycles.shape, np.inf)
            np.divide(
                (new_latency - old_latency)[:, np.newaxis, :],
                delta_per,
                out=ratios,
                where=delta_per > margin,
            )
            score = ratios.max(axis=1)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown selection rule {rule!r}")

        flat_latency = new_latency.ravel()
        flat_max = local_max.ravel()
        flat_score = score.ravel()
        if require_improvement:
            ranked = np.flatnonzero(flat_max < old_cycle - margin)
        else:
            ranked = np.arange(flat_max.size)
        ranked = ranked[
            np.lexsort((flat_latency[ranked], flat_max[ranked], flat_score[ranked]))
        ]
        if ranked.size == 0:
            return None
        pick, blocked_at = 0, math.inf
        if latency_cap is not None:
            fits_cap = flat_latency[ranked] <= tolerance.limit(latency_cap)
            pick = int(fits_cap.argmax())
            if not fits_cap[pick]:
                return None
            if pick:
                blocked_at = float(flat_latency[ranked[:pick]].min())
        p, position = divmod(int(ranked[pick]), works.shape[1])
        others = self._cycles[:j] + self._cycles[j + 1 :]
        return SplitCandidate(
            interval_index=j,
            new_intervals=tuple(intervals_at(position)),
            new_processors=tuple(patterns[p]),
            new_cycles=tuple(float(c) for c in cycles[p, :, position]),
            new_contributions=tuple(float(c) for c in contribs[p, :, position]),
            new_period=float(max(max(others, default=0.0), local_max[p, position])),
            new_latency=float(new_latency[p, position]),
            old_cycle=float(old_cycle),
            old_latency=float(old_latency),
            score=float(score[p, position]),
            blocked_at=blocked_at,
        )

    def best_two_way_split(
        self,
        j: int,
        new_proc: int,
        rule: str = SelectionRule.MONO,
        latency_cap: float | None = None,
        require_improvement: bool = True,
    ) -> SplitCandidate | None:
        """Best way to split interval ``j`` between its processor and ``new_proc``.

        All cut positions and both orientations (first part kept on the
        current processor, or given to the new one) are evaluated; ``None`` is
        returned when the interval is a single stage or no candidate passes
        the filters (improvement / latency cap).
        """
        iv = self.intervals[j]
        d, e = iv.start, iv.end
        if e == d:
            return None
        proc_j = self.processors[j]

        # position k cuts after stage c = d + k: parts [d, c] and [c + 1, e]
        cut_prefix = self._prefix[d + 1 : e + 1]
        boundaries = np.empty((3, e - d))
        boundaries[0] = self._input_time(d)
        np.divide(self._comm[d + 1 : e + 1], self._b, out=boundaries[1])
        boundaries[2] = self._output_time(e)
        works = np.empty((2, e - d))
        np.subtract(cut_prefix, self._prefix[d], out=works[0])
        np.subtract(self._prefix[e + 1], cut_prefix, out=works[1])

        def intervals_at(k: int) -> list[Interval]:
            return [Interval(d, d + k), Interval(d + k + 1, e)]

        return self._best_split(
            j,
            ((proc_j, new_proc), (new_proc, proc_j)),
            boundaries,
            works,
            intervals_at,
            rule,
            latency_cap,
            require_improvement,
        )

    def best_three_way_split(
        self,
        j: int,
        new_procs: Sequence[int],
        rule: str = SelectionRule.MONO,
        latency_cap: float | None = None,
        require_improvement: bool = True,
    ) -> SplitCandidate | None:
        """Best 3-way split of interval ``j`` using two additional processors.

        All pairs of cut positions and all ``3!`` assignments of the three
        parts to ``{current processor} ∪ new_procs`` are evaluated.  ``None``
        when the interval has fewer than three stages or no candidate passes
        the filters.
        """
        if len(new_procs) != 2:
            raise ValueError("best_three_way_split needs exactly two new processors")
        iv = self.intervals[j]
        d, e = iv.start, iv.end
        if e - d < 2:
            return None
        proc_j = self.processors[j]

        # position k cuts after stages c1 = d + rel1[k] < c2 = d + rel2[k]:
        # parts [d, c1], [c1 + 1, c2] and [c2 + 1, e]
        rel1, rel2 = np.triu_indices(e - d, k=1)
        cut_prefix = self._prefix[d + 1 : e + 1]
        cut_comm = self._comm[d + 1 : e + 1] / self._b
        boundaries = np.empty((4, rel1.size))
        boundaries[0] = self._input_time(d)
        boundaries[1] = cut_comm[rel1]
        boundaries[2] = cut_comm[rel2]
        boundaries[3] = self._output_time(e)
        prefix1, prefix2 = cut_prefix[rel1], cut_prefix[rel2]
        works = np.empty((3, rel1.size))
        np.subtract(prefix1, self._prefix[d], out=works[0])
        np.subtract(prefix2, prefix1, out=works[1])
        np.subtract(self._prefix[e + 1], prefix2, out=works[2])

        def intervals_at(k: int) -> list[Interval]:
            c1, c2 = d + int(rel1[k]), d + int(rel2[k])
            return [Interval(d, c1), Interval(c1 + 1, c2), Interval(c2 + 1, e)]

        return self._best_split(
            j,
            tuple(permutations((proc_j, int(new_procs[0]), int(new_procs[1])))),
            boundaries,
            works,
            intervals_at,
            rule,
            latency_cap,
            require_improvement,
        )

    # ------------------------------------------------------------------ #
    # state mutation
    # ------------------------------------------------------------------ #
    def apply(self, candidate: SplitCandidate) -> None:
        """Apply a split candidate, enrolling its new processors."""
        j = candidate.interval_index
        if not 0 <= j < self.n_intervals:
            raise ValueError(f"candidate refers to stale interval index {j}")
        self.intervals[j : j + 1] = list(candidate.new_intervals)
        self.processors[j : j + 1] = list(candidate.new_processors)
        self._cycles[j : j + 1] = list(candidate.new_cycles)
        self._contribs[j : j + 1] = list(candidate.new_contributions)
        for u in candidate.new_processors:
            if u in self._unused:
                self._unused.remove(u)
