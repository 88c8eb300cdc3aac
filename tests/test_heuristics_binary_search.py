"""Tests of H4 Sp-bi-P (bi-criteria splitting with binary search on the latency)."""

from __future__ import annotations

import math

import pytest

from repro.core import tolerance
from repro.core.costs import evaluate, optimal_latency
from repro.heuristics import SplittingBiPeriod, SplittingMonoPeriod
from repro.heuristics.binary_search import _StepMemo
from repro.heuristics.engine import SplittingState
from repro.solvers.base import SolveResult
from tests.conftest import random_instance


class TestBasics:
    def test_result_metrics_match_mapping(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = SplittingBiPeriod().run(app, platform, period_bound=5.0)
        ev = evaluate(app, platform, result.mapping)
        assert result.period == pytest.approx(ev.period)
        assert result.latency == pytest.approx(ev.latency)

    def test_feasibility_matches_unconstrained_pass(self, medium_instance):
        """Sp bi P is feasible exactly when its unconstrained pass reaches the
        period (the binary search can only restrict the latency further)."""
        app, platform = medium_instance.application, medium_instance.platform
        h = SplittingBiPeriod()
        probe = h.run(app, platform, period_bound=1e-9)
        reachable = probe.period
        assert h.run(app, platform, period_bound=reachable * 1.001).feasible
        assert not h.run(app, platform, period_bound=reachable * 0.9).feasible

    def test_infeasible_run_returns_valid_mapping(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = SplittingBiPeriod().run(app, platform, period_bound=1e-9)
        assert not result.feasible
        result.mapping.validate(app, platform)


class TestLatencyMinimisation:
    def test_latency_not_worse_than_unconstrained_pass(self):
        """The binary search keeps the best (smallest-latency) feasible pass, so
        it can never end up above the unconstrained pass's latency."""
        for seed in range(5):
            app, platform = random_instance(15, 10, seed=seed)
            h = SplittingBiPeriod()
            reachable = h.run(app, platform, period_bound=1e-9).period
            bound = reachable * 1.3
            constrained = h.run(app, platform, period_bound=bound)
            assert constrained.feasible
            # re-run the unconstrained pass manually through a huge authorised latency
            state, _, _ = h._splitting_pass(app, platform, bound, None)
            assert constrained.latency <= state.latency + 1e-9

    def test_latency_at_least_lemma1(self):
        for seed in range(5):
            app, platform = random_instance(12, 8, seed=seed)
            result = SplittingBiPeriod().run(app, platform, period_bound=3.0)
            assert result.latency >= optimal_latency(app, platform) - 1e-9

    def test_loose_bound_keeps_lemma1_mapping(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = SplittingBiPeriod().run(app, platform, period_bound=1e9)
        assert result.feasible
        assert result.n_splits == 0
        assert result.latency == pytest.approx(optimal_latency(app, platform))


class TestAgainstMonoCriterion:
    def test_latency_usually_not_worse_than_h1_at_same_threshold(self):
        """Sp bi P trades period slack for latency: when both heuristics are
        feasible at a threshold, Sp bi P's latency should not be (much) worse
        than Sp mono P's on average (paper: it achieves the best latencies)."""
        better_or_equal = 0
        total = 0
        for seed in range(10):
            app, platform = random_instance(10, 10, seed=seed, family="E1")
            h1 = SplittingMonoPeriod()
            h4 = SplittingBiPeriod()
            reachable = h1.run(app, platform, period_bound=1e-9).period
            bound = reachable * 1.5
            r1 = h1.run(app, platform, period_bound=bound)
            r4 = h4.run(app, platform, period_bound=bound)
            if r1.feasible and r4.feasible:
                total += 1
                if r4.latency <= r1.latency + 1e-9:
                    better_or_equal += 1
        assert total > 0
        assert better_or_equal >= total * 0.6


# --------------------------------------------------------------------------- #
# the per-solve step memo changes no answer
# --------------------------------------------------------------------------- #
def _memo_free_solve(h, app, platform, bound):
    """Sp-bi-P's bisection with every probe run as a fresh, memo-free pass."""
    state, n_splits, history = h._splitting_pass(app, platform, bound, None)
    best = (state, n_splits, history)
    if tolerance.fits(state.period, bound):
        lo, hi = SplittingState(app, platform).latency, state.latency
        for _ in range(h.n_search_iterations):
            if hi - lo <= h.search_rel_tol * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            trial = h._splitting_pass(app, platform, bound, mid)
            if tolerance.fits(trial[0].period, bound):
                hi = mid
                if trial[0].latency < best[0].latency - 1e-12:
                    best = trial
            else:
                lo = mid
    state, n_splits, history = best
    return h._make_result(app, platform, state.mapping(), bound, n_splits, history)


def _identity(result):
    return SolveResult.from_heuristic(result, solver="Sp bi P").identity()


def _pass_view(outcome):
    state, n_splits, history = outcome
    return state.mapping(), n_splits, history


def _caps_around(value):
    """The caps whose tolerance limit is just below, at and above ``value``."""
    cap = (value - 1e-12) / (1 + 1e-9)
    while tolerance.limit(cap) < value:
        cap = math.nextafter(cap, math.inf)
    while tolerance.limit(cap) >= value:
        cap = math.nextafter(cap, -math.inf)
    below = cap
    while tolerance.limit(cap) < value:
        cap = math.nextafter(cap, math.inf)
    return [below, cap, math.nextafter(cap, math.inf)]


class TestStepMemo:
    @pytest.mark.parametrize("family", ["E1", "E2", "E3", "E4"])
    def test_memoised_solve_equals_memo_free_bisection(self, family):
        h = SplittingBiPeriod()
        for seed in range(3):
            app, platform = random_instance(14, 12, seed=seed, family=family)
            reachable = h.run(app, platform, period_bound=1e-9).period
            for factor in (0.9, 1.0, 1.05, 1.3, 2.0, 4.0):
                bound = reachable * factor
                memoised = h.run(app, platform, period_bound=bound)
                assert _identity(memoised) == _identity(
                    _memo_free_solve(h, app, platform, bound)
                )

    def test_shared_memo_at_window_edges(self):
        """Caps on the edges of each recorded window replay memo-free passes:
        a cap whose limit lands on a choice's new latency or on its
        ``blocked_at``, and the floats either side of it."""
        h = SplittingBiPeriod()
        for seed in range(4):
            app, platform = random_instance(12, 10, seed=seed, family="E1")
            bound = h.run(app, platform, period_bound=1e-9).period * 1.2
            tight = SplittingState(app, platform).latency
            explored = _StepMemo()
            for cap in (None, tight, tight * 1.01, tight * 1.1):
                h._splitting_pass(app, platform, bound, cap, explored)
            edges = set()
            pending = [explored]
            while pending:
                node = pending.pop()
                for candidate, child in node.choices:
                    edges.add(candidate.new_latency)
                    if candidate.blocked_at < math.inf:
                        edges.add(candidate.blocked_at)
                    pending.append(child)
            assert edges
            caps = [cap for edge in sorted(edges) for cap in _caps_around(edge)]
            # one memo across every probe, in both orders, and a memo that
            # has only seen the tightest pass (so the choice ranked ahead of
            # a recorded window is not recorded yet)
            memos = [_StepMemo(), _StepMemo()]
            for cap in caps:
                seeded = _StepMemo()
                h._splitting_pass(app, platform, bound, tight, seeded)
                fresh = _pass_view(h._splitting_pass(app, platform, bound, cap))
                for memo, probe in ((memos[0], cap), (seeded, cap)):
                    assert _pass_view(h._splitting_pass(app, platform, bound, probe, memo)) == fresh
            for cap in reversed(caps):
                fresh = _pass_view(h._splitting_pass(app, platform, bound, cap))
                assert _pass_view(h._splitting_pass(app, platform, bound, cap, memos[1])) == fresh
