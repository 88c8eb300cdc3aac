"""Unit tests for the shared splitting engine."""

from __future__ import annotations

import math
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.application import PipelineApplication
from repro.core.costs import evaluate
from repro.core.exceptions import InvalidPlatformError
from repro.core.mapping import Interval
from repro.core.platform import Platform
from repro.heuristics.engine import SelectionRule, SplittingState
from tests.conftest import random_instance


class TestInitialState:
    def test_starts_on_fastest_processor(self, small_app, small_platform):
        state = SplittingState(small_app, small_platform)
        assert state.n_intervals == 1
        assert state.processors == [small_platform.fastest_processor]
        ev = evaluate(small_app, small_platform, state.mapping())
        assert state.period == pytest.approx(ev.period)
        assert state.latency == pytest.approx(ev.latency)

    def test_unused_processor_order(self, small_platform, small_app):
        state = SplittingState(small_app, small_platform)
        assert state.next_unused(5) == [1, 2]
        assert state.n_unused == 2

    def test_custom_processor_order(self, small_app, small_platform):
        state = SplittingState(small_app, small_platform, processor_order=[2, 0, 1])
        assert state.processors == [2]
        assert state.next_unused(2) == [0, 1]

    def test_invalid_processor_order(self, small_app, small_platform):
        with pytest.raises(InvalidPlatformError):
            SplittingState(small_app, small_platform, processor_order=[0, 0, 1])
        with pytest.raises(InvalidPlatformError):
            SplittingState(small_app, small_platform, processor_order=[0, 7])

    def test_rejects_heterogeneous_links(self, small_app):
        platform = Platform.fully_heterogeneous(
            [1.0, 2.0, 3.0],
            [[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]],
        )
        with pytest.raises(InvalidPlatformError):
            SplittingState(small_app, platform)


class TestTwoWaySplit:
    def test_candidate_metrics_match_cost_model(self, small_app, small_platform):
        state = SplittingState(small_app, small_platform)
        candidate = state.best_two_way_split(0, 1, rule=SelectionRule.MONO)
        assert candidate is not None
        # applying the candidate and re-evaluating must agree with its metrics
        state.apply(candidate)
        ev = evaluate(small_app, small_platform, state.mapping())
        assert candidate.new_period == pytest.approx(ev.period)
        assert candidate.new_latency == pytest.approx(ev.latency)

    def test_single_stage_interval_cannot_split(self, small_platform):
        app = PipelineApplication([5.0], [1.0, 1.0])
        state = SplittingState(app, small_platform)
        assert state.best_two_way_split(0, 1) is None

    def test_mono_rule_minimises_local_max(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        new_proc = state.next_unused(1)[0]
        best = state.best_two_way_split(0, new_proc, rule=SelectionRule.MONO)
        assert best is not None
        # exhaustively verify no other cut/orientation has a lower local max
        iv = state.intervals[0]
        proc_j = state.processors[0]
        for cut in range(iv.start, iv.end):
            for procs in ((proc_j, new_proc), (new_proc, proc_j)):
                mapping = state.mapping().replace(
                    0, [(iv.start, cut), (cut + 1, iv.end)], procs
                )
                ev = evaluate(app, platform, mapping)
                touched = max(c.cycle_time for c in ev.interval_costs)
                assert touched >= best.local_max_cycle - 1e-9

    def test_latency_cap_filters_candidates(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        new_proc = state.next_unused(1)[0]
        unconstrained = state.best_two_way_split(0, new_proc, rule=SelectionRule.MONO)
        assert unconstrained is not None
        capped = state.best_two_way_split(
            0, new_proc, rule=SelectionRule.MONO, latency_cap=state.latency
        )
        # keeping the latency at its optimum forbids every split here
        assert capped is None or capped.new_latency <= state.latency * (1 + 1e-9)

    def test_improvement_requirement(self):
        # the only other processor is so slow that handing it any stage makes
        # the period worse, so no candidate improves and None is returned
        app = PipelineApplication([100.0, 100.0], [0.0, 0.0, 0.0])
        platform = Platform.communication_homogeneous([10.0, 1.0], bandwidth=10.0)
        state = SplittingState(app, platform)
        assert state.best_two_way_split(0, 1, require_improvement=True) is None
        relaxed = state.best_two_way_split(0, 1, require_improvement=False)
        assert relaxed is not None


class TestThreeWaySplit:
    def test_requires_two_processors(self, small_app, small_platform):
        state = SplittingState(small_app, small_platform)
        with pytest.raises(ValueError):
            state.best_three_way_split(0, [1], rule=SelectionRule.MONO)

    def test_requires_three_stages(self, small_platform):
        app = PipelineApplication([5.0, 5.0], [1.0, 1.0, 1.0])
        state = SplittingState(app, small_platform)
        assert state.best_three_way_split(0, [1, 2]) is None

    def test_candidate_matches_cost_model(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        pair = state.next_unused(2)
        candidate = state.best_three_way_split(0, pair, rule=SelectionRule.MONO)
        assert candidate is not None
        assert len(candidate.new_intervals) == 3
        state.apply(candidate)
        ev = evaluate(app, platform, state.mapping())
        assert candidate.new_period == pytest.approx(ev.period)
        assert candidate.new_latency == pytest.approx(ev.latency)

    def test_three_way_at_least_as_good_as_locally(self, medium_instance):
        """The best 3-way split cannot have a worse local max than forced 2-way
        splits that use only one of the two offered processors... unless no
        3-way candidate improves; in that case it returns None."""
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        pair = state.next_unused(2)
        three = state.best_three_way_split(0, pair, rule=SelectionRule.MONO)
        if three is not None:
            assert three.improves_period


class TestApply:
    def test_apply_consumes_processors(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        before_unused = state.n_unused
        candidate = state.best_two_way_split(0, state.next_unused(1)[0])
        state.apply(candidate)
        assert state.n_unused == before_unused - 1
        assert state.n_intervals == 2

    def test_repeated_splits_keep_state_consistent(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        for _ in range(4):
            unused = state.next_unused(1)
            if not unused:
                break
            candidate = state.best_two_way_split(
                state.bottleneck_index, unused[0], require_improvement=False
            )
            if candidate is None:
                break
            state.apply(candidate)
            ev = evaluate(app, platform, state.mapping())
            assert state.period == pytest.approx(ev.period)
            assert state.latency == pytest.approx(ev.latency)

    def test_stale_candidate_rejected(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        candidate = state.best_two_way_split(0, state.next_unused(1)[0])
        bogus = type(candidate)(
            interval_index=5,
            new_intervals=candidate.new_intervals,
            new_processors=candidate.new_processors,
            new_cycles=candidate.new_cycles,
            new_contributions=candidate.new_contributions,
            new_period=candidate.new_period,
            new_latency=candidate.new_latency,
            old_cycle=candidate.old_cycle,
            old_latency=candidate.old_latency,
            score=candidate.score,
        )
        with pytest.raises(ValueError):
            state.apply(bogus)


class TestRatioRule:
    def test_ratio_prefers_smaller_latency_increase(self, rng):
        """On random instances the ratio-selected split never has a larger
        Δlatency/Δperiod ratio than the mono-selected split."""
        for seed in range(5):
            app, platform = random_instance(8, 6, seed=seed)
            state = SplittingState(app, platform)
            new_proc = state.next_unused(1)[0]
            mono = state.best_two_way_split(0, new_proc, rule=SelectionRule.MONO)
            ratio = state.best_two_way_split(0, new_proc, rule=SelectionRule.RATIO)
            if mono is None or ratio is None:
                continue

            def worst_ratio(cand):
                deltas = [cand.old_cycle - c for c in cand.new_cycles]
                if any(d <= 0 for d in deltas):
                    return float("inf")
                return max(cand.delta_latency / d for d in deltas)

            assert worst_ratio(ratio) <= worst_ratio(mono) + 1e-9


# --------------------------------------------------------------------------- #
# reference oracle: a plain-Python enumeration of every candidate
# --------------------------------------------------------------------------- #
def _cap_limit(cap: float) -> float:
    """The engine's cap space, spelled out so a drift there shows up here."""
    return cap * (1 + 1e-9) + 1e-12


def reference_split(state, j, new_procs, rule, latency_cap, require_improvement):
    """The split the engine must return, from scalar float arithmetic.

    Enumerates every (orientation or permutation, cut) candidate in the
    engine's order with the engine's expressions: ``contrib = in + w/s``,
    ``cycle = contrib + out``, ``new_latency = base + ((c1 + c2) + c3)``.
    The choice is the lexicographic minimum of ``(score, local max, new
    latency, enumeration index)`` over the improving candidates within the
    cap; ``blocked_at`` is the smallest new latency of the improving
    candidates ranked ahead of it.  Returns a tuple of every candidate field
    or ``None``.
    """
    app, platform = state.app, state.platform
    n = app.n_stages
    prefix = [float(x) for x in app.work_prefix]
    comm = [float(x) for x in app.comm_sizes]
    speeds = [float(s) for s in platform.speeds]
    b = platform.uniform_bandwidth
    b_in, b_out = platform.input_bandwidth, platform.output_bandwidth

    def part(d, e, u):
        contrib = comm[d] / (b_in if d == 0 else b) + (prefix[e + 1] - prefix[d]) / speeds[u]
        return contrib + comm[e + 1] / (b_out if e == n - 1 else b), contrib

    current = [part(iv.start, iv.end, u) for iv, u in zip(state.intervals, state.processors)]
    cycles = [c for c, _ in current]
    contribs = [c for _, c in current]
    tail = comm[n] / b_out
    old_cycle = cycles[j]
    old_latency = sum(contribs) + tail
    base = sum(contribs) - contribs[j] + tail
    margin = 1e-12 * (1.0 + old_cycle)

    iv = state.intervals[j]
    d, e = iv.start, iv.end
    procs = (state.processors[j], *new_procs)
    if len(procs) == 2:
        patterns = [procs, procs[::-1]]
        cut_sets = [(c,) for c in range(d, e)]
    else:
        patterns = list(permutations(procs))
        cut_sets = [(c1, c2) for c1 in range(d, e) for c2 in range(c1 + 1, e)]

    candidates = []
    for pattern in patterns:
        for cuts in cut_sets:
            bounds = [d, *(c + 1 for c in cuts), e + 1]
            pieces = [(bounds[k], bounds[k + 1] - 1) for k in range(len(pattern))]
            parts = [part(s, t, u) for (s, t), u in zip(pieces, pattern)]
            new_cycles = tuple(c for c, _ in parts)
            new_contribs = tuple(c for _, c in parts)
            local_max = max(new_cycles)
            total = new_contribs[0]
            for c in new_contribs[1:]:
                total = total + c
            new_latency = base + total
            if rule == SelectionRule.MONO:
                score = local_max
            else:
                delta_lat = new_latency - old_latency
                score = max(
                    delta_lat / (old_cycle - c) if old_cycle - c > margin else math.inf
                    for c in new_cycles
                )
            if require_improvement and not local_max < old_cycle - margin:
                continue
            others = cycles[:j] + cycles[j + 1 :]
            candidates.append(
                (
                    (score, local_max, new_latency, len(candidates)),
                    (
                        j,
                        tuple(Interval(s, t) for s, t in pieces),
                        pattern,
                        new_cycles,
                        new_contribs,
                        max(max(others, default=0.0), local_max),
                        new_latency,
                        old_cycle,
                        old_latency,
                        score,
                    ),
                )
            )
    candidates.sort(key=lambda item: item[0])
    for rank, (_, fields) in enumerate(candidates):
        if latency_cap is None or fields[6] <= _cap_limit(latency_cap):
            ahead = [other[1][6] for other in candidates[:rank]]
            return (*fields, min(ahead, default=math.inf))
    return None


def _as_fields(candidate):
    if candidate is None:
        return None
    return (
        candidate.interval_index,
        candidate.new_intervals,
        candidate.new_processors,
        candidate.new_cycles,
        candidate.new_contributions,
        candidate.new_period,
        candidate.new_latency,
        candidate.old_cycle,
        candidate.old_latency,
        candidate.score,
        candidate.blocked_at,
    )


# zero-work stages and repeated speeds make ties between candidates common
_works = st.one_of(st.just(0.0), st.floats(0.1, 50.0), st.sampled_from([1.0, 2.0, 4.0]))
_comms = st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.sampled_from([1.0, 3.0]))


@st.composite
def _split_states(draw):
    """A splitting state after a few arbitrary splits, plus a target interval."""
    n = draw(st.integers(2, 9))
    app = PipelineApplication(
        draw(st.lists(_works, min_size=n, max_size=n)),
        draw(st.lists(_comms, min_size=n + 1, max_size=n + 1)),
    )
    p = draw(st.integers(3, 7))
    speeds = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0]), min_size=p, max_size=p))
    platform = Platform(
        speeds,
        draw(st.sampled_from([1.0, 2.5, 10.0])),
        input_bandwidth=draw(st.sampled_from([None, 1.0, 4.0])),
        output_bandwidth=draw(st.sampled_from([None, 0.5, 3.0])),
    )
    state = SplittingState(app, platform)
    for _ in range(draw(st.integers(0, 3))):
        if state.n_unused < 3:
            break
        j = draw(st.integers(0, state.n_intervals - 1))
        move = state.best_two_way_split(
            j, state.next_unused(1)[0], require_improvement=False
        )
        if move is not None:
            state.apply(move)
    return state, draw(st.integers(0, state.n_intervals - 1))


_rules = st.sampled_from([SelectionRule.MONO, SelectionRule.RATIO])


class TestReferenceOracle:
    """Both split methods equal a plain-Python enumeration, bit for bit."""

    @given(_split_states(), _rules, st.booleans(), st.floats(0.8, 1.6))
    @settings(max_examples=150, deadline=None)
    def test_two_way_split_matches_reference(self, drawn, rule, require, factor):
        state, j = drawn
        new_proc = state.next_unused(1)[0]
        reference = reference_split(state, j, (new_proc,), rule, None, require)
        caps = [None, state.latency * factor]
        if reference is not None:
            caps += [reference[6], reference[10] if reference[10] < math.inf else None]
        for cap in caps:
            got = state.best_two_way_split(
                j, new_proc, rule=rule, latency_cap=cap, require_improvement=require
            )
            want = reference_split(state, j, (new_proc,), rule, cap, require)
            assert _as_fields(got) == want

    @given(_split_states(), _rules, st.booleans(), st.floats(0.8, 1.6))
    @settings(max_examples=100, deadline=None)
    def test_three_way_split_matches_reference(self, drawn, rule, require, factor):
        state, j = drawn
        pair = tuple(state.next_unused(2))
        for cap in (None, state.latency * factor):
            got = state.best_three_way_split(
                j, pair, rule=rule, latency_cap=cap, require_improvement=require
            )
            want = reference_split(state, j, pair, rule, cap, require)
            assert _as_fields(got) == want
