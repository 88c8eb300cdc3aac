"""Differential parity of the kernel backends over the scenario families.

The backend contract (:mod:`repro.core.kernels`) is two-tiered:

* ``compiled`` is **bit-identical** to ``numpy`` — the ``cc`` engine's DP
  tables match the numpy tables to the last bit, and the elementwise cost
  terms run in numpy under both backends;
* ``scalar`` (the independently-auditable Python loops) agrees within
  1e-9 relative — same mathematics, different summation order.

These properties are asserted here over instances drawn from **all eight
scenario families** (the differential-fuzzing generators, which cover the
degenerate shapes the experiment families never produce), plus a replay of
the archived counterexample corpus with the compiled backend active: every
instance that once broke a solver must keep its full solver cross-check
green when the compiled kernels serve the hot paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.costs import evaluate, evaluate_batch, interval_time_components
from repro.core.kernels import compiled, reference
from repro.core.mapping import IntervalMapping
from repro.core.platform import Platform
from repro.exact.homogeneous_dp import (
    homogeneous_min_latency_for_period,
    homogeneous_min_period,
)
from repro.scenarios import (
    differential_check,
    family_names,
    generate_scenarios,
    load_corpus,
)
from tests.test_corpus_replay import CORPUS_DIR

_REL_TOL = 1e-9

ENTRIES = load_corpus(CORPUS_DIR)


# ----------------------------------------------------------------------------- #
# strategies: one scenario from any family, plus mappings for it
# ----------------------------------------------------------------------------- #
@st.composite
def scenario_instances(draw):
    """An (application, platform) pair drawn from any scenario family."""
    family = draw(st.sampled_from(family_names()))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    scenario = generate_scenarios(1, [family], seed)[0]
    return scenario.application, scenario.platform


def _random_mappings(app, platform, seed: int, count: int = 6):
    """Valid interval mappings: contiguous stage partitions, distinct procs."""
    rng = np.random.default_rng(seed)
    n, p = app.n_stages, platform.n_processors
    mappings = []
    for _ in range(count):
        k = int(rng.integers(1, min(n, p) + 1))
        boundaries = sorted(
            int(b) for b in rng.choice(np.arange(n - 1), size=k - 1, replace=False)
        ) if k > 1 else []
        procs = [int(q) for q in rng.permutation(p)[:k]]
        mappings.append(IntervalMapping.from_boundaries(boundaries, procs, n))
    return mappings


# ----------------------------------------------------------------------------- #
# engine selection: cc or nothing
# ----------------------------------------------------------------------------- #
class TestEngineSelection:
    def test_engine_is_cc_or_none_with_a_reason(self):
        engine = kernels.compiled_engine()
        assert engine in ("cc", None)
        assert (engine is None) == (kernels.compiled_unavailable_reason() is not None)

    @pytest.mark.parametrize("value", ["all", "1", "cc"])
    def test_disable_switch_falls_back_to_numpy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", value)
        compiled.reset()
        try:
            assert kernels.compiled_engine() is None
            assert "cc" in kernels.compiled_unavailable_reason()
            cycle = np.triu(np.arange(1.0, 26.0).reshape(5, 5))
            cycle[np.tril_indices(5, k=-1)] = np.inf
            got = kernels.min_period_tables(cycle, 5, 3, backend="compiled")
            want = reference.min_period_tables_numpy(cycle, 5, 3)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        finally:
            monkeypatch.delenv("REPRO_KERNELS_DISABLE")
            compiled.reset()


# ----------------------------------------------------------------------------- #
# elementwise kernels: evaluate_batch across backends
# ----------------------------------------------------------------------------- #
class TestBatchParity:
    @given(case=scenario_instances(), mapping_seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_compiled_bit_identical_to_numpy(self, case, mapping_seed):
        """Property: under compiled, evaluate_batch and
        interval_time_components equal numpy, bit for bit."""
        app, platform = case
        mappings = _random_mappings(app, platform, mapping_seed)
        starts = np.array([iv.start for m in mappings for iv in m.intervals])
        ends = np.array([iv.end for m in mappings for iv in m.intervals])
        speeds = platform.speeds[[u for m in mappings for u in m.processors]]
        bandwidth = (
            platform.uniform_bandwidth
            if platform.is_communication_homogeneous
            else 1.0
        )

        def run():
            batch = evaluate_batch(app, platform, mappings)
            parts = interval_time_components(
                app.work_prefix, app.comm_sizes, starts, ends, speeds,
                bandwidth=bandwidth,
                input_bandwidth=platform.input_bandwidth,
                output_bandwidth=platform.output_bandwidth,
                n_stages=app.n_stages,
            )
            return batch, parts

        with kernels.use_backend("numpy"):
            ref, ref_parts = run()
        with kernels.use_backend("compiled"):
            got, got_parts = run()
        assert (ref.periods == got.periods).all()
        assert (ref.latencies == got.latencies).all()
        for want, have in zip(ref_parts, got_parts):
            assert np.array_equal(want, have)

    @given(case=scenario_instances(), mapping_seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_scalar_agrees_within_1e9(self, case, mapping_seed):
        """Property: the scalar loops agree with the batch within 1e-9."""
        app, platform = case
        mappings = _random_mappings(app, platform, mapping_seed)
        with kernels.use_backend("compiled"):
            batch = evaluate_batch(app, platform, mappings)
        for i, mapping in enumerate(mappings):
            scalar = evaluate(app, platform, mapping)
            assert batch.periods[i] == pytest.approx(scalar.period, rel=_REL_TOL)
            assert batch.latencies[i] == pytest.approx(scalar.latency, rel=_REL_TOL)


# ----------------------------------------------------------------------------- #
# DP table kernels: the homogeneous solvers across backends
# ----------------------------------------------------------------------------- #
def _homogenized(platform) -> Platform:
    """The platform with one speed and one bandwidth (what the DP needs)."""
    speed = float(np.median(platform.speeds))
    return Platform.communication_homogeneous(
        [speed] * platform.n_processors, bandwidth=4.0
    )


class TestHomogeneousDpParity:
    @given(case=scenario_instances())
    @settings(max_examples=60, deadline=None)
    def test_min_period_identical_numpy_vs_compiled(self, case):
        """Property: same optimal period *and* same mapping, bitwise."""
        app, platform = case
        hom = _homogenized(platform)
        ref_mapping, ref_period = homogeneous_min_period(app, hom, backend="numpy")
        got_mapping, got_period = homogeneous_min_period(app, hom, backend="compiled")
        assert got_period == ref_period
        assert got_mapping.intervals == ref_mapping.intervals
        scalar_mapping, scalar_period = homogeneous_min_period(
            app, hom, backend="scalar"
        )
        assert scalar_period == pytest.approx(ref_period, rel=_REL_TOL)

    @given(case=scenario_instances(), slack=st.floats(1.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_min_latency_identical_numpy_vs_compiled(self, case, slack):
        """Property: the bounded-latency DP matches across backends."""
        app, platform = case
        hom = _homogenized(platform)
        _, period = homogeneous_min_period(app, hom, backend="numpy")
        bound = period * slack
        ref_mapping, ref_latency = homogeneous_min_latency_for_period(
            app, hom, bound, backend="numpy"
        )
        got_mapping, got_latency = homogeneous_min_latency_for_period(
            app, hom, bound, backend="compiled"
        )
        assert got_latency == ref_latency
        assert got_mapping.intervals == ref_mapping.intervals
        _, scalar_latency = homogeneous_min_latency_for_period(
            app, hom, bound, backend="scalar"
        )
        assert scalar_latency == pytest.approx(ref_latency, rel=_REL_TOL)

    @given(
        n=st.integers(2, 16),
        p=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_raw_table_kernels_bit_identical(self, n, p, seed):
        """The engine's table kernels match numpy exactly on random inputs.

        Bypasses the dispatcher so the test is meaningful even when a
        routing rule changes; skip-free because it only runs when an
        engine actually loaded (otherwise dispatch == numpy trivially and
        the other tests still hold).
        """
        funcs = compiled.engine_functions()
        if funcs is None:
            return
        rng = np.random.default_rng(seed)
        cycle = rng.uniform(0.1, 10.0, size=(n, n))
        term = rng.uniform(0.1, 10.0, size=(n, n))
        lower = np.tril_indices(n, k=-1)
        cycle[lower] = np.inf
        term[lower] = np.inf
        bound = float(np.median(cycle[np.isfinite(cycle)]))

        ref_dp, ref_parent = reference.min_period_tables_numpy(cycle, n, p)
        got_dp, got_parent = funcs["min_period_tables"](cycle, n, p)
        assert (ref_dp == got_dp).all() and (ref_parent == got_parent).all()

        ref_dp, ref_parent = reference.min_latency_tables_numpy(
            cycle, term, bound, n, p
        )
        got_dp, got_parent = funcs["min_latency_tables"](cycle, term, bound, n, p)
        assert (ref_dp == got_dp).all() and (ref_parent == got_parent).all()


# ----------------------------------------------------------------------------- #
# corpus replay under the compiled backend
# ----------------------------------------------------------------------------- #
@pytest.mark.skipif(not ENTRIES, reason="corpus is empty")
class TestCorpusReplayCompiled:
    @pytest.mark.parametrize(
        "entry", ENTRIES, ids=[entry.label for entry in ENTRIES]
    )
    def test_corpus_entry_green_with_compiled_kernels(self, entry):
        """Every archived counterexample stays green with backend=compiled."""
        with kernels.use_backend("compiled"):
            report = differential_check(entry.application, entry.platform)
        assert report.ok, report.failures
