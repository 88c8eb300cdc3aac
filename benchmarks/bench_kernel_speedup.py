"""Speedup gate of the compiled kernel backend over the numpy reference.

The acceptance case of the compiled-kernel work: at the paper-scale DP size
(n=64 stages, p=16 processors) the compiled homogeneous-DP table kernels
must be **at least 5x** faster than the numpy reference path, while staying
bit-identical (asserted here on every timed input, on top of the load-time
validation the engine already passed).  One end-to-end sweep is measured
alongside: it must show a measurable win (>= 10%) because the DP tables
dominate its profile.

When the compiled engine is unavailable (no C compiler, or
``REPRO_KERNELS_DISABLE``), the suite **skips with the recorded reason**
rather than failing — graceful fallback is part of the contract and CI runs
a leg in exactly that configuration.

A full run writes two artefacts:

* ``benchmarks/results/kernel_speedup.txt`` — human-readable table;
* ``BENCH_kernels.json`` at the repo root — machine-readable trajectory
  point (engine, per-kernel times and speedups) for tracking perf over time.

Running the module as a script (``python benchmarks/bench_kernel_speedup.py
--smoke``) performs the same gated measurement without the pytest harness,
with a tiny end-to-end sweep; CI wires that into ``make bench-smoke``.  A
smoke run only prints its report: the tracked trajectory point records full
runs only.  The DP tables are timed with the full repetition count in both
modes, numpy and compiled calls interleaved so both see the same noise.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from bench_utils import BENCH_SEED, write_report
from repro.core import kernels
from repro.core.kernels import compiled, reference
from repro.experiments.sweep import run_sweep, sweep_results_equal
from repro.generators.experiments import experiment_config

#: paper-scale DP size of the acceptance gate
N_STAGES = 64
N_PROCESSORS = 16

#: required speedup of the compiled DP table kernels over numpy
MIN_DP_SPEEDUP = 5.0
#: required end-to-end sweep improvement (compiled vs numpy backend)
MIN_SWEEP_SPEEDUP = 1.10

_ROOT = Path(__file__).resolve().parent.parent
_JSON_PATH = _ROOT / "BENCH_kernels.json"


#: timed calls per DP table kernel and backend (best-of)
DP_REPS = 200


def _best_of(fn, *args, reps: int, kwargs: dict | None = None):
    """Best-of-``reps`` wall time (robust against scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn(*args, **(kwargs or {}))
        best = min(best, time.perf_counter() - start)
    return best, result


def _best_of_interleaved(first, second, reps: int = DP_REPS):
    """Best-of-``reps`` wall times of two calls made in alternation."""
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(reps):
        for k, call in enumerate((first, second)):
            start = time.perf_counter()
            results[k] = call()
            best[k] = min(best[k], time.perf_counter() - start)
    return best, results


def _dp_inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A dense upper-triangular (cycle, term) pair like the DP solvers build."""
    rng = np.random.default_rng(BENCH_SEED)
    cycle = rng.uniform(0.5, 5.0, size=(n, n))
    term = rng.uniform(0.5, 5.0, size=(n, n))
    lower = np.tril_indices(n, k=-1)
    cycle[lower] = np.inf
    term[lower] = np.inf
    return cycle, term


def measure(smoke: bool = False) -> dict:
    """Time both DP table kernels compiled-vs-numpy and one end-to-end sweep."""
    funcs = compiled.engine_functions()
    assert funcs is not None
    n, p = N_STAGES, N_PROCESSORS
    cycle, term = _dp_inputs(n)
    period_bound = float(np.median(cycle[np.isfinite(cycle)]))

    kernels_out: dict[str, dict] = {}

    (t_np, t_cc), (ref, got) = _best_of_interleaved(
        lambda: reference.min_period_tables_numpy(cycle, n, p),
        lambda: funcs["min_period_tables"](cycle, n, p),
    )
    assert (ref[0] == got[0]).all() and (ref[1] == got[1]).all()
    kernels_out["min_period_tables"] = {
        "numpy_us": t_np * 1e6, "compiled_us": t_cc * 1e6, "speedup": t_np / t_cc,
    }

    (t_np, t_cc), (ref, got) = _best_of_interleaved(
        lambda: reference.min_latency_tables_numpy(cycle, term, period_bound, n, p),
        lambda: funcs["min_latency_tables"](cycle, term, period_bound, n, p),
    )
    assert (ref[0] == got[0]).all() and (ref[1] == got[1]).all()
    kernels_out["min_latency_tables"] = {
        "numpy_us": t_np * 1e6, "compiled_us": t_cc * 1e6, "speedup": t_np / t_cc,
    }

    # end-to-end: sweep the homogeneous DP solvers — the consumers of the
    # gated table kernels — numpy backend vs compiled backend; identical
    # speeds make the platforms fully homogeneous, which those solvers need
    config = replace(
        experiment_config("E1", 32 if smoke else 64, 8,
                          n_instances=2 if smoke else 5),
        speed_range=(5, 5),
    )
    sweep_args = dict(
        heuristics=["hom-dp-latency-for-period", "hom-dp-period-for-latency"],
        n_thresholds=3 if smoke else 5,
        seed=BENCH_SEED,
    )
    sweep_reps = 1 if smoke else 5
    with kernels.use_backend("numpy"):
        t_sweep_np, numpy_sweep = _best_of(
            run_sweep, config, reps=sweep_reps, kwargs=sweep_args
        )
    with kernels.use_backend("compiled"):
        t_sweep_cc, compiled_sweep = _best_of(
            run_sweep, config, reps=sweep_reps, kwargs=sweep_args
        )
    # identical results before any speed claim
    assert sweep_results_equal(numpy_sweep, compiled_sweep)

    return {
        "engine": compiled.engine_name(),
        "n_stages": n,
        "n_processors": p,
        "kernels": kernels_out,
        "sweep": {
            "label": config.label,
            "numpy_s": t_sweep_np,
            "compiled_s": t_sweep_cc,
            "speedup": t_sweep_np / t_sweep_cc,
        },
    }


def render(data: dict) -> str:
    lines = [
        f"compiled-kernel speedup gate (engine: {data['engine']}, "
        f"n={data['n_stages']}, p={data['n_processors']})",
        "",
        f"{'kernel':<22} {'numpy':>12} {'compiled':>12} {'speedup':>9}",
        "-" * 58,
    ]
    for name, row in data["kernels"].items():
        lines.append(
            f"{name:<22} {row['numpy_us']:>10.1f}us {row['compiled_us']:>10.1f}us "
            f"{row['speedup']:>8.1f}x"
        )
    sweep = data["sweep"]
    lines += [
        "",
        f"end-to-end sweep ({sweep['label']}): "
        f"numpy {sweep['numpy_s'] * 1e3:.0f} ms, "
        f"compiled {sweep['compiled_s'] * 1e3:.0f} ms "
        f"({sweep['speedup']:.2f}x, identical curves)",
    ]
    return "\n".join(lines)


def persist(data: dict) -> Path:
    """Write the text report and the trajectory point; returns the report path."""
    report_path = write_report("kernel_speedup", render(data))
    _JSON_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report_path


def check(data: dict, *, smoke: bool = False) -> None:
    for name in ("min_period_tables", "min_latency_tables"):
        speedup = data["kernels"][name]["speedup"]
        assert speedup >= MIN_DP_SPEEDUP, (
            f"{name}: compiled only {speedup:.2f}x faster than numpy "
            f"(need >= {MIN_DP_SPEEDUP:.0f}x)"
        )
    # the smoke sweep is too small for a stable end-to-end ratio; the full
    # run must show the win that motivated the backend
    if not smoke:
        speedup = data["sweep"]["speedup"]
        assert speedup >= MIN_SWEEP_SPEEDUP, (
            f"end-to-end sweep only {speedup:.2f}x (need >= {MIN_SWEEP_SPEEDUP})"
        )


def _skip_reason() -> str | None:
    if compiled.engine_functions() is None:
        return f"no compiled engine: {compiled.unavailable_reason()}"
    return None


def test_compiled_dp_kernels_are_5x_faster():
    import pytest

    reason = _skip_reason()
    if reason:
        pytest.skip(reason)
    data = measure()
    persist(data)
    check(data)


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="gate the compiled kernel backend: >= 5x on the DP "
        "tables vs numpy, identical results, end-to-end sweep win"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="a tiny end-to-end sweep and no files written (CI's bench-smoke slice)",
    )
    cli_args = parser.parse_args()
    reason = _skip_reason()
    if reason:
        print(f"SKIP: {reason}")
        sys.exit(0)
    bench_data = measure(smoke=cli_args.smoke)
    print(render(bench_data))
    if not cli_args.smoke:
        print(f"report written to {persist(bench_data)}")
        print(f"trajectory point written to {_JSON_PATH}")
    check(bench_data, smoke=cli_args.smoke)
