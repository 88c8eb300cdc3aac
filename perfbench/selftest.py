#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that the answer checker rejects a planted wrong mapping and a
planted wrong ``feasible`` flag (and accepts the true answer), that the
process-hygiene check catches a planted orphan and then reaps it, that
host-speed scaling uses the calibrations around an interval, that the
trace derivation and the runner emit exactly the metric names of
``BENCHMARK.json``, and that ``spec.json`` describes the same workloads.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# bytecode goes to the benchmark's work directory, never the source tree
sys.pycache_prefix = str(ROOT / ".perfbench-work" / "pycache")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checker import AnswerLedger, answer_problems  # noqa: E402
from hygiene import become_subreaper, leftover_descendants, reap_all  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def test_checker() -> None:
    from repro.core.mapping import IntervalMapping
    from repro.generators.experiments import experiment_config, generate_instances
    from repro.solvers.registry import resolve_solvers
    from repro.solvers.service import solve_many

    instance = generate_instances(experiment_config("E1", 10, 6, n_instances=1), seed=3)[0]
    app, platform = instance.application, instance.platform
    handle = resolve_solvers("H1")[0]
    loose = solve_many([(app, platform)], [handle], period_bound=1e9).for_solver(0)[0]
    request = handle.default_request(period_bound=1e9)
    expect(answer_problems(app, platform, request, loose) == [],
           "checker accepts a true answer")

    # a different valid mapping, with the answer's period and latency kept
    wrong = IntervalMapping.single_processor(app.n_stages, platform.n_processors - 1)
    if wrong == loose.mapping:
        wrong = IntervalMapping.single_processor(app.n_stages, 0)
    planted = replace(loose, mapping=wrong)
    expect(any("re-evaluated" in p for p in answer_problems(app, platform, request, planted)),
           "checker rejects a planted wrong mapping")

    flipped = replace(loose, feasible=not loose.feasible)
    expect(any("feasible" in p for p in answer_problems(app, platform, request, flipped)),
           "checker rejects a planted wrong feasible flag")

    # a bound a hair below the achieved period: feasible must be False
    tight = handle.default_request(period_bound=loose.period * (1 - 1e-12))
    expect(any("feasible" in p for p in answer_problems(app, platform, tight, loose)),
           "checker applies the bound with no slack")

    ledger = AnswerLedger(digest_ops=1)
    ledger.check(0, 0, "true", app, platform, request, loose)
    ledger.check(0, 1, "flipped", app, platform, request, flipped)
    ledger.check(1, 0, "outside digest", app, platform, request, loose)
    expect((ledger.attempted, ledger.failed, ledger.n_digested) == (3, 1, 2),
           "ledger counts answers and digests only the first operations")
    again = AnswerLedger(digest_ops=1)
    again.check(0, 1, "flipped", app, platform, request, flipped)
    again.check(0, 0, "true", app, platform, request, loose)
    expect(again.digest() == ledger.digest(),
           "answers digest does not depend on completion order")


def test_hygiene() -> None:
    expect(become_subreaper(), "became a child subreaper")
    # the child forks a grandchild and exits at once: an orphan
    code = ("import os, time\n"
            "if os.fork() == 0:\n"
            "    time.sleep(60)\n"
            "    os._exit(0)\n")
    subprocess.run([sys.executable, "-c", code], check=True)
    time.sleep(0.2)
    planted = leftover_descendants()
    expect(len(planted) == 1, f"hygiene check catches a planted orphan ({planted})")
    left = reap_all(grace=2.0)
    expect(left == {} and leftover_descendants() == {},
           "reap_all terminates and reaps the orphan")


def test_host_speed() -> None:
    from hostspeed import REFERENCE_S, calibrate, scales

    ref = REFERENCE_S[1]
    expect(scales([ref, ref, 2 * ref, 2 * ref], 1) == [1.0, 2 / 3, 0.5],
           "an interval is scaled by the mean of the calibrations around it")
    expect(calibrate(0) == REFERENCE_S[0] and scales([calibrate(0)] * 3, 0) == [1.0, 1.0],
           "width 0 leaves times unscaled")
    expect(all(calibrate(width) > 0 for width in (1, 2)) and leftover_descendants() == {},
           "calibration runs at widths 1 and 2 and reaps its forked copy")


def test_metric_names() -> None:
    from tracing import LAYER_METRICS, Recorder, layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS.items()),
           "per-layer metric names and units match BENCHMARK.json")
    with tempfile.TemporaryDirectory() as tmp:
        recorder = Recorder(Path(tmp))
        with recorder.operation(0):
            with recorder.span("engine.split"):
                pass
        trace = Path(tmp) / "trace.json"
        recorder.write_chrome(trace, {"n_ops": 1, "untraced_ops_per_s": 1.0,
                                      "traced_ops_per_s": 1.0})
        derived = layer_metrics(trace)
    expect(list(derived) == [m["name"] for m in spec["per_layer"]],
           "the trace derivation emits exactly the per-layer names")
    expect(derived["engine.split_calls"] == 1.0, "a recorded span is counted")

    described = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {name: w["why"] for name, w in described["workloads"].items()},
           "spec.json describes the BENCHMARK.json workloads with the same why")
    mapped = {m for layer in described["layers"] for m in layer["metrics"]}
    expect(mapped == set(LAYER_METRICS), "every per-layer metric is in the layer map")


def main() -> int:
    os.chdir(ROOT)
    test_checker()
    test_hygiene()
    test_host_speed()
    test_metric_names()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
