#!/usr/bin/env python3
"""The repository benchmark: four workloads over the three canonical paths.

Run from the repository root::

    python3 perfbench/run.py --workload fig6_sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
half the time untraced and half traced, and prints the per-layer metrics
derived from the Chrome trace it writes under ``.perfbench-work/``.  The
last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (answers), and ``metrics``.  Workloads, metrics and the layer
map are described in ``perfbench/README.md`` and ``perfbench/spec.json``.

Every artefact (compiled kernels, bytecode cache, solve caches, journals,
sinks, sockets, temporary files, traces) goes under ``.perfbench-work/``
in the repository root.  Every process the benchmark causes is reaped
before it exits, and a self-check fails the run if one is left.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: timed set-ups per run (the daemon instead sets up once per round)
SETUP_REPEATS = 7
#: the run raises RunTimeout after this long and cleans up
RUN_TIMEOUT_S = 170


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _isolate_environment() -> dict[str, str]:
    """Point every cache and temporary file of this process and its children
    into the work directory; returns the environment for children."""
    for sub in ("pycache", "kernels", "xdg-cache", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    # the caller's REPRO_* knobs and bytecode settings must not leak in:
    # bytecode is always cached, under the work directory
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")
           and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        REPRO_KERNEL_CACHE=str(WORK / "kernels"),
        XDG_CACHE_HOME=str(WORK / "xdg-cache"),
        TMPDIR=str(WORK / "tmp"),
    )
    os.environ.clear()
    os.environ.update(env)
    sys.pycache_prefix = env["PYTHONPYCACHEPREFIX"]
    sys.dont_write_bytecode = False
    sys.path.insert(0, env["PYTHONPATH"])
    tempfile.tempdir = env["TMPDIR"]
    return env


class RunTimeout(BaseException):
    """The run overran :data:`RUN_TIMEOUT_S`.

    A ``BaseException``, not a ``TimeoutError``: that one is an ``OSError``,
    which ``multiprocessing`` swallows when it interrupts a ``waitpid``.
    """


def _raise(exc_type):
    def handler(signum, _frame):
        raise exc_type(f"signal {signum}")
    return handler


def _default_signals_in_child() -> None:
    # forked pool workers must die on Pool.terminate()'s SIGTERM even when
    # blocked in native code, where a Python-level handler never runs
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _p(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            env: dict[str, str], run_dir: Path, closers: list) -> tuple[dict, object, list]:
    """Run one workload; returns (metrics, ledger, info lines)."""
    from checker import AnswerLedger
    from workloads import WORKLOADS, Context

    cls = WORKLOADS[workload]
    ledger = AnswerLedger(digest_ops=cls.digest_ops)
    ctx = Context(root=ROOT, run_dir=run_dir, seed=seed, env=env,
                  python=sys.executable, ledger=ledger)
    load = cls(ctx)
    closers.append(load.close)
    load.prepare()
    setup = None if trace else load.setup_times(SETUP_REPEATS)
    load.warm_up()
    info: list[str] = []
    if not trace:
        m = load.run(seconds)
        setup = setup if setup.setup_seconds else m
        ops = m.scaled_ops()
        scaled = statistics.quantiles(ops, n=4)
        raw = statistics.quantiles(m.op_seconds, n=4)
        metrics = {
            "ops_per_s": m.scaled_ops_per_s,
            "op_p50_ms": scaled[1] * 1e3,
            "setup_s": statistics.median(setup.scaled_setups()),
            "peak_rss_mb": statistics.median(m.rss_mb),
        }
        info.append(f"operations: {len(ops)} in {m.busy_seconds:.3f} s busy")
        if m.width:
            info.append(f"host-speed calibration (width {m.width}): median "
                        f"{statistics.median(m.calibrations) * 1e3:.3f} ms, range "
                        f"{min(m.calibrations) * 1e3:.3f}-{max(m.calibrations) * 1e3:.3f} ms")
        info.append(f"scaled op quartiles "
                    f"{scaled[0] * 1e3:.4f} / {scaled[1] * 1e3:.4f} / "
                    f"{scaled[2] * 1e3:.4f} ms")
        info.append(f"raw: ops_per_s {m.ops_per_s:.4f}; op quartiles "
                    f"{raw[0] * 1e3:.4f} / {raw[1] * 1e3:.4f} / {raw[2] * 1e3:.4f} ms; "
                    f"setup_s {statistics.median(setup.setup_seconds):.4f}")
        if len(ops) >= 100:
            info.append(f"op_p90_ms: {_p(ops, 90) * 1e3:.4f} ms (n={len(ops)})")
        for label, hit in (("hit", True), ("miss", False)):
            values = m.scaled_ops(hit)
            if values:
                info.append(f"{label}_p50_ms: {statistics.median(values) * 1e3:.4f} ms "
                            f"(n={len(values)})")
        info.append("setup_s samples: " + ", ".join(
            f"{t:.4f}" for t in setup.scaled_setups()))
    else:
        from tracing import Recorder, install_layer_spans, layer_metrics

        untraced = load.run(seconds / 2)
        spill = run_dir / "spill"
        spill.mkdir()
        recorder = Recorder(spill)
        install_layer_spans(recorder)
        if workload == "cli_cold":
            load.measure_floors(recorder)
        traced = load.run(seconds / 2, recorder)
        trace_path = WORK / f"trace-{workload}.json"
        recorder.write_chrome(trace_path, {
            "workload": workload, "seed": seed, "n_ops": len(traced.op_seconds),
            "untraced_ops_per_s": untraced.ops_per_s,
            "traced_ops_per_s": traced.ops_per_s,
        })
        metrics = layer_metrics(trace_path)
        info.append(f"trace: {os.path.relpath(trace_path, ROOT)} "
                    f"({len(traced.op_seconds)} traced operations)")
    info.extend(f"note: {note}" for note in ctx.notes)
    return metrics, ledger, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    os.chdir(ROOT)
    env = _isolate_environment()
    sys.path.insert(0, str(HERE))
    from hygiene import become_subreaper, leftover_descendants, reap_all

    subreaper = become_subreaper()
    signal.signal(signal.SIGTERM, _raise(SystemExit))
    signal.signal(signal.SIGALRM, _raise(RunTimeout))
    os.register_at_fork(after_in_child=_default_signals_in_child)
    signal.alarm(RUN_TIMEOUT_S)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    closers: list = []
    failed_run = False
    try:
        metrics, ledger, info = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace), env, run_dir, closers)
    except BaseException:  # noqa: BLE001 - clean up, report, exit non-zero
        traceback.print_exc()
        failed_run = True
    finally:
        signal.alarm(0)
        for close in closers:
            try:
                close()
            except Exception:  # noqa: BLE001 - reaping below still runs
                traceback.print_exc()
        reap_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    if not subreaper:
        print("warning: could not become a child subreaper", file=sys.stderr)
    left = leftover_descendants()  # the self-check: nothing may remain
    if left:
        print("hygiene: processes left behind: " + ", ".join(
            f"{pid} ({what})" for pid, what in sorted(left.items())), file=sys.stderr)
    if failed_run:
        return 1
    if list(metrics) != list(declared):
        print(f"error: metrics {list(metrics)} do not match BENCHMARK.json "
              f"{section} {list(declared)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"answers_digest: {ledger.digest()} "
          f"(first {ledger.digest_ops} operations, {ledger.n_digested} answers)")
    print(f"answers: {ledger.attempted} attempted, {ledger.failed} failed "
          f"(failed_share {ledger.failed / max(ledger.attempted, 1):.6g})")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    for line in info:
        print(line)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {declared[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0 and not left,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main())
