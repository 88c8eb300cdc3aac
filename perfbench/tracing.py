"""Benchmark-side tracing: spans around calls into the program's layers.

Nothing here changes the program.  A traced run wraps the public functions
that mark each layer boundary (``run_sweep``, ``solve_many``,
``SplittingState.best_two_way_split``, ``SolveCache.get`` ...) with a
timing wrapper, records one span per call — name, start, end, parent span,
operation id — in memory, and writes them at the end as Chrome trace-event
JSON (Perfetto opens it).  Every per-layer metric is then derived from that
file alone (:func:`layer_metrics`).

Pool workers are forked from the benchmark process, so they inherit the
wrappers; a span finished in a worker is appended to a per-pid spill file
and merged into the trace as that worker's lane.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Iterator

#: per-layer metrics, in BENCHMARK.json order: name -> unit.  Counts, times
#: and bytes are per operation of the traced half; times are self times.
LAYER_METRICS: dict[str, str] = {
    # cli
    "startup.python_ms": "ms",
    "startup.numpy_ms": "ms",
    "import.repro_ms": "ms",
    "import.scipy_ms": "ms",
    "import.networkx_ms": "ms",
    "cli.run_ms": "ms",
    # server
    "server.ping_p50_ms": "ms",
    "server.hit_p50_ms": "ms",
    "server.miss_p50_ms": "ms",
    "server.hit_overhead_ms": "ms",
    "coalescer.batches": "count/op",
    "coalescer.mean_batch": "count",
    "coalescer.coalesced": "count/op",
    "daemon.cache_hit_ratio": "ratio",
    "daemon.solved": "count/op",
    # solvers
    "service.calls": "count/op",
    "service.self_s": "s/op",
    "identity.digests": "count/op",
    "identity.s": "s/op",
    "solver.heuristic.calls": "count/op",
    "solver.heuristic.s": "s/op",
    "solver.exact.calls": "count/op",
    "solver.exact.s": "s/op",
    # solvers/frontier
    "frontier.solves": "count/op",
    "frontier.extracted": "count/op",
    "frontier.s": "s/op",
    # heuristics
    "engine.split_calls": "count/op",
    "engine.split_s": "s/op",
    # exact / core/kernels
    "kernels.dp_table_calls": "count/op",
    "kernels.dp_table_s": "s/op",
    # cache
    "cache.gets": "count/op",
    "cache.hit_ratio": "ratio",
    "cache.get_s": "s/op",
    "cache.puts": "count/op",
    "cache.put_s": "s/op",
    "cache.disk_bytes": "B/op",
    # utils (pool and shm)
    "pool.maps": "count/op",
    "pool.map_s": "s/op",
    "shm.publish_s": "s/op",
    "shm.bytes": "B/op",
    # workloads
    "plan.expand_s": "s/op",
    "engine.execute_self_s": "s/op",
    "journal.bytes": "B/op",
    "sinks.write_s": "s/op",
    "sinks.bytes": "B/op",
    # experiments
    "sweep.reference_ranges_s": "s/op",
    "sweep.self_s": "s/op",
    # the trace itself
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: name of the span that encloses one whole operation
OP_SPAN = "op"
#: spans measured between operations on purpose (start-up floors, pings)
PROBE_SPANS = ("cli.probe.python", "cli.probe.numpy", "server.ping")


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self, spill_dir: Path) -> None:
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict[str, Any]] = []
        self.counters: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spill_fd: int | None = None

    def _state(self) -> threading.local:
        state = self._local
        if getattr(state, "pid", None) != os.getpid():
            # first span of this thread, or of a freshly forked pool worker:
            # a worker starts its own lane but keeps the operation id
            state.pid = os.getpid()
            state.stack = []
            state.op = getattr(state, "op", None)
        return state

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[dict[str, Any]]:
        """Record one span; the yielded dict becomes the span's args."""
        state = self._state()
        span_id = f"{state.pid}:{next(self._ids)}"
        parent = state.stack[-1] if state.stack else None
        state.stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield args
        finally:
            end = time.perf_counter_ns()
            state.stack.pop()
            self._finish({
                "name": name, "start": start, "end": end, "id": span_id,
                "parent": parent, "op": state.op, "pid": state.pid,
                "tid": threading.get_native_id(), "args": args,
            })

    @contextmanager
    def operation(self, op_id: int, **args: Any) -> Iterator[dict[str, Any]]:
        """Span of one whole operation; every span inside carries ``op_id``."""
        state = self._state()
        state.op = op_id
        try:
            with self.span(OP_SPAN, **args) as span_args:
                yield span_args
        finally:
            state.op = None

    def add_span(self, name: str, start_ns: int, end_ns: int, *,
                 parent: str | None = None, op: int | None = None,
                 **args: Any) -> str:
        """Record a span measured elsewhere (a child process); returns its id."""
        span_id = f"{self.pid}:{next(self._ids)}"
        self._finish({
            "name": name, "start": start_ns, "end": end_ns, "id": span_id,
            "parent": parent, "op": op, "pid": self.pid,
            "tid": threading.get_native_id(), "args": args,
        })
        return span_id

    def counter(self, name: str, value: float) -> None:
        self.counters.append({"name": name, "ts": time.perf_counter_ns(),
                              "value": float(value), "pid": self.pid})

    def _finish(self, span: dict[str, Any]) -> None:
        if span["pid"] == self.pid:
            self.spans.append(span)  # list.append is atomic under the GIL
            return
        if self._spill_fd is None:
            path = self.spill_dir / f"spans-{span['pid']}.jsonl"
            self._spill_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        # one unbuffered write per span: a pool worker is terminated, not
        # shut down, so nothing may wait in a buffer
        os.write(self._spill_fd, (json.dumps(span) + "\n").encode("utf-8"))

    def _spilled(self) -> list[dict[str, Any]]:
        spans = []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    spans.append(json.loads(line))
        return spans

    def write_chrome(self, path: Path, other: dict[str, Any]) -> None:
        """Write every span and counter as Chrome trace-event JSON."""
        events: list[dict[str, Any]] = []
        for span in self.spans + self._spilled():
            events.append({
                "name": span["name"], "cat": span["name"].split(".")[0],
                "ph": "X", "ts": span["start"] / 1e3,
                "dur": (span["end"] - span["start"]) / 1e3,
                "pid": span["pid"], "tid": span["tid"],
                "args": {"id": span["id"], "parent": span["parent"],
                         "op": span["op"], **span["args"]},
            })
        for counter in self.counters:
            events.append({
                "name": counter["name"], "ph": "C", "ts": counter["ts"] / 1e3,
                "pid": counter["pid"], "args": {"value": counter["value"]},
            })
        document = {"traceEvents": events, "displayTimeUnit": "ms",
                    "otherData": other}
        Path(path).write_text(json.dumps(document), encoding="utf-8")


class Patcher:
    """Install timing wrappers around functions and methods of the program."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def _wrap(self, original: Callable, name: str | Callable,
              annotate: Callable | None) -> Callable:
        recorder = self.recorder

        @wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            with recorder.span(span_name) as span_args:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span_args, result, args)
                return result

        return wrapper

    def function(self, module: str, attr: str, name: str,
                 annotate: Callable | None = None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module alias of it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(original, name, annotate)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def method(self, module: str, cls: str, attr: str, name: str | Callable,
               annotate: Callable | None = None) -> None:
        owner = getattr(importlib.import_module(module), cls)
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, annotate))


def _cache_hit(span_args, result, _args) -> None:
    span_args["hit"] = result is not None


def _arena_bytes(span_args, _result, args) -> None:
    span_args["bytes"] = args[0].shipment().size


def install_layer_spans(recorder: Recorder) -> None:
    """Wrap the layer boundaries named by the per-layer metrics."""
    patch = Patcher(recorder)
    patch.function("repro.experiments.sweep", "run_sweep", "sweep.run_sweep")
    patch.function("repro.experiments.runner", "reference_ranges",
                   "sweep.reference_ranges")
    patch.function("repro.workloads.plan", "solve_plan", "plan.expand")
    patch.function("repro.workloads.engine", "execute_plan", "engine.execute_plan")
    patch.function("repro.workloads.engine", "write_sinks", "sinks.write")
    patch.function("repro.solvers.service", "solve_many", "service.solve_many")
    patch.function("repro.solvers.service", "solve_frontier_many",
                   "service.solve_frontier_many")
    patch.function("repro.solvers.frontier", "frontier_solve", "frontier.solve")
    patch.function("repro.solvers.frontier", "extract_result", "frontier.extract")
    patch.function("repro.core.identity", "instance_digest", "identity.digest")
    patch.function("repro.core.identity", "digest_document", "identity.digest")
    patch.function("repro.core.kernels.dispatch", "min_period_tables",
                   "kernels.dp_table")
    patch.function("repro.core.kernels.dispatch", "min_latency_tables",
                   "kernels.dp_table")
    patch.function("repro.utils.parallel", "parallel_map", "pool.map")
    patch.method("repro.utils.parallel", "WorkerPool", "map", "pool.map")
    patch.method("repro.utils.shm", "InstanceArena", "__init__", "shm.publish",
                 _arena_bytes)
    patch.method("repro.solvers.registry", "Solver", "solve",
                 lambda solver, *rest: f"solver.{solver.family}")
    for split in ("best_two_way_split", "best_three_way_split"):
        patch.method("repro.heuristics.engine", "SplittingState", split,
                     "engine.split")
    for op in ("get", "get_frontier"):
        patch.method("repro.cache.store", "SolveCache", op, "cache.get", _cache_hit)
    for op in ("put", "put_frontier"):
        patch.method("repro.cache.store", "SolveCache", op, "cache.put")


# --------------------------------------------------------------------------- #
# derivation: per-layer metrics from the Chrome trace file alone
# --------------------------------------------------------------------------- #
def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(trace_path: Path) -> dict[str, float]:
    """Every per-layer metric, computed from one Chrome trace file."""
    document = json.loads(Path(trace_path).read_text(encoding="utf-8"))
    other = document["otherData"]
    n_ops = max(int(other["n_ops"]), 1)
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    child_us: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["args"]["parent"] is not None:
            child_us[span["args"]["parent"]] += span["dur"]
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        span["self"] = max(span["dur"] - child_us[span["args"]["id"]], 0.0)
        # outside an operation only the probes count: the benchmark's own
        # reference solves and checks are not the program's work
        if span["args"]["op"] is not None or span["name"] in PROBE_SPANS:
            by_name[span["name"]].append(span)
    counters: dict[str, float] = defaultdict(float)
    for event in document["traceEvents"]:
        if event["ph"] == "C":
            counters[event["name"]] += event["args"]["value"]

    def calls(*names: str) -> float:
        return sum(len(by_name[n]) for n in names) / n_ops

    def self_s(*names: str) -> float:
        return sum(s["self"] for n in names for s in by_name[n]) / 1e6 / n_ops

    def p50_ms(name: str, **match: Any) -> float:
        return _p50([s["dur"] / 1e3 for s in by_name[name]
                     if all(s["args"].get(k) == v for k, v in match.items())])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gets = by_name["cache.get"]
    ops = by_name[OP_SPAN]
    python_ms = p50_ms("cli.probe.python")
    ping_ms = p50_ms("server.ping")
    hit_ms = p50_ms("client.solve", hit=True)
    metrics = {
        "startup.python_ms": python_ms,
        "startup.numpy_ms": p50_ms("cli.probe.numpy"),
        "import.repro_ms": p50_ms("import.repro"),
        "import.scipy_ms": p50_ms("import.scipy"),
        "import.networkx_ms": p50_ms("import.networkx"),
        "cli.run_ms": _p50([s["self"] / 1e3 for s in ops if s["args"].get("cli")]),
        "server.ping_p50_ms": ping_ms,
        "server.hit_p50_ms": hit_ms,
        "server.miss_p50_ms": p50_ms("client.solve", hit=False),
        "server.hit_overhead_ms": hit_ms - ping_ms if hit_ms and ping_ms else 0.0,
        "coalescer.batches": counters["coalescer.n_batches"] / n_ops,
        "coalescer.mean_batch": ratio(counters["coalescer.n_enqueued"],
                                      counters["coalescer.n_batches"]),
        "coalescer.coalesced": counters["coalescer.n_coalesced"] / n_ops,
        "daemon.cache_hit_ratio": ratio(counters["daemon.n_cache_hits"],
                                        counters["daemon.n_tasks"]),
        "daemon.solved": counters["daemon.n_solved"] / n_ops,
        "service.calls": calls("service.solve_many", "service.solve_frontier_many"),
        "service.self_s": self_s("service.solve_many", "service.solve_frontier_many"),
        "identity.digests": calls("identity.digest"),
        "identity.s": self_s("identity.digest"),
        "solver.heuristic.calls": calls("solver.heuristic"),
        "solver.heuristic.s": self_s("solver.heuristic"),
        "solver.exact.calls": calls("solver.exact"),
        "solver.exact.s": self_s("solver.exact"),
        "frontier.solves": calls("frontier.solve"),
        "frontier.extracted": calls("frontier.extract"),
        "frontier.s": self_s("frontier.solve", "frontier.extract"),
        "engine.split_calls": calls("engine.split"),
        "engine.split_s": self_s("engine.split"),
        "kernels.dp_table_calls": calls("kernels.dp_table"),
        "kernels.dp_table_s": self_s("kernels.dp_table"),
        "cache.gets": calls("cache.get"),
        "cache.hit_ratio": ratio(sum(1 for s in gets if s["args"].get("hit")), len(gets)),
        "cache.get_s": self_s("cache.get"),
        "cache.puts": calls("cache.put"),
        "cache.put_s": self_s("cache.put"),
        "cache.disk_bytes": counters["cache.disk_bytes"] / n_ops,
        "pool.maps": calls("pool.map"),
        "pool.map_s": self_s("pool.map"),
        "shm.publish_s": self_s("shm.publish"),
        "shm.bytes": sum(s["args"].get("bytes", 0) for s in by_name["shm.publish"]) / n_ops,
        "plan.expand_s": self_s("plan.expand"),
        "engine.execute_self_s": self_s("engine.execute_plan"),
        "journal.bytes": counters["journal.bytes"] / n_ops,
        "sinks.write_s": self_s("sinks.write"),
        "sinks.bytes": counters["sinks.bytes"] / n_ops,
        "sweep.reference_ranges_s": self_s("sweep.reference_ranges"),
        "sweep.self_s": self_s("sweep.run_sweep"),
        "trace.coverage": ratio(sum(s["dur"] - s["self"] for s in ops),
                                sum(s["dur"] for s in ops)),
        "trace.overhead": ratio(other["untraced_ops_per_s"], other["traced_ops_per_s"]),
    }
    if list(metrics) != list(LAYER_METRICS):
        raise RuntimeError("derived metrics out of sync with LAYER_METRICS")
    return metrics
