"""The four workloads: what one operation is, how it is timed and checked.

Every workload is driven from this one process: in-process calls into the
library's public functions (``fig6_sweep``, ``exact_campaign``), a spawned
``repro serve`` daemon fed by two client threads (``daemon_zipf``), or one
spawned ``repro solve`` process per operation (``cli_cold``).  Inputs are
generated from the workload seed; the program only ever sees the generated
inputs.

Each workload implements

* ``prepare()`` — untimed: generate inputs and in-process references;
* ``setup_times(n)`` — ``n`` timed set-ups for ``setup_s``, as a
  :class:`Measurement` (empty where ``run`` times the set-ups);
* ``run(seconds, recorder)`` — operations until ``seconds`` of wall clock
  have passed; returns a :class:`Measurement`.  With a ``recorder`` every
  operation is wrapped in an operation span.

Every timed interval is bracketed by host-speed calibrations
(:mod:`hostspeed`) and kept both raw and scaled.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from checker import AnswerLedger
from hostspeed import calibrate, scales
from hygiene import reap_zombie_children, stop_process_group

#: a spawned child (CLI run, set-up probe) is killed after this long
CHILD_TIMEOUT_S = 60.0


@dataclass
class Context:
    """What every workload gets from the runner."""

    root: Path
    run_dir: Path
    seed: int
    env: dict[str, str]
    python: str
    ledger: AnswerLedger
    notes: list[str] = field(default_factory=list)


@dataclass
class Measurement:
    """Timings of one measured phase (untraced, or the traced half).

    Timed intervals alternate with host-speed calibrations: interval ``i``
    lies between ``calibrations[i]`` and ``calibrations[i + 1]`` and was
    busy for ``interval_busy[i]`` seconds.  Every operation and set-up
    records its raw seconds and its interval, so it can be scaled.
    """

    op_seconds: list[float] = field(default_factory=list)
    op_interval: list[int] = field(default_factory=list)
    op_hit: list[bool | None] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    setup_interval: list[int] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    interval_busy: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    #: concurrent kernel copies per calibration: the CPUs the workload keeps busy
    width: int = 1

    def calibrate(self) -> None:
        self.calibrations.append(calibrate(self.width))

    @property
    def interval(self) -> int:
        """The interval the next timed event falls in."""
        return len(self.calibrations) - 1

    @property
    def busy_seconds(self) -> float:
        return sum(self.interval_busy)

    @property
    def ops_per_s(self) -> float:
        return len(self.op_seconds) / self.busy_seconds if self.op_seconds else 0.0

    @property
    def scaled_ops_per_s(self) -> float:
        busy = sum(b * s for b, s in zip(self.interval_busy, scales(self.calibrations, self.width)))
        return len(self.op_seconds) / busy if self.op_seconds else 0.0

    def scaled_ops(self, hit: bool | None = None) -> list[float]:
        """Scaled operation seconds (only hits or misses when ``hit`` is given)."""
        factors = scales(self.calibrations, self.width)
        return [t * factors[i] for t, i, h in
                zip(self.op_seconds, self.op_interval, self.op_hit)
                if hit is None or h == hit]

    def scaled_setups(self) -> list[float]:
        factors = scales(self.calibrations, self.width)
        return [t * factors[i] for t, i in zip(self.setup_seconds, self.setup_interval)]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class ChildRun:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    rss_mb: float
    start_ns: int
    end_ns: int


def run_child(argv: list[str], ctx: Context, *, tag: str) -> ChildRun:
    """Spawn ``argv`` and time it from spawn to exit (``wait4`` gives its RSS).

    Output goes to files, not pipes, so a chatty child never blocks on a
    full pipe; a watchdog kills it after :data:`CHILD_TIMEOUT_S`.
    """
    out_path = ctx.run_dir / f"{tag}.out"
    err_path = ctx.run_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start_ns = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env,
                                cwd=ctx.root)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end_ns = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        seconds=(end_ns - start_ns) / 1e9,
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        rss_mb=usage.ru_maxrss / 1024.0,
        start_ns=start_ns,
        end_ns=end_ns,
    )


def _probe(ctx: Context, code: str, tag: str, env: dict[str, str] | None = None) -> float:
    """Seconds for a fresh interpreter to run ``code``; it must exit 0."""
    probe_ctx = ctx if env is None else replace(ctx, env=env)
    child = run_child([ctx.python, "-c", code], probe_ctx, tag=tag)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe {code!r} failed: {child.stderr.strip()[-300:]}")
    return child.seconds


def _check_plan_run(ctx: Context, op: int, run) -> None:
    """Check every answer of a :class:`~repro.workloads.engine.WorkloadRun`."""
    for index, task in enumerate(run.plan.tasks):
        app, platform = run.plan.pair_for(task.instance_hash)
        ctx.ledger.check(op, index, f"{task.solver}@{task.threshold!r}",
                         app, platform, task.request(), run.results.get(task.digest))


class _SerialWorkload:
    """A closed loop with one client: operations back to back."""

    #: operations whose answers enter the answers digest (always run)
    digest_ops = 2
    #: CPUs an operation keeps busy (the calibration width)
    width = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.next_op = 0

    def prepare(self) -> None:
        pass

    def setup_times(self, repeats: int) -> Measurement:
        # a set-up is one fresh process, whatever the operations keep busy
        measurement = Measurement(width=1)
        measurement.calibrate()
        for _ in range(repeats):
            seconds = self.setup_once()
            measurement.setup_seconds.append(seconds)
            measurement.setup_interval.append(measurement.interval)
            measurement.interval_busy.append(seconds)
            measurement.calibrate()
        return measurement

    def setup_once(self) -> float:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed operation, so lazy set-up finishes before timing."""
        self._operation(-1, None)

    def run(self, seconds: float, recorder=None) -> Measurement:
        measurement = Measurement(width=self.width)
        deadline = time.monotonic() + seconds
        measurement.calibrate()
        while time.monotonic() < deadline or self.next_op < self.digest_ops:
            op = self.next_op
            self.next_op += 1
            elapsed, rss = self._operation(op, recorder)
            measurement.op_seconds.append(elapsed)
            measurement.op_interval.append(measurement.interval)
            measurement.op_hit.append(None)
            measurement.interval_busy.append(elapsed)
            measurement.calibrate()
            if rss is not None:
                measurement.rss_mb.append(rss)
        if not measurement.rss_mb:
            measurement.rss_mb.append(_self_rss_mb())
        return measurement

    def _operation(self, op: int, recorder) -> tuple[float, float | None]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# fig6_sweep
# --------------------------------------------------------------------------- #
class Fig6Sweep(_SerialWorkload):
    """One ``run_sweep`` panel: 5 fresh E1 instances (n=40, p=100) x H1-H6 x 10."""

    name = "fig6_sweep"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        from repro.generators.experiments import experiment_config

        self.config = experiment_config("E1", 40, 100, n_instances=5)
        self._captured: list[Any] = []
        self._install_capture()

    def _install_capture(self) -> None:
        """Keep each panel's plan run, so every answer can be checked."""
        import repro.experiments.sweep as sweep_module
        import repro.workloads.engine as engine_module

        captured = self._captured

        def execute_plan(*args, **kwargs):
            # looked up per call, so a traced run's span wrapper still runs
            run = engine_module.execute_plan(*args, **kwargs)
            captured.append(run)
            return run

        sweep_module.execute_plan = execute_plan

    def setup_once(self) -> float:
        return _probe(self.ctx, "import repro.experiments.sweep", "setup")

    def _operation(self, op: int, recorder) -> tuple[float, None]:
        from repro.experiments.sweep import run_sweep
        from repro.generators.experiments import generate_instances

        instances = generate_instances(
            self.config, seed=np.random.default_rng([self.ctx.seed, max(op, 0)])
        )
        self._captured.clear()
        gc.collect()  # the previous operation's checks leave garbage behind
        start = time.perf_counter()
        if recorder is None:
            run_sweep(self.config, instances=instances)
        else:
            with recorder.operation(op):
                run_sweep(self.config, instances=instances)
        elapsed = time.perf_counter() - start
        if op >= 0:
            if len(self._captured) != 1:
                raise RuntimeError(f"expected one plan run per panel, saw {len(self._captured)}")
            _check_plan_run(self.ctx, op, self._captured[0])
        return elapsed, None


# --------------------------------------------------------------------------- #
# exact_campaign
# --------------------------------------------------------------------------- #
class ExactCampaign(_SerialWorkload):
    """``solve_plan`` -> ``execute_plan`` -> ``write_sinks`` over exact DPs."""

    name = "exact_campaign"

    #: DP-P once, DP-LP and DP-PL at this many bounds each
    n_bounds = 6
    #: the two pool workers
    width = 2

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        from repro.generators.experiments import experiment_config

        self.base = experiment_config("E1", 64, 8, n_instances=16)

    def prepare(self) -> None:
        from repro.core import kernels

        engine = kernels.compiled_engine()
        if engine is None:
            self.ctx.notes.append(
                "no compiled kernel engine ("
                f"{kernels.compiled_unavailable_reason()}); DP tables ran on numpy"
            )

    def setup_once(self) -> float:
        """A fresh process builds the compiled kernels into an empty cache dir."""
        kernel_dir = self.ctx.run_dir / f"kernels-{time.perf_counter_ns()}"
        env = dict(self.ctx.env, REPRO_KERNEL_CACHE=str(kernel_dir))
        seconds = _probe(
            self.ctx,
            "import repro.workloads, repro.exact; from repro.core import kernels; "
            "kernels.compiled_engine()",
            "setup", env=env,
        )
        shutil.rmtree(kernel_dir, ignore_errors=True)
        return seconds

    def _inputs(self, op: int):
        """The campaign's instances and cells (untimed preparation)."""
        from repro.experiments.runner import reference_ranges
        from repro.generators.experiments import generate_instances

        rng = np.random.default_rng([self.ctx.seed, max(op, 0)])
        speed = int(rng.integers(1, 21))
        config = replace(self.base, speed_range=(speed, speed))
        instances = generate_instances(config, seed=rng)
        (p_lo, p_hi), (l_lo, l_hi) = reference_ranges(instances)
        cells: list[tuple[str, float | None]] = [("hom-dp-period", None)]
        cells += [("hom-dp-latency-for-period", float(b))
                  for b in np.linspace(p_lo, p_hi, self.n_bounds)]
        cells += [("hom-dp-period-for-latency", float(b))
                  for b in np.linspace(l_lo, l_hi, self.n_bounds)]
        return instances, cells

    def _operation(self, op: int, recorder) -> tuple[float, None]:
        from repro.cache.store import SolveCache
        from repro.workloads.engine import execute_plan, write_sinks
        from repro.workloads.plan import solve_plan
        from repro.workloads.sinks import JsonlSink

        instances, cells = self._inputs(op)
        directory = self.ctx.run_dir / f"campaign-{op}"
        directory.mkdir()
        journal = directory / "journal.jsonl"
        sink_path = directory / "sink.jsonl"

        def campaign():
            plan, _ = solve_plan(instances, cells)
            run = execute_plan(
                plan, workers=2, backend="compiled", journal=journal,
                cache=SolveCache(directory=directory / "cache"),
            )
            with JsonlSink(sink_path) as sink:
                write_sinks(run, [sink])
            return run

        gc.collect()  # the previous operation's checks leave garbage behind
        start = time.perf_counter()
        if recorder is None:
            run = campaign()
        else:
            with recorder.operation(op):
                run = campaign()
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.counter("journal.bytes", journal.stat().st_size)
            recorder.counter("sinks.bytes", sink_path.stat().st_size)
            recorder.counter("cache.disk_bytes", sum(
                p.stat().st_size for p in (directory / "cache").rglob("*") if p.is_file()
            ))
        if op >= 0:
            _check_plan_run(self.ctx, op, run)
        shutil.rmtree(directory)
        return elapsed, None


# --------------------------------------------------------------------------- #
# cli_cold
# --------------------------------------------------------------------------- #
def _import_times_ms(stderr: str) -> dict[str, float]:
    """Outermost cumulative ``-X importtime`` cost of repro, scipy, networkx.

    ``-X importtime`` prints a module after its children (post-order) with
    its nesting depth as indentation; read in reverse it is pre-order, so a
    stack of open ancestors tells whether a line is nested in its own
    package family (counted already) or is an outermost entry.
    """
    families = ("repro", "scipy", "networkx")
    totals = dict.fromkeys(families, 0.0)
    stack: list[tuple[int, str | None]] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line.split("|")
        name = name_field.rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        if not cumulative.strip().isdigit():
            continue  # the header line
        while stack and stack[-1][0] >= depth:
            stack.pop()
        family = next((f for f in families
                       if name == f or name.startswith(f + ".")), None)
        if family is not None and all(f != family for _, f in stack):
            totals[family] += int(cumulative) / 1e3
        stack.append((depth, family))
    return totals


class CliCold(_SerialWorkload):
    """One fresh ``python -m repro.cli solve`` process on a 5-stage instance (H1)."""

    name = "cli_cold"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self._python_floor_ms = 0.0

    def setup_once(self) -> float:
        child = run_child([self.ctx.python, "-m", "repro.cli", "--version"],
                          self.ctx, tag="setup")
        if child.returncode != 0:
            raise RuntimeError(f"repro --version failed: {child.stderr.strip()[-300:]}")
        return child.seconds

    def _instance(self, op: int):
        """Instance ``op``: 5 E1-like stages, 4 processors, a mid-range bound."""
        from repro.core.application import PipelineApplication
        from repro.core.costs import period_lower_bound
        from repro.core.platform import Platform

        rng = np.random.default_rng([self.ctx.seed, max(op, 0)])
        works = [float(w) for w in rng.integers(1, 21, size=5)]
        comms = [10.0] * 6
        speeds = [float(s) for s in rng.integers(1, 21, size=4)]
        app = PipelineApplication(works, comms, name="cli-instance")
        platform = Platform.communication_homogeneous(
            speeds, bandwidth=10.0, name="cli-platform"
        )
        bound = float(period_lower_bound(app, platform) * rng.uniform(1.0, 3.0))
        return works, comms, speeds, bound, app, platform

    @staticmethod
    def expected_stdout(handle, result) -> list[str]:
        """``repro solve`` stdout for ``result``, minus the wall-time line."""
        return [
            f"solver    : {result.solver} ({handle.key}, {handle.family})",
            f"feasible  : {result.feasible}",
            f"period    : {result.period:.6g}",
            f"latency   : {result.latency:.6g}",
            *result.mapping.describe().splitlines(),
        ]

    def _operation(self, op: int, recorder) -> tuple[float, float]:
        from repro.solvers.registry import resolve_solvers
        from repro.solvers.service import solve_many

        works, comms, speeds, bound, app, platform = self._instance(op)
        argv = [self.ctx.python]
        if recorder is not None:
            argv += ["-X", "importtime"]
        argv += ["-m", "repro.cli", "solve", "--solver", "H1", "--period", repr(bound),
                 "--works", *map(repr, works), "--comms", *map(repr, comms),
                 "--speeds", *map(repr, speeds)]
        child = run_child(argv, self.ctx, tag="cli")
        if recorder is not None:
            self._record_spans(recorder, op, child)
        if op >= 0:
            handle = resolve_solvers("H1")[0]
            reference = solve_many([(app, platform)], [handle],
                                   period_bound=bound).for_solver(0)[0]
            got = [line for line in child.stdout.splitlines()
                   if not line.startswith("wall time")]
            extra = []
            if child.returncode != 0:
                extra.append(f"exit code {child.returncode}: {child.stderr.strip()[-200:]}")
            if got != self.expected_stdout(handle, reference):
                extra.append(f"stdout differs from the solve_many reference: {got!r}")
            self.ctx.ledger.check(op, 0, f"H1@{bound!r}", app, platform,
                                  handle.default_request(period_bound=bound),
                                  reference, extra=extra)
        return child.seconds, child.rss_mb

    def measure_floors(self, recorder, repeats: int = 5) -> None:
        """Interpreter and numpy start-up floors, as traced probe spans."""
        for name, code in (("python", "pass"), ("numpy", "import numpy")):
            for _ in range(repeats):
                child = run_child([self.ctx.python, "-c", code], self.ctx, tag="floor")
                recorder.add_span(f"cli.probe.{name}", child.start_ns, child.end_ns)
                if name == "python":
                    floor = child.seconds * 1e3
                    self._python_floor_ms = (
                        floor if not self._python_floor_ms
                        else min(self._python_floor_ms, floor)
                    )

    def _record_spans(self, recorder, op: int, child: ChildRun) -> None:
        """The process as an operation span with its start-up and imports inside.

        A child process cannot be wrapped from here, so its spans are
        placed from what it reports: the interpreter floor first, then the
        cumulative import cost of ``repro`` (scipy and networkx nested in
        it).  The rest of the span is ``cli.run``.
        """
        imports = _import_times_ms(child.stderr)
        op_id = recorder.add_span("op", child.start_ns, child.end_ns, op=op, cli=True)
        cursor = child.start_ns + int(self._python_floor_ms * 1e6)
        recorder.add_span("cli.startup", child.start_ns, cursor, parent=op_id, op=op)
        repro_id = recorder.add_span("import.repro", cursor,
                                     cursor + int(imports["repro"] * 1e6),
                                     parent=op_id, op=op)
        for family in ("scipy", "networkx"):
            if imports[family]:
                recorder.add_span(f"import.{family}", cursor,
                                  cursor + int(imports[family] * 1e6),
                                  parent=repro_id, op=op)
                cursor += int(imports[family] * 1e6)


# --------------------------------------------------------------------------- #
# daemon_zipf
# --------------------------------------------------------------------------- #
class DaemonZipf:
    """Closed loop, 2 client threads, Zipf(1.1) over 192 keys; fresh daemon per round."""

    name = "daemon_zipf"

    n_clients = 2
    #: not scaled: a request mostly waits on sockets and the coalescer window
    width = 0
    zipf_s = 1.1
    requests_per_round = 600
    #: the first round's requests enter the answers digest
    digest_ops = requests_per_round
    #: (solver, period bound, latency bound) per instance
    variants = (("H1", 15.0, None), ("H4", 15.0, None), ("H6", None, 150.0))

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.round = 0
        self._process: subprocess.Popen | None = None
        self._rss: list[float] = []

    def prepare(self) -> None:
        from repro.generators.experiments import experiment_config, generate_instances
        from repro.solvers.registry import resolve_solvers
        from repro.solvers.service import solve_many

        config = experiment_config("E1", 20, 10, n_instances=64)
        instances = generate_instances(
            config, seed=np.random.default_rng([self.ctx.seed, 0])
        )
        self.pairs = [(inst.application, inst.platform) for inst in instances]
        self.keys: list[tuple[int, int]] = []
        self.reference: dict[tuple[int, int], Any] = {}
        self.requests: dict[tuple[int, int], Any] = {}
        for v, (solver, period, latency) in enumerate(self.variants):
            handle = resolve_solvers(solver)[0]
            request = handle.default_request(period_bound=period, latency_bound=latency)
            batch = solve_many(self.pairs, [handle], period_bound=period,
                               latency_bound=latency)
            for i, result in enumerate(batch.for_solver(0)):
                self.keys.append((i, v))
                self.reference[(i, v)] = result
                self.requests[(i, v)] = request
        rng = np.random.default_rng([self.ctx.seed, 1])
        ranked = [self.keys[j] for j in rng.permutation(len(self.keys))]
        weights = 1.0 / np.arange(1, len(ranked) + 1) ** self.zipf_s
        self.ranked = ranked
        self.weights = weights / weights.sum()

    def warm_up(self) -> None:
        pass  # every round starts a fresh daemon; its start-up is set-up

    def setup_times(self, repeats: int) -> Measurement:
        return Measurement(width=self.width)  # run() times a set-up per round

    # ------------------------------------------------------------------ #
    def _start_daemon(self, socket_path: str) -> float:
        from repro.server.client import ServiceClient, ServiceError

        start = time.perf_counter()
        stderr = open(self.ctx.run_dir / f"daemon-{self.round}.err", "wb")
        try:
            self._process = subprocess.Popen(
                [self.ctx.python, "-m", "repro.cli", "serve", "--socket", socket_path],
                stdout=subprocess.DEVNULL, stderr=stderr, env=self.ctx.env,
                cwd=self.ctx.root, start_new_session=True,
            )
        finally:
            stderr.close()
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            try:
                with ServiceClient(socket_path, timeout=10.0) as client:
                    client.ping()
                return time.perf_counter() - start
            except (ServiceError, OSError):
                if self._process.poll() is not None:
                    raise RuntimeError(f"repro serve exited with {self._process.returncode}")
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not answer within the timeout")
                time.sleep(0.005)

    def _stop_daemon(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        code = stop_process_group(process)
        if code not in (0, None):
            self.ctx.notes.append(f"repro serve round {self.round} exited with {code}")
        reap_zombie_children()  # helpers of the daemon adopted by this process

    def _daemon_rss_mb(self) -> float:
        with open(f"/proc/{self._process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def run(self, seconds: float, recorder=None) -> Measurement:
        measurement = Measurement(width=self.width)
        deadline = time.monotonic() + seconds
        measurement.calibrate()
        while time.monotonic() < deadline or self.round == 0:
            self._round(measurement, recorder)
            self.round += 1
        return measurement

    def _round(self, measurement: Measurement, recorder) -> None:
        """One round against a fresh daemon, then a calibration."""
        from repro.server.client import ServiceClient, ServiceError

        base_op = self.round * self.requests_per_round
        rng = np.random.default_rng([self.ctx.seed, 2, self.round])
        picks = rng.choice(len(self.ranked), size=self.requests_per_round, p=self.weights)
        socket_path = os.path.relpath(self.ctx.run_dir / f"d{self.round}.sock", self.ctx.root)
        setup = self._start_daemon(socket_path)
        try:
            if recorder is not None:
                with ServiceClient(socket_path) as client:
                    for _ in range(50):
                        with recorder.span("server.ping"):
                            client.ping()
            lock = threading.Lock()
            cursor = iter(range(self.requests_per_round))
            seen: set[tuple[int, int]] = set()
            answers: dict[int, tuple[Any, Any, list[str]]] = {}
            latencies: list[tuple[float, bool]] = []

            def client_loop() -> None:
                with ServiceClient(socket_path, timeout=CHILD_TIMEOUT_S) as client:
                    while True:
                        with lock:
                            index = next(cursor, None)
                            if index is None:
                                return
                            key = self.ranked[picks[index]]
                            first = key not in seen
                            seen.add(key)
                        app, platform = self.pairs[key[0]]
                        solver, period, latency = self.variants[key[1]]
                        start = time.perf_counter()
                        try:
                            if recorder is None:
                                result = client.solve(app, platform, solver,
                                                      period_bound=period,
                                                      latency_bound=latency)
                            else:
                                with recorder.operation(base_op + index, hit=not first):
                                    with recorder.span("client.solve", hit=not first):
                                        result = client.solve(app, platform, solver,
                                                              period_bound=period,
                                                              latency_bound=latency)
                            problems: list[str] = []
                        except ServiceError as exc:
                            result, problems = None, [str(exc)]
                        latencies.append((time.perf_counter() - start, first))
                        answers[index] = (key, result, problems)

            threads = [threading.Thread(target=self._guard(client_loop), daemon=True)
                       for _ in range(self.n_clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=CHILD_TIMEOUT_S * 2)
            busy = time.perf_counter() - start
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("a daemon client thread did not finish")
            with ServiceClient(socket_path) as client:
                stats = client.stats()
            if recorder is not None:
                self._record_stats(recorder, stats)
            measurement.rss_mb.append(self._daemon_rss_mb())
        finally:
            self._stop_daemon()
        measurement.setup_seconds.append(setup)
        measurement.setup_interval.append(measurement.interval)
        measurement.interval_busy.append(busy)
        for seconds, first in latencies:
            measurement.op_seconds.append(seconds)
            measurement.op_interval.append(measurement.interval)
            measurement.op_hit.append(not first)
        measurement.calibrate()
        for index in range(self.requests_per_round):
            key, result, problems = answers.get(index, (None, None, ["no answer"]))
            if key is None:
                self.ctx.ledger.record(base_op + index, 0, "lost request", problems)
                continue
            app, platform = self.pairs[key[0]]
            self.ctx.ledger.check(
                base_op + index, 0, f"instance {key[0]} {self.variants[key[1]][0]}",
                app, platform, self.requests[key], result,
                reference=self.reference[key], extra=problems,
            )

    def _guard(self, target):
        """Client threads record their failure instead of dying silently."""
        def run() -> None:
            try:
                target()
            except Exception as exc:  # noqa: BLE001 - reported as a note
                self.ctx.notes.append(f"client thread failed: {type(exc).__name__}: {exc}")
        return run

    @staticmethod
    def _record_stats(recorder, stats: dict[str, Any]) -> None:
        requests, coalescer = stats["requests"], stats["coalescer"]
        recorder.counter("daemon.n_tasks", requests["n_tasks"])
        recorder.counter("daemon.n_solved", requests["n_solved"])
        recorder.counter("daemon.n_cache_hits", requests["n_cache_hits"])
        recorder.counter("coalescer.n_batches", coalescer["n_batches"])
        recorder.counter("coalescer.n_enqueued", coalescer["n_enqueued"])
        recorder.counter("coalescer.n_coalesced", coalescer["n_coalesced"])

    def close(self) -> None:
        self._stop_daemon()


WORKLOADS = {cls.name: cls for cls in (Fig6Sweep, DaemonZipf, CliCold, ExactCampaign)}
