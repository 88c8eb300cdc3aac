"""Batch solve service: dedupe, memoise, shard — one entry point for fleets.

:func:`solve_many` is the service layer on top of the unified registry and
the solve cache (:mod:`repro.cache`): given an instance stream and a solver
selection it

1. **dedupes** identical ``(instance, solver, request)`` tasks up front —
   instance identity is the canonical digest of
   :mod:`repro.core.identity`, so two numerically identical instances
   (whatever their display names) are solved once;
2. **probes the cache** for every unique task (when a cache is given),
   so work done by a previous batch, a previous process, or another worker
   sharing the same ``--cache-dir`` is never repeated;
3. **shards only the cache misses** across the process pool
   (:func:`repro.utils.parallel.parallel_map`);
4. **back-fills** results in input order, so the output shape is simply
   ``results[instance][solver]``.

Determinism contract (the same one the experiment engine honours): the
returned solutions are byte-identical — through
:meth:`~repro.solvers.base.SolveResult.identity` — whatever the worker
count, and whether the cache was cold or warm; only the ``wall_time`` /
``cache_hit`` run-provenance stamps differ.

:func:`solve_with_cache` is the scalar sibling used by call sites that
solve one instance at a time inside their own loop (the differential
oracle, the failure-threshold probes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..cache.keys import CacheKey, frontier_key, solve_key
from ..core import kernels
from ..core.exceptions import ConfigurationError
from ..core.identity import instance_digest
from ..utils.parallel import WorkerPool, parallel_map, resolve_worker_count
from ..utils.shm import InstanceArena, InstanceRef, arena_pays, resolve_instance
from .base import Objective, SolveRequest, SolveResult
from .frontier import frontier_eligible, frontier_solve
from .registry import Solver, as_solver, resolve_solvers

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..cache.store import SolveCache
    from ..core.application import PipelineApplication
    from ..core.platform import Platform

__all__ = [
    "BatchStats",
    "BatchResult",
    "as_instance_pair",
    "solve_with_cache",
    "solve_many",
    "solve_frontier_many",
]


def as_instance_pair(item: Any) -> tuple["PipelineApplication", "Platform"]:
    """Coerce a work item into an ``(application, platform)`` pair.

    Accepts the experiment layer's :class:`~repro.generators.experiments.
    Instance` records (anything with ``application`` / ``platform``
    attributes, e.g. scenarios converted via ``scenario_instances``) and
    plain 2-tuples.
    """
    app = getattr(item, "application", None)
    if app is not None:
        return app, item.platform
    app, platform = item
    return app, platform


def solve_with_cache(
    solver: Any,
    app: "PipelineApplication",
    platform: "Platform",
    request: SolveRequest,
    cache: "SolveCache | None" = None,
) -> SolveResult:
    """One solver run through the cache (the scalar core of the service).

    With ``cache=None`` — or for a non-cacheable ad-hoc solver — this is
    exactly ``solver.solve(app, platform, request)``; otherwise the run is
    served from the cache when possible and memoised when not.  Either way
    the returned solution is identical (``cache_hit`` aside).
    """
    handle = as_solver(solver)
    if cache is None or not handle.cacheable or request.time_budget is not None:
        # wall-clock budgets make the result machine-dependent, so such runs
        # never enter (or get served from) the cache; max_steps stays cacheable
        return handle.solve(app, platform, request)
    key = solve_key(app, platform, handle, request)
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = handle.solve(app, platform, request)
    cache.put(key, result)
    return result


@dataclass(frozen=True)
class BatchStats:
    """How much work a :func:`solve_many` call actually had to do.

    The ``n_frontier_*`` fields are populated by
    :func:`solve_frontier_many` only (they default to zero on the
    per-threshold path): ``n_frontier_groups`` counts the instances routed
    through a frontier document, ``n_frontier_extracted`` the threshold
    queries those documents answered, and ``n_solved`` then counts the
    *underlying* full solver runs — the amortisation is their ratio.
    """

    n_instances: int
    n_solvers: int
    n_tasks: int
    n_unique: int
    n_cache_hits: int
    n_solved: int
    n_frontier_groups: int = 0
    n_frontier_extracted: int = 0

    @property
    def n_deduplicated(self) -> int:
        """Tasks answered by pointing at another identical task's result."""
        return self.n_tasks - self.n_unique

    @property
    def solve_fraction(self) -> float:
        """Fraction of requested tasks that needed an actual solver run."""
        return self.n_solved / self.n_tasks if self.n_tasks else 0.0


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one :func:`solve_many` call, in input order.

    ``results[i][j]`` is the :class:`~repro.solvers.base.SolveResult` of
    solver ``j`` (of :attr:`solvers`) on instance ``i`` of the input stream.
    """

    solvers: tuple[str, ...]
    results: tuple[tuple[SolveResult, ...], ...]
    stats: BatchStats

    def for_solver(self, j: int) -> tuple[SolveResult, ...]:
        """Column ``j``: one solver's results over the whole stream."""
        return tuple(row[j] for row in self.results)


def _solve_task(
    task: tuple[Solver, "PipelineApplication", "Platform", SolveRequest],
) -> SolveResult:
    """One unique (solver, instance, request) cell (module-level, picklable)."""
    handle, app, platform, request = task
    return handle.solve(app, platform, request)


def _solve_ref_task(
    task: tuple[Solver, InstanceRef, SolveRequest],
) -> SolveResult:
    """A unique cell whose instance travels by shared-memory reference.

    The ref resolves against the worker's installed
    :class:`~repro.utils.shm.InstanceShipment`; the pair is rehydrated at
    most once per worker and memoised, so a worker that solves the same
    instance for many solvers or thresholds deserialises it exactly once.
    """
    handle, ref, request = task
    app, platform = resolve_instance(ref)
    return handle.solve(app, platform, request)


def _resolve_handles(solvers: Any) -> list[Solver]:
    """Solver selection -> handles (group string, names, handles, heuristics)."""
    if solvers is None or isinstance(solvers, str):
        return resolve_solvers(solvers)
    if isinstance(solvers, Iterable):
        return [as_solver(item) for item in solvers]
    return [as_solver(solvers)]


def solve_many(
    instances: Sequence[Any],
    solvers: Any,
    *,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    max_steps: int | None = None,
    time_budget: float | None = None,
    workers: int | None = None,
    batch_size: int | None = None,
    cache: "SolveCache | None" = None,
    backend: str | None = None,
    pool: WorkerPool | None = None,
) -> BatchResult:
    """Solve every instance with every selected solver, doing minimal work.

    Parameters
    ----------
    instances:
        The stream: :class:`~repro.generators.experiments.Instance` records
        or plain ``(application, platform)`` pairs.  Repeated instances are
        detected by canonical digest and solved once.
    solvers:
        A solver selection: registry names/handles, heuristic instances, an
        iterable thereof, or a group string (``"heuristics"``, ``"exact"``,
        ...).  Each solver's request is built from the bounds below
        according to its objective, exactly like
        :meth:`~repro.solvers.registry.Solver.run`.
    period_bound / latency_bound:
        The thresholds; each solver picks the bound(s) its objective needs.
    max_steps / time_budget:
        Anytime budgets, forwarded to the solvers that need them and dropped
        by the rest (see :meth:`~repro.solvers.registry.Solver.
        default_request`).  An anytime solver in the selection with no
        budget set raises :class:`~repro.core.exceptions.ConfigurationError`
        up front.  ``time_budget`` runs bypass the cache — wall-clock
        results are not reproducible.
    workers / batch_size:
        Process-pool knobs (:func:`~repro.utils.parallel.parallel_map`) for
        the cache-missing unique tasks.  Results are byte-identical at any
        value.
    cache:
        A :class:`~repro.cache.store.SolveCache`.  ``None`` disables
        memoisation (deduplication still applies).
    backend:
        Kernel backend (:mod:`repro.core.kernels`) active for the whole
        batch, in the parent and every worker; ``None`` keeps the current
        active backend.  Results are byte-identical across ``numpy`` and
        ``compiled`` (the compiled engine is validated bit-for-bit), so
        the backend is stamped on results as provenance but excluded from
        cache keys.
    pool:
        A persistent :class:`~repro.utils.parallel.WorkerPool` to ship the
        cache misses through instead of the per-call pool — the solver
        daemon holds one across requests so batches never re-pay worker
        start-up.  When given, the pool's worker count wins over
        ``workers=``; results stay byte-identical either way.
    """
    with kernels.use_backend(backend):
        return _solve_many_active(
            instances,
            solvers,
            period_bound=period_bound,
            latency_bound=latency_bound,
            max_steps=max_steps,
            time_budget=time_budget,
            workers=workers,
            batch_size=batch_size,
            cache=cache,
            pool=pool,
        )


def _solve_many_active(
    instances: Sequence[Any],
    solvers: Any,
    *,
    period_bound: float | None,
    latency_bound: float | None,
    max_steps: int | None,
    time_budget: float | None,
    workers: int | None,
    batch_size: int | None,
    cache: "SolveCache | None",
    pool: WorkerPool | None = None,
) -> BatchResult:
    """The batch pipeline, run under the already-active kernel backend."""
    pairs = [as_instance_pair(item) for item in instances]
    handles = _resolve_handles(solvers)
    requests = [
        handle.default_request(
            period_bound=period_bound,
            latency_bound=latency_bound,
            max_steps=max_steps,
            time_budget=time_budget,
        )
        for handle in handles
    ]

    # -- dedupe: one slot per distinct (instance digest, solver column) ---- #
    slot_of: dict[tuple[str, int], int] = {}
    unique_tasks: list[tuple[Solver, Any, Any, SolveRequest]] = []
    assignment: list[list[int]] = []
    for app, platform in pairs:
        digest = None
        row: list[int] = []
        for j, handle in enumerate(handles):
            if digest is None:
                digest = instance_digest(app, platform)
            task_key = (digest, j)
            slot = slot_of.get(task_key)
            if slot is None:
                slot = len(unique_tasks)
                slot_of[task_key] = slot
                unique_tasks.append((handle, app, platform, requests[j]))
            row.append(slot)
        assignment.append(row)

    # -- probe the cache; only misses reach the pool ----------------------- #
    unique_results: list[SolveResult | None] = [None] * len(unique_tasks)
    keys: list[CacheKey | None] = [None] * len(unique_tasks)
    misses: list[int] = []
    n_cache_hits = 0
    for u, (handle, app, platform, request) in enumerate(unique_tasks):
        if cache is not None and handle.cacheable and request.time_budget is None:
            keys[u] = solve_key(app, platform, handle, request)
            unique_results[u] = cache.get(keys[u])
        if unique_results[u] is None:
            misses.append(u)
        else:
            n_cache_hits += 1

    # -- ship the misses: shared-memory refs when pooling, objects serially - #
    n_workers = pool.workers if pool is not None else resolve_worker_count(workers)
    if arena_pays(n_workers, len(misses)):
        with InstanceArena(
            (unique_tasks[u][1], unique_tasks[u][2]) for u in misses
        ) as arena:
            ref_tasks = [
                (
                    unique_tasks[u][0],
                    arena.ref(unique_tasks[u][1], unique_tasks[u][2]),
                    unique_tasks[u][3],
                )
                for u in misses
            ]
            if pool is not None:
                solved = pool.map(
                    _solve_ref_task,
                    ref_tasks,
                    batch_size=batch_size,
                    payload=arena.shipment(),
                )
            else:
                solved = parallel_map(
                    _solve_ref_task,
                    ref_tasks,
                    workers=workers,
                    batch_size=batch_size,
                    payload=arena.shipment(),
                )
    elif pool is not None:
        solved = pool.map(
            _solve_task,
            [unique_tasks[u] for u in misses],
            batch_size=batch_size,
        )
    else:
        solved = parallel_map(
            _solve_task,
            [unique_tasks[u] for u in misses],
            workers=workers,
            batch_size=batch_size,
        )
    for u, result in zip(misses, solved):
        unique_results[u] = result
        if cache is not None and keys[u] is not None:
            cache.put(keys[u], result)

    # -- back-fill in input order ------------------------------------------ #
    results = tuple(
        tuple(unique_results[slot] for slot in row) for row in assignment
    )
    stats = BatchStats(
        n_instances=len(pairs),
        n_solvers=len(handles),
        n_tasks=len(pairs) * len(handles),
        n_unique=len(unique_tasks),
        n_cache_hits=n_cache_hits,
        n_solved=len(misses),
    )
    return BatchResult(
        solvers=tuple(handle.name for handle in handles),
        results=results,
        stats=stats,
    )


def _frontier_task(
    task: tuple[Solver, "PipelineApplication", "Platform", tuple[float, ...], dict | None],
) -> tuple[dict, list[SolveResult], int]:
    """One instance's whole threshold group (module-level, picklable).

    Frontier groups travel by plain pickling rather than the shared-memory
    arena: there is one task per *instance* (not per threshold), so the
    per-task instance payload is already amortised over the group.
    """
    handle, app, platform, thresholds, document = task
    return frontier_solve(handle, app, platform, thresholds, document)


def _bound_request(handle: Solver, threshold: float) -> SolveRequest:
    """The per-threshold request a frontier answer stands in for."""
    if handle.objective == Objective.MIN_LATENCY_FOR_PERIOD:
        return handle.default_request(period_bound=threshold)
    return handle.default_request(latency_bound=threshold)


def solve_frontier_many(
    tasks: Sequence[tuple[Any, float]],
    solver: Any,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    cache: "SolveCache | None" = None,
    backend: str | None = None,
    pool: WorkerPool | None = None,
) -> tuple[list[SolveResult], BatchStats]:
    """Solve ``(instance, threshold)`` tasks through one frontier per instance.

    The frontier sibling of :func:`solve_many` for task batches that differ
    only in their threshold: tasks are deduplicated and probed against the
    per-threshold solve cache exactly like the direct path, but the misses
    are then *grouped by instance* and each group is answered by a single
    :func:`~repro.solvers.frontier.frontier_solve` — one underlying solver
    run (steps mode) or one per uncovered segment (monotone mode) instead
    of one per threshold.  Every returned result is bit-identical (through
    :meth:`~repro.solvers.base.SolveResult.identity`) to what the direct
    path produces, and both the per-threshold results and the frontier
    documents are memoised, so a warm cache serves *any* later threshold.

    Returns ``(results, stats)`` with ``results`` aligned to ``tasks``.
    Raises :class:`~repro.core.exceptions.ConfigurationError` when the
    solver is not frontier-capable — callers gate on
    :func:`~repro.solvers.frontier.frontier_eligible` first.
    """
    handle = as_solver(solver)
    with kernels.use_backend(backend):
        if tasks and not frontier_eligible(
            handle, _bound_request(handle, float(tasks[0][1]))
        ):
            raise ConfigurationError(
                f"solver {handle.name!r} cannot serve frontier batches"
            )

        # -- dedupe: one slot per distinct (instance digest, threshold) ---- #
        slot_of: dict[tuple[str, float], int] = {}
        unique: list[tuple["PipelineApplication", "Platform", float]] = []
        assignment: list[int] = []
        digests: list[str] = []
        for item, threshold in tasks:
            app, platform = as_instance_pair(item)
            thr = float(threshold)
            digest = instance_digest(app, platform)
            task_key = (digest, thr)
            slot = slot_of.get(task_key)
            if slot is None:
                slot = len(unique)
                slot_of[task_key] = slot
                unique.append((app, platform, thr))
                digests.append(digest)
            assignment.append(slot)

        # -- probe the per-threshold cache; group the misses by instance --- #
        unique_results: list[SolveResult | None] = [None] * len(unique)
        keys: list[CacheKey | None] = [None] * len(unique)
        n_cache_hits = 0
        groups: dict[str, list[int]] = {}
        for u, (app, platform, thr) in enumerate(unique):
            if cache is not None:
                keys[u] = solve_key(app, platform, handle, _bound_request(handle, thr))
                unique_results[u] = cache.get(keys[u])
            if unique_results[u] is None:
                groups.setdefault(digests[u], []).append(u)
            else:
                n_cache_hits += 1

        # -- one frontier task per instance, warm documents attached ------- #
        group_slots = list(groups.values())
        group_keys: list[CacheKey | None] = []
        group_tasks = []
        for slots in group_slots:
            app, platform, _ = unique[slots[0]]
            fkey = None
            document = None
            if cache is not None:
                fkey = frontier_key(app, platform, handle, handle.objective)
                document = cache.get_frontier(fkey)
            group_keys.append(fkey)
            group_tasks.append(
                (handle, app, platform, tuple(unique[u][2] for u in slots), document)
            )
        if pool is not None:
            outcomes = pool.map(_frontier_task, group_tasks, batch_size=batch_size)
        else:
            outcomes = parallel_map(
                _frontier_task, group_tasks, workers=workers, batch_size=batch_size
            )

        # -- back-fill and memoise ----------------------------------------- #
        n_solved = 0
        for slots, fkey, (document, group_results, n_solves) in zip(
            group_slots, group_keys, outcomes
        ):
            n_solved += n_solves
            for u, result in zip(slots, group_results):
                unique_results[u] = result
                if cache is not None and keys[u] is not None:
                    cache.put(keys[u], result)
            if cache is not None and fkey is not None:
                cache.put_frontier(fkey, document)

        n_extracted = sum(len(slots) for slots in group_slots)
        stats = BatchStats(
            n_instances=len(set(digests)),
            n_solvers=1,
            n_tasks=len(tasks),
            n_unique=len(unique),
            n_cache_hits=n_cache_hits,
            n_solved=n_solved,
            n_frontier_groups=len(group_slots),
            n_frontier_extracted=n_extracted,
        )
        return [unique_results[slot] for slot in assignment], stats
