"""Fuzzing harness: stream scenarios through the differential oracle at scale.

:func:`run_fuzz` is the top of the scenario stack: it generates a scenario
stream (:mod:`repro.scenarios.families`), builds a *differential workload
plan* over the instances and executes it through the shared workload engine
(:mod:`repro.workloads`) — which fans the oracle
(:mod:`repro.scenarios.differential`) out over the process pool — then
shrinks every disagreement to a minimal counterexample
(:mod:`repro.scenarios.shrink`) and optionally persists the shrunk instances
into the regression corpus (:mod:`repro.scenarios.corpus`).

Because the oracle runs as engine tasks, a fuzz run is **resumable**: pass
``journal=`` to checkpoint every verified scenario into a JSONL journal, and
``resume=True`` to replay a previous (interrupted) run's journal instead of
re-verifying its scenarios.  The report of a resumed run is byte-identical
to an uninterrupted one.

Determinism contract (same as the experiment engine): a fuzz run is a pure
function of ``(families, count, seed)``.  Scenario generation pre-spawns one
seed sequence per instance, the oracle is deterministic, shrinking is
deterministic, and the report carries no wall-clock data — so
:func:`render_fuzz_report` output is byte-identical at any ``workers`` /
``batch_size`` value, which the tests assert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable

from ..core import kernels
from ..core.application import PipelineApplication
from ..core.identity import instance_digest
from ..core.platform import Platform
from ..core.serialization import application_to_dict, platform_to_dict
from ..workloads.engine import execute_plan
from ..workloads.plan import differential_plan
from .corpus import save_counterexample
from .differential import differential_check
from .families import generate_scenarios, resolve_families
from .shrink import shrink_instance

__all__ = ["Counterexample", "FuzzReport", "run_fuzz", "render_fuzz_report"]


@dataclass(frozen=True)
class Counterexample:
    """One disagreement, shrunk to a minimal instance."""

    family: str
    scenario_index: int
    check: str
    detail: str
    original_digest: str
    application: PipelineApplication
    platform: Platform

    @property
    def digest(self) -> str:
        """Canonical hash of the *shrunk* instance."""
        return instance_digest(self.application, self.platform)

    def describe(self) -> str:
        """Self-contained plain-text report of the counterexample."""
        instance = {
            "application": application_to_dict(self.application),
            "platform": platform_to_dict(self.platform),
        }
        return "\n".join(
            [
                f"check    : {self.check}",
                f"family   : {self.family} (scenario #{self.scenario_index}, "
                f"original digest {self.original_digest[:12]})",
                f"detail   : {self.detail}",
                f"shrunk   : {self.digest[:12]}",
                "instance : "
                + json.dumps(instance, sort_keys=True, separators=(", ", ": ")),
            ]
        )


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate outcome of one fuzz run (no wall-clock data by design)."""

    seed: int
    count: int
    families: tuple[str, ...]
    per_family: dict[str, int]
    n_comparisons: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _still_fails_check(
    check: str,
    n_datasets: int,
    cache,
    app: PipelineApplication,
    platform: Platform,
) -> bool:
    """Shrink predicate: does the *same* check still fail on the instance?"""
    report = differential_check(app, platform, n_datasets=n_datasets, cache=cache)
    return check in report.failed_checks()


def run_fuzz(
    count: int = 1000,
    families: str | Iterable[str] | None = None,
    seed: int = 0,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    n_datasets: int = 16,
    shrink: bool = True,
    shrink_budget: int = 300,
    corpus_dir: str | Path | None = None,
    cache=None,
    journal: str | Path | None = None,
    resume: bool = False,
    backend: str | None = None,
) -> FuzzReport:
    """Fuzz every applicable solver/simulator pair over a scenario stream.

    Parameters
    ----------
    count / families / seed:
        The scenario stream (see :func:`~repro.scenarios.families.
        generate_scenarios`); ``families=None`` uses every registered family
        round-robin.
    workers / batch_size:
        Process-pool knobs of the shared experiment engine; the report is
        byte-identical at any value.
    n_datasets:
        Data sets pushed through the simulators per checked mapping.
    shrink / shrink_budget:
        Minimise disagreeing instances before reporting them (one
        counterexample per disagreeing scenario, anchored on its first failed
        check); ``shrink_budget`` caps the oracle re-evaluations per shrink.
    corpus_dir:
        When given, persist every (shrunk) counterexample into this directory
        in the regression-corpus format.
    cache:
        Optional :class:`~repro.cache.store.SolveCache` memoising the
        oracle's per-solver runs (notably across the shrinker's repeated
        re-evaluations).  Solvers are deterministic, so the report is
        byte-identical with or without it; an on-disk cache is shared by
        the worker processes.
    journal / resume:
        Checkpointing knobs of the shared workload engine: ``journal``
        names a JSONL file recording every verified scenario; ``resume``
        replays an existing journal (written by an interrupted run of the
        *same* stream) and re-verifies only the remaining scenarios.  The
        report is byte-identical either way.
    backend:
        Kernel backend (:mod:`repro.core.kernels`) the whole differential
        sweep runs under — e.g. ``compiled`` to fuzz the compiled kernels
        against the scalar oracle; the report is byte-identical across
        ``numpy`` and ``compiled``.
    """
    with kernels.use_backend(backend):
        return _run_fuzz_active(
            count,
            families,
            seed,
            workers=workers,
            batch_size=batch_size,
            n_datasets=n_datasets,
            shrink=shrink,
            shrink_budget=shrink_budget,
            corpus_dir=corpus_dir,
            cache=cache,
            journal=journal,
            resume=resume,
        )


def _run_fuzz_active(
    count: int,
    families: str | Iterable[str] | None,
    seed: int,
    *,
    workers: int | None,
    batch_size: int | None,
    n_datasets: int,
    shrink: bool,
    shrink_budget: int,
    corpus_dir: str | Path | None,
    cache,
    journal: str | Path | None,
    resume: bool,
) -> FuzzReport:
    """The fuzz pipeline, run under the already-active kernel backend."""
    resolved = resolve_families(families)
    family_names = tuple(family.name for family in resolved)
    scenarios = generate_scenarios(
        count, family_names, seed, workers=workers, batch_size=batch_size
    )
    plan = differential_plan(
        [(s.application, s.platform) for s in scenarios], n_datasets=n_datasets
    )
    run = execute_plan(
        plan,
        journal=journal,
        resume=resume,
        workers=workers,
        batch_size=batch_size,
        cache=cache,
    )
    report_by_hash = {
        task.instance_hash: run.results[task.digest] for task in plan.tasks
    }
    reports = [report_by_hash[digest] for digest in plan.input_hashes]

    per_family = {name: 0 for name in family_names}
    for scenario in scenarios:
        per_family[scenario.family] += 1

    counterexamples: list[Counterexample] = []
    for scenario, report in zip(scenarios, reports):
        if report.ok:
            continue
        # one counterexample per disagreeing scenario, anchored on its first
        # failed check (shrinking preserves *that* check; the detail lists the
        # rest, which usually collapse onto the same root cause)
        checks = report.failed_checks()
        check = checks[0]
        detail = next(
            failure.detail for failure in report.failures if failure.check == check
        )
        if len(checks) > 1:
            detail += f" [also failing: {', '.join(checks[1:])}]"
        app, platform = scenario.application, scenario.platform
        if shrink:
            shrunk = shrink_instance(
                app,
                platform,
                partial(_still_fails_check, check, n_datasets, cache),
                max_evaluations=shrink_budget,
            )
            app, platform = shrunk.application, shrunk.platform
        counterexample = Counterexample(
            family=scenario.family,
            scenario_index=scenario.index,
            check=check,
            detail=detail,
            original_digest=scenario.digest,
            application=app,
            platform=platform,
        )
        counterexamples.append(counterexample)
        if corpus_dir is not None:
            save_counterexample(
                corpus_dir,
                app,
                platform,
                family=scenario.family,
                check=check,
                note=f"fuzz seed={seed} scenario #{scenario.index}: {detail}",
            )

    return FuzzReport(
        seed=seed,
        count=count,
        families=family_names,
        per_family=per_family,
        n_comparisons=sum(report.n_comparisons for report in reports),
        counterexamples=tuple(counterexamples),
    )


def render_fuzz_report(report: FuzzReport) -> str:
    """Plain-text fuzz report (deterministic: no wall-clock data)."""
    lines = [
        f"differential fuzz: {report.count} scenario(s), seed {report.seed}",
        f"families         : {', '.join(report.families)}",
        f"comparisons      : {report.n_comparisons}",
        "",
        f"{'family':<22} {'instances':>9}",
        "-" * 32,
    ]
    for name in report.families:
        lines.append(f"{name:<22} {report.per_family[name]:>9}")
    lines.append("")
    if report.ok:
        lines.append("no disagreements found")
    else:
        lines.append(f"{len(report.counterexamples)} DISAGREEMENT(S) FOUND")
        for i, counterexample in enumerate(report.counterexamples):
            lines.append("")
            lines.append(f"--- counterexample {i + 1} ---")
            lines.append(counterexample.describe())
    return "\n".join(lines)
