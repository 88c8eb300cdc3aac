"""Bit pin of one paper-regime figure panel (Fig. 6: E1, n=40, p=100).

Every result of the panel — 2 instances x the six heuristics x 10
thresholds, run through the workload plan exactly as ``run_sweep`` runs it —
is serialised at full precision (shortest round-trip floats, provenance
fields stripped) and hashed.  The digest was recorded before the splitting
engine's fused scorer and the Sp-bi-P step memo existed, so any change to a
result's bits, trajectory or feasibility flag fails here; the text reports
of the sweep smokes print three decimals and would not notice.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.identity import canonical_document_payload
from repro.core.serialization import solve_result_to_dict
from repro.experiments.runner import reference_ranges
from repro.experiments.sweep import _threshold_grid
from repro.generators.experiments import experiment_config, generate_instances
from repro.heuristics.base import Objective
from repro.solvers.base import SolveResult
from repro.solvers.registry import resolve_solvers
from repro.workloads.engine import execute_plan
from repro.workloads.plan import solve_plan

FIG6_PANEL_SHA256 = "3e15cdc8f9f020da543566219b9cb01921f1e6419e51a16e7061f2d0f1697717"


def panel_digest(*, frontier: bool | None) -> tuple[int, str]:
    config = experiment_config("E1", 40, 100, n_instances=2)
    instances = generate_instances(config, seed=0)
    (period_lo, period_hi), (latency_lo, latency_hi) = reference_ranges(instances)
    grids = {
        Objective.MIN_LATENCY_FOR_PERIOD: _threshold_grid(period_lo, period_hi, 10),
        Objective.MIN_PERIOD_FOR_LATENCY: _threshold_grid(latency_lo, latency_hi, 10),
    }
    tasks = [
        (solver, threshold)
        for solver in resolve_solvers("heuristics")
        for threshold in grids[solver.objective]
    ]
    plan, cells = solve_plan(instances, tasks)
    run = execute_plan(plan, frontier=frontier)
    documents = []
    for cell in cells:
        for digest in plan.input_hashes:
            document = solve_result_to_dict(run.results[cell.tasks[digest].digest])
            for name in SolveResult.NONDETERMINISTIC_FIELDS:
                del document[name]
            documents.append(document)
    payload = canonical_document_payload({"results": documents})
    return len(documents), hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("frontier", [None, False], ids=["frontier", "direct"])
def test_fig6_panel_results_are_bit_identical(frontier):
    assert panel_digest(frontier=frontier) == (120, FIG6_PANEL_SHA256)
