"""Answer checking shared by every workload, and the answers digest.

Every answer the program returns is checked independently of the solver
that produced it:

* its mapping is re-evaluated with :func:`repro.core.costs.evaluate`, and
  the reported period and latency must equal the re-evaluation bit for bit;
* its ``feasible`` flag must agree with the requested bound(s) with no
  slack: ``feasible`` is true exactly when the re-evaluated period (latency)
  is ``<=`` the period (latency) bound;
* where a workload has an in-process reference (daemon replies, CLI
  stdout), the answer must also equal the reference.

A failure caused by a known program defect (for instance a heuristic's
threshold tolerance accepting a period a hair above its bound) is counted
like any other: nothing is filtered.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any


def _json_default(value: Any) -> Any:
    from repro.core.mapping import IntervalMapping
    from repro.core.serialization import mapping_to_dict

    if isinstance(value, IntervalMapping):
        return mapping_to_dict(value)
    if isinstance(value, (tuple, set, frozenset)):
        return list(value)
    if hasattr(value, "items"):
        return dict(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def identity_bytes(result) -> bytes:
    """Canonical bytes of ``result.identity()`` (every solution field)."""
    return json.dumps(
        result.identity(), sort_keys=True, default=_json_default
    ).encode("utf-8")


def answer_problems(app, platform, request, result) -> list[str]:
    """Everything wrong with one answer (an empty list means it is right)."""
    from repro.core.costs import evaluate

    problems: list[str] = []
    evaluation = evaluate(app, platform, result.mapping)
    if evaluation.period != result.period:
        problems.append(
            f"period {result.period!r} != re-evaluated {evaluation.period!r}"
        )
    if evaluation.latency != result.latency:
        problems.append(
            f"latency {result.latency!r} != re-evaluated {evaluation.latency!r}"
        )
    fits = True
    if request.period_bound is not None:
        fits = fits and evaluation.period <= request.period_bound
    if request.latency_bound is not None:
        fits = fits and evaluation.latency <= request.latency_bound
    if bool(result.feasible) != fits:
        problems.append(
            f"feasible={result.feasible} but the mapping "
            f"{'meets' if fits else 'misses'} the bound (period "
            f"{evaluation.period!r} vs {request.period_bound!r}, latency "
            f"{evaluation.latency!r} vs {request.latency_bound!r})"
        )
    return problems


@dataclass
class AnswerLedger:
    """Running tally of checked answers plus the answers digest.

    ``digest_ops`` fixes which answers enter the digest: those of the first
    ``digest_ops`` operations, ordered by (operation, answer index), so
    two runs at one seed print the same digest however many operations
    their time budget allowed.
    """

    digest_ops: int
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _digest_parts: list[tuple[int, int, bytes]] = field(default_factory=list)

    def record(
        self, op: int, index: int, label: str, problems: list[str], result=None
    ) -> None:
        """Count one answer; ``result`` is ``None`` when none came back."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"op {op} answer {index} ({label}): " + "; ".join(problems))
        if op < self.digest_ops:
            payload = identity_bytes(result) if result is not None else b"missing"
            self._digest_parts.append((op, index, payload))

    def check(self, op: int, index: int, label: str, app, platform, request, result,
              reference=None, extra: list[str] | None = None) -> None:
        """Check one answer (against ``reference`` when given) and record it."""
        problems = list(extra or [])
        if result is None:
            problems.append("no answer")
        else:
            problems.extend(answer_problems(app, platform, request, result))
            if reference is not None and identity_bytes(result) != identity_bytes(reference):
                problems.append("differs from the in-process solve_many reference")
        self.record(op, index, label, problems, result)

    def digest(self) -> str:
        sha = hashlib.sha256()
        for op, index, payload in sorted(self._digest_parts):
            sha.update(f"{op}:{index}:".encode("ascii"))
            sha.update(payload)
            sha.update(b"\n")
        return sha.hexdigest()

    @property
    def n_digested(self) -> int:
        return len(self._digest_parts)
