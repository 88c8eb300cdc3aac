"""Backend state and kernel dispatch: the single ``backend=`` knob.

One process-wide *active backend* (``numpy`` unless ``REPRO_BACKEND`` says
otherwise) governs every hot-path kernel; callers override it per call with
``backend=`` or per region with :func:`use_backend`.  The pool engine
(:mod:`repro.utils.parallel`) mirrors the parent's active backend into its
workers, so pooled runs always compute with the same kernels as serial
runs.

Backends:

``numpy``
    The broadcast/reduce reference kernels — the oracle every other
    backend is validated against.
``scalar``
    The original Python loops, kept as the independently-auditable
    baseline.
``compiled``
    The built-in C library (:mod:`repro.core.kernels.compiled`) for the
    homogeneous-DP tables, bit-identical to ``numpy`` by validation;
    silently served by the numpy kernels when the engine is unavailable
    (see :func:`compiled_unavailable_reason`).  The elementwise cost terms
    of :mod:`repro.core.costs` always run in numpy.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..exceptions import ConfigurationError
from . import reference

__all__ = [
    "BACKENDS",
    "active_backend",
    "set_active_backend",
    "use_backend",
    "resolve_backend",
    "compiled_engine",
    "compiled_unavailable_reason",
    "backend_info",
    "min_period_tables",
    "min_latency_tables",
]

#: the selectable kernel backends, in documentation order
BACKENDS = ("numpy", "scalar", "compiled")


def _validated(name: str) -> str:
    name = str(name).strip().lower()
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def _initial_backend() -> str:
    raw = os.environ.get("REPRO_BACKEND", "").strip()
    return _validated(raw) if raw else "numpy"


_ACTIVE = _initial_backend()


def active_backend() -> str:
    """The process-wide backend serving ``backend=None`` calls."""
    return _ACTIVE


def set_active_backend(name: str) -> str:
    """Set the active backend; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _validated(name)
    return previous


@contextmanager
def use_backend(name: str | None) -> Iterator[str]:
    """Scoped backend override (``None`` leaves the active backend alone)."""
    if name is None:
        yield _ACTIVE
        return
    previous = set_active_backend(name)
    try:
        yield _ACTIVE
    finally:
        set_active_backend(previous)


def resolve_backend(backend: str | None) -> str:
    """A concrete backend name: the argument, or the active backend."""
    return _ACTIVE if backend is None else _validated(backend)


def compiled_engine() -> str | None:
    """Concrete engine behind ``compiled`` (``cc`` or ``None``)."""
    from . import compiled

    return compiled.engine_name()


def compiled_unavailable_reason() -> str | None:
    """Why ``compiled`` falls back to numpy in this process (else ``None``)."""
    from . import compiled

    return compiled.unavailable_reason()


def backend_info() -> dict:
    """Diagnostic snapshot: active backend plus the compiled-engine verdict."""
    return {
        "active": active_backend(),
        "backends": list(BACKENDS),
        "compiled_engine": compiled_engine(),
        "compiled_unavailable_reason": compiled_unavailable_reason(),
    }


def _compiled_functions() -> dict | None:
    from . import compiled

    return compiled.engine_functions()


# --------------------------------------------------------------------------- #
# kernel dispatch
# --------------------------------------------------------------------------- #
def min_period_tables(
    cycle: np.ndarray, n: int, p: int, *, backend: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck-partition DP tables under the selected backend."""
    resolved = resolve_backend(backend)
    if resolved == "scalar":
        return reference.min_period_tables_scalar(cycle, n, p)
    if resolved == "compiled":
        funcs = _compiled_functions()
        if funcs is not None:
            return funcs["min_period_tables"](cycle, int(n), int(p))
    return reference.min_period_tables_numpy(cycle, n, p)


def min_latency_tables(
    cycle: np.ndarray,
    term: np.ndarray,
    period_bound: float,
    n: int,
    p: int,
    *,
    backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Period-constrained additive DP tables under the selected backend."""
    resolved = resolve_backend(backend)
    if resolved == "scalar":
        return reference.min_latency_tables_scalar(cycle, term, period_bound, n, p)
    if resolved == "compiled":
        funcs = _compiled_functions()
        if funcs is not None:
            return funcs["min_latency_tables"](
                cycle, term, float(period_bound), int(n), int(p)
            )
    return reference.min_latency_tables_numpy(cycle, term, period_bound, n, p)
