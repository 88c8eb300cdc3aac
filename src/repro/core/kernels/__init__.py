"""Hot-path kernels behind a single ``backend`` knob.

``repro.core.kernels`` owns the inner loops of the homogeneous DP solvers,
each available in three interchangeable backends — ``numpy`` (the
reference oracle), ``scalar`` (the original Python loops), and ``compiled``
(a ctypes-loaded C library, validated bit-for-bit against the reference at
load time and falling back to numpy when it is unavailable).  The backend
also selects how :func:`repro.core.costs.evaluate_batch` runs: ``scalar``
evaluates mapping by mapping, the other two share its numpy kernel.

The package-level API is re-exported from :mod:`.dispatch`; see that
module for the backend-state model.
"""

from .dispatch import (
    BACKENDS,
    active_backend,
    backend_info,
    compiled_engine,
    compiled_unavailable_reason,
    min_latency_tables,
    min_period_tables,
    resolve_backend,
    set_active_backend,
    use_backend,
)

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
