"""Compiled-engine selection: the ``cc`` C library, else none.

The ``compiled`` backend name is a *request*, not a guarantee: this module
decides per process whether the ``cc`` engine (the embedded C library built
with the system compiler, :mod:`repro.core.kernels._cc`) serves it.

* ``REPRO_KERNELS_DISABLE`` set to ``all``/``1``/``cc`` switches the engine
  off.  CI's ``disabled`` leg sets ``REPRO_KERNELS_DISABLE=all`` to prove
  the numpy fallback end to end.
* The engine is **validated before adoption**: its two DP table kernels
  run on a small fixed instance and must reproduce the numpy reference
  (:mod:`repro.core.kernels.reference`) bit for bit.  A mismatching or
  crashing engine is rejected with a recorded reason, exactly like a
  missing one.
* When the engine is unavailable, the dispatch layer silently serves
  ``compiled`` requests with the numpy kernels and
  :func:`unavailable_reason` explains why — graceful fallback, never an
  error.

The decision is cached per process; forked pool workers inherit it, and a
fresh worker re-runs the same deterministic selection.
"""

from __future__ import annotations

import os

import numpy as np

from . import reference

__all__ = ["engine_name", "engine_functions", "unavailable_reason", "reset"]

#: selection cache: None = not yet decided
_STATE: dict | None = None


def _disabled() -> bool:
    """Whether ``REPRO_KERNELS_DISABLE`` switches the ``cc`` engine off."""
    raw = os.environ.get("REPRO_KERNELS_DISABLE", "").strip().lower()
    tokens = {token.strip() for token in raw.split(",")}
    return bool(tokens & {"1", "all", "true", "compiled", "cc"})


def _validate(funcs: dict) -> None:
    """Reject an engine whose kernels do not reproduce the reference bits."""
    rng = np.random.default_rng(20070628)
    n, p = 9, 4
    lower = np.tril_indices(n, k=-1)

    cycle = rng.uniform(0.5, 3.0, (n, n))
    cycle[lower] = np.inf
    term = rng.uniform(0.1, 2.0, (n, n))
    term[lower] = np.inf

    for name, args in (
        ("min_period_tables", (cycle, n, p)),
        ("min_latency_tables", (cycle, term, 2.25, n, p)),
    ):
        got_dp, got_par = funcs[name](*args)
        ref_fn = getattr(reference, f"{name}_numpy")
        want_dp, want_par = ref_fn(*args)
        if not (
            np.array_equal(got_dp, want_dp) and np.array_equal(got_par, want_par)
        ):
            raise RuntimeError(f"{name} disagrees with the numpy reference")


def _select() -> dict:
    """Build and validate the ``cc`` engine; record why it was not adopted."""
    if _disabled():
        reason = "cc: disabled via REPRO_KERNELS_DISABLE"
        return {"name": None, "functions": None, "reason": reason}
    from . import _cc

    try:
        funcs = _cc.load()
        _validate(funcs)
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        reason = f"cc: {type(exc).__name__}: {exc}"
        return {"name": None, "functions": None, "reason": reason}
    return {"name": "cc", "functions": funcs, "reason": None}


def _state() -> dict:
    global _STATE
    if _STATE is None:
        _STATE = _select()
    return _STATE


def engine_name() -> str | None:
    """The engine serving the ``compiled`` backend (``None`` = numpy fallback)."""
    return _state()["name"]


def engine_functions() -> dict | None:
    """The selected engine's kernel callables, or ``None`` without an engine."""
    return _state()["functions"]


def unavailable_reason() -> str | None:
    """Why no compiled engine is active (``None`` when one is)."""
    return _state()["reason"]


def reset() -> None:
    """Forget the cached selection (tests flip ``REPRO_KERNELS_DISABLE``)."""
    global _STATE
    _STATE = None
