"""The ``cc`` compiled engine: a tiny C library JIT-built with the system compiler.

The engine behind the ``compiled`` backend: the two homogeneous-DP table
kernels are compiled once from the embedded C source into a shared library
cached under the user cache directory, keyed by the SHA-256 of the source —
editing the source below automatically invalidates the cached binary.

Bit-identity contract: the C loops perform exactly the IEEE-754 double
operations of the numpy reference kernels, in an order that provably yields
the same bits —

* ``max(a, b)`` then a strict ``<`` first-minimum scan over ascending ``j``
  equals ``np.maximum`` + ``argmin`` (first index wins, no arithmetic
  reordering);
* the DP recurrences are single adds/compares, associativity never enters.

The build is intentionally conservative: ``-O3 -ffp-contract=off`` and no
fast-math, so the compiler cannot fuse or reorder floating-point operations
(vectorising the compare/select inner loops is safe: no reduction order
changes, every lane performs the exact scalar operation).
Any build or validation failure is reported to the engine selector
(:mod:`repro.core.kernels.compiled`), never raised to solver code.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["load"]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Bottleneck-partition DP tables (homogeneous min-period).
 * cycle: (n, n) row-major; dp/parent: (p+1, n+1) row-major, fully written;
 * scratch: caller-provided n*n buffer holding the transpose of cycle so the
 * inner scan reads contiguously.  Mirrors: candidates[j, i-1] =
 * max(dp[k-1, j], cycle[j, i-1]) with rows j < k-1 masked to inf,
 * column-wise min + first-index argmin, parent -1 on infinite columns.
 * Scanning j ascending with a strict < keeps the whole min/argmin state in
 * registers and wins on the *first* minimum, exactly like numpy's argmin. */
void repro_min_period_tables(const double *restrict cycle, int64_t n,
                             int64_t p, double *restrict dp,
                             int64_t *restrict parent,
                             double *restrict scratch)
{
    const double inf = INFINITY;
    const int64_t w = n + 1;
    for (int64_t c = 0; c < n; ++c)
        for (int64_t r = 0; r < n; ++r)
            scratch[c * n + r] = cycle[r * n + c];
    for (int64_t c = 0; c < (p + 1) * w; ++c) { dp[c] = inf; parent[c] = -1; }
    dp[0] = 0.0;
    for (int64_t k = 1; k <= p; ++k) {
        const double *prev = dp + (k - 1) * w;
        double *cur = dp + k * w;
        int64_t *par = parent + k * w;
        const int64_t jlo = (k - 1 > 0) ? k - 1 : 0;
        for (int64_t i = 1; i <= n; ++i) {
            const double *col = scratch + (i - 1) * n;
            double best = inf;
            int64_t bj = -1;
            for (int64_t j = jlo; j < i; ++j) {
                const double a = prev[j];
                const double c = col[j];
                const double cand = (a > c) ? a : c;
                const int take = cand < best;
                best = take ? cand : best;
                bj = take ? j : bj;
            }
            cur[i] = best;
            par[i] = isfinite(best) ? bj : -1;
        }
    }
}

/* Period-constrained additive DP tables (homogeneous min-latency).
 * allowed[j, e] = (cycle[j, e] <= bound + 1e-12) ? term[j, e] : inf is
 * materialised transposed in the caller-provided n*n scratch buffer; same
 * reduction scheme as above. */
void repro_min_latency_tables(const double *restrict cycle,
                              const double *restrict term,
                              double period_bound, int64_t n, int64_t p,
                              double *restrict dp, int64_t *restrict parent,
                              double *restrict scratch)
{
    const double inf = INFINITY;
    const double bound = period_bound + 1e-12;
    const int64_t w = n + 1;
    /* materialise numpy's `allowed` matrix, transposed, in one pass: the
     * inner scan then has the exact shape of the min-period kernel */
    double *alT = scratch;
    for (int64_t c = 0; c < n; ++c)
        for (int64_t r = 0; r < n; ++r)
            alT[c * n + r] = (cycle[r * n + c] <= bound) ? term[r * n + c] : inf;
    for (int64_t c = 0; c < (p + 1) * w; ++c) { dp[c] = inf; parent[c] = -1; }
    dp[0] = 0.0;
    for (int64_t k = 1; k <= p; ++k) {
        const double *prev = dp + (k - 1) * w;
        double *cur = dp + k * w;
        int64_t *par = parent + k * w;
        const int64_t jlo = (k - 1 > 0) ? k - 1 : 0;
        for (int64_t i = 1; i <= n; ++i) {
            const double *col = alT + (i - 1) * n;
            double best = inf;
            int64_t bj = -1;
            for (int64_t j = jlo; j < i; ++j) {
                const double cand = prev[j] + col[j];
                const int take = cand < best;
                best = take ? cand : best;
                bj = take ? j : bj;
            }
            cur[i] = best;
            par[i] = isfinite(best) ? bj : -1;
        }
    }
}
"""

_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off"]

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)


def _compiler() -> str | None:
    """The system C compiler, honouring ``$CC``."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _cache_dir() -> Path:
    """Writable cache directory for the built shared library."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def _build(compiler: str) -> Path:
    """Compile the embedded source into a cached .so (atomic, content-keyed)."""
    digest = hashlib.sha256(
        (_SOURCE + " ".join(_CFLAGS) + compiler).encode("utf-8")
    ).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"repro_kernels_{digest}.so"
    if target.exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src = Path(tmp) / "kernels.c"
        src.write_text(_SOURCE, encoding="utf-8")
        out = Path(tmp) / "kernels.so"
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", str(out), str(src), "-lm"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            raise RuntimeError(f"{compiler} failed: {' / '.join(tail)}")
        os.replace(out, target)  # atomic under concurrent builders
    return target


def _as_f64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _ptr_f64(arr: np.ndarray):
    return arr.ctypes.data_as(_F64)


def _ptr_i64(arr: np.ndarray):
    return arr.ctypes.data_as(_I64)


def load() -> dict:
    """Build (or reuse) the library and return the two kernel callables.

    Raises on any failure — no compiler, failed build, unloadable library —
    with a one-line reason for the engine selector to record.
    """
    compiler = _compiler()
    if compiler is None:
        raise RuntimeError("no C compiler on PATH (set $CC to override)")
    lib = ctypes.CDLL(str(_build(compiler)))

    c_i64 = ctypes.c_int64
    c_f64 = ctypes.c_double
    lib.repro_min_period_tables.argtypes = [_F64, c_i64, c_i64, _F64, _I64, _F64]
    lib.repro_min_period_tables.restype = None
    lib.repro_min_latency_tables.argtypes = [
        _F64, _F64, c_f64, c_i64, c_i64, _F64, _I64, _F64,
    ]
    lib.repro_min_latency_tables.restype = None

    def min_period_tables(cycle, n, p):
        cycle = _as_f64(cycle)
        dp = np.empty((p + 1, n + 1), dtype=np.float64)
        parent = np.empty((p + 1, n + 1), dtype=np.int64)
        scratch = np.empty(n * n, dtype=np.float64)
        lib.repro_min_period_tables(
            _ptr_f64(cycle), n, p, _ptr_f64(dp), _ptr_i64(parent),
            _ptr_f64(scratch),
        )
        return dp, parent

    def min_latency_tables(cycle, term, period_bound, n, p):
        cycle = _as_f64(cycle)
        term = _as_f64(term)
        dp = np.empty((p + 1, n + 1), dtype=np.float64)
        parent = np.empty((p + 1, n + 1), dtype=np.int64)
        scratch = np.empty(n * n, dtype=np.float64)
        lib.repro_min_latency_tables(
            _ptr_f64(cycle), _ptr_f64(term), float(period_bound), n, p,
            _ptr_f64(dp), _ptr_i64(parent), _ptr_f64(scratch),
        )
        return dp, parent

    return {
        "min_period_tables": min_period_tables,
        "min_latency_tables": min_latency_tables,
    }
