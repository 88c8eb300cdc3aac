"""Target platform model (Section 2 of the paper, "Target platform").

The paper targets a clique of ``p`` processors ``P_1 .. P_p``.  Processor
``P_u`` has speed ``s_u`` (it executes ``X`` floating point operations in
``X / s_u`` time units) and the link between ``P_u`` and ``P_v`` has bandwidth
``b_{u,v}`` (a message of size ``X`` takes ``X / b_{u,v}`` time units, linear
cost model).  Communications obey the *one-port* model: a processor is involved
in at most one communication (send or receive) at a time.

Three platform classes are distinguished in the paper:

* **Fully Homogeneous** — identical speeds and identical links;
* **Communication Homogeneous** — different speeds, identical links
  (``b_{u,v} = b``); this is the class studied in the paper;
* **Fully Heterogeneous** — different speeds and different link bandwidths
  (kept as an extension, see :mod:`repro.extensions.heterogeneous_links`).

This module represents all three with a single :class:`Platform` class holding
a speed vector and a bandwidth matrix, plus classification helpers and
convenience constructors.  The "outside world" connections used by the first
and last stage are modelled with dedicated input/output bandwidths, which
default to the common link bandwidth for communication-homogeneous platforms.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exceptions import InvalidPlatformError

__all__ = ["Processor", "PlatformClass", "Platform"]


@dataclass(frozen=True)
class Processor:
    """A single processor of the target platform.

    Attributes
    ----------
    index:
        0-based identifier of the processor.
    speed:
        Speed ``s_u`` (computation units per time unit).
    name:
        Human readable label, defaults to ``"P<u>"`` (1-based, as in the paper).
    """

    index: int
    speed: float
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"P{self.index + 1}")

    def compute_time(self, work: float) -> float:
        """Time to execute ``work`` computation units on this processor."""
        return work / self.speed


class PlatformClass(enum.Enum):
    """Classification of platforms used throughout the paper."""

    FULLY_HOMOGENEOUS = "fully-homogeneous"
    COMMUNICATION_HOMOGENEOUS = "communication-homogeneous"
    FULLY_HETEROGENEOUS = "fully-heterogeneous"


class Platform:
    """A clique of processors with speeds and link bandwidths.

    Parameters
    ----------
    speeds:
        Sequence of ``p`` positive processor speeds ``s_u``.
    bandwidths:
        Either a single positive scalar ``b`` (identical links, the
        communication-homogeneous case of the paper) or a ``p x p`` symmetric
        matrix of positive link bandwidths.  Diagonal entries are ignored for
        inter-processor transfers: intra-processor communication is free.
    input_bandwidth / output_bandwidth:
        Bandwidth of the link bringing the initial data ``delta_0`` into the
        platform and taking the final result ``delta_n`` out.  They default to
        the scalar bandwidth (or to the maximum entry of the matrix when a
        matrix is given).
    name:
        Optional label used in reports.
    """

    __slots__ = (
        "_speeds",
        "_bandwidths",
        "_scalar_bandwidth",
        "_input_bandwidth",
        "_output_bandwidth",
        "name",
        "_canonical_payload",
        "_canonical_hash",
        "_platform_class",
        "_speed_order",
    )

    def __init__(
        self,
        speeds: Sequence[float] | np.ndarray,
        bandwidths: float | Sequence[Sequence[float]] | np.ndarray,
        input_bandwidth: float | None = None,
        output_bandwidth: float | None = None,
        name: str = "platform",
    ) -> None:
        speed_arr = np.asarray(list(speeds), dtype=float)
        if speed_arr.ndim != 1 or speed_arr.size == 0:
            raise InvalidPlatformError("a platform needs at least one processor")
        if np.any(speed_arr <= 0) or not np.all(np.isfinite(speed_arr)):
            raise InvalidPlatformError("processor speeds must be finite and positive")
        self._speeds = speed_arr
        self._speeds.setflags(write=False)

        p = speed_arr.size
        if np.isscalar(bandwidths):
            b = float(bandwidths)  # type: ignore[arg-type]
            if not np.isfinite(b) or b <= 0:
                raise InvalidPlatformError("link bandwidth must be finite and positive")
            self._scalar_bandwidth = b
            self._bandwidths = None
            default_io = b
        else:
            mat = np.asarray(bandwidths, dtype=float)
            if mat.shape != (p, p):
                raise InvalidPlatformError(
                    f"bandwidth matrix must be {p}x{p}, got shape {mat.shape}"
                )
            off_diag = mat[~np.eye(p, dtype=bool)]
            if off_diag.size and (np.any(off_diag <= 0) or not np.all(np.isfinite(off_diag))):
                raise InvalidPlatformError(
                    "off-diagonal link bandwidths must be finite and positive"
                )
            if not np.allclose(mat, mat.T):
                raise InvalidPlatformError("bandwidth matrix must be symmetric")
            self._scalar_bandwidth = None
            self._bandwidths = mat.copy()
            self._bandwidths.setflags(write=False)
            default_io = float(off_diag.max()) if off_diag.size else 1.0

        self._input_bandwidth = float(
            default_io if input_bandwidth is None else input_bandwidth
        )
        self._output_bandwidth = float(
            default_io if output_bandwidth is None else output_bandwidth
        )
        if self._input_bandwidth <= 0 or self._output_bandwidth <= 0:
            raise InvalidPlatformError("input/output bandwidths must be positive")
        self.name = name
        # canonical-identity caches (repro.core.identity); the hashed vectors
        # above are frozen, so the cached values can never go stale
        self._canonical_payload: bytes | None = None
        self._canonical_hash: str | None = None
        # classification and speed-order caches, equally safe: the splitting
        # heuristics read both once per run
        self._platform_class: PlatformClass | None = None
        self._speed_order: tuple[int, ...] | None = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_processors(self) -> int:
        """Number of processors ``p``."""
        return int(self._speeds.size)

    def __len__(self) -> int:
        return self.n_processors

    @property
    def speeds(self) -> np.ndarray:
        """Read-only vector of processor speeds (length ``p``)."""
        return self._speeds

    def speed(self, u: int) -> float:
        """Speed ``s_u`` of processor ``u`` (0-based)."""
        return float(self._speeds[self._check_proc(u)])

    def processor(self, u: int) -> Processor:
        """Return processor ``u`` as a :class:`Processor` record."""
        u = self._check_proc(u)
        return Processor(index=u, speed=float(self._speeds[u]))

    def processors(self) -> Iterator[Processor]:
        """Iterate over processors in index order."""
        for u in range(self.n_processors):
            yield self.processor(u)

    def __iter__(self) -> Iterator[Processor]:
        return self.processors()

    # ------------------------------------------------------------------ #
    # bandwidths
    # ------------------------------------------------------------------ #
    def bandwidth(self, u: int, v: int) -> float:
        """Bandwidth ``b_{u,v}`` of the link between processors ``u`` and ``v``.

        Intra-processor transfers (``u == v``) are free and return ``inf``.
        """
        u = self._check_proc(u)
        v = self._check_proc(v)
        if u == v:
            return float("inf")
        if self._scalar_bandwidth is not None:
            return self._scalar_bandwidth
        return float(self._bandwidths[u, v])

    @property
    def input_bandwidth(self) -> float:
        """Bandwidth of the link delivering ``delta_0`` to the first interval."""
        return self._input_bandwidth

    @property
    def output_bandwidth(self) -> float:
        """Bandwidth of the link exporting ``delta_n`` from the last interval."""
        return self._output_bandwidth

    @property
    def uniform_bandwidth(self) -> float:
        """The common link bandwidth ``b``.

        Raises :class:`InvalidPlatformError` when the platform is fully
        heterogeneous and no single ``b`` exists.
        """
        if self._scalar_bandwidth is not None:
            return self._scalar_bandwidth
        p = self.n_processors
        off_diag = self._bandwidths[~np.eye(p, dtype=bool)]
        if off_diag.size == 0:
            return self._input_bandwidth
        if np.allclose(off_diag, off_diag[0]):
            return float(off_diag[0])
        raise InvalidPlatformError(
            "platform has heterogeneous links; no uniform bandwidth exists"
        )

    def bandwidth_matrix(self) -> np.ndarray:
        """Full ``p x p`` bandwidth matrix (``inf`` on the diagonal)."""
        p = self.n_processors
        if self._scalar_bandwidth is not None:
            mat = np.full((p, p), self._scalar_bandwidth, dtype=float)
        else:
            mat = np.array(self._bandwidths, dtype=float)
        np.fill_diagonal(mat, np.inf)
        return mat

    # ------------------------------------------------------------------ #
    # classification and ordering helpers
    # ------------------------------------------------------------------ #
    @property
    def platform_class(self) -> PlatformClass:
        """Classify the platform following the paper's taxonomy (cached)."""
        if self._platform_class is None:
            self._platform_class = self._classify()
        return self._platform_class

    def _classify(self) -> PlatformClass:
        homogeneous_speeds = bool(np.allclose(self._speeds, self._speeds[0]))
        if self._scalar_bandwidth is not None:
            homogeneous_links = True
        else:
            p = self.n_processors
            off_diag = self._bandwidths[~np.eye(p, dtype=bool)]
            homogeneous_links = off_diag.size == 0 or bool(
                np.allclose(off_diag, off_diag[0])
            )
        if homogeneous_links and homogeneous_speeds:
            return PlatformClass.FULLY_HOMOGENEOUS
        if homogeneous_links:
            return PlatformClass.COMMUNICATION_HOMOGENEOUS
        return PlatformClass.FULLY_HETEROGENEOUS

    @property
    def is_communication_homogeneous(self) -> bool:
        """``True`` when every inter-processor link has the same bandwidth."""
        return self.platform_class in (
            PlatformClass.FULLY_HOMOGENEOUS,
            PlatformClass.COMMUNICATION_HOMOGENEOUS,
        )

    @property
    def is_fully_homogeneous(self) -> bool:
        """``True`` for identical speeds *and* identical link bandwidths.

        The single predicate shared by the homogeneous-only solvers and the
        solver registry's capability checks, so both always agree on which
        platforms qualify (Subhlok & Vondran setting).
        """
        return self.platform_class is PlatformClass.FULLY_HOMOGENEOUS

    def processors_by_speed(self, descending: bool = True) -> list[int]:
        """Processor indices sorted by speed.

        The heuristics of Section 4 always consume processors in non-increasing
        speed order; ties are broken by index so results are deterministic.
        Returns a fresh list on every call; the descending order is cached.
        """
        if not descending:
            return sorted(range(self.n_processors), key=lambda u: (self._speeds[u], u))
        if self._speed_order is None:
            self._speed_order = tuple(
                sorted(range(self.n_processors), key=lambda u: (-self._speeds[u], u))
            )
        return list(self._speed_order)

    @property
    def fastest_processor(self) -> int:
        """Index of the fastest processor (smallest index wins ties)."""
        return self.processors_by_speed(descending=True)[0]

    @property
    def max_speed(self) -> float:
        """Speed of the fastest processor."""
        return float(self._speeds.max())

    @property
    def total_speed(self) -> float:
        """Aggregate speed, an upper bound on exploitable parallelism."""
        return float(self._speeds.sum())

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def fully_homogeneous(
        cls, n_processors: int, speed: float = 1.0, bandwidth: float = 1.0,
        name: str = "homogeneous",
    ) -> "Platform":
        """Identical processors and identical links."""
        if n_processors <= 0:
            raise InvalidPlatformError("n_processors must be positive")
        return cls([speed] * n_processors, bandwidth, name=name)

    @classmethod
    def communication_homogeneous(
        cls,
        speeds: Sequence[float],
        bandwidth: float,
        name: str = "comm-homogeneous",
    ) -> "Platform":
        """Different-speed processors, identical links (the paper's target)."""
        return cls(speeds, bandwidth, name=name)

    @classmethod
    def fully_heterogeneous(
        cls,
        speeds: Sequence[float],
        bandwidth_matrix: Sequence[Sequence[float]] | np.ndarray,
        input_bandwidth: float | None = None,
        output_bandwidth: float | None = None,
        name: str = "heterogeneous",
    ) -> "Platform":
        """Different-speed processors and different link bandwidths."""
        return cls(
            speeds,
            bandwidth_matrix,
            input_bandwidth=input_bandwidth,
            output_bandwidth=output_bandwidth,
            name=name,
        )

    def restrict(self, processor_indices: Sequence[int], name: str | None = None) -> "Platform":
        """Sub-platform induced by a subset of processors (order preserved)."""
        idx = [self._check_proc(u) for u in processor_indices]
        if not idx:
            raise InvalidPlatformError("cannot restrict a platform to zero processors")
        speeds = self._speeds[idx]
        if self._scalar_bandwidth is not None:
            bandwidths: float | np.ndarray = self._scalar_bandwidth
        else:
            bandwidths = self._bandwidths[np.ix_(idx, idx)]
        return Platform(
            speeds,
            bandwidths,
            input_bandwidth=self._input_bandwidth,
            output_bandwidth=self._output_bandwidth,
            name=name or f"{self.name}[restricted]",
        )

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def _check_proc(self, u: int) -> int:
        if not isinstance(u, (int, np.integer)):
            raise InvalidPlatformError(f"processor index must be an integer, got {u!r}")
        if not 0 <= u < self.n_processors:
            raise InvalidPlatformError(
                f"processor index {u} out of range [0, {self.n_processors - 1}]"
            )
        return int(u)

    def canonical_hash(self) -> str:
        """Name-free SHA-256 identity of this platform, cached.

        Hashes only the numbers (speeds, link bandwidths, I/O bandwidths),
        never the display ``name``; two numerically identical platforms share
        one hash across processes and sessions.  Backed by the frozen speed
        and bandwidth vectors, so the cached value can never go stale.  See
        :mod:`repro.core.identity`.
        """
        if self._canonical_hash is None:
            from .identity import platform_payload

            payload = platform_payload(self)
            self._canonical_hash = hashlib.sha256(payload).hexdigest()
        return self._canonical_hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Platform):
            return NotImplemented
        return bool(
            np.array_equal(self._speeds, other._speeds)
            and np.allclose(self.bandwidth_matrix(), other.bandwidth_matrix())
            and self._input_bandwidth == other._input_bandwidth
            and self._output_bandwidth == other._output_bandwidth
        )

    def __repr__(self) -> str:
        return (
            f"Platform(name={self.name!r}, p={self.n_processors}, "
            f"class={self.platform_class.value}, max_speed={self.max_speed:g})"
        )

    def describe(self) -> str:
        """Multi-line human-readable description of the platform."""
        lines = [
            f"Platform '{self.name}' ({self.platform_class.value}) "
            f"with {self.n_processors} processor(s)"
        ]
        for proc in self.processors():
            lines.append(f"  {proc.name}: speed={proc.speed:g}")
        if self.is_communication_homogeneous:
            lines.append(f"  link bandwidth b={self.uniform_bandwidth:g}")
        else:
            lines.append("  heterogeneous link bandwidths")
        lines.append(
            f"  I/O bandwidths: in={self.input_bandwidth:g} out={self.output_bandwidth:g}"
        )
        return "\n".join(lines)
