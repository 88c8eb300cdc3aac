"""Zero-pickle shared-memory transport for problem instances.

The batch service and the workload engine hand a process pool thousands of
tasks that reference a *small* set of unique ``(application, platform)``
instances.  The historical transport pickled both objects into every task
tuple, shipping each instance to each worker once per task.  This module
replaces that with an **instance arena**:

* the parent publishes each unique instance's canonical JSON payloads
  (:func:`repro.core.identity.application_payload` /
  :func:`~repro.core.identity.platform_payload` — already computed during
  batch dedupe, and exact by construction: JSON floats use the shortest
  round-trip repr) plus the display names into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment;
* tasks carry an :class:`InstanceRef` — a digest string — instead of the
  objects;
* each worker receives the tiny :class:`InstanceShipment` catalog once, via
  the pool initializer, maps the segment read-only, and rehydrates every
  digest **at most once** per worker process, memoising the pair.

When POSIX shared memory is unavailable (or ``REPRO_DISABLE_SHM`` is set)
the arena degrades to *inline* transport: the same payload bytes travel
inside the shipment through the initializer — still exactly once per
worker, never once per task.

Workers attach by opening the raw ``/dev/shm`` file instead of the
:class:`SharedMemory` wrapper: on Python < 3.13 an attach-side wrapper
registers the segment with the resource tracker and can unlink it while the
parent still owns it.  The parent alone creates and unlinks the segment.
"""

from __future__ import annotations

import atexit
import json
import mmap
import os
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.application import PipelineApplication
    from ..core.platform import Platform

__all__ = [
    "InstanceRef",
    "InstanceShipment",
    "InstanceArena",
    "arena_pays",
    "shm_supported",
    "resolve_instance",
    "worker_attach_counts",
]

#: /dev/shm segment directory used by CPython's POSIX shared memory
_SHM_DIR = "/dev/shm"

#: arenas whose segment is still linked: the atexit guard below unlinks
#: them if the parent exits without reaching ``close()`` (an exception path
#: that skipped the context manager, a bare sys.exit inside a callback);
#: ``close()`` discards its arena, so the happy path never re-enters here.
#: A parent killed outright (SIGKILL) never runs atexit — that case is
#: covered by the multiprocessing resource tracker, which outlives the
#: parent and unlinks every segment it still has registered.
_LIVE_ARENAS: "weakref.WeakSet[InstanceArena]" = weakref.WeakSet()


def _close_live_arenas() -> None:
    for arena in list(_LIVE_ARENAS):
        arena.close()


atexit.register(_close_live_arenas)


def arena_pays(n_workers: int, n_tasks: int) -> bool:
    """Whether instances should reach the workers through an arena.

    Only a real pool (``n_workers > 1``) with more than one task to share
    the published instances gains from the arena; serial and single-task
    runs hand the objects over directly.
    """
    return n_workers > 1 and n_tasks > 1


def shm_supported() -> bool:
    """Whether the POSIX shared-memory fast path is usable here."""
    if os.environ.get("REPRO_DISABLE_SHM", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "all",
    ):
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - minimal builds
        return False
    return os.path.isdir(_SHM_DIR)


@dataclass(frozen=True)
class InstanceRef:
    """A task-sized stand-in for an ``(application, platform)`` pair.

    Pickles as one short string; workers resolve it against the installed
    :class:`InstanceShipment` via :func:`resolve_instance`.
    """

    digest: str


@dataclass(frozen=True)
class InstanceShipment:
    """The per-worker catalog of a published arena (sent via initializer).

    ``catalog`` maps each instance digest to ``(app_offset, app_length,
    platform_offset, platform_length, app_name, platform_name)`` inside the
    segment (or inside ``inline`` when no segment exists).  Display names
    ride along because the canonical payloads are deliberately name-free
    and pooled reports must stay byte-identical to serial ones.
    """

    segment: str | None
    size: int
    catalog: dict[str, tuple[int, int, int, int, str, str]]
    inline: bytes | None = None

    def install(self) -> None:
        """Make this shipment the process-wide resolver state."""
        _install(self)


class InstanceArena:
    """Parent-side publisher of unique instances for one pooled run.

    Use as a context manager around the ``parallel_map`` call; the segment
    is unlinked on exit, so refs must not outlive the arena.
    """

    def __init__(
        self, pairs: Iterable[tuple["PipelineApplication", "Platform"]]
    ) -> None:
        from ..core.identity import application_payload, instance_digest, platform_payload

        catalog: dict[str, tuple[int, int, int, int, str, str]] = {}
        blobs: list[bytes] = []
        offset = 0
        for app, platform in pairs:
            digest = instance_digest(app, platform)
            if digest in catalog:
                continue
            app_blob = application_payload(app)
            plat_blob = platform_payload(platform)
            catalog[digest] = (
                offset,
                len(app_blob),
                offset + len(app_blob),
                len(plat_blob),
                app.name,
                platform.name,
            )
            blobs.append(app_blob)
            blobs.append(plat_blob)
            offset += len(app_blob) + len(plat_blob)

        self._catalog = catalog
        self._size = offset
        self._shm = None
        data = b"".join(blobs)
        if shm_supported() and offset > 0:
            try:
                from multiprocessing import shared_memory

                segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
                segment.buf[:offset] = data
            except OSError:  # pragma: no cover - shm mount full/forbidden
                self._inline = data
            else:
                self._shm = segment
                self._inline = None
                _LIVE_ARENAS.add(self)
        else:
            self._inline = data

    @property
    def n_instances(self) -> int:
        return len(self._catalog)

    @property
    def uses_shared_memory(self) -> bool:
        return self._shm is not None

    def ref(self, app: "PipelineApplication", platform: "Platform") -> InstanceRef:
        """The ref of a published instance (KeyError if never published)."""
        from ..core.identity import instance_digest

        digest = instance_digest(app, platform)
        if digest not in self._catalog:
            raise KeyError(f"instance {digest[:12]}… was not published in this arena")
        return InstanceRef(digest)

    def shipment(self) -> InstanceShipment:
        """The catalog to hand each worker through the pool initializer."""
        return InstanceShipment(
            segment=self._shm.name if self._shm is not None else None,
            size=self._size,
            catalog=dict(self._catalog),
            inline=self._inline,
        )

    def close(self) -> None:
        """Unlink the segment (idempotent); refs become unresolvable."""
        segment, self._shm = self._shm, None
        if segment is None:
            return
        _LIVE_ARENAS.discard(self)
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "InstanceArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------------- #
# worker-side resolver state
# --------------------------------------------------------------------------- #
@dataclass
class _ResolverState:
    shipment: InstanceShipment
    buffer: bytes | mmap.mmap | None = None
    handle: object | None = None
    cache: dict = field(default_factory=dict)
    attach_counts: dict = field(default_factory=dict)


_STATE: _ResolverState | None = None


def _install(shipment: InstanceShipment) -> None:
    global _STATE
    _release()
    _STATE = _ResolverState(shipment=shipment)


def _release() -> None:
    global _STATE
    state, _STATE = _STATE, None
    if state is None:
        return
    if isinstance(state.buffer, mmap.mmap):  # pragma: no branch
        try:
            state.buffer.close()
        except (BufferError, OSError):  # pragma: no cover
            pass
    if state.handle is not None:
        try:
            state.handle.close()  # type: ignore[attr-defined]
        except OSError:  # pragma: no cover
            pass


def _buffer(state: _ResolverState) -> bytes | mmap.mmap:
    """The arena bytes: inline payload, or a lazy read-only segment map."""
    if state.buffer is not None:
        return state.buffer
    shipment = state.shipment
    if shipment.inline is not None:
        state.buffer = shipment.inline
        return state.buffer
    if shipment.segment is None:
        raise RuntimeError("instance shipment carries neither a segment nor bytes")
    handle = open(os.path.join(_SHM_DIR, shipment.segment), "rb")
    state.handle = handle
    state.buffer = mmap.mmap(
        handle.fileno(), max(shipment.size, 1), prot=mmap.PROT_READ
    )
    return state.buffer


def resolve_instance(item: object) -> object:
    """Resolve an :class:`InstanceRef` to its pair; pass anything else through.

    Each digest is rehydrated at most once per process — later refs to the
    same instance return the memoised objects.
    """
    if not isinstance(item, InstanceRef):
        return item
    state = _STATE
    if state is None:
        raise RuntimeError(
            "no instance shipment installed in this process; "
            "pass the arena's shipment() as the parallel_map payload"
        )
    pair = state.cache.get(item.digest)
    if pair is not None:
        return pair

    from ..core.serialization import application_from_dict, platform_from_dict

    entry = state.shipment.catalog.get(item.digest)
    if entry is None:
        raise KeyError(f"instance {item.digest[:12]}… is not in the shipment catalog")
    app_off, app_len, plat_off, plat_len, app_name, plat_name = entry
    buf = _buffer(state)
    app_doc = json.loads(bytes(buf[app_off : app_off + app_len]))
    plat_doc = json.loads(bytes(buf[plat_off : plat_off + plat_len]))
    app_doc["name"] = app_name
    plat_doc["name"] = plat_name
    pair = (application_from_dict(app_doc), platform_from_dict(plat_doc))
    state.cache[item.digest] = pair
    state.attach_counts[item.digest] = state.attach_counts.get(item.digest, 0) + 1
    return pair


def worker_attach_counts() -> dict[str, int]:
    """Per-digest rehydration counts of this process (instrumentation).

    The ship-at-most-once contract says every value is exactly 1 no matter
    how many tasks referenced the digest; the transport tests assert this
    from inside pool workers.
    """
    if _STATE is None:
        return {}
    return dict(_STATE.attach_counts)
