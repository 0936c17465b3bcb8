"""Reference-counted shared-memory segments for zero-copy tensor hand-off.

The producer in TensorSocket stages each prepared batch once and then passes
*handles* to consumers.  A batch stays alive until every consumer has
acknowledged it, after which the producer releases it (step 2/6 in Figure 4 of
the paper).  This module provides the storage side of that protocol:

* :class:`SharedSegment` — a named block of bytes that multiple processes (or
  threads) can map.  Two backends are supported:

  - ``"posix"`` uses :mod:`multiprocessing.shared_memory` and therefore works
    across real OS processes (used by the real-mode examples),
  - ``"inproc"`` uses a plain ``bytearray`` held in a module-level registry,
    which is enough for threaded runs, tests and the discrete-event simulator
    and avoids leaking ``/dev/shm`` entries in constrained environments.

* :class:`SharedMemoryPool` — allocates tensors inside segments, tracks a
  reference count per segment (producer hold + one hold per consumer), and
  frees the segment once all holds are released.  The pool also exposes
  accounting (bytes in flight, high-water mark) that Table 3 / Table 4 style
  experiments read as "extra VRAM held by the producer".

Slab allocation
---------------

Freed segments are not unlinked eagerly: each parks on its *owner's* free
list (the tenant it was staged for, or ``None``) and is recycled under the
*same name* by that owner's next allocation.  An owner has one slab size,
which only grows: a larger batch raises it to its 64-byte-aligned size and
unlinks the free slabs it outgrew.  After a warm-up epoch the steady-state
hot path therefore performs zero ``shm_open``/``mmap`` on either side: the
producer pops a warm slab and the consumer's attach-by-name cache hits on
the recycled name.  Every tensor of one batch is packed into a *single* segment
at 64-byte-aligned offsets, so the per-batch handle count (and cross-process
attach count) is one.  One routine lays a batch out and commits it, and a
batch's bytes are written exactly once, by one of two fills:
:meth:`SharedMemoryPool.fill_batch` hands the reserved arrays to the caller
(the producer collates loader items straight into them), and
:meth:`SharedMemoryPool.share_batch` copies already-collated tensors in.

Because names now repeat, every segment starts with a 64-byte slab header
holding a **generation** counter that the pool bumps on every recycle.
Payload handles carry ``(name, generation)`` and :meth:`attach` rejects a
stale pair with :class:`~repro.tensor.errors.StaleHandleError` — a rubberband
replay or late duplicate ack can never silently alias a recycled segment.
A slab is created only when every slab of its owner is live, so an owner
keeps at most as many slabs as it ever had batches live at once.  Free slabs
are charged to no quota, are never handed to another owner, and surface
through the ``repro.pool.free_bytes`` gauge; ``TenantPool.shutdown()``,
``drop_tenant`` and ``shutdown`` unlink the free slabs they own.
"""

from __future__ import annotations

import math
import struct
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import counter, gauge
from repro.tensor.dtype import DTypeLike, as_dtype
from repro.tensor.device import DeviceLike
from repro.tensor.errors import QuotaExceededError, SharedMemoryError, StaleHandleError
from repro.tensor.tensor import Tensor

try:  # pragma: no cover - availability depends on the platform
    from multiprocessing import shared_memory as _posix_shm

    _POSIX_AVAILABLE = True
except ImportError:  # pragma: no cover
    _posix_shm = None
    _POSIX_AVAILABLE = False


# Registry of in-process segments, keyed by name.
_REGISTRY_LOCK = threading.Lock()
_INPROC_REGISTRY: Dict[str, bytearray] = {}  #: guarded by _REGISTRY_LOCK


_TRACKER_PATCH_LOCK = threading.Lock()

# ---------------------------------------------------------------------------
# Slab layout constants
# ---------------------------------------------------------------------------

#: Magic marking a segment as slab-allocated ("SLAB").
_SLAB_MAGIC = 0x534C4142
_SLAB_VERSION = 1
#: magic u32, version u16, flags u16, generation u64 — written at offset 0.
_SLAB_HEADER = struct.Struct("<IHHQ")
#: The header reserves one cache line; tensor data starts here, and every
#: tensor inside a batch segment is aligned to this quantum.
_SLAB_HEADER_SIZE = 64
_SLAB_ALIGN = 64
#: Every segment a pool creates is named ``tsock-<12 hex digits>``.
_NAME_PREFIX = "tsock"
#: Cached by-name attach handles kept open (beyond ones still viewed).
_ATTACH_CACHE_LIMIT = 32

_REUSE_HITS = counter("repro.pool.segment_reuse_hits")
_REUSE_MISSES = counter("repro.pool.segment_reuse_misses")
#: Real mapping operations: segment creations plus cross-process attach opens.
_MMAP_TOTAL = counter("repro.pool.mmap_total")


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def _open_posix_untracked(name: str):
    """Attach to an existing posix segment without resource-tracker ownership.

    Only the creating pool may own a segment's lifetime: it unlinks once every
    consumer acknowledged.  Letting the attach register with the resource
    tracker (which Python < 3.13 always does, and which multiprocessing
    children share with their parent) either double-books the name or tears
    live segments down at exit (bpo-39959).  Python 3.13+ exposes
    ``track=False`` for exactly this; older versions need the registration
    suppressed for the duration of the attach.
    """
    try:
        return _posix_shm.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _posix_shm.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


def _new_segment_name() -> str:
    return f"{_NAME_PREFIX}-{uuid.uuid4().hex[:12]}"


class SharedSegment:
    """A named, fixed-size block of shareable bytes.

    A segment is created once (``create=True``) by the producer and can be
    attached to by name from any other party (``create=False``).  The segment
    exposes a writable memoryview; tensors are laid out inside it by the
    :class:`SharedMemoryPool`.

    ``generation`` is the slab allocator's recycle counter for pool-owned
    segments (0 for raw segments created outside a pool).  The pool keeps it
    in sync with the in-segment slab header, which is the cross-process
    source of truth.
    """

    def __init__(
        self,
        name: str,
        size: Optional[int] = None,
        *,
        create: bool,
        backend: str = "inproc",
    ) -> None:
        if (create and size is None) or (size is not None and size <= 0):
            raise SharedMemoryError(f"segment size must be positive, got {size}")
        if backend not in ("inproc", "posix"):
            raise SharedMemoryError(f"unknown shared-memory backend {backend!r}")
        if backend == "posix" and not _POSIX_AVAILABLE:
            raise SharedMemoryError("posix shared memory is not available on this platform")
        self.name = name
        self.backend = backend
        self.generation = 0
        self._closed = False
        self._shm = None

        if backend == "posix":
            if create:
                # Serialised against _open_posix_untracked: a create must not
                # run while an attach has the tracker's register patched out,
                # or the new segment would never be tracked.
                with _TRACKER_PATCH_LOCK:
                    self._shm = _posix_shm.SharedMemory(name=name, create=True, size=size)
            else:
                try:
                    self._shm = _open_posix_untracked(name)
                except (FileNotFoundError, OSError) as exc:
                    raise SharedMemoryError(f"segment {name!r} does not exist") from exc
            self._buffer = self._shm.buf
            # A posix segment knows its own size; attaches may omit it (the
            # kernel may also round the creator's size up to a page boundary).
            self.size = int(size) if size is not None else self._shm.size
        else:
            with _REGISTRY_LOCK:
                if create:
                    if name in _INPROC_REGISTRY:
                        raise SharedMemoryError(f"segment {name!r} already exists")
                    _INPROC_REGISTRY[name] = bytearray(size)
                else:
                    if name not in _INPROC_REGISTRY:
                        raise SharedMemoryError(f"segment {name!r} does not exist")
                self._buffer = memoryview(_INPROC_REGISTRY[name])
                self.size = int(size) if size is not None else len(self._buffer)

    # -- access ---------------------------------------------------------------
    @property
    def buffer(self) -> memoryview:
        if self._closed:
            raise SharedMemoryError(f"segment {self.name!r} is closed")
        return memoryview(self._buffer)

    def ndarray(self, shape: Tuple[int, ...], dtype: DTypeLike, offset: int = 0) -> np.ndarray:
        """A numpy view of part of the segment (no copy)."""
        dt = as_dtype(dtype)
        count = math.prod(shape)  # exact: a hostile shape must not wrap to a small count
        nbytes = count * dt.itemsize
        if offset < 0 or offset + nbytes > self.size:
            raise SharedMemoryError(
                f"view of {nbytes} bytes at offset {offset} exceeds segment size {self.size}"
            )
        flat = np.frombuffer(self.buffer, dtype=dt.numpy_dtype, count=count, offset=offset)
        return flat.reshape(shape)

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Detach this handle from the segment (does not free the memory).

        May raise :class:`BufferError` on the posix backend while numpy views
        of the segment are still alive; the handle stays open in that case.
        """
        if self._closed:
            return
        if self.backend == "posix" and self._shm is not None:
            self._shm.close()
        self._closed = True

    def unlink(self) -> None:
        """Free the underlying memory.  Only the creator should call this."""
        if self.backend == "posix":
            if self._shm is not None:
                try:
                    self._shm.close()
                except Exception:
                    pass
                try:
                    self._shm.unlink()
                except FileNotFoundError:
                    pass
        else:
            with _REGISTRY_LOCK:
                _INPROC_REGISTRY.pop(self.name, None)
        self._closed = True

    def __repr__(self) -> str:
        return f"SharedSegment(name={self.name!r}, size={self.size}, backend={self.backend!r})"


def _write_slab_header(segment: SharedSegment) -> None:
    """Stamp the segment's current generation into its in-band slab header."""
    _SLAB_HEADER.pack_into(
        segment.buffer, 0, _SLAB_MAGIC, _SLAB_VERSION, 0, segment.generation
    )


def _read_slab_generation(segment: SharedSegment) -> Optional[int]:
    """The generation recorded in a segment's slab header, or ``None``.

    Reading the mapped bytes (rather than pool-local state) is what lets an
    attach-by-name consumer in another OS process validate a handle against
    the producer's latest recycle.
    """
    try:
        magic, _version, _flags, generation = _SLAB_HEADER.unpack_from(segment.buffer, 0)
    except (struct.error, SharedMemoryError):
        return None
    if magic != _SLAB_MAGIC:
        return None
    return generation


@dataclass
class _SegmentRecord:
    segment: SharedSegment
    refcount: int
    #: Logical data bytes charged to the accounting buckets and tenant
    #: quotas — the tensor bytes the caller asked for, not the (larger)
    #: aligned slab capacity the segment actually reserved.
    nbytes: int
    #: Allocator generation of this incarnation of the segment's name.
    generation: int = 0
    #: Holds taken by an epoch cache (see :mod:`repro.cache`).  A segment with
    #: at least one cache hold is accounted under ``cached_bytes`` instead of
    #: ``bytes_in_flight``; the two buckets always sum to the live total.
    cache_holds: int = 0
    metadata: dict = field(default_factory=dict)


class SharedMemoryPool:
    """Allocates tensors in shared segments and reference-counts their lifetime.

    The pool implements the producer-side bookkeeping from Figure 4: ``store``
    a batch (step 2), hand a reference per consumer, and ``release`` when every
    consumer has acknowledged (step 6).  ``bytes_in_flight`` and
    ``peak_bytes`` give the memory-overhead numbers reported in Tables 3 and 4.

    Allocation is slab-based: freed segments return to their owner's free
    list and are recycled (same name, bumped generation) by the owner's later
    allocations, so the steady-state epoch loop creates no new segments.  See
    the module docstring for the layout, the ABA protection and the one slab
    size per owner.

    Thread-safety: every mutation and every accounting read takes the pool
    lock, so one thread may ``share_batch``/``allocate_tensor`` concurrently
    with another calling ``retain``/``release`` on *other* segments (a live name maps to exactly one record, so the two never
    contend on one record).  Check-then-act sequences over the same segment
    still race between lock acquisitions; use :meth:`release_if_present`
    instead of ``contains()`` + ``release()``, and only ever release a hold
    the caller owns — the ack ledger's per-hold discipline is what guarantees
    a name seen by ``release_if_present`` has not been recycled underneath it
    (a recycle requires the refcount to reach zero first).  The lock is never
    held while tensor bytes are copied.
    """

    def __init__(self, backend: str = "inproc", *, attach_by_name: bool = False) -> None:
        self._backend = backend
        self._lock = threading.Lock()
        self._records: Dict[str, _SegmentRecord] = {}  #: guarded by _lock
        self._bytes_in_flight = 0  #: guarded by _lock
        self._cached_bytes = 0  #: guarded by _lock
        self._peak_bytes = 0  #: guarded by _lock
        self._total_allocated = 0  #: guarded by _lock
        self._total_released = 0  #: guarded by _lock
        # Per owner (tenant, or None): its slab size, which only grows, and
        # its free slabs, warmest last.  An owner without a slab size is
        # gone.  ``_free_bytes`` counts free slabs' capacity plus headers.
        self._slab_sizes: Dict[Optional[str], int] = {}  #: guarded by _lock
        self._free: Dict[Optional[str], List[SharedSegment]] = {}  #: guarded by _lock
        self._free_bytes = 0  #: guarded by _lock
        self._reuse_hits = 0  #: guarded by _lock
        self._reuse_misses = 0  #: guarded by _lock
        self._segments_created = 0  #: guarded by _lock
        self._attach_cache_hits = 0  #: guarded by _lock
        self._attach_opens = 0  #: guarded by _lock
        # Consumer-side cross-process mode: segments this pool never allocated
        # can be opened by name (posix shared memory reached from another OS
        # process).  Opened handles are cached and trimmed once the training
        # loop has moved past them; the creator still owns unlinking.
        self._attach_by_name = attach_by_name
        self._attached: "OrderedDict[str, SharedSegment]" = OrderedDict()  #: guarded by _lock
        # Multi-tenant accounting (the broker's per-dataset quotas): segments
        # allocated through a tenant view are tagged with the tenant name and
        # counted against its quota until freed.  A tenant without a quota
        # entry is unlimited; its usage is still tracked.  Free slabs are
        # charged to no quota: quotas bound *live* logical bytes.
        self._tenant_quotas: Dict[str, Optional[int]] = {}  #: guarded by _lock
        self._tenant_bytes: Dict[str, int] = {}  #: guarded by _lock
        # Accounting surfaces as process-wide gauges, summed over live pools.
        # The gauge holds this pool through a weakref, so metrics never extend
        # a pool's lifetime (TenantPool views delegate here — no double count).
        gauge("repro.pool.bytes_in_flight").attach(self, lambda p: p.bytes_in_flight)
        gauge("repro.pool.cached_bytes").attach(self, lambda p: p.cached_bytes)
        gauge("repro.pool.peak_bytes").attach(self, lambda p: p.peak_bytes)
        gauge("repro.pool.live_segments").attach(self, lambda p: p.live_segments)
        gauge("repro.pool.free_bytes").attach(self, lambda p: p.free_bytes)

    # -- slab machinery ----------------------------------------------------------
    def _check_quota_locked(self, tenant: str, nbytes: int) -> None:
        quota = self._tenant_quotas.get(tenant)
        used = self._tenant_bytes.get(tenant, 0)
        if quota is not None and used + nbytes > quota:
            raise QuotaExceededError(
                f"tenant {tenant!r} shared-memory quota exceeded: "
                f"{used} + {nbytes} bytes > quota {quota}"
            )

    def _unlink_free_locked(self, owner: Optional[str]) -> None:
        """Unlink every free slab ``owner`` holds."""
        for segment in self._free.pop(owner, ()):
            self._free_bytes -= segment.size
            segment.unlink()

    def _pool_segment_locked(self, segment: SharedSegment, owner: Optional[str]) -> None:
        """Park a dead segment on its owner's free list, or unlink it when
        the owner is gone or its slab size has outgrown the segment."""
        slab_size = self._slab_sizes.get(owner)
        if slab_size is None or segment.size - _SLAB_HEADER_SIZE < slab_size:
            segment.unlink()
            return
        self._free.setdefault(owner, []).append(segment)
        self._free_bytes += segment.size

    def _acquire_segment(self, data_nbytes: int, owner: Optional[str]) -> Tuple[SharedSegment, int]:
        """A segment of ``owner``'s slab size, raised to fit ``data_nbytes``.

        Recycles the owner's warmest free slab when it has one (bumping the
        generation and restamping the slab header); creates a fresh segment
        otherwise.  Returns ``(segment, generation)``; the caller owns the
        segment exclusively until it commits a record for it.
        """
        needed = _align_up(data_nbytes, _SLAB_ALIGN)
        with self._lock:
            slab_size = self._slab_sizes.get(owner, 0)
            if needed > slab_size:
                self._slab_sizes[owner] = slab_size = needed
                self._unlink_free_locked(owner)
            free = self._free.get(owner)
            segment = free.pop() if free else None
            if segment is not None:
                self._free_bytes -= segment.size
                self._reuse_hits += 1
        if segment is not None:
            segment.generation += 1
            _write_slab_header(segment)
            _REUSE_HITS.inc()
            return segment, segment.generation
        size = _SLAB_HEADER_SIZE + slab_size
        segment = SharedSegment(_new_segment_name(), size, create=True, backend=self._backend)
        segment.generation = 1
        _write_slab_header(segment)
        with self._lock:
            self._reuse_misses += 1
            self._segments_created += 1
        _REUSE_MISSES.inc()
        _MMAP_TOTAL.inc()
        return segment, 1

    def _commit_segment(
        self,
        segment: SharedSegment,
        generation: int,
        nbytes: int,
        initial_refcount: int,
        tenant: Optional[str],
    ) -> None:
        """Register an acquired segment as a live record (with quota re-check)."""
        with self._lock:
            if tenant is not None:
                # Re-check under the same lock that commits the record: two
                # tenant allocations racing past the pre-check must not
                # overshoot the quota together.  The rejected segment goes
                # straight back to the tenant's free list.
                try:
                    self._check_quota_locked(tenant, nbytes)
                except QuotaExceededError:
                    self._pool_segment_locked(segment, tenant)
                    raise
                self._tenant_bytes[tenant] = self._tenant_bytes.get(tenant, 0) + nbytes
            record = _SegmentRecord(
                segment, int(initial_refcount), nbytes, generation=generation
            )
            if tenant is not None:
                record.metadata["tenant"] = tenant
            self._records[segment.name] = record
            self._bytes_in_flight += nbytes
            self._total_allocated += nbytes
            self._note_peak_locked()

    # -- allocation -------------------------------------------------------------
    def _stage(
        self,
        specs: Sequence[Tuple[str, Tuple[int, ...], DTypeLike, DeviceLike]],
        fill: Optional[Callable[[Dict[str, np.ndarray]], None]],
        initial_refcount: int,
        tenant: Optional[str],
    ) -> Dict[str, Tensor]:
        """Lay ``(key, shape, dtype, device)`` specs out in one segment and fill it.

        The one allocation routine: the slab header, then each tensor at the
        next 64-byte-aligned offset of a single (possibly recycled) segment.
        ``fill`` receives the tensors' writable arrays, keyed like the specs,
        and is the only thing that writes payload bytes; ``None`` leaves them
        uninitialized.  The segment becomes a live record only after the fill
        returned — if it raises, the segment goes straight back to the free
        list and the books never see it.  A tenant's quota is checked
        *before* a segment is acquired, so a rejected allocation never
        touches ``/dev/shm``.
        """
        if not specs:
            raise SharedMemoryError("cannot share an empty batch")
        placed = []
        cursor = _SLAB_HEADER_SIZE
        logical = 0
        for key, shape, dtype, device in specs:
            dt = as_dtype(dtype)
            shape = tuple(shape)
            cursor = _align_up(cursor, _SLAB_ALIGN)
            placed.append((key, shape, dt, device, cursor))
            nbytes = max(math.prod(shape) * dt.itemsize, 1)
            cursor += nbytes
            logical += nbytes
        if tenant is not None:
            with self._lock:
                self._check_quota_locked(tenant, logical)
        segment, generation = self._acquire_segment(cursor - _SLAB_HEADER_SIZE, tenant)
        try:
            shared = {
                key: Tensor(
                    segment.ndarray(shape, dt, offset=offset),
                    device,
                    segment=segment,
                    segment_offset=offset,
                )
                for key, shape, dt, device, offset in placed
            }
            if fill is not None:
                fill({key: tensor.numpy() for key, tensor in shared.items()})
        except BaseException:
            with self._lock:
                self._pool_segment_locked(segment, tenant)
            raise
        self._commit_segment(segment, generation, logical, initial_refcount, tenant)
        return shared

    def allocate_tensor(
        self,
        shape: Tuple[int, ...],
        dtype: DTypeLike = "float32",
        device: DeviceLike = "cpu",
        *,
        initial_refcount: int = 1,
        tenant: Optional[str] = None,
    ) -> Tensor:
        """Allocate an uninitialized tensor inside a (possibly recycled) segment.

        The tensor's data starts right after the slab header
        (``segment_offset == 64``).  ``tenant`` charges the tensor's logical
        bytes to a named tenant's account (see :meth:`set_tenant_quota` /
        :class:`TenantPool`).
        """
        return self._stage([("", shape, dtype, device)], None, initial_refcount, tenant)[""]

    def _note_peak_locked(self) -> None:
        """Peak tracks *total* live bytes — in-flight plus cache-pinned — so
        memory sizing from ``peak_bytes`` stays honest when a cache retains
        whole epochs."""
        self._peak_bytes = max(self._peak_bytes, self._bytes_in_flight + self._cached_bytes)

    def share_tensor(
        self, tensor: Tensor, *, initial_refcount: int = 1, tenant: Optional[str] = None
    ) -> Tensor:
        """Copy an ordinary tensor into the pool so it can be handed off zero-copy."""
        return self.share_batch({"": tensor}, initial_refcount=initial_refcount, tenant=tenant)[""]

    def share_batch(
        self,
        batch: Mapping[str, Tensor],
        *,
        device: Optional[DeviceLike] = None,
        initial_refcount: int = 1,
        tenant: Optional[str] = None,
    ) -> Dict[str, Tensor]:
        """Copy every tensor of one batch into a *single* shared segment.

        The returned tensors are views into the one segment (layout: see
        :meth:`fill_batch`, of which this is the "copy these tensors" fill),
        so packing them (``BatchPayload.pack``) yields exactly one segment
        name per batch — one producer hold, one retain per consumer, and one
        cross-process attach per delivery instead of one per tensor.
        ``device`` tags the shared tensors with a device of the caller's
        choosing (one copy, not ``tensor.to(device)`` and then a second);
        by default each keeps its source's device.
        """

        def copy(out: Dict[str, np.ndarray]) -> None:
            for key, tensor in batch.items():
                np.copyto(out[key], tensor.numpy())

        specs = [
            (key, tensor.shape, tensor.dtype, tensor.device if device is None else device)
            for key, tensor in batch.items()
        ]
        return self._stage(specs, copy, initial_refcount, tenant)

    def fill_batch(
        self,
        layout: Mapping[str, Tuple[Tuple[int, ...], DTypeLike]],
        fill: Callable[[Dict[str, np.ndarray]], None],
        *,
        device: DeviceLike = "cpu",
        initial_refcount: int = 1,
        tenant: Optional[str] = None,
    ) -> Dict[str, Tensor]:
        """Reserve one segment for a batch of known layout and let ``fill`` write it.

        ``layout`` maps each key to the ``(shape, dtype)`` of its tensor;
        ``fill`` is handed the reserved arrays under the same keys and writes
        the batch straight into shared memory — the producer collates loader
        items here, so a payload byte is copied once between ``__getitem__``
        and the trainer.  Layout: the slab header, then each tensor at the
        next 64-byte-aligned offset.  Accounting charges the batch's logical
        tensor bytes (the refcounted record and any tenant quota); the slab's
        alignment padding only shows up in ``free_bytes`` once the segment
        is freed.  If ``fill`` raises, the reserved segment returns to the
        free list uncharged and the exception propagates.
        """
        specs = [(key, shape, dtype, device) for key, (shape, dtype) in layout.items()]
        return self._stage(specs, fill, initial_refcount, tenant)

    # -- refcounting -------------------------------------------------------------
    def _record_for_locked(self, name: str) -> _SegmentRecord:
        try:
            return self._records[name]
        except KeyError as exc:
            raise SharedMemoryError(f"unknown segment {name!r}") from exc

    def retain(self, name: str, count: int = 1) -> int:
        """Add ``count`` holds on a segment; returns the new refcount."""
        if count <= 0:
            raise ValueError("retain count must be positive")
        with self._lock:
            record = self._record_for_locked(name)
            record.refcount += count
            return record.refcount

    def release(self, name: str, count: int = 1) -> int:
        """Drop ``count`` holds; recycles the segment when the count reaches zero."""
        if count <= 0:
            raise ValueError("release count must be positive")
        with self._lock:
            record = self._records.get(name)
            if record is None:
                raise SharedMemoryError(f"unknown segment {name!r}")
            return self._release_locked(name, record, count)

    def release_if_present(self, name: str, count: int = 1) -> Optional[int]:
        """Atomic ``contains`` + ``release``: drop holds only if the segment is live.

        Returns the remaining refcount, or ``None`` when the segment is not
        (or no longer) registered.  This is the form concurrent code must
        use: a separate ``contains()`` check followed by ``release()`` races
        with other releasers between the two lock acquisitions.  The caller
        must own the holds it drops — the segment then cannot have been
        recycled under the same name, because recycling requires all holds
        (including the caller's) to be gone first.
        """
        if count <= 0:
            raise ValueError("release count must be positive")
        with self._lock:
            record = self._records.get(name)
            if record is None:
                return None
            return self._release_locked(name, record, count)

    def _release_locked(self, name: str, record: _SegmentRecord, count: int) -> int:
        if count > record.refcount - record.cache_holds:
            raise SharedMemoryError(
                f"releasing {count} holds on {name!r} but only "
                f"{record.refcount - record.cache_holds} non-cache holds held "
                f"(use release_cached for cache holds)"
            )
        record.refcount -= count
        remaining = record.refcount
        if remaining == 0:
            # The guard above caps count at refcount - cache_holds, so a
            # plain release can only zero the refcount when cache_holds == 0:
            # the bytes are necessarily in the in-flight bucket.
            self._free_record_locked(name, record, cached=False)
        return remaining

    def _free_record_locked(self, name: str, record: _SegmentRecord, *, cached: bool) -> None:
        """Drop a dead record from the books and recycle its segment.

        ``cached`` names the bucket the segment's bytes are currently counted
        in (a segment sits in ``cached_bytes`` while it has cache holds,
        ``bytes_in_flight`` otherwise).  The segment goes to its owner's free
        list (its name will be reused at a bumped generation) or is unlinked;
        the tenant's charge ends here either way — free slabs are charged to
        no quota.
        """
        self._records.pop(name)
        if cached:
            self._cached_bytes -= record.nbytes
        else:
            self._bytes_in_flight -= record.nbytes
        tenant = record.metadata.get("tenant")
        if tenant is not None:
            remaining = self._tenant_bytes.get(tenant, 0) - record.nbytes
            self._tenant_bytes[tenant] = max(0, remaining)
        self._total_released += record.nbytes
        self._pool_segment_locked(record.segment, tenant)

    # -- cache holds -----------------------------------------------------------------
    def retain_cached(self, name: str, count: int = 1) -> int:
        """Add ``count`` *cache* holds on a segment; returns the new refcount.

        Cache holds keep a published batch's segments alive across epochs so
        repeat epochs can be republished without reloading (see
        :class:`repro.cache.BatchCache`).  They are accounted separately: a
        segment with at least one cache hold counts toward
        :attr:`cached_bytes` rather than :attr:`bytes_in_flight`, so the
        in-flight figure keeps meaning "staged batches consumers have not yet
        acknowledged" even while a cache pins whole epochs.  A cache hold
        also pins the segment's *generation*: recycling (and the generation
        bump that would invalidate the cached payload's handles) can only
        happen once the refcount — cache holds included — reaches zero.
        """
        if count <= 0:
            raise ValueError("retain count must be positive")
        with self._lock:
            record = self._record_for_locked(name)
            if record.cache_holds == 0:
                self._bytes_in_flight -= record.nbytes
                self._cached_bytes += record.nbytes
            record.cache_holds += count
            record.refcount += count
            return record.refcount

    def release_cached(self, name: str, count: int = 1) -> Optional[int]:
        """Drop ``count`` cache holds (atomic; no-op when the segment is gone).

        When the last cache hold goes and other holds remain (consumers still
        reading a republished batch), the segment's bytes move back to
        ``bytes_in_flight``; when no holds remain at all the segment is
        recycled.  Returns the remaining refcount, or ``None`` when the
        segment was not registered.
        """
        if count <= 0:
            raise ValueError("release count must be positive")
        with self._lock:
            record = self._records.get(name)
            if record is None:
                return None
            if count > record.cache_holds:
                raise SharedMemoryError(
                    f"releasing {count} cache holds on {name!r} but only "
                    f"{record.cache_holds} held"
                )
            record.cache_holds -= count
            record.refcount -= count
            if record.refcount == 0:
                # The segment had cache holds until this call, so its bytes
                # are still counted in the cached bucket.
                self._free_record_locked(name, record, cached=True)
                return 0
            if record.cache_holds == 0:
                # Bucket move only; the total is unchanged, so no peak note.
                self._cached_bytes -= record.nbytes
                self._bytes_in_flight += record.nbytes
            return record.refcount

    def cache_holds(self, name: str) -> int:
        with self._lock:
            record = self._records.get(name)
            return record.cache_holds if record is not None else 0

    def refcount(self, name: str) -> int:
        with self._lock:
            return self._record_for_locked(name).refcount

    def generation(self, name: str) -> Optional[int]:
        """Current generation of a live segment (``None`` when not live)."""
        with self._lock:
            record = self._records.get(name)
            return record.generation if record is not None else None

    def contains(self, name: str) -> bool:
        with self._lock:
            if name in self._records:
                return True
            if self._attach_by_name:
                return self._open_attached_locked(name) is not None
            return False

    # -- cross-process attach ------------------------------------------------------
    def _open_attached_locked(self, name: str) -> Optional[SharedSegment]:
        """Open (or fetch the cached handle of) a segment another process created.

        A cache hit on a recycled name costs no syscall at all — the mapping
        is shared memory, so the producer's header restamp (new generation,
        new batch bytes) is already visible through it.
        """
        segment = self._attached.get(name)
        if segment is not None:
            self._attach_cache_hits += 1
            self._attached.move_to_end(name)
            return segment
        try:
            segment = SharedSegment(name, create=False, backend=self._backend)
        except SharedMemoryError:
            return None
        self._attach_opens += 1
        _MMAP_TOTAL.inc()
        self._attached[name] = segment
        self._trim_attached_locked()
        return segment

    def _trim_attached_locked(self) -> None:
        """Close the oldest cached attach handles once the cache overflows.

        A handle whose tensor views are still alive cannot be closed
        (BufferError); it is *skipped* — kept at its place in the cache and
        retried on a later trim — and trimming continues with the next-oldest
        candidate, so one pinned view cannot let the cache grow without
        bound past ``_ATTACH_CACHE_LIMIT``.
        """
        excess = len(self._attached) - _ATTACH_CACHE_LIMIT
        if excess <= 0:
            return
        for name in list(self._attached):
            if excess <= 0:
                break
            try:
                self._attached[name].close()
            except (BufferError, ValueError):
                continue  # still viewed; try the next-oldest instead
            del self._attached[name]
            excess -= 1

    def close_attached(self) -> None:
        """Close every cached attach handle that is no longer viewed."""
        with self._lock:
            for name in list(self._attached):
                try:
                    self._attached[name].close()
                except (BufferError, ValueError):
                    continue
                del self._attached[name]

    def attach(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype: DTypeLike,
        device: DeviceLike = "cpu",
        offset: int = 0,
        *,
        generation: Optional[int] = None,
    ) -> Tensor:
        """Rebuild a tensor view over an existing segment (consumer side).

        ``generation`` (from a payload handle) guards against the slab
        allocator's name reuse: if the segment was recycled since the handle
        was packed, the attach raises
        :class:`~repro.tensor.errors.StaleHandleError` instead of silently
        aliasing the new occupant's bytes.  Producer-side records are checked
        against the pool's books; by-name attaches from another process are
        checked against the segment's in-band slab header.
        """
        with self._lock:
            record = self._records.get(name)
            if record is not None:
                segment = record.segment
                if generation is not None and record.generation != generation:
                    raise StaleHandleError(
                        f"stale handle for segment {name!r}: packed at generation "
                        f"{generation}, segment was recycled and is now generation "
                        f"{record.generation}"
                    )
            elif self._attach_by_name:
                segment = self._open_attached_locked(name)
                if segment is None:
                    raise SharedMemoryError(f"unknown segment {name!r}")
                if generation is not None:
                    current = _read_slab_generation(segment)
                    if current is None:
                        raise SharedMemoryError(
                            f"segment {name!r} carries no slab header; cannot "
                            f"validate handle generation {generation}"
                        )
                    if current != generation:
                        raise StaleHandleError(
                            f"stale handle for segment {name!r}: packed at generation "
                            f"{generation}, segment was recycled and is now generation "
                            f"{current}"
                        )
            else:
                raise SharedMemoryError(f"unknown segment {name!r}")
        array = segment.ndarray(tuple(shape), as_dtype(dtype), offset=offset)
        return Tensor(array, device, segment=segment, segment_offset=offset)

    # -- accounting ----------------------------------------------------------------
    @property
    def bytes_in_flight(self) -> int:
        with self._lock:
            return self._bytes_in_flight

    @property
    def cached_bytes(self) -> int:
        """Bytes pinned by epoch-cache holds (disjoint from ``bytes_in_flight``)."""
        with self._lock:
            return self._cached_bytes

    @property
    def peak_bytes(self) -> int:
        """High-water mark of total live bytes (in-flight + cache-pinned)."""
        with self._lock:
            return self._peak_bytes

    @property
    def free_bytes(self) -> int:
        """Real memory retained in free slabs (capacity + headers)."""
        with self._lock:
            return self._free_bytes

    @property
    def free_segments(self) -> int:
        with self._lock:
            return sum(len(free) for free in self._free.values())

    @property
    def segment_reuse_hits(self) -> int:
        """Allocations served by recycling a free slab."""
        with self._lock:
            return self._reuse_hits

    @property
    def segment_reuse_misses(self) -> int:
        """Allocations that had to create a fresh segment."""
        with self._lock:
            return self._reuse_misses

    @property
    def segments_created(self) -> int:
        """Total segments this pool ever created (``shm_open`` + ``mmap``)."""
        with self._lock:
            return self._segments_created

    @property
    def attach_cache_hits(self) -> int:
        """By-name lookups served from the attach cache (no syscall)."""
        with self._lock:
            return self._attach_cache_hits

    @property
    def attach_opens(self) -> int:
        """By-name attaches that had to open + map a segment."""
        with self._lock:
            return self._attach_opens

    @property
    def mmap_total(self) -> int:
        """Mapping operations performed: segment creations + attach opens."""
        with self._lock:
            return self._segments_created + self._attach_opens

    @property
    def total_allocated_bytes(self) -> int:
        with self._lock:
            return self._total_allocated

    @property
    def live_segments(self) -> int:
        with self._lock:
            return len(self._records)

    # -- tenants -------------------------------------------------------------------
    def set_tenant_quota(self, tenant: str, quota_bytes: Optional[int]) -> None:
        """Register (or resize) a tenant's byte quota; ``None`` is unlimited."""
        if quota_bytes is not None and quota_bytes <= 0:
            raise ValueError("quota_bytes must be positive when given")
        with self._lock:
            self._tenant_quotas[tenant] = quota_bytes
            self._tenant_bytes.setdefault(tenant, 0)

    def _retire_owner(self, owner: Optional[str]) -> None:
        """Unlink ``owner``'s free slabs and forget its slab size, so the
        segments it still has live are unlinked as they free."""
        with self._lock:
            self._slab_sizes.pop(owner, None)
            self._unlink_free_locked(owner)

    def drop_tenant(self, tenant: str) -> int:
        """Forget a tenant; returns the bytes it still held.

        The tenant's free slabs are unlinked with its quota entry.  Live
        segments stay tagged and keep decrementing the (now orphaned) usage
        counter as they free, then unlink, so a non-zero return flags an
        eviction that ran before the tenant's session finished draining.
        """
        self._retire_owner(tenant)
        with self._lock:
            self._tenant_quotas.pop(tenant, None)
            return self._tenant_bytes.pop(tenant, 0)

    def tenant_bytes(self, tenant: str) -> int:
        """Live bytes currently charged to ``tenant`` (in-flight + cached).

        Free slabs are never charged here: a segment's tenant charge ends
        the moment its last hold is released, even while the tenant keeps
        the slab warm for its next allocation.
        """
        with self._lock:
            return self._tenant_bytes.get(tenant, 0)

    def tenant_quota(self, tenant: str) -> Optional[int]:
        with self._lock:
            return self._tenant_quotas.get(tenant)

    def tenant_view(self, tenant: str, quota_bytes: Optional[int] = None) -> "TenantPool":
        """A quota-scoped view of this pool charging allocations to ``tenant``."""
        self.set_tenant_quota(tenant, quota_bytes)
        return TenantPool(self, tenant)

    def shutdown(self) -> None:
        """Free every live segment regardless of refcount and every free slab
        (end-of-run cleanup); ``free_bytes`` drains to zero here too."""
        with self._lock:
            for record in self._records.values():
                record.segment.unlink()
            self._records.clear()
            self._bytes_in_flight = 0
            self._cached_bytes = 0
            for owner in list(self._free):
                self._unlink_free_locked(owner)
            self._slab_sizes.clear()
            for segment in self._attached.values():
                try:
                    segment.close()
                except (BufferError, ValueError):
                    pass
            self._attached.clear()
            for tenant in self._tenant_bytes:
                self._tenant_bytes[tenant] = 0

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SharedMemoryPool(backend={self._backend!r}, "
                f"live={len(self._records)}, "
                f"in_flight={self._bytes_in_flight}B, "
                f"cached={self._cached_bytes}B, peak={self._peak_bytes}B, "
                f"free={self._free_bytes}B)"
            )


class TenantPool:
    """One tenant's quota-scoped view of a shared :class:`SharedMemoryPool`.

    The broker hands each mounted dataset's producers a ``TenantPool`` instead
    of the shared pool itself: allocations (the only operations that consume
    memory) are charged to the tenant and rejected with
    :class:`~repro.tensor.errors.QuotaExceededError` past its quota, while
    every other operation — refcounting, cache holds, attach, accounting
    reads — passes straight through to the shared pool, so payloads staged by
    one tenant stay reachable to every consumer of the same transport.  A
    segment freed by the tenant is uncharged from it immediately and parks
    on the tenant's own free list: no other tenant is ever handed it.

    ``shutdown()`` unlinks the tenant's free slabs, and the segments it
    still has live as they free, but leaves the shared pool and the
    tenant's quota alone: the pool outlives any one tenant, and a tenant's
    live bytes drain through ordinary releases when its session shuts down
    (the broker asserts they reach zero).
    """

    def __init__(self, pool: SharedMemoryPool, tenant: str) -> None:
        self._pool = pool
        self.tenant = tenant

    def allocate_tensor(
        self,
        shape: Tuple[int, ...],
        dtype: DTypeLike = "float32",
        device: DeviceLike = "cpu",
        *,
        initial_refcount: int = 1,
    ) -> Tensor:
        return self._pool.allocate_tensor(
            shape,
            dtype,
            device,
            initial_refcount=initial_refcount,
            tenant=self.tenant,
        )

    def share_tensor(self, tensor: Tensor, *, initial_refcount: int = 1) -> Tensor:
        return self._pool.share_tensor(
            tensor, initial_refcount=initial_refcount, tenant=self.tenant
        )

    def share_batch(
        self,
        batch: Mapping[str, Tensor],
        *,
        device: Optional[DeviceLike] = None,
        initial_refcount: int = 1,
    ) -> Dict[str, Tensor]:
        return self._pool.share_batch(
            batch, device=device, initial_refcount=initial_refcount, tenant=self.tenant
        )

    def fill_batch(
        self,
        layout: Mapping[str, Tuple[Tuple[int, ...], DTypeLike]],
        fill: Callable[[Dict[str, np.ndarray]], None],
        *,
        device: DeviceLike = "cpu",
        initial_refcount: int = 1,
    ) -> Dict[str, Tensor]:
        return self._pool.fill_batch(
            layout, fill, device=device, initial_refcount=initial_refcount, tenant=self.tenant
        )

    @property
    def bytes_used(self) -> int:
        """Live bytes charged to this tenant."""
        return self._pool.tenant_bytes(self.tenant)

    @property
    def quota_bytes(self) -> Optional[int]:
        return self._pool.tenant_quota(self.tenant)

    def shutdown(self) -> None:
        """Unlink this tenant's free slabs; the shared pool lives on."""
        self._pool._retire_owner(self.tenant)

    def __getattr__(self, name: str):
        # Everything not overridden (retain/release/cache holds/attach/
        # accounting properties) acts on the shared pool.
        return getattr(self._pool, name)

    def __repr__(self) -> str:
        quota = self.quota_bytes
        return (
            f"TenantPool(tenant={self.tenant!r}, used={self.bytes_used}B, "
            f"quota={'unlimited' if quota is None else f'{quota}B'})"
        )
