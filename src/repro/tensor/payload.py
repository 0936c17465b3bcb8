"""Tensor handle packing and unpacking (the ``TensorPayload`` mechanism).

Section 3.2.4 of the paper: instead of sending batch bytes to each consumer,
the producer sends "small packets containing pointers to the data".  Each
packet describes where the bytes already live (shared segment name, byte
offset, shape, dtype, device) and the consumer rebuilds a tensor *view* over
those bytes without copying.

Two payload kinds are provided:

* ``TensorPayload.from_shared`` — the TensorSocket path: a handle onto a
  shared segment.  ``payload_nbytes`` is tiny (a few hundred bytes of
  metadata) regardless of how large the batch is.
* ``TensorPayload.inline`` — the copy-the-bytes path used by byte-copy
  baselines (e.g. Joader's NumPy-over-IPC delivery).  ``payload_nbytes``
  equals the tensor size, which is exactly the cost the paper's design avoids.

``BatchPayload`` groups the per-tensor payloads of one batch (e.g. images and
labels) together with bookkeeping the protocol needs: epoch, batch index,
and under flexible batching each consumer's row ranges of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.device import as_device
from repro.tensor.dtype import as_dtype
from repro.tensor.errors import PayloadError, SharedMemoryError, StaleHandleError
from repro.tensor.shared_memory import SharedMemoryPool
from repro.tensor.tensor import Tensor

#: Estimated wire size of one packed tensor handle, in bytes.  Used by the
#: hardware simulator to account for control-plane traffic (it is deliberately
#: pessimistic; real ZeroMQ messages are smaller).
HANDLE_WIRE_BYTES = 256


@dataclass(frozen=True)
class TensorPayload:
    """A packed description of one tensor.

    Exactly one of ``segment_name`` (shared handle) or ``inline_bytes``
    (byte copy) is set.  ``generation`` rides along with shared handles: the
    pool recycles segment names, and the generation lets ``unpack`` reject a
    handle whose segment was recycled after packing (the ABA hazard) instead
    of silently reading the new occupant's bytes.
    """

    shape: Tuple[int, ...]
    dtype: str
    device: str
    segment_name: Optional[str] = None
    segment_offset: int = 0
    inline_bytes: Optional[bytes] = None
    generation: Optional[int] = None

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def from_shared(tensor: Tensor) -> "TensorPayload":
        """Pack a shared-memory tensor into a pointer handle (zero-copy)."""
        if not tensor.is_shared:
            raise PayloadError(
                "tensor is not backed by a shared segment; use SharedMemoryPool."
                "share_tensor() first or pack it inline"
            )
        # Raw segments created outside a pool have generation 0 — no recycle
        # can ever happen to them, so the handle carries no generation and
        # unpack skips the check.
        generation = getattr(tensor.segment, "generation", 0)
        return TensorPayload(
            shape=tensor.shape,
            dtype=tensor.dtype.name,
            device=str(tensor.device),
            segment_name=tensor.segment.name,
            segment_offset=tensor.segment_offset,
            generation=generation if generation else None,
        )

    @staticmethod
    def inline(tensor: Tensor) -> "TensorPayload":
        """Pack a tensor by copying its bytes (the expensive path).

        The payload holds a zero-copy ``memoryview`` of the tensor's
        contiguous bytes — the copy is deferred to the framing layer (or to
        pickling, see ``__reduce__``), so an inline payload that never
        leaves the process never duplicates the tensor.
        """
        array = np.ascontiguousarray(tensor.numpy())
        return TensorPayload(
            shape=tensor.shape,
            dtype=tensor.dtype.name,
            device=str(tensor.device),
            inline_bytes=array.data.cast("B"),
        )

    def __reduce__(self):
        # memoryviews cannot be pickled; materialize the inline bytes only
        # when the payload actually leaves the process.
        inline = self.inline_bytes
        if inline is not None and not isinstance(inline, bytes):
            inline = bytes(inline)
        return (
            TensorPayload,
            (
                self.shape,
                self.dtype,
                self.device,
                self.segment_name,
                self.segment_offset,
                inline,
                self.generation,
            ),
        )

    @staticmethod
    def pack(tensor: Tensor) -> "TensorPayload":
        """Pack using the cheapest representation available for the tensor."""
        if tensor.is_shared:
            return TensorPayload.from_shared(tensor)
        return TensorPayload.inline(tensor)

    # -- properties --------------------------------------------------------------
    @property
    def is_shared(self) -> bool:
        return self.segment_name is not None

    @property
    def tensor_nbytes(self) -> int:
        """Size of the tensor the payload describes."""
        return math.prod(self.shape) * as_dtype(self.dtype).itemsize

    @property
    def payload_nbytes(self) -> int:
        """Bytes that actually travel on the wire for this payload."""
        if self.inline_bytes is not None:
            return len(self.inline_bytes) + HANDLE_WIRE_BYTES
        return HANDLE_WIRE_BYTES

    # -- unpacking ----------------------------------------------------------------
    def unpack(self, pool: Optional[SharedMemoryPool] = None) -> Tensor:
        """Rebuild the tensor this payload describes.

        Shared payloads need the ``pool`` that owns the segment; inline
        payloads are self-contained.
        """
        device = as_device(self.device)
        if self.inline_bytes is not None:
            array = np.frombuffer(self.inline_bytes, dtype=as_dtype(self.dtype).numpy_dtype)
            array = array.reshape(self.shape).copy()
            return Tensor(array, device)
        if pool is None:
            raise PayloadError("a SharedMemoryPool is required to unpack a shared payload")
        # attach() looks the segment up under the pool lock; a separate
        # contains() probe first would race with concurrent releases between
        # the two lock acquisitions.
        try:
            return pool.attach(
                self.segment_name,
                self.shape,
                self.dtype,
                device=device,
                offset=self.segment_offset,
                generation=self.generation,
            )
        except StaleHandleError as exc:
            raise PayloadError(
                f"segment {self.segment_name!r} was recycled after this payload was "
                f"packed (handle generation {self.generation}); the bytes it pointed "
                "at are gone"
            ) from exc
        except SharedMemoryError as exc:
            raise PayloadError(
                f"segment {self.segment_name!r} is not (or no longer) registered in the pool; "
                "it may have been released before this consumer acknowledged it"
            ) from exc

    def to_dict(self) -> dict:
        """A JSON-serializable description (inline bytes are hex-encoded)."""
        inline = self.inline_bytes
        return {
            "shape": list(self.shape),
            "dtype": self.dtype,
            "device": self.device,
            "segment_name": self.segment_name,
            "segment_offset": self.segment_offset,
            "inline_bytes": bytes(inline).hex() if inline is not None else None,
            "generation": self.generation,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "TensorPayload":
        inline = data.get("inline_bytes")
        return TensorPayload(
            shape=tuple(data["shape"]),
            dtype=data["dtype"],
            device=data["device"],
            segment_name=data.get("segment_name"),
            segment_offset=int(data.get("segment_offset", 0)),
            inline_bytes=bytes.fromhex(inline) if inline is not None else None,
            generation=data.get("generation"),
        )


@dataclass(frozen=True)
class BatchPayload:
    """The packed form of one training batch published by the producer.

    Attributes
    ----------
    batch_index:
        Index of this batch within the current epoch (producer numbering).
    epoch:
        Epoch number the batch belongs to.
    tensors:
        Named tensor payloads, e.g. ``{"inputs": ..., "targets": ...}``.
    slices:
        Under flexible batching, each sized consumer's batches of this
        producer batch: per consumer id, one tuple of ``(start, stop)`` row
        ranges per batch (two ranges when the batch wraps around).  ``None``
        otherwise; a consumer it does not name takes the whole batch.
    is_last_in_epoch:
        Marks the final batch of an epoch so consumers can roll their epoch
        counters without a separate control message.
    """

    batch_index: int
    epoch: int
    tensors: Mapping[str, TensorPayload]
    slices: Optional[Mapping[str, Sequence[Sequence[Tuple[int, int]]]]] = None
    is_last_in_epoch: bool = False
    metadata: Mapping[str, object] = field(default_factory=dict)

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def pack(
        batch: Mapping[str, Tensor],
        *,
        batch_index: int,
        epoch: int,
        is_last_in_epoch: bool = False,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> "BatchPayload":
        if not batch:
            raise PayloadError("cannot pack an empty batch")
        tensors = {name: TensorPayload.pack(t) for name, t in batch.items()}
        return BatchPayload(
            batch_index=batch_index,
            epoch=epoch,
            tensors=tensors,
            is_last_in_epoch=is_last_in_epoch,
            metadata=dict(metadata or {}),
        )

    # -- unpacking ----------------------------------------------------------------
    def unpack(self, pool: Optional[SharedMemoryPool] = None) -> Dict[str, Tensor]:
        """Rebuild every tensor in the batch."""
        return {name: payload.unpack(pool) for name, payload in self.tensors.items()}

    # -- sizes ----------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """Number of samples in the batch (leading dimension of any tensor)."""
        first = next(iter(self.tensors.values()))
        return first.shape[0] if first.shape else 0

    @property
    def tensor_nbytes(self) -> int:
        return sum(p.tensor_nbytes for p in self.tensors.values())

    @property
    def payload_nbytes(self) -> int:
        return sum(p.payload_nbytes for p in self.tensors.values()) + HANDLE_WIRE_BYTES

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Unique shared segments referenced by this batch (for refcounting).

        With single-segment batch packing (``SharedMemoryPool.share_batch``)
        every tensor of the batch lives in one segment, so this collapses to
        one name per batch.
        """
        names = []
        for payload in self.tensors.values():
            if payload.is_shared and payload.segment_name not in names:
                names.append(payload.segment_name)
        return tuple(names)

    @property
    def segment_handles(self) -> Tuple[Tuple[str, Optional[int]], ...]:
        """Unique ``(segment_name, generation)`` pairs referenced by this batch."""
        handles: Dict[str, Optional[int]] = {}
        for payload in self.tensors.values():
            if payload.is_shared and payload.segment_name not in handles:
                handles[payload.segment_name] = payload.generation
        return tuple(handles.items())

    def key(self) -> Tuple[int, int]:
        """A (epoch, batch_index) identity used for acknowledgements."""
        return (self.epoch, self.batch_index)
