"""A minimal, numpy-backed tensor with device placement and zero-copy views.

The TensorSocket design depends on a handful of tensor properties that we need
to reproduce faithfully without PyTorch:

* tensors own (or view) a contiguous buffer that can be addressed by a handle,
* slicing a tensor produces a *view* over the same buffer (used for flexible
  batch sizing, Section 3.2.6 of the paper),
* tensors can be moved between devices, and that movement is what generates
  PCIe / NVLink traffic,
* a tensor can be rebuilt from (buffer handle, offset, shape, dtype, device)
  without copying the bytes (used by :class:`~repro.tensor.payload.TensorPayload`).

This module implements exactly that and nothing more.  Numerical operators are
limited to the ones the data pipeline and tests use.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.device import Device, DeviceLike, as_device, cpu
from repro.tensor.dtype import DType, DTypeLike, as_dtype
from repro.tensor.errors import DeviceMismatchError, TensorError

ShapeLike = Union[int, Sequence[int]]


def _normalize_shape(shape: ShapeLike) -> Tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise ValueError(f"negative dimension in shape {shape}")
    return shape


class Tensor:
    """A contiguous, device-tagged, numpy-backed tensor.

    Parameters
    ----------
    array:
        The backing numpy array.  It is made C-contiguous on construction; a
        copy is taken only if the input is not already contiguous.
    device:
        Where the tensor notionally lives.  The bytes are always host memory in
        this reproduction; the device tag drives the hardware simulator's
        transfer accounting.
    segment:
        Optional :class:`~repro.tensor.shared_memory.SharedSegment` that owns
        the bytes.  Present when the tensor was allocated from a
        :class:`~repro.tensor.shared_memory.SharedMemoryPool`, enabling
        zero-copy hand-off between processes.
    segment_offset:
        Byte offset of this tensor's data inside ``segment``.
    """

    __slots__ = ("_array", "_device", "_segment", "_segment_offset", "_pinned")

    def __init__(
        self,
        array: np.ndarray,
        device: DeviceLike = "cpu",
        *,
        segment=None,
        segment_offset: int = 0,
        pinned: bool = False,
    ) -> None:
        if not isinstance(array, np.ndarray):
            raise TypeError(f"Tensor expects a numpy array, got {type(array)!r}")
        if not array.flags["C_CONTIGUOUS"]:
            array = np.ascontiguousarray(array)
        as_dtype(array.dtype)  # validate supported dtype
        self._array = array
        self._device = as_device(device)
        self._segment = segment
        self._segment_offset = int(segment_offset)
        self._pinned = bool(pinned)

    # -- basic metadata ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self._array.shape)

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def dtype(self) -> DType:
        return as_dtype(self._array.dtype)

    @property
    def device(self) -> Device:
        return self._device

    @property
    def is_cuda(self) -> bool:
        return self._device.is_cuda

    @property
    def is_pinned(self) -> bool:
        return self._pinned

    @property
    def segment(self):
        """The shared-memory segment backing this tensor, if any."""
        return self._segment

    @property
    def segment_offset(self) -> int:
        return self._segment_offset

    @property
    def is_shared(self) -> bool:
        """Whether the tensor's bytes live in a shared-memory segment."""
        return self._segment is not None

    def numel(self) -> int:
        return int(self._array.size)

    @property
    def nbytes(self) -> int:
        return int(self._array.nbytes)

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    # -- data access ---------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """Return the backing numpy array (no copy)."""
        return self._array

    def item(self):
        return self._array.item()

    def tolist(self):
        return self._array.tolist()

    def __getitem__(self, key) -> "Tensor":
        view = self._array[key]
        if np.isscalar(view) or view.ndim == 0:
            view = np.asarray(view)
        offset = self._segment_offset
        if isinstance(view, np.ndarray) and view.base is not None:
            # Compute the byte offset of the view inside the original buffer so
            # that a sliced tensor can still be described by a payload handle.
            offset += int(
                view.__array_interface__["data"][0]
                - self._array.__array_interface__["data"][0]
            )
        if not view.flags["C_CONTIGUOUS"]:
            # Non-contiguous views (e.g. strided fancy indexing) must be
            # materialized; they can no longer be described by a simple handle.
            view = np.ascontiguousarray(view)
            return Tensor(view, self._device)
        return Tensor(
            view,
            self._device,
            segment=self._segment,
            segment_offset=offset,
            pinned=self._pinned,
        )

    def slice_rows(self, start: int, stop: int) -> "Tensor":
        """A contiguous view of rows ``[start, stop)`` along dimension zero.

        This is the primitive used by flexible batch sizing: the producer batch
        is a large contiguous tensor and each consumer batch is a row-slice
        view of it, so no bytes move when a consumer batch is sliced out.
        """
        if self.ndim == 0:
            raise TensorError("cannot row-slice a 0-d tensor")
        n = self.shape[0]
        if not (0 <= start <= stop <= n):
            raise IndexError(
                f"row slice [{start}, {stop}) out of bounds for length {n}"
            )
        return self[start:stop]

    # -- movement ------------------------------------------------------------
    def to(self, device: DeviceLike) -> "Tensor":
        """Return a tensor on ``device``.

        Moving to the *same* device returns ``self``.  Moving across devices
        copies the bytes (mirroring a real host-to-device or device-to-device
        transfer); the hardware simulator charges the corresponding link.
        """
        target = as_device(device)
        if target == self._device:
            return self
        return Tensor(self._array.copy(), target, pinned=False)

    def cpu(self) -> "Tensor":
        return self.to(cpu())

    def cuda(self, index: int = 0) -> "Tensor":
        return self.to(Device("cuda", index))

    def pin_memory(self) -> "Tensor":
        """Mark the tensor as page-locked host memory (metadata only)."""
        if self._device.is_cuda:
            raise TensorError("only CPU tensors can be pinned")
        return Tensor(
            self._array,
            self._device,
            segment=self._segment,
            segment_offset=self._segment_offset,
            pinned=True,
        )

    # -- shape manipulation ----------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        view = self._array.reshape(shape)
        return Tensor(
            view,
            self._device,
            segment=self._segment,
            segment_offset=self._segment_offset,
            pinned=self._pinned,
        )

    def flatten(self) -> "Tensor":
        return self.reshape(self.numel())

    def clone(self) -> "Tensor":
        return Tensor(self._array.copy(), self._device)

    def astype(self, dtype: DTypeLike) -> "Tensor":
        target = as_dtype(dtype)
        return Tensor(self._array.astype(target.numpy_dtype), self._device)

    def contiguous(self) -> "Tensor":
        return self

    # -- arithmetic (the small subset transforms/tests need) ------------------
    def _coerce_other(self, other):
        if isinstance(other, Tensor):
            if other.device != self.device:
                raise DeviceMismatchError(
                    f"operands on different devices: {self.device} vs {other.device}"
                )
            return other._array
        return other

    def __add__(self, other) -> "Tensor":
        return Tensor(self._array + self._coerce_other(other), self._device)

    def __sub__(self, other) -> "Tensor":
        return Tensor(self._array - self._coerce_other(other), self._device)

    def __mul__(self, other) -> "Tensor":
        return Tensor(self._array * self._coerce_other(other), self._device)

    def __truediv__(self, other) -> "Tensor":
        return Tensor(self._array / self._coerce_other(other), self._device)

    __radd__ = __add__
    __rmul__ = __mul__

    def mean(self) -> float:
        return float(self._array.mean())

    def sum(self) -> float:
        return float(self._array.sum())

    def max(self) -> float:
        return float(self._array.max())

    def min(self) -> float:
        return float(self._array.min())

    # -- comparison helpers ----------------------------------------------------
    def equal(self, other: "Tensor") -> bool:
        """Exact equality of shape, dtype and contents (device ignored)."""
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.dtype == other.dtype
            and bool(np.array_equal(self._array, other._array))
        )

    def allclose(self, other: "Tensor", rtol: float = 1e-5, atol: float = 1e-8) -> bool:
        return bool(np.allclose(self._array, other._array, rtol=rtol, atol=atol))

    def shares_memory_with(self, other: "Tensor") -> bool:
        """Whether two tensors view overlapping bytes (zero-copy check)."""
        return bool(np.shares_memory(self._array, other._array))

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.shape}, dtype={self.dtype}, device={self.device}"
            f"{', shared' if self.is_shared else ''})"
        )


# -- constructors -------------------------------------------------------------

def from_numpy(array: np.ndarray, device: DeviceLike = "cpu") -> Tensor:
    """Wrap a numpy array as a :class:`Tensor` without copying."""
    return Tensor(array, device)


def empty(shape: ShapeLike, dtype: DTypeLike = "float32", device: DeviceLike = "cpu") -> Tensor:
    shape = _normalize_shape(shape)
    return Tensor(np.empty(shape, dtype=as_dtype(dtype).numpy_dtype), device)


def zeros(shape: ShapeLike, dtype: DTypeLike = "float32", device: DeviceLike = "cpu") -> Tensor:
    shape = _normalize_shape(shape)
    return Tensor(np.zeros(shape, dtype=as_dtype(dtype).numpy_dtype), device)


def full(
    shape: ShapeLike,
    fill_value,
    dtype: DTypeLike = "float32",
    device: DeviceLike = "cpu",
) -> Tensor:
    shape = _normalize_shape(shape)
    return Tensor(np.full(shape, fill_value, dtype=as_dtype(dtype).numpy_dtype), device)


def arange(n: int, dtype: DTypeLike = "int64", device: DeviceLike = "cpu") -> Tensor:
    return Tensor(np.arange(n, dtype=as_dtype(dtype).numpy_dtype), device)


def _check_same_device(tensors: Sequence[Tensor]) -> Device:
    devices = {t.device for t in tensors}
    if len(devices) > 1:
        raise DeviceMismatchError(f"tensors on multiple devices: {sorted(map(str, devices))}")
    return next(iter(devices))


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack tensors along a new leading dimension (the collate primitive)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot stack an empty sequence of tensors")
    device = _check_same_device(tensors)
    return Tensor(np.stack([t.numpy() for t in tensors]), device)


def cat(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    """Concatenate tensors along an existing dimension."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot concatenate an empty sequence of tensors")
    device = _check_same_device(tensors)
    return Tensor(np.concatenate([t.numpy() for t in tensors], axis=dim), device)
