"""Collation: turn a list of per-item dictionaries into one batch of tensors.

The producer's nested loader collates items exactly like PyTorch's default
collate function: numpy arrays and tensors stack along a new leading
dimension, numbers become 1-D tensors, and dictionaries collate key-wise.

:func:`default_collate` builds the batch in fresh heap arrays.
:func:`plan_collate` describes the same batch before it exists — the
``(shape, dtype)`` of every key, plus a fill that writes the items into
arrays someone else allocated, one copy call per column — which is how the
producer collates straight into a shared-memory slab instead of collating
and then copying.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.tensor import Tensor, from_numpy, stack

#: ``{key: (shape, numpy dtype)}`` of a collated batch.
Layout = Dict[str, Tuple[Tuple[int, ...], np.dtype]]
Fill = Callable[[Mapping[str, np.ndarray]], None]

_INT = np.dtype(np.int64)
_FLOAT = np.dtype(np.float32)


def default_collate(items: Sequence) -> Dict[str, Tensor]:
    """Collate a list of items into a mapping of batched tensors.

    Supported item shapes:

    * mapping of str → (Tensor | numpy array | int | float) — collated per key,
    * tuple ``(sample, label)`` — collated into ``{"inputs", "targets"}``.
    """
    return {key: _collate_values(values) for key, values in _columns(items).items()}


def plan_collate(items: Sequence) -> Tuple[Layout, Fill]:
    """``(layout, fill)``: what ``default_collate(items)`` returns, unbuilt.

    ``layout`` maps each key to the ``(shape, dtype)`` of its batched tensor
    and ``fill(arrays)`` writes the batch into caller-allocated, C-contiguous
    arrays of that layout — the bytes, shapes and dtypes equal
    ``default_collate(items)``'s.

    The layout is read off the first item, so it holds only when every item
    agrees with the first in kind, shape and dtype.  When one does not, what
    numpy makes of the mix (a promoted dtype, or an error) is
    ``default_collate``'s to decide: it runs here, raising what it raises,
    and the plan then copies its result.
    """
    columns = _columns(items)
    layout: Layout = {}
    for key, values in columns.items():
        spec = _column_spec(values)
        if spec is None:
            return _copy_plan({k: _collate_values(column) for k, column in columns.items()})
        layout[key] = ((len(values),) + spec[0], spec[1])

    def fill(out: Mapping[str, np.ndarray]) -> None:
        for key, values in columns.items():
            target = out[key]
            if isinstance(values[0], Tensor):
                values = [tensor.numpy() for tensor in values]
            if not isinstance(values[0], np.ndarray):
                target[...] = values
            elif target.ndim == 1:  # 0-d rows have no axis to be joined along
                np.stack(values, out=target)
            else:
                # _column_spec found the rows alike in shape and dtype, so the
                # column is one copy call: laid end to end along their first
                # axis, the rows fill exactly the bytes stacking them would.
                np.concatenate(values, axis=0, out=_batch_axis_folded(target))

    return layout, fill


def _batch_axis_folded(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` with its first two axes folded into one."""
    if not array.flags.c_contiguous:  # reshape would hand back a copy
        raise ValueError("collating into place needs C-contiguous arrays")
    return array.reshape((array.shape[0] * array.shape[1],) + array.shape[2:])


def _copy_plan(collated: Dict[str, Tensor]) -> Tuple[Layout, Fill]:
    def fill(out: Mapping[str, np.ndarray]) -> None:
        for key, tensor in collated.items():
            np.copyto(out[key], tensor.numpy())

    return {key: (t.shape, t.numpy().dtype) for key, t in collated.items()}, fill


def _columns(items: Sequence) -> Dict[str, List]:
    """The items' values regrouped per output key."""
    items = list(items)
    if not items:
        raise ValueError("cannot collate an empty batch")

    first = items[0]
    if isinstance(first, Mapping):
        return {key: [item[key] for item in items] for key in first}
    if isinstance(first, (tuple, list)) and len(first) == 2:
        return {
            "inputs": [item[0] for item in items],
            "targets": [item[1] for item in items],
        }
    raise TypeError(f"cannot collate items of type {type(first)!r}")


def _collate_values(values: List) -> Tensor:
    first = values[0]
    if isinstance(first, Tensor):
        return stack(values)
    if isinstance(first, np.ndarray):
        return from_numpy(np.stack(values))
    if isinstance(first, (int, np.integer)):
        return from_numpy(np.asarray(values, dtype=_INT))
    if isinstance(first, (float, np.floating)):
        return from_numpy(np.asarray(values, dtype=_FLOAT))
    raise TypeError(f"cannot collate values of type {type(first)!r}")


#: The value kinds of :func:`_collate_values`, in its dispatch order.
_INTS, _FLOATS = (int, np.integer), (float, np.floating)
_KINDS = (Tensor, np.ndarray, _INTS, _FLOATS)


def _kind(tp: type):
    return next((kind for kind in _KINDS if issubclass(tp, kind)), None)


def _column_spec(values: List) -> Optional[Tuple[Tuple[int, ...], np.dtype]]:
    """The ``(shape, dtype)`` each value adds to its column, when every value
    agrees with the first in kind (by the dispatch of :func:`_collate_values`),
    device, shape and dtype; ``None`` when one does not, or for a type that
    dispatch rejects.  One pass per property over the column, not one
    description per value."""
    kinds = {_kind(tp) for tp in set(map(type, values))}
    if len(kinds) != 1 or None in kinds:
        return None
    (kind,) = kinds
    if kind is Tensor:
        if len({tensor.device for tensor in values}) != 1:
            return None
        values = [tensor.numpy() for tensor in values]
    elif kind is not np.ndarray:
        return (), (_INT if kind is _INTS else _FLOAT)
    if len({array.shape for array in values}) != 1 or len({array.dtype for array in values}) != 1:
        return None
    return values[0].shape, values[0].dtype
