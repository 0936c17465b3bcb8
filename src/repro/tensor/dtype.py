"""Element types for tensors.

A small closed catalogue of element types, each mapping onto a numpy dtype.
Keeping our own wrapper (instead of passing numpy dtypes around) lets payloads
serialize the dtype as a short stable string and lets the hardware simulator
compute byte volumes without importing numpy in every module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

import numpy as np


@dataclass(frozen=True)
class DType:
    """An element type: a name, a byte width, and the backing numpy dtype."""

    name: str
    itemsize: int
    is_floating_point: bool
    numpy_dtype: np.dtype = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "numpy_dtype", np.dtype(self.name))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"DType({self.name!r})"


float64 = DType("float64", 8, True)
float32 = DType("float32", 4, True)
float16 = DType("float16", 2, True)
int64 = DType("int64", 8, False)
int32 = DType("int32", 4, False)
int16 = DType("int16", 2, False)
int8 = DType("int8", 1, False)
uint8 = DType("uint8", 1, False)
bool_ = DType("bool", 1, False)

_BY_NAME: Dict[str, DType] = {
    dt.name: dt
    for dt in (float64, float32, float16, int64, int32, int16, int8, uint8, bool_)
}

#: The spellings the hot paths use — the catalogue name, the native numpy
#: dtype, its scalar type — resolved by one hash lookup.
_BY_SPELLING: Dict[object, DType] = {
    spelling: dt
    for dt in _BY_NAME.values()
    for spelling in (dt.name, dt.numpy_dtype, dt.numpy_dtype.type)
}

DTypeLike = Union[DType, str, np.dtype, type]


def as_dtype(value: DTypeLike) -> DType:
    """Coerce a name, numpy dtype or :class:`DType` into a :class:`DType`."""
    if isinstance(value, DType):
        return value
    try:
        return _BY_SPELLING[value]
    except (KeyError, TypeError):  # another spelling numpy knows, or an unhashable one
        name = np.dtype(value).name
    try:
        return _BY_NAME[name]
    except KeyError as exc:
        raise TypeError(f"unsupported tensor dtype {value!r}") from exc


def all_dtypes() -> tuple:
    """Every supported dtype, useful for property-based tests."""
    return tuple(_BY_NAME.values())
