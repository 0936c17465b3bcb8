"""Flexible batch sizing: producer batches, per-consumer slices, repetition.

Paper Section 3.2.6 and Figure 5.  Under flexible batching the producer
cuts the epoch's sample order into large *producer batches* (a contiguous
block of rows, collated once) and every consumer takes row-slices of its own
requested batch size out of each one.  Consumers therefore traverse the data
at the same rate even though their batch sizes differ.  When a consumer's batch size does not
divide the producer batch size, the last slice is completed by wrapping around
to the start of the producer batch, repeating a few rows; the repetition per
producer batch is bounded by ``max(consumer batch sizes) - 1`` and the paper
recommends producer batches at least twice the largest consumer batch so the
repeated share never exceeds 50%.

Section 3.2.7's batch-order variation is implemented here too: per-consumer
*offsets* rotate where carving starts, and *shuffling* permutes the order in
which a consumer visits its slices of a producer batch.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class SliceSpec:
    """One consumer batch carved from a producer batch.

    The slice is a circular range of ``length`` rows starting at ``start``;
    ``primary`` covers rows ``[start, primary_stop)`` and, if the range wraps
    past the end of the producer batch, ``wrapped`` covers the remaining rows
    taken from the beginning.
    """

    start: int
    length: int
    producer_batch_size: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.producer_batch_size):
            raise ValueError("slice start must lie inside the producer batch")
        if not (0 < self.length <= self.producer_batch_size):
            raise ValueError("slice length must be positive and fit the producer batch")

    @property
    def primary(self) -> Tuple[int, int]:
        return (self.start, min(self.start + self.length, self.producer_batch_size))

    @property
    def wrapped(self) -> Optional[Tuple[int, int]]:
        overflow = self.start + self.length - self.producer_batch_size
        if overflow <= 0:
            return None
        return (0, overflow)

    @property
    def is_contiguous(self) -> bool:
        return self.wrapped is None

    @property
    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        """The ``(start, stop)`` row ranges of the slice, in order: one, or two
        when it wraps."""
        wrapped = self.wrapped
        return (self.primary,) if wrapped is None else (self.primary, wrapped)

    def row_indices(self) -> np.ndarray:
        """The producer-batch row indices this slice covers, in order."""
        return (np.arange(self.start, self.start + self.length) % self.producer_batch_size)


@dataclass
class ConsumerSlicePlan:
    """How one consumer traverses one producer batch."""

    consumer_id: str
    batch_size: int
    producer_batch_size: int
    slices: List[SliceSpec] = field(default_factory=list)

    @property
    def rows_served(self) -> int:
        return sum(s.length for s in self.slices)

    @property
    def repeated_rows(self) -> int:
        """Rows served beyond the unique producer-batch rows."""
        return self.rows_served - self.producer_batch_size

    @property
    def repeated_share(self) -> float:
        return self.repeated_rows / self.producer_batch_size

    def covered_rows(self) -> np.ndarray:
        """Unique producer-batch rows covered by the plan (should be all of them)."""
        if not self.slices:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([s.row_indices() for s in self.slices]))


def plan_slices(
    producer_batch_size: int,
    consumer_batch_size: int,
    *,
    consumer_id: str = "consumer",
    offset: int = 0,
    shuffle_seed: Union[int, Sequence[int], None] = None,
) -> ConsumerSlicePlan:
    """Plan how a consumer with ``consumer_batch_size`` traverses a producer batch.

    The number of slices is ``ceil(P / b)`` so every producer-batch row is
    served at least once; the final slice wraps to fill itself, repeating at
    most ``b - 1`` rows.
    """
    if producer_batch_size < 1:
        raise ValueError("producer_batch_size must be positive")
    if consumer_batch_size < 1:
        raise ValueError("consumer_batch_size must be positive")
    if consumer_batch_size > producer_batch_size:
        raise ValueError(
            f"consumer batch size {consumer_batch_size} exceeds producer batch size "
            f"{producer_batch_size}; increase producer_batch_size"
        )
    offset = int(offset) % producer_batch_size
    n_slices = math.ceil(producer_batch_size / consumer_batch_size)
    slices = [
        SliceSpec(
            start=(offset + i * consumer_batch_size) % producer_batch_size,
            length=consumer_batch_size,
            producer_batch_size=producer_batch_size,
        )
        for i in range(n_slices)
    ]
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(slices))
        slices = [slices[i] for i in order]
    return ConsumerSlicePlan(
        consumer_id=consumer_id,
        batch_size=consumer_batch_size,
        producer_batch_size=producer_batch_size,
        slices=slices,
    )


def recommend_producer_batch_size(consumer_batch_sizes: Sequence[int]) -> int:
    """The paper's guidance: at least twice the largest consumer batch.

    We additionally round up to the least common multiple when it is small, so
    that the common case of power-of-two batch sizes incurs zero repetition.
    """
    if not consumer_batch_sizes:
        raise ValueError("need at least one consumer batch size")
    sizes = [int(b) for b in consumer_batch_sizes]
    if any(b < 1 for b in sizes):
        raise ValueError("batch sizes must be positive")
    largest = max(sizes)
    baseline = 2 * largest
    lcm = sizes[0]
    for size in sizes[1:]:
        lcm = math.lcm(lcm, size)
        if lcm > 8 * largest:
            return baseline
    return max(baseline, lcm)


class FlexibleBatcher:
    """Plans how each consumer slices the producer batches of one epoch.

    The producer batch size is fixed for the epoch; every consumer gets a
    plan of slices of its own batch size over each producer batch.  A
    consumer may join with no batch size: it is not planned for and takes
    whole producer batches.
    """

    def __init__(
        self,
        producer_batch_size: int,
        consumer_batch_sizes: Mapping[str, int],
        *,
        use_offsets: bool = False,
        shuffle_slices: bool = False,
        seed: int = 0,
    ) -> None:
        if producer_batch_size < 1:
            raise ValueError("producer_batch_size must be positive")
        largest = max(consumer_batch_sizes.values(), default=0)
        if largest > producer_batch_size:
            raise ValueError(
                f"producer batch size {producer_batch_size} is smaller than the largest "
                f"consumer batch size {largest}"
            )
        self.producer_batch_size = int(producer_batch_size)
        self.consumer_batch_sizes = dict(consumer_batch_sizes)
        self.use_offsets = bool(use_offsets)
        self.shuffle_slices = bool(shuffle_slices)
        self.seed = int(seed)

    # -- slicing -------------------------------------------------------------------------
    def offset_for(self, consumer_id: str) -> int:
        if not self.use_offsets:
            return 0
        ordered = sorted(self.consumer_batch_sizes)
        position = ordered.index(consumer_id)
        if len(ordered) <= 1:
            return 0
        return (position * self.producer_batch_size) // len(ordered)

    def plan_for(
        self, consumer_id: str, producer_batch_index: int = 0, rows: Optional[int] = None
    ) -> ConsumerSlicePlan:
        """The consumer's slices of one producer batch of ``rows`` rows (the
        producer batch size unless the epoch's last batch is short).  A batch
        size above ``rows`` becomes one short slice of all of them."""
        try:
            batch_size = self.consumer_batch_sizes[consumer_id]
        except KeyError as exc:
            raise KeyError(f"unknown consumer {consumer_id!r}") from exc
        rows = self.producer_batch_size if rows is None else rows
        shuffle_seed = None
        if self.shuffle_slices:
            # Integers only: the hash of a str is salted per interpreter.
            shuffle_seed = [
                self.seed % (1 << 64),
                producer_batch_index,
                zlib.crc32(consumer_id.encode()),
            ]
        return plan_slices(
            rows,
            min(batch_size, rows),
            consumer_id=consumer_id,
            offset=self.offset_for(consumer_id),
            shuffle_seed=shuffle_seed,
        )

    # -- analysis ------------------------------------------------------------------------
    def repetition_report(self) -> Dict[str, float]:
        """Per-consumer repeated-row share per producer batch (Figure 5 analysis)."""
        report = {}
        for consumer_id in self.consumer_batch_sizes:
            plan = self.plan_for(consumer_id)
            report[consumer_id] = plan.repeated_share
        return report

    def max_repeated_share(self) -> float:
        """Worst-case repeated share across consumers; < 50% per the paper's guidance
        whenever the producer batch is at least twice the largest consumer batch."""
        report = self.repetition_report()
        return max(report.values()) if report else 0.0

