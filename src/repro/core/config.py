"""Configuration objects for the producer and consumers.

The defaults follow the paper: a consumer-side buffer of two batches is enough
for similar workloads (Section 3.2.5), the rubberband window is 2% of the
dataset (Section 3.2.5), and flexible batching is off unless consumers request
different batch sizes (Section 3.2.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ProducerConfig:
    """Settings for a :class:`~repro.core.producer.TensorProducer`.

    Attributes
    ----------
    address:
        Base address for the producer's sockets; the data channel lives at
        ``{address}/data`` and the control/ack channel at ``{address}/control``.
    buffer_size:
        Maximum batches a consumer may hold un-acknowledged; bounds how far
        consumers can drift apart.
    rubberband_fraction:
        Fraction of the epoch during which a newly joining consumer is
        admitted immediately (others halt while it catches up).  ``0``
        disables rubberbanding: late joiners wait for the next epoch.
    epochs:
        Number of passes over the nested data loader before the producer
        shuts down.  ``None`` runs until :meth:`TensorProducer.stop`.
    flexible_batching:
        Serve consumers with differing batch sizes from larger producer
        batches (Section 3.2.6).
    producer_batch_size:
        Row count of a producer batch under flexible batching.  Should be at
        least twice the largest consumer batch size to bound repetition below
        50%; a consumer asking for more than it is refused.  When ``None`` it
        is sized each epoch from the batch sizes of the consumers registered
        as the epoch opens (the loader's batch size when none announced one).
    shuffle_slices / consumer_offsets:
        Batch-order variation knobs (Section 3.2.7): shuffle the order of each
        consumer's slices within a producer batch, and start each consumer's
        carving at a different offset.
    heartbeat_timeout:
        Seconds of consumer silence after which the producer detaches it.
    wait_for_consumers:
        Pause data loading while no consumers are registered (the paper's
        always-available producer behaviour).
    share_device:
        Device batches are staged on before publishing (``"cuda:0"`` for the
        GPU-staging behaviour, ``"cpu"`` to share host tensors).
    cache_policy:
        Epoch-cache policy (:class:`repro.cache.CachePolicy`): ``"none"``
        (default — every epoch reloads), ``"all"`` (retain every staged
        batch; epoch 1+ republishes from shared memory without touching the
        loader), or budgeted ``"lru"`` / ``"mru"`` over batch indices
        (CoorDL-style partial caching; requires ``cache_bytes``).  Cached
        epochs replay the batch composition of the epoch that filled the
        cache, so pair the cache with a deterministic sampler when exact
        cross-epoch shuffling matters.
    cache_bytes:
        Byte budget for the epoch cache, required by (and only valid with)
        ``"lru"`` / ``"mru"``.  A capped "cache as much as fits" is
        expressed as ``"lru"``; pairing a budget with ``"all"`` or
        ``"none"`` is rejected rather than silently changing the policy's
        meaning.
    max_inflight_batches:
        Hard cap on batches published-but-unacknowledged at once (the
        ledger's pending count).  Per-consumer ``buffer_size`` already bounds
        each consumer's drift; this bounds the *producer's* total footprint
        regardless of how many consumers attach — the broker sets it per
        dataset so one popular tenant cannot monopolise the shared plane.
        ``None`` (default) leaves only the per-consumer bound.
    """

    address: str = "tensorsocket"
    buffer_size: int = 2
    rubberband_fraction: float = 0.02
    epochs: Optional[int] = 1
    flexible_batching: bool = False
    producer_batch_size: Optional[int] = None
    shuffle_slices: bool = False
    consumer_offsets: bool = False
    heartbeat_timeout: float = 10.0
    wait_for_consumers: bool = True
    share_device: str = "cpu"
    seed: int = 0
    cache_policy: str = "none"
    cache_bytes: Optional[int] = None
    max_inflight_batches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be at least 1")
        if self.max_inflight_batches is not None and self.max_inflight_batches < 1:
            raise ValueError("max_inflight_batches must be at least 1 when given")
        if not (0.0 <= self.rubberband_fraction <= 1.0):
            raise ValueError("rubberband_fraction must be within [0, 1]")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be at least 1 when given")
        if self.producer_batch_size is not None and self.producer_batch_size < 1:
            raise ValueError("producer_batch_size must be positive when given")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        # Validates the policy name and the budget pairing early (a typo'd
        # policy must fail at construction, not mid-epoch).  Imported lazily:
        # repro.cache sits above repro.tensor, not above repro.core.
        from repro.cache import CachePolicy

        policy = CachePolicy.parse(self.cache_policy)
        if self.cache_bytes is not None and self.cache_bytes <= 0:
            raise ValueError("cache_bytes must be positive when given")
        if policy in (CachePolicy.LRU, CachePolicy.MRU) and self.cache_bytes is None:
            raise ValueError(
                f"cache_policy={policy.value!r} requires cache_bytes (the byte budget)"
            )
        if policy in (CachePolicy.NONE, CachePolicy.ALL) and self.cache_bytes is not None:
            # Silently accepting a budget here would degrade "all" (retain
            # everything) into an evicting cache behind the caller's back.
            raise ValueError(
                f"cache_policy={policy.value!r} takes no cache_bytes; "
                f"use 'lru' or 'mru' for a budgeted cache"
            )

    @property
    def data_address(self) -> str:
        return f"{self.address}/data"

    @property
    def control_address(self) -> str:
        return f"{self.address}/control"


@dataclass
class ConsumerConfig:
    """Settings for a :class:`~repro.core.consumer.TensorConsumer`.

    ``interleave`` only matters when attaching to a *sharded* producer group
    (:mod:`repro.core.group`): ``"index"`` (default) merges the member
    streams deterministically by ``(epoch, batch index, shard)``; ``"any"``
    delivers batches in arrival order (still epoch-aligned across members).
    Plain consumers ignore it.
    """

    address: str = "tensorsocket"
    consumer_id: Optional[str] = None
    batch_size: Optional[int] = None
    buffer_size: int = 2
    heartbeat_interval: float = 1.0
    receive_timeout: float = 30.0
    max_epochs: Optional[int] = None
    interleave: str = "index"

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when given")
        if self.interleave not in ("index", "any"):
            raise ValueError(
                f"interleave must be 'index' or 'any', got {self.interleave!r}"
            )
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be at least 1")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.receive_timeout <= 0:
            raise ValueError("receive_timeout must be positive")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1 when given")

    @property
    def data_address(self) -> str:
        return f"{self.address}/data"

    @property
    def control_address(self) -> str:
        return f"{self.address}/control"
