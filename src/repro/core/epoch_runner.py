"""The epoch runner: one epoch's load → stage → publish loop, host-agnostic.

Historically the :class:`~repro.core.producer.TensorProducer` welded the
epoch-running machinery (loader iteration, staging, cache-aware
interleaving, flexible-batch slicing) to the connection machinery (consumer
registration, heartbeats, flow control, the ack ledger).  This module is the
epoch half, extracted behind a narrow interface so other hosts — most
importantly the sharded producer groups in :mod:`repro.core.group`, where N
runners cooperate on one dataset — drive the exact same code path.

An :class:`EpochRunner` owns the loader, the shared-memory staging and the
epoch-cache integration (:class:`~repro.cache.CachedEpochSource`).  It runs
no thread of its own: like the paper's TensorSocket it wraps the user's
loader as it is, so loading overlaps publishing only through the loader's own
``num_workers``, and every batch is staged into shared memory when it is
published.  Everything connection-shaped is
delegated to a *host* object implementing :class:`EpochHost` — for the
classic producer that is the producer itself:

* ``wait_for_capacity()`` — block until every active consumer can take a
  batch (may raise :class:`SkipEpoch` to abandon the epoch);
* ``active_consumer_ids()`` — who should receive the next publish;
* ``publish(payload, consumers)`` — record the batch in the ack ledger,
  retain its segments per consumer, and broadcast it;
* ``retain_for_window(payload, index)`` — offer the payload to the host's
  rubberband replay window (the host takes over the producer hold when it
  returns True);
* ``set_epoch_length(batches)`` — how many batches the epoch being opened
  has (the rubberband window is a fraction of it);
* ``stopped`` / ``consumer_batch_sizes()`` — the flow-control flag and the
  batch sizes flexible batching slices for.

One loop serves both modes.  By default a batch is a loader batch.  Under
flexible batching (paper Section 3.2.6) the runner fixes the epoch's
producer batch size when the epoch opens, cuts the epoch's sample order at
it, and publishes each producer batch once with every sized consumer's row
ranges in :attr:`~repro.tensor.payload.BatchPayload.slices`.

At every epoch boundary the runner advances the loader's sampler epoch
(``loader.set_epoch(epoch)`` when the loader supports it) *before* opening the
iteration, so a seeded sampler draws a permutation that is a pure function of
``(seed, epoch)``.  Under sharding this is a correctness requirement: all
shard runners must derive the same base permutation each epoch for their
disjoint shards to cover the dataset exactly once.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterator, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.cache import BatchCache, CachedEpochSource
from repro.core.flexible_batch import FlexibleBatcher, recommend_producer_batch_size
from repro.data.collate import plan_collate
from repro.data.dataloader import DataLoader
from repro.data.samplers import EpochBatches, epoch_order
from repro.obs import trace as obs_trace
from repro.obs.metrics import counter
from repro.tensor.payload import BatchPayload
from repro.tensor.shared_memory import SharedMemoryPool
from repro.tensor.tensor import Tensor

__all__ = ["EpochHost", "EpochRunner", "SkipEpoch"]

#: Stall-attribution components (cumulative seconds) and volume counters.
_LOAD_SECONDS = counter("repro.producer.stall.load_seconds")
_STAGE_SECONDS = counter("repro.producer.stall.stage_seconds")
_BATCHES_LOADED = counter("repro.producer.batches_loaded")
_CACHE_REPLAYS = counter("repro.producer.cache_replays")


class SkipEpoch(Exception):
    """Signal from the host: abandon the current epoch (e.g. every consumer left)."""


class EpochHost(Protocol):
    """What an :class:`EpochRunner` needs from whoever owns the connections."""

    @property
    def stopped(self) -> bool:
        """Whether the host wants the epoch loop to stop after the current batch."""

    def wait_for_capacity(self) -> None:
        """Block until every active consumer can take another batch.

        May raise :class:`SkipEpoch` to abandon the epoch entirely.
        """

    def active_consumer_ids(self) -> List[str]:
        """Consumers the next batch should be published to."""

    def publish(self, payload: BatchPayload, consumers: List[str]) -> None:
        """Retain per-consumer holds, record the batch in the ledger, broadcast it."""

    def retain_for_window(self, payload: BatchPayload, batch_index: int) -> bool:
        """Offer the payload to the host's replay window.

        Returns True when the host keeps the producer hold alive (the runner
        must then not release it).
        """

    def set_epoch_length(self, batches: int) -> None:
        """The epoch being opened has this many batches (at least one)."""

    def consumer_batch_sizes(self) -> Dict[str, int]:
        """Announced batch sizes of every active consumer (flexible batching)."""


class EpochRunner:
    """Run epochs over a data loader, publishing through an :class:`EpochHost`.

    The runner is the paper's load (step 0/1) → stage (step 2) → publish
    (step 3) loop with the epoch-cache integration, but no sockets: the host
    supplies flow control and delivery.
    One runner serves one loader; a sharded producer group instantiates one
    runner per shard.
    """

    def __init__(
        self,
        data_loader,
        *,
        pool: SharedMemoryPool,
        config,
        host: EpochHost,
        cache: Optional[BatchCache] = None,
        identity: str = "epoch-runner",
    ) -> None:
        if config.flexible_batching and not (
            isinstance(data_loader, DataLoader) and data_loader.sampler is not None
        ):
            raise TypeError(
                f"flexible batching cuts the epoch's sample order itself, so it needs a "
                f"repro.data.DataLoader with a sampler, not {type(data_loader).__name__}"
            )
        self.loader = data_loader
        self.pool = pool
        self.config = config
        self.host = host
        self.cache = cache
        self.identity = identity

        #: Current epoch number (set by :meth:`run`).
        self.epoch = 0
        #: Batches published so far in the current epoch (the host reads this
        #: for rubberband admission and the EPOCH_END announcement).
        self.batches_published_this_epoch = 0
        #: Total batches staged over the runner's lifetime.
        self.batches_loaded = 0
        #: Under flexible batching, the current epoch's slice planner, set
        #: once the epoch is cut (``None`` before that, and in default mode).
        self.batcher: Optional[FlexibleBatcher] = None
        #: The producer batch size the epoch cache's batches were cut at.
        self._cached_cut: Optional[int] = None

    # ------------------------------------------------------------------ epoch lifecycle
    def begin_epoch(self, epoch: int) -> None:
        """Reset per-epoch state (eagerly, before the lazy generator runs)."""
        self.epoch = epoch
        self.batches_published_this_epoch = 0
        self.batcher = None

    def run(self, epoch: int) -> Iterator[int]:
        """One epoch's publish loop; yields running batch counts for progress."""
        self.epoch = epoch
        self._set_sampler_epoch(epoch)
        return self._run_epoch(self._cut_epoch() if self.config.flexible_batching else None)

    def _set_sampler_epoch(self, epoch: int) -> None:
        """Pin the sampler's permutation to this epoch before iterating.

        Makes the epoch's sample order a pure function of ``(seed, epoch)``:
        two runners constructed from equal loaders draw identical
        permutations each epoch — the property shard groups rely on for
        disjoint coverage — while successive epochs still reshuffle.
        """
        set_epoch = getattr(self.loader, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(epoch)

    def loader_sized(self) -> bool:
        try:
            len(self.loader)
            return True
        except TypeError:
            return False

    def _cut_epoch(self) -> EpochBatches:
        """Flexible batching: fix this epoch's producer batch size and cut the
        epoch's sample order at it.

        The size is ``producer_batch_size``, or derived from the consumers
        registered when the epoch opens (the wait is for them); with none
        that announced a batch size, it is the loader's.  The last producer
        batch is short unless the loader drops it.
        """
        self.host.wait_for_capacity()
        sizes = self.host.consumer_batch_sizes()
        cut = self.config.producer_batch_size or (
            recommend_producer_batch_size(list(sizes.values())) if sizes else self.loader.batch_size
        )
        if self.cache is not None and cut != self._cached_cut:
            # Cached batches were cut at another size: none of them is a hit.
            self.cache.clear()
            self._cached_cut = cut
        self.batcher = FlexibleBatcher(
            cut,
            sizes,
            use_offsets=self.config.consumer_offsets,
            shuffle_slices=self.config.shuffle_slices,
            seed=self.config.seed,
        )
        return EpochBatches(epoch_order(self.loader.sampler), cut, self.loader.drop_last)

    def with_slices(self, payload: BatchPayload) -> BatchPayload:
        """Flexible batching: ``payload`` carrying the row ranges of every
        sized consumer active now — at publish, and again for a window replay
        to a joiner."""
        batcher = self.batcher
        sizes = self.host.consumer_batch_sizes()
        batcher.consumer_batch_sizes.update(sizes)
        rows, index = payload.batch_size, payload.batch_index
        slices = {
            consumer_id: tuple(
                spec.ranges for spec in batcher.plan_for(consumer_id, index, rows).slices
            )
            for consumer_id in sizes
        }
        return dataclasses.replace(payload, slices=slices)

    # ------------------------------------------------------------------ staging
    def _stage_batch(self, batch) -> Dict[str, Tensor]:
        """Put a loader batch into shared memory on the share device (step 2).

        One slab segment per batch — every tensor (data + labels) at an
        aligned offset of a single allocation, so the batch publishes as one
        handle — written by one copy per byte.  A list of uncollated items
        (see :meth:`_takes_items`) is collated straight into the reserved
        segment; an already-collated mapping (custom ``collate_fn``) is copied
        into it.
        """
        started = time.monotonic()
        device = self.config.share_device
        if isinstance(batch, Mapping):
            staged = self.pool.share_batch(batch, device=device)
        else:
            layout, fill = plan_collate(batch)
            staged = self.pool.fill_batch(layout, fill, device=device)
        self.batches_loaded += 1
        _BATCHES_LOADED.inc()
        _STAGE_SECONDS.inc(time.monotonic() - started)
        return staged

    def _timed_source(self, pairs) -> Iterator[Tuple[int, Tuple]]:
        """Time the loader side of an ``(index, batch)`` stream.

        Yields ``(index, (batch, t_sampled, t_loaded))``: the monotonic
        stamps bracketing the loader's work become the ``sampled``/``loaded``
        stages of the batch's lifecycle trace, and the delta accumulates into
        the load component of the producer's stall attribution.  When the
        loader hands over uncollated items, collating them is staging work:
        it lands after ``loaded``, in the stage component.
        """
        it = iter(pairs)
        while True:
            t_sampled = time.monotonic()
            try:
                index, batch = next(it)
            except StopIteration:
                return
            t_loaded = time.monotonic()
            _LOAD_SECONDS.inc(t_loaded - t_sampled)
            yield index, (batch, t_sampled, t_loaded)

    # ------------------------------------------------------------------ loader plumbing
    def _takes_items(self) -> bool:
        """Whether the epoch takes *uncollated* items off the loader.

        True when the loader assembles batches with ``default_collate``: the
        runner then asks for each batch's item list and collates it into the
        slab itself (:meth:`_stage_batch`), so a payload byte is copied once.
        Any other ``collate_fn`` runs in the loader and its result is copied.
        """
        return bool(getattr(self.loader, "uses_default_collate", False))

    def _open_loader_iter(self, *, collate: bool, batches: Optional[Sequence] = None):
        """Start one epoch's iteration over the nested loader, over its own
        batches or over the runner's ``batches`` (flexible batching's cut)."""
        if collate and batches is None:
            return iter(self.loader)
        return self.loader.prefetch_iter(batches=batches, collate=collate)

    def release_staged(self, payload: Optional[BatchPayload]) -> None:
        """Return the producer holds of a staged payload: a cache hit that
        will never publish, or a published batch nobody retained."""
        if payload is not None:
            for name in payload.segment_names:
                self.pool.release_if_present(name)

    # ------------------------------------------------------------------ the epoch
    def _run_epoch(self, batches: Optional[Sequence]) -> Iterator[int]:
        """Publish one epoch, loading and staging each batch on the way.

        ``batches`` is the epoch's cut under flexible batching, and ``None``
        when the loader's own batches are published.

        A loaded batch waits on the heap through the capacity wait and is
        staged into shared memory only when it is about to publish, so the
        pool holds nothing for a batch that is never published and a skipped
        batch never touches it.  The loader's own workers, if it has any, are
        the only prefetch.

        With an epoch cache enabled, the epoch is planned against a
        :class:`~repro.cache.CachedEpochSource`: cached batch indices are
        republished straight from their retained segments (no loader, no
        copy — just a fresh producer hold and a re-keyed payload), only the
        misses are loaded, and every published miss is offered to the cache.
        A hit is the one item that carries a producer hold before it
        publishes; it is returned whenever the hit is not published.
        """
        host = self.host
        if batches is not None:
            total: Optional[int] = len(batches)
        else:
            total = len(self.loader) if self.loader_sized() else None
        if total:
            host.set_epoch_length(total)
        epoch = self.epoch
        collate = not self._takes_items()
        source = (
            CachedEpochSource(
                self.cache, self.loader, epoch=epoch, collate=collate, batches=batches
            )
            if self.cache is not None
            else None
        )

        def pack_payload(index, loaded) -> BatchPayload:
            # ``loaded`` is a (batch, t_sampled, t_loaded) triple from
            # _timed_source; the stamps seed the batch's lifecycle trace,
            # which travels in the payload metadata (inproc and tcp alike).
            batch, t_sampled, t_loaded = loaded
            staged = self._stage_batch(batch)
            trace = {"sampled": t_sampled, "loaded": t_loaded, "staged": time.monotonic()}
            return BatchPayload.pack(
                staged,
                batch_index=index,
                epoch=epoch,
                is_last_in_epoch=total is not None and index == total - 1,
                metadata={"trace": trace, "trace_origin": obs_trace.origin()},
            )

        close = None
        if source is None or source.all_miss:
            # No cache, or nothing cached yet (epoch 0): the full loader, with
            # its own prefetch workers.
            loader_iter = self._open_loader_iter(collate=collate, batches=batches)
            if source is not None and total is not None:
                # Pin this sampler draw as THE composition future cached
                # epochs serve — hits and reloaded misses alike — so a
                # reshuffling sampler cannot skew per-epoch sample coverage.
                sampled = getattr(loader_iter, "sampled_batches", None)
                if sampled is not None:
                    self.cache.remember_composition(sampled)
            close = getattr(loader_iter, "close", None)
            stream = self._timed_source(enumerate(loader_iter))
        elif source.full_replay:
            # Every batch is cached: the loader is never opened; the epoch is
            # pure republishing.
            stream = self._cached_item_stream(source, iter(()))
        else:
            # Partial cache: only the misses are loaded — on the loader's own
            # workers, from the composition the cache was filled with — and
            # the hits interleave with them in batch-index order.
            misses, close = source.open_misses()
            stream = self._cached_item_stream(source, self._timed_source(misses))
        try:
            for index, loaded in stream:
                # A cache hit arrives as a payload holding a producer hold.
                hit = loaded if isinstance(loaded, BatchPayload) else None
                if host.stopped:
                    self.release_staged(hit)
                    break
                try:
                    host.wait_for_capacity()
                except SkipEpoch:
                    self.release_staged(hit)
                    raise
                if host.stopped:
                    self.release_staged(hit)
                    break
                active = host.active_consumer_ids()
                if not active:
                    # Nobody to serve right now (free-running mode, or the
                    # wait was cut short by stop()): skip this batch.
                    self.release_staged(hit)
                    continue
                payload = hit if hit is not None else pack_payload(index, loaded)
                if self.batcher is not None:
                    payload = self.with_slices(payload)
                host.publish(payload, active)
                if source is not None and hit is None:
                    # Offer the freshly staged miss to the cache while the
                    # publish holds still pin its segments.
                    source.record(index, payload)
                if not host.retain_for_window(payload, index):
                    self.release_staged(payload)
                self.batches_published_this_epoch = index + 1
                yield index + 1
        finally:
            if close is not None:
                close()
            if source is not None:
                self.cache.end_epoch()

    def _cached_item_stream(
        self, source: CachedEpochSource, misses: Iterator[Tuple[int, Tuple]]
    ) -> Iterator[Tuple[int, object]]:
        """Interleave cache hits with the loaded misses in index order.

        Yields ``(index, payload)`` for a hit and ``(index, (batch,
        t_sampled, t_loaded))`` for a miss.  A hit that was evicted between
        planning and use falls back to a synchronous load (uncollated when
        the misses are), so the epoch never loses a batch.
        """
        for index in range(source.total):
            if index in source.plan:
                hit_at = time.monotonic()
                payload = source.hit(index)
                if payload is None:
                    t_sampled = time.monotonic()
                    batch = source.load_batch(index)
                    t_loaded = time.monotonic()
                    _LOAD_SECONDS.inc(t_loaded - t_sampled)
                    yield index, (batch, t_sampled, t_loaded)
                else:
                    # The cached entry's metadata dict is shared across
                    # replays; give the republished payload a fresh trace (a
                    # hit samples/loads/stages in one step) instead of
                    # mutating the shared dict.
                    _CACHE_REPLAYS.inc()
                    yield index, dataclasses.replace(
                        payload,
                        metadata={
                            "trace": {
                                "sampled": hit_at,
                                "loaded": hit_at,
                                "staged": hit_at,
                            },
                            "trace_origin": obs_trace.origin(),
                        },
                    )
            else:
                yield next(misses)

    def __repr__(self) -> str:
        return (
            f"EpochRunner({self.identity!r}, epoch={self.epoch}, "
            f"loaded={self.batches_loaded})"
        )
