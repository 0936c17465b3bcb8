"""The epoch runner: one epoch's load → stage → publish loop, host-agnostic.

Historically the :class:`~repro.core.producer.TensorProducer` welded the
epoch-running machinery (loader iteration, the staged pipeline, cache-aware
interleaving, flexible-batch slicing) to the connection machinery (consumer
registration, heartbeats, flow control, the ack ledger).  This module is the
epoch half, extracted behind a narrow interface so other hosts — most
importantly the sharded producer groups in :mod:`repro.core.group`, where N
runners cooperate on one dataset — drive the exact same code path.

An :class:`EpochRunner` owns the loader, the shared-memory staging, the
:class:`~repro.core.pipeline.StagePipeline` and the epoch-cache integration
(:class:`~repro.cache.CachedEpochSource`).  Everything connection-shaped is
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
from repro.core.pipeline import StagedItem, StagePipeline
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
    (step 3) loop with all of PR 3's overlap machinery and PR 4's epoch-cache
    integration, but no sockets: the host supplies flow control and delivery.
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

        Runs on the stage worker when ``pipeline_depth > 1``; it only touches
        the pool (thread-safe) and the ``batches_loaded`` counter (written by
        exactly one staging thread).
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
        it lands after ``loaded``, in the stage component.  (At
        ``pipeline_depth > 1`` this runs on the stage worker, so load seconds
        measure loader occupancy, which overlaps the publish loop.)
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

    # ------------------------------------------------------------------ pipeline plumbing
    def _pipeline_loader_workers(self) -> Optional[int]:
        """Loader worker threads the staged pipeline may use (None = loader default)."""
        if self.config.pipeline_workers is not None:
            return self.config.pipeline_workers
        if getattr(self.loader, "num_workers", 0):
            return None  # the loader already has its own workers; keep them
        return min(4, self.config.pipeline_depth)

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
        batches or over the runner's ``batches`` (flexible batching's cut).

        With an overlapped pipeline the loader is asked for a prefetching
        iterator whose in-flight budget matches ``pipeline_depth``, so the
        pipeline's bound covers loader-internal prefetch too.
        """
        depth = self.config.pipeline_depth
        if depth > 1 and hasattr(self.loader, "prefetch_iter"):
            return self.loader.prefetch_iter(
                max_in_flight=depth,
                num_workers=self._pipeline_loader_workers(),
                batches=batches,
                collate=collate,
            )
        if collate and batches is None:
            return iter(self.loader)
        return self.loader.prefetch_iter(batches=batches, collate=collate)

    def _make_pipeline(self, source, stage_fn, source_close=None) -> StagePipeline:
        return StagePipeline(
            source,
            stage_fn,
            depth=self.config.pipeline_depth,
            release_fn=self.release_staged,
            source_close=source_close,
            name=f"repro-{self.identity}-stage",
        )

    def release_staged(self, item: StagedItem) -> None:
        """Return the producer holds of a staged item that will never publish."""
        for name in item.segment_names:
            self.pool.release_if_present(name)

    # ------------------------------------------------------------------ the epoch
    def _run_epoch(self, batches: Optional[Sequence]) -> Iterator[int]:
        """Publish one epoch from a stream of already-staged payloads.

        ``batches`` is the epoch's cut under flexible batching, and ``None``
        when the loader's own batches are published.

        Load + stage run inside the :class:`StagePipeline` (inline at
        ``pipeline_depth=1``, on the stage worker otherwise); this loop only
        does capacity waits, publishing and control work.  Every staged item
        that cannot be published (stop, skip-epoch, no consumers) has its
        producer hold released before the loop moves on, and the ``finally``
        drain covers whatever the pipeline still had in flight.

        With an epoch cache enabled, the epoch is planned against a
        :class:`~repro.cache.CachedEpochSource`: cached batch indices are
        republished straight from their retained segments (no loader, no
        stage worker, no copy — just a fresh producer hold and a re-keyed
        payload), only the misses flow through the pipeline, and every
        published miss is offered to the cache post-stage.
        """
        host = self.host
        if batches is not None:
            total: Optional[int] = len(batches)
        else:
            total = len(self.loader) if self.loader_sized() else None
        if total:
            host.set_epoch_length(total)
        epoch = self.epoch
        overlapped = self.config.pipeline_depth > 1
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

        def stage(indexed) -> StagedItem:
            index, loaded = indexed
            if not overlapped:
                # Depth 1 keeps the classic order — load, wait for capacity,
                # *then* reserve and fill: the loaded batch (its items, on
                # the heap) passes through raw and is staged at publish time,
                # so no shared memory is held during waits and skipped
                # batches never touch the pool.
                return StagedItem(index=index, value=loaded)
            payload = pack_payload(index, loaded)
            return StagedItem(index=index, value=payload, segment_names=payload.segment_names)

        if source is None or source.all_miss:
            # No cache, or nothing cached yet (epoch 0): the classic path —
            # the full loader, with its own prefetch workers, feeds the
            # pipeline directly.
            loader_iter = self._open_loader_iter(collate=collate, batches=batches)
            if source is not None and total is not None:
                # Pin this sampler draw as THE composition future cached
                # epochs serve — hits and reloaded misses alike — so a
                # reshuffling sampler cannot skew per-epoch sample coverage.
                sampled = getattr(loader_iter, "sampled_batches", None)
                if sampled is not None:
                    self.cache.remember_composition(sampled)
            pipeline: Optional[StagePipeline] = self._make_pipeline(
                self._timed_source(enumerate(loader_iter)),
                stage,
                source_close=getattr(loader_iter, "close", None),
            )
            stream: Iterator[StagedItem] = iter(pipeline)
        elif source.full_replay:
            # Every batch is cached: the loader is never opened and no
            # pipeline runs; the epoch is pure republishing.
            pipeline = None
            stream = self._cached_item_stream(source, iter(()))
        else:
            # Partial cache: only the misses are loaded — through the
            # loader's own prefetch workers, from the composition the cache
            # was filled with — and staged; the hit stream interleaves with
            # them in batch-index order.
            misses, miss_close = source.open_misses(
                max_in_flight=self.config.pipeline_depth if overlapped else None,
                num_workers=self._pipeline_loader_workers() if overlapped else 0,
            )
            pipeline = self._make_pipeline(
                self._timed_source(misses), stage, source_close=miss_close
            )
            stream = self._cached_item_stream(source, iter(pipeline))
        try:
            for item in stream:
                if host.stopped:
                    self.release_staged(item)
                    break
                try:
                    host.wait_for_capacity()
                except SkipEpoch:
                    self.release_staged(item)
                    raise
                if host.stopped:
                    self.release_staged(item)
                    break
                active = host.active_consumer_ids()
                if not active:
                    # Nobody to serve right now (free-running mode, or the
                    # wait was cut short by stop()): skip this batch and
                    # return its staging hold, if it has one.
                    self.release_staged(item)
                    continue
                if isinstance(item.value, BatchPayload):
                    payload: BatchPayload = item.value
                else:
                    payload = pack_payload(item.index, item.value)
                    item.value = payload
                    item.segment_names = payload.segment_names
                if self.batcher is not None:
                    payload = self.with_slices(payload)
                host.publish(payload, active)
                if source is not None and not item.from_cache:
                    # Offer the freshly staged miss to the cache while the
                    # publish holds still pin its segments.
                    source.record(item.index, payload)
                if not host.retain_for_window(payload, item.index):
                    self.release_staged(item)
                self.batches_published_this_epoch = item.index + 1
                yield item.index + 1
        finally:
            if pipeline is not None:
                pipeline.close()
            if source is not None:
                self.cache.end_epoch()

    def _cached_item_stream(
        self, source: CachedEpochSource, miss_iter: Iterator[StagedItem]
    ) -> Iterator[StagedItem]:
        """Interleave cache hits with pipeline-staged misses in index order.

        A hit that was evicted between planning and use falls back to a
        synchronous load (passed on raw and staged at publish time like a
        depth-1 miss; uncollated when the misses are) so the epoch never
        loses a batch.
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
                    yield StagedItem(index=index, value=(batch, t_sampled, t_loaded))
                else:
                    # The cached entry's metadata dict is shared across
                    # replays; give the republished payload a fresh trace (a
                    # hit samples/loads/stages in one step) instead of
                    # mutating the shared dict.
                    _CACHE_REPLAYS.inc()
                    payload = dataclasses.replace(
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
                    yield StagedItem(
                        index=index,
                        value=payload,
                        segment_names=payload.segment_names,
                        from_cache=True,
                    )
            else:
                yield next(miss_iter)

    def __repr__(self) -> str:
        return (
            f"EpochRunner({self.identity!r}, epoch={self.epoch}, "
            f"loaded={self.batches_loaded})"
        )
