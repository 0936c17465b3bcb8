"""The epoch runner: one epoch's load → stage → publish loop, host-agnostic.

Historically the :class:`~repro.core.producer.TensorProducer` welded the
epoch-running machinery (loader iteration, the staged pipeline, cache-aware
interleaving, flexible-batch carving) to the connection machinery (consumer
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
* ``publish(payload, consumers, topic=...)`` — record the batch in the ack
  ledger, retain its segments per consumer, and send it;
* ``retain_for_window(payload, index)`` — offer the payload to the host's
  rubberband replay window (the host takes over the producer hold when it
  returns True);
* ``stopped`` / ``batch_size_for(consumer_id)`` / ``consumer_batch_sizes()``
  — the flow-control flag and the flexible-batching geometry sources.

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
from typing import Dict, Iterator, List, Mapping, Optional, Protocol, Tuple

from repro.cache import BatchCache, CachedEpochSource
from repro.core.flexible_batch import FlexibleBatcher, recommend_producer_batch_size
from repro.core.pipeline import StagedItem, StagePipeline
from repro.data.collate import plan_collate
from repro.obs import trace as obs_trace
from repro.obs.metrics import counter
from repro.tensor.payload import BatchPayload
from repro.tensor.shared_memory import SharedMemoryPool
from repro.tensor.tensor import Tensor

__all__ = ["EpochHost", "EpochRunner", "SkipEpoch", "staged_segment_names"]

#: Stall-attribution components (cumulative seconds) and volume counters.
_LOAD_SECONDS = counter("repro.producer.stall.load_seconds")
_STAGE_SECONDS = counter("repro.producer.stall.stage_seconds")
_BATCHES_LOADED = counter("repro.producer.batches_loaded")
_CACHE_REPLAYS = counter("repro.producer.cache_replays")


class SkipEpoch(Exception):
    """Signal from the host: abandon the current epoch (e.g. every consumer left)."""


def staged_segment_names(staged: Mapping[str, Tensor]) -> Tuple[str, ...]:
    """Unique segment names backing a staged batch (for hold accounting)."""
    return tuple(
        dict.fromkeys(
            tensor.segment.name for tensor in staged.values() if tensor.segment is not None
        )
    )


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

    def publish(
        self, payload: BatchPayload, consumers: List[str], *, topic: str = "broadcast"
    ) -> None:
        """Retain per-consumer holds, record the batch in the ledger, send it."""

    def retain_for_window(self, payload: BatchPayload, batch_index: int) -> bool:
        """Offer the payload to the host's replay window.

        Returns True when the host keeps the producer hold alive (the runner
        must then not release it).
        """

    def batch_size_for(self, consumer_id: str) -> Optional[int]:
        """The batch size a consumer announced, if any (flexible batching)."""

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
        #: Flexible-mode slice sequence number, reset every epoch.
        self.publish_seq = 0
        #: Total batches staged over the runner's lifetime.
        self.batches_loaded = 0
        #: The flexible batcher of the current epoch, if flexible mode is on.
        self.flexible: Optional[FlexibleBatcher] = None

    # ------------------------------------------------------------------ epoch lifecycle
    def begin_epoch(self, epoch: int) -> None:
        """Reset per-epoch counters (eagerly, before the lazy generator runs).

        Flexible-mode slice numbering restarts every epoch; without the
        reset, batch indices drift upward epoch over epoch.
        """
        self.epoch = epoch
        self.batches_published_this_epoch = 0
        self.publish_seq = 0

    def run(self, epoch: int) -> Iterator[int]:
        """One epoch's publish loop; yields running batch counts for progress."""
        self.epoch = epoch
        self._set_sampler_epoch(epoch)
        if self.config.flexible_batching:
            return self._run_epoch_flexible()
        return self._run_epoch_default()

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

    # ------------------------------------------------------------------ staging
    def _stage_batch(self, batch) -> Dict[str, Tensor]:
        """Put a loader batch into shared memory on the share device (step 2).

        One slab segment per batch — every tensor (data + labels) at an
        aligned offset of a single allocation, so the batch publishes as one
        handle — written by one copy per byte.  A list of uncollated items
        (see :meth:`_takes_items`) is collated straight into the reserved
        segment; an already-collated mapping (custom ``collate_fn``, flexible
        batching) is copied into it.

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

    def _timed_iter(self, source) -> Iterator:
        """Like :meth:`_timed_source` for a bare batch stream (flexible mode:
        indices are assigned after re-chunking, so only load time is kept)."""
        it = iter(source)
        while True:
            t_sampled = time.monotonic()
            try:
                batch = next(it)
            except StopIteration:
                return
            _LOAD_SECONDS.inc(time.monotonic() - t_sampled)
            yield batch

    # ------------------------------------------------------------------ pipeline plumbing
    def _pipeline_loader_workers(self) -> Optional[int]:
        """Loader worker threads the staged pipeline may use (None = loader default)."""
        if self.config.pipeline_workers is not None:
            return self.config.pipeline_workers
        if getattr(self.loader, "num_workers", 0):
            return None  # the loader already has its own workers; keep them
        return min(4, self.config.pipeline_depth)

    def _takes_items(self) -> bool:
        """Whether the default-mode epoch takes *uncollated* items off the loader.

        True when the loader assembles batches with ``default_collate``: the
        runner then asks for each batch's item list and collates it into the
        slab itself (:meth:`_stage_batch`), so a payload byte is copied once.
        Any other ``collate_fn`` runs in the loader and its result is copied.
        """
        return bool(getattr(self.loader, "uses_default_collate", False))

    def _open_loader_iter(self, *, collate: bool = True):
        """Start one epoch's iteration over the nested loader.

        With an overlapped pipeline the loader is asked for a prefetching
        iterator whose in-flight budget matches ``pipeline_depth``, so the
        pipeline's bound covers loader-internal prefetch too.
        """
        depth = self.config.pipeline_depth
        if depth > 1 and hasattr(self.loader, "prefetch_iter"):
            return self.loader.prefetch_iter(
                max_in_flight=depth,
                num_workers=self._pipeline_loader_workers(),
                collate=collate,
            )
        return iter(self.loader) if collate else self.loader.prefetch_iter(collate=False)

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

    # ------------------------------------------------------------------ default-mode epoch
    def _run_epoch_default(self) -> Iterator[int]:
        """Publish one epoch from a stream of already-staged payloads.

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
        total = len(self.loader) if self.loader_sized() else None
        epoch = self.epoch
        overlapped = self.config.pipeline_depth > 1
        collate = not self._takes_items()
        source = (
            CachedEpochSource(self.cache, self.loader, epoch=epoch, collate=collate)
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
            loader_iter = self._open_loader_iter(collate=collate)
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
                source.finish(
                    self.batches_published_this_epoch,
                    complete=total is not None
                    and self.batches_published_this_epoch == total,
                )

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

    # ------------------------------------------------------------------ flexible-mode epoch
    def _build_flexible_batcher(self) -> FlexibleBatcher:
        sizes = self.host.consumer_batch_sizes()
        if not sizes:
            raise RuntimeError(
                "flexible batching requires every active consumer to announce a batch size"
            )
        producer_batch = self.config.producer_batch_size or recommend_producer_batch_size(
            list(sizes.values())
        )
        return FlexibleBatcher(
            producer_batch,
            sizes,
            use_offsets=self.config.consumer_offsets,
            shuffle_slices=self.config.shuffle_slices,
            seed=self.config.seed,
        )

    def _run_epoch_flexible(self) -> Iterator[int]:
        host = self.host
        # Wait for at least one consumer before fixing producer-batch geometry.
        host.wait_for_capacity()
        self.flexible = self._build_flexible_batcher()

        # Flexible batching re-chunks the loader's sequential stream, so a
        # *partial* cache cannot serve selected producer batches — replay is
        # all-or-nothing.  A fully cached epoch with matching producer-batch
        # geometry replays straight from shared memory; anything less is
        # flushed (stale geometry or an incomplete epoch would pin segments
        # that can never be hits).
        if self.cache is not None:
            replay_len = self.cache.replayable_epoch_length(
                rows=self.flexible.producer_batch_size
            )
            if replay_len is not None:
                yield from self._replay_epoch_flexible(replay_len)
                return
            if len(self.cache):
                self.cache.clear()

        loader_iter = self._open_loader_iter()

        # With pipeline_depth > 1 this generator (and the staging below) runs
        # on the stage worker.  It only touches the batcher's accumulation
        # state (_carry, counters); the main thread touches only the slicing
        # side (add_consumer / carve / has_consumer read-modify
        # consumer_batch_sizes).  The two halves are disjoint, so no lock is
        # needed between them.
        def producer_batches():
            index = 0
            for batch in self._timed_iter(loader_iter):
                if host.stopped:
                    return
                for producer_batch in self.flexible.add_loader_batch(batch):
                    yield index, producer_batch
                    index += 1

        overlapped = self.config.pipeline_depth > 1

        def stage(indexed) -> StagedItem:
            index, producer_batch = indexed
            if not overlapped:
                # Depth 1: pass the producer batch through raw; staging
                # happens in _emit_staged_batch after the capacity wait and
                # active-consumer check, exactly like the classic loop.
                return StagedItem(index=index, value=producer_batch)
            staged = self._stage_batch(producer_batch)
            return StagedItem(
                index=index, value=staged, segment_names=staged_segment_names(staged)
            )

        pipeline = self._make_pipeline(
            producer_batches(), stage, source_close=getattr(loader_iter, "close", None)
        )
        producer_batch_index = 0
        completed = False
        try:
            for item in pipeline:
                if host.stopped:
                    self.release_staged(item)
                    break
                self._emit_staged_batch(item)
                producer_batch_index = item.index + 1
                yield producer_batch_index
            else:
                completed = not host.stopped
        finally:
            pipeline.close()
        self.batches_published_this_epoch = producer_batch_index
        if self.cache is not None and completed:
            # Replayable only if every producer batch actually stayed
            # resident (mark_epoch_complete re-verifies the index range).
            self.cache.mark_epoch_complete(producer_batch_index)

    def _replay_epoch_flexible(self, replay_len: int) -> Iterator[int]:
        """Serve one flexible epoch entirely from cached producer batches.

        Each staged producer batch is republished with a fresh producer hold
        (no loader, no stage worker, no copy) and carved into per-consumer
        slices by the regular emit path, which also returns the hold on every
        exit.
        """
        producer_batch_index = 0
        for index in range(replay_len):
            if self.host.stopped:
                break
            staged = self.cache.republish_staged(index)
            if staged is None:  # pragma: no cover - nothing evicts mid-replay
                raise RuntimeError(
                    f"cached producer batch {index} vanished during a full replay"
                )
            _CACHE_REPLAYS.inc()
            item = StagedItem(
                index=index,
                value=staged,
                segment_names=staged_segment_names(staged),
                from_cache=True,
            )
            self._emit_staged_batch(item)
            producer_batch_index = index + 1
            yield producer_batch_index
        self.batches_published_this_epoch = producer_batch_index

    def _emit_staged_batch(self, item: StagedItem) -> None:
        """Carve one already-staged producer batch into per-consumer slices.

        The staging hold travels with ``item``; the ``finally`` returns it on
        every exit path (publish, stop, skip-epoch) so an interrupted emit
        cannot leak its producer batch.  At ``pipeline_depth=1`` the item
        arrives raw and is staged here, after the capacity wait and
        active-consumer check (the classic order); early exits then never
        touch the pool.
        """
        host = self.host
        index = item.index
        try:
            host.wait_for_capacity()
            active = host.active_consumer_ids()
            if not active or host.stopped:
                return
            # Consumers admitted after the batcher was built get their own
            # slicing plan over the existing producer-batch geometry.
            for consumer_id in active:
                if not self.flexible.has_consumer(consumer_id):
                    batch_size = host.batch_size_for(consumer_id)
                    if batch_size:
                        self.flexible.add_consumer(consumer_id, int(batch_size))
            if not item.segment_names:  # raw item: stage now
                staged = self._stage_batch(item.value)
                item.value = staged
                item.segment_names = staged_segment_names(staged)
            staged = item.value
            staged_at = time.monotonic()
            for consumer_id in active:
                if not self.flexible.has_consumer(consumer_id):
                    continue
                slices = self.flexible.carve(staged, consumer_id, index)
                for slice_batch in slices:
                    host.wait_for_capacity()
                    if consumer_id not in host.active_consumer_ids():
                        break
                    self.publish_seq += 1
                    # Flexible slices are re-chunked from the loader stream,
                    # so per-slice sampled/loaded stamps do not exist; their
                    # lifecycle trace starts at the staging step.
                    payload = BatchPayload.pack(
                        slice_batch,
                        batch_index=self.publish_seq,
                        epoch=self.epoch,
                        producer_batch_id=index,
                        metadata={
                            "trace": {"staged": staged_at},
                            "trace_origin": obs_trace.origin(),
                        },
                    )
                    host.publish(payload, [consumer_id], topic=f"consumer/{consumer_id}")
            self.batches_published_this_epoch = index + 1
            if self.cache is not None and not item.from_cache:
                # Retain the whole staged producer batch (pre-carve) so a
                # repeat epoch can re-slice it for whatever consumers are
                # registered then.
                self.cache.record_miss()
                first = next(iter(staged.values()))
                self.cache.put(
                    index,
                    staged,
                    segment_names=item.segment_names,
                    nbytes=sum(t.nbytes for t in staged.values()),
                    rows=first.shape[0] if first.shape else 0,
                )
        finally:
            # The producer's own hold on the staged producer batch.
            self.release_staged(item)

    def __repr__(self) -> str:
        return (
            f"EpochRunner({self.identity!r}, epoch={self.epoch}, "
            f"loaded={self.batches_loaded})"
        )
