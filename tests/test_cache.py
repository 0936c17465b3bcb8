"""Tests for the budgeted epoch cache (repro.cache).

Covers the :class:`~repro.cache.BatchCache` policies and budget accounting,
the pool's cached-bytes bucket (disjoint from ``bytes_in_flight``), the
producer integration in both epoch runners (repeat epochs republished from
shared memory, partial caching, eviction fallbacks), the uniform
``stats()`` dicts, and cache-hold draining on every early-exit path
(stop, skip-epoch, consumer churn).
"""

import threading
import time

import pytest

import repro
from repro.cache import BatchCache, CachePolicy, CachedEpochSource
from repro.core import ConsumerConfig, ProducerConfig, TensorProducer
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
from repro.tensor import SharedMemoryPool
from repro.tensor.errors import SharedMemoryError
from repro.tensor.payload import BatchPayload


def small_loader(size=24, batch_size=4, image_size=8, num_workers=0):
    dataset = SyntheticImageDataset(size, image_size=image_size, payload_bytes=16)
    pipeline = Compose(
        [DecodeJpeg(height=image_size, width=image_size), Normalize(), ToTensor()]
    )
    return DataLoader(
        dataset, batch_size=batch_size, transform=pipeline, num_workers=num_workers
    )


def stage_batch(pool, n=64):
    """One staged single-segment payload of ``n`` float32 bytes*4."""
    tensor = pool.allocate_tensor((n,), "float32")
    return BatchPayload.pack({"x": tensor}, batch_index=0, epoch=0)


def assert_drained(session, timeout=5.0):
    """bytes_in_flight AND cached_bytes must reach zero BEFORE pool.shutdown()
    (which zeroes the accounting and would make the assertion vacuous)."""
    deadline = time.time() + timeout
    pool = session.pool
    while (pool.bytes_in_flight or pool.cached_bytes) and time.time() < deadline:
        time.sleep(0.02)
    assert pool.bytes_in_flight == 0
    assert pool.cached_bytes == 0
    assert pool.live_segments == 0


def run_consumers(session, n, max_epochs, results, stop_after=None, batch_size=None):
    def consume(name):
        kwargs = dict(consumer_id=name, max_epochs=max_epochs, receive_timeout=20)
        if batch_size is not None:
            kwargs["batch_size"] = batch_size
        consumer = session.consumer(ConsumerConfig(**kwargs))
        seen = []
        for batch in consumer:
            seen.append(tuple(batch["index"].tolist()))
            if stop_after is not None and len(seen) >= stop_after:
                break
        results[name] = seen
        consumer.close()

    threads = [
        threading.Thread(target=consume, args=(f"c{i}",)) for i in range(n)
    ]
    for thread in threads:
        thread.start()
    return threads


# ---------------------------------------------------------------------------
# Pool: cached-bytes accounting
# ---------------------------------------------------------------------------


class TestPoolCachedAccounting:
    def test_cache_hold_moves_bytes_between_buckets(self):
        pool = SharedMemoryPool()
        tensor = pool.allocate_tensor((16,), "float32")
        name = tensor.segment.name
        nbytes = 64
        assert pool.bytes_in_flight == nbytes and pool.cached_bytes == 0

        pool.retain_cached(name)
        assert pool.bytes_in_flight == 0 and pool.cached_bytes == nbytes

        # A consumer hold on a cached segment does not change buckets.
        pool.retain(name)
        assert pool.bytes_in_flight == 0 and pool.cached_bytes == nbytes

        # Last cache hold released while the consumer still reads: bytes
        # move back to in-flight.
        pool.release_cached(name)
        assert pool.bytes_in_flight == nbytes and pool.cached_bytes == 0
        assert pool.contains(name)

        pool.release(name)  # consumer hold
        pool.release(name)  # original producer hold; frees
        assert pool.bytes_in_flight == 0 and not pool.contains(name)

    def test_release_cached_frees_and_unlinks_eagerly(self):
        pool = SharedMemoryPool()
        tensor = pool.allocate_tensor((8,), "float32")
        name = tensor.segment.name
        pool.retain_cached(name)
        pool.release(name)  # producer hold gone; only the cache hold remains
        assert pool.cached_bytes == 32 and pool.bytes_in_flight == 0
        assert pool.release_cached(name) == 0
        assert not pool.contains(name)
        assert pool.cached_bytes == 0 and pool.bytes_in_flight == 0

    def test_plain_release_cannot_consume_cache_holds(self):
        pool = SharedMemoryPool()
        tensor = pool.allocate_tensor((8,), "float32")
        name = tensor.segment.name
        pool.retain_cached(name)
        pool.release(name)  # the producer hold
        with pytest.raises(SharedMemoryError):
            pool.release(name)  # only the cache hold is left
        assert pool.release_cached(name) == 0

    def test_release_cached_is_atomic_no_op_when_gone(self):
        pool = SharedMemoryPool()
        assert pool.release_cached("never-existed") is None

    def test_shutdown_zeroes_both_buckets(self):
        pool = SharedMemoryPool()
        a = pool.allocate_tensor((8,), "float32")
        pool.allocate_tensor((8,), "float32")
        pool.retain_cached(a.segment.name)
        pool.shutdown()
        assert pool.bytes_in_flight == 0 and pool.cached_bytes == 0


# ---------------------------------------------------------------------------
# BatchCache unit behaviour
# ---------------------------------------------------------------------------


class TestBatchCache:
    def test_policy_parse(self):
        assert CachePolicy.parse("ALL") is CachePolicy.ALL
        assert CachePolicy.parse(CachePolicy.LRU) is CachePolicy.LRU
        with pytest.raises(ValueError, match="unknown cache policy"):
            CachePolicy.parse("sometimes")

    def test_budget_required_for_partial_policies(self):
        pool = SharedMemoryPool()
        with pytest.raises(ValueError, match="byte budget"):
            BatchCache(pool, policy="lru")
        with pytest.raises(ValueError, match="positive"):
            BatchCache(pool, policy="mru", budget_bytes=0)

    def test_put_retains_and_republish_rekeys(self):
        pool = SharedMemoryPool()
        cache = BatchCache(pool, policy="all")
        payload = stage_batch(pool)
        name = payload.segment_names[0]
        assert cache.put(0, payload, segment_names=payload.segment_names,
                         nbytes=payload.tensor_nbytes)
        assert pool.cached_bytes == payload.tensor_nbytes
        # The producer drops its staging hold; the cache keeps the segment.
        pool.release(name)
        assert pool.contains(name)

        replayed = cache.republish(0, epoch=5, is_last_in_epoch=True)
        assert replayed is not None
        assert replayed.epoch == 5 and replayed.is_last_in_epoch
        assert replayed.segment_names == payload.segment_names
        assert pool.refcount(name) == 2  # cache hold + fresh producer hold
        pool.release(name)  # the republish hold
        assert cache.stats().hits == 1

        cache.clear()
        assert not pool.contains(name)
        assert pool.cached_bytes == 0

    def test_duplicate_put_only_bumps_recency(self):
        pool = SharedMemoryPool()
        cache = BatchCache(pool, policy="all")
        payload = stage_batch(pool)
        assert cache.put(0, payload, segment_names=payload.segment_names, nbytes=64)
        assert not cache.put(0, payload, segment_names=payload.segment_names, nbytes=64)
        assert pool.refcount(payload.segment_names[0]) == 2  # producer + ONE cache hold
        cache.clear()

    def test_lru_evicts_oldest_and_mru_rejects_newest(self):
        pool = SharedMemoryPool()
        payloads = [stage_batch(pool) for _ in range(4)]
        nbytes = payloads[0].tensor_nbytes

        lru = BatchCache(pool, policy="lru", budget_bytes=2 * nbytes)
        for i in range(3):
            lru.put(i, payloads[i], segment_names=payloads[i].segment_names, nbytes=nbytes)
        stats = lru.stats()
        assert stats.entries == 2 and stats.evictions == 1
        assert lru.republish(0, epoch=1) is None  # index 0 was the LRU victim
        assert lru.republish(2, epoch=1) is not None
        lru.clear()

        mru = BatchCache(pool, policy="mru", budget_bytes=2 * nbytes)
        for i in range(4):
            mru.put(i, payloads[i], segment_names=payloads[i].segment_names, nbytes=nbytes)
        stats = mru.stats()
        assert stats.entries == 2 and stats.evictions == 0 and stats.rejected_inserts == 2
        assert mru.republish(0, epoch=1) is not None  # the first-cached prefix stays
        assert mru.republish(3, epoch=1) is None
        mru.clear()
        for payload in payloads:
            name = payload.segment_names[0]
            while pool.release_if_present(name):
                pass
            pool.release_if_present(name)
        assert pool.cached_bytes == 0

    def test_unbudgeted_policies_reject_a_budget(self):
        pool = SharedMemoryPool()
        with pytest.raises(ValueError, match="takes no byte budget"):
            BatchCache(pool, policy="all", budget_bytes=1 << 20)
        with pytest.raises(ValueError, match="takes no byte budget"):
            BatchCache(pool, policy="none", budget_bytes=1 << 20)

    def test_planned_hits_protected_from_lru_eviction(self):
        """The cyclic-access thrash guard: this epoch's miss inserts must not
        evict the hits the epoch has planned but not served yet — otherwise a
        budgeted LRU degrades every hit to a fallback load forever."""
        pool = SharedMemoryPool()
        payloads = [stage_batch(pool) for _ in range(4)]
        nbytes = payloads[0].tensor_nbytes
        cache = BatchCache(pool, policy="lru", budget_bytes=2 * nbytes)
        for i in (0, 1):
            cache.put(i, payloads[i], segment_names=payloads[i].segment_names, nbytes=nbytes)

        cache.begin_epoch({0, 1})
        # Budget is full of protected entries: the insert is refused, not
        # satisfied by eating a planned hit.
        assert not cache.put(2, payloads[2], segment_names=payloads[2].segment_names,
                             nbytes=nbytes)
        assert cache.stats().rejected_inserts == 1
        assert cache.republish(0, epoch=1) is not None  # still there

        # Serving lifted index 0's protection; now it is fair game.
        assert cache.put(2, payloads[2], segment_names=payloads[2].segment_names,
                         nbytes=nbytes)
        assert cache.republish(0, epoch=1) is None      # evicted (served already)
        assert cache.republish(1, epoch=1) is not None  # protected hit survived
        cache.end_epoch()
        cache.clear()

    def test_oversized_entry_never_inserted(self):
        pool = SharedMemoryPool()
        cache = BatchCache(pool, policy="lru", budget_bytes=10)
        payload = stage_batch(pool)
        assert not cache.put(0, payload, segment_names=payload.segment_names, nbytes=64)
        assert cache.stats().rejected_inserts == 1
        assert pool.cached_bytes == 0

    def test_eviction_with_no_other_holds_unlinks(self):
        pool = SharedMemoryPool()
        cache = BatchCache(pool, policy="lru", budget_bytes=64)
        first = stage_batch(pool, n=16)
        second = stage_batch(pool, n=16)
        cache.put(0, first, segment_names=first.segment_names, nbytes=64)
        pool.release(first.segment_names[0])  # staging hold gone; cache-only
        cache.put(1, second, segment_names=second.segment_names, nbytes=64)
        assert not pool.contains(first.segment_names[0])  # evicted → unlinked eagerly
        cache.clear()

    def test_plan_epoch_serves_cached_indices_below_the_epoch_length(self):
        pool = SharedMemoryPool()
        cache = BatchCache(pool, policy="all")
        for i in (0, 1, 3):
            payload = stage_batch(pool, n=8)
            cache.put(i, payload, segment_names=payload.segment_names, nbytes=32)
        assert cache.plan_epoch(3) == {0, 1}
        assert cache.plan_epoch(None) == frozenset()
        cache.clear()


# ---------------------------------------------------------------------------
# Config and API surface
# ---------------------------------------------------------------------------


class TestCacheConfig:
    def test_policy_validated_at_construction(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            ProducerConfig(cache_policy="banana")
        with pytest.raises(ValueError, match="requires cache_bytes"):
            ProducerConfig(cache_policy="lru")
        with pytest.raises(ValueError, match="positive"):
            ProducerConfig(cache_policy="all", cache_bytes=-1)
        with pytest.raises(ValueError, match="takes no cache_bytes"):
            ProducerConfig(cache_policy="all", cache_bytes=1 << 20)
        with pytest.raises(ValueError, match="takes no cache_bytes"):
            ProducerConfig(cache_policy="none", cache_bytes=1 << 20)
        assert ProducerConfig(cache_policy="mru", cache_bytes=1 << 20).cache_bytes == 1 << 20

    def test_serve_cache_alias(self):
        session = repro.serve(
            small_loader(), address="inproc://cache-alias", cache="all", start=False
        )
        try:
            assert session.producer.cache is not None
            assert session.producer.cache.policy is CachePolicy.ALL
        finally:
            session.shutdown()

    def test_serve_rejects_cache_and_cache_policy_together(self):
        with pytest.raises(TypeError, match="not both"):
            repro.serve(
                small_loader(),
                address="inproc://cache-dup",
                cache="all",
                cache_policy="lru",
                start=False,
            )

    def test_producer_without_cache_has_none(self):
        producer = TensorProducer(small_loader())
        try:
            assert producer.cache is None
            metrics = producer.metrics()
            assert metrics["repro.cache"]["policy"] == "none"
            assert metrics["repro.cache"]["hits"] == 0
        finally:
            producer.join(timeout=0.1)


# ---------------------------------------------------------------------------
# Producer integration: default runner
# ---------------------------------------------------------------------------


class TestCachedEpochs:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_repeat_epochs_skip_the_loader(self, depth):
        session = repro.serve(
            small_loader(),
            address=f"inproc://cache-epochs-{depth}",
            epochs=3,
            cache="all",
            pipeline_depth=depth,
            start=False,
        )
        results = {}
        threads = run_consumers(session, 2, 3, results)
        time.sleep(0.2)
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

        metrics = session.metrics()
        assert metrics["repro.producer.batches_loaded"] == 6  # epoch 0 only
        assert metrics["repro.producer.publishes"] == 18  # 3 epochs broadcast
        assert metrics["repro.cache"]["misses"] == 6
        assert metrics["repro.cache"]["hits"] == 12
        assert metrics["repro.cache"]["insertions"] == 6
        for seen in results.values():
            assert len(seen) == 18
            assert seen[:6] == seen[6:12] == seen[12:18]  # replay is identical
        assert_drained(session)
        session.shutdown()
        assert session.pool.bytes_in_flight == 0
        assert session.pool.cached_bytes == 0

    def test_partial_mru_cache_serves_prefix_and_loads_tail(self):
        loader = small_loader()
        probe = repro.serve(loader, address="inproc://cache-probe", start=False)
        probe.shutdown()
        # Budget for exactly half the epoch (6 batches of identical size).
        batch_nbytes = None
        pool = SharedMemoryPool()
        staged = {
            name: pool.share_tensor(tensor)
            for name, tensor in next(iter(loader)).items()
        }
        batch_nbytes = sum(t.nbytes for t in staged.values())
        pool.shutdown()

        session = repro.serve(
            small_loader(),
            address="inproc://cache-partial",
            epochs=2,
            cache="mru",
            cache_bytes=3 * batch_nbytes,
            start=False,
        )
        results = {}
        threads = run_consumers(session, 1, 2, results)
        time.sleep(0.2)
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        metrics = session.metrics()
        # Epoch 0 loads all 6; epoch 1 hits the cached prefix of 3.
        assert metrics["repro.producer.batches_loaded"] == 9
        assert metrics["repro.cache"]["hits"] == 3
        assert metrics["repro.cache"]["rejected_inserts"] >= 3
        assert results["c0"][:6] == results["c0"][6:12]
        assert_drained(session)
        session.shutdown()

    def test_budgeted_lru_produces_hits_across_epochs(self):
        """End-to-end thrash regression: with a half-epoch LRU budget, repeat
        epochs must actually hit the cache (the unprotected policy evicted
        every planned hit before serving it — zero hits forever)."""
        # 6 batches/epoch of identical size; budget fits 3.
        pool = SharedMemoryPool()
        loader = small_loader()
        staged = {
            name: pool.share_tensor(tensor)
            for name, tensor in next(iter(loader)).items()
        }
        batch_nbytes = sum(t.nbytes for t in staged.values())
        pool.shutdown()

        session = repro.serve(
            small_loader(),
            address="inproc://cache-lru-hits",
            epochs=3,
            cache="lru",
            cache_bytes=3 * batch_nbytes,
            start=False,
        )
        results = {}
        threads = run_consumers(session, 1, 3, results)
        time.sleep(0.2)
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        metrics = session.metrics()
        assert metrics["repro.cache"]["hits"] >= 6  # 3 planned hits per repeat epoch
        assert metrics["repro.producer.batches_loaded"] < 18  # strictly better than no cache
        assert results["c0"][:6] == results["c0"][6:12] == results["c0"][12:18]
        assert_drained(session)
        session.shutdown()

    def test_consumer_sees_correct_epoch_keys_on_replay(self):
        """Replayed payloads are re-keyed: (epoch, index) acks stay unique."""
        session = repro.serve(
            small_loader(size=8, batch_size=4),
            address="inproc://cache-rekey",
            epochs=3,
            cache="all",
            start=False,
        )
        epochs_seen = []
        def consume():
            consumer = session.consumer(
                ConsumerConfig(consumer_id="rk", max_epochs=3, receive_timeout=20)
            )
            for payload in consumer:
                pass
            epochs_seen.append(consumer.epochs_seen)
            assert consumer.duplicates_dropped == 0
            consumer.close()
        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.2)
        session.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert epochs_seen == [3]
        assert_drained(session)
        session.shutdown()


# ---------------------------------------------------------------------------
# Producer integration: flexible runner
# ---------------------------------------------------------------------------


class TestFlexibleCachedEpochs:
    def test_flexible_full_replay(self):
        session = repro.serve(
            small_loader(),
            address="inproc://cache-flex",
            epochs=3,
            cache="all",
            flexible_batching=True,
            producer_batch_size=8,
            start=False,
        )
        results = {}
        threads = run_consumers(session, 2, 3, results, batch_size=4)
        time.sleep(0.2)
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        metrics = session.metrics()
        assert metrics["repro.producer.batches_loaded"] == 3  # 3 producer batches, epoch 0 only
        assert metrics["repro.cache"]["hits"] == 6  # replayed twice
        for seen in results.values():
            assert len(seen) == 18              # 6 slices per epoch per consumer
            assert seen[:6] == seen[6:12] == seen[12:18]
        assert_drained(session)
        session.shutdown()

    def test_flexible_flushes_cache_on_geometry_change(self):
        # Epoch 0 is cut at 8 for a batch-4 consumer; a batch-16 consumer
        # joining during it waits for epoch 1, which is cut at 32.  Epoch 1
        # is not served from batches cut at 8; epoch 2 replays epoch 1.
        session = repro.serve(
            small_loader(),
            address="inproc://cache-flex-geometry",
            epochs=3,
            cache="all",
            flexible_batching=True,
            start=False,
        )
        results = {}

        def train_small():
            consumer = session.consumer(
                ConsumerConfig(consumer_id="small", batch_size=4, max_epochs=3, receive_timeout=20)
            )
            seen = []
            for batch in consumer:
                if not seen:
                    large = session.consumer(
                        ConsumerConfig(
                            consumer_id="large", batch_size=16, max_epochs=2, receive_timeout=20
                        )
                    )
                    assert large.wait_until_registered() == 1
                    joiner = threading.Thread(target=train_large, args=(large,))
                    joiner.start()
                seen.append(tuple(batch["index"].tolist()))
            results["small"] = seen
            consumer.close()
            joiner.join(timeout=30)

        def train_large(consumer):
            results["large"] = [tuple(batch["index"].tolist()) for batch in consumer]
            consumer.close()

        thread = threading.Thread(target=train_small)
        thread.start()
        time.sleep(0.2)
        session.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        session.raise_producer_error()
        metrics = session.metrics()
        assert metrics["repro.producer.batches_loaded"] == 3 + 1
        assert metrics["repro.cache"]["hits"] == 1
        assert [len(batch) for batch in results["small"]] == [4] * 18
        # One producer batch of 24 rows per epoch: 16 rows, then 8 wrapping to 8 more.
        assert [len(batch) for batch in results["large"]] == [16] * 4
        for epoch in range(3):
            rows = results["small"][6 * epoch : 6 * epoch + 6]
            assert sorted(i for batch in rows for i in batch) == list(range(24))
        assert_drained(session)
        session.shutdown()


# ---------------------------------------------------------------------------
# Early-exit paths drain cache holds
# ---------------------------------------------------------------------------


class TestCacheDrains:
    def test_stop_mid_epoch_drains_cache_holds(self):
        session = repro.serve(
            small_loader(size=64, batch_size=4),
            address="inproc://cache-stop",
            epochs=None,
            cache="all",
            pipeline_depth=3,
            start=False,
        )
        results = {}
        threads = run_consumers(session, 1, 1, results, stop_after=5)
        time.sleep(0.2)
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        assert session.pool.cached_bytes > 0  # the cache really was filling
        session.producer.stop()
        session.shutdown()
        assert session.pool.bytes_in_flight == 0
        assert session.pool.cached_bytes == 0
        assert session.pool.live_segments == 0

    def test_consumer_churn_with_cache(self):
        session = repro.serve(
            small_loader(size=32, batch_size=4),
            address="inproc://cache-churn",
            epochs=3,
            cache="all",
            start=False,
        )
        results = {}
        # One consumer leaves after 3 batches, the other rides all 3 epochs.
        leaver = run_consumers(session, 1, 3, results, stop_after=3)
        def stayer():
            consumer = session.consumer(
                ConsumerConfig(consumer_id="stay", max_epochs=3, receive_timeout=20)
            )
            results["stay"] = [tuple(b["index"].tolist()) for b in consumer]
            consumer.close()
        stay_thread = threading.Thread(target=stayer)
        stay_thread.start()
        time.sleep(0.2)
        session.start()
        for thread in leaver + [stay_thread]:
            thread.join(timeout=30)
        assert not stay_thread.is_alive()
        assert len(results["stay"]) == 24  # 8 batches x 3 epochs
        assert results["stay"][:8] == results["stay"][8:16]
        assert_drained(session)
        session.shutdown()
        assert session.pool.cached_bytes == 0

    def test_skip_epoch_with_cache_drains(self):
        """All consumers leave mid-epoch while a newcomer waits: the epoch is
        abandoned; staged, cached and window holds must all be returned."""
        session = repro.serve(
            small_loader(size=48, batch_size=4),
            address="inproc://cache-skip",
            epochs=2,
            cache="all",
            pipeline_depth=2,
            rubberband_fraction=0.0,  # newcomers always wait for next epoch
            start=False,
        )
        results = {}
        early = run_consumers(session, 1, 2, results, stop_after=3)
        time.sleep(0.2)
        session.start()
        for thread in early:
            thread.join(timeout=30)
        # Now a late consumer arrives; the current epoch has nobody active.
        late_results = {}
        def late():
            consumer = session.consumer(
                ConsumerConfig(consumer_id="late", max_epochs=1, receive_timeout=20)
            )
            late_results["late"] = [tuple(b["index"].tolist()) for b in consumer]
            consumer.close()
        late_thread = threading.Thread(target=late)
        late_thread.start()
        late_thread.join(timeout=30)
        assert not late_thread.is_alive()
        assert len(late_results["late"]) == 12
        assert_drained(session)
        session.shutdown()
        assert session.pool.bytes_in_flight == 0
        assert session.pool.cached_bytes == 0


# ---------------------------------------------------------------------------
# CachedEpochSource
# ---------------------------------------------------------------------------


class TestCachedEpochSource:
    def test_plan_and_miss_source_loads_only_misses(self):
        pool = SharedMemoryPool()
        cache = BatchCache(pool, policy="all")
        loader = small_loader(size=16, batch_size=4)

        # Pre-fill indices 0 and 2 as if epoch 0 had cached them.
        for index in (0, 2):
            staged = {
                name: pool.share_tensor(tensor)
                for name, tensor in loader._load_batch(list(loader.batch_sampler)[index]).items()
            }
            payload = BatchPayload.pack(staged, batch_index=index, epoch=0)
            cache.put(index, payload, segment_names=payload.segment_names,
                      nbytes=payload.tensor_nbytes)

        source = CachedEpochSource(cache, loader, epoch=1)
        assert source.plan == {0, 2}
        assert not source.all_miss and not source.full_replay
        assert source.miss_indices() == [1, 3]
        missed_iter, close = source.open_misses(num_workers=0)
        missed = list(missed_iter)
        if close is not None:
            close()
        assert [index for index, _ in missed] == [1, 3]
        # Miss batches carry the right samples for their epoch positions.
        assert missed[0][1]["index"].tolist() == [4, 5, 6, 7]

        hit = source.hit(0)
        assert hit is not None and hit.epoch == 1
        for name in hit.segment_names:
            pool.release(name)  # the republish hold
        cache.clear()
        pool.shutdown()

    def test_partial_cache_pins_composition_under_shuffle(self):
        """A reshuffling sampler must not skew per-epoch sample coverage:
        misses of a partially cached epoch reload the composition of the
        epoch that filled the cache, so each epoch still covers every sample
        exactly once (the replay semantics, not a hit/miss mixture of two
        different permutations)."""
        dataset = SyntheticImageDataset(24, image_size=8, payload_bytes=16)
        pipeline = Compose([DecodeJpeg(height=8, width=8), Normalize(), ToTensor()])
        loader = DataLoader(dataset, batch_size=4, transform=pipeline, shuffle=True, seed=11)
        batch_nbytes = None
        pool = SharedMemoryPool()
        staged = {
            name: pool.share_tensor(tensor) for name, tensor in next(iter(loader)).items()
        }
        batch_nbytes = sum(t.nbytes for t in staged.values())
        pool.shutdown()

        session = repro.serve(
            loader,
            address="inproc://cache-shuffle",
            epochs=3,
            cache="mru",
            cache_bytes=3 * batch_nbytes,  # half the epoch
            start=False,
        )
        results = {}
        threads = run_consumers(session, 1, 3, results)
        time.sleep(0.2)
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        epochs = [results["c0"][i * 6 : (i + 1) * 6] for i in range(3)]
        for seen in epochs:
            flattened = sorted(i for batch in seen for i in batch)
            assert flattened == list(range(24))  # full coverage, no dupes
        # Cached-era epochs replay the filling epoch's composition exactly.
        assert epochs[1] == epochs[0] and epochs[2] == epochs[0]
        metrics = session.metrics()
        assert metrics["repro.cache"]["hits"] >= 6
        assert_drained(session)
        session.shutdown()

    def test_partial_cache_misses_use_loader_workers(self):
        """Miss loading of a partially cached epoch goes through the loader's
        prefetch machinery (bounded, parallel), not blocking per-batch loads
        on the stage worker."""
        pool = SharedMemoryPool()
        cache = BatchCache(pool, policy="all")
        loader = small_loader(size=32, batch_size=4, num_workers=2)
        for index in (0, 1):
            staged = {
                name: pool.share_tensor(tensor)
                for name, tensor in loader._load_batch(
                    list(loader.batch_sampler)[index]
                ).items()
            }
            payload = BatchPayload.pack(staged, batch_index=index, epoch=0)
            cache.put(index, payload, segment_names=payload.segment_names,
                      nbytes=payload.tensor_nbytes)
        source = CachedEpochSource(cache, loader, epoch=1)
        misses, close = source.open_misses(max_in_flight=3, num_workers=2)
        first_index, first_batch = next(iter(misses))
        assert first_index == 2
        assert first_batch["index"].tolist() == [8, 9, 10, 11]
        assert close is not None
        close()
        cache.clear()
        pool.shutdown()

    def test_unsized_loader_plans_nothing(self):
        pool = SharedMemoryPool()
        cache = BatchCache(pool, policy="all")

        class Unsized:
            def __iter__(self):
                return iter(())

        source = CachedEpochSource(cache, Unsized(), epoch=1)
        assert source.total is None
        assert source.all_miss
