"""The slab allocator: per-owner reuse, generations/ABA, bounds, quotas.

``SharedMemoryPool`` recycles freed segments through their owner's free list
(same name, bumped generation) and packs a whole batch into one segment.
These tests pin down the allocator's contracts:

* an owner (tenant, or ``None``) has one slab size, which only grows; a
  smaller batch takes a full-size slab, a larger one unlinks the free slabs
  it outgrew,
* steady-state allocation creates zero new segments once the list is warm,
  and a serving session creates a slab only when every slab it has is live,
* a (name, generation) handle packed before a recycle is *rejected* — it
  must never alias the segment's new occupant (the ABA hazard),
* free slabs are unlinked when their owner goes and drain to zero on
  shutdown,
* tenant quotas charge live bytes only, and a tenant's free slab is never
  handed to another tenant,
* cache holds pin the generation until the last hold is gone,
* ``share_batch`` lays every tensor of a batch into one aligned segment.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

import repro
from repro.core import ConsumerConfig
from repro.tensor import (
    BatchPayload,
    PayloadError,
    QuotaExceededError,
    SharedMemoryPool,
    TensorPayload,
    from_numpy,
)
from repro.tensor import shared_memory
from repro.tensor.errors import StaleHandleError
from repro.tensor.shared_memory import _SLAB_ALIGN, _SLAB_HEADER_SIZE


@pytest.fixture
def pool():
    pool = SharedMemoryPool()
    yield pool
    pool.shutdown()


# ---------------------------------------------------------------------------
# segment reuse
# ---------------------------------------------------------------------------


class TestSegmentReuse:
    def test_freed_segment_is_recycled_with_same_name(self, pool):
        first = pool.allocate_tensor((8,), "float32")
        name = first.segment.name
        assert first.segment.generation == 1
        pool.release(name)
        second = pool.allocate_tensor((8,), "float32")
        assert second.segment.name == name
        assert second.segment.generation == 2
        assert pool.segment_reuse_hits == 1
        assert pool.segments_created == 1

    def test_steady_state_creates_no_new_segments(self, pool):
        for _ in range(20):
            tensor = pool.allocate_tensor((64, 4), "float32")
            pool.release(tensor.segment.name)
        assert pool.segments_created == 1
        assert pool.segment_reuse_hits == 19
        assert pool.segment_reuse_misses == 1
        assert pool.mmap_total == 1

    def test_larger_class_fallback_within_2x(self, pool):
        big = pool.allocate_tensor((8192,), "uint8")
        big_name = big.segment.name
        pool.release(big_name)
        # A smaller batch takes the owner's (larger) slab.
        fallback = pool.allocate_tensor((4097,), "uint8")
        assert fallback.segment.name == big_name
        assert pool.segment_reuse_hits == 1

    def test_reuse_pops_warmest_segment_first(self, pool):
        a = pool.allocate_tensor((8,), "float32")
        b = pool.allocate_tensor((8,), "float32")
        a_name, b_name = a.segment.name, b.segment.name
        pool.release(a_name)
        pool.release(b_name)  # freed last -> warmest -> reused first
        assert pool.allocate_tensor((8,), "float32").segment.name == b_name

    def test_accounting_charges_logical_bytes_not_class_capacity(self, pool):
        tensor = pool.allocate_tensor((4, 4), "float32")  # 64 logical bytes
        assert pool.bytes_in_flight == 64
        pool.release(tensor.segment.name)
        assert pool.bytes_in_flight == 0
        # The free list holds the real segment (aligned capacity + header).
        assert pool.free_bytes == 64 + _SLAB_HEADER_SIZE


# ---------------------------------------------------------------------------
# generations / ABA
# ---------------------------------------------------------------------------


class TestGenerationABA:
    def test_stale_handle_rejected_after_recycle(self, pool):
        victim = pool.allocate_tensor((8,), "float32")
        victim.numpy()[...] = 1.0
        payload = TensorPayload.from_shared(victim)
        assert payload.generation == 1
        name = victim.segment.name
        pool.release(name)
        attacker = pool.allocate_tensor((8,), "float32")
        assert attacker.segment.name == name  # recycled: same name, new bytes
        attacker.numpy()[...] = 666.0
        with pytest.raises(PayloadError, match="recycled"):
            payload.unpack(pool)

    def test_stale_generation_raises_stale_handle_error(self, pool):
        tensor = pool.allocate_tensor((8,), "float32")
        name = tensor.segment.name
        pool.release(name)
        pool.allocate_tensor((8,), "float32")
        with pytest.raises(StaleHandleError):
            pool.attach(name, (8,), "float32", offset=_SLAB_HEADER_SIZE, generation=1)

    def test_current_generation_attaches_fine(self, pool):
        tensor = pool.allocate_tensor((8,), "float32")
        pool.release(tensor.segment.name)
        recycled = pool.allocate_tensor((8,), "float32")
        recycled.numpy()[...] = 3.0
        rebuilt = TensorPayload.from_shared(recycled).unpack(pool)
        assert rebuilt.numpy().sum() == 24.0

    def test_attach_by_name_validates_against_slab_header(self):
        # Two pools sharing the inproc registry model producer + consumer
        # processes: the consumer-side check reads the segment's in-band
        # header, not the producer pool's books.
        producer = SharedMemoryPool()
        consumer = SharedMemoryPool(attach_by_name=True)
        try:
            tensor = producer.allocate_tensor((8,), "float32")
            tensor.numpy()[...] = 7.0
            payload = TensorPayload.from_shared(tensor)
            assert payload.unpack(consumer).numpy().sum() == 56.0
            producer.release(tensor.segment.name)
            producer.allocate_tensor((8,), "float32")  # recycle bumps header
            with pytest.raises(PayloadError, match="recycled"):
                payload.unpack(consumer)
        finally:
            consumer.shutdown()
            producer.shutdown()

    def test_payload_generation_survives_dict_roundtrip(self, pool):
        payload = TensorPayload.from_shared(pool.allocate_tensor((4,)))
        assert TensorPayload.from_dict(payload.to_dict()).generation == 1

    def test_batch_payload_exposes_handles(self, pool):
        staged = pool.share_batch(
            {
                "x": from_numpy(np.ones((4, 2), dtype=np.float32)),
                "y": from_numpy(np.zeros(4, dtype=np.int64)),
            }
        )
        payload = BatchPayload.pack(staged, batch_index=0, epoch=0)
        assert len(payload.segment_handles) == 1
        ((name, generation),) = payload.segment_handles
        assert name == staged["x"].segment.name
        assert generation == 1


# ---------------------------------------------------------------------------
# free-list bounds: one growing slab size per owner, owners going, shutdown
# ---------------------------------------------------------------------------


class TestFreeListBounds:
    def test_a_larger_batch_grows_the_slab_and_unlinks_outgrown_slabs(self, pool):
        small = pool.allocate_tensor((8,), "float32")
        live_small = pool.allocate_tensor((8,), "float32")
        pool.release(small.segment.name)
        assert pool.free_segments == 1
        big = pool.allocate_tensor((1000,), "float32")  # 4000 -> 4032 aligned
        assert pool.free_segments == 0  # the outgrown free slab is unlinked
        assert big.segment.size == _SLAB_HEADER_SIZE + 4032
        pool.release(live_small.segment.name)  # outgrown while live: unlinked
        assert pool.free_segments == 0 and pool.free_bytes == 0
        # A small batch now takes a full-size slab.
        again = pool.allocate_tensor((8,), "float32")
        assert again.segment.size == _SLAB_HEADER_SIZE + 4032
        pool.release(big.segment.name)
        pool.release(again.segment.name)
        assert pool.free_bytes == 2 * (_SLAB_HEADER_SIZE + 4032)

    def test_tenant_shutdown_unlinks_only_its_own_free_slabs(self, pool):
        a = pool.tenant_view("team-x", quota_bytes=1 << 20)
        b = pool.tenant_view("team-y")
        freed_a = a.allocate_tensor((8,), "float32")
        live_a = a.allocate_tensor((8,), "float32")
        freed_b = b.allocate_tensor((8,), "float32")
        pool.release(freed_a.segment.name)
        pool.release(freed_b.segment.name)
        assert pool.free_segments == 2
        a.shutdown()
        assert pool.free_segments == 1  # b's slab stays warm
        assert a.quota_bytes == 1 << 20  # the quota outlives the view
        pool.release(live_a.segment.name)  # its owner is gone: unlinked
        assert pool.free_segments == 1
        assert b.allocate_tensor((8,), "float32").segment.name == freed_b.segment.name

    def test_drop_tenant_unlinks_its_free_slabs(self, pool):
        view = pool.tenant_view("team-z")
        pool.release(view.allocate_tensor((8,), "float32").segment.name)
        assert pool.free_bytes > 0
        assert pool.drop_tenant("team-z") == 0
        assert pool.free_bytes == 0 and pool.free_segments == 0

    def test_racing_owners_keep_the_books_and_leak_no_segment(self, pool):
        """More threads than cores over three owners and two batch sizes,
        with a short switch interval: every free slab is of its owner's
        final size, ``free_bytes`` is their sum, and shutdown unlinks every
        segment the run created."""
        owners = [pool, pool.tenant_view("team-r1"), pool.tenant_view("team-r2")]
        seen, errors = set(), []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    owner = owners[rng.integers(len(owners))]
                    held = [
                        owner.allocate_tensor((int(rng.choice([8, 1000])),), "float32")
                        for _ in range(2)
                    ]
                    for tensor in held:
                        seen.add(tensor.segment.name)
                        pool.release(tensor.segment.name)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert pool.live_segments == 0 and pool.bytes_in_flight == 0
        sizes = [
            (segment.size, _SLAB_HEADER_SIZE + pool._slab_sizes[owner])
            for owner, free in pool._free.items()
            for segment in free
        ]
        assert all(size == wanted for size, wanted in sizes)
        assert pool.free_bytes == sum(size for size, _ in sizes)
        pool.shutdown()
        assert not seen & set(shared_memory._INPROC_REGISTRY)

    def test_shutdown_drains_free_bytes(self):
        pool = SharedMemoryPool()
        tensor = pool.allocate_tensor((8,), "float32")
        pool.release(tensor.segment.name)
        assert pool.free_bytes > 0
        pool.shutdown()
        assert pool.free_bytes == 0
        assert pool.bytes_in_flight == 0
        assert pool.cached_bytes == 0


# ---------------------------------------------------------------------------
# tenant quotas vs free-listed bytes
# ---------------------------------------------------------------------------


class TestTenantQuotaAccounting:
    def test_free_listed_bytes_are_not_charged_to_the_tenant(self, pool):
        view = pool.tenant_view("team-a", quota_bytes=1 << 20)
        tensor = view.allocate_tensor((1024,), "uint8")
        assert view.bytes_used == 1024
        pool.release(tensor.segment.name)
        assert view.bytes_used == 0  # charge ends at free time...
        assert pool.free_bytes > 0  # ...even though the segment is retained

    def test_freed_quota_headroom_is_immediately_reusable(self, pool):
        view = pool.tenant_view("team-b", quota_bytes=1024)
        first = view.allocate_tensor((1024,), "uint8")
        with pytest.raises(QuotaExceededError):
            view.allocate_tensor((1024,), "uint8")
        pool.release(first.segment.name)
        second = view.allocate_tensor((1024,), "uint8")
        # The recycled segment: quota headroom came back with the free.
        assert second.segment.name == first.segment.name

    def test_a_tenants_free_slab_is_never_handed_to_another(self, pool):
        a = pool.tenant_view("team-c", quota_bytes=1 << 20)
        b = pool.tenant_view("team-d", quota_bytes=1 << 20)
        tensor = a.allocate_tensor((512,), "uint8")
        pool.release(tensor.segment.name)
        other = b.allocate_tensor((512,), "uint8")
        assert other.segment.name != tensor.segment.name
        assert pool.segments_created == 2
        assert a.bytes_used == 0
        assert b.bytes_used == 512
        # ...while the tenant that freed it gets its own slab back.
        assert a.allocate_tensor((512,), "uint8").segment.name == tensor.segment.name

    def test_share_batch_charges_tenant_once(self, pool):
        view = pool.tenant_view("team-e", quota_bytes=4096)
        staged = view.share_batch(
            {
                "x": from_numpy(np.ones(256, dtype=np.uint8)),
                "y": from_numpy(np.ones(256, dtype=np.uint8)),
            }
        )
        assert view.bytes_used == 512
        (name,) = {t.segment.name for t in staged.values()}
        pool.release(name)
        assert view.bytes_used == 0


# ---------------------------------------------------------------------------
# cache holds pin the generation
# ---------------------------------------------------------------------------


class TestCacheHoldPinsGeneration:
    def test_recycle_blocked_while_cache_hold_lives(self, pool):
        tensor = pool.allocate_tensor((8,), "float32")
        tensor.numpy()[...] = 2.0
        payload = TensorPayload.from_shared(tensor)
        name = tensor.segment.name
        pool.retain_cached(name)
        pool.release(name)  # producer hold gone; cache hold keeps it live
        assert pool.generation(name) == 1
        assert payload.unpack(pool).numpy().sum() == 16.0  # handle still valid
        # A same-class allocation cannot steal the pinned segment.
        other = pool.allocate_tensor((8,), "float32")
        assert other.segment.name != name
        pool.release_cached(name)  # last hold: now it recycles
        recycled = pool.allocate_tensor((8,), "float32")
        assert recycled.segment.name == name
        assert recycled.segment.generation == 2
        with pytest.raises(PayloadError, match="recycled"):
            payload.unpack(pool)


# ---------------------------------------------------------------------------
# single-segment batch packing
# ---------------------------------------------------------------------------


class TestShareBatch:
    def test_batch_lands_in_one_segment_at_aligned_offsets(self, pool):
        staged = pool.share_batch(
            {
                "inputs": from_numpy(np.arange(24, dtype=np.float32).reshape(8, 3)),
                "targets": from_numpy(np.arange(8, dtype=np.int64)),
            }
        )
        segments = {t.segment.name for t in staged.values()}
        assert len(segments) == 1
        assert pool.live_segments == 1
        for tensor in staged.values():
            assert tensor.segment_offset % _SLAB_ALIGN == 0
            assert tensor.segment_offset >= _SLAB_HEADER_SIZE
        np.testing.assert_array_equal(
            staged["inputs"].numpy(), np.arange(24, dtype=np.float32).reshape(8, 3)
        )
        np.testing.assert_array_equal(
            staged["targets"].numpy(), np.arange(8, dtype=np.int64)
        )

    def test_packed_batch_payload_has_one_handle_and_unpacks(self, pool):
        staged = pool.share_batch(
            {
                "inputs": from_numpy(np.ones((4, 4), dtype=np.float32)),
                "targets": from_numpy(np.zeros(4, dtype=np.int64)),
            }
        )
        payload = BatchPayload.pack(staged, batch_index=1, epoch=0)
        assert len(payload.segment_names) == 1
        rebuilt = payload.unpack(pool)
        assert rebuilt["inputs"].shares_memory_with(staged["inputs"])
        assert rebuilt["targets"].shares_memory_with(staged["targets"])

    def test_batch_accounting_is_logical_sum(self, pool):
        pool.share_batch(
            {
                "x": from_numpy(np.zeros(100, dtype=np.uint8)),
                "y": from_numpy(np.zeros(10, dtype=np.uint8)),
            }
        )
        assert pool.bytes_in_flight == 110

    def test_batch_refcount_is_per_segment_not_per_tensor(self, pool):
        staged = pool.share_batch(
            {
                "x": from_numpy(np.zeros(4, dtype=np.float32)),
                "y": from_numpy(np.zeros(4, dtype=np.float32)),
            },
            initial_refcount=1,
        )
        (name,) = {t.segment.name for t in staged.values()}
        assert pool.refcount(name) == 1
        pool.release(name)
        assert pool.live_segments == 0

    def test_whole_batch_recycles_into_one_warm_segment(self, pool):
        def batch():
            return {
                "inputs": from_numpy(np.ones((8, 3), dtype=np.float32)),
                "targets": from_numpy(np.zeros(8, dtype=np.int64)),
            }

        for _ in range(10):
            staged = pool.share_batch(batch())
            (name,) = {t.segment.name for t in staged.values()}
            pool.release(name)
        assert pool.segments_created == 1
        assert pool.segment_reuse_hits == 9

    def test_empty_batch_rejected(self, pool):
        from repro.tensor import SharedMemoryError

        with pytest.raises(SharedMemoryError):
            pool.share_batch({})


# ---------------------------------------------------------------------------
# attach-cache trim regression (satellite 1)
# ---------------------------------------------------------------------------


class TestAttachCacheTrim:
    def test_pinned_view_does_not_stop_the_trim(self, monkeypatch):
        monkeypatch.setattr(shared_memory, "_ATTACH_CACHE_LIMIT", 2)
        producer = SharedMemoryPool()
        consumer = SharedMemoryPool(attach_by_name=True)
        try:
            tensors = [producer.allocate_tensor((8,), "float32") for _ in range(4)]
            names = [t.segment.name for t in tensors]
            consumer.attach(names[0], (8,), "float32", offset=_SLAB_HEADER_SIZE)
            # Pin the OLDEST cached handle: close() refuses while views live.
            pinned = consumer._attached[names[0]]
            original_close = pinned.close

            def refuse():
                raise BufferError("still viewed")

            pinned.close = refuse
            try:
                for name in names[1:]:
                    consumer.attach(name, (8,), "float32", offset=_SLAB_HEADER_SIZE)
                # The old code break-ed on the pinned head and never trimmed:
                # the cache grew one entry per attach.  Now the trim skips the
                # pinned entry and closes the next-oldest instead, keeping the
                # cache at limit + pinned.
                assert len(consumer._attached) <= 3
                assert names[0] in consumer._attached  # pinned: kept
                assert names[1] not in consumer._attached  # trimmed instead
            finally:
                pinned.close = original_close
        finally:
            consumer.shutdown()
            producer.shutdown()

    def test_attach_counters_track_hits_and_opens(self):
        producer = SharedMemoryPool()
        consumer = SharedMemoryPool(attach_by_name=True)
        try:
            tensor = producer.allocate_tensor((8,), "float32")
            name = tensor.segment.name
            for _ in range(3):
                consumer.attach(name, (8,), "float32", offset=_SLAB_HEADER_SIZE)
            assert consumer.attach_opens == 1
            assert consumer.attach_cache_hits == 2
            assert consumer.mmap_total == 1
        finally:
            consumer.shutdown()
            producer.shutdown()


# ---------------------------------------------------------------------------
# zero-copy inline payloads (satellite 3)
# ---------------------------------------------------------------------------


class TestZeroCopyInline:
    def test_inline_holds_a_view_not_a_copy(self):
        array = np.arange(16, dtype=np.float32)
        payload = TensorPayload.inline(from_numpy(array))
        assert isinstance(payload.inline_bytes, memoryview)
        assert np.shares_memory(
            np.frombuffer(payload.inline_bytes, dtype=np.float32), array
        )
        assert payload.payload_nbytes >= array.nbytes

    def test_inline_pickles_and_roundtrips(self):
        import pickle

        payload = TensorPayload.inline(from_numpy(np.arange(5, dtype=np.int64)))
        clone = pickle.loads(pickle.dumps(payload))
        assert isinstance(clone.inline_bytes, bytes)
        np.testing.assert_array_equal(
            clone.unpack().numpy(), np.arange(5, dtype=np.int64)
        )


# ---------------------------------------------------------------------------
# cross-process: recycled names hit the consumer's attach cache
# ---------------------------------------------------------------------------


def _reuse_remote_trainer(address, result_queue):
    """Separate OS process: consume several epochs, report attach stats."""
    import repro as repro_child

    consumer = repro_child.attach(address, max_epochs=3, receive_timeout=30)
    batches = 0
    for batch in consumer:
        batch["index"].numpy()  # touch the mapped bytes
        batches += 1
    pool = consumer.pool
    stats = (batches, pool.attach_opens, pool.attach_cache_hits)
    consumer.close()
    result_queue.put(stats)


class _IndexDataset:
    """Each item carries its own index (mirrors the sharding-test helper)."""

    def __len__(self):
        return 32

    def __getitem__(self, index):
        return {"index": np.array([index], dtype=np.int64)}


@pytest.mark.multiprocess
class TestTcpAttachCacheReuse:
    def test_recycled_names_hit_the_consumer_attach_cache(self):
        from repro.data import DataLoader

        loader = DataLoader(_IndexDataset(), batch_size=4)
        session = repro.serve(
            loader,
            address="tcp://127.0.0.1:0",
            epochs=3,
            start=False,
        )
        result_queue = multiprocessing.Queue()
        child = multiprocessing.Process(
            target=_reuse_remote_trainer, args=(session.address, result_queue)
        )
        child.start()
        try:
            session.start()
            batches, attach_opens, attach_hits = result_queue.get(timeout=60)
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
            session.shutdown()
        assert child.exitcode == 0
        assert batches == (32 // 4) * 3
        # One segment per batch now, and the producer recycles names, so the
        # consumer's attach cache must hit: far fewer opens than batches.
        assert attach_opens + attach_hits == batches
        assert attach_hits > 0
        assert attach_opens < batches
        # Producer side: the free list went warm, so segment creation stopped
        # well short of one-per-batch.
        assert session.pool.segments_created < batches
        assert session.pool.segment_reuse_hits > 0
        assert session.pool.bytes_in_flight == 0
        assert session.pool.free_bytes == 0  # shutdown drained the free list


# ---------------------------------------------------------------------------
# the bound: a serving session creates a slab only when every slab is live
# ---------------------------------------------------------------------------


class _RowDataset:
    """128 items of one int64 each: 32 equal batches of 4, 32 bytes apiece."""

    def __len__(self):
        return 128

    def __getitem__(self, index):
        return {"index": np.array([index], dtype=np.int64)}


_BATCH_NBYTES = 4 * 8


@pytest.mark.parametrize(
    "consumers, serve_kwargs",
    [
        (1, {}),
        (2, {}),
        (1, {"pipeline_depth": 4}),
        (1, {"buffer_size": 4}),
        (2, {"shards": 2}),
        (1, {"cache": "all"}),
        (1, {"cache": "lru", "cache_bytes": 8 * _BATCH_NBYTES}),
    ],
    ids=["one-consumer", "two-consumers", "pipeline-depth-4", "buffer-size-4",
         "two-shards", "cache-all", "lru-8-batches"],
)
def test_a_session_creates_a_slab_only_when_every_slab_is_live(consumers, serve_kwargs):
    from repro.data import DataLoader

    session = repro.serve(
        DataLoader(_RowDataset(), batch_size=4),
        address=f"inproc://slab-bound-{len(serve_kwargs)}-{consumers}-{id(serve_kwargs)}",
        epochs=3,
        start=False,
        **serve_kwargs,
    )
    counts = []
    attached = [
        session.consumer(
            ConsumerConfig(consumer_id=f"c{k}", max_epochs=3, receive_timeout=60)
        )
        for k in range(consumers)
    ]

    def drain(consumer):
        counts.append(sum(1 for _ in consumer))
        consumer.close()

    threads = [threading.Thread(target=drain, args=(c,)) for c in attached]
    for thread in threads:
        thread.start()
    try:
        session.start()
        for thread in threads:
            thread.join(timeout=120)
        assert counts == [3 * 32] * consumers
        pool = session.pool
        # Every batch is the same size, so the slabs ever created are the
        # batches ever live at once: a slab is made only when none is free.
        assert pool.segments_created * _BATCH_NBYTES == pool.peak_bytes
    finally:
        session.shutdown()
    assert session.pool.free_bytes == 0
