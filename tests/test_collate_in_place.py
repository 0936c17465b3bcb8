"""Collating into place: the slab is the collate destination.

A loader that collates with ``default_collate`` hands the producer uncollated
items; the runner reserves the batch's one segment and stacks the items
straight into it.  These tests pin what that change could break:

* the one order (load items → wait for capacity → reserve → fill →
  publish): no shared memory is held while the producer waits, and a batch
  that is skipped never touches the pool;
* the copy count on the served path — one per byte, on the share device, on
  both fills;
* exactly-once delivery on every way the staging call is fed;
* the failure path: a reserved segment always comes back, and the error a
  consumer's owner sees is the one ``default_collate`` raised before.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.core import ConsumerConfig, EpochRunner, ProducerConfig, SharedLoaderSession
from repro.data import DataLoader, default_collate, plan_collate
from repro.data.dataset import Dataset
from repro.tensor import BatchPayload, SharedMemoryPool, Tensor, from_numpy
from repro.tensor.errors import QuotaExceededError

ITEM_SHAPE = (3, 4, 4)
ITEM_NBYTES = int(np.prod(ITEM_SHAPE)) * 4


def image_of(index: int) -> np.ndarray:
    return np.full(ITEM_SHAPE, index, dtype=np.float32) + np.float32(0.25)


class ImageDataset(Dataset):
    """In-memory float32 images; every item carries its own dataset index.

    ``odd`` maps an index to a replacement item, for the failure tests.
    """

    def __init__(self, n: int, odd=None) -> None:
        self.images = np.stack([image_of(i) for i in range(n)])
        self.odd = odd or {}

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int):
        if index in self.odd:
            return self.odd[index]
        return {"image": self.images[index], "index": index}


def image_loader(n=24, batch_size=4, **kwargs) -> DataLoader:
    odd = kwargs.pop("odd", None)
    return DataLoader(ImageDataset(n, odd), batch_size=batch_size, **kwargs)


def batch_nbytes(batch_size: int) -> int:
    return batch_size * (ITEM_NBYTES + 8)


def consume(consumer, *, stop_after=None, close=True):
    """``{epoch: [dataset indices]}`` in delivery order; every delivered row
    is checked against what the dataset holds for its index."""
    per_epoch = {}
    taken = 0
    # A group consumer yields bare batches; its epochs are told apart by count.
    stream = (
        consumer.iter_batches()
        if hasattr(consumer, "iter_batches")
        else ((None, batch) for batch in consumer)
    )
    for payload, batch in stream:
        indices = batch["index"].numpy()
        rows = batch["image"].numpy()
        assert rows.dtype == np.float32 and rows.shape[1:] == ITEM_SHAPE
        assert np.array_equal(rows, np.stack([image_of(int(i)) for i in indices]))
        epoch = payload.epoch if payload is not None else taken // 6
        per_epoch.setdefault(epoch, []).extend(int(i) for i in indices)
        taken += 1
        if stop_after is not None and taken >= stop_after:
            break
    if close:
        consumer.close()
    return per_epoch


def run_session(session, *, consumers=1, max_epochs=1):
    """Attach ``consumers`` trainers, then start; returns their epoch maps."""
    results = {}

    def train(name):
        consumer = repro.attach(
            session.address, consumer_id=name, max_epochs=max_epochs, receive_timeout=20
        )
        registered.release()
        results[name] = consume(consumer)

    registered = threading.Semaphore(0)
    threads = [
        threading.Thread(target=train, args=(f"c{i}",), name=f"test-trainer-{i}")
        for i in range(consumers)
    ]
    for thread in threads:
        thread.start()
    for _ in threads:
        assert registered.acquire(timeout=10)
    session.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return results


def assert_drained(pool, timeout=5.0):
    deadline = time.monotonic() + timeout
    while (pool.bytes_in_flight or pool.cached_bytes) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool.bytes_in_flight == 0
    assert pool.cached_bytes == 0
    assert pool.live_segments == 0


@pytest.fixture
def fills(monkeypatch):
    """Count the pool's two fills: ``{"fill_batch": n, "share_batch": n}``."""
    calls = {"fill_batch": 0, "share_batch": 0}

    def counted(name):
        original = getattr(SharedMemoryPool, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(SharedMemoryPool, name, counted(name))
    return calls


# ---------------------------------------------------------------------------
# plan_collate: the layout and fill of default_collate, without building it
# ---------------------------------------------------------------------------


class TestPlanCollate:
    def test_layout_comes_from_the_first_item_and_the_count(self):
        items = [{"image": image_of(i), "index": i, "weight": 0.5} for i in range(5)]
        layout, _fill = plan_collate(items)
        assert layout == {
            "image": ((5,) + ITEM_SHAPE, np.dtype(np.float32)),
            "index": ((5,), np.dtype(np.int64)),
            "weight": ((5,), np.dtype(np.float32)),
        }

    def test_fill_writes_what_default_collate_builds(self):
        items = [(from_numpy(image_of(i)), np.int32(i)) for i in range(3)]
        layout, fill = plan_collate(items)
        out = {key: np.empty(shape, dtype) for key, (shape, dtype) in layout.items()}
        fill(out)
        want = default_collate(items)
        assert list(out) == ["inputs", "targets"]
        for key, tensor in want.items():
            assert out[key].dtype == tensor.numpy().dtype
            assert np.array_equal(out[key], tensor.numpy())

    def test_mixed_dtypes_are_promoted_exactly_as_default_collate_does(self):
        items = [{"x": np.ones(2, np.float32)}, {"x": np.ones(2, np.float64)}]
        layout, fill = plan_collate(items)
        assert layout == {"x": ((2, 2), np.dtype(np.float64))}
        out = {"x": np.empty((2, 2), np.float64)}
        fill(out)
        assert np.array_equal(out["x"], default_collate(items)["x"].numpy())

    @pytest.mark.parametrize(
        "items",
        [
            [],
            [{"x": np.ones(2, np.float32)}, {"x": np.ones(3, np.float32)}],  # ragged
            [{"x": "a string"}],
            [{"x": np.ones(2, np.uint16)}] * 2,  # a dtype tensors do not carry
            [{"x": 1}, {"y": 2}],
            [object()],
        ],
        ids=["empty", "ragged", "unsupported-value", "unsupported-dtype", "missing-key", "item"],
    )
    def test_raises_what_default_collate_raises(self, items):
        with pytest.raises(Exception) as want:
            default_collate(items)
        pool = SharedMemoryPool()
        try:
            with pytest.raises(want.type):
                layout, fill = plan_collate(items)
                pool.fill_batch(layout, fill)
            assert pool.segments_created == 0  # it never came to a reservation
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# The pool's one layout routine and its two fills
# ---------------------------------------------------------------------------


class TestFillBatch:
    def test_a_fill_that_raises_returns_the_reserved_segment(self):
        pool = SharedMemoryPool()
        view = pool.tenant_view("tenant", quota_bytes=1 << 20)

        def boom(out):
            out["x"][...] = 1.0
            raise RuntimeError("fill failed half way")

        with pytest.raises(RuntimeError, match="half way"):
            view.fill_batch({"x": ((8,), "float32")}, boom)
        assert pool.bytes_in_flight == 0 and pool.live_segments == 0
        assert pool.total_allocated_bytes == 0  # the books never saw it
        assert view.bytes_used == 0
        assert pool.free_segments == 1  # ...and the segment is back on the free list
        again = view.fill_batch({"x": ((8,), "float32")}, lambda out: out["x"].fill(2.0))
        assert pool.segments_created == 1  # recycled, under a bumped generation
        assert again["x"].segment.generation == 2
        assert again["x"].numpy().tolist() == [2.0] * 8
        pool.shutdown()
        assert pool.free_bytes == 0

    def test_quota_is_checked_before_a_segment_is_reserved(self):
        pool = SharedMemoryPool()
        view = pool.tenant_view("tenant", quota_bytes=16)
        with pytest.raises(QuotaExceededError):
            view.fill_batch({"x": ((8,), "float32")}, lambda out: None)
        assert pool.segments_created == 0
        pool.shutdown()

    def test_both_fills_lay_a_batch_out_identically(self):
        pool = SharedMemoryPool()
        batch = {
            "image": from_numpy(np.arange(24, dtype=np.float32).reshape(2, 3, 4)),
            "label": from_numpy(np.array([7, 9], dtype=np.int64)),
            "scalar": from_numpy(np.array(3.5, dtype=np.float64)),
        }
        copied = pool.share_batch(batch, device="cuda:0")
        filled = pool.fill_batch(
            {key: (tensor.shape, tensor.dtype) for key, tensor in batch.items()},
            lambda out: [np.copyto(out[key], tensor.numpy()) for key, tensor in batch.items()],
            device="cuda:0",
        )
        for key in batch:
            assert filled[key].segment_offset == copied[key].segment_offset
            assert filled[key].segment_offset % 64 == 0
            assert filled[key].equal(copied[key]) and filled[key].equal(batch[key])
            assert str(filled[key].device) == str(copied[key].device) == "cuda:0"
        assert len({t.segment.name for t in filled.values()}) == 1
        # allocate_tensor and share_tensor are the same routine with one spec.
        assert pool.allocate_tensor((2, 3)).segment_offset == 64
        assert pool.share_tensor(batch["label"]).equal(batch["label"])
        assert pool.share_batch(batch)["image"].device == batch["image"].device
        pool.shutdown()


# ---------------------------------------------------------------------------
# (a) a batch is staged when it publishes: no shared memory during a wait
# ---------------------------------------------------------------------------


class TestDepthOneOrder:
    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_a_consumer_that_never_acks_bounds_what_the_producer_stages(
        self, num_workers, fills
    ):
        buffer_size = 2
        session = SharedLoaderSession(
            image_loader(n=40, batch_size=4, num_workers=num_workers),
            producer_config=ProducerConfig(
                epochs=1, buffer_size=buffer_size
            ),
        )
        # Registers, and then never takes a batch: nothing is ever acked.
        idle = session.consumer(ConsumerConfig(consumer_id="idle", receive_timeout=20))
        session.start()
        deadline = time.monotonic() + 10
        while session.producer.payloads_published < buffer_size and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.2)  # the producer is now parked in its capacity wait
        assert session.producer.payloads_published == buffer_size
        # The next batch's items are loaded and waiting on the heap (with
        # workers, the loader's prefetch budget too); no segment is reserved
        # for any of them.
        assert fills["fill_batch"] == buffer_size
        assert session.pool.live_segments == buffer_size
        assert session.pool.bytes_in_flight == buffer_size * batch_nbytes(4)
        assert session.pool.peak_bytes == buffer_size * batch_nbytes(4)
        idle.close()
        session.shutdown()
        assert session.pool.free_bytes == 0

    def test_a_free_running_session_without_consumers_creates_no_segment(self, fills):
        session = SharedLoaderSession(
            image_loader(n=16, batch_size=4),
            producer_config=ProducerConfig(
                epochs=2, wait_for_consumers=False
            ),
        )
        session.start()
        session._threads[0].join(timeout=10)
        assert not session.is_running
        assert session.producer.epochs_completed == 2
        assert fills == {"fill_batch": 0, "share_batch": 0}
        assert session.pool.segments_created == 0
        assert session.pool.total_allocated_bytes == 0
        session.shutdown()


# ---------------------------------------------------------------------------
# (b) one copy per byte between __getitem__ and the trainer
# ---------------------------------------------------------------------------


def copy_boundaries(stages):
    return sum(not np.shares_memory(a, b) for a, b in zip(stages, stages[1:]))


class TestOneCopy:
    @pytest.mark.parametrize("share_device", ["cpu", "cuda:0"])
    def test_item_to_trainer_is_one_copy_through_the_real_staging_call(
        self, share_device, monkeypatch
    ):
        def no_device_copy(self, device):
            raise AssertionError("staging must not copy a tensor to the share device first")

        loader = image_loader()
        pool = SharedMemoryPool()
        runner = EpochRunner(
            loader, pool=pool, config=ProducerConfig(share_device=share_device), host=None
        )
        items = next(loader.prefetch_iter(collate=False))
        assert np.shares_memory(items[0]["image"], loader.dataset.images)  # a view: no copy yet

        monkeypatch.setattr(Tensor, "to", no_device_copy)
        staged = runner._stage_batch(items)
        delivered = BatchPayload.pack(staged, batch_index=0, epoch=0).unpack(pool)
        assert str(staged["image"].device) == str(delivered["image"].device) == share_device
        walk = [items[0]["image"], staged["image"].numpy(), delivered["image"].numpy()]
        assert copy_boundaries(walk) == 1

        # The copy fill (a custom collate_fn's batch arrives assembled): the
        # collate is a copy and staging is the second; still no device copy.
        collated = default_collate(items)
        staged = runner._stage_batch(collated)
        assert str(staged["image"].device) == share_device
        walk = [items[0]["image"], collated["image"].numpy(), staged["image"].numpy()]
        assert copy_boundaries(walk) == 2
        pool.shutdown()

    def test_default_collate_is_not_called_on_the_served_path(self, monkeypatch, fills):
        calls = []

        def spy(items):
            calls.append(len(items))
            return default_collate(items)

        # The loader binds the name at construction, so the spy IS its
        # configured (default) collate_fn.
        monkeypatch.setattr("repro.data.dataloader.default_collate", spy)
        loader = image_loader()
        assert loader.collate_fn is spy and loader.uses_default_collate
        session = repro.serve(loader, address="inproc://in-place-spy", epochs=1, start=False)
        results = run_session(session)
        assert_drained(session.pool)
        session.shutdown()
        assert sorted(results["c0"][0]) == list(range(24))
        assert calls == []
        assert fills == {"fill_batch": 6, "share_batch": 0}
        # iter(loader) is unchanged for ordinary users: it still collates.
        assert next(iter(loader))["image"].shape == (4,) + ITEM_SHAPE
        assert calls == [4]

    def test_np_stack_is_not_called_on_the_served_path(self, monkeypatch):
        # A column of arrays is one np.concatenate into the slab; np.stack
        # would re-check, re-wrap and re-view every row plan_collate had
        # already found alike.
        stack = np.stack
        callers = []

        def spy(*args, **kwargs):
            callers.append(threading.current_thread().name)
            return stack(*args, **kwargs)

        loader = image_loader(shuffle=True, seed=2)
        monkeypatch.setattr(np, "stack", spy)
        session = repro.serve(loader, address="inproc://in-place-no-stack", epochs=2, start=False)
        results = run_session(session, max_epochs=2)  # (the trainer checks rows with np.stack)
        assert_drained(session.pool)
        session.shutdown()
        assert [sorted(results["c0"][epoch]) for epoch in (0, 1)] == [list(range(24))] * 2
        assert "repro-producer" not in callers and "MainThread" not in callers
        # iter(loader) is default_collate, which builds its batch with it.
        del callers[:]
        assert next(iter(loader))["image"].shape == (4,) + ITEM_SHAPE
        assert callers == ["MainThread"]

    def test_a_custom_collate_fn_runs_in_the_loader_and_is_copied(self, fills):
        calls = []

        def custom(items):
            calls.append(len(items))
            return default_collate(items)

        loader = image_loader(collate_fn=custom)
        assert not loader.uses_default_collate
        session = repro.serve(loader, address="inproc://in-place-custom", epochs=1, start=False)
        results = run_session(session)
        assert_drained(session.pool)
        session.shutdown()
        assert sorted(results["c0"][0]) == list(range(24))
        assert calls == [4] * 6
        assert fills == {"fill_batch": 0, "share_batch": 6}

    def test_collating_is_stamped_as_staging_not_loading(self, monkeypatch):
        collated_at = []

        def timed_plan(items):
            collated_at.append(time.monotonic())
            return plan_collate(items)

        monkeypatch.setattr("repro.core.epoch_runner.plan_collate", timed_plan)
        session = repro.serve(
            image_loader(), address="inproc://in-place-stamps", epochs=1, start=False
        )
        consumer = session.consumer(ConsumerConfig(max_epochs=1, receive_timeout=20))
        session.start()
        traces = [payload.metadata["trace"] for payload, _batch in consumer.iter_batches()]
        consumer.close()
        session.shutdown()
        assert len(traces) == len(collated_at) == 6
        for trace, at in zip(traces, collated_at):
            assert trace["sampled"] <= trace["loaded"] <= at <= trace["staged"]
            assert trace["staged"] <= trace["published"]


# ---------------------------------------------------------------------------
# (c) every way the staging call is fed delivers every sample exactly once
# ---------------------------------------------------------------------------


class TestEveryFeedDeliversExactlyOnce:
    @pytest.mark.parametrize(
        "loader_kwargs",
        [
            {"num_workers": 4},
            {"num_workers": 2},
            {"num_workers": 2, "prefetch_factor": 3},
            {"shuffle": True, "seed": 3},
        ],
        ids=["workers-4", "workers-2", "workers-2-prefetch-3", "shuffled-sync-load"],
    )
    def test_pipelined_and_threaded_loading(self, loader_kwargs, fills):
        # 26 items: the last batch of every epoch is short.
        session = repro.serve(
            image_loader(n=26, **loader_kwargs),
            address="inproc://in-place-feeds",
            epochs=2,
            start=False,
        )
        results = run_session(session, consumers=2, max_epochs=2)
        assert_drained(session.pool)
        session.shutdown()
        assert results["c0"] == results["c1"]
        for epoch in (0, 1):
            assert sorted(results["c0"][epoch]) == list(range(26))
        assert fills == {"fill_batch": 14, "share_batch": 0}

    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_partial_cache_epoch_loads_only_its_misses_in_place(self, num_workers, fills):
        session = repro.serve(
            image_loader(num_workers=num_workers),
            address="inproc://in-place-partial-cache",
            epochs=3,
            cache="mru",
            cache_bytes=3 * batch_nbytes(4),
            start=False,
        )
        results = run_session(session, max_epochs=3)
        metrics = session.metrics()
        assert_drained(session.pool)
        session.shutdown()
        for epoch in range(3):
            assert sorted(results["c0"][epoch]) == list(range(24))
        # Epoch 0 stages all 6; epochs 1 and 2 hit the cached prefix of 3 and
        # reload 3 misses each through open_misses — uncollated, like epoch 0.
        assert metrics["repro.cache"]["hits"] == 6
        assert fills == {"fill_batch": 12, "share_batch": 0}

    def test_an_evicted_hit_falls_back_to_an_in_place_load(self, fills):
        session = repro.serve(
            image_loader(),
            address="inproc://in-place-evicted-hit",
            epochs=2,
            cache="all",
            start=False,
        )
        cache = session.producer.runner.cache
        republish = cache.republish

        def evicted_once(index, **kwargs):
            # Batch 2 vanishes between planning and use, in epoch 1 only.
            if index == 2 and kwargs.get("epoch") == 1:
                return None
            return republish(index, **kwargs)

        cache.republish = evicted_once
        results = run_session(session, max_epochs=2)
        assert_drained(session.pool)
        session.shutdown()
        assert results["c0"][0] == results["c0"][1] == list(range(24))
        assert fills == {"fill_batch": 7, "share_batch": 0}

    def test_two_shard_group(self, fills):
        session = repro.serve(
            image_loader(shuffle=True, seed=5),
            address="inproc://in-place-shards",
            shards=2,
            epochs=2,
            start=False,
        )
        results = run_session(session, consumers=2, max_epochs=2)
        assert_drained(session.pool)
        session.shutdown()
        assert results["c0"] == results["c1"]
        for epoch in (0, 1):
            assert sorted(results["c0"][epoch]) == list(range(24))
        assert fills == {"fill_batch": 12, "share_batch": 0}

    def test_flexible_batching_fills_each_producer_batch_in_place(self, fills):
        session = repro.serve(
            image_loader(),
            address="inproc://in-place-flexible",
            epochs=1,
            flexible_batching=True,
            producer_batch_size=8,
            start=False,
        )
        consumer = session.consumer(
            ConsumerConfig(consumer_id="flex", batch_size=4, max_epochs=1, receive_timeout=20)
        )
        session.start()
        results = consume(consumer)
        assert_drained(session.pool)
        session.shutdown()
        assert sorted(results[0]) == list(range(24))
        # Three producer batches of 8, each collated into its slab once; the
        # consumer's batches of 4 are views of them.
        assert fills == {"fill_batch": 3, "share_batch": 0}


# ---------------------------------------------------------------------------
# Failure path
# ---------------------------------------------------------------------------


class FailingTransform:
    def __init__(self, at: int) -> None:
        self.at = at

    def __call__(self, item):
        if item["index"] == self.at:
            raise RuntimeError(f"transform failed on item {self.at}")
        return item


def failing_collate(items):
    if any(item["index"] == 9 for item in items):
        raise KeyError("collate failed on the batch holding item 9")
    return default_collate(items)


#: name -> (loader kwargs, the exception the producer must die with).  Item 9
#: sits in batch 2 of 6 (batch size 4): batches 0 and 1 are good.
FAILURES = {
    "ragged-shape": (
        {"odd": {9: {"image": np.zeros((3, 4, 5), np.float32), "index": 9}}},
        ValueError,
    ),
    # Mid-column, numpy is asked to stack it (ValueError); leading its batch,
    # default_collate's own dispatch rejects it (TypeError).
    "unsupported-value": ({"odd": {9: {"image": "not an array", "index": 9}}}, ValueError),
    "unsupported-first-value": ({"odd": {8: {"image": "not an array", "index": 8}}}, TypeError),
    # The layout (int64) holds; the fill itself fails, after the reservation.
    "fill-overflow": ({"odd": {9: {"image": image_of(9), "index": 2**70}}}, OverflowError),
    "transform-raises": ({"transform": FailingTransform(9)}, RuntimeError),
    "collate-raises": ({"collate_fn": failing_collate}, KeyError),
}


class TestFailurePath:
    @pytest.mark.parametrize("name", sorted(FAILURES))
    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_the_reservation_comes_back_and_the_error_surfaces(self, name, num_workers):
        loader_kwargs, error = FAILURES[name]
        with pytest.raises(error):  # what default_collate / the loader raises today
            list(image_loader(**loader_kwargs))

        session = repro.serve(
            image_loader(num_workers=num_workers, **loader_kwargs),
            address="inproc://in-place-failure",
            epochs=1,
            start=False,
        )
        consumers = [
            session.consumer(ConsumerConfig(consumer_id=f"c{i}", receive_timeout=20))
            for i in range(2)
        ]
        session.start()
        # The two good batches reach both consumers, once each.  (They stay
        # attached: a producer without consumers would wait, not stage.)
        seen = [consume(consumer, stop_after=2, close=False) for consumer in consumers]
        assert seen[0] == seen[1] == {0: list(range(8))}
        session._threads[0].join(timeout=10)
        assert not session.is_running
        for consumer in consumers:
            consumer.close()
        with pytest.raises(error):
            session.raise_producer_error()
        # Whatever was reserved for the failed batch was given back: the only
        # live segments are published batches the dead producer can no longer
        # collect the acks for.
        pool = session.pool
        assert pool.live_segments <= 2
        assert pool.bytes_in_flight == pool.live_segments * batch_nbytes(4)
        with pytest.raises(error):
            session.shutdown()
        assert pool.bytes_in_flight == pool.cached_bytes == pool.free_bytes == 0

    def test_a_failed_fill_leaves_the_runner_pool_clean(self):
        loader = image_loader(odd={1: {"image": image_of(1), "index": 2**70}})
        pool = SharedMemoryPool()
        runner = EpochRunner(loader, pool=pool, config=ProducerConfig(), host=None)
        items = next(loader.prefetch_iter(collate=False))
        with pytest.raises(OverflowError):
            runner._stage_batch(items)
        assert runner.batches_loaded == 0
        assert pool.bytes_in_flight == 0 and pool.live_segments == 0
        assert pool.segments_created == 1 and pool.free_segments == 1
        pool.shutdown()
        assert pool.free_bytes == 0

    def test_mixed_dtype_items_are_served_promoted_as_before(self, fills):
        odd = {5: {"image": image_of(5).astype(np.float64), "index": 5}}
        session = repro.serve(
            image_loader(n=8, odd=odd), address="inproc://in-place-mixed", epochs=1, start=False
        )
        consumer = session.consumer(ConsumerConfig(max_epochs=1, receive_timeout=20))
        session.start()
        dtypes = [batch["image"].numpy().dtype for batch in consumer]
        consumer.close()
        assert_drained(session.pool)
        session.shutdown()
        assert dtypes == [np.dtype(np.float32), np.dtype(np.float64)]
        assert fills == {"fill_batch": 2, "share_batch": 0}
