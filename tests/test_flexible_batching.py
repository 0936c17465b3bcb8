"""Flexible batching on the one epoch path (paper Section 3.2.6).

The producer cuts the epoch's sample order at the producer batch size, fills
each producer batch into its slab once and broadcasts it once, carrying every
sized consumer's row ranges.  A consumer trains on its ranges as views of the
slab and acknowledges the producer batch once.  These tests pin that shape by
counting, and the edges: consumers it cannot slice for, the epoch's short last
batch, reproducible slice shuffling and rubberband admission of a joiner.
"""

import collections
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ConsumerConfig, TensorProducer
from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.messaging import DuplicateConsumerError, MessageKind
from repro.tensor import SharedMemoryPool

SRC = Path(__file__).resolve().parents[1] / "src"


class IndexDataset(Dataset):
    """Item ``i`` is ``{"x": [i, i], "index": i}``: every row names itself."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int):
        return {"x": np.full(2, index, dtype=np.float32), "index": index}


def serve(address, n, batch_size, **config):
    loader = DataLoader(IndexDataset(n), batch_size=batch_size)
    return repro.serve(loader, address=address, flexible_batching=True, start=False, **config)


def train(consumer, seen):
    """Record each batch's dataset indices (checking every row against its
    index) under the batch's epoch, then close."""
    for payload, batch in consumer.iter_batches():
        indices = batch["index"].numpy()
        assert np.array_equal(batch["x"].numpy(), np.repeat(indices[:, None], 2, axis=1))
        seen.setdefault(payload.epoch, []).append(indices.tolist())
    consumer.close()


def start_trainers(session, configs):
    """Attach one consumer per config before the session starts; returns
    ``({consumer_id: {epoch: [batch indices]}}, threads)``."""
    results = {config.consumer_id: {} for config in configs}
    threads = [
        threading.Thread(target=train, args=(session.consumer(config), results[config.consumer_id]))
        for config in configs
    ]
    for thread in threads:
        thread.start()
    return results, threads


def finish(session, threads):
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    session.raise_producer_error()
    pool = session.pool
    deadline = time.monotonic() + 5
    while (pool.bytes_in_flight or pool.cached_bytes) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool.bytes_in_flight == pool.cached_bytes == 0
    session.shutdown()
    assert pool.bytes_in_flight == pool.cached_bytes == pool.free_bytes == 0


def flat(batches):
    return sorted(i for batch in batches for i in batch)


def sizes(batches):
    return [len(batch) for batch in batches]


def config(consumer_id, batch_size=None, max_epochs=1):
    return ConsumerConfig(
        consumer_id=consumer_id, batch_size=batch_size, max_epochs=max_epochs, receive_timeout=20
    )


# ---------------------------------------------------------------------------
# one producer batch: one fill, one broadcast, one ack per consumer
# ---------------------------------------------------------------------------


class TestOneProducerBatchOnce:
    def test_each_producer_batch_is_filled_broadcast_and_acked_once(self, monkeypatch):
        fills = collections.Counter()
        acks = collections.Counter()
        for name in ("fill_batch", "share_batch"):
            original = getattr(SharedMemoryPool, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                fills[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SharedMemoryPool, name, counted)
        handle_ack = TensorProducer._handle_ack

        def counted_ack(self, consumer_id, key, trace=None):
            acks[(consumer_id, key)] += 1
            return handle_ack(self, consumer_id, key, trace)

        monkeypatch.setattr(TensorProducer, "_handle_ack", counted_ack)

        session = serve(
            "inproc://flexible-once", 64, 16, epochs=2, producer_batch_size=32
        )
        spy = session.hub.connect(session.producer.config.data_address, subscriptions=("",))
        results, threads = start_trainers(
            session, [config("small", 8, max_epochs=2), config("large", 16, max_epochs=2)]
        )
        time.sleep(0.2)
        session.start()
        finish(session, threads)

        batches = []
        while (message := spy.try_receive()) is not None:
            if message.kind is MessageKind.BATCH:
                batches.append(message)
        # Two producer batches of 32 per epoch, each broadcast once (the old
        # runner sent one unicast per slice per consumer: 6 per producer batch).
        assert [(m.topic, m.body.key()) for m in batches] == [
            ("broadcast", (epoch, index)) for epoch in (0, 1) for index in (0, 1)
        ]
        for message in batches:
            tensors = message.body.tensors.values()
            assert all(t.is_shared and t.inline_bytes is None for t in tensors)
            assert set(message.body.slices) == {"small", "large"}
        assert fills == {"fill_batch": 4}
        assert acks == {
            (consumer, (epoch, index)): 1
            for consumer in ("small", "large")
            for epoch in (0, 1)
            for index in (0, 1)
        }
        for epoch in (0, 1):
            assert sizes(results["small"][epoch]) == [8] * 8
            assert sizes(results["large"][epoch]) == [16] * 4
            assert flat(results["small"][epoch]) == flat(results["large"][epoch]) == list(range(64))

    def test_a_sliced_batch_is_a_view_of_the_slab_and_a_wrapped_one_a_copy(self):
        session = serve("inproc://flexible-views", 12, 4, epochs=1, producer_batch_size=12)
        consumer = session.consumer(config("c", 8))
        session.start()
        taken = []
        for batch in consumer:
            taken.append((batch["x"].is_shared, batch["index"].numpy().tolist()))
        consumer.close()
        # Rows [0, 8) are a view; the second batch is rows [8, 12) + [0, 4).
        assert taken == [(True, list(range(8))), (False, [8, 9, 10, 11, 0, 1, 2, 3])]
        assert len(consumer) == 2  # the epoch's length in this consumer's batches
        finish(session, [])


# ---------------------------------------------------------------------------
# consumers the producer cannot slice for
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_a_consumer_without_a_batch_size_takes_whole_producer_batches(self):
        session = serve("inproc://flexible-unsized", 32, 8, epochs=2, producer_batch_size=16)
        results, threads = start_trainers(
            session, [config("sized", 4, max_epochs=2), config("whole", max_epochs=2)]
        )
        time.sleep(0.2)
        session.start()
        finish(session, threads)
        for epoch in (0, 1):
            assert sizes(results["sized"][epoch]) == [4] * 8
            assert sizes(results["whole"][epoch]) == [16] * 2
            assert flat(results["sized"][epoch]) == flat(results["whole"][epoch]) == list(range(32))

    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed-size", "derived-size"])
    def test_a_consumer_above_the_producer_batch_size(self, fixed):
        # The batch-4 consumer is training (producer batches of 8) when a
        # batch-16 one joins.  Against a configured size it is refused at
        # once; against a derived one it starts at the next epoch, cut for it.
        extra = {"producer_batch_size": 8} if fixed else {}
        session = serve(f"inproc://flexible-oversized-{fixed}", 64, 8, epochs=2, **extra)
        joined = {}

        def train_small(consumer, seen):
            for payload, batch in consumer.iter_batches():
                if not joined:
                    joiner = session.consumer(config("large", 16, max_epochs=1))
                    try:
                        joined["epoch"] = joiner.wait_until_registered()
                    except DuplicateConsumerError as exc:
                        joined["error"] = str(exc)
                        joiner.close()
                    else:
                        joined["seen"] = {}
                        joined["thread"] = threading.Thread(
                            target=train, args=(joiner, joined["seen"])
                        )
                        joined["thread"].start()
                seen.setdefault(payload.epoch, []).append(batch["index"].numpy().tolist())
            consumer.close()

        seen = {}
        thread = threading.Thread(
            target=train_small, args=(session.consumer(config("small", 4, max_epochs=2)), seen)
        )
        thread.start()
        time.sleep(0.2)
        session.start()
        thread.join(timeout=30)
        finish(session, [thread] + ([joined["thread"]] if "thread" in joined else []))
        for epoch in (0, 1):
            assert sizes(seen[epoch]) == [4] * 16
            assert flat(seen[epoch]) == list(range(64))
        if fixed:
            assert "batch size 16" in joined["error"] and "producer batch size 8" in joined["error"]
        else:
            assert joined["epoch"] == 1
            assert list(joined["seen"]) == [1]
            assert sizes(joined["seen"][1]) == [16] * 4
            assert flat(joined["seen"][1]) == list(range(64))


# ---------------------------------------------------------------------------
# the epoch's last rows
# ---------------------------------------------------------------------------


class TestShortLastBatch:
    def test_every_sample_reaches_every_consumer_in_every_epoch(self):
        session = serve("inproc://flexible-tail", 20, 4, epochs=2, producer_batch_size=8)
        results, threads = start_trainers(
            session, [config("four", 4, max_epochs=2), config("eight", 8, max_epochs=2)]
        )
        time.sleep(0.2)
        session.start()
        finish(session, threads)
        for epoch in (0, 1):
            # Producer batches of 8, 8 and a short one of 4.
            assert sizes(results["four"][epoch]) == [4] * 5
            assert sizes(results["eight"][epoch]) == [8, 8, 4]
            for seen in results.values():
                assert flat(seen[epoch]) == list(range(20))

    def test_drop_last_drops_the_short_producer_batch(self):
        loader = DataLoader(IndexDataset(20), batch_size=4, drop_last=True)
        session = repro.serve(
            loader,
            address="inproc://flexible-drop-last",
            flexible_batching=True,
            producer_batch_size=8,
            start=False,
        )
        results, threads = start_trainers(session, [config("four", 4)])
        time.sleep(0.2)
        session.start()
        finish(session, threads)
        assert flat(results["four"][0]) == list(range(16))


# ---------------------------------------------------------------------------
# slice shuffling is a function of the seed, not of the interpreter
# ---------------------------------------------------------------------------


def test_shuffled_slices_are_the_same_in_every_interpreter():
    script = (
        "from repro.core.flexible_batch import FlexibleBatcher\n"
        "batcher = FlexibleBatcher(16, {'consumer-a': 4}, shuffle_slices=True, seed=0)\n"
        "print([s.start for s in batcher.plan_for('consumer-a', 3).slices])\n"
    )
    plans = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        plans.add(result.stdout.strip())
    assert len(plans) == 1


# ---------------------------------------------------------------------------
# rubberband: a late flexible joiner inside the window is caught up
# ---------------------------------------------------------------------------


def test_rubberband_admits_a_late_flexible_joiner_inside_the_window():
    # 8 producer batches of 8; a window of half the epoch is 4 batches.
    session = serve(
        "inproc://flexible-rubberband",
        64,
        8,
        epochs=1,
        producer_batch_size=8,
        rubberband_fraction=0.5,
    )
    joined = {}

    def train_early(consumer, seen):
        for payload, batch in consumer.iter_batches():
            if not joined:
                # Producer batches 0 and 1 go out (the buffer holds two), then
                # the producer waits for this consumer's acks.
                runner = session.producer.runner
                deadline = time.monotonic() + 10
                while runner.batches_published_this_epoch < 2 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert runner.batches_published_this_epoch == 2
                joiner = session.consumer(config("late", 8))
                joined["epoch"] = joiner.wait_until_registered()
                joined["seen"] = {}
                joined["thread"] = threading.Thread(target=train, args=(joiner, joined["seen"]))
                joined["thread"].start()
            seen.setdefault(payload.epoch, []).append(batch["index"].numpy().tolist())
        consumer.close()

    seen = {}
    thread = threading.Thread(target=train_early, args=(session.consumer(config("early", 4)), seen))
    thread.start()
    time.sleep(0.2)
    session.start()
    thread.join(timeout=30)
    finish(session, [thread, joined["thread"]])
    assert joined["epoch"] == 0
    assert session.producer.rubberband.joins_caught_up == 1
    assert flat(seen[0]) == list(range(64))
    assert sizes(joined["seen"][0]) == [8] * 8
    assert flat(joined["seen"][0]) == list(range(64))
