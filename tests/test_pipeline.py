"""Tests for the overlapped producer pipeline and the hot-path fixes riding with it.

Covers the :class:`~repro.core.pipeline.StagePipeline` primitive (ordering,
bounded in-flight window, drain-on-close, error propagation), the producer
running with ``pipeline_depth > 1`` (full delivery, mid-epoch stop, consumer
churn, skip-epoch drain, flexible batching, leak-free shutdown), and the
correctness fixes in the same hot path: duplicate delivery to rubberbanded
joiners, the strict rubberband window boundary, ``TensorConsumer.__len__``,
and heartbeat-sender restart.
"""

import threading
import time

import pytest

from repro.core import (
    ConsumerConfig,
    ProducerConfig,
    SharedLoaderSession,
    StagedItem,
    StagePipeline,
    TensorConsumer,
    TensorProducer,
)
from repro.core.rubberband import JoinDecision, RubberbandPolicy
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
import numpy as np

from repro.messaging import InProcHub
from repro.messaging.message import Message, MessageKind
from repro.tensor import BatchPayload, SharedMemoryPool, from_numpy


def _publisher(hub, address):
    """A fake producer's data channel: publishes straight through the hub."""

    def send(kind, body=None, topic=""):
        return hub.publish(address, Message(topic=topic, kind=kind, sender="test", body=body))

    return send


def _drain(inbox):
    """Every message queued on ``inbox``, without blocking."""
    messages = []
    while (message := inbox.try_receive()) is not None:
        messages.append(message)
    return messages


def small_loader(size=48, batch_size=8, image_size=16, num_workers=0):
    dataset = SyntheticImageDataset(size, image_size=image_size, payload_bytes=32)
    pipeline = Compose([DecodeJpeg(height=image_size, width=image_size), Normalize(), ToTensor()])
    return DataLoader(
        dataset, batch_size=batch_size, transform=pipeline, num_workers=num_workers
    )


def assert_pool_drained(session, timeout=5.0):
    """Assert no staged bytes leak — BEFORE session.shutdown(), which zeroes
    the pool's accounting unconditionally and would make the check vacuous."""
    deadline = time.time() + timeout
    while session.pool.bytes_in_flight and time.time() < deadline:
        time.sleep(0.02)
    assert session.pool.bytes_in_flight == 0
    assert session.pool.live_segments == 0


def run_consumer(session, name, results, max_epochs=1, delay=0.0, stop_after=None):
    if delay:
        time.sleep(delay)
    consumer = session.consumer(
        ConsumerConfig(consumer_id=name, max_epochs=max_epochs, receive_timeout=20)
    )
    seen = []
    for batch in consumer:
        seen.append(tuple(batch["index"].tolist()))
        if stop_after is not None and len(seen) >= stop_after:
            break
    results[name] = seen
    consumer.close()


# ---------------------------------------------------------------------------
# StagePipeline primitive
# ---------------------------------------------------------------------------


class TestStagePipeline:
    def stage(self, item):
        return StagedItem(index=item, value=item * 10)

    def test_depth_one_is_synchronous_and_lazy(self):
        staged_log = []

        def stage(item):
            staged_log.append(item)
            return StagedItem(index=item, value=item)

        pipeline = StagePipeline(iter(range(5)), stage, depth=1)
        assert not pipeline.is_background
        assert staged_log == []  # nothing staged until pulled
        first = next(pipeline)
        assert first.value == 0 and staged_log == [0]
        assert [item.value for item in pipeline] == [1, 2, 3, 4]
        pipeline.close()

    def test_background_mode_preserves_source_order(self):
        pipeline = StagePipeline(iter(range(50)), self.stage, depth=4)
        assert pipeline.is_background
        values = [item.value for item in pipeline]
        assert values == [i * 10 for i in range(50)]
        pipeline.close()

    def test_in_flight_window_is_bounded(self):
        consumed = []
        staged_count = [0]
        max_ahead = [0]

        def stage(item):
            staged_count[0] += 1
            max_ahead[0] = max(max_ahead[0], staged_count[0] - len(consumed))
            return StagedItem(index=item, value=item)

        depth = 3
        pipeline = StagePipeline(iter(range(30)), stage, depth=depth)
        for item in pipeline:
            time.sleep(0.002)  # let the worker run ahead as far as it can
            consumed.append(item.value)
        pipeline.close()
        assert consumed == list(range(30))
        # The worker may hold one item in hand beyond the queue, and the
        # consumer one more; anything past depth + 2 means the bound leaks.
        assert max_ahead[0] <= depth + 2

    def test_close_drains_and_releases_unconsumed_items(self):
        released = []
        pipeline = StagePipeline(
            iter(range(100)),
            self.stage,
            depth=4,
            release_fn=lambda item: released.append(item.index),
        )
        consumed = [next(pipeline).index for _ in range(3)]
        pipeline.close()
        pipeline.close()  # idempotent
        assert consumed == [0, 1, 2]
        # Whatever was staged beyond what we consumed was handed back.
        assert pipeline.items_staged == len(consumed) + len(released)
        assert not set(consumed) & set(released)

    def test_source_error_propagates_to_consumer(self):
        def broken():
            yield 1
            raise RuntimeError("loader died")

        pipeline = StagePipeline(broken(), self.stage, depth=2)
        assert next(pipeline).value == 10
        with pytest.raises(RuntimeError, match="loader died"):
            for _ in pipeline:
                pass
        pipeline.close()

    def test_stage_error_propagates_to_consumer(self):
        def stage(item):
            if item == 2:
                raise ValueError("bad batch")
            return StagedItem(index=item, value=item)

        pipeline = StagePipeline(iter(range(5)), stage, depth=2)
        with pytest.raises(ValueError, match="bad batch"):
            for _ in pipeline:
                pass
        pipeline.close()

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            StagePipeline(iter(()), self.stage, depth=0)


# ---------------------------------------------------------------------------
# DataLoader.prefetch_iter
# ---------------------------------------------------------------------------


class TestPrefetchIter:
    def test_worker_override_delivers_every_batch_in_order(self):
        loader = small_loader(size=40, batch_size=8)  # num_workers=0
        batches = list(loader.prefetch_iter(max_in_flight=2, num_workers=2))
        reference = list(iter(loader))
        assert len(batches) == len(reference) == 5
        for got, want in zip(batches, reference):
            assert got["index"].tolist() == want["index"].tolist()

    def test_close_mid_epoch_stops_iteration(self):
        loader = small_loader(size=80, batch_size=8)
        iterator = loader.prefetch_iter(max_in_flight=2, num_workers=2)
        first = next(iterator)
        assert first["index"].shape[0] == 8
        iterator.close()
        # After close the iterator ends instead of waiting forever on worker
        # results that will never arrive.
        remaining = sum(1 for _ in iterator)
        assert remaining <= 2  # at most what was already in flight

    def test_validation(self):
        loader = small_loader(size=16)
        with pytest.raises(ValueError):
            loader.prefetch_iter(max_in_flight=0, num_workers=1)
        with pytest.raises(ValueError):
            loader.prefetch_iter(num_workers=-1)


# ---------------------------------------------------------------------------
# Producer integration with pipeline_depth > 1
# ---------------------------------------------------------------------------


class TestPipelinedProducer:
    @pytest.mark.parametrize("depth", [2, 4])
    def test_every_batch_delivered_once_and_pool_drained(self, depth):
        session = SharedLoaderSession(
            small_loader(),
            producer_config=ProducerConfig(
                epochs=2, pipeline_depth=depth
            ),
        )
        results = {}
        threads = [
            threading.Thread(
                target=run_consumer, args=(session, f"c{i}", results), kwargs={"max_epochs": 2}
            )
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(not t.is_alive() for t in threads)
        assert_pool_drained(session)
        session.shutdown()
        assert results["c0"] == results["c1"]
        assert len(results["c0"]) == 12  # 6 batches x 2 epochs
        per_epoch = [i for indices in results["c0"][:6] for i in indices]
        assert sorted(per_epoch) == list(range(48))

    def test_pipeline_composes_with_loader_workers(self):
        session = SharedLoaderSession(
            small_loader(num_workers=2),
            producer_config=ProducerConfig(
                epochs=1, pipeline_depth=3
            ),
        )
        results = {}
        session.start()
        run_consumer(session, "c0", results)
        assert_pool_drained(session)
        session.shutdown()
        assert len(results["c0"]) == 6
        assert sorted(i for indices in results["c0"] for i in indices) == list(range(48))

    def test_mid_epoch_stop_releases_every_staged_batch(self):
        session = SharedLoaderSession(
            small_loader(size=160, batch_size=8),
            producer_config=ProducerConfig(
                epochs=None, pipeline_depth=4
            ),
        )
        results = {}
        session.start()
        consumer_thread = threading.Thread(
            target=run_consumer,
            args=(session, "c0", results),
            kwargs={"stop_after": 3, "max_epochs": 1},
        )
        consumer_thread.start()
        consumer_thread.join(timeout=30)
        assert not consumer_thread.is_alive()
        session.producer.stop()
        # The staged batches in flight when stop() hit must all be drained
        # (checked before shutdown(), which zeroes the accounting).
        assert_pool_drained(session)
        session.shutdown()
        assert len(results["c0"]) == 3

    def test_consumer_churn_under_overlap(self):
        session = SharedLoaderSession(
            small_loader(size=64, batch_size=8),
            producer_config=ProducerConfig(
                epochs=1, heartbeat_timeout=3, pipeline_depth=4
            ),
        )
        results = {}
        quitter = threading.Thread(
            target=run_consumer,
            args=(session, "quitter", results),
            kwargs={"stop_after": 2},
        )
        stayer = threading.Thread(target=run_consumer, args=(session, "stayer", results))
        quitter.start()
        stayer.start()
        time.sleep(0.3)
        session.start()
        quitter.join(timeout=30)
        stayer.join(timeout=30)
        assert not stayer.is_alive()
        assert_pool_drained(session)
        session.shutdown()
        assert len(results["stayer"]) == 8

    def test_skip_epoch_drains_staged_batches(self):
        """All consumers leave mid-epoch while a newcomer waits for the next
        epoch: the abandoned epoch's staged batches must not leak."""
        session = SharedLoaderSession(
            small_loader(size=80, batch_size=8),
            producer_config=ProducerConfig(
                epochs=2,
                rubberband_fraction=0.0,  # newcomers always park to the next epoch
                heartbeat_timeout=5,
                pipeline_depth=4,
            ),
        )
        results = {}
        leaver = threading.Thread(
            target=run_consumer,
            args=(session, "leaver", results),
            kwargs={"stop_after": 2},
        )
        leaver.start()
        time.sleep(0.2)
        session.start()
        leaver.join(timeout=30)
        # Now nobody is consuming; the parked newcomer forces a skip-epoch.
        late = threading.Thread(
            target=run_consumer,
            args=(session, "late", results),
            kwargs={"delay": 0.2, "max_epochs": 1},
        )
        late.start()
        late.join(timeout=30)
        assert not late.is_alive()
        assert_pool_drained(session)
        session.shutdown()
        # The late joiner was served a full fresh epoch.
        assert len(results["late"]) == 10

    def test_flexible_batching_with_pipeline_depth(self):
        session = SharedLoaderSession(
            small_loader(size=64, batch_size=16),
            producer_config=ProducerConfig(
                epochs=1,
                flexible_batching=True,
                producer_batch_size=32,
                pipeline_depth=3,
            ),
        )
        sizes = {}

        def consume(name, batch_size):
            consumer = session.consumer(
                ConsumerConfig(
                    consumer_id=name, batch_size=batch_size, max_epochs=1, receive_timeout=20
                )
            )
            observed = set()
            total = 0
            for batch in consumer:
                observed.add(batch["image"].shape[0])
                total += batch["image"].shape[0]
            sizes[name] = (observed, total)
            consumer.close()

        threads = [
            threading.Thread(target=consume, args=("small", 8)),
            threading.Thread(target=consume, args=("large", 16)),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        session.start()
        for thread in threads:
            thread.join(timeout=40)
        assert all(not t.is_alive() for t in threads)
        assert_pool_drained(session)
        session.shutdown()
        assert sizes["small"][0] == {8}
        assert sizes["large"][0] == {16}
        assert sizes["small"][1] >= 64
        assert sizes["large"][1] >= 64

    def test_depth_one_stays_synchronous(self):
        """The default depth spawns no stage worker (today's behaviour)."""
        before = {t.name for t in threading.enumerate()}
        session = SharedLoaderSession(
            small_loader(size=16, batch_size=8),
            producer_config=ProducerConfig(epochs=1),
        )
        results = {}
        session.start()
        run_consumer(session, "c0", results)
        during = {t.name for t in threading.enumerate()} - before
        session.shutdown()
        assert len(results["c0"]) == 2
        assert not any("stage" in name for name in during)

    def test_depth_one_does_not_stage_while_waiting_for_consumers(self):
        """At the default depth the classic order holds: a batch is loaded
        before the capacity wait but staged only at publish time, so no
        shared memory is held while the producer idles for its first
        consumer."""
        session = SharedLoaderSession(
            small_loader(size=16, batch_size=8),
            producer_config=ProducerConfig(epochs=1),
        )
        results = {}
        session.start()
        time.sleep(0.3)
        assert session.producer.payloads_published == 0
        assert session.producer.batches_loaded == 0  # nothing staged yet
        assert session.pool.bytes_in_flight == 0
        run_consumer(session, "c0", results)
        assert_pool_drained(session)
        session.shutdown()
        assert len(results["c0"]) == 2

    def test_pipeline_config_validation(self):
        with pytest.raises(ValueError):
            ProducerConfig(pipeline_depth=0)
        with pytest.raises(ValueError):
            ProducerConfig(pipeline_workers=-1)


# ---------------------------------------------------------------------------
# Duplicate delivery to rubberbanded joiners (regression)
# ---------------------------------------------------------------------------


class TestDuplicateDeliveryRegression:
    def test_joiner_never_trains_on_the_same_batch_twice(self):
        """The producer publishes between a consumer's subscribe and its HELLO
        processing, then replays the window: the consumer must train exactly
        once per batch, acknowledge the duplicates, and leave no memory pinned.

        The producer is stepped on the main thread so the replay happens at an
        exact point; the consumers iterate on their own threads (the producer
        halts for a catching-up joiner, so its acks must flow concurrently).
        """
        hub = InProcHub()
        pool = SharedMemoryPool()
        producer = TensorProducer(
            small_loader(size=32, batch_size=8),  # 4 batches/epoch
            hub=hub,
            pool=pool,
            config=ProducerConfig(
                epochs=1,
                rubberband_fraction=0.75,  # window = 3 batches
                buffer_size=16,
            ),
        )
        first = TensorConsumer(
            hub=hub, pool=pool,
            config=ConsumerConfig(
                consumer_id="first", max_epochs=1, buffer_size=16, receive_timeout=20
            ),
        )
        seen = {}

        def consume(consumer, name):
            seen[name] = [tuple(batch["index"].tolist()) for batch in consumer]

        first_thread = threading.Thread(target=consume, args=(first, "first"))
        first_thread.start()
        iterator = iter(producer)
        next(iterator)  # registers "first", publishes + window-caches batch 0

        late = TensorConsumer(
            hub=hub, pool=pool,
            config=ConsumerConfig(
                consumer_id="late", max_epochs=1, buffer_size=16, receive_timeout=20
            ),
        )
        late_thread = threading.Thread(target=consume, args=(late, "late"))
        late_thread.start()
        next(iterator)  # processes late's HELLO (catch-up: replays batch 0), publishes batch 1
        assert producer.rubberband.joins_caught_up == 1
        # The race under test: the window (batches 0 and 1) is replayed again,
        # duplicating deliveries the consumer already received.
        producer._send_replays("late", producer.protocol.replay("late"))
        for _ in iterator:  # batches 2 and 3, epoch end
            pass
        first_thread.join(timeout=20)
        late_thread.join(timeout=20)
        assert not first_thread.is_alive() and not late_thread.is_alive()
        producer.join(timeout=5)

        assert late.duplicates_dropped == 2
        assert first.duplicates_dropped == 0
        # Every sample exactly once for both consumers — no double training.
        assert sorted(i for indices in seen["first"] for i in indices) == list(range(32))
        assert sorted(i for indices in seen["late"] for i in indices) == list(range(32))
        # The duplicate acknowledgements released every replay hold.
        assert producer.ledger.pending_batches == 0
        assert pool.bytes_in_flight == 0
        first.close()
        late.close()

    @staticmethod
    def _manual_channel(pool):
        """A hand-driven producer side: the hub's data channel and a bound
        control inbox."""
        hub = InProcHub()
        pub = _publisher(hub, "tensorsocket/data")
        control = hub.bind("tensorsocket/control")

        def payload_for(index):
            staged = {
                "x": pool.share_tensor(from_numpy(np.full(4, index, dtype=np.float32)))
            }
            return BatchPayload.pack(staged, batch_index=index, epoch=0)

        return hub, pub, control, payload_for

    def test_duplicate_of_buffered_batch_is_not_acknowledged_early(self):
        """A duplicate arriving while the original is still un-trained in the
        buffer must NOT be acknowledged: an early ack clears the producer's
        outstanding count while the batch still occupies a buffer slot,
        letting the producer overrun the consumer's buffer capacity."""
        pool = SharedMemoryPool()
        hub, pub, control, payload_for = self._manual_channel(pool)
        consumer = TensorConsumer(
            hub=hub, pool=pool,
            config=ConsumerConfig(consumer_id="d", max_epochs=1, buffer_size=2),
        )
        pub(
            MessageKind.REPLY,
            body={"consumer_id": "d", "admitted_epoch": 0},
            topic="consumer/d",
        )
        p0, p1 = payload_for(0), payload_for(1)
        pub(MessageKind.BATCH, body=p0, topic="broadcast")
        pub(MessageKind.BATCH, body=p0, topic="consumer/d")  # dup, un-trained
        pub(MessageKind.BATCH, body=p1, topic="broadcast")
        pub(MessageKind.EPOCH_END, body={"epoch": 0, "batches": 2}, topic="broadcast")
        # The reactor fans deliveries into the mailbox concurrently with this
        # thread; wait for all of them so the duplicate is provably ingested
        # while the original sits un-trained in the buffer (the case under
        # test).  If the dup straggled in after batch 0's training ack, it
        # would legitimately be re-acknowledged as a rubberband replay.
        deadline = time.monotonic() + 5.0
        while consumer._mailbox.qsize() < 4 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert consumer._mailbox.qsize() >= 4
        values = [batch["x"].numpy()[0] for batch in consumer]
        assert values == [0.0, 1.0]
        assert consumer.duplicates_dropped == 1
        ack_keys = [
            (m.body["epoch"], m.body["batch_index"])
            for m in _drain(control)
            if m.kind is MessageKind.ACK
        ]
        assert ack_keys.count((0, 0)) == 1  # exactly the training ack, no early dup ack
        assert ack_keys.count((0, 1)) == 1
        consumer.close()
        pool.shutdown()

    def test_duplicate_after_acknowledgement_is_acknowledged(self):
        """A duplicate of a batch already trained and acked IS acked again —
        that is the case where the producer re-sent it with a fresh hold
        that only this ack can release."""
        pool = SharedMemoryPool()
        hub, pub, control, payload_for = self._manual_channel(pool)
        consumer = TensorConsumer(
            hub=hub, pool=pool,
            config=ConsumerConfig(consumer_id="d", max_epochs=1, buffer_size=2),
        )
        pub(
            MessageKind.REPLY,
            body={"consumer_id": "d", "admitted_epoch": 0},
            topic="consumer/d",
        )
        p0, p1 = payload_for(0), payload_for(1)
        pub(MessageKind.BATCH, body=p0, topic="broadcast")
        iterator = iter(consumer)
        next(iterator)  # trains p0 (its ack is sent when iteration resumes)
        pub(MessageKind.BATCH, body=p0, topic="consumer/d")  # dup, post-training
        pub(MessageKind.BATCH, body=p1, topic="broadcast")
        pub(MessageKind.EPOCH_END, body={"epoch": 0, "batches": 2}, topic="broadcast")
        assert sum(1 for _ in iterator) == 1
        assert consumer.duplicates_dropped == 1
        ack_keys = [
            (m.body["epoch"], m.body["batch_index"])
            for m in _drain(control)
            if m.kind is MessageKind.ACK
        ]
        assert ack_keys.count((0, 0)) == 2  # training ack + duplicate ack
        assert ack_keys.count((0, 1)) == 1
        consumer.close()
        pool.shutdown()

    def test_repeated_replay_takes_no_extra_holds(self):
        """Replaying a window twice must not double-retain segments for a
        consumer that already owes an ack for them."""
        hub = InProcHub()
        pool = SharedMemoryPool()
        producer = TensorProducer(
            small_loader(size=32, batch_size=8),
            hub=hub,
            pool=pool,
            config=ProducerConfig(
                epochs=1, rubberband_fraction=0.75, buffer_size=16
            ),
        )
        first = TensorConsumer(
            hub=hub, pool=pool,
            config=ConsumerConfig(consumer_id="first", max_epochs=1, buffer_size=16),
        )
        iterator = iter(producer)
        next(iterator)
        late = TensorConsumer(
            hub=hub, pool=pool,
            config=ConsumerConfig(consumer_id="late", max_epochs=1, buffer_size=16),
        )
        producer._process_control()  # admits "late", replays batch 0
        segment = producer.protocol.window[0].segment_names[0]
        refcount_after_first_replay = pool.refcount(segment)
        producer._send_replays("late", producer.protocol.replay("late"))
        assert pool.refcount(segment) == refcount_after_first_replay
        producer.stop()
        for consumer in (first, late):
            consumer.close()
        producer.join(timeout=5)
        assert pool.bytes_in_flight == 0


# ---------------------------------------------------------------------------
# Rubberband window boundary (strict "before 2%")
# ---------------------------------------------------------------------------


class TestRubberbandWindowBoundary:
    def test_join_at_exact_window_boundary_waits(self):
        policy = RubberbandPolicy(0.02, batches_per_epoch=1000)  # window = 20
        assert policy.within_window(19)
        assert not policy.within_window(20)  # the window has been fully iterated
        assert policy.decide("on-boundary", 20) is JoinDecision.WAIT_FOR_NEXT_EPOCH
        assert policy.decide("inside", 19) is JoinDecision.CATCH_UP

    def test_single_batch_window_only_admits_before_first_publish_completes(self):
        policy = RubberbandPolicy(0.02, batches_per_epoch=10)  # window = max(1, 0) = 1
        assert policy.decide("immediate", 0) is JoinDecision.IMMEDIATE
        assert policy.decide("late", 1) is JoinDecision.WAIT_FOR_NEXT_EPOCH


# ---------------------------------------------------------------------------
# Consumer __len__ (batches in the last completed epoch)
# ---------------------------------------------------------------------------


class TestConsumerLen:
    def test_len_does_not_double_across_epochs(self):
        session = SharedLoaderSession(
            small_loader(size=24, batch_size=8),
            producer_config=ProducerConfig(epochs=3),
        )
        session.start()
        consumer = session.consumer(
            ConsumerConfig(consumer_id="sized", max_epochs=3, receive_timeout=20)
        )
        lengths = []
        for batch in consumer:
            del batch
            lengths.append(len(consumer))
        session.shutdown()
        assert consumer.batches_consumed == 9
        # After the run, len() reports one epoch's batches, not the total.
        assert len(consumer) == 3
        # And it can feed RubberbandPolicy.set_epoch_length as a sized loader.
        policy = RubberbandPolicy(0.5)
        policy.set_epoch_length(len(consumer))
        assert policy.window_batches == 1

    def test_len_before_first_epoch_completes_tracks_progress(self):
        session = SharedLoaderSession(
            small_loader(size=16, batch_size=8),
            producer_config=ProducerConfig(epochs=1),
        )
        session.start()
        consumer = session.consumer(
            ConsumerConfig(consumer_id="early", max_epochs=1, receive_timeout=20)
        )
        iterator = iter(consumer)
        next(iterator)
        assert len(consumer) == 1  # best-effort running count, as before
        for _ in iterator:
            pass
        session.shutdown()
        assert len(consumer) == 2
