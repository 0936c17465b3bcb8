"""Integration tests of the runnable TensorSocket library (threaded real mode).

These exercise the complete protocol: registration, zero-copy payload
delivery, acknowledgements and memory release, epoch boundaries, consumer
departure, flexible batch sizing, and shutdown.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    ConsumerConfig,
    ProducerConfig,
    SharedLoaderSession,
    TensorConsumer,
    TensorProducer,
)
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
from repro.messaging import InProcHub
from repro.tensor import SharedMemoryPool


def small_loader(size=48, batch_size=8, image_size=16):
    dataset = SyntheticImageDataset(size, image_size=image_size, payload_bytes=32)
    pipeline = Compose([DecodeJpeg(height=image_size, width=image_size), Normalize(), ToTensor()])
    return DataLoader(dataset, batch_size=batch_size, transform=pipeline)


def run_consumer(session, name, results, max_epochs=1, batch_size=None, delay=0.0,
                 per_batch_sleep=0.0):
    """Consume every batch, recording a digest of the tensor contents."""
    if delay:
        time.sleep(delay)
    consumer = session.consumer(
        ConsumerConfig(
            consumer_id=name,
            max_epochs=max_epochs,
            batch_size=batch_size,
            receive_timeout=20,
        )
    )
    digests = []
    for batch in consumer:
        digests.append(
            (batch["index"].tolist(), round(float(batch["image"].numpy().sum()), 3))
        )
        if per_batch_sleep:
            time.sleep(per_batch_sleep)
    results[name] = digests
    consumer.close()


@pytest.fixture
def session():
    session = SharedLoaderSession(
        small_loader(),
        producer_config=ProducerConfig(epochs=1, heartbeat_timeout=5),
    )
    yield session
    session.shutdown()


class TestSingleConsumer:
    def test_consumer_receives_every_batch_once(self, session):
        results = {}
        session.start()
        run_consumer(session, "c0", results)
        assert len(results["c0"]) == 6
        seen_indices = [i for indices, _ in results["c0"] for i in indices]
        assert sorted(seen_indices) == list(range(48))

    def test_memory_is_released_after_the_run(self, session):
        results = {}
        session.start()
        run_consumer(session, "c0", results)
        # Allow the producer to process the final acknowledgements.
        deadline = time.time() + 5
        while session.pool.live_segments and time.time() < deadline:
            time.sleep(0.05)
        assert session.pool.live_segments == 0

    def test_producer_statistics(self, session):
        results = {}
        session.start()
        run_consumer(session, "c0", results)
        deadline = time.time() + 5
        while session.producer.payloads_published < 6 and time.time() < deadline:
            time.sleep(0.05)
        assert session.producer.payloads_published == 6
        assert session.producer.batches_loaded == 6


class TestMultipleConsumers:
    def test_all_consumers_see_identical_data(self, session):
        results = {}
        threads = [
            threading.Thread(target=run_consumer, args=(session, f"c{i}", results))
            for i in range(3)
        ]
        # Register all consumers before the producer starts publishing so none
        # of them is parked until the next epoch by the admission policy.
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(not t.is_alive() for t in threads)
        assert results["c0"] == results["c1"] == results["c2"]
        assert len(results["c0"]) == 6

    def test_consumers_share_memory_not_copies(self):
        hub = InProcHub()
        pool = SharedMemoryPool()
        producer = TensorProducer(
            small_loader(size=16, batch_size=8),
            hub=hub,
            pool=pool,
            config=ProducerConfig(epochs=1),
        )
        received = {}

        def consume(name):
            consumer = TensorConsumer(
                hub=hub, pool=pool, config=ConsumerConfig(consumer_id=name, max_epochs=1)
            )
            received[name] = [batch["image"] for batch in consumer]
            consumer.close()

        threads = [threading.Thread(target=consume, args=(f"c{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        for _ in producer:
            pass
        producer.join()
        for thread in threads:
            thread.join(timeout=20)
        # The tensors observed by both consumers are views of the same buffers.
        for a, b in zip(received["c0"], received["c1"]):
            assert a.shares_memory_with(b)
        pool.shutdown()

    def test_multi_epoch_run(self):
        session = SharedLoaderSession(
            small_loader(size=24, batch_size=8),
            producer_config=ProducerConfig(epochs=3),
        )
        results = {}
        session.start()
        run_consumer(session, "c0", results, max_epochs=3)
        session.shutdown()
        assert len(results["c0"]) == 9  # 3 batches/epoch x 3 epochs


class TestDynamicMembership:
    def test_consumer_leaving_does_not_block_others(self):
        session = SharedLoaderSession(
            small_loader(size=64, batch_size=8),
            producer_config=ProducerConfig(epochs=1, heartbeat_timeout=3),
        )
        results = {}

        def quitting_consumer():
            consumer = session.consumer(
                ConsumerConfig(consumer_id="quitter", max_epochs=1, receive_timeout=20)
            )
            for index, _batch in enumerate(consumer):
                if index >= 2:
                    break
            consumer.close()

        quitter = threading.Thread(target=quitting_consumer)
        stayer = threading.Thread(target=run_consumer, args=(session, "stayer", results))
        # Register both consumers before the producer starts publishing so the
        # test is not sensitive to registration timing.
        quitter.start()
        stayer.start()
        time.sleep(0.3)
        session.start()
        quitter.join(timeout=30)
        stayer.join(timeout=30)
        assert not stayer.is_alive()
        assert len(results["stayer"]) == 8
        session.shutdown()

    def test_late_consumer_waits_for_next_epoch(self):
        session = SharedLoaderSession(
            small_loader(size=64, batch_size=8),
            producer_config=ProducerConfig(
                epochs=2, rubberband_fraction=0.0
            ),
        )
        results = {}
        session.start()
        early = threading.Thread(
            target=run_consumer,
            args=(session, "early", results),
            kwargs={"max_epochs": 2, "per_batch_sleep": 0.08},
        )
        late = threading.Thread(
            target=run_consumer,
            args=(session, "late", results),
            kwargs={"max_epochs": 1, "delay": 0.3},
        )
        early.start()
        late.start()
        early.join(timeout=40)
        late.join(timeout=40)
        assert not early.is_alive() and not late.is_alive()
        assert len(results["early"]) == 16
        # The late joiner only participates once a fresh epoch starts, so it
        # sees at most one full epoch of batches.
        assert 0 < len(results["late"]) <= 8
        session.shutdown()

    def test_producer_waits_for_first_consumer(self):
        session = SharedLoaderSession(
            small_loader(size=16, batch_size=8),
            producer_config=ProducerConfig(epochs=1),
        )
        results = {}
        session.start()
        time.sleep(0.2)
        # Nothing should have been published while no consumer is registered.
        assert session.producer.payloads_published == 0
        run_consumer(session, "c0", results)
        assert len(results["c0"]) == 2
        session.shutdown()


class TestFlexibleBatchingIntegration:
    def test_consumers_receive_their_requested_batch_sizes(self):
        config = ProducerConfig(
            epochs=1,
            flexible_batching=True,
            producer_batch_size=32,
        )
        session = SharedLoaderSession(small_loader(size=64, batch_size=16), producer_config=config)
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

        # Register both consumers before the producer starts so the flexible
        # batcher is built with both batch sizes (avoids admission races).
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
        session.shutdown()
        assert sizes["small"][0] == {8}
        assert sizes["large"][0] == {16}
        # Both consumers traverse the same amount of underlying data (64 rows,
        # modulo the bounded repetition flexible batching allows).
        assert sizes["small"][1] >= 64
        assert sizes["large"][1] >= 64


class TestShutdownAndErrors:
    def test_join_announces_shutdown_to_consumers(self):
        hub = InProcHub()
        pool = SharedMemoryPool()
        producer = TensorProducer(
            small_loader(size=16, batch_size=8),
            hub=hub,
            pool=pool,
            config=ProducerConfig(epochs=1),
        )
        consumer = TensorConsumer(hub=hub, pool=pool, config=ConsumerConfig(receive_timeout=20))
        batches = []

        def consume():
            for batch in consumer:
                batches.append(batch)

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.1)
        for _ in producer:
            pass
        producer.join()
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert len(batches) == 2
        consumer.close()
        pool.shutdown()

    def test_closed_consumer_cannot_be_iterated(self):
        hub = InProcHub()
        consumer = TensorConsumer(hub=hub, pool=SharedMemoryPool(), config=ConsumerConfig())
        consumer.close()
        with pytest.raises(RuntimeError):
            iter(consumer).__next__()

    def test_stop_ends_the_producer_early(self):
        session = SharedLoaderSession(
            small_loader(size=64, batch_size=8),
            producer_config=ProducerConfig(epochs=None),
        )
        results = {}
        session.start()
        consumer_thread = threading.Thread(
            target=run_consumer, args=(session, "c0", results), kwargs={"max_epochs": 1}
        )
        consumer_thread.start()
        consumer_thread.join(timeout=30)
        session.producer.stop()
        session.shutdown()
        assert not session.is_running
