"""Sharded serving: one dataset, three cooperating producers, two trainers.

A single producer tops out at one thread's load/stage bandwidth.  Serving
with ``shards=3`` splits the sample space over three member producers that
load their disjoint shards concurrently behind **one** address — the trainers
still call ``repro.attach(address)`` and iterate one ordered stream covering
the whole dataset every epoch (merged by ``(epoch, batch index, shard)``; add
``interleave="any"`` for arrival-order delivery).

The table printed at the end shows ``session.metrics()``'s per-member rows:
each shard loaded roughly a third of the batches, both trainers consumed the
full dataset each epoch, and the shared pool drained to zero.

Run with::

    python examples/sharded_serving.py
"""

import threading
import time

import repro
from repro.core import ConsumerConfig
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, SleepTransform, ToTensor

ADDRESS = "inproc://sharded-serving"
SHARDS = 3
TRAINERS = 2
EPOCHS = 2
BATCH_SIZE = 8
N_ITEMS = 120
SECONDS_PER_ITEM = 0.002  # stands in for heavy decode/augmentation work


def build_loader() -> DataLoader:
    dataset = SyntheticImageDataset(size=N_ITEMS, image_size=32, payload_bytes=256)
    pipeline = SleepTransform(
        Compose([DecodeJpeg(height=32, width=32), Normalize(), ToTensor()]),
        seconds_per_item=SECONDS_PER_ITEM,
    )
    return DataLoader(dataset, batch_size=BATCH_SIZE, transform=pipeline)


def train(session, name: str, results: dict) -> None:
    """A 'training process': attach to the group, count what it sees."""
    consumer = session.consumer(
        ConsumerConfig(consumer_id=name, max_epochs=EPOCHS, receive_timeout=60)
    )
    samples = 0
    started = time.perf_counter()
    for batch in consumer:
        samples += batch["image"].shape[0]  # zero-copy shared view
    elapsed = time.perf_counter() - started
    results[name] = (samples, consumer.batches_consumed, elapsed)
    consumer.close()


def main() -> None:
    session = repro.serve(
        build_loader(), address=ADDRESS, shards=SHARDS, epochs=EPOCHS, start=False
    )
    print(f"serving {N_ITEMS} samples x {EPOCHS} epochs from {SHARDS} shards at {ADDRESS}")

    results: dict = {}
    trainers = [
        threading.Thread(target=train, args=(session, f"trainer-{i}", results))
        for i in range(TRAINERS)
    ]
    for thread in trainers:
        thread.start()
    time.sleep(0.2)  # let both trainers register before the first batch
    session.start()
    for thread in trainers:
        thread.join()

    metrics = session.metrics()
    print("\n| shard | address | batches loaded | payloads published |")
    print("|---|---|---|---|")
    for shard, (member, row) in enumerate(zip(session.members, metrics["repro.group.members"])):
        print(
            f"| {shard} | {member.address.split('//', 1)[1]} "
            f"| {row['repro.producer.batches_loaded']} | {row['repro.producer.publishes']} |"
        )
    print(
        f"\ngroup totals: {metrics['repro.producer.batches_loaded']} batches loaded, "
        f"{metrics['repro.producer.publishes']} payloads published, "
        f"bytes_in_flight={metrics['repro.pool.bytes_in_flight']}"
    )
    for name, (samples, batches, elapsed) in sorted(results.items()):
        print(
            f"{name}: {samples} samples in {batches} batches "
            f"({samples / elapsed:.0f} samples/sec)"
        )
    expected = N_ITEMS * EPOCHS
    assert all(samples == expected for samples, _, _ in results.values()), results
    session.shutdown()
    print("\nevery trainer saw every sample exactly once per epoch; pool drained.")


if __name__ == "__main__":
    main()
