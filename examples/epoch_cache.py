"""Epoch cache: pay the loading cost once *ever*, not once per epoch.

Two trainers share one loader with an expensive (~2 ms/item) preprocessing
pipeline across three epochs, served with ``cache="all"``.  Epoch 0 runs the
loader and stages every batch in shared memory; epochs 1 and 2 republish the
retained segments — no loading, no decoding, no copies — so their throughput
is bounded only by publish/ack work.  The per-epoch table printed at the end
shows the epoch-2+ speedup, and the cache counters confirm the loader was
never touched again.

Run with::

    python examples/epoch_cache.py
"""

import threading
import time

import repro
from repro.core import ConsumerConfig
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, SleepTransform, ToTensor

ADDRESS = "inproc://epoch-cache"
EPOCHS = 3
BATCH_SIZE = 8
N_ITEMS = 128
SECONDS_PER_ITEM = 0.002  # stands in for heavy decode/augmentation work


def build_loader() -> DataLoader:
    dataset = SyntheticImageDataset(size=N_ITEMS, image_size=32, payload_bytes=256)
    pipeline = SleepTransform(
        Compose([DecodeJpeg(height=32, width=32), Normalize(), ToTensor()]),
        seconds_per_item=SECONDS_PER_ITEM,
    )
    return DataLoader(dataset, batch_size=BATCH_SIZE, transform=pipeline)


def train(session, name: str, stats: dict) -> None:
    """A 'training process' that records its throughput per epoch."""
    consumer = session.consumer(
        ConsumerConfig(consumer_id=name, max_epochs=EPOCHS, receive_timeout=60)
    )
    batches_per_epoch = N_ITEMS // BATCH_SIZE
    rates = {}
    count = 0
    started = time.perf_counter()
    for batch in consumer:
        _ = batch["image"]  # zero-copy shared view; training step goes here
        count += 1
        if count % batches_per_epoch == 0:
            now = time.perf_counter()
            rates[count // batches_per_epoch - 1] = batches_per_epoch / (now - started)
            started = now
    stats[name] = rates
    consumer.close()


def main() -> None:
    session = repro.serve(
        build_loader(), address=ADDRESS, epochs=EPOCHS, cache="all", start=False
    )
    stats: dict = {}
    trainers = [
        threading.Thread(target=train, args=(session, f"trainer-{i}", stats))
        for i in range(2)
    ]
    for trainer in trainers:
        trainer.start()
    time.sleep(0.2)  # let both trainers register before the first batch
    session.start()
    for trainer in trainers:
        trainer.join()

    metrics = session.metrics()
    cache = metrics["repro.cache"]
    session.shutdown()

    print("Epoch caching: repeat epochs straight from shared memory")
    print("--------------------------------------------------------")
    print("| trainer | epoch | source | batches/sec |")
    print("|---------|-------|--------|-------------|")
    for name, rates in sorted(stats.items()):
        for epoch, rate in sorted(rates.items()):
            source = "loader" if epoch == 0 else "cache"
            print(f"| {name} | {epoch} | {source} | {rate:10.1f} |")
    epoch0 = min(rates[0] for rates in stats.values())
    cached = min(rates[e] for rates in stats.values() for e in rates if e >= 1)
    print(f"cached-epoch speedup: {cached / epoch0:.1f}x")
    print(
        f"loader ran {metrics['repro.producer.batches_loaded']} batches (epoch 0 only); "
        f"cache served {cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['evictions']} evictions"
    )


if __name__ == "__main__":
    main()
