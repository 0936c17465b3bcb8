"""Flexible batch sizing and batch-order variation (paper Sections 3.2.6/3.2.7).

Two consumers request *different* batch sizes from the same producer.  The
producer collates larger producer batches and serves each consumer row-slices
of its requested size, so both traverse the dataset at the same rate.  The
example also prints the slicing plan and its bounded data repetition — the
quantities illustrated by the paper's Figure 5.

Run with::

    python examples/flexible_batching_demo.py
"""

import threading
from collections import Counter

import repro
from repro.core.flexible_batch import FlexibleBatcher, recommend_producer_batch_size
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor

ADDRESS = "inproc://flexible-demo"


def consume(name, batch_size, observations):
    consumer = repro.attach(
        ADDRESS, consumer_id=name, batch_size=batch_size, max_epochs=1
    )
    sizes = Counter()
    rows = 0
    samples = set()
    for batch in consumer:
        sizes[batch["image"].shape[0]] += 1
        rows += batch["image"].shape[0]
        samples.update(batch["index"].tolist())
    observations[name] = {"batch_sizes_seen": dict(sizes), "rows": rows, "samples": samples}
    consumer.close()


def main() -> None:
    # Six producer batches of 48: no short last batch.
    dataset = SyntheticImageDataset(size=288, image_size=24, payload_bytes=128)
    pipeline = Compose([DecodeJpeg(height=24, width=24), Normalize(), ToTensor()])
    loader = DataLoader(dataset, batch_size=32, transform=pipeline)

    consumer_batches = {"consumer-a": 16, "consumer-b": 24}
    producer_batch = recommend_producer_batch_size(list(consumer_batches.values()))

    print("Flexible batch sizing")
    print("---------------------")
    print(f"consumer batch sizes: {consumer_batches}")
    print(f"recommended producer batch size: {producer_batch}")
    planner = FlexibleBatcher(producer_batch, consumer_batches, use_offsets=True)
    for consumer, share in planner.repetition_report().items():
        plan = planner.plan_for(consumer)
        print(f"  {consumer}: {len(plan.slices)} slices per producer batch, "
              f"repeated share {share:.1%}")

    # Bind the address first (start=False) so both consumers can attach by
    # URI before the producer fixes the batch geometry for the epoch.
    session = repro.serve(
        loader,
        address=ADDRESS,
        epochs=1,
        flexible_batching=True,
        producer_batch_size=producer_batch,
        consumer_offsets=True,
        shuffle_slices=True,
        start=False,
    )
    observations: dict = {}
    threads = [
        threading.Thread(target=consume, args=(name, size, observations))
        for name, size in consumer_batches.items()
    ]
    for thread in threads:
        thread.start()
    session.start()
    for thread in threads:
        thread.join()
    session.shutdown()

    print()
    print("Observed at the consumers")
    print("-------------------------")
    for name, row in sorted(observations.items()):
        print(f"  {name}: batch sizes {row['batch_sizes_seen']}, {row['rows']} rows consumed "
              f"(dataset has {len(dataset)})")
    if all(
        set(observations[name]["batch_sizes_seen"]) == {size}
        and observations[name]["samples"] == set(range(len(dataset)))
        for name, size in consumer_batches.items()
    ):
        print("every consumer saw only its own batch size and every sample")


if __name__ == "__main__":
    main()
