"""Micro-benchmarks of the real (non-simulated) library primitives.

These measure the mechanisms Section 3.2.4 relies on: packing a batch into a
pointer payload, rebuilding tensors from handles, and pushing batches through
the in-process producer/consumer protocol end to end.
"""

import numpy as np

import repro
from repro.core import ConsumerConfig
from repro.core.group import attach_address
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
from repro.tensor import BatchPayload, SharedMemoryPool, from_numpy


def test_payload_pack_unpack_throughput(benchmark, bench_record):
    pool = SharedMemoryPool()
    images = pool.share_tensor(from_numpy(np.zeros((128, 3, 64, 64), dtype=np.float32)))
    labels = pool.share_tensor(from_numpy(np.zeros(128, dtype=np.int64)))

    def pack_and_unpack():
        payload = BatchPayload.pack({"inputs": images, "targets": labels}, batch_index=0, epoch=0)
        return payload.unpack(pool)

    result = benchmark(pack_and_unpack)
    assert result["inputs"].shares_memory_with(images)
    mean = benchmark.stats.stats.mean
    bench_record(mean_seconds=mean, roundtrips_per_sec=1.0 / mean)
    pool.shutdown()


def test_shared_loader_end_to_end_throughput(benchmark, bench_record):
    """One epoch through serve() + attach() on the inproc:// transport."""

    def one_epoch():
        dataset = SyntheticImageDataset(64, image_size=16, payload_bytes=32)
        pipeline = Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()])
        loader = DataLoader(dataset, batch_size=16, transform=pipeline)
        session = repro.serve(
            loader, address="inproc://microbench", epochs=1
        )
        consumer = repro.attach(
            "inproc://microbench", max_epochs=1, receive_timeout=20
        )
        batches = sum(1 for _ in consumer)
        consumer.close()
        session.shutdown()
        return batches

    batches = benchmark.pedantic(one_epoch, rounds=3, iterations=1)
    mean = benchmark.stats.stats.mean
    bench_record(mean_epoch_seconds=mean, batches_per_sec=batches / mean, transport="inproc")
    assert batches == 4


def test_shared_loader_tcp_end_to_end_throughput(benchmark, bench_record):
    """The same epoch over the tcp:// transport, for comparison with the
    inproc:// number above: envelopes cross a real loopback socket through the
    broker while tensor bytes stay in posix shared memory.

    The consumer attaches through ``attach_address`` (not ``repro.attach``) so it dials the
    broker instead of taking the same-process session shortcut.
    """

    def one_epoch():
        dataset = SyntheticImageDataset(64, image_size=16, payload_bytes=32)
        pipeline = Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()])
        loader = DataLoader(dataset, batch_size=16, transform=pipeline)
        session = repro.serve(
            loader, address="tcp://127.0.0.1:0", epochs=1,
            start=False,
        )
        consumer = attach_address(
            session.address, ConsumerConfig(max_epochs=1, receive_timeout=20)
        )
        session.start()
        batches = sum(1 for _ in consumer)
        consumer.close()
        session.shutdown()
        return batches

    batches = benchmark.pedantic(one_epoch, rounds=3, iterations=1)
    mean = benchmark.stats.stats.mean
    bench_record(mean_epoch_seconds=mean, batches_per_sec=batches / mean, transport="tcp")
    assert batches == 4
