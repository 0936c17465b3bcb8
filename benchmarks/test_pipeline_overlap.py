"""Producer overlap microbenchmark: slow transform x fast consumers.

Per-item preprocessing is expensive and consumers train faster than the
loader loads.  The producer runs no prefetcher of its own: it wraps the
loader as it is.  With a synchronous loader (``num_workers=0``) it alternates
between loading and delivering, so consumers stall on every batch; with the
loader's own workers (``DataLoader(num_workers=4)``) loading runs ahead within
the loader's prefetch budget and the publish loop stays busy.

The headline measurement asserts the overlap is real: **>= 1.3x batches/sec
with ``num_workers=4`` vs ``num_workers=0``** with a >= 2 ms/item transform
and two fast consumers on ``inproc://``.  (Expected gain is ~3x — the slow
transform parallelizes across the loader's workers — so 1.3x leaves CI
headroom.)  A ``tcp://`` variant measures the same producer across the broker
path.

Sizes are deliberately small; the suite doubles as the CI smoke test for a
wedged pipeline (CI runs it under ``timeout``).
"""

import os
import time

import pytest

import repro
from repro.core import ConsumerConfig
from repro.core.group import attach_address
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, SleepTransform, ToTensor

import threading

#: Tiny-size mode for CI smoke runs (REPRO_BENCH_TINY=1): enough batches to
#: catch a wedged pipeline, too few for a stable throughput ratio.
TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

SECONDS_PER_ITEM = 0.002  # the issue's "slow transform" floor
BATCH_SIZE = 4
N_ITEMS = 32 if TINY else 96
N_CONSUMERS = 2


def make_loader(num_workers):
    dataset = SyntheticImageDataset(N_ITEMS, image_size=16, payload_bytes=32)
    pipeline = SleepTransform(
        Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()]),
        seconds_per_item=SECONDS_PER_ITEM,
    )
    return DataLoader(
        dataset, batch_size=BATCH_SIZE, transform=pipeline, num_workers=num_workers
    )


def run_epoch(address, num_workers, *, direct_consumer=False):
    """One epoch over a loader with ``num_workers`` workers; returns batches/sec."""
    session = repro.serve(make_loader(num_workers), address=address, epochs=1, start=False)
    counts = {}

    def consume(name):
        config = ConsumerConfig(consumer_id=name, max_epochs=1, receive_timeout=30)
        if direct_consumer:
            consumer = attach_address(session.address, config)
        else:
            consumer = session.consumer(config)
        counts[name] = sum(1 for _ in consumer)
        consumer.close()

    threads = [
        threading.Thread(target=consume, args=(f"bench-{i}",)) for i in range(N_CONSUMERS)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.2)  # let both consumers register before the first batch
    started = time.perf_counter()
    session.start()
    for thread in threads:
        thread.join(timeout=60)
    elapsed = time.perf_counter() - started
    alive = [t for t in threads if t.is_alive()]
    assert not alive, f"consumers wedged at num_workers={num_workers}: {alive}"
    # Leak check BEFORE shutdown(): pool.shutdown() zeroes the accounting, so
    # asserting afterwards would be vacuous.
    deadline = time.time() + 5
    while session.pool.bytes_in_flight and time.time() < deadline:
        time.sleep(0.02)
    assert session.pool.bytes_in_flight == 0, "staged batches leaked after join()"
    session.shutdown()
    expected = N_ITEMS // BATCH_SIZE
    assert all(count == expected for count in counts.values()), counts
    return expected / elapsed


@pytest.mark.overlap_ratio
def test_pipeline_overlap_speedup_inproc(bench_record):
    """Four loader workers must beat none by >= 1.3x on inproc://.

    Marked ``overlap_ratio``: wall-clock sensitive, so CI's main test step
    deselects it and only the TINY smoke step (which skips the ratio
    assertion) runs it on shared runners.
    """
    sequential = run_epoch("inproc://bench-overlap-w0", 0)
    overlapped = max(
        run_epoch(f"inproc://bench-overlap-w4-{attempt}", 4) for attempt in range(2)
    )
    ratio = overlapped / sequential
    bench_record(
        workers_0_batches_per_sec=sequential,
        workers_4_batches_per_sec=overlapped,
        ratio=ratio,
    )
    print(
        f"\n| num_workers | batches/sec |\n|---|---|\n"
        f"| 0 (sequential) | {sequential:.1f} |\n"
        f"| 4 (overlapped) | {overlapped:.1f} |\n"
        f"ratio: {ratio:.2f}x"
    )
    if TINY:
        # Tiny smoke mode checks liveness + leak-freedom, not the ratio.
        assert ratio > 0
    else:
        assert ratio >= 1.3, (
            f"loader workers only {ratio:.2f}x sequential "
            f"({overlapped:.1f} vs {sequential:.1f} batches/sec)"
        )


def test_pipeline_overlap_tcp(bench_record):
    """Loader workers behind the tcp:// broker: same delivery guarantees
    (every batch once, pool drained); throughput is printed for comparison
    with the inproc:// numbers, not asserted (loopback jitter)."""
    throughput = run_epoch("tcp://127.0.0.1:0", 4, direct_consumer=True)
    bench_record(batches_per_sec=throughput, num_workers=4, transport="tcp")
    print(f"\ntcp:// overlapped (num_workers 4): {throughput:.1f} batches/sec")
    assert throughput > 0


@pytest.mark.parametrize("num_workers", [0, 4])
def test_pipeline_end_to_end_throughput(benchmark, bench_record, num_workers):
    """pytest-benchmark timings per worker count, for the bench_output.txt record."""
    batches = benchmark.pedantic(
        lambda: run_epoch(f"inproc://bench-overlap-b{num_workers}", num_workers),
        rounds=1,
        iterations=1,
    )
    bench_record(batches_per_sec=batches, num_workers=num_workers)
    assert batches > 0
