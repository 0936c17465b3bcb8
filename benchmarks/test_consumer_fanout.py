"""Consumer fan-out benchmark: 1 -> 8 -> 64 consumers on one producer.

The reactor refactor's scalability claim (ISSUE: one event loop per process
for attach, subscriptions, heartbeats, and group merge): attaching K
consumers must cost O(1) threads, and the producer must not slow down as the
fan-out grows — the paper's collocation story depends on serving many
trainers at one producer's cost.

The measurement: one CPU-bound producer (sleep-padded transform, so the load
path is the bottleneck by construction), drained concurrently by 1, 8, and
64 consumers.  Producer batches/sec must stay within 30% flat across the
sweep, and the largest run must not add any repro-owned thread beyond the
shared ``repro-reactor``.

``REPRO_BENCH_TINY=1`` switches to a smoke run (fewer items, 1 -> 8 only)
that keeps the thread-count assertion but skips the flatness ratio — too few
batches for a stable rate on shared CI runners.
"""

import os
import threading
import time

import pytest

import repro
from repro.core import ConsumerConfig
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, SleepTransform, ToTensor

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

SECONDS_PER_ITEM = 0.004  # producer-side load cost dominates by construction
BATCH_SIZE = 4
N_ITEMS = 16 if TINY else 96
CONSUMER_COUNTS = [1, 8] if TINY else [1, 8, 64]
ATTEMPTS = 1 if TINY else 2


def make_loader():
    dataset = SyntheticImageDataset(N_ITEMS, image_size=16, payload_bytes=32)
    pipeline = SleepTransform(
        Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()]),
        seconds_per_item=SECONDS_PER_ITEM,
    )
    return DataLoader(dataset, batch_size=BATCH_SIZE, transform=pipeline)


def run_fanout(n_consumers, *, check_threads=False):
    """Serve one epoch to ``n_consumers`` trainers; returns (batches/sec,
    set of unexpected attach-side thread names)."""
    address = f"inproc://bench-consumer-fanout-{n_consumers}"
    session = repro.serve(make_loader(), address=address, epochs=1, start=False)
    unexpected = set()
    try:
        before = set(threading.enumerate())
        consumers = [
            session.consumer(
                ConsumerConfig(
                    consumer_id=f"fan{i}", max_epochs=1, receive_timeout=60
                )
            )
            for i in range(n_consumers)
        ]
        counts = [0] * n_consumers

        def consume(i, consumer):
            counts[i] = sum(1 for _ in consumer)

        trainers = [
            threading.Thread(
                target=consume, args=(i, c), name=f"bench-trainer-{i}"
            )
            for i, c in enumerate(consumers)
        ]
        started = time.perf_counter()
        session.start()
        for t in trainers:
            t.start()
        while any(t.is_alive() for t in trainers):
            if check_threads:
                unexpected |= {
                    t.name
                    for t in threading.enumerate()
                    if t not in before
                    and not t.name.startswith("bench-trainer-")
                    and t.name not in ("repro-reactor", "repro-producer")
                    and not t.name.startswith("repro-loader-worker-")
                }
            time.sleep(0.005)
        for t in trainers:
            t.join(timeout=120)
        elapsed = time.perf_counter() - started
        alive = [t for t in trainers if t.is_alive()]
        assert not alive, f"consumers wedged: {alive}"
        expected = N_ITEMS // BATCH_SIZE
        assert all(count == expected for count in counts), counts
        return expected / elapsed, unexpected
    finally:
        session.shutdown()


@pytest.mark.overlap_ratio
def test_consumer_fanout_flat_producer_cost(bench_record):
    """Producer batches/sec within 30% flat from 1 to 64 consumers, and the
    widest fan-out adds no repro-owned thread beyond the shared reactor.

    Marked ``overlap_ratio``: wall-clock sensitive, so CI's main test step
    deselects it and runs the TINY smoke variant (which keeps the
    thread-count assertion) under a timeout instead; the tier-1 thread-count
    regression test lives in ``tests/test_reactor.py``."""
    rates = {}
    unexpected_threads = set()
    for n in CONSUMER_COUNTS:
        check = n == max(CONSUMER_COUNTS)
        best = 0.0
        for _attempt in range(ATTEMPTS):
            rate, unexpected = run_fanout(n, check_threads=check)
            best = max(best, rate)
            unexpected_threads |= unexpected
        rates[n] = best

    bench_record(
        name="consumer_fanout",
        consumer_counts=CONSUMER_COUNTS,
        producer_batches_per_sec={str(n): rates[n] for n in CONSUMER_COUNTS},
        flatness=min(rates.values()) / max(rates.values()),
        unexpected_threads=sorted(unexpected_threads),
    )
    rows = "\n".join(
        f"| {n} | {rates[n]:.1f} |" for n in CONSUMER_COUNTS
    )
    print(f"\n| consumers | producer batches/sec |\n|---|---|\n{rows}")

    # The thread-count assertion runs in every mode, TINY smoke included:
    # it is the regression guard for the reactor refactor.
    assert not unexpected_threads, (
        f"fan-out spawned unexpected threads: {sorted(unexpected_threads)}"
    )
    if not TINY:
        flatness = min(rates.values()) / max(rates.values())
        assert flatness >= 0.7, (
            f"producer cost not flat across fan-out: {rates} "
            f"(min/max = {flatness:.2f}, need >= 0.70)"
        )
