"""Broker fan-out benchmark: N datasets x M consumers through one plane.

The scenario the multi-tenant broker exists for (ISSUE: one data plane, many
datasets, many consumer groups): a node hosts several tenants' datasets and
each tenant runs its own consumers.  Without the broker every dataset needs
its own ``repro.serve()`` call — its own endpoint, its own shared-memory pool,
its own accounting.  With the broker all datasets mount behind one address and
one pool, consumers attach by name, and per-tenant quotas keep one dataset
from starving the rest.

The measurement: ``N_DATASETS`` datasets, each drained by ``N_CONSUMERS``
consumers, once through a single :class:`~repro.broker.DatasetBroker` and once
through separate ``repro.serve()`` sessions.  The acceptance criterion is that
sharing the plane is not a per-dataset regression: **broker aggregate
throughput >= 0.5x the separate-sessions aggregate** (they do the same work on
the same cores; measured locally the ratio is ~1.0, and 0.5 leaves CI
headroom).  Both paths must drain their pools to zero — the broker run checks
this per tenant, which is exactly the accounting ``serve()`` cannot give you.

``REPRO_BENCH_TINY=1`` switches to a smoke run that checks liveness and
leak-freedom only (CI runs it under ``timeout``).
"""

import os
import threading
import time

import pytest

import repro
from repro.core import ConsumerConfig
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, SleepTransform, ToTensor

#: Tiny-size mode for CI smoke runs (REPRO_BENCH_TINY=1): enough batches to
#: catch a wedged mount, too few for a stable throughput ratio.
TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

SECONDS_PER_ITEM = 0.002  # keep the load path CPU-bound, as in the paper
BATCH_SIZE = 4
N_ITEMS = 16 if TINY else 48
N_DATASETS = 2
N_CONSUMERS = 2


def make_loader():
    dataset = SyntheticImageDataset(N_ITEMS, image_size=16, payload_bytes=32)
    pipeline = SleepTransform(
        Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()]),
        seconds_per_item=SECONDS_PER_ITEM,
    )
    return DataLoader(dataset, batch_size=BATCH_SIZE, transform=pipeline)


def drain_all(attach, names):
    """Drain every (dataset, consumer) pair concurrently; returns batches/sec
    aggregated across all datasets.

    ``attach(name, consumer_config)`` must hand back a started consumer for
    the named dataset; the wall clock covers first attach to last join, the
    same window the separate-sessions baseline pays.
    """
    counts = {}

    def consume(name, index):
        consumer = attach(
            name,
            ConsumerConfig(
                consumer_id=f"{name}-c{index}", max_epochs=1, receive_timeout=30
            ),
        )
        counts[(name, index)] = sum(1 for _ in consumer)
        consumer.close()

    threads = [
        threading.Thread(target=consume, args=(name, index))
        for name in names
        for index in range(N_CONSUMERS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - started
    alive = [t for t in threads if t.is_alive()]
    assert not alive, f"consumers wedged: {alive}"
    expected = N_ITEMS // BATCH_SIZE
    assert all(count == expected for count in counts.values()), counts
    return expected * len(names) / elapsed


def run_broker_plane(names):
    """All datasets behind one broker; returns aggregate batches/sec."""
    broker = repro.broker("inproc://bench-fanout-broker")
    try:
        for name in names:
            broker.publish(name, make_loader(), epochs=1)
        throughput = drain_all(broker.attach_dataset, names)
        # Per-tenant drain check BEFORE shutdown(): shutdown zeroes the
        # accounting, so asserting afterwards would be vacuous.
        deadline = time.time() + 5
        while broker.pool.bytes_in_flight and time.time() < deadline:
            time.sleep(0.02)
        rows = broker.stats()["datasets"]
        residue = {n: row["bytes_used"] for n, row in rows.items() if row["bytes_used"]}
        assert not residue, f"tenants leaked shared memory: {residue}"
        assert broker.pool.bytes_in_flight == 0, "broker pool leaked"
    finally:
        broker.shutdown()
    return throughput


def run_separate_sessions(names):
    """One serve() call per dataset; returns aggregate batches/sec."""
    sessions = {
        name: repro.serve(
            make_loader(),
            address=f"inproc://bench-fanout-solo-{name}",
            epochs=1,
        )
        for name in names
    }
    try:
        throughput = drain_all(
            lambda name, config: sessions[name].consumer(config), names
        )
        for name, session in sessions.items():
            deadline = time.time() + 5
            while session.pool.bytes_in_flight and time.time() < deadline:
                time.sleep(0.02)
            assert session.pool.bytes_in_flight == 0, f"{name} leaked"
    finally:
        for session in sessions.values():
            session.shutdown()
    return throughput


@pytest.mark.overlap_ratio
def test_broker_fanout_vs_separate_sessions(bench_record):
    """Sharing one plane must not be a per-dataset regression (>= 0.5x).

    Marked ``overlap_ratio``: wall-clock sensitive, so CI's main test step
    deselects it and only the TINY smoke step (which skips the ratio
    assertion) runs it on shared runners.
    """
    names = [f"tenant{i}" for i in range(N_DATASETS)]
    separate = run_separate_sessions(names)
    brokered = max(run_broker_plane(names) for _attempt in range(2))
    ratio = brokered / separate
    bench_record(
        datasets=N_DATASETS,
        consumers_per_dataset=N_CONSUMERS,
        broker_batches_per_sec=brokered,
        separate_batches_per_sec=separate,
        ratio=ratio,
    )
    print(
        f"\n| plane | aggregate batches/sec |\n|---|---|\n"
        f"| {N_DATASETS} separate serve() sessions | {separate:.1f} |\n"
        f"| one broker, {N_DATASETS} datasets     | {brokered:.1f} |\n"
        f"ratio: {ratio:.2f}x"
    )
    if TINY:
        # Tiny smoke mode checks liveness + leak-freedom, not the ratio.
        assert ratio > 0
    else:
        assert ratio >= 0.5, (
            f"brokered plane only {ratio:.2f}x separate sessions "
            f"({brokered:.1f} vs {separate:.1f} batches/sec)"
        )


def test_broker_fanout_smoke(bench_record):
    """Liveness + leak-freedom of the brokered plane alone (runs in the main
    CI test step; no wall-clock comparison)."""
    names = [f"smoke{i}" for i in range(N_DATASETS)]
    throughput = run_broker_plane(names)
    bench_record(
        name="broker_fanout_smoke",
        datasets=N_DATASETS,
        consumers_per_dataset=N_CONSUMERS,
        broker_batches_per_sec=throughput,
    )
    print(f"\nbroker fan-out ({N_DATASETS} datasets x {N_CONSUMERS} consumers): "
          f"{throughput:.1f} batches/sec aggregate")
    assert throughput > 0
