"""Epoch-cache benchmark: repeat epochs served straight from shared memory.

The scenario the cache exists for: per-item preprocessing is expensive
(>= 2 ms/item — decode + augment territory), trainers run several epochs, and
the data fits the cache budget.  Epoch 0 pays the full load+decode+transform
cost once; with ``cache="all"`` every later epoch republishes the staged
segments — no loader, no copy — so its throughput is bounded
by publish/ack work alone.

Headline assertion (the issue's acceptance criterion): **>= 2x batches/sec on
cached epochs (epoch >= 2, i.e. the second pass onward) vs epoch 0** with a
>= 2 ms/item transform.  Measured locally the gap is typically 10-50x; 2x
leaves CI headroom.  ``REPRO_BENCH_TINY=1`` switches to a smoke run that
checks liveness and leak-freedom only (CI runs it under ``timeout``).

Every run also asserts the memory contract: ``bytes_in_flight == 0`` once
consumers finish, and both ``bytes_in_flight`` and ``cached_bytes`` are zero
after ``session.shutdown()`` — including the early-exit paths (mid-epoch
stop, skip-epoch, consumer churn).
"""

import os
import threading
import time

import pytest

import repro
from repro.core import ConsumerConfig
from repro.core.group import attach_address
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, SleepTransform, ToTensor
from repro.experiments.harness import measure_epoch_throughput

#: Tiny-size mode for CI smoke runs (REPRO_BENCH_TINY=1): enough batches to
#: catch a wedged cache path, too few for a stable throughput ratio.
TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

SECONDS_PER_ITEM = 0.002  # the issue's "expensive transform" floor
BATCH_SIZE = 4
N_ITEMS = 24 if TINY else 64
EPOCHS = 3
N_CONSUMERS = 2


def make_loader(n_items=N_ITEMS, num_workers=0):
    dataset = SyntheticImageDataset(n_items, image_size=16, payload_bytes=32)
    pipeline = SleepTransform(
        Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()]),
        seconds_per_item=SECONDS_PER_ITEM,
    )
    return DataLoader(
        dataset, batch_size=BATCH_SIZE, transform=pipeline, num_workers=num_workers
    )


def assert_session_drained(session, timeout=5.0):
    """Both pool buckets at zero BEFORE shutdown() zeroes the accounting.

    ``bytes_in_flight`` must drain once the last ack lands; ``cached_bytes``
    drains when the producer loop's join() clears the cache."""
    deadline = time.time() + timeout
    pool = session.pool
    while (pool.bytes_in_flight or pool.cached_bytes) and time.time() < deadline:
        time.sleep(0.02)
    assert pool.bytes_in_flight == 0, "staged batches leaked"
    assert pool.cached_bytes == 0, "cache holds leaked"


def run_epochs(address, *, cache=None, epochs=EPOCHS):
    """Run ``epochs`` epochs; returns per-epoch batches/sec seen by consumer 0."""
    serve_kwargs = dict(epochs=epochs, start=False)
    if cache is not None:
        serve_kwargs["cache"] = cache
    session = repro.serve(make_loader(num_workers=4), address=address, **serve_kwargs)
    expected = N_ITEMS // BATCH_SIZE
    epoch_times, counts = measure_epoch_throughput(
        session, epochs=epochs, batches_per_epoch=expected, consumers=N_CONSUMERS
    )
    assert all(count == expected * epochs for count in counts.values()), counts
    metrics = session.metrics()
    assert_session_drained(session)
    session.shutdown()
    assert session.pool.bytes_in_flight == 0 and session.pool.cached_bytes == 0
    return epoch_times, metrics


@pytest.mark.overlap_ratio
def test_cached_epochs_at_least_2x_epoch0(bench_record):
    """Epoch >= 2 (the cached passes) must beat epoch 0 by >= 2x (criterion).

    Marked ``overlap_ratio``: wall-clock sensitive, so CI's main test step
    deselects it and only the TINY smoke step (which skips the ratio
    assertion) runs it on shared runners.
    """
    epoch_times, metrics = run_epochs("inproc://bench-epoch-cache", cache="all")
    epoch0 = epoch_times[0]
    cached = min(epoch_times[e] for e in range(1, EPOCHS))
    ratio = cached / epoch0
    bench_record(
        epoch0_batches_per_sec=epoch0,
        cached_batches_per_sec=cached,
        ratio=ratio,
        per_epoch={str(e): epoch_times[e] for e in sorted(epoch_times)},
    )
    rows = "\n".join(
        f"| {e} | {'loader' if e == 0 else 'cache'} | {epoch_times[e]:.1f} |"
        for e in sorted(epoch_times)
    )
    print(f"\n| epoch | source | batches/sec |\n|---|---|---|\n{rows}\nratio: {ratio:.1f}x")
    assert metrics["repro.producer.batches_loaded"] == N_ITEMS // BATCH_SIZE  # epoch 0 only
    assert metrics["repro.cache"]["hits"] == (EPOCHS - 1) * (N_ITEMS // BATCH_SIZE)
    if TINY:
        assert ratio > 0  # liveness + leak-freedom only
    else:
        assert ratio >= 2.0, (
            f"cached epochs only {ratio:.2f}x epoch 0 "
            f"({cached:.1f} vs {epoch0:.1f} batches/sec)"
        )


def test_epoch_cache_tcp_with_late_attacher():
    """The cache behind the tcp:// broker: cached segments are republished by
    *name*, so a process (here: endpoint-connected consumer) that attaches
    after epoch 0 maps them zero-copy without the producer reloading.

    The producer runs open-ended (``epochs=None``) so the late attach cannot
    race the end of the run: it pauses waiting for consumers between the
    anchor leaving and the late joiner arriving, then serves the late
    joiner's whole epoch from cache."""
    session = repro.serve(
        make_loader(),
        address="tcp://127.0.0.1:0",
        epochs=None,
        cache="all",
        start=False,
    )
    expected = N_ITEMS // BATCH_SIZE
    results = {}

    def consume(name, max_epochs):
        consumer = attach_address(
            session.address,
            ConsumerConfig(consumer_id=name, max_epochs=max_epochs, receive_timeout=60),
        )
        results[name] = [tuple(batch["index"].tolist()) for batch in consumer]
        consumer.close()

    anchor = threading.Thread(target=consume, args=("anchor", EPOCHS))
    anchor.start()
    time.sleep(0.2)
    session.start()
    # Wait until epoch 0 is fully loaded and cached, then attach late: the
    # late consumer is admitted at an epoch boundary and everything it
    # receives is served from cache.
    deadline = time.time() + 120
    while session.producer.epochs_completed < 1 and time.time() < deadline:
        time.sleep(0.02)
    assert session.producer.epochs_completed >= 1
    late = threading.Thread(target=consume, args=("late", 1))
    late.start()
    anchor.join(timeout=180)
    late.join(timeout=180)
    assert not anchor.is_alive() and not late.is_alive()
    session.producer.stop()
    assert len(results["anchor"]) == expected * EPOCHS
    # Replayed epochs carry identical data, and the late joiner's full epoch
    # matches an anchor epoch batch-for-batch.
    assert results["anchor"][:expected] == results["anchor"][expected : 2 * expected]
    assert len(results["late"]) == expected
    assert results["late"] == results["anchor"][:expected]
    metrics = session.metrics()
    assert metrics["repro.cache"]["hits"] > 0
    # stop() makes the open-ended producer loop exit; its join() then clears
    # the cache, so both buckets must reach zero before pool.shutdown().
    assert_session_drained(session)
    session.shutdown()
    assert session.pool.bytes_in_flight == 0 and session.pool.cached_bytes == 0


# ---------------------------------------------------------------------------
# Early-exit paths: every one must drain cache holds to zero
# ---------------------------------------------------------------------------


def test_early_exit_stop_drains_cache():
    session = repro.serve(
        make_loader(num_workers=4),
        address="inproc://bench-cache-stop",
        epochs=None,
        cache="all",
        start=False,
    )
    seen = []

    def consume():
        consumer = session.consumer(
            ConsumerConfig(consumer_id="stopper", receive_timeout=60)
        )
        for batch in consumer:
            seen.append(batch)
            if len(seen) >= 3:
                break
        consumer.close()

    thread = threading.Thread(target=consume)
    thread.start()
    time.sleep(0.2)
    session.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert session.pool.cached_bytes > 0  # the cache really was filling
    session.producer.stop()
    session.shutdown()
    assert session.pool.bytes_in_flight == 0
    assert session.pool.cached_bytes == 0
    assert session.pool.live_segments == 0


def test_early_exit_churn_drains_cache():
    """Consumers that leave mid-run never strand cache or in-flight holds."""
    session = repro.serve(
        make_loader(),
        address="inproc://bench-cache-churn",
        epochs=2,
        cache="all",
        start=False,
    )
    expected = N_ITEMS // BATCH_SIZE

    def quitter():
        consumer = session.consumer(
            ConsumerConfig(consumer_id="quitter", max_epochs=2, receive_timeout=60)
        )
        for i, _ in enumerate(consumer):
            if i >= 2:
                break
        consumer.close()

    def stayer():
        consumer = session.consumer(
            ConsumerConfig(consumer_id="stayer", max_epochs=2, receive_timeout=60)
        )
        count = sum(1 for _ in consumer)
        consumer.close()
        assert count == expected * 2

    threads = [threading.Thread(target=quitter), threading.Thread(target=stayer)]
    for thread in threads:
        thread.start()
    time.sleep(0.2)
    session.start()
    for thread in threads:
        thread.join(timeout=180)
    assert not any(t.is_alive() for t in threads)
    assert_session_drained(session)
    session.shutdown()
    assert session.pool.bytes_in_flight == 0 and session.pool.cached_bytes == 0


def test_early_exit_skip_epoch_drains_cache():
    """Everyone leaves mid-epoch while a newcomer waits for the next one: the
    abandoned epoch's staged/cached holds must all come back."""
    session = repro.serve(
        make_loader(num_workers=2),
        address="inproc://bench-cache-skip",
        epochs=2,
        cache="all",
        rubberband_fraction=0.0,  # newcomers always park for the next epoch
        start=False,
    )

    def early():
        consumer = session.consumer(
            ConsumerConfig(consumer_id="early", max_epochs=2, receive_timeout=60)
        )
        for i, _ in enumerate(consumer):
            if i >= 1:
                break
        consumer.close()

    early_thread = threading.Thread(target=early)
    early_thread.start()
    time.sleep(0.2)
    session.start()
    early_thread.join(timeout=120)
    assert not early_thread.is_alive()

    late_counts = []

    def late():
        consumer = session.consumer(
            ConsumerConfig(consumer_id="late", max_epochs=1, receive_timeout=60)
        )
        late_counts.append(sum(1 for _ in consumer))
        consumer.close()

    late_thread = threading.Thread(target=late)
    late_thread.start()
    late_thread.join(timeout=180)
    assert not late_thread.is_alive()
    assert late_counts and late_counts[0] == N_ITEMS // BATCH_SIZE
    assert_session_drained(session)
    session.shutdown()
    assert session.pool.bytes_in_flight == 0 and session.pool.cached_bytes == 0
