"""Observability overhead: what the instrumentation costs the hot path.

The metrics registry claims a lock-free hot path (per-thread accumulation
cells, see ``repro.obs.metrics``) and the batch-lifecycle tracing claims the
stamps are cheap enough to ride every payload.  What a call costs is measured
in ns by ``bench/iso.py`` (``obs.inc_ns``, ``obs.observe_ns``,
``obs.span_record_ns``); what this test holds still is how *many* calls a
batch makes: ``inc`` + ``observe`` + ``record_span`` per published batch per
consumer stay at or below :data:`MAX_CALLS_PER_DELIVERY`, and with
``repro.obs.metrics.set_enabled(False)`` no counter or histogram moves at
all.  A count repeats from run to run; a wall-clock ratio of two 0.3 s
sessions on a shared host does not (it failed its 5% bound in 1 of 3 full
runs), so the instrumented/uninstrumented ratio is still measured and printed
but no longer asserted.

The workload mirrors ``test_pipeline_overlap``'s end-to-end run (2 ms/item
transform, two consumers, pipeline depth 4) — the shape the instrumentation
actually rides in production, where per-batch bookkeeping is amortized over
real load work.  ``set_enabled(False)`` turns every ``inc``/``observe`` into
an early return without editing a single call site, so the A and B runs
execute identical data-plane code.  Runs alternate A/B (best-of-N each) so
slow drift on a shared runner hits both arms equally.
"""

import collections
import os
import threading
import time

import pytest

import repro
from repro.core import ConsumerConfig
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, SleepTransform, ToTensor
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY, Counter, Histogram, enabled, set_enabled

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

SECONDS_PER_ITEM = 0.002
BATCH_SIZE = 4
N_ITEMS = 32 if TINY else 96
N_CONSUMERS = 2
DEPTH = 4
ATTEMPTS = 1 if TINY else 3

#: Instrument calls one delivery (a published batch reaching one consumer) may
#: make, producer, reactor and consumer together.  A session of this shape
#: makes 18 to 20 (14 to 16 ``inc``, 2 ``observe``, 2 ``record_span``); the
#: rest is room for the calls that follow the clock rather than the batch
#: (heartbeats, a trainer woken with nothing to take).
MAX_CALLS_PER_DELIVERY = 30


def make_loader():
    dataset = SyntheticImageDataset(N_ITEMS, image_size=16, payload_bytes=32)
    pipeline = SleepTransform(
        Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()]),
        seconds_per_item=SECONDS_PER_ITEM,
    )
    return DataLoader(dataset, batch_size=BATCH_SIZE, transform=pipeline)


def run_epoch(tag):
    """One instrumentation-shaped epoch; returns batches/sec."""
    session = repro.serve(
        make_loader(),
        address=f"inproc://bench-obs-overhead-{tag}",
        epochs=1,
        pipeline_depth=DEPTH,
        pipeline_workers=4,
        start=False,
    )
    counts = {}

    def consume(name):
        consumer = session.consumer(
            ConsumerConfig(consumer_id=name, max_epochs=1, receive_timeout=30)
        )
        counts[name] = sum(1 for _ in consumer)
        consumer.close()

    threads = [
        threading.Thread(target=consume, args=(f"obs-bench-{i}",))
        for i in range(N_CONSUMERS)
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
    assert not alive, f"consumers wedged: {alive}"
    session.shutdown()
    expected = N_ITEMS // BATCH_SIZE
    assert all(count == expected for count in counts.values()), counts
    return expected / elapsed


def measure(instrumented, attempt):
    previous = set_enabled(instrumented)
    try:
        label = "on" if instrumented else "off"
        return run_epoch(f"{label}-{attempt}")
    finally:
        set_enabled(previous)


def recorded():
    """Every counter and histogram of the registry, by name, as it reads now."""
    return {
        name: REGISTRY.get(name).snapshot()
        for name in REGISTRY.names()
        if isinstance(REGISTRY.get(name), (Counter, Histogram))
    }


def count_recording_calls(monkeypatch):
    """A live tally of the ``inc``/``observe`` calls that record, and of every
    ``record_span``, made while ``monkeypatch`` holds."""
    tally = collections.Counter()
    lock = threading.Lock()

    def counting(name, call):
        def wrapper(*args, **kwargs):
            # The switch makes inc/observe return early; the span ring has no
            # switch, so a record_span counts either way.
            if name == "record_span" or enabled():
                with lock:
                    tally[name] += 1
            return call(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Counter, "inc", counting("inc", Counter.inc))
    monkeypatch.setattr(Histogram, "observe", counting("observe", Histogram.observe))
    monkeypatch.setattr(obs_trace, "record_span", counting("record_span", obs_trace.record_span))
    return tally


@pytest.mark.overlap_ratio
def test_obs_overhead(bench_record, monkeypatch):
    """A delivery makes a bounded number of instrument calls, and none that
    records once recording is switched off.

    Still marked ``overlap_ratio`` (CI's main step deselects the marker and
    runs the TINY variant under a timeout), though nothing asserted here
    depends on the clock any more.
    """
    deliveries = (N_ITEMS // BATCH_SIZE) * N_CONSUMERS
    with monkeypatch.context() as patch:
        tally = count_recording_calls(patch)
        measure(True, "count")
        per_delivery = {name: tally[name] / deliveries for name in ("inc", "observe", "record_span")}
        counted, before = dict(tally), recorded()
        measure(False, "count")
        assert recorded() == before, "set_enabled(False) still moved a counter or a histogram"
        assert (tally["inc"], tally["observe"]) == (counted["inc"], counted["observe"])
    total = sum(per_delivery.values())
    assert 0 < total <= MAX_CALLS_PER_DELIVERY, per_delivery

    on_rates, off_rates = [], []
    for attempt in range(ATTEMPTS):
        # Alternate arms so runner drift is shared, not attributed to one.
        off_rates.append(measure(False, attempt))
        on_rates.append(measure(True, attempt))
    instrumented = max(on_rates)
    uninstrumented = max(off_rates)
    ratio = instrumented / uninstrumented
    bench_record(
        name="obs_overhead",
        instrumented_batches_per_sec=instrumented,
        uninstrumented_batches_per_sec=uninstrumented,
        ratio=ratio,
        calls_per_delivery=total,
        max_calls_per_delivery=MAX_CALLS_PER_DELIVERY,
    )
    print(
        f"\n| recording | batches/sec |\n|---|---|\n"
        f"| off | {uninstrumented:.1f} |\n"
        f"| on  | {instrumented:.1f} |\n"
        f"ratio: {ratio:.3f} (reported, not asserted)\n"
        f"instrument calls per delivery: {total:.1f} "
        + ", ".join(f"{name} {count:.1f}" for name, count in per_delivery.items())
    )
