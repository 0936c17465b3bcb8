"""Tests for the observability layer: registry, tracing, stall, service.

Covers the four surfaces ``repro.obs`` exposes:

* the metrics registry primitives (per-thread accumulation, weakly-attached
  gauges, log-bucket histograms, in-place reset, the kill switch);
* batch-lifecycle tracing — span completeness end-to-end on ``inproc://``,
  cross-process propagation over ``tcp://`` (producer-side spans must carry
  the consumer's ``delivered``/``trained``/``acked`` stamps, returned through
  the ACK body), and ring bounding under sustained multi-threaded load;
* stall attribution (phase seconds must account for the epoch wall);
* the ``{address}/metrics`` Rep channel via :func:`repro.obs.fetch_metrics`,
  and ``metrics()`` as the one reading of producers and consumers, under the
  registry's names.
"""

import gc
import importlib
import io
import json
import multiprocessing
import os
import threading

import pytest

import repro
from repro.core import ConsumerConfig, TensorProducer
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
from repro.messaging import InProcHub
from repro.obs import RING, STAGES, SpanRing, record_span, span_complete
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    set_enabled,
)
from repro.obs.service import MetricsService, fetch_metrics, fetch_metrics_from_hub
from repro.obs.stall import attribution


def tiny_loader(size=24, batch_size=4):
    dataset = SyntheticImageDataset(size, image_size=8, payload_bytes=16)
    pipeline = Compose([DecodeJpeg(height=8, width=8), Normalize(), ToTensor()])
    return DataLoader(dataset, batch_size=batch_size, transform=pipeline)


# ---------------------------------------------------------------------------
# registry primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_accumulates_across_threads(self):
        c = Counter("t.counter")
        n_threads, n_incs = 4, 1000

        def worker():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == n_threads * n_incs

    def test_inc_amount_and_reset(self):
        c = Counter("t.amount")
        c.inc(2.5)
        c.inc(0.5)
        assert c.value() == 3.0
        c.reset()
        assert c.value() == 0.0
        c.inc()
        assert c.value() == 1.0

    def test_kill_switch_disables_recording(self):
        c = Counter("t.killed")
        previous = set_enabled(False)
        try:
            c.inc()
            assert c.value() == 0.0
        finally:
            set_enabled(previous)
        c.inc()
        assert c.value() == 1.0


class TestGauge:
    def test_set_and_read(self):
        g = Gauge("t.gauge")
        g.set(42)
        assert g.value() == 42.0

    def test_attached_sources_sum_while_owner_lives(self):
        class Owner:
            bytes_used = 7

        g = Gauge("t.attached")
        owner = Owner()
        g.attach(owner, lambda o: o.bytes_used)
        assert g.value() == 7.0
        # A dead owner's source is pruned, not an error.
        del owner
        gc.collect()
        assert g.value() == 0.0


class TestHistogram:
    def test_percentile_brackets_observation(self):
        h = Histogram("t.hist")
        for _ in range(100):
            h.observe(0.003)
        # Log-spaced buckets: the geometric-midpoint estimate lands within
        # one bucket width (10^0.25 per step) of the true value.
        assert 0.0015 < h.percentile(0.5) < 0.006
        assert h.count() == 100
        assert abs(h.sum() - 0.3) < 1e-9

    def test_snapshot_has_percentile_columns(self):
        h = Histogram("t.snap")
        h.observe(0.01)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "p50", "p95", "p99"}

    def test_overflow_bucket_catches_huge_values(self):
        h = Histogram("t.overflow")
        h.observe(1e6)
        assert h.count() == 1
        assert h.bucket_counts()[-1] == 1


class TestRegistry:
    def test_get_or_create_shares_one_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a.b")

    def test_reset_zeroes_in_place(self):
        # Module-level handles must stay bound across reset() — a reset that
        # replaced instruments would silently disconnect instrumentation.
        reg = MetricsRegistry()
        handle = reg.counter("a.reset")
        handle.inc()
        reg.reset()
        assert reg.counter("a.reset") is handle
        handle.inc()
        assert handle.value() == 1.0

    def test_prometheus_text_grammar(self):
        reg = MetricsRegistry()
        reg.counter("repro.test.count").inc(3)
        reg.gauge("repro.test.level").set(5)
        hist = reg.histogram("repro.test.lat")
        hist.observe(0.01)
        text = reg.prometheus_text()
        assert "# TYPE repro_test_count counter" in text
        assert "repro_test_count 3" in text
        assert "# TYPE repro_test_level gauge" in text
        assert "# TYPE repro_test_lat histogram" in text
        assert 'repro_test_lat_bucket{le="+Inf"} 1' in text
        assert "repro_test_lat_count 1" in text


# ---------------------------------------------------------------------------
# span ring + chrome-trace export
# ---------------------------------------------------------------------------


def _complete_stages(start=100.0, step=0.01):
    return {name: start + i * step for i, name in enumerate(STAGES)}


class TestSpanRing:
    def test_bounded_under_sustained_multithreaded_load(self):
        ring = SpanRing(capacity=64)
        n_threads, n_spans = 8, 500

        def worker(rank):
            for i in range(n_spans):
                record_span(
                    epoch=rank, batch_index=i, stages=_complete_stages(), ring=ring
                )

        threads = [
            threading.Thread(target=worker, args=(rank,)) for rank in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ring) == 64  # bounded: old spans evicted, never grown
        assert ring.recorded == n_threads * n_spans
        assert len(ring.spans()) == 64
        assert len(ring.spans(limit=10)) == 10

    def test_span_complete_requires_all_seven_stages(self):
        stages = _complete_stages()
        assert span_complete({"stages": stages})
        partial = dict(stages)
        del partial["trained"]
        assert not span_complete({"stages": partial})

    def test_chrome_trace_export_emits_phase_events(self):
        ring = SpanRing(capacity=8)
        record_span(epoch=0, batch_index=0, stages=_complete_stages(), ring=ring)
        handle = io.StringIO()
        written = obs_trace.export_chrome_trace(ring.spans(), handle)
        events = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert written == len(events) == len(obs_trace.PHASES)
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] > 0


# ---------------------------------------------------------------------------
# end-to-end: inproc trace completeness + stall attribution
# ---------------------------------------------------------------------------


class TestEndToEndTracing:
    def test_inproc_epoch_records_complete_monotonic_spans(self):
        RING.clear()
        session = repro.serve(
            tiny_loader(), address="inproc://obs-e2e", epochs=1, start=False
        )
        try:
            consumer = session.consumer(
                ConsumerConfig(
                    consumer_id="obs-e2e-c", max_epochs=1, receive_timeout=20
                )
            )
            try:
                session.start()
                batches = sum(1 for _ in consumer)
            finally:
                consumer.close()
        finally:
            session.shutdown()
        assert batches == 6
        spans = [
            s
            for s in RING.spans()
            if s.get("consumer_id") == "obs-e2e-c" and span_complete(s)
        ]
        # Each batch yields two complete spans in-process: the consumer
        # records at ack time and the producer again when the ACK arrives.
        covered = {(s["epoch"], s["batch_index"]) for s in spans}
        assert covered == {(0, i) for i in range(6)}
        for span in spans:
            ordered = [span["stages"][name] for name in STAGES]
            assert ordered == sorted(ordered), span

    def test_stall_attribution_accounts_for_epoch_wall(self):
        REGISTRY.reset()
        session = repro.serve(
            tiny_loader(), address="inproc://obs-stall", epochs=1, start=False
        )
        try:
            consumer = session.consumer(
                ConsumerConfig(max_epochs=1, receive_timeout=20)
            )
            try:
                session.start()
                assert sum(1 for _ in consumer) == 6
            finally:
                consumer.close()
        finally:
            session.shutdown()
        stall = attribution(REGISTRY)
        for role in ("producer", "consumer"):
            row = stall[role]
            assert row["wall_seconds"] > 0, stall
            assert row["bottleneck"] in row["components"]
            assert row["accounted_seconds"] == pytest.approx(
                sum(row["components"].values())
            )
            # The named phases must explain most of the wall (>= 95% is the
            # acceptance criterion on a quiet run; 80% here because tiny CI
            # epochs have proportionally fat constant overheads).
            assert row["coverage"] >= 0.8, stall


class TestEpochTurnaround:
    """``repro.producer.epoch_turnaround_seconds``: last publish of one epoch
    to first publish of the next — the stretch in which every trainer waits
    on the producer at once."""

    def _publishes(self, monkeypatch, epochs):
        """Serve ``epochs`` epochs to one trainer; per publish, in order:
        ``(epoch, batch_index, what was observed during it)``."""
        turnaround = REGISTRY.get("repro.producer.epoch_turnaround_seconds")
        assert isinstance(turnaround, Histogram)
        observed = []
        observe = turnaround.observe
        monkeypatch.setattr(
            turnaround,
            "observe",
            lambda value: (observed.append((threading.current_thread().name, value)), observe(value)),
        )
        publishes = []
        publish = TensorProducer.publish

        def watched(self, payload, consumers, **kwargs):
            before = len(observed)
            publish(self, payload, consumers, **kwargs)
            publishes.append((payload.epoch, payload.batch_index, observed[before:]))

        monkeypatch.setattr(TensorProducer, "publish", watched)
        count_before = turnaround.count()
        session = repro.serve(
            tiny_loader(), address=f"inproc://obs-turnaround-{epochs}", epochs=epochs, start=False
        )
        try:
            consumer = session.consumer(ConsumerConfig(max_epochs=epochs, receive_timeout=20))
            try:
                session.start()
                assert sum(1 for _ in consumer) == 6 * epochs
            finally:
                consumer.close()
        finally:
            session.shutdown()
        assert turnaround.count() - count_before == len(observed)
        return publishes

    def test_observed_once_per_boundary_and_never_on_epoch_zero(self, monkeypatch):
        publishes = self._publishes(monkeypatch, epochs=3)
        assert [(e, k) for e, k, _seen in publishes] == [(e, k) for e in range(3) for k in range(6)]
        for epoch, batch_index, seen in publishes:
            if epoch >= 1 and batch_index == 0:
                ((thread, seconds),) = seen
                assert thread == "repro-producer"
                assert 0 < seconds < 20
            else:
                assert seen == []

    def test_a_single_epoch_has_no_boundary(self, monkeypatch):
        assert all(seen == [] for _e, _k, seen in self._publishes(monkeypatch, epochs=1))


# ---------------------------------------------------------------------------
# the {address}/metrics channel
# ---------------------------------------------------------------------------


class TestMetricsService:
    def test_fetch_metrics_from_live_session(self):
        RING.clear()
        session = repro.serve(
            tiny_loader(), address="inproc://obs-svc", epochs=None, start=False
        )
        try:
            consumer = session.consumer(
                ConsumerConfig(
                    consumer_id="obs-svc-c", max_epochs=1, receive_timeout=20
                )
            )
            try:
                session.start()
                assert sum(1 for _ in consumer) == 6
            finally:
                consumer.close()
            reply = fetch_metrics(session.address, body={"op": "snapshot", "spans": 8})
            assert reply["ok"] is True
            assert reply["metrics"]["repro.producer.publishes"] >= 6
            assert reply["metrics"]["repro.consumer.batches"] >= 6
            assert "producer" in reply["stall"] and "consumer" in reply["stall"]
            assert len(reply["spans"]) <= 8
            assert reply["origin"]["pid"] == os.getpid()
            # The session's own metrics() rides along for dashboards.
            assert reply["stats"]["repro.producer.publishes"] >= 6

            prom = fetch_metrics(session.address, body={"op": "prometheus"})
            assert prom["ok"] is True
            assert "repro_producer_publishes" in prom["text"]
        finally:
            session.shutdown()

    def test_a_failing_object_reading_is_counted(self):
        def broken():
            raise RuntimeError("mid-teardown")

        hub = InProcHub()
        service = MetricsService(hub, "obs-broken", stats_fn=broken)
        errors = REGISTRY.counter("repro.services.errors")
        before = errors.value()
        try:
            reply = fetch_metrics_from_hub(hub, "obs-broken")
        finally:
            service.stop()
        assert reply["ok"] is True and "stats" not in reply
        assert errors.value() == before + 1


# ---------------------------------------------------------------------------
# one vocabulary: metrics() under the registry's names, no legacy views
# ---------------------------------------------------------------------------

#: Every key a producer's and a plain consumer's ``metrics()`` answer.
PRODUCER_METRICS = {
    "repro.producer.epoch",
    "repro.producer.epochs_completed",
    "repro.producer.batches_loaded",
    "repro.producer.publishes",
    "repro.producer.pending_batches",
    "repro.producer.consumers",
    "repro.producer.consumer_drops",
    "repro.pool.bytes_in_flight",
    "repro.pool.cached_bytes",
    "repro.pool.peak_bytes",
    "repro.pool.free_bytes",
    "repro.pool.segment_reuse_hits",
    "repro.pool.segment_reuse_misses",
    "repro.pool.mmap_total",
    "repro.cache",
}
CONSUMER_METRICS = {
    "repro.consumer.id",
    "repro.consumer.batches",
    "repro.consumer.samples",
    "repro.consumer.epochs",
    "repro.consumer.duplicates",
    "repro.consumer.buffered",
    "repro.consumer.admitted_epoch",
    "repro.consumer.mailbox_overflows",
    "repro.pool.attach_cache_hits",
    "repro.pool.attach_opens",
}


class TestLegacyStatsViews:
    def test_to_legacy_projects_and_tags_role(self):
        """The projection onto the old key names is gone, not deprecated."""
        with pytest.raises(ImportError):
            importlib.import_module("repro.obs.naming")
        assert not hasattr(repro.obs, "naming")

    def test_producer_and_consumer_stats_keep_legacy_keys(self):
        """Producer and consumer answer one reading, keyed by the pinned table."""
        session = repro.serve(
            tiny_loader(), address="inproc://obs-legacy", epochs=1, start=False
        )
        try:
            consumer = session.consumer(
                ConsumerConfig(max_epochs=1, receive_timeout=20)
            )
            try:
                session.start()
                assert sum(1 for _ in consumer) == 6
                producer_metrics = session.producer.metrics()
                consumer_metrics = consumer.metrics()
            finally:
                consumer.close()
        finally:
            session.shutdown()
        for table in (PRODUCER_METRICS, CONSUMER_METRICS):
            assert all(key.startswith("repro.") for key in table)
        assert set(producer_metrics) == PRODUCER_METRICS
        assert producer_metrics["repro.producer.publishes"] == 6
        assert set(consumer_metrics) == CONSUMER_METRICS
        assert consumer_metrics["repro.consumer.batches"] == 6
        for obj in (session, session.producer, consumer):
            assert not hasattr(obj, "stats") and not hasattr(obj, "status")

    def test_group_consumer_stats_keep_legacy_keys(self):
        """A sharded address reads like a plain one, plus the group's keys."""
        session = repro.serve(
            tiny_loader(size=24, batch_size=2),
            address="inproc://obs-legacy-group",
            shards=2,
            epochs=1,
            start=False,
        )
        try:
            group = session.consumer(ConsumerConfig(receive_timeout=20))
            try:
                session.start()
                assert sum(1 for _ in group) == 12
                metrics = group.metrics()
            finally:
                group.close()
        finally:
            session.shutdown()
        assert not hasattr(group, "stats")
        assert set(metrics) == CONSUMER_METRICS | {
            "repro.group.interleave",
            "repro.group.shards",
            "repro.group.members",
        }
        assert metrics["repro.group.shards"] == 2
        members = metrics["repro.group.members"]
        assert [set(row) for row in members] == [CONSUMER_METRICS] * 2
        assert metrics["repro.consumer.batches"] == 12
        assert metrics["repro.consumer.batches"] == sum(
            row["repro.consumer.batches"] for row in members
        )
        assert metrics["repro.consumer.epochs"] == 1


# ---------------------------------------------------------------------------
# cross-process: trace stamps survive the tcp:// round trip
# ---------------------------------------------------------------------------


def _remote_obs_trainer(address, result_queue):
    """Runs in a separate OS process: attach, train one epoch, report."""
    import repro as repro_child

    consumer = repro_child.attach(
        address, consumer_id="obs-remote", max_epochs=1, receive_timeout=30
    )
    batches = 0
    try:
        for _ in consumer:
            batches += 1
    finally:
        consumer.close()
    result_queue.put((batches, os.getpid()))


@pytest.mark.multiprocess
class TestCrossProcessTracePropagation:
    def test_producer_side_spans_carry_consumer_stamps_over_tcp(self):
        """The child's delivered/trained/acked stamps ride the ACK body back,
        so the producer's ring holds the full seven-stage span — and because
        both processes read the same CLOCK_MONOTONIC on one host, the merged
        stamps are ordered."""
        RING.clear()
        session = repro.serve(
            tiny_loader(), address="tcp://127.0.0.1:0", epochs=1, start=False
        )
        result_queue = multiprocessing.Queue()
        child = multiprocessing.Process(
            target=_remote_obs_trainer, args=(session.address, result_queue)
        )
        child.start()
        try:
            session.start()
            batches, child_pid = result_queue.get(timeout=60)
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
            session.shutdown()
        assert child.exitcode == 0
        assert batches == 6
        assert child_pid != os.getpid()

        spans = [
            s
            for s in RING.spans()
            if s.get("consumer_id") == "obs-remote" and span_complete(s)
        ]
        assert len(spans) == 6, "every remote batch must complete a 7-stage span"
        for span in spans:
            stages = span["stages"]
            ordered = [stages[name] for name in STAGES]
            assert ordered == sorted(ordered), span
            # The span was recorded producer-side (this process)...
            assert span["origin"]["pid"] == os.getpid()
            # ...yet its tail stamps were taken in the child: the remote
            # round trip (deliver over tcp + ack back) takes real time.
            assert stages["acked"] > stages["published"]
