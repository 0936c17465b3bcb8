"""The per-process consumer reactor: shared subscriptions, timer wheel,
event-driven registration, shared TCP dials — and the refactor's headline
claim, O(1) repro-owned threads for K consumers x M shard members."""

import threading
import time

import numpy as np
import pytest

import repro
from repro.core import ConsumerConfig, GroupConsumer
from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.messaging import InProcHub
from repro.messaging import endpoint as endpoints
from repro.messaging.message import Message, MessageKind
from repro.messaging.reactor import Reactor, get_reactor
from repro.messaging.transport import TcpClientEndpoint, TcpServerHub
from repro.obs.metrics import counter


class IndexDataset(Dataset):
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return {"index": np.array([index], dtype=np.int64)}


def index_loader(n=24, batch_size=4, **kwargs):
    return DataLoader(IndexDataset(n), batch_size=batch_size, **kwargs)


# ---------------------------------------------------------------------------
# timer wheel
# ---------------------------------------------------------------------------


class TestTimerWheel:
    def test_timer_fires_repeatedly_and_cancel_stops_it(self):
        reactor = Reactor(name="repro-reactor-test-timer")
        fired = []
        try:
            handle = reactor.every(0.01, lambda: fired.append(time.monotonic()))
            deadline = time.monotonic() + 2.0
            while len(fired) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(fired) >= 3
            handle.cancel()
            time.sleep(0.05)
            count_after_cancel = len(fired)
            time.sleep(0.1)
            assert len(fired) == count_after_cancel
        finally:
            reactor.shutdown()

    def test_rejects_nonpositive_interval(self):
        reactor = Reactor(name="repro-reactor-test-interval")
        try:
            with pytest.raises(ValueError):
                reactor.every(0, lambda: None)
        finally:
            reactor.shutdown()

    def test_one_timer_exception_does_not_kill_the_wheel(self):
        reactor = Reactor(name="repro-reactor-test-exc")
        fired = []
        try:
            def boom():
                fired.append("boom")
                raise RuntimeError("timer bug")

            reactor.every(0.01, boom)
            deadline = time.monotonic() + 2.0
            while len(fired) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            # The callback raised on its first fire and still got rescheduled.
            assert len(fired) >= 2
        finally:
            reactor.shutdown()


# ---------------------------------------------------------------------------
# shared subscriptions
# ---------------------------------------------------------------------------


class TestSharedSubscriptions:
    def test_n_subscribers_share_one_physical_endpoint(self):
        reactor = Reactor(name="repro-reactor-test-shared")
        hub = InProcHub()
        got_a, got_b = [], []
        try:
            sub_a = reactor.subscribe(
                hub, "chan/data", ("broadcast", "consumer/a"),
                lambda m: got_a.append(m),
            )
            sub_b = reactor.subscribe(
                hub, "chan/data", ("broadcast", "consumer/b"),
                lambda m: got_b.append(m),
            )
            # One physical endpoint on the hub, not two.
            assert hub.connected_count("chan/data") == 1
            hub.publish("chan/data", Message("broadcast", MessageKind.HEARTBEAT, "test"))
            hub.publish("chan/data", Message("consumer/a", MessageKind.HEARTBEAT, "test"))
            hub.publish("chan/data", Message("consumer/b", MessageKind.HEARTBEAT, "test"))
            deadline = time.monotonic() + 2.0
            while (len(got_a) < 2 or len(got_b) < 2) and time.monotonic() < deadline:
                time.sleep(0.01)
            # Each subscriber sees broadcast + its own topic, not the peer's.
            assert [m.topic for m in got_a] == ["broadcast", "consumer/a"]
            assert [m.topic for m in got_b] == ["broadcast", "consumer/b"]
            sub_a.unsubscribe()
            assert hub.connected_count("chan/data") == 1  # b still rides it
            sub_b.unsubscribe()
            assert hub.connected_count("chan/data") == 0
        finally:
            reactor.shutdown()

    def test_subscriber_handler_exception_does_not_starve_peers(self):
        reactor = Reactor(name="repro-reactor-test-handler-exc")
        hub = InProcHub()
        got = []
        try:
            def bad_handler(message):
                raise RuntimeError("consumer bug")

            reactor.subscribe(hub, "chan/data", ("broadcast",), bad_handler)
            reactor.subscribe(hub, "chan/data", ("broadcast",), got.append)
            errors = counter("repro.reactor.handler_errors")
            before = errors.value()
            for _ in range(5):
                hub.publish("chan/data", Message("broadcast", MessageKind.HEARTBEAT, "test"))
            drained = threading.Event()
            reactor.submit(drained.set)  # first in, first out behind the five
            assert drained.wait(5.0)
            # Every raise was counted, and none of them cost the peer a message.
            assert len(got) == 5
            assert errors.value() == before + 5
        finally:
            reactor.shutdown()

    def test_get_reactor_is_a_singleton(self):
        assert get_reactor() is get_reactor()


# ---------------------------------------------------------------------------
# event-driven registration (no polling receive loop)
# ---------------------------------------------------------------------------


class TestEventDrivenRegistration:
    def test_wait_until_registered_wakes_on_reply(self):
        session = repro.serve(
            index_loader(n=8),
            address="inproc://reactor-reg",
            epochs=1,
            start=False,
        )
        try:
            consumer = session.consumer(ConsumerConfig(max_epochs=1))
            results = {}

            def wait():
                results["admitted"] = consumer.wait_until_registered(timeout=10.0)
                results["returned_at"] = time.monotonic()

            waiter = threading.Thread(target=wait, name="test-reg-waiter")
            waiter.start()
            time.sleep(0.1)
            assert "admitted" not in results  # genuinely blocked, not spinning
            started_at = time.monotonic()
            session.start()
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
            assert results["admitted"] == 0
            # Woken by the reactor-delivered REPLY event, promptly — not by
            # the tail end of a polling timeout.
            assert results["returned_at"] - started_at < 5.0
            list(consumer)  # drain so shutdown is clean
        finally:
            session.shutdown()

    def test_no_heartbeat_thread_per_consumer(self):
        session = repro.serve(
            index_loader(n=8),
            address="inproc://reactor-hb",
            epochs=1,
            start=False,
        )
        try:
            consumer = session.consumer(ConsumerConfig(max_epochs=1))
            names = [t.name for t in threading.enumerate()]
            assert "repro-heartbeat" not in names
            session.start()
            consumer.wait_until_registered(timeout=10.0)
            list(consumer)
        finally:
            session.shutdown()


# ---------------------------------------------------------------------------
# the scalability claim: K consumers x M members = O(1) repro threads
# ---------------------------------------------------------------------------


class TestConstantThreadCount:
    CONSUMERS = 32
    SHARDS = 4

    def test_32_consumers_on_4_shards_add_no_threads(self):
        session = repro.serve(
            index_loader(n=64, batch_size=4),
            address="inproc://reactor-32x4",
            shards=self.SHARDS,
            epochs=1,
            start=False,
        )
        try:
            # Baseline: whatever already lives in the process (a bound session
            # has no thread of its own until it is started).
            before = set(threading.enumerate())
            consumers = [
                repro.attach(
                    "inproc://reactor-32x4",
                    consumer_id=f"fan{i}",
                    max_epochs=1,
                    interleave="any",
                )
                for i in range(self.CONSUMERS)
            ]
            assert all(isinstance(c, GroupConsumer) for c in consumers)
            counts = [0] * self.CONSUMERS
            errors = []

            def train(i, consumer):
                try:
                    for _batch in consumer:
                        counts[i] += 1
                except BaseException as exc:
                    errors.append(exc)

            trainers = [
                threading.Thread(
                    target=train, args=(i, c), name=f"test-fanout-trainer-{i}"
                )
                for i, c in enumerate(consumers)
            ]
            session.start()
            for t in trainers:
                t.start()
            # Sample the thread population for the whole run: any thread the
            # attach/iterate path spawns would show up here.
            new_threads = set()
            while any(t.is_alive() for t in trainers):
                new_threads |= {
                    t for t in threading.enumerate()
                    if t not in before and not t.name.startswith("test-")
                }
                time.sleep(0.01)
            for t in trainers:
                t.join(timeout=10.0)
            assert not errors, errors
            new_names = {t.name for t in new_threads}
            # The serving side's fixed thread set (spawned by session.start(),
            # independent of consumer count) is expected; the attach/iterate
            # side may add at most the one shared reactor.  32 consumers x 4
            # members previously cost 32 pump loops plus 32*4 feeder threads.
            serving_side = {f"repro-producer-shard{k}" for k in range(self.SHARDS)}
            attach_side = {
                name
                for name in new_names - serving_side
                if not name.endswith("-stage")
                and not name.startswith("repro-loader-worker-")
            }
            assert attach_side <= {"repro-reactor"}, (
                f"attach/iterate spawned unexpected threads: {sorted(attach_side)}"
            )
            # And the data still arrived: every consumer saw the full epoch.
            assert all(count == 16 for count in counts), counts
        finally:
            session.shutdown()


# ---------------------------------------------------------------------------
# acked subscribe: a late topic is live before subscribe() returns
# ---------------------------------------------------------------------------


class TestAckedSubscribe:
    def test_subscribe_returns_only_after_prefix_is_live(self):
        """Adding a topic to an existing endpoint (how a second consumer
        joins a shared channel) must be effective broker-side before
        ``subscribe`` returns: the consumer's HELLO travels on a *different*
        socket, so without the confirmation the producer could admit it and
        publish to the new topic — a rubberband catch-up replay, most
        visibly — before the broker ever processed the subscribe."""
        hub = TcpServerHub()
        try:
            endpoint = TcpClientEndpoint(
                hub.host, hub.port, op="connect",
                address="chan/data", subscriptions=["a"],
            )
            try:
                # Stall the server's handling of this connection: this big
                # frame is queued ahead of the subscribe on the same socket,
                # so the subscribe cannot have been processed when it returns
                # — unless it genuinely waited for the confirmation.
                endpoint.send_publish(
                    "void/data",
                    Message("x", MessageKind.HEARTBEAT, "test", body=b"\0" * (8 << 20)),
                )
                endpoint.subscribe("b")
                # Publish straight into the serving hub: routing is
                # synchronous server-side, so this reaches us only if the
                # prefix was applied before subscribe() returned.
                hub.publish(
                    "chan/data", Message("b", MessageKind.HEARTBEAT, "test")
                )
                assert endpoint.receive(timeout=5.0).topic == "b"
            finally:
                endpoint.close()
        finally:
            hub.close()


# ---------------------------------------------------------------------------
# shared TCP connection table
# ---------------------------------------------------------------------------


class TestSharedTcpDial:
    def test_two_attaches_share_one_broker_connection(self):
        session = repro.serve(
            index_loader(n=8),
            address="tcp://127.0.0.1:0",
            epochs=1,
            start=False,
        )
        try:
            first = endpoints.connect(session.address)
            second = endpoints.connect(session.address)
            try:
                # Same refcounted TcpHubClient underneath both endpoints.
                assert first.hub is second.hub
                assert first.pool is second.pool
                stats = get_reactor().stats()
                assert stats["tcp_client_refs"] >= 2
            finally:
                first.release()
                second.release()
            # The last release closes the shared client.
            assert first.hub.closed
        finally:
            session.shutdown()
