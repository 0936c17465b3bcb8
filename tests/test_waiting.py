"""The serving side's waiting rule, observed: a thread blocks on the thing it
waits for, with a timeout only when a deadline means something, and whoever
changes the condition from outside wakes it.

These count calls and loop turns (``threading.setprofile``, a counting
wrapper) instead of reading clocks: a wait that wakes up to look makes calls
while nothing happens, a wait that blocks makes none.  The peers here are
consumers reduced to their protocol — what they send is exactly what the test
says, so "no message at all" means no message at all.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

import repro
from repro.core import ProducerConfig, SharedLoaderSession, TensorProducer
from repro.core.ack_ledger import AckLedger
from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.messaging import InProcHub
from repro.messaging.errors import EndpointClosedError, MessagingError
from repro.messaging.message import Message, MessageKind
from repro.obs.metrics import counter
from repro.tensor import SharedMemoryPool

HEARTBEAT_DETACHES = counter("repro.heartbeat.detaches")


class IndexDataset(Dataset):
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return {"index": np.array([index], dtype=np.int64)}


def index_loader(batches=8, batch_size=2):
    return DataLoader(IndexDataset(batches * batch_size), batch_size=batch_size)


class Peer:
    """A consumer reduced to its protocol: it says HELLO, and then only what
    the test tells it to."""

    def __init__(self, producer, name, buffer_size=2):
        self.name = name
        self.inbox = producer.hub.connect(
            producer.config.data_address, subscriptions=("broadcast", f"consumer/{name}")
        )
        self.hub, self.control = producer.hub, producer.config.control_address
        self.send(MessageKind.HELLO, token=name, batch_size=None, buffer_size=buffer_size)

    def send(self, kind, **body):
        self.hub.push(
            self.control,
            Message(topic="", kind=kind, sender=self.name, body={"consumer_id": self.name, **body}),
        )

    def next_batch(self, timeout=5.0):
        """The next BATCH payload delivered to this peer (other kinds skipped)."""
        deadline = time.monotonic() + timeout
        while True:
            message = self.inbox.receive(timeout=deadline - time.monotonic())
            if message.kind is MessageKind.BATCH:
                return message.body

    def ack(self, payload):
        self.send(MessageKind.ACK, epoch=payload.epoch, batch_index=payload.batch_index)


def wait_for(condition, timeout=5.0):
    """Test-side polling for a state the producer thread reaches on its own."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert condition()


def run_to_completion(producer, join_timeout=30.0):
    """Drive ``producer`` the way a session member thread does; the events say
    how far it got."""
    iterated, joined = threading.Event(), threading.Event()

    def run():
        for _ in producer:
            pass
        iterated.set()
        producer.join(timeout=join_timeout)
        joined.set()

    thread = threading.Thread(target=run, name="repro-test-producer", daemon=True)
    thread.start()
    return thread, iterated, joined


def make_producer(**config):
    config.setdefault("epochs", 1)
    return TensorProducer(
        index_loader(), hub=InProcHub(), pool=SharedMemoryPool(), config=ProducerConfig(**config)
    )


# ---------------------------------------------------------------------------
# the knobs are gone
# ---------------------------------------------------------------------------


class TestKnobsAreGone:
    def test_poll_interval_is_an_unknown_field(self):
        with pytest.raises(TypeError):
            ProducerConfig(poll_interval=0.002)
        assert len(dataclasses.fields(ProducerConfig)) == 15

    def test_serve_rejects_poll_interval_like_any_unknown_field(self):
        with pytest.raises(TypeError):
            repro.serve(index_loader(), address="inproc://waiting-knob", poll_interval=0.002)

    def test_broker_takes_no_sweep_argument(self):
        with pytest.raises(TypeError):
            repro.broker("inproc://waiting-sweep-knob", idle_ttl=1.0, sweep_interval=0.05)


# ---------------------------------------------------------------------------
# whoever closes an inbox wakes its reader
# ---------------------------------------------------------------------------


class TestInboxClose:
    def test_close_wakes_a_receive_blocked_without_a_deadline(self):
        hub = InProcHub()
        inbox = hub.bind("waiting/control")
        outcome = []

        def read():
            try:
                outcome.append(inbox.receive())
            except EndpointClosedError as exc:
                outcome.append(exc)

        reader = threading.Thread(target=read, name="repro-test-reader", daemon=True)
        reader.start()
        time.sleep(0.05)
        assert outcome == []  # blocked, with no timeout to run out
        hub.disconnect(inbox)
        reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert isinstance(outcome[0], EndpointClosedError)

    def test_what_arrived_before_the_close_is_still_read_in_order(self):
        hub = InProcHub()
        inbox = hub.bind("waiting/control")
        for body in (1, 2):
            hub.push("waiting/control", Message(topic="", kind=MessageKind.ACK, sender="t", body=body))
        inbox.close()
        assert [inbox.receive(timeout=1).body, inbox.try_receive().body] == [1, 2]
        assert inbox.try_receive() is None
        with pytest.raises(EndpointClosedError):
            inbox.receive()  # raises at once, every time: nothing left to wait for
        with pytest.raises(EndpointClosedError):
            inbox.receive()


# ---------------------------------------------------------------------------
# an idle producer makes no calls
# ---------------------------------------------------------------------------


class TestIdleProducerMakesNoCalls:
    def test_full_buffer_wait_does_not_look_at_the_ledger(self):
        """One consumer sits on a full buffer for 0.3 s: the producer checks
        capacity when something arrives, and nothing arrives."""
        capacity_check = AckLedger.all_have_capacity.__code__
        state = {"armed": False, "checks": 0}

        def profile(frame, event, arg):
            if (
                state["armed"]
                and event == "call"
                and frame.f_code is capacity_check
                and threading.current_thread().name == "repro-producer"
            ):
                state["checks"] += 1

        session = SharedLoaderSession(
            index_loader(), producer_config=ProducerConfig(epochs=1, buffer_size=2)
        )
        threading.setprofile(profile)
        try:
            session.start()
        finally:
            threading.setprofile(None)
        try:
            sitter = Peer(session.producer, "sitter", buffer_size=2)
            wait_for(lambda: session.producer.payloads_published == 2)
            state["armed"] = True
            time.sleep(0.3)
            state["armed"] = False
            # The one check that found the buffer full may land inside the
            # window; 5 ms polling made about sixty.
            assert state["checks"] <= 3
            assert session.producer.payloads_published == 2
            sitter.send(MessageKind.BYE, token="sitter")
        finally:
            session.shutdown()

    def test_closed_control_inbox_ends_the_wait(self):
        """A closed inbox raises at once on every receive; swallowed, that is
        a hot spin until the ack timeout.  It ends the wait as stop() does."""
        producer = make_producer(heartbeat_timeout=60)
        peer = Peer(producer, "sitter", buffer_size=1)
        iterator = iter(producer)
        next(iterator)  # registers the peer, publishes one batch: buffer full
        assert peer.next_batch().batch_index == 0
        turns = []
        check = producer.ledger.all_have_capacity
        producer.ledger.all_have_capacity = lambda *args: turns.append(1) or check(*args)
        waiter = threading.Thread(
            target=producer.wait_for_capacity, name="repro-test-waiter", daemon=True
        )
        waiter.start()
        wait_for(lambda: turns)  # it looked once, found no room, and blocked
        producer.hub.disconnect(producer._control)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert len(turns) <= 3
        assert producer.stopped
        producer.join(timeout=5.0)  # the drain sees the closed inbox too
        assert producer.pool.bytes_in_flight == 0


# ---------------------------------------------------------------------------
# deadlines fire with no message at all
# ---------------------------------------------------------------------------


class TestDeadlinesWakeTheProducer:
    def test_silent_consumer_is_detached_at_the_heartbeat_timeout(self):
        producer = make_producer(heartbeat_timeout=0.2, buffer_size=1)
        thread, _, _ = run_to_completion(producer)
        detaches = HEARTBEAT_DETACHES.value()
        peer = Peer(producer, "silent", buffer_size=1)
        assert peer.next_batch().batch_index == 0
        # Registered, holding a full buffer, and never heard from again.
        wait_for(lambda: "silent" not in producer.consumers)
        assert HEARTBEAT_DETACHES.value() == detaches + 1
        assert producer.metrics()["repro.producer.consumer_drops"] == {"heartbeat timeout": 1}
        assert producer.ledger.pending_batches == 0
        assert producer.pool.bytes_in_flight == 0
        producer.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_beating_consumer_that_never_acks_is_dropped_at_the_ack_timeout(self):
        producer = make_producer(heartbeat_timeout=0.2, buffer_size=1)
        thread, _, _ = run_to_completion(producer)
        detaches = HEARTBEAT_DETACHES.value()
        registered = time.monotonic()
        peer = Peer(producer, "hoarder", buffer_size=1)
        assert peer.next_batch().batch_index == 0
        while "hoarder" in producer.consumers and time.monotonic() < registered + 5.0:
            peer.send(MessageKind.HEARTBEAT)
            time.sleep(0.05)
        assert "hoarder" not in producer.consumers
        # Four heartbeat timeouts, not one: it was alive, just not acking.
        assert time.monotonic() - registered >= 0.8
        assert HEARTBEAT_DETACHES.value() == detaches
        assert producer.metrics()["repro.producer.consumer_drops"] == {"ack timeout": 1}
        assert producer.pool.bytes_in_flight == 0
        producer.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# stop() wakes every wait
# ---------------------------------------------------------------------------


class TestStopWakesEveryWait:
    """``heartbeat_timeout=60`` and no traffic: only stop() can end these."""

    def test_stop_ends_the_no_consumer_wait(self):
        producer = make_producer(heartbeat_timeout=60)
        thread, iterated, joined = run_to_completion(producer)
        assert not iterated.wait(0.2)  # parked: nobody to load for
        producer.stop()
        assert joined.wait(5.0)
        assert producer.payloads_published == 0

    def test_stop_ends_the_capacity_wait_and_a_second_one_the_drain(self):
        producer = make_producer(heartbeat_timeout=60, buffer_size=1)
        thread, iterated, joined = run_to_completion(producer)
        peer = Peer(producer, "sitter", buffer_size=1)
        assert peer.next_batch().batch_index == 0
        assert not iterated.wait(0.2)  # blocked on the sitter's full buffer
        producer.stop()
        assert iterated.wait(5.0)
        # The stop ended the loading, not the drain: the batch handed out
        # before it still has join()'s timeout to be acknowledged.
        assert not joined.wait(0.3)
        assert producer.ledger.pending_batches == 1
        producer.stop()
        assert joined.wait(5.0)
        assert producer.pool.bytes_in_flight == 0
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_drain_still_ends_on_the_last_ack(self):
        producer = make_producer(heartbeat_timeout=60, buffer_size=1)
        thread, iterated, joined = run_to_completion(producer)
        peer = Peer(producer, "sitter", buffer_size=1)
        payload = peer.next_batch()
        producer.stop()
        assert iterated.wait(5.0)
        assert not joined.wait(0.2)
        peer.ack(payload)
        assert joined.wait(5.0)
        assert producer.pool.bytes_in_flight == 0

    def test_session_shutdown_does_not_wait_out_a_hoarding_remote_peer(self):
        """shutdown() stops every member first, so a member already draining
        toward a peer that will never ack gives the drain up at once."""
        session = SharedLoaderSession(
            index_loader(batches=1),
            producer_config=ProducerConfig(epochs=1, heartbeat_timeout=60),
        )
        peer = Peer(session.producer, "hoarder")
        session.start()
        assert peer.next_batch().batch_index == 0
        wait_for(lambda: session.producer.epochs_completed == 1)  # now in join()
        started = time.monotonic()
        session.shutdown(timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert not session.is_running


# ---------------------------------------------------------------------------
# the pause conditions still resolve
# ---------------------------------------------------------------------------


class TestPauseConditionsResolve:
    def test_everyone_left_mid_epoch_and_the_parked_newcomer_gets_its_epoch(self):
        producer = make_producer(
            epochs=2, rubberband_fraction=0.0, heartbeat_timeout=60, buffer_size=1
        )
        thread, _, joined = run_to_completion(producer)
        early = Peer(producer, "early", buffer_size=1)
        assert early.next_batch().key() == (0, 0)
        late = Peer(producer, "late", buffer_size=1)
        wait_for(lambda: "late" in producer.consumers)
        assert not producer.consumers["late"].active  # parked for epoch 1
        early.send(MessageKind.BYE, token="early")
        # SkipEpoch: epoch 0 is abandoned and epoch 1 starts for the newcomer.
        assert late.next_batch().key() == (1, 0)
        assert producer.metrics()["repro.producer.consumer_drops"] == {"bye": 1}
        late.send(MessageKind.BYE, token="late")
        producer.stop()
        assert joined.wait(5.0)
        assert producer.pool.bytes_in_flight == 0

    def test_rubberband_halt_lifts_when_the_late_joiner_has_caught_up(self):
        producer = make_producer(rubberband_fraction=0.75, heartbeat_timeout=60, buffer_size=2)
        thread, _, joined = run_to_completion(producer)
        first = Peer(producer, "first")
        held = [first.next_batch(), first.next_batch()]
        assert [p.batch_index for p in held] == [0, 1]  # buffer full: publishing waits
        late = Peer(producer, "late")
        replayed = [late.next_batch(), late.next_batch()]
        assert [p.batch_index for p in replayed] == [0, 1]
        assert producer.protocol.halting
        for payload in held:
            first.ack(payload)
        # Halted: "first" has room again, yet nothing new is published.
        wait_for(lambda: producer.ledger.outstanding_for("first") == 0)
        time.sleep(0.2)
        assert producer.payloads_published == 2
        for payload in replayed:
            late.ack(payload)
        assert first.next_batch().batch_index == 2
        assert late.next_batch().batch_index == 2
        assert not producer.protocol.halting
        for peer in (first, late):
            peer.send(MessageKind.BYE, token=peer.name)
        producer.stop()
        assert joined.wait(5.0)
        assert producer.pool.bytes_in_flight == 0


# ---------------------------------------------------------------------------
# a consumer the producer drops is told why
# ---------------------------------------------------------------------------


class TestDroppedConsumerIsTold:
    def test_a_consumer_dropped_for_ack_timeout_fails_with_the_reason(self):
        """The sitter heartbeats all along, so only the ack timeout drops it,
        and the runner's pace sets the broadcasts from then on.  Resumed, it
        used to drain them into its full buffer and die of an OverflowError
        that blamed the producer."""
        address = "inproc://waiting-dropped"
        session = repro.serve(
            index_loader(batches=16), address=address, heartbeat_timeout=0.25, start=False
        )
        consumers = {
            name: repro.attach(address, consumer_id=name, max_epochs=1, heartbeat_interval=0.05)
            for name in ("sitter", "runner")
        }
        outcome = {}

        def train(name, pause_after):
            seen = 0
            try:
                for _ in consumers[name]:
                    seen += 1
                    if seen == pause_after:
                        time.sleep(1.5)  # past the ack deadline, 4 x 0.25 s
            except Exception as exc:
                outcome[name] = exc
            else:
                outcome[name] = seen

        threads = [
            threading.Thread(
                target=train, args=(name, pause), name=f"repro-test-{name}", daemon=True
            )
            for name, pause in (("sitter", 2), ("runner", None))
        ]
        for thread in threads:
            thread.start()
        session.start()
        try:
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert isinstance(outcome["sitter"], MessagingError), outcome
            assert "detached by the producer: ack timeout" in str(outcome["sitter"])
            assert outcome["runner"] == 16
            assert session.metrics()["repro.producer.consumer_drops"] == {"ack timeout": 1}
        finally:
            for consumer in consumers.values():
                consumer.close()
            session.shutdown()
        assert session.pool.bytes_in_flight == 0


# ---------------------------------------------------------------------------
# the broker's idle sweep: a reactor timer, run on the service thread
# ---------------------------------------------------------------------------


class TestBrokerIdleSweep:
    def test_eviction_runs_on_the_service_thread_and_no_janitor_exists(self):
        evicted_on = []
        thread_names = set()
        with repro.broker("inproc://waiting-idle", idle_ttl=0.2) as broker:
            evict = broker.evict

            def recording_evict(name, **kwargs):
                evicted_on.append(threading.current_thread().name)
                return evict(name, **kwargs)

            broker.evict = recording_evict
            broker.publish("fickle", index_loader())
            deadline = time.monotonic() + 10
            while not evicted_on and time.monotonic() < deadline:
                thread_names.update(t.name for t in threading.enumerate())
                time.sleep(0.02)
            assert evicted_on == ["repro-services"]
            wait_for(lambda: broker.stats()["datasets"]["fickle"]["state"] == "registered")
            assert "repro-broker-janitor" not in thread_names
            # Mounted and never attached to: it still got its full idle_ttl.
            assert broker.stats()["datasets"]["fickle"]["evictions"] == 1

    def test_an_attached_dataset_is_not_evicted(self):
        with repro.broker("inproc://waiting-busy", idle_ttl=0.2) as broker:
            broker.publish("busy", index_loader())
            with repro.attach(f"{broker.address}/busy") as consumer:
                consumer.wait_until_registered(timeout=5.0)
                time.sleep(1.0)  # five idle_ttls with a consumer attached
                assert broker.stats()["datasets"]["busy"]["state"] == "mounted"
                assert broker.stats()["datasets"]["busy"]["evictions"] == 0


# ---------------------------------------------------------------------------
# a loader worker's prefetch budget
# ---------------------------------------------------------------------------


class TestLoaderWorkerHandOff:
    def test_worker_blocked_on_a_full_hand_off_makes_no_calls_and_exits_on_close(self):
        loader = DataLoader(IndexDataset(64), batch_size=2, num_workers=1, prefetch_factor=2)
        state = {"armed": False, "calls": 0}

        def profile(frame, event, arg):
            if state["armed"] and threading.current_thread().name.startswith(
                "repro-loader-worker-"
            ):
                state["calls"] += 1

        threading.setprofile(profile)
        try:
            iterator = loader.prefetch_iter()
        finally:
            threading.setprofile(None)
        # The budget (num_workers * prefetch_factor) is loaded and nothing is
        # taken: the worker waits for a permit.
        wait_for(lambda: len(iterator._results) == 2)
        time.sleep(0.05)  # let it reach the blocking acquire
        state["armed"] = True
        time.sleep(0.3)
        state["armed"] = False
        assert state["calls"] == 0  # a 100 ms retry loop makes calls every turn
        iterator.close()
        for worker in iterator._workers:
            worker.join(timeout=5.0)
            assert not worker.is_alive()
        assert len(iterator._results) == 2
