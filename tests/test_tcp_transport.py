"""Tests for the ``tcp://`` transport: cross-process serve/attach, broker
robustness (duplicate binds reply with an error instead of hanging the
client), port release on shutdown, and regression tests for the
producer/ledger/hub lifecycle fixes that shipped with it."""

import multiprocessing
import socket
import threading
import time

import pytest

import repro
from repro.core import ConsumerConfig, ProducerConfig
from repro.core.ack_ledger import AckLedger
from repro.core.consumer import TensorConsumer
from repro.core.group import attach_address
from repro.core.producer import TensorProducer
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
from repro.messaging import InProcHub, Message, MessageKind
from repro.messaging.endpoint import TcpTransport, connect
from repro.messaging.errors import (
    AddressError,
    AddressInUseError,
    AddressNotServedError,
    MessagingError,
)
from repro.messaging.transport import TcpClientEndpoint, TcpServerHub, channel_key


def tiny_loader(size=24, batch_size=4):
    dataset = SyntheticImageDataset(size, image_size=8, payload_bytes=16)
    pipeline = Compose([DecodeJpeg(height=8, width=8), Normalize(), ToTensor()])
    return DataLoader(dataset, batch_size=batch_size, transform=pipeline)


# ---------------------------------------------------------------------------
# address plumbing
# ---------------------------------------------------------------------------


class TestTcpAddresses:
    def test_tcp_scheme_registered_by_default(self):
        assert "tcp" in repro.available_schemes()

    def test_channel_key_canonicalises_authority(self):
        assert channel_key("tcp://127.0.0.1:5555/data") == "/data"
        assert channel_key("tcp://localhost:5555/data") == "/data"
        assert channel_key("plain-address/data") == "plain-address/data"

    @pytest.mark.parametrize("bad", ["tcp://hostonly", "tcp://:5555", "tcp://h:not-a-port", "tcp://h:70000"])
    def test_malformed_locators_rejected(self, bad):
        with pytest.raises(AddressError):
            TcpTransport().bind(bad)

    def test_connect_to_port_zero_rejected(self):
        with pytest.raises(AddressError, match="port 0"):
            TcpTransport().connect("tcp://127.0.0.1:0")

    def test_connect_to_dead_broker_is_not_served(self):
        # Grab a port that is guaranteed free, then dial it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(AddressNotServedError):
            connect(f"tcp://127.0.0.1:{port}")


# ---------------------------------------------------------------------------
# serve/attach round trip (single process, real TCP + posix shared memory)
# ---------------------------------------------------------------------------


class TestTcpRoundTrip:
    def test_bind_attach_round_trip_with_port_autoassign(self):
        session = repro.serve(
            tiny_loader(size=24), address="tcp://127.0.0.1:0", epochs=1, start=False
        )
        try:
            # Port 0 was resolved and surfaced through producer.address.
            assert session.producer.address == session.address
            assert not session.address.endswith(":0")
            # Bypass the in-process session directory so the consumer really
            # dials the broker and attaches segments by name.
            consumer = attach_address(
                session.address, ConsumerConfig(max_epochs=1, receive_timeout=20)
            )
            session.start()
            batches = 0
            all_shared = True
            for batch in consumer:
                batches += 1
                all_shared = all_shared and all(t.is_shared for t in batch.values())
            consumer.close()
            assert batches == 6
            assert all_shared
        finally:
            session.shutdown()
        assert session.pool.live_segments == 0

    def test_duplicate_tcp_bind_raises_address_in_use(self):
        session = repro.serve(
            tiny_loader(size=8), address="tcp://127.0.0.1:0", start=False
        )
        try:
            with pytest.raises(AddressInUseError):
                repro.serve(tiny_loader(size=8), address=session.address, start=False)
        finally:
            session.shutdown()


# ---------------------------------------------------------------------------
# broker robustness
# ---------------------------------------------------------------------------


class TestBrokerRobustness:
    def test_duplicate_channel_bind_replies_error_instead_of_hanging(self):
        hub = TcpServerHub()
        try:
            first = TcpClientEndpoint(hub.host, hub.port, op="bind", address="/control")
            started = time.monotonic()
            with pytest.raises(MessagingError, match="already bound"):
                TcpClientEndpoint(hub.host, hub.port, op="bind", address="/control")
            # The error came back as a reply, not a client-side timeout/hang.
            assert time.monotonic() - started < 5.0
            first.close()
        finally:
            hub.close()

    def test_rejected_bind_leaves_connection_usable(self):
        hub = TcpServerHub()
        try:
            holder = TcpClientEndpoint(hub.host, hub.port, op="bind", address="/x")
            with pytest.raises(MessagingError):
                TcpClientEndpoint(hub.host, hub.port, op="bind", address="/x")
            holder.close()
            time.sleep(0.1)
            # The address is free again once the holder disconnected.
            rebound = TcpClientEndpoint(hub.host, hub.port, op="bind", address="/x")
            rebound.close()
        finally:
            hub.close()

    def test_push_to_unbound_address_does_not_kill_connection(self):
        hub = TcpServerHub()
        try:
            sender = TcpClientEndpoint(hub.host, hub.port, op="open")
            message = Message(topic="", kind=MessageKind.ACK, sender="t", body=1)
            sender.send_push("/nowhere", message)  # swallowed broker-side
            time.sleep(0.1)
            # The same connection still serves a successful bind afterwards.
            bound = TcpClientEndpoint(hub.host, hub.port, op="bind", address="/alive")
            sender.send_push("/alive", message)
            assert bound.receive(timeout=5).body == 1
            bound.close()
            sender.close()
        finally:
            hub.close()

    def test_broker_shutdown_releases_port(self):
        session = repro.serve(
            tiny_loader(size=8), address="tcp://127.0.0.1:0", start=False
        )
        port = int(session.address.rsplit(":", 1)[1])
        session.shutdown()
        # The port is bindable again immediately after shutdown.
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", port))
        probe.close()

    def test_same_port_reservable_after_session_with_traffic(self):
        """close() must wake the blocked accept thread, or the kernel keeps
        the listening socket alive and re-binding the port fails."""
        session = repro.serve(
            tiny_loader(size=8), address="tcp://127.0.0.1:0", epochs=1, start=False
        )
        address = session.address
        consumer = attach_address(address, ConsumerConfig(max_epochs=1, receive_timeout=20))
        session.start()
        assert sum(1 for _ in consumer) == 2
        consumer.close()
        session.shutdown()
        # Re-serving (bind + listen, not just a bind probe) must succeed.
        rebound = repro.serve(tiny_loader(size=8), address=address, start=False)
        assert rebound.address == address
        rebound.shutdown()

    def test_dead_broker_send_raises_messaging_error(self):
        hub = TcpServerHub()
        sender = TcpClientEndpoint(hub.host, hub.port, op="open")
        hub.close()
        time.sleep(0.1)
        message = Message(topic="", kind=MessageKind.ACK, sender="t", body=1)
        with pytest.raises(MessagingError):
            # May take one send for the OS to report the dead peer.
            for _ in range(20):
                sender.send_push("/anywhere", message)
                time.sleep(0.05)
        sender.close()


# ---------------------------------------------------------------------------
# regression: replay-window ledger accounting (AckLedger.add_waiter)
# ---------------------------------------------------------------------------


class TestReplayWindowLedgerAccounting:
    def test_add_waiter_updates_outstanding_index(self):
        ledger = AckLedger()
        ledger.publish((0, 0), ["c1"], segment_names=("seg",), nbytes=64)
        record = ledger.add_waiter((0, 0), "late-joiner")
        assert "late-joiner" in record.waiting_on
        # The per-consumer outstanding index saw the waiter too — this is
        # what raw record mutation used to miss.
        assert ledger.outstanding_for("late-joiner") == 1
        assert not ledger.can_publish_to("late-joiner", buffer_size=1)

    def test_add_waiter_acknowledge_releases(self):
        released = []
        ledger = AckLedger(release_callback=lambda record: released.append(record.key))
        ledger.publish((0, 1), ["c1"])
        ledger.add_waiter((0, 1), "c2")
        assert ledger.acknowledge("c1", (0, 1)) is None
        assert ledger.acknowledge("c2", (0, 1)) is not None
        assert released == [(0, 1)]
        assert ledger.outstanding_for("c2") == 0

    def test_add_waiter_on_released_batch_raises(self):
        ledger = AckLedger()
        ledger.publish((0, 2), ["c1"])
        ledger.acknowledge("c1", (0, 2))
        with pytest.raises(KeyError):
            ledger.add_waiter((0, 2), "c2")

    def test_replay_window_flows_through_ledger(self):
        """A rubberbanded late joiner's replayed batches are tracked as
        outstanding, so flow control sees them."""
        hub = InProcHub()
        producer = TensorProducer(
            tiny_loader(size=100, batch_size=4),
            hub=hub,
            config=ProducerConfig(epochs=1, rubberband_fraction=0.5),
        )
        first = TensorConsumer(hub=hub, pool=producer.pool,
                               config=ConsumerConfig(consumer_id="first", max_epochs=1))
        iterator = iter(producer)
        next(iterator)  # publish one batch into the rubberband window
        late = TensorConsumer(hub=hub, pool=producer.pool,
                              config=ConsumerConfig(consumer_id="late", max_epochs=1))
        producer._process_control()
        assert producer.ledger.outstanding_for("late") > 0
        producer.stop()
        for consumer in (first, late):
            consumer.close()
        producer.join(timeout=5)


# ---------------------------------------------------------------------------
# regression: hub endpoint pruning
# ---------------------------------------------------------------------------


class TestHubEndpointPruning:
    def test_publish_purges_closed_endpoints(self):
        hub = InProcHub()
        keep = hub.connect("data")
        for _ in range(5):
            # close() without disconnect(), as a dying consumer would.
            hub.connect("data").close()
        assert hub.publish("data", Message(topic="", kind=MessageKind.BATCH, sender="p", body=1)) == 1
        assert len(hub._connected["data"]) == 1  # the closed ones are gone
        assert keep.receive(timeout=1).body == 1

    def test_connect_purges_closed_endpoints(self):
        hub = InProcHub()
        hub.connect("data").close()
        hub.connect("data").close()
        live = hub.connect("data")
        assert hub._connected["data"] == [live]

    def test_publish_drops_empty_address_entry(self):
        hub = InProcHub()
        hub.connect("data").close()
        hub.publish("data", Message(topic="", kind=MessageKind.BATCH, sender="p"))
        assert "data" not in hub._connected

    def test_connect_time_subscriptions_are_atomic(self):
        hub = InProcHub()
        endpoint = hub.connect("data", subscriptions=("broadcast", "consumer/c1"))
        assert endpoint.subscriptions == {"broadcast", "consumer/c1"}


# ---------------------------------------------------------------------------
# regression: phantom heartbeats and flexible-mode epoch drift
# ---------------------------------------------------------------------------


def _push(producer, kind, body):
    """What a peer's push does: one message on the producer's control inbox."""
    producer.hub.push(
        producer.config.control_address, Message(topic="", kind=kind, sender="peer", body=body)
    )


class TestPhantomHeartbeats:
    def test_stray_sender_not_tracked_as_live_peer(self):
        hub = InProcHub()
        producer = TensorProducer(tiny_loader(size=8), hub=hub,
                                  config=ProducerConfig(epochs=1))
        _push(producer, MessageKind.HEARTBEAT, {"consumer_id": "ghost"})
        _push(producer, MessageKind.ACK, {"consumer_id": "ghost", "epoch": 0, "batch_index": 0})
        producer._process_control()
        assert producer.protocol.peers == {}
        producer.stop()
        producer.join(timeout=5)

    def test_registered_consumer_still_beats(self):
        hub = InProcHub()
        producer = TensorProducer(tiny_loader(size=8), hub=hub,
                                  config=ProducerConfig(epochs=1))
        consumer = TensorConsumer(hub=hub, pool=producer.pool,
                                  config=ConsumerConfig(consumer_id="real", max_epochs=1))
        producer._process_control()
        assert list(producer.protocol.peers) == ["real"]
        seen_before = producer.protocol.peers["real"].last_seen
        time.sleep(0.01)
        _push(producer, MessageKind.HEARTBEAT, {"consumer_id": "real"})
        producer._process_control()
        assert producer.protocol.peers["real"].last_seen > seen_before
        consumer.close()
        producer._process_control()
        producer.stop()
        producer.join(timeout=5)

    def test_rejected_duplicate_hello_not_tracked(self):
        hub = InProcHub()
        producer = TensorProducer(tiny_loader(size=8), hub=hub,
                                  config=ProducerConfig(epochs=1))
        _push(producer, MessageKind.HELLO, {"consumer_id": "worker", "token": "t1"})
        producer._process_control()
        peers = producer.protocol.peers
        first_seen = peers["worker"].last_seen
        time.sleep(0.01)
        # A different instance squatting on the same id is rejected and must
        # not refresh (or create) liveness for anyone.
        _push(producer, MessageKind.HELLO, {"consumer_id": "worker", "token": "t2"})
        producer._process_control()
        assert list(peers) == ["worker"]
        assert peers["worker"].last_seen == first_seen
        assert peers["worker"].token == "t1"
        producer.stop()
        producer.join(timeout=5)


class TestFlexibleEpochDrift:
    def test_producer_batch_indices_restart_each_epoch(self):
        hub = InProcHub()
        producer = TensorProducer(
            tiny_loader(size=16, batch_size=4),
            hub=hub,
            config=ProducerConfig(epochs=2, flexible_batching=True,
                                  producer_batch_size=8),
        )
        indices_by_epoch = {}
        spy = hub.connect(producer.config.data_address, subscriptions=("",))
        consumer = TensorConsumer(
            hub=hub, pool=producer.pool,
            config=ConsumerConfig(consumer_id="c", batch_size=4, max_epochs=2),
        )
        runner = threading.Thread(target=lambda: (list(producer), producer.join()))
        runner.start()
        batches = sum(1 for _ in consumer)
        runner.join(timeout=30)
        assert batches == 8
        while True:
            message = spy.try_receive()
            if message is None:
                break
            if message.kind is MessageKind.BATCH:
                indices_by_epoch.setdefault(message.body.epoch, []).append(
                    message.body.batch_index
                )
        # One broadcast per producer batch of 8, numbered from 0 in each epoch.
        assert indices_by_epoch == {0: [0, 1], 1: [0, 1]}
        consumer.close()


# ---------------------------------------------------------------------------
# cross-process end-to-end (marked so CI can fence it with a timeout)
# ---------------------------------------------------------------------------


def _remote_trainer(address, result_queue):
    """Runs in a separate OS process: attach by address, train two epochs."""
    import repro as repro_child

    consumer = repro_child.attach(
        address, consumer_id="remote-trainer", max_epochs=2, receive_timeout=30
    )
    batches = 0
    all_shared = True
    total = 0.0
    for batch in consumer:
        batches += 1
        all_shared = all_shared and all(t.is_shared for t in batch.values())
        total += float(batch["image"].numpy().sum())
    consumer.close()
    result_queue.put((batches, all_shared, total))


@pytest.mark.multiprocess
class TestCrossProcess:
    def test_two_process_training_two_epochs_zero_copy(self):
        session = repro.serve(
            tiny_loader(size=24), address="tcp://127.0.0.1:0", epochs=2, start=False
        )
        result_queue = multiprocessing.Queue()
        child = multiprocessing.Process(
            target=_remote_trainer, args=(session.address, result_queue)
        )
        child.start()
        try:
            session.start()
            batches, all_shared, total = result_queue.get(timeout=60)
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
            session.shutdown()
        assert child.exitcode == 0
        assert batches == 12  # 6 batches/epoch x 2 epochs
        assert all_shared  # posix shared-memory views, not pickled copies
        assert total != 0.0  # the child really read tensor bytes
        assert session.producer.epochs_completed == 2
        assert session.pool.live_segments == 0

    def test_forked_child_does_not_see_parent_session_directory(self):
        from repro.core.session import SharedLoaderSession

        session = repro.serve(
            tiny_loader(size=8), address="tcp://127.0.0.1:0", start=False
        )
        try:
            # In the serving process the directory finds the session...
            assert SharedLoaderSession.at(session.address) is session

            def probe(address, queue):
                from repro.core.session import SharedLoaderSession as S

                queue.put(S.at(address) is None)

            queue = multiprocessing.Queue()
            child = multiprocessing.Process(target=probe, args=(session.address, queue))
            child.start()
            # ...but a forked child must fall through to a real transport
            # connect instead of the parent's dead in-process entry.
            assert queue.get(timeout=30) is True
            child.join(timeout=10)
        finally:
            session.shutdown()
