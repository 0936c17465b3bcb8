"""The serving side of ``tcp://`` on the reactor: a thread set that does not
grow with clients, writes that never block a publisher, registration and
shutdown ordering, and hostile frames that cost only their sender."""

import dataclasses
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.group import describe_address
from repro.data import DataLoader, SyntheticImageDataset
from repro.messaging import Message, MessageKind, request_once
from repro.messaging import endpoint as endpoints
from repro.messaging import transport
from repro.messaging.errors import MessagingError
from repro.messaging.reactor import get_reactor
from repro.obs.service import fetch_metrics_from_hub
from repro.tensor import BatchPayload, SharedMemoryPool, from_numpy
from repro.tensor.errors import PayloadError, SharedMemoryError
from repro.messaging.transport import (
    _ADDR,
    _HEADER,
    _TAG_CTRL,
    _TAG_PUBLISH,
    MAX_FRAME_BYTES,
    TcpClientEndpoint,
    TcpHubClient,
    TcpServerHub,
    _frame,
)


def batch(body, kind=MessageKind.BATCH):
    return Message(topic="", kind=kind, sender="test", body=body)


def recv_exactly(sock, count):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        data += chunk
    return data


def raw_client(hub, request):
    """A client that speaks the wire protocol by hand: registered, blocking,
    and reading only when the test tells it to."""
    sock = socket.create_connection((hub.host, hub.port))
    sock.settimeout(5.0)
    sock.sendall(_frame(_TAG_CTRL, pickle.dumps(request)))
    (length,) = _HEADER.unpack(recv_exactly(sock, _HEADER.size))
    reply = recv_exactly(sock, length)
    assert reply[0] == _TAG_CTRL and pickle.loads(reply[1:]) == {"ok": True}
    return sock


def reactor_is_responsive():
    ran = threading.Event()
    get_reactor().submit(ran.set)
    return ran.wait(5.0)


def hold_the_reactor():
    """Park the loop until the returned event is set."""
    held, release = threading.Event(), threading.Event()
    get_reactor().submit(lambda: (held.set(), release.wait(5.0)))
    assert held.wait(5.0)
    return release


@pytest.fixture
def hub():
    hub = TcpServerHub()
    yield hub
    hub.close(drain_timeout=0.2)


class TestServingThreads:
    def test_thread_set_is_the_same_with_1_and_with_8_client_connections(self):
        """Mirror of the consumer-side check in test_reactor.py: the serving
        process's repro- threads do not depend on how many remote connections
        it holds (the old accept/serve/forward model added two per client),
        nor on how many service channels it answers: describe, metrics and
        catalog requests all land on the one ``repro-services`` thread."""

        process_wide = ("repro-reactor", "repro-services")
        # Another test's loader workers may still be winding down: not ours.
        strays = {t for t in threading.enumerate() if t.name not in process_wide}

        def repro_threads():
            return sorted(
                t.name
                for t in threading.enumerate()
                if t.name.startswith("repro-") and t not in strays
            )

        dataset = SyntheticImageDataset(8, image_size=8, payload_bytes=16)
        session = repro.serve(
            DataLoader(dataset, batch_size=4), address="tcp://127.0.0.1:0", start=False
        )
        broker = repro.broker("tcp://127.0.0.1:0")
        clients = []
        try:
            port = int(session.address.rsplit(":", 1)[1])

            def dial():
                clients.append(
                    TcpClientEndpoint("127.0.0.1", port, op="connect", address="/fan")
                )

            def ask_every_service():
                remote = endpoints.connect(session.address)
                plane = endpoints.connect(broker.address)
                try:
                    assert describe_address(remote.hub, session.address)["shards"] == 1
                    assert fetch_metrics_from_hub(remote.hub, session.address)["ok"]
                    listing = request_once(
                        plane.hub, f"{broker.address}/catalog", {"op": "list"}, timeout=5.0
                    )
                    assert listing == {"ok": True, "datasets": []}
                finally:
                    remote.release()
                    plane.release()

            dial()
            ask_every_service()
            with_one = repro_threads()
            for _ in range(7):
                dial()
            ask_every_service()
            # All eight are live server-side: one publish reaches each of them.
            assert session.hub.publish("/fan", batch("ping")) == 8
            for client in clients:
                assert client.receive(timeout=5.0).body == "ping"
            assert repro_threads() == with_one
            assert with_one.count("repro-reactor") == 1
            assert with_one.count("repro-services") == 1
            assert not [name for name in with_one if name.startswith("repro-tcp-")]
        finally:
            for client in clients:
                client.close()
            broker.shutdown()
            session.shutdown()


class TestNeverBlocks:
    def test_client_that_never_reads_blocks_nobody(self, hub):
        stuck = socket.socket()
        # A small receive window, so the server's kernel buffer fills early.
        stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stuck.connect((hub.host, hub.port))
        stuck.sendall(
            _frame(_TAG_CTRL, pickle.dumps({"op": "connect", "address": "/data"}))
        )
        reader = TcpClientEndpoint(hub.host, hub.port, op="connect", address="/data")
        try:
            deadline = time.monotonic() + 5.0
            while hub.connected_count("/data") < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert hub.connected_count("/data") == 2
            count, body = 160, b"\0" * (64 << 10)  # 10 MiB toward a peer taking none

            def publish_all():
                for index in range(count):
                    hub.publish("/data", batch((index, body)))

            publisher = threading.Thread(target=publish_all, name="test-publisher")
            publisher.start()
            publisher.join(timeout=20.0)
            assert not publisher.is_alive(), "a publisher blocked behind a stuck client"
            # The stuck peer's share is parked in its own pending buffer ...
            assert any(peer.connection._pending for peer in list(hub._peers))
            # ... the loop every connection shares is still turning ...
            assert reactor_is_responsive()
            # ... and the second client got everything, in order.
            received = [reader.receive(timeout=10.0).body[0] for _ in range(count)]
            assert received == list(range(count))
        finally:
            reader.close()
            stuck.close()

    def test_a_publisher_writes_its_own_delivery_with_nagle_off(self, hub, monkeypatch):
        client = TcpClientEndpoint(hub.host, hub.port, op="connect", address="/data")
        # The server installs its delivery sink on the loop right after the
        # reply; one loop turn later it is in place.
        assert reactor_is_responsive()
        writers = []
        real_send = socket.socket.send

        def recording_send(sock, data, *flags):
            if sock.family == socket.AF_INET:  # not the reactor's wake-up pipe
                writers.append(threading.current_thread().name)
            return real_send(sock, data, *flags)

        # Installed after the handshake: only deliveries are written from here on.
        monkeypatch.setattr(socket.socket, "send", recording_send)
        try:
            for index in range(3):
                assert hub.publish("/data", batch(index)) == 1
            assert [client.receive(timeout=5.0).body for _ in range(3)] == [0, 1, 2]
            assert writers == [threading.current_thread().name] * 3
            (peer,) = list(hub._peers)
            for sock in (client._connection._sock, peer.connection._sock):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            client.close()

    def test_a_peer_that_resets_mid_stream_costs_the_publisher_nothing(self, hub):
        """The publisher meets a dead socket itself now: the connection's
        close and the hub's disconnect can run on the publishing thread."""
        reader = TcpClientEndpoint(hub.host, hub.port, op="connect", address="/data")
        doomed = socket.socket()
        doomed.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        doomed.connect((hub.host, hub.port))
        doomed.sendall(
            _frame(_TAG_CTRL, pickle.dumps({"op": "connect", "address": "/data"}))
        )
        try:
            deadline = time.monotonic() + 5.0
            while hub.connected_count("/data") < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert hub.connected_count("/data") == 2
            count, cut, body = 400, 50, b"\0" * (16 << 10)
            left_after_the_cut = []

            def publish_all():
                for index in range(count):
                    if index != cut:
                        hub.publish("/data", batch((index, body)))
                        continue
                    # The loop is parked, so the publisher is the one to meet
                    # the reset (an RST, not a FIN) and to release the peer.
                    release = hold_the_reactor()
                    try:
                        doomed.setsockopt(
                            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                        )
                        doomed.close()
                        hub.publish("/data", batch((index, body)))
                        left_after_the_cut.append(hub.connected_count("/data"))
                    finally:
                        release.set()

            publisher = threading.Thread(target=publish_all, name="test-publisher")
            publisher.start()
            publisher.join(timeout=20.0)
            assert not publisher.is_alive(), "a publisher blocked behind a reset peer"
            assert left_after_the_cut == [1]
            assert hub.connected_count("/data") == 1
            assert reactor_is_responsive()
            received = [reader.receive(timeout=10.0).body[0] for _ in range(count)]
            assert received == list(range(count))
        finally:
            reader.close()
            doomed.close()


class TestHandshakeDeadline:
    @pytest.mark.parametrize("server", ["mute", "dribbling"])
    def test_a_hub_that_never_answers_fails_the_attach_in_time(self, monkeypatch, server):
        """A listener that never accepts, or one that sends its reply a byte
        every 50 ms (each recv is short; the whole reply takes 13 s): either
        way the attach fails with :class:`MessagingError` by one deadline."""
        monkeypatch.setattr(transport, "HANDSHAKE_TIMEOUT_S", 0.2)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)  # the kernel completes the dial; nobody else speaks
        done = threading.Event()

        def dribble():
            conn, _ = listener.accept()
            with conn:
                for byte in _HEADER.pack(256) + b"\0" * 256:
                    if done.wait(0.05):
                        return
                    try:
                        conn.sendall(bytes((byte,)))
                    except OSError:
                        return  # the attacher gave up

        if server == "dribbling":
            threading.Thread(target=dribble, daemon=True).start()
        outcome = []

        def attach():
            try:
                TcpHubClient(*listener.getsockname())
            except Exception as exc:
                outcome.append(exc)

        attacher = threading.Thread(target=attach, daemon=True)
        try:
            attacher.start()
            attacher.join(timeout=5.0)
            assert not attacher.is_alive(), "the attach is still waiting on the hub"
            assert len(outcome) == 1 and isinstance(outcome[0], MessagingError)
        finally:
            done.set()
            listener.close()


class TestOrdering:
    def test_publishes_between_connect_and_reply_arrive_after_the_reply(self, hub):
        """The inbox is reachable from hub.connect() on, the acknowledgement
        is written after that: whatever is published in between must follow
        the reply on the wire, complete and in order (a delivery overtaking
        the reply would fail the client's handshake outright)."""
        real_connect = hub.connect

        def connect_then_publish(address, **kwargs):
            inbox = real_connect(address, **kwargs)
            for index in range(5):
                hub.publish(address, batch(index))
            return inbox

        hub.connect = connect_then_publish
        client = TcpClientEndpoint(hub.host, hub.port, op="connect", address="/data")
        try:
            hub.publish("/data", batch(5))
            assert [client.receive(timeout=5.0).body for _ in range(6)] == list(range(6))
        finally:
            client.close()

    def test_shutdown_published_right_before_close_reaches_every_client(self):
        hub = TcpServerHub()
        clients = [
            TcpClientEndpoint(hub.host, hub.port, op="connect", address="/data")
            for _ in range(4)
        ]
        try:
            # Enough backlog that some of it is still in user space when
            # close() is called: close() has to flush it, not cut it off.
            body = b"\0" * (64 << 10)
            for index in range(64):
                hub.publish("/data", batch((index, body)))
            hub.publish("/data", batch(None, kind=MessageKind.SHUTDOWN))
            hub.close()
            for client in clients:
                bodies = [client.receive(timeout=10.0) for _ in range(65)]
                assert [m.body[0] for m in bodies[:-1]] == list(range(64))
                assert bodies[-1].kind is MessageKind.SHUTDOWN
        finally:
            for client in clients:
                client.close()
            hub.close()


def _routed(address: bytes, payload: bytes) -> bytes:
    return _frame(_TAG_PUBLISH, _ADDR.pack(len(address)), address, payload)


HOSTILE = {
    "length-over-cap": _HEADER.pack(MAX_FRAME_BYTES + 1) + b"\x01",
    "length-4GiB": b"\xff\xff\xff\xff",
    "zero-length": _HEADER.pack(0),
    "unknown-tag": _frame(9, b"payload"),
    "deliver-tag-to-server": _frame(1, batch(0).to_bytes()),
    "ctrl-not-a-pickle": _frame(_TAG_CTRL, b"definitely not a pickle"),
    "ctrl-not-a-dict": _frame(_TAG_CTRL, pickle.dumps(42)),
    "ctrl-without-op": _frame(_TAG_CTRL, pickle.dumps({"address": "/x"})),
    "ctrl-unknown-op": _frame(_TAG_CTRL, pickle.dumps({"op": "format-disk"})),
    "ctrl-second-bind": _frame(_TAG_CTRL, pickle.dumps({"op": "bind", "address": "/two"})),
    "publish-truncated-preamble": _frame(_TAG_PUBLISH, b"\x00"),
    "publish-address-not-utf8": _routed(b"\xff\xfe", batch(0).to_bytes()),
    "publish-undecodable-message": _routed(b"/data", b"garbage"),
    "publish-message-not-an-envelope": _routed(b"/data", pickle.dumps([1, 2, 3])),
}


class TestHostileFrames:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_bad_frame_costs_the_sender_its_connection_and_nobody_else(self, hub, case):
        bystander = TcpClientEndpoint(hub.host, hub.port, op="connect", address="/data")
        hostile = raw_client(hub, {"op": "bind", "address": "/hostile"})
        try:
            assert hub.has_bound("/hostile")
            hostile.sendall(HOSTILE[case])
            # The server hangs up on the sender (FIN, or RST when it left
            # bytes unread) ...
            try:
                assert hostile.recv(1) == b""
            except ConnectionError:
                pass
            # ... releases what the connection held ...
            assert not hub.has_bound("/hostile")
            assert not hub.has_bound("/two")
            assert len(hub._peers) == 1
            # ... and everybody else is served as before.
            assert reactor_is_responsive()
            hub.publish("/data", batch("still here"))
            assert bystander.receive(timeout=5.0).body == "still here"
            fresh = TcpClientEndpoint(hub.host, hub.port, op="bind", address="/hostile")
            fresh.close()
        finally:
            hostile.close()
            bystander.close()

    def test_a_frame_at_the_cap_is_still_served(self, hub):
        reader = TcpClientEndpoint(hub.host, hub.port, op="connect", address="/data")
        writer = TcpClientEndpoint(hub.host, hub.port, op="open")
        try:
            message = batch(b"\0" * (MAX_FRAME_BYTES - 4096))
            writer.send_publish("/data", message)
            assert len(reader.receive(timeout=20.0).body) == MAX_FRAME_BYTES - 4096
        finally:
            writer.close()
            reader.close()


class TestHostileHandles:
    """A well-formed envelope can still carry a handle that lies about its
    tensor.  ``int(np.prod(shape))`` wrapped at 2**63: a ``(2**32, 2**32)``
    shape counted 0 bytes, passed the segment bounds check and died in
    ``reshape`` with a bare ``ValueError``."""

    HUGE = (2**32, 2**32)

    @pytest.mark.parametrize("backend", ["inproc", "posix"])
    def test_a_shape_that_overflows_a_machine_word_fails_the_bounds_check(self, backend):
        pool = SharedMemoryPool(backend=backend)
        readers = [pool]
        if backend == "posix":  # what a trainer in another process unpacks with
            readers.append(SharedMemoryPool(backend="posix", attach_by_name=True))
        try:
            values = np.arange(16, dtype=np.float32)
            honest = BatchPayload.pack(
                pool.share_batch({"x": from_numpy(values)}), batch_index=0, epoch=0
            )
            handle = honest.tensors["x"]
            hostile = dataclasses.replace(
                honest, tensors={"x": dataclasses.replace(handle, shape=self.HUGE)}
            )
            for reader in readers:
                with pytest.raises(SharedMemoryError, match="exceeds segment size"):
                    reader.attach(
                        handle.segment_name,
                        self.HUGE,
                        handle.dtype,
                        offset=handle.segment_offset,
                        generation=handle.generation,
                    )
                with pytest.raises(PayloadError):
                    hostile.unpack(reader)
                # The segment is unharmed: the honest handle still reads it.
                np.testing.assert_array_equal(honest.unpack(reader)["x"].numpy(), values)
        finally:
            for reader in readers[1:]:
                reader.close_attached()
            pool.shutdown()
