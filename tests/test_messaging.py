"""Unit tests for the messaging layer (envelopes, hubs, service channels,
heartbeats)."""

import threading
import time

import pytest

from repro.core.config import ConsumerConfig, ProducerConfig
from repro.core.consumer import TensorConsumer
from repro.core.protocol import ProducerProtocol
from repro.core.rubberband import RubberbandPolicy
from repro.messaging import (
    EndpointClosedError,
    InProcHub,
    Message,
    MessageKind,
    MessagingError,
    Responder,
    TimeoutError_,
    request_once,
)
from repro.obs.metrics import counter
from repro.tensor.shared_memory import SharedMemoryPool

SERVICE_ERRORS = counter("repro.services.errors")


def _msg(kind, body=None, topic=""):
    return Message(topic=topic, kind=kind, sender="test", body=body)


def _drain(inbox):
    messages = []
    while (message := inbox.try_receive()) is not None:
        messages.append(message)
    return messages


class TestMessage:
    def test_wire_roundtrip(self):
        message = Message(topic="batches", kind=MessageKind.BATCH, sender="p0", body={"i": 3})
        decoded = Message.from_bytes(message.to_bytes())
        assert decoded.topic == "batches"
        assert decoded.kind is MessageKind.BATCH
        assert decoded.body == {"i": 3}
        assert decoded.seq == message.seq

    def test_topic_prefix_matching(self):
        message = Message(topic="consumer/c1", kind=MessageKind.BATCH, sender="p")
        assert message.matches_topic("consumer/")
        assert message.matches_topic("")
        assert not message.matches_topic("broadcast")

    def test_sequence_numbers_increase(self):
        first = Message(topic="", kind=MessageKind.ACK, sender="a")
        second = Message(topic="", kind=MessageKind.ACK, sender="a")
        assert second.seq > first.seq


class TestInProcHub:
    def test_publish_reaches_all_matching_subscribers(self):
        hub = InProcHub()
        sub_all = hub.connect("data", subscriptions=("",))
        sub_personal = hub.connect("data", subscriptions=("consumer/c1",))
        delivered = hub.publish("data", _msg(MessageKind.BATCH, 1, "broadcast"))
        assert delivered == 1
        assert sub_all.receive(timeout=1).body == 1
        assert sub_personal.try_receive() is None
        hub.publish("data", _msg(MessageKind.BATCH, 2, "consumer/c1"))
        assert sub_personal.receive(timeout=1).body == 2

    def test_push_requires_bound_pull(self):
        hub = InProcHub()
        with pytest.raises(MessagingError):
            hub.push("control", _msg(MessageKind.ACK, {}))
        pull = hub.bind("control")
        hub.push("control", _msg(MessageKind.ACK, {"ok": True}))
        assert pull.receive(timeout=1).body == {"ok": True}

    def test_double_bind_rejected(self):
        hub = InProcHub()
        hub.bind("control")
        with pytest.raises(MessagingError):
            hub.bind("control")

    def test_disconnect_stops_delivery(self):
        hub = InProcHub()
        sub = hub.connect("data")
        hub.disconnect(sub)
        assert hub.publish("data", _msg(MessageKind.BATCH, 1)) == 0

    def test_recv_timeout_raises(self):
        hub = InProcHub()
        sub = hub.connect("data")
        with pytest.raises(TimeoutError_):
            sub.receive(timeout=0.01)

    def test_pull_drain_returns_everything_pending(self):
        hub = InProcHub()
        pull = hub.bind("control")
        for index in range(5):
            hub.push("control", _msg(MessageKind.ACK, index))
        assert [m.body for m in _drain(pull)] == list(range(5))
        assert _drain(pull) == []

    def test_hub_counts_traffic(self):
        hub = InProcHub()
        hub.connect("data")
        pull = hub.bind("ack")
        hub.push("ack", _msg(MessageKind.ACK))
        hub.publish("data", _msg(MessageKind.BATCH))
        assert hub.messages_published == 1
        assert hub.messages_pushed == 1
        assert pull.pending() == 1


class TestReqRep:
    def test_request_reply_roundtrip(self):
        hub = InProcHub()
        rep = hub.bind("status")

        def server():
            request = rep.receive(timeout=2)
            hub.push(
                request.body["reply_to"],
                _msg(MessageKind.REPLY, {"echo": request.body["payload"]}),
            )

        thread = threading.Thread(target=server)
        thread.start()
        reply = request_once(hub, "status", {"value": 41}, timeout=2)
        thread.join()
        assert reply == {"echo": {"value": 41}}

    def test_serve_pending_handles_queued_requests(self):
        hub = InProcHub()
        inboxes = {name: hub.bind(f"status/reply/{name}") for name in ("a", "b")}
        responder = Responder(hub, "status", lambda payload: {"x": payload * 10}, "status")
        try:
            # Both requests queue on the service thread before either is answered.
            for name, payload in (("a", 1), ("b", 2)):
                hub.push(
                    "status",
                    _msg(MessageKind.REQUEST, {"reply_to": f"status/reply/{name}", "payload": payload}),
                )
            assert inboxes["a"].receive(timeout=5).body == {"x": 10}
            assert inboxes["b"].receive(timeout=5).body == {"x": 20}
        finally:
            responder.stop()

    def test_reply_requires_reply_to(self):
        # A reply to an address nobody binds (the requester vanished) is
        # counted, and the channel keeps serving.
        hub = InProcHub()
        responder = Responder(hub, "status", lambda payload: {"echo": payload}, "status")
        try:
            errors = SERVICE_ERRORS.value()
            hub.push(
                "status",
                _msg(MessageKind.REQUEST, {"reply_to": "status/reply/gone", "payload": 1}),
            )
            assert request_once(hub, "status", 2, timeout=5) == {"echo": 2}
            assert SERVICE_ERRORS.value() == errors + 1
        finally:
            responder.stop()

    def test_request_without_reply_to_does_not_run_handler(self):
        hub = InProcHub()
        calls = []

        def handler(payload):
            calls.append(payload)
            return {"echo": payload}

        responder = Responder(hub, "status", handler, "status")
        try:
            errors = SERVICE_ERRORS.value()
            hub.push("status", _msg(MessageKind.REQUEST, {"payload": 1}))
            # One service thread, first in first out: once the good request
            # is answered, the bad one has been handled.
            assert request_once(hub, "status", 2, timeout=5) == {"echo": 2}
            assert calls == [2]
            assert SERVICE_ERRORS.value() == errors + 1
        finally:
            responder.stop()

    def test_request_once_rejects_a_non_reply(self):
        hub = InProcHub()
        rep = hub.bind("status")

        def server():
            request = rep.receive(timeout=2)
            hub.push(request.body["reply_to"], _msg(MessageKind.ACK, {}))

        thread = threading.Thread(target=server)
        thread.start()
        with pytest.raises(MessagingError, match="expected a REPLY"):
            request_once(hub, "status", {}, timeout=2)
        thread.join()


def _protocol(heartbeat_timeout):
    """A producer protocol core without a join window: every HELLO is admitted
    at once."""
    return ProducerProtocol(
        ProducerConfig(heartbeat_timeout=heartbeat_timeout), RubberbandPolicy(0.0)
    )


def _hello(core, consumer_id, now):
    return core.hello({"consumer_id": consumer_id, "token": "t"}, now, 0)


class TestHeartbeats:
    """The producer side of liveness is a field of its protocol core's peer
    table, stepped here with a fake clock."""

    def test_monitor_tracks_and_detaches_silent_consumers(self):
        core = _protocol(5.0)
        _hello(core, "c1", 0.0)
        _hello(core, "c2", 0.0)
        assert core.beat("c2", 3.0)
        dropped = core.expire(7.0)
        assert [(d.consumer_id, d.reason) for d in dropped] == [("c1", "heartbeat timeout")]
        assert list(core.peers) == ["c2"]
        assert core.drops == {"heartbeat timeout": 1}
        assert core.next_expiry == 8.0  # c2's last beat plus the timeout

    def test_detached_consumer_can_reregister(self):
        core = _protocol(1.0)
        _hello(core, "c1", 0.0)
        core.expire(5.0)
        assert not core.beat("c1", 5.0)  # a beat alone revives nobody
        reply, _ = _hello(core, "c1", 5.0)
        assert "error" not in reply
        assert core.peers["c1"].last_seen == 5.0

    def test_forget_removes_consumer(self):
        core = _protocol(1.0)
        _hello(core, "c1", 0.0)
        (dropped,) = core.bye("c1", "t")
        assert dropped.notice is None  # it said BYE itself: nothing to tell it
        assert core.peers == {}
        assert core.expire(10.0) == []

    def test_silence_of_unknown_consumer_is_none(self):
        core = _protocol(10.0)
        assert not core.beat("ghost", 1.0)
        assert core.peers == {}
        assert core.next_expiry == float("inf")

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            ProducerConfig(heartbeat_timeout=0)

    def test_consumer_timer_sends_one_heartbeat_per_tick(self):
        # The reactor's own timer fires every 60 s, so only these calls tick.
        hub = InProcHub()
        config = ConsumerConfig(address="hb", consumer_id="c1", heartbeat_interval=60)
        control = hub.bind(config.control_address)
        consumer = TensorConsumer(hub=hub, pool=SharedMemoryPool(), config=config)
        try:
            assert [m.kind for m in _drain(control)] == [MessageKind.HELLO]
            consumer._on_reactor_timer()
            consumer._on_reactor_timer()
            # Unanswered: each tick repeats the registration.
            assert [m.kind for m in _drain(control)] == [MessageKind.HELLO] * 2
            hub.publish(
                config.data_address,
                _msg(MessageKind.REPLY, {"consumer_id": "c1", "admitted_epoch": 0}, "consumer/c1"),
            )
            assert consumer.wait_until_registered(timeout=5) == 0
            sent = counter("repro.heartbeat.sent").value()
            consumer._on_reactor_timer()
            consumer._on_reactor_timer()
            beats = _drain(control)
            assert [m.kind for m in beats] == [MessageKind.HEARTBEAT] * 2
            assert all(m.body == {"consumer_id": "c1"} for m in beats)
            assert counter("repro.heartbeat.sent").value() >= sent + 2
        finally:
            consumer.close()
        assert [m.kind for m in _drain(control)] == [MessageKind.BYE]
        consumer._on_reactor_timer()
        assert _drain(control) == []

    def test_sender_sends_on_interval_only(self):
        # The reactor's timer is the only sender: it beats at the configured
        # interval, and never more often.
        interval = 0.1
        hub = InProcHub()
        config = ConsumerConfig(address="hb-timer", consumer_id="c1", heartbeat_interval=interval)
        control = hub.bind(config.control_address)
        consumer = TensorConsumer(hub=hub, pool=SharedMemoryPool(), config=config)
        try:
            assert consumer._timer.interval == interval
            hub.publish(
                config.data_address,
                _msg(MessageKind.REPLY, {"consumer_id": "c1", "admitted_epoch": 0}, "consumer/c1"),
            )
            assert consumer.wait_until_registered(timeout=5) == 0
            _drain(control)
            start = time.monotonic()
            time.sleep(5 * interval)
            beats = [m for m in _drain(control) if m.kind is MessageKind.HEARTBEAT]
            elapsed = time.monotonic() - start
        finally:
            consumer.close()
        assert beats, "no heartbeat in five intervals"
        assert len(beats) <= elapsed / interval + 2
        assert all(m.body == {"consumer_id": "c1"} for m in beats)

    def test_sender_rejects_bad_interval(self):
        # A config mutated past its own validation still fails when the
        # consumer arms its timer, and the consumer leaves nothing behind:
        # no data subscription and no HELLO.
        hub = InProcHub()
        config = ConsumerConfig(address="hb-bad", consumer_id="c1")
        config.heartbeat_interval = 0
        control = hub.bind(config.control_address)
        with pytest.raises(ValueError, match="interval"):
            TensorConsumer(hub=hub, pool=SharedMemoryPool(), config=config)
        assert hub.publish(config.data_address, _msg(MessageKind.BATCH, 1, "broadcast")) == 0
        assert _drain(control) == []


class TestTcpTransport:
    def test_tcp_pub_sub_and_push_pull_roundtrip(self):
        from repro.messaging.transport import TcpHubClient, TcpServerHub

        hub = TcpServerHub()
        client = TcpHubClient(hub.host, hub.port)
        try:
            # Registration is acknowledged before connect()/bind() return, so
            # the subscriber is live server-side without any settling sleep.
            sub = client.connect("data", subscriptions=("",))
            pull = client.bind("control")
            client.publish("data", _msg(MessageKind.BATCH, {"n": 1}, "broadcast"))
            client.push("control", _msg(MessageKind.ACK, {"n": 2}))
            assert sub.receive(timeout=5).body == {"n": 1}
            assert pull.receive(timeout=5).body == {"n": 2}
        finally:
            client.close()
            hub.close()
