"""Unit tests for the messaging layer (envelopes, hubs, sockets, heartbeats)."""

import pytest

from repro.core.config import ProducerConfig
from repro.core.protocol import ProducerProtocol
from repro.core.rubberband import RubberbandPolicy
from repro.messaging import (
    EndpointClosedError,
    HeartbeatSender,
    InProcHub,
    Message,
    MessageKind,
    MessagingError,
    PubSocket,
    PullSocket,
    PushSocket,
    RepSocket,
    ReqSocket,
    TimeoutError_,
)


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
        pub = PubSocket(hub, "data")
        sub_all = hub.connect("data", subscriptions=("",))
        sub_personal = hub.connect("data", subscriptions=("consumer/c1",))
        delivered = pub.send(MessageKind.BATCH, body=1, topic="broadcast")
        assert delivered == 1
        assert sub_all.receive(timeout=1).body == 1
        assert sub_personal.try_receive() is None
        pub.send(MessageKind.BATCH, body=2, topic="consumer/c1")
        assert sub_personal.receive(timeout=1).body == 2

    def test_push_requires_bound_pull(self):
        hub = InProcHub()
        push = PushSocket(hub, "control")
        with pytest.raises(MessagingError):
            push.send(MessageKind.ACK, body={})
        pull = PullSocket(hub, "control")
        push.send(MessageKind.ACK, body={"ok": True})
        assert pull.recv(timeout=1).body == {"ok": True}

    def test_double_bind_rejected(self):
        hub = InProcHub()
        PullSocket(hub, "control")
        with pytest.raises(MessagingError):
            PullSocket(hub, "control")

    def test_disconnect_stops_delivery(self):
        hub = InProcHub()
        pub = PubSocket(hub, "data")
        sub = hub.connect("data")
        hub.disconnect(sub)
        assert pub.send(MessageKind.BATCH, body=1) == 0

    def test_recv_timeout_raises(self):
        hub = InProcHub()
        sub = hub.connect("data")
        with pytest.raises(TimeoutError_):
            sub.receive(timeout=0.01)

    def test_pull_drain_returns_everything_pending(self):
        hub = InProcHub()
        pull = PullSocket(hub, "control")
        push = PushSocket(hub, "control")
        for index in range(5):
            push.send(MessageKind.ACK, body=index)
        drained = pull.drain()
        assert [m.body for m in drained] == list(range(5))
        assert pull.drain() == []

    def test_hub_counts_traffic(self):
        hub = InProcHub()
        pub = PubSocket(hub, "data")
        hub.connect("data")
        pull = PullSocket(hub, "ack")
        PushSocket(hub, "ack").send(MessageKind.ACK)
        pub.send(MessageKind.BATCH)
        assert hub.messages_published == 1
        assert hub.messages_pushed == 1
        assert pull.pending() == 1


class TestReqRep:
    def test_request_reply_roundtrip(self):
        hub = InProcHub()
        rep = RepSocket(hub, "status")
        req = ReqSocket(hub, "status")

        import threading

        def server():
            request = rep.recv(timeout=2)
            rep.reply(request, {"echo": request.body["payload"]})

        thread = threading.Thread(target=server)
        thread.start()
        reply = req.request({"value": 41}, timeout=2)
        thread.join()
        assert reply == {"echo": {"value": 41}}

    def test_serve_pending_handles_queued_requests(self):
        hub = InProcHub()
        rep = RepSocket(hub, "status")
        req_a = ReqSocket(hub, "status", identity="a")
        req_b = ReqSocket(hub, "status", identity="b")
        # Queue both requests before serving.
        hub.push("status", Message(topic="", kind=MessageKind.REQUEST, sender="a",
                                   body={"reply_to": f"status/reply/a", "payload": 1}))
        hub.push("status", Message(topic="", kind=MessageKind.REQUEST, sender="b",
                                   body={"reply_to": f"status/reply/b", "payload": 2}))
        served = rep.serve_pending(lambda payload: payload * 10)
        assert served == 2

    def test_reply_requires_reply_to(self):
        hub = InProcHub()
        rep = RepSocket(hub, "status")
        bogus = Message(topic="", kind=MessageKind.REQUEST, sender="x", body={})
        with pytest.raises(MessagingError):
            rep.reply(bogus, {})


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

    def test_sender_sends_on_interval_only(self):
        hub = InProcHub()
        pull = PullSocket(hub, "control")
        push = PushSocket(hub, "control")
        clock = {"now": 0.0}
        sender = HeartbeatSender(push, "c1", interval=1.0, clock=lambda: clock["now"])
        assert sender.maybe_send() is True
        assert sender.maybe_send() is False
        clock["now"] = 1.5
        assert sender.maybe_send() is True
        assert sender.beats_sent == 2
        beats = pull.drain()
        assert all(m.kind is MessageKind.HEARTBEAT for m in beats)
        assert all(m.body["consumer_id"] == "c1" for m in beats)

    def test_sender_rejects_bad_interval(self):
        hub = InProcHub()
        push = PushSocket(hub, "control")
        with pytest.raises(ValueError):
            HeartbeatSender(push, "c1", interval=0)


class TestTcpTransport:
    def test_tcp_pub_sub_and_push_pull_roundtrip(self):
        from repro.messaging.transport import TcpHubClient, TcpServerHub

        hub = TcpServerHub()
        client = TcpHubClient(hub.host, hub.port)
        try:
            # Registration is acknowledged before connect()/bind() return, so
            # the subscriber is live server-side without any settling sleep.
            sub = client.connect("data", subscriptions=("",))
            pull = PullSocket(client, "control")
            PubSocket(client, "data").send(MessageKind.BATCH, body={"n": 1}, topic="broadcast")
            PushSocket(client, "control").send(MessageKind.ACK, body={"n": 2})
            assert sub.receive(timeout=5).body == {"n": 1}
            assert pull.recv(timeout=5).body == {"n": 2}
        finally:
            client.close()
            hub.close()
