"""Transports: how message envelopes move between parties.

The socket patterns in :mod:`repro.messaging.sockets` are written against a
small hub surface so the same producer/consumer protocol code runs in every
setting:

* **In-process** (:class:`InProcHub`) — receive queues (:class:`Inbox`) held
  in one registry.  Used by tests, threaded real-mode runs, and the
  discrete-event simulator.
* **TCP, serving side** (:class:`TcpServerHub`) — an :class:`InProcHub` that
  also listens on a port: local sockets use it directly, remote processes
  reach the same inboxes over a length-prefixed frame protocol, mirroring
  the ZeroMQ deployment in the paper.
* **TCP, attaching side** (:class:`TcpHubClient`) — the hub surface over
  connections to a serving hub in another OS process.

Both ends of a ``tcp://`` link run on the process's one event loop
(:func:`~repro.messaging.reactor.get_reactor`): no thread is spawned per
listener, per connection or per endpoint.

Every hub exposes the same primitives:

* ``bind(address)`` / ``connect(address)`` → :class:`Inbox`
* ``publish(address, message)`` — fan out to every inbox connected to the
  address whose subscription matches the message topic (PUB/SUB), and
* ``push(address, message)`` — deliver to the single inbox bound at the
  address (PUSH/PULL and REQ/REP routing).
"""

from __future__ import annotations

import pickle
import queue
import socket
import struct
import threading
import time
import uuid
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.messaging.errors import EndpointClosedError, MessagingError, TimeoutError_
from repro.messaging.message import Message, MessageKind
from repro.messaging.reactor import get_reactor, reactor_only


class Inbox:
    """A receive queue owned by one socket.

    Inboxes hold subscriptions (topic prefixes).  An inbox with no
    subscriptions receives everything published to the addresses it is
    connected to; this matches ZeroMQ SUB sockets subscribed to ``""``.
    """

    def __init__(self, name: str, address: str) -> None:
        self.name = name
        self.address = address
        self.subscriptions: Set[str] = set()
        # Unbounded, so the C queue does: no Python-level Condition per message.
        # ``None`` is close()'s wake-up for a blocked receive(), never a message.
        self._queue: "queue.SimpleQueue[Optional[Message]]" = queue.SimpleQueue()
        self._closed = False
        self._sink_lock = threading.Lock()
        self._sink = None  #: guarded by _sink_lock

    # -- subscription management (the set is replaced, never mutated: a publisher on
    # another thread may be iterating the old one in accepts()) ---------------------
    def subscribe(self, prefix: str = "") -> None:
        self.subscriptions = self.subscriptions | {prefix}

    def unsubscribe(self, prefix: str) -> None:
        self.subscriptions = self.subscriptions - {prefix}

    def accepts(self, message: Message) -> bool:
        if not self.subscriptions:
            return True
        return any(message.matches_topic(prefix) for prefix in self.subscriptions)

    # -- queue interface --------------------------------------------------------------
    def set_sink(self, sink) -> None:
        """Route future deliveries to ``sink(message)`` instead of the queue.

        The reactor installs a sink so deliveries push into its event loop
        rather than sitting in a queue behind a blocking reader; the serving
        hub installs one that writes to the remote peer's socket.  Messages
        already queued are drained through the sink first, in order, so the
        handover cannot reorder or drop anything.
        """
        with self._sink_lock:
            self._sink = sink
            if sink is None:
                return
            while (backlog := self.try_receive()) is not None:
                sink(backlog)

    def deliver(self, message: Message) -> None:
        if self._closed:
            return
        with self._sink_lock:
            if self._sink is not None:
                self._sink(message)
                return
            # The queue is unbounded; put_nowait makes that explicit so no
            # deliverer can ever park inside _sink_lock.
            self._queue.put_nowait(message)

    def receive(self, timeout: Optional[float] = None) -> Message:
        """The next message; ``timeout=None`` waits until one arrives or the
        inbox is closed (:class:`EndpointClosedError`, also under a waiter)."""
        if self._closed and self._queue.empty():
            raise EndpointClosedError(f"endpoint {self.name!r} is closed")
        try:
            message = self._queue.get(timeout=timeout)
        except queue.Empty as exc:
            raise TimeoutError_(
                f"no message on endpoint {self.name!r} within timeout={timeout}"
            ) from exc
        if message is None:  # close() found us waiting
            raise EndpointClosedError(f"endpoint {self.name!r} is closed")
        return message

    def try_receive(self) -> Optional[Message]:
        """Non-blocking receive; returns ``None`` when the queue is empty."""
        try:
            return self._queue.get_nowait()
        except queue.Empty:
            return None

    def pending(self) -> int:
        return self._queue.qsize()

    def close(self) -> None:
        self._closed = True
        self._queue.put_nowait(None)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, address={self.address!r})"


class InProcHub:
    """An in-process broker: named addresses, bound and connected inboxes."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._bound: Dict[str, Inbox] = {}  #: guarded by _lock
        self._connected: Dict[str, List[Inbox]] = {}  #: guarded by _lock
        self._messages_published = 0
        self._messages_pushed = 0

    # -- endpoint management -----------------------------------------------------------
    def bind(self, address: str, name: Optional[str] = None) -> Inbox:
        with self._lock:
            if address in self._bound:
                raise MessagingError(f"address {address!r} is already bound")
            endpoint = Inbox(name or f"bound-{uuid.uuid4().hex[:8]}", address)
            self._bound[address] = endpoint
            return endpoint

    def connect(
        self,
        address: str,
        name: Optional[str] = None,
        subscriptions: Optional[Iterable[str]] = None,
    ) -> Inbox:
        with self._lock:
            endpoint = Inbox(name or f"conn-{uuid.uuid4().hex[:8]}", address)
            # Applied before the endpoint becomes reachable, so a publish can
            # never observe a half-subscribed endpoint.
            for prefix in subscriptions or ():
                endpoint.subscribe(prefix)
            self._prune_closed_locked(address)
            self._connected.setdefault(address, []).append(endpoint)
            return endpoint

    def _prune_closed_locked(self, address: str) -> List[Inbox]:
        """Drop endpoints that were closed without a disconnect() call.

        A long-lived hub would otherwise keep one dead queue per departed
        consumer forever.  Returns the surviving endpoints for the address.
        """
        peers = self._connected.get(address)
        if not peers:
            return []
        live = [ep for ep in peers if not ep.closed]
        if len(live) != len(peers):
            if live:
                self._connected[address] = live
            else:
                del self._connected[address]
        return live

    def disconnect(self, endpoint: Inbox) -> None:
        with self._lock:
            peers = self._connected.get(endpoint.address, [])
            if endpoint in peers:
                peers.remove(endpoint)
            if self._bound.get(endpoint.address) is endpoint:
                del self._bound[endpoint.address]
            endpoint.close()

    # -- delivery ------------------------------------------------------------------------
    def publish(self, address: str, message: Message) -> int:
        """Fan a message out to every matching connected endpoint.

        Returns the number of endpoints the message was delivered to.
        """
        with self._lock:
            targets = self._prune_closed_locked(address)
        delivered = 0
        for endpoint in targets:
            if endpoint.accepts(message):
                endpoint.deliver(message)
                delivered += 1
        self._messages_published += 1
        return delivered

    def push(self, address: str, message: Message) -> None:
        """Deliver a message to the endpoint bound at ``address``."""
        with self._lock:
            endpoint = self._bound.get(address)
        if endpoint is None or endpoint.closed:
            raise MessagingError(f"no endpoint bound at {address!r}")
        endpoint.deliver(message)
        self._messages_pushed += 1

    def has_bound(self, address: str) -> bool:
        with self._lock:
            return address in self._bound

    def connected_count(self, address: str) -> int:
        with self._lock:
            return len([ep for ep in self._connected.get(address, []) if not ep.closed])

    # -- statistics -----------------------------------------------------------------------
    @property
    def messages_published(self) -> int:
        return self._messages_published

    @property
    def messages_pushed(self) -> int:
        return self._messages_pushed

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"InProcHub(bound={len(self._bound)}, "
                f"connections={sum(len(v) for v in self._connected.values())})"
            )


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------
#
# Wire format: a 4-byte big-endian length, then a 1-byte tag, then the body
# (the length counts the tag).  Control frames carry a pickled dict; the
# data-plane frames (DELIVER server→client, PUBLISH/PUSH client→server) carry
# the already-pickled ``Message.to_bytes()`` payload *raw*, so an envelope is
# serialized once per hop.

_HEADER = struct.Struct("!I")
#: PUBLISH/PUSH routing preamble: length of the UTF-8 channel address.
_ADDR = struct.Struct("!H")

_TAG_CTRL = 0  #: pickled dict (handshakes, subscribe, close, replies)
_TAG_DELIVER = 1  #: raw Message bytes (server -> client)
_TAG_PUBLISH = 2  #: !H addr-len + addr + raw Message bytes (client -> server)
_TAG_PUSH = 3  #: same layout as PUBLISH

#: Hard cap on one frame (tag + body).  Envelopes are a few hundred bytes —
#: tensor bytes travel through shared memory, never the socket — so a length
#: prefix beyond this is corrupt or hostile, and is refused before a byte of
#: the body is buffered.
MAX_FRAME_BYTES = 16 << 20

_RECV_BYTES = 65536

#: Deadline for dialling a hub and for its registration reply, together.
HANDSHAKE_TIMEOUT_S = 10.0


class ProtocolError(MessagingError):
    """A peer sent bytes that are not a frame of this protocol."""


def _frame(tag: int, *parts: bytes) -> bytes:
    """One tagged frame as a single buffer."""
    length = 1 + sum(len(part) for part in parts)
    return b"".join((_HEADER.pack(length), bytes((tag,)), *parts))


def _ctrl_frame(obj: dict) -> bytes:
    return _frame(_TAG_CTRL, pickle.dumps(obj))


def _routed_frame(tag: int, address: str, message: Message) -> bytes:
    """A PUBLISH/PUSH frame: routing preamble + the message's own bytes."""
    addr = address.encode("utf-8")
    return _frame(tag, _ADDR.pack(len(addr)), addr, message.to_bytes())


def _split_routed(body: bytearray) -> Tuple[str, Message]:
    """Decode a PUBLISH/PUSH body into ``(address, message)``."""
    (addr_len,) = _ADDR.unpack_from(body, 0)
    end = _ADDR.size + addr_len
    # Through the class at call time, so a wrapper installed on
    # ``Message.from_bytes`` (the benchmark's tracer) sees every decode.
    return body[_ADDR.size : end].decode("utf-8"), Message.from_bytes(memoryview(body)[end:])


class _Connection:
    """One TCP socket on the process's reactor — either end of a ``tcp://`` link.

    *Reads.*  The reactor's selector calls :meth:`_on_readable`, which parses
    whole frames out of an incremental buffer and hands each body to the
    handler registered for its tag.  Anything the reader or a handler cannot
    make sense of — a length over :data:`MAX_FRAME_BYTES`, a zero-length
    frame, an unknown tag, an undecodable body — closes *this* connection
    and costs no other peer anything.

    *Writes.*  :meth:`send` may be called from any thread and never blocks:
    it hands the frame straight to the kernel, and whatever a full socket
    buffer does not take waits in ``_pending`` until the reactor sees the
    socket writable again.  Frames leave in the order ``send`` was called.
    Nagle is off, so a small frame is not held back waiting for the peer's
    delayed acknowledgement of the one before it.
    """

    def __init__(
        self,
        sock: socket.socket,
        handlers: Dict[int, Callable[[bytearray], None]],
        on_close: Optional[Callable[[], None]] = None,
    ) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._handlers = handlers
        self._on_close = on_close
        self._reactor = get_reactor()
        self._rbuf = bytearray()
        self._send_lock = threading.Lock()
        self._pending = bytearray()  #: guarded by _send_lock
        self._closed = False
        # Set whenever nothing waits in _pending; close(linger=) waits on it.
        self._drained = threading.Event()
        self._drained.set()

    def request(self, obj: dict) -> None:
        """Blocking request/acknowledgement on a socket not yet handed to the
        reactor (the registration handshake); raises :class:`MessagingError`
        unless the peer answers ``{"ok": True}`` within
        :data:`HANDSHAKE_TIMEOUT_S`, however it spaces out its bytes."""
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        try:
            self._sock.sendall(_ctrl_frame(obj))
            while (frame := self._next_frame()) is None:
                # Never 0, which means non-blocking: past the deadline, recv() times out.
                self._sock.settimeout(max(deadline - time.monotonic(), 1e-6))
                chunk = self._sock.recv(_RECV_BYTES)
                if not chunk:
                    raise ConnectionError("peer closed the connection")
                self._rbuf += chunk
            tag, body = frame
            if tag != _TAG_CTRL:
                raise ProtocolError(f"expected a control reply, got frame tag {tag}")
            reply = pickle.loads(body)
        except (OSError, EOFError, pickle.UnpicklingError) as exc:
            raise MessagingError(f"broker connection lost during {obj!r}: {exc}") from exc
        if not reply.get("ok"):
            raise MessagingError(f"broker rejected {obj!r}: {reply!r}")

    def start(self) -> None:
        """Hand the socket to the reactor: non-blocking from here on."""
        self._sock.setblocking(False)
        self._reactor.register_socket(self._sock, self._on_readable, self._on_writable)
        # Frames that arrived on the heels of a handshake reply are already
        # buffered, and no readiness event will announce them.
        self._reactor.submit(self._on_readable)

    # -- reading (reactor thread) ---------------------------------------------------------
    def _next_frame(self) -> Optional[Tuple[int, bytearray]]:
        """Pop one whole ``(tag, body)`` off the read buffer, if one is there."""
        buf = self._rbuf
        if len(buf) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(buf, 0)
        if not 0 < length <= MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} outside 1..{MAX_FRAME_BYTES}")
        end = _HEADER.size + length
        if len(buf) < end:
            return None
        tag, body = buf[_HEADER.size], buf[_HEADER.size + 1 : end]
        del buf[:end]
        return tag, body

    @reactor_only
    def _on_readable(self) -> None:
        try:
            # One recv per readiness event: the selector is level-triggered,
            # so a peer that floods is revisited next turn, not served first.
            try:
                chunk = self._sock.recv(_RECV_BYTES)
            except (BlockingIOError, InterruptedError):
                chunk = None  # nothing new (start()'s look at the buffer)
            if chunk == b"":
                raise ConnectionError("peer closed the connection")
            if chunk:
                self._rbuf += chunk
            while not self._closed and (frame := self._next_frame()) is not None:
                tag, body = frame
                handler = self._handlers.get(tag)
                if handler is None:
                    raise ProtocolError(f"unknown frame tag {tag}")
                handler(body)
        except Exception:
            # EOF, a dead socket, or input no handler could make sense of:
            # nothing after it in the stream can be trusted, so the
            # connection goes — and only the connection.
            self.close()

    # -- writing (any thread) -------------------------------------------------------------
    def send(self, frame: bytes) -> None:
        """Write one whole frame without blocking; raises :class:`OSError`
        (and closes the connection) when the peer is gone."""
        try:
            with self._send_lock:
                if self._closed:
                    raise ConnectionError("connection is closed")
                sent = 0
                if not self._pending:  # else: keep order behind what waits
                    try:
                        # Non-blocking socket: returns at once, full or not.
                        sent = self._sock.send(frame)  # reprolint: disable=RL002
                    except (BlockingIOError, InterruptedError):
                        pass
                if sent < len(frame):
                    self._spill_locked(memoryview(frame)[sent:])
        except OSError:
            self.close()
            raise

    def _spill_locked(self, data) -> None:
        if not self._pending:
            self._drained.clear()
            self._reactor.watch_writable(self._sock, True)
        self._pending += data

    @reactor_only
    def _on_writable(self) -> None:
        try:
            with self._send_lock:
                if self._closed or not self._pending:
                    return
                try:
                    sent = self._sock.send(self._pending)  # reprolint: disable=RL002
                except (BlockingIOError, InterruptedError):
                    return
                del self._pending[:sent]
                if not self._pending:
                    self._drained.set()
                    self._reactor.watch_writable(self._sock, False)
        except OSError:
            self.close()

    # -- lifecycle ------------------------------------------------------------------------
    def close(self, linger: float = 0.0) -> None:
        """Close the socket (idempotent, any thread), first giving pending
        output up to ``linger`` seconds to reach the kernel."""
        if linger > 0 and not self._reactor.on_reactor_thread():
            self._drained.wait(linger)
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        self._drained.set()
        # The socket must leave the selector before it is closed, and the
        # selector lives on the reactor thread — so the close rides along.
        self._reactor.unregister_socket(self._sock, after=self._sock.close)
        if self._on_close is not None:
            self._on_close()


def channel_key(address: str) -> str:
    """Canonical broker-side routing key for a channel address.

    Channel addresses are derived from the session's URI (``{address}/data``,
    ``{address}/control``), but the same broker can be reached under different
    authority spellings (``tcp://localhost:5555`` vs ``tcp://127.0.0.1:5555``).
    Routing on the path alone makes those equivalent; non-URI addresses pass
    through unchanged so explicit-hub wiring keeps its exact strings.
    """
    if "://" not in address:
        return address
    _, _, rest = address.partition("://")
    slash = rest.find("/")
    return rest[slash:] if slash >= 0 else "/"

class _RemotePeer:
    """Serving side of one client connection: its frames in, its deliveries out."""

    def __init__(self, hub: "TcpServerHub", sock: socket.socket) -> None:
        self._hub = hub
        self._inbox: Optional[Inbox] = None
        self.connection = _Connection(
            sock,
            {
                _TAG_CTRL: self._on_ctrl,
                _TAG_PUBLISH: self._on_publish,
                _TAG_PUSH: self._on_push,
            },
            on_close=self._on_close,
        )

    def _on_ctrl(self, body: bytearray) -> None:
        frame = pickle.loads(body)
        op = frame["op"]
        if op in ("bind", "connect") and self._inbox is None:
            try:
                if op == "bind":
                    inbox = self._hub.bind(frame["address"])
                else:
                    # Subscriptions go through connect() so the inbox is never
                    # reachable in a catch-all (no-subscription) state.
                    inbox = self._hub.connect(
                        frame["address"], subscriptions=frame.get("subscriptions")
                    )
            except MessagingError as exc:
                # A serving-side refusal (e.g. the address is already bound)
                # travels back as an error reply; the client is waiting on one.
                self.connection.send(_ctrl_frame({"ok": False, "error": str(exc)}))
                return
            self._inbox = inbox
            # Reply first, sink second: a delivery must never overtake the
            # registration acknowledgement.  Whatever is published in between
            # waits in the inbox and is flushed through the sink, in order.
            self.connection.send(_ctrl_frame({"ok": True}))
            inbox.set_sink(self._deliver)
        elif op == "open":
            # A send-only channel (publish/push source, no inbox).
            self.connection.send(_ctrl_frame({"ok": True}))
        elif op == "subscribe" and self._inbox is not None:
            self._inbox.subscribe(frame["prefix"])
            token = frame.get("ack")
            if token is not None:
                # The confirmation rides the delivery stream, so once the
                # client sees it the new prefix is live for every later
                # publish — even one triggered through another connection,
                # e.g. a REPLY raced by a control-plane HELLO.
                self._inbox.deliver(
                    Message(f"__suback__/{token}", MessageKind.REPLY, "broker")
                )
        elif op == "close":
            self.connection.close()
        else:
            raise ProtocolError(f"unexpected control op {op!r}")

    def _on_publish(self, body: bytearray) -> None:
        self._hub.publish(*_split_routed(body))

    def _on_push(self, body: bytearray) -> None:
        address, message = _split_routed(body)
        try:
            self._hub.push(address, message)
        except MessagingError:
            # Nothing bound at the address (e.g. the producer is gone);
            # pushes are fire-and-forget over TCP.
            pass

    def _deliver(self, message: Message) -> None:
        """The inbox's sink: runs on whichever thread published, and writes
        the delivery to the kernel from there.  The loop writes only what a
        full socket buffer left in the connection's pending bytes."""
        try:
            self.connection.send(_frame(_TAG_DELIVER, message.to_bytes()))
        except OSError:
            pass  # the connection closed itself; _on_close releases the inbox

    def _on_close(self) -> None:
        self._hub._forget(self, self._inbox)


class TcpServerHub(InProcHub):
    """The serving process's hub: an :class:`InProcHub` that also listens.

    Local sockets (the producer's PUB/PULL, the describe and metrics
    responders) use it like any hub, with addresses canonicalised by
    :func:`channel_key` so they agree with remote clients on channel names.
    Remote processes dial ``host:port``; each connection registers with
    ``{"op": "bind"|"connect"|"open", ...}`` and then exchanges PUBLISH/PUSH
    frames one way and DELIVER frames the other, under the same routing rules.

    The listening socket and every accepted socket live on the process's
    reactor, so serving one client or a hundred costs the same threads: none
    beyond the reactor's.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(64)
        except OSError:
            self._listener.close()
            raise
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()
        self._peers_lock = threading.Lock()
        self._peers: Set[_RemotePeer] = set()  #: guarded by _peers_lock
        self._reactor = get_reactor()
        self._reactor.register_socket(self._listener, self._on_acceptable)

    @reactor_only
    def _on_acceptable(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # the dialler gave up first
        peer = _RemotePeer(self, sock)
        with self._peers_lock:
            self._peers.add(peer)
        peer.connection.start()

    def _forget(self, peer: _RemotePeer, inbox: Optional[Inbox]) -> None:
        with self._peers_lock:
            self._peers.discard(peer)
        if inbox is not None:
            self.disconnect(inbox)

    # -- the hub surface, keyed by channel ------------------------------------------------
    def bind(self, address: str, name: Optional[str] = None) -> Inbox:
        return super().bind(channel_key(address), name=name)

    def connect(
        self,
        address: str,
        name: Optional[str] = None,
        subscriptions: Optional[Iterable[str]] = None,
    ) -> Inbox:
        return super().connect(channel_key(address), name=name, subscriptions=subscriptions)

    def publish(self, address: str, message: Message) -> int:
        return super().publish(channel_key(address), message)

    def push(self, address: str, message: Message) -> None:
        super().push(channel_key(address), message)

    def has_bound(self, address: str) -> bool:
        return super().has_bound(channel_key(address))

    def connected_count(self, address: str) -> int:
        return super().connected_count(channel_key(address))

    # -- lifecycle ---------------------------------------------------------------------
    def close(self, drain_timeout: float = 1.0) -> None:
        """Stop serving: release the port, then close every client connection.

        Deliveries a full socket buffer left waiting (a final SHUTDOWN or
        EPOCH_END broadcast, typically) get up to ``drain_timeout`` seconds
        in total to reach the kernel before their connection is closed.  Not
        to be called on the reactor thread, which is what releases the port.
        """
        released = threading.Event()

        def release() -> None:
            self._listener.close()
            released.set()

        self._reactor.unregister_socket(self._listener, after=release)
        # Once the listener is gone no accept can add a peer behind our back.
        released.wait(2.0)
        with self._peers_lock:
            peers = list(self._peers)
        deadline = time.monotonic() + max(0.0, drain_timeout)
        for peer in peers:
            peer.connection.close(linger=deadline - time.monotonic())

    def __repr__(self) -> str:
        return f"TcpServerHub({self.host}:{self.port})"


class TcpClientEndpoint(Inbox):
    """An :class:`Inbox` whose hub lives in another process.

    One connection to a :class:`TcpServerHub`, registered there as a bound
    or connected inbox (or, with ``op="open"``, as a send-only channel).
    DELIVER frames arriving on it land here exactly as local deliveries land
    in an :class:`Inbox`, so the socket wrappers and the reactor do not care
    whether their hub is in-process or remote.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        op: str,
        address: str = "",
        subscriptions: Optional[List[str]] = None,
    ) -> None:
        super().__init__(f"tcp-{uuid.uuid4().hex[:8]}", address)
        self.subscriptions.update(subscriptions or ())
        self._acks: Dict[str, threading.Event] = {}
        sock = socket.create_connection((host, port), timeout=HANDSHAKE_TIMEOUT_S)
        self._connection = _Connection(sock, {_TAG_DELIVER: self._on_deliver})
        # The registration handshake is a plain blocking request/reply; the
        # socket joins the reactor only once the server has acknowledged it.
        try:
            self._connection.request(
                {"op": op, "address": address, "subscriptions": list(self.subscriptions)}
            )
        except MessagingError:
            self._connection.close()
            raise
        self._connection.start()

    def _on_deliver(self, body: bytearray) -> None:
        # Through the class at call time (see _split_routed).
        message = Message.from_bytes(body)
        if message.topic.startswith("__suback__/"):
            waiter = self._acks.pop(message.topic.split("/", 1)[1], None)
            if waiter is not None:
                waiter.set()
            return
        self.deliver(message)

    # -- sending ----------------------------------------------------------------------
    def _send(self, frame: bytes) -> None:
        """Fire-and-forget; connection loss surfaces uniformly as
        :class:`MessagingError` so protocol code can treat TCP like a hub."""
        if self._closed:
            raise EndpointClosedError(f"endpoint {self.name!r} is closed")
        try:
            self._connection.send(frame)
        except OSError as exc:
            raise MessagingError(f"broker connection lost: {exc}") from exc

    def send_publish(self, address: str, message: Message) -> None:
        self._send(_routed_frame(_TAG_PUBLISH, address, message))

    def send_push(self, address: str, message: Message) -> None:
        self._send(_routed_frame(_TAG_PUSH, address, message))

    # -- receiving ---------------------------------------------------------------------
    def subscribe(self, prefix: str = "") -> None:
        """Add ``prefix`` and wait for the server to confirm it is live.

        The subscribe op travels on this endpoint's socket but a dependent
        send (e.g. the consumer's HELLO) may travel on another — without the
        confirmation the server could admit the consumer and publish to the
        new prefix before it ever processed the subscribe, silently dropping
        the first messages (a rubberband catch-up replay, most visibly)."""
        super().subscribe(prefix)
        token = uuid.uuid4().hex
        waiter = threading.Event()
        self._acks[token] = waiter
        try:
            self._send(_ctrl_frame({"op": "subscribe", "prefix": prefix, "ack": token}))
            # The reactor thread parses this socket's inbound frames; if it
            # is the caller, blocking here would deadlock the confirmation.
            if not get_reactor().on_reactor_thread():
                waiter.wait(timeout=5.0)
        finally:
            self._acks.pop(token, None)

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._send(_ctrl_frame({"op": "close"}))
        except MessagingError:
            pass  # the server learns about the close from the FIN instead
        super().close()
        self._connection.close(linger=1.0)


class TcpHubClient:
    """Attaching-side hub adapter: :class:`InProcHub`'s surface over TCP.

    The socket wrappers and the reactor's shared subscriptions run unchanged
    against this object from another OS process: ``connect``/``bind`` open one
    connection per endpoint (a :class:`TcpClientEndpoint`), while
    ``publish``/``push`` go through a single send-only channel.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self._lock = threading.Lock()
        self._endpoints: List[TcpClientEndpoint] = []  #: guarded by _lock
        self._closed = False
        # Opened eagerly so connecting to a dead broker fails here, not on
        # the first send.
        self._sender = TcpClientEndpoint(self.host, self.port, op="open")

    # -- endpoint management -----------------------------------------------------------
    def bind(self, address: str, name: Optional[str] = None) -> TcpClientEndpoint:
        return self._track(
            TcpClientEndpoint(self.host, self.port, op="bind", address=channel_key(address))
        )

    def connect(
        self,
        address: str,
        name: Optional[str] = None,
        subscriptions: Optional[Iterable[str]] = None,
    ) -> TcpClientEndpoint:
        # Subscriptions travel inside the connect request so they are active
        # broker-side before the registration is acknowledged; late subscribe()
        # frames on a separate connection could otherwise lose the race against
        # a publish on another channel (e.g. a HELLO reply).
        return self._track(
            TcpClientEndpoint(
                self.host,
                self.port,
                op="connect",
                address=channel_key(address),
                subscriptions=list(subscriptions or ()),
            )
        )

    def _track(self, endpoint: TcpClientEndpoint) -> TcpClientEndpoint:
        with self._lock:
            self._endpoints = [ep for ep in self._endpoints if not ep.closed]
            self._endpoints.append(endpoint)
        return endpoint

    def disconnect(self, endpoint: TcpClientEndpoint) -> None:
        endpoint.close()
        with self._lock:
            if endpoint in self._endpoints:
                self._endpoints.remove(endpoint)

    # -- delivery ------------------------------------------------------------------------
    def publish(self, address: str, message: Message) -> int:
        """Publish through the broker.  Fire-and-forget: the number of remote
        subscribers is unknown client-side, so this returns 0."""
        self._sender.send_publish(channel_key(address), message)
        return 0

    def push(self, address: str, message: Message) -> None:
        self._sender.send_push(channel_key(address), message)

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            endpoints = list(self._endpoints)
            self._endpoints.clear()
        for endpoint in endpoints:
            endpoint.close()
        self._sender.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return f"TcpHubClient({self.host}:{self.port}, closed={self._closed})"
