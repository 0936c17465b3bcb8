"""Transports: how message envelopes move between parties.

The socket patterns in :mod:`repro.messaging.sockets` are written against a
small transport abstraction so the same producer/consumer protocol code can
run in three settings:

* **In-process** (:class:`InProcHub`) — endpoints are thread-safe queues held
  in one registry.  Used by tests, threaded real-mode runs, and the
  discrete-event simulator.
* **TCP** (:class:`TcpHub`) — a lightweight broker thread speaking a
  length-prefixed pickle protocol, so producer and consumers can live in
  separate OS processes, mirroring the ZeroMQ deployment in the paper.

Both hubs expose the same two primitives:

* ``bind(address)`` / ``connect(address)`` → :class:`Endpoint`
* ``publish(address, message)`` — fan out to every endpoint connected to the
  address whose subscription matches the message topic (PUB/SUB), and
* ``push(address, message)`` — deliver to the single endpoint bound at the
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
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.messaging.errors import EndpointClosedError, MessagingError, TimeoutError_
from repro.messaging.message import Message, MessageKind
from repro.messaging.reactor import reactor_only


class Endpoint:
    """A receive queue owned by one socket.

    Endpoints hold subscriptions (topic prefixes).  An endpoint with no
    subscriptions receives everything published to the addresses it is
    connected to; this matches ZeroMQ SUB sockets subscribed to ``""``.
    """

    def __init__(self, name: str, address: str) -> None:
        self.name = name
        self.address = address
        self.subscriptions: Set[str] = set()
        self._queue: "queue.Queue[Message]" = queue.Queue()
        self._closed = False
        self._sink_lock = threading.Lock()
        self._sink = None  #: guarded by _sink_lock

    # -- subscription management ---------------------------------------------------
    def subscribe(self, prefix: str = "") -> None:
        self.subscriptions.add(prefix)

    def unsubscribe(self, prefix: str) -> None:
        self.subscriptions.discard(prefix)

    def accepts(self, message: Message) -> bool:
        if not self.subscriptions:
            return True
        return any(message.matches_topic(prefix) for prefix in self.subscriptions)

    # -- queue interface --------------------------------------------------------------
    def set_sink(self, sink) -> None:
        """Route future deliveries to ``sink(message)`` instead of the queue.

        The reactor installs a sink so deliveries push into its event loop
        rather than sitting in a queue behind a blocking reader.  Messages
        already queued are drained through the sink first, in order, so the
        handover cannot reorder or drop anything.
        """
        with self._sink_lock:
            self._sink = sink
            if sink is None:
                return
            while True:
                try:
                    backlog = self._queue.get_nowait()
                except queue.Empty:
                    break
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

    def receive(self, timeout: Optional[float] = None, block: bool = True) -> Message:
        if self._closed and self._queue.empty():
            raise EndpointClosedError(f"endpoint {self.name!r} is closed")
        try:
            return self._queue.get(block=block, timeout=timeout)
        except queue.Empty as exc:
            raise TimeoutError_(
                f"no message on endpoint {self.name!r} within timeout={timeout}"
            ) from exc

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

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return f"Endpoint(name={self.name!r}, address={self.address!r})"


class InProcHub:
    """An in-process broker: named addresses, bound and connected endpoints."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._bound: Dict[str, Endpoint] = {}  #: guarded by _lock
        self._connected: Dict[str, List[Endpoint]] = {}  #: guarded by _lock
        self._messages_published = 0
        self._messages_pushed = 0

    # -- endpoint management -----------------------------------------------------------
    def bind(self, address: str, name: Optional[str] = None) -> Endpoint:
        with self._lock:
            if address in self._bound:
                raise MessagingError(f"address {address!r} is already bound")
            endpoint = Endpoint(name or f"bound-{uuid.uuid4().hex[:8]}", address)
            self._bound[address] = endpoint
            return endpoint

    def connect(
        self,
        address: str,
        name: Optional[str] = None,
        subscriptions: Optional[Iterable[str]] = None,
    ) -> Endpoint:
        with self._lock:
            endpoint = Endpoint(name or f"conn-{uuid.uuid4().hex[:8]}", address)
            # Applied before the endpoint becomes reachable, so a publish can
            # never observe a half-subscribed endpoint.
            for prefix in subscriptions or ():
                endpoint.subscribe(prefix)
            self._prune_closed_locked(address)
            self._connected.setdefault(address, []).append(endpoint)
            return endpoint

    def _prune_closed_locked(self, address: str) -> List[Endpoint]:
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

    def disconnect(self, endpoint: Endpoint) -> None:
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
# (the length counts the tag).  Control frames carry a pickled dict exactly
# as before; the data-plane frames (DELIVER broker→client, PUBLISH/PUSH
# client→broker) carry the already-pickled ``Message.to_bytes()`` payload
# *raw* — the old protocol re-pickled those bytes inside a wrapper dict,
# serializing and copying every data frame twice on both directions of the
# hot path.  The pieces (header+tag, routing preamble, message bytes) go to
# the kernel via ``sendmsg`` scatter-gather, so they are never joined into
# one buffer in userspace either.

_HEADER = struct.Struct("!I")
#: PUBLISH/PUSH routing preamble: length of the UTF-8 channel address.
_ADDR = struct.Struct("!H")

_TAG_CTRL = 0  #: pickled dict (handshakes, subscribe, close, replies)
_TAG_DELIVER = 1  #: raw Message bytes (broker -> client)
_TAG_PUBLISH = 2  #: !H addr-len + addr + raw Message bytes (client -> broker)
_TAG_PUSH = 3  #: same layout as PUBLISH

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


def _frame_parts(tag: int, *parts) -> List:
    """The buffer list of one tagged frame (header+tag first, body unjoined)."""
    length = 1 + sum(len(part) for part in parts)
    return [_HEADER.pack(length) + bytes((tag,)), *parts]


def _send_parts(sock: socket.socket, parts: List) -> None:
    """sendall() a buffer list on a *blocking* socket, scatter-gather when
    the platform has ``sendmsg`` (no userspace join of the frame pieces)."""
    if not _HAS_SENDMSG:
        sock.sendall(b"".join(bytes(p) if not isinstance(p, bytes) else p for p in parts))
        return
    views = [memoryview(part) for part in parts]
    while views:
        try:
            sent = sock.sendmsg(views)
        except InterruptedError:
            continue
        while sent and views:
            head = views[0]
            if sent >= len(head):
                sent -= len(head)
                views.pop(0)
            else:
                views[0] = head[sent:]
                sent = 0


def _send_ctrl(sock: socket.socket, obj: dict) -> None:
    _send_parts(sock, _frame_parts(_TAG_CTRL, pickle.dumps(obj)))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Tuple[int, memoryview]:
    """One tagged frame: ``(tag, body)``; the body view skips the tag byte."""
    header = _recv_exactly(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    body = _recv_exactly(sock, length)
    if not body:
        raise ConnectionError("zero-length frame (missing tag byte)")
    return body[0], memoryview(body)[1:]


def _split_routed(body: memoryview) -> Tuple[str, memoryview]:
    """Decode a PUBLISH/PUSH body into ``(address, raw message bytes)``."""
    (addr_len,) = _ADDR.unpack_from(body, 0)
    start = _ADDR.size
    address = bytes(body[start : start + addr_len]).decode("utf-8")
    return address, body[start + addr_len :]


class TcpHub:
    """A broker listening on one TCP port, routing frames between clients.

    Each client registers with ``{"op": "bind"|"connect", "address": ...}`` and
    then exchanges ``{"op": "publish"|"push", "address": ..., "message": ...}``
    frames.  The broker applies the same routing rules as :class:`InProcHub`.

    The TCP path exists so that the real-mode examples can run the producer and
    consumers as genuinely separate OS processes; the in-process hub remains
    the default everywhere else because it is dependency-free and deterministic.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(64)
        self.host, self.port = self._server.getsockname()
        self._inner = InProcHub()
        self._running = True
        self._clients: List[socket.socket] = []  #: guarded by _clients_lock
        # Endpoints with a live _forward_loop — the only queues close() can
        # meaningfully wait on when draining final deliveries.
        self._forwarded: List[Endpoint] = []  #: guarded by _clients_lock
        self._clients_lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-tcp-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def inner_hub(self) -> InProcHub:
        """The broker's routing hub; the serving process's sockets attach here
        directly (via :class:`TcpServerHub`) so its traffic skips the loopback."""
        return self._inner

    # -- server side -----------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                client, _ = self._server.accept()
            except OSError:
                break
            # The plane only sends small whole frames; Nagle buys nothing and
            # costs a delayed-ACK stall (~40 ms) on about every fourth batch.
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._clients_lock:
                self._clients.append(client)
            threading.Thread(
                target=self._serve_client,
                args=(client,),
                name="repro-tcp-serve",
                daemon=True,
            ).start()

    def _serve_client(self, client: socket.socket) -> None:
        endpoint: Optional[Endpoint] = None
        try:
            while self._running:
                tag, body = _recv_frame(client)
                if tag == _TAG_PUBLISH:
                    address, raw = _split_routed(body)
                    message = Message.from_bytes(raw)
                    try:
                        self._inner.publish(address, message)
                    except MessagingError:
                        pass
                    continue
                if tag == _TAG_PUSH:
                    address, raw = _split_routed(body)
                    message = Message.from_bytes(raw)
                    try:
                        self._inner.push(address, message)
                    except MessagingError:
                        # Nothing bound at the address (e.g. the producer is
                        # gone); pushes are fire-and-forget over TCP.
                        pass
                    continue
                if tag != _TAG_CTRL:
                    continue  # unknown/unsupported tag: skip the frame
                frame = pickle.loads(body)
                op = frame["op"]
                if op in ("bind", "connect"):
                    address = frame["address"]
                    try:
                        if op == "bind":
                            new_endpoint = self._inner.bind(address)
                        else:
                            # Subscriptions go through connect() so the
                            # endpoint is never reachable in a catch-all
                            # (no-subscription) state.
                            new_endpoint = self._inner.connect(
                                address, subscriptions=frame.get("subscriptions")
                            )
                    except MessagingError as exc:
                        # A broker-side failure (e.g. the address is already
                        # bound) must travel back as an error reply — raising
                        # here would kill this thread and leave the client
                        # waiting on a reply that never comes.
                        _send_ctrl(client, {"ok": False, "error": str(exc)})
                        continue
                    endpoint = new_endpoint
                    # Reply before starting the forwarder so a delivery can
                    # never overtake the registration acknowledgement.
                    _send_ctrl(client, {"ok": True})
                    with self._clients_lock:
                        self._forwarded.append(endpoint)
                    threading.Thread(
                        target=self._forward_loop,
                        args=(endpoint, client),
                        name="repro-tcp-forward",
                        daemon=True,
                    ).start()
                elif op == "open":
                    # A send-only channel (publish/push source, no endpoint).
                    _send_ctrl(client, {"ok": True})
                elif op == "subscribe" and endpoint is not None:
                    endpoint.subscribe(frame["prefix"])
                    token = frame.get("ack")
                    if token is not None:
                        # The confirmation rides the delivery stream (the
                        # forward loop is this connection's only writer after
                        # the handshake), so once the client sees it the new
                        # prefix is live for every later publish — even one
                        # triggered through another connection, e.g. a REPLY
                        # raced by a control-plane HELLO.
                        endpoint.deliver(
                            Message(
                                f"__suback__/{token}",
                                MessageKind.REPLY,
                                "broker",
                            )
                        )
                elif op == "close":
                    break
        except (ConnectionError, EOFError, OSError):
            pass
        finally:
            if endpoint is not None:
                self._inner.disconnect(endpoint)
            try:
                client.close()
            except OSError:
                pass
            with self._clients_lock:
                if client in self._clients:
                    self._clients.remove(client)
                if endpoint is not None and endpoint in self._forwarded:
                    self._forwarded.remove(endpoint)

    def _forward_loop(self, endpoint: Endpoint, client: socket.socket) -> None:
        """Push every message delivered to a server-side endpoint down to the client."""
        while self._running and not endpoint.closed:
            try:
                message = endpoint.receive(timeout=0.2)
            except TimeoutError_:
                continue
            except EndpointClosedError:
                break
            try:
                # The message's own pickled bytes are the frame body — no
                # wrapper dict, no second pickle pass, no userspace copy of
                # the payload into a joined buffer.
                _send_parts(client, _frame_parts(_TAG_DELIVER, message.to_bytes()))
            except OSError:
                break

    def _pending_forwarded(self) -> int:
        with self._clients_lock:
            return sum(ep.pending() for ep in self._forwarded if not ep.closed)

    # -- lifecycle ---------------------------------------------------------------------
    def close(self, drain_timeout: float = 1.0) -> None:
        """Stop the broker: close the listening socket (releasing the port)
        and every client connection so serve/forward threads exit promptly.

        Waits up to ``drain_timeout`` for the forwarders to flush queued
        deliveries first, so a final SHUTDOWN/EPOCH_END broadcast is not cut
        off mid-flight.  Only forwarded (remote-client) endpoints are waited
        on: a local subscriber's unread queue has no forwarder to empty it.
        """
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while self._pending_forwarded() and time.monotonic() < deadline:
            time.sleep(0.01)
        self._running = False
        try:
            # close() alone does not release the port while the accept thread
            # is blocked inside accept(); shutdown() wakes it so the listening
            # socket actually dies and the port is immediately rebindable.
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._server.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)
        with self._clients_lock:
            clients = list(self._clients)
            self._clients.clear()
        for client in clients:
            try:
                client.close()
            except OSError:
                pass

    @property
    def endpoint_address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def __repr__(self) -> str:
        return f"TcpHub({self.host}:{self.port})"


class TcpClientEndpoint:
    """Client-side endpoint talking to a :class:`TcpHub` broker.

    Provides the same ``deliver``/``receive`` surface as :class:`Endpoint` so
    the socket wrappers do not care whether they are in-process or remote.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        op: str,
        address: str = "",
        subscriptions: Optional[List[str]] = None,
        reactor=None,
    ) -> None:
        self.address = address
        self.name = f"tcp-{uuid.uuid4().hex[:8]}"
        self.subscriptions: Set[str] = set(subscriptions or [])
        self._sock = socket.create_connection((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._queue: "queue.Queue[Message]" = queue.Queue()
        self._closed = False
        self._sink_lock = threading.Lock()
        self._sink = None  #: guarded by _sink_lock
        self._reactor = reactor
        self._rbuf = bytearray()
        self._acks: Dict[str, threading.Event] = {}
        self._reader: Optional[threading.Thread] = None
        # The registration handshake is a plain blocking request/reply in
        # both modes; only steady-state I/O differs.
        self._request(
            {"op": op, "address": address, "subscriptions": list(self.subscriptions)}
        )
        if reactor is not None:
            # Reactor mode: no reader thread.  The socket goes non-blocking
            # and the reactor's selector drives frame parsing.
            self._sock.setblocking(False)
            reactor.register_socket(self._sock, self._on_readable)
        else:
            self._reader = threading.Thread(
                target=self._read_loop, name="repro-tcp-reader", daemon=True
            )
            self._reader.start()

    def _request(self, frame: dict) -> None:
        try:
            with self._send_lock:
                _send_ctrl(self._sock, frame)
                tag, body = _recv_frame(self._sock)
                if tag != _TAG_CTRL:
                    raise MessagingError(
                        f"expected a control reply to {frame!r}, got frame tag {tag}"
                    )
                reply = pickle.loads(body)
        except (ConnectionError, EOFError, OSError) as exc:
            raise MessagingError(f"broker connection lost during {frame!r}: {exc}") from exc
        if not reply.get("ok"):
            raise MessagingError(f"broker rejected {frame!r}: {reply!r}")

    def _send(self, frame: dict) -> None:
        """Fire-and-forget control frame; broker connection loss surfaces
        uniformly as :class:`MessagingError` so protocol code can treat TCP
        like a hub."""
        self._send_tagged(_TAG_CTRL, pickle.dumps(frame))

    def _send_tagged(self, tag: int, *parts) -> None:
        """Send one tagged frame, serialized once, whatever the I/O mode."""
        if self._closed:
            raise EndpointClosedError(f"endpoint {self.name!r} is closed")
        frame = _frame_parts(tag, *parts)
        try:
            with self._send_lock:
                if self._reactor is not None:
                    self._send_all_nonblocking(frame)
                else:
                    _send_parts(self._sock, frame)
        except OSError as exc:
            raise MessagingError(f"broker connection lost: {exc}") from exc

    def _send_all_nonblocking(self, parts: List) -> None:
        """sendall() a buffer list on the non-blocking reactor-mode socket.

        Caller holds ``_send_lock``.  Scatter-gather via ``sendmsg`` where
        available, with the consumed prefix dropped after every partial send.
        A full kernel buffer parks this sender in short writability waits
        instead of busy-spinning; ``close()`` concurrently flips ``_closed``
        to break the wait.
        """
        import select as _select

        views = [memoryview(part) for part in parts]
        while views:
            if self._closed:
                raise OSError("endpoint closed during send")
            try:
                if _HAS_SENDMSG:
                    sent = self._sock.sendmsg(views)
                else:
                    sent = self._sock.send(views[0])
            except (BlockingIOError, InterruptedError):
                _select.select([], [self._sock], [], 0.5)
                continue
            while sent and views:
                head = views[0]
                if sent >= len(head):
                    sent -= len(head)
                    views.pop(0)
                else:
                    views[0] = head[sent:]
                    sent = 0

    def _read_loop(self) -> None:
        while not self._closed:
            try:
                tag, body = _recv_frame(self._sock)
            except (ConnectionError, EOFError, OSError):
                break
            if tag == _TAG_DELIVER:
                self._dispatch(Message.from_bytes(body))

    # -- reactor-mode receive path ------------------------------------------------------
    @reactor_only
    def _on_readable(self) -> None:
        """Selector callback (reactor thread): pull bytes, parse whole frames."""
        while not self._closed:
            try:
                chunk = self._sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._detach_from_reactor()
                return
            if not chunk:
                # EOF: the broker went away; nothing more will arrive.
                self._detach_from_reactor()
                return
            self._rbuf.extend(chunk)
        self._drain_rbuf()

    @reactor_only
    def _drain_rbuf(self) -> None:
        while len(self._rbuf) >= _HEADER.size + 1:
            (length,) = _HEADER.unpack(bytes(self._rbuf[: _HEADER.size]))
            end = _HEADER.size + length
            if len(self._rbuf) < end:
                return
            tag = self._rbuf[_HEADER.size]
            payload = bytes(self._rbuf[_HEADER.size + 1 : end])
            del self._rbuf[:end]
            if tag != _TAG_DELIVER:
                continue
            try:
                message = Message.from_bytes(payload)
            except Exception:
                continue
            self._dispatch(message)

    def _detach_from_reactor(self) -> None:
        if self._reactor is not None:
            self._reactor.unregister_socket(self._sock)

    def _dispatch(self, message: Message) -> None:
        if message.topic.startswith("__suback__/"):
            waiter = self._acks.pop(message.topic.split("/", 1)[1], None)
            if waiter is not None:
                waiter.set()
            return
        with self._sink_lock:
            if self._sink is not None:
                self._sink(message)
                return
            # Unbounded queue: put_nowait keeps the reactor thread (which
            # calls _dispatch in reactor mode) out of any blocking wait.
            self._queue.put_nowait(message)

    def set_sink(self, sink) -> None:
        """Same handover contract as :meth:`Endpoint.set_sink`."""
        with self._sink_lock:
            self._sink = sink
            if sink is None:
                return
            while True:
                try:
                    backlog = self._queue.get_nowait()
                except queue.Empty:
                    break
                sink(backlog)

    # -- sending ----------------------------------------------------------------------
    def send_publish(self, address: str, message: Message) -> None:
        """Publish: routing preamble + the message's own bytes, pickled once."""
        addr = address.encode("utf-8")
        self._send_tagged(_TAG_PUBLISH, _ADDR.pack(len(addr)) + addr, message.to_bytes())

    def send_push(self, address: str, message: Message) -> None:
        addr = address.encode("utf-8")
        self._send_tagged(_TAG_PUSH, _ADDR.pack(len(addr)) + addr, message.to_bytes())

    # -- receiving ---------------------------------------------------------------------
    def subscribe(self, prefix: str = "") -> None:
        """Add ``prefix`` and wait for the broker to confirm it is live.

        The subscribe op travels on this endpoint's socket but a dependent
        send (e.g. the consumer's HELLO) may travel on another — without the
        confirmation the broker could admit the consumer and publish to the
        new prefix before it ever processed the subscribe, silently dropping
        the first messages (a rubberband catch-up replay, most visibly)."""
        self.subscriptions.add(prefix)
        token = uuid.uuid4().hex
        waiter = threading.Event()
        self._acks[token] = waiter
        try:
            self._send({"op": "subscribe", "prefix": prefix, "ack": token})
            # The reactor thread parses this socket's inbound frames; if it
            # is the caller, blocking here would deadlock the confirmation.
            on_reactor = getattr(self._reactor, "on_reactor_thread", None)
            if on_reactor is None or not on_reactor():
                waiter.wait(timeout=5.0)
        finally:
            self._acks.pop(token, None)

    def receive(self, timeout: Optional[float] = None, block: bool = True) -> Message:
        try:
            return self._queue.get(block=block, timeout=timeout)
        except queue.Empty as exc:
            raise TimeoutError_(f"no message within timeout={timeout}") from exc

    def try_receive(self) -> Optional[Message]:
        try:
            return self._queue.get_nowait()
        except queue.Empty:
            return None

    def pending(self) -> int:
        return self._queue.qsize()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reactor is not None:
            payload = pickle.dumps({"op": "close"})
            try:
                with self._send_lock:
                    # Best-effort single write on the *non-blocking* reactor
                    # socket; a full buffer just means the broker learns
                    # about the close from the FIN instead.
                    self._sock.send(  # reprolint: disable=RL002
                        _HEADER.pack(len(payload) + 1) + bytes((_TAG_CTRL,)) + payload
                    )
            except OSError:
                pass
            # The socket must leave the selector before it is closed, and the
            # selector lives on the reactor thread — so the close rides along.
            self._reactor.unregister_socket(self._sock, after=self._sock.close)
            return
        try:
            with self._send_lock:
                _send_ctrl(self._sock, {"op": "close"})
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed


# ---------------------------------------------------------------------------
# Hub adapters: the socket patterns over a TcpHub broker
# ---------------------------------------------------------------------------


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


class TcpServerHub:
    """The broker-owning process's view of a :class:`TcpHub`.

    Exposes the same ``bind/connect/publish/push`` surface as
    :class:`InProcHub`, routed straight through the broker's inner hub (no
    loopback hop) with addresses canonicalised by :func:`channel_key` so the
    producer's sockets and remote clients agree on channel names.
    """

    def __init__(self, tcp_hub: TcpHub) -> None:
        self.tcp_hub = tcp_hub
        self._hub = tcp_hub.inner_hub

    @property
    def host(self) -> str:
        return self.tcp_hub.host

    @property
    def port(self) -> int:
        return self.tcp_hub.port

    def bind(self, address: str, name: Optional[str] = None) -> Endpoint:
        return self._hub.bind(channel_key(address), name=name)

    def connect(
        self,
        address: str,
        name: Optional[str] = None,
        subscriptions: Optional[Iterable[str]] = None,
    ) -> Endpoint:
        return self._hub.connect(channel_key(address), name=name, subscriptions=subscriptions)

    def disconnect(self, endpoint: Endpoint) -> None:
        self._hub.disconnect(endpoint)

    def publish(self, address: str, message: Message) -> int:
        return self._hub.publish(channel_key(address), message)

    def push(self, address: str, message: Message) -> None:
        self._hub.push(channel_key(address), message)

    def has_bound(self, address: str) -> bool:
        return self._hub.has_bound(channel_key(address))

    def connected_count(self, address: str) -> int:
        return self._hub.connected_count(channel_key(address))

    @property
    def messages_published(self) -> int:
        return self._hub.messages_published

    @property
    def messages_pushed(self) -> int:
        return self._hub.messages_pushed

    def __repr__(self) -> str:
        return f"TcpServerHub({self.host}:{self.port})"


class TcpHubClient:
    """Client-side hub adapter: :class:`InProcHub`'s surface over a TCP broker.

    ``PubSocket``/``SubSocket``/``PushSocket``/``PullSocket`` run unchanged
    against this object from another OS process: ``connect``/``bind`` open one
    broker connection per endpoint (a :class:`TcpClientEndpoint`, which offers
    the same receive surface as :class:`Endpoint`), while ``publish``/``push``
    go through a single send-only channel.
    """

    def __init__(self, host: str, port: int, *, reactor=None) -> None:
        self.host = host
        self.port = int(port)
        self._lock = threading.Lock()
        self._endpoints: List[TcpClientEndpoint] = []  #: guarded by _lock
        self._closed = False
        # With a reactor, every endpoint's socket lives on its selector
        # instead of spawning a reader thread per connection.
        self._reactor = reactor
        # Opened eagerly so connecting to a dead broker fails here, not on
        # the first send.
        self._sender = TcpClientEndpoint(self.host, self.port, op="open", reactor=reactor)

    # -- endpoint management -----------------------------------------------------------
    def bind(self, address: str, name: Optional[str] = None) -> TcpClientEndpoint:
        return self._track(
            TcpClientEndpoint(
                self.host,
                self.port,
                op="bind",
                address=channel_key(address),
                reactor=self._reactor,
            )
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
                reactor=self._reactor,
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
