"""ZeroMQ-style socket pattern wrappers over a hub transport.

Three patterns are provided, matching the channels TensorSocket uses:

* **PUB/SUB** — the data channel.  The producer's :class:`PubSocket`
  multicasts :class:`BatchPayload` messages at the data address; consumers
  subscribe through the reactor
  (:meth:`repro.messaging.reactor.Reactor.subscribe`), which shares one hub
  endpoint per channel and filters on topic prefixes.
* **PUSH/PULL** — the acknowledgement and registration channel.  Consumers
  push ``ACK`` / ``HELLO`` / ``BYE`` messages toward the producer's single
  :class:`PullSocket`.
* **REQ/REP** — a small synchronous control channel (describe, metrics and
  catalog queries); :class:`Responder` is the serving end, answered on the
  process's one service thread, and :func:`request_once` the asking end.

All sockets work over anything with the hub surface
(``bind/connect/publish/push``): an
:class:`~repro.messaging.transport.InProcHub`, the serving process's
:class:`~repro.messaging.transport.TcpServerHub`, or a remote process's
:class:`~repro.messaging.transport.TcpHubClient`.
"""

from __future__ import annotations

import os
import queue
import threading
import uuid
from typing import Callable, List, Optional

from repro.messaging.errors import MessagingError
from repro.messaging.message import Message, MessageKind
from repro.messaging.transport import Inbox, InProcHub
from repro.obs.metrics import counter

_SERVICE_ERRORS = counter("repro.services.errors")


class _HubSocket:
    """Shared plumbing for sockets living on an in-process hub."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        self._hub = hub
        self._address = address
        self.identity = identity or f"sock-{uuid.uuid4().hex[:8]}"
        self._endpoint: Optional[Inbox] = None

    @property
    def address(self) -> str:
        return self._address

    def close(self) -> None:
        if self._endpoint is not None:
            self._hub.disconnect(self._endpoint)
            self._endpoint = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PubSocket(_HubSocket):
    """Publisher end of PUB/SUB: multicast to all connected subscribers."""

    def send(self, kind: MessageKind, body=None, topic: str = "") -> int:
        """Publish a message; returns the number of subscribers it reached."""
        message = Message(topic=topic, kind=kind, sender=self.identity, body=body)
        return self._hub.publish(self._address, message)


class PushSocket(_HubSocket):
    """Push end of PUSH/PULL: deliver to the single bound pull socket."""

    def send(self, kind: MessageKind, body=None, topic: str = "") -> None:
        message = Message(topic=topic, kind=kind, sender=self.identity, body=body)
        self._hub.push(self._address, message)


class PullSocket(_HubSocket):
    """Pull end of PUSH/PULL: owns the bound endpoint at the address."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        super().__init__(hub, address, identity)
        self._endpoint = hub.bind(address, name=self.identity)

    def recv(self, timeout: Optional[float] = None) -> Message:
        return self._endpoint.receive(timeout=timeout)

    def try_recv(self) -> Optional[Message]:
        return self._endpoint.try_receive()

    def drain(self) -> List[Message]:
        """Receive every message currently queued without blocking."""
        messages = []
        while True:
            message = self._endpoint.try_receive()
            if message is None:
                return messages
            messages.append(message)

    def pending(self) -> int:
        return self._endpoint.pending()


class ReqSocket(_HubSocket):
    """Synchronous request socket: send one request, wait for its reply."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        super().__init__(hub, address, identity)
        self._reply_address = f"{address}/reply/{self.identity}"
        self._endpoint = hub.bind(self._reply_address, name=self.identity)

    def request(self, body, timeout: Optional[float] = None):
        message = Message(
            topic="",
            kind=MessageKind.REQUEST,
            sender=self.identity,
            body={"reply_to": self._reply_address, "payload": body},
        )
        self._hub.push(self._address, message)
        reply = self._endpoint.receive(timeout=timeout)
        if reply.kind is not MessageKind.REPLY:
            raise MessagingError(f"expected a REPLY, got {reply.kind}")
        return reply.body


class RepSocket(_HubSocket):
    """Reply socket: receive requests and route replies back to the requester."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        super().__init__(hub, address, identity)
        self._endpoint = hub.bind(address, name=self.identity)

    def recv(self, timeout: Optional[float] = None) -> Message:
        return self._endpoint.receive(timeout=timeout)

    def try_recv(self) -> Optional[Message]:
        return self._endpoint.try_receive()

    def reply(self, request: Message, body) -> None:
        reply_to = request.body.get("reply_to") if isinstance(request.body, dict) else None
        if not reply_to:
            raise MessagingError("request carries no reply_to address")
        message = Message(topic="", kind=MessageKind.REPLY, sender=self.identity, body=body)
        self._hub.push(reply_to, message)

    def serve_pending(self, handler) -> int:
        """Answer every queued request with ``handler(payload)``; returns count."""
        served = 0
        while True:
            request = self.try_recv()
            if request is None:
                return served
            payload = request.body.get("payload") if isinstance(request.body, dict) else None
            self.reply(request, handler(payload))
            served += 1


class Responder:
    """The serving end of a REQ/REP channel; it owns no thread.

    Binds ``address`` and answers every request with ``handler(payload)``.
    A handler that raises is answered with ``{"ok": False, "error": ...}``
    rather than killing the channel.  Handlers may do slow work (the
    catalog's ``subscribe`` can run a user's ``loader_factory``), so a request
    is never answered where it is delivered — that is the reactor thread for
    a ``tcp://`` peer, a caller's thread for ``inproc://``, and under the
    inbox's sink lock either way.  The sink only hands it to the process's
    one service thread (:func:`run_on_services`).
    """

    def __init__(
        self, hub: InProcHub, address: str, handler: Callable[[object], object], name: str
    ) -> None:
        self._rep = RepSocket(hub, address, identity=name)
        self._handler = handler
        self._stopped = False
        self._rep._endpoint.set_sink(self._enqueue)

    def _enqueue(self, request: Message) -> None:
        run_on_services(lambda: self._answer(request))

    def _answer(self, request: Message) -> None:
        """Service thread: run the handler, route the reply; never raises."""
        if self._stopped:
            return  # unbound while the request waited: dropped, as a late push would be
        payload = request.body.get("payload") if isinstance(request.body, dict) else None
        try:
            reply = self._handler(payload)
        except Exception as exc:  # a handler bug must not kill the channel
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            self._rep.reply(request, reply)
        except Exception:
            pass  # requester vanished; keep serving others

    def stop(self) -> None:
        """Unbind the channel (idempotent); returns at once."""
        self._stopped = True
        self._rep.close()


_services_lock = threading.Lock()
_services: Optional["queue.SimpleQueue[Callable[[], None]]"] = None
_services_pid: Optional[int] = None


def _serve(work: "queue.SimpleQueue[Callable[[], None]]") -> None:
    """The process's one service thread (``repro-services``).

    Every :class:`Responder` of the process — describe, metrics and catalog
    channels of any number of sessions, mounts and clients — is answered
    here, one request at a time, and so is whatever else may block and so
    cannot run where it is triggered (a broker's idle sweep, fired by a
    reactor timer).  It blocks on its queue with no timeout and lives as
    long as the process, like the reactor.
    """
    while True:
        try:
            work.get()()
        except Exception:
            # It answers for the whole process, so it outlives any one piece
            # of work; the counter is where the loss shows.
            _SERVICE_ERRORS.inc()


def run_on_services(work: Callable[[], None]) -> None:
    """Queue ``work()`` for the service thread; never blocks.

    The thread is started by the first call — a process that nobody queries
    has none — and keyed by pid like the reactor: a ``fork()`` child
    inherits the queue, not the thread.
    """
    global _services, _services_pid
    with _services_lock:
        if _services is None or _services_pid != os.getpid():
            _services, _services_pid = queue.SimpleQueue(), os.getpid()
            threading.Thread(
                target=_serve, args=(_services,), daemon=True, name="repro-services"
            ).start()
        _services.put_nowait(work)


def request_once(hub: InProcHub, address: str, body, *, timeout: float) -> dict:
    """One request/reply on the REQ/REP channel at ``address``.

    Opens a :class:`ReqSocket`, asks, closes.  Raises :class:`MessagingError`
    when nothing answers in time or the reply is not a dict (every service
    in the tree answers with one).
    """
    req = ReqSocket(hub, address)
    try:
        reply = req.request(body, timeout=timeout)
    finally:
        req.close()
    if not isinstance(reply, dict):
        raise MessagingError(f"malformed reply from {address!r}: {reply!r}")
    return reply
