"""Service channels: one request, one reply, over a hub.

The describe, metrics and catalog queries ride a small REQ/REP pattern on
top of any object with the hub surface (``bind/disconnect/push``): an
:class:`~repro.messaging.transport.InProcHub`, the serving process's
:class:`~repro.messaging.transport.TcpServerHub`, or a remote process's
:class:`~repro.messaging.transport.TcpHubClient`.

* :class:`Responder` — the serving end: binds the service address and
  answers every request on the process's one service thread
  (:func:`run_on_services`), pushing the reply to the address the request
  names in ``reply_to``.
* :func:`request_once` — the asking end: binds a private reply address,
  pushes one ``REQUEST`` and waits for the ``REPLY``.

The data and control channels need no wrapper: the producer calls
``hub.publish`` / ``hub.push`` and reads its bound inbox, and consumers
subscribe through the reactor (:meth:`repro.messaging.reactor.Reactor.subscribe`).
"""

from __future__ import annotations

import os
import queue
import threading
import uuid
from typing import Callable, Optional

from repro.messaging.errors import MessagingError
from repro.messaging.message import Message, MessageKind
from repro.messaging.transport import InProcHub
from repro.obs.metrics import counter

_SERVICE_ERRORS = counter("repro.services.errors")


class Responder:
    """The serving end of a REQ/REP channel; it owns no thread.

    Binds ``address`` and answers every request with ``handler(payload)``.
    A handler that raises is answered with ``{"ok": False, "error": ...}``
    rather than killing the channel.  Handlers may do slow work (the
    catalog's ``subscribe`` can run a user's ``loader_factory``), so a request
    is never answered where it is delivered — that is the reactor thread for
    a ``tcp://`` peer, a caller's thread for ``inproc://``, and under the
    inbox's sink lock either way.  The sink only hands it to the process's
    one service thread (:func:`run_on_services`).  A request naming no
    ``reply_to`` is not run at all (nobody could read the answer), and it or
    a reply that cannot be pushed counts in ``repro.services.errors``.
    """

    def __init__(
        self, hub: InProcHub, address: str, handler: Callable[[object], object], name: str
    ) -> None:
        self._hub = hub
        self._name = name
        self._handler = handler
        self._stopped = False
        self._inbox = hub.bind(address, name=name)
        self._inbox.set_sink(self._enqueue)

    def _enqueue(self, request: Message) -> None:
        run_on_services(lambda: self._answer(request))

    def _answer(self, request: Message) -> None:
        """Service thread: run the handler, route the reply; never raises."""
        if self._stopped:
            return  # unbound while the request waited: dropped, as a late push would be
        body = request.body if isinstance(request.body, dict) else {}
        reply_to = body.get("reply_to")
        if not reply_to:
            _SERVICE_ERRORS.inc()
            return
        try:
            reply = self._handler(body.get("payload"))
        except Exception as exc:  # a handler bug must not kill the channel
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            self._hub.push(
                reply_to, Message(topic="", kind=MessageKind.REPLY, sender=self._name, body=reply)
            )
        except Exception:
            _SERVICE_ERRORS.inc()  # requester vanished; keep serving others

    def stop(self) -> None:
        """Unbind the channel (idempotent); returns at once."""
        self._stopped = True
        self._hub.disconnect(self._inbox)


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

    Binds a private reply address, pushes the ``REQUEST``, waits for the
    answer and unbinds.  Raises :class:`MessagingError` when nothing answers
    in time, the answer is not a ``REPLY``, or its body is not a dict (every
    service in the tree answers with one).
    """
    identity = f"req-{uuid.uuid4().hex[:8]}"
    reply_to = f"{address}/reply/{identity}"
    inbox = hub.bind(reply_to, name=identity)
    try:
        hub.push(
            address,
            Message(
                topic="",
                kind=MessageKind.REQUEST,
                sender=identity,
                body={"reply_to": reply_to, "payload": body},
            ),
        )
        reply = inbox.receive(timeout=timeout)
    finally:
        hub.disconnect(inbox)
    if reply.kind is not MessageKind.REPLY:
        raise MessagingError(f"expected a REPLY from {address!r}, got {reply.kind}")
    if not isinstance(reply.body, dict):
        raise MessagingError(f"malformed reply from {address!r}: {reply.body!r}")
    return reply.body
