"""Messaging layer: a small ZeroMQ-style hub library.

TensorSocket uses ZeroMQ PUB/SUB sockets for the data channel (producer
multicasts batch payloads to all consumers), a PUSH/PULL-style channel for
acknowledgements, and heartbeats for liveness (paper Section 3.2.3).  ZeroMQ
is not available offline, so this subpackage provides the same patterns as
one hub surface — ``publish`` fans out to connected inboxes, ``push``
delivers to the one bound inbox — that the producer and consumer call
directly:

* :class:`~repro.messaging.message.Message` — a typed envelope (topic, kind,
  sender, body) with a stable wire encoding.
* :class:`~repro.messaging.transport.InProcHub` — an in-process broker with
  named receive queues (:class:`~repro.messaging.transport.Inbox`), used by
  threaded runs, tests and the simulator.
* :class:`~repro.messaging.transport.TcpServerHub` /
  :class:`~repro.messaging.transport.TcpHubClient` — the same surface for
  true multi-process runs: the serving process's hub also listens on a port,
  an attaching process reaches it through the client, and the same calls
  run unchanged on either side.
* :mod:`~repro.messaging.reactor` — the one event loop per process that
  every ``tcp://`` socket, shared subscription and timer rides on.
* :mod:`~repro.messaging.sockets` — ``Responder`` / ``request_once``, the
  two ends of a service channel (describe, metrics, catalog).
* :mod:`~repro.messaging.endpoint` — URI-addressed endpoints: a process-wide
  registry mapping schemes (``inproc://`` and ``tcp://`` built in; new
  schemes plug in the same way) to transports.  A session binds its address
  there and an attach connects to it; the producer and consumer only ever
  see the resolved hub and pool.
"""

from repro.messaging.endpoint import (
    InProcTransport,
    TcpTransport,
    Transport,
    TransportRegistry,
    available_schemes,
    bind,
    connect,
    default_registry,
    is_uri,
    parse_address,
    register_transport,
)
from repro.messaging.errors import (
    AddressError,
    AddressInUseError,
    AddressNotServedError,
    DuplicateConsumerError,
    EndpointClosedError,
    EndpointError,
    MessagingError,
    TimeoutError_,
    UnknownSchemeError,
)
from repro.messaging.message import Message, MessageKind
from repro.messaging.transport import (
    Inbox,
    InProcHub,
    TcpHubClient,
    TcpServerHub,
    channel_key,
)
from repro.messaging.sockets import Responder, request_once

__all__ = [
    "Message",
    "MessageKind",
    "Inbox",
    "InProcHub",
    "TcpHubClient",
    "TcpServerHub",
    "channel_key",
    "Responder",
    "request_once",
    "MessagingError",
    "EndpointClosedError",
    "TimeoutError_",
    # URI endpoint layer
    "Transport",
    "TransportRegistry",
    "InProcTransport",
    "TcpTransport",
    "register_transport",
    "available_schemes",
    "default_registry",
    "parse_address",
    "is_uri",
    "bind",
    "connect",
    "EndpointError",
    "AddressError",
    "UnknownSchemeError",
    "AddressInUseError",
    "AddressNotServedError",
    "DuplicateConsumerError",
]
