"""URI-addressed endpoints: serve and attach by address instead of by object.

The paper deploys the producer as a long-lived server that trainers reach by
address (Section 3.3.1); the systems it compares against — CoorDL's MinIO
cache, Joader's shared-loader server — are likewise reached by endpoint, not
by handing Python objects around.  This module is the connection layer that
makes that literal for the reproduction:

* :func:`parse_address` — split ``scheme://locator`` URIs.
* :class:`Transport` — one entry per scheme: knows how to *bind* (serve) and
  *connect* (attach) a locator, producing a resolved :class:`Endpoint`.
* :class:`TransportRegistry` — a process-wide, thread-safe mapping from URI
  scheme to transport, with ``inproc`` and ``tcp`` registered by default.
  New schemes plug in through :func:`register_transport` without touching
  producer or consumer code.
* :class:`InProcTransport` — every bound locator owns a fresh
  :class:`~repro.messaging.transport.InProcHub` and
  :class:`~repro.tensor.shared_memory.SharedMemoryPool`, shared by everyone
  who connects to the same address from any thread in the process.
* :class:`TcpTransport` — the cross-process transport: binding opens a
  listening :class:`~repro.messaging.transport.TcpServerHub` (port 0
  auto-assigns) and a ``posix`` shared-memory pool; connecting from any OS
  process dials it and attaches the producer's segments by name, so batches
  stay zero-copy while only the small pointer envelopes cross the socket.

Typical flow — the only two places that resolve an address are
:class:`~repro.core.session.SharedLoaderSession` (what :func:`repro.serve`
builds; a broker binds the same way) and
:func:`~repro.core.group.attach_address` (what :func:`repro.attach` falls
back to)::

    served = bind("inproc://demo")            # serving side: hub + pool created
    producer = TensorProducer(loader, hub=served.hub, pool=served.pool,
                              config=ProducerConfig(address=served.address))

    attached = connect("inproc://demo")       # attaching side, any thread
    consumer = TensorConsumer(hub=attached.hub, pool=attached.pool, endpoint=attached,
                              config=ConsumerConfig(address="inproc://demo"))
"""

from __future__ import annotations

import re
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.messaging.errors import (
    AddressError,
    AddressInUseError,
    AddressNotServedError,
    MessagingError,
    UnknownSchemeError,
)
from repro.messaging.transport import InProcHub, TcpServerHub

_SCHEME_RE = re.compile(r"^[a-z][a-z0-9+.-]*$")


def parse_address(address: str) -> Tuple[str, str]:
    """Split a ``scheme://locator`` URI; raises :class:`AddressError` if malformed."""
    if not isinstance(address, str) or "://" not in address:
        raise AddressError(
            f"address {address!r} is not a URI; expected '<scheme>://<locator>' "
            f"such as 'inproc://demo'"
        )
    scheme, _, locator = address.partition("://")
    if not _SCHEME_RE.match(scheme):
        raise AddressError(f"invalid scheme {scheme!r} in address {address!r}")
    if not locator:
        raise AddressError(f"address {address!r} has an empty locator")
    return scheme, locator


def is_uri(address: str) -> bool:
    """Whether a string looks like a URI address (as opposed to a bare channel name)."""
    try:
        parse_address(address)
    except AddressError:
        return False
    return True


class Endpoint:
    """A resolved address: the transport resources living behind a URI.

    Bind-side endpoints own the address registration and release it with
    :meth:`release`; connect-side endpoints are passive references, and
    release closes only what the attachment itself opened.
    """

    def __init__(
        self,
        address: str,
        *,
        transport: "Transport",
        role: str,
        hub: Optional[Any] = None,
        pool: Optional[Any] = None,
        closer: Optional[Callable[[], None]] = None,
    ) -> None:
        if role not in ("bind", "connect"):
            raise ValueError(f"endpoint role must be 'bind' or 'connect', got {role!r}")
        self.address = address
        self.scheme, self.locator = parse_address(address)
        self.transport = transport
        self.role = role
        self.hub = hub
        self.pool = pool
        self._closer = closer
        self._released = False

    def release(self) -> None:
        """Unregister a bind-side endpoint from its transport (idempotent).

        Connect-side endpoints holding per-attachment resources (e.g. a TCP
        client connection) close them here instead.
        """
        if self._released:
            return
        self._released = True
        try:
            if self.role == "bind":
                self.transport.release(self.locator)
        finally:
            if self._closer is not None:
                self._closer()

    def __enter__(self) -> "Endpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"Endpoint({self.address!r}, role={self.role!r})"


class Transport(ABC):
    """One URI scheme's way of turning locators into endpoints."""

    #: The scheme this transport serves (informational; the registry key wins).
    scheme: str = ""

    @abstractmethod
    def bind(self, address: str) -> Endpoint:
        """Serve ``address``; raises :class:`AddressInUseError` on collision."""

    @abstractmethod
    def connect(self, address: str) -> Endpoint:
        """Attach to a served ``address``; raises :class:`AddressNotServedError`."""

    def release(self, locator: str) -> None:
        """Stop serving ``locator`` (called by bind-side :meth:`Endpoint.release`)."""
        return None  # deliberate no-op default: not every transport tracks binds

    def locators(self) -> List[str]:
        """Locators currently served (for introspection and error messages)."""
        return []


class InProcTransport(Transport):
    """``inproc://`` — shared loaders reachable from any thread in this process.

    Binding a locator creates a fresh hub (message broker) and shared-memory
    pool; connecting returns the same pair, so producer and consumers rendezvous
    purely by address string.
    """

    scheme = "inproc"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._served: Dict[str, Tuple[InProcHub, Any]] = {}  #: guarded by _lock

    def bind(self, address: str) -> Endpoint:
        from repro.tensor.shared_memory import SharedMemoryPool

        _, locator = parse_address(address)
        with self._lock:
            if locator in self._served:
                raise AddressInUseError(
                    f"address {address!r} is already being served; shut the existing "
                    f"session down (or pick another address) before serving it again"
                )
            hub, pool = InProcHub(), SharedMemoryPool()
            self._served[locator] = (hub, pool)
        return Endpoint(address, transport=self, role="bind", hub=hub, pool=pool)

    def connect(self, address: str) -> Endpoint:
        _, locator = parse_address(address)
        with self._lock:
            pair = self._served.get(locator)
            known = sorted(self._served)
        if pair is None:
            served = ", ".join(known) or "none"
            raise AddressNotServedError(
                f"nothing is serving {address!r} (served inproc addresses: {served}); "
                f"call repro.serve(loader, address={address!r}) first"
            )
        hub, pool = pair
        return Endpoint(address, transport=self, role="connect", hub=hub, pool=pool)

    def release(self, locator: str) -> None:
        with self._lock:
            self._served.pop(locator, None)

    def locators(self) -> List[str]:
        with self._lock:
            return sorted(self._served)


def _split_host_port(address: str) -> Tuple[str, int, str]:
    """Split a ``tcp://host:port[/path]`` locator; raises :class:`AddressError`.

    Returns ``(host, port, path)`` with ``path`` empty when absent.  The path
    names a dataset behind a broker (``tcp://host:port/imagenet``): connects
    dial the broker at host:port and route by path, binds claim the bare
    authority.
    """
    _, locator = parse_address(address)
    netloc, _, path = locator.partition("/")
    host, sep, port_text = netloc.rpartition(":")
    if not sep or not host:
        raise AddressError(
            f"address {address!r} needs a 'tcp://<host>:<port>' locator "
            f"(port 0 binds an OS-assigned port)"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise AddressError(f"invalid port {port_text!r} in address {address!r}") from exc
    if not (0 <= port <= 65535):
        raise AddressError(f"port {port} out of range in address {address!r}")
    return host, port, path


def split_dataset_address(address: str) -> Tuple[str, Optional[str]]:
    """Split an address into ``(base, dataset)`` when it names a broker path.

    ``tcp://host:port/imagenet`` → ``("tcp://host:port", "imagenet")``; an
    address with no path — or a scheme whose locators have no authority/path
    structure (``inproc://`` locators may legitimately contain slashes) —
    returns ``(address, None)``.  Non-tcp brokers are resolved through the
    in-process session directory instead, where no splitting is needed.
    """
    try:
        scheme, _ = parse_address(address)
    except AddressError:
        return address, None
    if scheme != "tcp":
        return address, None
    try:
        host, port, path = _split_host_port(address)
    except AddressError:
        return address, None
    if not path:
        return address, None
    return f"tcp://{host}:{port}", path


class TcpTransport(Transport):
    """``tcp://`` — shared loaders reachable from other OS processes.

    Binding opens a :class:`~repro.messaging.transport.TcpServerHub`
    listening on the locator's host:port (port ``0`` picks a free port; the
    endpoint's ``address`` carries the resolved one) plus a ``posix``-backed
    shared-memory pool, so message envelopes travel over TCP while tensor
    bytes are handed off zero-copy through OS shared memory — mirroring the
    paper's ZeroMQ + shared-memory deployment.  Connecting dials the hub
    and opens an attach-by-name pool that maps the producer's segments into
    this process.  Both ends' sockets ride the process's reactor.
    """

    scheme = "tcp"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._served: Dict[str, TcpServerHub] = {}  #: guarded by _lock

    def bind(self, address: str) -> Endpoint:
        from repro.tensor.shared_memory import SharedMemoryPool

        host, port, path = _split_host_port(address)
        if path:
            raise AddressError(
                f"cannot bind {address!r}: a tcp:// bind claims the bare "
                f"'tcp://<host>:<port>' authority; dataset paths are mounted "
                f"behind a DatasetBroker (repro.broker)"
            )
        try:
            hub = TcpServerHub(host, port)
        except OSError as exc:
            raise AddressInUseError(f"cannot bind {address!r}: {exc}") from exc
        locator = f"{hub.host}:{hub.port}"
        with self._lock:
            self._served[locator] = hub
        return Endpoint(
            f"tcp://{locator}",
            transport=self,
            role="bind",
            hub=hub,
            pool=SharedMemoryPool(backend="posix"),
        )

    def connect(self, address: str) -> Endpoint:
        # Dial through the reactor's connection table: every consumer of the
        # same broker (tcp://host:port/imagenet, .../audio, ...) shares one
        # refcounted TcpHubClient + attach pool instead of opening its own.
        from repro.messaging.reactor import get_reactor

        host, port, _path = _split_host_port(address)
        if port == 0:
            raise AddressError(f"cannot connect to port 0 ({address!r}); use the "
                               f"resolved address the serving side reports")
        try:
            entry = get_reactor().shared_tcp_client(host, port)
        except (OSError, MessagingError) as exc:
            raise AddressNotServedError(
                f"nothing is serving {address!r} ({exc}); start the producer with "
                f"repro.serve(loader, address={address!r}) first"
            ) from exc
        return Endpoint(
            address,
            transport=self,
            role="connect",
            hub=entry.client,
            pool=entry.pool,
            closer=entry.release,
        )

    def release(self, locator: str) -> None:
        with self._lock:
            hub = self._served.pop(locator, None)
        if hub is not None:
            hub.close()

    def locators(self) -> List[str]:
        with self._lock:
            return sorted(self._served)


class TransportRegistry:
    """Thread-safe mapping from URI scheme to :class:`Transport`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._transports: Dict[str, Transport] = {}  #: guarded by _lock

    def register(self, scheme: str, transport: Transport, *, replace: bool = False) -> None:
        if not _SCHEME_RE.match(scheme):
            raise AddressError(f"invalid scheme {scheme!r}")
        with self._lock:
            if scheme in self._transports and not replace:
                raise AddressInUseError(
                    f"scheme {scheme!r} already has a registered transport; "
                    f"pass replace=True to override it"
                )
            self._transports[scheme] = transport

    def unregister(self, scheme: str) -> None:
        with self._lock:
            self._transports.pop(scheme, None)

    def registered(self, scheme: str) -> bool:
        with self._lock:
            return scheme in self._transports

    def get(self, scheme: str) -> Transport:
        with self._lock:
            transport = self._transports.get(scheme)
        if transport is None:
            known = ", ".join(sorted(self.schemes())) or "none"
            raise UnknownSchemeError(
                f"no transport registered for scheme {scheme!r} "
                f"(registered schemes: {known})"
            )
        return transport

    def schemes(self) -> List[str]:
        with self._lock:
            return sorted(self._transports)

    # -- address-level helpers ---------------------------------------------------------
    def bind(self, address: str) -> Endpoint:
        scheme, _ = parse_address(address)
        return self.get(scheme).bind(address)

    def connect(self, address: str) -> Endpoint:
        scheme, _ = parse_address(address)
        return self.get(scheme).connect(address)

    def __repr__(self) -> str:
        return f"TransportRegistry(schemes={self.schemes()})"


#: The process-wide registry every address resolves against by default.
_default_registry = TransportRegistry()
_default_registry.register("inproc", InProcTransport())
_default_registry.register("tcp", TcpTransport())


def default_registry() -> TransportRegistry:
    return _default_registry


def register_transport(scheme: str, transport: Transport, *, replace: bool = False) -> None:
    """Register a transport for ``scheme`` in the process-wide registry."""
    _default_registry.register(scheme, transport, replace=replace)


def available_schemes() -> List[str]:
    return _default_registry.schemes()


def bind(address: str) -> Endpoint:
    """Serve ``address`` through the process-wide registry."""
    return _default_registry.bind(address)


def connect(address: str) -> Endpoint:
    """Attach to a served ``address`` through the process-wide registry."""
    return _default_registry.connect(address)
