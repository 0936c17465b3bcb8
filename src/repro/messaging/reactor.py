"""The per-process reactor: one event loop for every ``tcp://`` socket and
every attach.

Before this module, each attached consumer cost threads: a blocking recv
pump, a heartbeat thread if backgrounded, one TCP reader thread per
connection, and — under sharding — a parked feeder thread per group member;
and a serving process spent an accept thread, a thread per client and a
forwarder thread per remote endpoint.  A node collocating hundreds of
trainers (the paper's Section 4 scenario, and DGL's ``dist_context``
deployment shape) burned threads and sockets linearly in its peers.

:class:`Reactor` collapses all of that onto **one** daemon thread
(``repro-reactor``) per process, whichever side of a link the process is on:

* **Sockets** — :meth:`~Reactor.register_socket` watches a non-blocking
  socket for readability (and, while output is waiting, writability).  The
  serving hub's listener and accepted connections and the attaching side's
  dialled connections all live here, so no thread exists per connection.
* **Inbound messages** — hub deliveries are routed to registered handlers
  through :meth:`~Reactor.subscribe` instead of per-consumer receive loops.
  In-proc inboxes forward into the reactor's inbox via a *sink*.
* **Shared subscriptions** — one physical hub endpoint per
  ``(hub, channel)`` pair, subscribed to the union of its local consumers'
  topic prefixes and fanned out locally.  N consumers of one data channel
  cost one endpoint (and over TCP, one connection), not N.
* **Timer wheel** — periodic work (heartbeats, registration retries) runs
  from a heap of timers on the reactor thread via :meth:`~Reactor.every`,
  replacing per-consumer heartbeat threads.
* **Connection table** — :meth:`~Reactor.shared_tcp_client` refcounts one
  :class:`~repro.messaging.transport.TcpHubClient` (plus one attach-by-name
  shared-memory pool) per ``(host, port)``, so consumers of
  ``tcp://host:port/imagenet`` and ``.../audio`` share a single TCP
  connection set.

The reactor is a lazy process-wide singleton (:func:`get_reactor`), rebuilt
after ``fork()`` — a child inherits the parent's object but not its thread,
so reusing it would silently drop every message.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import selectors
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.messaging.message import Message
from repro.obs.metrics import counter

__all__ = [
    "Reactor",
    "SubscriptionHandle",
    "TimerHandle",
    "get_reactor",
    "reactor_only",
]

# Recording from the reactor thread is allowed precisely because these are
# per-thread-cell counters: inc() never blocks (reprolint RL006 verifies the
# method set statically).
_DISPATCHES = counter("repro.reactor.dispatches")
_TIMER_FIRES = counter("repro.reactor.timer_fires")
_SUBMITS = counter("repro.reactor.submits")
_HANDLER_ERRORS = counter("repro.reactor.handler_errors")

#: Selector event masks in the order ``register_socket`` stores its callbacks.
_EVENTS = (selectors.EVENT_READ, selectors.EVENT_WRITE)


def reactor_only(fn):
    """Mark ``fn`` as running exclusively on the reactor thread.

    The decorator is a pure tag — zero runtime cost — whose meaning is
    enforced statically by ``reprolint`` (RL006): decorated code must never
    block (no ``time.sleep``, no blocking queue ops, no ``Event.wait``, no
    ``Thread.join``) and must never dial sockets, because it shares the one
    event loop every socket and consumer in the process rides on.  Conversely, selector
    state may *only* be touched from decorated code, which is how the
    "selector lives on the reactor thread" invariant in this module's
    docstrings becomes machine-checked.
    """
    fn.__reactor_only__ = True
    return fn


class TimerHandle:
    """A periodic callback on the reactor's timer wheel; ``cancel()`` to stop."""

    __slots__ = ("interval", "callback", "cancelled")

    def __init__(self, interval: float, callback: Callable[[], None]) -> None:
        self.interval = interval
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SubscriptionHandle:
    """One local consumer's view of a shared channel subscription."""

    def __init__(self, reactor: "Reactor", channel: "_Channel",
                 topics, handler: Callable[[Message], None]) -> None:
        self._reactor = reactor
        self._channel = channel
        self.topics = tuple(topics)
        self.handler = handler
        self._active = True

    def matches(self, message: Message) -> bool:
        if not self.topics:
            return True
        return any(message.matches_topic(prefix) for prefix in self.topics)

    def unsubscribe(self) -> None:
        if not self._active:
            return
        self._active = False
        self._reactor._drop_subscriber(self._channel, self)


class _Channel:
    """One physical hub endpoint fanned out to N local subscribers.

    Dispatch happens on the reactor thread only, in arrival order, so every
    subscriber sees the same per-channel ordering a private endpoint would
    have given it.
    """

    def __init__(self, key, hub, address: str) -> None:
        self.key = key
        self.hub = hub
        self.address = address
        self.endpoint = None
        self.subscribers: List[SubscriptionHandle] = []

    def dispatch(self, message: Message) -> None:
        for subscriber in list(self.subscribers):
            if subscriber.matches(message):
                try:
                    subscriber.handler(message)
                except Exception:
                    # A handler bug must not starve its channel peers or kill the loop.
                    _HANDLER_ERRORS.inc()


class _SharedTcpClient:
    """A refcounted ``(host, port)`` entry in the reactor's connection table."""

    def __init__(self, reactor: "Reactor", host: str, port: int) -> None:
        from repro.messaging.transport import TcpHubClient
        from repro.tensor.shared_memory import SharedMemoryPool

        self._reactor = reactor
        self.key = (host, int(port))
        self.client = TcpHubClient(host, port)
        self.pool = SharedMemoryPool(backend="posix", attach_by_name=True)
        self.refs = 0

    def release(self) -> None:
        self._reactor._release_client(self)


class Reactor:
    """A single event loop owning subscriptions, timers and TCP connections.

    Everything stateful (selector, timer heap) is touched only from the
    reactor thread; other threads communicate through the inbox queue plus a
    socketpair waker, the standard self-pipe trick.
    """

    def __init__(self, name: str = "repro-reactor") -> None:
        self.name = name
        self._inbox: "queue.SimpleQueue[Callable[[], None]]" = queue.SimpleQueue()
        self._timers: List[Tuple[float, int, TimerHandle]] = []
        self._seq = itertools.count()
        self._lock = threading.RLock()
        self._channels: Dict[Tuple[int, str], _Channel] = {}  #: guarded by _lock
        self._clients: Dict[Tuple[str, int], _SharedTcpClient] = {}  #: guarded by _lock
        self._selector = selectors.DefaultSelector()
        self._waker_recv, self._waker_send = socket.socketpair()
        self._waker_recv.setblocking(False)
        self._waker_send.setblocking(False)
        self._selector.register(self._waker_recv, selectors.EVENT_READ, None)
        # Sockets currently registered via register_socket (the waker is not
        # counted).  Written only from reactor-thread closures; stats() reads
        # the int for the test suite's quiescence check.
        self._registered_sockets = 0
        self._sleeping = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        self._thread_lock = threading.Lock()

    # ------------------------------------------------------------------ loop
    def _ensure_thread(self) -> None:
        with self._thread_lock:
            if self._stopped:
                raise RuntimeError("reactor has been shut down")
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name=self.name, daemon=True
                )
                self._thread.start()

    @reactor_only
    def _run(self) -> None:
        while not self._stopped:
            timeout = self._next_timer_delay()
            # The sleeping flag is raised *before* the final inbox-empty
            # check: a submitter that enqueues after the check is guaranteed
            # to observe it and write the waker, so no work item can strand
            # while the loop sleeps in select().
            self._sleeping = True
            if not self._inbox.empty():
                timeout = 0
            try:
                events = self._selector.select(timeout)
            except OSError:
                events = []
            self._sleeping = False
            for key, mask in events:
                if key.fileobj is self._waker_recv:
                    try:
                        while self._waker_recv.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                    continue
                for ready, callback in zip(_EVENTS, key.data):
                    if mask & ready:
                        _DISPATCHES.inc()
                        try:
                            callback()
                        except Exception:
                            pass
            while True:
                try:
                    work = self._inbox.get_nowait()
                except queue.Empty:
                    break
                _DISPATCHES.inc()
                try:
                    work()
                except Exception:
                    pass
            self._fire_due_timers()

    @reactor_only
    def _next_timer_delay(self) -> Optional[float]:
        while self._timers and self._timers[0][2].cancelled:
            heapq.heappop(self._timers)
        if not self._timers:
            return None
        return max(0.0, self._timers[0][0] - time.monotonic())

    @reactor_only
    def _fire_due_timers(self) -> None:
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            _due, _seq, handle = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            _TIMER_FIRES.inc()
            try:
                handle.callback()
            except Exception:
                pass
            heapq.heappush(
                self._timers, (now + handle.interval, next(self._seq), handle)
            )

    def on_reactor_thread(self) -> bool:
        """True when the caller *is* the reactor thread — code that would
        otherwise block on a delivery the reactor itself must parse (e.g. a
        subscribe confirmation) uses this to skip the wait."""
        return threading.current_thread() is self._thread

    # ------------------------------------------------------------------ submission
    def submit(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the reactor thread as soon as possible."""
        self._ensure_thread()
        _SUBMITS.inc()
        self._inbox.put(fn)
        if self._sleeping:
            self._wake()

    def _wake(self) -> None:
        try:
            self._waker_send.send(b"\0")
        except (BlockingIOError, OSError):
            # A full pipe means a wake-up is already pending.
            pass

    def every(self, interval: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` every ``interval`` seconds (first fire after
        one interval); returns a cancellable handle."""
        if interval <= 0:
            raise ValueError("timer interval must be positive")
        handle = TimerHandle(interval, callback)

        @reactor_only
        def arm() -> None:
            heapq.heappush(
                self._timers,
                (time.monotonic() + interval, next(self._seq), handle),
            )

        self.submit(arm)
        return handle

    # ------------------------------------------------------------------ sockets
    def register_socket(self, sock: socket.socket,
                        on_readable: Callable[[], None],
                        on_writable: Optional[Callable[[], None]] = None) -> None:
        """Watch ``sock`` for readability, calling ``on_readable`` on the
        reactor thread (and ``on_writable`` while :meth:`watch_writable` is
        on).  The selector is only ever touched from the loop."""
        @reactor_only
        def register() -> None:
            try:
                self._selector.register(
                    sock, selectors.EVENT_READ, (on_readable, on_writable)
                )
            except (KeyError, ValueError, OSError):
                return
            self._registered_sockets += 1

        self.submit(register)

    def watch_writable(self, sock: socket.socket, enabled: bool) -> None:
        """Start or stop calling a registered socket's ``on_writable`` — on
        while output waits in user space for the loop to write it, off
        otherwise (a socket is nearly always writable)."""
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if enabled else 0)

        @reactor_only
        def modify() -> None:
            try:
                self._selector.modify(sock, events, self._selector.get_key(sock).data)
            except (KeyError, ValueError, OSError):
                pass  # already unregistered

        self.submit(modify)

    def unregister_socket(self, sock: socket.socket,
                          after: Optional[Callable[[], None]] = None) -> None:
        """Stop watching ``sock``; ``after`` (e.g. ``sock.close``) runs on the
        reactor thread once it is out of the selector."""
        @reactor_only
        def unregister() -> None:
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError, OSError):
                pass
            else:
                self._registered_sockets -= 1
            if after is not None:
                try:
                    after()
                except Exception:
                    pass

        try:
            self.submit(unregister)
        except RuntimeError:
            # Reactor already shut down: nothing watches the socket anymore.
            if after is not None:
                after()

    # ------------------------------------------------------------------ shared subscriptions
    def subscribe(self, hub, address: str, topics,
                  handler: Callable[[Message], None]) -> SubscriptionHandle:
        """Deliver messages published at ``address`` matching ``topics`` to
        ``handler`` (reactor thread).

        Local consumers of the same ``(hub, channel)`` share one physical
        endpoint subscribed to the union of their topics; the reactor fans
        messages out by prefix, so ordering per consumer is what a private
        endpoint would have delivered.
        """
        # Deferred: transport imports ``reactor_only`` from this module at
        # import time, so the reverse import must happen at call time.
        from repro.messaging.transport import channel_key

        self._ensure_thread()
        key = (id(hub), channel_key(address))
        with self._lock:
            channel = self._channels.get(key)
            if channel is None:
                channel = _Channel(key, hub, address)
                self._channels[key] = channel
            subscription = SubscriptionHandle(self, channel, topics, handler)
            # Registered before any topic becomes active so no matching
            # message can arrive with nobody to fan it out to.
            channel.subscribers.append(subscription)
            if channel.endpoint is None:
                try:
                    endpoint = hub.connect(
                        address,
                        name=f"reactor-{channel_key(address)}",
                        subscriptions=tuple(dict.fromkeys(subscription.topics)),
                    )
                except BaseException:
                    channel.subscribers.remove(subscription)
                    if not channel.subscribers:
                        self._channels.pop(key, None)
                    raise
                channel.endpoint = endpoint
                endpoint.set_sink(self._make_sink(channel))
            else:
                for prefix in subscription.topics:
                    if prefix not in channel.endpoint.subscriptions:
                        channel.endpoint.subscribe(prefix)
        return subscription

    def _make_sink(self, channel: _Channel) -> Callable[[Message], None]:
        def sink(message: Message) -> None:
            # TCP frames are already parsed on the reactor thread; dispatch
            # inline.  In-proc deliveries arrive on the publisher's thread
            # and bounce through the inbox for single-threaded dispatch.
            if threading.current_thread() is self._thread:
                channel.dispatch(message)
            else:
                self.submit(lambda: channel.dispatch(message))

        return sink

    def _drop_subscriber(self, channel: _Channel, subscription: SubscriptionHandle) -> None:
        with self._lock:
            if subscription in channel.subscribers:
                channel.subscribers.remove(subscription)
            if channel.subscribers:
                return
            self._channels.pop(channel.key, None)
            endpoint, channel.endpoint = channel.endpoint, None
        if endpoint is not None:
            try:
                channel.hub.disconnect(endpoint)
            except Exception:
                pass

    # ------------------------------------------------------------------ connection table
    def shared_tcp_client(self, host: str, port: int) -> _SharedTcpClient:
        """A refcounted broker connection (+ attach pool) for ``host:port``.

        The first caller dials; later callers share.  Call ``release()`` on
        the returned entry once per ``shared_tcp_client`` call — the last
        release closes the connection and the attached pool.
        """
        key = (host, int(port))
        with self._lock:
            entry = self._clients.get(key)
            if entry is not None and entry.client.closed:
                # The broker went away under a previous generation of
                # consumers; a new attach deserves a fresh dial.
                self._clients.pop(key, None)
                entry = None
            if entry is None:
                entry = _SharedTcpClient(self, host, port)
                self._clients[key] = entry
            entry.refs += 1
            return entry

    def _release_client(self, entry: _SharedTcpClient) -> None:
        with self._lock:
            entry.refs -= 1
            if entry.refs > 0:
                return
            if self._clients.get(entry.key) is entry:
                self._clients.pop(entry.key)
        try:
            entry.client.close()
        except Exception:
            pass
        try:
            entry.pool.close_attached()
        except Exception:
            pass

    # ------------------------------------------------------------------ introspection / lifecycle
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "channels": len(self._channels),
                "subscribers": sum(
                    len(c.subscribers) for c in self._channels.values()
                ),
                "tcp_clients": len(self._clients),
                "tcp_client_refs": sum(e.refs for e in self._clients.values()),
                "sockets": self._registered_sockets,
                "timers": sum(1 for *_x, h in self._timers if not h.cancelled),
                "running": self._thread is not None and self._thread.is_alive(),
            }

    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop the loop and close the waker (test helper; the process-wide
        singleton normally lives for the life of the process)."""
        with self._thread_lock:
            self._stopped = True
            thread = self._thread
        self._wake()
        if thread is not None:
            thread.join(timeout=timeout)
        try:
            # The loop thread is stopped (or abandoned after the join
            # timeout); closing its selector here is the one sanctioned
            # off-thread touch.
            self._selector.close()  # reprolint: disable=RL006
        except OSError:
            pass
        for sock in (self._waker_recv, self._waker_send):
            try:
                sock.close()
            except OSError:
                pass

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"Reactor(channels={stats['channels']}, "
            f"timers={stats['timers']}, tcp_clients={stats['tcp_clients']}, "
            f"running={stats['running']})"
        )


_singleton_lock = threading.Lock()
_singleton: Optional[Reactor] = None
_singleton_pid: Optional[int] = None


def get_reactor() -> Reactor:
    """The process-wide reactor, created on first use.

    Keyed by pid: a ``fork()`` child inherits the parent's reactor object but
    not its thread (and its selector fds are shared with the parent), so the
    child builds a fresh one instead of silently dropping messages.
    """
    global _singleton, _singleton_pid
    with _singleton_lock:
        if _singleton is None or _singleton_pid != os.getpid():
            _singleton = Reactor()
            _singleton_pid = os.getpid()
        return _singleton
