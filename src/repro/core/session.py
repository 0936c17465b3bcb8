"""Run a producer as an addressable, long-lived service inside this process.

The paper deploys the producer as a long-lived server that trainers reach by
address (Section 3.3.1).  :class:`SharedLoaderSession` is that server: it
binds the session's URI address through the transport registry
(:mod:`repro.messaging.endpoint`), runs the producer loop on a background
thread, and registers itself in a process-wide directory so that consumers in
*other* threads can attach with nothing but the address string::

    session = repro.serve(loader, address="inproc://cifar")   # producer side

    consumer = repro.attach("inproc://cifar")                  # any thread
    for batch in consumer:
        ...

Serving a ``tcp://`` address makes the same session reachable from other OS
processes: the transport listens behind the address (on the process's
reactor, no thread of its own) and stages batches in posix shared memory, so ``repro.attach(session.address)`` works
from a ``multiprocessing.Process`` (or any separate script) unchanged.

Explicit ``hub=`` / ``pool=`` arguments (and non-URI addresses) keep working
as before for callers that prefer to wire objects together by hand; in that
mode the session is simply not discoverable by address.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import Dict, List, Optional

from repro.core.config import ConsumerConfig, ProducerConfig
from repro.core.consumer import TensorConsumer
from repro.core.manifest import SessionManifest
from repro.core.producer import TensorProducer
from repro.messaging.transport import InProcHub
from repro.tensor.shared_memory import SharedMemoryPool

# Directory of live sessions keyed by URI address, so repro.attach() can hand
# out consumers without the caller holding the session object.  Sharded
# sessions (repro.core.group.ShardedLoaderSession) register here too; every
# entry answers .consumer(config) / .shutdown() / .stats().
_SESSIONS_LOCK = threading.Lock()
_SESSIONS: Dict[str, object] = {}  #: guarded by _SESSIONS_LOCK


def register_session(address: str, session) -> None:
    """Put a live session in the process-wide directory (group sessions too)."""
    with _SESSIONS_LOCK:
        _SESSIONS[address] = session


def unregister_session(address: str, session) -> None:
    """Remove a session from the directory if it still owns the entry."""
    with _SESSIONS_LOCK:
        if _SESSIONS.get(address) is session:
            del _SESSIONS[address]


def live_sessions() -> Dict[str, object]:
    """A snapshot of the directory (brokers use it for prefix resolution)."""
    with _SESSIONS_LOCK:
        return dict(_SESSIONS)


class DescribeService:
    """Answer ``{address}/group`` describe requests with a session manifest.

    Cross-process consumers cannot reach the in-process session directory, so
    every serving session (plain and sharded) binds a tiny REQ/REP responder
    next to its data channels.  ``repro.attach`` asks it how the address is
    shaped — ``{"shards": 1}`` for a plain session, the member manifest for a
    sharded one — and builds the matching consumer.
    """

    def __init__(self, hub, address: str, manifest: Dict[str, object]) -> None:
        from repro.messaging.sockets import Responder

        manifest = dict(manifest)
        self._responder = Responder(
            hub, f"{address}/group", lambda _payload: dict(manifest), "repro-session-describe"
        )

    def stop(self) -> None:
        self._responder.stop()


class SharedLoaderSession:
    """Run a :class:`TensorProducer` on a background thread and create consumers."""

    def __init__(
        self,
        data_loader,
        *,
        address: Optional[str] = None,
        producer_config: Optional[ProducerConfig] = None,
        hub: Optional[InProcHub] = None,
        pool: Optional[SharedMemoryPool] = None,
        embedded: bool = False,
        dataset: Optional[str] = None,
    ) -> None:
        if embedded and (hub is None or address is None):
            raise ValueError(
                "an embedded session rides a shared transport: pass both hub= "
                "and address= (the broker owns the bind)"
            )
        self.producer = TensorProducer(
            data_loader,
            address=address,
            hub=hub,
            config=producer_config or ProducerConfig(),
            pool=pool,
        )
        self.hub = self.producer.hub
        self.pool = self.producer.pool
        self.address = self.producer.address
        self.dataset = dataset
        self._embedded = embedded
        self._thread: Optional[threading.Thread] = None
        self._consumers: List[TensorConsumer] = []
        self._producer_error: Optional[BaseException] = None
        self._shutdown = False
        self._owner_pid = os.getpid()
        self._describe: Optional[DescribeService] = None
        self._metrics_service = None
        if self.producer.owns_address or embedded:
            # The producer's endpoint bind guarantees the address was free, so
            # this cannot clobber another live session.  Sessions wired from
            # an explicit hub= never bound the address and stay out of the
            # directory even when their config names a URI — unless they are
            # embedded into a broker's transport, whose mount path guarantees
            # uniqueness under the broker's base address instead.
            register_session(self.address, self)
            # Remote attachers (who cannot see the directory) ask this
            # responder how the address is shaped; one shard = plain consumer.
            try:
                self._describe = DescribeService(
                    self.hub, self.address, self.manifest().to_dict()
                )
            except Exception:
                self._describe = None  # a hub without bind support; discovery off
            # The observability channel: snapshot/prometheus on
            # {address}/metrics (see repro.obs.service).
            try:
                from repro.obs.service import MetricsService

                self._metrics_service = MetricsService(
                    self.hub, self.address, stats_fn=self.stats
                )
            except Exception:
                self._metrics_service = None

    def manifest(self) -> SessionManifest:
        """This session's shape in the unified describe/catalog schema."""
        return SessionManifest(
            address=self.address,
            kind="dataset" if self.dataset is not None else "session",
            shards=1,
            dataset=self.dataset,
        )

    # -- discovery ---------------------------------------------------------------------
    @classmethod
    def at(cls, address: str) -> Optional["SharedLoaderSession"]:
        """The live session serving ``address`` in this process, if any."""
        with _SESSIONS_LOCK:
            session = _SESSIONS.get(address)
        if session is not None and session._owner_pid != os.getpid():
            # A fork()ed child inherits the parent's directory, but not its
            # producer thread: the entry is stale here.  Attaching must fall
            # through to a real transport connect (e.g. tcp:// back to the
            # parent's broker) instead of a dead in-process hub.
            return None
        return session

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> "SharedLoaderSession":
        """Start the producer loop on a daemon thread."""
        if self._shutdown:
            raise RuntimeError(
                f"session at {self.address!r} has been shut down; "
                f"create a new session to serve again"
            )
        if self._thread is not None:
            raise RuntimeError("session already started")
        self._thread = threading.Thread(
            target=self._run_producer, daemon=True, name="repro-producer"
        )
        self._thread.start()
        return self

    def _run_producer(self) -> None:
        try:
            for _ in self.producer:
                pass
            self.producer.join()
        except BaseException as exc:  # pragma: no cover - surfaced via raise_producer_error
            self._producer_error = exc

    def consumer(self, config: Optional[ConsumerConfig] = None) -> TensorConsumer:
        """Create a consumer connected to this session's producer."""
        if self._shutdown:
            raise RuntimeError(
                f"session at {self.address!r} has been shut down; its producer is "
                f"stopped and cannot serve new consumers"
            )
        config = config or ConsumerConfig()
        if config.address != self.address:
            # Consumers created through the session always speak to this
            # session's channels, whatever their config said.
            config = dataclasses.replace(config, address=self.address)
        consumer = TensorConsumer(hub=self.hub, pool=self.pool, config=config)
        self._consumers.append(consumer)
        return consumer

    # Alias matching the module-level repro.attach() vocabulary.
    attach = consumer

    def stats(self) -> Dict[str, object]:
        """One snapshot of the whole session: producer, cache, consumers.

        The producer entry carries the epoch-cache counters
        (``stats()["producer"]["cache"]`` — hits, misses, evictions,
        cached_bytes) alongside the pool's two memory buckets, so a
        monitoring loop needs exactly one call.
        """
        return {
            "address": self.address,
            "running": self.is_running,
            "producer": self.producer.stats(),
            "consumers": [consumer.stats() for consumer in self._consumers],
        }

    @property
    def cache_stats(self) -> Dict[str, object]:
        """Shortcut to the producer's epoch-cache counters."""
        return self.producer.stats()["cache"]

    def raise_producer_error(self) -> None:
        """Re-raise any exception the producer thread died with."""
        if self._producer_error is not None:
            raise self._producer_error

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the producer, close consumers and release shared memory.

        Exception-safe: every teardown step runs even if an earlier one
        raises (a consumer ``close()`` failing must not leak the pool or the
        address registration).  The first consumer-close error — and any error
        the producer thread died with — is re-raised at the end.
        """
        if self._shutdown:
            return
        self._shutdown = True
        close_error: Optional[BaseException] = None
        try:
            self.producer.stop()
            for consumer in self._consumers:
                try:
                    consumer.close()
                except BaseException as exc:
                    if close_error is None:
                        close_error = exc
            if self._thread is not None:
                self._thread.join(timeout=timeout)
        finally:
            unregister_session(self.address, self)
            if self._describe is not None:
                self._describe.stop()
            if self._metrics_service is not None:
                self._metrics_service.stop()
            try:
                if not self._embedded:
                    # An embedded session's pool is the broker's shared pool
                    # (scoped to this tenant): its bytes drain through normal
                    # releases above, and other tenants' segments live on.
                    self.pool.shutdown()
            finally:
                # Normally released by the producer thread's join(); covers
                # producers that errored out before reaching it.
                self.producer.close_endpoint()
        self.raise_producer_error()
        if close_error is not None:
            raise close_error

    def __enter__(self) -> "SharedLoaderSession":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __repr__(self) -> str:
        state = "shutdown" if self._shutdown else ("running" if self.is_running else "idle")
        return (
            f"SharedLoaderSession(address={self.address!r}, state={state}, "
            f"consumers={len(self._consumers)})"
        )
