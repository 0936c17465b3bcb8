"""Run a shared loader as an addressable, long-lived service inside this process.

The paper deploys the producer as a long-lived server that trainers reach by
address (Section 3.3.1).  :class:`SharedLoaderSession` is that server: it
binds the session's URI address through the transport registry
(:mod:`repro.messaging.endpoint`), runs one producer loop per member on a
background thread, and registers itself in a process-wide directory so that
consumers in *other* threads can attach with nothing but the address string::

    session = repro.serve(loader, address="inproc://cifar")   # producer side

    consumer = repro.attach("inproc://cifar")                  # any thread
    for batch in consumer:
        ...

A session has N >= 1 **members**.  One member (the default) is the paper's
single producer, serving on the session address itself.  ``shards=N`` splits
the loader into N disjoint shard loaders
(:meth:`~repro.data.dataloader.DataLoader.shard`) and runs one member per
shard — each with its own :class:`~repro.core.epoch_runner.EpochRunner`, ack
ledger and optional epoch cache over *its shard only* — on channels derived
from the session address (``{address}/shard{k}``); every epoch each member
pins its equal-seeded sampler to the same epoch, so the shards cover the
dataset exactly once per epoch.  Either way there is one hub and one
shared-memory pool, and attachers get one stream (:mod:`repro.core.group`).

Serving a ``tcp://`` address makes the same session reachable from other OS
processes: the transport listens behind the address (on the process's
reactor, no thread of its own) and stages batches in posix shared memory, so
``repro.attach(session.address)`` works from a ``multiprocessing.Process``
(or any separate script) unchanged.  Attachers that cannot see the directory
ask ``{address}/group`` how the address is shaped and ``{address}/metrics``
how it is doing; both are answered on the process's one service thread.

An explicit ``hub=`` (and non-URI addresses) keep working for callers that
prefer to wire objects together by hand; in that mode the session binds
nothing and is simply not discoverable by address.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import Dict, List, Optional

from repro.core.config import ConsumerConfig, ProducerConfig
from repro.core.group import build_consumer
from repro.core.manifest import SessionManifest
from repro.core.producer import TensorProducer
from repro.messaging import endpoint as endpoints
from repro.messaging.sockets import Responder
from repro.messaging.transport import InProcHub
from repro.obs.service import MetricsService
from repro.tensor.shared_memory import SharedMemoryPool

# Directory of live sessions keyed by URI address, so repro.attach() can hand
# out consumers without the caller holding the session object.  Brokers
# register here too; every entry answers .consumer(config) / .shutdown().
_SESSIONS_LOCK = threading.Lock()
_SESSIONS: Dict[str, object] = {}  #: guarded by _SESSIONS_LOCK


def register_session(address: str, session) -> None:
    """Put a live session (or broker) in the process-wide directory."""
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


def _member_loaders(data_loader, shards: int, shard_mode: str) -> list:
    """The loader of each member: the loader itself, or its N disjoint shards."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if shards == 1:
        return [data_loader]
    if not hasattr(data_loader, "shard"):
        raise TypeError(
            f"{type(data_loader).__name__} cannot be sharded: it has no .shard() "
            f"(wrap the dataset in repro.data.DataLoader to serve it sharded)"
        )
    loaders = [data_loader.shard(rank, shards, mode=shard_mode) for rank in range(shards)]
    for rank, shard_loader in enumerate(loaders):
        try:
            empty = len(shard_loader) == 0
        except TypeError:
            empty = False  # unsized loaders cannot be validated
        if empty:
            # An empty shard's member would burn through its epoch budget
            # instantly and vanish, wedging later attaches on a member that
            # never admits them.
            raise ValueError(
                f"shard {rank} of {shards} is empty (mode={shard_mode!r}); "
                f"serve with fewer shards"
                + (" or shard_mode='strided'" if shard_mode != "strided" else "")
            )
    return loaders


class SharedLoaderSession:
    """Serve one loader from N >= 1 member producers behind a single address.

    The session makes the one bind-or-adopt decision — ``hub=`` given: adopt
    it (a broker embeds its mounts into its own transport this way);
    otherwise bind the URI address, or wire a private hub for a non-URI one
    — and every member producer rides that hub and pool.  A session that
    bound its address, or is ``embedded`` into a broker that did, is
    discoverable: it sits in the process-wide directory and answers
    ``{address}/group`` and ``{address}/metrics``.
    """

    def __init__(
        self,
        data_loader,
        *,
        address: Optional[str] = None,
        shards: int = 1,
        shard_mode: str = "strided",
        producer_config: Optional[ProducerConfig] = None,
        hub: Optional[InProcHub] = None,
        pool: Optional[SharedMemoryPool] = None,
        embedded: bool = False,
        dataset: Optional[str] = None,
    ) -> None:
        if embedded and (hub is None or pool is None or address is None):
            raise ValueError(
                "an embedded session rides a shared transport: pass hub=, pool= "
                "and address= (the broker owns the bind)"
            )
        config = producer_config or ProducerConfig()
        loaders = _member_loaders(data_loader, shards, shard_mode)
        if config.cache_bytes is not None:
            # The configured budget is the session total: each member caches
            # only its shard, so it gets an equal slice — otherwise a sharded
            # session would silently pin up to shards x cache_bytes.
            config = dataclasses.replace(config, cache_bytes=max(1, config.cache_bytes // shards))
        address = address or config.address
        self._endpoint: Optional[endpoints.Endpoint] = None
        if hub is None and endpoints.is_uri(address):
            self._endpoint = endpoints.bind(address)
            # The transport may have resolved the address (tcp://host:0
            # picked a real port); consumers attach to the resolved one.
            address, hub = self._endpoint.address, self._endpoint.hub
            pool = pool or self._endpoint.pool
        self.address = address
        self.hub = hub if hub is not None else InProcHub()
        self.pool = pool if pool is not None else SharedMemoryPool()
        self.shards = shards
        self._embedded = embedded
        self._manifest = SessionManifest.of(
            address, shards=shards, shard_mode=shard_mode, dataset=dataset
        )
        self.members: List[TensorProducer] = []
        self._services: list = []
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._consumers: list = []  #: guarded by _lock
        self._member_errors: List[BaseException] = []
        self._shutdown = False
        # Read by at(): a fork()ed child must not reuse this process's member
        # threads through the inherited directory.
        self._owner_pid = os.getpid()
        try:
            for loader, member_address in zip(loaders, self._manifest.members()):
                self.members.append(
                    TensorProducer(
                        loader,
                        hub=self.hub,
                        pool=self.pool,
                        config=dataclasses.replace(config, address=member_address),
                    )
                )
            if self._endpoint is not None or embedded:
                # The bind (or the broker's mount path) guarantees the address
                # was free, so this cannot clobber another live session.  A
                # session wired from an explicit hub= never bound the address
                # and stays out of the directory even when it names a URI.
                register_session(address, self)
                # Remote attachers (who cannot see the directory) ask these:
                # how the address is shaped, and how it is doing (see
                # repro.obs.service).  A channel that cannot bind is an error.
                manifest = self._manifest.to_dict()
                describe = Responder(
                    self.hub, f"{address}/group", lambda _: dict(manifest), "repro-describe"
                )
                self._services.append(describe)
                self._services.append(MetricsService(self.hub, address, stats_fn=self.metrics))
        except BaseException:
            self._join_idle_members(timeout=0.1)
            self._release()
            raise

    def manifest(self) -> SessionManifest:
        """This session's shape in the unified describe/catalog schema."""
        return self._manifest

    @property
    def producer(self) -> TensorProducer:
        """The first member — *the* producer of an unsharded session.

        Prefer :attr:`members` / :meth:`metrics` for group-aware callers.
        """
        return self.members[0]

    # -- discovery ---------------------------------------------------------------------
    @classmethod
    def at(cls, address: str) -> Optional["SharedLoaderSession"]:
        """The live session serving ``address`` in this process, if any."""
        with _SESSIONS_LOCK:
            session = _SESSIONS.get(address)
        if session is not None and session._owner_pid != os.getpid():
            # A fork()ed child inherits the parent's directory, but not its
            # producer threads: the entry is stale here.  Attaching must fall
            # through to a real transport connect (e.g. tcp:// back to the
            # parent's broker) instead of a dead in-process hub.
            return None
        return session

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> "SharedLoaderSession":
        """Start every member's producer loop on its own daemon thread."""
        if self._shutdown:
            raise RuntimeError(
                f"session at {self.address!r} has been shut down; "
                f"create a new session to serve again"
            )
        if self._threads:
            raise RuntimeError("session already started")
        self._threads = [
            threading.Thread(
                target=self._run_member,
                args=(member,),
                daemon=True,
                # "repro-producer", or "repro-producer-shard{k}" for a group member.
                name=f"repro-producer{member.address[len(self.address):].replace('/', '-')}",
            )
            for member in self.members
        ]
        for thread in self._threads:
            thread.start()
        return self

    def _run_member(self, member: TensorProducer) -> None:
        try:
            for _ in member:
                pass
            member.join()
        except BaseException as exc:  # surfaced via raise_producer_error
            self._member_errors.append(exc)

    def consumer(self, config: Optional[ConsumerConfig] = None):
        """A consumer attached to every member of this session: a
        :class:`~repro.core.consumer.TensorConsumer`, or a
        :class:`~repro.core.group.GroupConsumer` when there are several.

        Consumers created through the session always speak to this session's
        channels, whatever their config's address said, and are closed with it.
        """
        if self._shutdown:
            raise RuntimeError(
                f"session at {self.address!r} has been shut down; its producers are "
                f"stopped and cannot serve new consumers"
            )
        consumer = build_consumer(
            self.hub, self.pool, self.address, self.shards, config or ConsumerConfig()
        )
        with self._lock:
            # A long-lived session (a broker mount serves epochs=None) hands
            # out consumers for the life of the server: the ones closed since
            # the last attach are forgotten here, not kept until shutdown.
            self._consumers = [held for held in self._consumers if not held.closed]
            self._consumers.append(consumer)
        return consumer

    # -- introspection -----------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """One snapshot of the whole session under the ``repro.*`` namespace.

        The aggregate answers every key of :meth:`TensorProducer.metrics
        <repro.core.producer.TensorProducer.metrics>`: counters and the
        ``repro.cache`` / ``consumer_drops`` dicts are summed across members;
        the pool buckets (``repro.pool.*``) are read once, from the first
        member — members share the pool, so summing would double-count.
        ``repro.group.members`` is each member's own reading in rank order,
        and ``repro.session.consumers`` each consumer the session holds.
        """
        rows = [member.metrics() for member in self.members]

        def over(combine, key: str):
            return combine(row[f"repro.producer.{key}"] for row in rows)

        def summed(key: str) -> Dict[str, int]:
            totals: Dict[str, int] = {}
            for row in rows:
                for name, value in row[key].items():
                    if isinstance(value, (int, float)):
                        totals[name] = totals.get(name, 0) + value
            return totals

        with self._lock:
            consumers = list(self._consumers)
        return {
            **rows[0],  # for its repro.pool.* rows; the rest is replaced below
            "repro.group.shards": self.shards,
            "repro.producer.epoch": over(min, "epoch"),
            "repro.producer.epochs_completed": over(min, "epochs_completed"),
            "repro.producer.batches_loaded": over(sum, "batches_loaded"),
            "repro.producer.publishes": over(sum, "publishes"),
            "repro.producer.pending_batches": over(sum, "pending_batches"),
            "repro.producer.consumers": over(max, "consumers"),
            "repro.producer.consumer_drops": summed("repro.producer.consumer_drops"),
            "repro.cache": summed("repro.cache"),
            "repro.group.members": rows,
            "repro.session.consumers": [consumer.metrics() for consumer in consumers],
        }

    def raise_producer_error(self) -> None:
        """Re-raise the first exception any member's producer thread died with."""
        if self._member_errors:
            raise self._member_errors[0]

    @property
    def is_running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    # -- shutdown ----------------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every member, close consumers and release shared memory.

        Exception-safe: every teardown step runs even if an earlier one
        raises (a consumer ``close()`` failing must not leak the pool or the
        address registration).  The first consumer-close error — and any error
        a member's thread died with — is re-raised at the end.
        """
        if self._shutdown:
            return
        self._shutdown = True
        close_error: Optional[BaseException] = None
        try:
            for member in self.members:
                member.stop()
            with self._lock:
                consumers = list(self._consumers)
            for consumer in consumers:
                try:
                    consumer.close()
                except BaseException as exc:
                    if close_error is None:
                        close_error = exc
            for thread in self._threads:
                thread.join(timeout=timeout)
            self._join_idle_members(timeout=1.0)
        finally:
            self._release()
        self.raise_producer_error()
        if close_error is not None:
            raise close_error

    def _join_idle_members(self, timeout: float) -> None:
        """Run the drain of every member whose own thread is not running it.

        A member's loop ends in ``join()``: acks drained, SHUTDOWN announced,
        window and cache holds returned, channels unbound.  A member that
        was never started, or whose loop died, has not been through it — its
        attached trainers would wait out their whole receive timeout, and on
        an adopted hub ``{member}/control`` would stay bound after the
        session is gone.  ``join()`` is idempotent, so members that finished
        cleanly pass through again at no cost.
        """
        running = [thread.is_alive() for thread in self._threads]
        for member, busy in zip(self.members, running or [False] * len(self.members)):
            if busy:
                continue  # wedged past the join timeout: its state is not ours to touch
            try:
                member.join(timeout=timeout)
            except Exception:
                pass

    def _release(self) -> None:
        """Give back what the constructor took: directory entry, service
        channels, pool, address."""
        unregister_session(self.address, self)
        for service in self._services:
            service.stop()
        try:
            if not self._embedded:
                # An embedded session's pool is the broker's shared pool
                # (scoped to this tenant): its bytes drain through the member
                # joins, and other tenants' segments live on.
                self.pool.shutdown()
        finally:
            if self._endpoint is not None:
                self._endpoint.release()

    def __enter__(self) -> "SharedLoaderSession":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "shutdown" if self._shutdown else ("running" if self.is_running else "idle")
        with self._lock:
            consumers = len(self._consumers)
        return (
            f"SharedLoaderSession(address={self.address!r}, shards={self.shards}, "
            f"state={state}, consumers={consumers})"
        )
