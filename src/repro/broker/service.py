"""A multi-tenant dataset broker: one data plane, many datasets.

``repro.serve`` binds one address per dataset: every loader gets its own hub
(for ``tcp://`` a listening port) and its own
shared-memory pool.  That is the right shape for one team and one dataset,
but a shared data-loading *service* — the deployment the paper argues for —
hosts many datasets for many training jobs, and per-dataset ports and pools
stop scaling: ports must be handed out, memory budgets fragment, and an idle
dataset keeps its transport alive forever.

:class:`DatasetBroker` binds **one** address and mounts any number of named
datasets behind it::

    broker = repro.broker(address="tcp://0.0.0.0:5555")
    broker.publish("imagenet", imagenet_loader, quota_bytes=2 << 30)
    broker.publish("audio", audio_loader, shards=2)

    # any process, by address alone:
    for batch in repro.attach("tcp://host:5555/imagenet"):
        ...

Every mount is an ordinary :class:`~repro.core.session.SharedLoaderSession`
(of one member, or one per shard) *embedded* into the broker's transport:
its channels hang off the mount path
(``{address}/{name}/data``...), and its producers allocate from a
quota-scoped :class:`~repro.tensor.shared_memory.TenantPool` view of the
broker's one shared-memory pool, so a hungry tenant is rejected at its quota
instead of starving the others.

Attachers resolve names through the **catalog channel** at
``{address}/catalog`` — a generalized describe service answering ``list`` /
``describe`` / ``subscribe`` with :class:`~repro.core.manifest.SessionManifest`
bodies.  ``subscribe`` also marks the dataset active (for idle eviction) and
spins up lazily registered datasets on first use.
"""

from __future__ import annotations

import dataclasses
import os
import re
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.core.config import ConsumerConfig, ProducerConfig
from repro.core.manifest import SessionManifest
from repro.core.session import (
    SharedLoaderSession,
    register_session,
    unregister_session,
)
from repro.messaging import endpoint as endpoints
from repro.messaging.errors import AddressError, AddressNotServedError
from repro.messaging.reactor import TimerHandle, get_reactor
from repro.messaging.sockets import Responder, run_on_services
from repro.obs.metrics import counter
from repro.obs.service import MetricsService

#: Where ``repro.broker()`` puts the plane when the caller does not name one.
DEFAULT_BROKER_ADDRESS = "inproc://dataset-broker"

#: Channel suffixes the transport itself uses; a dataset may not shadow them.
RESERVED_DATASET_NAMES = frozenset(
    {"data", "control", "group", "catalog", "metrics", "reply"}
)

_MOUNTS = counter("repro.broker.mounts")
_EVICTIONS = counter("repro.broker.evictions")
_CATALOG_REQUESTS = counter("repro.broker.catalog_requests")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _validate_dataset_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"invalid dataset name {name!r}: use letters, digits, '.', '_' or '-' "
            f"(the name becomes a path segment of the broker address)"
        )
    if name in RESERVED_DATASET_NAMES or name.startswith("shard"):
        raise ValueError(
            f"dataset name {name!r} is reserved: it would shadow a transport "
            f"channel ({', '.join(sorted(RESERVED_DATASET_NAMES))}, shard*)"
        )
    return name


class _Mount:
    """One dataset's record inside the broker: loader, session, accounting."""

    def __init__(
        self,
        name: str,
        *,
        address: str,
        loader=None,
        loader_factory: Optional[Callable[[], object]] = None,
        config: ProducerConfig,
        shards: int,
        shard_mode: str,
        quota_bytes: Optional[int],
    ) -> None:
        self.name = name
        self.address = address
        self.loader = loader
        self.loader_factory = loader_factory
        self.config = config
        self.shards = shards
        self.shard_mode = shard_mode
        self.quota_bytes = quota_bytes
        self.session: Optional[SharedLoaderSession] = None
        self.state = "registered"  # registered -> mounted -> registered (evicted)
        self.last_active = time.monotonic()
        self.evictions = 0
        self.error: Optional[BaseException] = None

    @property
    def mounted(self) -> bool:
        return self.session is not None


class CatalogService:
    """Answer ``{address}/catalog`` requests: the broker's discovery channel.

    A generalization of the per-session describe responder: instead of one
    manifest, it serves the whole mount table.  Operations (the request is a
    dict with an ``op`` key):

    * ``{"op": "list"}`` → ``{"ok": True, "datasets": [row, ...]}``
    * ``{"op": "describe", "dataset": name}`` → ``{"ok": True, "manifest": {...}}``
    * ``{"op": "subscribe", "dataset": name}`` → same reply as ``describe``,
      but also marks the dataset active and mounts it if it was registered
      lazily — this is what ``repro.attach("tcp://host:port/name")`` sends.

    Errors come back as ``{"ok": False, "error": "..."}`` rather than
    crashing the channel, so a typo'd dataset name fails fast client-side.
    """

    def __init__(self, broker: "DatasetBroker") -> None:
        self._broker = broker
        self._responder = Responder(
            broker.hub, f"{broker.address}/catalog", self._handle, "repro-catalog"
        )

    def _handle(self, payload) -> Dict[str, object]:
        _CATALOG_REQUESTS.inc()
        if not isinstance(payload, dict):
            return {"ok": False, "error": "catalog requests are dicts with an 'op' key"}
        op = payload.get("op")
        if op == "list":
            return {"ok": True, "datasets": self._broker.list_datasets()}
        if op in ("describe", "subscribe"):
            name = payload.get("dataset")
            if not isinstance(name, str):
                return {"ok": False, "error": f"op {op!r} needs a 'dataset' name"}
            try:
                manifest = self._broker.describe(name, touch=(op == "subscribe"))
            except KeyError:
                known = ", ".join(sorted(self._broker.dataset_names())) or "none"
                return {
                    "ok": False,
                    "error": f"unknown dataset {name!r} (mounted: {known})",
                }
            return {"ok": True, "manifest": manifest.to_dict()}
        return {"ok": False, "error": f"unknown catalog op {op!r}"}

    def stop(self) -> None:
        self._responder.stop()


class DatasetBroker:
    """Host many named datasets behind one address, hub and memory pool.

    Parameters
    ----------
    address:
        The plane's base address (``tcp://host:port`` or ``inproc://name``).
        Datasets mount at ``{address}/{name}``.
    idle_ttl:
        Seconds a mounted dataset may sit with zero consumers before it is
        drained (its producers stop, its memory drains back to the pool, its
        catalog entry flips to ``registered``).  A later attach mounts it
        again.  A reactor timer looks twice per ``idle_ttl``, so a dataset
        goes at most half an ``idle_ttl`` late.  ``None`` (default) never
        evicts.
    default_quota_bytes:
        Quota applied to datasets published without an explicit
        ``quota_bytes``; ``None`` leaves them unlimited.
    """

    def __init__(
        self,
        address: Optional[str] = None,
        *,
        idle_ttl: Optional[float] = None,
        default_quota_bytes: Optional[int] = None,
    ) -> None:
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError("idle_ttl must be positive when given")
        address = address or DEFAULT_BROKER_ADDRESS
        base, dataset = endpoints.split_dataset_address(address)
        if dataset is not None:
            raise AddressError(
                f"a broker binds the bare plane address, not a dataset path; "
                f"use {base!r} and publish {dataset!r} onto it"
            )
        self._endpoint = endpoints.bind(address)
        self.address = self._endpoint.address
        self.hub = self._endpoint.hub
        self.pool = self._endpoint.pool
        self.idle_ttl = idle_ttl
        self.default_quota_bytes = default_quota_bytes
        self._lock = threading.RLock()
        self._mounts: Dict[str, _Mount] = {}  #: guarded by _lock
        self._shutdown = False  #: guarded by _lock
        # Read by SharedLoaderSession.at(): a fork()ed child must not resolve
        # names through this parent-process broker object.
        self._owner_pid = os.getpid()
        self._catalog: Optional[CatalogService] = None
        self._metrics_service = None
        self._idle_timer: Optional[TimerHandle] = None
        try:
            register_session(self.address, self)
            self._catalog = CatalogService(self)
            # The plane-wide observability channel on {address}/metrics (see
            # repro.obs.service): one snapshot covers every mounted dataset.
            self._metrics_service = MetricsService(
                self.hub, self.address, stats_fn=self.stats
            )
            if idle_ttl is not None:
                # The sweep takes _lock and runs evict(): both may block, so
                # the reactor's timer only hands it to the service thread.
                self._idle_timer = get_reactor().every(
                    idle_ttl / 2, lambda: run_on_services(self._sweep_idle)
                )
        except BaseException:
            self.shutdown()
            raise

    # ------------------------------------------------------------------ publishing
    def publish(
        self,
        name: str,
        data_loader=None,
        *,
        loader_factory: Optional[Callable[[], object]] = None,
        quota_bytes: Optional[int] = None,
        shards: int = 1,
        shard_mode: str = "strided",
        cache: Optional[str] = None,
        producer_config: Optional[ProducerConfig] = None,
        **config_kwargs,
    ) -> _Mount:
        """Mount ``data_loader`` as dataset ``name`` on this plane.

        Mirrors :func:`repro.serve`'s surface (``shards=``, ``cache=``,
        producer-config kwargs) with two broker twists: ``quota_bytes`` caps
        the dataset's live shared-memory footprint (allocations past it raise
        :class:`~repro.tensor.errors.QuotaExceededError` in its producer),
        and passing ``loader_factory=`` instead of a loader registers the
        dataset **lazily** — it appears in the catalog immediately but costs
        nothing until the first attach mounts it.

        Unlike ``serve`` the default ``epochs`` is ``None``: a mounted
        dataset is a long-lived service, not a one-epoch run.
        """
        _validate_dataset_name(name)
        if (data_loader is None) == (loader_factory is None):
            raise ValueError("pass exactly one of data_loader or loader_factory=")
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if cache is not None:
            if "cache_policy" in config_kwargs:
                raise TypeError("pass either cache= or cache_policy=, not both")
            config_kwargs["cache_policy"] = cache
        if producer_config is not None and config_kwargs:
            raise TypeError(
                "pass either producer_config= or ProducerConfig kwargs, not both"
            )
        mount_address = f"{self.address}/{name}"
        if producer_config is None:
            config_kwargs.setdefault("epochs", None)
            config = ProducerConfig(address=mount_address, **config_kwargs)
        else:
            config = dataclasses.replace(producer_config, address=mount_address)
        if quota_bytes is None:
            quota_bytes = self.default_quota_bytes
        with self._lock:
            self._ensure_open()
            if name in self._mounts:
                raise AddressError(
                    f"dataset {name!r} is already published on {self.address!r}; "
                    f"unpublish it first to replace the loader"
                )
            mount = _Mount(
                name,
                address=mount_address,
                loader=data_loader,
                loader_factory=loader_factory,
                config=config,
                shards=shards,
                shard_mode=shard_mode,
                quota_bytes=quota_bytes,
            )
            self.pool.set_tenant_quota(name, quota_bytes)
            self._mounts[name] = mount
            if data_loader is not None:
                # Factory-registered datasets stay lazy; concrete loaders
                # mount (and start producing) right away, like serve().
                self._mount_locked(mount)
        return mount

    def _mount_locked(self, mount: _Mount) -> None:
        loader = mount.loader
        if loader is None:
            # Re-invoked per mount so an evicted dataset comes back fresh
            # (the factory may rebuild samplers, reopen files, ...).
            loader = mount.loader_factory()
        session = SharedLoaderSession(
            loader,
            address=mount.address,
            shards=mount.shards,
            shard_mode=mount.shard_mode,
            producer_config=mount.config,
            hub=self.hub,
            pool=self.pool.tenant_view(mount.name, mount.quota_bytes),
            embedded=True,
            dataset=mount.name,
        )
        session.start()
        mount.session = session
        mount.state = "mounted"
        mount.error = None
        mount.last_active = time.monotonic()
        _MOUNTS.inc()

    # ------------------------------------------------------------------ resolution
    def dataset_names(self) -> List[str]:
        with self._lock:
            return sorted(self._mounts)

    def list_datasets(self) -> List[Dict[str, object]]:
        """Catalog rows: one summary dict per published dataset."""
        with self._lock:
            return [
                {
                    "name": name,
                    "address": mount.address,
                    "state": mount.state,
                    "shards": mount.shards,
                    "quota_bytes": self.pool.tenant_quota(name),
                    "bytes_used": self.pool.tenant_bytes(name),
                }
                for name, mount in sorted(self._mounts.items())
            ]

    def describe(self, name: str, *, touch: bool = False) -> SessionManifest:
        """The manifest for ``name``; ``touch=True`` also counts as activity
        and mounts a lazily registered (or evicted) dataset."""
        with self._lock:
            mount = self._mounts.get(name)
            if mount is None:
                raise KeyError(name)
            if touch:
                self._ensure_open()
                if not mount.mounted:
                    self._mount_locked(mount)
                mount.last_active = time.monotonic()
            if mount.mounted:
                manifest = mount.session.manifest()
            else:
                manifest = SessionManifest.of(
                    mount.address,
                    shards=mount.shards,
                    shard_mode=mount.shard_mode,
                    dataset=mount.name,
                )
            return dataclasses.replace(manifest, state=mount.state)

    def attach_dataset(self, name: str, config: Optional[ConsumerConfig] = None):
        """An attached consumer for dataset ``name`` (the in-process path).

        ``repro.attach("inproc://plane/audio")`` lands here when the broker
        lives in the calling process; cross-process attaches go through the
        catalog channel instead.  Mounts lazily registered datasets.
        """
        with self._lock:
            self._ensure_open()
            mount = self._mounts.get(name)
            if mount is None:
                known = ", ".join(self.dataset_names()) or "none"
                raise AddressNotServedError(
                    f"no dataset {name!r} on broker {self.address!r} "
                    f"(published: {known})"
                )
            if not mount.mounted:
                self._mount_locked(mount)
            mount.last_active = time.monotonic()
            session = mount.session
        return session.consumer(config or ConsumerConfig())

    # Directory contract: the broker registers at its base address, and a
    # bare attach there cannot pick a dataset for the caller.
    def consumer(self, config: Optional[ConsumerConfig] = None):
        known = ", ".join(self.dataset_names()) or "none"
        raise AddressError(
            f"{self.address!r} is a broker plane, not a dataset; attach to "
            f"{self.address}/<name> (published: {known})"
        )

    attach = consumer

    def session(self, name: str):
        """The live session behind ``name`` (``None`` while unmounted)."""
        with self._lock:
            mount = self._mounts.get(name)
            if mount is None:
                raise KeyError(name)
            return mount.session

    def raise_dataset_error(self, name: str) -> None:
        """Re-raise the error ``name``'s producers died with, if any."""
        with self._lock:
            mount = self._mounts.get(name)
            if mount is None:
                raise KeyError(name)
            session, error = mount.session, mount.error
        if session is not None:
            session.raise_producer_error()
        if error is not None:
            raise error

    # ------------------------------------------------------------------ lifecycle
    def _consumer_count(self, session: SharedLoaderSession) -> int:
        return sum(len(member.active_consumer_ids()) for member in session.members)

    def _sweep_idle(self) -> None:
        """Service thread, every ``idle_ttl / 2``: evict the idle datasets."""
        now = time.monotonic()
        with self._lock:
            idle = []
            for mount in self._mounts.values():
                if not mount.mounted:
                    continue
                if self._consumer_count(mount.session) > 0:
                    mount.last_active = now
                elif now - mount.last_active >= self.idle_ttl:
                    idle.append(mount.name)
        for name in idle:
            try:
                self.evict(name)
            except KeyError:
                pass  # unpublished while we weren't holding the lock

    def evict(self, name: str, timeout: float = 10.0) -> int:
        """Drain dataset ``name`` back to ``registered``; returns leaked bytes.

        Its producers stop, consumers close, its shared-memory charge drains
        back to the pool (the return value is whatever was still charged
        afterwards — 0 in a clean eviction) and its free slabs are unlinked.
        The mount record stays: the next attach mounts the dataset again.
        """
        with self._lock:
            mount = self._mounts.get(name)
            if mount is None:
                raise KeyError(name)
            session = mount.session
            if session is not None:
                mount.state = "evicting"
        if session is not None:
            try:
                session.shutdown(timeout=timeout)
            except BaseException as exc:
                # An embedded shutdown never touches the shared pool; a raise
                # here is the producer's own death (e.g. over quota), worth
                # keeping for raise_dataset_error but not worth failing the
                # idle sweep over.
                mount.error = exc
            # The tenant view unlinks the dataset's free slabs (and any
            # segment it still has live, once that frees).
            session.pool.shutdown()
            # Only flip to registered once the drain is complete, so an
            # attacher that sees "registered" never reaches the dying
            # session through the directory.
            with self._lock:
                if mount.session is session:
                    mount.session = None
                    mount.state = "registered"
                    mount.evictions += 1
                    _EVICTIONS.inc()
        return self.pool.tenant_bytes(name)

    def unpublish(self, name: str, timeout: float = 10.0) -> None:
        """Evict ``name`` and drop it from the catalog and quota table."""
        self.evict(name, timeout=timeout)
        with self._lock:
            self._mounts.pop(name, None)
        self.pool.drop_tenant(name)

    def stats(self) -> Dict[str, object]:
        """Per-dataset accounting plus the shared pool's buckets.

        Each dataset row carries its live shared-memory charge
        (``bytes_used``) against its ``quota_bytes``; after an eviction or
        :meth:`shutdown` the rows drain to zero — a non-zero residue means a
        consumer is still holding payload references.
        """
        with self._lock:
            rows = {}
            for name, mount in self._mounts.items():
                rows[name] = {
                    "address": mount.address,
                    "state": mount.state,
                    "shards": mount.shards,
                    "quota_bytes": self.pool.tenant_quota(name),
                    "bytes_used": self.pool.tenant_bytes(name),
                    "consumers": (
                        self._consumer_count(mount.session) if mount.mounted else 0
                    ),
                    "evictions": mount.evictions,
                    "error": repr(mount.error) if mount.error is not None else None,
                }
            return {
                "address": self.address,
                "datasets": rows,
                "pool": {
                    "bytes_in_flight": self.pool.bytes_in_flight,
                    "cached_bytes": self.pool.cached_bytes,
                    "peak_bytes": self.pool.peak_bytes,
                    # Free slabs are charged to no quota (a dataset's quota
                    # bounds its *live* bytes) and only ever recycled by the
                    # dataset that freed them.  Eviction unlinks a dataset's
                    # free slabs; shutdown drains the rest to zero.
                    "free_bytes": self.pool.free_bytes,
                },
            }

    def _ensure_open(self) -> None:
        # _lock is reentrant, so callers that already hold it can still ask.
        with self._lock:
            shut = self._shutdown
        if shut:
            raise RuntimeError(
                f"broker at {self.address!r} has been shut down; "
                f"create a new broker to serve again"
            )

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain every dataset, stop the catalog, release transport and pool."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            names = sorted(self._mounts)
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        for name in names:
            try:
                self.evict(name, timeout=timeout)
            except KeyError:
                pass
        if self._catalog is not None:
            self._catalog.stop()
        if self._metrics_service is not None:
            self._metrics_service.stop()
        unregister_session(self.address, self)
        try:
            self.pool.shutdown()
        finally:
            self._endpoint.release()

    def __enter__(self) -> "DatasetBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        with self._lock:
            mounted = sum(1 for mount in self._mounts.values() if mount.mounted)
            total = len(self._mounts)
            state = "shutdown" if self._shutdown else "open"
        return (
            f"DatasetBroker(address={self.address!r}, datasets={total}, "
            f"mounted={mounted}, state={state})"
        )
