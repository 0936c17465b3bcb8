"""The ergonomic top-level API: ``repro.serve()`` and ``repro.attach()``.

These two calls make the paper's "one-line swap" literal.  A training script
that used to build its own loader::

    loader = DataLoader(dataset, batch_size=32, transform=pipeline)
    for batch in loader: ...

becomes a consumer of a shared loader served at an address::

    repro.serve(loader, address="inproc://cifar")          # once, anywhere

    for batch in repro.attach("inproc://cifar"): ...       # each trainer

Addresses are URIs resolved through the pluggable transport registry in
:mod:`repro.messaging.endpoint`.  ``inproc://`` serves threads of this
process; ``tcp://`` serves **other OS processes** — serving opens a listening
hub on the process's reactor plus a posix shared-memory pool (``tcp://host:0``
auto-assigns a port, surfaced via ``session.address``), and attaching dials
the hub while tensors stay zero-copy in shared memory.  New schemes register
the same way.
Nobody passes hub or pool objects around: ``serve`` binds the address,
``attach`` resolves it — from the live-session directory when the producer
runs in this process, falling back to a transport connect otherwise.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.config import ConsumerConfig, ProducerConfig
from repro.core.group import attach_address
from repro.core.session import SharedLoaderSession, live_sessions
from repro.messaging.endpoint import is_uri, parse_address

#: Where ``serve()`` puts a loader when the caller does not name an address.
DEFAULT_ADDRESS = "inproc://shared-loader"


def _resolve_address_and_config(address, config, config_param, config_cls, kwargs):
    """Shared serve()/attach() plumbing: address fallback and config merge.

    Falls back to the config's address (when it is a URI) then to
    :data:`DEFAULT_ADDRESS`, validates the address early (catching typos like
    ``inproc:/x`` before serving silently), and builds a config from kwargs
    unless an explicit one was passed.
    """
    if address is None:
        if config is not None and is_uri(config.address):
            address = config.address
        else:
            address = DEFAULT_ADDRESS
    parse_address(address)
    if config is not None and kwargs:
        raise TypeError(
            f"pass either {config_param}= or {config_cls.__name__} kwargs, not both"
        )
    if config is None:
        config = config_cls(address=address, **kwargs)
    return address, config


def serve(
    data_loader,
    *,
    address: Optional[str] = None,
    producer_config: Optional[ProducerConfig] = None,
    start: bool = True,
    cache: Optional[str] = None,
    shards: int = 1,
    shard_mode: str = "strided",
    **config_kwargs,
):
    """Serve ``data_loader`` at ``address`` and return the running session.

    When ``address`` is omitted it falls back to the address inside an
    explicitly passed ``producer_config`` (if it is a URI), then to
    :data:`DEFAULT_ADDRESS`.  Keyword arguments other than
    ``producer_config``/``start``/``cache``/``shards``/``shard_mode`` are
    forwarded to :class:`~repro.core.config.ProducerConfig` (``epochs=2``,
    ``flexible_batching=True``, ...).  Pass ``start=False`` to bind the
    address — making it attachable — without starting the producer loop yet
    (useful when consumers should all register before the first batch).

    ``cache`` switches on the epoch cache (:mod:`repro.cache`):
    ``serve(loader, cache="all")`` retains every staged batch so epoch 1+ is
    republished straight from shared memory; ``cache="lru"`` or ``"mru"``
    with ``cache_bytes=<budget>`` keeps a CoorDL-style partial cache.  It is
    sugar for ``cache_policy=`` and the session's cache counters are at
    ``session.metrics()["repro.cache"]``.

    ``shards=N`` (N > 1) serves the loader from a **sharded producer group**:
    the session runs N member producers, each loading a disjoint shard of
    the sample space, behind this one address — ``repro.attach`` then
    returns a merged stream covering the whole dataset.  ``shard_mode`` picks
    the partitioning (``"strided"`` or ``"contiguous"``); ``cache`` composes
    — each member caches only its shard, and a ``cache_bytes`` budget is the
    group total (split evenly across members).

    For ``tcp://host:0`` addresses the OS assigns the port at bind time; read
    the resolved address back from ``session.address`` and hand it to the
    consumer processes.
    """
    if cache is not None:
        if "cache_policy" in config_kwargs:
            raise TypeError("pass either cache= or cache_policy=, not both")
        config_kwargs["cache_policy"] = cache
    address, producer_config = _resolve_address_and_config(
        address, producer_config, "producer_config", ProducerConfig, config_kwargs
    )
    session = SharedLoaderSession(
        data_loader,
        address=address,
        shards=shards,
        shard_mode=shard_mode,
        producer_config=producer_config,
    )
    if start:
        session.start()
    return session


def attach(
    address: Optional[str] = None,
    *,
    consumer_config: Optional[ConsumerConfig] = None,
    **config_kwargs,
):
    """Attach to the shared loader served at ``address``.

    Returns an iterable of batches, drop-in for a data loader: a
    :class:`~repro.core.consumer.TensorConsumer` for a plain address, or a
    :class:`~repro.core.group.GroupConsumer` (same iteration surface) when
    the address is served by a sharded producer group — training code does
    not need to know which.  Keyword arguments other than ``consumer_config``
    are forwarded to :class:`~repro.core.config.ConsumerConfig`
    (``consumer_id=...``, ``batch_size=...``, ``max_epochs=...``,
    ``interleave="any"`` for arrival-order sharded delivery).

    When the serving session lives in this process the consumer is created
    through it (so the session also closes it at shutdown); otherwise the
    address is resolved through the transport registry and the serving
    side's describe responder decides the consumer shape.  When ``address``
    is omitted it falls back to the address inside an explicitly passed
    ``consumer_config`` (if it is a URI), then to :data:`DEFAULT_ADDRESS`.
    """
    address, consumer_config = _resolve_address_and_config(
        address, consumer_config, "consumer_config", ConsumerConfig, config_kwargs
    )
    session = SharedLoaderSession.at(address)
    if session is not None:
        return session.consumer(consumer_config)
    resolved = _resolve_broker_dataset(address)
    if resolved is not None:
        plane, dataset = resolved
        return plane.attach_dataset(dataset, consumer_config)
    return attach_address(address, consumer_config)


def _resolve_broker_dataset(address: str):
    """Match ``address`` against an in-process broker's dataset namespace.

    A broker-mounted dataset registers its session under the full mount
    address, so the exact-match lookup in :func:`attach` normally wins; this
    prefix scan is what makes *lazily registered* (or evicted) datasets
    attachable by address — the broker mounts them on the way through.  Only
    objects exposing ``attach_dataset`` (brokers) participate, so plain
    sessions whose address happens to prefix another's are never matched.
    """
    for base, candidate in live_sessions().items():
        if not hasattr(candidate, "attach_dataset"):
            continue
        if address.startswith(f"{base}/"):
            if candidate._owner_pid != os.getpid():  # inherited via fork(): stale
                continue
            return candidate, address[len(base) + 1 :]
    return None


def broker(
    address: Optional[str] = None,
    *,
    idle_ttl: Optional[float] = None,
    default_quota_bytes: Optional[int] = None,
):
    """Open a multi-tenant :class:`~repro.broker.DatasetBroker` at ``address``.

    One bound address (and one shared-memory pool) hosting many named
    datasets::

        plane = repro.broker("tcp://0.0.0.0:5555")
        plane.publish("imagenet", imagenet_loader, quota_bytes=2 << 30)
        plane.publish("audio", audio_loader, shards=2)

        # any process:
        for batch in repro.attach("tcp://host:5555/imagenet"):
            ...

    ``idle_ttl`` evicts datasets with no consumers for that many seconds
    (they remount on the next attach); ``default_quota_bytes`` caps each
    dataset's live shared-memory footprint unless its ``publish`` overrides
    it.  When ``address`` is omitted the plane binds
    :data:`repro.broker.DEFAULT_BROKER_ADDRESS`.
    """
    from repro.broker.service import DatasetBroker

    return DatasetBroker(
        address,
        idle_ttl=idle_ttl,
        default_quota_bytes=default_quota_bytes,
    )
