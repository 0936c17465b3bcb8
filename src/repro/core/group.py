"""Sharded producer groups, the attaching side: N member streams, one consumer.

A single :class:`~repro.core.producer.TensorProducer` tops out at one
process's load/stage bandwidth.  ``repro.serve(loader, address, shards=N)``
scales past that the way CoorDL's partitioned cache and DGL's
``DistDataLoader`` do: partition the sample space across N member producers
(:class:`~repro.core.session.SharedLoaderSession` runs them, on channels
``{address}/shard{k}``), keep a single logical stream at the consumer.

:class:`GroupConsumer` is that stream (what ``repro.attach(address)``
returns for a sharded address): one
:class:`~repro.core.consumer.TensorConsumer` per member, merged into a
single batch stream.  ``interleave="index"`` (default) delivers globally
in-order by ``(epoch, batch index, shard)``; ``interleave="any"`` delivers in
arrival order.  Both modes enforce an **epoch barrier**: no batch of epoch
``e+1`` is delivered until every member finished delivering epoch ``e``, and
flow control (per-member acks against per-member ledgers) naturally bounds
how far fast members can run ahead.

:func:`attach_address` is the remote path of ``repro.attach``: it asks the
serving side's ``{address}/group`` describe channel (or a broker's
``{base}/catalog``) how the address is shaped and builds the matching
consumer with :func:`build_consumer`.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import uuid
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import ConsumerConfig
from repro.core.consumer import _DONE, _WAIT, TensorConsumer
from repro.core.manifest import SessionManifest
from repro.messaging import endpoint as endpoints
from repro.messaging.errors import MessagingError, TimeoutError_
from repro.messaging.sockets import request_once
from repro.tensor.tensor import Tensor

__all__ = [
    "GroupConsumer",
    "attach_address",
    "build_consumer",
    "catalog_resolve",
    "describe_address",
    "member_address",
]

#: How long a remote attach waits for a describe reply before assuming the
#: address is served by a plain (single-producer, possibly pre-describe)
#: endpoint.  In-process attaches never wait: they hit the session directory.
GROUP_DISCOVERY_TIMEOUT = 2.0


def member_address(address: str, shard_index: int) -> str:
    """The channel prefix of one group member behind a logical address."""
    return f"{address}/shard{shard_index}"


def build_consumer(
    hub, pool, address: str, shards: int, config: ConsumerConfig, *, endpoint=None
):
    """The consumer for a session of ``shards`` members served at ``address``.

    A :class:`~repro.core.consumer.TensorConsumer` for one member, a
    :class:`GroupConsumer` (one member consumer per shard, all under one
    consumer id) for more — the one place that looks at the count.  Shared
    by in-process attach (:meth:`SharedLoaderSession.consumer
    <repro.core.session.SharedLoaderSession.consumer>`) and cross-process
    attach (:func:`attach_address`) so the two paths cannot drift in how
    member configs are derived or partially-built consumers are cleaned up.
    ``endpoint`` is the attaching side's live connection: the consumer
    adopts it and releases it in ``close()``.
    """
    consumer_id = config.consumer_id or f"consumer-{uuid.uuid4().hex[:8]}"
    member_configs = [
        dataclasses.replace(config, address=member, consumer_id=consumer_id)
        for member in SessionManifest(address=address, shards=shards).members()
    ]
    if len(member_configs) == 1:
        return TensorConsumer(hub=hub, pool=pool, config=member_configs[0], endpoint=endpoint)
    members: List[TensorConsumer] = []
    try:
        for member_config in member_configs:
            members.append(TensorConsumer(hub=hub, pool=pool, config=member_config))
    except BaseException:
        for member in members:
            try:
                member.close()
            except Exception:
                pass
        raise
    return GroupConsumer(members, interleave=config.interleave, address=address, endpoint=endpoint)


def _ask(hub, address: str, body, timeout: float):
    """One request on a service channel; ``None`` when nothing answers.

    On ``inproc://`` an unserved channel fails fast (the push raises); over
    a TCP broker it costs the full ``timeout``.
    """
    try:
        return request_once(hub, address, body, timeout=timeout)
    except (MessagingError, OSError):
        return None


def describe_address(hub, address: str, timeout: float = GROUP_DISCOVERY_TIMEOUT):
    """Ask the serving side how ``address`` is shaped (shards, members).

    Returns the manifest dict, or ``None`` when nothing answers — a plain
    producer without a session, or a pre-describe server.
    """
    return _ask(hub, f"{address}/group", {"op": "describe"}, timeout)


def catalog_resolve(
    hub,
    base_address: str,
    dataset: str,
    *,
    consumer_id: Optional[str] = None,
    timeout: float = GROUP_DISCOVERY_TIMEOUT,
):
    """Resolve ``dataset`` through a broker's ``{base_address}/catalog`` channel.

    Sends a ``subscribe`` request — which also marks the dataset active for
    idle-eviction purposes and spins up lazily registered datasets — and
    returns the manifest dict, or ``None`` when no catalog answers (the
    address is not served by a :class:`~repro.broker.DatasetBroker`).
    """
    reply = _ask(
        hub,
        f"{base_address}/catalog",
        {"op": "subscribe", "dataset": dataset, "consumer_id": consumer_id},
        timeout,
    )
    manifest = reply.get("manifest") if reply and reply.get("ok") else None
    return manifest if isinstance(manifest, dict) else None


class GroupConsumer:
    """A single logical batch stream merged from N member consumers.

    Iterating yields plain batch dicts, exactly like a
    :class:`~repro.core.consumer.TensorConsumer` — training code cannot tell
    a sharded address from a plain one.  Internally each member stream is
    consumed through :meth:`TensorConsumer.iter_batches`, so acknowledgement
    timing (ack after the training loop moves past a batch) and therefore
    flow control are identical per member.

    Admission is synchronised before the first batch: every member reports
    its admitted epoch and the merge starts at the latest one, acknowledging
    (not training on) any earlier batches a faster member already granted —
    a group never trains on a partial epoch.
    """

    def __init__(
        self,
        members: List[TensorConsumer],
        *,
        interleave: str = "index",
        address: Optional[str] = None,
        endpoint: Optional["endpoints.Endpoint"] = None,
    ) -> None:
        if not members:
            raise ValueError("a group consumer needs at least one member")
        if interleave not in ("index", "any"):
            raise ValueError(f"interleave must be 'index' or 'any', got {interleave!r}")
        self.members = list(members)
        self.interleave = interleave
        self.address = address
        self.consumer_id = members[0].consumer_id
        self._endpoint = endpoint
        self._closed = False

    # ------------------------------------------------------------------ iteration
    def _sync_admission(self) -> int:
        """Wait for every member's registration; start at the latest epoch.

        A member whose producer already shut down (stopped before this
        consumer was admitted — group churn) is tolerated: its stream simply
        ends immediately and the merge proceeds with the survivors.
        """
        admitted = []
        for member in self.members:
            try:
                admitted.append(
                    member.wait_until_registered(timeout=member.config.receive_timeout)
                )
            except MessagingError:
                if not member.shutdown_received:
                    raise
        return max(admitted, default=0)

    def __iter__(self) -> Iterator[Dict[str, Tensor]]:
        if self._closed:
            raise RuntimeError("group consumer has been closed")
        min_epoch = self._sync_admission()
        if self.interleave == "any":
            return self._iter_any(min_epoch)
        return self._iter_in_order(min_epoch)

    def _iter_in_order(self, min_epoch: int) -> Iterator[Dict[str, Tensor]]:
        """K-way merge on ``(epoch, batch_index, shard)``.

        One head batch is held per member; refilling a member's head is what
        acknowledges the batch previously taken from it, so at most one
        delivered-but-unacked batch per member rides in the merge (within
        every member's buffer budget).  Because *all* heads are refilled
        before a winner is picked, a member whose next batch belongs to the
        next epoch simply waits unchosen — the epoch barrier — and a member
        that ends (producer stopped, shard exhausted) drops out of the merge
        while the others keep serving.
        """
        iters = [member.iter_batches(min_epoch=min_epoch) for member in self.members]
        heads: List[Optional[Tuple]] = [None] * len(iters)
        finished = [False] * len(iters)
        while True:
            for rank, member_iter in enumerate(iters):
                if heads[rank] is None and not finished[rank]:
                    try:
                        heads[rank] = next(member_iter)
                    except StopIteration:
                        finished[rank] = True
            candidates = [
                (pair[0].epoch, pair[0].batch_index, rank)
                for rank, pair in enumerate(heads)
                if pair is not None
            ]
            if not candidates:
                return
            _, _, rank = min(candidates)
            payload, batch = heads[rank]
            heads[rank] = None
            yield batch

    def _iter_any(self, min_epoch: int) -> Iterator[Dict[str, Tensor]]:
        """Arrival-order merge with an epoch barrier — and no feeder threads.

        Every member's reactor mailbox pokes one shared condition variable;
        this loop drives all members through their non-blocking
        ``_try_take()`` step from the calling thread.  At most one taken,
        not-yet-delivered head rides per member — the batch is acknowledged
        right after the training loop moves past it, preserving
        ack-after-training and each member's flow-control budget.  A head
        from a future epoch parks its member; only when every live member's
        head has crossed the boundary does the epoch advance.

        Only a *cleanly ended* member stream (producer shutdown — group
        churn) is survivable; a member that starves re-raises the same
        receive timeout its own iteration would have, exactly like the
        in-order merge — swallowing it would silently drop a whole shard
        from training.
        """
        wake = threading.Condition()
        # A counter, not an event: a wake-up landing between a fruitless poll
        # round and the wait() below must not be lost.
        state = {"events": 0}

        def on_delivery() -> None:
            with wake:
                state["events"] += 1
                wake.notify_all()

        members = list(self.members)
        for member in members:
            member._begin_iteration(min_epoch)
            member._add_mailbox_listener(on_delivery)

        heads: Dict[int, Tuple] = {}  # rank -> (payload, batch) taken, undelivered
        done: set = set()
        waiting_since: Dict[int, float] = {}  # rank -> start of batch-less stretch
        current_epoch = min_epoch
        try:
            while True:
                with wake:
                    events_before = state["events"]
                progressed = False
                for rank, member in enumerate(members):
                    if rank in done or rank in heads:
                        continue
                    step = member._try_take()
                    if step is _DONE:
                        done.add(rank)
                        waiting_since.pop(rank, None)
                        progressed = True
                    elif step is _WAIT:
                        waiting_since.setdefault(rank, time.monotonic())
                    else:
                        heads[rank] = step
                        waiting_since.pop(rank, None)
                        progressed = True
                ready = [
                    rank for rank, (payload, _batch) in heads.items()
                    if payload.epoch <= current_epoch
                ]
                if ready:
                    for rank in ready:
                        payload, batch = heads.pop(rank)
                        yield batch
                        # The training loop moved past the batch: ack it so
                        # the member's producer can release the hold.
                        members[rank]._passed(payload)
                    continue
                if len(done) == len(members) and not heads:
                    return
                if len(heads) == len(members) - len(done) and heads:
                    # Every live member's head is beyond the barrier: advance.
                    current_epoch = min(
                        payload.epoch for payload, _batch in heads.values()
                    )
                    continue
                if progressed:
                    continue
                # Nothing moved: park until a mailbox delivery (or a member's
                # receive timeout) — the per-member deadline mirrors what its
                # own iter_batches would raise.
                now = time.monotonic()
                wait_timeout = None
                for rank, since in waiting_since.items():
                    member = members[rank]
                    remaining = since + member.config.receive_timeout - now
                    if remaining <= 0:
                        raise TimeoutError_(
                            f"consumer {member.consumer_id!r} received no data for "
                            f"{member.config.receive_timeout}s; is the producer "
                            f"running?"
                        )
                    if wait_timeout is None or remaining < wait_timeout:
                        wait_timeout = remaining
                with wake:
                    if state["events"] == events_before:
                        wake.wait(timeout=wait_timeout)
        finally:
            for rank, (payload, _batch) in heads.items():
                try:
                    members[rank]._passed(payload)
                except Exception:
                    pass
            for member in members:
                member._remove_mailbox_listener(on_delivery)

    # ------------------------------------------------------------------ introspection
    @property
    def batches_consumed(self) -> int:
        return sum(member.batches_consumed for member in self.members)

    @property
    def samples_consumed(self) -> int:
        return sum(member.samples_consumed for member in self.members)

    @property
    def duplicates_dropped(self) -> int:
        return sum(member.duplicates_dropped for member in self.members)

    def __len__(self) -> int:
        """Batches per completed epoch, summed over the member shards."""
        return sum(len(member) for member in self.members)

    def metrics(self) -> Dict[str, object]:
        """Every key of :meth:`TensorConsumer.metrics
        <repro.core.consumer.TensorConsumer.metrics>`, over the whole group,
        plus ``repro.group.*`` and each member's own reading in rank order.

        Counters are summed over members; ``epochs`` is the fewest any member
        has seen (an epoch is the group's once every shard delivered it), and
        ``admitted_epoch`` the latest (the merge starts there), ``None`` until
        every member is admitted.  The ``repro.pool.*`` attach keys are read
        once: members share one pool.
        """
        rows = [member.metrics() for member in self.members]
        admitted = [row["repro.consumer.admitted_epoch"] for row in rows]

        def over(combine, key: str):
            return combine(row[f"repro.consumer.{key}"] for row in rows)

        return {
            **rows[0],  # for its repro.pool.* keys; the rest is replaced below
            "repro.consumer.batches": over(sum, "batches"),
            "repro.consumer.samples": over(sum, "samples"),
            "repro.consumer.epochs": over(min, "epochs"),
            "repro.consumer.duplicates": over(sum, "duplicates"),
            "repro.consumer.buffered": over(sum, "buffered"),
            "repro.consumer.admitted_epoch": None if None in admitted else max(admitted),
            "repro.consumer.mailbox_overflows": over(sum, "mailbox_overflows"),
            "repro.group.interleave": self.interleave,
            "repro.group.shards": len(self.members),
            "repro.group.members": rows,
        }

    # ------------------------------------------------------------------ shutdown
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every member consumer and release the attach endpoint."""
        if self._closed:
            return
        self._closed = True
        for member in self.members:
            try:
                member.close()
            except Exception:
                pass
        if self._endpoint is not None:
            self._endpoint.release()

    def __enter__(self) -> "GroupConsumer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"GroupConsumer({self.consumer_id!r}, shards={len(self.members)}, "
            f"interleave={self.interleave!r}, consumed={self.batches_consumed})"
        )


def attach_address(address: str, config: ConsumerConfig):
    """Attach to ``address`` without an in-process session (the remote path).

    Resolves the address through the transport registry, asks the serving
    side how it is shaped, and returns a :class:`GroupConsumer` for sharded
    addresses or a plain :class:`~repro.core.consumer.TensorConsumer`
    otherwise (including when nothing answers any probe — a bare producer
    served by address).  An address carrying a dataset path
    (``tcp://host:port/imagenet``) is resolved through the broker's catalog
    channel first — which also lazily mounts registered-but-unmounted
    datasets — falling back to the mount's own describe responder.

    The consumer reuses the live connection instead of tearing it down and
    redialling (for ``tcp://`` that would be a second broker handshake plus
    a second attach-by-name pool).
    """
    endpoint = endpoints.connect(address)
    try:
        base, dataset = endpoints.split_dataset_address(address)
        manifest = None
        if dataset is not None:
            manifest = catalog_resolve(
                endpoint.hub, base, dataset, consumer_id=config.consumer_id
            )
        if manifest is None:
            manifest = describe_address(endpoint.hub, address)
        shards = 1
        if manifest is not None:
            try:
                shards = SessionManifest.from_dict(manifest).shards
            except ValueError:
                pass  # a manifest this client cannot read: attach as to a bare producer
        return build_consumer(
            endpoint.hub, endpoint.pool, address, shards, config, endpoint=endpoint
        )
    except BaseException:
        endpoint.release()
        raise
