"""The TensorSocket producer: one data-loading pipeline serving many trainers.

The producer is the *connection and flow-control shell* around an
:class:`~repro.core.epoch_runner.EpochRunner`.  The runner owns the nested
loader, the staging pipeline, flexible batching and the epoch cache; the
producer implements the paper's connection mechanisms — consumer registration
and heartbeats, flow control through the consumer batch buffer, rubberbanding
for late joiners, and the acknowledgement ledger that releases shared memory
once every consumer has acknowledged a batch (Figure 4, steps 3 and 6).

It is exposed as an iterator over the nested loader, exactly like the paper's
``producer.py`` example::

    producer = TensorProducer(loader, hub=hub, config=ProducerConfig(epochs=2))
    for _ in producer:      # drives loading, publishing and acknowledgements
        pass
    producer.join()         # drain acks, announce shutdown

A sharded session (:mod:`repro.core.session`) instantiates several
producers — each with its own runner over one shard of the dataset — behind a
single logical address; nothing in this class is shard-aware.
"""

from __future__ import annotations

import dataclasses
import math
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.cache import BatchCache, CachePolicy, CacheStats
from repro.core.ack_ledger import AckLedger
from repro.core.config import ProducerConfig
from repro.core.epoch_runner import EpochRunner, SkipEpoch
from repro.core.rubberband import JoinDecision, RubberbandPolicy
from repro.messaging import endpoint as endpoints
from repro.messaging.errors import EndpointClosedError, MessagingError, TimeoutError_
from repro.messaging.heartbeat import HeartbeatMonitor
from repro.messaging.message import Message, MessageKind
from repro.messaging.sockets import PubSocket, PullSocket, PushSocket
from repro.messaging.transport import InProcHub
from repro.obs import trace as obs_trace
from repro.obs.metrics import counter, histogram
from repro.tensor.payload import BatchPayload
from repro.tensor.shared_memory import SharedMemoryPool

#: Registry instruments (process-wide; see repro.obs.metrics).  Counters with
#: a ``stall.`` segment accumulate seconds and feed the attribution in
#: repro.obs.stall; the rest are volume counters/latency histograms.
_PUBLISHES = counter("repro.producer.publishes")
_ACKS = counter("repro.producer.acks")
_CAPACITY_WAIT_SECONDS = counter("repro.producer.stall.capacity_wait_seconds")
_PUBLISH_SECONDS = counter("repro.producer.stall.publish_seconds")
_EPOCH_SECONDS = histogram("repro.producer.epoch_seconds")
_EPOCH_TURNAROUND_SECONDS = histogram("repro.producer.epoch_turnaround_seconds")
_SPAN_SECONDS = histogram("repro.producer.batch_span_seconds")
_CONSUMER_DROPS = counter("repro.producer.consumer_drops")


@dataclass
class ConsumerState:
    """What the producer knows about one registered consumer."""

    consumer_id: str
    batch_size: Optional[int] = None
    buffer_size: int = 2
    active: bool = True
    admitted_epoch: int = 0
    joined_at: float = field(default_factory=time.monotonic)
    batches_sent: int = 0
    #: Registration token from the consumer's HELLO; lets the producer tell a
    #: retry of the same consumer apart from a different consumer trying to
    #: squat on an id that is already registered.
    token: Optional[str] = None


class TensorProducer:
    """A shared data loader server wrapping an ordinary data loader."""

    def __init__(
        self,
        data_loader,
        *,
        address: Optional[str] = None,
        hub: Optional[InProcHub] = None,
        config: Optional[ProducerConfig] = None,
        pool: Optional[SharedMemoryPool] = None,
    ) -> None:
        self.loader = data_loader
        self.config = config or ProducerConfig()
        if address is not None and address != self.config.address:
            self.config = dataclasses.replace(self.config, address=address)
        # URI addresses resolve hub and pool through the transport registry;
        # explicit hub=/pool= arguments override the endpoint's resources.
        self._endpoint: Optional[endpoints.Endpoint] = None
        if hub is None and endpoints.is_uri(self.config.address):
            self._endpoint = endpoints.bind(self.config.address)
            if self._endpoint.address != self.config.address:
                # The transport resolved the address (tcp://host:0 picked a
                # real port); surface it so consumers can attach to it.
                self.config = dataclasses.replace(self.config, address=self._endpoint.address)
            hub = self._endpoint.hub
            pool = pool or self._endpoint.pool
        try:
            self.hub = hub or InProcHub()
            self.pool = pool or SharedMemoryPool()
            self.identity = f"producer-{uuid.uuid4().hex[:8]}"

            # The epoch cache (repro.cache); None when the policy is "none".
            cache_policy = CachePolicy.parse(self.config.cache_policy)
            self.cache: Optional[BatchCache] = None
            if cache_policy is not CachePolicy.NONE:
                self.cache = BatchCache(
                    self.pool,
                    policy=cache_policy,
                    budget_bytes=self.config.cache_bytes,
                )

            self._pub = PubSocket(self.hub, self.config.data_address, identity=self.identity)
            self._control = PullSocket(self.hub, self.config.control_address, identity=self.identity)
            self._heartbeats = HeartbeatMonitor(detach_timeout=self.config.heartbeat_timeout)
            self.ledger = AckLedger()
            self.rubberband = RubberbandPolicy(self.config.rubberband_fraction)
            try:
                self.rubberband.set_epoch_length(len(data_loader))
            except TypeError:
                pass
        except BaseException:
            # A failure after the bind must not leave the address registered
            # (or the tcp:// broker running) with no owner to release it.
            self.close_endpoint()
            raise

        self._consumers: Dict[str, ConsumerState] = {}
        self.epoch = 0
        #: stop() calls so far: any ends the loading, one during join() its drain.
        self._stops = 0
        self._shutdown_sent = False
        # Rubberband replay window: producer holds keyed by per-epoch index.
        self._window_cache: Dict[int, BatchPayload] = {}

        self.runner = EpochRunner(
            data_loader,
            pool=self.pool,
            config=self.config,
            host=self,
            cache=self.cache,
            identity=self.identity,
        )

        self.payloads_published = 0
        self.epochs_completed = 0
        #: Consumers dropped so far, by reason ("bye", "heartbeat timeout", ...).
        self._drops: Dict[str, int] = {}
        #: ``(epoch, when its send returned)`` of the latest publish.
        self._last_publish: Optional[Tuple[int, float]] = None

    # ------------------------------------------------------------------ registration
    @property
    def address(self) -> str:
        """The address this producer serves (a URI when endpoint-resolved)."""
        return self.config.address

    @property
    def consumers(self) -> Dict[str, ConsumerState]:
        return dict(self._consumers)

    @property
    def batches_loaded(self) -> int:
        """Total batches the runner has staged (producer-lifetime counter)."""
        return self.runner.batches_loaded

    @property
    def _batches_published_this_epoch(self) -> int:
        return self.runner.batches_published_this_epoch

    def active_consumer_ids(self) -> List[str]:
        return [c.consumer_id for c in self._consumers.values() if c.active]

    def _register_consumer(self, body: Mapping) -> None:
        consumer_id = body["consumer_id"]
        token = body.get("token")
        existing = self._consumers.get(consumer_id)
        if existing is not None:
            if existing.token != token:
                # A *different* consumer squatting on a live id would corrupt
                # the ack ledger (two parties acknowledging under one key):
                # reject on its personal topic; the rightful owner filters
                # the reply out by token.
                self._pub.send(
                    MessageKind.REPLY,
                    body={
                        "consumer_id": consumer_id,
                        "token": token,
                        "error": (
                            f"consumer_id {consumer_id!r} is already registered with "
                            f"this producer; choose a unique consumer_id"
                        ),
                    },
                    topic=f"consumer/{consumer_id}",
                )
                return
            # A HELLO retry: re-announce without re-running the join decision.
            self._heartbeats.beat(consumer_id)
            self._pub.send(
                MessageKind.REPLY,
                body={
                    "consumer_id": consumer_id,
                    "token": token,
                    "admitted_epoch": existing.admitted_epoch,
                    "decision": "already-registered",
                    "flexible_batching": self.config.flexible_batching,
                },
                topic=f"consumer/{consumer_id}",
            )
            return
        state = ConsumerState(
            consumer_id=consumer_id,
            batch_size=body.get("batch_size"),
            buffer_size=int(body.get("buffer_size", self.config.buffer_size)),
            token=token,
        )
        published = self._batches_published_this_epoch
        decision = self.rubberband.decide(consumer_id, published) \
            if self.rubberband.batches_per_epoch is not None else (
                JoinDecision.IMMEDIATE if published == 0
                else JoinDecision.WAIT_FOR_NEXT_EPOCH
            )

        if decision is JoinDecision.WAIT_FOR_NEXT_EPOCH:
            state.active = False
            state.admitted_epoch = self.epoch + 1
        else:
            state.active = True
            state.admitted_epoch = self.epoch
        self._consumers[consumer_id] = state
        self._heartbeats.beat(consumer_id)

        # Tell the consumer which epoch it starts in.
        self._pub.send(
            MessageKind.REPLY,
            body={
                "consumer_id": consumer_id,
                "token": token,
                "admitted_epoch": state.admitted_epoch,
                "decision": str(decision),
                "flexible_batching": self.config.flexible_batching,
            },
            topic=f"consumer/{consumer_id}",
        )

        if decision is JoinDecision.CATCH_UP:
            self._replay_window(state)

    def _replay_window(self, state: ConsumerState) -> None:
        """Send the batches a rubberbanded consumer missed (personal topic).

        A hold is taken only when the consumer is genuinely *added* as a
        waiter for the batch; if it already owes an ack for this key the
        message is re-sent (the consumer dedupes) but retaining again would
        leak — the duplicate ack never releases the extra hold.
        """
        for index in sorted(self._window_cache):
            payload = self._window_cache[index]
            key = payload.key()
            record = self.ledger.record_for(key)
            if record is None:
                for name in payload.segment_names:
                    self.pool.retain(name)
                self.ledger.publish(
                    key,
                    [state.consumer_id],
                    segment_names=payload.segment_names,
                    nbytes=payload.tensor_nbytes,
                )
            elif state.consumer_id not in record.waiting_on:
                for name in payload.segment_names:
                    self.pool.retain(name)
                self.ledger.add_waiter(key, state.consumer_id)
            self._pub.send(MessageKind.BATCH, body=payload, topic=f"consumer/{state.consumer_id}")
            state.batches_sent += 1
            self.rubberband.record_replayed(state.consumer_id, 0)  # tracked via acks

    def _drop_consumer(self, consumer_id: str, *, reason: str) -> None:
        state = self._consumers.pop(consumer_id, None)
        if state is None:
            return
        _CONSUMER_DROPS.inc()
        self._drops[reason] = self._drops.get(reason, 0) + 1
        # Release the holds of every batch the consumer still owed an ack for.
        for key in list(self.ledger.pending_keys()):
            record = self.ledger.record_for(key)
            if record is not None and consumer_id in record.waiting_on:
                for name in record.segment_names:
                    self.pool.release_if_present(name)
        self.ledger.drop_consumer(consumer_id)
        self.rubberband.abandon(consumer_id)
        self._heartbeats.forget(consumer_id)

    # ------------------------------------------------------------------ control plane
    def _process_control(self, wait_until: Optional[float] = None) -> None:
        """Drain the control socket (registrations, acks, byes, heartbeats),
        then detach whoever has been silent past the heartbeat timeout.

        With ``wait_until`` (a ``time.monotonic`` reading, ``math.inf`` for no
        deadline of the caller's) and nothing queued, first block until a
        message arrives, that deadline or the quietest consumer's heartbeat
        expiry passes, or :meth:`stop` / a closed inbox ends the wait.
        """
        message = self._control.try_recv()
        if message is None and wait_until is not None:
            timeout = min(wait_until, self._heartbeats.next_expiry) - time.monotonic()
            try:
                message = self._control.recv(
                    timeout=None if timeout == math.inf else max(0.0, timeout)
                )
            except TimeoutError_:
                pass  # a deadline passed; the caller's loop finds out which
            except EndpointClosedError:
                self.stop()
        while message is not None:
            self._handle_control_message(message)
            message = self._control.try_recv()
        if time.monotonic() >= self._heartbeats.next_expiry:
            for consumer_id in self._heartbeats.sweep():
                self._drop_consumer(consumer_id, reason="heartbeat timeout")

    def _handle_control_message(self, message: Message) -> None:
        body = message.body or {}
        consumer_id = body.get("consumer_id", message.sender)
        # Only registered consumers count as live peers (an unconditional beat
        # would track rejected duplicate-id HELLOs and stray senders forever).
        if message.kind is not MessageKind.HELLO and consumer_id in self._consumers:
            self._heartbeats.beat(consumer_id)
        if message.kind is MessageKind.HELLO:
            self._register_consumer(body)
        elif message.kind is MessageKind.ACK:
            self._handle_ack(
                consumer_id,
                (int(body["epoch"]), int(body["batch_index"])),
                trace=body.get("trace"),
            )
        elif message.kind is MessageKind.BYE:
            # A rejected duplicate also says BYE when it closes; its token
            # mismatch must not drop the rightful owner on its behalf.
            state = self._consumers.get(consumer_id)
            token = body.get("token")
            if state is None or token is None or state.token == token:
                self._drop_consumer(consumer_id, reason="bye")
        # HEARTBEAT: the beat above is all.  SHUTDOWN: stop()'s wake-up, done by arriving.

    def _handle_ack(
        self,
        consumer_id: str,
        key: Tuple[int, int],
        trace: Optional[Dict[str, float]] = None,
    ) -> None:
        _ACKS.inc()
        if isinstance(trace, dict):
            # The consumer carried the batch's completed lifecycle trace back
            # in the ACK body; record the full seven-stage span on the
            # producer side so one process (the serving one) holds the
            # end-to-end picture even over tcp://.
            obs_trace.record_span(
                epoch=key[0],
                batch_index=key[1],
                consumer_id=consumer_id,
                stages=trace,
                origin=obs_trace.origin(),
            )
            if "sampled" in trace and "acked" in trace:
                _SPAN_SECONDS.observe(float(trace["acked"]) - float(trace["sampled"]))
        record = self.ledger.record_for(key)
        if record is None or consumer_id not in record.waiting_on:
            self.ledger.acknowledge(consumer_id, key)  # counts the duplicate
            return
        for name in record.segment_names:
            self.pool.release_if_present(name)
        self.ledger.acknowledge(consumer_id, key)
        if self.rubberband.catch_up_for(consumer_id) is not None:
            self.rubberband.record_replayed(consumer_id, 1)

    # ------------------------------------------------------------------ epoch-host interface
    # The EpochRunner drives epochs through exactly these members (see
    # repro.core.epoch_runner.EpochHost).

    @property
    def stopped(self) -> bool:
        return self._stops > 0

    def wait_for_capacity(self) -> None:
        """Block until every active consumer can take another batch.

        Also enforces the paper's pause conditions: no consumers → no
        loading; a rubberbanded consumer catching up → publishing halts.
        """
        started = time.monotonic()
        try:
            self._wait_for_capacity()
        finally:
            _CAPACITY_WAIT_SECONDS.inc(time.monotonic() - started)

    def _wait_for_capacity(self) -> None:
        deadline = time.monotonic() + self.config.heartbeat_timeout * 4
        while not self.stopped:
            self._process_control()
            active = self.active_consumer_ids()
            waiting = [c for c in self._consumers.values() if not c.active]

            if not active:
                if not self.config.wait_for_consumers:
                    return
                if waiting and self._batches_published_this_epoch > 0:
                    # Everyone left mid-epoch and a newcomer is parked for
                    # the next epoch: abandon this epoch so it can start.
                    raise SkipEpoch()
                self._process_control(wait_until=math.inf)
                deadline = time.monotonic() + self.config.heartbeat_timeout * 4
                continue

            buffer_limit = min(
                [self.config.buffer_size]
                + [state.buffer_size for state in self._consumers.values() if state.active]
            )
            capacity_ok = self.ledger.all_have_capacity(active, buffer_limit)
            inflight_cap = self.config.max_inflight_batches
            if inflight_cap is not None and self.ledger.pending_batches >= inflight_cap:
                # Total-footprint bound: even with room in every consumer's
                # buffer, the producer holds publishing until acks drain the
                # ledger below the cap (keeps one dataset's shared-memory use
                # bounded when it shares a pool with other tenants).
                capacity_ok = False
            if capacity_ok and not self.rubberband.halting:
                return
            if time.monotonic() > deadline:
                # A consumer stopped acknowledging but still heartbeats:
                # detach the slowest rather than wedging the shared loader.
                for consumer_id in self.ledger.slowest_consumers(active):
                    self._drop_consumer(consumer_id, reason="ack timeout")
                deadline = time.monotonic() + self.config.heartbeat_timeout * 4
                continue
            self._process_control(wait_until=deadline)

    def publish(
        self, payload: BatchPayload, consumers: List[str], *, topic: str = "broadcast"
    ) -> None:
        started = time.monotonic()
        if self._last_publish is not None and self._last_publish[0] != payload.epoch:
            # The epoch boundary as every trainer feels it: nothing was on
            # its way to them from the last publish of one epoch to here.
            _EPOCH_TURNAROUND_SECONDS.observe(started - self._last_publish[1])
        segment_names = payload.segment_names
        for name in segment_names:
            self.pool.retain(name, count=len(consumers))
        self.ledger.publish(
            payload.key(),
            consumers,
            segment_names=segment_names,
            nbytes=payload.tensor_nbytes,
            published_at=started,
        )
        trace = (
            payload.metadata.get("trace") if isinstance(payload.metadata, dict) else None
        )
        if isinstance(trace, dict):
            # Stamped before the send so the stamp travels with the payload.
            trace["published"] = time.monotonic()
        self._pub.send(MessageKind.BATCH, body=payload, topic=topic)
        for consumer_id in consumers:
            state = self._consumers.get(consumer_id)
            if state is not None:
                state.batches_sent += 1
        self.payloads_published += 1
        _PUBLISHES.inc()
        finished = time.monotonic()
        self._last_publish = (payload.epoch, finished)
        _PUBLISH_SECONDS.inc(finished - started)

    def retain_for_window(self, payload: BatchPayload, batch_index: int) -> bool:
        """Keep the first few batches of an epoch alive for rubberband joiners.

        The latest joiner still admitted (strict "before 2%") has missed at
        most batch ``window - 2``; caching more would pin memory for nothing.
        """
        try:
            window = self.rubberband.window_batches
        except ValueError:
            window = 0
        if self.config.rubberband_fraction > 0 and batch_index + 1 < window:
            self._window_cache[batch_index] = payload
            return True
        return False

    def batch_size_for(self, consumer_id: str) -> Optional[int]:
        state = self._consumers.get(consumer_id)
        return state.batch_size if state is not None else None

    def consumer_batch_sizes(self) -> Dict[str, int]:
        return {
            state.consumer_id: int(state.batch_size)
            for state in self._consumers.values()
            if state.active and state.batch_size
        }

    def _clear_window_cache(self) -> None:
        for payload in self._window_cache.values():
            for name in payload.segment_names:
                self.pool.release_if_present(name)
        self._window_cache.clear()

    # ------------------------------------------------------------------ top-level iteration
    def __iter__(self) -> Iterator[int]:
        epoch_limit = self.config.epochs
        while not self.stopped and (epoch_limit is None or self.epoch < epoch_limit):
            self.runner.begin_epoch(self.epoch)
            self._window_cache.clear()
            epoch_started = time.monotonic()
            try:
                for progress in self.runner.run(self.epoch):
                    yield progress
            except SkipEpoch:
                pass
            _EPOCH_SECONDS.observe(time.monotonic() - epoch_started)
            self._finish_epoch()
        # Iteration complete; callers call join() for cleanup.

    def _finish_epoch(self) -> None:
        finished_epoch = self.epoch
        self._clear_window_cache()
        self._pub.send(
            MessageKind.EPOCH_END,
            body={"epoch": finished_epoch, "batches": self._batches_published_this_epoch},
            topic="broadcast",
        )
        self.epoch += 1
        self.epochs_completed += 1
        self.rubberband.reset_for_new_epoch()
        # Waiting consumers become active at the boundary (Figure 6).
        for state in self._consumers.values():
            if not state.active and state.admitted_epoch <= self.epoch:
                state.active = True

    # ------------------------------------------------------------------ shutdown
    def stop(self) -> None:
        """Ask the producer to stop after the current batch; any thread.  A
        blocked producer is woken through the inbox it waits on, and one
        already draining in :meth:`join` gives the drain up."""
        self._stops += 1
        try:
            PushSocket(self.hub, self.config.control_address).send(MessageKind.SHUTDOWN)
        except MessagingError:
            pass  # already joined: nothing is bound there, nobody is waiting

    def join(self, timeout: float = 10.0) -> None:
        """Drain outstanding acknowledgements and announce shutdown.

        The drain ends with nothing pending, at ``timeout``, or on a
        :meth:`stop` called while it runs (one from before only ended the
        loading: the batches already handed out still get acknowledged).
        """
        deadline = time.monotonic() + timeout
        stops = self._stops
        while self.ledger.pending_batches and self._stops == stops and time.monotonic() < deadline:
            self._process_control(wait_until=deadline)
        if not self._shutdown_sent:
            self._pub.send(MessageKind.SHUTDOWN, body={"epochs": self.epoch}, topic="broadcast")
            self._shutdown_sent = True
        # Whatever is still pending belongs to consumers that vanished; free it.
        for key in list(self.ledger.pending_keys()):
            record = self.ledger.record_for(key)
            if record is None:
                continue
            for consumer_id in list(record.waiting_on):
                for name in record.segment_names:
                    self.pool.release_if_present(name)
                self.ledger.acknowledge(consumer_id, key)
        self._clear_window_cache()
        # Cache holds are distinct from in-flight holds; release them last so
        # both buckets read zero after join() on every exit path.
        if self.cache is not None:
            self.cache.clear()
        self._control.close()
        self._pub.close()
        self.close_endpoint()

    def close_endpoint(self) -> None:
        """Release the bound address so it can be served again (idempotent)."""
        if self._endpoint is not None:
            self._endpoint.release()

    # ------------------------------------------------------------------ introspection
    def metrics(self) -> Dict[str, object]:
        """This producer's state under the canonical registry namespace
        (``repro.producer.*`` / ``repro.pool.*`` / ``repro.cache``).

        Per-instance snapshot: the values are this producer's own counters,
        not the process-wide registry totals (several producers — shard
        members, broker tenants — share one registry but report their own
        rows here).  ``repro.producer.consumer_drops`` counts detached
        consumers by reason (``"bye"``, ``"heartbeat timeout"``,
        ``"ack timeout"``).
        """
        cache_stats = (
            self.cache.stats() if self.cache is not None else CacheStats()
        ).as_dict()
        return {
            "repro.producer.epoch": self.epoch,
            "repro.producer.epochs_completed": self.epochs_completed,
            "repro.producer.batches_loaded": self.batches_loaded,
            "repro.producer.publishes": self.payloads_published,
            "repro.producer.pending_batches": self.ledger.pending_batches,
            "repro.producer.consumers": len(self._consumers),
            "repro.producer.consumer_drops": dict(self._drops),
            "repro.pool.bytes_in_flight": self.pool.bytes_in_flight,
            "repro.pool.cached_bytes": self.pool.cached_bytes,
            "repro.pool.peak_bytes": self.pool.peak_bytes,
            "repro.pool.free_bytes": self.pool.free_bytes,
            "repro.pool.segment_reuse_hits": self.pool.segment_reuse_hits,
            "repro.pool.segment_reuse_misses": self.pool.segment_reuse_misses,
            "repro.pool.mmap_total": self.pool.mmap_total,
            "repro.cache": cache_stats,
        }

    def __repr__(self) -> str:
        return (
            f"TensorProducer(epoch={self.epoch}, consumers={len(self._consumers)}, "
            f"published={self.payloads_published})"
        )
