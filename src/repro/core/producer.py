"""The TensorSocket producer: one data-loading pipeline serving many trainers.

The producer is the *connection and flow-control shell* around an
:class:`~repro.core.epoch_runner.EpochRunner`.  The runner owns the nested
loader, the staging pipeline, flexible batching and the epoch cache; the
paper's connection mechanisms — consumer registration and heartbeats, flow
control through the consumer batch buffer, rubberbanding for late joiners,
and the acknowledgement ledger that releases shared memory once every
consumer has acknowledged a batch (Figure 4, steps 3 and 6) — are decided by
a :class:`~repro.core.protocol.ProducerProtocol`.  The producer is that
core's driver: it reads the clock, feeds the core what arrives on the control
inbox, and does the hub sends and pool ``retain``/``release`` for the
names the core returns.

It is exposed as an iterator over the nested loader, exactly like the paper's
``producer.py`` example::

    producer = TensorProducer(loader, hub=hub, pool=pool, config=ProducerConfig(epochs=2))
    for _ in producer:      # drives loading, publishing and acknowledgements
        pass
    producer.join()         # drain acks, announce shutdown

A sharded session (:mod:`repro.core.session`) instantiates several
producers — each with its own runner over one shard of the dataset — behind a
single logical address; nothing in this class is shard-aware.  Nor does it
resolve addresses: the session binds one and hands each member its hub,
pool and channel prefix (``config.address``).
"""

from __future__ import annotations

import math
import time
import uuid
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.cache import BatchCache, CachePolicy, CacheStats
from repro.core.config import ProducerConfig
from repro.core.epoch_runner import EpochRunner, SkipEpoch
from repro.core.protocol import PUBLISH, SKIP_EPOCH, Dropped, Peer, ProducerProtocol, Replay
from repro.core.rubberband import RubberbandPolicy
from repro.messaging.errors import EndpointClosedError, MessagingError, TimeoutError_
from repro.messaging.message import Message, MessageKind
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
_BEATS_RECEIVED = counter("repro.heartbeat.received")
_DETACHES = counter("repro.heartbeat.detaches")


class TensorProducer:
    """A shared data loader server wrapping an ordinary data loader."""

    def __init__(
        self,
        data_loader,
        *,
        hub: Optional[InProcHub] = None,
        config: Optional[ProducerConfig] = None,
        pool: Optional[SharedMemoryPool] = None,
    ) -> None:
        self.loader = data_loader
        self.config = config or ProducerConfig()
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

        # Its epoch length is set by the runner as each epoch opens.
        self.rubberband = RubberbandPolicy(self.config.rubberband_fraction)
        self.protocol = ProducerProtocol(self.config, self.rubberband)
        self.ledger = self.protocol.ledger

        #: stop() calls so far: any ends the loading, one during join() its drain.
        self._stops = 0
        self._shutdown_sent = False

        self.runner = EpochRunner(
            data_loader,
            pool=self.pool,
            config=self.config,
            host=self,
            cache=self.cache,
            identity=self.identity,
        )

        self.payloads_published = 0
        #: ``(epoch, when its send returned)`` of the latest publish.
        self._last_publish: Optional[Tuple[int, float]] = None
        # Bound last: nothing above can fail with the control address taken.
        self._control = self.hub.bind(self.config.control_address, name=self.identity)

    # ------------------------------------------------------------------ registration
    @property
    def address(self) -> str:
        """The channel prefix this producer serves on (its config's address)."""
        return self.config.address

    @property
    def epoch(self) -> int:
        return self.protocol.epoch

    @property
    def epochs_completed(self) -> int:
        """Epochs finished so far (every finished epoch advances ``epoch``)."""
        return self.protocol.epoch

    # Other threads (the services worker, sessions) read the peer table
    # through one-call ``tuple(...)`` snapshots, never by iterating it live.
    @property
    def consumers(self) -> Dict[str, Peer]:
        return {peer.consumer_id: peer for peer in tuple(self.protocol.peers.values())}

    @property
    def batches_loaded(self) -> int:
        """Total batches the runner has staged (producer-lifetime counter)."""
        return self.runner.batches_loaded

    def active_consumer_ids(self) -> List[str]:
        return [peer.consumer_id for peer in tuple(self.protocol.peers.values()) if peer.active]

    def _admit(self, body: Mapping, now: float) -> None:
        batcher = self.runner.batcher
        reply, replays = self.protocol.hello(
            body,
            now,
            self.runner.batches_published_this_epoch,
            batcher.producer_batch_size if batcher is not None else None,
        )
        if "error" not in reply:
            _BEATS_RECEIVED.inc()
        # Tell the consumer which epoch it starts in (or why it may not).
        self._send(MessageKind.REPLY, reply, f"consumer/{reply['consumer_id']}")
        self._send_replays(reply["consumer_id"], replays)

    def _send_replays(self, consumer_id: str, replays: List[Replay]) -> None:
        """Send a rubberbanded consumer the batches it missed (personal topic),
        holding the segments once more where the core took a new waiter.  A
        flexible batch is re-sent with slices planned for the joiner too."""
        for payload, hold in replays:
            if hold:
                for name in payload.segment_names:
                    self.pool.retain(name)
            if payload.slices is not None:
                payload = self.runner.with_slices(payload)
            self._send(MessageKind.BATCH, payload, f"consumer/{consumer_id}")

    def _apply_drops(self, dropped: Iterable[Dropped]) -> None:
        for consumer_id, reason, releases, notice in dropped:
            _CONSUMER_DROPS.inc()
            if reason == "heartbeat timeout":
                _DETACHES.inc()
            self._release(releases)
            if notice is not None:
                # It may still be iterating: told, its next step fails with
                # the reason instead of overrunning its buffer with
                # broadcasts it is no longer paced for.
                self._send(MessageKind.BYE, notice, f"consumer/{consumer_id}")

    def _send(self, kind: MessageKind, body, topic: str) -> None:
        """Publish one message on the data channel."""
        self.hub.publish(
            self.config.data_address,
            Message(topic=topic, kind=kind, sender=self.identity, body=body),
        )

    def _release(self, names: Iterable[str]) -> None:
        for name in names:
            self.pool.release_if_present(name)

    # ------------------------------------------------------------------ control plane
    def _process_control(self, wait_until: Optional[float] = None) -> float:
        """Drain the control inbox (registrations, acks, byes, heartbeats),
        then detach whoever has been silent past the heartbeat timeout.
        Returns the clock reading the messages were handled at.

        With ``wait_until`` (a ``time.monotonic`` reading, ``math.inf`` for no
        deadline of the caller's) and nothing queued, first block until a
        message arrives, that deadline or the quietest consumer's heartbeat
        expiry passes, or :meth:`stop` / a closed inbox ends the wait.
        """
        message = self._control.try_receive()
        if message is None and wait_until is not None:
            timeout = min(wait_until, self.protocol.next_expiry) - time.monotonic()
            try:
                message = self._control.receive(
                    timeout=None if timeout == math.inf else max(0.0, timeout)
                )
            except TimeoutError_:
                pass  # a deadline passed; the caller's loop finds out which
            except EndpointClosedError:
                self.stop()
        now = time.monotonic()
        while message is not None:
            self._handle_control_message(message, now)
            message = self._control.try_receive()
        if now >= self.protocol.next_expiry:
            self._apply_drops(self.protocol.expire(now))
        return now

    def _handle_control_message(self, message: Message, now: float) -> None:
        body = message.body or {}
        consumer_id = body.get("consumer_id", message.sender)
        if message.kind is MessageKind.HELLO:
            self._admit(body, now)
            return
        if self.protocol.beat(consumer_id, now):
            _BEATS_RECEIVED.inc()
        if message.kind is MessageKind.ACK:
            self._handle_ack(
                consumer_id,
                (int(body["epoch"]), int(body["batch_index"])),
                trace=body.get("trace"),
            )
        elif message.kind is MessageKind.BYE:
            self._apply_drops(self.protocol.bye(consumer_id, body.get("token")))
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
        for name in self.protocol.ack(consumer_id, key):
            self.pool.release_if_present(name)

    # ------------------------------------------------------------------ epoch-host interface
    # The EpochRunner drives epochs through exactly these members (see
    # repro.core.epoch_runner.EpochHost).

    @property
    def stopped(self) -> bool:
        return self._stops > 0

    def wait_for_capacity(self) -> None:
        """Block until every active consumer can take another batch (the
        core's :meth:`~repro.core.protocol.ProducerProtocol.capacity`)."""
        started = time.monotonic()
        try:
            self._wait_for_capacity()
        finally:
            _CAPACITY_WAIT_SECONDS.inc(time.monotonic() - started)

    def _wait_for_capacity(self) -> None:
        while not self.stopped:
            now = self._process_control()
            verdict, dropped = self.protocol.capacity(now, self.runner.batches_published_this_epoch)
            if verdict == PUBLISH:
                return
            if verdict == SKIP_EPOCH:
                raise SkipEpoch()
            if dropped:
                self._apply_drops(dropped)
                continue
            self._process_control(wait_until=self.protocol.ack_deadline)

    def publish(self, payload: BatchPayload, consumers: List[str]) -> None:
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
        self.hub.publish(
            self.config.data_address,
            Message(
                topic="broadcast", kind=MessageKind.BATCH, sender=self.identity, body=payload
            ),
        )
        self.payloads_published += 1
        _PUBLISHES.inc()
        finished = time.monotonic()
        self._last_publish = (payload.epoch, finished)
        _PUBLISH_SECONDS.inc(finished - started)

    def retain_for_window(self, payload: BatchPayload, batch_index: int) -> bool:
        """Offer the payload to the rubberband replay window (the core's
        :meth:`~repro.core.protocol.ProducerProtocol.keep`)."""
        return self.protocol.keep(payload, batch_index)

    def set_epoch_length(self, batches: int) -> None:
        self.rubberband.set_epoch_length(batches)

    def consumer_batch_sizes(self) -> Dict[str, int]:
        return {
            peer.consumer_id: int(peer.batch_size)
            for peer in tuple(self.protocol.peers.values())
            if peer.active and peer.batch_size
        }

    # ------------------------------------------------------------------ top-level iteration
    def __iter__(self) -> Iterator[int]:
        epoch_limit = self.config.epochs
        while not self.stopped and (epoch_limit is None or self.epoch < epoch_limit):
            self.runner.begin_epoch(self.epoch)
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
        self._release(self.protocol.end_epoch())
        self._send(
            MessageKind.EPOCH_END,
            {"epoch": finished_epoch, "batches": self.runner.batches_published_this_epoch},
            "broadcast",
        )

    # ------------------------------------------------------------------ shutdown
    def stop(self) -> None:
        """Ask the producer to stop after the current batch; any thread.  A
        blocked producer is woken through the inbox it waits on, and one
        already draining in :meth:`join` gives the drain up."""
        self._stops += 1
        try:
            self.hub.push(
                self.config.control_address,
                Message(topic="", kind=MessageKind.SHUTDOWN, sender=self.identity),
            )
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
            self._send(MessageKind.SHUTDOWN, {"epochs": self.epoch}, "broadcast")
            self._shutdown_sent = True
        self._release(self.protocol.drain())
        # Cache holds are distinct from in-flight holds; release them last so
        # both buckets read zero after join() on every exit path.
        if self.cache is not None:
            self.cache.clear()
        self.hub.disconnect(self._control)

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
            "repro.producer.consumers": len(self.protocol.peers),
            "repro.producer.consumer_drops": dict(self.protocol.drops),
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
            f"TensorProducer(epoch={self.epoch}, consumers={len(self.protocol.peers)}, "
            f"published={self.payloads_published})"
        )
