"""The TensorSocket consumer: the training process's view of the shared loader.

A consumer replaces the data loader inside a training script with a one-line
swap (paper Figure 3c)::

    consumer = TensorConsumer(hub=hub, pool=pool)
    for batch in consumer:
        ...  # training iteration on batch["inputs"], batch["targets"]

Internally the consumer registers with the producer (HELLO), receives pointer
payloads over the PUB/SUB data channel, rebuilds tensors zero-copy (step 4 in
Figure 4), buffers up to N pending batches, acknowledges each batch once the
training loop moves past it (step 6), emits heartbeats, and departs cleanly
with BYE.

Message reception rides the per-process :class:`~repro.messaging.reactor.
Reactor` rather than a private blocking receive loop: the reactor
fans the data channel out to this consumer's **mailbox** (a bounded queue)
and runs its heartbeat/registration-retry timer, so attaching K consumers
costs O(1) threads, not O(K).  The reactor thread does only eager signal
work (the registration REPLY, SHUTDOWN) — everything that affects epoch
accounting, admission, dedupe, and acknowledgement happens on the training
thread, in arrival order, exactly as the old pump did.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
import uuid
from typing import Dict, Iterator, Optional, Tuple

from repro.core.batch_buffer import BatchBuffer
from repro.core.config import ConsumerConfig
from repro.messaging import endpoint as endpoints
from repro.messaging.errors import DuplicateConsumerError, MessagingError, TimeoutError_
from repro.messaging.heartbeat import HeartbeatSender
from repro.messaging.message import Message, MessageKind
from repro.messaging.reactor import get_reactor, reactor_only
from repro.messaging.sockets import PushSocket
from repro.messaging.transport import InProcHub
from repro.obs import trace as obs_trace
from repro.obs.metrics import counter, histogram
from repro.tensor.payload import BatchPayload
from repro.tensor.shared_memory import SharedMemoryPool
from repro.tensor.tensor import Tensor

#: Registry instruments (process-wide; see repro.obs.metrics).  The ``stall.``
#: counters accumulate seconds and feed repro.obs.stall's attribution.
_BATCHES = counter("repro.consumer.batches")
_SAMPLES = counter("repro.consumer.samples")
_DUPLICATES = counter("repro.consumer.duplicates")
_OVERFLOWS = counter("repro.consumer.mailbox_overflows")
_WAIT_SECONDS = counter("repro.consumer.stall.wait_seconds")
_TRAIN_SECONDS = counter("repro.consumer.stall.train_seconds")
_ACK_SECONDS = counter("repro.consumer.stall.ack_seconds")
_LOOP_SECONDS = counter("repro.consumer.loop_seconds")
_LATENCY = histogram("repro.consumer.batch_latency_seconds")


class _ShutdownReceived(Exception):
    """Internal: the producer announced shutdown."""


#: Sentinels returned by the non-blocking :meth:`TensorConsumer._try_take`
#: step; the group merge drives members through it without feeder threads.
_WAIT = object()
_DONE = object()

#: Mailbox bound.  Flow control (the producer's outstanding-ack ledger) keeps
#: live consumers far below this; it only trips when a training thread has
#: wedged, in which case dropping beats unbounded growth.
_MAILBOX_LIMIT = 4096


class TensorConsumer:
    """An iterable over batches served by a :class:`TensorProducer`."""

    def __init__(
        self,
        address: Optional[str] = None,
        *,
        hub: Optional[InProcHub] = None,
        pool: Optional[SharedMemoryPool] = None,
        config: Optional[ConsumerConfig] = None,
    ) -> None:
        self.config = config or ConsumerConfig()
        if address is not None and address != self.config.address:
            self.config = dataclasses.replace(self.config, address=address)
        # URI addresses resolve hub and pool through the transport registry;
        # explicit hub=/pool= arguments override the endpoint's resources.
        self._endpoint: Optional[endpoints.Endpoint] = None
        if hub is None:
            if not endpoints.is_uri(self.config.address):
                raise MessagingError(
                    "TensorConsumer needs either an explicit hub= or a URI address "
                    f"(e.g. 'inproc://demo'); got address={self.config.address!r}"
                )
            self._endpoint = endpoints.connect(self.config.address)
            hub = self._endpoint.hub
            pool = pool or self._endpoint.pool
        self.consumer_id = self.config.consumer_id or f"consumer-{uuid.uuid4().hex[:8]}"
        self.pool = pool
        self.hub = hub
        #: Unique per consumer *instance*: lets the producer tell a HELLO retry
        #: from this consumer apart from another consumer reusing its id.
        self._token = uuid.uuid4().hex

        self._buffer = BatchBuffer(self.config.buffer_size)
        self._admitted_epoch: Optional[int] = None
        # Group sessions raise the effective start epoch above the admitted
        # one (iter_batches(min_epoch=...)); epochs below it are skipped, so
        # they must not count toward max_epochs either.
        self._min_epoch: Optional[int] = None
        self._epochs_ended = 0
        self._closed = False
        self._shutdown = False
        # Iteration stops only when the training thread *processes* the
        # SHUTDOWN in arrival order; the eager ``_shutdown`` flag above is a
        # signal for shutdown_received / wait_until_registered, and must not
        # cut off batches that arrived before the SHUTDOWN.
        self._shutdown_processed = False
        self._registered = False
        # Reactor-thread view of the registration handshake.  The admitted
        # epoch used for *filtering* stays trainer-side (``_admitted_epoch``,
        # set when the REPLY is processed in order); this eager copy only
        # feeds wait_until_registered so it need not drain the mailbox.
        self._reactor_admitted: Optional[int] = None
        self._registration_error: Optional[BaseException] = None
        self._registered_event = threading.Event()
        # Inbound messages, reactor -> training thread, in arrival order.
        self._mailbox: "queue.Queue[Message]" = queue.Queue(maxsize=_MAILBOX_LIMIT)
        self.mailbox_overflows = 0
        # Callbacks poked on every mailbox put (the group merge parks on one
        # condition across all members instead of one thread per member).
        self._wakeups: list = []
        # Delivery dedupe: a consumer that subscribed before its HELLO was
        # processed can receive an early-epoch batch twice — once on
        # ``broadcast`` and again via the rubberband replay on its personal
        # topic (same epoch, so the admitted-epoch filter passes both).  Keys
        # seen this epoch are remembered so the duplicate is acknowledged
        # (returning the producer's replay hold) but never trained on.
        self._delivered_keys: set = set()
        # Keys this consumer has acknowledged; decides how a duplicate is
        # handled (ack it to release the producer's re-send hold vs. drop it
        # silently while the original still owes the ack).
        self._acked_keys: set = set()
        # Batches consumed per epoch, for __len__ (batches in the last
        # *completed* epoch, the sized-loader contract).
        self._consumed_per_epoch: Dict[int, int] = {}
        self._last_completed_epoch: Optional[int] = None
        # Per-batch lifecycle traces keyed by (epoch, batch_index): the
        # producer-side stamps arrive in payload metadata; this consumer's
        # delivered/trained stamps are added here and the completed trace
        # rides back to the producer in the ACK body.  Touched only from the
        # training thread; entries are popped at acknowledgement time, so the
        # table is bounded by the buffer size.
        self._traces: Dict[Tuple[int, int], Dict[str, float]] = {}

        # Statistics surfaced by tests and experiments.
        self.batches_consumed = 0
        self.epochs_seen = 0
        self.samples_consumed = 0
        self.duplicates_dropped = 0

        self._reactor = get_reactor()
        self._subscription = None
        self._timer = None
        try:
            self._subscription = self._reactor.subscribe(
                hub,
                self.config.data_address,
                ("broadcast", f"consumer/{self.consumer_id}"),
                self._on_reactor_message,
            )
            self._push = PushSocket(hub, self.config.control_address, identity=self.consumer_id)
            self._heartbeat = HeartbeatSender(
                self._push, self.consumer_id, interval=self.config.heartbeat_interval
            )
            # Heartbeats and registration retries have one owner, the reactor's
            # timer wheel: no heartbeat thread, none sent from the training loop.
            self._timer = self._reactor.every(
                self.config.heartbeat_interval, self._on_reactor_timer
            )
        except BaseException:
            # A socket failing mid-construction (e.g. the broker died after
            # the endpoint connected) must not leak the endpoint's client
            # connections, subscriptions, or attach pool.
            if self._timer is not None:
                self._timer.cancel()
            if self._subscription is not None:
                self._subscription.unsubscribe()
            if self._endpoint is not None:
                self._endpoint.release()
            raise

        self._register()

    # ------------------------------------------------------------------ registration
    def _register(self) -> None:
        """Announce this consumer to the producer.

        The producer may not be up yet (consumers can be launched first, the
        paper's always-available-loading scenario in reverse); in that case the
        registration is retried from the reactor's timer until it succeeds.
        """
        try:
            self._push.send(
                MessageKind.HELLO,
                body={
                    "consumer_id": self.consumer_id,
                    "token": self._token,
                    "batch_size": self.config.batch_size,
                    "buffer_size": self.config.buffer_size,
                },
            )
            self._heartbeat.send()
            self._registered = True
        except MessagingError:
            self._registered = False

    @property
    def admitted_epoch(self) -> Optional[int]:
        if self._admitted_epoch is not None:
            return self._admitted_epoch
        return self._reactor_admitted

    @property
    def is_admitted(self) -> bool:
        return self.admitted_epoch is not None

    @property
    def shutdown_received(self) -> bool:
        """Whether the producer has announced shutdown to this consumer."""
        return self._shutdown

    def wait_until_registered(self, timeout: float = 10.0) -> int:
        """Block until the producer's registration REPLY arrives.

        Returns the admitted epoch.  Group sessions use this to learn every
        member's admission decision *before* merging streams (so a consumer
        admitted mid-epoch by some members and next-epoch by others can start
        at the first epoch all members agree on).  Safe to call before
        iterating: while unadmitted, every BATCH message predates this
        consumer's admission and is filtered, not consumed.

        Waits on the reactor-delivered registration event — no polling
        receive loop; the reactor's timer keeps re-sending HELLO while the
        producer is not up yet.
        """
        deadline = time.monotonic() + timeout
        while True:
            if self._registration_error is not None:
                raise self._registration_error
            if self._reactor_admitted is not None:
                return self._reactor_admitted
            if self._shutdown:
                raise MessagingError(
                    f"producer shut down before admitting consumer {self.consumer_id!r}"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError_(
                    f"consumer {self.consumer_id!r} received no registration reply "
                    f"within {timeout}s; is the producer running?"
                )
            self._registered_event.wait(remaining)

    # ------------------------------------------------------------------ reactor callbacks
    @reactor_only
    def _on_reactor_message(self, message: Message) -> None:
        """Reactor thread: eager signal extraction, then forward to the mailbox.

        Only registration/shutdown *signals* are acted on here (they unblock
        wait_until_registered without a trainer present).  The message itself
        always goes to the mailbox so the training thread replays everything
        in arrival order — epoch accounting and admission depend on it.
        """
        if self._closed:
            return
        if message.kind is MessageKind.REPLY:
            body = message.body or {}
            if body.get("consumer_id") == self.consumer_id:
                token = body.get("token")
                if token is None or token == self._token:
                    if body.get("error"):
                        if self._registration_error is None:
                            self._registration_error = DuplicateConsumerError(
                                body["error"]
                            )
                    else:
                        self._reactor_admitted = int(body.get("admitted_epoch", 0))
                    self._registered_event.set()
        elif message.kind is MessageKind.SHUTDOWN:
            self._shutdown = True
            self._registered_event.set()
        try:
            self._mailbox.put_nowait(message)
        except queue.Full:
            self.mailbox_overflows += 1
            _OVERFLOWS.inc()
            return
        for wakeup in list(self._wakeups):
            try:
                wakeup()
            except Exception:
                pass

    @reactor_only
    def _on_reactor_timer(self) -> None:
        """Reactor timer wheel: heartbeats and registration retries."""
        if self._closed or self._shutdown:
            return
        if not self._registered or self._reactor_admitted is None:
            # Not registered, or registered but unanswered — the HELLO (or
            # its REPLY) may have been lost; resend until admitted.  The
            # producer treats a repeat HELLO from the same token as idempotent.
            self._register()
            return
        try:
            self._heartbeat.maybe_send()
        except MessagingError:
            self._registered = False

    def _add_mailbox_listener(self, wakeup) -> None:
        self._wakeups.append(wakeup)

    def _remove_mailbox_listener(self, wakeup) -> None:
        # The reactor thread snapshots this list while group members add and
        # remove themselves from training threads; a membership test followed
        # by remove() is a TOCTOU window where two concurrent removals both
        # pass the test and the loser raises.  A single remove() is atomic
        # under the GIL, so catch the miss instead of testing first.
        try:
            self._wakeups.remove(wakeup)
        except ValueError:
            pass

    # ------------------------------------------------------------------ message handling
    def _handle_message(self, message: Message) -> Optional[BatchPayload]:
        """Process one message; returns a payload when it is a usable data batch."""
        if message.kind is MessageKind.REPLY:
            body = message.body or {}
            if body.get("consumer_id") == self.consumer_id:
                token = body.get("token")
                if token is not None and token != self._token:
                    # Addressed to a different instance that shares our id
                    # (e.g. the producer rejecting a duplicate registration).
                    return None
                if body.get("error"):
                    raise DuplicateConsumerError(body["error"])
                self._admitted_epoch = int(body.get("admitted_epoch", 0))
            return None
        if message.kind is MessageKind.SHUTDOWN:
            self._shutdown = True
            raise _ShutdownReceived()
        if message.kind is MessageKind.BYE:
            # The producer dropped this consumer (no acks, or silence):
            # nothing sent from here on is paced for it.
            body = message.body or {}
            mine = body.get("consumer_id") == self.consumer_id
            if mine and body.get("token") in (None, self._token):
                raise MessagingError(
                    f"consumer {self.consumer_id!r} was detached by the producer: "
                    f"{body.get('reason')}"
                )
            return None
        if message.kind is MessageKind.EPOCH_END:
            body = message.body or {}
            epoch = int(body.get("epoch", 0))
            floor = self._admitted_epoch
            if floor is not None and self._min_epoch is not None:
                # Epochs the group skipped (admitted before the merge's start
                # epoch) were never trained on; counting them toward
                # max_epochs would end this member's stream early and leave
                # later epochs served by a subset of shards.
                floor = max(floor, self._min_epoch)
            if floor is not None and epoch >= floor:
                self.epochs_seen += 1
                self._epochs_ended += 1
                if self._last_completed_epoch is None or epoch > self._last_completed_epoch:
                    self._last_completed_epoch = epoch
                # The dedupe window only needs to span one epoch: batch keys
                # are (epoch, index), so keys from closed epochs cannot recur.
                self._delivered_keys = {k for k in self._delivered_keys if k[0] > epoch}
                self._acked_keys = {k for k in self._acked_keys if k[0] > epoch}
                self._consumed_per_epoch = {
                    e: n for e, n in self._consumed_per_epoch.items() if e >= epoch
                }
            return None
        if message.kind is MessageKind.BATCH:
            payload: BatchPayload = message.body
            if self._admitted_epoch is None or payload.epoch < self._admitted_epoch:
                # Published before this consumer was admitted; not ours to use.
                return None
            key = payload.key()
            if key in self._delivered_keys:
                # Duplicate delivery (broadcast + rubberband replay of the
                # same batch): never hand it to training twice.  Acknowledge
                # it only when the original was already acknowledged — that
                # is exactly when the producer took a fresh hold for the
                # re-send.  While the original is still buffered it owes the
                # ledger its single ack; acking the duplicate now would clear
                # the outstanding count early, letting the producer publish
                # past this consumer's buffer capacity.
                self.duplicates_dropped += 1
                _DUPLICATES.inc()
                if key in self._acked_keys:
                    self._acknowledge(payload)
                return None
            self._delivered_keys.add(key)
            metadata = payload.metadata
            producer_trace = (
                metadata.get("trace") if isinstance(metadata, dict) else None
            )
            if isinstance(producer_trace, dict):
                # Copy before stamping: inproc payloads share one metadata
                # dict across every consumer in the process (and the window
                # cache), so the shared trace must stay consumer-agnostic.
                trace = dict(producer_trace)
                trace["delivered"] = time.monotonic()
                self._traces[key] = trace
            return payload
        return None

    def _ingest(self, message: Message) -> None:
        """Training thread: process one mailbox message into the buffer."""
        try:
            payload = self._handle_message(message)
        except _ShutdownReceived:
            self._shutdown_processed = True
            return
        if payload is not None:
            self._buffer.put(payload)

    # ------------------------------------------------------------------ acknowledgements
    def _acknowledge(self, payload: BatchPayload) -> None:
        started = time.monotonic()
        key = payload.key()
        self._acked_keys.add(key)
        body: Dict[str, object] = {
            "consumer_id": self.consumer_id,
            "epoch": payload.epoch,
            "batch_index": payload.batch_index,
        }
        trace = self._traces.pop(key, None)
        if trace is not None:
            # Batches dropped without training (duplicates, pre-group epochs,
            # shutdown drains) never got a trained stamp; close the span at
            # ack time so it still parses as a complete lifecycle.
            trace.setdefault("trained", started)
            trace["acked"] = time.monotonic()
            if "sampled" in trace:
                _LATENCY.observe(trace["acked"] - trace["sampled"])
            obs_trace.record_span(
                epoch=payload.epoch,
                batch_index=payload.batch_index,
                consumer_id=self.consumer_id,
                stages=trace,
                origin=obs_trace.origin(),
            )
            # The producer aggregates the full span on its side of the plane.
            body["trace"] = trace
        try:
            self._push.send(MessageKind.ACK, body=body)
        except MessagingError:
            # The producer is gone; there is nobody left to account the ack.
            pass
        _ACK_SECONDS.inc(time.monotonic() - started)

    # ------------------------------------------------------------------ iteration
    def _reached_epoch_limit(self) -> bool:
        return (
            self.config.max_epochs is not None
            and self._epochs_ended >= self.config.max_epochs
        )

    def _begin_iteration(self, min_epoch: Optional[int]) -> None:
        if self._closed:
            raise RuntimeError("consumer has been closed")
        if min_epoch is not None:
            self._min_epoch = min_epoch

    def _drop_buffered(self) -> None:
        """Acknowledge everything buffered so nothing stays pinned."""
        for leftover in self._buffer.clear():
            self._acknowledge(leftover)

    def _try_take(self):
        """One non-blocking consume step.

        Returns ``(payload, batch)`` when a batch is ready, ``_WAIT`` when
        nothing is available yet, or ``_DONE`` when the stream has ended
        (epoch limit or producer shutdown).  This is the engine under both
        :meth:`iter_batches` and the group merge — the merge drives many
        members through it from one thread.
        """
        while True:
            if self._shutdown_processed:
                self._drop_buffered()
                return _DONE
            while True:
                try:
                    message = self._mailbox.get_nowait()
                except queue.Empty:
                    break
                self._ingest(message)
                if self._shutdown_processed:
                    break
            if self._shutdown_processed:
                continue
            # Stop once the producer has closed max_epochs epochs and every
            # batch from those epochs has been consumed.  (The producer sends
            # EPOCH_END after the epoch's batches, and the reactor preserves
            # per-channel ordering into the mailbox, so this check is
            # race-free.)
            if (
                self._reached_epoch_limit()
                and self._buffer.is_empty
                and self._mailbox.qsize() == 0
            ):
                return _DONE
            payload = self._buffer.get()
            if payload is None:
                if self._reached_epoch_limit():
                    return _DONE
                return _WAIT
            start_epoch = max(self._admitted_epoch or 0, self._min_epoch or 0)
            if self._reached_epoch_limit() and payload.epoch >= start_epoch + (
                self.config.max_epochs or 0
            ):
                # A batch from an epoch beyond our limit: acknowledge and drop
                # it so the producer does not wait on us.
                self._acknowledge(payload)
                self._drop_buffered()
                return _DONE
            if self._min_epoch is not None and payload.epoch < self._min_epoch:
                # Admitted earlier than the group: this member's pre-group
                # epochs are not trained on, but their holds must be returned.
                self._acknowledge(payload)
                continue
            batch = payload.unpack(self.pool)
            self.batches_consumed += 1
            self.samples_consumed += payload.batch_size
            _BATCHES.inc()
            _SAMPLES.inc(payload.batch_size)
            self._consumed_per_epoch[payload.epoch] = (
                self._consumed_per_epoch.get(payload.epoch, 0) + 1
            )
            return (payload, batch)

    def __iter__(self) -> Iterator[Dict[str, Tensor]]:
        for _payload, batch in self.iter_batches():
            yield batch

    def iter_batches(
        self, *, min_epoch: Optional[int] = None
    ) -> Iterator[Tuple[BatchPayload, Dict[str, Tensor]]]:
        """Iterate ``(payload, batch)`` pairs — the batch plus its metadata.

        This is the annotated form of ``iter(consumer)``: group sessions use
        the payload's ``(epoch, batch_index)`` to merge several member
        streams deterministically.  Acknowledgement timing is identical —
        each batch is acked when the loop advances past it.

        ``min_epoch`` drops (and immediately acknowledges) batches from
        earlier epochs: a group consumer admitted mid-epoch by one member and
        next-epoch by another starts every member at the same epoch.  The
        skipped epochs do not count toward ``max_epochs``.
        """
        self._begin_iteration(min_epoch)
        # The receive deadline measures time *without a batch*: it is armed
        # when the stream runs dry and reset whenever a batch is delivered,
        # matching the old pump's per-blocking-call deadline.
        deadline: Optional[float] = None
        loop_started = time.monotonic()
        try:
            while True:
                step_started = time.monotonic()
                step = self._try_take()
                # Ingest/unpack time counts as waiting — anything that is not
                # the training step or the acknowledgement is time the
                # trainer spends without compute.
                _WAIT_SECONDS.inc(time.monotonic() - step_started)
                if step is _DONE:
                    break
                if step is _WAIT:
                    wait_started = time.monotonic()
                    try:
                        if deadline is None:
                            deadline = wait_started + self.config.receive_timeout
                        try:
                            message = self._mailbox.get(timeout=max(0.0, deadline - wait_started))
                        except queue.Empty:
                            raise TimeoutError_(
                                f"consumer {self.consumer_id!r} received no data for "
                                f"{self.config.receive_timeout}s; is the producer running?"
                            ) from None
                        self._ingest(message)
                        continue
                    finally:
                        _WAIT_SECONDS.inc(time.monotonic() - wait_started)
                deadline = None
                payload, batch = step
                train_started = time.monotonic()
                yield payload, batch
                trained_at = time.monotonic()
                _TRAIN_SECONDS.inc(trained_at - train_started)
                trace = self._traces.get(payload.key())
                if trace is not None:
                    trace["trained"] = trained_at
                # The training loop finished with the batch: acknowledge it so
                # the producer can release the shared memory.
                self._acknowledge(payload)
            # Acknowledge anything left in the buffer so nothing stays pinned.
            self._drop_buffered()
        finally:
            _LOOP_SECONDS.inc(time.monotonic() - loop_started)

    def __len__(self) -> int:
        """Batches consumed in the last *completed* epoch.

        This is the sized-loader contract (e.g. for
        :meth:`RubberbandPolicy.set_epoch_length`): a stable batches-per-epoch
        figure, not a cumulative counter that doubles every epoch.  Before the
        first epoch completes it falls back to the running count of the
        current epoch (best effort, matching the old behaviour for one-epoch
        runs).
        """
        if self._last_completed_epoch is not None:
            return self._consumed_per_epoch.get(self._last_completed_epoch, 0)
        return self.batches_consumed

    # ------------------------------------------------------------------ introspection
    def metrics(self) -> Dict[str, object]:
        """This consumer's state under the canonical registry namespace
        (``repro.consumer.*``).  Per-instance snapshot — the process-wide
        registry aggregates across every consumer in the process; this dict
        reports one consumer's own counters."""
        return {
            "repro.consumer.id": self.consumer_id,
            "repro.consumer.batches": self.batches_consumed,
            "repro.consumer.samples": self.samples_consumed,
            "repro.consumer.epochs": self.epochs_seen,
            "repro.consumer.duplicates": self.duplicates_dropped,
            "repro.consumer.buffered": len(self._buffer),
            "repro.consumer.admitted_epoch": self.admitted_epoch,
            "repro.consumer.mailbox_overflows": self.mailbox_overflows,
            # Attach-side effect of the producer's slab recycling: once
            # segment names repeat, by-name attaches hit this consumer's
            # cache instead of opening + mapping a segment per delivery.
            "repro.pool.attach_cache_hits": getattr(self.pool, "attach_cache_hits", 0),
            "repro.pool.attach_opens": getattr(self.pool, "attach_opens", 0),
        }

    # ------------------------------------------------------------------ shutdown
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Deregister from the producer and close the sockets."""
        if self._closed:
            return
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
        try:
            self._push.send(
                MessageKind.BYE,
                body={"consumer_id": self.consumer_id, "token": self._token},
            )
        except Exception:
            pass
        if self._subscription is not None:
            self._subscription.unsubscribe()
        self._push.close()
        if self._endpoint is not None:
            # Connect-side release: a no-op for inproc://, but tcp:// drops
            # this consumer's refcount on the shared broker connection.
            self._endpoint.release()

    def __enter__(self) -> "TensorConsumer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"TensorConsumer({self.consumer_id!r}, consumed={self.batches_consumed}, "
            f"buffer={len(self._buffer)})"
        )
