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
with BYE.  Under flexible batching a delivered batch is a producer batch: the
consumer trains on its own row ranges of it (views; a wrapped range is the
one local copy) and acknowledges it once, after the last.  It resolves no
address: :func:`repro.attach` (or a session's
:meth:`~repro.core.session.SharedLoaderSession.consumer`) hands it the hub,
the pool and, for a remote attach, the connection it must release.

Message reception rides the per-process :class:`~repro.messaging.reactor.
Reactor` rather than a private blocking receive loop: the reactor fans the
data channel out to this consumer's **mailbox** (a bounded queue) and runs
its heartbeat/registration-retry timer, so attaching K consumers costs O(1)
threads, not O(K).  The reactor decides nothing: it forwards every message in
arrival order, and notes only that a REPLY to this consumer went by, which
ends the HELLO retries.  Every decision — admission, dedupe, acknowledgement
of duplicates, epoch accounting, where the stream ends — is made by one
:class:`~repro.core.protocol.ConsumerProtocol`, on the thread that drains the
mailbox; this class carries out its answers.
"""

from __future__ import annotations

import queue
import time
import uuid
from typing import Dict, Iterator, Optional, Tuple

from repro.core.batch_buffer import BatchBuffer
from repro.core.config import ConsumerConfig
from repro.core.protocol import DELIVER, DONE, DROP, REACK, SKIP, TRAIN, ConsumerProtocol
from repro.messaging.endpoint import Endpoint
from repro.messaging.errors import (
    ConsumerRefusedError,
    DuplicateConsumerError,
    MessagingError,
    TimeoutError_,
)
from repro.messaging.message import Message, MessageKind
from repro.messaging.reactor import get_reactor, reactor_only
from repro.messaging.transport import InProcHub
from repro.obs import trace as obs_trace
from repro.obs.metrics import counter, histogram
from repro.tensor.payload import BatchPayload
from repro.tensor.shared_memory import SharedMemoryPool
from repro.tensor.tensor import Tensor, cat

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
_BEATS_SENT = counter("repro.heartbeat.sent")


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
        *,
        hub: InProcHub,
        pool: SharedMemoryPool,
        config: Optional[ConsumerConfig] = None,
        endpoint: Optional[Endpoint] = None,
    ) -> None:
        """``config.address`` names the producer's channels on ``hub``;
        ``endpoint`` is the attach connection this consumer adopts and
        releases in :meth:`close` (none for a session's own consumers)."""
        self.config = config or ConsumerConfig()
        self._endpoint = endpoint
        self.consumer_id = self.config.consumer_id or f"consumer-{uuid.uuid4().hex[:8]}"
        self.pool = pool
        self.hub = hub
        #: Unique per consumer *instance*: lets the producer tell a HELLO retry
        #: from this consumer apart from another consumer reusing its id.
        self._token = uuid.uuid4().hex

        self._buffer = BatchBuffer(self.config.buffer_size)
        #: Flexible batching: the producer batch being trained on, its
        #: unpacked tensors and the row ranges of its batches not taken yet.
        self._slicing: Optional[Tuple[BatchPayload, Dict[str, Tensor], list]] = None
        self._core = ConsumerProtocol(self.consumer_id, self._token, self.config.max_epochs)
        self._closed = False
        # The HELLO went out.  ``_answered``: a REPLY to it went by (the
        # reactor's routing fact, set before the owner reads the REPLY); the
        # timer retries HELLO until then and heartbeats after.
        self._registered = False
        self._answered = False
        # Inbound messages, reactor -> the core's owner, in arrival order.
        self._mailbox: "queue.Queue[Message]" = queue.Queue(maxsize=_MAILBOX_LIMIT)
        self.mailbox_overflows = 0
        # Callbacks poked on every mailbox put (the group merge parks on one
        # condition across all members instead of one thread per member).
        self._wakeups: list = []
        # Per-batch lifecycle traces keyed by (epoch, batch_index): the
        # producer-side stamps arrive in payload metadata; this consumer's
        # delivered/trained stamps are added here and the completed trace
        # rides back to the producer in the ACK body.  Touched only from the
        # training thread; entries are popped at acknowledgement time, so the
        # table is bounded by the buffer size.
        self._traces: Dict[Tuple[int, int], Dict[str, float]] = {}

        # Statistics surfaced by tests and experiments.
        self.batches_consumed = 0
        self.samples_consumed = 0
        self.duplicates_dropped = 0

        self._reactor = get_reactor()
        self._subscription = self._reactor.subscribe(
            hub,
            self.config.data_address,
            ("broadcast", f"consumer/{self.consumer_id}"),
            self._on_reactor_message,
        )
        try:
            # Heartbeats and registration retries have one owner, the reactor's
            # timer wheel: no heartbeat thread, none sent from the training loop.
            self._timer = self._reactor.every(
                self.config.heartbeat_interval, self._on_reactor_timer
            )
        except BaseException:
            self._subscription.unsubscribe()
            raise

        self._register()

    # ------------------------------------------------------------------ registration
    def _push(self, kind: MessageKind, body=None) -> None:
        """Push one message to the producer's control inbox."""
        self.hub.push(
            self.config.control_address,
            Message(topic="", kind=kind, sender=self.consumer_id, body=body),
        )

    def _register(self) -> None:
        """Announce this consumer to the producer.

        The producer may not be up yet (consumers can be launched first, the
        paper's always-available-loading scenario in reverse); in that case the
        registration is retried from the reactor's timer until it succeeds.
        """
        try:
            self._push(
                MessageKind.HELLO,
                {
                    "consumer_id": self.consumer_id,
                    "token": self._token,
                    "batch_size": self.config.batch_size,
                    "buffer_size": self.config.buffer_size,
                },
            )
            self._registered = True
        except MessagingError:
            self._registered = False

    @property
    def admitted_epoch(self) -> Optional[int]:
        return self._core.admitted_epoch

    @property
    def shutdown_received(self) -> bool:
        """Whether this consumer has processed the producer's SHUTDOWN."""
        return self._core.ended and self._core.refusal is None

    @property
    def epochs_seen(self) -> int:
        """Epochs closed at or above the floor: the ones that count toward
        ``max_epochs``."""
        return self._core.epochs_ended

    def wait_until_registered(self, timeout: float = 10.0) -> int:
        """Block until the producer's registration REPLY arrives.

        Returns the admitted epoch.  Group sessions use this to learn every
        member's admission decision *before* merging streams (so a consumer
        admitted mid-epoch by some members and next-epoch by others can start
        at the first epoch all members agree on).

        The calling thread becomes the protocol core's owner: it drains the
        mailbox through the core up to the REPLY (what came before predates
        the admission and is dropped) and leaves the rest queued.  Call it
        from the thread that iterates, or before iterating starts.
        """
        core = self._core
        deadline = time.monotonic() + timeout
        while core.admitted_epoch is None:
            self._raise_if_refused()
            if core.ended:
                raise MessagingError(
                    f"producer shut down before admitting consumer {self.consumer_id!r}"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError_(
                    f"consumer {self.consumer_id!r} received no registration reply "
                    f"within {timeout}s; is the producer running?"
                )
            try:
                self._ingest(self._mailbox.get(timeout=remaining))
            except queue.Empty:
                pass
        return core.admitted_epoch

    # ------------------------------------------------------------------ reactor callbacks
    @reactor_only
    def _on_reactor_message(self, message: Message) -> None:
        """Reactor thread: forward to the mailbox in arrival order, deciding
        nothing.  Only where a REPLY is addressed is noted, never what it
        says: an answer ends the HELLO retries while nobody drains."""
        if self._closed:
            return
        if message.kind is MessageKind.REPLY and self._core.mine(message.body or {}):
            self._answered = True
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
        """Reactor timer wheel, every ``heartbeat_interval``: HELLO until the
        producer answers, one HEARTBEAT per tick after; nothing once closed or
        a refusal or SHUTDOWN has been processed."""
        if self._closed or self._core.ended:
            return
        if not self._registered or not self._answered:
            # The HELLO (or its REPLY) may have been lost, or the producer is
            # not up yet.  A repeat HELLO from the same token is idempotent.
            self._register()
            return
        try:
            self._push(MessageKind.HEARTBEAT, {"consumer_id": self.consumer_id})
        except MessagingError:
            self._registered = False
            return
        _BEATS_SENT.inc()

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
    def _ingest(self, message: Message) -> None:
        """The core's owner: one mailbox message through the core, and its
        answer carried out."""
        kind, body, core = message.kind, message.body, self._core
        if kind is MessageKind.BATCH:
            verdict = core.batch(body)
            if verdict is DELIVER:
                metadata = body.metadata
                producer_trace = metadata.get("trace") if isinstance(metadata, dict) else None
                if isinstance(producer_trace, dict):
                    # Copy before stamping: inproc payloads share one metadata
                    # dict across every consumer in the process (and the
                    # window cache), so the shared trace stays consumer-agnostic.
                    trace = dict(producer_trace)
                    trace["delivered"] = time.monotonic()
                    self._traces[(body.epoch, body.batch_index)] = trace
                self._buffer.put(body)
            elif verdict is not DROP:
                self.duplicates_dropped += 1
                _DUPLICATES.inc()
                if verdict is REACK:
                    self._acknowledge(body)
        elif kind is MessageKind.EPOCH_END:
            core.epoch_end(body or {})
        elif kind is MessageKind.REPLY:
            core.reply(body or {})  # a refusal ends the stream: see _raise_if_refused
        elif kind is MessageKind.BYE:
            # Dropped for no acks or silence: nothing from here on is paced for us.
            reason = core.bye(body or {})
            if reason is not None:
                raise MessagingError(
                    f"consumer {self.consumer_id!r} was detached by the producer: {reason}"
                )
        elif kind is MessageKind.SHUTDOWN:
            core.shutdown()

    # ------------------------------------------------------------------ acknowledgements
    def _acknowledge(self, payload: BatchPayload) -> None:
        started = time.monotonic()
        key = payload.key()
        self._core.acked(key)
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
            self._push(MessageKind.ACK, body)
        except MessagingError:
            # The producer is gone; there is nobody left to account the ack.
            pass
        _ACK_SECONDS.inc(time.monotonic() - started)

    # ------------------------------------------------------------------ iteration
    def _begin_iteration(self, min_epoch: Optional[int]) -> None:
        if self._closed:
            raise RuntimeError("consumer has been closed")
        if min_epoch is not None:
            self._core.min_epoch = min_epoch

    def _drop_buffered(self) -> None:
        """Acknowledge everything buffered so nothing stays pinned."""
        for leftover in self._buffer.clear():
            self._acknowledge(leftover)

    def _try_take(self):
        """One non-blocking consume step.

        Returns ``(payload, batch)`` when a batch is ready, ``_WAIT`` when
        nothing is available yet, or ``_DONE`` when the stream has ended
        (epoch limit or producer shutdown; a refusal raises instead).  This
        is the engine under both :meth:`iter_batches` and the group merge —
        the merge drives many members through it from one thread.  A sliced
        producer batch hands out one of this consumer's batches per step;
        call :meth:`_passed` once the loop is done with each.
        """
        core = self._core
        while True:
            if self._slicing is not None:
                payload, batch, rows = self._next_slice()
            else:
                # The producer sends EPOCH_END after the epoch's batches and
                # the reactor keeps per-channel order into the mailbox, so the
                # core sees the epoch close only after it saw its batches.
                while not core.ended:
                    try:
                        message = self._mailbox.get_nowait()
                    except queue.Empty:
                        break
                    self._ingest(message)
                payload = self._buffer.get()
                verdict = core.take(payload)
                if verdict is SKIP:
                    # Admitted earlier than the group: this member's pre-group
                    # epochs are not trained on, but their holds must be returned.
                    self._acknowledge(payload)
                    continue
                if verdict is not TRAIN:
                    if verdict is not DONE:
                        return _WAIT
                    # Acknowledge and drop whatever is left so the producer
                    # does not wait on us.
                    if payload is not None:
                        self._acknowledge(payload)
                    self._drop_buffered()
                    self._raise_if_refused()
                    return _DONE
                batch = payload.unpack(self.pool)
                if payload.slices is not None and payload.slices.get(self.consumer_id):
                    self._slicing = (payload, batch, list(payload.slices[self.consumer_id]))
                    continue
                rows = payload.batch_size
            self.batches_consumed += 1
            self.samples_consumed += rows
            _BATCHES.inc()
            _SAMPLES.inc(rows)
            return (payload, batch)

    def _next_slice(self) -> Tuple[BatchPayload, Dict[str, Tensor], int]:
        """The next of this consumer's batches of the producer batch it is
        slicing: a view of the slab, or for a wrapped range the one copy."""
        payload, whole, ranges = self._slicing
        batch_ranges = ranges.pop(0)
        if not ranges:
            self._slicing = None
        if len(batch_ranges) == 1:
            ((start, stop),) = batch_ranges
            batch = {key: t.slice_rows(start, stop) for key, t in whole.items()}
        else:
            batch = {
                key: cat([t.slice_rows(start, stop) for start, stop in batch_ranges])
                for key, t in whole.items()
            }
        return payload, batch, sum(stop - start for start, stop in batch_ranges)

    def _passed(self, payload: BatchPayload) -> None:
        """The loop is done with a batch taken from ``payload``: acknowledge
        it, unless batches of it are still to be taken."""
        if self._slicing is None or self._slicing[0] is not payload:
            self._acknowledge(payload)

    def _raise_if_refused(self) -> None:
        """A refused consumer's stream ends in the refusal, every time."""
        core = self._core
        if core.refusal is not None:
            duplicate = core.refusal_reason == "duplicate_id"
            raise (DuplicateConsumerError if duplicate else ConsumerRefusedError)(core.refusal)

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
                trace = self._traces.get((payload.epoch, payload.batch_index))
                if trace is not None:
                    trace["trained"] = trained_at
                # The training loop finished with the batch: acknowledge it so
                # the producer can release the shared memory.
                self._passed(payload)
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
        core = self._core
        if core.last_completed_epoch is not None:
            return core.consumed_per_epoch.get(core.last_completed_epoch, 0)
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
        """Deregister from the producer and release the subscription and
        the attach connection."""
        if self._closed:
            return
        self._closed = True
        # Views of a producer batch the trainer left mid-way pin its mapping.
        self._slicing = None
        self._timer.cancel()
        try:
            self._push(MessageKind.BYE, {"consumer_id": self.consumer_id, "token": self._token})
        except Exception:
            pass
        self._subscription.unsubscribe()
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
