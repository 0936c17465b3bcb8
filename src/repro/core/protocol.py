"""The protocol core: every decision of both ends of a connection, and no I/O.

Producer side, :class:`ProducerProtocol`: heartbeat detach (paper Section
3.2.3), buffer flow control and rubberband catch-up (Section 3.2.5) and the
ack ledger that frees a batch once every consumer is done with it (Figure 4,
step 6) are decided over one table of :class:`Peer` rows: a stranger's
heartbeat or ack finds no row to change.  Consumer side,
:class:`ConsumerProtocol`: registration, which deliveries are trained on,
dedupe, acknowledgement of duplicates and where the stream ends (Figure 4,
steps 4-6).  Both are sans-I/O (https://sans-io.readthedocs.io/) — no lock,
socket, pool or clock; ``now`` is an argument — and answer in plain values
that their drivers, :class:`~repro.core.producer.TensorProducer` and
:class:`~repro.core.consumer.TensorConsumer`, turn into sends, holds and
yields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Set, Tuple, Union

from repro.core.ack_ledger import AckLedger, BatchKey
from repro.core.config import ProducerConfig
from repro.core.rubberband import JoinDecision, RubberbandPolicy

if TYPE_CHECKING:
    from repro.tensor.payload import BatchPayload

#: A peer that still heartbeats but holds up publishing for this many
#: heartbeat timeouts without the capacity wait ending is dropped for
#: ``"ack timeout"`` (the slowest ones, by batches owed).
ACK_DEADLINE_HEARTBEATS = 4

#: What :meth:`ProducerProtocol.capacity` tells the driver to do next.
PUBLISH = "publish"
SKIP_EPOCH = "skip-epoch"
WAIT = "wait"

#: What :meth:`ConsumerProtocol.batch` tells the driver to do with a delivery:
#: buffer it for training, drop it (published before this consumer's admitted
#: epoch), drop a duplicate whose original still owes its ack, or drop a
#: duplicate and acknowledge it again.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
REACK = "re-ack"

#: What :meth:`ConsumerProtocol.take` tells the driver to do with the next
#: buffered batch (``WAIT``: there is none yet, and the stream goes on).
TRAIN = "train"
SKIP = "skip"
DONE = "done"

#: ``(payload, hold)``: a window batch to re-send to one peer; ``hold`` means
#: the driver retains its segments once more, for that peer's ack to release.
Replay = Tuple["BatchPayload", bool]


@dataclass
class Peer:
    """What the producer knows about one registered consumer."""

    consumer_id: str
    #: Registration token from the HELLO: tells a retry of this consumer
    #: apart from a different consumer squatting on the same id.
    token: Optional[str] = None
    batch_size: Optional[int] = None
    buffer_size: int = 2
    active: bool = True
    admitted_epoch: int = 0
    last_seen: float = 0.0
    #: Replayed window batches it still owes an ack for; publishing halts
    #: while any peer's count is above zero.
    catch_up: int = 0


class Dropped(NamedTuple):
    """A peer the core removed from the table."""

    consumer_id: str
    reason: str
    #: Segment names of the batches it still owed, one hold each.
    releases: Tuple[str, ...]
    #: BYE body telling the consumer why (``None`` when it said BYE itself).
    notice: Optional[Dict[str, object]]


class ProducerProtocol:
    """Admission, replay, acks, liveness, flow control and epoch turnover."""

    def __init__(self, config: ProducerConfig, rubberband: RubberbandPolicy) -> None:
        self.config = config
        self.rubberband = rubberband
        #: The batch table: who still owes an ack for which published batch.
        self.ledger = AckLedger()
        self.peers: Dict[str, Peer] = {}
        #: Replay window: the producer-held batches of this epoch, by index.
        self.window: Dict[int, "BatchPayload"] = {}
        self.epoch = 0
        #: Peers dropped so far, by reason.
        self.drops: Dict[str, int] = {}
        #: No :meth:`expire` before this can drop anyone: a beat only moves a
        #: peer's expiry later, and a new peer lowers it.
        self.next_expiry = math.inf
        #: When the current capacity wait drops the slowest peers.
        self.ack_deadline = math.inf

    @property
    def halting(self) -> bool:
        """True while a rubberbanded peer is still catching up."""
        return any(peer.catch_up for peer in self.peers.values())

    # ------------------------------------------------------------------ consumer messages
    def hello(
        self, body: Mapping, now: float, published: int, cut: Optional[int] = None
    ) -> Tuple[Dict[str, object], List[Replay]]:
        """Admit (or re-acknowledge, or refuse) a registering consumer;
        ``published`` is how many batches of this epoch are out, and ``cut``
        the epoch's producer batch size once flexible batching fixed it.

        Under flexible batching a consumer that announces no batch size takes
        whole producer batches.  One whose batch size is above a configured
        ``producer_batch_size`` is refused; one above the size this epoch
        derived waits for the next epoch, whose size is derived with it."""
        consumer_id = body["consumer_id"]
        token = body.get("token")
        reply: Dict[str, object] = {"consumer_id": consumer_id, "token": token}
        peer = self.peers.get(consumer_id)
        if peer is not None and peer.token != token:
            # A different consumer squatting on a live id would corrupt the
            # ledger (two parties acking under one key); the rightful owner
            # filters the refusal out by token.
            reply["error"] = (
                f"consumer_id {consumer_id!r} is already registered with "
                f"this producer; choose a unique consumer_id"
            )
            reply["reason"] = "duplicate_id"
            return reply, []
        replays: List[Replay] = []
        if peer is not None:
            # A HELLO retry: re-announce without re-running the join decision.
            peer.last_seen = now
            decision = "already-registered"
        else:
            size = body.get("batch_size") if self.config.flexible_batching else None
            fixed = self.config.producer_batch_size
            if size and fixed is not None and size > fixed:
                reply["error"] = (
                    f"consumer {consumer_id!r} asks for batch size {size}, above the "
                    f"producer batch size {fixed} it would be sliced from"
                )
                reply["reason"] = "batch_size"
                return reply, []
            if size and cut is not None and size > cut:
                join = JoinDecision.WAIT_FOR_NEXT_EPOCH
            elif self.rubberband.batches_per_epoch is not None:
                join = self.rubberband.decide(consumer_id, published)
            elif published == 0:
                join = JoinDecision.IMMEDIATE
            else:
                join = JoinDecision.WAIT_FOR_NEXT_EPOCH
            parked = join is JoinDecision.WAIT_FOR_NEXT_EPOCH
            peer = self.peers[consumer_id] = Peer(
                consumer_id,
                token=token,
                batch_size=body.get("batch_size"),
                buffer_size=int(body.get("buffer_size", self.config.buffer_size)),
                active=not parked,
                admitted_epoch=self.epoch + 1 if parked else self.epoch,
                last_seen=now,
            )
            self.next_expiry = min(self.next_expiry, now + self.config.heartbeat_timeout)
            decision = str(join)
            if join is JoinDecision.CATCH_UP:
                replays = self.replay(consumer_id)
        reply.update(admitted_epoch=peer.admitted_epoch, decision=decision,
                     flexible_batching=self.config.flexible_batching)
        return reply, replays

    def replay(self, consumer_id: str) -> List[Replay]:
        """The window, oldest first, for a registered peer to catch up on.  A
        batch it already owes an ack for is re-sent without a hold: its
        duplicate ack would never release a second one."""
        peer = self.peers[consumer_id]
        replays: List[Replay] = []
        for index in sorted(self.window):
            payload = self.window[index]
            key = payload.key()
            record = self.ledger.record_for(key)
            hold = record is None or consumer_id not in record.waiting_on
            if record is None:
                names, nbytes = payload.segment_names, payload.tensor_nbytes
                self.ledger.publish(key, [consumer_id], segment_names=names, nbytes=nbytes)
            elif hold:
                self.ledger.add_waiter(key, consumer_id)
            peer.catch_up += hold
            replays.append((payload, hold))
        return replays

    def beat(self, consumer_id: str, now: float) -> bool:
        """Any message but a HELLO is a sign of life from a registered peer."""
        peer = self.peers.get(consumer_id)
        if peer is None:
            return False
        peer.last_seen = now
        return True

    def ack(self, consumer_id: str, key: BatchKey) -> Tuple[str, ...]:
        """An acknowledgement; a duplicate or a stranger's releases nothing."""
        record = self.ledger.record_for(key)
        if record is None or consumer_id not in record.waiting_on:
            self.ledger.acknowledge(consumer_id, key)  # counts the duplicate
            return ()
        self.ledger.acknowledge(consumer_id, key)
        peer = self.peers.get(consumer_id)
        if peer is not None and peer.catch_up:
            peer.catch_up -= 1
        return record.segment_names

    def bye(self, consumer_id: str, token: Optional[str]) -> List[Dropped]:
        """A graceful departure.  A refused duplicate also says BYE when it
        closes; its token must not drop the rightful owner."""
        peer = self.peers.get(consumer_id)
        if peer is None or (token is not None and peer.token != token):
            return []
        return [self._drop(consumer_id, "bye")]

    # ------------------------------------------------------------------ deadlines
    def expire(self, now: float) -> List[Dropped]:
        """Drop every peer silent for longer than the heartbeat timeout, and
        re-derive :attr:`next_expiry` (the driver calls in once it passes)."""
        timeout = self.config.heartbeat_timeout
        dropped = [
            self._drop(peer.consumer_id, "heartbeat timeout")
            for peer in list(self.peers.values())
            if now - peer.last_seen > timeout
        ]
        self.next_expiry = min(
            (peer.last_seen + timeout for peer in self.peers.values()), default=math.inf
        )
        return dropped

    def capacity(self, now: float, published: int) -> Tuple[str, List[Dropped]]:
        """May the next batch go out?  No consumers, no loading; one catching
        up, no publishing.  ``WAIT`` lasts until a control message, a heartbeat
        expiry or :attr:`ack_deadline`, which drops the peers owing the most
        batches rather than wedge the shared loader."""
        active: List[str] = []
        parked = halting = False
        buffer_limit = self.config.buffer_size
        for peer in self.peers.values():
            if peer.active:
                active.append(peer.consumer_id)
                buffer_limit = min(buffer_limit, peer.buffer_size)
            else:
                parked = True
            halting = halting or peer.catch_up > 0
        if not active:
            self.ack_deadline = math.inf
            if not self.config.wait_for_consumers:
                return PUBLISH, []
            if parked and published > 0:
                # Everyone left mid-epoch and a newcomer is parked for the
                # next epoch: abandon this epoch so it can start.
                return SKIP_EPOCH, []
            return WAIT, []
        inflight_cap = self.config.max_inflight_batches
        if (
            self.ledger.all_have_capacity(active, buffer_limit)
            and not halting
            # Total-footprint bound: the ledger drains below the cap first
            # (one dataset's shared memory stays bounded in a shared pool).
            and (inflight_cap is None or self.ledger.pending_batches < inflight_cap)
        ):
            self.ack_deadline = math.inf
            return PUBLISH, []
        if self.ack_deadline == math.inf:
            self.ack_deadline = now + ACK_DEADLINE_HEARTBEATS * self.config.heartbeat_timeout
        elif now > self.ack_deadline:
            self.ack_deadline = math.inf
            return WAIT, [
                self._drop(consumer_id, "ack timeout")
                for consumer_id in self.ledger.slowest_consumers(active)
            ]
        return WAIT, []

    # ------------------------------------------------------------------ epochs
    def keep(self, payload: "BatchPayload", batch_index: int) -> bool:
        """Keep the first few batches of an epoch for rubberband joiners: the
        latest one still admitted has missed at most batch ``window - 2``."""
        try:
            window = self.rubberband.window_batches
        except ValueError:
            return False
        if batch_index + 1 < window:
            self.window[batch_index] = payload
            return True
        return False

    def end_epoch(self) -> List[str]:
        """The epoch boundary: catch-ups end, parked peers become active
        (Figure 6), and the window's producer holds are returned."""
        releases = self._release_window()
        self.epoch += 1
        for peer in self.peers.values():
            peer.catch_up = 0
            if not peer.active and peer.admitted_epoch <= self.epoch:
                peer.active = True
        return releases

    def drain(self) -> List[str]:
        """``join``: whatever is still owed belongs to peers that vanished;
        every hold still out is returned, the window's included."""
        releases: List[str] = []
        for key in self.ledger.pending_keys():
            record = self.ledger.record_for(key)
            for consumer_id in list(record.waiting_on):
                releases.extend(record.segment_names)
                self.ledger.acknowledge(consumer_id, key)
        return releases + self._release_window()

    # ------------------------------------------------------------------ internals
    def _release_window(self) -> List[str]:
        releases = [name for payload in self.window.values() for name in payload.segment_names]
        self.window.clear()
        return releases

    def _drop(self, consumer_id: str, reason: str) -> Dropped:
        """The one drop path: the row goes, and with it every ack it owed."""
        peer = self.peers.pop(consumer_id)
        releases = []
        for key in self.ledger.pending_keys():
            record = self.ledger.record_for(key)
            if consumer_id in record.waiting_on:
                releases.extend(record.segment_names)
        self.ledger.drop_consumer(consumer_id)
        self.drops[reason] = self.drops.get(reason, 0) + 1
        notice = None
        if reason != "bye":
            notice = {"consumer_id": consumer_id, "token": peer.token, "reason": reason}
        return Dropped(consumer_id, reason, tuple(releases), notice)



class ConsumerProtocol:
    """What one consumer does with each message from its producer, decided
    in arrival order.

    Owner: the thread that drains the consumer's mailbox — the training
    thread, or before iteration the caller of ``wait_until_registered`` (a
    group merge calls it from the thread that then merges).  Two threads
    never own it at once; others only read its fields, and :meth:`mine`
    reads only the fixed id and token.
    """

    def __init__(self, consumer_id: str, token: str, max_epochs: Optional[int] = None) -> None:
        self.consumer_id, self.token, self.max_epochs = consumer_id, token, max_epochs
        self.admitted_epoch: Optional[int] = None
        #: A group's start epoch, above the admitted one: epochs below it are
        #: acknowledged untrained and do not count toward ``max_epochs``.
        self.min_epoch: Optional[int] = None
        self.refusal: Optional[str] = None
        #: Why: ``"duplicate_id"`` or ``"batch_size"`` (the REPLY's ``reason``).
        self.refusal_reason: Optional[str] = None
        #: A refusal or SHUTDOWN was processed: the stream is over.
        self.ended = False
        #: Dedupe window, keys delivered and acked in open epochs: keys are
        #: ``(epoch, index)``, so a closed epoch's cannot recur.
        self.delivered: Set[Tuple[int, int]] = set()
        self.acknowledged: Set[Tuple[int, int]] = set()
        self.epochs_ended = 0  # at or above the floor: toward max_epochs
        #: Batches trained per epoch, for the last completed epoch's length.
        self.consumed_per_epoch: Dict[int, int] = {}
        self.last_completed_epoch: Optional[int] = None

    def mine(self, body: Mapping) -> bool:
        """Whether a REPLY or BYE is for this instance: a token names another
        consumer sharing the id."""
        mine = body.get("consumer_id") == self.consumer_id
        return mine and body.get("token") in (None, self.token)

    def reply(self, body: Mapping) -> Union[int, str, None]:
        """The admitted epoch, the refusal message, or ``None``: not mine."""
        if not self.mine(body):
            return None
        if body.get("error"):
            self.refusal, self.ended = str(body["error"]), True
            self.refusal_reason = body.get("reason")
            return self.refusal
        self.admitted_epoch = int(body.get("admitted_epoch", 0))
        return self.admitted_epoch

    def batch(self, payload: "BatchPayload") -> str:
        """``DELIVER``, ``DROP``, ``DUPLICATE`` or ``REACK``.  A duplicate
        (broadcast plus a rubberband replay of one batch) is never trained
        twice, and is acked only once its original was: that is when the
        producer took a fresh hold for the re-send.  Acking it while the
        original still owes its ack would let the producer publish past this
        consumer's buffer."""
        admitted = self.admitted_epoch
        if admitted is None or payload.epoch < admitted:
            return DROP
        key = payload.key()
        if key in self.delivered:
            return REACK if key in self.acknowledged else DUPLICATE
        self.delivered.add(key)
        return DELIVER

    def acked(self, key: Tuple[int, int]) -> None:
        self.acknowledged.add(key)

    def epoch_end(self, body: Mapping) -> None:
        """An epoch closed; it counts only at or above the floor (the
        admitted epoch, raised to ``min_epoch``), where it was trained on."""
        epoch = int(body.get("epoch", 0))
        admitted = self.admitted_epoch
        if admitted is None or epoch < max(admitted, self.min_epoch or 0):
            return
        self.epochs_ended += 1
        self.last_completed_epoch = max(epoch, self.last_completed_epoch or 0)
        self.delivered = {key for key in self.delivered if key[0] > epoch}
        self.acknowledged = {key for key in self.acknowledged if key[0] > epoch}
        self.consumed_per_epoch = {e: n for e, n in self.consumed_per_epoch.items() if e >= epoch}

    def bye(self, body: Mapping) -> Optional[str]:
        """The producer's reason for detaching this consumer, or ``None``."""
        return str(body.get("reason")) if self.mine(body) else None

    def shutdown(self) -> None:
        self.ended = True

    def take(self, payload: Optional["BatchPayload"]) -> str:
        """For the next buffered batch (``None``: the buffer is empty),
        ``TRAIN``, ``SKIP`` (ack it untrained: below ``min_epoch``), ``DONE``
        (ack it and all buffered) or ``WAIT``.  The stream is done after a
        refusal or SHUTDOWN, and once ``max_epochs`` epochs closed and all
        their batches were taken."""
        if self.ended:
            return DONE
        limit = self.max_epochs
        spent = limit is not None and self.epochs_ended >= limit
        if payload is None:
            return DONE if spent else WAIT
        epoch = payload.epoch
        if spent and epoch >= max(self.admitted_epoch or 0, self.min_epoch or 0) + limit:
            return DONE
        if self.min_epoch is not None and epoch < self.min_epoch:
            return SKIP
        # A sliced producer batch is this consumer's batches of it.
        mine = payload.slices.get(self.consumer_id) if payload.slices is not None else None
        self.consumed_per_epoch[epoch] = self.consumed_per_epoch.get(epoch, 0) + (
            len(mine) if mine else 1
        )
        return TRAIN
