"""Property-based tests (hypothesis) on the core data structures and invariants."""

import collections
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import AckLedger, BatchBuffer, ProducerConfig, plan_slices
from repro.core.flexible_batch import recommend_producer_batch_size
from repro.core.protocol import (
    DELIVER,
    DONE,
    DROP,
    DUPLICATE,
    PUBLISH,
    REACK,
    SKIP,
    SKIP_EPOCH,
    TRAIN,
    WAIT,
    ConsumerProtocol,
    ProducerProtocol,
)
from repro.core.rubberband import JoinDecision, RubberbandPolicy
from repro.data import BatchSampler, RandomSampler, SyntheticImageDataset
from repro.data import default_collate, plan_collate
from repro.data.collate import _FLOAT, _INT, _column_spec
from repro.data.samplers import SequentialSampler
from repro.data.transforms import Normalize, ToTensor
from repro.simulation import Simulator, Store
from repro.tensor import BatchPayload, SharedMemoryPool, Tensor, TensorPayload, from_numpy
from repro.tensor.dtype import DType, all_dtypes, as_dtype


# ---------------------------------------------------------------------------
# Flexible batching (Section 3.2.6): coverage, repetition bound, slice sizes.
# ---------------------------------------------------------------------------

@given(
    producer_batch=st.integers(min_value=1, max_value=512),
    consumer_batch=st.integers(min_value=1, max_value=512),
    offset=st.integers(min_value=0, max_value=1024),
)
@settings(max_examples=200, deadline=None)
def test_plan_slices_invariants(producer_batch, consumer_batch, offset):
    assume(consumer_batch <= producer_batch)
    plan = plan_slices(producer_batch, consumer_batch, offset=offset)
    # Every slice is exactly the consumer's batch size.
    assert all(spec.length == consumer_batch for spec in plan.slices)
    # Every producer-batch row is served at least once.
    assert plan.covered_rows().tolist() == list(range(producer_batch))
    # Repetition is bounded by consumer_batch - 1 (the paper's bound).
    assert 0 <= plan.repeated_rows <= consumer_batch - 1
    # Rows served = slices * batch size.
    assert plan.rows_served == len(plan.slices) * consumer_batch


@given(
    producer_batch=st.integers(min_value=2, max_value=512),
    consumer_batch=st.integers(min_value=1, max_value=512),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_shuffled_plan_is_a_permutation_of_the_ordered_plan(producer_batch, consumer_batch, seed):
    assume(consumer_batch <= producer_batch)
    ordered = plan_slices(producer_batch, consumer_batch)
    shuffled = plan_slices(producer_batch, consumer_batch, shuffle_seed=seed)
    assert sorted(s.start for s in ordered.slices) == sorted(s.start for s in shuffled.slices)
    assert shuffled.repeated_rows == ordered.repeated_rows


@given(batch_sizes=st.lists(st.integers(min_value=1, max_value=1024), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_recommended_producer_batch_bounds_repetition_below_half(batch_sizes):
    producer_batch = recommend_producer_batch_size(batch_sizes)
    assert producer_batch >= 2 * max(batch_sizes)
    for batch_size in batch_sizes:
        plan = plan_slices(producer_batch, batch_size)
        assert plan.repeated_share <= 0.5


# ---------------------------------------------------------------------------
# Payload round-trips: packing never corrupts data, handles stay small.
# ---------------------------------------------------------------------------

_dtype_names = st.sampled_from([dt.name for dt in all_dtypes() if dt.name != "bool"])


@given(
    rows=st.integers(min_value=1, max_value=16),
    cols=st.integers(min_value=1, max_value=16),
    dtype=_dtype_names,
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=80, deadline=None)
def test_shared_payload_roundtrip_preserves_values(rows, cols, dtype, seed):
    rng = np.random.default_rng(seed)
    array = (rng.random((rows, cols)) * 100).astype(dtype)
    pool = SharedMemoryPool()
    try:
        shared = pool.share_tensor(from_numpy(array))
        payload = TensorPayload.from_shared(shared)
        rebuilt = payload.unpack(pool)
        np.testing.assert_array_equal(rebuilt.numpy(), array)
        assert payload.payload_nbytes <= 1024
    finally:
        pool.shutdown()


@given(
    rows=st.integers(min_value=1, max_value=16),
    dtype=_dtype_names,
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=80, deadline=None)
def test_inline_payload_roundtrip_preserves_values(rows, dtype, seed):
    rng = np.random.default_rng(seed)
    array = (rng.random(rows) * 100).astype(dtype)
    payload = TensorPayload.inline(from_numpy(array))
    restored = TensorPayload.from_dict(payload.to_dict())
    np.testing.assert_array_equal(restored.unpack().numpy(), array)


# ---------------------------------------------------------------------------
# Acknowledgement ledger: memory is released exactly once, only when all
# consumers acknowledged, regardless of the ack order.
# ---------------------------------------------------------------------------

@given(
    n_consumers=st.integers(min_value=1, max_value=6),
    n_batches=st.integers(min_value=1, max_value=10),
    order_seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_ledger_releases_every_batch_exactly_once(n_consumers, n_batches, order_seed):
    released = []
    ledger = AckLedger(release_callback=lambda record: released.append(record.key))
    consumers = [f"c{i}" for i in range(n_consumers)]
    acks = []
    for index in range(n_batches):
        ledger.publish((0, index), consumers, nbytes=1)
        acks.extend((consumer, (0, index)) for consumer in consumers)
    rng = np.random.default_rng(order_seed)
    rng.shuffle(acks)
    for consumer, key in acks:
        ledger.acknowledge(consumer, key)
    assert sorted(released) == [(0, index) for index in range(n_batches)]
    assert ledger.pending_batches == 0
    assert ledger.acks_received == n_consumers * n_batches


@given(
    n_consumers=st.integers(min_value=2, max_value=6),
    drop_index=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=50, deadline=None)
def test_ledger_drop_consumer_never_leaves_stuck_batches(n_consumers, drop_index):
    ledger = AckLedger()
    consumers = [f"c{i}" for i in range(n_consumers)]
    ledger.publish((0, 0), consumers)
    dropped = consumers[drop_index % n_consumers]
    for consumer in consumers:
        if consumer != dropped:
            ledger.acknowledge(consumer, (0, 0))
    ledger.drop_consumer(dropped)
    assert ledger.pending_batches == 0


# ---------------------------------------------------------------------------
# Batch buffer: drift never exceeds the configured capacity.
# ---------------------------------------------------------------------------

@given(
    capacity=st.integers(min_value=1, max_value=8),
    operations=st.lists(st.booleans(), min_size=1, max_size=200),
)
@settings(max_examples=100, deadline=None)
def test_batch_buffer_never_exceeds_capacity(capacity, operations):
    pool = SharedMemoryPool()
    try:
        buffer = BatchBuffer(capacity)
        counter = 0
        for is_put in operations:
            if is_put:
                if buffer.has_room:
                    tensor = pool.share_tensor(from_numpy(np.zeros(1, dtype=np.float32)))
                    buffer.put(BatchPayload.pack({"x": tensor}, batch_index=counter, epoch=0))
                    counter += 1
            else:
                buffer.get()
            assert 0 <= len(buffer) <= capacity
            assert buffer.high_water_mark <= capacity
    finally:
        pool.shutdown()


# ---------------------------------------------------------------------------
# Samplers: random sampling is a permutation; batch sampler partitions it.
# ---------------------------------------------------------------------------

@given(
    size=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=1000),
    batch_size=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_batch_sampler_partitions_the_permutation(size, seed, batch_size):
    dataset = SyntheticImageDataset(size, payload_bytes=8)
    sampler = RandomSampler(dataset, seed=seed, reseed_each_epoch=False)
    batches = list(BatchSampler(sampler, batch_size))
    flattened = [index for batch in batches for index in batch]
    assert sorted(flattened) == list(range(size))
    assert all(len(batch) == batch_size for batch in batches[:-1])
    assert 1 <= len(batches[-1]) <= batch_size


@given(size=st.integers(min_value=1, max_value=100))
@settings(max_examples=50, deadline=None)
def test_sequential_sampler_is_identity(size):
    dataset = SyntheticImageDataset(size, payload_bytes=8)
    assert list(SequentialSampler(dataset)) == list(range(size))


# ---------------------------------------------------------------------------
# Rubberband policy: decisions are consistent with the window definition.
# ---------------------------------------------------------------------------


class FakeBatch:
    """What the protocol cores read of a batch: its key, segment names, size
    and flexible-batching slices (none: a whole batch per consumer)."""

    def __init__(self, epoch, index):
        self.epoch, self.batch_index = epoch, index
        self.segment_names = (f"seg-{epoch}-{index}",)
        self.tensor_nbytes = 8
        self.slices = None

    def key(self):
        return (self.epoch, self.batch_index)


@given(
    window=st.floats(min_value=0.0, max_value=0.5),
    batches_per_epoch=st.integers(min_value=10, max_value=5000),
    join_at=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=150, deadline=None)
def test_rubberband_decision_consistency(window, batches_per_epoch, join_at):
    assume(join_at <= batches_per_epoch)
    policy = RubberbandPolicy(window, batches_per_epoch)
    core = ProducerProtocol(ProducerConfig(), policy)
    for index in range(join_at):  # the window keeps what a joiner may still catch up on
        if not core.keep(FakeBatch(0, index), index):
            break
    reply, _replays = core.hello({"consumer_id": "consumer"}, 0.0, join_at)
    decision = JoinDecision(reply["decision"])
    if join_at == 0:
        assert decision is JoinDecision.IMMEDIATE
    elif window > 0 and join_at < policy.window_batches:
        assert decision is JoinDecision.CATCH_UP
        assert core.halting
    else:
        assert decision is JoinDecision.WAIT_FOR_NEXT_EPOCH
        assert not core.halting


# ---------------------------------------------------------------------------
# The producer's protocol core, stepped with a fake clock and no threads:
# every hold it asks for comes back exactly once, whatever the schedule.
# ---------------------------------------------------------------------------

_PEERS = ("a", "b", "c")


class ProducerProtocolModel(RuleBasedStateMachine):
    """The driver's side of :class:`ProducerProtocol`, reduced to counting.

    ``held`` is every hold the core has asked the driver to take and not yet
    given back, by segment name: one per receiver of a publish, one per new
    waiter of a replay, one for the replay window's own.
    """

    BATCHES = 6  # per epoch: a join window of 3, so the replay window keeps 0 and 1

    def __init__(self):
        super().__init__()
        self.core = ProducerProtocol(
            ProducerConfig(buffer_size=2, heartbeat_timeout=1.0),
            RubberbandPolicy(0.5, batches_per_epoch=self.BATCHES),
        )
        self.now = 0.0
        self.published = 0
        self.held = collections.Counter()

    def _give_back(self, names):
        self.held.subtract(names)
        assert min(self.held.values(), default=0) >= 0, "a hold came back twice"

    def _dropped(self, dropped):
        for consumer_id, reason, releases, notice in dropped:
            self._give_back(releases)
            assert consumer_id not in self.core.peers
            assert (notice is None) == (reason == "bye")

    def _end_epoch(self):
        self._give_back(self.core.end_epoch())
        self.published = 0

    @rule(
        consumer=st.sampled_from(_PEERS),
        token=st.sampled_from(["t1", "t2"]),
        buffer_size=st.integers(min_value=1, max_value=3),
    )
    def hello(self, consumer, token, buffer_size):
        before = self.core.peers.get(consumer)
        body = {"consumer_id": consumer, "token": token, "buffer_size": buffer_size}
        reply, replays = self.core.hello(body, self.now, self.published)
        if before is not None and before.token != token:
            # A squatter is refused and changes nothing.
            assert "error" in reply and replays == []
            assert self.core.peers[consumer] is before
            return
        assert reply["admitted_epoch"] == self.core.peers[consumer].admitted_epoch
        for batch, hold in replays:
            if hold:
                self.held.update(batch.segment_names)

    @rule(consumer=st.sampled_from(_PEERS))
    def beat(self, consumer):
        assert self.core.beat(consumer, self.now) == (consumer in self.core.peers)

    @rule(
        consumer=st.sampled_from(_PEERS),
        owed=st.booleans(),
        pick=st.integers(min_value=0, max_value=7),
    )
    def ack(self, consumer, owed, pick):
        ledger = self.core.ledger
        owing = [k for k in ledger.pending_keys() if consumer in ledger.record_for(k).waiting_on]
        # An owed key, or one that may be a duplicate, a stranger's or never sent.
        key = owing[pick % len(owing)] if owed and owing else (self.core.epoch, pick)
        releases = self.core.ack(consumer, key)
        assert bool(releases) == (key in owing)
        self._give_back(releases)

    @rule(consumer=st.sampled_from(_PEERS), own_token=st.booleans())
    def bye(self, consumer, own_token):
        peer = self.core.peers.get(consumer)
        token = peer.token if peer is not None and own_token else "t-other"
        dropped = self.core.bye(consumer, token)
        assert len(dropped) == (peer is not None and own_token)
        self._dropped(dropped)

    @rule()
    def publish(self):
        verdict, dropped = self.core.capacity(self.now, self.published)
        self._dropped(dropped)
        if verdict == SKIP_EPOCH:
            self._end_epoch()
            return
        active = [peer.consumer_id for peer in self.core.peers.values() if peer.active]
        if verdict != PUBLISH or not active or self.published == self.BATCHES:
            return
        assert not self.core.halting
        batch = FakeBatch(self.core.epoch, self.published)
        self.core.ledger.publish(batch.key(), active, segment_names=batch.segment_names)
        self.held.update(batch.segment_names * len(active))
        for consumer in active:
            owed = self.core.ledger.outstanding_for(consumer)
            assert owed <= self.core.peers[consumer].buffer_size
        if self.core.keep(batch, self.published):
            self.held.update(batch.segment_names)
        self.published += 1

    @rule(seconds=st.sampled_from([0.3, 0.6, 1.5]))
    def advance(self, seconds):
        self.now += seconds
        self._dropped(self.core.expire(self.now))

    @rule()
    def epoch_end(self):
        self._end_epoch()

    @rule()
    def drain(self):
        self._give_back(self.core.drain())
        assert +self.held == collections.Counter()

    @invariant()
    def holds_match_the_tables(self):
        expected = collections.Counter()
        for key in self.core.ledger.pending_keys():
            record = self.core.ledger.record_for(key)
            for name in record.segment_names:
                expected[name] += len(record.waiting_on)
        for batch in self.core.window.values():
            expected.update(batch.segment_names)
        assert +self.held == +expected

    @invariant()
    def dropped_and_unknown_ids_own_nothing(self):
        for consumer in _PEERS:
            if consumer not in self.core.peers:
                assert self.core.ledger.outstanding_for(consumer) == 0

    @invariant()
    def halting_exactly_while_a_peer_catches_up(self):
        catching_up = [peer for peer in self.core.peers.values() if peer.catch_up > 0]
        assert self.core.halting == bool(catching_up)
        assert all(peer.active for peer in catching_up)

    def teardown(self):
        self._give_back(self.core.drain())
        assert +self.held == collections.Counter()


ProducerProtocolModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestProducerProtocolModel = ProducerProtocolModel.TestCase


# ---------------------------------------------------------------------------
# The consumer's protocol core, stepped with no threads: nothing is trained
# twice or below the floor, and every delivered batch is acked exactly once.
# ---------------------------------------------------------------------------


class ConsumerProtocolModel(RuleBasedStateMachine):
    """:class:`ConsumerProtocol` fed what a producer may send one consumer,
    and driven the way :class:`~repro.core.consumer.TensorConsumer` drives
    it: a FIFO buffer of delivered batches, at most one batch in training,
    acked when the loop moves past it.

    The model's producer publishes at its own epoch.  A batch arrives
    before admission when the REPLY is late, and below the admitted epoch
    when the REPLY parks the consumer for the next epoch; a later epoch's
    batches follow the EPOCH_END before them; a replay re-sends a key of an
    open epoch, as rubberband catch-up does alongside ``broadcast``.
    """

    def __init__(self):
        super().__init__()
        self.epoch = 0  # the producer's
        self.next_index = 0
        self.sent = []  # keys sent in epochs not yet closed
        self.answer = None  # the producer's answer to this consumer's HELLO
        self.buffer = collections.deque()
        self.training = None
        self.trained = set()
        self.delivered = set()
        self.acks = collections.Counter()  # of delivered batches
        self.reacks = collections.Counter()  # of their duplicates

    @initialize(
        max_epochs=st.none() | st.integers(min_value=1, max_value=3),
        min_epoch=st.none() | st.integers(min_value=0, max_value=2),
    )
    def attach(self, max_epochs, min_epoch):
        self.core = ConsumerProtocol("c", "t1", max_epochs)
        self.core.min_epoch = min_epoch

    def _floor(self):
        return max(self.core.admitted_epoch, self.core.min_epoch or 0)

    def _ack(self, key):
        self.core.acked(key)
        self.acks[key] += 1

    # ------------------------------------------------------------------ producer
    @rule(
        kind=st.sampled_from(["admit", "refuse", "foreign"]),
        later=st.booleans(),
    )
    def reply(self, kind, later):
        if kind == "foreign":
            # Another instance's answer under the same id, or another id's.
            body = {"consumer_id": "c", "token": "t2", "admitted_epoch": 0}
            if later:
                body = {"consumer_id": "d", "token": "t1", "error": "taken"}
            before = self.core.admitted_epoch
            assert self.core.reply(body) is None
            assert self.core.admitted_epoch == before
            return
        if self.answer is None:  # a retry's REPLY repeats the first answer
            self.answer = "refuse" if kind == "refuse" else self.epoch + later
        if self.answer == "refuse":
            body = {"consumer_id": "c", "token": "t1", "error": "c is taken"}
            assert self.core.reply(body) == "c is taken"
            assert self.core.ended
        else:
            body = {"consumer_id": "c", "token": "t1", "admitted_epoch": self.answer}
            assert self.core.reply(body) == self.answer == self.core.admitted_epoch

    @rule(replay=st.booleans(), pick=st.integers(min_value=0, max_value=20))
    def batch(self, replay, pick):
        if replay and self.sent:
            key = self.sent[pick % len(self.sent)]
        else:
            key = (self.epoch, self.next_index)
            self.next_index += 1
            self.sent.append(key)
        verdict = self.core.batch(FakeBatch(*key))
        admitted = self.core.admitted_epoch
        if admitted is None or key[0] < admitted:
            assert verdict == DROP
        elif key in self.delivered:
            # The original's ack is owed until it is trained: only then did
            # the producer take a fresh hold for the re-send.
            assert verdict == (REACK if self.acks[key] else DUPLICATE)
            if verdict == REACK:
                self.reacks[key] += 1
        else:
            assert verdict == DELIVER
            self.delivered.add(key)
            self.buffer.append(key)

    @rule()
    def epoch_end(self):
        before = self.core.epochs_ended
        counts = self.core.admitted_epoch is not None and self.epoch >= self._floor()
        self.core.epoch_end({"epoch": self.epoch})
        assert self.core.epochs_ended == before + counts
        self.sent = [key for key in self.sent if key[0] > self.epoch]
        self.epoch += 1
        self.next_index = 0

    @rule(own=st.booleans())
    def bye(self, own):
        token = "t1" if own else "t2"
        reason = self.core.bye({"consumer_id": "c", "token": token, "reason": "ack timeout"})
        assert reason == ("ack timeout" if own else None)

    @rule()
    def shutdown(self):
        self.core.shutdown()

    # ------------------------------------------------------------------ trainer
    @precondition(lambda self: self.training is None)
    @rule()
    def take(self):
        key = self.buffer.popleft() if self.buffer else None
        verdict = self.core.take(None if key is None else FakeBatch(*key))
        if self.core.ended:
            assert verdict == DONE
        if verdict == TRAIN:
            assert key not in self.trained, "trained twice"
            assert key[0] >= self._floor(), "trained below the floor"
            if self.core.max_epochs is not None:
                assert key[0] < self._floor() + self.core.max_epochs
            self.trained.add(key)
            self.training = key
        elif verdict == SKIP:
            assert key[0] < self.core.min_epoch
            self._ack(key)
        elif verdict == DONE:
            for leftover in ([key] if key is not None else []) + list(self.buffer):
                self._ack(leftover)
            self.buffer.clear()
        else:
            assert verdict == WAIT and key is None

    @precondition(lambda self: self.training is not None)
    @rule()
    def ack(self):
        self._ack(self.training)
        self.training = None

    # ------------------------------------------------------------------ invariants
    @invariant()
    def every_delivered_batch_is_acked_exactly_once(self):
        owed = set(self.buffer) | {self.training}
        for key in self.delivered:
            assert self.acks[key] == (0 if key in owed else 1), key
        assert set(self.acks) <= self.delivered
        assert all(self.acks[key] == 1 for key in self.reacks)


ConsumerProtocolModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestConsumerProtocolModel = ConsumerProtocolModel.TestCase


# ---------------------------------------------------------------------------
# Shared memory pool: retain/release sequences never release early or leak.
# ---------------------------------------------------------------------------

@given(extra_holds=st.integers(min_value=0, max_value=10))
@settings(max_examples=50, deadline=None)
def test_pool_refcounting_exactness(extra_holds):
    pool = SharedMemoryPool()
    try:
        tensor = pool.allocate_tensor((4,), initial_refcount=1)
        name = tensor.segment.name
        if extra_holds:
            pool.retain(name, extra_holds)
        for _ in range(extra_holds):
            assert pool.release(name) > 0
            assert pool.contains(name)
        assert pool.release(name) == 0
        assert not pool.contains(name)
        assert pool.bytes_in_flight == 0
    finally:
        pool.shutdown()


# ---------------------------------------------------------------------------
# Collate into place: stacking the items into a reserved slab is the batch
# default_collate + share_batch would have built, without the second copy.
# ---------------------------------------------------------------------------

_item_dtypes = st.sampled_from(["float32", "float64", "float16", "int64", "int32", "uint8"])

#: One column of the items: how its values are produced from (rng, row number).
_columns = st.one_of(
    st.tuples(
        st.sampled_from(["tensor", "ndarray", "strided"]),
        st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3),  # () is 0-d
        _item_dtypes,
    ),
    st.tuples(st.sampled_from(["int", "float", "np_int", "np_float"]), st.just([]), st.none()),
)


def _make_value(kind, shape, dtype, rng, row):
    if kind == "int":
        return int(rng.integers(-(2**40), 2**40))
    if kind == "float":
        return float(rng.normal()) * 1e3
    if kind == "np_int":
        return np.int32(rng.integers(-1000, 1000))
    if kind == "np_float":
        return np.float64(rng.normal())
    array = np.asarray(rng.random(shape) * 100 + row).astype(dtype)
    if kind == "tensor":
        return from_numpy(array, "cuda:0" if dtype == "uint8" else "cpu")
    if kind == "strided" and array.ndim:
        # A non-contiguous view: every second element of a doubled last axis.
        array = np.repeat(array, 2, axis=-1)[..., ::2]
    return array


@given(
    columns=st.lists(_columns, min_size=1, max_size=3),
    pairs=st.booleans(),
    length=st.integers(min_value=1, max_value=11),
    batch_size=st.integers(min_value=1, max_value=6),
    device=st.sampled_from(["cpu", "cuda:0"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=150, deadline=None)
def test_collating_into_a_reserved_slab_equals_collate_then_share(
    columns, pairs, length, batch_size, device, seed
):
    rng = np.random.default_rng(seed)
    if pairs:  # (sample, label) items collate to {"inputs", "targets"}
        columns = (columns * 2)[:2]
    items = []
    for row in range(length):
        values = [_make_value(kind, shape, dtype, rng, row) for kind, shape, dtype in columns]
        items.append(tuple(values) if pairs else {f"k{i}": v for i, v in enumerate(values)})

    in_place, copied = SharedMemoryPool(), SharedMemoryPool()
    try:
        # The loader's chunks: full batches, then a short last one.
        for start in range(0, length, batch_size):
            chunk = items[start : start + batch_size]
            layout, fill = plan_collate(chunk)
            got = in_place.fill_batch(layout, fill, device=device)
            want = copied.share_batch(
                {key: tensor.to(device) for key, tensor in default_collate(chunk).items()}
            )
            assert list(got) == list(want)
            for key in want:
                assert got[key].shape == want[key].shape
                assert got[key].dtype == want[key].dtype
                assert got[key].device == want[key].device
                assert got[key].numpy().tobytes() == want[key].numpy().tobytes()
                assert got[key].segment_offset == want[key].segment_offset
                assert got[key].segment_offset % 64 == 0
            assert len({t.segment.name for t in got.values()}) == 1
        assert in_place.live_segments == copied.live_segments
        assert in_place.bytes_in_flight == copied.bytes_in_flight
    finally:
        in_place.shutdown()
        copied.shutdown()


# ---------------------------------------------------------------------------
# One copy call per column: joining the rows end to end in a view of the slab
# array with the batch axis folded in writes what np.stack(rows, out=) wrote.
# ---------------------------------------------------------------------------


def _make_row(form, shape, dtype, rng, row):
    array = np.asarray(rng.random(shape) * 100 + row).astype(dtype)
    if form == "fortran" and array.ndim > 1:  # (asfortranarray makes a 0-d array 1-d)
        array = np.asfortranarray(array)
    elif form == "strided" and array.ndim:
        array = np.repeat(array, 2, axis=-1)[..., ::2]
    elif form == "read_only":
        array.flags.writeable = False
    elif form == "tensor":
        return from_numpy(array)
    return array


@given(
    form=st.sampled_from(["c", "fortran", "strided", "read_only", "tensor"]),
    shape=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=4),  # [] is 0-d
    dtype=_item_dtypes,
    length=st.integers(min_value=1, max_value=9),
    batch_size=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=300, deadline=None)
def test_the_one_call_fill_writes_the_bytes_np_stack_wrote(
    form, shape, dtype, length, batch_size, seed
):
    rng = np.random.default_rng(seed)
    rows = [_make_row(form, shape, dtype, rng, row) for row in range(length)]
    # The loader's chunks: full batches, then a short last one.
    for start in range(0, length, batch_size):
        chunk = rows[start : start + batch_size]
        layout, fill = plan_collate([{"x": row, "n": start} for row in chunk])
        assert layout["x"] == ((len(chunk), *shape), np.dtype(dtype))
        got = {key: np.full(shape_, 77, dtype_) for key, (shape_, dtype_) in layout.items()}
        fill(got)
        want = np.full((len(chunk), *shape), 55, dtype)
        np.stack([r.numpy() if isinstance(r, Tensor) else r for r in chunk], out=want)
        assert got["x"].tobytes() == want.tobytes()
        assert got["n"].tolist() == [start] * len(chunk)


def test_the_fill_refuses_an_array_it_could_only_fold_by_copying():
    layout, fill = plan_collate([{"x": np.ones((2, 3), np.float32)}] * 4)
    assert layout == {"x": ((4, 2, 3), np.dtype(np.float32))}
    strided = np.zeros((4, 2, 6), np.float32)[..., ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        fill({"x": strided})
    assert not strided.any()  # nothing was written anywhere


# ---------------------------------------------------------------------------
# The column agreement check: one pass per property over a column decides
# plan-vs-fallback exactly as describing every value and comparing did.
# ---------------------------------------------------------------------------


def _value_spec(value):
    """The per-value description ``plan_collate`` used to compare (kept here
    as the reference): ``(kind, shape, dtype)`` by ``_collate_values``'s
    dispatch, ``None`` for a type it rejects."""
    if isinstance(value, Tensor):
        array = value.numpy()
        return (value.device, array.shape, array.dtype)
    if isinstance(value, np.ndarray):
        return (np.ndarray, value.shape, value.dtype)
    if isinstance(value, (int, np.integer)):
        return (int, (), _INT)
    if isinstance(value, (float, np.floating)):
        return (float, (), _FLOAT)
    return None


def _reference_column_spec(values):
    spec = _value_spec(values[0])
    if spec is None or any(_value_spec(value) != spec for value in values[1:]):
        return None
    return spec[1], spec[2]


class _Subclassed(np.ndarray):
    pass


#: name -> value factory.  The first four are the honest column kinds; the
#: rest are what can turn up among them.
_MIXED_VALUES = {
    "int": lambda: 7,
    "float": lambda: 0.5,
    "ndarray": lambda: np.full((2, 3), 2, dtype=np.float32),
    "tensor": lambda: from_numpy(np.full((2, 3), 2, dtype=np.float32)),
    "bool": lambda: True,
    "np_bool": lambda: np.bool_(True),
    "np_int32": lambda: np.int32(3),
    "np_float64": lambda: np.float64(1.5),
    "huge_int": lambda: 2**70,
    "ndarray_subclass": lambda: np.full((2, 3), 4, dtype=np.float32).view(_Subclassed),
    "ndarray_float64": lambda: np.full((2, 3), 5, dtype=np.float64),
    "ndarray_big_endian": lambda: np.full((2, 3), 6, dtype=">f4"),
    "ndarray_ragged": lambda: np.full((2, 4), 7, dtype=np.float32),
    "scalar_array_float32": lambda: np.array(1.0, dtype=np.float32),
    "scalar_array_float64": lambda: np.array(1.0, dtype=np.float64),
    "tensor_other_device": lambda: from_numpy(np.full((2, 3), 2, dtype=np.float32), "cuda:0"),
    "tensor_ragged": lambda: from_numpy(np.full((3, 3), 2, dtype=np.float32)),
    "tensor_int64": lambda: from_numpy(np.full((2, 3), 2, dtype=np.int64)),
    "none": lambda: None,
    "text": lambda: "seven",
}


@given(
    base=st.sampled_from(sorted(_MIXED_VALUES)),
    intruders=st.lists(
        st.tuples(st.sampled_from(sorted(_MIXED_VALUES)), st.integers(min_value=0, max_value=8)),
        max_size=2,
    ),
    length=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=400, deadline=None)
def test_column_agreement_check_decides_as_the_per_value_comparison_did(base, intruders, length):
    values = [_MIXED_VALUES[base]() for _ in range(length)]
    for name, position in intruders:
        values.insert(min(position, len(values)), _MIXED_VALUES[name]())

    # Same decision, and the same layout entry when the decision is "plan".
    assert _column_spec(values) == _reference_column_spec(values)

    # Whichever way it went: default_collate's bytes, or its exception type.
    items = [{"k": value} for value in values]
    pool = SharedMemoryPool()
    try:
        try:
            want = default_collate(items)["k"].numpy()
        except Exception as exc:
            with pytest.raises(type(exc)):
                pool.fill_batch(*plan_collate(items))
        else:
            got = pool.fill_batch(*plan_collate(items))["k"].numpy()
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
    finally:
        pool.shutdown()


# ---------------------------------------------------------------------------
# as_dtype: the spelling table answers what parsing the name answered.
# ---------------------------------------------------------------------------


def _reference_as_dtype(value):
    if isinstance(value, DType):
        return value
    by_name = {dt.name: dt for dt in all_dtypes()}
    try:
        return by_name[np.dtype(value).name]
    except KeyError as exc:
        raise TypeError(f"unsupported tensor dtype {value!r}") from exc


def _spellings(dt):
    native = np.dtype(dt.name)
    yield from (dt, dt.name, native, native.type, native.str, native.char)
    yield from (native.newbyteorder("<"), native.newbyteorder(">"), native.newbyteorder("="))


@pytest.mark.parametrize("dt", all_dtypes(), ids=str)
def test_as_dtype_maps_every_accepted_spelling_as_before(dt):
    for spelling in _spellings(dt):
        assert as_dtype(spelling) is _reference_as_dtype(spelling) is dt, spelling
    assert dt.numpy_dtype == np.dtype(dt.name) and dt.numpy_dtype.isnative


@pytest.mark.parametrize("spelling", [float, int, bool, None, "f4", "<i8", "=u1"])
def test_as_dtype_keeps_the_spellings_only_numpy_resolves(spelling):
    assert as_dtype(spelling) is _reference_as_dtype(spelling)


@pytest.mark.parametrize(
    "bad",
    ["complex64", np.complex128, np.dtype("U4"), object, "no-such-dtype", 3.5,
     [("a", "f4")], {"names": ["a"], "formats": ["f4"]}, ["float32"]],
    ids=repr,
)
def test_as_dtype_rejects_unsupported_and_unhashable_input_as_before(bad):
    with pytest.raises(TypeError) as reference:
        _reference_as_dtype(bad)
    with pytest.raises(TypeError) as got:
        as_dtype(bad)
    assert str(got.value) == str(reference.value)


# ---------------------------------------------------------------------------
# Normalize and ToTensor: one allocation and in-place arithmetic on image rows
# give, bit for bit, what the allocate-per-step expressions gave.
# ---------------------------------------------------------------------------


def _reference_normalize(self, item):
    """``Normalize.__call__`` as it stood before the in-place rewrite, verbatim."""
    item = dict(item)
    values = item[self.key].astype(np.float32)
    if values.max() > 1.0:
        values = values / 255.0
    if values.ndim == 3 and values.shape[-1] == len(self.mean):
        values = (values - self.mean) / self.std
    else:
        values = (values - float(self.mean.mean())) / float(self.std.mean())
    item[self.key] = values
    return item


def _reference_to_tensor(self, item):
    """``ToTensor.__call__`` as it stood before the one-pass rewrite, verbatim."""
    item = dict(item)
    keys = self.keys if self.keys is not None else [
        k for k, v in item.items() if isinstance(v, np.ndarray)
    ]
    for key in keys:
        value = item[key]
        if key == "image" and value.ndim == 3:
            value = np.ascontiguousarray(np.transpose(value, (2, 0, 1)))
        item[key] = from_numpy(np.ascontiguousarray(value))
    return item


_IMAGE_SHAPES = {
    "hwc": lambda h, w: (h, w, 3),
    "gray": lambda h, w: (h, w),
    "rgba": lambda h, w: (h, w, 4),
    "chw": lambda h, w: (3, h, w),
}


def _make_image(form, layout, dtype, height, width, scale, nans, rng):
    shape = _IMAGE_SHAPES[form](height, width)
    # "cropped" cuts the image out of a frame one element wider on each side
    # of its first two axes.
    full = tuple(n + 2 for n in shape[:2]) + shape[2:] if layout == "cropped" else shape
    if dtype == np.uint8:
        image = rng.integers(0, 256, size=full, dtype=np.uint8)
    else:
        image = (rng.random(full) * scale).astype(dtype)
        image.reshape(-1)[rng.integers(0, image.size, size=nans)] = np.nan
    if layout == "fortran":
        image = np.asfortranarray(image)
    elif layout == "cropped":
        image = image[1:-1, 1:-1]
    elif layout == "flipped":
        image = image[:, ::-1]
    return image


_image_cases = dict(
    form=st.sampled_from(sorted(_IMAGE_SHAPES)),
    layout=st.sampled_from(["c", "fortran", "cropped", "flipped"]),
    dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
    height=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=40),
    scale=st.sampled_from([1.0, 300.0]),  # floats already in [0, 1], and above it
    nans=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _bits(array):
    """Float32 values as integers, so a NaN equals the same NaN."""
    return np.ascontiguousarray(array).view(np.uint32)


@given(**_image_cases)
@settings(max_examples=400, deadline=None)
def test_normalize_in_place_on_rows_equals_the_allocating_expression(
    form, layout, dtype, height, width, scale, nans, seed
):
    rng = np.random.default_rng(seed)
    image = _make_image(form, layout, dtype, height, width, scale, nans, rng)
    # A uint8 frame no brighter than 1 is the one input that reads differently
    # now (tests/test_data.py::test_normalize_scales_uint8_by_dtype_not_by_content).
    assume(dtype != np.uint8 or image.max() > 1)
    before = image.copy()
    normalize = Normalize()
    want = _reference_normalize(normalize, {"image": image, "label": 3})
    got = normalize({"image": image, "label": 3})

    out = got["image"]
    assert got["label"] == 3 and out.shape == image.shape
    assert out.dtype == np.float32 and out.flags.c_contiguous
    assert np.array_equal(_bits(out), _bits(want["image"]))
    # Above all for float32 C-contiguous input, which an asarray would alias:
    # a dataset's stored images must not be normalised in place, epoch after epoch.
    assert not np.shares_memory(out, image)
    assert image.tobytes() == before.tobytes()


@given(explicit_keys=st.booleans(), **_image_cases)
@settings(max_examples=300, deadline=None)
def test_to_tensor_in_one_pass_equals_the_three_step_conversion(
    explicit_keys, form, layout, dtype, height, width, scale, nans, seed
):
    rng = np.random.default_rng(seed)
    image = _make_image(form, layout, dtype, height, width, scale, nans, rng)
    item = {"image": image, "mask": image, "label": 3, "index": np.int64(seed)}
    to_tensor = ToTensor(keys=("mask", "image")) if explicit_keys else ToTensor()
    want = _reference_to_tensor(to_tensor, item)
    got = to_tensor(item)

    assert list(got) == list(want) and (got["label"], got["index"]) == (3, seed)
    for key in ("image", "mask"):
        out, ref = got[key].numpy(), want[key].numpy()
        assert (out.shape, out.dtype) == (ref.shape, ref.dtype) and out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()
        # Wrapped where it was wrapped, copied where it was copied.
        assert np.shares_memory(out, image) == np.shares_memory(ref, image)
    assert item["image"] is image and item["mask"] is image


def test_one_normalize_serves_four_threads_on_three_widths():
    rng = np.random.default_rng(0)
    images = [rng.integers(0, 256, size=(5, width, 3), dtype=np.uint8) for width in (7, 16, 33)]
    want = [Normalize()({"image": image})["image"] for image in images]
    shared = Normalize()
    start = threading.Barrier(4)

    def mismatches(offset):
        start.wait(timeout=10)  # all four meet the empty row cache together
        order = [(turn + offset) % len(images) for turn in range(300)]
        got = [shared({"image": images[which]})["image"] for which in order]
        return [
            turn for turn, which in enumerate(order)
            if not np.array_equal(_bits(got[turn]), _bits(want[which]))
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            found = list(pool.map(mismatches, range(4), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert found == [[], [], [], []]


# ---------------------------------------------------------------------------
# Simulation store: FIFO order is preserved for arbitrary interleavings.
# ---------------------------------------------------------------------------

@given(items=st.lists(st.integers(), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_store_preserves_fifo_order(items):
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for item in items:
            yield store.put(item)
            yield sim.timeout(0.1)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == items
