"""Unit tests for the protocol policy components: ledger, buffer, flexible
batching, rubberbanding and configuration."""

import numpy as np
import pytest

from repro.core import (
    AckLedger,
    BatchBuffer,
    ConsumerConfig,
    FlexibleBatcher,
    ProducerConfig,
    RubberbandPolicy,
    plan_slices,
)
from repro.core.flexible_batch import recommend_producer_batch_size
from repro.core.protocol import ProducerProtocol
from repro.core.rubberband import JoinDecision
from repro.tensor import BatchPayload, SharedMemoryPool, from_numpy


class TestConfigs:
    def test_producer_config_defaults_match_paper(self):
        config = ProducerConfig()
        assert config.buffer_size == 2
        assert config.rubberband_fraction == pytest.approx(0.02)
        assert config.data_address.endswith("/data")
        assert config.control_address.endswith("/control")

    def test_producer_config_validation(self):
        with pytest.raises(ValueError):
            ProducerConfig(buffer_size=0)
        with pytest.raises(ValueError):
            ProducerConfig(rubberband_fraction=1.5)
        with pytest.raises(ValueError):
            ProducerConfig(epochs=0)
        with pytest.raises(ValueError):
            ProducerConfig(producer_batch_size=0)
        with pytest.raises(ValueError):
            ProducerConfig(heartbeat_timeout=0)

    def test_consumer_config_validation(self):
        with pytest.raises(ValueError):
            ConsumerConfig(batch_size=0)
        with pytest.raises(ValueError):
            ConsumerConfig(buffer_size=0)
        with pytest.raises(ValueError):
            ConsumerConfig(max_epochs=0)
        with pytest.raises(ValueError):
            ConsumerConfig(receive_timeout=0)
        with pytest.raises(ValueError):
            ConsumerConfig(heartbeat_interval=0)


class TestAckLedger:
    def test_batch_released_only_after_all_acks(self):
        released = []
        ledger = AckLedger(release_callback=released.append)
        ledger.publish((0, 0), ["a", "b"], segment_names=("seg",), nbytes=10)
        assert ledger.acknowledge("a", (0, 0)) is None
        assert ledger.pending_batches == 1
        record = ledger.acknowledge("b", (0, 0))
        assert record is not None and record.fully_acknowledged
        assert released and released[0].key == (0, 0)
        assert ledger.pending_batches == 0

    def test_duplicate_and_unknown_acks_are_counted_not_applied(self):
        ledger = AckLedger()
        ledger.publish((0, 0), ["a"])
        ledger.acknowledge("a", (0, 0))
        assert ledger.acknowledge("a", (0, 0)) is None
        assert ledger.acknowledge("ghost", (9, 9)) is None
        assert ledger.duplicate_acks == 2

    def test_publish_same_key_twice_rejected(self):
        ledger = AckLedger()
        ledger.publish((1, 5), ["a"])
        with pytest.raises(ValueError):
            ledger.publish((1, 5), ["a"])

    def test_publish_requires_consumers(self):
        with pytest.raises(ValueError):
            AckLedger().publish((0, 0), [])

    def test_flow_control_capacity(self):
        ledger = AckLedger()
        ledger.publish((0, 0), ["a"])
        ledger.publish((0, 1), ["a"])
        assert ledger.outstanding_for("a") == 2
        assert not ledger.can_publish_to("a", buffer_size=2)
        assert ledger.can_publish_to("a", buffer_size=3)
        assert not ledger.all_have_capacity(["a"], 2)
        ledger.acknowledge("a", (0, 0))
        assert ledger.can_publish_to("a", buffer_size=2)

    def test_slowest_consumer_identified(self):
        ledger = AckLedger()
        ledger.publish((0, 0), ["a", "b"])
        ledger.publish((0, 1), ["a", "b"])
        ledger.acknowledge("b", (0, 0))
        assert ledger.slowest_consumers(["a", "b"]) == ["a"]
        assert ledger.slowest_consumers([]) == []

    def test_drop_consumer_releases_batches_it_was_blocking(self):
        released = []
        ledger = AckLedger(release_callback=released.append)
        ledger.publish((0, 0), ["a", "b"])
        ledger.acknowledge("b", (0, 0))
        freed = ledger.drop_consumer("a")
        assert [record.key for record in freed] == [(0, 0)]
        assert ledger.pending_batches == 0

    def test_pending_bytes_tracking(self):
        ledger = AckLedger()
        ledger.publish((0, 0), ["a"], nbytes=100)
        ledger.publish((0, 1), ["a"], nbytes=50)
        assert ledger.pending_bytes == 150
        ledger.acknowledge("a", (0, 1))
        assert ledger.pending_bytes == 100


class TestBatchBuffer:
    def _payload(self, index=0):
        pool = SharedMemoryPool()
        tensor = pool.share_tensor(from_numpy(np.zeros(2, dtype=np.float32)))
        payload = BatchPayload.pack({"x": tensor}, batch_index=index, epoch=0)
        return payload

    def test_fifo_and_capacity(self):
        buffer = BatchBuffer(capacity=2)
        first, second = self._payload(0), self._payload(1)
        buffer.put(first)
        buffer.put(second)
        assert not buffer.has_room
        with pytest.raises(OverflowError):
            buffer.put(self._payload(2))
        assert buffer.get() is first
        assert buffer.get() is second
        assert buffer.get() is None

    def test_drift_and_high_water_mark(self):
        buffer = BatchBuffer(capacity=4)
        buffer.put_many([self._payload(i) for i in range(3)])
        assert buffer.drift == 3
        assert buffer.high_water_mark == 3
        buffer.get()
        assert buffer.drift == 2

    def test_peek_and_clear(self):
        buffer = BatchBuffer(capacity=2)
        payload = self._payload()
        assert buffer.peek() is None
        buffer.put(payload)
        assert buffer.peek() is payload
        dropped = buffer.clear()
        assert dropped == [payload]
        assert buffer.is_empty

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BatchBuffer(0)


class TestPlanSlices:
    def test_even_division_has_no_repetition(self):
        plan = plan_slices(16, 4)
        assert len(plan.slices) == 4
        assert plan.repeated_rows == 0
        assert all(spec.is_contiguous for spec in plan.slices)
        assert plan.covered_rows().tolist() == list(range(16))

    def test_uneven_division_wraps_and_bounds_repetition(self):
        plan = plan_slices(16, 7)
        assert len(plan.slices) == 3
        assert plan.rows_served == 21
        assert plan.repeated_rows == 5
        assert plan.repeated_rows <= 7 - 1
        assert plan.covered_rows().tolist() == list(range(16))

    def test_figure5_consumer_batch_sizes(self):
        # The paper's Figure 5: producer batch 16 serving consumers of 4, 7 and 6.
        repeated = {b: plan_slices(16, b).repeated_rows for b in (4, 7, 6)}
        assert repeated == {4: 0, 7: 5, 6: 2}

    def test_offset_rotates_start_but_preserves_coverage(self):
        plan = plan_slices(16, 4, offset=3)
        assert plan.slices[0].start == 3
        assert plan.covered_rows().tolist() == list(range(16))

    def test_shuffle_permutes_slice_order(self):
        ordered = plan_slices(64, 8)
        shuffled = plan_slices(64, 8, shuffle_seed=1)
        assert {s.start for s in ordered.slices} == {s.start for s in shuffled.slices}
        assert [s.start for s in ordered.slices] != [s.start for s in shuffled.slices]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_slices(0, 4)
        with pytest.raises(ValueError):
            plan_slices(16, 0)
        with pytest.raises(ValueError):
            plan_slices(8, 16)

    def test_recommended_producer_batch_size(self):
        assert recommend_producer_batch_size([128]) == 256
        assert recommend_producer_batch_size([128, 192, 224]) >= 448
        # Power-of-two consumers: the LCM keeps repetition at zero.
        assert recommend_producer_batch_size([64, 128]) % 128 == 0
        with pytest.raises(ValueError):
            recommend_producer_batch_size([])
        with pytest.raises(ValueError):
            recommend_producer_batch_size([0])


class TestFlexibleBatcher:
    def test_a_short_producer_batch_is_planned_over_its_own_rows(self):
        batcher = FlexibleBatcher(8, {"a": 4, "b": 8})
        assert [s.ranges for s in batcher.plan_for("a", 0, rows=6).slices] == [
            ((0, 4),),
            ((4, 6), (0, 2)),
        ]
        # A batch size above the rows left is one short batch of all of them.
        assert [s.ranges for s in batcher.plan_for("b", 0, rows=6).slices] == [((0, 6),)]

    def test_plans_row_ranges_for_each_consumer(self):
        batcher = FlexibleBatcher(16, {"a": 4, "b": 7})
        ranges_a = [s.ranges for s in batcher.plan_for("a").slices]
        assert ranges_a == [((0, 4),), ((4, 8),), ((8, 12),), ((12, 16),)]
        ranges_b = [s.ranges for s in batcher.plan_for("b").slices]
        # The last batch wraps: two ranges, 7 rows.
        assert ranges_b == [((0, 7),), ((7, 14),), ((14, 16), (0, 5))]

    def test_plan_for_rejects_an_unknown_consumer(self):
        batcher = FlexibleBatcher(8, {"a": 4})
        with pytest.raises(KeyError):
            batcher.plan_for("ghost")

    def test_offsets_differ_between_consumers(self):
        batcher = FlexibleBatcher(16, {"a": 4, "b": 4}, use_offsets=True)
        assert batcher.offset_for("a") != batcher.offset_for("b")
        no_offsets = FlexibleBatcher(16, {"a": 4, "b": 4})
        assert no_offsets.offset_for("a") == no_offsets.offset_for("b") == 0

    def test_shuffled_slices_vary_by_producer_batch(self):
        batcher = FlexibleBatcher(64, {"a": 8}, shuffle_slices=True, seed=1)
        starts_zero = [s.start for s in batcher.plan_for("a", 0).slices]
        starts_one = [s.start for s in batcher.plan_for("a", 1).slices]
        assert sorted(starts_zero) == sorted(starts_one)
        assert starts_zero != starts_one

    def test_repetition_report_and_bound(self):
        batcher = FlexibleBatcher(448, {"a": 128, "b": 192, "c": 224})
        report = batcher.repetition_report()
        assert set(report) == {"a", "b", "c"}
        assert batcher.max_repeated_share() < 0.5

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FlexibleBatcher(0, {"a": 4})
        with pytest.raises(ValueError):
            FlexibleBatcher(8, {"a": 16})
        # Consumers without a batch size take whole producer batches.
        assert FlexibleBatcher(8, {}).repetition_report() == {}


class _Batch:
    """What the producer's protocol core reads of a batch."""

    def __init__(self, index):
        self.epoch, self.batch_index = 0, index
        self.segment_names = (f"seg-{index}",)
        self.tensor_nbytes = 8

    def key(self):
        return (self.epoch, self.batch_index)


def _core_with_window(fraction, *, batches_per_epoch, published):
    """A protocol core that has sent its first consumer ``published``
    batches, each kept in the rubberband replay window."""
    core = ProducerProtocol(
        ProducerConfig(buffer_size=16), RubberbandPolicy(fraction, batches_per_epoch)
    )
    core.hello({"consumer_id": "first"}, 0.0, 0)
    for index in range(published):
        batch = _Batch(index)
        core.ledger.publish(batch.key(), ["first"], segment_names=batch.segment_names)
        assert core.keep(batch, index)
    return core


class TestRubberband:
    def test_window_geometry(self):
        policy = RubberbandPolicy(0.02, batches_per_epoch=1000)
        assert policy.window_batches == 20
        assert policy.within_window(10)
        assert policy.within_window(19)
        # The paper admits joiners strictly *before* the window has been
        # iterated: at exactly window_batches published, the window is over.
        assert not policy.within_window(20)
        assert not policy.within_window(25)

    def test_zero_window_disables_catch_up(self):
        policy = RubberbandPolicy(0.0, batches_per_epoch=100)
        assert policy.window_batches == 0
        assert policy.decide("c", 1) is JoinDecision.WAIT_FOR_NEXT_EPOCH

    def test_decisions_by_join_time(self):
        policy = RubberbandPolicy(0.02, batches_per_epoch=1000)
        assert policy.decide("early", 0) is JoinDecision.IMMEDIATE
        assert policy.decide("in-window", 15) is JoinDecision.CATCH_UP
        assert policy.decide("late", 500) is JoinDecision.WAIT_FOR_NEXT_EPOCH
        assert policy.joins_immediate == 1
        assert policy.joins_caught_up == 1
        assert policy.joins_deferred == 1

    # Catch-up is a field of the producer's peer table (repro.core.protocol).
    def test_catch_up_progress_and_halting(self):
        core = _core_with_window(0.05, batches_per_epoch=100, published=3)  # window: 5
        reply, replays = core.hello({"consumer_id": "c"}, 0.0, 3)
        assert reply["decision"] == "catch_up"
        assert core.halting
        assert [(batch.batch_index, hold) for batch, hold in replays] == [
            (0, True), (1, True), (2, True)
        ]
        # Each replay took a hold of its own, which the ack returns.
        assert core.ack("c", (0, 0)) == ("seg-0",)
        assert core.ack("c", (0, 1)) == ("seg-1",)
        assert core.halting
        assert core.ack("c", (0, 2)) == ("seg-2",)
        assert not core.halting

    def test_record_replayed_for_unknown_consumer_is_true(self):
        # An unknown consumer's ack catches nobody up and releases nothing.
        core = _core_with_window(0.05, batches_per_epoch=100, published=1)
        assert core.ack("ghost", (0, 0)) == ()
        assert "ghost" not in core.peers and not core.halting
        assert core.ledger.duplicate_acks == 1

    def test_abandon_and_epoch_reset_clear_state(self):
        core = _core_with_window(0.05, batches_per_epoch=100, published=2)
        core.hello({"consumer_id": "a", "token": "ta"}, 0.0, 2)
        assert core.halting
        core.bye("a", "ta")  # left before it caught up
        assert not core.halting
        core.hello({"consumer_id": "b"}, 0.0, 2)
        assert core.halting
        assert sorted(core.end_epoch()) == ["seg-0", "seg-1"]  # the window's holds
        assert not core.halting

    def test_unknown_epoch_length_raises(self):
        policy = RubberbandPolicy(0.02)
        with pytest.raises(ValueError):
            _ = policy.window_batches

    def test_validation(self):
        with pytest.raises(ValueError):
            RubberbandPolicy(-0.1)
        with pytest.raises(ValueError):
            RubberbandPolicy(0.02, batches_per_epoch=0).set_epoch_length(0)
