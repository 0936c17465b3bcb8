"""Sharded producer groups: disjoint coverage, deterministic merge, churn,
cross-process attach, cache-on-shards replay, and the end-to-end ``set_epoch``
wiring the groups rely on."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

import repro
from repro.core import ConsumerConfig, GroupConsumer, TensorConsumer
from repro.core.group import describe_address, member_address
from repro.core.session import SharedLoaderSession
from repro.data import BatchSampler, DataLoader, SequentialSampler
from repro.data.dataset import Dataset
from repro.messaging import InProcHub
from repro.messaging import endpoint as endpoints
from repro.messaging.message import Message, MessageKind
from repro.tensor import BatchPayload, SharedMemoryPool, from_numpy


def _publisher(hub, address):
    """A fake producer's data channel: publishes straight through the hub."""

    def send(kind, body=None, topic=""):
        return hub.publish(address, Message(topic=topic, kind=kind, sender="test", body=body))

    return send


def _drain(inbox):
    """Every message queued on ``inbox``, without blocking."""
    messages = []
    while (message := inbox.try_receive()) is not None:
        messages.append(message)
    return messages


class IndexDataset(Dataset):
    """Each item carries its own dataset index, so tests can audit coverage."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return {"index": np.array([index], dtype=np.int64)}


def index_loader(n=24, batch_size=4, shuffle=False, seed=0, **kwargs):
    return DataLoader(
        IndexDataset(n), batch_size=batch_size, shuffle=shuffle, seed=seed, **kwargs
    )


def batch_indices(batch):
    return [int(x) for x in batch["index"].numpy().ravel()]


def consume_epochs(consumer):
    """Collect {epoch: [sample indices in delivery order]} via iter_batches."""
    per_epoch = {}
    for payload, batch in consumer.iter_batches():
        per_epoch.setdefault(payload.epoch, []).extend(batch_indices(batch))
    return per_epoch


def consume_flat(consumer):
    return [i for batch in consumer for i in batch_indices(batch)]


# ---------------------------------------------------------------------------
# set_epoch wiring (no sharding): deterministic per-epoch permutations
# ---------------------------------------------------------------------------


class TestSetEpochWiring:
    def test_two_same_seed_producers_publish_identical_epochs(self):
        """Two producers with equal seeds emit identical sequences per epoch
        and different sequences across epochs (the sharding prerequisite;
        previously RandomSampler.set_epoch existed but was never called)."""
        sequences = {}
        for name in ("a", "b"):
            session = repro.serve(
                index_loader(n=32, shuffle=True, seed=11),
                address=f"inproc://set-epoch-{name}",
                epochs=2,
                start=False,
            )
            consumer = session.consumer(ConsumerConfig(max_epochs=2))
            session.start()
            sequences[name] = consume_epochs(consumer)
            session.shutdown()
        assert set(sequences["a"]) == {0, 1}
        assert sequences["a"][0] == sequences["b"][0]
        assert sequences["a"][1] == sequences["b"][1]
        assert sequences["a"][0] != sequences["a"][1]  # epochs still reshuffle
        assert sorted(sequences["a"][0]) == list(range(32))
        assert sorted(sequences["a"][1]) == list(range(32))

    def test_loader_set_epoch_noop_for_sequential(self):
        loader = index_loader(n=8)
        loader.set_epoch(3)  # must not raise
        assert [i for b in loader for i in batch_indices(b)] == list(range(8))


# ---------------------------------------------------------------------------
# shard coverage
# ---------------------------------------------------------------------------


class TestShardCoverage:
    def test_every_sample_exactly_once_per_epoch(self):
        session = repro.serve(
            index_loader(n=37, batch_size=4, shuffle=True, seed=5),
            address="inproc://cover",
            shards=3,
            epochs=2,
            start=False,
        )
        consumer = repro.attach("inproc://cover", max_epochs=2)
        assert isinstance(consumer, GroupConsumer)
        session.start()
        seen = consume_flat(consumer)
        session.shutdown()
        assert len(seen) == 74
        epoch0, epoch1 = seen[:37], seen[37:]
        assert sorted(epoch0) == list(range(37))
        assert sorted(epoch1) == list(range(37))
        assert epoch0 != epoch1  # shards reshuffled together at the boundary

    def test_contiguous_mode_covers_too(self):
        session = repro.serve(
            index_loader(n=20, batch_size=3),
            address="inproc://cover-contig",
            shards=4,
            shard_mode="contiguous",
            epochs=1,
            start=False,
        )
        consumer = repro.attach("inproc://cover-contig", max_epochs=1)
        session.start()
        seen = consume_flat(consumer)
        session.shutdown()
        assert sorted(seen) == list(range(20))


# ---------------------------------------------------------------------------
# deterministic in-order merge
# ---------------------------------------------------------------------------


class TestInOrderMerge:
    def test_global_order_is_batch_index_then_shard(self):
        n, batch_size, shards = 30, 3, 3
        loader = index_loader(n=n, batch_size=batch_size)
        # The reference order: each shard loader's batches, merged by
        # (batch index, shard rank).
        shard_batches = []
        for rank in range(shards):
            shard_loader = loader.shard(rank, shards)
            shard_loader.set_epoch(0)
            shard_batches.append([batch_indices(b) for b in shard_loader])
        expected = []
        for batch_index in range(max(len(b) for b in shard_batches)):
            for rank in range(shards):
                if batch_index < len(shard_batches[rank]):
                    expected.extend(shard_batches[rank][batch_index])

        session = repro.serve(
            index_loader(n=n, batch_size=batch_size),
            address="inproc://in-order",
            shards=shards,
            epochs=1,
            start=False,
        )
        consumer = repro.attach("inproc://in-order", max_epochs=1)
        session.start()
        seen = consume_flat(consumer)
        session.shutdown()
        assert seen == expected

    def test_two_trainers_see_identical_order(self):
        session = repro.serve(
            index_loader(n=24, shuffle=True, seed=2),
            address="inproc://two-trainers",
            shards=2,
            epochs=1,
            start=False,
        )
        first = repro.attach("inproc://two-trainers", max_epochs=1)
        second = repro.attach("inproc://two-trainers", max_epochs=1)
        results = {}

        def train(name, consumer):
            results[name] = consume_flat(consumer)

        threads = [
            threading.Thread(target=train, args=(name, consumer))
            for name, consumer in (("first", first), ("second", second))
        ]
        for thread in threads:
            thread.start()
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        session.shutdown()
        assert results["first"] == results["second"]
        assert sorted(results["first"]) == list(range(24))


class TestAnyInterleave:
    def test_arrival_order_still_epoch_aligned(self):
        session = repro.serve(
            index_loader(n=24, batch_size=4),
            address="inproc://any-order",
            shards=3,
            epochs=2,
            start=False,
        )
        consumer = repro.attach("inproc://any-order", max_epochs=2, interleave="any")
        assert isinstance(consumer, GroupConsumer)
        assert consumer.interleave == "any"
        session.start()
        seen = consume_flat(consumer)
        session.shutdown()
        # The epoch barrier: the first 24 samples are exactly epoch 0's set,
        # whatever their arrival order.
        assert sorted(seen[:24]) == list(range(24))
        assert sorted(seen[24:]) == list(range(24))

    def test_member_failure_is_surfaced_not_swallowed(self):
        """A member that dies with an exception (receive timeout — not a
        clean shutdown) must propagate out of the "any" merge; swallowing it
        would silently drop a whole shard from training."""
        from repro.messaging.errors import TimeoutError_

        pool = SharedMemoryPool()
        hub = InProcHub()
        pubs = [_publisher(hub, f"m{k}/data") for k in (0, 1)]
        controls = [hub.bind(f"m{k}/control") for k in (0, 1)]
        members = [
            TensorConsumer(
                hub=hub,
                pool=pool,
                config=ConsumerConfig(
                    address=f"m{k}", consumer_id="c", max_epochs=1, receive_timeout=2
                ),
            )
            for k in (0, 1)
        ]
        for k, pub in enumerate(pubs):
            pub(
                MessageKind.REPLY,
                body={"consumer_id": "c", "admitted_epoch": 0},
                topic="consumer/c",
            )
            staged = {"x": pool.share_tensor(from_numpy(np.full(2, k, dtype=np.float32)))}
            pub(
                MessageKind.BATCH,
                body=BatchPayload.pack(staged, batch_index=0, epoch=0),
                topic="broadcast",
            )
        # Member 0 finishes its epoch cleanly; member 1 goes silent mid-epoch.
        pubs[0](MessageKind.EPOCH_END, body={"epoch": 0, "batches": 1}, topic="broadcast")
        group = GroupConsumer(members, interleave="any")
        delivered = []
        with pytest.raises(TimeoutError_):
            for batch in group:
                delivered.append(batch["x"])
        assert len(delivered) == 2  # both members' batches arrived first
        # Both delivered batches were trained on and acknowledged before the
        # failure surfaced.
        assert _drain(controls[0])
        assert _drain(controls[1])
        group.close()
        pool.shutdown()


# ---------------------------------------------------------------------------
# member stop / churn
# ---------------------------------------------------------------------------


class TestMemberChurn:
    def test_member_stop_drains_all_pool_bytes(self):
        session = repro.serve(
            index_loader(n=60, batch_size=2),
            address="inproc://churn",
            shards=3,
            epochs=1,
            start=False,
        )
        consumer = repro.attach("inproc://churn", max_epochs=1)
        collected = []
        done = threading.Event()

        def train():
            for batch in consumer:
                collected.append(batch_indices(batch))
                if len(collected) == 6:
                    # Kill one member mid-epoch; the rest must keep serving.
                    session.members[0].stop()
            done.set()

        thread = threading.Thread(target=train)
        thread.start()
        session.start()
        assert done.wait(timeout=30)
        thread.join(timeout=5)
        # Shards 1 and 2 finished their full shard; shard 0 stopped early.
        seen = [i for batch in collected for i in batch]
        shard1 = set(range(60))
        full_members = [
            set(batch_indices(b))
            for rank in (1, 2)
            for b in session.members[rank].loader
        ]
        for member_batch in full_members:
            assert member_batch <= set(seen) or member_batch <= shard1
        # Poll BEFORE shutdown (which zeroes the pool): member join() paths
        # must have returned every hold on their own.
        deadline = time.time() + 10
        while time.time() < deadline and (
            session.metrics()["repro.pool.bytes_in_flight"]
            or session.metrics()["repro.pool.cached_bytes"]
        ):
            time.sleep(0.01)
        metrics = session.metrics()
        assert metrics["repro.pool.bytes_in_flight"] == 0
        assert metrics["repro.pool.cached_bytes"] == 0
        session.shutdown()
        assert session.pool.live_segments == 0

    def test_surviving_members_serve_their_full_shards(self):
        session = repro.serve(
            index_loader(n=30, batch_size=2),
            address="inproc://churn-cover",
            shards=3,
            epochs=1,
            start=False,
        )
        # Stop member 0 before it publishes anything at all.
        session.members[0].stop()
        consumer = repro.attach("inproc://churn-cover", max_epochs=1)
        session.start()
        seen = consume_flat(consumer)
        session.shutdown()
        shard0 = {i for b in session.members[0].loader for i in batch_indices(b)}
        assert set(seen) == set(range(30)) - shard0
        assert session.pool.live_segments == 0


class TestMinEpochLimit:
    def test_skipped_pre_group_epochs_do_not_count_toward_max_epochs(self):
        """A member admitted before the group's start epoch must not burn its
        max_epochs budget on epochs the merge skips — that would end its
        stream early and leave later epochs served by a subset of shards."""
        pool = SharedMemoryPool()
        hub = InProcHub()
        pub = _publisher(hub, "tensorsocket/data")
        control = hub.bind("tensorsocket/control")
        consumer = TensorConsumer(
            hub=hub,
            pool=pool,
            config=ConsumerConfig(consumer_id="m", max_epochs=1, receive_timeout=5),
        )
        # The producer admitted this member at epoch 0...
        pub(
            MessageKind.REPLY,
            body={"consumer_id": "m", "admitted_epoch": 0},
            topic="consumer/m",
        )
        # ...but the group starts at epoch 1: epoch 0 closes without batches.
        pub(MessageKind.EPOCH_END, body={"epoch": 0, "batches": 0}, topic="broadcast")
        staged = {"x": pool.share_tensor(from_numpy(np.zeros(4, dtype=np.float32)))}
        payload = BatchPayload.pack(staged, batch_index=0, epoch=1)
        pub(MessageKind.BATCH, body=payload, topic="broadcast")
        pub(MessageKind.EPOCH_END, body={"epoch": 1, "batches": 1}, topic="broadcast")
        got = [batch for _payload, batch in consumer.iter_batches(min_epoch=1)]
        # Without the min_epoch floor on epoch counting, EPOCH_END(0) eats the
        # one-epoch budget and this list is empty.
        assert len(got) == 1
        assert consumer.batches_consumed == 1
        assert _drain(control)  # the epoch-1 batch was acknowledged
        consumer.close()
        pool.shutdown()


# ---------------------------------------------------------------------------
# epoch cache on shards
# ---------------------------------------------------------------------------


class TestCacheOnShards:
    def test_repeat_epochs_replay_each_members_shard_cache(self):
        session = repro.serve(
            index_loader(n=24, batch_size=4),
            address="inproc://shard-cache",
            shards=2,
            epochs=3,
            cache="all",
            start=False,
        )
        consumer = repro.attach("inproc://shard-cache", max_epochs=3)
        session.start()
        seen = consume_flat(consumer)
        session.shutdown()
        assert len(seen) == 72
        for epoch in range(3):
            assert sorted(seen[epoch * 24:(epoch + 1) * 24]) == list(range(24))
        metrics = session.metrics()
        # Epoch 0 loaded 6 batches (3 per member); epochs 1-2 were pure
        # cache hits republished from each member's shard cache.
        assert metrics["repro.producer.batches_loaded"] == 6
        assert metrics["repro.cache"]["hits"] == 12
        assert metrics["repro.pool.cached_bytes"] == 0  # cleared at shutdown
        assert session.pool.live_segments == 0

    def test_cache_budget_is_divided_across_members(self):
        """cache_bytes is the GROUP total; each member caches only its shard,
        so it gets an equal slice of the budget instead of the whole thing."""
        session = repro.serve(
            index_loader(n=16),
            address="inproc://shard-budget",
            shards=2,
            cache="lru",
            cache_bytes=1000,
            start=False,
        )
        try:
            assert [m.cache.budget_bytes for m in session.members] == [500, 500]
            assert all(m.config.cache_bytes == 500 for m in session.members)
        finally:
            session.shutdown()


# ---------------------------------------------------------------------------
# session / API surface
# ---------------------------------------------------------------------------


class TestGroupSessionSurface:
    def test_serve_routes_shards_to_group_session(self):
        session = repro.serve(
            index_loader(), address="inproc://surface", shards=2, start=False
        )
        try:
            assert session.shards == 2 and len(session.members) == 2
            assert SharedLoaderSession.at("inproc://surface") is session
        finally:
            session.shutdown()

    def test_plain_serve_and_attach_unchanged(self):
        session = repro.serve(index_loader(), address="inproc://plain", start=False)
        try:
            assert isinstance(session, SharedLoaderSession)
            consumer = repro.attach("inproc://plain")
            assert isinstance(consumer, TensorConsumer)
        finally:
            session.shutdown()

    def test_stats_has_per_member_rows(self):
        session = repro.serve(
            index_loader(n=12), address="inproc://stats", shards=3, epochs=1, start=False
        )
        consumer = repro.attach("inproc://stats", max_epochs=1)
        session.start()
        consume_flat(consumer)
        metrics = session.metrics()
        try:
            assert metrics["repro.group.shards"] == 3
            members = metrics["repro.group.members"]
            assert len(members) == 3
            total = sum(row["repro.producer.publishes"] for row in members)
            assert metrics["repro.producer.publishes"] == total
            (group,) = metrics["repro.session.consumers"]
            assert group["repro.group.shards"] == 3
            assert len(group["repro.group.members"]) == 3
            assert group["repro.consumer.batches"] == sum(
                row["repro.consumer.batches"] for row in group["repro.group.members"]
            )
        finally:
            session.shutdown()

    def test_describe_manifest_served_at_logical_address(self):
        session = repro.serve(
            index_loader(), address="inproc://manifest", shards=2, start=False
        )
        try:
            endpoint = endpoints.connect("inproc://manifest")
            manifest = describe_address(endpoint.hub, "inproc://manifest", timeout=5.0)
            assert manifest["shards"] == 2
            assert manifest["member_addresses"] == [
                member_address("inproc://manifest", 0),
                member_address("inproc://manifest", 1),
            ]
        finally:
            session.shutdown()

    def test_plain_session_describes_one_shard(self):
        session = repro.serve(index_loader(), address="inproc://plain-manifest", start=False)
        try:
            endpoint = endpoints.connect("inproc://plain-manifest")
            manifest = describe_address(endpoint.hub, "inproc://plain-manifest", timeout=5.0)
            assert manifest["shards"] == 1
        finally:
            session.shutdown()

    def test_address_reusable_after_shutdown(self):
        for _ in range(2):
            session = repro.serve(
                index_loader(), address="inproc://reuse", shards=2, start=False
            )
            session.shutdown()

    def test_validation(self):
        with pytest.raises(ValueError):
            repro.serve(index_loader(), address="inproc://bad", shards=0)
        with pytest.raises(TypeError):
            SharedLoaderSession(object(), address="inproc://bad", shards=2)
        sampler = SequentialSampler(IndexDataset(8))
        loader = DataLoader(IndexDataset(8), batch_sampler=BatchSampler(sampler, 4))
        with pytest.raises(ValueError):
            loader.shard(0, 2)
        with pytest.raises(ValueError):
            ConsumerConfig(interleave="sideways")

    def test_empty_shards_rejected_at_construction(self):
        """An empty shard's member would finish every epoch instantly and
        vanish, wedging later attaches on a member that never admits them."""
        with pytest.raises(ValueError, match="empty"):
            # contiguous over 6 samples in 4 shards: ceil(6/4)=2 per block,
            # shard 3 gets positions [6, 6) — nothing.
            repro.serve(
                index_loader(n=6, batch_size=2),
                address="inproc://empty-contig",
                shards=4,
                shard_mode="contiguous",
                start=False,
            )
        with pytest.raises(ValueError, match="empty"):
            # strided with more shards than samples: shard 3 is empty.
            repro.serve(
                index_loader(n=3, batch_size=1),
                address="inproc://empty-strided",
                shards=4,
                start=False,
            )
        # The failed binds released their addresses; serving again works.
        session = repro.serve(
            index_loader(n=8, batch_size=2),
            address="inproc://empty-contig",
            shards=2,
            start=False,
        )
        session.shutdown()

    def test_consumer_after_shutdown_rejected(self):
        session = repro.serve(
            index_loader(), address="inproc://closed", shards=2, start=False
        )
        session.shutdown()
        with pytest.raises(RuntimeError):
            session.consumer()


# ---------------------------------------------------------------------------
# cross-process tcp:// sharded attach
# ---------------------------------------------------------------------------


def _sharded_remote_trainer(address, result_queue):
    """Runs in a separate OS process: attach to a sharded tcp:// group."""
    import repro as repro_child

    consumer = repro_child.attach(address, max_epochs=1, receive_timeout=30)
    seen = []
    for batch in consumer:
        seen.extend(int(x) for x in batch["index"].numpy().ravel())
    kind = type(consumer).__name__
    consumer.close()
    result_queue.put((kind, seen))


@pytest.mark.multiprocess
class TestTcpSharded:
    def test_two_process_sharded_attach(self):
        session = repro.serve(
            index_loader(n=24, batch_size=4),
            address="tcp://127.0.0.1:0",
            shards=3,
            epochs=1,
            start=False,
        )
        result_queue = multiprocessing.Queue()
        child = multiprocessing.Process(
            target=_sharded_remote_trainer, args=(session.address, result_queue)
        )
        child.start()
        try:
            session.start()
            kind, seen = result_queue.get(timeout=60)
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
            session.shutdown()
        assert child.exitcode == 0
        assert kind == "GroupConsumer"  # discovered via the describe channel
        assert sorted(seen) == list(range(24))
        assert session.pool.live_segments == 0
