"""Multi-tenant dataset broker: catalog resolution, tenant quotas, idle
eviction, lazy mounting, and the unified manifest schema every describe/
catalog channel speaks."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

import repro
from repro.broker import DEFAULT_BROKER_ADDRESS, DatasetBroker
from repro.core import GroupConsumer, SessionManifest
from repro.core.group import catalog_resolve
from repro.core.manifest import MANIFEST_SCHEMA_VERSION
from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.messaging import endpoint as endpoints
from repro.messaging.errors import AddressError, AddressNotServedError
from repro.messaging.sockets import request_once
from repro.tensor.errors import QuotaExceededError


class TaggedDataset(Dataset):
    """Items carry a dataset tag + their index so streams can be audited."""

    def __init__(self, tag, n):
        self.tag = tag
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return {
            "tag": np.array([self.tag], dtype=np.int64),
            "index": np.array([index], dtype=np.int64),
        }


def tagged_loader(tag, n=12, batch_size=4):
    return DataLoader(TaggedDataset(tag, n), batch_size=batch_size)


def drain(consumer, limit=1000):
    rows = []
    with consumer:
        for batch in consumer:
            rows.append(
                (
                    int(batch["tag"].numpy().ravel()[0]),
                    [int(i) for i in batch["index"].numpy().ravel()],
                )
            )
            if len(rows) >= limit:
                break
    return rows


# ---------------------------------------------------------------------------
# the unified manifest schema
# ---------------------------------------------------------------------------


class TestSessionManifest:
    def test_round_trip(self):
        manifest = SessionManifest(
            address="inproc://m",
            kind="group",
            shards=3,
            shard_mode="strided",
            member_addresses=("inproc://m/shard0", "inproc://m/shard1", "inproc://m/shard2"),
        )
        body = manifest.to_dict()
        assert body["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert isinstance(body["member_addresses"], list)
        assert SessionManifest.from_dict(body) == manifest

    def test_members_derived_from_address_when_not_listed(self):
        manifest = SessionManifest(address="inproc://m", shards=2, kind="group")
        assert manifest.members() == ("inproc://m/shard0", "inproc://m/shard1")
        assert SessionManifest(address="inproc://m").members() == ("inproc://m",)

    def test_pre_schema_reply_still_parses(self):
        manifest = SessionManifest.from_dict({"address": "inproc://old", "shards": 2})
        assert manifest.shards == 2
        assert manifest.kind == "session"

    def test_unknown_keys_dropped(self):
        manifest = SessionManifest.from_dict(
            {"address": "inproc://new", "shards": 1, "from_the_future": True}
        )
        assert manifest.address == "inproc://new"

    def test_newer_schema_version_rejected(self):
        with pytest.raises(ValueError, match="newer than supported"):
            SessionManifest.from_dict(
                {"address": "x", "schema_version": MANIFEST_SCHEMA_VERSION + 1}
            )

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            SessionManifest(address="x", shards=0)
        with pytest.raises(ValueError):
            SessionManifest(address="x", kind="mystery")


# ---------------------------------------------------------------------------
# publishing and the catalog channel
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_list_and_describe_over_the_wire(self):
        with repro.broker("inproc://plane-catalog") as broker:
            broker.publish("alpha", tagged_loader(1))
            broker.publish("beta", tagged_loader(2), shards=2)
            endpoint = endpoints.connect(broker.address)
            catalog = f"{broker.address}/catalog"

            def ask(body):
                return request_once(endpoint.hub, catalog, body, timeout=5)

            try:
                reply = ask({"op": "list"})
                assert reply["ok"]
                assert [row["name"] for row in reply["datasets"]] == ["alpha", "beta"]

                reply = ask({"op": "describe", "dataset": "beta"})
                manifest = SessionManifest.from_dict(reply["manifest"])
                assert manifest.shards == 2
                assert manifest.dataset == "beta"
                assert manifest.kind == "dataset"
                assert manifest.state == "mounted"

                reply = ask({"op": "describe", "dataset": "nope"})
                assert not reply["ok"]
                assert "unknown dataset" in reply["error"]

                reply = ask({"op": "frobnicate"})
                assert not reply["ok"]
            finally:
                endpoint.release()

    def test_catalog_resolve_helper(self):
        with repro.broker("inproc://plane-resolve") as broker:
            broker.publish("only", tagged_loader(7))
            manifest = catalog_resolve(broker.hub, broker.address, "only")
            assert manifest is not None
            assert manifest["dataset"] == "only"
            assert catalog_resolve(broker.hub, broker.address, "missing") is None

    def test_dataset_names_validated(self):
        with repro.broker("inproc://plane-names") as broker:
            for bad in ("", "a/b", "data", "catalog", "shard0", " lead", "-x"):
                with pytest.raises(ValueError):
                    broker.publish(bad, tagged_loader(1))

    def test_duplicate_publish_rejected(self):
        with repro.broker("inproc://plane-dup") as broker:
            broker.publish("ds", tagged_loader(1))
            with pytest.raises(AddressError, match="already published"):
                broker.publish("ds", tagged_loader(1))

    def test_loader_xor_factory_enforced(self):
        with repro.broker("inproc://plane-xor") as broker:
            with pytest.raises(ValueError, match="exactly one"):
                broker.publish("ds")
            with pytest.raises(ValueError, match="exactly one"):
                broker.publish("ds", tagged_loader(1), loader_factory=lambda: None)

    def test_broker_rejects_dataset_path_address(self):
        with pytest.raises(AddressError, match="bare plane address"):
            DatasetBroker("tcp://127.0.0.1:0/imagenet")

    def test_attach_to_bare_plane_address_is_an_error(self):
        with repro.broker("inproc://plane-bare") as broker:
            broker.publish("ds", tagged_loader(1))
            with pytest.raises(AddressError, match="not a dataset"):
                repro.attach(broker.address)

    def test_default_address(self):
        with repro.broker() as broker:
            assert broker.address == DEFAULT_BROKER_ADDRESS


# ---------------------------------------------------------------------------
# serving many datasets from one plane
# ---------------------------------------------------------------------------


class TestMultiTenantServing:
    def test_two_datasets_disjoint_consumer_groups(self):
        with repro.broker("inproc://plane-two") as broker:
            broker.publish("ones", tagged_loader(1, n=12, batch_size=4))
            broker.publish("twos", tagged_loader(2, n=8, batch_size=4))
            rows_a = drain(repro.attach(f"{broker.address}/ones", max_epochs=1))
            rows_b = drain(repro.attach(f"{broker.address}/twos", max_epochs=1))
        assert [tag for tag, _ in rows_a] == [1, 1, 1]
        assert sorted(i for _, idx in rows_a for i in idx) == list(range(12))
        assert [tag for tag, _ in rows_b] == [2, 2]
        assert sorted(i for _, idx in rows_b for i in idx) == list(range(8))

    def test_sharded_dataset_resolves_to_group_consumer(self):
        with repro.broker("inproc://plane-sharded") as broker:
            broker.publish("wide", tagged_loader(3, n=16, batch_size=4), shards=2)
            consumer = repro.attach(f"{broker.address}/wide", max_epochs=1)
            assert isinstance(consumer, GroupConsumer)
            rows = drain(consumer)
        assert sorted(i for _, idx in rows for i in idx) == list(range(16))

    def test_same_dataset_served_to_two_consumers(self):
        with repro.broker("inproc://plane-fan") as broker:
            broker.publish("shared", tagged_loader(4, n=12, batch_size=4))
            results = {}

            def trainer(name):
                results[name] = drain(
                    repro.attach(f"{broker.address}/shared", max_epochs=1)
                )

            threads = [
                threading.Thread(target=trainer, args=(name,))
                for name in ("first", "second")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        for consumer_rows in results.values():
            assert sorted(i for _, idx in consumer_rows for i in idx) == list(range(12))

    def test_stats_rows_per_dataset(self):
        with repro.broker("inproc://plane-stats") as broker:
            broker.publish("a", tagged_loader(1), quota_bytes=1 << 20)
            broker.publish("b", loader_factory=lambda: tagged_loader(2))
            stats = broker.stats()
            assert stats["datasets"]["a"]["state"] == "mounted"
            assert stats["datasets"]["a"]["quota_bytes"] == 1 << 20
            assert stats["datasets"]["b"]["state"] == "registered"
            assert set(stats["pool"]) == {
                "bytes_in_flight",
                "cached_bytes",
                "peak_bytes",
                "free_bytes",
            }

    def test_shutdown_drains_every_dataset_to_zero(self):
        broker = repro.broker("inproc://plane-drain")
        broker.publish("a", tagged_loader(1))
        broker.publish("b", tagged_loader(2), shards=2)
        drain(repro.attach(f"{broker.address}/a", max_epochs=1))
        drain(repro.attach(f"{broker.address}/b", max_epochs=1))
        broker.shutdown()
        for row in broker.stats()["datasets"].values():
            assert row["bytes_used"] == 0
            assert row["consumers"] == 0

    def test_publish_after_shutdown_rejected(self):
        broker = repro.broker("inproc://plane-closed")
        broker.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            broker.publish("late", tagged_loader(1))


# ---------------------------------------------------------------------------
# tenant quotas
# ---------------------------------------------------------------------------


class TestQuotas:
    def test_over_quota_allocation_rejected_and_drains_to_zero(self):
        with repro.broker("inproc://plane-quota") as broker:
            broker.publish("greedy", tagged_loader(5), quota_bytes=1)
            # Staging only starts once a consumer registers; attach without
            # iterating so the first allocation trips the 1-byte quota.
            consumer = repro.attach(f"{broker.address}/greedy", receive_timeout=10)
            try:
                deadline = time.monotonic() + 10
                with pytest.raises(QuotaExceededError):
                    while time.monotonic() < deadline:
                        broker.raise_dataset_error("greedy")
                        time.sleep(0.02)
            finally:
                consumer.close()
            assert broker.stats()["datasets"]["greedy"]["bytes_used"] == 0

    def test_quota_does_not_leak_across_tenants(self):
        with repro.broker("inproc://plane-isolate") as broker:
            broker.publish("tiny", tagged_loader(6), quota_bytes=1)
            broker.publish("roomy", tagged_loader(7, n=12, batch_size=4))
            rows = drain(repro.attach(f"{broker.address}/roomy", max_epochs=1))
            assert sorted(i for _, idx in rows for i in idx) == list(range(12))

    def test_default_quota_applies_to_publishes(self):
        with repro.broker("inproc://plane-defq", default_quota_bytes=2 << 20) as broker:
            broker.publish("inherits", tagged_loader(1))
            assert broker.stats()["datasets"]["inherits"]["quota_bytes"] == 2 << 20
            broker.publish("overrides", tagged_loader(2), quota_bytes=4 << 20)
            assert broker.stats()["datasets"]["overrides"]["quota_bytes"] == 4 << 20


# ---------------------------------------------------------------------------
# lazy mounting and idle eviction
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_lazy_dataset_mounts_on_first_attach(self):
        calls = []

        def factory():
            calls.append(1)
            return tagged_loader(8, n=8, batch_size=4)

        with repro.broker("inproc://plane-lazy") as broker:
            broker.publish("cold", loader_factory=factory)
            assert calls == []
            assert broker.stats()["datasets"]["cold"]["state"] == "registered"
            rows = drain(repro.attach(f"{broker.address}/cold", max_epochs=1))
            assert calls == [1]
            assert sorted(i for _, idx in rows for i in idx) == list(range(8))
            assert broker.stats()["datasets"]["cold"]["state"] == "mounted"

    def test_catalog_subscribe_mounts_lazy_dataset(self):
        with repro.broker("inproc://plane-lazysub") as broker:
            broker.publish("cold", loader_factory=lambda: tagged_loader(9))
            manifest = catalog_resolve(broker.hub, broker.address, "cold")
            assert manifest is not None
            assert broker.stats()["datasets"]["cold"]["state"] == "mounted"

    def test_idle_dataset_evicted_and_remounts_on_attach(self):
        with repro.broker("inproc://plane-idle", idle_ttl=0.2) as broker:
            broker.publish("fickle", tagged_loader(10, n=8, batch_size=4))
            rows = drain(repro.attach(f"{broker.address}/fickle", max_epochs=1))
            assert len(rows) == 2
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                row = broker.stats()["datasets"]["fickle"]
                if row["state"] == "registered":
                    break
                time.sleep(0.05)
            row = broker.stats()["datasets"]["fickle"]
            assert row["state"] == "registered"
            assert row["evictions"] >= 1
            assert row["bytes_used"] == 0
            # The next attach mounts it again and serves a full epoch.
            rows = drain(repro.attach(f"{broker.address}/fickle", max_epochs=1))
            assert sorted(i for _, idx in rows for i in idx) == list(range(8))

    def test_explicit_evict_returns_leaked_bytes(self):
        with repro.broker("inproc://plane-evict") as broker:
            broker.publish("ds", tagged_loader(11))
            drain(repro.attach(f"{broker.address}/ds", max_epochs=1))
            assert broker.evict("ds") == 0
            assert broker.stats()["datasets"]["ds"]["state"] == "registered"

    def test_evict_unlinks_the_datasets_free_slabs(self):
        with repro.broker("inproc://plane-evict-free") as broker:
            broker.publish("ds", tagged_loader(11))
            drain(repro.attach(f"{broker.address}/ds", max_epochs=1))
            assert broker.evict("ds") == 0
            assert broker.pool.free_bytes == 0
            assert broker.stats()["pool"]["free_bytes"] == 0
            # Remounting starts the dataset's slabs afresh.
            rows = drain(repro.attach(f"{broker.address}/ds", max_epochs=1))
            assert sorted(i for _, idx in rows for i in idx) == list(range(12))

    def test_unpublish_removes_from_catalog(self):
        with repro.broker("inproc://plane-unpub") as broker:
            broker.publish("gone", tagged_loader(12))
            broker.unpublish("gone")
            assert broker.dataset_names() == []
            with pytest.raises(AddressNotServedError):
                repro.attach(f"{broker.address}/gone")


# ---------------------------------------------------------------------------
# cross-process attach-by-name (tcp)
# ---------------------------------------------------------------------------


def _remote_attacher(address, result_queue):
    rows = drain(repro.attach(address, max_epochs=1, receive_timeout=30))
    result_queue.put(rows)


@pytest.mark.multiprocess
class TestCrossProcessBroker:
    def test_attach_by_name_from_other_processes(self):
        broker = repro.broker("tcp://127.0.0.1:0")
        try:
            broker.publish("plain", tagged_loader(1, n=12, batch_size=4))
            broker.publish("wide", tagged_loader(2, n=16, batch_size=4), shards=2)
            queue = multiprocessing.Queue()
            children = [
                multiprocessing.Process(
                    target=_remote_attacher,
                    args=(f"{broker.address}/{name}", queue),
                )
                for name in ("plain", "wide")
            ]
            for child in children:
                child.start()
            try:
                results = [queue.get(timeout=60), queue.get(timeout=60)]
            finally:
                for child in children:
                    child.join(timeout=30)
                    if child.is_alive():
                        child.terminate()
            by_tag = {rows[0][0]: rows for rows in results}
            assert sorted(by_tag) == [1, 2]
            assert sorted(i for _, idx in by_tag[1] for i in idx) == list(range(12))
            assert sorted(i for _, idx in by_tag[2] for i in idx) == list(range(16))
        finally:
            broker.shutdown()
        for row in broker.stats()["datasets"].values():
            assert row["bytes_used"] == 0
