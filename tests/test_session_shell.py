"""The one serving shell and its threadless service channels.

A plain session is a one-member group, so everything here runs for
``shards`` 1 and 2 alike: the drain of a session that was bound but never
started, the consumers a long-lived session keeps, adopting an explicit
``hub=``, and a service channel that cannot bind.  The second half counts
threads — never times them: what ``serve()`` and a broker add on
``inproc://``, that nobody asking means no ``repro-services``, and that a
handler parked in user code stalls neither the reactor nor another dataset.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ConsumerConfig, GroupConsumer, ProducerConfig, TensorConsumer
from repro.core.group import attach_address
from repro.core.session import SharedLoaderSession
from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.messaging import (
    InProcHub,
    Message,
    MessageKind,
    MessagingError,
    Responder,
    request_once,
)
from repro.tensor import SharedMemoryPool

SRC = Path(__file__).resolve().parent.parent / "src"


class IndexDataset(Dataset):
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return {"index": np.array([index], dtype=np.int64)}


def index_loader(n=24, batch_size=4):
    return DataLoader(IndexDataset(n), batch_size=batch_size)


def control_addresses(session):
    return [member.config.control_address for member in session.members]


BOTH_SHAPES = pytest.mark.parametrize("shards", [1, 2])


# ---------------------------------------------------------------------------
# one drain for both shapes
# ---------------------------------------------------------------------------


class TestOneDrain:
    @BOTH_SHAPES
    def test_a_bound_session_that_never_started_ends_its_trainers(self, shards):
        """``serve(start=False)`` + ``shutdown()`` is a shutdown: SHUTDOWN is
        broadcast and the member channels are unbound.  A plain session used
        to skip both, so a trainer it did not own sat out its whole
        ``receive_timeout`` and ``{address}/control`` stayed bound."""
        address = f"inproc://never-started-{shards}"
        session = repro.serve(index_loader(), address=address, shards=shards, start=False)
        hub, controls = session.hub, control_addresses(session)
        assert all(hub.has_bound(control) for control in controls)
        # Attached through the transport, not through the session: the
        # session's shutdown() will not close this one for us.
        consumer = attach_address(address, ConsumerConfig(receive_timeout=6))
        assert isinstance(consumer, TensorConsumer if shards == 1 else GroupConsumer)
        iterating, outcome = threading.Event(), {}

        def train():
            iterating.set()
            try:
                outcome["batches"] = sum(1 for _ in consumer)
            except BaseException as exc:
                outcome["error"] = exc

        trainer = threading.Thread(target=train, name="test-trainer")
        trainer.start()
        try:
            assert iterating.wait(5.0)
            session.shutdown()
            trainer.join(timeout=10.0)
            assert not trainer.is_alive()
            # Ended by the SHUTDOWN broadcast, not by its receive timeout.
            assert outcome == {"batches": 0}
            assert not any(hub.has_bound(control) for control in controls)
            assert SharedLoaderSession.at(address) is None
            repro.serve(
                index_loader(), address=address, shards=shards, start=False
            ).shutdown()
        finally:
            consumer.close()
            session.shutdown()

    @BOTH_SHAPES
    def test_a_mount_whose_producer_died_can_be_mounted_again(self, shards):
        """A member whose loop died never reached its own ``join()``; the
        session's drain runs it, so on the broker's shared hub the mount's
        control channels are free for the next mount."""

        class Unloadable(Dataset):
            def __len__(self):
                return 8

            def __getitem__(self, index):
                raise KeyError(f"no item {index}")

        def loader():
            return DataLoader(Unloadable(), batch_size=4)

        with repro.broker(f"inproc://plane-remount-{shards}") as broker:
            broker.publish("fragile", loader_factory=loader, shards=shards)
            mount = f"{broker.address}/fragile"
            first = repro.attach(mount, receive_timeout=10)
            try:
                deadline = time.monotonic() + 10.0
                while broker.session("fragile").is_running and time.monotonic() < deadline:
                    time.sleep(0.01)
                with pytest.raises(KeyError):
                    broker.raise_dataset_error("fragile")
            finally:
                first.close()
            broker.evict("fragile")
            assert not broker.hub.has_bound(f"{mount}/control")
            assert not broker.hub.has_bound(f"{mount}/shard0/control")
            second = repro.attach(mount, receive_timeout=10)  # mounts it again
            second.close()
            assert broker.stats()["datasets"]["fragile"]["state"] == "mounted"


# ---------------------------------------------------------------------------
# the consumers a session keeps
# ---------------------------------------------------------------------------


class TestKeptConsumers:
    @BOTH_SHAPES
    def test_closed_consumers_are_dropped_at_the_next_attach(self, shards):
        session = repro.serve(
            index_loader(),
            address=f"inproc://kept-{shards}",
            shards=shards,
            epochs=None,
        )
        try:
            for cycle in range(50):
                consumer = session.consumer(ConsumerConfig(consumer_id=f"c{cycle}"))
                assert not consumer.closed
                consumer.close()
                assert consumer.closed
                with session._lock:
                    assert len(session._consumers) == 1
            # Closed but not yet replaced: still reported.
            rows = session.metrics()["repro.session.consumers"]
            assert [row["repro.consumer.id"] for row in rows] == ["c49"]
            survivor = session.consumer(ConsumerConfig(consumer_id="survivor"))
            rows = session.metrics()["repro.session.consumers"]
            assert [row["repro.consumer.id"] for row in rows] == ["survivor"]
            survivor.close()
            # All 51 said BYE to every member; the session sums the reasons.
            deadline = time.monotonic() + 10.0
            expected = {"bye": 51 * shards}
            while (
                session.metrics()["repro.producer.consumer_drops"] != expected
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert session.metrics()["repro.producer.consumer_drops"] == expected
        finally:
            session.shutdown()


    def test_concurrent_attaches_lose_no_consumer(self):
        """Pruning rebuilds the list while other threads append to it: a lost
        update would drop a live consumer from shutdown's close list."""
        session = repro.serve(
            index_loader(), address="inproc://kept-stress", epochs=None, start=False
        )
        workers, cycles = 8, 12
        kept, errors = [[] for _ in range(workers)], []
        barrier = threading.Barrier(workers)

        def churn(slot):
            try:
                barrier.wait(10.0)
                for cycle in range(cycles):
                    consumer = session.consumer(
                        ConsumerConfig(consumer_id=f"w{slot}-c{cycle}")
                    )
                    if cycle % 3:
                        consumer.close()
                    else:
                        kept[slot].append(consumer)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(slot,), name=f"test-churn-{slot}")
            for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not errors and not any(thread.is_alive() for thread in threads)
            still_open = {id(consumer) for slot in kept for consumer in slot}
            assert len(still_open) == workers * (cycles // 3)
            with session._lock:
                held = {id(consumer) for consumer in session._consumers}
            assert still_open <= held
        finally:
            session.shutdown()
        # ... which is what lets shutdown() close every one of them.
        assert all(consumer.closed for slot in kept for consumer in slot)


# ---------------------------------------------------------------------------
# bind or adopt, and a service channel that cannot bind
# ---------------------------------------------------------------------------


class TestBindOrAdopt:
    @BOTH_SHAPES
    def test_an_explicit_hub_is_adopted_not_bound(self, shards):
        hub, pool = InProcHub(), SharedMemoryPool()
        address = f"inproc://adopted-{shards}"
        session = SharedLoaderSession(
            index_loader(),
            address=address,
            shards=shards,
            hub=hub,
            pool=pool,
            producer_config=ProducerConfig(epochs=1),
        )
        try:
            assert session.hub is hub and session.pool is pool
            assert session.shards == shards == len(session.members)
            assert all(hub.has_bound(control) for control in control_addresses(session))
            # Adopted, not bound: the address stays free in the registry and
            # the session out of the directory, with no service channels.
            assert SharedLoaderSession.at(address) is None
            assert not hub.has_bound(f"{address}/group")
            assert not hub.has_bound(f"{address}/metrics")
            repro.serve(index_loader(), address=address, start=False).shutdown()
            consumer = session.consumer(ConsumerConfig(max_epochs=1, receive_timeout=20))
            session.start()
            seen = sorted(int(i) for batch in consumer for i in batch["index"].numpy().ravel())
            assert seen == list(range(24))
        finally:
            session.shutdown()
        assert not any(hub.has_bound(control) for control in control_addresses(session))

    @BOTH_SHAPES
    @pytest.mark.parametrize("channel", ["group", "metrics"])
    def test_a_service_channel_that_cannot_bind_unwinds_the_constructor(
        self, shards, channel
    ):
        hub, pool = InProcHub(), SharedMemoryPool()
        address = f"inproc://squatted-{shards}-{channel}"
        squatter = hub.bind(f"{address}/{channel}")
        try:
            with pytest.raises(MessagingError, match="already bound"):
                SharedLoaderSession(
                    index_loader(),
                    address=address,
                    shards=shards,
                    hub=hub,
                    pool=pool,
                    embedded=True,
                )
            # Nothing of the half-built session is left on the shared hub.
            assert SharedLoaderSession.at(address) is None
            leftovers = [
                bound for bound in hub._bound if bound != squatter.address
            ]
            assert leftovers == []
        finally:
            hub.disconnect(squatter)
            pool.shutdown()

    def test_a_bound_session_releases_its_address_when_a_service_cannot_bind(
        self, monkeypatch
    ):
        import repro.core.session as session_module

        def refuse(*args, **kwargs):
            raise MessagingError("metrics channel refused")

        monkeypatch.setattr(session_module, "MetricsService", refuse)
        with pytest.raises(MessagingError, match="refused"):
            repro.serve(index_loader(), address="inproc://half-built", start=False)
        monkeypatch.undo()
        assert SharedLoaderSession.at("inproc://half-built") is None
        repro.serve(index_loader(), address="inproc://half-built", start=False).shutdown()


# ---------------------------------------------------------------------------
# the service worker
# ---------------------------------------------------------------------------


class TestResponder:
    def test_handlers_run_on_the_one_service_thread_never_on_the_caller(self):
        hub = InProcHub()
        ran_on = []

        def handler(payload):
            ran_on.append(threading.current_thread().name)
            if payload == "boom":
                raise RuntimeError("handler bug")
            return {"ok": True, "echo": payload}

        first = Responder(hub, "svc/a", handler, "test-a")
        second = Responder(hub, "svc/b", handler, "test-b")
        try:
            assert request_once(hub, "svc/a", "x", timeout=5.0) == {"ok": True, "echo": "x"}
            assert request_once(hub, "svc/b", "y", timeout=5.0) == {"ok": True, "echo": "y"}
            # A handler that raises is answered, and the channel lives on.
            failed = request_once(hub, "svc/a", "boom", timeout=5.0)
            assert failed == {"ok": False, "error": "RuntimeError: handler bug"}
            assert request_once(hub, "svc/a", "z", timeout=5.0)["echo"] == "z"
            assert set(ran_on) == {"repro-services"}
            workers = [t for t in threading.enumerate() if t.name == "repro-services"]
            assert len(workers) == 1 and workers[0].daemon
        finally:
            first.stop()
            second.stop()

    def test_stop_is_an_unbind(self):
        hub = InProcHub()
        responder = Responder(hub, "svc/gone", lambda payload: {"ok": True}, "test-gone")
        assert hub.has_bound("svc/gone")
        responder.stop()
        responder.stop()  # idempotent
        assert not hub.has_bound("svc/gone")
        with pytest.raises(MessagingError):
            request_once(hub, "svc/gone", None, timeout=5.0)
        # The address is free for the next service at once.
        Responder(hub, "svc/gone", lambda payload: {"ok": True}, "test-next").stop()

    def test_a_request_that_waited_past_stop_is_dropped_not_raised(self):
        hub = InProcHub()
        release, parked = threading.Event(), threading.Event()
        calls = []

        def slow(payload):
            parked.set()
            release.wait(10.0)
            return {"ok": True}

        def never(payload):
            calls.append(payload)
            return {"ok": True}

        blocker = Responder(hub, "svc/slow", slow, "test-slow")
        victim = Responder(hub, "svc/victim", never, "test-victim")
        echo = Responder(hub, "svc/echo", lambda payload: {"ok": True}, "test-echo")
        asker = threading.Thread(
            target=lambda: request_once(hub, "svc/slow", None, timeout=10.0),
            name="test-asker",
        )
        asker.start()
        reply_box = hub.bind("svc/victim/reply/late")
        try:
            assert parked.wait(5.0)
            # Delivered (push is synchronous) while the worker is parked in
            # another handler, so it waits in the queue — and then its
            # channel goes away under it.
            hub.push(
                "svc/victim",
                Message(
                    topic="",
                    kind=MessageKind.REQUEST,
                    sender="late",
                    body={"reply_to": reply_box.address, "payload": "late"},
                ),
            )
            victim.stop()
            release.set()
            asker.join(timeout=10.0)
            # First in, first out: once this is answered the worker has been
            # past the late request — without calling its handler, replying
            # to it, or dying of it.
            assert request_once(hub, "svc/echo", None, timeout=5.0) == {"ok": True}
            assert calls == []
            assert reply_box.try_receive() is None
        finally:
            release.set()
            hub.disconnect(reply_box)
            for responder in (blocker, victim, echo):
                responder.stop()


# ---------------------------------------------------------------------------
# the thread census
# ---------------------------------------------------------------------------

CENSUS = """
import json, threading
import numpy as np
import repro
from repro.data import DataLoader
from repro.data.dataset import Dataset


class IndexDataset(Dataset):
    def __len__(self):
        return 24

    def __getitem__(self, index):
        return {"index": np.array([index], dtype=np.int64)}


def loader():
    return DataLoader(IndexDataset(), batch_size=4)


ever = set()


def census():
    names = sorted(t.name for t in threading.enumerate() if t.name != "MainThread")
    ever.update(names)
    return names


report = {"at_start": census()}

session = repro.serve(loader(), address="inproc://census-plain")
report["serve"] = census()
session.shutdown()
report["serve_after_shutdown"] = census()

session = repro.serve(loader(), address="inproc://census-sharded", shards=3)
report["serve_shards_3"] = census()
session.shutdown()
report["shards_3_after_shutdown"] = census()

broker = repro.broker("inproc://census-plane", idle_ttl=None)
broker.publish("one", loader())
broker.publish("two", loader(), shards=2)
report["broker_two_mounts"] = census()
broker.shutdown()
report["broker_after_shutdown"] = census()

report["ever"] = sorted(ever)

# The first requests this process ever sees, eight at once: one worker.
from repro.messaging import InProcHub, Responder, request_once

hub = InProcHub()
responder = Responder(hub, "svc/race", lambda payload: {"ok": True}, "race")
barrier = threading.Barrier(8)
answers = []


def ask():
    barrier.wait(10.0)
    answers.append(request_once(hub, "svc/race", None, timeout=10.0))


askers = [threading.Thread(target=ask, name=f"asker-{i}") for i in range(8)]
for asker in askers:
    asker.start()
for asker in askers:
    asker.join(timeout=30.0)
responder.stop()
report["answers"] = len(answers)
report["after_8_first_requests"] = census()
print(json.dumps(report))
"""


class TestThreadCensus:
    def test_inproc_serving_adds_its_producers_and_nothing_else(self):
        """Counted in a fresh interpreter, so "never started" means never."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", CENSUS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        shard_threads = [f"repro-producer-shard{k}" for k in range(3)]
        assert report["at_start"] == []
        assert report["serve"] == ["repro-producer"]
        assert report["serve_after_shutdown"] == []
        assert report["serve_shards_3"] == shard_threads
        assert report["shards_3_after_shutdown"] == []
        assert report["broker_two_mounts"] == [
            "repro-producer",
            "repro-producer-shard0",
            "repro-producer-shard1",
        ]
        assert report["broker_after_shutdown"] == []
        # Nobody asked anything, so no service thread ever existed (and with
        # no consumer and no socket, no reactor either).
        assert report["ever"] == sorted(["repro-producer", *shard_threads])
        # ... and eight first requests racing each other start exactly one.
        assert report["answers"] == 8
        assert report["after_8_first_requests"] == ["repro-services"]

    def test_a_parked_handler_stalls_neither_the_reactor_nor_another_dataset(self):
        """A lazily registered dataset's ``loader_factory`` is user code and
        runs inside the catalog's ``subscribe``.  Over ``tcp://`` that request
        is delivered on the reactor thread — the thread every frame of every
        other dataset rides on — so it must be answered somewhere else."""
        entered, release = threading.Event(), threading.Event()
        ran_on = []

        def parked_factory():
            ran_on.append(threading.current_thread().name)
            entered.set()
            assert release.wait(30.0)
            return index_loader()

        broker = repro.broker("tcp://127.0.0.1:0")
        attached = {}
        try:
            broker.publish("steady", index_loader(), epochs=None)
            broker.publish("lazy", loader_factory=parked_factory, epochs=None)
            # attach_address, not repro.attach: the remote path, real sockets.
            steady = attach_address(
                f"{broker.address}/steady", ConsumerConfig(receive_timeout=10)
            )
            stream = iter(steady)
            next(stream)

            def attach_lazy():
                try:
                    attached["consumer"] = attach_address(
                        f"{broker.address}/lazy", ConsumerConfig(receive_timeout=10)
                    )
                except BaseException as exc:
                    attached["error"] = exc

            attacher = threading.Thread(target=attach_lazy, name="test-attacher")
            attacher.start()
            assert entered.wait(10.0)
            # The factory is parked; the other dataset's batches (DELIVER
            # frames in, ACK frames out, all through the reactor) keep coming.
            for _ in range(12):
                next(stream)
            assert not release.is_set() and attacher.is_alive()
            assert ran_on == ["repro-services"]
            release.set()
            attacher.join(timeout=20.0)
            assert not attacher.is_alive() and "error" not in attached
            lazy = attached["consumer"]
            assert next(iter(lazy))["index"].shape == (4, 1)
            stream.close()
            steady.close()
            lazy.close()
        finally:
            release.set()
            broker.shutdown()
