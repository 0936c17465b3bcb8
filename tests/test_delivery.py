"""The delivery path: every handler — ``inproc://`` or ``tcp://``, whichever
thread published — runs on the reactor thread, and per-channel arrival stays
one total order under concurrency and churn.  Also the guards that the
per-batch descriptor tax (``np.dtype(...).name``, ``np.prod``) stays out of
the steady state and that starting an epoch costs the same however many
indices it has.  Everything here is bounded by a deadline; nothing compares
wall-clock times."""

import collections
import gc
import os
import sys
import threading
import time
import tracemalloc

import numpy as np

import repro
from repro.core import ConsumerConfig, EpochRunner, TensorConsumer, TensorProducer
from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.messaging import InProcHub
from repro.messaging import endpoint as endpoints
from repro.messaging.message import Message, MessageKind
from repro.messaging.reactor import Reactor, get_reactor
from repro.messaging.transport import Inbox, TcpHubClient, TcpServerHub
from repro.obs.metrics import counter

HANDLER_ERRORS = counter("repro.reactor.handler_errors")


def message(body, topic="broadcast"):
    return Message(topic, MessageKind.HEARTBEAT, "test", body=body)


def join_all(threads, timeout=20.0):
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), "a worker is stuck"


def flush(reactor, timeout=10.0):
    """Return once the loop has run everything submitted before this call
    (its inbox is first in, first out)."""
    done = threading.Event()
    reactor.submit(done.set)
    assert done.wait(timeout), "the reactor did not drain its inbox"


class IndexDataset(Dataset):
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return {"index": np.array([index], dtype=np.int64), "label": index % 7}


# ---------------------------------------------------------------------------
# where a handler runs
# ---------------------------------------------------------------------------


class TestDeliveryContext:
    def test_inproc_handler_runs_on_the_reactor_thread_whoever_publishes(self):
        reactor = Reactor(name="repro-reactor-test-context")
        hub = InProcHub()
        seen = []
        try:
            subscription = reactor.subscribe(
                hub, "chan/data", ("broadcast",),
                lambda m: seen.append((m.body, threading.current_thread().name)),
            )
            for i in range(25):
                hub.publish("chan/data", message(i))
            other = threading.Thread(
                target=lambda: [hub.publish("chan/data", message(i)) for i in range(25, 50)],
                name="test-other-publisher",
            )
            other.start()
            join_all([other])
            flush(reactor)
            assert [body for body, _ in seen] == list(range(50))
            assert {name for _, name in seen} == {"repro-reactor-test-context"}
            subscription.unsubscribe()
        finally:
            reactor.shutdown()

    def test_tcp_handler_runs_on_the_reactor_thread(self):
        server = TcpServerHub()
        client = TcpHubClient(server.host, server.port)
        arrived = threading.Event()
        seen = []

        def handler(m):
            seen.append((m.body, threading.current_thread().name))
            arrived.set()

        subscription = get_reactor().subscribe(client, "/data", ("broadcast",), handler)
        try:
            server.publish("/data", message("over the wire"))
            assert arrived.wait(5.0)
            assert seen == [("over the wire", "repro-reactor")]
        finally:
            subscription.unsubscribe()
            client.close()
            server.close(drain_timeout=0.2)


# ---------------------------------------------------------------------------
# one total order per channel
# ---------------------------------------------------------------------------


class TestArrivalOrder:
    PUBLISHERS = 4
    SUBSCRIBERS = 3
    PER_PUBLISHER = 300

    def test_concurrent_publishers_give_every_subscriber_the_same_total_order(self):
        reactor = Reactor(name="repro-reactor-test-order")
        hub = InProcHub()
        logs = [[] for _ in range(self.SUBSCRIBERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            subscriptions = [
                reactor.subscribe(
                    hub, "chan/data", ("broadcast",), lambda m, log=log: log.append(m.body)
                )
                for log in logs
            ]
            start = threading.Barrier(self.PUBLISHERS)

            def publish(rank):
                start.wait(5.0)
                for i in range(self.PER_PUBLISHER):
                    hub.publish("chan/data", message((rank, i)))

            publishers = [
                threading.Thread(target=publish, args=(rank,), name=f"test-publisher-{rank}")
                for rank in range(self.PUBLISHERS)
            ]
            for thread in publishers:
                thread.start()
            join_all(publishers)
            flush(reactor)
            expected = {
                (rank, i) for rank in range(self.PUBLISHERS) for i in range(self.PER_PUBLISHER)
            }
            # No loss, no duplicate ...
            assert len(logs[0]) == len(expected) and set(logs[0]) == expected
            # ... one order for everybody ...
            assert all(log == logs[0] for log in logs[1:])
            # ... in which each publisher's own messages keep their order.
            for rank in range(self.PUBLISHERS):
                assert [i for r, i in logs[0] if r == rank] == list(range(self.PER_PUBLISHER))
            for subscription in subscriptions:
                subscription.unsubscribe()
        finally:
            sys.setswitchinterval(interval)
            reactor.shutdown()

    def test_subscription_churn_racing_publish_neither_raises_nor_deadlocks(self):
        reactor = Reactor(name="repro-reactor-test-churn")
        hub = InProcHub()
        steady = []
        errors = []
        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            keeper = reactor.subscribe(
                hub, "chan/data", ("broadcast",), lambda m: steady.append(m.body)
            )

            def publish():
                try:
                    for i in range(2000):
                        hub.publish("chan/data", message(i))
                except BaseException as exc:
                    errors.append(exc)
                finally:
                    stop.set()

            def churn(rank):
                # A fresh topic each round: the shared endpoint's topic union
                # grows while the publisher is matching against it.
                try:
                    round_ = 0
                    while not stop.is_set():
                        topics = ("broadcast", f"consumer/{rank}-{round_}")
                        reactor.subscribe(hub, "chan/data", topics, lambda m: None).unsubscribe()
                        round_ += 1
                except BaseException as exc:
                    errors.append(exc)

            workers = [threading.Thread(target=publish, name="test-churn-publisher")] + [
                threading.Thread(target=churn, args=(rank,), name=f"test-churn-{rank}")
                for rank in range(3)
            ]
            for thread in workers:
                thread.start()
            join_all(workers)
            flush(reactor)
            assert not errors, errors
            # The subscriber that stayed saw every message, in order.
            assert steady == list(range(2000))
            keeper.unsubscribe()
            assert hub.connected_count("chan/data") == 0
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            reactor.shutdown()

    def test_set_sink_hands_the_backlog_over_in_order(self):
        inbox = Inbox("test", "chan/data")
        log = []
        racing = threading.Event()

        def late_publisher():
            racing.wait(5.0)
            for i in range(100, 200):
                inbox.deliver(message(i))

        for i in range(100):
            inbox.deliver(message(i))  # queued: no sink yet

        def sink(m):
            racing.set()  # the publisher starts while the backlog is draining
            log.append(m.body)

        publisher = threading.Thread(target=late_publisher, name="test-late-publisher")
        publisher.start()
        inbox.set_sink(sink)
        join_all([publisher])
        assert log == list(range(200))
        assert inbox.pending() == 0


# ---------------------------------------------------------------------------
# a handler that raises
# ---------------------------------------------------------------------------


class TestRaisingHandler:
    def test_a_raising_subscriber_does_not_reach_the_producer_loop(self):
        address = "inproc://delivery-raising"
        session = repro.serve(
            DataLoader(IndexDataset(32), batch_size=4), address=address, epochs=1, start=False
        )
        endpoint = endpoints.connect(address)

        def bad_handler(m):
            raise RuntimeError("eavesdropper bug")

        eavesdropper = get_reactor().subscribe(
            endpoint.hub, ConsumerConfig(address=address).data_address, ("broadcast",), bad_handler
        )
        consumer = repro.attach(address, max_epochs=1)
        try:
            before = HANDLER_ERRORS.value()
            seen = []
            trainer = threading.Thread(
                target=lambda: seen.extend(
                    int(i) for batch in consumer for i in batch["index"].numpy().ravel()
                ),
                name="test-raising-trainer",
            )
            session.start()
            trainer.start()
            join_all([trainer])
            assert sorted(seen) == list(range(32))
            session.raise_producer_error()
            flush(get_reactor())
            # 8 batches + EPOCH_END at the least, each raised into dispatch.
            assert HANDLER_ERRORS.value() >= before + 9
        finally:
            eavesdropper.unsubscribe()
            consumer.close()
            session.shutdown()


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


class TestShardedAnyOrderSession:
    ITEMS, BATCH, EPOCHS = 96, 4, 2

    def test_two_consumers_on_two_shards_get_every_sample_once_per_epoch(self):
        address = "inproc://delivery-2x2"
        session = repro.serve(
            DataLoader(IndexDataset(self.ITEMS), batch_size=self.BATCH),
            address=address,
            shards=2,
            epochs=self.EPOCHS,
            start=False,
        )
        consumers = [
            repro.attach(address, consumer_id=f"c{i}", max_epochs=self.EPOCHS, interleave="any")
            for i in range(2)
        ]
        seen = [[] for _ in consumers]
        errors = []

        def train(rank):
            try:
                for batch in consumers[rank]:
                    seen[rank].extend(int(i) for i in batch["index"].numpy().ravel())
            except BaseException as exc:
                errors.append(exc)

        trainers = [
            threading.Thread(target=train, args=(rank,), name=f"test-2x2-trainer-{rank}")
            for rank in range(2)
        ]
        try:
            session.start()
            for thread in trainers:
                thread.start()
            join_all(trainers, timeout=60.0)
            assert not errors, errors
            per_epoch = self.ITEMS
            for samples in seen:
                assert len(samples) == per_epoch * self.EPOCHS
                # interleave="any" keeps the epoch barrier, so each epoch is
                # one contiguous run holding every sample exactly once.
                for epoch in range(self.EPOCHS):
                    run = samples[epoch * per_epoch : (epoch + 1) * per_epoch]
                    assert sorted(run) == list(range(self.ITEMS))
            for consumer in consumers:
                consumer.close()
            pool = session.pool
            deadline = time.monotonic() + 5.0
            while (pool.bytes_in_flight or pool.cached_bytes) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.bytes_in_flight == 0 and pool.cached_bytes == 0
            assert pool.live_segments == 0
        finally:
            for consumer in consumers:
                consumer.close()
            session.shutdown()
        assert session.pool.free_bytes == 0


# ---------------------------------------------------------------------------
# the per-batch descriptor tax stays gone
# ---------------------------------------------------------------------------


def _is_descriptor_tax(code) -> bool:
    """``np.dtype(...).name`` (pure Python, numpy's ``_dtype.py``) or ``np.prod``."""
    directory, filename = os.path.split(code.co_filename)
    if "numpy" not in directory:
        return False
    return filename == "_dtype.py" or (filename == "fromnumeric.py" and code.co_name == "prod")


class TestSteadyStateBatchCost:
    ITEMS, BATCH, EPOCHS = 64, 8, 3

    def test_no_dtype_name_and_no_np_prod_per_batch(self):
        address = "inproc://delivery-tax"
        armed = threading.Event()
        calls = {}  # thread name -> python calls profiled while armed
        taxed = []

        def profile(frame, event, arg):
            if event == "call" and armed.is_set():
                name = threading.current_thread().name
                calls[name] = calls.get(name, 0) + 1
                if _is_descriptor_tax(frame.f_code):
                    taxed.append((name, frame.f_code.co_filename, frame.f_code.co_name))

        session = repro.serve(
            DataLoader(IndexDataset(self.ITEMS), batch_size=self.BATCH),
            address=address,
            epochs=self.EPOCHS,
            start=False,
        )
        consumer = repro.attach(address, max_epochs=self.EPOCHS)
        epochs = []

        def train():
            for payload, batch in consumer.iter_batches():
                if payload.epoch >= 1 and not armed.is_set():
                    # Epoch 0 warmed every lazy path; from here on each batch
                    # is the steady state.
                    armed.set()
                epochs.append(payload.epoch)
                assert batch["index"].shape == (self.BATCH, 1)
            armed.clear()

        trainer = threading.Thread(target=train, name="test-tax-trainer")
        threading.setprofile(profile)  # inherited by threads started from here on
        try:
            session.start()
            trainer.start()
        finally:
            threading.setprofile(None)
        try:
            join_all([trainer], timeout=60.0)
            session.raise_producer_error()
        finally:
            armed.clear()
            consumer.close()
            session.shutdown()
        per_epoch = self.ITEMS // self.BATCH
        assert epochs == [e for e in range(self.EPOCHS) for _ in range(per_epoch)]
        # The profile did watch both sides of the plane while armed ...
        assert calls.get("test-tax-trainer", 0) > 0
        assert calls.get("repro-producer", 0) > 0, sorted(calls)
        # ... and saw none of the descriptor re-derivation.
        assert taxed == []


# ---------------------------------------------------------------------------
# an epoch starts in a fixed number of steps, whatever the size of the dataset
# ---------------------------------------------------------------------------


class TestEpochStartCost:
    BATCH = 64

    def _calls_before_the_first_publish(self, items):
        """The Python-level calls the producer thread makes from
        ``begin_epoch(1)`` to the first publish of epoch 1, by function.

        ``buffer_size=1`` makes the stretch repeatable: the producer stages a
        batch only once the previous one is acknowledged, so the pool and the
        ledger look the same every time it gets there.  How long it waited
        for that (and how many control messages the wait handled) is the
        trainer's timing, so the capacity wait itself is left out.
        """
        address = f"inproc://delivery-epoch-start-{items}"
        begin = EpochRunner.begin_epoch.__code__
        wait = TensorProducer.wait_for_capacity.__code__
        publish = TensorProducer.publish.__code__
        calls = collections.Counter()
        state = {"armed": False, "waiting": False, "windows": 0}

        def profile(frame, event, arg):
            if threading.current_thread().name != "repro-producer":
                return
            code = frame.f_code
            if event == "call":
                if code is begin:
                    state["armed"] = frame.f_locals["epoch"] == 1
                elif state["armed"]:
                    if code is publish:
                        state["armed"] = False
                        state["windows"] += 1
                    elif code is wait:
                        state["waiting"] = True
                    elif not state["waiting"]:
                        calls[(os.path.basename(code.co_filename), code.co_name)] += 1
            elif event == "return" and code is wait:
                state["waiting"] = False

        session = repro.serve(
            DataLoader(IndexDataset(items), batch_size=self.BATCH, shuffle=True, seed=7),
            address=address,
            epochs=2,
            buffer_size=1,
            start=False,
        )
        consumer = repro.attach(address, max_epochs=2)
        taken = []

        def train():
            for payload, _batch in consumer.iter_batches():
                taken.append(payload.key())
                if payload.epoch == 1:
                    break  # its first batch is all the measurement needs

        trainer = threading.Thread(target=train, name="test-epoch-start-trainer")
        trainer.start()
        threading.setprofile(profile)  # inherited by the producer thread
        try:
            session.start()
        finally:
            threading.setprofile(None)
        try:
            join_all([trainer], timeout=120.0)
            session.raise_producer_error()
        finally:
            consumer.close()
            session.shutdown()
        assert taken == [(0, k) for k in range(items // self.BATCH)] + [(1, 0)]
        assert state["windows"] == 1
        return calls

    def test_the_calls_before_the_first_publish_do_not_grow_with_the_dataset(self):
        small = self._calls_before_the_first_publish(4096)
        large = self._calls_before_the_first_publish(65536)
        # It did watch the sample path: the draw, the cut, one batch of items.
        assert small[("samplers.py", "order")] == 1
        assert small[("samplers.py", "__getitem__")] == 1
        assert small[("test_delivery.py", "__getitem__")] == self.BATCH
        assert small == large

    def test_a_million_indices_are_drawn_without_an_int_object_each(self):
        loader = DataLoader(IndexDataset(1_000_000), batch_size=self.BATCH, shuffle=True, seed=1)
        np.random.default_rng(0)  # numpy.random's own lazy import is not the sampler's
        tracemalloc.start()
        try:
            iterator = loader.prefetch_iter(collate=False)
            items = next(iterator)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(items) == self.BATCH and len(iterator.sampled_batches) == 15625
        # The order array (8 MB) and whatever the permutation needed beside
        # it; a list of a million ints alone is 36 MB.
        assert peak < 20e6, f"{peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# a steady-state batch costs the producer a fixed number of calls
# ---------------------------------------------------------------------------


class TestPerBatchControlCost:
    """The Python calls the producer thread makes inside one steady-state
    ``TensorProducer.publish``, and inside the handling of one ACK from
    control-message dispatch (``_handle_control_message``) to its return.

    Counted, not clocked: ``inproc-small``'s p99 spreads wider than its bound
    between two identical trees, and these numbers do not move at all
    between runs.  Measured on the tree before the protocol decisions moved
    into ``core/protocol.py`` (one consumer, ``buffer_size=1``, epoch 1 of 2,
    so every lazy path is warm): 44 calls per publish (46 for the epoch's
    first, which also times the epoch turnaround) and 21 per ACK.  None may
    grow.  ``heartbeat_interval=60`` keeps heartbeats out of the counted
    stretch, so every control message the producer handles is a HELLO or an
    ACK.
    """

    ITEMS, BATCH = 64, 8
    FIRST_PUBLISH_CALLS, PUBLISH_CALLS, ACK_CALLS = 46, 44, 21
    STEP_CALLS, BOUNDARY_STEP_CALLS = 91, 121

    def _steady_state_counts(self):
        """``{"publish": [...], "ack": [...]}``: calls per epoch-1 publish and
        per epoch-1 ACK, in order."""
        address = "inproc://delivery-control-cost"
        publish = TensorProducer.publish.__code__
        dispatch = TensorProducer._handle_control_message.__code__
        counts = {"publish": [], "ack": []}
        window = {"frame": None, "kind": None, "calls": 0}

        def profile(frame, event, arg):
            if threading.current_thread().name != "repro-producer":
                return
            if event == "call":
                if window["frame"] is not None:
                    window["calls"] += 1
                elif frame.f_code is publish and frame.f_locals["payload"].epoch == 1:
                    window.update(frame=frame, kind="publish", calls=0)
                elif frame.f_code is dispatch:
                    message = frame.f_locals["message"]
                    if message.kind is MessageKind.ACK and message.body["epoch"] == 1:
                        window.update(frame=frame, kind="ack", calls=0)
            elif event == "return" and frame is window["frame"]:
                counts[window["kind"]].append(window["calls"])
                window.update(frame=None, kind=None)

        session = repro.serve(
            DataLoader(IndexDataset(self.ITEMS), batch_size=self.BATCH),
            address=address,
            epochs=2,
            buffer_size=1,
            start=False,
        )
        consumer = repro.attach(address, max_epochs=2, buffer_size=1, heartbeat_interval=60)
        trainer = threading.Thread(target=lambda: list(consumer), name="test-cost-trainer")
        trainer.start()
        threading.setprofile(profile)  # inherited by the producer thread
        try:
            session.start()
        finally:
            threading.setprofile(None)
        try:
            join_all([trainer], timeout=60.0)
            session.raise_producer_error()
        finally:
            consumer.close()
            session.shutdown()
        per_epoch = self.ITEMS // self.BATCH
        assert len(counts["publish"]) == per_epoch
        assert len(counts["ack"]) == per_epoch
        return counts

    def test_a_publish_and_an_ack_cost_no_more_calls_than_before(self):
        counts = self._steady_state_counts()
        first, *rest = counts["publish"]
        assert first <= self.FIRST_PUBLISH_CALLS, counts
        assert max(rest) <= self.PUBLISH_CALLS, counts
        assert max(counts["ack"]) <= self.ACK_CALLS, counts

    def _trainer_step_counts(self):
        """The calls the training thread makes inside each ``next()`` of
        ``iter_batches`` that yields an epoch-1 batch, in order: from the
        generator's resume (which acknowledges the batch before) to its
        yield."""
        address = "inproc://delivery-trainer-cost"
        step = TensorConsumer.iter_batches.__code__
        counts = []
        window = {"frame": None, "calls": 0}

        def profile(frame, event, arg):
            if event == "call":
                if window["frame"] is not None:
                    window["calls"] += 1
                elif frame.f_code is step:
                    window.update(frame=frame, calls=0)
            elif event == "return" and frame is window["frame"]:
                window["frame"] = None
                if arg is not None:  # a yield, not the generator's end
                    counts.append((arg[0].epoch, window["calls"]))

        def train():
            sys.setprofile(profile)
            try:
                for _batch in consumer:
                    pass
            finally:
                sys.setprofile(None)

        session = repro.serve(
            DataLoader(IndexDataset(self.ITEMS), batch_size=self.BATCH),
            address=address,
            epochs=2,
            buffer_size=1,
            start=False,
        )
        consumer = repro.attach(address, max_epochs=2, buffer_size=1, heartbeat_interval=60)
        trainer = threading.Thread(target=train, name="test-cost-trainer")
        # A collection on the trainer thread would count other tests'
        # finalizers as this step's calls.
        gc.collect()
        gc.disable()
        trainer.start()
        session.start()
        try:
            join_all([trainer], timeout=60.0)
            session.raise_producer_error()
        finally:
            gc.enable()
            consumer.close()
            session.shutdown()
        per_epoch = self.ITEMS // self.BATCH
        assert [epoch for epoch, _calls in counts] == [0] * per_epoch + [1] * per_epoch
        return [calls for epoch, calls in counts if epoch == 1]

    def test_a_trainer_step_costs_no_more_calls_than_before(self):
        """The consumer's half of the same count: one ``next()`` on the
        training thread, the ack of the batch before included.  Measured on
        the tree before the consumer's decisions moved into
        ``core/protocol.py``, over 20 runs: 91 calls for every step but an
        epoch's first and last, always.  Those two may also take an
        EPOCH_END, and whether it is already queued or is waited for is a
        race with the producer: they read 91, 104 or 121, and 91 or 105.
        Neither bound may grow."""
        first, *steady, last = counts = self._trainer_step_counts()
        assert max(steady) <= self.STEP_CALLS, counts
        assert max(first, last) <= self.BOUNDARY_STEP_CALLS, counts
