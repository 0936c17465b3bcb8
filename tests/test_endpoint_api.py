"""Tests for the URI endpoint layer: the transport registry, address
resolution, the ``repro.serve()`` / ``repro.attach()`` API, session lifecycle
guards, and duplicate-consumer protection."""

import threading
import time

import pytest

import repro
from repro.core import ConsumerConfig, ProducerConfig, SharedLoaderSession
from repro.core.consumer import TensorConsumer
from repro.core.producer import TensorProducer
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
from repro.messaging import InProcHub
from repro.messaging.endpoint import (
    InProcTransport,
    TransportRegistry,
    bind,
    connect,
    default_registry,
    is_uri,
    parse_address,
)
from repro.messaging.errors import (
    AddressError,
    AddressInUseError,
    AddressNotServedError,
    ConsumerRefusedError,
    DuplicateConsumerError,
    UnknownSchemeError,
)
from repro.messaging.message import MessageKind
from repro.tensor import SharedMemoryPool


def tiny_loader(size=24, batch_size=4):
    dataset = SyntheticImageDataset(size, image_size=8, payload_bytes=16)
    pipeline = Compose([DecodeJpeg(height=8, width=8), Normalize(), ToTensor()])
    return DataLoader(dataset, batch_size=batch_size, transform=pipeline)


# ---------------------------------------------------------------------------
# address parsing
# ---------------------------------------------------------------------------


class TestAddressParsing:
    def test_parse_splits_scheme_and_locator(self):
        assert parse_address("inproc://demo") == ("inproc", "demo")
        assert parse_address("tcp://127.0.0.1:5555") == ("tcp", "127.0.0.1:5555")

    @pytest.mark.parametrize(
        "bad", ["tensorsocket", "inproc://", "://x", "INPROC://x", "9p://x", 42]
    )
    def test_malformed_addresses_rejected(self, bad):
        with pytest.raises(AddressError):
            parse_address(bad)

    def test_is_uri(self):
        assert is_uri("inproc://demo")
        assert not is_uri("tensorsocket")


# ---------------------------------------------------------------------------
# registry and transports
# ---------------------------------------------------------------------------


class TestTransportRegistry:
    def test_register_lookup_and_schemes(self):
        registry = TransportRegistry()
        transport = InProcTransport()
        registry.register("inproc", transport)
        assert registry.get("inproc") is transport
        assert registry.schemes() == ["inproc"]

    def test_duplicate_scheme_rejected_unless_replace(self):
        registry = TransportRegistry()
        registry.register("inproc", InProcTransport())
        with pytest.raises(AddressInUseError):
            registry.register("inproc", InProcTransport())
        replacement = InProcTransport()
        registry.register("inproc", replacement, replace=True)
        assert registry.get("inproc") is replacement

    def test_unknown_scheme_error_lists_known_schemes(self):
        registry = TransportRegistry()
        registry.register("inproc", InProcTransport())
        with pytest.raises(UnknownSchemeError, match="inproc"):
            registry.get("mp")

    def test_default_registry_serves_inproc_and_tcp(self):
        schemes = default_registry().schemes()
        assert "inproc" in schemes and "tcp" in schemes


class TestInProcTransport:
    def test_bind_connect_share_hub_and_pool(self):
        endpoint = bind("inproc://transport-test")
        try:
            attached = connect("inproc://transport-test")
            assert attached.hub is endpoint.hub
            assert attached.pool is endpoint.pool
        finally:
            endpoint.release()

    def test_bind_collision_and_release(self):
        endpoint = bind("inproc://collide")
        with pytest.raises(AddressInUseError):
            bind("inproc://collide")
        endpoint.release()
        endpoint.release()  # idempotent
        rebound = bind("inproc://collide")  # address is free again
        rebound.release()

    def test_connect_unserved_address(self):
        with pytest.raises(AddressNotServedError, match="repro.serve"):
            connect("inproc://never-served")

    def test_connect_side_release_keeps_address_served(self):
        endpoint = bind("inproc://keep")
        try:
            connect("inproc://keep").release()
            assert connect("inproc://keep").hub is endpoint.hub
        finally:
            endpoint.release()


# ---------------------------------------------------------------------------
# serve() / attach()
# ---------------------------------------------------------------------------


class TestServeAttach:
    def test_round_trip_two_threaded_consumers(self):
        """serve + attach across threads, no hub/pool objects passed anywhere."""
        session = repro.serve(
            tiny_loader(size=24), address="inproc://roundtrip", epochs=1, start=False
        )
        counts = {}
        ready = threading.Barrier(3)

        def consume(name):
            consumer = repro.attach(
                "inproc://roundtrip", consumer_id=name, max_epochs=1, receive_timeout=20
            )
            ready.wait(timeout=10)
            counts[name] = sum(1 for _ in consumer)

        threads = [threading.Thread(target=consume, args=(f"t{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        ready.wait(timeout=10)  # both consumers attached before the first batch
        session.start()
        for thread in threads:
            thread.join(timeout=30)
        session.shutdown()
        assert counts == {"t0": 6, "t1": 6}

    def test_attach_without_serving_is_a_clear_error(self):
        with pytest.raises(AddressNotServedError):
            repro.attach("inproc://nobody-home")

    def test_attach_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            repro.attach("zmq://demo")

    def test_serve_and_attach_reject_malformed_addresses(self):
        # "inproc:/x" (one slash) must not silently serve an unreachable session.
        with pytest.raises(AddressError):
            repro.serve(tiny_loader(), address="inproc:/typo")
        with pytest.raises(AddressError):
            repro.attach("inproc:/typo")

    def test_serve_rejects_config_and_kwargs_together(self):
        with pytest.raises(TypeError):
            repro.serve(
                tiny_loader(),
                address="inproc://conflict",
                producer_config=ProducerConfig(),
                epochs=2,
            )

    def test_config_address_used_when_address_param_omitted(self):
        config = ProducerConfig(address="inproc://from-config")
        session = repro.serve(tiny_loader(), producer_config=config, start=False)
        try:
            assert session.address == "inproc://from-config"
            consumer = repro.attach(
                consumer_config=ConsumerConfig(address="inproc://from-config")
            )
            assert consumer.config.address == "inproc://from-config"
        finally:
            session.shutdown()

    def test_explicit_hub_session_never_enters_the_directory(self):
        # A hub-wired session must not clobber the directory entry of the
        # session that actually bound the address.
        bound = repro.serve(tiny_loader(), address="inproc://owner", start=False)
        hub, pool = InProcHub(), SharedMemoryPool()
        wired = SharedLoaderSession(
            tiny_loader(), address="inproc://owner", hub=hub, pool=pool
        )
        try:
            assert SharedLoaderSession.at("inproc://owner") is bound
        finally:
            wired.shutdown()
            assert SharedLoaderSession.at("inproc://owner") is bound
            bound.shutdown()

    def test_session_is_discoverable_at_its_address(self):
        session = repro.serve(tiny_loader(), address="inproc://lookup", start=False)
        try:
            assert SharedLoaderSession.at("inproc://lookup") is session
            assert SharedLoaderSession.at("inproc://elsewhere") is None
        finally:
            session.shutdown()
        assert SharedLoaderSession.at("inproc://lookup") is None

    def test_address_reusable_after_shutdown(self):
        repro.serve(tiny_loader(size=8), address="inproc://reuse", start=False).shutdown()
        session = repro.serve(tiny_loader(size=8), address="inproc://reuse", epochs=1)
        consumer = repro.attach("inproc://reuse", max_epochs=1)
        assert sum(1 for _ in consumer) == 2
        session.shutdown()

    def test_attach_falls_back_to_endpoint_without_a_session(self):
        """A bare TensorProducer hand-wired on a bound address is attachable too."""
        endpoint = bind("inproc://bare-producer")
        producer = TensorProducer(
            tiny_loader(size=8),
            hub=endpoint.hub,
            pool=endpoint.pool,
            config=ProducerConfig(address="inproc://bare-producer", epochs=1),
        )
        try:
            consumer = repro.attach("inproc://bare-producer", max_epochs=1, receive_timeout=20)
            thread = threading.Thread(target=lambda: (list(producer), producer.join()))
            thread.start()
            assert sum(1 for _ in consumer) == 2
            thread.join(timeout=30)
            consumer.close()
        finally:
            endpoint.release()


# ---------------------------------------------------------------------------
# backward compatibility: explicit hub/pool wiring
# ---------------------------------------------------------------------------


class TestExplicitWiringCompat:
    def test_producer_consumer_with_explicit_hub_and_pool(self):
        hub, pool = InProcHub(), SharedMemoryPool()
        producer = TensorProducer(
            tiny_loader(size=8), hub=hub, pool=pool, config=ProducerConfig(epochs=1)
        )
        consumer = TensorConsumer(hub=hub, pool=pool, config=ConsumerConfig(max_epochs=1))
        thread = threading.Thread(target=lambda: (list(producer), producer.join()))
        thread.start()
        assert sum(1 for _ in consumer) == 2
        thread.join(timeout=30)
        consumer.close()
        # Non-URI addresses never touch the registry.
        assert "tensorsocket" not in InProcTransport().locators()

    def test_session_with_explicit_hub_is_not_discoverable(self):
        hub, pool = InProcHub(), SharedMemoryPool()
        session = SharedLoaderSession(tiny_loader(size=8), hub=hub, pool=pool)
        assert SharedLoaderSession.at(session.address) is None
        assert session.hub is hub and session.pool is pool
        session.shutdown()

    def test_consumer_without_hub_or_uri_address_is_an_error(self):
        with pytest.raises(TypeError, match="hub"):
            TensorConsumer(config=ConsumerConfig(address="tensorsocket"))

    def test_explicit_hub_overrides_uri_resolution(self):
        hub, pool = InProcHub(), SharedMemoryPool()
        producer = TensorProducer(
            tiny_loader(size=8),
            hub=hub,
            pool=pool,
            config=ProducerConfig(address="inproc://override-me", epochs=1),
        )
        # The explicit hub wins and the address is not bound in the registry.
        assert producer.hub is hub
        with pytest.raises(AddressNotServedError):
            connect("inproc://override-me")


# ---------------------------------------------------------------------------
# session lifecycle guards and shutdown safety
# ---------------------------------------------------------------------------


class TestSessionLifecycle:
    def test_start_after_shutdown_raises(self):
        session = repro.serve(tiny_loader(), address="inproc://dead", start=False)
        session.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            session.start()

    def test_consumer_after_shutdown_raises(self):
        session = repro.serve(tiny_loader(), address="inproc://dead2", start=False)
        session.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            session.consumer()
        # The address was released at shutdown, so attach-by-string fails too.
        with pytest.raises(AddressNotServedError):
            repro.attach("inproc://dead2")

    def test_shutdown_is_idempotent(self):
        session = repro.serve(tiny_loader(size=8), address="inproc://twice", epochs=1)
        consumer = repro.attach("inproc://twice", max_epochs=1)
        list(consumer)
        session.shutdown()
        session.shutdown()

    def test_consumer_close_error_does_not_leak_pool_or_address(self):
        session = repro.serve(tiny_loader(size=8), address="inproc://leaky", epochs=1)
        consumer = repro.attach("inproc://leaky", max_epochs=1)
        list(consumer)

        def exploding_close():
            raise ValueError("close failed")

        consumer.close = exploding_close
        with pytest.raises(ValueError, match="close failed"):
            session.shutdown()
        # Cleanup still happened: memory freed, address free, session gone.
        assert session.pool.live_segments == 0
        assert SharedLoaderSession.at("inproc://leaky") is None
        repro.serve(tiny_loader(size=8), address="inproc://leaky", start=False).shutdown()
        # Restore the real close and run it: the sabotaged consumer still owns
        # a reactor subscription and heartbeat timer, and the session-scoped
        # quiescence sentinel rightly flags them if left behind.
        del consumer.close
        consumer.close()

    def test_producer_error_reraised_after_cleanup(self):
        class ExplodingLoader:
            def __iter__(self):
                raise RuntimeError("loader blew up")

            def __len__(self):
                return 1

        session = repro.serve(ExplodingLoader(), address="inproc://boom")
        with pytest.raises(RuntimeError, match="loader blew up"):
            session.shutdown()
        assert SharedLoaderSession.at("inproc://boom") is None
        # The endpoint was released despite the producer thread dying early.
        repro.serve(tiny_loader(size=8), address="inproc://boom", start=False).shutdown()


# ---------------------------------------------------------------------------
# duplicate consumer ids
# ---------------------------------------------------------------------------


class TestDuplicateConsumerIds:
    def test_second_consumer_with_same_id_is_rejected(self):
        session = repro.serve(
            tiny_loader(size=16), address="inproc://dups", epochs=1, start=False
        )
        first = repro.attach("inproc://dups", consumer_id="worker", max_epochs=1)
        impostor = repro.attach(
            "inproc://dups", consumer_id="worker", max_epochs=1, receive_timeout=20
        )
        session.start()
        # The rightful owner consumes the whole epoch, unaffected.
        assert sum(1 for _ in first) == 4
        with pytest.raises(DuplicateConsumerError, match="worker") as refused:
            list(impostor)
        # Every refusal is a ConsumerRefusedError; this one names the id.
        assert isinstance(refused.value, ConsumerRefusedError)
        session.shutdown()

    def test_rejected_duplicate_closing_does_not_drop_the_owner(self):
        """The impostor's BYE carries its own token and must not deregister
        the rightful consumer (which would corrupt the ack ledger)."""
        session = repro.serve(
            tiny_loader(size=16), address="inproc://dupbye", epochs=1, start=False
        )
        owner = repro.attach("inproc://dupbye", consumer_id="worker", max_epochs=1)
        impostor = repro.attach(
            "inproc://dupbye", consumer_id="worker", max_epochs=1, receive_timeout=20
        )
        session.start()
        with pytest.raises(DuplicateConsumerError):
            list(impostor)
        impostor.close()  # sends BYE with the impostor's token
        # The owner still consumes the whole epoch after the impostor left.
        assert sum(1 for _ in owner) == 4
        session.shutdown()

    def test_same_consumer_re_registration_is_idempotent(self):
        session = repro.serve(
            tiny_loader(size=16), address="inproc://rehello", epochs=1, start=False
        )
        consumer = repro.attach("inproc://rehello", consumer_id="worker", max_epochs=1)
        consumer._register()  # a HELLO retry from the same instance
        session.start()
        assert sum(1 for _ in consumer) == 4
        producer = session.producer
        assert list(producer.consumers) == ["worker"]
        session.shutdown()

    def test_a_refused_consumer_stops_sending_hello(self):
        """The refusal answers the HELLO: retrying it would only earn the
        same refusal every heartbeat interval until the impostor closes."""
        session = repro.serve(
            tiny_loader(size=16), address="inproc://duphello", epochs=1, start=False
        )
        owner = repro.attach(
            "inproc://duphello", consumer_id="worker", max_epochs=1, heartbeat_interval=0.05
        )
        impostor = repro.attach(
            "inproc://duphello", consumer_id="worker", max_epochs=1, heartbeat_interval=0.05
        )
        session.start()
        try:
            with pytest.raises(DuplicateConsumerError, match="worker"):
                impostor.wait_until_registered(timeout=10.0)
            hellos = []
            push = impostor._push

            def counting_push(kind, *args, **kwargs):
                if kind is MessageKind.HELLO:
                    hellos.append(time.monotonic())
                return push(kind, *args, **kwargs)

            impostor._push = counting_push
            time.sleep(0.5)
            assert hellos == []
        finally:
            impostor.close()
            owner.close()
            session.shutdown()


class TestAnIdleConsumer:
    def test_an_attached_consumer_that_never_iterates_stays_registered(self):
        """HELLO retries stop at the producer's answer, not when someone
        drains the mailbox: an attached consumer that has not started
        iterating keeps heartbeating, and no REPLY piles up for it."""
        session = repro.serve(
            tiny_loader(size=16),
            address="inproc://idle",
            epochs=1,
            heartbeat_timeout=0.5,
            start=False,
        )
        consumer = repro.attach("inproc://idle", heartbeat_interval=0.05)
        session.start()
        try:
            time.sleep(0.4)
            queued = consumer._mailbox.qsize()
            time.sleep(0.6)
            # The ack deadline (4 heartbeat timeouts, 2 s) has not passed; a
            # consumer that stopped beating would have been dropped at 0.5 s.
            assert consumer.consumer_id in session.producer.consumers
            assert consumer._mailbox.qsize() == queued
        finally:
            consumer.close()
            session.shutdown()
