"""Tests for the session wrapper, rubberband catch-up through the real
producer, and the experiments command-line interface."""

import threading
import time

import pytest

from repro.core import ConsumerConfig, ProducerConfig, SharedLoaderSession
from repro.core.rubberband import JoinDecision
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
from repro.experiments.__main__ import main as experiments_main


def tiny_loader(size=40, batch_size=4):
    dataset = SyntheticImageDataset(size, image_size=12, payload_bytes=16)
    pipeline = Compose([DecodeJpeg(height=12, width=12), Normalize(), ToTensor()])
    return DataLoader(dataset, batch_size=batch_size, transform=pipeline)


class TestSharedLoaderSession:
    def test_double_start_rejected(self):
        session = SharedLoaderSession(tiny_loader(), producer_config=ProducerConfig(epochs=1))
        session.start()
        with pytest.raises(RuntimeError):
            session.start()
        session.shutdown()

    def test_context_manager_shuts_down(self):
        with SharedLoaderSession(
            tiny_loader(size=8), producer_config=ProducerConfig(epochs=1)
        ) as session:
            consumer = session.consumer(ConsumerConfig(max_epochs=1))
            consumed = sum(1 for _ in consumer)
            consumer.close()
        assert consumed == 2
        assert not session.is_running

    def test_is_running_reflects_producer_thread(self):
        session = SharedLoaderSession(
            tiny_loader(size=8), producer_config=ProducerConfig(epochs=1)
        )
        assert not session.is_running
        session.start()
        assert session.is_running
        consumer = session.consumer(ConsumerConfig(max_epochs=1))
        list(consumer)
        consumer.close()
        session.shutdown()
        assert not session.is_running


class TestRubberbandCatchUp:
    def test_late_joiner_inside_window_replays_missed_batches(self):
        """A consumer joining within the rubberband window receives the whole epoch."""
        session = SharedLoaderSession(
            tiny_loader(size=40, batch_size=4),  # 10 batches per epoch
            producer_config=ProducerConfig(
                epochs=1, rubberband_fraction=0.5
            ),
        )
        counts = {}

        def consume(name, delay=0.0, per_batch_sleep=0.0):
            if delay:
                time.sleep(delay)
            consumer = session.consumer(
                ConsumerConfig(consumer_id=name, max_epochs=1, receive_timeout=20)
            )
            seen = 0
            for _ in consumer:
                seen += 1
                if per_batch_sleep:
                    time.sleep(per_batch_sleep)
            counts[name] = seen
            consumer.close()

        early = threading.Thread(
            target=consume, args=("early",), kwargs={"per_batch_sleep": 0.1}
        )
        late = threading.Thread(target=consume, args=("late",), kwargs={"delay": 0.05})
        early.start()
        session.start()
        late.start()
        early.join(timeout=40)
        late.join(timeout=40)
        session.shutdown()
        assert not early.is_alive() and not late.is_alive()
        assert counts["early"] == 10
        # The late joiner arrived within the (generous) rubberband window, so
        # catch-up replay gives it the full epoch as well.
        assert counts["late"] == 10

    def test_rubberband_statistics_exposed_by_producer(self):
        session = SharedLoaderSession(
            tiny_loader(size=16, batch_size=4),
            producer_config=ProducerConfig(epochs=1, rubberband_fraction=0.25),
        )
        session.start()
        consumer = session.consumer(ConsumerConfig(max_epochs=1))
        list(consumer)
        consumer.close()
        session.shutdown()
        policy = session.producer.rubberband
        assert policy.joins_immediate + policy.joins_caught_up + policy.joins_deferred >= 1
        assert session.producer.metrics()["repro.producer.pending_batches"] == 0


class TestExperimentsCli:
    def test_list_option(self, capsys):
        assert experiments_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig8" in output and "tab4" in output

    def test_unknown_experiment_is_an_error(self):
        assert experiments_main(["fig99"]) == 2

    def test_no_arguments_prints_help(self):
        assert experiments_main([]) == 1

    def test_running_one_experiment_prints_its_table(self, capsys):
        assert experiments_main(["fig1", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "Cloud instances" in output
        assert "| provider |" in output

    def test_running_a_simulated_experiment_fast(self, capsys):
        assert experiments_main(["ablation_producer_batch", "--fast"]) == 0
        assert "Repetition share" in capsys.readouterr().out
