"""Small helpers shared by the experiment drivers."""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import durations
from repro.hardware.gpu import GpuSharingMode
from repro.hardware.instances import MachineSpec
from repro.hardware.metrics import GB
from repro.training.collocation import CollocationResult, CollocationRunner, SharingStrategy
from repro.training.model_zoo import ModelProfile, get_model
from repro.training.workload import TrainingWorkload

#: On-disk dataset sizes (bytes) used for storage / page-cache modeling.
DATASET_BYTES = {
    "imagenet": 145 * GB,
    "librispeech": 60 * GB,
    "cc3m": 420 * GB,
    "alpaca": int(0.05 * GB),
}


def make_workloads(
    model: str | ModelProfile,
    count: int,
    *,
    same_gpu: bool = False,
    batch_size: Optional[int] = None,
    start_delays: Optional[Sequence[float]] = None,
) -> List[TrainingWorkload]:
    """``count`` copies of one model, on separate GPUs or collocated on GPU 0."""
    profile = get_model(model) if isinstance(model, str) else model
    workloads = []
    for index in range(count):
        workloads.append(
            TrainingWorkload(
                model=profile,
                gpu_index=0 if same_gpu else index,
                batch_size=batch_size,
                name=f"{profile.name}-{index}",
                start_delay_s=start_delays[index] if start_delays else 0.0,
            )
        )
    return workloads


def run_collocation(
    spec: MachineSpec,
    workloads: Sequence[TrainingWorkload],
    strategy: SharingStrategy,
    *,
    fast: bool = False,
    total_loader_workers: Optional[int] = None,
    sharing_mode: GpuSharingMode = GpuSharingMode.MPS,
    producer_gpu: int = 0,
    buffer_size: int = 2,
    flexible_batching: bool = False,
) -> CollocationResult:
    """Run one configuration with experiment-standard durations and dataset sizing."""
    dataset = workloads[0].model.dataset
    runner = CollocationRunner(
        spec,
        strategy=strategy,
        sharing_mode=sharing_mode,
        total_loader_workers=total_loader_workers,
        producer_gpu=producer_gpu,
        buffer_size=buffer_size,
        flexible_batching=flexible_batching,
        dataset_bytes=DATASET_BYTES.get(dataset, 100 * GB),
        **durations(fast),
    )
    return runner.run(list(workloads))


def observability_probe() -> Dict[str, object]:
    """Batch-latency percentiles and stall attribution from the obs registry.

    The registry-backed companion to :func:`measure_epoch_throughput`: the
    wall-clock harness times epochs from the outside, this probe reads what
    the instrumented data plane recorded on the inside (per-batch
    sampled->acked latency, per-phase stall seconds).  Returns ``{}``-valued
    entries when nothing was recorded (observability disabled or no batches
    flowed in this process).
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.stall import attribution

    probe: Dict[str, object] = {"stall": attribution(REGISTRY)}
    latency = REGISTRY.get("repro.consumer.batch_latency_seconds")
    if latency is not None and latency.count():
        probe["batch_latency_seconds"] = latency.snapshot()
    return probe


def measure_epoch_throughput(
    session,
    *,
    epochs: int,
    batches_per_epoch: int,
    consumers: int = 1,
    receive_timeout: float = 60.0,
    register_delay: float = 0.2,
    join_timeout: float = 180.0,
) -> Tuple[Dict[int, float], Dict[str, int]]:
    """Run a real (not simulated) session and measure per-epoch batches/sec.

    The shared harness behind the epoch-cache benchmark and the fig14
    real-cache probe: attach ``consumers`` trainers to a *not yet started*
    session, start it once everyone has registered, and time each epoch as
    seen by the first consumer (epoch boundaries are detected by batch count,
    so ``batches_per_epoch`` must be exact — size datasets to divide evenly).

    Returns ``(epoch_rates, counts)``: epoch index -> batches/sec, and
    consumer id -> total batches.  The session is left running/finished but
    **not** shut down, so callers can read ``session.metrics()`` first.
    """
    from repro.core import ConsumerConfig

    epoch_rates: Dict[int, float] = {}
    counts: Dict[str, int] = {}

    def consume(name: str, record: Optional[Dict[int, float]]) -> None:
        consumer = session.consumer(
            ConsumerConfig(consumer_id=name, max_epochs=epochs, receive_timeout=receive_timeout)
        )
        count = 0
        started = time.perf_counter()
        for _ in consumer:
            count += 1
            if count % batches_per_epoch == 0:
                now = time.perf_counter()
                if record is not None:
                    record[count // batches_per_epoch - 1] = batches_per_epoch / (now - started)
                started = now
        counts[name] = count
        consumer.close()

    threads = [
        threading.Thread(
            target=consume,
            args=(f"epoch-rate-{i}", epoch_rates if i == 0 else None),
            name=f"repro-epoch-rate-{i}",
            daemon=True,
        )
        for i in range(consumers)
    ]
    for thread in threads:
        thread.start()
    time.sleep(register_delay)  # let every consumer register before batch 0
    session.start()
    for thread in threads:
        thread.join(timeout=join_timeout)
    alive = [t for t in threads if t.is_alive()]
    if alive:
        raise RuntimeError(f"epoch-throughput consumers wedged: {alive}")
    return epoch_rates, counts
