"""Simulated data-loading pipelines: conventional per-process and TensorSocket.

Both pipelines feed :func:`~repro.training.trainer.trainer_process` actors
through a small ``BatchSource`` interface (``get()`` → ticket event,
``done(ticket)`` when the training step finished), so the trainer code is
identical regardless of how loading is organised — exactly the plug-and-play
property the real library has.

* :class:`ConventionalLoading` — the paper's baseline: every training process
  owns its own loader with its own workers; every batch is read from storage,
  preprocessed on the CPU and copied over PCIe *per process*.
* :class:`TensorSocketLoading` — the shared producer: one set of workers reads
  and preprocesses each batch once, stages it on the producer GPU over PCIe
  once, shares it to consumers on other GPUs over NVLink, and releases the
  staged memory when every consumer has finished with it.  Auxiliary GPU work
  attached to data preparation (CLIP for DALL-E 2) runs once on the producer.

The CoorDL and Joader pipelines live in :mod:`repro.baselines` and follow the
same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hardware.machine import Machine
from repro.hardware.metrics import GB
from repro.simulation.engine import Simulator
from repro.simulation.resources import Store
from repro.training.workload import TrainingWorkload

@dataclass
class BatchTicket:
    """A staged batch handed to one or more trainers."""

    nbytes: int = 0
    refs_remaining: int = 1
    on_release: Optional[Callable[[], None]] = None

    def release_one(self) -> None:
        self.refs_remaining -= 1
        if self.refs_remaining == 0 and self.on_release is not None:
            self.on_release()


class BatchSource:
    """The trainer-facing end of a loading pipeline (one per training process)."""

    def __init__(self, sim: Simulator, capacity: int, name: str) -> None:
        self.store = Store(sim, capacity=capacity, name=name)
        self.batches_delivered = 0

    def get(self):
        """Event yielding the next :class:`BatchTicket`."""
        return self.store.get()

    def put(self, ticket: BatchTicket):
        self.batches_delivered += 1
        return self.store.put(ticket)

    def done(self, ticket: BatchTicket) -> None:
        ticket.release_one()

    @property
    def buffered(self) -> int:
        return len(self.store)


class LoadingPipeline:
    """Base class: owns worker processes and hands out batch sources."""

    def __init__(self, sim: Simulator, machine: Machine) -> None:
        self.sim = sim
        self.machine = machine
        self.sources: Dict[str, BatchSource] = {}

    def attach(self, workload: TrainingWorkload) -> BatchSource:
        raise NotImplementedError

    def start(self, duration_s: float) -> None:
        raise NotImplementedError


class ConventionalLoading(LoadingPipeline):
    """Per-process loaders: the non-shared baseline.

    Each attached workload gets its own worker processes.  A worker loop is
    one batch end to end: read the encoded samples from storage, spend the
    preprocessing CPU time on one core, copy the prepared batch to the
    workload's GPU over PCIe (the baseline uses GPU prefetching, matching the
    paper's setup), and enqueue it for the trainer.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        *,
        prefetch_batches: int = 2,
    ) -> None:
        super().__init__(sim, machine)
        self.prefetch_batches = int(prefetch_batches)
        self._workloads: List[TrainingWorkload] = []

    def attach(self, workload: TrainingWorkload) -> BatchSource:
        source = BatchSource(
            self.sim,
            capacity=max(self.prefetch_batches, 1),
            name=f"{workload.name}-queue",
        )
        self.sources[workload.name] = source
        self._workloads.append(workload)
        return source

    def start(self, duration_s: float) -> None:
        for workload in self._workloads:
            source = self.sources[workload.name]
            workers = max(1, workload.loader_workers)
            for worker_index in range(workers):
                self.sim.process(
                    self._worker_loop(workload, source, duration_s),
                    name=f"{workload.name}-loader-{worker_index}",
                )

    def _worker_loop(self, workload: TrainingWorkload, source: BatchSource, duration_s: float):
        storage = self.machine.storage
        cpu = self.machine.cpu
        pcie = self.machine.pcie(workload.gpu_index)
        if workload.start_delay_s > 0:
            yield self.sim.timeout(workload.start_delay_s)
        while self.sim.now < duration_s:
            yield from storage.read(workload.stored_bytes_per_batch)
            yield from cpu.run(workload.cpu_seconds_per_batch)
            yield from pcie.transfer(workload.h2d_bytes_per_batch)
            ticket = BatchTicket(nbytes=workload.h2d_bytes_per_batch, refs_remaining=1)
            yield source.put(ticket)


class TensorSocketLoading(LoadingPipeline):
    """The shared producer pipeline.

    One pool of loader workers prepares each batch exactly once and hands it
    to a *stager* that copies it onto the producer GPU, broadcasts it over
    NVLink to any consumer GPUs, performs producer-side auxiliary GPU work
    (Section 3.3.4), and enqueues a pointer ticket into every consumer's
    bounded buffer (capacity = the paper's consumer batch buffer).  The staged
    VRAM is freed once every consumer has finished the batch — the shared
    ticket's refcount is the simulation-side twin of the acknowledgement
    ledger in :mod:`repro.core`.
    """

    #: Control-plane cost of orchestrating one consumer batch (ZeroMQ message
    #: handling, payload packing) — a fraction of a millisecond of CPU.
    CONTROL_CPU_SECONDS_PER_BATCH = 0.15e-3
    #: Extra producer-side CPU per batch when flexible batch sizing is on
    #: (collating producer batches and carving slices; Figure 10 shows the
    #: overhead is small).
    FLEXIBLE_CPU_SECONDS_PER_BATCH = 0.35e-3
    #: Producer-process VRAM overhead: CUDA context plus the default buffer of
    #: staged batches (Tables 3 and 4 observe ~1.3-1.5 GB).
    PRODUCER_VRAM_OVERHEAD_GB = 0.6

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        *,
        producer_gpu: int = 0,
        loader_workers: int = 8,
        buffer_size: int = 2,
        flexible_batching: bool = False,
        stage_on_gpu: bool = True,
    ) -> None:
        super().__init__(sim, machine)
        self.producer_gpu = int(producer_gpu)
        self.loader_workers = max(1, int(loader_workers))
        self.buffer_size = max(1, int(buffer_size))
        self.flexible_batching = bool(flexible_batching)
        self.stage_on_gpu = bool(stage_on_gpu)
        self._workloads: List[TrainingWorkload] = []
        self._staging: Optional[Store] = None
        # Traffic / memory accounting of the producer itself.
        self.batches_produced = 0

    def attach(self, workload: TrainingWorkload) -> BatchSource:
        source = BatchSource(self.sim, capacity=self.buffer_size, name=f"{workload.name}-buffer")
        self.sources[workload.name] = source
        self._workloads.append(workload)
        return source

    # -- pipeline processes ------------------------------------------------------------
    def start(self, duration_s: float) -> None:
        if not self._workloads:
            raise RuntimeError("no workloads attached to the shared loader")
        # The producer prepares batches for the heaviest demand stream; all
        # consumers traverse the same data at the same rate.
        self._reference = max(self._workloads, key=lambda w: w.batch_size)
        self._staging = Store(
            self.sim, capacity=max(2, self.loader_workers), name="producer-staging"
        )
        gpu = self.machine.gpu(self.producer_gpu)
        gpu.register_process()
        gpu.allocate(int(self.PRODUCER_VRAM_OVERHEAD_GB * GB))
        for worker_index in range(self.loader_workers):
            self.sim.process(
                self._worker_loop(duration_s), name=f"producer-worker-{worker_index}"
            )
        self.sim.process(self._stager_loop(duration_s), name="producer-stager")

    def _worker_loop(self, duration_s: float):
        """Read + preprocess one batch per iteration (shared across consumers)."""
        storage = self.machine.storage
        cpu = self.machine.cpu
        workload = self._reference
        while self.sim.now < duration_s:
            yield from storage.read(workload.stored_bytes_per_batch)
            yield from cpu.run(workload.cpu_seconds_per_batch)
            yield self._staging.put(workload.h2d_bytes_per_batch)

    def _stager_loop(self, duration_s: float):
        """Move prepared batches to the GPU once and fan pointers out."""
        cpu = self.machine.cpu
        pcie = self.machine.pcie(self.producer_gpu)
        producer_gpu = self.machine.gpu(self.producer_gpu)
        workload = self._reference
        aux_seconds = producer_gpu.scale_work(workload.aux_gpu_seconds_per_batch)
        while self.sim.now < duration_s:
            nbytes = yield self._staging.get()
            # Host-to-device copy happens once, on the producer GPU.
            yield from pcie.transfer(nbytes)
            if self.stage_on_gpu:
                producer_gpu.allocate(nbytes)
            if aux_seconds > 0:
                # Producer-side CLIP (or similar) inference, shared by all consumers.
                yield producer_gpu.compute(aux_seconds)
            # Broadcast to consumers on other GPUs over NVLink.
            destination_gpus = sorted(
                {w.gpu_index for w in self._workloads if w.gpu_index != self.producer_gpu}
            )
            for gpu_index in destination_gpus:
                if self.machine.has_nvlink:
                    yield from self.machine.nvlink(self.producer_gpu, gpu_index).transfer(nbytes)
                else:
                    # Without NVLink the copy goes through host memory: PCIe up + down.
                    yield from pcie.transfer(nbytes)
                    yield from self.machine.pcie(gpu_index).transfer(nbytes)
                self.machine.gpu(gpu_index).allocate(nbytes)

            orchestration = self.CONTROL_CPU_SECONDS_PER_BATCH * len(self._workloads)
            if self.flexible_batching:
                orchestration += self.FLEXIBLE_CPU_SECONDS_PER_BATCH
            yield from cpu.run(orchestration)

            ticket = BatchTicket(
                nbytes=nbytes,
                refs_remaining=len(self._workloads),
                on_release=self._make_release(nbytes, destination_gpus),
            )
            self.batches_produced += 1
            for consumer in self._workloads:
                yield self.sources[consumer.name].put(ticket)

    def _make_release(self, nbytes: int, destination_gpus: List[int]) -> Callable[[], None]:
        def _release() -> None:
            if self.stage_on_gpu:
                self.machine.gpu(self.producer_gpu).free(nbytes)
            for gpu_index in destination_gpus:
                self.machine.gpu(gpu_index).free(nbytes)

        return _release
