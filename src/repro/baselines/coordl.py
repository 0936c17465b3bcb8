"""CoorDL: coordinated, DALI-based shared data loading (Mohan et al., VLDB'21).

CoorDL prepares each mini-batch once and distributes it to every training
process in the job group.  Relative to TensorSocket the paper highlights
(Section 2 and Figure 14):

* CoorDL targets one training process per GPU and cannot collocate several
  models on a single GPU — the experiment drivers only use it in the
  one-model-per-GPU configuration, like the paper.
* Batches are shared through *host* memory: every training process still
  performs its own host-to-device copy over its own PCIe link, and
  participates in the coordination (reference counting, staging into its
  DALI pipeline), which costs CPU per consumer per batch.  This is why
  CoorDL's CPU utilization grows with the collocation degree in Figure 14a
  while TensorSocket's stays flat.
* The job group advances in lock-step: a batch is recycled only after every
  process consumed it, and the distribution buffer is shallow, so dissimilar
  models drag each other (the paper's second criticism).  The lock-step is
  modeled by the shared ticket refcount plus a single-batch buffer.

The per-consumer coordination cost below is calibrated so that a 4-way
collocation costs ≈1.5x the single-job CPU, matching Figure 14a.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardware.machine import Machine
from repro.simulation.engine import Simulator
from repro.simulation.resources import Store
from repro.training.loading import BatchSource, BatchTicket, LoadingPipeline
from repro.training.workload import TrainingWorkload


class CoorDLLoading(LoadingPipeline):
    """Simulated CoorDL pipeline (coordinated DALI loading over host memory)."""

    #: Fraction of the base preprocessing cost spent per consumer per batch on
    #: coordination: staging the shared batch into the consumer's DALI
    #: pipeline, reference counting, and the extra memcpy in host memory.
    COORDINATION_FRACTION = 0.17
    #: DALI's optimized C++ pipeline is faster than a torchvision-style Python
    #: pipeline for the same work.
    DALI_PIPELINE_SPEEDUP = 1.35
    #: CoorDL distributes a batch and waits for all consumers before moving on;
    #: its effective distribution buffer is a single batch.
    DISTRIBUTION_BUFFER = 1

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        *,
        loader_workers: int = 4,
    ) -> None:
        super().__init__(sim, machine)
        self.loader_workers = max(1, int(loader_workers))
        self._workloads: List[TrainingWorkload] = []
        self._staging: Optional[Store] = None
        self.batches_produced = 0

    def attach(self, workload: TrainingWorkload) -> BatchSource:
        if any(w.gpu_index == workload.gpu_index for w in self._workloads):
            raise ValueError(
                "CoorDL trains one model per GPU; cannot collocate two workloads on "
                f"GPU {workload.gpu_index} (the paper's first limitation of CoorDL)"
            )
        source = BatchSource(
            self.sim, capacity=self.DISTRIBUTION_BUFFER, name=f"{workload.name}-coordl"
        )
        self.sources[workload.name] = source
        self._workloads.append(workload)
        return source

    def start(self, duration_s: float) -> None:
        if not self._workloads:
            raise RuntimeError("no workloads attached to CoorDL")
        self._reference = max(self._workloads, key=lambda w: w.batch_size)
        self._staging = Store(
            self.sim, capacity=max(2, self.loader_workers), name="coordl-staging"
        )
        self._per_consumer_queues = {
            workload.name: Store(self.sim, capacity=1, name=f"{workload.name}-coordl-stage")
            for workload in self._workloads
        }
        for worker_index in range(self.loader_workers):
            self.sim.process(self._worker_loop(duration_s), name=f"coordl-worker-{worker_index}")
        self.sim.process(self._splitter_loop(duration_s), name="coordl-splitter")
        # Each training process participates in the coordination for its own
        # copy of the batch (reference counting + staging into its DALI
        # pipeline + its own host-to-device copy); these run concurrently.
        for workload in self._workloads:
            self.sim.process(
                self._consumer_side_loop(workload, duration_s),
                name=f"coordl-consumer-{workload.name}",
            )

    # -- pipeline processes --------------------------------------------------------------
    def _worker_loop(self, duration_s: float):
        """Shared DALI pipeline: read and preprocess each batch once."""
        storage = self.machine.storage
        cpu = self.machine.cpu
        workload = self._reference
        pipeline_cost = workload.cpu_seconds_per_batch / self.DALI_PIPELINE_SPEEDUP
        while self.sim.now < duration_s:
            yield from storage.read(workload.stored_bytes_per_batch)
            yield from cpu.run(pipeline_cost)
            yield self._staging.put(workload.h2d_bytes_per_batch)

    def _splitter_loop(self, duration_s: float):
        """Announce every prepared batch to every training process."""
        while self.sim.now < duration_s:
            nbytes = yield self._staging.get()
            ticket = BatchTicket(nbytes=nbytes, refs_remaining=len(self._workloads))
            self.batches_produced += 1
            for consumer in self._workloads:
                yield self._per_consumer_queues[consumer.name].put(ticket)

    def _consumer_side_loop(self, workload: TrainingWorkload, duration_s: float):
        """Per-process coordination work plus its own host-to-device copy."""
        cpu = self.machine.cpu
        reference = self._reference
        coordination_cost = (
            reference.cpu_seconds_per_batch
            / self.DALI_PIPELINE_SPEEDUP
            * self.COORDINATION_FRACTION
        )
        queue = self._per_consumer_queues[workload.name]
        source = self.sources[workload.name]
        pcie = self.machine.pcie(workload.gpu_index)
        while self.sim.now < duration_s:
            ticket = yield queue.get()
            yield from cpu.run(coordination_cost)
            yield from pcie.transfer(ticket.nbytes)
            yield source.put(ticket)
