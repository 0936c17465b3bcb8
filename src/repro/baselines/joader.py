"""Joader: a shared loading server with dependent sampling (Xu et al., NeurIPS'22).

Joader registers every training job with a loading server; dependent sampling
lets jobs share loading work even across overlapping datasets, but (as the
paper details in Sections 2 and 4.7) that flexibility has costs TensorSocket
avoids:

* the intersection computations of dependent sampling run *every iteration*,
  and their cost grows with the number of registered jobs;
* samples are delivered to each job as NumPy arrays over IPC — bytes are
  copied per job, and the job must rebuild tensors and batches itself before
  the host-to-device copy;
* there is no mini-batch support, so the per-sample delivery path is serial
  per job.

The model below reproduces the per-job serial delivery path whose cost is
``DISPATCH_BASE + DISPATCH_PER_JOB × (number of jobs)`` per sample; those two
constants are fitted to the Joader curve of the paper's Figure 15
(983 → 287 samples/s per model from 1x to 8x collocation on the H100 server).
The shared read/decode pipeline itself uses the configured worker pool and is
rarely the binding constraint, matching the paper's analysis that the sampler
overhead, not raw decoding, is what limits Joader.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardware.machine import Machine
from repro.simulation.engine import Simulator
from repro.simulation.resources import Store
from repro.training.loading import BatchSource, BatchTicket, LoadingPipeline
from repro.training.workload import TrainingWorkload


class JoaderLoading(LoadingPipeline):
    """Simulated Joader pipeline (dependent sampling + NumPy-over-IPC delivery)."""

    #: Serial per-sample dispatch cost with a single registered job (seconds):
    #: RPC hand-off, NumPy materialization and Python-side batching.
    DISPATCH_BASE = 0.66e-3
    #: Additional serial per-sample cost for every registered job, from the
    #: per-iteration dependent-sampling intersection computation.
    DISPATCH_PER_JOB = 0.35e-3
    #: The hard-coded Rust pre-processing pipeline is leaner than the Python one.
    PIPELINE_SPEEDUP = 1.4
    #: Joader has no batching support; the training script assembles batches,
    #: so its receive queue is effectively one batch deep.
    DELIVERY_BUFFER = 1

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        *,
        loader_workers: int = 8,
    ) -> None:
        super().__init__(sim, machine)
        self.loader_workers = max(1, int(loader_workers))
        self._workloads: List[TrainingWorkload] = []
        self._staging: Optional[Store] = None
        self._dispatch_queues: dict = {}
        self.batches_produced = 0

    def attach(self, workload: TrainingWorkload) -> BatchSource:
        source = BatchSource(
            self.sim, capacity=self.DELIVERY_BUFFER, name=f"{workload.name}-joader"
        )
        self.sources[workload.name] = source
        self._workloads.append(workload)
        return source

    def start(self, duration_s: float) -> None:
        if not self._workloads:
            raise RuntimeError("no workloads attached to Joader")
        self._reference = max(self._workloads, key=lambda w: w.batch_size)
        self._staging = Store(
            self.sim, capacity=max(2, self.loader_workers), name="joader-staging"
        )
        self._dispatch_queues = {
            workload.name: Store(self.sim, capacity=2, name=f"{workload.name}-joader-dispatch")
            for workload in self._workloads
        }
        for worker_index in range(self.loader_workers):
            self.sim.process(self._worker_loop(duration_s), name=f"joader-worker-{worker_index}")
        # The loading is shared: a splitter hands every prepared batch of
        # samples to every registered job's dispatch queue.
        self.sim.process(self._splitter_loop(duration_s), name="joader-splitter")
        # One dispatcher per job: the per-job serial delivery path.
        for workload in self._workloads:
            self.sim.process(
                self._dispatcher_loop(workload, duration_s),
                name=f"joader-dispatch-{workload.name}",
            )

    # -- pipeline processes --------------------------------------------------------------
    def _worker_loop(self, duration_s: float):
        """The shared read + decode service (one batch of samples at a time)."""
        storage = self.machine.storage
        cpu = self.machine.cpu
        workload = self._reference
        pipeline_cost = workload.cpu_seconds_per_batch / self.PIPELINE_SPEEDUP
        while self.sim.now < duration_s:
            yield from storage.read(workload.stored_bytes_per_batch)
            yield from cpu.run(pipeline_cost)
            yield self._staging.put(workload.h2d_bytes_per_batch)

    def _splitter_loop(self, duration_s: float):
        """Fan each prepared sample batch out to every job (shared loading)."""
        while self.sim.now < duration_s:
            nbytes = yield self._staging.get()
            self.batches_produced += 1
            for workload in self._workloads:
                yield self._dispatch_queues[workload.name].put(nbytes)

    def _dispatcher_loop(self, workload: TrainingWorkload, duration_s: float):
        """Per-job serial path: sampling intersections, IPC copy, tensor build, H2D."""
        cpu = self.machine.cpu
        pcie = self.machine.pcie(workload.gpu_index)
        source = self.sources[workload.name]
        queue = self._dispatch_queues[workload.name]
        num_jobs = len(self._workloads)
        per_sample = self.DISPATCH_BASE + self.DISPATCH_PER_JOB * num_jobs
        dispatch_cost = per_sample * workload.batch_size
        while self.sim.now < duration_s:
            nbytes = yield queue.get()
            yield from cpu.run(dispatch_cost)
            yield from pcie.transfer(nbytes)
            ticket = BatchTicket(nbytes=nbytes, refs_remaining=1)
            yield source.put(ticket)
