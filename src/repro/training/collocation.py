"""The collocation runner: place workloads on a machine, pick a sharing
strategy, simulate, and report the metrics the paper's figures plot.

Every experiment driver in :mod:`repro.experiments` is a thin wrapper around
this runner: it builds the machine from the Table 2 spec, constructs the
workloads for that figure, runs once per sharing strategy, and formats rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.coordl import CoorDLLoading
from repro.baselines.joader import JoaderLoading
from repro.hardware.gpu import GpuSharingMode
from repro.hardware.instances import MachineSpec
from repro.hardware.machine import Machine
from repro.simulation.engine import Simulator
from repro.training.loading import ConventionalLoading, TensorSocketLoading
from repro.training.trainer import TrainerStats, trainer_process
from repro.training.workload import TrainingWorkload


class SharingStrategy(str, enum.Enum):
    """How collocated training processes obtain their data."""

    NONE = "none"                  # conventional per-process loaders
    TENSORSOCKET = "tensorsocket"  # the paper's shared producer
    COORDL = "coordl"              # CoorDL baseline
    JOADER = "joader"              # Joader baseline

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class WorkloadResult:
    """Per-training-process outcome of one run."""

    name: str
    model: str
    gpu_index: int
    batch_size: int
    samples: int
    batches: int
    samples_per_second: float
    tokens_per_second: float = 0.0
    throughput_series: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class CollocationResult:
    """Everything the experiments read off one simulated run."""

    machine: str
    strategy: SharingStrategy
    sharing_mode: GpuSharingMode
    duration_s: float
    workloads: List[WorkloadResult]
    cpu_utilization_percent: float
    gpu_utilization_percent: Dict[int, float]
    gpu_vram_gb: Dict[int, float]
    gpu_vram_peak_gb: Dict[int, float]
    traffic_mb_s: Dict[str, float]
    loader_workers: Dict[str, int]
    cost_per_hour: Optional[float] = None

    # -- aggregates ----------------------------------------------------------------
    @property
    def aggregate_samples_per_second(self) -> float:
        return sum(w.samples_per_second for w in self.workloads)

    @property
    def per_model_samples_per_second(self) -> float:
        if not self.workloads:
            return 0.0
        return self.aggregate_samples_per_second / len(self.workloads)

    def samples_per_dollar(self) -> Optional[float]:
        """Training samples bought per dollar of instance time (cloud runs)."""
        if self.cost_per_hour is None or self.cost_per_hour <= 0:
            return None
        return self.aggregate_samples_per_second * 3600.0 / self.cost_per_hour

    def result_for(self, name: str) -> WorkloadResult:
        for workload in self.workloads:
            if workload.name == name:
                return workload
        raise KeyError(f"no workload named {name!r} in this result")

    def summary_row(self) -> Dict[str, float]:
        row: Dict[str, float] = {
            "machine": self.machine,
            "strategy": str(self.strategy),
            "aggregate_samples_per_s": round(self.aggregate_samples_per_second, 1),
            "per_model_samples_per_s": round(self.per_model_samples_per_second, 1),
            "cpu_percent": round(self.cpu_utilization_percent, 1),
        }
        for index, value in sorted(self.gpu_utilization_percent.items()):
            row[f"gpu{index}_percent"] = round(value, 1)
        return row


class CollocationRunner:
    """Build, run and measure one collocated-training scenario."""

    def __init__(
        self,
        spec: MachineSpec,
        *,
        strategy: SharingStrategy = SharingStrategy.NONE,
        sharing_mode: GpuSharingMode = GpuSharingMode.MPS,
        duration_s: float = 120.0,
        warmup_s: float = 20.0,
        total_loader_workers: Optional[int] = None,
        producer_gpu: int = 0,
        buffer_size: int = 2,
        flexible_batching: bool = False,
        dataset_bytes: Optional[float] = None,
    ) -> None:
        if duration_s <= warmup_s:
            raise ValueError("duration_s must exceed warmup_s")
        self.spec = spec
        self.strategy = SharingStrategy(strategy)
        self.sharing_mode = sharing_mode
        self.duration_s = float(duration_s)
        self.warmup_s = float(warmup_s)
        self.total_loader_workers = total_loader_workers
        self.producer_gpu = int(producer_gpu)
        self.buffer_size = int(buffer_size)
        self.flexible_batching = bool(flexible_batching)
        self.dataset_bytes = dataset_bytes

    # -- worker allocation --------------------------------------------------------------
    def _allocate_workers(self, workloads: Sequence[TrainingWorkload]) -> Dict[str, int]:
        """How many loader workers each training process gets (non-shared), or
        how many the shared producer gets (shared strategies)."""
        total = self.total_loader_workers
        if total is None:
            total = self.spec.vcpus
        if self.strategy is SharingStrategy.NONE:
            # Split the worker budget across the collocated processes, matching
            # the paper's setup (uneven splits round-robin the remainder).
            n = len(workloads)
            base, extra = divmod(total, n)
            allocation = {}
            for index, workload in enumerate(workloads):
                allocation[workload.name] = max(1, base + (1 if index < extra else 0))
            return allocation
        return {"__shared__": max(1, total)}

    # -- pipeline construction -------------------------------------------------------------
    def _build_pipeline(self, sim, machine, allocation: Dict[str, int]):
        if self.strategy is SharingStrategy.NONE:
            return ConventionalLoading(sim, machine)
        workers = allocation["__shared__"]
        if self.strategy is SharingStrategy.TENSORSOCKET:
            return TensorSocketLoading(
                sim,
                machine,
                producer_gpu=self.producer_gpu,
                loader_workers=workers,
                buffer_size=self.buffer_size,
                flexible_batching=self.flexible_batching,
            )
        if self.strategy is SharingStrategy.COORDL:
            return CoorDLLoading(sim, machine, loader_workers=workers)
        if self.strategy is SharingStrategy.JOADER:
            return JoaderLoading(sim, machine, loader_workers=workers)
        raise ValueError(f"unsupported strategy {self.strategy}")

    # -- main entry point ---------------------------------------------------------------------
    def run(self, workloads: Sequence[TrainingWorkload]) -> CollocationResult:
        workloads = list(workloads)
        if not workloads:
            raise ValueError("at least one workload is required")
        for workload in workloads:
            if workload.gpu_index >= self.spec.gpu_count:
                raise ValueError(
                    f"workload {workload.name!r} wants GPU {workload.gpu_index} but "
                    f"{self.spec.name} has only {self.spec.gpu_count}"
                )

        sim = Simulator()
        machine = Machine(sim, self.spec, sharing_mode=self.sharing_mode)
        if self.dataset_bytes is not None:
            independent_readers = (
                len(workloads) if self.strategy is SharingStrategy.NONE else 1
            )
            machine.set_dataset_working_set(self.dataset_bytes * independent_readers)

        allocation = self._allocate_workers(workloads)
        if self.strategy is SharingStrategy.NONE:
            for workload in workloads:
                workload.loader_workers = allocation[workload.name]

        pipeline = self._build_pipeline(sim, machine, allocation)
        all_stats: List[Tuple[TrainingWorkload, TrainerStats]] = []
        for workload in workloads:
            source = pipeline.attach(workload)
            stats = TrainerStats(
                name=workload.name,
                batch_size=workload.batch_size,
                warmup_s=self.warmup_s,
            )
            all_stats.append((workload, stats))
            sim.process(
                trainer_process(
                    sim,
                    machine,
                    workload,
                    source,
                    stats,
                    duration_s=self.duration_s,
                    aux_offloaded=self.strategy is SharingStrategy.TENSORSOCKET,
                ),
                name=f"trainer-{workload.name}",
            )
        pipeline.start(self.duration_s)

        def _end_warmup():
            yield sim.timeout(self.warmup_s)
            machine.reset_utilization()

        sim.process(_end_warmup(), name="warmup-marker")
        sim.run(until=self.duration_s)

        return self._collect(machine, workloads, all_stats, allocation)

    # -- result assembly --------------------------------------------------------------------
    def _collect(
        self,
        machine: Machine,
        workloads: Sequence[TrainingWorkload],
        all_stats: Sequence[Tuple[TrainingWorkload, TrainerStats]],
        allocation: Dict[str, int],
    ) -> CollocationResult:
        workload_results = []
        for workload, stats in all_stats:
            rate = stats.samples_per_second()
            workload_results.append(
                WorkloadResult(
                    name=workload.name,
                    model=workload.model.name,
                    gpu_index=workload.gpu_index,
                    batch_size=workload.batch_size,
                    samples=stats.samples,
                    batches=stats.batches,
                    samples_per_second=rate,
                    tokens_per_second=rate * workload.model.tokens_per_sample,
                    throughput_series=stats.throughput_series(),
                )
            )
        gpu_util = {
            index: gpu.utilization_percent(since=self.warmup_s)
            for index, gpu in enumerate(machine.gpus)
        }
        gpu_vram = {index: gpu.vram_in_use_gb for index, gpu in enumerate(machine.gpus)}
        gpu_vram_peak = {index: gpu.vram_peak_gb for index, gpu in enumerate(machine.gpus)}
        return CollocationResult(
            machine=self.spec.name,
            strategy=self.strategy,
            sharing_mode=self.sharing_mode,
            duration_s=self.duration_s,
            workloads=workload_results,
            cpu_utilization_percent=machine.cpu.utilization_percent(since=self.warmup_s),
            gpu_utilization_percent=gpu_util,
            gpu_vram_gb=gpu_vram,
            gpu_vram_peak_gb=gpu_vram_peak,
            traffic_mb_s=machine.traffic_report(),
            loader_workers=dict(allocation),
            cost_per_hour=self.spec.cost_per_hour,
        )
