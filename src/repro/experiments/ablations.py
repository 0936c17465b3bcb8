"""Ablations of TensorSocket's design choices (DESIGN.md Section 5).

These are not figures from the paper; they probe the design decisions the
paper motivates qualitatively:

* consumer batch-buffer depth (the paper states a buffer of two is enough),
* MPS vs. multi-stream vs. exclusive GPU sharing (Section 3.2.5 / Figure 11),
* pointer-handle delivery vs. byte-copy delivery (Section 3.2.4),
* producer-batch to consumer-batch size ratio vs. data repetition
  (Section 3.2.6's "at least twice the largest consumer batch" guidance),
* the rubberband join window (Section 3.2.5).
"""

from __future__ import annotations

import numpy as np

from repro.core.flexible_batch import plan_slices
from repro.core.rubberband import JoinDecision, RubberbandPolicy
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import make_workloads, run_collocation
from repro.hardware.gpu import GpuSharingMode
from repro.hardware.instances import AWS_G5_2XLARGE
from repro.tensor.payload import TensorPayload
from repro.tensor.shared_memory import SharedMemoryPool
from repro.tensor.tensor import from_numpy
from repro.training.collocation import SharingStrategy
from repro.training.model_zoo import get_model
from repro.training.workload import TrainingWorkload


def run_ablation_buffer_size(fast: bool = False) -> ExperimentResult:
    """Consumer batch-buffer depth: 1, 2, 4 and 8 outstanding batches.

    Uses a mixed workload (two models of different complexity on one GPU),
    which is where drift tolerance matters.  The paper's claim: two batches
    already give maximum throughput for similar tasks; deeper buffers only
    add GPU memory.
    """
    result = ExperimentResult(
        experiment_id="ablation_buffer",
        title="Effect of the consumer batch-buffer depth",
    )
    models = [get_model("RegNetX 2"), get_model("RegNetX 4")]
    sizes = (1, 2, 4, 8) if not fast else (1, 2)
    for buffer_size in sizes:
        workloads = [
            TrainingWorkload(model=m, gpu_index=0, name=f"{m.name}") for m in models
        ]
        run = run_collocation(
            AWS_G5_2XLARGE,
            workloads,
            SharingStrategy.TENSORSOCKET,
            fast=fast,
            total_loader_workers=AWS_G5_2XLARGE.vcpus,
            buffer_size=buffer_size,
        )
        result.add_row(
            buffer_size=buffer_size,
            aggregate_samples_per_s=round(run.aggregate_samples_per_second, 1),
            gpu0_vram_gb=round(run.gpu_vram_gb[0], 2),
        )
    return result


def run_ablation_gpu_sharing(fast: bool = False) -> ExperimentResult:
    """MPS vs. multi-stream vs. exclusive process sharing on one GPU."""
    result = ExperimentResult(
        experiment_id="ablation_gpu_sharing",
        title="GPU sharing primitive under 4-way collocation (CLMR on g5.8xlarge-class GPU)",
    )
    modes = (GpuSharingMode.MPS, GpuSharingMode.MULTI_STREAM, GpuSharingMode.EXCLUSIVE)
    if fast:
        modes = (GpuSharingMode.MPS, GpuSharingMode.MULTI_STREAM)
    for mode in modes:
        run = run_collocation(
            AWS_G5_2XLARGE,
            make_workloads("CLMR", 4, same_gpu=True),
            SharingStrategy.TENSORSOCKET,
            fast=fast,
            total_loader_workers=AWS_G5_2XLARGE.vcpus,
            sharing_mode=mode,
        )
        result.add_row(
            sharing_mode=str(mode),
            per_model_samples_per_s=round(run.per_model_samples_per_second, 1),
            aggregate_samples_per_s=round(run.aggregate_samples_per_second, 1),
        )
    return result


def run_ablation_delivery_mode(fast: bool = False) -> ExperimentResult:
    """Pointer-handle delivery vs. byte-copy delivery (real library measurement).

    Packs an ImageNet-sized batch both ways and reports the bytes that travel
    on the wire per batch — the quantity Section 3.2.4 argues must stay small
    for sharing to pay off.
    """
    result = ExperimentResult(
        experiment_id="ablation_delivery",
        title="Wire bytes per batch: pointer handles vs. byte copies",
    )
    pool = SharedMemoryPool()
    batch_sizes = (32, 128, 512) if not fast else (32, 128)
    try:
        for batch_size in batch_sizes:
            images = np.zeros((batch_size, 3, 224, 224), dtype=np.float32)
            labels = np.zeros(batch_size, dtype=np.int64)
            # One segment per batch, as the data plane stages it.
            staged = pool.share_batch(
                {"image": from_numpy(images), "label": from_numpy(labels)}
            )
            shared_img, shared_lbl = staged["image"], staged["label"]
            pointer_bytes = (
                TensorPayload.from_shared(shared_img).payload_nbytes
                + TensorPayload.from_shared(shared_lbl).payload_nbytes
            )
            copy_bytes = (
                TensorPayload.inline(from_numpy(images)).payload_nbytes
                + TensorPayload.inline(from_numpy(labels)).payload_nbytes
            )
            result.add_row(
                batch_size=batch_size,
                pointer_wire_bytes=pointer_bytes,
                byte_copy_wire_bytes=copy_bytes,
                reduction_factor=round(copy_bytes / pointer_bytes, 1),
            )
            pool.release(shared_img.segment.name)
    finally:
        pool.shutdown()
    return result


def run_ablation_producer_batch(fast: bool = False) -> ExperimentResult:
    """Producer-batch size vs. repeated-data share under flexible batching."""
    result = ExperimentResult(
        experiment_id="ablation_producer_batch",
        title="Repetition share vs. producer-batch / consumer-batch size ratio",
        notes="The paper recommends producer batches at least 2x the largest consumer batch.",
    )
    consumer_batch = 224
    ratios = (1.0, 1.5, 2.0, 3.0, 4.0) if not fast else (1.0, 2.0, 4.0)
    for ratio in ratios:
        producer_batch = int(consumer_batch * ratio)
        plan = plan_slices(producer_batch, consumer_batch)
        result.add_row(
            ratio=ratio,
            producer_batch=producer_batch,
            consumer_batch=consumer_batch,
            repeated_rows=plan.repeated_rows,
            repeated_share=round(plan.repeated_share, 3),
            bound_holds=plan.repeated_rows <= consumer_batch - 1,
        )
    return result


def run_ablation_rubberband(fast: bool = False) -> ExperimentResult:
    """Rubberband window size vs. how long a late joiner waits for data.

    For a consumer joining after J of B batches, a window of w admits it
    immediately (it replays the J missed batches) while J < w*B — strictly
    before the window has been fully iterated, per the paper's "before 2%"
    rule — otherwise it waits for the remaining (B - J) batches of the epoch
    to finish first.
    """
    result = ExperimentResult(
        experiment_id="ablation_rubberband",
        title="Rubberband window vs. admission of late-joining consumers",
    )
    batches_per_epoch = 1000
    join_points = (5, 20, 100, 500) if not fast else (5, 100)
    for window in (0.0, 0.02, 0.10):
        policy = RubberbandPolicy(window, batches_per_epoch)
        for join_at in join_points:
            decision = policy.decide(f"probe-{window}-{join_at}", join_at)
            batches_until_data = 0 if decision is not JoinDecision.WAIT_FOR_NEXT_EPOCH else (
                batches_per_epoch - join_at
            )
            result.add_row(
                window_fraction=window,
                join_after_batches=join_at,
                decision=str(decision),
                batches_until_training_starts=batches_until_data,
            )
    return result
