"""Figure 14: comparison against CoorDL (normalized CPU and throughput scaling).

Setup (paper Section 4.7): 1 to 4 ResNet18 models, each on its own A100, batch
size 512, four data-loading workers, automatic mixed precision disabled (so
the GPU ceiling is lower than in Figure 8).  Because CoorDL's codebase is tied
to Python 3.6 / PyTorch 1, the paper normalizes every technique by its own
single-model (1x) value rather than comparing absolute numbers; this driver
reports the same normalized quantities.

Expected shape: both CoorDL and TensorSocket hold per-model throughput at 1.0
as collocation grows while the baseline collapses to ~0.25 at 4x; CoorDL's
normalized CPU utilization climbs toward ~1.5x while TensorSocket stays near
1.0 (and the baseline, whose fixed worker pool is already saturated, also
stays near 1.0).

Beyond the simulated comparison, the driver also *runs the real epoch cache*
(``repro.cache`` — the CoorDL-style reuse regime implemented on TensorSocket's
shared-memory path): a small multi-epoch run with an expensive transform,
reporting epoch-0 vs cached-epoch throughput and the cache's hit/miss
counters.  That turns the CoorDL row from a purely simulated claim into a
measured one on this library's own hot path.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.base import ExperimentResult
from repro.experiments.harness import make_workloads, measure_epoch_throughput, run_collocation
from repro.hardware.instances import A100_SERVER
from repro.training.collocation import SharingStrategy

PAPER_REFERENCE = {
    "baseline_throughput_4x": 0.25,
    "tensorsocket_throughput_4x": 1.0,
    "coordl_throughput_4x": 1.0,
    "baseline_cpu_4x": 1.0,
    "tensorsocket_cpu_4x": 1.05,
    "coordl_cpu_4x": 1.5,
}

MODEL = "ResNet18"
BATCH_SIZE = 512
TOTAL_WORKERS = 4
DEGREES = (1, 2, 3, 4)

STRATEGIES = {
    "baseline": SharingStrategy.NONE,
    "tensorsocket": SharingStrategy.TENSORSOCKET,
    "coordl": SharingStrategy.COORDL,
}


def run_real_epoch_cache(fast: bool = False) -> Dict[str, object]:
    """Measure the real epoch cache: epoch 0 loads, epoch 1+ republishes.

    Returns per-epoch batches/sec from an actual ``repro.serve(...,
    cache="all")`` session with a deliberately expensive transform (the
    regime where CoorDL-style caching pays), plus the cache counters.
    """
    import repro
    from repro.data import DataLoader, SyntheticImageDataset
    from repro.data.transforms import Compose, DecodeJpeg, Normalize, SleepTransform, ToTensor

    n_items = 32 if fast else 96
    batch_size = 4
    epochs = 2 if fast else 3
    seconds_per_item = 0.001 if fast else 0.002

    dataset = SyntheticImageDataset(n_items, image_size=16, payload_bytes=32)
    loader = DataLoader(
        dataset,
        batch_size=batch_size,
        transform=SleepTransform(
            Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()]),
            seconds_per_item=seconds_per_item,
        ),
    )
    session = repro.serve(
        loader,
        address="inproc://fig14-real-cache",
        epochs=epochs,
        cache="all",
        start=False,
    )
    epoch_rate, _ = measure_epoch_throughput(
        session, epochs=epochs, batches_per_epoch=n_items // batch_size
    )
    cache = session.metrics()["repro.cache"]
    session.shutdown()
    epoch0 = epoch_rate.get(0, 0.0)
    cached = min((rate for e, rate in epoch_rate.items() if e >= 1), default=0.0)
    return {
        "real_cache": "inproc",
        "epoch0_batches_per_s": round(epoch0, 1),
        "cached_epoch_batches_per_s": round(cached, 1),
        "real_cache_speedup_x": round(cached / epoch0, 2) if epoch0 else 0.0,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
    }


def run_figure14(fast: bool = False) -> ExperimentResult:
    """Reproduce Figure 14 (normalized CPU utilization and per-model throughput)."""
    result = ExperimentResult(
        experiment_id="fig14",
        title="CoorDL vs. TensorSocket vs. baseline: scaling with collocation degree",
        notes=(
            "Values are normalized to each technique's own single-model run, as in the "
            "paper.  CoorDL matches TensorSocket's throughput but needs progressively more "
            "CPU; the baseline's fixed worker pool makes its throughput collapse."
        ),
    )
    degrees = DEGREES if not fast else (1, 4)
    single_model: Dict[str, object] = {}
    for label, strategy in STRATEGIES.items():
        single_model[label] = run_collocation(
            A100_SERVER,
            make_workloads(MODEL, 1, same_gpu=False, batch_size=BATCH_SIZE),
            strategy,
            fast=fast,
            total_loader_workers=TOTAL_WORKERS,
        )

    for degree in degrees:
        row = {"collocation_degree": degree}
        for label, strategy in STRATEGIES.items():
            if degree == 1:
                run = single_model[label]
            else:
                run = run_collocation(
                    A100_SERVER,
                    make_workloads(MODEL, degree, same_gpu=False, batch_size=BATCH_SIZE),
                    strategy,
                    fast=fast,
                    total_loader_workers=TOTAL_WORKERS,
                )
            base = single_model[label]
            row[f"{label}_throughput_x"] = round(
                run.per_model_samples_per_second / max(base.per_model_samples_per_second, 1e-9), 2
            )
            row[f"{label}_cpu_x"] = round(
                run.cpu_utilization_percent / max(base.cpu_utilization_percent, 1e-9), 2
            )
        result.add_row(**row)

    # The real (non-simulated) epoch cache, measured on this library's own
    # shared-memory hot path: CoorDL's reuse regime as an executable claim.
    result.add_row(**run_real_epoch_cache(fast=fast))
    return result
