"""The four workloads: what each runs and why it is in the benchmark.

Every workload is generated from ``--seed`` (dataset contents and the
shuffle seed); the program under test only ever sees the resulting
``DataLoader``.  No workload sleeps: the loaders do real numpy work or none.
Every sample carries its dataset index, which is what lets a consumer check
exactly-once delivery and detect a stale shared-memory handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    transport: str  # "inproc" or "tcp"
    consumers: int
    items: int
    batch_size: int
    image_size: int
    decoded: bool = False  # True: encoded records through a real transform chain

    @property
    def batches_per_epoch(self) -> int:
        return self.items // self.batch_size

    def serve_address(self) -> str:
        if self.transport == "tcp":
            return "tcp://127.0.0.1:0"
        return f"inproc://bench-{self.name}"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="inproc-small",
            why=(
                "768 KiB batches from memory over inproc://, 1 consumer: per-batch fixed cost "
                "(control loop, hub, wake-ups) dominates, bytes are cheap"
            ),
            transport="inproc",
            consumers=1,
            items=4096,
            batch_size=64,
            image_size=32,
        ),
        Workload(
            name="tcp-small",
            why=(
                "same batches served from a child process over tcp://, 2 consumers: the only "
                "workload where envelope encode/decode, the wire and attach-by-name do the work"
            ),
            transport="tcp",
            consumers=2,
            items=4096,
            batch_size=64,
            image_size=32,
        ),
        Workload(
            name="inproc-large",
            why=(
                "12 MiB batches from memory over inproc://, 1 consumer: per-byte cost (collate "
                "copy, share_batch memcpy) dominates, envelope and wake-up cost is noise"
            ),
            transport="inproc",
            consumers=1,
            items=1024,
            batch_size=64,
            image_size=128,
        ),
        Workload(
            name="loader-bound",
            why=(
                "decode+normalize+to-tensor per item, 2 consumers over inproc://: the paper's "
                "regime, loading dominates and every plane optimisation predicts no change"
            ),
            transport="inproc",
            consumers=2,
            items=2048,
            batch_size=32,
            image_size=64,
            decoded=True,
        ),
    )
}


class ArrayDataset(Dataset):
    """``float32[3, s, s]`` images held in memory, each with its int64 index."""

    def __init__(self, images: np.ndarray) -> None:
        self.images = images

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int):
        return {"image": self.images[index], "index": index}


def _images(items: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``items`` float32[3, size, size] images.  One random block is tiled over
    the dataset (a 200 MB dataset costs a memcpy per session, not 50M random
    draws); every image then gets its own random first and last element, which
    is what delivery verification reads."""
    block = rng.random((64, 3, size, size), dtype=np.float32)
    images = np.empty((items, 3, size, size), dtype=np.float32)
    images.reshape(items // 64, 64, 3, size, size)[:] = block
    flat = images.reshape(items, -1)
    flat[:, 0] = rng.random(items, dtype=np.float32)
    flat[:, -1] = rng.random(items, dtype=np.float32)
    return images


def build_loader(
    workload: Workload, seed: int, collate_fn: Optional[Callable] = None
) -> DataLoader:
    """The workload's loader for ``seed`` (``collate_fn`` lets the traced run
    hand in a wrapped ``default_collate``)."""
    size = workload.image_size
    if workload.decoded:
        dataset: Dataset = SyntheticImageDataset(
            workload.items, image_size=size, payload_bytes=4096, seed=seed
        )
        transform = Compose([DecodeJpeg(size, size), Normalize(), ToTensor()])
    else:
        dataset = ArrayDataset(_images(workload.items, size, np.random.default_rng(seed)))
        transform = None
    return DataLoader(
        dataset,
        batch_size=workload.batch_size,
        shuffle=True,
        seed=seed,
        num_workers=0,
        transform=transform,
        collate_fn=collate_fn,
    )


def expectations(loader: DataLoader) -> Tuple[np.ndarray, np.ndarray]:
    """What the generator says the first and last element of every sample's
    image are, by dataset index.  A delivered row that disagrees was read
    through a stale or aliased handle (or corrupted on the way)."""
    dataset = loader.dataset
    if isinstance(dataset, ArrayDataset):
        flat = dataset.images.reshape(len(dataset), -1)
        return flat[:, 0].copy(), flat[:, -1].copy()
    first = np.empty(len(dataset), dtype=np.float32)
    last = np.empty(len(dataset), dtype=np.float32)
    for index in range(len(dataset)):
        image = loader.transform(dataset[index])["image"].numpy().reshape(-1)
        first[index], last[index] = image[0], image[-1]
    return first, last
