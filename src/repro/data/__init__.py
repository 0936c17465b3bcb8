"""Data-loading substrate: datasets, samplers, transforms and the DataLoader.

TensorSocket wraps an existing PyTorch ``DataLoader`` rather than replacing it
(paper Section 3.2).  Since PyTorch is unavailable here, this subpackage
provides the loader being wrapped:

* :class:`~repro.data.dataset.Dataset` / :class:`~repro.data.dataset.IterableDataset`
  — map-style and iterable dataset protocols.
* :mod:`~repro.data.synthetic` — synthetic stand-ins for the paper's datasets
  (ImageNet-1K, LibriSpeech, Conceptual Captions, Alpaca) with realistic item
  sizes and decode costs.
* :mod:`~repro.data.samplers` — sequential, random and batch samplers.
* :mod:`~repro.data.transforms` — decode / resize / crop / flip / normalize /
  audio and text transforms, each annotated with a calibrated CPU cost so the
  hardware simulator can charge preprocessing time.
* :class:`~repro.data.dataloader.DataLoader` — multi-worker loading with
  prefetching and collation, the object a ``TensorProducer`` is constructed
  around.
"""

from repro.data.dataset import Dataset, IterableDataset, Subset, ConcatDataset
from repro.data.samplers import (
    BatchSampler,
    RandomSampler,
    Sampler,
    SequentialSampler,
    ShardSampler,
    SubsetSampler,
)
from repro.data.collate import default_collate, plan_collate
from repro.data.dataloader import DataLoader, LoaderIterator
from repro.data.synthetic import (
    SyntheticAudioDataset,
    SyntheticCaptionDataset,
    SyntheticImageDataset,
    SyntheticInstructionDataset,
    make_dataset,
)
from repro.data.transforms import (
    Compose,
    DecodeJpeg,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    Resize,
    SleepTransform,
    ToTensor,
    Transform,
)

__all__ = [
    "Dataset",
    "IterableDataset",
    "Subset",
    "ConcatDataset",
    "Sampler",
    "SequentialSampler",
    "RandomSampler",
    "BatchSampler",
    "ShardSampler",
    "SubsetSampler",
    "default_collate",
    "plan_collate",
    "DataLoader",
    "LoaderIterator",
    "SyntheticImageDataset",
    "SyntheticAudioDataset",
    "SyntheticCaptionDataset",
    "SyntheticInstructionDataset",
    "make_dataset",
    "Transform",
    "Compose",
    "DecodeJpeg",
    "Resize",
    "RandomCrop",
    "RandomHorizontalFlip",
    "SleepTransform",
    "Normalize",
    "ToTensor",
]
