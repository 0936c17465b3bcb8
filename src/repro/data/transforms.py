"""Pre-processing transforms with calibrated CPU-cost annotations.

Decoding, transforming and augmenting data are the operations that make DL
input pipelines CPU-bound (paper Section 2).  Each transform here does two
things:

1. performs a real numpy computation on the item (so the real-mode library is
   genuinely functional and tests can check value semantics), and
2. reports a *nominal CPU cost* per item — seconds of single-core work the
   equivalent operation takes in the paper's pipelines — which the hardware
   simulator charges against the modeled vCPUs.  The nominal cost drives the
   simulated figures; the real numpy work is the CPU load of every real-mode
   loader, the ``loader-bound`` benchmark included, so its cost is kept down.

The numeric transforms follow one rule: one output-sized allocation per
transform (the dtype cast), everything after it in place, and no ufunc whose
contiguous inner loop is the channel axis.

The nominal costs are calibrated so that one ImageNet sample costs ≈ 4 ms of
single-core CPU end to end (fetch + JPEG decode + resize + crop + flip +
normalize), which matches the data-stall literature the paper builds on
(CoorDL reports ≈ 250–300 images/s per core for this pipeline).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.data.synthetic import SampleRecord
from repro.tensor.tensor import Tensor, from_numpy


class Transform:
    """Base class: a callable on one item plus a CPU-cost annotation."""

    #: Nominal single-core seconds this transform costs per item.
    nominal_cpu_seconds: float = 0.0

    def __call__(self, item):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Compose(Transform):
    """Chain several transforms; cost is the sum of the parts."""

    def __init__(self, transforms: Iterable[Transform]) -> None:
        self.transforms: List[Transform] = list(transforms)

    @property
    def nominal_cpu_seconds(self) -> float:  # type: ignore[override]
        return sum(t.nominal_cpu_seconds for t in self.transforms)

    def __call__(self, item):
        for transform in self.transforms:
            item = transform(item)
        return item

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.transforms)
        return f"Compose([{inner}])"


class SleepTransform(Transform):
    """Wrap a transform with a real per-item wall-clock cost.

    Benchmarks and example workloads use this to model expensive
    decode/augmentation stages: the sleep releases the GIL exactly like
    C-level decode kernels do, so loader-worker parallelism behaves
    realistically.  ``nominal_cpu_seconds`` includes the simulated cost so
    the simulator charges it too.
    """

    def __init__(self, inner: Callable, seconds_per_item: float) -> None:
        self.inner = inner
        self.seconds_per_item = float(seconds_per_item)

    @property
    def nominal_cpu_seconds(self) -> float:  # type: ignore[override]
        return self.seconds_per_item + getattr(self.inner, "nominal_cpu_seconds", 0.0)

    def __call__(self, item):
        time.sleep(self.seconds_per_item)
        return self.inner(item)

    def __repr__(self) -> str:
        return f"SleepTransform({self.inner!r}, seconds_per_item={self.seconds_per_item})"


class DecodeJpeg(Transform):
    """Decode an encoded image record into an HWC uint8 array.

    The synthetic payload is expanded into a deterministic pseudo-image keyed
    by the item index, so every consumer of the same item observes identical
    pixels — the property integration tests rely on to prove data sharing.
    """

    nominal_cpu_seconds = 2.5e-3  # JPEG decode dominates ImageNet preprocessing

    def __init__(self, height: int = 224, width: int = 224) -> None:
        self.height = int(height)
        self.width = int(width)

    def __call__(self, record: SampleRecord):
        if record.kind != "image":
            raise TypeError(f"DecodeJpeg expects an image record, got kind={record.kind!r}")
        rng = np.random.default_rng(record.index)
        image = rng.integers(0, 256, size=(self.height, self.width, 3), dtype=np.uint8)
        # Fold a few payload bytes in so decoding actually touches the payload.
        image[0, 0, 0] = record.payload[0] if record.payload.size else 0
        return {"image": image, "label": record.label, "index": record.index,
                "stored_nbytes": record.stored_nbytes}


class DecodeAudio(Transform):
    """Decode an encoded audio record into a mono float32 waveform."""

    nominal_cpu_seconds = 3.0e-3  # FLAC decode + resample

    def __init__(self, clip_samples: int = 59_049) -> None:
        self.clip_samples = int(clip_samples)

    def __call__(self, record: SampleRecord):
        if record.kind != "audio":
            raise TypeError(f"DecodeAudio expects an audio record, got kind={record.kind!r}")
        rng = np.random.default_rng(record.index)
        waveform = rng.standard_normal(self.clip_samples).astype(np.float32)
        return {"waveform": waveform, "label": record.label, "index": record.index,
                "stored_nbytes": record.stored_nbytes}


class Resize(Transform):
    """Resize the image to ``size`` x ``size`` using nearest-neighbour sampling."""

    nominal_cpu_seconds = 0.7e-3

    def __init__(self, size: int = 256) -> None:
        self.size = int(size)

    def __call__(self, item):
        image = item["image"]
        height, width = image.shape[:2]
        rows = np.linspace(0, height - 1, self.size).astype(np.intp)
        cols = np.linspace(0, width - 1, self.size).astype(np.intp)
        item = dict(item)
        item["image"] = image[rows][:, cols]
        return item


class RandomCrop(Transform):
    """Crop a ``size`` x ``size`` window at a pseudo-random position."""

    nominal_cpu_seconds = 0.2e-3

    def __init__(self, size: int = 224, seed: int = 0) -> None:
        self.size = int(size)
        self._rng = np.random.default_rng(seed)

    def __call__(self, item):
        image = item["image"]
        height, width = image.shape[:2]
        if height < self.size or width < self.size:
            raise ValueError(
                f"cannot crop {self.size}x{self.size} from image of shape {image.shape}"
            )
        top = int(self._rng.integers(0, height - self.size + 1))
        left = int(self._rng.integers(0, width - self.size + 1))
        item = dict(item)
        item["image"] = image[top : top + self.size, left : left + self.size]
        return item


class CenterCrop(Transform):
    """Crop a centred ``size`` x ``size`` window (validation-style)."""

    nominal_cpu_seconds = 0.2e-3

    def __init__(self, size: int = 224) -> None:
        self.size = int(size)

    def __call__(self, item):
        image = item["image"]
        height, width = image.shape[:2]
        top = max(0, (height - self.size) // 2)
        left = max(0, (width - self.size) // 2)
        item = dict(item)
        item["image"] = image[top : top + self.size, left : left + self.size]
        return item


class RandomHorizontalFlip(Transform):
    """Flip the image left-right with probability ``p``."""

    nominal_cpu_seconds = 0.1e-3

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        if not (0.0 <= p <= 1.0):
            raise ValueError("flip probability must be in [0, 1]")
        self.p = float(p)
        self._rng = np.random.default_rng(seed)

    def __call__(self, item):
        if self._rng.random() < self.p:
            item = dict(item)
            item["image"] = item["image"][:, ::-1]
        return item


class Normalize(Transform):
    """Scale to [0,1] float32 and standardize with per-channel mean/std."""

    nominal_cpu_seconds = 0.4e-3

    IMAGENET_MEAN = (0.485, 0.456, 0.406)
    IMAGENET_STD = (0.229, 0.224, 0.225)

    def __init__(
        self,
        mean: Sequence[float] = IMAGENET_MEAN,
        std: Sequence[float] = IMAGENET_STD,
        key: str = "image",
    ) -> None:
        self.mean = np.asarray(mean, dtype=np.float32)
        self.std = np.asarray(std, dtype=np.float32)
        if np.any(self.std == 0):
            raise ValueError("std must be non-zero")
        self.key = key
        self._tiled: dict = {}  # width -> (mean row, std row)

    def __call__(self, item):
        item = dict(item)
        source = item[self.key]
        # The one allocation: always a copy (a float32 input is the dataset's
        # own array), always C-ordered, so the row view below is a view.
        values = source.astype(np.float32, order="C")
        # uint8 is pixels whatever the frame holds (a black frame, a 0/1
        # mask); any other dtype may already be in [0, 1], so look.
        if source.dtype == np.uint8 or values.max() > 1.0:
            values /= 255.0
        if values.ndim == 3 and values.shape[-1] == len(self.mean):
            height, width, channels = values.shape
            mean_row, std_row = self._row_constants(width)
            # Per channel on (H, W*C) rows: the inner loop is a row, not 3 long.
            rows = values.reshape(height, width * channels)
            rows -= mean_row
            rows /= std_row
        else:
            values -= float(self.mean.mean())
            values /= float(self.std.mean())
        item[self.key] = values
        return item

    def _row_constants(self, width: int):
        """``mean`` and ``std`` tiled to one image row, built once per width.

        Read-only and equal whoever builds them, so loader workers that race
        to fill an entry need no lock.
        """
        constants = self._tiled.get(width)
        if constants is None:
            both = np.tile((self.mean, self.std), width)  # shape (2, W*C)
            both.flags.writeable = False
            constants = self._tiled[width] = tuple(both)
        return constants


class AudioRandomCrop(Transform):
    """Take a random fixed-length crop of the waveform (CLMR-style)."""

    nominal_cpu_seconds = 0.1e-3

    def __init__(self, crop_samples: int = 59_049, seed: int = 0) -> None:
        self.crop_samples = int(crop_samples)
        self._rng = np.random.default_rng(seed)

    def __call__(self, item):
        waveform = item["waveform"]
        if waveform.shape[0] <= self.crop_samples:
            return item
        start = int(self._rng.integers(0, waveform.shape[0] - self.crop_samples + 1))
        item = dict(item)
        item["waveform"] = waveform[start : start + self.crop_samples]
        return item


class AudioGain(Transform):
    """Random gain augmentation on the waveform."""

    nominal_cpu_seconds = 0.2e-3

    def __init__(self, min_gain: float = 0.5, max_gain: float = 1.5, seed: int = 0) -> None:
        if min_gain > max_gain:
            raise ValueError("min_gain must not exceed max_gain")
        self.min_gain = float(min_gain)
        self.max_gain = float(max_gain)
        self._rng = np.random.default_rng(seed)

    def __call__(self, item):
        gain = float(self._rng.uniform(self.min_gain, self.max_gain))
        item = dict(item)
        item["waveform"] = item["waveform"] * gain
        return item


class TokenizeCaption(Transform):
    """Pad / truncate caption tokens to a fixed length."""

    nominal_cpu_seconds = 0.05e-3

    def __init__(self, length: int = 77) -> None:
        self.length = int(length)

    def __call__(self, item):
        item = dict(item)
        tokens = np.asarray(item["caption"], dtype=np.int64)
        if tokens.shape[0] >= self.length:
            tokens = tokens[: self.length]
        else:
            tokens = np.pad(tokens, (0, self.length - tokens.shape[0]))
        item["caption"] = tokens
        return item


class PadSequence(Transform):
    """Pad token sequences to ``max_length`` and build an attention mask."""

    nominal_cpu_seconds = 0.05e-3

    def __init__(self, max_length: int = 512, pad_token: int = 0) -> None:
        self.max_length = int(max_length)
        self.pad_token = int(pad_token)

    def __call__(self, item):
        item = dict(item)
        tokens = np.asarray(item["tokens"], dtype=np.int64)[: self.max_length]
        padded = np.full(self.max_length, self.pad_token, dtype=np.int64)
        padded[: tokens.shape[0]] = tokens
        mask = np.zeros(self.max_length, dtype=np.int64)
        mask[: tokens.shape[0]] = 1
        item["tokens"] = padded
        item["attention_mask"] = mask
        return item


class ToTensor(Transform):
    """Convert the item's arrays into :class:`~repro.tensor.tensor.Tensor` objects.

    Images are converted from HWC to CHW layout (the PyTorch convention).
    """

    nominal_cpu_seconds = 0.2e-3

    def __init__(self, keys: Optional[Sequence[str]] = None) -> None:
        self.keys = tuple(keys) if keys is not None else None

    def __call__(self, item):
        item = dict(item)
        for key in self.keys if self.keys is not None else item:
            value = item[key]
            if self.keys is None and not isinstance(value, np.ndarray):
                continue
            if key == "image" and value.ndim == 3:
                # A view: Tensor() makes the one CHW copy.
                value = value.transpose(2, 0, 1)
            else:
                # Accepts a list under an explicit key and lifts 0-d to 1-d.
                value = np.ascontiguousarray(value)
            item[key] = from_numpy(value)
        return item


class Lambda(Transform):
    """Wrap an arbitrary callable, with an explicit cost annotation."""

    def __init__(self, fn: Callable, nominal_cpu_seconds: float = 0.0) -> None:
        self._fn = fn
        self.nominal_cpu_seconds = float(nominal_cpu_seconds)

    def __call__(self, item):
        return self._fn(item)


def imagenet_train_pipeline(image_size: int = 224, seed: int = 0) -> Compose:
    """The standard ImageNet training pipeline used across the experiments."""
    return Compose(
        [
            DecodeJpeg(height=image_size + 32, width=image_size + 32),
            Resize(size=image_size + 32),
            RandomCrop(size=image_size, seed=seed),
            RandomHorizontalFlip(seed=seed),
            Normalize(),
            ToTensor(),
        ]
    )


def clmr_train_pipeline(clip_samples: int = 59_049, seed: int = 0) -> Compose:
    """CLMR audio pipeline: decode, crop, gain augmentation."""
    return Compose(
        [
            DecodeAudio(clip_samples=clip_samples * 2),
            AudioRandomCrop(crop_samples=clip_samples, seed=seed),
            AudioGain(seed=seed),
            ToTensor(),
        ]
    )


def dalle_train_pipeline(image_size: int = 224, seed: int = 0) -> Compose:
    """DALL-E 2 prior pipeline: decode image + pad caption tokens."""
    return Compose(
        [
            Lambda(_caption_decode, nominal_cpu_seconds=2.0e-3),
            TokenizeCaption(),
            Normalize(key="image"),
            ToTensor(),
        ]
    )


def _caption_decode(item):
    """Decode the synthetic caption record's image payload."""
    rng = np.random.default_rng(item["index"])
    image = rng.integers(0, 256, size=(224, 224, 3), dtype=np.uint8)
    out = dict(item)
    out["image"] = image
    return out


def alpaca_pipeline(max_length: int = 512) -> Compose:
    """Alpaca fine-tuning pipeline: pad token sequences."""
    return Compose([PadSequence(max_length=max_length), ToTensor()])
