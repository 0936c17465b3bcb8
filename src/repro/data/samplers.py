"""Samplers: the order in which a data loader visits dataset indices.

The paper's mechanisms interact with sampling in two places: the producer's
nested loader iterates the dataset in whatever order its sampler defines, and
Joader's "dependent sampling" (re-implemented in
:mod:`repro.baselines.joader`) needs per-job samplers whose intersections are
recomputed every iteration.  These samplers mirror ``torch.utils.data``.

An epoch's order is one ``int64`` array.  Every sampler here states it once,
in :meth:`Sampler.order`, and iterates over that array; a batch is a slice of
it, cut when the batch is asked for (:class:`EpochBatches`).  Starting an
epoch therefore costs a fixed number of interpreted steps whatever the size
of the dataset — the per-index work (the permutation, the slice, the
``tolist`` of one batch) runs in C.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np


class Sampler:
    """Base class: an iterable of dataset indices with a known length.

    A subclass defines :meth:`order` and inherits iteration from it.  One
    that defines ``__iter__`` instead (the ``torch.utils.data`` idiom) works
    everywhere a sampler is taken: :func:`epoch_order` gathers its iteration.
    """

    def order(self) -> np.ndarray:
        """One epoch's draw: the indices to visit, in order, as ``int64``.

        Every call is one epoch, exactly as every ``iter()`` is (a reshuffling
        sampler advances).  The array may be shared: callers do not write it.
        """
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        return iter(self.order().tolist())

    def __len__(self) -> int:
        raise NotImplementedError


def epoch_order(sampler) -> np.ndarray:
    """One epoch of any sampler as an ``int64`` array.

    A sampler that iterates its own :meth:`~Sampler.order` is asked for the
    array; one that can only be iterated (a foreign class, or a subclass with
    an ``__iter__`` of its own) is gathered by ``np.fromiter`` — one C loop,
    no list of ``int`` objects in between.
    """
    if getattr(type(sampler), "__iter__", None) is Sampler.__iter__:
        return sampler.order()
    return np.fromiter(sampler, dtype=np.int64)


class SequentialSampler(Sampler):
    """Visit indices ``0, 1, ..., n-1`` in order."""

    def __init__(self, data_source) -> None:
        self.data_source = data_source

    def order(self) -> np.ndarray:
        return np.arange(len(self.data_source), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.data_source)


class RandomSampler(Sampler):
    """Visit indices in a fresh pseudo-random permutation each epoch.

    ``reseed_each_epoch`` controls whether successive iterations produce
    different permutations (the PyTorch behaviour) or repeat the same one
    (useful for reproducible tests).  Without ``replacement`` an epoch cannot
    visit more indices than the data source holds, so ``num_samples`` beyond
    that is rejected.
    """

    def __init__(
        self,
        data_source,
        *,
        seed: int = 0,
        reseed_each_epoch: bool = True,
        replacement: bool = False,
        num_samples: Optional[int] = None,
    ) -> None:
        if num_samples is not None and not replacement and num_samples > len(data_source):
            raise ValueError(
                f"num_samples={num_samples} exceeds the {len(data_source)} indices of the "
                "data source; sampling more than it holds needs replacement=True"
            )
        self.data_source = data_source
        self.seed = int(seed)
        self.reseed_each_epoch = bool(reseed_each_epoch)
        self.replacement = bool(replacement)
        self._num_samples = num_samples
        self._epoch = 0

    @property
    def num_samples(self) -> int:
        return self._num_samples if self._num_samples is not None else len(self.data_source)

    def set_epoch(self, epoch: int) -> None:
        """Explicitly pin the permutation used by the next iteration."""
        self._epoch = int(epoch)

    def order(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + self._epoch)
        n = len(self.data_source)
        if self.replacement:
            indices = rng.integers(0, n, size=self.num_samples)
        else:
            indices = rng.permutation(n)[: self.num_samples]
        if self.reseed_each_epoch:
            self._epoch += 1
        return indices

    def __len__(self) -> int:
        return self.num_samples


class SubsetSampler(Sampler):
    """Visit a fixed list of indices in the given order."""

    def __init__(self, indices: Sequence[int]) -> None:
        self._order = np.array(indices, dtype=np.int64)
        self._order.flags.writeable = False  # order() hands this very array out

    @property
    def indices(self) -> List[int]:
        return self._order.tolist()

    def order(self) -> np.ndarray:
        return self._order

    def __len__(self) -> int:
        return len(self._order)


class ShardSampler(Sampler):
    """One of ``num_shards`` disjoint shards of a base sampler's index stream.

    Sharding happens by *position* in the base sampler's output, so it works
    over any base sampler — sequential, random, subset — and the union of all
    shards visits every index the base sampler yields exactly once:

    * ``mode="strided"``: shard ``k`` keeps positions ``k, k+N, k+2N, ...``
      (round-robin, the default — shards stay within one sample of each other
      in length, which keeps a sharded producer group balanced);
    * ``mode="contiguous"``: shard ``k`` keeps the ``k``-th block of
      ``ceil(n/N)`` consecutive positions (CoorDL-style partitioning).

    ``set_epoch`` forwards to the base sampler.  That is the property sharded
    producer groups rely on: every member holds its own equal-seeded base
    sampler, pins it to the same epoch, and therefore derives the same base
    permutation — making the shards disjoint *per epoch* while successive
    epochs still reshuffle.
    """

    MODES = ("strided", "contiguous")

    def __init__(
        self,
        sampler: Sampler,
        *,
        num_shards: int,
        shard_index: int,
        mode: str = "strided",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if not (0 <= shard_index < num_shards):
            raise ValueError(
                f"shard_index must be in [0, {num_shards}), got {shard_index}"
            )
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.sampler = sampler
        self.num_shards = int(num_shards)
        self.shard_index = int(shard_index)
        self.mode = mode

    def set_epoch(self, epoch: int) -> None:
        """Pin the base sampler's permutation (no-op for unseeded samplers)."""
        set_epoch = getattr(self.sampler, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(int(epoch))

    def _positions(self, n: int) -> slice:
        """The positions this shard keeps of a base order of length ``n``."""
        if self.mode == "strided":
            return slice(self.shard_index, None, self.num_shards)
        per_shard = (n + self.num_shards - 1) // self.num_shards
        start = self.shard_index * per_shard
        return slice(start, min(start + per_shard, n))

    def order(self) -> np.ndarray:
        return epoch_order(self.sampler)[self._positions(len(self.sampler))]

    def __len__(self) -> int:
        n = len(self.sampler)
        return len(range(n)[self._positions(n)])


class EpochBatches(Sequence[List[int]]):
    """One epoch's batches: an order array, cut every ``batch_size`` indices.

    A read-only sequence of index lists.  Batch ``k`` is cut out of the array
    when it is asked for; nothing is built per index, or per batch, before
    that.
    """

    def __init__(self, order: np.ndarray, batch_size: int, drop_last: bool) -> None:
        self.order = order
        self.batch_size = batch_size
        stop = len(order) - len(order) % batch_size if drop_last else len(order)
        self._starts = range(0, stop, batch_size)

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, k: int) -> List[int]:
        start = self._starts[k]  # IndexError past either end, like a list's
        return self.order[start : start + self.batch_size].tolist()


class BatchSampler(Sampler):
    """Group another sampler's indices into lists of ``batch_size``."""

    def __init__(self, sampler: Sampler, batch_size: int, drop_last: bool = False) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.sampler = sampler
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)

    def epoch(self) -> EpochBatches:
        """One epoch's draw of the underlying sampler, as its batches."""
        return EpochBatches(epoch_order(self.sampler), self.batch_size, self.drop_last)

    def __iter__(self) -> Iterator[List[int]]:
        return iter(self.epoch())

    def __len__(self) -> int:
        n = len(self.sampler)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size


def epoch_batches(batch_sampler) -> Sequence[List[int]]:
    """One epoch of any batch sampler as a sequence of index lists.

    A :class:`BatchSampler` is asked for its :class:`EpochBatches`, which
    cuts each batch on demand; one that can only be iterated (a foreign
    class, or a subclass with an ``__iter__`` of its own) is listed.
    """
    if getattr(type(batch_sampler), "__iter__", None) is BatchSampler.__iter__:
        return batch_sampler.epoch()
    return list(batch_sampler)
