"""Unit tests for :mod:`repro.data.samplers`.

The samplers were previously only exercised incidentally through the loader
tests; sharding makes their exact semantics (drop_last edges, seeding,
set_epoch, disjoint shard arithmetic) load-bearing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.data.samplers import (
    BatchSampler,
    EpochBatches,
    RandomSampler,
    Sampler,
    SequentialSampler,
    ShardSampler,
    SubsetSampler,
    epoch_batches,
    epoch_order,
)


class FakeSource:
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


# ---------------------------------------------------------------------------
# BatchSampler drop_last edges
# ---------------------------------------------------------------------------


class TestBatchSampler:
    def test_even_split(self):
        batches = list(BatchSampler(SequentialSampler(FakeSource(8)), 4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_trailing_partial_kept_by_default(self):
        batches = list(BatchSampler(SequentialSampler(FakeSource(10)), 4))
        assert batches[-1] == [8, 9]
        assert len(batches) == 3

    def test_trailing_partial_dropped_with_drop_last(self):
        sampler = BatchSampler(SequentialSampler(FakeSource(10)), 4, drop_last=True)
        batches = list(sampler)
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert len(sampler) == 2

    def test_len_matches_iteration(self):
        for n in (0, 1, 3, 4, 5, 8, 9):
            for drop_last in (False, True):
                sampler = BatchSampler(
                    SequentialSampler(FakeSource(n)), 4, drop_last=drop_last
                )
                assert len(sampler) == len(list(sampler)), (n, drop_last)

    def test_batch_smaller_than_batch_size(self):
        batches = list(BatchSampler(SequentialSampler(FakeSource(3)), 8))
        assert batches == [[0, 1, 2]]
        assert list(BatchSampler(SequentialSampler(FakeSource(3)), 8, drop_last=True)) == []

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError):
            BatchSampler(SequentialSampler(FakeSource(4)), 0)


# ---------------------------------------------------------------------------
# SubsetSampler
# ---------------------------------------------------------------------------


class TestSubsetSampler:
    def test_preserves_order_and_duplicates(self):
        sampler = SubsetSampler([5, 1, 5, 3])
        assert list(sampler) == [5, 1, 5, 3]
        assert len(sampler) == 4

    def test_coerces_to_int(self):
        sampler = SubsetSampler(np.array([2, 0], dtype=np.int64))
        indices = list(sampler)
        assert indices == [2, 0]
        assert all(type(i) is int for i in sampler.indices)

    def test_empty(self):
        sampler = SubsetSampler([])
        assert list(sampler) == []
        assert len(sampler) == 0


# ---------------------------------------------------------------------------
# RandomSampler seeding
# ---------------------------------------------------------------------------


class TestRandomSamplerSeeding:
    def test_same_seed_same_first_epoch(self):
        a = RandomSampler(FakeSource(50), seed=9)
        b = RandomSampler(FakeSource(50), seed=9)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = RandomSampler(FakeSource(50), seed=1)
        b = RandomSampler(FakeSource(50), seed=2)
        assert list(a) != list(b)

    def test_reseed_each_epoch_advances(self):
        sampler = RandomSampler(FakeSource(50), seed=4)
        assert list(sampler) != list(sampler)

    def test_no_reseed_repeats(self):
        sampler = RandomSampler(FakeSource(50), seed=4, reseed_each_epoch=False)
        assert list(sampler) == list(sampler)

    def test_set_epoch_pins_permutation(self):
        a = RandomSampler(FakeSource(50), seed=4)
        b = RandomSampler(FakeSource(50), seed=4)
        list(a)  # advance a past epoch 0
        a.set_epoch(0)
        b.set_epoch(0)
        assert list(a) == list(b)

    def test_epoch_is_permutation(self):
        sampler = RandomSampler(FakeSource(31), seed=0)
        assert sorted(sampler) == list(range(31))

    def test_replacement_and_num_samples(self):
        sampler = RandomSampler(
            FakeSource(10), seed=0, replacement=True, num_samples=25
        )
        indices = list(sampler)
        assert len(indices) == len(sampler) == 25
        assert all(0 <= i < 10 for i in indices)

    def test_more_samples_than_indices_needs_replacement(self):
        # It used to report len() == 25 and yield 10: a BatchSampler over it
        # then promised 7 batches and produced 3, so a served loader never
        # stamped is_last_in_epoch.
        with pytest.raises(ValueError, match="replacement"):
            RandomSampler(FakeSource(10), num_samples=25)
        exact = RandomSampler(FakeSource(10), num_samples=10)
        fewer = RandomSampler(FakeSource(10), num_samples=7)
        for sampler in (exact, fewer):
            batches = BatchSampler(sampler, 4)
            assert len(list(sampler)) == len(sampler)
            assert len(list(batches)) == len(batches)

    def test_the_order_is_pinned(self):
        # default_rng(seed + epoch).permutation(n): shard disjointness and the
        # compositions an epoch cache recorded depend on these exact draws.
        sampler = RandomSampler(range(4096), seed=3)
        assert list(sampler)[:8] == [3685, 3193, 1840, 2182, 3291, 2433, 443, 530]
        assert list(sampler)[:8] == [3367, 4003, 2237, 2961, 2770, 2494, 1867, 3877]
        sampler.set_epoch(0)
        assert sampler.order()[:8].tolist() == [3685, 3193, 1840, 2182, 3291, 2433, 443, 530]


# ---------------------------------------------------------------------------
# ShardSampler
# ---------------------------------------------------------------------------


class TestShardSampler:
    def _shards(self, base_factory, num_shards, mode, epoch=None):
        shards = [
            ShardSampler(
                base_factory(), num_shards=num_shards, shard_index=k, mode=mode
            )
            for k in range(num_shards)
        ]
        if epoch is not None:
            for shard in shards:
                shard.set_epoch(epoch)
        return shards

    @pytest.mark.parametrize("mode", ["strided", "contiguous"])
    @pytest.mark.parametrize("n,num_shards", [(24, 3), (23, 3), (5, 4), (3, 4), (10, 1)])
    def test_disjoint_exact_cover(self, mode, n, num_shards):
        shards = self._shards(
            lambda: SequentialSampler(FakeSource(n)), num_shards, mode
        )
        per_shard = [list(s) for s in shards]
        flat = [i for shard in per_shard for i in shard]
        assert sorted(flat) == list(range(n))
        for shard, indices in zip(shards, per_shard):
            assert len(shard) == len(indices)

    def test_strided_round_robin_positions(self):
        shards = self._shards(lambda: SequentialSampler(FakeSource(7)), 3, "strided")
        assert [list(s) for s in shards] == [[0, 3, 6], [1, 4], [2, 5]]

    def test_contiguous_blocks(self):
        shards = self._shards(lambda: SequentialSampler(FakeSource(7)), 3, "contiguous")
        assert [list(s) for s in shards] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_shards_over_random_base_cover_with_same_epoch(self):
        shards = self._shards(
            lambda: RandomSampler(FakeSource(29), seed=3), 4, "strided", epoch=2
        )
        flat = [i for s in shards for i in s]
        assert sorted(flat) == list(range(29))

    def test_set_epoch_forwards_to_base(self):
        base = RandomSampler(FakeSource(20), seed=1)
        shard = ShardSampler(base, num_shards=2, shard_index=0)
        shard.set_epoch(5)
        assert base._epoch == 5

    def test_set_epoch_ignored_for_unseeded_base(self):
        shard = ShardSampler(
            SequentialSampler(FakeSource(4)), num_shards=2, shard_index=0
        )
        shard.set_epoch(3)  # must not raise
        assert list(shard) == [0, 2]

    def test_same_epoch_same_partition_across_instances(self):
        first = self._shards(
            lambda: RandomSampler(FakeSource(40), seed=7), 2, "strided", epoch=1
        )
        second = self._shards(
            lambda: RandomSampler(FakeSource(40), seed=7), 2, "strided", epoch=1
        )
        assert [list(s) for s in first] == [list(s) for s in second]

    def test_different_epochs_reshuffle(self):
        shard_a = ShardSampler(
            RandomSampler(FakeSource(40), seed=7), num_shards=2, shard_index=0
        )
        shard_a.set_epoch(0)
        epoch0 = list(shard_a)
        shard_a.set_epoch(1)
        assert list(shard_a) != epoch0

    def test_validation(self):
        base = SequentialSampler(FakeSource(4))
        with pytest.raises(ValueError):
            ShardSampler(base, num_shards=0, shard_index=0)
        with pytest.raises(ValueError):
            ShardSampler(base, num_shards=2, shard_index=2)
        with pytest.raises(ValueError):
            ShardSampler(base, num_shards=2, shard_index=-1)
        with pytest.raises(ValueError):
            ShardSampler(base, num_shards=2, shard_index=0, mode="zigzag")

    def test_empty_trailing_contiguous_shard(self):
        # 4 samples over 3 shards: ceil(4/3)=2 per block -> [0,1], [2,3], [].
        shards = self._shards(lambda: SequentialSampler(FakeSource(4)), 3, "contiguous")
        assert [list(s) for s in shards] == [[0, 1], [2, 3], []]
        assert [len(s) for s in shards] == [2, 2, 0]


# ---------------------------------------------------------------------------
# An epoch's order is one array: what the samplers yielded when each index
# was a generator step, kept here as the reference
# ---------------------------------------------------------------------------


class _ReferenceSequential:
    def __init__(self, data_source):
        self.data_source = data_source

    def __iter__(self):
        return iter(range(len(self.data_source)))

    def __len__(self):
        return len(self.data_source)


class _ReferenceRandom:
    def __init__(
        self, data_source, *, seed=0, reseed_each_epoch=True, replacement=False, num_samples=None
    ):
        self.data_source = data_source
        self.seed = int(seed)
        self.reseed_each_epoch = bool(reseed_each_epoch)
        self.replacement = bool(replacement)
        self._num_samples = num_samples
        self._epoch = 0

    @property
    def num_samples(self):
        return self._num_samples if self._num_samples is not None else len(self.data_source)

    def set_epoch(self, epoch):
        self._epoch = int(epoch)

    def __iter__(self):
        rng = np.random.default_rng(self.seed + self._epoch)
        n = len(self.data_source)
        if self.replacement:
            indices = rng.integers(0, n, size=self.num_samples)
        else:
            indices = rng.permutation(n)[: self.num_samples]
        if self.reseed_each_epoch:
            self._epoch += 1
        return iter(int(i) for i in indices)

    def __len__(self):
        return self.num_samples


class _ReferenceSubset:
    def __init__(self, indices):
        self.indices = [int(i) for i in indices]

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


class _ReferenceShard:
    def __init__(self, sampler, *, num_shards, shard_index, mode="strided"):
        self.sampler = sampler
        self.num_shards = int(num_shards)
        self.shard_index = int(shard_index)
        self.mode = mode

    def set_epoch(self, epoch):
        set_epoch = getattr(self.sampler, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(int(epoch))

    def _block_bounds(self, n):
        per_shard = (n + self.num_shards - 1) // self.num_shards
        start = self.shard_index * per_shard
        return start, min(start + per_shard, n)

    def __iter__(self):
        if self.mode == "strided":
            for position, index in enumerate(self.sampler):
                if position % self.num_shards == self.shard_index:
                    yield index
        else:
            start, stop = self._block_bounds(len(self.sampler))
            for position, index in enumerate(self.sampler):
                if position >= stop:
                    break
                if position >= start:
                    yield index

    def __len__(self):
        n = len(self.sampler)
        if self.mode == "strided":
            return max(0, (n - self.shard_index + self.num_shards - 1) // self.num_shards)
        start, stop = self._block_bounds(n)
        return max(0, stop - start)


class _ReferenceBatch:
    def __init__(self, sampler, batch_size, drop_last=False):
        self.sampler = sampler
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)

    def __iter__(self):
        batch = []
        for index in self.sampler:
            batch.append(index)
            if len(batch) == self.batch_size:
                yield batch
                batch = []
        if batch and not self.drop_last:
            yield batch

    def __len__(self):
        n = len(self.sampler)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size


@st.composite
def _base_specs(draw):
    kind = draw(st.sampled_from(["sequential", "random", "subset"]))
    if kind == "sequential":
        return (kind, draw(st.integers(0, 150)))
    if kind == "subset":
        return (kind, draw(st.lists(st.integers(0, 10_000), max_size=150)))
    replacement = draw(st.booleans())
    n = draw(st.integers(1 if replacement else 0, 150))
    num_samples = draw(st.none() | st.integers(0, 300 if replacement else n))
    return (
        kind,
        n,
        {
            "seed": draw(st.integers(0, 1000)),
            "reseed_each_epoch": draw(st.booleans()),
            "replacement": replacement,
            "num_samples": num_samples,
        },
    )


@st.composite
def _shard_specs(draw):
    num_shards = draw(st.integers(1, 6))
    return {
        "num_shards": num_shards,
        "shard_index": draw(st.integers(0, num_shards - 1)),
        "mode": draw(st.sampled_from(ShardSampler.MODES)),
    }


def _build(base, shards, classes):
    sequential, random, subset, shard = classes
    kind = base[0]
    if kind == "sequential":
        sampler = sequential(FakeSource(base[1]))
    elif kind == "subset":
        sampler = subset(base[1])
    else:
        sampler = random(FakeSource(base[1]), **base[2])
    for spec in shards:  # the second one is a shard of a shard
        sampler = shard(sampler, **spec)
    return sampler


_NEW = (SequentialSampler, RandomSampler, SubsetSampler, ShardSampler)
_REFERENCE = (_ReferenceSequential, _ReferenceRandom, _ReferenceSubset, _ReferenceShard)
#: One step of a sampler's life: an epoch is iterated, or pinned first.
_steps = st.lists(st.none() | st.integers(0, 50), min_size=1, max_size=4)


def _epochs(sampler, steps):
    """``(len, the epoch's list)`` per step; a number pins the epoch first."""
    out = []
    for pin in steps:
        if pin is not None and hasattr(sampler, "set_epoch"):
            sampler.set_epoch(pin)
        out.append((len(sampler), list(sampler)))
    return out


class TestSameOrdersAsTheGeneratorSamplers:
    @given(base=_base_specs(), shards=st.lists(_shard_specs(), max_size=2), steps=_steps)
    @settings(max_examples=300, deadline=None)
    def test_every_sampler_yields_the_same_indices_and_len(self, base, shards, steps):
        got = _epochs(_build(base, shards, _NEW), steps)
        assert got == _epochs(_build(base, shards, _REFERENCE), steps)
        assert all(type(index) is int for _n, epoch in got for index in epoch)

    @given(
        base=_base_specs(),
        shards=st.lists(_shard_specs(), max_size=2),
        batch_size=st.integers(1, 40),
        drop_last=st.booleans(),
        steps=_steps,
    )
    @settings(max_examples=300, deadline=None)
    def test_batches_are_cut_where_they_were_grouped(
        self, base, shards, batch_size, drop_last, steps
    ):
        new = BatchSampler(_build(base, shards, _NEW), batch_size, drop_last)
        reference = _ReferenceBatch(_build(base, shards, _REFERENCE), batch_size, drop_last)
        for pin in steps:
            if pin is not None:
                for sampler in (new.sampler, reference.sampler):
                    if hasattr(sampler, "set_epoch"):
                        sampler.set_epoch(pin)
            want = list(reference)
            assert len(new) == len(reference) == len(want)
            epoch = new.epoch()
            assert len(epoch) == len(want)
            # Cut on demand, in any order, and by plain iteration.
            assert [epoch[k] for k in reversed(range(len(epoch)))] == want[::-1]
            assert list(epoch) == want
            assert all(type(i) is int for batch in epoch for i in batch)


class TestEpochBatches:
    def test_a_batch_is_cut_when_it_is_asked_for(self):
        order = np.arange(10, dtype=np.int64)
        batches = EpochBatches(order, 4, drop_last=False)
        assert len(batches) == 3
        assert batches[0] == [0, 1, 2, 3] and batches[2] == batches[-1] == [8, 9]
        order[0] = 7  # (not something a caller may do: it shows nothing was copied ahead)
        assert batches[0] == [7, 1, 2, 3]
        with pytest.raises(IndexError):
            batches[3]
        with pytest.raises(IndexError):
            batches[-4]
        assert len(EpochBatches(order, 4, drop_last=True)) == 2
        assert list(EpochBatches(order[:0], 4, drop_last=False)) == []

    def test_a_subset_sampler_does_not_hand_out_a_writable_order(self):
        source = np.array([3, 1, 2])
        sampler = SubsetSampler(source)
        with pytest.raises(ValueError):
            sampler.order()[0] = 9
        source[0] = 9  # the caller's array is its own
        assert list(sampler) == sampler.indices == [3, 1, 2]


class _CountingDown:
    """A sampler from elsewhere: it can be iterated and measured, no more."""

    def __init__(self, n):
        self.n = n

    def __iter__(self):
        return iter(range(self.n - 1, -1, -1))

    def __len__(self):
        return self.n


class _TorchStyle(Sampler):
    """A subclass in the ``torch.utils.data`` idiom: ``__iter__`` only."""

    def __iter__(self):
        yield from (np.int32(4), 2, 0)

    def __len__(self):
        return 3


class _Pairs:
    """A batch sampler from elsewhere: an iterable of index lists."""

    def __iter__(self):
        return iter([[0, 1], [4, 5], [2]])

    def __len__(self):
        return 3


class _IndexDataset(Dataset):
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return {"index": index}


class TestSamplersThatCanOnlyBeIterated:
    def test_their_iteration_is_gathered_into_the_order_array(self):
        order = epoch_order(_CountingDown(5))
        assert order.dtype == np.int64 and order.tolist() == [4, 3, 2, 1, 0]
        assert epoch_order(_TorchStyle()).tolist() == [4, 2, 0]
        assert list(BatchSampler(_TorchStyle(), 2)) == [[4, 2], [0]]
        shard = ShardSampler(_CountingDown(5), num_shards=2, shard_index=1)
        assert list(shard) == [3, 1] and len(shard) == 2

    def test_an_overridden_iter_wins_over_the_inherited_order(self):
        class Reversed(SequentialSampler):
            def __iter__(self):
                return iter(range(len(self.data_source) - 1, -1, -1))

        assert epoch_order(Reversed(FakeSource(3))).tolist() == [2, 1, 0]

        class Doubled(BatchSampler):
            def __iter__(self):
                return iter([[0, 0], [1, 1]])

        assert epoch_batches(Doubled(SequentialSampler(FakeSource(2)), 1)) == [[0, 0], [1, 1]]

    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_a_loader_takes_them(self, num_workers):
        loader = DataLoader(
            _IndexDataset(5), batch_size=2, sampler=_CountingDown(5), num_workers=num_workers
        )
        assert len(loader) == 3
        assert [batch["index"].tolist() for batch in loader] == [[4, 3], [2, 1], [0]]

        loader = DataLoader(_IndexDataset(6), batch_sampler=_Pairs(), num_workers=num_workers)
        assert len(loader) == 3
        iterator = loader.prefetch_iter(collate=False)
        assert iterator.sampled_batches == [[0, 1], [4, 5], [2]]
        assert [[item["index"] for item in items] for items in iterator] == [[0, 1], [4, 5], [2]]
