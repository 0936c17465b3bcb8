"""Unit tests for datasets, samplers, transforms, collation and the DataLoader."""

import time
import tracemalloc

import numpy as np
import pytest

from repro.data import (
    BatchSampler,
    ConcatDataset,
    DataLoader,
    RandomSampler,
    SequentialSampler,
    Subset,
    SyntheticAudioDataset,
    SyntheticCaptionDataset,
    SyntheticImageDataset,
    SyntheticInstructionDataset,
    default_collate,
    make_dataset,
)
from repro.data.dataset import train_val_split
from repro.data.samplers import SubsetSampler
from repro.data.synthetic import SampleRecord
from repro.data.transforms import (
    AudioGain,
    AudioRandomCrop,
    CenterCrop,
    Compose,
    DecodeAudio,
    DecodeJpeg,
    Lambda,
    Normalize,
    PadSequence,
    RandomCrop,
    RandomHorizontalFlip,
    Resize,
    ToTensor,
    TokenizeCaption,
    alpaca_pipeline,
    clmr_train_pipeline,
    imagenet_train_pipeline,
)
from repro.tensor import Tensor


class TestSyntheticDatasets:
    def test_image_dataset_items_are_deterministic(self):
        dataset = SyntheticImageDataset(16, payload_bytes=32)
        first = dataset[3]
        second = dataset[3]
        assert isinstance(first, SampleRecord)
        np.testing.assert_array_equal(first.payload, second.payload)
        assert first.label == second.label

    def test_image_dataset_reports_realistic_stored_size(self):
        dataset = SyntheticImageDataset(4, payload_bytes=64)
        assert dataset[0].stored_nbytes == SyntheticImageDataset.DEFAULT_ENCODED_BYTES

    def test_image_dataset_bounds(self):
        dataset = SyntheticImageDataset(4, payload_bytes=16)
        assert dataset[-1].index == 3
        with pytest.raises(IndexError):
            dataset[4]
        with pytest.raises(ValueError):
            SyntheticImageDataset(0)

    def test_audio_dataset_shapes(self):
        dataset = SyntheticAudioDataset(4, payload_bytes=16)
        record = dataset[1]
        assert record.kind == "audio"
        assert dataset.decoded_shape()[0] == dataset.clip_samples

    def test_caption_dataset_item_structure(self):
        dataset = SyntheticCaptionDataset(4, payload_bytes=16)
        item = dataset[0]
        assert set(item) >= {"payload", "caption", "stored_nbytes"}
        assert item["caption"].shape == (dataset.caption_length,)

    def test_instruction_dataset_lengths_are_bounded(self):
        dataset = SyntheticInstructionDataset(32, max_sequence_length=128, mean_sequence_length=64)
        lengths = [dataset[i]["length"] for i in range(32)]
        assert all(16 <= length <= 128 for length in lengths)

    def test_make_dataset_factory(self):
        assert isinstance(make_dataset("imagenet", 8), SyntheticImageDataset)
        assert isinstance(make_dataset("librispeech", 8), SyntheticAudioDataset)
        assert isinstance(make_dataset("cc3m", 8), SyntheticCaptionDataset)
        assert isinstance(make_dataset("alpaca", 8), SyntheticInstructionDataset)
        with pytest.raises(ValueError):
            make_dataset("mnist")

    def test_different_seeds_give_different_data(self):
        a = SyntheticImageDataset(4, payload_bytes=64, seed=0)[0].payload
        b = SyntheticImageDataset(4, payload_bytes=64, seed=1)[0].payload
        assert not np.array_equal(a, b)


class TestDatasetComposition:
    def test_subset_and_concat(self):
        dataset = SyntheticImageDataset(10, payload_bytes=8)
        subset = Subset(dataset, [0, 2, 4])
        assert len(subset) == 3
        assert subset[1].index == 2
        combined = ConcatDataset([subset, Subset(dataset, [5])])
        assert len(combined) == 4
        assert combined[3].index == 5

    def test_subset_index_validation(self):
        dataset = SyntheticImageDataset(4, payload_bytes=8)
        with pytest.raises(IndexError):
            Subset(dataset, [9])

    def test_concat_bounds(self):
        dataset = ConcatDataset([SyntheticImageDataset(2, payload_bytes=8)])
        with pytest.raises(IndexError):
            dataset[2]

    def test_train_val_split_is_disjoint_and_complete(self):
        dataset = SyntheticImageDataset(20, payload_bytes=8)
        train, val = train_val_split(dataset, 0.25, seed=1)
        train_indices = set(train.indices)
        val_indices = set(val.indices)
        assert len(val) == 5
        assert train_indices.isdisjoint(val_indices)
        assert train_indices | val_indices == set(range(20))

    def test_train_val_split_validates_fraction(self):
        with pytest.raises(ValueError):
            train_val_split(SyntheticImageDataset(4, payload_bytes=8), 1.5)


class TestSamplers:
    def test_sequential_sampler_order(self):
        dataset = SyntheticImageDataset(5, payload_bytes=8)
        assert list(SequentialSampler(dataset)) == [0, 1, 2, 3, 4]

    def test_random_sampler_is_permutation(self):
        dataset = SyntheticImageDataset(50, payload_bytes=8)
        sampler = RandomSampler(dataset, seed=3, reseed_each_epoch=False)
        order = list(sampler)
        assert sorted(order) == list(range(50))
        assert order != list(range(50))
        assert list(sampler) == order  # fixed epoch -> same permutation

    def test_random_sampler_reseeds_each_epoch(self):
        dataset = SyntheticImageDataset(50, payload_bytes=8)
        sampler = RandomSampler(dataset, seed=3)
        assert list(sampler) != list(sampler)

    def test_random_sampler_with_replacement_and_num_samples(self):
        dataset = SyntheticImageDataset(10, payload_bytes=8)
        sampler = RandomSampler(dataset, replacement=True, num_samples=25)
        assert len(list(sampler)) == 25

    def test_subset_sampler(self):
        assert list(SubsetSampler([4, 1, 2])) == [4, 1, 2]

    def test_batch_sampler_grouping_and_drop_last(self):
        dataset = SyntheticImageDataset(10, payload_bytes=8)
        batches = list(BatchSampler(SequentialSampler(dataset), 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        dropped = list(BatchSampler(SequentialSampler(dataset), 4, drop_last=True))
        assert [len(b) for b in dropped] == [4, 4]
        assert len(BatchSampler(SequentialSampler(dataset), 4)) == 3
        assert len(BatchSampler(SequentialSampler(dataset), 4, drop_last=True)) == 2

    def test_batch_sampler_validates_batch_size(self):
        with pytest.raises(ValueError):
            BatchSampler(SubsetSampler([1]), 0)


class TestTransforms:
    def _image_item(self, size=64):
        record = SyntheticImageDataset(4, payload_bytes=16)[0]
        return DecodeJpeg(height=size, width=size)(record)

    def test_decode_jpeg_is_deterministic_per_index(self):
        decode = DecodeJpeg(height=32, width=32)
        dataset = SyntheticImageDataset(4, payload_bytes=16)
        a = decode(dataset[2])["image"]
        b = decode(dataset[2])["image"]
        np.testing.assert_array_equal(a, b)

    def test_decode_jpeg_rejects_wrong_kind(self):
        record = SyntheticAudioDataset(2, payload_bytes=16)[0]
        with pytest.raises(TypeError):
            DecodeJpeg()(record)

    def test_resize_and_crops(self):
        item = self._image_item(64)
        resized = Resize(48)(item)
        assert resized["image"].shape == (48, 48, 3)
        cropped = RandomCrop(32, seed=0)(resized)
        assert cropped["image"].shape == (32, 32, 3)
        centered = CenterCrop(24)(cropped)
        assert centered["image"].shape == (24, 24, 3)

    def test_random_crop_rejects_too_small_images(self):
        item = self._image_item(16)
        with pytest.raises(ValueError):
            RandomCrop(32)(item)

    def test_flip_probability_extremes(self):
        item = self._image_item(8)
        always = RandomHorizontalFlip(p=1.0)(dict(item))
        never = RandomHorizontalFlip(p=0.0)(dict(item))
        np.testing.assert_array_equal(never["image"], item["image"])
        np.testing.assert_array_equal(always["image"], item["image"][:, ::-1])

    def test_normalize_scales_to_float(self):
        pixels = np.array(
            [[[0, 255, 51], [102, 0, 255]], [[255, 153, 0], [204, 204, 204]]], np.uint8
        )
        image = Normalize()({"image": pixels})["image"]
        assert image.dtype == np.float32 and image.shape == (2, 2, 3)
        mean, std = np.array(Normalize.IMAGENET_MEAN), np.array(Normalize.IMAGENET_STD)
        np.testing.assert_allclose(image, (pixels / 255.0 - mean) / std, rtol=1e-6)
        # A 2-D image has no channel axis to match: the mean of the constants.
        red = pixels[..., 0]
        gray = Normalize()({"image": red})["image"]
        np.testing.assert_allclose(gray, (red / 255.0 - mean.mean()) / std.mean(), rtol=1e-6)

    @pytest.mark.parametrize("shape", [(8, 8, 3), (8, 8)], ids=["per-channel", "scalar"])
    def test_normalize_scales_uint8_by_dtype_not_by_content(self, shape):
        # A black frame or a 0/1 mask is still pixels: its 1s are 1/255, not white.
        mask = np.random.default_rng(0).integers(0, 2, size=shape, dtype=np.uint8)
        brighter = np.concatenate([mask, np.full_like(mask[:1], 255)])
        alone = Normalize()({"image": mask})["image"]
        inside = Normalize()({"image": brighter})["image"][:8]
        assert alone.tobytes() == inside.tobytes()
        assert alone.max() < -1.7  # (1/255 - mean) / std, nowhere near (1 - mean) / std
        # A float image in [0, 1] is still taken as already scaled.
        as_float = Normalize()({"image": mask.astype(np.float32)})["image"]
        assert as_float.max() > 2.0

    @pytest.mark.parametrize("shape", [(256, 256, 3), (256, 256)], ids=["per-channel", "scalar"])
    def test_normalize_allocates_one_output_sized_array(self, shape):
        # A count, not a clock: allocation repeats exactly, and the allocate-
        # per-step expression this replaced peaked at 3.04x the output.
        item = {"image": np.random.default_rng(0).integers(0, 256, size=shape, dtype=np.uint8)}
        normalize = Normalize()
        normalize(item)  # fills the per-width row constants
        tracemalloc.start()
        try:
            out = normalize(item)["image"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"

    def test_normalize_rejects_zero_std(self):
        with pytest.raises(ValueError):
            Normalize(std=(0.0, 1.0, 1.0))

    def test_audio_transforms(self):
        record = SyntheticAudioDataset(2, payload_bytes=16)[0]
        item = DecodeAudio(clip_samples=2048)(record)
        cropped = AudioRandomCrop(crop_samples=1024)(item)
        assert cropped["waveform"].shape == (1024,)
        amplified = AudioGain(min_gain=2.0, max_gain=2.0)(cropped)
        np.testing.assert_allclose(amplified["waveform"], cropped["waveform"] * 2.0, rtol=1e-6)

    def test_tokenize_caption_pads_and_truncates(self):
        short = TokenizeCaption(length=10)({"caption": np.arange(4)})
        assert short["caption"].shape == (10,)
        long = TokenizeCaption(length=3)({"caption": np.arange(8)})
        assert long["caption"].tolist() == [0, 1, 2]

    def test_pad_sequence_builds_mask(self):
        item = PadSequence(max_length=8)({"tokens": np.arange(5)})
        assert item["tokens"].shape == (8,)
        assert item["attention_mask"].sum() == 5

    def test_to_tensor_converts_and_transposes(self):
        item = ToTensor()(Normalize()(self._image_item(8)))
        assert isinstance(item["image"], Tensor)
        assert item["image"].shape == (3, 8, 8)

    def test_compose_cost_is_sum_of_parts(self):
        pipeline = Compose([DecodeJpeg(), Resize(), Normalize()])
        expected = DecodeJpeg.nominal_cpu_seconds + Resize.nominal_cpu_seconds + Normalize.nominal_cpu_seconds
        assert pipeline.nominal_cpu_seconds == pytest.approx(expected)

    def test_lambda_transform_cost_annotation(self):
        transform = Lambda(lambda item: item, nominal_cpu_seconds=1.5e-3)
        assert transform.nominal_cpu_seconds == 1.5e-3
        assert transform({"x": 1}) == {"x": 1}

    def test_standard_pipelines_run_end_to_end(self):
        image_item = imagenet_train_pipeline(image_size=32)(SyntheticImageDataset(2, payload_bytes=16)[0])
        assert image_item["image"].shape == (3, 32, 32)
        audio_item = clmr_train_pipeline(clip_samples=512)(SyntheticAudioDataset(2, payload_bytes=16)[0])
        assert audio_item["waveform"].shape == (512,)
        text_item = alpaca_pipeline(max_length=64)(SyntheticInstructionDataset(2)[0])
        assert text_item["tokens"].shape == (64,)


class TestCollate:
    def test_collate_dict_items(self):
        items = [
            {"image": np.zeros((3, 4, 4), dtype=np.float32), "label": i} for i in range(5)
        ]
        batch = default_collate(items)
        assert batch["image"].shape == (5, 3, 4, 4)
        assert batch["label"].tolist() == [0, 1, 2, 3, 4]

    def test_collate_tuple_items(self):
        items = [(np.zeros(4, dtype=np.float32), float(i)) for i in range(3)]
        batch = default_collate(items)
        assert batch["inputs"].shape == (3, 4)
        assert batch["targets"].dtype.name == "float32"

    def test_collate_rejects_empty_and_unknown(self):
        with pytest.raises(ValueError):
            default_collate([])
        with pytest.raises(TypeError):
            default_collate(["a", "b"])


class TestDataLoader:
    def _loader(self, size=24, batch_size=4, **kwargs):
        dataset = SyntheticImageDataset(size, payload_bytes=16)
        pipeline = Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()])
        return DataLoader(dataset, batch_size=batch_size, transform=pipeline, **kwargs)

    def test_sync_loader_yields_all_batches_in_order(self):
        loader = self._loader()
        batches = list(loader)
        assert len(batches) == len(loader) == 6
        assert batches[0]["image"].shape == (4, 3, 16, 16)
        assert batches[0]["index"].tolist() == [0, 1, 2, 3]

    def test_threaded_loader_matches_sync_loader(self):
        sync = [b["index"].tolist() for b in self._loader()]
        threaded = [b["index"].tolist() for b in self._loader(num_workers=3)]
        assert threaded == sync

    def test_drop_last(self):
        loader = self._loader(size=10, batch_size=4, drop_last=True)
        assert len(loader) == 2
        assert len(list(loader)) == 2

    def test_shuffle_changes_order_but_not_content(self):
        loader = self._loader(shuffle=True, seed=7)
        indices = [i for batch in loader for i in batch["index"].tolist()]
        assert sorted(indices) == list(range(24))
        assert indices != list(range(24))

    def test_loader_argument_validation(self):
        dataset = SyntheticImageDataset(8, payload_bytes=16)
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)
        with pytest.raises(ValueError):
            DataLoader(dataset, num_workers=-1)
        with pytest.raises(ValueError):
            DataLoader(dataset, shuffle=True, sampler=SequentialSampler(dataset))
        with pytest.raises(ValueError):
            DataLoader(dataset, prefetch_factor=0)

    def test_nominal_cost_and_stored_bytes_metadata(self):
        loader = self._loader()
        assert loader.nominal_cpu_seconds_per_item > 0
        assert loader.stored_bytes_per_item == SyntheticImageDataset.DEFAULT_ENCODED_BYTES

    def test_worker_errors_propagate(self):
        dataset = SyntheticImageDataset(8, payload_bytes=16)

        def explode(item):
            raise RuntimeError("boom")

        loader = DataLoader(dataset, batch_size=2, transform=explode, num_workers=2)
        with pytest.raises(RuntimeError, match="boom"):
            list(loader)

    def test_multiple_epochs_reuse_loader(self):
        loader = self._loader(size=8, batch_size=4)
        assert len(list(loader)) == 2
        assert len(list(loader)) == 2


class TestPrefetchIter:
    """Edge cases of the explicit-prefetch iterator an outer pipeline uses."""

    def _loader(self, size=24, batch_size=4, **kwargs):
        dataset = SyntheticImageDataset(size, payload_bytes=16)
        pipeline = Compose([DecodeJpeg(height=16, width=16), Normalize(), ToTensor()])
        return DataLoader(dataset, batch_size=batch_size, transform=pipeline, **kwargs)

    def test_zero_workers_stays_synchronous(self):
        """num_workers=0 must load inline — no threads, no semaphore — even
        when the loader itself was configured with workers (the PR 3 deadlock
        fix lives on the threaded path; this pins the zero-worker regression)."""
        loader = self._loader(num_workers=3)
        iterator = loader.prefetch_iter(max_in_flight=2, num_workers=0)
        assert iterator._mode == "sync"
        assert not hasattr(iterator, "_workers")
        indices = [batch["index"].tolist() for batch in iterator]
        assert indices == [batch["index"].tolist() for batch in self._loader()]

    def test_max_in_flight_one_is_strictly_bounded(self):
        """The tightest budget: one permit.  Every batch must still arrive in
        sampler order, and at no point may more than max_in_flight + 1
        batches have been loaded beyond what the consumer took (the worker
        may hold at most the single permitted batch)."""
        loader = self._loader(size=32, num_workers=3)
        iterator = loader.prefetch_iter(max_in_flight=1)
        seen = []
        for batch in iterator:
            seen.append(batch["index"].tolist())
            time.sleep(0.002)  # give workers a window to overrun the budget
            with iterator._results_lock:
                posted = len(iterator._results)
            assert posted <= 1, f"budget leaked: {posted} batches posted ahead"
        assert seen == [batch["index"].tolist() for batch in self._loader(size=32)]

    def test_close_mid_iteration_unblocks_and_stops(self):
        loader = self._loader(size=64, num_workers=2)
        iterator = loader.prefetch_iter(max_in_flight=2)
        first = next(iterator)
        assert first["index"].tolist() == [0, 1, 2, 3]
        iterator.close()
        # Workers are stopped; iteration must end instead of spinning on a
        # result that will never be produced.
        with pytest.raises(StopIteration):
            while True:
                next(iterator)
        # close() is idempotent and the worker threads exit promptly.
        iterator.close()
        deadline = time.time() + 5
        while any(w.is_alive() for w in iterator._workers) and time.time() < deadline:
            time.sleep(0.01)
        assert not any(w.is_alive() for w in iterator._workers)

    def test_close_mid_iteration_synchronous_mode(self):
        iterator = self._loader().prefetch_iter(num_workers=0)
        next(iterator)
        iterator.close()  # no-op in sync mode, must not raise
        assert next(iterator)["index"].tolist() == [4, 5, 6, 7]

    def test_explicit_batches_subset(self):
        """An explicit batch list replaces the sampler draw — the epoch cache
        loads only a partially-cached epoch's misses this way."""
        loader = self._loader(num_workers=2)
        full = list(loader.batch_sampler)
        subset = [full[4], full[1]]  # caller's order, not sampler order
        iterator = loader.prefetch_iter(max_in_flight=2, batches=subset)
        batches = [batch["index"].tolist() for batch in iterator]
        assert batches == [[16, 17, 18, 19], [4, 5, 6, 7]]
        assert iterator.sampled_batches == [list(b) for b in subset]
