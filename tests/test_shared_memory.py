"""Unit tests for shared segments, the pool, and payload pack/unpack."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.tensor import (
    BatchPayload,
    PayloadError,
    SharedMemoryError,
    SharedMemoryPool,
    SharedSegment,
    TensorPayload,
    from_numpy,
)


@pytest.fixture
def pool():
    pool = SharedMemoryPool()
    yield pool
    pool.shutdown()


class TestSharedSegment:
    def test_create_and_view(self):
        segment = SharedSegment("seg-create", 64, create=True)
        try:
            view = segment.ndarray((4, 4), "float32")
            view[...] = 1.0
            again = segment.ndarray((4, 4), "float32")
            assert again.sum() == 16.0
        finally:
            segment.unlink()

    def test_attach_existing_segment_sees_same_bytes(self):
        creator = SharedSegment("seg-attach", 16, create=True)
        try:
            creator.ndarray((4,), "int32")[...] = [1, 2, 3, 4]
            attached = SharedSegment("seg-attach", 16, create=False)
            assert attached.ndarray((4,), "int32").tolist() == [1, 2, 3, 4]
        finally:
            creator.unlink()

    def test_duplicate_create_rejected(self):
        segment = SharedSegment("seg-dup", 8, create=True)
        try:
            with pytest.raises(SharedMemoryError):
                SharedSegment("seg-dup", 8, create=True)
        finally:
            segment.unlink()

    def test_attach_missing_segment_rejected(self):
        with pytest.raises(SharedMemoryError):
            SharedSegment("seg-missing", 8, create=False)

    def test_view_bounds_checked(self):
        segment = SharedSegment("seg-bounds", 16, create=True)
        try:
            with pytest.raises(SharedMemoryError):
                segment.ndarray((100,), "float32")
        finally:
            segment.unlink()

    def test_invalid_sizes_and_backends(self):
        with pytest.raises(SharedMemoryError):
            SharedSegment("seg-zero", 0, create=True)
        with pytest.raises(SharedMemoryError):
            SharedSegment("seg-backend", 8, create=True, backend="mmapfoo")

    def test_closed_segment_rejects_access(self):
        segment = SharedSegment("seg-close", 8, create=True)
        segment.close()
        with pytest.raises(SharedMemoryError):
            _ = segment.buffer
        segment.unlink()


class TestSharedMemoryPool:
    def test_allocate_tensor_is_shared(self, pool):
        tensor = pool.allocate_tensor((4, 4), "float32")
        assert tensor.is_shared
        assert pool.live_segments == 1
        assert pool.bytes_in_flight == 64

    def test_share_tensor_copies_values(self, pool):
        source = from_numpy(np.arange(6, dtype=np.float32))
        shared = pool.share_tensor(source)
        assert shared.is_shared
        np.testing.assert_array_equal(shared.numpy(), source.numpy())

    def test_refcount_release_frees_segment(self, pool):
        tensor = pool.allocate_tensor((8,), initial_refcount=2)
        name = tensor.segment.name
        assert pool.release(name) == 1
        assert pool.contains(name)
        assert pool.release(name) == 0
        assert not pool.contains(name)
        assert pool.bytes_in_flight == 0

    def test_retain_increases_refcount(self, pool):
        tensor = pool.allocate_tensor((8,))
        name = tensor.segment.name
        assert pool.retain(name, 3) == 4
        assert pool.refcount(name) == 4

    def test_over_release_rejected(self, pool):
        tensor = pool.allocate_tensor((8,))
        name = tensor.segment.name
        with pytest.raises(SharedMemoryError):
            pool.release(name, 5)

    def test_release_unknown_segment_rejected(self, pool):
        with pytest.raises(SharedMemoryError):
            pool.release("nope")

    def test_retain_release_argument_validation(self, pool):
        tensor = pool.allocate_tensor((8,))
        with pytest.raises(ValueError):
            pool.retain(tensor.segment.name, 0)
        with pytest.raises(ValueError):
            pool.release(tensor.segment.name, 0)

    def test_attach_rebuilds_view_over_same_bytes(self, pool):
        tensor = pool.allocate_tensor((2, 3), "float32")
        tensor.numpy()[...] = 5.0
        rebuilt = pool.attach(
            tensor.segment.name, (2, 3), "float32", offset=tensor.segment_offset
        )
        assert rebuilt.numpy().sum() == 30.0
        rebuilt.numpy()[0, 0] = 9.0
        assert tensor.numpy()[0, 0] == 9.0

    def test_peak_bytes_tracks_high_water_mark(self, pool):
        a = pool.allocate_tensor((1024,), "uint8")
        b = pool.allocate_tensor((1024,), "uint8")
        pool.release(a.segment.name)
        pool.release(b.segment.name)
        assert pool.peak_bytes == 2048
        assert pool.bytes_in_flight == 0

    def test_shutdown_clears_everything(self):
        pool = SharedMemoryPool()
        pool.allocate_tensor((16,))
        pool.allocate_tensor((16,))
        pool.shutdown()
        assert pool.live_segments == 0
        assert pool.bytes_in_flight == 0


class TestTensorPayload:
    def test_shared_payload_is_tiny_and_zero_copy(self, pool):
        tensor = pool.allocate_tensor((64, 3, 8, 8), "float32")
        tensor.numpy()[...] = 1.0
        payload = TensorPayload.from_shared(tensor)
        assert payload.payload_nbytes < 1024
        assert payload.tensor_nbytes == tensor.nbytes
        rebuilt = payload.unpack(pool)
        assert rebuilt.shares_memory_with(tensor)

    def test_from_shared_requires_shared_tensor(self):
        with pytest.raises(PayloadError):
            TensorPayload.from_shared(from_numpy(np.zeros(3, dtype=np.float32)))

    def test_inline_payload_carries_bytes(self):
        tensor = from_numpy(np.arange(10, dtype=np.int64))
        payload = TensorPayload.inline(tensor)
        assert payload.payload_nbytes >= tensor.nbytes
        rebuilt = payload.unpack()
        np.testing.assert_array_equal(rebuilt.numpy(), tensor.numpy())
        assert not rebuilt.shares_memory_with(tensor)

    def test_pack_chooses_cheapest_representation(self, pool):
        shared = pool.allocate_tensor((4,))
        plain = from_numpy(np.zeros(4, dtype=np.float32))
        assert TensorPayload.pack(shared).is_shared
        assert not TensorPayload.pack(plain).is_shared

    def test_unpack_shared_requires_pool(self, pool):
        payload = TensorPayload.from_shared(pool.allocate_tensor((4,)))
        with pytest.raises(PayloadError):
            payload.unpack()

    def test_unpack_released_segment_fails_loudly(self, pool):
        tensor = pool.allocate_tensor((4,))
        payload = TensorPayload.from_shared(tensor)
        pool.release(tensor.segment.name)
        with pytest.raises(PayloadError):
            payload.unpack(pool)

    def test_sliced_view_payload_preserves_offset(self, pool):
        tensor = pool.allocate_tensor((10, 4), "float32")
        tensor.numpy()[...] = np.arange(40, dtype=np.float32).reshape(10, 4)
        view = tensor.slice_rows(3, 7)
        payload = TensorPayload.from_shared(view)
        rebuilt = payload.unpack(pool)
        np.testing.assert_array_equal(rebuilt.numpy(), tensor.numpy()[3:7])

    def test_dict_roundtrip(self, pool):
        tensor = pool.allocate_tensor((2, 2), "float32")
        payload = TensorPayload.from_shared(tensor)
        assert TensorPayload.from_dict(payload.to_dict()) == payload
        inline = TensorPayload.inline(from_numpy(np.ones(3, dtype=np.float32)))
        assert TensorPayload.from_dict(inline.to_dict()) == inline


class TestBatchPayload:
    def test_pack_and_unpack_batch(self, pool):
        batch = {
            "inputs": pool.share_tensor(from_numpy(np.ones((8, 4), dtype=np.float32))),
            "targets": pool.share_tensor(from_numpy(np.zeros(8, dtype=np.int64))),
        }
        payload = BatchPayload.pack(batch, batch_index=3, epoch=1)
        assert payload.batch_size == 8
        assert payload.key() == (1, 3)
        assert len(payload.segment_names) == 2
        rebuilt = payload.unpack(pool)
        assert set(rebuilt) == {"inputs", "targets"}
        assert rebuilt["inputs"].shares_memory_with(batch["inputs"])

    def test_empty_batch_rejected(self):
        with pytest.raises(PayloadError):
            BatchPayload.pack({}, batch_index=0, epoch=0)

    def test_payload_wire_size_is_independent_of_tensor_size(self, pool):
        small = BatchPayload.pack(
            {"x": pool.allocate_tensor((1, 4))}, batch_index=0, epoch=0
        )
        large = BatchPayload.pack(
            {"x": pool.allocate_tensor((512, 3, 32, 32))}, batch_index=1, epoch=0
        )
        assert large.tensor_nbytes > 1000 * small.tensor_nbytes
        assert large.payload_nbytes == small.payload_nbytes

    def test_metadata_and_slice_bounds_carry_through(self, pool):
        payload = BatchPayload.pack(
            {"x": pool.allocate_tensor((4, 2))},
            batch_index=5,
            epoch=2,
            metadata={"origin": "test"},
        )
        assert payload.slices is None
        slices = {"a": (((0, 2),), ((2, 4),)), "b": (((2, 4), (0, 1)),)}
        sliced = dataclasses.replace(payload, slices=slices)
        assert pickle.loads(pickle.dumps(sliced)).slices == slices
        assert sliced.key() == payload.key() == (2, 5)
        assert payload.metadata["origin"] == "test"
