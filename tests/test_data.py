import os
import struct

import numpy as np
import pytest

from qmlp.data import (
    IMAGE_MAGIC,
    BatchPlan,
    LABEL_MAGIC,
    LabelOutOfRange,
    MagicMismatch,
    RawDataset,
    SubsetTooLarge,
    TruncatedFile,
    encode_dataset,
    load_raw_dataset,
    parse_idx,
    parse_idx_images,
    parse_idx_labels,
    read_idx,
    subset,
)
from qmlp.network import ShapeMismatch

from conftest import mnist_dir, traced_peak
from synthdigits import serialize_idx_images, serialize_idx_labels


def image_bytes(n, rows=28, cols=28, fill=None, rng=None):
    header = struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols)
    if rng is not None:
        payload = rng.integers(0, 256, size=n * rows * cols, dtype=np.uint8).tobytes()
    else:
        payload = bytes([fill or 0]) * (n * rows * cols)
    return header + payload


def encode_image(image):
    """encode_dataset on a one-image dataset: the image's input vector."""
    ds = RawDataset(images=np.asarray(image)[None], labels=np.zeros(1, dtype=np.int64))
    return encode_dataset(ds).X[0]


def shuffled_batches(count, batch_size, epoch_seed):
    return list(BatchPlan.make(count, batch_size, epoch_seed).batches())


def label_bytes(labels):
    return struct.pack(">II", LABEL_MAGIC, len(labels)) + bytes(labels)


class TestIdxParsing:
    def test_two_images_roundtrip_header(self):
        images = parse_idx_images(image_bytes(2, fill=7))
        assert images.shape == (2, 28, 28)
        assert images.dtype == np.uint8
        assert np.all(images == 7)

    def test_file_order_preserved(self):
        rng = np.random.default_rng(0)
        blob = image_bytes(3, rows=2, cols=2, rng=rng)
        images = parse_idx_images(blob)
        expected = np.frombuffer(blob[16:], dtype=np.uint8).reshape(3, 2, 2)
        assert np.array_equal(images, expected)

    def test_label_magic_rejected_for_images(self):
        blob = label_bytes([1, 2]) + b"\x00" * 100
        with pytest.raises(MagicMismatch):
            parse_idx_images(blob)

    def test_truncated_image_payload(self):
        blob = image_bytes(2)[:-5]
        with pytest.raises(TruncatedFile):
            parse_idx_images(blob)

    def test_truncated_header(self):
        with pytest.raises(TruncatedFile):
            parse_idx_images(struct.pack(">I", IMAGE_MAGIC) + b"\x00\x00")

    def test_trailing_image_bytes(self):
        with pytest.raises(TruncatedFile, match="2 trailing bytes after image payload"):
            parse_idx_images(image_bytes(2, rows=3, cols=3) + b"\x00\x00")

    def test_trailing_label_bytes(self):
        with pytest.raises(TruncatedFile, match="2 trailing bytes after label payload"):
            parse_idx_labels(label_bytes([1, 2, 3]) + b"\x00\x00")

    def test_labels_parse(self):
        assert parse_idx_labels(label_bytes([5, 0, 9])).tolist() == [5, 0, 9]

    def test_image_magic_rejected_for_labels(self):
        with pytest.raises(MagicMismatch):
            parse_idx_labels(image_bytes(1))

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            parse_idx_labels(label_bytes([3, 12, 1]))

    def test_truncated_labels(self):
        with pytest.raises(TruncatedFile):
            parse_idx_labels(label_bytes([1, 2, 3])[:-1])

    def test_parse_idx_follows_the_magic_word(self):
        assert parse_idx(image_bytes(2, rows=3, cols=3, fill=4)).shape == (2, 3, 3)
        assert parse_idx(label_bytes([4, 1])).tolist() == [4, 1]
        with pytest.raises(MagicMismatch, match="unknown magic 0x12345678"):
            parse_idx(b"\x12\x34\x56\x78" + b"\x00" * 8)
        with pytest.raises(TruncatedFile, match="3 bytes, smaller than the magic word"):
            parse_idx(struct.pack(">I", LABEL_MAGIC)[:3])

    def test_huge_declared_size_is_truncation(self):
        top = 2**32 - 1
        blob = struct.pack(">IIII", IMAGE_MAGIC, top, top, top)
        with pytest.raises(TruncatedFile, match=f"header declares {16 + top**3} bytes"):
            parse_idx(blob)

    @pytest.mark.parametrize("rows, cols", [(0, 28), (28, 0), (0, 0)])
    def test_image_dimension_of_zero_is_refused(self, rows, cols, tmp_path):
        path = tmp_path / "flat-images"
        path.write_bytes(serialize_idx_images(np.zeros((5, rows, cols), np.uint8)))
        with pytest.raises(ShapeMismatch, match=f"{path}: images of {rows}x{cols} pixels"):
            read_idx(path, parse_idx_images)
        with pytest.raises(ShapeMismatch, match="have no pixel"):
            parse_idx(serialize_idx_images(np.zeros((0, rows, cols), np.uint8)))

    def test_roundtrip_is_byte_identical(self):
        rng = np.random.default_rng(42)
        img_blob = image_bytes(5, rows=7, cols=3, rng=rng)
        assert serialize_idx_images(parse_idx_images(img_blob)) == img_blob
        lab_blob = label_bytes(list(rng.integers(0, 10, size=17)))
        assert serialize_idx_labels(parse_idx_labels(lab_blob)) == lab_blob

    def test_read_idx_holds_one_copy_of_the_file(self, tmp_path):
        path = tmp_path / "images"
        path.write_bytes(image_bytes(2000, rng=np.random.default_rng(5)))
        images, peak = traced_peak(read_idx, path, parse_idx_images)
        assert np.array_equal(images, parse_idx_images(path.read_bytes()))
        assert not images.flags.writeable
        assert peak < 1.1 * path.stat().st_size

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_read_idx_reads_a_pipe(self):
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as fh:
            fh.write(label_bytes([7, 0, 3]))
        try:
            assert read_idx(f"/dev/fd/{read_end}", parse_idx).tolist() == [7, 0, 3]
        finally:
            os.close(read_end)

    def test_count_mismatch_names_both_files(self, tmp_path):
        images, labels = tmp_path / "three-images", tmp_path / "two-labels"
        images.write_bytes(image_bytes(3))
        labels.write_bytes(label_bytes([1, 2]))
        with pytest.raises(ShapeMismatch, match="two-labels: image/label count mismatch: 3 vs 2"):
            load_raw_dataset(images, labels)

    @pytest.mark.parametrize("shape", [(3, 784), (3, 1, 28, 28)])
    def test_images_that_are_not_3d_are_refused(self, shape):
        with pytest.raises(ShapeMismatch, match=r"images must be \(n, rows, cols\)"):
            RawDataset(images=np.zeros(shape, np.uint8), labels=np.zeros(3, np.int64))


class TestSubset:
    def make(self, n):
        images = np.arange(n * 4, dtype=np.uint8).reshape(n, 2, 2)
        labels = (np.arange(n) % 10).astype(np.int64)
        return RawDataset(images=images, labels=labels)

    def test_deterministic_and_without_replacement(self):
        ds = self.make(50)
        s1 = subset(ds, 20, seed=7)
        s2 = subset(ds, 20, seed=7)
        assert np.array_equal(s1.images, s2.images)
        assert np.array_equal(s1.labels, s2.labels)
        flat = s1.images.reshape(20, -1)[:, 0]
        assert len(np.unique(flat)) == 20  # distinct source rows

    def test_different_seed_different_subset(self):
        ds = self.make(50)
        assert not np.array_equal(subset(ds, 20, 7).images, subset(ds, 20, 8).images)

    def test_full_size_is_permutation(self):
        ds = self.make(12)
        full = subset(ds, 12, seed=3)
        assert sorted(full.labels.tolist()) == sorted(ds.labels.tolist())
        assert full.count == 12

    def test_empty_subset(self):
        assert subset(self.make(5), 0, seed=1).count == 0

    def test_negative_size(self):
        with pytest.raises(ValueError, match="subset size must be >= 0, got -1"):
            subset(self.make(5), -1, seed=1)

    def test_too_large(self):
        with pytest.raises(SubsetTooLarge):
            subset(self.make(5), 6, seed=1)


class TestEncoding:
    def test_zero_image(self):
        assert np.all(encode_image(np.zeros((28, 28), dtype=np.uint8)) == 0.0)

    def test_full_image(self):
        assert np.all(encode_image(np.full((28, 28), 255, dtype=np.uint8)) == 1.0)

    def test_pixel_51_maps_to_point_two(self):
        img = np.zeros((2, 2), dtype=np.uint8)
        img[0, 1] = 51
        vec = encode_image(img)
        assert vec[1] == 0.2
        assert vec.shape == (4,)

    def test_row_major_flatten_and_range(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(28, 28), dtype=np.uint8)
        vec = encode_image(img)
        assert vec.shape == (784,)
        assert vec[28] == np.float32(img[1, 0]) / np.float32(255)
        assert vec.min() >= 0.0 and vec.max() <= 1.0

    def test_monotone_in_pixel_value(self):
        values = np.arange(256, dtype=np.uint8).reshape(16, 16)
        vec = encode_image(values)
        assert np.all(np.diff(vec) > 0)

    def test_encode_dataset_shapes(self):
        ds = RawDataset(
            images=np.zeros((3, 28, 28), dtype=np.uint8),
            labels=np.array([1, 2, 3], dtype=np.int64),
        )
        enc = encode_dataset(ds)
        assert enc.X.shape == (3, 784)
        assert enc.y.tolist() == [1, 2, 3]


class TestBatches:
    def test_5000_by_64(self):
        batches = shuffled_batches(5000, 64, epoch_seed=9)
        assert len(batches) == 79
        assert all(len(b) == 64 for b in batches[:-1])
        assert len(batches[-1]) == 8

    def test_same_seed_identical(self):
        b1 = shuffled_batches(100, 16, epoch_seed=5)
        b2 = shuffled_batches(100, 16, epoch_seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(b1, b2))

    def test_concatenation_is_permutation(self):
        batches = shuffled_batches(100, 17, epoch_seed=2)
        joined = np.concatenate(batches)
        assert sorted(joined.tolist()) == list(range(100))

    def test_batch_size_one(self):
        batches = shuffled_batches(50, 1, epoch_seed=0)
        assert len(batches) == 50
        assert all(len(b) == 1 for b in batches)

    def test_accepts_dataset_objects(self):
        ds = RawDataset(
            images=np.zeros((10, 2, 2), dtype=np.uint8),
            labels=np.zeros(10, dtype=np.int64),
        )
        plan = BatchPlan.make(ds.count, 4, epoch_seed=1)
        assert [len(b) for b in plan.batches()] == [4, 4, 2]
        assert np.array_equal(np.concatenate(list(plan.batches())), plan.order)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused(self, batch_size):
        with pytest.raises(ValueError, match=f"^batch_size must be >= 1, got {batch_size}$"):
            BatchPlan.make(10, batch_size, epoch_seed=1)


@pytest.mark.skipif(mnist_dir() is None, reason="real MNIST IDX files not available")
class TestRealMnist:
    def test_official_counts(self, real_mnist):
        train, val = real_mnist
        assert train.count == 60000
        assert val.count == 10000
        assert train.images.shape[1:] == (28, 28)

    def test_paper_subset_size(self, real_mnist):
        train, _ = real_mnist
        sub = subset(train, 5000, seed=7)
        assert sub.count == 5000
        again = subset(train, 5000, seed=7)
        assert np.array_equal(sub.images, again.images)
