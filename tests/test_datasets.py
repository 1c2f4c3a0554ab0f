"""IDX file parsing and the synthetic blob generator.

IDX fixtures are built byte-by-byte with struct.pack so the tests pin the
on-disk convention (big-endian, magic 0x803/0x801) rather than echoing the
reader's own serialization.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from featherprune import datasets
from featherprune.datasets import (
    BLOB_BLOCK_VALUES,
    DatasetDescriptor,
    decode_features,
    load_dataset,
    read_input_shape,
    synth_blobs,
)
from featherprune.errors import ConfigError, FormatError
from featherprune.seeding import DATA_STREAM, mix_seed

from memtrace import peak_bytes
from oracles import idx_pixels_whole_array, synth_blobs_one_shot


def read_idx(images_path, labels_path, num_classes=None):
    """The package's one IDX reader: uint8 pixels as stored, int64 labels."""
    return datasets._read_idx(images_path, labels_path, num_classes)


def idx_images(images):
    arr = np.asarray(images, dtype=np.uint8)
    n, rows, cols = arr.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + arr.tobytes()


def idx_labels(labels):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, arr.size) + arr.tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    labels = [7, 2]
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    img_path.write_bytes(idx_images(images))
    lbl_path.write_bytes(idx_labels(labels))
    return img_path, lbl_path, images, np.array(labels)


class TestLoadIdx:
    def test_round_trip_values_and_layout(self, idx_pair):
        img_path, lbl_path, images, labels = idx_pair
        x, y = read_idx(img_path, lbl_path)
        assert x.shape == (2, 1, 3, 4)
        assert x.dtype == np.uint8
        assert not x.flags.writeable
        np.testing.assert_array_equal(y, labels)
        np.testing.assert_array_equal(
            decode_features(x), images.reshape(2, 1, 3, 4).astype(np.float32) / 255.0
        )

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        img = tmp_path / "i.idx"
        lbl = tmp_path / "l.idx"
        img.write_bytes(idx_images(np.full((1, 2, 2), 255, dtype=np.uint8)))
        lbl.write_bytes(idx_labels([0]))
        x, _ = read_idx(img, lbl)
        np.testing.assert_array_equal(decode_features(x), np.ones((1, 1, 2, 2), dtype=np.float32))

    def test_bad_image_magic_reports_offset(self, tmp_path, idx_pair):
        _, lbl_path, _, _ = idx_pair
        img = tmp_path / "bad.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4))
        with pytest.raises(FormatError, match="bad magic 0x00000801 at offset 0"):
            read_idx(img, lbl_path)

    def test_bad_label_magic(self, tmp_path, idx_pair):
        img_path, _, _, _ = idx_pair
        lbl = tmp_path / "bad.idx"
        lbl.write_bytes(struct.pack(">II", 0x00000803, 2) + bytes(2))
        with pytest.raises(FormatError, match="bad magic"):
            read_idx(img_path, lbl)

    def test_truncated_header(self, tmp_path, idx_pair):
        _, lbl_path, _, _ = idx_pair
        img = tmp_path / "short.idx"
        img.write_bytes(b"\x00\x00\x08")
        with pytest.raises(FormatError, match="truncated header.*ends at 3"):
            read_idx(img, lbl_path)

    def test_truncated_pixels_names_expected_length(self, tmp_path, idx_pair):
        _, lbl_path, _, _ = idx_pair
        img = tmp_path / "short.idx"
        img.write_bytes(idx_images(np.zeros((2, 3, 4), dtype=np.uint8))[:-5])
        with pytest.raises(FormatError, match="needed 40 bytes, file ends at 35"):
            read_idx(img, lbl_path)

    def test_trailing_bytes_rejected(self, tmp_path, idx_pair):
        _, lbl_path, _, _ = idx_pair
        img = tmp_path / "long.idx"
        img.write_bytes(idx_images(np.zeros((2, 3, 4), dtype=np.uint8)) + b"xx")
        with pytest.raises(FormatError, match="2 trailing bytes at offset 40"):
            read_idx(img, lbl_path)

    def test_count_mismatch(self, tmp_path, idx_pair):
        img_path, _, _, _ = idx_pair
        lbl = tmp_path / "three.idx"
        lbl.write_bytes(idx_labels([0, 1, 2]))
        with pytest.raises(FormatError, match="count mismatch"):
            read_idx(img_path, lbl)

    def test_zero_images_rejected(self, tmp_path):
        img = tmp_path / "empty.idx"
        lbl = tmp_path / "l.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000803, 0, 3, 4))
        lbl.write_bytes(idx_labels([]))
        with pytest.raises(FormatError, match="image count is 0 at offset 4"):
            read_idx(img, lbl)

    @pytest.mark.parametrize("rows,cols,message", [
        (0, 28, "row count is 0 at offset 8"),
        (28, 0, "column count is 0 at offset 12"),
    ])
    def test_zero_image_side_rejected(self, tmp_path, rows, cols, message):
        img = tmp_path / "flat.idx"
        lbl = tmp_path / "l.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000803, 2, rows, cols))
        lbl.write_bytes(idx_labels([0, 1]))
        with pytest.raises(FormatError, match=message):
            read_idx(img, lbl)
        desc = DatasetDescriptor(kind="idx", images_path=img, labels_path=lbl)
        with pytest.raises(FormatError, match=message):
            load_dataset(desc)

    def test_label_out_of_class_range(self, idx_pair):
        img_path, lbl_path, _, _ = idx_pair
        with pytest.raises(ValueError, match="label 7 out of range for 4 classes at offset 8"):
            read_idx(img_path, lbl_path, num_classes=4)
        read_idx(img_path, lbl_path, num_classes=8)  # 7 is legal here

    def test_first_out_of_range_label_names_its_offset(self, tmp_path):
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        img.write_bytes(idx_images(np.zeros((5, 2, 2), dtype=np.uint8)))
        lbl.write_bytes(idx_labels([1, 3, 5, 9, 0]))
        with pytest.raises(FormatError, match="label 5 out of range for 4 classes at offset 10"):
            read_idx(img, lbl, num_classes=4)
        desc = DatasetDescriptor(kind="idx", images_path=img, labels_path=lbl)
        with pytest.raises(FormatError, match="at offset 10"):
            load_dataset(desc, expected_classes=4)


class TestStoredPixels:
    """IDX rows stay uint8 until a batch is read; decoded batches are the bits
    the whole-array float32 decode gave."""

    @given(
        pixels=hnp.arrays(np.uint8, st.tuples(st.integers(1, 40), st.just(1),
                                               st.integers(1, 5), st.integers(1, 5))),
        batch=st.integers(1, 41),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_batches_match_whole_array_decode(self, pixels, batch, seed):
        pixels.flat[0], pixels.flat[-1] = 0, 255
        want = idx_pixels_whole_array(pixels)
        perm = np.random.default_rng(seed).permutation(len(pixels))
        for start in range(0, len(pixels), batch):  # the last batch may be short
            idx = perm[start : start + batch]
            got = decode_features(pixels[idx])
            assert got.dtype == np.float32
            assert got.tobytes() == want[idx].tobytes()

    def test_every_pixel_value(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(256, 1, 1, 1)
        assert decode_features(pixels).tobytes() == idx_pixels_whole_array(pixels).tobytes()

    def test_float_rows_pass_through(self):
        rows = np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4)
        assert decode_features(rows) is rows

    def test_split_holds_the_file_pixels(self, tmp_path):
        pixels = np.random.default_rng(1).integers(0, 256, (10, 3, 4), dtype=np.uint8)
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        img.write_bytes(idx_images(pixels))
        lbl.write_bytes(idx_labels(np.arange(10) % 3))
        data = load_dataset(DatasetDescriptor(kind="idx", images_path=img, labels_path=lbl))
        assert data.train_x.dtype == data.val_x.dtype == np.uint8
        stored = np.concatenate([data.train_x, data.val_x])
        assert stored.tobytes() == pixels.tobytes()
        assert data.input_shape == (1, 3, 4)

    def test_load_dataset_peak_is_the_file(self, tmp_path):
        # a whole-set float32 copy of the pixels (4x the file) fails this
        count, side = 1000, 28
        pixels = np.random.default_rng(0).integers(0, 256, (count, side, side), dtype=np.uint8)
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        img.write_bytes(idx_images(pixels))
        lbl.write_bytes(idx_labels(np.arange(count) % 10))
        desc = DatasetDescriptor(kind="idx", images_path=img, labels_path=lbl)
        data, peak = peak_bytes(load_dataset, desc)
        labels = data.train_y.nbytes + data.val_y.nbytes
        assert peak <= img.stat().st_size + labels + 64 * 1024


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx_fuzz")


class TestLoadIdxFuzz:
    """Mutated image/label pairs either load or raise FormatError naming an offset."""

    @given(
        # (count, rows, cols) of the pair before mutation, 0 included
        dims=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        # (in the label file?, position, new byte)
        edits=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(0, 255)),
                       max_size=4),
        cuts=st.tuples(st.one_of(st.none(), st.integers(0, 10**6)),
                       st.one_of(st.none(), st.integers(0, 10**6))),
        tails=st.tuples(st.binary(max_size=8), st.binary(max_size=8)),
    )
    @settings(max_examples=300, deadline=None)
    def test_only_format_error_escapes(self, fuzz_dir, dims, edits, cuts, tails):
        count, rows, cols = dims
        pixels = np.arange(count * rows * cols, dtype=np.uint8).reshape(count, rows, cols)
        blobs = [bytearray(idx_images(pixels)), bytearray(idx_labels(np.arange(count) % 10))]
        for in_labels, pos, value in edits:
            blob = blobs[in_labels]
            blob[pos % len(blob)] = value
        for blob, cut, tail in zip(blobs, cuts, tails):
            if cut is not None:
                del blob[cut % (len(blob) + 1):]
            blob += tail
        img, lbl = fuzz_dir / "imgs.idx", fuzz_dir / "lbls.idx"
        img.write_bytes(bytes(blobs[0]))
        lbl.write_bytes(bytes(blobs[1]))
        try:
            read_idx(img, lbl)
        except FormatError as exc:
            assert "offset" in str(exc)


def blob_desc(**kw):
    defaults = dict(kind="blobs", dims=8, classes=3, samples=31, noise=0.1, seed=0)
    defaults.update(kw)
    return DatasetDescriptor(**defaults)


class TestSynthBlobs:
    def test_deterministic_for_seed(self):
        x1, y1 = synth_blobs(blob_desc())
        x2, y2 = synth_blobs(blob_desc())
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_different_seed_differs(self):
        x1, _ = synth_blobs(blob_desc(seed=0))
        x2, _ = synth_blobs(blob_desc(seed=1))
        assert not np.array_equal(x1, x2)

    def test_round_robin_labels(self):
        _, y = synth_blobs(blob_desc(samples=31, classes=3))
        counts = np.bincount(y, minlength=3)
        assert counts.tolist() == [11, 10, 10]
        np.testing.assert_array_equal(y[:6], [0, 1, 2, 0, 1, 2])

    def test_zero_noise_collapses_onto_centers(self):
        x, y = synth_blobs(blob_desc(noise=0.0, samples=9, classes=3))
        for cls in range(3):
            cluster = x[y == cls]
            assert np.ptp(cluster, axis=0).max() == 0.0

    def test_min_center_distance_is_one(self):
        x, y = synth_blobs(blob_desc(noise=0.0, samples=6, classes=3, dims=5))
        centers = np.stack([x[y == c][0] for c in range(3)]).astype(np.float64)
        d01 = np.linalg.norm(centers[0] - centers[1])
        d02 = np.linalg.norm(centers[0] - centers[2])
        d12 = np.linalg.norm(centers[1] - centers[2])
        assert min(d01, d02, d12) == pytest.approx(1.0, rel=1e-6)

    def test_output_types(self):
        x, y = synth_blobs(blob_desc())
        assert x.dtype == np.float32
        assert y.dtype == np.int64
        assert x.shape == (31, 8)

    @pytest.mark.parametrize("samples,dims", [(200, 784), (3, BLOB_BLOCK_VALUES + 7)],
                             ids=["rows_not_multiple_of_block", "dims_wider_than_block"])
    def test_matches_one_shot_generator(self, samples, dims):
        desc = blob_desc(samples=samples, dims=dims, classes=3, noise=0.3, seed=5)
        x, y = synth_blobs(desc)
        want_x, want_y = synth_blobs_one_shot(mix_seed(5, DATA_STREAM), 3, dims, samples, 0.3)
        assert x.tobytes() == want_x.tobytes()
        assert y.tobytes() == want_y.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 8, 24, 31 * 8, 32 * 8])
    def test_block_edges_match_one_shot_generator(self, monkeypatch, block):
        # dims=8, samples=31: blocks narrower than a row, of exactly one row,
        # of three rows (31 is not a multiple), of all rows, and larger
        monkeypatch.setattr(datasets, "BLOB_BLOCK_VALUES", block)
        x, y = synth_blobs(blob_desc(seed=9))
        want_x, want_y = synth_blobs_one_shot(mix_seed(9, DATA_STREAM), 3, 8, 31, 0.1)
        assert x.tobytes() == want_x.tobytes()
        assert y.tobytes() == want_y.tobytes()

    def test_peak_memory_is_output_plus_one_block(self):
        # mlp_extreme's dataset; whole-dataset float64 temporaries fail this
        desc = blob_desc(samples=5120, dims=784, classes=10, noise=0.3, seed=1)
        synth_blobs(desc)  # numpy's one-off first-call allocations are not the generator's
        (x, y), peak = peak_bytes(synth_blobs, desc)
        block_bytes = 8 * BLOB_BLOCK_VALUES
        # the noise block and its gathered centers, plus labels and centers
        assert peak <= x.nbytes + 2 * block_bytes + y.nbytes + 256 * 1024

    # at seed 11 the closest of 3 centers are the last two
    @pytest.mark.parametrize("classes,dims", [(3, 8), (64, 100), (100, 16), (40, 784)])
    def test_center_distances_match_one_shot_generator(self, classes, dims):
        # the closest pair of centers, found a row at a time, against every pair at once
        x, y = synth_blobs(blob_desc(samples=2 * classes, dims=dims, classes=classes,
                                     noise=0.3, seed=11))
        want_x, want_y = synth_blobs_one_shot(mix_seed(11, DATA_STREAM), classes, dims,
                                              2 * classes, 0.3)
        assert x.tobytes() == want_x.tobytes()
        assert y.tobytes() == want_y.tobytes()

    def test_center_distances_need_no_pairwise_array(self):
        # every pair of 100 centers at once would be 100*100*784 float64s (62.7 MB)
        desc = blob_desc(samples=100, dims=784, classes=100, noise=0.3, seed=1)
        synth_blobs(desc)
        (x, y), peak = peak_bytes(synth_blobs, desc)
        centers_bytes = 8 * desc.classes * desc.dims
        # the centers and two row-sized temporaries, the noise block and its
        # gathered centers, and the output
        assert peak <= 3 * centers_bytes + 2 * 8 * BLOB_BLOCK_VALUES + x.nbytes + y.nbytes \
            + 256 * 1024, f"{peak} bytes"

    def test_rejects_idx_descriptor(self, tmp_path):
        img = tmp_path / "i.idx"
        lbl = tmp_path / "l.idx"
        img.write_bytes(idx_images(np.zeros((1, 2, 2), dtype=np.uint8)))
        lbl.write_bytes(idx_labels([0]))
        desc = DatasetDescriptor(kind="idx", images_path=img, labels_path=lbl)
        with pytest.raises(ConfigError, match="blobs descriptor"):
            synth_blobs(desc)


class TestDescriptorValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="dataset kind"):
            DatasetDescriptor(kind="csv")

    def test_split_bounds(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError, match="split"):
                blob_desc(split=bad)

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError, match="paths"):
            DatasetDescriptor(kind="idx")

    def test_blob_parameter_floors(self):
        with pytest.raises(ConfigError, match="classes"):
            blob_desc(classes=1)
        with pytest.raises(ConfigError, match="dims"):
            blob_desc(dims=1)
        with pytest.raises(ConfigError, match="fewer samples"):
            blob_desc(samples=2, classes=3)
        with pytest.raises(ConfigError, match="noise"):
            blob_desc(noise=-0.1)
        for noise in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="noise must be finite"):
                blob_desc(noise=noise)


class TestLoadDataset:
    def test_prefix_split(self):
        data = load_dataset(blob_desc(samples=30, split=0.8))
        assert len(data.train_x) == 24
        assert len(data.val_x) == 6
        x, y = synth_blobs(blob_desc(samples=30, split=0.8))
        np.testing.assert_array_equal(data.train_x, x[:24])
        np.testing.assert_array_equal(data.val_y, y[24:])

    def test_fractional_train_count_is_truncated(self):
        # 0.85 * 30 = 25.5: truncating keeps 25 training rows, rounding 26
        data = load_dataset(blob_desc(samples=30, split=0.85))
        assert (len(data.train_x), len(data.val_x)) == (25, 5)

    def test_blob_metadata(self):
        data = load_dataset(blob_desc())
        assert data.input_shape == (8,)

    def test_idx_end_to_end(self, idx_pair, tmp_path):
        images = np.zeros((10, 4, 4), dtype=np.uint8)
        labels = list(range(10))
        img = tmp_path / "i.idx"
        lbl = tmp_path / "l.idx"
        img.write_bytes(idx_images(images))
        lbl.write_bytes(idx_labels(labels))
        desc = DatasetDescriptor(kind="idx", images_path=img, labels_path=lbl, split=0.8)
        data = load_dataset(desc)
        assert data.input_shape == (1, 4, 4)
        assert len(data.train_x) == 8

    def test_read_input_shape_matches_loaded_shape(self, tmp_path):
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        img.write_bytes(idx_images(np.zeros((5, 3, 7), dtype=np.uint8)))
        lbl.write_bytes(idx_labels([0, 1, 0, 1, 0]))
        for desc in (DatasetDescriptor(kind="idx", images_path=img, labels_path=lbl),
                     blob_desc()):
            assert read_input_shape(desc) == load_dataset(desc).input_shape

    def test_class_count_disagreement(self):
        with pytest.raises(ConfigError, match="classes"):
            load_dataset(blob_desc(classes=3), expected_classes=5)

    def test_degenerate_split_rejected(self):
        # int(0.1 * 4) = 0 training samples
        with pytest.raises(ConfigError, match="empty train or val"):
            load_dataset(blob_desc(samples=4, classes=3, split=0.1))
