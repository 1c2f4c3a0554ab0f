"""Checkpoint container: byte layout, round trips, and corruption reporting.

The expected-bytes test builds the file by hand with struct.pack so the wire
format is pinned independently of the writer.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featherprune.analysis import MaskSnapshot
from featherprune.checkpoint import (
    MAGIC,
    MASK_SUFFIX,
    VERSION,
    load_checkpoint,
    load_snapshots,
    model_records,
    restore_model,
    save_checkpoint,
    snapshot_records,
)
from featherprune.errors import FormatError
from featherprune.models import build_mlp
from featherprune.seeding import init_rng

from memtrace import peak_bytes
from oracles import snapshot_records_u8


def sample_records():
    return {
        "fc0/weight": np.float32([[1.5, -2.0], [0.25, 0.0]]),
        "fc0/bias": np.float32([0.5, -0.5]),
        "fc0/mask": np.array([[1, 0], [1, 1]], dtype=np.uint8),
        "fc0/threshold": np.float32([0.125]),
    }


class TestWireFormat:
    def test_hand_packed_file_loads(self, tmp_path):
        # one scalar-rank-1 float record, built without the writer
        name = b"fc0/bias"
        data = np.float32([1.0, 2.0])
        blob = (
            MAGIC
            + struct.pack("<II", VERSION, 1)
            + struct.pack("<I", len(name)) + name
            + struct.pack("<I", 1)
            + struct.pack("<I", 2)
            + data.astype("<f4").tobytes()
        )
        path = tmp_path / "hand.fthr"
        path.write_bytes(blob)
        records = load_checkpoint(path)
        np.testing.assert_array_equal(records["fc0/bias"], data)

    def test_writer_emits_expected_bytes(self, tmp_path):
        path = tmp_path / "one.fthr"
        save_checkpoint(path, {"w": np.float32([3.0])})
        expected = (
            MAGIC
            + struct.pack("<II", VERSION, 1)
            + struct.pack("<I", 1) + b"w"
            + struct.pack("<I", 1)
            + struct.pack("<I", 1)
            + np.float32([3.0]).tobytes()
        )
        assert path.read_bytes() == expected

    def test_mask_records_are_one_byte_per_element(self, tmp_path):
        path = tmp_path / "m.fthr"
        save_checkpoint(path, {"fc0/mask": np.array([1, 0, 1], dtype=np.uint8)})
        # 4 magic + 8 header + 4 + 8 name + 4 rank + 4 dim + 3 payload
        assert len(path.read_bytes()) == 4 + 8 + 4 + 8 + 4 + 4 + 3


class TestRoundTrip:
    def test_values_dtypes_and_order_survive(self, tmp_path):
        path = tmp_path / "ck.fthr"
        original = sample_records()
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(original)
        for name in original:
            np.testing.assert_array_equal(loaded[name], original[name])
        assert loaded["fc0/weight"].dtype == np.float32
        assert loaded["fc0/mask"].dtype == np.uint8

    def test_save_load_save_is_byte_identical(self, tmp_path):
        p1 = tmp_path / "a.fthr"
        p2 = tmp_path / "b.fthr"
        save_checkpoint(p1, sample_records())
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bool_masks_coerced_to_u8(self, tmp_path):
        path = tmp_path / "b.fthr"
        save_checkpoint(path, {"fc0/mask": np.array([True, False])})
        loaded = load_checkpoint(path)
        assert loaded["fc0/mask"].dtype == np.uint8
        np.testing.assert_array_equal(loaded["fc0/mask"], [1, 0])

    def test_rank_zero_record(self, tmp_path):
        path = tmp_path / "s.fthr"
        save_checkpoint(path, {"scalar": np.float32(7.0).reshape(())})
        loaded = load_checkpoint(path)
        assert loaded["scalar"].shape == ()
        assert loaded["scalar"] == np.float32(7.0)

    def test_empty_container(self, tmp_path):
        path = tmp_path / "e.fthr"
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}


class TestSaveValidation:
    def test_float64_weights_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(tmp_path / "x.fthr", {"w": np.array([1.0])})

    def test_float_mask_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bool or u8"):
            save_checkpoint(tmp_path / "x.fthr", {"a/mask": np.float32([1.0])})

    def test_bad_record_leaves_existing_file_untouched(self, tmp_path):
        path = tmp_path / "final.fthr"
        save_checkpoint(path, sample_records())
        before = path.read_bytes()
        records = {"a/weight": np.float32([1.0]), "a/bias": np.float32([2.0]),
                   "b/weight": np.array([3.0]), "b/bias": np.float32([4.0])}
        with pytest.raises(ValueError, match="'b/weight' must be float32"):
            save_checkpoint(path, records)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final.fthr"]

    def test_failure_mid_write_removes_temp_file(self, tmp_path):
        # the unencodable name is only met while streaming, after the header
        path = tmp_path / "final.fthr"
        save_checkpoint(path, sample_records())
        before = path.read_bytes()
        records = {"a/weight": np.float32([1.0]), "b\udcff/weight": np.float32([2.0])}
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(path, records)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final.fthr"]


class TestStreamedWrite:
    def test_peak_memory_is_largest_record(self, tmp_path):
        # records go to the file one at a time: only a bool mask (converted to
        # u8) or a non-contiguous record is copied, never the whole payload
        rng = np.random.default_rng(0)
        records = {
            "fc0/weight": rng.standard_normal((784, 300)).astype(np.float32),
            "fc0/mask": rng.random((784, 300)) < 0.5,
            "fc1/weight": rng.standard_normal((100, 300)).astype(np.float32).T,
            "fc1/mask": np.ones((300, 100), dtype=np.uint8),
        }
        path = tmp_path / "big.fthr"
        save_checkpoint(path, records)  # numpy's one-off first-call allocations
        _, peak = peak_bytes(save_checkpoint, path, records)
        assert peak <= max(arr.nbytes for arr in records.values()) + 64 * 1024
        loaded = load_checkpoint(path)
        for name, arr in records.items():
            assert loaded[name].tobytes() == np.asarray(arr).astype(loaded[name].dtype).tobytes()

    def test_mask_history_peaks_at_one_unpacked_epoch(self, tmp_path):
        # masks.bin unpacks one record of one packed snapshot at a time; the
        # whole u8 history (20 epochs of 266,200 weights) is never built
        rng = np.random.default_rng(0)
        shapes = {"fc0": (784, 300), "fc1": (300, 100), "fc2": (100, 10)}
        snaps = [MaskSnapshot(e, {name: rng.random(shape) < 0.02
                                  for name, shape in shapes.items()})
                 for e in range(20)]
        path, want = tmp_path / "masks.bin", tmp_path / "want.bin"
        save_checkpoint(path, snapshot_records(snaps))
        _, peak = peak_bytes(lambda: save_checkpoint(path, snapshot_records(snaps)))
        assert peak <= sum(map(math.prod, shapes.values())) + 64 * 1024, f"peak {peak} bytes"
        save_checkpoint(want, snapshot_records_u8(snaps))
        assert path.read_bytes() == want.read_bytes()


class TestLoadedViews:
    """``load_checkpoint`` reads the file once and hands out views of it."""

    @staticmethod
    def owner(arr):
        while isinstance(arr, np.ndarray):
            arr = arr.base
        return arr

    def test_records_are_read_only_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "ck.fthr"
        save_checkpoint(path, sample_records())
        loaded = load_checkpoint(path)
        owners = {id(self.owner(arr)) for arr in loaded.values()}
        assert len(owners) == 1
        assert self.owner(loaded["fc0/weight"]) == path.read_bytes()
        for name, arr in loaded.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_mask_history_load_peaks_at_the_file(self, tmp_path):
        # a u8 copy of each record on top of the file's bytes (2x) fails this
        rng = np.random.default_rng(0)
        shapes = {"fc0": (784, 300), "fc1": (300, 100), "fc2": (100, 10)}
        snaps = [MaskSnapshot(e, {name: rng.random(shape) < 0.02
                                  for name, shape in shapes.items()})
                 for e in range(20)]
        path = tmp_path / "masks.bin"
        save_checkpoint(path, snapshot_records(snaps))
        load_checkpoint(path)  # numpy's one-off first-call allocations
        records, peak = peak_bytes(load_checkpoint, path)
        size = path.stat().st_size
        assert peak <= size + 64 * 1024, f"peak {peak} bytes for a {size}-byte file"
        assert len(records) == 60
        np.testing.assert_array_equal(records["epoch0019/fc1/mask"], snaps[19].unpacked("fc1"))


class TestLoadErrors:
    def write(self, tmp_path, blob):
        path = tmp_path / "bad.fthr"
        path.write_bytes(blob)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write(tmp_path, b"NOPE" + bytes(8))
        with pytest.raises(FormatError, match="bad magic b'NOPE' at offset 0"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = self.write(tmp_path, MAGIC + struct.pack("<II", 99, 0))
        with pytest.raises(FormatError, match="version 99 at offset 4"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = self.write(tmp_path, MAGIC + b"\x01")
        with pytest.raises(FormatError, match="header needs 8 bytes at offset 4"):
            load_checkpoint(path)

    def test_truncated_record_data_names_record(self, tmp_path):
        good = tmp_path / "good.fthr"
        save_checkpoint(good, {"fc0/weight": np.float32([1.0, 2.0])})
        path = self.write(tmp_path, good.read_bytes()[:-4])
        with pytest.raises(FormatError, match=r"record 0 \(fc0/weight\) data"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        good = tmp_path / "good.fthr"
        save_checkpoint(good, {"w": np.float32([1.0])})
        n = len(good.read_bytes())
        path = self.write(tmp_path, good.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=f"1 trailing bytes at offset {n}"):
            load_checkpoint(path)

    def test_duplicate_names(self, tmp_path):
        record = (
            struct.pack("<I", 1) + b"w"
            + struct.pack("<I", 1) + struct.pack("<I", 1)
            + np.float32([1.0]).tobytes()
        )
        path = self.write(tmp_path, MAGIC + struct.pack("<II", VERSION, 2) + record + record)
        with pytest.raises(FormatError, match="duplicate record name 'w'"):
            load_checkpoint(path)

    def test_non_utf8_name_names_record_and_offset(self, tmp_path):
        good = tmp_path / "good.fthr"
        save_checkpoint(good, {"ab": np.float32([1.0])})
        blob = bytearray(good.read_bytes())
        blob[16 + 1] = 0xFF  # second name byte: after magic, header, name length
        path = self.write(tmp_path, bytes(blob))
        with pytest.raises(FormatError, match="record 0 name is not UTF-8: byte 0xff at offset 17"):
            load_checkpoint(path)

    def test_rank_beyond_numpy_limit(self, tmp_path):
        rank = 70
        record = (
            struct.pack("<I", 1) + b"w"
            + struct.pack("<I", rank) + struct.pack(f"<{rank}I", 0, *[1] * (rank - 1))
        )
        path = self.write(tmp_path, MAGIC + struct.pack("<II", VERSION, 1) + record)
        with pytest.raises(FormatError, match=r"record 0 \(w\) rank 70 at offset 17"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoaderFuzz:
    """Mutated checkpoints either load or raise FormatError naming an offset."""

    @given(
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
        tail=st.binary(max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_only_format_error_escapes(self, fuzz_dir, edits, cut, tail):
        path = fuzz_dir / "fuzz.fthr"
        save_checkpoint(path, {**sample_records(), "scalar": np.float32(2.0).reshape(())})
        blob = bytearray(path.read_bytes())
        for pos, value in edits:
            blob[pos % len(blob)] = value
        if cut is not None:
            del blob[cut % (len(blob) + 1):]
        blob += tail
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except FormatError as exc:
            assert "offset" in str(exc)


class TestModelBridge:
    def test_model_records_names(self):
        model = build_mlp(4, [3], 2, init_rng(0))
        records = model_records(model)
        assert list(records) == ["fc0/weight", "fc0/bias", "fc1/weight", "fc1/bias"]

    def test_state_records_appended(self):
        from featherprune.feather import PruneLayerState
        from featherprune.thresholding import ThresholdOperator
        model = build_mlp(4, [], 2, init_rng(0))
        state = PruneLayerState(
            "fc0", "fc", model.layers[0].weight, ThresholdOperator.soft(),
            threshold=0.25, mask=np.ones((4, 2), dtype=bool),
        )
        records = model_records(model, [state])
        np.testing.assert_array_equal(records["fc0/threshold"], np.float32([0.25]))
        assert records["fc0/mask"].dtype == np.uint8
        assert records["fc0" + MASK_SUFFIX].shape == (4, 2)

    def test_restore_round_trip(self, tmp_path):
        source = build_mlp(5, [4], 3, init_rng(1))
        path = tmp_path / "m.fthr"
        save_checkpoint(path, model_records(source))
        target = build_mlp(5, [4], 3, init_rng(2))
        restore_model(target, load_checkpoint(path))
        for a, b in zip(source.layers, target.layers):
            np.testing.assert_array_equal(a.weight.data, b.weight.data)
            np.testing.assert_array_equal(a.bias.data, b.bias.data)

    def test_restore_missing_record(self):
        model = build_mlp(4, [], 2, init_rng(0))
        with pytest.raises(FormatError, match="missing record 'fc0/weight'"):
            restore_model(model, {})

    def test_restore_shape_mismatch(self):
        model = build_mlp(4, [], 2, init_rng(0))
        records = model_records(model)
        records["fc0/weight"] = np.zeros((2, 4), dtype=np.float32)
        with pytest.raises(FormatError, match="shape"):
            restore_model(model, records)

    @pytest.mark.parametrize("extra", ["fc1/weight", "fc0", "fc/0/weight"])
    def test_restore_record_of_a_layer_the_model_lacks(self, extra):
        model = build_mlp(4, [], 2, init_rng(0))
        records = model_records(model)
        records[extra] = np.zeros(1, dtype=np.float32)
        with pytest.raises(FormatError, match=f"^record '{extra}' belongs to no layer "
                                              r"of the model \(fc0\)$"):
            restore_model(model, records)

    def test_snapshot_records_naming(self):
        snaps = [
            MaskSnapshot(0, {"fc0": np.array([True, False])}),
            MaskSnapshot(12, {"fc0": np.array([True, True])}),
        ]
        records = snapshot_records(snaps)
        assert list(records) == ["epoch0000/fc0/mask", "epoch0012/fc0/mask"]
        np.testing.assert_array_equal(records["epoch0012/fc0/mask"], [1, 1])

    def test_load_snapshots_returns_what_snapshot_records_wrote(self, tmp_path):
        rng = np.random.default_rng(4)
        shapes = {"conv1": (4, 1, 3, 3), "fc0": (6, 5), "fc1": (5, 3)}
        snaps = [MaskSnapshot(epoch, {name: rng.random(shape) < 0.3
                                      for name, shape in shapes.items()})
                 for epoch in (3, 0, 12)]
        path = tmp_path / "masks.bin"
        save_checkpoint(path, snapshot_records(snaps))
        back = load_snapshots(path)
        assert [snap.epoch for snap in back] == [0, 3, 12]
        for want, got in zip(sorted(snaps, key=lambda snap: snap.epoch), back):
            assert got.layers == list(shapes)
            for name, mask in want.masks.items():
                assert got.masks[name].shape == shapes[name]
                np.testing.assert_array_equal(got.masks[name], mask)

    @pytest.mark.parametrize("name", ["epochX/fc0/mask", "epoch/fc0/mask",
                                      "step0001/fc0/mask", "epoch0001/fc0/weight"])
    def test_load_snapshots_names_unexpected_record(self, tmp_path, name):
        path = tmp_path / "masks.bin"
        value = np.ones(2, dtype=np.uint8 if name.endswith(MASK_SUFFIX) else np.float32)
        save_checkpoint(path, {"epoch0000/fc0/mask": np.ones(2, dtype=np.uint8), name: value})
        with pytest.raises(FormatError, match=f"unexpected record '{name}'"):
            load_snapshots(path)

    def test_load_snapshots_rejects_a_repeated_epoch(self, tmp_path):
        # epoch1 and epoch0001 are both epoch 1: neither may silently win
        path = tmp_path / "masks.bin"
        save_checkpoint(path, {"epoch1/fc0/mask": np.array([1, 0], dtype=np.uint8),
                               "epoch0001/fc0/mask": np.array([0, 1], dtype=np.uint8)})
        with pytest.raises(FormatError, match="records 'epoch1/fc0/mask' and "
                                              "'epoch0001/fc0/mask' both hold epoch 1"):
            load_snapshots(path)
