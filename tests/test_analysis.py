"""Mask-stability Pearson curves and dense/sparse FLOPs accounting.

Pearson values are cross-checked against a float64 textbook implementation in
oracles.py; FLOPs examples are hand arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from featherprune.analysis import (
    FlopsReport,
    LayerFlops,
    MaskSnapshot,
    _pearson,
    curve_to_csv,
    flops_count,
    mask_pearson,
    stability_curve,
)
from featherprune.models import build_cnn, build_mlp
from featherprune.seeding import init_rng

from memtrace import peak_bytes
from oracles import BoolMaskSnapshot, stability_curve_bool
from oracles import pearson as pearson_oracle


def bools(*values):
    return np.array(values, dtype=bool)


class TestMaskPearson:
    def test_identical_nonconstant_is_one(self):
        a = bools(1, 0, 1, 1, 0)
        r = mask_pearson(a, a.copy())
        assert r == 1.0 and type(r) is float

    def test_complement_is_minus_one(self):
        a = bools(1, 1, 0, 0)
        assert mask_pearson(a, ~a) == -1.0

    def test_orthogonal_pattern_is_zero(self):
        assert mask_pearson(bools(1, 1, 0, 0), bools(1, 0, 1, 0)) == 0.0

    def test_symmetry(self):
        a = bools(1, 0, 0, 1, 1, 0)
        b = bools(0, 0, 1, 1, 0, 1)
        assert mask_pearson(a, b) == mask_pearson(b, a)

    def test_degenerate_identical_constant(self):
        a = bools(1, 1, 1)
        assert mask_pearson(a, a.copy()) == 1.0

    def test_degenerate_constant_vs_mixed(self):
        assert mask_pearson(bools(0, 0, 0), bools(1, 0, 0)) == 0.0

    def test_degenerate_two_different_constants(self):
        assert mask_pearson(bools(1, 1), bools(0, 0)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            mask_pearson(bools(1, 0), bools(1, 0, 1))

    def test_counts_whose_products_pass_int64(self):
        # n·|a|(n−|a|)·|b|(n−|b|) is about 2^76 here
        rng = np.random.default_rng(1)
        a = rng.random(1 << 20) < 0.5
        b = a ^ (rng.random(a.size) < 0.1)
        assert mask_pearson(a, b) == pytest.approx(pearson_oracle(a, b), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            mask_pearson(bools(1), bools(0))

    @pytest.mark.parametrize("n", [2, 3, 8, 2**20 + 1, 25_600_000])
    def test_extremal_tables_stay_in_range_unclamped(self, n):
        """Complementary masks give exactly -1.0, and a mask one flip from
        identical or from complementary gives |r| < 1: the tables nearest
        the ends of [-1, 1] land inside it without a clamp."""
        for na in sorted({1, n // 2, n - 1}):
            assert _pearson(n, na, n - na, 0) == -1.0
            one_flip = [(na + 1, na), (na - 1, na - 1), (n - na + 1, 1), (n - na - 1, 0)]
            for nb, nab in one_flip:
                if 0 <= nb <= n and max(0, na + nb - n) <= nab <= min(na, nb):
                    assert abs(_pearson(n, na, nb, nab)) < 1.0

    @given(
        pair=st.lists(
            st.tuples(st.booleans(), st.booleans()), min_size=2, max_size=200
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_textbook_formula(self, pair):
        a = np.array([p[0] for p in pair], dtype=bool)
        b = np.array([p[1] for p in pair], dtype=bool)
        r = mask_pearson(a, b)
        assert -1.0 <= r <= 1.0
        if a.std() > 0 and b.std() > 0:
            assert r == pytest.approx(pearson_oracle(a, b), abs=1e-12)
        else:
            assert r == (1.0 if np.array_equal(a, b) else 0.0)


def same_bits(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


class TestMaskPearsonOneCopy:
    """Pearson r is taken from counts: ``mask_pearson`` makes one N-byte array
    (a AND b), and ``stability_curve`` reads the packed bytes, unpacking none."""

    def test_peak_is_one_float64_pair(self):
        n = 266_200  # the 784-300-100-10 MLP's weights
        rng = np.random.default_rng(0)
        a, b = rng.random(n) < 0.02, rng.random(n) < 0.02
        _, peak = peak_bytes(mask_pearson, a, b)
        # the bound np.corrcoef's float64 pair once set; counting needs n bytes
        assert peak <= 2 * n * 8 + (1 << 20), f"peak {peak} bytes"

    def test_curve_peak_holds_no_unpacked_epoch(self):
        # a 20-epoch history of the 784-300-100-10 MLP's layers: one epoch
        # unpacked would be 266 KB, a layer's packed bytes at most 29 KB
        shapes = [(784, 300), (300, 100), (100, 10)]
        rng = np.random.default_rng(0)
        snaps = [MaskSnapshot(e, {f"fc{i}": rng.random(shape) < 0.02
                                  for i, shape in enumerate(shapes)})
                 for e in range(20)]
        stability_curve(snaps)  # numpy's one-off first-call allocations
        _, peak = peak_bytes(stability_curve, snaps)
        assert peak <= 256 << 10, f"peak {peak} bytes"


class TestStabilityCurve:
    def test_final_point_is_exactly_one(self):
        rng = np.random.default_rng(0)
        snaps = [
            MaskSnapshot(e, {"fc0": rng.random(50) > 0.5}) for e in range(4)
        ]
        curve = stability_curve(snaps)
        assert curve[-1] == (3, 1.0)

    def test_constant_masks_give_flat_ones(self):
        mask = bools(1, 0, 1, 0, 1, 1)
        snaps = [MaskSnapshot(e, {"fc0": mask.copy()}) for e in range(5)]
        assert [r for _, r in stability_curve(snaps)] == [1.0] * 5

    def test_progressive_flips_increase_monotonically(self):
        # start from the final mask and flip a disjoint 10% chunk per step back
        rng = np.random.default_rng(7)
        final = rng.random(400) > 0.5
        snaps = []
        epochs = 6
        for e in range(epochs):
            mask = final.copy()
            flips = (epochs - 1 - e) * 40  # 10% per remaining epoch, disjoint
            mask[:flips] = ~mask[:flips]
            snaps.append(MaskSnapshot(e, {"fc0": mask}))
        values = [r for _, r in stability_curve(snaps)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_concatenates_across_layers(self):
        # each layer is constant (degenerate alone) but the pooled vector is not
        a = {"fc0": bools(1, 1), "fc1": bools(0, 0)}
        b = {"fc0": bools(1, 0), "fc1": bools(1, 0)}
        curve = stability_curve([MaskSnapshot(0, a), MaskSnapshot(1, b)])
        pooled_a = bools(1, 1, 0, 0)
        pooled_b = bools(1, 0, 1, 0)
        assert curve[0][1] == pytest.approx(pearson_oracle(pooled_a, pooled_b), abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="snapshots"):
            stability_curve([])

    @pytest.mark.parametrize("first", [
        # the same masks with fc1 listed first: position i of the two
        # concatenated vectors would be different weights
        {"fc1": bools(0, 1, 1), "fc0": bools(1, 0, 1, 0, 0, 1)},
        {"fc0": bools(1, 0, 1, 0, 0, 1), "fc9": bools(0, 1, 1)},  # renamed
        {"fc0": bools(1, 0, 1, 0, 0, 1).reshape(2, 3), "fc1": bools(0, 1, 1)},  # reshaped
    ])
    def test_layers_unlike_the_final_snapshot_rejected(self, first):
        final = {"fc0": bools(1, 0, 1, 0, 0, 1), "fc1": bools(0, 1, 1)}
        with pytest.raises(ValueError, match="epoch 0 masks have layers"):
            stability_curve([MaskSnapshot(0, first), MaskSnapshot(1, final)])

    def test_csv_shape(self):
        text = curve_to_csv([(0, 0.25), (1, 1.0)])
        lines = text.splitlines()
        assert lines[0] == "epoch,r"
        assert lines[1] == "0,0.25"
        assert lines[2] == "1,1.0"


def unaligned_shapes():
    """Shapes of rank 1, 2 or 4 whose element count is not a multiple of 8."""
    return (st.sampled_from([1, 2, 4])
            .flatmap(lambda rank: st.tuples(*[st.integers(1, 11)] * rank))
            .filter(lambda shape: math.prod(shape) % 8))


def snapshot_masks(rng, shapes, density, as_uint8):
    """One epoch's layer masks; u8 masks carry arbitrary nonzero kept values."""
    masks = {}
    for i, shape in enumerate(shapes):
        mask = rng.random(shape) < density
        if as_uint8:
            mask = mask * rng.integers(1, 256, size=shape, dtype=np.uint8)
        masks[f"layer{i}"] = mask
    return masks


class TestPackedSnapshot:
    """A snapshot keeps each layer one bit per weight and reads back fresh
    arrays of the original shapes, with nonzero entries as kept."""

    @given(shapes=st.lists(unaligned_shapes(), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1), as_uint8=st.booleans(),
           density=st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, shapes, seed, as_uint8, density):
        masks = snapshot_masks(np.random.default_rng(seed), shapes, density, as_uint8)
        snap = MaskSnapshot(7, masks)
        assert snap.epoch == 7 and snap.layers == list(masks)
        for name, mask in masks.items():
            kept = mask != 0
            wire = snap.unpacked(name)
            assert wire.dtype == np.uint8 and wire.shape == mask.shape
            assert wire.tobytes() == kept.astype(np.uint8).tobytes()

    def test_reads_are_fresh_arrays(self):
        mask = bools(1, 0, 1, 1, 0)
        snap = MaskSnapshot(0, {"fc0": mask})
        mask[:] = False
        snap.unpacked("fc0")[:] = 0
        np.testing.assert_array_equal(snap.unpacked("fc0"), [1, 0, 1, 1, 0])
        assert not np.shares_memory(snap.unpacked("fc0"), snap.unpacked("fc0"))

    @given(shapes=st.lists(unaligned_shapes(), min_size=1, max_size=3),
           epochs=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           as_uint8=st.booleans(), density=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_curve_bits_match_bool_snapshots(self, shapes, epochs, seed, as_uint8, density):
        if sum(math.prod(shape) for shape in shapes) < 2:
            return
        rng = np.random.default_rng(seed)
        history = [snapshot_masks(rng, shapes, density, as_uint8) for _ in range(epochs)]
        got = stability_curve([MaskSnapshot(e, masks) for e, masks in enumerate(history)])
        want = stability_curve_bool([BoolMaskSnapshot(e, masks)
                                     for e, masks in enumerate(history)])
        assert [e for e, _ in got] == [e for e, _ in want]
        assert all(same_bits(g, w) for (_, g), (_, w) in zip(got, want))


def half_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    mask.ravel()[: mask.size // 2] = True
    return mask


class TestFlopsCount:
    def test_fc_half_mask_example(self):
        model = build_mlp(100, [], 10, init_rng(0))
        report = flops_count(model, {"fc0": half_mask((100, 10))})
        assert report.layers[0].dense_flops == 2000
        assert report.layers[0].sparse_flops == 1000

    def test_all_true_equals_dense(self):
        model = build_mlp(20, [15], 5, init_rng(0))
        masks = {l.name: np.ones(l.weight.shape, dtype=bool) for l in model.layers}
        report = flops_count(model, masks)
        for row in report.layers:
            assert row.sparse_flops == row.dense_flops

    def test_all_false_is_zero(self):
        model = build_mlp(20, [15], 5, init_rng(0))
        masks = {l.name: np.zeros(l.weight.shape, dtype=bool) for l in model.layers}
        report = flops_count(model, masks)
        assert report.total_sparse == 0
        assert report.total_dense == 2 * (20 * 15 + 15 * 5)

    def test_conv_hand_computed(self):
        # 1x8x8 input, stride-2 3x3 convs with padding 1 -> 4x4 then 2x2 maps
        model = build_cnn((1, 8, 8), 3, init_rng(0))
        masks = {l.name: np.ones(l.weight.shape, dtype=bool) for l in model.layers}
        report = flops_count(model, masks)
        by_name = {row.layer: row for row in report.layers}
        assert by_name["conv1"].dense_flops == 2 * (8 * 1 * 3 * 3) * (4 * 4)
        assert by_name["conv2"].dense_flops == 2 * (16 * 8 * 3 * 3) * (2 * 2)
        assert by_name["fc0"].dense_flops == 2 * (16 * 2 * 2) * 3

    def test_conv_sparse_scales_with_kernel_nnz(self):
        model = build_cnn((1, 8, 8), 3, init_rng(0))
        masks = {l.name: np.ones(l.weight.shape, dtype=bool) for l in model.layers}
        masks["conv1"] = half_mask(model.layers[0].weight.shape)
        report = flops_count(model, masks)
        row = report.layers[0]
        assert row.sparse_flops == row.dense_flops // 2

    def test_totals_are_sums(self):
        report = FlopsReport([
            LayerFlops("a", 100, 40),
            LayerFlops("b", 50, 10),
        ])
        assert report.total_dense == 150
        assert report.total_sparse == 50

    def test_nested_masks_monotone(self):
        rng = np.random.default_rng(1)
        model = build_mlp(30, [20], 4, init_rng(0))
        order = {l.name: rng.permutation(l.weight.data.size) for l in model.layers}
        previous = None
        for keep in (1.0, 0.7, 0.4, 0.1, 0.0):
            masks = {}
            for layer in model.layers:
                flat = np.zeros(layer.weight.data.size, dtype=bool)
                flat[order[layer.name][: int(keep * flat.size)]] = True
                masks[layer.name] = flat.reshape(layer.weight.shape)
            total = flops_count(model, masks).total_sparse
            if previous is not None:
                assert total <= previous
            previous = total

    def test_missing_mask_rejected(self):
        model = build_mlp(10, [], 2, init_rng(0))
        with pytest.raises(ValueError, match="no mask"):
            flops_count(model, {})

    def test_shape_mismatch_rejected(self):
        model = build_mlp(10, [], 2, init_rng(0))
        with pytest.raises(ValueError, match="shape"):
            flops_count(model, {"fc0": np.ones((2, 10), dtype=bool)})

    def test_csv_has_total_row(self):
        model = build_mlp(100, [], 10, init_rng(0))
        report = flops_count(model, {"fc0": half_mask((100, 10))})
        lines = report.to_csv().splitlines()
        assert lines[0] == "layer,dense_flops,sparse_flops"
        assert lines[1] == "fc0,2000,1000"
        assert lines[-1] == "total,2000,1000"
