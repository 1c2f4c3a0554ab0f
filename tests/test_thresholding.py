"""Threshold operator family and order-statistic threshold selection.

Expected values for the power-law operator were frozen from a 30-digit
mpmath evaluation of (|w|^p - T^p)^(1/p), independent of the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from featherprune.errors import NonFiniteError
from featherprune.thresholding import (
    POWER_BLOCK,
    ThresholdOperator,
    apply_threshold,
    select_threshold,
)

from memtrace import peak_bytes

P3 = ThresholdOperator.power(3.0)
SOFT = ThresholdOperator.soft()
HARD = ThresholdOperator.hard()


def finite_f32(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=32)


weight_arrays = hnp.arrays(np.float32, st.integers(1, 64), elements=finite_f32(-1e6, 1e6))


class TestOperatorConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            ThresholdOperator("median")

    def test_power_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            ThresholdOperator.power(0.5)

    def test_nan_power_rejected(self):
        with pytest.raises(ValueError, match=">= 1, got nan"):
            ThresholdOperator.power(np.nan)

    def test_infinite_power_is_legal(self):
        assert ThresholdOperator.power(np.inf).p == np.inf


class TestApplyThresholdValues:
    """Point values of the operator family."""

    def test_soft_shrinks_by_threshold(self):
        pruned, mask = apply_threshold(np.float32([0.5]), 0.2, SOFT)
        np.testing.assert_allclose(pruned, [0.3], rtol=1e-6)
        assert mask.all()

    def test_below_threshold_is_zero_any_operator(self):
        for op in (SOFT, HARD, P3, ThresholdOperator.power(7.0)):
            pruned, mask = apply_threshold(np.float32([0.15]), 0.2, op)
            assert pruned[0] == 0.0
            assert not mask[0]

    def test_power3_frozen_value(self):
        pruned, _ = apply_threshold(np.float32([0.5]), 0.2, P3)
        np.testing.assert_allclose(pruned, [0.489097324650875], rtol=1e-6)

    def test_power3_negative_input(self):
        pruned, _ = apply_threshold(np.float32([-0.5]), 0.2, P3)
        np.testing.assert_allclose(pruned, [-0.489097324650875], rtol=1e-6)

    def test_power3_second_frozen_value(self):
        pruned, _ = apply_threshold(np.float32([0.3]), 0.2, P3)
        np.testing.assert_allclose(pruned, [0.266840164872194], rtol=1e-6)

    def test_power2_frozen_value(self):
        pruned, _ = apply_threshold(np.float32([0.5]), 0.2, ThresholdOperator.power(2.0))
        np.testing.assert_allclose(pruned, [0.458257569495584], rtol=1e-6)

    def test_hard_keeps_survivors_bitwise(self):
        w = np.float32([0.3, -0.7, 0.1])
        pruned, mask = apply_threshold(w, 0.2, HARD)
        assert pruned[0] == w[0] and pruned[1] == w[1]
        assert pruned[2] == 0.0
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_zero_threshold_is_identity(self):
        w = np.float32([0.5, -0.25, 1e-30])
        for op in (SOFT, HARD, P3):
            pruned, mask = apply_threshold(w, 0.0, op)
            assert pruned.tobytes() == w.tobytes()
            assert mask.all()

    def test_exact_zero_stays_pruned_at_zero_threshold(self):
        pruned, mask = apply_threshold(np.float32([0.0, 0.5]), 0.0, P3)
        assert not mask[0] and mask[1]
        assert pruned[0] == 0.0

    def test_matches_scalar_oracle_on_grid(self):
        w = np.linspace(-2, 2, 101).astype(np.float32)
        for p in (1.0, 2.0, 3.0, 4.0):
            pruned, _ = apply_threshold(w, 0.3, ThresholdOperator.power(p))
            want = [oracles.power_threshold(float(v), 0.3, p) for v in w]
            np.testing.assert_allclose(pruned, want, rtol=1e-5, atol=1e-7)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            apply_threshold(np.float32([np.inf]), 0.1, SOFT)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            apply_threshold(np.float32([1.0]), -0.1, SOFT)


class TestErrorContract:
    """Which error ``apply_threshold`` raises, and in what order: non-finite
    weights come first, before the threshold is even read."""

    OPERATORS = [SOFT, HARD, P3, ThresholdOperator.power(1.0), ThresholdOperator.power(8.0)]

    @given(
        weights=hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=3, max_side=40),
                           elements=finite_f32(-4.0, 4.0)),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        where=st.integers(0, 2**31),
        threshold=st.sampled_from([0.0, 1e-40, 0.3, 5.0, -0.1, -np.inf, np.nan, "x"]),
        op=st.sampled_from(OPERATORS),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_non_finite_weight_raises_first(self, weights, bad, where, threshold, op):
        weights.reshape(-1)[where % weights.size] = bad
        with pytest.raises(NonFiniteError, match="non-finite weights"):
            apply_threshold(weights, threshold, op)

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: f"{op.kind}{op.p}")
    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_empty_weights_give_empty_results(self, op, shape, threshold):
        pruned, mask = apply_threshold(np.zeros(shape, np.float32), threshold, op)
        assert pruned.shape == mask.shape == shape
        assert pruned.dtype == np.float32 and mask.dtype == np.bool_

    def test_empty_weights_with_negative_threshold(self):
        with pytest.raises(ValueError, match=">= 0"):
            apply_threshold(np.zeros((0,), np.float32), -1.0, SOFT)

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: f"{op.kind}{op.p}")
    def test_finite_weights_with_negative_threshold(self, op):
        with pytest.raises(ValueError, match=">= 0"):
            apply_threshold(np.float32([np.finfo(np.float32).max, 0.0]), -0.1, op)

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: f"{op.kind}{op.p}")
    @pytest.mark.parametrize("threshold", [np.nan, np.float32(np.nan)])
    def test_nan_threshold_rejected(self, op, threshold):
        # |w| > NaN is False everywhere, so it would prune every weight
        with pytest.raises(ValueError, match=">= 0, got nan"):
            apply_threshold(np.float32([0.5, -2.0]), threshold, op)


class TestOperatorInvariants:
    """Family-wide properties, fuzzed over inputs."""

    @given(w=weight_arrays, t=st.floats(0, 10), p=st.floats(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry_exact(self, w, t, p):
        op = ThresholdOperator.power(p)
        pos, mask_pos = apply_threshold(w, t, op)
        neg, mask_neg = apply_threshold(-w, t, op)
        assert np.array_equal(neg, -pos)
        assert np.array_equal(mask_pos, mask_neg)

    @given(w=weight_arrays, t=st.floats(0, 10), p=st.floats(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_shrinkage_and_mask_placement(self, w, t, p):
        pruned, mask = apply_threshold(w, t, ThresholdOperator.power(p))
        assert (np.abs(pruned) <= np.abs(w)).all()
        np.testing.assert_array_equal(mask, np.abs(w) > np.float32(t))
        assert (pruned[~mask] == 0.0).all()

    @given(w=weight_arrays, t=st.floats(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_power_one_is_soft_bitwise(self, w, t):
        a, _ = apply_threshold(w, t, ThresholdOperator.power(1.0))
        b, _ = apply_threshold(w, t, SOFT)
        assert a.tobytes() == b.tobytes()

    def test_monotone_nondecreasing_in_w(self):
        w = np.linspace(-2, 2, 2001).astype(np.float32)
        for op in (SOFT, HARD, P3, ThresholdOperator.power(64.0)):
            pruned, _ = apply_threshold(w, 0.5, op)
            assert (np.diff(pruned) >= 0).all()

    def test_bias_bounded_by_threshold(self):
        w = np.linspace(0.5001, 2, 1500).astype(np.float32)
        for p in (1.0, 2.0, 3.0, 4.0, 64.0):
            pruned, _ = apply_threshold(w, 0.5, ThresholdOperator.power(p))
            bias = np.abs(w) - np.abs(pruned)
            # allow a couple of float32 ulps on top of the analytic bound
            assert (bias <= 0.5 + 1e-6).all()

    def test_bias_decreasing_in_magnitude_for_p_above_one(self):
        w = np.linspace(0.51, 2, 400)
        for p in (2.0, 3.0, 4.0):
            bias = [abs(v) - abs(oracles.power_threshold(v, 0.5, p)) for v in w]
            assert (np.diff(bias) < 0).all()

    def test_continuity_at_threshold(self):
        for t in (0.1, 0.5):
            for p in (2.0, 3.0, 4.0):
                op = ThresholdOperator.power(p)
                values = []
                for delta in (1e-2, 1e-4, 1e-6):
                    w = np.float32([t * (1 + delta)])
                    pruned, mask = apply_threshold(w, t, op)
                    assert mask[0]
                    values.append(abs(float(pruned[0])))
                assert values[0] > values[1] > values[2]
                assert values[2] < 0.1 * t


class TestSurvivorOnlyPowerP:
    """The power-p branch evaluates only the surviving entries; each value must
    be byte-equal to the full-matrix evaluation in ``oracles``."""

    POWERS = (1.5, 2.0, 3.0, 8.0, 1e3)

    def assert_matches_full_matrix(self, w, t, p):
        pruned, mask = apply_threshold(w, t, ThresholdOperator.power(p))
        want, want_mask = oracles.power_threshold_full_matrix(w, t, p)
        assert pruned.dtype == want.dtype and pruned.shape == want.shape
        assert pruned.tobytes() == want.tobytes()
        assert mask.tobytes() == want_mask.tobytes()

    @given(
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=70),
        offset=st.integers(0, 15),
        seed=st.integers(0, 2**32 - 1),
        quantile=st.floats(0.0, 0.999),
        p=st.sampled_from(POWERS),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_shapes_and_alignments(self, shape, offset, seed, quantile, p):
        rng = np.random.default_rng(seed)
        size = int(np.prod(shape))
        # a view starting `offset` elements into a buffer shifts its alignment
        buf = rng.standard_normal(size + offset).astype(np.float32)
        w = buf[offset:].reshape(shape)
        t = float(np.quantile(np.abs(w), quantile))
        if t == 0.0:
            t = 1e-3
        self.assert_matches_full_matrix(w, t, p)

    @pytest.mark.parametrize("p", POWERS)
    def test_ties_at_threshold(self, p):
        t = np.float32(0.375)
        w = np.tile(np.float32([t, -t, 0.5, -0.75, t, 2.0, np.nextafter(t, 1)]), 37)
        self.assert_matches_full_matrix(w, float(t), p)
        _, mask = apply_threshold(w, float(t), ThresholdOperator.power(p))
        assert not mask[np.abs(w) == t].any()

    @pytest.mark.parametrize("p", POWERS)
    @pytest.mark.parametrize("t", [float(np.float32(1e-42)), 5e-324],
                             ids=["f32_subnormal", "f64_subnormal"])
    def test_subnormal_threshold(self, p, t):
        w = np.float32([1e-44, -1e-41, 3e-39, -0.5, 1.0, 3e38, -2e-45, 0.0] * 9)
        self.assert_matches_full_matrix(w, t, p)

    def test_nothing_survives(self):
        w = np.float32([[0.1, -0.2], [0.05, 0.0]])
        pruned, mask = apply_threshold(w, 0.5, P3)
        assert pruned.tobytes() == np.zeros_like(w).tobytes()
        assert not mask.any()

    @pytest.mark.parametrize("survivors", [0, 1, POWER_BLOCK - 1, POWER_BLOCK,
                                           POWER_BLOCK + 1, 2 * POWER_BLOCK + 3])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_survivor_counts_at_block_edges(self, survivors, layout):
        rng = np.random.default_rng(survivors)
        t = 0.25
        w = rng.uniform(-t, t, (96, 4 * POWER_BLOCK // 96)).astype(np.float32)
        flat = w.reshape(-1)
        kept = rng.choice(flat.size, survivors, replace=False)
        flat[kept] = (rng.uniform(t, 4.0, survivors) * rng.choice([-1, 1], survivors))
        if layout == "transposed":
            w = w.T
        assert int((np.abs(w) > t).sum()) == survivors
        for p in (3.0, 8.0):
            self.assert_matches_full_matrix(w, t, p)

    @pytest.mark.parametrize("sparsity", [0.01, 0.27, 0.5])
    def test_float64_working_set_is_one_block(self, sparsity):
        # fc0 of the 784-300-100-10 MLP. Beyond the per-entry arrays (|w|, the
        # mask, the result) and the int64 survivor index, the float64 steps may
        # hold a few blocks, however many entries survive; evaluating all the
        # survivors at once fails this from S=0.27 down.
        w = np.random.default_rng(0).standard_normal((784, 300)).astype(np.float32)
        t = float(np.quantile(np.abs(w), sparsity))
        apply_threshold(w, t, P3)  # numpy's one-off first-call allocations
        (pruned, mask), peak = peak_bytes(apply_threshold, w, t, P3)
        survivors = int(mask.sum())
        per_entry = pruned.nbytes + mask.nbytes + np.abs(w).nbytes
        assert peak <= per_entry + 8 * survivors + 8 * 8 * POWER_BLOCK


class TestPreallocatedBlocks:
    """The power-p branch runs its float64 steps in two reused block buffers;
    the bytes must be those of the one-expression-per-block form in
    ``oracles``, across several blocks and through the overflow fallback."""

    POWERS = (1.5, 3.0, 7.0)

    def assert_matches_blocks(self, w, t, p):
        pruned, mask = apply_threshold(w, t, ThresholdOperator.power(p))
        want, want_mask = oracles.power_threshold_blocks(w, t, p, POWER_BLOCK)
        assert pruned.dtype == want.dtype and pruned.shape == want.shape
        assert pruned.tobytes() == want.tobytes()
        assert mask.tobytes() == want_mask.tobytes()

    @given(
        size=st.integers(1, 3 * POWER_BLOCK + 100),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-30.0, 30.0),
        quantile=st.floats(0.0, 0.999),
        specials=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                          max_size=8),
        p=st.sampled_from(POWERS),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_block_expression(self, size, seed, log_scale, quantile, specials, p):
        rng = np.random.default_rng(seed)
        w = (rng.standard_normal(size) * np.exp(log_scale)).astype(np.float32)
        w[rng.integers(0, size, len(specials))] = specials
        t = float(np.quantile(np.abs(w), quantile))
        if t == 0.0:
            t = float(np.float32(1e-42))
        self.assert_matches_blocks(w, t, p)

    @pytest.mark.parametrize("p", POWERS)
    @pytest.mark.parametrize("t", [float(np.float32(1e-42)), 5e-324],
                             ids=["f32_subnormal", "f64_subnormal"])
    def test_subnormal_threshold_over_several_blocks(self, p, t):
        # at T = 5e-324, w / T overflows float64 for the large survivors and
        # takes the |w| fallback; no overflow may escape as a warning
        w = np.random.default_rng(5).standard_normal(2 * POWER_BLOCK + 7).astype(np.float32)
        w[::97] = np.float32(3e38)
        w[1::101] = np.float32(1e-44)
        with np.errstate(over="raise"):
            self.assert_matches_blocks(w, t, p)


class TestSelectThreshold:
    def test_quarter_example(self):
        t = select_threshold(np.float32([0.05, 0.1, 0.3, 0.7]), 0.5)
        assert t == np.float32(0.1)
        pruned, mask = apply_threshold(np.float32([0.05, 0.1, 0.3, 0.7]), t, HARD)
        np.testing.assert_array_equal(mask, [False, False, True, True])

    def test_target_zero_gives_zero_threshold(self):
        assert select_threshold(np.float32([0.5, 1.0]), 0.0) == 0.0

    def test_all_equal_with_half_target_prunes_everything(self):
        mags = np.full(10, 0.3, dtype=np.float32)
        t = select_threshold(mags, 0.5)
        assert t == np.float32(0.3)
        _, mask = apply_threshold(mags, t, SOFT)
        assert not mask.any()

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(42)
        mags = np.abs(rng.standard_normal(997)).astype(np.float32)
        for target in (0.1, 0.5, 0.9, 0.99):
            k = int(target * len(mags))
            want = np.sort(mags)[k - 1]
            assert select_threshold(mags, target) == want

    def test_input_not_mutated(self):
        mags = np.float32([0.9, 0.1, 0.5])
        before = mags.copy()
        select_threshold(mags, 0.5)
        np.testing.assert_array_equal(mags, before)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            select_threshold(np.float32([]), 0.5)
        with pytest.raises(ValueError, match="target"):
            select_threshold(np.float32([1.0]), 1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            select_threshold(np.float32([-1.0]), 0.5)

    @given(
        mags=hnp.arrays(np.float32, st.integers(1, 200), elements=finite_f32(0, 100)),
        target=st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_achieved_sparsity_within_tie_bound(self, mags, target):
        t = select_threshold(mags, target)
        n = len(mags)
        k = int(target * n)
        pruned_count = int((mags <= t).sum())
        ties = int((mags == t).sum())
        assert k <= pruned_count <= k + ties


class TestAcceptanceGridProperties:
    """The operator exactness grid, kept fast enough to run in the unit suite."""

    def test_grid_suite(self):
        w = np.linspace(-2, 2, 10001).astype(np.float32)
        for t in (0.0, 0.1, 0.5):
            for p in (1.0, 2.0, 3.0, 4.0, 64.0):
                op = ThresholdOperator.power(p)
                pruned, mask = apply_threshold(w, t, op)
                neg, _ = apply_threshold(-w, t, op)
                assert np.array_equal(neg, -pruned)
                assert (np.abs(pruned) <= np.abs(w)).all()
                above = np.abs(w) > t
                bias = np.abs(w[above]) - np.abs(pruned[above])
                assert (bias <= t + 1e-6).all()
