"""Cubic sparsity ramp and the two threshold-assignment backbones.

Brute-force sorting oracles stand in for select_threshold wherever the pooled
or per-layer k-th order statistic is checked.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featherprune import trainer
from featherprune.backbones import (
    BackboneKind,
    SparsitySchedule,
    assign_thresholds,
    assign_thresholds_global,
    cubic_sparsity,
    measured_sparsity,
)
from featherprune.datasets import DatasetDescriptor, load_dataset
from featherprune.feather import PruneLayerState
from featherprune.models import build_mlp
from featherprune.seeding import init_rng
from featherprune.tensor import Tensor
from featherprune.thresholding import ThresholdOperator, select_threshold
from featherprune.trainer import TrainConfig, train


def make_state(weights, name="fc0", kind="fc"):
    return PruneLayerState(
        name=name,
        kind=kind,
        weights=Tensor(np.asarray(weights, dtype=np.float32), requires_grad=True),
        op=ThresholdOperator.power(3.0),
    )


def train_with_frozen_middle(epochs=3, final_sparsity=0.6):
    """Train a 16-12-8-4 MLP whose middle layer (fc1) is built non-prunable."""
    data = load_dataset(DatasetDescriptor(kind="blobs", dims=16, classes=4, samples=240,
                                          noise=0.25, seed=0))
    model = build_mlp(16, [12, 8], 4, init_rng(0))
    model.layers[1].prunable = False
    cfg = TrainConfig(epochs=epochs, batch_size=32, lr=0.1, seed=0,
                      schedule=SparsitySchedule(final_sparsity, epochs))
    return cfg, model, train(cfg, model, data)


def brute_force_threshold(magnitudes, sparsity):
    # k-th smallest magnitude, 1-indexed, k = floor(s * N); k = 0 means keep all.
    ordered = np.sort(np.asarray(magnitudes, dtype=np.float64).ravel())
    k = int(np.floor(sparsity * ordered.size))
    return 0.0 if k == 0 else float(ordered[k - 1])


class TestCubicSchedule:
    def test_ramp_start_is_zero(self):
        sched = SparsitySchedule(final_sparsity=0.9, total_epochs=20)
        assert cubic_sparsity(0, sched) == 0.0

    def test_final_target_reached_exactly_at_ramp_end(self):
        sched = SparsitySchedule(final_sparsity=0.9, total_epochs=100, ramp_fraction=0.5)
        assert cubic_sparsity(50, sched) == 0.9

    def test_held_constant_after_ramp(self):
        sched = SparsitySchedule(final_sparsity=0.75, total_epochs=40, ramp_fraction=0.5)
        for epoch in (20, 21, 30, 39):
            assert cubic_sparsity(epoch, sched) == 0.75

    def test_quarter_ramp_value(self):
        # s(25) = 0.8 * (1 - (1 - 0.5)^3) = 0.8 * 0.875 = 0.7
        sched = SparsitySchedule(final_sparsity=0.8, total_epochs=100, ramp_fraction=0.5)
        assert cubic_sparsity(25, sched) == pytest.approx(0.7, abs=1e-12)

    def test_zero_target_stays_zero(self):
        sched = SparsitySchedule(final_sparsity=0.0, total_epochs=10)
        assert all(cubic_sparsity(e, sched) == 0.0 for e in range(10))

    def test_full_ramp_fraction(self):
        # ramp_fraction=1.0 only hits the target on the very last epoch boundary;
        # with integer epochs the last in-range epoch sits just below it.
        sched = SparsitySchedule(final_sparsity=0.5, total_epochs=10, ramp_fraction=1.0)
        values = [cubic_sparsity(e, sched) for e in range(10)]
        assert values[-1] < 0.5
        assert values == sorted(values)

    def test_epoch_out_of_range(self):
        sched = SparsitySchedule(final_sparsity=0.5, total_epochs=10)
        with pytest.raises(ValueError, match="outside"):
            cubic_sparsity(-1, sched)
        with pytest.raises(ValueError, match="outside"):
            cubic_sparsity(10, sched)

    def test_schedule_field_validation(self):
        with pytest.raises(ValueError, match="final sparsity"):
            SparsitySchedule(final_sparsity=1.0, total_epochs=10)
        with pytest.raises(ValueError, match="final sparsity"):
            SparsitySchedule(final_sparsity=-0.1, total_epochs=10)
        with pytest.raises(ValueError, match="total epochs"):
            SparsitySchedule(final_sparsity=0.5, total_epochs=0)
        with pytest.raises(ValueError, match="ramp fraction"):
            SparsitySchedule(final_sparsity=0.5, total_epochs=10, ramp_fraction=0.0)
        with pytest.raises(ValueError, match="ramp fraction"):
            SparsitySchedule(final_sparsity=0.5, total_epochs=10, ramp_fraction=1.5)

    @given(
        final=st.floats(min_value=0.0, max_value=0.999),
        epochs=st.integers(min_value=1, max_value=200),
        ramp=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_schedule_nondecreasing_and_bounded(self, final, epochs, ramp):
        sched = SparsitySchedule(final_sparsity=final, total_epochs=epochs, ramp_fraction=ramp)
        values = [cubic_sparsity(e, sched) for e in range(epochs)]
        assert all(0.0 <= v <= final for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestGlobalBackbone:
    def test_pooled_two_layer_example(self):
        a = make_state([0.1, 0.9], name="fc0")
        b = make_state([0.2, -0.8], name="fc1")
        assign_thresholds_global([a, b], 0.5)
        assert a.threshold == pytest.approx(0.2)
        assert b.threshold == a.threshold
        # survivors are strictly above T
        assert (np.abs(a.weights.data) > a.threshold).tolist() == [False, True]
        assert (np.abs(b.weights.data) > b.threshold).tolist() == [False, True]

    def test_zero_sparsity_gives_zero_threshold(self):
        layers = [make_state([0.5, -0.5]), make_state([1.0], name="fc1")]
        assign_thresholds_global(layers, 0.0)
        assert all(s.threshold == 0.0 for s in layers)

    def test_single_layer_matches_per_layer_selection(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(57).astype(np.float32)
        state = make_state(w)
        assign_thresholds_global([state], 0.4)
        assert state.threshold == select_threshold(np.abs(w), 0.4)

    def test_matches_brute_force_over_pool(self):
        rng = np.random.default_rng(11)
        layers = [
            make_state(rng.standard_normal((8, 5)), name="fc0"),
            make_state(rng.standard_normal((5, 3)), name="fc1"),
            make_state(rng.standard_normal(40), name="fc2"),
        ]
        pooled = np.concatenate([np.abs(s.weights.data).ravel() for s in layers])
        for s in (0.1, 0.5, 0.83):
            assign_thresholds_global(layers, s)
            expected = brute_force_threshold(pooled, s)
            assert layers[0].threshold == pytest.approx(expected)
            assert len({st.threshold for st in layers}) == 1

    def test_non_prunable_layer_excluded(self):
        # train() hands the backbone only the prunable layers: the pool is fc0 and fc2
        cfg, model, result = train_with_frozen_middle()
        assert [s.name for s in result.states] == ["fc0", "fc2"]
        pooled = np.concatenate([np.abs(model.layers[i].weight.data).ravel() for i in (0, 2)])
        want = select_threshold(pooled, cubic_sparsity(cfg.epochs - 1, cfg.schedule))
        assert [s.threshold for s in result.states] == [want, want]

    def test_exemption_removes_first_conv_from_pool(self):
        conv = make_state([0.01, 0.02], name="conv0", kind="conv")
        fc = make_state([0.1, 0.2, 0.3, 0.4], name="fc0")
        assign_thresholds_global([conv, fc], 0.5, exempt_first_conv=True)
        assert conv.threshold == 0.0
        assert fc.threshold == pytest.approx(0.2)

    def test_no_prunable_layers_raises(self):
        for kind in ("global", "uniform"):
            with pytest.raises(ValueError, match="no prunable"):
                assign_thresholds([], 0.5, BackboneKind(kind))

    def test_sparsity_range_checked(self):
        state = make_state([1.0, 2.0])
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError, match="sparsity"):
                assign_thresholds_global([state], bad)


class TestUniformBackbone:
    def test_per_layer_example(self):
        state = make_state([1.0, -2.0, 3.0, -4.0])
        assign_thresholds([state], 0.5, BackboneKind("uniform", False))
        assert state.threshold == pytest.approx(2.0)
        assert (np.abs(state.weights.data) > state.threshold).tolist() == [
            False,
            False,
            True,
            True,
        ]

    def test_layers_get_independent_thresholds(self):
        rng = np.random.default_rng(7)
        layers = [
            make_state(rng.standard_normal(30), name="fc0"),
            make_state(rng.standard_normal(30) * 10, name="fc1"),
        ]
        assign_thresholds(layers, 0.3, BackboneKind("uniform", False))
        for state in layers:
            expected = brute_force_threshold(np.abs(state.weights.data), 0.3)
            assert state.threshold == pytest.approx(expected)
        assert layers[0].threshold != layers[1].threshold

    def test_first_conv_left_dense(self):
        conv0 = make_state([0.5, 0.6], name="conv0", kind="conv")
        conv1 = make_state([0.1, 0.2, 0.3, 0.4], name="conv1", kind="conv")
        fc = make_state([1.0, 2.0], name="fc0")
        assign_thresholds([conv0, conv1, fc], 0.5, BackboneKind("uniform"))
        assert conv0.threshold == 0.0
        assert conv1.threshold == pytest.approx(0.2)
        assert fc.threshold == pytest.approx(1.0)

    def test_zero_sparsity(self):
        layers = [make_state([1.0, 2.0]), make_state([3.0], name="fc1")]
        assign_thresholds(layers, 0.0, BackboneKind("uniform", False))
        assert all(s.threshold == 0.0 for s in layers)


class TestBackboneKind:
    def test_defaults(self):
        assert BackboneKind("global").exempt_first_conv is False
        assert BackboneKind("uniform").exempt_first_conv is True

    def test_explicit_override(self):
        assert BackboneKind("global", exempt_first_conv=True).exempt_first_conv is True
        assert BackboneKind("uniform", exempt_first_conv=False).exempt_first_conv is False

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="backbone kind"):
            BackboneKind("layerwise")

    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(5)
        w0, w1 = rng.standard_normal(20), rng.standard_normal(20)

        via_kind = [make_state(w0, name="fc0"), make_state(w1, name="fc1")]
        direct = [make_state(w0, name="fc0"), make_state(w1, name="fc1")]
        assign_thresholds(via_kind, 0.4, BackboneKind("uniform"))
        for state in direct:  # uniform: each layer is a global pool of its own
            assign_thresholds_global([state], 0.4)
        assert [s.threshold for s in via_kind] == [s.threshold for s in direct]

        via_kind = [make_state(w0, name="fc0"), make_state(w1, name="fc1")]
        direct = [make_state(w0, name="fc0"), make_state(w1, name="fc1")]
        assign_thresholds(via_kind, 0.4, BackboneKind("global"))
        assign_thresholds_global(direct, 0.4, exempt_first_conv=False)
        assert [s.threshold for s in via_kind] == [s.threshold for s in direct]


class TestMeasuredSparsity:
    def test_exact_fraction_without_ties(self):
        state = make_state([0.1, 0.2, 0.3, 0.4, 0.5])
        assign_thresholds_global([state], 0.4)  # k = 2
        assert measured_sparsity([state]) == 2 / 5

    def test_ties_push_measurement_up(self):
        state = make_state([0.2, 0.2, 0.2, 0.9])
        assign_thresholds_global([state], 0.25)  # k = 1, but three ties at T
        assert measured_sparsity([state]) == 3 / 4

    def test_non_prunable_ignored(self, monkeypatch):
        # train() measures over the prunable layers only: fc1's weights never count
        real_measured, counted, fractions = trainer.measured_sparsity, [], []

        def measured(states):
            counted.append([s.name for s in states])
            magnitudes = [np.abs(s.weights.data) for s in states]
            pruned = sum(int((m <= s.threshold).sum()) for m, s in zip(magnitudes, states))
            fractions.append(pruned / sum(m.size for m in magnitudes))
            return real_measured(states)

        monkeypatch.setattr(trainer, "measured_sparsity", measured)
        _, _, result = train_with_frozen_middle()
        assert counted == [["fc0", "fc2"]] * 3
        assert [r.achieved_sparsity for r in result.metrics.records] == fractions

    def test_missing_threshold_raises(self):
        with pytest.raises(ValueError, match="no threshold"):
            measured_sparsity([make_state([1.0])])

    def test_no_prunable_raises(self):
        with pytest.raises(ValueError, match="no prunable"):
            measured_sparsity([])

    @given(
        data=st.data(),
        sparsity=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_achieved_within_tie_bound(self, data, sparsity):
        sizes = data.draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        layers = [
            make_state(rng.standard_normal(n), name=f"fc{i}") for i, n in enumerate(sizes)
        ]
        assign_thresholds_global(layers, sparsity)
        pooled = np.concatenate([np.abs(s.weights.data).ravel() for s in layers])
        n = pooled.size
        k = int(np.floor(sparsity * n))
        ties = int((pooled == np.float32(layers[0].threshold)).sum())
        achieved = measured_sparsity(layers)
        assert k / n <= achieved <= (k + ties) / n
