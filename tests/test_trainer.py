"""Training loop: optimizer arithmetic, LR path, determinism, sparsity tracking.

End-to-end cases run a small MLP on synthetic blobs for a handful of epochs;
they check contracts (bitwise repeatability, dense equivalence at zero
sparsity, schedule tracking), not accuracy numbers.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from featherprune.analysis import MaskSnapshot
from featherprune.backbones import BackboneKind, SparsitySchedule, cubic_sparsity
from featherprune.datasets import DatasetDescriptor, SplitDataset, load_dataset
from featherprune.errors import TrainingDivergedError
from featherprune.feather import GradScalePolicy, PruneLayerState, select_theta
from featherprune.models import build_cnn, build_mlp
from featherprune.seeding import init_rng
from featherprune.tensor import Tensor
from featherprune.thresholding import ThresholdOperator, select_threshold
from featherprune.trainer import (
    METRICS_HEADER,
    RunMetrics,
    TrainConfig,
    TrainResult,
    cosine_lr,
    evaluate_top1,
    run_epoch,
    sgd_step,
    train,
    train_dense,
)

from memtrace import peak_bytes


def small_dataset(seed=0):
    desc = DatasetDescriptor(kind="blobs", dims=16, classes=4, samples=240,
                             noise=0.25, seed=seed)
    return load_dataset(desc)


def small_config(epochs=4, final_sparsity=0.5, seed=0, **kw):
    return TrainConfig(
        epochs=epochs,
        batch_size=32,
        lr=kw.pop("lr", 0.1),
        seed=seed,
        schedule=SparsitySchedule(final_sparsity, epochs),
        **kw,
    )


def small_model(seed=0, hidden=(12,)):
    return build_mlp(16, list(hidden), 4, init_rng(seed))


class TestTrainConfig:
    def test_negative_rates_rejected(self):
        for field in ("lr", "weight_decay", "label_smoothing"):
            with pytest.raises(ValueError, match=field):
                small_config(**{field: -0.1} if field != "lr" else {"lr": -0.1})

    @pytest.mark.parametrize("field,value", [
        ("lr", np.nan), ("lr", np.inf), ("weight_decay", np.nan), ("weight_decay", np.inf),
        ("label_smoothing", np.nan), ("label_smoothing", 1.0),
    ])
    def test_nan_infinite_or_out_of_range_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    def test_momentum_range(self):
        with pytest.raises(ValueError, match="momentum"):
            small_config(momentum=1.0)
        small_config(momentum=0.0)  # boundary is legal

    def test_warmup_shorter_than_run(self):
        with pytest.raises(ValueError, match="warmup"):
            small_config(epochs=4, lr_warmup_epochs=4)

    def test_schedule_must_span_run(self):
        with pytest.raises(ValueError, match="schedule spans"):
            TrainConfig(epochs=4, batch_size=32, lr=0.1,
                        schedule=SparsitySchedule(0.5, 8))


class TestCosineLr:
    def test_starts_at_base_without_warmup(self):
        assert cosine_lr(0, 100, 0.1) == 0.1

    def test_midpoint_is_half(self):
        assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05, abs=1e-15)

    def test_last_step_near_zero(self):
        total = 100
        eta = cosine_lr(total - 1, total, 0.1)
        assert 0.0 < eta <= 0.5 * 0.1 * (1 - np.cos(np.pi / total)) + 1e-15

    def test_warmup_ramps_linearly_to_base(self):
        base = 0.2
        for t in range(10):
            assert cosine_lr(t, 100, base, warmup_steps=10) == pytest.approx(base * t / 10)
        assert cosine_lr(10, 100, base, warmup_steps=10) == base

    def test_monotone_decay_after_warmup(self):
        values = [cosine_lr(t, 50, 0.1, warmup_steps=5) for t in range(5, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_range_validation(self):
        with pytest.raises(ValueError, match="outside"):
            cosine_lr(100, 100, 0.1)
        with pytest.raises(ValueError, match="warmup"):
            cosine_lr(0, 10, 0.1, warmup_steps=10)


class TestSgdStep:
    def test_hand_worked_momentum_update(self):
        # buffer = 0.9*0.2 + 0.1 = 0.28; w = 1.0 - 0.1*0.28 = 0.972
        w = np.float32([1.0])
        g = np.float32([0.1])
        buf = np.float32([0.2])
        sgd_step(w, g, buf, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert buf[0] == pytest.approx(0.28, rel=1e-6)
        assert w[0] == pytest.approx(0.972, rel=1e-6)

    def test_zero_momentum_is_plain_descent(self):
        w = np.float32([2.0, -1.0])
        g = np.float32([0.5, 0.5])
        buf = np.zeros(2, dtype=np.float32)
        sgd_step(w, g, buf, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_array_equal(w, np.float32([2.0 - 0.05, -1.0 - 0.05]))

    def test_zero_gradient_leaves_weights_untouched(self):
        w = np.float32([0.3, 0.7])
        before = w.copy()
        sgd_step(w, np.zeros(2, np.float32), np.zeros(2, np.float32),
                 lr=0.5, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(w, before)

    def test_weight_decay_applied_to_dense_weights(self):
        w = np.float32([1.0])
        buf = np.zeros(1, np.float32)
        sgd_step(w, np.zeros(1, np.float32), buf, lr=0.1, momentum=0.0, weight_decay=0.01)
        # g = 0 + 0.01*1.0 -> w = 1.0 - 0.1*0.01
        assert w[0] == pytest.approx(1.0 - 0.001, rel=1e-6)

    def test_updates_in_place(self):
        w = np.float32([1.0])
        buf = np.float32([0.0])
        wid, bid = id(w), id(buf)
        sgd_step(w, np.float32([0.1]), buf, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert id(w) == wid and id(buf) == bid

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(np.zeros(3, np.float32), np.zeros(2, np.float32),
                     np.zeros(3, np.float32), 0.1, 0.9, 0.0)


class TestEvaluateTop1:
    def test_counts_argmax_hits(self):
        model = small_model()
        data = small_dataset()
        acc = evaluate_top1(model, data.val_x, data.val_y, batch_size=16)
        assert 0.0 <= acc <= 1.0
        # oracle: single full-batch argmax
        logits = model.forward(Tensor(data.val_x))
        expected = float((logits.data.argmax(axis=1) == data.val_y).mean())
        assert acc == expected

    def test_batching_does_not_change_result(self):
        model = small_model()
        data = small_dataset()
        a = evaluate_top1(model, data.val_x, data.val_y, batch_size=7)
        b = evaluate_top1(model, data.val_x, data.val_y, batch_size=64)
        assert a == b

    def test_overrides_replace_layer_weights(self):
        model = small_model()
        data = small_dataset()
        base = evaluate_top1(model, data.val_x, data.val_y, 32)
        zeroed = {layer.name: Tensor(np.zeros_like(layer.weight.data))
                  for layer in model.layers}
        flat = evaluate_top1(model, data.val_x, data.val_y, 32, zeroed)
        # all-zero network predicts class 0 everywhere
        assert flat == float((data.val_y == 0).mean())
        assert base != flat


class TestTrainLoop:
    def test_repeat_run_is_bitwise_identical(self):
        data = small_dataset()
        r1 = train(small_config(seed=5), small_model(seed=5), data)
        r2 = train(small_config(seed=5), small_model(seed=5), data)
        assert r1.metrics.to_csv() == r2.metrics.to_csv()
        for s1, s2 in zip(r1.states, r2.states):
            np.testing.assert_array_equal(s1.weights.data, s2.weights.data)
            np.testing.assert_array_equal(s1.mask, s2.mask)

    def test_zero_sparsity_matches_dense_loop_bitwise(self):
        data = small_dataset()
        cfg = small_config(final_sparsity=0.0)
        sparse = train(cfg, small_model(), data)
        dense = train_dense(cfg, small_model(), data)
        for rs, rd in zip(sparse.metrics.records, dense.metrics.records):
            assert rs.train_loss == rd.train_loss
            assert rs.val_top1 == rd.val_top1
        dense_model = small_model()
        train_dense(cfg, dense_model, data)
        for state, layer in zip(sparse.states, dense_model.layers):
            np.testing.assert_array_equal(state.weights.data, layer.weight.data)

    def test_final_sparsity_within_tie_bound(self):
        data = small_dataset()
        result = train(small_config(epochs=4, final_sparsity=0.7), small_model(), data)
        total = sum(s.weights.data.size for s in result.states)
        nnz = sum(int(s.mask.sum()) for s in result.states)
        achieved = 1 - nnz / total
        k = int(np.floor(0.7 * total))
        assert k / total <= achieved <= (k + total * 0.01) / total  # ties are rare on random floats
        assert result.metrics.records[-1].achieved_sparsity == achieved

    def test_sparsity_column_tracks_schedule(self):
        data = small_dataset()
        cfg = small_config(epochs=6, final_sparsity=0.6)
        result = train(cfg, small_model(), data)
        total = sum(s.weights.data.size for s in result.states)
        from featherprune.backbones import cubic_sparsity
        for record in result.metrics.records:
            # floor(s*N)/N can sit one weight below the request; ties push up
            requested = cubic_sparsity(record.epoch, cfg.schedule)
            assert record.achieved_sparsity >= requested - 1 / total
            assert record.achieved_sparsity <= requested + 0.05

    def test_theta_column_constant_and_policy_driven(self):
        data = small_dataset()
        high = train(small_config(epochs=2, final_sparsity=0.97), small_model(), data)
        low = train(small_config(epochs=2, final_sparsity=0.5), small_model(), data)
        assert {r.theta for r in high.metrics.records} == {0.5}
        assert {r.theta for r in low.metrics.records} == {1.0}

    def test_lr_column_follows_cosine(self):
        data = small_dataset()
        cfg = small_config(epochs=4)
        result = train(cfg, small_model(), data)
        steps_per_epoch = int(np.ceil(len(data.train_x) / cfg.batch_size))
        for record in result.metrics.records:
            expected = cosine_lr(record.epoch * steps_per_epoch,
                                 cfg.epochs * steps_per_epoch, cfg.lr)
            assert record.lr == expected

    def test_pearson_column_ends_at_one(self):
        data = small_dataset()
        result = train(small_config(epochs=4, final_sparsity=0.6), small_model(), data)
        assert result.metrics.records[-1].mask_pearson_vs_final == 1.0

    def test_snapshots_one_per_epoch(self):
        data = small_dataset()
        result = train(small_config(epochs=3), small_model(), data)
        assert [s.epoch for s in result.snapshots] == [0, 1, 2]
        assert result.snapshots[0].layers == ["fc0", "fc1"]

    def test_divergence_reports_location(self):
        data = small_dataset()
        cfg = small_config(epochs=3, lr=1e8)  # guaranteed blow-up
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as info:
            train(cfg, small_model(), data)
        assert info.value.epoch == 0
        assert info.value.batch >= 0
        assert "fc0" in info.value.layer_norms

    def test_state_masks_match_final_weights(self):
        # returned thresholds reproduce the returned masks exactly
        from featherprune.thresholding import apply_threshold
        data = small_dataset()
        result = train(small_config(epochs=4, final_sparsity=0.6), small_model(), data)
        for state in result.states:
            _, mask = apply_threshold(state.weights.data, state.threshold, state.op)
            np.testing.assert_array_equal(mask, state.mask)

    def test_non_prunable_layer_trains_dense(self):
        from featherprune.checkpoint import model_records
        data = small_dataset()
        model = small_model()
        head = model.layers[-1]
        head.prunable = False
        before = head.weight.data.copy()
        result = train(small_config(epochs=3, final_sparsity=0.6), model, data)
        assert [s.name for s in result.states] == ["fc0"]
        assert all(s.layers == ["fc0"] for s in result.snapshots)
        assert not np.array_equal(head.weight.data, before)
        records = model_records(model, result.states)
        assert "fc1/threshold" not in records and "fc1/mask" not in records

    def test_exemption_skips_non_prunable_convs(self):
        # uniform backbone: the first *prunable* conv is the exempt one
        rng = np.random.default_rng(0)
        data = SplitDataset(rng.random((24, 1, 8, 8), dtype=np.float32), np.arange(24) % 3,
                            rng.random((8, 1, 8, 8), dtype=np.float32), np.arange(8) % 3,
                            (1, 8, 8))
        model = build_cnn((1, 8, 8), 3, init_rng(0), channels=(2, 3))
        model.layers[0].prunable = False
        cfg = small_config(epochs=2, final_sparsity=0.5, backbone=BackboneKind("uniform"))
        result = train(cfg, model, data)
        assert [s.name for s in result.states] == ["conv2", "fc0"]
        assert result.states[0].threshold == 0.0
        assert result.states[1].threshold > 0.0


def fresh_run(cfg, model):
    """The run at epoch 0 as ``train`` starts it."""
    theta = select_theta(cfg.grad_policy, cfg.schedule.final_sparsity)
    states = [PruneLayerState(layer.name, layer.kind, layer.weight, cfg.operator, theta=theta)
              for layer in model.layers if layer.prunable]
    return TrainResult(RunMetrics(), [], states, math.nan,
                       [np.zeros_like(p.data) for p in model.parameters()], 0)


class TestEpochBoundary:
    """A run rebuilt at an epoch boundary from copies of its arrays, on a
    model of another init with fresh prune states, finishes byte-equal to a
    run that was never interrupted."""

    EPOCHS = 4

    @staticmethod
    def finish(cfg, model, run, data):
        while run.epoch < cfg.epochs:
            run_epoch(cfg, model, run, data)
        return (run.metrics.to_csv(), [p.data.tobytes() for p in model.parameters()],
                [m.tobytes() for m in run.momentum],
                [(s.epoch, {n: s.unpacked(n).tobytes() for n in s.layers})
                 for s in run.snapshots])

    @staticmethod
    def rebuilt(cfg, model, run):
        other = small_model(seed=cfg.seed + 1)
        for dst, src in zip(other.parameters(), model.parameters()):
            dst.data[...] = src.data
        copy = fresh_run(cfg, other)
        copy.momentum = [m.copy() for m in run.momentum]
        copy.metrics.records = [replace(r) for r in run.metrics.records]
        copy.snapshots = [MaskSnapshot(s.epoch, {n: s.unpacked(n) for n in s.layers})
                          for s in run.snapshots]
        copy.epoch = run.epoch
        return other, copy

    @pytest.mark.parametrize("k", [0, EPOCHS // 2, EPOCHS - 1])
    @pytest.mark.parametrize("final_sparsity", [0.6, 0.97], ids=["theta1", "theta0.5"])
    def test_rebuilt_run_finishes_as_the_uninterrupted_one(self, k, final_sparsity):
        data = small_dataset()
        cfg = small_config(epochs=self.EPOCHS, final_sparsity=final_sparsity, seed=3)
        model = small_model(seed=cfg.seed)
        want = self.finish(cfg, model, fresh_run(cfg, model), data)

        model = small_model(seed=cfg.seed)
        run = fresh_run(cfg, model)
        while run.epoch < k:
            run_epoch(cfg, model, run, data)
        assert self.finish(cfg, *self.rebuilt(cfg, model, run), data) == want

    def test_train_is_the_epoch_loop(self):
        # train starts its run as fresh_run does and returns it without momentum
        data = small_dataset()
        cfg = small_config(epochs=self.EPOCHS, final_sparsity=0.6, seed=3)
        model = small_model(seed=cfg.seed)
        run = fresh_run(cfg, model)
        _, params, _, _ = self.finish(cfg, model, run, data)
        trained = small_model(seed=cfg.seed)
        result = train(cfg, trained, data)
        assert [p.data.tobytes() for p in trained.parameters()] == params
        assert [replace(r, mask_pearson_vs_final=1.0) for r in result.metrics.records] == \
            run.metrics.records
        assert result.epoch == cfg.epochs and result.momentum == []


@pytest.fixture
def idx_split(tmp_path):
    """An IDX image set loaded as stored (uint8 rows) and the same split holding
    the float32 arrays the whole-array decode used to give."""
    from oracles import idx_pixels_whole_array

    count, side = 60, 8
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, (count, side, side), dtype=np.uint8)
    pixels[0, 0, :2] = 0, 255
    img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, count, side, side) + pixels.tobytes())
    lbl.write_bytes(struct.pack(">II", 0x801, count) + (np.arange(count) % 3).astype(np.uint8).tobytes())
    stored = load_dataset(DatasetDescriptor(kind="idx", images_path=img, labels_path=lbl))
    assert stored.train_x.dtype == np.uint8
    decoded = replace(stored, train_x=idx_pixels_whole_array(stored.train_x),
                      val_x=idx_pixels_whole_array(stored.val_x))
    return stored, decoded


class TestStoredPixels:
    """Training and evaluation on uint8 IDX rows decode each batch to the bits
    the float32 arrays gave."""

    # 48 training images in batches of 20: the last batch is short
    CONFIG = dict(epochs=3, batch_size=20, lr=0.05, seed=4, backbone=BackboneKind("uniform"))

    def _run(self, loop, dataset, final_sparsity):
        model = build_cnn((1, 8, 8), 3, init_rng(1), channels=(2, 4))
        cfg = TrainConfig(**dict(self.CONFIG, schedule=SparsitySchedule(final_sparsity, 3)))
        result = loop(cfg, model, dataset)
        return result, [p.data.tobytes() for p in model.parameters()]

    @pytest.mark.parametrize("loop,final_sparsity", [(train, 0.5), (train_dense, 0.0)],
                             ids=["train", "train_dense"])
    def test_run_is_byte_identical_to_float_arrays(self, idx_split, loop, final_sparsity):
        stored, decoded = idx_split
        got, got_weights = self._run(loop, stored, final_sparsity)
        want, want_weights = self._run(loop, decoded, final_sparsity)
        assert got.metrics.to_csv() == want.metrics.to_csv()
        assert got_weights == want_weights
        assert len(got.snapshots) == len(want.snapshots)
        for a, b in zip(got.snapshots, want.snapshots):
            assert {k: a.unpacked(k).tobytes() for k in a.layers} == \
                {k: b.unpacked(k).tobytes() for k in b.layers}

    def test_evaluate_top1_matches_decoded_split(self, idx_split):
        stored, decoded = idx_split
        model = build_cnn((1, 8, 8), 3, init_rng(2), channels=(2, 4))
        rng = np.random.default_rng(2)
        for param in model.parameters():  # nonzero biases: the input scale shows
            param.data[...] = rng.standard_normal(param.shape)
        for batch in (5, 7, 12):
            assert evaluate_top1(model, stored.val_x, stored.val_y, batch) == \
                evaluate_top1(model, decoded.val_x, decoded.val_y, batch)


class TestNothingLeftOver:
    """A finished step keeps nothing alive, and the tape keeps gradients only
    where they are read."""

    def test_no_step_graph_alive_at_stability_curve(self, monkeypatch):
        import weakref

        from featherprune import trainer

        real_forward, real_curve = trainer.feather_forward, trainer.stability_curve
        made, alive_at_curve = [], []

        class WatchedTape(trainer.Tape):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        def watched_forward(state):  # Tensor has no weakref slot; its array does
            out = real_forward(state)
            made.append(weakref.ref(out.data))
            return out

        def watched_curve(snapshots):
            alive_at_curve.extend(ref() for ref in made if ref() is not None)
            return real_curve(snapshots)

        monkeypatch.setattr(trainer, "Tape", WatchedTape)
        monkeypatch.setattr(trainer, "feather_forward", watched_forward)
        monkeypatch.setattr(trainer, "stability_curve", watched_curve)
        train(small_config(epochs=2, final_sparsity=0.6), small_model(), small_dataset())
        # 2 epochs of 6 steps (a tape and 2 layers' weights each) and an eval,
        # then the final score's 2 layers' weights, made after the curve
        assert len(made) == 2 * (6 * (1 + 2) + 2) + 2
        assert alive_at_curve == []

    def test_grads_kept_only_on_parameters_and_thresholded_weights(self, monkeypatch):
        calls = []
        accumulate = Tensor.accumulate_grad

        def counted(self, g, copy=True):
            calls.append(self)
            accumulate(self, g, copy)

        monkeypatch.setattr(Tensor, "accumulate_grad", counted)
        model = small_model(hidden=(12, 8))
        cfg = small_config(epochs=2, final_sparsity=0.6)
        train(cfg, model, small_dataset())
        steps = cfg.epochs * -(-192 // cfg.batch_size)  # 240 samples, 192 train
        params = {id(p) for p in model.parameters()}
        # per step: 3 weights, 3 biases and the 3 thresholded weight tensors
        assert len(calls) == steps * 9
        assert sum(id(t) in params for t in calls) == steps * 6

    def test_mask_history_is_one_bit_per_weight(self):
        import tracemalloc

        # the 784-300-100-10 MLP's 266,200 weights, on a few samples
        data = load_dataset(DatasetDescriptor(kind="blobs", dims=784, classes=10,
                                              samples=80, noise=0.3, seed=1))
        model = build_mlp(784, [300, 100], 10, init_rng(1))
        n = sum(layer.weight.data.size for layer in model.layers)
        epochs = 4
        tracemalloc.start()
        try:
            result = train(small_config(epochs=epochs, final_sparsity=0.98), model, data)
            before = tracemalloc.get_traced_memory()[0]
            result.snapshots.clear()
            held = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # one byte per weight would be 266,200 bytes an epoch
        assert held <= epochs * (-(-n // 8) + 2048), f"{held} bytes"

    @pytest.mark.parametrize("epochs", [4, 8])
    def test_train_peak_is_a_few_copies_of_the_weights(self, epochs):
        # above the model: momentum buffers, gradients, thresholded weights,
        # masks and one step's graph, with no weight-sized array held twice
        # (at 5.5x, one more copy of the weights would not fit)
        data = load_dataset(DatasetDescriptor(kind="blobs", dims=784, classes=10,
                                              samples=640, noise=0.3, seed=1))
        model = build_mlp(784, [300, 100], 10, init_rng(1))
        weight_bytes = sum(layer.weight.data.nbytes for layer in model.layers)
        _, peak = peak_bytes(train, small_config(epochs=epochs, final_sparsity=0.98),
                             model, data)
        assert peak <= 5.5 * weight_bytes, f"peak {peak / weight_bytes:.2f}x the weights"


class TestMetricsCsv:
    def test_header_contract(self):
        assert METRICS_HEADER.split(",") == [
            "epoch", "train_loss", "val_top1", "achieved_sparsity",
            "lr", "theta", "mask_pearson_vs_final",
        ]

    def test_floats_survive_exactly(self):
        # repr round-trips doubles; a third of a float is a good canary
        from featherprune.trainer import EpochRecord
        record = EpochRecord(0, 1 / 3, 2 / 3, 0.9, 0.1, 0.5, -1 / 7)
        header, row = RunMetrics([record]).to_csv().splitlines()
        assert header == METRICS_HEADER
        epoch, *floats = row.split(",")
        assert int(epoch) == record.epoch
        assert [float(v) for v in floats] == [
            record.train_loss, record.val_top1, record.achieved_sparsity,
            record.lr, record.theta, record.mask_pearson_vs_final,
        ]
