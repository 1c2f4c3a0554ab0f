"""Deterministic training loop with sparse (straight-through) and dense paths.

``train`` loops ``run_epoch`` over the run's state at an epoch boundary, a
:class:`TrainResult`. Each epoch refreshes the requested sparsity and
per-layer thresholds, iterates seeded mini-batches (thresholded forward,
reverse-mode backward, pruned-gradient scaling, SGD update), evaluates top-1 on
the validation split using the thresholded weights keyed by layer name (the
deployed network), and snapshots the masks. Layers built with
``prunable=False`` get no prune state and train dense.

Reproducibility contract: (config, seed, dataset) determines every emitted
number bitwise. Data order, parameter init, and the learning-rate path are all
derived from the config seed (see :mod:`featherprune.seeding`); reductions
happen in fixed order. ``train_dense`` is an independent no-pruning loop that
shares the same seed streams, so a run with final sparsity 0 and theta 1 is
bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import MaskSnapshot, stability_curve
from .backbones import (
    BackboneKind,
    SparsitySchedule,
    assign_thresholds,
    cubic_sparsity,
    measured_sparsity,
)
from .datasets import decode_features
from .errors import NonFiniteError, TrainingDivergedError
from .feather import GradScalePolicy, PruneLayerState, feather_forward, select_theta
from .models import Model
from .seeding import epoch_permutation
from .tensor import Tape, Tensor, softmax_cross_entropy
from .thresholding import ThresholdOperator
# unused here; perfbench's tracer patches these names
from .feather import feather_backward  # noqa: F401
from .thresholding import apply_threshold  # noqa: F401

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "RunMetrics",
    "TrainResult",
    "cosine_lr",
    "sgd_step",
    "run_epoch",
    "train",
    "train_dense",
    "evaluate_top1",
]

METRICS_HEADER = "epoch,train_loss,val_top1,achieved_sparsity,lr,theta,mask_pearson_vs_final"

# Elements per span of ``sgd_step``'s update: its span-sized scratch array
# (64 KiB of float32) stands in for two weight-sized temporaries.
SGD_SPAN = 1 << 14


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    label_smoothing: float = 0.0
    seed: int = 0
    schedule: SparsitySchedule = field(default_factory=lambda: SparsitySchedule(0.0, 1))
    backbone: BackboneKind = field(default_factory=BackboneKind)
    operator: ThresholdOperator = field(default_factory=lambda: ThresholdOperator.power(3.0))
    grad_policy: GradScalePolicy = field(default_factory=GradScalePolicy)
    lr_warmup_epochs: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.lr_warmup_epochs < self.epochs:
            raise ValueError("lr warmup must be shorter than the run")
        if self.schedule.total_epochs != self.epochs:
            raise ValueError(
                f"schedule spans {self.schedule.total_epochs} epochs, run has {self.epochs}"
            )


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_top1: float
    achieved_sparsity: float
    lr: float
    theta: float
    mask_pearson_vs_final: float


@dataclass
class RunMetrics:
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [METRICS_HEADER]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.train_loss!r},{r.val_top1!r},{r.achieved_sparsity!r},"
                f"{r.lr!r},{r.theta!r},{r.mask_pearson_vs_final!r}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    """The run at an epoch boundary; ``train`` returns it finished.

    ``epoch`` is the next epoch to run; ``momentum`` holds one SGD buffer per
    ``model.parameters()`` entry, in that order. Each ``metrics`` record's
    ``val_top1`` scores the network under that epoch's thresholds, and each
    snapshot holds that epoch's masks. A finished run has no momentum; its
    ``states`` hold the thresholds re-selected on the settled weights after the
    last epoch and the masks they give, which a checkpoint built from them
    stores. ``val_top1`` (NaN until then) scores that network, so it can differ
    from the last recorded one."""

    metrics: RunMetrics
    snapshots: list[MaskSnapshot]
    states: list[PruneLayerState]
    val_top1: float
    momentum: list[np.ndarray]
    epoch: int


def cosine_lr(step: int, total_steps: int, base_lr: float, warmup_steps: int = 0) -> float:
    """Cosine-annealed learning rate with an optional linear warmup from 0."""
    if total_steps < 1:
        raise ValueError(f"total steps must be >= 1, got {total_steps}")
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    if not 0 <= warmup_steps < total_steps:
        raise ValueError(f"warmup steps {warmup_steps} must be < total {total_steps}")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    span = total_steps - warmup_steps
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * (step - warmup_steps) / span))


def sgd_step(weights: np.ndarray, grad: np.ndarray, momentum_buffer: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> None:
    """One in-place SGD-with-momentum update.

    Weight decay acts on the dense weights and is added to the (already
    scaled) loss gradient before momentum accumulation.
    """
    if grad.shape != weights.shape or momentum_buffer.shape != weights.shape:
        raise ValueError(
            f"shape mismatch: weights {weights.shape}, grad {grad.shape}, "
            f"buffer {momentum_buffer.shape}"
        )
    # A span of leading-axis rows at a time (a view for any layout), with
    # ``lr * buffer`` and ``grad + weight_decay * weights`` formed in one
    # span-sized scratch array: each element sees the whole-array expressions.
    w, g, buf = np.atleast_1d(weights, grad, momentum_buffer)
    rows = max(1, SGD_SPAN * len(w) // max(w.size, 1))
    scratch = np.empty_like(buf[:rows])
    for start in range(0, len(w), rows):
        w_span, b_span = w[start : start + rows], buf[start : start + rows]
        step = scratch[: len(w_span)]
        b_span *= np.float32(momentum)
        if weight_decay != 0.0:
            np.multiply(weight_decay, w_span, out=step)
            step += g[start : start + rows]
            b_span += step
        else:
            b_span += g[start : start + rows]
        np.multiply(np.float32(lr), b_span, out=step)
        w_span -= step


def evaluate_top1(model: Model, x: np.ndarray, y: np.ndarray, batch_size: int,
                  weight_overrides: Optional[dict] = None) -> float:
    """Top-1 accuracy over stored rows (a :class:`SplitDataset` split), evaluated
    without gradient recording; each batch goes through ``decode_features``.
    ``weight_overrides`` maps layer names to the weights to use in their place
    (see :meth:`Model.forward`)."""
    correct = 0
    for start in range(0, len(x), batch_size):
        xb = Tensor(decode_features(x[start : start + batch_size]))
        logits = model.forward(xb, weight_overrides)
        pred = logits.data.argmax(axis=1)
        correct += int((pred == y[start : start + batch_size]).sum())
    return correct / len(x)


def _layer_norms(model: Model) -> dict[str, float]:
    return {layer.name: float(np.linalg.norm(layer.weight.data)) for layer in model.layers}


def _step_lr(config: TrainConfig, n_train: int, epoch: int, batch_index: int = 0) -> float:
    """``cosine_lr`` at step ``epoch * steps_per_epoch + batch_index`` of the run."""
    per_epoch = math.ceil(n_train / config.batch_size)
    return cosine_lr(epoch * per_epoch + batch_index, config.epochs * per_epoch, config.lr,
                     config.lr_warmup_epochs * per_epoch)


def run_epoch(config: TrainConfig, model: Model, run: TrainResult, dataset) -> None:
    """Train epoch ``run.epoch`` of ``run`` on ``model``, the model whose
    parameters ``run.momentum`` and ``run.states`` hold state for; append the
    epoch's record and mask snapshot, then advance ``run.epoch``."""
    epoch, states, params = run.epoch, run.states, model.parameters()
    assign_thresholds(states, cubic_sparsity(epoch, config.schedule), config.backbone)
    achieved = measured_sparsity(states)
    n_train = len(dataset.train_x)
    perm = epoch_permutation(config.seed, epoch, n_train)
    loss_sum = 0.0
    for batch_index, start in enumerate(range(0, n_train, config.batch_size)):
        idx = perm[start : start + config.batch_size]
        lr_t = _step_lr(config, n_train, epoch, batch_index)
        try:
            with Tape() as tape:
                overrides = {state.name: feather_forward(state, keep_grad=False)
                             for state in states}
                logits = model.forward(Tensor(decode_features(dataset.train_x[idx])), overrides)
                loss = softmax_cross_entropy(logits, dataset.train_y[idx],
                                             config.label_smoothing)
                tape.backward(loss)
        except NonFiniteError as exc:
            raise TrainingDivergedError(epoch, batch_index, _layer_norms(model)) from exc
        for param, buffer in zip(params, run.momentum, strict=True):
            sgd_step(param.data, param.grad, buffer, lr_t, config.momentum, config.weight_decay)
            param.grad = None
        loss_sum += loss.item() * len(idx)
        # The thresholded weights keep no gradient, and each parameter's goes
        # once SGD has read it. The step's graph (its tape with the arrays
        # each layer's backward reads, and the thresholded weights) goes here,
        # so the next step's threshold pass finds none of it alive.
        del tape, overrides, logits, loss

    val_top1 = evaluate_top1(model, dataset.val_x, dataset.val_y, config.batch_size,
                             {state.name: feather_forward(state) for state in states})
    run.snapshots.append(MaskSnapshot(epoch, {state.name: state.mask for state in states}))
    run.metrics.records.append(EpochRecord(
        epoch=epoch,
        train_loss=loss_sum / n_train,
        val_top1=val_top1,
        achieved_sparsity=achieved,
        lr=_step_lr(config, n_train, epoch),
        theta=select_theta(config.grad_policy, config.schedule.final_sparsity),
        mask_pearson_vs_final=1.0,
    ))
    run.epoch += 1


def train(config: TrainConfig, model: Model, dataset) -> TrainResult:
    """Sparse training under the configured backbone, operator, and policy:
    ``run_epoch`` over every epoch, then the finishing re-selection.

    The last epoch's ``val_top1`` is measured before the thresholds are
    re-selected on the final weights, the result's after; see
    :class:`TrainResult`.
    """
    theta = select_theta(config.grad_policy, config.schedule.final_sparsity)
    states = [PruneLayerState(layer.name, layer.kind, layer.weight, config.operator, theta=theta)
              for layer in model.layers if layer.prunable]
    run = TrainResult(RunMetrics(), [], states, math.nan,
                      [np.zeros_like(p.data) for p in model.parameters()], 0)
    while run.epoch < config.epochs:
        run_epoch(config, model, run, dataset)

    run.momentum.clear()  # done with; the final eval's arrays can take their place
    for record, (_, r) in zip(run.metrics.records, stability_curve(run.snapshots)):
        record.mask_pearson_vs_final = r
    # Re-select thresholds on the settled weights so the returned state (and
    # any checkpoint built from it) is self-consistent: its masks are exactly
    # the thresholds applied to the final weights, at the same quantile the
    # last epoch recorded. That network is then scored once more; with no tape
    # active, feather_forward sets each state's mask and returns a constant.
    assign_thresholds(states, cubic_sparsity(config.epochs - 1, config.schedule),
                      config.backbone)
    run.val_top1 = evaluate_top1(model, dataset.val_x, dataset.val_y, config.batch_size,
                                 {state.name: feather_forward(state) for state in states})
    return run


def train_dense(config: TrainConfig, model: Model, dataset) -> TrainResult:
    """Plain dense training; the reference loop for the zero-sparsity case."""
    params = model.parameters()
    buffers = [np.zeros_like(p.data) for p in params]
    n_train = len(dataset.train_x)
    metrics = RunMetrics()
    for epoch in range(config.epochs):
        perm = epoch_permutation(config.seed, epoch, n_train)
        loss_sum = 0.0
        for batch_index, start in enumerate(range(0, n_train, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            lr_t = _step_lr(config, n_train, epoch, batch_index)
            try:
                with Tape() as tape:
                    logits = model.forward(Tensor(decode_features(dataset.train_x[idx])))
                    loss = softmax_cross_entropy(logits, dataset.train_y[idx],
                                                 config.label_smoothing)
                    tape.backward(loss)
            except NonFiniteError as exc:
                raise TrainingDivergedError(epoch, batch_index, _layer_norms(model)) from exc
            for param, buffer in zip(params, buffers):
                sgd_step(param.data, param.grad, buffer, lr_t, config.momentum,
                         config.weight_decay)
                param.grad = None
            loss_sum += loss.item() * len(idx)

        val_top1 = evaluate_top1(model, dataset.val_x, dataset.val_y, config.batch_size)
        metrics.records.append(EpochRecord(
            epoch=epoch, train_loss=loss_sum / n_train, val_top1=val_top1,
            achieved_sparsity=0.0, lr=_step_lr(config, n_train, epoch), theta=1.0,
            mask_pearson_vs_final=1.0))

    return TrainResult(metrics, [], [], metrics.records[-1].val_top1, [], config.epochs)
