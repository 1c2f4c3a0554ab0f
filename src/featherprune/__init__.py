"""Sparse neural-network training with shape-controlled magnitude thresholding.

The package trains dense weights while the forward pass sees a thresholded
copy (straight-through estimation), with a power-p operator family between
soft and hard thresholding, optional scaling of gradients at pruned
coordinates, and global or uniform layer-wise threshold selection on a cubic
sparsity ramp. A small reverse-mode tensor core keeps every run bitwise
reproducible; analysis helpers measure mask stability and sparse FLOPs.
"""

from .analysis import FlopsReport, MaskSnapshot, flops_count, mask_pearson, stability_curve
from .backbones import BackboneKind, SparsitySchedule, assign_thresholds, cubic_sparsity
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import (
    DatasetDescriptor,
    SplitDataset,
    decode_features,
    load_dataset,
    synth_blobs,
)
from .errors import ConfigError, FormatError, NonFiniteError, TrainingDivergedError
from .feather import (
    GradScalePolicy,
    PruneLayerState,
    feather_backward,
    feather_forward,
    select_theta,
)
from .models import Model, build_cnn, build_mlp
from .tensor import Tape, Tensor
from .thresholding import ThresholdOperator, apply_threshold, select_threshold
from .trainer import RunMetrics, TrainConfig, cosine_lr, sgd_step, train, train_dense

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "Tape",
    "ThresholdOperator",
    "apply_threshold",
    "select_threshold",
    "PruneLayerState",
    "GradScalePolicy",
    "feather_forward",
    "feather_backward",
    "select_theta",
    "SparsitySchedule",
    "BackboneKind",
    "cubic_sparsity",
    "assign_thresholds",
    "Model",
    "build_mlp",
    "build_cnn",
    "TrainConfig",
    "RunMetrics",
    "cosine_lr",
    "sgd_step",
    "train",
    "train_dense",
    "MaskSnapshot",
    "FlopsReport",
    "mask_pearson",
    "stability_curve",
    "flops_count",
    "DatasetDescriptor",
    "SplitDataset",
    "decode_features",
    "synth_blobs",
    "load_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "ConfigError",
    "FormatError",
    "NonFiniteError",
    "TrainingDivergedError",
    "__version__",
]
