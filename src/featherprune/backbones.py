"""Sparsity scheduling and per-epoch threshold assignment.

The schedule ramps the requested sparsity cubically from 0 to the final target
over the first ``ramp_fraction`` of training (no dense warm-up phase) and
holds it constant afterwards. A backbone turns a requested sparsity into
per-layer thresholds by one rule: each pool of layers gets the k-th smallest
magnitude of its pooled weights. The backbones differ only in their pools:

* global: one pool of every prunable layer, so all share one threshold;
* uniform: one pool per layer, so every layer reaches the same sparsity.

The first convolutional layer can be exempted (kept dense, threshold 0),
which is the default for the uniform backbone. Only prunable layers get a
state, so biases and layers built with ``prunable=False`` never participate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .feather import PruneLayerState
from .thresholding import select_threshold

__all__ = [
    "SparsitySchedule",
    "BackboneKind",
    "cubic_sparsity",
    "assign_thresholds_global",
    "assign_thresholds",
    "measured_sparsity",
]

GLOBAL = "global"
UNIFORM = "uniform"


@dataclass(frozen=True)
class SparsitySchedule:
    final_sparsity: float
    total_epochs: int
    ramp_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.final_sparsity < 1.0:
            raise ValueError(f"final sparsity must be in [0, 1), got {self.final_sparsity}")
        if self.total_epochs < 1:
            raise ValueError(f"total epochs must be >= 1, got {self.total_epochs}")
        if not 0.0 < self.ramp_fraction <= 1.0:
            raise ValueError(f"ramp fraction must be in (0, 1], got {self.ramp_fraction}")


@dataclass(frozen=True)
class BackboneKind:
    """Backbone selector; ``exempt_first_conv=None`` resolves to the backbone
    default (True for uniform, False for global)."""

    kind: str = GLOBAL
    exempt_first_conv: Optional[bool] = None

    def __post_init__(self):
        if self.kind not in (GLOBAL, UNIFORM):
            raise ValueError(f"unknown backbone kind {self.kind!r}")
        if self.exempt_first_conv is None:
            object.__setattr__(self, "exempt_first_conv", self.kind == UNIFORM)


def cubic_sparsity(epoch: int, schedule: SparsitySchedule) -> float:
    """Requested global sparsity for an epoch.

    s(e) = S_final * (1 - (1 - min(e / (ramp * E), 1))^3); the final target is
    reached exactly at the end of the ramp and held from then on.
    """
    if not 0 <= epoch < schedule.total_epochs:
        raise ValueError(
            f"epoch {epoch} outside [0, {schedule.total_epochs})"
        )
    progress = min(epoch / (schedule.ramp_fraction * schedule.total_epochs), 1.0)
    return schedule.final_sparsity * (1.0 - (1.0 - progress) ** 3)


def assign_thresholds(
    layers: Sequence[PruneLayerState], sparsity: float, backbone: BackboneKind
) -> None:
    """Write into each of the backbone's pools the threshold that prunes
    ``sparsity`` of the pool's pooled magnitudes; an exempt first conv gets 0."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    if not layers:
        raise ValueError("no prunable layers to assign thresholds to")
    exempt = None
    if backbone.exempt_first_conv:
        exempt = next((s for s in layers if s.kind == "conv"), None)
    pruned = [s for s in layers if s is not exempt]
    for pool in [pruned] if backbone.kind == GLOBAL else [[s] for s in pruned]:
        # the pool's magnitudes are written into one buffer, which the
        # selection may then reorder in place: one pool-sized array in all
        magnitudes = np.empty(sum(s.weights.data.size for s in pool), dtype=np.float32)
        start = 0
        for state in pool:
            weights = state.weights.data
            np.abs(weights, out=magnitudes[start : start + weights.size].reshape(weights.shape))
            start += weights.size
        threshold = select_threshold(magnitudes, sparsity, overwrite_input=True)
        for state in pool:
            state.threshold = threshold
    if exempt is not None:
        exempt.threshold = 0.0


def assign_thresholds_global(
    layers: Sequence[PruneLayerState], sparsity: float, exempt_first_conv: bool = False
) -> None:
    """One threshold over the pooled magnitudes of every given layer."""
    assign_thresholds(layers, sparsity, BackboneKind(GLOBAL, exempt_first_conv))


def measured_sparsity(layers: Sequence[PruneLayerState]) -> float:
    """Fraction of the layers' weights at or below their layer's threshold."""
    pruned = 0
    total = 0
    for state in layers:
        if state.threshold is None:
            raise ValueError(f"layer {state.name!r} has no threshold assigned")
        magnitude = np.abs(state.weights.data)
        pruned += int((magnitude <= state.threshold).sum())
        total += magnitude.size
    if total == 0:
        raise ValueError("no prunable layers")
    return pruned / total
