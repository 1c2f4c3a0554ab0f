"""Straight-through sparse training block with pruned-gradient scaling.

Each prunable layer keeps its dense weights and, per forward pass, computes a
thresholded copy that the network actually uses. The backward pass treats the
thresholding as the identity (straight-through), except that gradient entries
at pruned positions are multiplied by a constant scale theta in [0, 1]:

    dense_grad[i] = grad_wrt_sparse[i]            if |w[i]| > T
    dense_grad[i] = theta * grad_wrt_sparse[i]    otherwise

theta = 1 recovers the standard straight-through update, theta = 0 blocks all
gradient flow to pruned weights. Intermediate values damp mask churn, which
matters at extreme sparsity; the automatic policy picks 1.0 for moderate final
sparsity targets and drops to 0.5 for targets at or above 95%.

``feather_forward`` records the whole block as one op on the active tape, so
``Tape.backward`` fills the dense weights' ``grad`` and, unless asked not to,
keeps the gradient w.r.t. the sparse weights on the op's output; with no tape
it returns a constant, which is what evaluation uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import Tape, Tensor
from .thresholding import ThresholdOperator, apply_threshold

__all__ = [
    "PruneLayerState",
    "GradScalePolicy",
    "feather_forward",
    "feather_backward",
    "select_theta",
]

FIXED = "fixed"
AUTO_STEP = "auto_step"
AUTO_SPARSITY_CUTOFF = 0.95
AUTO_LOW_THETA = 0.5

# Elements per span of the in-place pruned-gradient scale: it holds one span
# of float32 scratch (64 KiB) in place of a weight-sized temporary.
SPAN = 1 << 14


@dataclass
class PruneLayerState:
    """Pruning state attached to one layer's weight tensor.

    ``threshold`` is assigned by a backbone before each epoch; ``mask`` always
    reflects the most recent forward pass over the current weights.
    """

    name: str
    kind: str  # "conv" or "fc"
    weights: Tensor
    op: ThresholdOperator
    theta: float = 1.0
    threshold: Optional[float] = None
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.kind not in ("conv", "fc"):
            raise ValueError(f"layer kind must be 'conv' or 'fc', got {self.kind!r}")


@dataclass(frozen=True)
class GradScalePolicy:
    """How theta is chosen from the final sparsity target.

    ``fixed`` always uses ``theta``; ``auto_step`` uses 1.0 below
    ``AUTO_SPARSITY_CUTOFF`` and ``AUTO_LOW_THETA`` at or above it.
    """

    mode: str = AUTO_STEP
    theta: float = 1.0

    def __post_init__(self):
        if self.mode not in (FIXED, AUTO_STEP):
            raise ValueError(f"unknown grad-scale mode {self.mode!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")


def select_theta(policy: GradScalePolicy, final_sparsity: float) -> float:
    """Choose the pruned-gradient scale once, at the start of training."""
    if not 0.0 <= final_sparsity <= 1.0:
        raise ValueError(f"final sparsity must be in [0, 1], got {final_sparsity}")
    if policy.mode == FIXED:
        return policy.theta
    return 1.0 if final_sparsity < AUTO_SPARSITY_CUTOFF else AUTO_LOW_THETA


def _scale_pruned_in_place(grad: np.ndarray, mask: np.ndarray, theta: float) -> np.ndarray:
    """``grad * max(mask, theta)`` written into ``grad`` itself, ``SPAN``
    elements at a time, and ``grad`` returned; ``grad`` must be an array that
    nothing else reads. A ``grad`` that is not C-contiguous is scaled in a
    C-ordered copy, which is returned in its place."""
    if theta == 1.0:
        return grad
    if not grad.flags.c_contiguous:
        grad = np.ascontiguousarray(grad)
    # max(mask, theta) is 1 where the mask is set and theta elsewhere, as
    # 0 <= theta <= 1; unlike np.where(mask, 1, theta) its cost does not
    # depend on how the mask's bits are spread.
    flat, bits = grad.reshape(-1), mask.reshape(-1)
    scratch = np.empty(min(flat.size, SPAN), dtype=np.float32)
    for start in range(0, flat.size, SPAN):
        span = flat[start : start + SPAN]
        scale = scratch[: span.size]
        np.copyto(scale, bits[start : start + SPAN])
        np.maximum(scale, np.float32(theta), out=scale)
        np.multiply(span, scale, out=span)
    return grad


def feather_forward(state: PruneLayerState, keep_grad: bool = True) -> Tensor:
    """Threshold the dense weights for this layer's forward computation.

    Refreshes ``state.mask`` from the current weights and threshold and returns
    the sparse weights; the dense weights are untouched. Under a tape, if the
    dense weights require a gradient, the output's recorded backward passes its
    gradient to them with this pass's pruned entries scaled by ``state.theta``:
    the incoming gradient, which the tape hands over held by nothing else, is
    scaled in place and goes on to the dense weights uncopied. With
    ``keep_grad`` that backward first keeps a copy of it, at every theta, as
    the output's ``grad``; without it the output keeps none. Otherwise the
    output is a constant.
    """
    if state.threshold is None:
        raise ValueError(f"layer {state.name!r} has no threshold assigned")
    pruned, mask = apply_threshold(state.weights.data, state.threshold, state.op)
    state.mask = mask
    tape = Tape.current()
    if tape is None or not state.weights.requires_grad:
        return Tensor(pruned)
    out = Tensor(pruned, requires_grad=True)
    weights, theta = state.weights, state.theta

    def backward_fn(g: np.ndarray):
        if keep_grad:  # a copy, taken before ``g`` is scaled in place
            out.accumulate_grad(g)
        return [(weights, _scale_pruned_in_place(g, mask, theta))]

    tape.record(out, backward_fn)
    return out


def feather_backward(state: PruneLayerState, grad_wrt_sparse: np.ndarray) -> np.ndarray:
    """Scale the sparse-weight gradient and install it on the dense weights.

    Must be called with the mask from the immediately preceding forward pass;
    active positions pass through unchanged, pruned positions are scaled by
    theta. With theta = 1 the given gradient array itself is installed;
    otherwise a scaled copy, and the given array is left as it was.
    """
    if state.mask is None:
        raise ValueError(f"layer {state.name!r} has no mask; run feather_forward first")
    grad = np.asarray(grad_wrt_sparse)
    if grad.shape != state.mask.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match mask shape {state.mask.shape}"
        )
    state.weights.grad = _scale_pruned_in_place(grad if state.theta == 1.0 else grad.copy(),
                                                state.mask, state.theta)
    return state.weights.grad
