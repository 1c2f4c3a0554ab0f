"""Magnitude-thresholding operators and threshold selection.

The operator family interpolates between the two classical magnitude pruners:

    soft:    P_T(w) = sign(w) * (|w| - T)           if |w| > T, else 0
    hard:    P_T(w) = w                             if |w| > T, else 0
    power-p: P_T(w) = sign(w) * (|w|^p - T^p)^(1/p) if |w| > T, else 0

Power-p with p = 1 is soft thresholding; as p grows the curve approaches hard
thresholding, trading shrinkage bias against continuity at the threshold. The
pruning condition is the strict inequality |w| > T, so values exactly at the
threshold are pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

__all__ = ["ThresholdOperator", "apply_threshold", "select_threshold"]

SOFT = "soft"
HARD = "hard"
POWER = "powerp"

_KINDS = (SOFT, HARD, POWER)

# Survivors evaluated per block by the power-p branch: its float64
# temporaries (128 KiB each) stay in L2 whatever the survivor count.
POWER_BLOCK = 1 << 14


@dataclass(frozen=True)
class ThresholdOperator:
    """One member of the operator family: a kind plus, for power-p, the power."""

    kind: str
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}, expected one of {_KINDS}")
        if not self.p >= 1.0:
            raise ValueError(f"power must be >= 1, got {self.p}")

    @staticmethod
    def soft() -> "ThresholdOperator":
        return ThresholdOperator(SOFT)

    @staticmethod
    def hard() -> "ThresholdOperator":
        return ThresholdOperator(HARD)

    @staticmethod
    def power(p: float) -> "ThresholdOperator":
        return ThresholdOperator(POWER, float(p))


def apply_threshold(
    weights: np.ndarray, threshold: float, op: ThresholdOperator
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a thresholding operator elementwise.

    Returns ``(pruned, mask)`` where ``mask[i] = |w[i]| > T`` and ``pruned``
    has the operator's value at surviving positions and exact zeros elsewhere.
    The result is exactly odd in ``weights``; at T = 0 every operator reduces
    to the identity on nonzero entries and is returned bit-for-bit.
    """
    w = np.asarray(weights)
    magnitude = np.abs(w)
    # The largest magnitude is NaN or inf exactly when some weight is; an
    # empty array has none, so ``initial`` keeps it finite.
    if not np.isfinite(magnitude.max(initial=0)):
        raise NonFiniteError("apply_threshold received non-finite weights")
    threshold = float(threshold)
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")

    mask = magnitude > threshold

    if op.kind == HARD or threshold == 0.0:
        surviving = w
    elif op.kind == SOFT or (op.kind == POWER and op.p == 1.0):
        surviving = np.copysign(magnitude - w.dtype.type(threshold), w)
    else:
        # (|w|^p - T^p)^(1/p) computed as T * r * (1 - r^-p)^(1/p) with
        # r = |w|/T >= 1, which avoids overflow of |w|^p for large p. The
        # underflow of r^-p for very large r is benign: it lands on the hard
        # limit |w| exactly. Only the surviving entries are gathered (by flat
        # index) and evaluated in float64, a fixed-size block of them at a
        # time in two preallocated block buffers, so the float64 working set
        # stays small; each value is bit-for-bit what a pass over the whole
        # matrix would give.
        del magnitude
        p = op.p
        kept = np.flatnonzero(mask)
        flat_w = w.reshape(-1)
        pruned = np.zeros(w.shape, dtype=w.dtype)
        flat_pruned = pruned.reshape(-1)
        block = min(kept.size, POWER_BLOCK)
        scaled_buf, ratio_buf = np.empty(block), np.empty(block)
        for start in range(0, kept.size, POWER_BLOCK):
            index = kept[start : start + POWER_BLOCK]
            signed = flat_w[index]
            scaled, ratio = scaled_buf[: index.size], ratio_buf[: index.size]
            np.abs(signed, out=scaled)
            with np.errstate(over="ignore"):
                np.divide(scaled, threshold, out=ratio)
                np.multiply(threshold, ratio, out=scaled)
                # in-place ** takes the same scalar-exponent paths as **
                ratio **= -p
                np.subtract(1.0, ratio, out=ratio)
                ratio **= 1.0 / p
                scaled *= ratio
            # A subnormal threshold can overflow the ratio; there the bias T is
            # far below one float32 ulp of |w|, so the exact answer is |w|.
            if not np.isfinite(scaled.max()):
                np.copyto(scaled, np.abs(signed), where=~np.isfinite(scaled))
            # Every survivor is nonzero, so copying its sign equals sign(w) * x.
            flat_pruned[index] = np.copysign(scaled.astype(w.dtype, copy=False), signed)
        return pruned, mask

    pruned = np.where(mask, surviving, w.dtype.type(0.0))
    return pruned, mask


def select_threshold(magnitudes: np.ndarray, target_sparsity: float) -> float:
    """Pick the threshold that prunes (at least) a target fraction of entries.

    With k = floor(target * N), returns 0 when k = 0 and otherwise the k-th
    smallest magnitude. Because pruning uses the strict rule |w| > T, at least
    k entries fall at or below the returned threshold; ties at the k-th value
    overshoot the target by the tie count.
    """
    mags = np.asarray(magnitudes)
    if mags.size == 0:
        raise ValueError("select_threshold requires a nonempty magnitude array")
    if not 0.0 <= target_sparsity <= 1.0:
        raise ValueError(f"target sparsity must be in [0, 1], got {target_sparsity}")
    if mags.min() < 0:
        raise ValueError("magnitudes must be nonnegative")

    k = int(np.floor(target_sparsity * mags.size))
    if k == 0:
        return 0.0
    flat = mags.ravel()
    return float(np.partition(flat, k - 1)[k - 1])
