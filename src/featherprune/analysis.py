"""Mask-stability and FLOPs measurement over training runs.

Everything here is read-only over arrays already produced by the trainer;
nothing mutates model or mask state.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaskSnapshot",
    "LayerFlops",
    "FlopsReport",
    "mask_pearson",
    "stability_curve",
    "curve_to_csv",
    "flops_count",
]


class MaskSnapshot:
    """Keep-masks for every layer at the end of one epoch, one bit per weight.

    ``MaskSnapshot(epoch, masks)`` takes a mapping from layer name to a bool
    or integer mask (nonzero means kept) and packs each layer with
    ``np.packbits``, so a run's history costs ceil(N/8) bytes per epoch
    instead of N. ``masks`` unpacks on every read and returns a new dict of
    fresh bool arrays of the original shapes; ``unpacked(layer)`` gives one
    layer as a fresh u8 0/1 array, the FTHR mask wire form. Layers keep their
    insertion order, which is the model's; concatenation order for the
    stability statistics follows it and must match across snapshots.
    """

    __slots__ = ("epoch", "_bits")

    def __init__(self, epoch: int, masks: Mapping[str, np.ndarray]):
        self.epoch = epoch
        self._bits = {}
        for name, mask in masks.items():
            mask = np.asarray(mask)
            if mask.dtype.kind not in "biu":
                mask = mask.astype(bool)
            self._bits[name] = (np.packbits(mask), mask.shape)

    @property
    def layers(self) -> list[str]:
        return list(self._bits)

    @property
    def layout(self) -> list[tuple[str, tuple]]:
        """Each layer's name and mask shape, in order."""
        return [(name, shape) for name, (_, shape) in self._bits.items()]

    def unpacked(self, layer: str) -> np.ndarray:
        bits, shape = self._bits[layer]
        return np.unpackbits(bits, count=math.prod(shape)).reshape(shape)

    @property
    def masks(self) -> dict[str, np.ndarray]:
        return {name: self.unpacked(name).view(bool) for name in self._bits}


def mask_pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson r between two boolean masks encoded as {0,1}.

    A constant vector has no defined correlation; that case returns 1.0 when
    the inputs are identical and 0.0 otherwise.
    """
    av, bv = np.ravel(a), np.ravel(b)
    if av.size != bv.size:
        raise ValueError(f"mask length mismatch: {av.size} vs {bv.size}")
    pair = np.empty((2, av.size), dtype=bool)
    pair[0], pair[1] = av, bv
    return _pair_pearson(pair)


def _pair_pearson(pair: np.ndarray) -> float:
    """``mask_pearson`` of the rows of one (2, N) bool array. corrcoef makes
    its single float64 copy from the pair, where corrcoef(a, b) would convert
    each vector and then stack them."""
    if pair.shape[1] < 2:
        raise ValueError("Pearson needs at least 2 entries")
    av, bv = pair
    if np.array_equal(av, bv):
        # corrcoef can land one ulp under 1.0; identical masks are exactly 1.
        return 1.0
    if not (av.any() and bv.any()) or av.all() or bv.all():
        return 0.0
    # corrcoef clips its result to [-1, 1]
    return float(np.corrcoef(pair)[0, 1])


def _unpack_into(row: np.ndarray, snapshot: MaskSnapshot) -> None:
    """Write a snapshot's layers, raveled in order, into one bool row."""
    start = 0
    for name in snapshot.layers:
        bits = snapshot.unpacked(name).reshape(-1)
        row[start : start + bits.size] = bits.view(bool)
        start += bits.size


def stability_curve(snapshots: list[MaskSnapshot]) -> list[tuple[int, float]]:
    """Per-epoch Pearson r of each snapshot's global mask against the final one.

    Every snapshot must hold the final one's layers, in its order and shapes,
    so that equal positions in the concatenated masks are the same weight.
    One (2, N) bool pair holds the final masks in its second row and each
    snapshot's in turn in its first.
    """
    if not snapshots:
        raise ValueError("no mask snapshots to correlate")
    last = snapshots[-1]
    if not last.layers:
        raise ValueError(f"snapshot for epoch {last.epoch} holds no masks")
    pair = np.empty((2, sum(math.prod(shape) for _, shape in last.layout)), dtype=bool)
    _unpack_into(pair[1], last)
    curve = []
    for snap in snapshots:
        if snap.layout != last.layout:
            raise ValueError(f"epoch {snap.epoch} masks have layers {snap.layout}, "
                             f"final epoch {last.epoch} has {last.layout}")
        _unpack_into(pair[0], snap)
        curve.append((snap.epoch, _pair_pearson(pair)))
    return curve


def curve_to_csv(curve: list[tuple[int, float]]) -> str:
    lines = ["epoch,r"]
    for epoch, r in curve:
        lines.append(f"{epoch},{r!r}")
    return "\n".join(lines) + "\n"


@dataclass
class LayerFlops:
    layer: str
    dense_flops: int
    sparse_flops: int


@dataclass
class FlopsReport:
    """Dense and kept-weight FLOPs per layer (2 ops per multiply-accumulate)."""

    layers: list[LayerFlops]

    @property
    def total_dense(self) -> int:
        return sum(l.dense_flops for l in self.layers)

    @property
    def total_sparse(self) -> int:
        return sum(l.sparse_flops for l in self.layers)

    def to_csv(self) -> str:
        lines = ["layer,dense_flops,sparse_flops"]
        for l in self.layers:
            lines.append(f"{l.layer},{l.dense_flops},{l.sparse_flops}")
        lines.append(f"total,{self.total_dense},{self.total_sparse}")
        return "\n".join(lines) + "\n"


def flops_count(model, masks: dict[str, np.ndarray]) -> FlopsReport:
    """FLOPs for one forward pass at batch size 1, bias terms ignored.

    Fully connected: dense 2*in*out, sparse 2*nnz. Convolution: per output
    position every kept kernel weight costs one multiply-accumulate, so dense
    2*F*C*kh*kw*H'*W' and sparse 2*nnz*H'*W'.
    """
    rows = []
    for layer, out_shape in zip(model.layers, model.layer_output_shapes()):
        if layer.name not in masks:
            raise ValueError(f"no mask supplied for layer {layer.name}")
        mask = np.asarray(masks[layer.name])
        if mask.shape != layer.weight.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match layer {layer.name} "
                f"weights {layer.weight.shape}"
            )
        nnz = int(mask.astype(bool).sum())
        if layer.kind == "conv":
            positions = int(out_shape[1]) * int(out_shape[2])
            dense = 2 * math.prod(layer.weight.shape) * positions
            sparse = 2 * nnz * positions
        else:
            dense = 2 * math.prod(layer.weight.shape)
            sparse = 2 * nnz
        rows.append(LayerFlops(layer.name, dense, sparse))
    return FlopsReport(rows)
