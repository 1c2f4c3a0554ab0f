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
    """Pearson r between two masks (nonzero means kept); see ``_pearson``."""
    av, bv = np.ravel(a).astype(bool, copy=False), np.ravel(b).astype(bool, copy=False)
    if av.size != bv.size:
        raise ValueError(f"mask length mismatch: {av.size} vs {bv.size}")
    return _pearson(av.size, *(int(np.count_nonzero(v)) for v in (av, bv, av & bv)))


def _pearson(n: int, na: int, nb: int, nab: int) -> float:
    """Pearson r of two 0/1 vectors of length n from |a|, |b| and |a AND b|,
    exact in Python ints (in int64 the denominator's product overflows once
    n passes about 110,000) up to one square root and one division, so
    neither BLAS nor SIMD loops enter it. Identical vectors give exactly 1.0;
    otherwise a constant vector, which has no defined correlation, gives 0.0.

    r needs no clamp to [-1, 1]. Complementary vectors give exactly -1.0:
    with x = na*nb < 2^53 (any n below 1.8e8), sqrt(fl(x*x)) == x. Any other
    table has 1 - |r| of about 2/n or more (the nearest are one flip from
    identical or from complementary), far above the few ulps of rounding at
    any n below 2^50."""
    if n < 2:
        raise ValueError("Pearson needs at least 2 entries")
    if na == nb == nab:
        return 1.0
    if na in (0, n) or nb in (0, n):
        return 0.0
    return (n * nab - na * nb) / math.sqrt(na * (n - na) * nb * (n - nb))


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount(packed: np.ndarray) -> int:
    """Set bits of packed bytes, through the table of each byte value's."""
    return int(_POPCOUNT[packed].sum())


def stability_curve(snapshots: list[MaskSnapshot]) -> list[tuple[int, float]]:
    """Per-epoch Pearson r of each snapshot's global mask against the final one.

    Every snapshot must hold the final one's layers, in its order and shapes,
    so that equal positions in the concatenated masks are the same weight.
    The counts ``_pearson`` needs are summed layer by layer straight from the
    packed bits; the zero bits that pad a layer to whole bytes count nothing.
    """
    if not snapshots:
        raise ValueError("no mask snapshots to correlate")
    last = snapshots[-1]
    if not last.layers:
        raise ValueError(f"snapshot for epoch {last.epoch} holds no masks")
    final = [bits for bits, _ in last._bits.values()]
    n = sum(math.prod(shape) for _, shape in last.layout)
    nb = sum(map(_popcount, final))
    curve = []
    for snap in snapshots:
        if snap.layout != last.layout:
            raise ValueError(f"epoch {snap.epoch} masks have layers {snap.layout}, "
                             f"final epoch {last.epoch} has {last.layout}")
        na = nab = 0
        for (bits, _), final_bits in zip(snap._bits.values(), final):
            na += _popcount(bits)
            nab += _popcount(bits & final_bits)
        curve.append((snap.epoch, _pearson(n, na, nb, nab)))
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
