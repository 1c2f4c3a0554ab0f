"""Dataset ingestion: IDX image files and seeded synthetic Gaussian blobs.

:func:`load_dataset` resolves both to a :class:`SplitDataset` of stored rows
and int64 labels, split train/val by a leading fraction (data order is kept;
blob labels go round-robin so a prefix split stays class-balanced). IDX rows
are a read-only uint8 view of the image file's bytes, from the one IDX reader;
blob rows are the float32 array :func:`synth_blobs` returns.
:func:`decode_features` turns the rows a step reads into float32 features, so
an image set is held at its stored size rather than 4x it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, FormatError
from .seeding import DATA_STREAM, mix_seed

__all__ = [
    "IDX_IMAGES_MAGIC",
    "IDX_LABELS_MAGIC",
    "DatasetDescriptor",
    "SplitDataset",
    "decode_features",
    "synth_blobs",
    "load_dataset",
    "read_input_shape",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Float64 values of blob noise drawn per block (512 KiB), so synthesis needs
# the float32 output plus a fixed working set rather than whole-dataset
# float64 temporaries.
BLOB_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class DatasetDescriptor:
    """Where the data comes from: IDX files on disk or a seeded generator."""

    kind: str  # "idx" or "blobs"
    split: float = 0.8
    images_path: Optional[str] = None
    labels_path: Optional[str] = None
    classes: int = 10
    dims: int = 64
    samples: int = 4096
    noise: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("idx", "blobs"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"train split must be in (0, 1), got {self.split}")
        if self.kind == "idx":
            if not self.images_path or not self.labels_path:
                raise ConfigError("idx datasets need both images and labels paths")
        else:
            if self.classes < 2:
                raise ConfigError(f"blobs need >= 2 classes, got {self.classes}")
            if self.dims < 2:
                raise ConfigError(f"blobs need >= 2 dims, got {self.dims}")
            if self.samples < self.classes:
                raise ConfigError("fewer samples than classes")
            if not 0.0 <= self.noise < math.inf:
                raise ConfigError(f"noise must be finite and nonnegative, got {self.noise}")


@dataclass
class SplitDataset:
    """Train/val rows as stored: uint8 ``[N, 1, rows, cols]`` pixels for an IDX
    source, float32 ``[N, dims]`` features for blobs. Pass rows through
    :func:`decode_features` to get the float32 features a model reads."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    input_shape: tuple


def _read_header(blob: bytes, n_fields: int, path, expected_magic: int) -> tuple:
    header_len = 4 * n_fields
    if len(blob) < header_len:
        raise FormatError(
            f"{path}: truncated header at offset 0, needed {header_len} bytes, "
            f"file ends at {len(blob)}"
        )
    fields = struct.unpack_from(f">{n_fields}I", blob, 0)
    if fields[0] != expected_magic:
        raise FormatError(
            f"{path}: bad magic 0x{fields[0]:08x} at offset 0, expected 0x{expected_magic:08x}"
        )
    return fields


def _read_image_header(blob: bytes, path) -> tuple[int, int, int]:
    """Image count, rows and cols from an IDX image header; none may be 0."""
    _, count, rows, cols = _read_header(blob, 4, path, IDX_IMAGES_MAGIC)
    for value, field, offset in ((count, "image", 4), (rows, "row", 8), (cols, "column", 12)):
        if value == 0:
            raise FormatError(f"{path}: {field} count is 0 at offset {offset}")
    return count, rows, cols


def _check_size(blob: bytes, path, what: str, start: int, expected: int) -> None:
    """An IDX file is exactly ``expected`` bytes, its ``what`` data from ``start``."""
    if len(blob) < expected:
        raise FormatError(f"{path}: truncated {what} data at offset {start}, needed {expected} "
                          f"bytes, file ends at {len(blob)}")
    if len(blob) > expected:
        raise FormatError(f"{path}: {len(blob) - expected} trailing bytes at offset {expected}")


def decode_features(rows: np.ndarray) -> np.ndarray:
    """Float32 features for stored rows: uint8 pixels scaled to [0, 1] as
    ``astype(float32)`` then ``/= 255.0``; float32 rows come back unchanged."""
    if rows.dtype != np.uint8:
        return rows
    features = rows.astype(np.float32)
    features /= 255.0
    return features


def _read_idx(images_path, labels_path, num_classes: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """The pixels of an IDX pair as a read-only uint8 [N, 1, rows, cols] view of
    the image file's bytes, and the labels as int64. A label at or above
    ``num_classes`` is a ``FormatError`` naming the offset of the first one."""
    img_blob = Path(images_path).read_bytes()
    count, rows, cols = _read_image_header(img_blob, images_path)
    _check_size(img_blob, images_path, "pixel", 16, 16 + count * rows * cols)
    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16).reshape(count, 1, rows, cols)

    lbl_blob = Path(labels_path).read_bytes()
    _, lbl_count = _read_header(lbl_blob, 2, labels_path, IDX_LABELS_MAGIC)
    _check_size(lbl_blob, labels_path, "label", 8, 8 + lbl_count)
    if lbl_count != count:
        raise FormatError(
            f"count mismatch at offset 4: {images_path} has {count} images, "
            f"{labels_path} has {lbl_count} labels"
        )
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, offset=8).astype(np.int64)
    if num_classes is not None and labels.max() >= num_classes:
        first = int(np.argmax(labels >= num_classes))
        raise FormatError(f"{labels_path}: label {labels[first]} out of range for "
                          f"{num_classes} classes at offset {8 + first}")
    return pixels, labels


def synth_blobs(desc: DatasetDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Gaussian clusters, float32 ``[samples, dims]`` points and int64
    labels, with the minimum inter-center distance fixed at 1.

    Class centers are standard-normal draws rescaled so the closest pair sits
    exactly one unit apart, making ``noise`` directly comparable to the class
    gap. Labels go round-robin, so class counts differ by at most one.
    """
    if desc.kind != "blobs":
        raise ConfigError(f"synth_blobs needs a blobs descriptor, got kind {desc.kind!r}")
    rng = np.random.default_rng(mix_seed(desc.seed, DATA_STREAM))
    centers = rng.standard_normal((desc.classes, desc.dims))
    # Each center against the ones after it, a row at a time, so the working
    # set is (classes, dims) rather than every pair at once; a difference and
    # its negation square to the same value, so these are the pairwise bytes.
    min_dist = min(np.sqrt(((centers[i + 1 :] - centers[i]) ** 2).sum(axis=1)).min()
                   for i in range(desc.classes - 1))
    if min_dist == 0.0:
        raise ValueError("degenerate blob centers: two classes coincide")
    centers /= min_dist

    labels = np.arange(desc.samples, dtype=np.int64) % desc.classes
    # The noise is drawn a block of rows at a time straight into a float32
    # output. The generator yields the same stream in chunks as in one call,
    # and each point is still the float64 sum rounded once to float32.
    points = np.empty((desc.samples, desc.dims), dtype=np.float32)
    rows = max(1, BLOB_BLOCK_VALUES // desc.dims)
    for start in range(0, desc.samples, rows):
        stop = min(start + rows, desc.samples)
        block = rng.standard_normal((stop - start, desc.dims))
        block *= desc.noise
        block += centers[labels[start:stop]]
        points[start:stop] = block
    return points, labels


def load_dataset(desc: DatasetDescriptor,
                 expected_classes: Optional[int] = None) -> SplitDataset:
    if desc.kind == "idx":
        data, y = _read_idx(desc.images_path, desc.labels_path, expected_classes)
    else:
        if expected_classes is not None and expected_classes != desc.classes:
            raise ConfigError(
                f"model expects {expected_classes} classes, blobs descriptor has {desc.classes}"
            )
        data, y = synth_blobs(desc)

    n_train = int(desc.split * len(data))
    if n_train < 1 or n_train >= len(data):
        raise ConfigError(
            f"split {desc.split} leaves an empty train or val side for {len(data)} samples"
        )
    return SplitDataset(
        train_x=data[:n_train],
        train_y=y[:n_train],
        val_x=data[n_train:],
        val_y=y[n_train:],
        input_shape=tuple(data.shape[1:]),
    )


def read_input_shape(desc: DatasetDescriptor) -> tuple:
    """One sample's shape without loading the data: ``(dims,)`` for blobs,
    ``(1, rows, cols)`` from the header of an IDX image file."""
    if desc.kind == "blobs":
        return (desc.dims,)
    with open(desc.images_path, "rb") as fh:
        _, rows, cols = _read_image_header(fh.read(16), desc.images_path)
    return (1, rows, cols)
