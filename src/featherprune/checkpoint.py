"""Binary checkpoint container for weights, thresholds, and masks.

Layout, all integers little-endian u32: magic ``FTHR``, format version,
record count, then per record: name length, UTF-8 name, rank, one u32 per
dim, raw element bytes. There is no dtype field; records named ``*/mask``
hold u8 elements, every other record holds 32-bit little-endian reals. The
writer emits records in insertion order and the reader preserves it, so a
save/load/save cycle is byte-identical. The reader hands out read-only views
of the bytes it read.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Mapping
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .analysis import MaskSnapshot
from .errors import FormatError

__all__ = [
    "MASK_SUFFIX",
    "atomic_open",
    "save_checkpoint",
    "load_checkpoint",
    "model_records",
    "restore_model",
    "snapshot_records",
    "load_snapshots",
]

MAGIC = b"FTHR"
VERSION = 1
MASK_SUFFIX = "/mask"


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temp file beside ``path`` and move it over ``path`` on success.

    A reader sees the old file or the whole new one, never a partial write.
    If the body raises, the temp file is removed and ``path`` is untouched.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _wire_dtype(name: str) -> np.dtype:
    """``*/mask`` records are u8 on the wire, all others little-endian f32."""
    return np.dtype("<u1" if name.endswith(MASK_SUFFIX) else "<f4")


def _checked(name: str, arr) -> np.ndarray:
    """One record as an array, after checking its dtype against its name."""
    arr = np.asarray(arr)
    if name.endswith(MASK_SUFFIX):
        if arr.dtype != np.bool_ and arr.dtype != np.uint8:
            raise ValueError(f"mask record {name!r} must be bool or u8, got {arr.dtype}")
    elif arr.dtype != np.float32:
        raise ValueError(f"record {name!r} must be float32, got {arr.dtype}")
    return arr


def save_checkpoint(path, records: Mapping[str, np.ndarray]) -> None:
    """Write records to ``path``, streamed one at a time into a temp file.

    ``records`` is any mapping; each value is read, validated and written in
    turn, so a lazy mapping such as ``snapshot_records`` has one record in
    memory at a time. A bad record raises while the temp file is being
    written, which removes it and leaves an existing file at ``path``
    unchanged.
    """
    with atomic_open(path) as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(records)))
        for name, arr in records.items():
            arr = _checked(name, arr)
            wire = arr.astype(_wire_dtype(name), order="C", copy=False)
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I",
                                 len(encoded), encoded, arr.ndim, *arr.shape))
            fh.write(wire)  # the array's own buffer, no bytes copy


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The records of the container at ``path``, in file order, each a
    read-only view of the one read of the file: copy one before writing to it."""
    blob = Path(path).read_bytes()
    offset = 0

    def take(n: int, what: str) -> int:
        """Step over the next ``n`` bytes; returns the offset they start at."""
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(
                f"truncated checkpoint: {what} needs {n} bytes at offset {offset}, "
                f"file ends at {len(blob)}"
            )
        offset += n
        return offset - n

    take(4, "magic")
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r} at offset 0, expected {MAGIC!r}")
    version, count = struct.unpack_from("<II", blob, take(8, "header"))
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at offset 4")

    records: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack_from("<I", blob, take(4, f"record {i} name length"))
        name_offset = take(name_len, f"record {i} name")
        raw_name = blob[name_offset:offset]
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"record {i} name is not UTF-8: byte 0x{raw_name[exc.start]:02x} "
                f"at offset {name_offset + exc.start}"
            ) from None
        rank_offset = take(4, f"record {i} rank")
        (rank,) = struct.unpack_from("<I", blob, rank_offset)
        dims = struct.unpack_from(f"<{rank}I", blob, take(4 * rank, f"record {i} dims"))
        dtype, n_elems = _wire_dtype(name), math.prod(dims)
        data_offset = take(n_elems * dtype.itemsize, f"record {i} ({name}) data")
        if name in records:
            raise FormatError(
                f"duplicate record name {name!r} (record {i}) at offset {name_offset}"
            )
        try:
            records[name] = np.frombuffer(blob, dtype, n_elems, data_offset).reshape(dims)
        except ValueError as exc:  # more dims than numpy supports
            raise FormatError(
                f"record {i} ({name}) rank {rank} at offset {rank_offset}: {exc}"
            ) from None
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes at offset {offset}")
    return records


def model_records(model, states=None) -> dict[str, np.ndarray]:
    """Flatten a model (and optional prune state) into checkpoint records."""
    records: dict[str, np.ndarray] = {}
    for layer in model.layers:
        records[f"{layer.name}/weight"] = layer.weight.data
        records[f"{layer.name}/bias"] = layer.bias.data
    for state in states or []:
        if state.threshold is not None:
            records[f"{state.name}/threshold"] = np.array([state.threshold], dtype=np.float32)
        if state.mask is not None:
            records[f"{state.name}{MASK_SUFFIX}"] = state.mask.astype(np.uint8)
    return records


def restore_model(model, records: dict[str, np.ndarray]) -> None:
    """Copy weight and bias records back into a model of matching shape. A
    record belongs to the layer named before its last ``/``; one of a layer the
    model lacks is a ``FormatError`` that names it, as is a missing or
    misshapen weight or bias record."""
    layers = [layer.name for layer in model.layers]
    for name in records:
        if name.rpartition("/")[0] not in layers:
            raise FormatError(f"record {name!r} belongs to no layer of the model "
                              f"({', '.join(layers)})")
    for layer in model.layers:
        for part in ("weight", "bias"):
            key = f"{layer.name}/{part}"
            if key not in records:
                raise FormatError(f"checkpoint is missing record {key!r}")
            value = records[key]
            target = getattr(layer, part)
            if value.shape != target.shape:
                raise FormatError(
                    f"record {key!r} has shape {value.shape}, model expects {target.shape}"
                )
            target.data[...] = value


class _SnapshotRecords(Mapping):
    """Read-only ``epochNNNN/{layer}/mask`` records over packed snapshots."""

    def __init__(self, snapshots):
        self._where = {f"epoch{snap.epoch:04d}/{layer}{MASK_SUFFIX}": (snap, layer)
                       for snap in snapshots for layer in snap.layers}

    def __getitem__(self, name: str) -> np.ndarray:
        snap, layer = self._where[name]
        return snap.unpacked(layer)

    def __iter__(self):
        return iter(self._where)

    def __len__(self) -> int:
        return len(self._where)


def snapshot_records(snapshots) -> Mapping[str, np.ndarray]:
    """Per-epoch mask snapshots as one container's records, in epoch then
    layer order.

    The mapping holds no mask bytes: each read unpacks that one layer of that
    one snapshot into a fresh u8 array, so ``save_checkpoint`` streams
    ``masks.bin`` with one record unpacked at a time.
    """
    return _SnapshotRecords(snapshots)


def load_snapshots(path) -> list[MaskSnapshot]:
    """The per-epoch masks of a container that ``snapshot_records`` laid out,
    in epoch order. A record not named ``epoch<digits>/{layer}/mask``, or a
    second record for the same epoch and layer, is a ``FormatError`` that
    names it."""
    by_epoch: dict[int, dict] = {}
    names: dict[tuple[int, str], str] = {}
    for name, value in load_checkpoint(path).items():
        prefix, _, rest = name.partition("/")
        digits = prefix[len("epoch"):]
        if not (prefix.startswith("epoch") and digits.isdecimal() and rest.endswith(MASK_SUFFIX)):
            raise FormatError(f"unexpected record {name!r} in mask container")
        epoch, layer = int(digits), rest[: -len(MASK_SUFFIX)]
        if (epoch, layer) in names:
            raise FormatError(f"records {names[epoch, layer]!r} and {name!r} both hold "
                              f"epoch {epoch} of layer {layer!r}")
        names[epoch, layer] = name
        by_epoch.setdefault(epoch, {})[layer] = value
    return [MaskSnapshot(epoch, masks) for epoch, masks in sorted(by_epoch.items())]
