"""Flat key=value run configuration.

The on-disk format is one ``section.key=value`` pair per line, ``#`` lines are
comments, later occurrences of a key win. Command-line ``--set`` overrides are
applied after the file. ``config_to_text`` echoes the fully resolved config in
a form that parses back to the same values, so every run directory carries an
exact record of what produced it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .backbones import BackboneKind, SparsitySchedule
from .datasets import DatasetDescriptor
from .errors import ConfigError
from .feather import GradScalePolicy
from .models import Model, build_cnn, build_mlp
from .seeding import init_rng
from .thresholding import ThresholdOperator
from .trainer import TrainConfig

__all__ = [
    "SCHEMA",
    "RunSpec",
    "parse_kv_text",
    "resolve_config",
    "config_to_text",
    "build_runspec",
    "build_operator",
    "build_descriptor",
    "build_model_for",
]

# key -> (value kind, default). Kinds: int, float, str, int_list,
# tribool (true/false/auto), choice:a|b|c.
SCHEMA: dict[str, tuple[str, object]] = {
    "run.label": ("str", "run"),
    "run.seed": ("int", 0),
    "train.epochs": ("int", 20),
    "train.batch_size": ("int", 128),
    "train.lr": ("float", 0.1),
    "train.momentum": ("float", 0.9),
    "train.weight_decay": ("float", 0.0),
    "train.label_smoothing": ("float", 0.0),
    "train.lr_warmup_epochs": ("int", 0),
    "prune.operator": ("choice:soft|hard|powerp", "powerp"),
    "prune.p": ("float", 3.0),
    "prune.final_sparsity": ("float", 0.0),
    "prune.ramp_fraction": ("float", 0.5),
    "prune.backbone": ("choice:global|uniform", "global"),
    "prune.exempt_first_conv": ("tribool", None),
    "prune.theta_mode": ("choice:fixed|auto_step", "auto_step"),
    "prune.theta": ("float", 1.0),
    "model.arch": ("choice:mlp|cnn", "mlp"),
    "model.hidden": ("int_list", [300, 100]),
    "model.channels": ("int_list", [8, 16]),
    "model.classes": ("int", 10),
    "dataset.kind": ("choice:blobs|idx", "blobs"),
    "dataset.split": ("float", 0.8),
    "dataset.classes": ("int", 10),
    "dataset.dims": ("int", 784),
    "dataset.samples": ("int", 4096),
    "dataset.noise": ("float", 0.3),
    "dataset.seed": ("int", 0),
    "dataset.images": ("str", ""),
    "dataset.labels": ("str", ""),
}


def parse_kv_text(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _convert(key: str, raw: str):
    kind = SCHEMA[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tribool":
            if raw.lower() == "auto":
                return None
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError(raw)
        if kind == "int_list":
            return [int(part) for part in raw.split(",") if part.strip()] if raw else []
        if kind.startswith("choice:"):
            allowed = kind.split(":", 1)[1].split("|")
            if raw not in allowed:
                raise ValueError(raw)
            return raw
        return raw  # str
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {kind})") from None


def _format(key: str, value) -> str:
    kind = SCHEMA[key][0]
    if kind == "tribool":
        return "auto" if value is None else ("true" if value else "false")
    if kind == "int_list":
        return ",".join(str(v) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def resolve_config(file_text: Optional[str] = None, overrides=()) -> dict[str, object]:
    values = {key: default for key, (_, default) in SCHEMA.items()}

    def apply(pairs: dict[str, str], source: str):
        for key, raw in pairs.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r} ({source})")
            values[key] = _convert(key, raw)

    if file_text is not None:
        apply(parse_kv_text(file_text), "config file")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        apply({key.strip(): raw.strip()}, "command line")
    return values


def config_to_text(values: dict[str, object]) -> str:
    lines = [f"{key}={_format(key, values[key])}" for key in SCHEMA]
    return "\n".join(lines) + "\n"


def build_operator(values) -> ThresholdOperator:
    kind = values["prune.operator"]
    try:
        return ThresholdOperator(kind, values["prune.p"] if kind == "powerp" else 1.0)
    except ValueError as exc:
        raise ConfigError(f"prune.p: {exc}") from None


def _check_sizes(keys: str, shapes) -> None:
    """Refuse what numpy refuses before allocating, a float64 array of more
    than ``sys.maxsize`` bytes, by arithmetic alone: no array is built."""
    shape = max(shapes, key=math.prod)
    if math.prod(shape) > sys.maxsize // 8:
        raise ConfigError(f"{keys}: a {' x '.join(map(str, shape))} array would hold "
                          f"more than {sys.maxsize // 8} values")


def build_descriptor(values) -> DatasetDescriptor:
    # model.classes bounds the labels load_dataset accepts: refuse it here,
    # before any dataset file is opened
    if values["model.classes"] < 2:
        raise ConfigError(f"model.classes must be >= 2, got {values['model.classes']}")
    if values["dataset.kind"] == "idx":
        return DatasetDescriptor(
            kind="idx",
            split=values["dataset.split"],
            images_path=values["dataset.images"] or None,
            labels_path=values["dataset.labels"] or None,
        )
    desc = DatasetDescriptor(
        kind="blobs",
        split=values["dataset.split"],
        classes=values["dataset.classes"],
        dims=values["dataset.dims"],
        samples=values["dataset.samples"],
        noise=values["dataset.noise"],
        seed=values["dataset.seed"],
    )
    # the generated points; the class centers are fewer rows
    _check_sizes("dataset.samples and dataset.dims", [(desc.samples, desc.dims)])
    return desc


def _build_train_config(values) -> TrainConfig:
    epochs = values["train.epochs"]
    try:
        schedule = SparsitySchedule(
            final_sparsity=values["prune.final_sparsity"],
            total_epochs=epochs,
            ramp_fraction=values["prune.ramp_fraction"],
        )
        backbone = BackboneKind(
            kind=values["prune.backbone"],
            exempt_first_conv=values["prune.exempt_first_conv"],
        )
        policy = GradScalePolicy(mode=values["prune.theta_mode"], theta=values["prune.theta"])
        return TrainConfig(
            epochs=epochs,
            batch_size=values["train.batch_size"],
            lr=values["train.lr"],
            momentum=values["train.momentum"],
            weight_decay=values["train.weight_decay"],
            label_smoothing=values["train.label_smoothing"],
            seed=values["run.seed"],
            schedule=schedule,
            backbone=backbone,
            operator=build_operator(values),
            grad_policy=policy,
            lr_warmup_epochs=values["train.lr_warmup_epochs"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass
class RunSpec:
    """Everything one run needs: config, data source, and where output goes."""

    label: str
    out_dir: Path
    values: dict[str, object]
    train: TrainConfig
    descriptor: DatasetDescriptor

    def __post_init__(self):
        if not self.label:
            raise ConfigError("run label must be nonempty")


def build_runspec(values: dict[str, object], out_dir) -> RunSpec:
    return RunSpec(
        label=str(values["run.label"]),
        out_dir=Path(out_dir),
        values=values,
        train=_build_train_config(values),
        descriptor=build_descriptor(values),
    )


def build_model_for(values: dict[str, object], input_shape: tuple, seed: int) -> Model:
    cnn = values["model.arch"] == "cnn"
    key = "model.channels" if cnn else "model.hidden"
    widths = values[key]
    if min(widths, default=1) < 1 or (cnn and len(widths) != 2):
        raise ConfigError(f"{key} must list {'two' if cnn else 'only'} positive widths, "
                          f"got {_format(key, widths)!r}")
    num_classes = values["model.classes"]
    rng = init_rng(seed)
    if cnn:
        if len(input_shape) != 3:
            raise ConfigError(f"cnn needs channel-height-width input, dataset provides {input_shape}")
        # the two 3x3 kernels, and the head at the input's full resolution,
        # which bounds what the stride-2 convs leave of it
        (channels, rows, cols), (c1, c2) = input_shape, widths
        _check_sizes(f"{key} and model.classes",
                     [(c1, channels, 9), (c2, c1, 9), (c2 * rows * cols, num_classes)])
        return build_cnn(input_shape, num_classes, rng, channels=tuple(widths))
    sizes = [math.prod(input_shape), *widths, num_classes]
    _check_sizes(f"{key} and model.classes", zip(sizes, sizes[1:]))
    return build_mlp(sizes[0], list(widths), num_classes, rng)
