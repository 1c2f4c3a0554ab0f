"""Workload definitions: seeded inputs, the featherprune command each one runs,
and what a correct run of it must produce.

Every input is derived from the workload seed: the blob descriptors go into a
config file, and for ``cnn_uniform`` the 28x28 IDX image/label pair is written
here from per-class templates plus noise. The program only ever sees those
files and the command line.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Workload:
    name: str
    command: str                  # featherprune subcommand: "train" or "sweep"
    config: dict                  # key=value pairs written to the config file
    pools: list                   # layer groups sharing one pruning quantile
    dense: list = field(default_factory=list)  # prunable layers kept dense
    idx_images: int = 0           # >0: generate an IDX pair of this many images
    axes: list = field(default_factory=list)   # sweep: (key, [values])
    seeds: int = 1                # sweep: seeds per cell
    jobs: int = 1                 # sweep: worker processes
    theta: float = 1.0            # theta the auto policy must pick (train runs)
    min_top1: float = 0.0         # a run below this trained nothing useful

    @property
    def epochs(self) -> int:
        return int(self.config["train.epochs"])

    @property
    def trained_samples(self) -> int:
        """Samples one training run consumes: the train split times epochs."""
        n_samples = self.idx_images or int(self.config["dataset.samples"])
        return int(0.8 * n_samples) * self.epochs

    @property
    def cells(self) -> int:
        n = self.seeds
        for _, values in self.axes:
            n *= len(values)
        return n


_MLP = {
    "model.arch": "mlp",
    "model.hidden": "300,100",
    "model.classes": "10",
    "dataset.kind": "blobs",
    "dataset.dims": "784",
    "dataset.classes": "10",
    "dataset.noise": "0.3",
    "train.batch_size": "128",
    "prune.p": "3",
    "prune.backbone": "global",
}


def _mlp_extreme(toy: bool) -> Workload:
    config = dict(_MLP, **{
        "dataset.samples": "320" if toy else "5120",
        "train.epochs": "2" if toy else "20",
        "train.lr": "0.03",
        "prune.final_sparsity": "0.98",
        "prune.theta_mode": "auto_step",
    })
    return Workload("mlp_extreme", "train", config, pools=[["fc0", "fc1", "fc2"]],
                    theta=0.5, min_top1=0.0 if toy else 0.3)


def _cnn_uniform(toy: bool) -> Workload:
    config = {
        "model.arch": "cnn",
        "model.channels": "8,16",
        "model.classes": "10",
        "dataset.kind": "idx",
        "train.epochs": "2" if toy else "12",
        "train.batch_size": "128",
        "train.lr": "0.05",
        "prune.final_sparsity": "0.9",
        "prune.backbone": "uniform",
        "prune.theta_mode": "auto_step",
    }
    return Workload("cnn_uniform", "train", config, pools=[["conv2"], ["fc0"]],
                    dense=["conv1"], idx_images=400 if toy else 6000,
                    min_top1=0.0 if toy else 0.4)


def _sweep_grid(toy: bool) -> Workload:
    config = dict(_MLP, **{
        "dataset.samples": "320" if toy else "2560",
        "train.epochs": "2" if toy else "3",
        "train.lr": "0.1",
        "prune.final_sparsity": "0.5",
        "prune.theta_mode": "fixed",
    })
    return Workload("sweep_grid", "sweep", config, pools=[["fc0", "fc1", "fc2"]],
                    axes=[("prune.final_sparsity", ["0.5", "0.98"]),
                          ("prune.theta", ["0.5", "1"])],
                    seeds=2, jobs=2,
                    min_top1=0.0 if toy else 0.15)


WORKLOADS = {"mlp_extreme": _mlp_extreme, "cnn_uniform": _cnn_uniform,
             "sweep_grid": _sweep_grid}


def get(name: str, toy: bool = False) -> Workload:
    return WORKLOADS[name](toy)


def write_idx(seed: int, count: int, images_path: Path, labels_path: Path) -> None:
    """Seeded 28x28 digits-like data: one smooth template per class, blended
    with a second class, shifted by up to 2 pixels and covered in noise, so a
    small CNN lands well short of perfect accuracy."""
    rng = np.random.default_rng([seed, 0x1D8])
    yy, xx = np.mgrid[0:28, 0:28]
    templates = np.zeros((10, 28, 28))
    for c in range(10):
        for _ in range(4):
            cy, cx = rng.uniform(5.0, 23.0, 2)
            width = rng.uniform(2.0, 4.5)
            templates[c] += rng.uniform(0.5, 1.0) * np.exp(
                -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width * width))
        templates[c] /= templates[c].max()
    labels = rng.integers(0, 10, count)
    other = (labels + rng.integers(1, 10, count)) % 10
    blend = rng.uniform(0.0, 0.6, count)[:, None, None]
    images = (1.0 - blend) * templates[labels] + blend * templates[other]
    shifts = rng.integers(-2, 3, (count, 2))
    for i in range(count):
        images[i] = np.roll(images[i], tuple(shifts[i]), axis=(0, 1))
    images += 0.5 * rng.standard_normal(images.shape)
    pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    images_path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, 28, 28)
                            + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, count)
                            + labels.astype(np.uint8).tobytes())


def prepare(workload: Workload, seed: int, inputs: Path) -> Path:
    """Write the workload's inputs for ``seed``; returns the config file."""
    inputs.mkdir(parents=True, exist_ok=True)
    values = dict(workload.config)
    values["run.seed"] = str(seed)
    if workload.idx_images:
        images, labels = inputs / "images.idx", inputs / "labels.idx"
        write_idx(seed, workload.idx_images, images, labels)
        values["dataset.images"] = str(images.resolve())
        values["dataset.labels"] = str(labels.resolve())
    else:
        values["dataset.seed"] = str(seed)
    path = inputs / "config.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def argv(workload: Workload, config: Path, seed: int, out: Path) -> list:
    """The featherprune command line for one repetition."""
    args = [workload.command, "--config", str(config), "--out", str(out)]
    if workload.command == "sweep":
        for key, values in workload.axes:
            args += ["--axis", f"{key}={','.join(values)}"]
        seeds = ",".join(str(seed * workload.seeds + i) for i in range(workload.seeds))
        args += ["--seeds", seeds, "--jobs", str(workload.jobs)]
    return args
