"""Correctness checks on the artifacts of one benchmark repetition.

A fast run that writes wrong artifacts must fail the benchmark, so each
repetition is checked against what the workload asked for:

* the final thresholds are exactly the k-th smallest magnitude of their pool,
  k = floor(S * N), so the schedule's final target is reached (ties at the
  threshold may overshoot it), and every stored mask is exactly |w| > T;
* ``final.fthr`` and ``masks.bin`` load back through ``load_checkpoint``
  record for record, bit-equal to the digest taken when they were saved;
* ``sweep.csv`` lists every cell of the grid with zero failures;
* ``metrics.csv`` is well formed, its theta column follows the policy, and
  accuracy is above a floor that an untrained network cannot reach.

The digest of every ``metrics.csv`` is returned so the caller can require it
to repeat bit for bit across repetitions of one invocation.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from featherprune.checkpoint import load_checkpoint

METRICS_HEADER = "epoch,train_loss,val_top1,achieved_sparsity,lr,theta,mask_pearson_vs_final"
SWEEP_TAIL = ["seeds", "mean_val_top1", "std_val_top1", "failures"]
MASK_SUFFIX = "/mask"
DIGEST_SUFFIX = ".sha256"


class CheckFailed(Exception):
    pass


def records_digest(records: dict) -> str:
    """SHA-256 over record names, shapes and little-endian payloads, in order."""
    h = hashlib.sha256()
    for name, arr in records.items():
        arr = np.asarray(arr)
        wire = arr.astype(np.uint8) if name.endswith(MASK_SUFFIX) else arr.astype("<f4")
        h.update(f"{name}\0{wire.shape}\0".encode("utf-8"))
        h.update(wire.tobytes())
    return h.hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_config(path: Path) -> dict:
    pairs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _check_container(path: Path) -> dict:
    _require(path.is_file(), f"{path} is missing")
    saved = Path(str(path) + DIGEST_SUFFIX)
    _require(saved.is_file(), f"{path}: no digest was taken when it was saved")
    records = load_checkpoint(path)
    _require(records_digest(records) == saved.read_text().strip(),
             f"{path}: records loaded back differ from the records saved")
    return records


def check_train_run(run_dir: Path, workload, final_sparsity: float, theta: float
                    ) -> tuple[float, str]:
    """Check one ``train`` output directory; returns (val_top1, metrics sha256)."""
    run_dir = Path(run_dir)
    _require((run_dir / "config.txt").is_file(), f"{run_dir}: config.txt is missing")
    metrics_path = run_dir / "metrics.csv"
    _require(metrics_path.is_file(), f"{run_dir}: metrics.csv is missing")
    text = metrics_path.read_bytes()
    lines = text.decode("utf-8").splitlines()
    _require(lines and lines[0] == METRICS_HEADER, f"{metrics_path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == workload.epochs and all(len(r) == 7 for r in rows),
             f"{metrics_path}: expected {workload.epochs} rows of 7 fields")
    last = [float(v) for v in rows[-1]]
    val_top1, achieved = last[2], last[3]
    _require(all(float(r[5]) == theta for r in rows),
             f"{metrics_path}: theta column is not {theta}")
    _require(last[6] == 1.0, f"{metrics_path}: final mask Pearson is {last[6]}, not 1")
    _require(workload.min_top1 <= val_top1 <= 1.0,
             f"{metrics_path}: val_top1 {val_top1} below {workload.min_top1}")

    _check_container(run_dir / "masks.bin")
    records = _check_container(run_dir / "final.fthr")

    def layer(name):
        w = records.get(f"{name}/weight")
        t = records.get(f"{name}/threshold")
        m = records.get(f"{name}{MASK_SUFFIX}")
        _require(w is not None and t is not None and m is not None,
                 f"{run_dir}/final.fthr: layer {name} lacks weight, threshold or mask")
        mag = np.abs(w)
        _require(np.array_equal(m.astype(bool), mag > t[0]),
                 f"{run_dir}/final.fthr: {name} mask is not |w| > threshold")
        return mag.ravel(), float(t[0])

    # The cubic ramp's request for the last epoch: the final target once the
    # ramp (the first half of training) is over.
    progress = min((workload.epochs - 1) / (0.5 * workload.epochs), 1.0)
    target = final_sparsity * (1.0 - (1.0 - progress) ** 3)
    total = kept_floor = 0
    for name in workload.dense:
        mag, t = layer(name)
        _require(t == 0.0, f"{run_dir}/final.fthr: exempt layer {name} has threshold {t}")
        total += mag.size
    for pool in workload.pools:
        mags, thresholds = zip(*(layer(name) for name in pool))
        _require(len(set(thresholds)) == 1, f"{run_dir}: pool {pool} has several thresholds")
        mag, t = np.concatenate(mags), thresholds[0]
        k = math.floor(target * mag.size)
        below, at_or_below = int((mag < t).sum()), int((mag <= t).sum())
        _require(t == 0.0 if k == 0 else below < k <= at_or_below,
                 f"{run_dir}: pool {pool} prunes {at_or_below} of {mag.size} "
                 f"({below} strictly below T), target k={k}")
        total += mag.size
        kept_floor += k
    _require(achieved * total >= kept_floor - 1e-6,
             f"{metrics_path}: achieved sparsity {achieved} short of {kept_floor}/{total}")
    return val_top1, hashlib.sha256(text).hexdigest()


def check_sweep(out: Path, workload, seed: int) -> tuple[float, str]:
    """Check a ``sweep`` output tree; returns (mean val_top1, combined sha256)."""
    out = Path(out)
    sweep_csv = out / "sweep.csv"
    _require(sweep_csv.is_file(), f"{out}: sweep.csv is missing")
    keys = [key for key, _ in workload.axes]
    lines = sweep_csv.read_text(encoding="utf-8").splitlines()
    _require(lines and lines[0].split(",") == keys + SWEEP_TAIL, f"{sweep_csv}: bad header")
    grid = {tuple(float(v) for v in combo)
            for combo in itertools.product(*(values for _, values in workload.axes))}
    listed = set()
    for line in lines[1:]:
        fields = line.split(",")
        listed.add(tuple(float(v) for v in fields[:len(keys)]))
        _require(int(fields[-1]) == 0, f"{sweep_csv}: cell {fields[:len(keys)]} reports failures")
        _require(int(fields[len(keys)]) == workload.seeds,
                 f"{sweep_csv}: cell {fields[:len(keys)]} ran {fields[len(keys)]} seeds")
    _require(listed == grid and len(lines) - 1 == len(grid), f"{sweep_csv}: grid incomplete")

    seeds = {seed * workload.seeds + i for i in range(workload.seeds)}
    expected = {cell + (s,) for cell in grid for s in seeds}
    found = {}
    for config in sorted(out.glob("*/seed*/config.txt")):
        values = _read_config(config)
        found[tuple(float(values[k]) for k in keys) + (int(values["run.seed"]),)] = config.parent
    _require(set(found) == expected, f"{out}: run directories do not match the grid")

    # A short cell at extreme sparsity may stay at chance; the accuracy floor
    # applies to the mean over the grid.
    per_cell = replace(workload, min_top1=0.0)
    digest = hashlib.sha256()
    accs = []
    for key in sorted(found):
        values = dict(zip(keys, key))
        acc, sha = check_train_run(found[key], per_cell, values["prune.final_sparsity"],
                                   values["prune.theta"])
        accs.append(acc)
        digest.update(f"{found[key].relative_to(out)} {sha}\n".encode("utf-8"))
    digest.update(sweep_csv.read_bytes())
    mean = float(np.mean(accs))
    _require(mean >= workload.min_top1, f"{out}: mean val_top1 {mean} below {workload.min_top1}")
    return mean, digest.hexdigest()
