"""Command-line experiment harness.

Subcommands: ``train`` (one run: metrics.csv, masks.bin, final.fthr, and the
resolved config as config.txt), ``eval`` (top-1 of a checkpoint on the
validation split), ``sweep`` (cross-product of axis values by seeds, child
failures recorded per cell), ``analyze-masks`` (stability curve CSV from a
masks.bin), and ``flops`` (per-layer dense/kept FLOPs from a checkpoint).

``eval`` and ``flops`` read a checkpoint through one reader, ``_read_network``.

Exit codes: 0 success, 1 run failure, 2 configuration error; any other
exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import curve_to_csv, flops_count, stability_curve
from .checkpoint import (
    MASK_SUFFIX,
    atomic_open,
    load_checkpoint,
    load_snapshots,
    model_records,
    restore_model,
    save_checkpoint,
    snapshot_records,
)
from .config import (
    RunSpec,
    build_descriptor,
    build_model_for,
    build_operator,
    build_runspec,
    config_to_text,
    resolve_config,
)
from .datasets import load_dataset, read_input_shape
from .errors import ConfigError, FormatError, NonFiniteError, TrainingDivergedError
from .tensor import Tensor
from .thresholding import apply_threshold
from .trainer import evaluate_top1, train

__all__ = ["main", "run_spec"]


def run_spec(spec: RunSpec) -> dict:
    """Execute one training run into its output directory."""
    out = spec.out_dir
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(spec.descriptor, expected_classes=spec.values["model.classes"])
    model = build_model_for(spec.values, dataset.input_shape, spec.train.seed)
    _write_text(out / "config.txt", config_to_text(spec.values))

    result = train(spec.train, model, dataset)
    _write_text(out / "metrics.csv", result.metrics.to_csv())
    save_checkpoint(out / "masks.bin", snapshot_records(result.snapshots))
    save_checkpoint(out / "final.fthr", model_records(model, result.states))

    last = result.metrics.records[-1]
    return {
        "label": spec.label,
        "val_top1": result.val_top1,
        "achieved_sparsity": last.achieved_sparsity,
        "theta": last.theta,
    }


def _read_config(path) -> str:
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: byte 0x{raw[exc.start]:02x} "
                          f"at offset {exc.start}") from None


def _resolved(args, *overrides: str) -> dict:
    file_text = _read_config(args.config) if args.config else None
    return resolve_config(file_text, [*(args.set or []), *overrides])


def _write_text(path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(text: str, out_path) -> None:
    if out_path:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_train(args) -> int:
    values = _resolved(args, *([] if args.seed is None else [f"run.seed={args.seed}"]))
    spec = build_runspec(values, args.out)
    summary = run_spec(spec)
    print(
        f"{summary['label']}: val_top1={summary['val_top1']!r} "
        f"sparsity={summary['achieved_sparsity']!r} theta={summary['theta']!r} "
        f"-> {spec.out_dir}"
    )
    return 0


def _check_run_config(checkpoint, values: dict) -> None:
    """Refuse a checkpoint whose run's ``config.txt`` has another model or operator."""
    run_config = Path(checkpoint).with_name("config.txt")
    if not run_config.exists():
        return
    trained = resolve_config(_read_config(run_config))
    for key in ("model.arch", "model.hidden", "model.channels", "model.classes",
                "prune.operator", "prune.p"):
        if trained[key] != values[key]:
            raise ConfigError(
                f"{key} is {values[key]!r} but {run_config} says the checkpoint "
                f"was trained with {trained[key]!r}"
            )


def _layer_network(records: dict, layer, op) -> tuple:
    """A layer's ``(weights, mask)`` under its ``*/threshold`` record, dense
    without one; a ``*/mask`` record, if any, must be that mask."""
    name = f"{layer.name}/threshold"
    if name in records:
        value = records[name]
        if value.shape != (1,) or not 0 <= value[0] < np.inf:
            shown = np.array2string(value, threshold=8)
            raise FormatError(f"record {name!r} holds {shown}, expected one finite threshold >= 0")
        weights, mask = apply_threshold(layer.weight.data, value[0], op)
    else:
        weights, mask = layer.weight.data, np.ones(layer.weight.shape, dtype=bool)
    name = f"{layer.name}{MASK_SUFFIX}"
    if name in records:
        stored = records[name]
        if stored.shape != mask.shape:
            raise FormatError(f"record {name!r} has shape {stored.shape}, "
                              f"but its layer's weights have shape {mask.shape}")
        wrong = np.count_nonzero(stored != mask)
        if wrong:
            raise FormatError(f"record {name!r} disagrees with its layer's threshold "
                              f"in {wrong} of {mask.size} entries")
    return weights, mask


def _read_network(args):
    """The config values, the model with ``args.checkpoint``'s weights restored,
    and each layer's ``(weights, mask)`` (see ``_layer_network``)."""
    values = _resolved(args)
    _check_run_config(args.checkpoint, values)
    op = build_operator(values)
    records = load_checkpoint(args.checkpoint)
    model = build_model_for(values, read_input_shape(build_descriptor(values)),
                            values["run.seed"])
    restore_model(model, records)
    return values, model, {layer.name: _layer_network(records, layer, op)
                           for layer in model.layers}


def cmd_eval(args) -> int:
    values, model, network = _read_network(args)
    dataset = load_dataset(build_descriptor(values), expected_classes=values["model.classes"])
    overrides = {name: Tensor(weights) for name, (weights, _) in network.items()}
    acc = evaluate_top1(model, dataset.val_x, dataset.val_y,
                        values["train.batch_size"], overrides)
    _emit(f"metric,value\nval_top1,{acc!r}\n", args.out)
    return 0


def _cell_dirname(axis_pairs: list[tuple[str, str]]) -> str:
    return "__".join(f"{key.replace('.', '-')}_{value}" for key, value in axis_pairs)


def _run_cell(payload) -> tuple:
    """One sweep cell run; returns (status, val_top1). Picklable for pools."""
    file_text, overrides, out_dir = payload
    try:
        values = resolve_config(file_text, overrides)
        spec = build_runspec(values, out_dir)
        summary = run_spec(spec)
        return ("ok", summary["val_top1"])
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
        return (f"{type(exc).__name__}: {exc}", math.nan)


def _repeated(items: list):
    """The first item that already appeared earlier in ``items``, or None."""
    return next((item for i, item in enumerate(items) if item in items[:i]), None)


def cmd_sweep(args) -> int:
    file_text = _read_config(args.config) if args.config else None
    base_overrides = list(args.set or [])
    axes: list[tuple[str, list[str]]] = []
    for item in args.axis or []:
        if "=" not in item:
            raise ConfigError(f"axis must look like key=v1,v2,..., got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"axis {key!r} lists no values")
        # compared as parsed, so "0.5" and "0.50" are one value
        resolved = [config_to_text(resolve_config(overrides=[f"{key}={v}"])) for v in values]
        if (repeat := _repeated(resolved)) is not None:
            first, again = [v for v, text in zip(values, resolved) if text == repeat][:2]
            also = f" (also as {again!r})" if again != first else ""
            raise ConfigError(f"axis {key!r} lists {first!r} more than once{also}")
        axes.append((key, values))
    if not axes:
        raise ConfigError("sweep needs at least one --axis")
    if (repeat := _repeated([key for key, _ in axes])) is not None:
        raise ConfigError(f"--axis {repeat!r} is given more than once")
    seeds = []
    for token in filter(None, (s.strip() for s in args.seeds.split(","))):
        try:
            seeds.append(int(token))
        except ValueError:
            raise ConfigError(f"--seeds token {token!r} is not an integer") from None
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    if (repeat := _repeated(seeds)) is not None:
        raise ConfigError(f"--seeds lists seed {repeat} more than once")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cells = list(itertools.product(*(values for _, values in axes)))
    jobs = []
    for combo in cells:
        axis_pairs = list(zip((key for key, _ in axes), combo))
        cell_dir = out / _cell_dirname(axis_pairs)
        for seed in seeds:
            overrides = base_overrides + [f"{k}={v}" for k, v in axis_pairs] \
                + [f"run.seed={seed}"]
            jobs.append((file_text, overrides, str(cell_dir / f"seed{seed}")))

    workers = min(args.jobs, len(jobs))
    if workers > 1:
        # Imported here so that only a sweep with a pool loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]

    header = [key for key, _ in axes] + ["seeds", "mean_val_top1", "std_val_top1", "failures"]
    lines = [",".join(header)]
    failed_runs = 0
    for i, combo in enumerate(cells):
        cell_results = results[i * len(seeds) : (i + 1) * len(seeds)]
        accs = [acc for status, acc in cell_results if status == "ok"]
        failures = len(seeds) - len(accs)
        failed_runs += failures
        for status, _ in cell_results:
            if status != "ok":
                print(f"cell {combo} failed: {status}", file=sys.stderr)
        mean = float(np.mean(accs)) if accs else math.nan
        std = float(np.std(accs)) if accs else math.nan
        lines.append(",".join(list(combo) + [str(len(accs)), repr(mean), repr(std), str(failures)]))
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    print(f"sweep: {len(cells)} cells x {len(seeds)} seeds -> {out / 'sweep.csv'}")
    if failed_runs == len(jobs):
        print(f"sweep failed: no run succeeded ({len(jobs)} failed)", file=sys.stderr)
        return 1
    return 0


def cmd_analyze_masks(args) -> int:
    snapshots = load_snapshots(args.masks)
    try:
        curve = stability_curve(snapshots)
    except ValueError as exc:  # no epochs, epochs unlike the last, fewer than 2 weights
        raise FormatError(str(exc)) from None
    _emit(curve_to_csv(curve), args.out)
    return 0


def cmd_flops(args) -> int:
    _, model, network = _read_network(args)
    masks = {name: mask for name, (_, mask) in network.items()}
    _emit(flops_count(model, masks).to_csv(), args.out)
    return 0


def _add_common(parser, need_out: bool) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--out", required=need_out,
                        help="output directory" if need_out else "output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="featherprune",
                                     description="sparse training experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training job")
    _add_common(p, need_out=True)
    p.add_argument("--seed", type=int, help="shorthand for run.seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    p.add_argument("--checkpoint", required=True)
    _add_common(p, need_out=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid of runs over config axes and seeds")
    p.add_argument("--axis", action="append", metavar="KEY=V1,V2,...",
                   help="one sweep axis (repeatable)")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--jobs", type=int, default=1, help="concurrent cell runs")
    _add_common(p, need_out=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze-masks", help="mask stability curve from a masks.bin")
    p.add_argument("--masks", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_analyze_masks)

    p = sub.add_parser("flops", help="per-layer FLOPs report from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_common(p, need_out=False)
    p.set_defaults(func=cmd_flops)

    return parser


# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Let freed arrays stay in the heap for the next training step.

    Each step allocates and frees the same few MB of arrays. glibc's mmap and
    heap-trim thresholds start at 128 KiB and only grow to the size (and twice
    the size) of the largest mmapped block freed so far, so unless the run
    happens to free a large block early, those pages go back to the system
    and are faulted in again every step. Fix both thresholds at the values
    glibc's own adaptive rule reaches after freeing a 32 MiB block.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (ValueError, OSError):  # not glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, OSError, FormatError, NonFiniteError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
