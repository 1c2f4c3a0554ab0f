"""In-memory spans around calls into featherprune's public functions.

The hooks live in the benchmark, not in the program: each public function is
replaced, in the module namespace where its caller looks it up, by a wrapper
that records one span (name, start, end, parent). ``trainer``, ``feather``
and ``models`` import names directly, so for example ``apply_threshold`` is
wrapped as ``featherprune.feather.apply_threshold`` and
``featherprune.trainer.apply_threshold``. Backward time per op comes from
wrapping the backward closure that ``matmul`` and ``conv2d`` hand to the
public ``Tape.record``.

Spans stay in memory and are written out as JSON when the process ends; sweep
cells running in forked pool workers write theirs after each cell. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Every span the tracer records, in report order.
SPANS = [
    "thresholding.apply_threshold",
    "thresholding.select_threshold",
    "feather.feather_forward",
    "feather.feather_backward",
    "tensor.Tape.backward",
    "tensor.matmul.fwd",
    "tensor.matmul.bwd",
    "tensor.conv2d.fwd",
    "tensor.conv2d.bwd",
    "tensor.accumulate_grad",
    "models.fc0.fwd",
    "models.fc1.fwd",
    "models.fc2.fwd",
    "models.conv1.fwd",
    "models.conv2.fwd",
    "backbones.assign_thresholds",
    "backbones.measured_sparsity",
    "trainer.sgd_step",
    "trainer.evaluate_top1",
    "trainer.train",
    "seeding.epoch_permutation",
    "analysis.stability_curve",
    "datasets.load_dataset",
    "checkpoint.save_checkpoint",
    "cli.run_spec",
]
# Spans with child spans, whose self time is reported as well.
WITH_SELF = {
    "feather.feather_forward", "tensor.Tape.backward", "trainer.evaluate_top1",
    "trainer.train", "cli.run_spec",
} | {name for name in SPANS if name.startswith("models.")}
HOOK = "trace.hook"  # bookkeeping done by the tracer itself, excluded from self times
BACKWARD_OF = {"tensor.matmul.fwd": "tensor.matmul.bwd",
               "tensor.conv2d.fwd": "tensor.conv2d.bwd"}


def metric_prefix(span: str) -> str:
    """``tensor.matmul.fwd`` -> ``tensor.matmul.fwd_``; others get a dot."""
    return span + ("_" if span.endswith((".fwd", ".bwd")) else ".")


def per_layer_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for span in SPANS:
        p = metric_prefix(span)
        units.update({p + "s": "s", p + "calls": "count", p + "p50_ms": "ms",
                      p + "p99_ms": "ms"})
        if span in WITH_SELF:
            units[p + "self_s"] = "s"
    units.update({
        "thresholding.apply_threshold.kept_frac": "fraction",
        "checkpoint.save_checkpoint.bytes": "bytes",
        "trainer.steps": "count",
        "trace.overhead_s": "s",
        "cli.sweep.s": "s",
        "cli.sweep.child_cpu_s": "s",
    })
    return units


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list = []   # [name, start, end, parent index or -1]
        self.stack: list = []   # indices of open spans
        self.counters: dict = defaultdict(float)
        self.dumps = 0

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's
        positional arguments. ``after(result, args)`` runs in a hook span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        dynamic = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if dynamic else name, clock(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                hook = [HOOK, clock(), 0.0, stack[-1] if stack else -1]
                spans.append(hook)
                after(result, args)
                hook[2] = clock()
            return result

        return traced

    def clear(self) -> None:
        del self.spans[:], self.stack[:]
        self.counters.clear()

    def dump(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}-{self.dumps}.json"
        self.dumps += 1
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))

    def install(self, full: bool) -> None:
        """Patch featherprune. Without ``full`` only ``train()`` is timed,
        which is what the untraced run needs for its throughput figure."""
        from featherprune import backbones, cli, feather, models, tensor, trainer

        def patch(module, attr, name, after=None):
            setattr(module, attr, self.wrap(name, getattr(module, attr), after))

        patch(cli, "train", "trainer.train")
        if not full:
            return
        counters = self.counters

        def count_kept(result, args):
            mask = result[1]
            counters["kept"] += int(np.count_nonzero(mask))
            counters["entries"] += mask.size

        def count_bytes(result, args):
            counters["bytes"] += os.path.getsize(args[0])

        for module in (feather, trainer, cli):
            patch(module, "apply_threshold", "thresholding.apply_threshold", count_kept)
        patch(backbones, "select_threshold", "thresholding.select_threshold")
        for attr in ("feather_forward", "feather_backward"):
            patch(trainer, attr, f"feather.{attr}")
        for attr in ("assign_thresholds", "measured_sparsity"):
            patch(trainer, attr, f"backbones.{attr}")
        for attr in ("sgd_step", "evaluate_top1"):
            patch(trainer, attr, f"trainer.{attr}")
        patch(trainer, "epoch_permutation", "seeding.epoch_permutation")
        patch(trainer, "stability_curve", "analysis.stability_curve")
        patch(models, "matmul", "tensor.matmul.fwd")
        patch(models, "conv2d", "tensor.conv2d.fwd")
        for cls in (models.DenseLayer, models.ConvLayer):
            patch(cls, "forward", lambda args: f"models.{args[0].name}.fwd")
        patch(tensor.Tape, "backward", "tensor.Tape.backward")
        patch(tensor.Tensor, "accumulate_grad", "tensor.accumulate_grad")
        patch(cli, "load_dataset", "datasets.load_dataset")
        patch(cli, "save_checkpoint", "checkpoint.save_checkpoint", count_bytes)
        patch(cli, "run_spec", "cli.run_spec")

        spans, stack, record = self.spans, self.stack, tensor.Tape.record

        def traced_record(tape, output, backward_fn):
            bwd = BACKWARD_OF.get(spans[stack[-1]][0]) if stack else None
            if bwd is not None:
                backward_fn = self.wrap(bwd, backward_fn)
            return record(tape, output, backward_fn)

        tensor.Tape.record = traced_record

        sweep = cli.cmd_sweep

        def cmd_sweep(args):
            before = os.times()
            try:
                return sweep(args)
            finally:
                after = os.times()
                counters["child_cpu_s"] += (after.children_user - before.children_user
                                            + after.children_system - before.children_system)

        cli.cmd_sweep = self.wrap("cli.sweep", cmd_sweep)

        # Sweep cells run in forked pool workers: each cell starts from an
        # empty trace (dropping what the fork inherited) and writes its spans
        # out when it ends.
        owner, run_cell = os.getpid(), cli._run_cell

        @functools.wraps(run_cell)
        def traced_cell(payload):
            forked = os.getpid() != owner
            if forked:
                self.clear()
            try:
                return run_cell(payload)
            finally:
                if forked:
                    self.dump()

        cli._run_cell = traced_cell


def load(trace_dir: Path) -> list:
    """Every span dump written under ``trace_dir``."""
    return [json.loads(p.read_text()) for p in sorted(Path(trace_dir).glob("spans-*.json"))]


def summarize(dumps: list) -> tuple[dict, dict]:
    """Per-span totals and counters for one repetition, plus per-call
    durations (for percentiles). Returns (totals, durations)."""
    totals: dict = defaultdict(float)
    durations: dict = defaultdict(list)
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            totals[name + "|s"] += end - start
            totals[name + "|self"] += end - start - inner
            durations[name].append(end - start)
        for key, value in dump["counters"].items():
            totals[key] += value
    return totals, durations


def self_time_ranking(totals: dict) -> list:
    """(span, self seconds) pairs, largest first."""
    ranking = [(key[:-5], value) for key, value in totals.items()
               if key.endswith("|self") and not key.startswith(HOOK)]
    return sorted(ranking, key=lambda item: -item[1])


def per_layer_metrics(reps: list, overhead_s: float, sweep: bool) -> dict:
    """Per-layer metrics from traced repetitions: totals are medians over the
    repetitions, p50/p99 pool every call of every repetition."""
    def med(key):
        return statistics.median(totals.get(key, 0.0) for totals, _ in reps)

    def pct(values, q):  # nearest rank
        return sorted(values)[math.ceil(q * len(values)) - 1] if values else 0.0

    metrics = {}
    for span in SPANS:
        p = metric_prefix(span)
        calls = [d for _, durations in reps for d in durations.get(span, [])]
        metrics[p + "s"] = med(span + "|s")
        metrics[p + "calls"] = len(calls) / len(reps)
        metrics[p + "p50_ms"] = 1e3 * pct(calls, 0.50)
        metrics[p + "p99_ms"] = 1e3 * pct(calls, 0.99)
        if span in WITH_SELF:
            metrics[p + "self_s"] = med(span + "|self")
    kept, entries = med("kept"), med("entries")
    metrics["thresholding.apply_threshold.kept_frac"] = kept / entries if entries else 0.0
    metrics["checkpoint.save_checkpoint.bytes"] = med("bytes")
    metrics["trainer.steps"] = metrics["tensor.Tape.backward.calls"]
    metrics["trace.overhead_s"] = overhead_s
    if sweep:
        metrics["cli.sweep.s"] = med("cli.sweep|s")
        metrics["cli.sweep.child_cpu_s"] = med("child_cpu_s")
    return metrics
