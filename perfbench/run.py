"""featherprune benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mlp_extreme --seed 1 --seconds 50 --trace 0

The benchmark writes the workload's inputs from ``--seed`` (blob descriptors
and, for ``cnn_uniform``, a 28x28 IDX image/label pair), times the program's
own set-up (dataset load or synthesis plus model construction) several times
in-process, then repeats the featherprune command in fresh processes for
``--seconds``. Every repetition's artifacts are checked (see ``checks.py``)
and its ``metrics.csv`` digest must repeat exactly across repetitions.

With ``--trace 0`` the end-to-end metrics come from untraced repetitions.
With ``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics come from the traced ones, and ``trace.overhead_s`` is the median
traced ``run_s`` minus the median untraced ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed, and 2 when the checkout holds no
featherprune sources to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REP_TIMEOUT_S = 150.0
MAX_REPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "val_top1": "fraction",
    "peak_rss_mb": "MB",
    "train_samples_per_s": "samples/s",
}
SWEEP_UNITS = {"sweep_cells_per_s": "cells/s"}


def machine_record() -> dict:
    """The box, the BLAS and the thread settings the command ran with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def time_setup(config: Path, budget_s: float) -> float:
    """Median time to load or synthesize the dataset and build the model, the
    way ``cli.run_spec`` does before training."""
    from featherprune.config import build_model_for, build_runspec, resolve_config
    from featherprune.datasets import load_dataset

    values = resolve_config(config.read_text(encoding="utf-8"))
    spec = build_runspec(values, OUT)
    times = []
    start = time.perf_counter()
    while len(times) < 5 or (time.perf_counter() - start < budget_s and len(times) < 50):
        t0 = time.perf_counter()
        data = load_dataset(spec.descriptor, expected_classes=values["model.classes"])
        build_model_for(values, data.input_shape, spec.train.seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rep(rep_dir: Path, argv: list, traced: bool) -> dict:
    """One command in a fresh process: wall time, exit code, peak RSS."""
    rep_dir.mkdir(parents=True)
    job = rep_dir / "job.json"
    result = rep_dir / "result.json"
    job.write_text(json.dumps({"src": str(SRC), "argv": argv, "trace": traced,
                               "trace_dir": str(rep_dir / "trace"), "result": str(result)}))
    with open(rep_dir / "log.txt", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(REP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        proc.wait()
        wall = time.perf_counter() - t0
        watchdog.cancel()
    rep = {"traced": traced, "run_s": wall, "code": proc.returncode}
    if result.is_file():
        rep.update(json.loads(result.read_text()))
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full",
                        help="toy: tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "featherprune" / "cli.py").is_file():
        print(f"error: no featherprune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import tracer

    workload = workloads.get(args.workload, toy=args.size == "toy")
    work = OUT / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    config = workloads.prepare(workload, args.seed, work / "inputs")
    print("machine " + json.dumps(machine_record()), flush=True)

    start = time.perf_counter()
    setup_s = time_setup(config, budget_s=min(2.0, 0.1 * args.seconds))
    reps, errors, digests = [], [], set()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_dir = work / f"rep{len(reps)}"
        rep = run_rep(rep_dir, workloads.argv(workload, config, args.seed, rep_dir / "out"),
                      traced)
        try:
            if rep["code"] != 0:
                raise checks.CheckFailed(f"command exited with {rep['code']}, see {rep_dir}/log.txt")
            if workload.command == "sweep":
                rep["val_top1"], digest = checks.check_sweep(rep_dir / "out", workload, args.seed)
            else:
                rep["val_top1"], digest = checks.check_train_run(
                    rep_dir / "out", workload, float(workload.config["prune.final_sparsity"]),
                    workload.theta)
            digests.add(digest)
            rep["totals"], rep["durations"] = tracer.summarize(tracer.load(rep_dir / "trace"))
            shutil.rmtree(rep_dir)
        except Exception as exc:  # noqa: BLE001 - any bad artifact fails the repetition
            rep["error"] = f"{type(exc).__name__}: {exc}"
            errors.append(f"rep{len(reps)}: {exc}")
        reps.append(rep)
        print(f"rep {len(reps) - 1} {'traced' if traced else 'untraced'} "
              f"run_s={rep['run_s']:.4f} code={rep['code']} "
              + ("ok" if "error" not in rep else "FAILED " + rep["error"]), flush=True)
        longest = max(r["run_s"] for r in reps)
        if len(reps) >= MAX_REPS or (
                len(reps) >= 2 and time.perf_counter() - start + longest > args.seconds):
            break

    if len(digests) > 1:
        errors.append(f"metrics.csv differs between repetitions: {sorted(digests)}")
    for digest in sorted(digests):
        print(f"digest metrics.csv sha256={digest}")
    good = [r for r in reps if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics = {}
    if untraced and (traced or not args.trace):
        run_s = statistics.median(r["run_s"] for r in untraced)
        if args.trace:
            overhead = statistics.median(r["run_s"] for r in traced) - run_s
            per_rep = [(r["totals"], r["durations"]) for r in traced]
            values = tracer.per_layer_metrics(per_rep, overhead, workload.command == "sweep")
            for span, seconds in tracer.self_time_ranking(per_rep[0][0])[:6]:
                print(f"self {span} {seconds:.4f} s")
            units = tracer.per_layer_units()
        else:
            values = {
                "setup_s": setup_s,
                "run_s": run_s,
                "val_top1": statistics.median(r["val_top1"] for r in untraced),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            }
            if workload.command == "sweep":
                values["train_samples_per_s"] = workload.trained_samples * workload.cells / run_s
                values["sweep_cells_per_s"] = workload.cells / run_s
            else:
                train_s = statistics.median(r["totals"]["trainer.train|s"] for r in untraced)
                values["train_samples_per_s"] = workload.trained_samples / train_s
            units = dict(END_TO_END_UNITS, **SWEEP_UNITS)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
    else:
        errors.append("no repetition of the needed kind completed")

    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if not errors:
        shutil.rmtree(work)
    print(json.dumps({"correct": not errors, "attempted": len(reps),
                      "failed": len(reps) - len(good), "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
