"""Guards for tools that reach into the package from outside it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_finds_every_name_it_patches(tmp_path):
    # The benchmark's tracer wraps package functions by module attribute, so
    # a refactor that drops one of those names breaks the benchmark. It runs
    # in a child process because installing it patches the package for good.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tracer; tracer.Tracer(sys.argv[1]).install(full=True)", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_perfbench_setup_path_runs_for_every_workload(tmp_path):
    # The benchmark's setup_s times dataset loading and model building through
    # the package's own functions; a dropped field or parameter they use
    # breaks the benchmark before it trains anything.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    code = """
import sys
from pathlib import Path
import run, workloads
for name in ("mlp_extreme", "cnn_uniform"):
    config = workloads.prepare(workloads.get(name, toy=True), 1, Path(sys.argv[1]) / name)
    assert run.time_setup(config, 0.0) > 0.0
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def span_applies(span, layers):
    """Whether a train run of a model with these layers reaches ``span``."""
    if span == "feather.feather_backward":  # training never calls it
        return False
    if span.startswith("models."):
        return span.split(".")[1] in layers
    if span.startswith("tensor.conv2d."):
        return any(layer.startswith("conv") for layer in layers)
    return True


@pytest.mark.parametrize("workload", ["mlp_extreme", "cnn_uniform"])
def test_perfbench_tracer_records_every_span_a_train_run_reaches(tmp_path, workload):
    # The tracer only sees calls that go through the names it patches. A
    # refactor that calls around one (say, a local alias of select_threshold)
    # would leave its per-layer metric at zero without any other test failing.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    code = """
import json, sys
from pathlib import Path
import tracer, workloads
from featherprune import cli
name, tmp = sys.argv[1], Path(sys.argv[2])
workload = workloads.get(name, toy=True)
config = workloads.prepare(workload, 1, tmp / "inputs")
spans = tracer.Tracer(tmp / "trace")
spans.install(full=True)
assert cli.main(workloads.argv(workload, config, 1, tmp / "out")) == 0
layers = [layer for pool in workload.pools for layer in pool] + workload.dense
print(json.dumps({"spans": tracer.SPANS, "layers": layers,
                  "called": sorted({span[0] for span in spans.spans})}))
"""
    proc = subprocess.run([sys.executable, "-c", code, workload, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    applies = [span for span in report["spans"] if span_applies(span, report["layers"])]
    assert sorted(set(applies) - set(report["called"])) == []


def test_trend_power_script_imports_what_the_criteria_run():
    # tests/trend_power.py measures criteria 7 and 8 through test_acceptance's
    # own names; importing it without running it fails on a rename there
    import trend_power

    assert trend_power.N_VAL == 1024
    assert [len(side) for _, *sides in trend_power.CHECKS for side in sides] == [4] * 8
    assert callable(trend_power.main)
