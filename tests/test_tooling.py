"""Guards for tools that reach into the package from outside it."""

import os
import subprocess
import sys
from pathlib import Path

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
