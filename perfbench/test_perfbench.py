"""Self-test of the benchmark at toy size.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``. It takes
about half a minute: every workload runs at toy size in both modes, and the
correctness checks are shown to fire on corrupted artifacts.
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    # A full gated measurement (4 + 22 runs per workload) fits in 3420 s.
    assert (4 + 22 * len(LISTED)) * (BENCH["run_seconds"] + 15) <= 3420
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["name"] in workloads.WORKLOADS
        names.append(w["name"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    assert len(BENCH["per_layer"]) <= 128
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    units = tracer.per_layer_units()
    assert all(units[m["name"]] == m["unit"] for m in BENCH["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mlp_extreme", "cnn_uniform", "sweep_grid"])
def test_toy_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if workload in LISTED:
        assert emitted == declared
    else:
        assert declared.items() <= emitted.items()
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert re.search(r"^digest metrics.csv sha256=[0-9a-f]{64}$", proc.stdout, re.M)


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", LISTED[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _toy_output(base: Path, name: str):
    workload = workloads.get(name, toy=True)
    config = workloads.prepare(workload, 5, base / "inputs")
    rep = run.run_rep(base / "rep", workloads.argv(workload, config, 5, base / "rep" / "out"),
                      traced=False)
    assert rep["code"] == 0
    return workload, base / "rep" / "out"


@pytest.fixture(scope="module")
def toy_train(tmp_path_factory):
    return _toy_output(tmp_path_factory.mktemp("train"), "cnn_uniform")


@pytest.fixture(scope="module")
def toy_sweep(tmp_path_factory):
    return _toy_output(tmp_path_factory.mktemp("sweep"), "sweep_grid")


def _check_train(workload, out):
    return checks.check_train_run(out, workload,
                                  float(workload.config["prune.final_sparsity"]),
                                  workload.theta)


def _flip(path: Path, offset: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-3])


def _edit_metrics(path: Path) -> None:
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[5] = "0.25"  # theta column
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "weight byte in final.fthr": ("final.fthr", lambda p: _flip(p, 64)),
    "mask byte in final.fthr": ("final.fthr", lambda p: _flip(p, p.stat().st_size - 1)),
    "truncated final.fthr": ("final.fthr", _truncate),
    "mask byte in masks.bin": ("masks.bin", lambda p: _flip(p, p.stat().st_size - 1)),
    "digest of final.fthr": ("final.fthr.sha256", lambda p: p.write_text("0" * 64)),
    "theta column in metrics.csv": ("metrics.csv", _edit_metrics),
    "missing metrics.csv": ("metrics.csv", Path.unlink),
}


def test_checks_pass_on_intact_artifacts(toy_train, toy_sweep):
    _check_train(*toy_train)
    workload, out = toy_sweep
    checks.check_sweep(out, workload, 5)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checks_fire_on_a_corrupted_artifact(toy_train, tmp_path, corruption):
    workload, out = toy_train
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    name, corrupt = CORRUPTIONS[corruption]
    corrupt(copy / name)
    with pytest.raises((checks.CheckFailed, ValueError)):
        _check_train(workload, copy)


def test_checks_fire_on_an_untrained_network(toy_train):
    workload, out = toy_train
    with pytest.raises(checks.CheckFailed):
        _check_train(replace(workload, min_top1=0.99), out)


def test_checks_fire_on_a_failed_sweep_cell(toy_sweep, tmp_path):
    workload, out = toy_sweep
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    sweep_csv = copy / "sweep.csv"
    lines = sweep_csv.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1"
    sweep_csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(copy, workload, 5)
