"""Command-line harness: artifacts, reruns, sweeps, and exit codes.

Runs go through main(argv) in-process so exit codes and stderr are cheap to
assert; one test exercises the installed console script for real.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import featherprune
from featherprune.analysis import MaskSnapshot
from featherprune.checkpoint import (
    load_checkpoint,
    model_records,
    save_checkpoint,
    snapshot_records,
)
from featherprune.cli import build_parser, main
from featherprune.config import resolve_config
from featherprune.errors import FormatError
from featherprune.trainer import METRICS_HEADER

BASE = [
    "--set", "dataset.dims=16",
    "--set", "dataset.classes=4",
    "--set", "dataset.samples=120",
    "--set", "model.classes=4",
    "--set", "model.hidden=8",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=32",
    "--set", "prune.final_sparsity=0.5",
]


def run_train(out_dir, extra=()):
    return main(["train", "--out", str(out_dir), *BASE, *extra])


def idx_cnn_args(tmp_path) -> list[str]:
    """``--set`` arguments for a CNN on a pair of IDX files: ten blank 4x4
    images labelled 0-9."""
    images, labels = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    images.write_bytes(b"\x00\x00\x08\x03" + (10).to_bytes(4, "big")
                       + (4).to_bytes(4, "big") * 2 + bytes(160))
    labels.write_bytes(b"\x00\x00\x08\x01" + (10).to_bytes(4, "big") + bytes(range(10)))
    return ["--set", "model.arch=cnn", "--set", "dataset.kind=idx",
            "--set", f"dataset.images={images}", "--set", f"dataset.labels={labels}"]


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        assert run_train(tmp_path / "run") == 0
        out = tmp_path / "run"
        for name in ("config.txt", "metrics.csv", "masks.bin", "final.fthr"):
            assert (out / name).exists(), name
        assert "val_top1=" in capsys.readouterr().out

    def test_config_echo_reparses(self, tmp_path):
        run_train(tmp_path)
        text = (tmp_path / "config.txt").read_text()
        values = resolve_config(text)
        assert values["dataset.dims"] == 16
        assert values["train.epochs"] == 2
        assert values["prune.final_sparsity"] == 0.5

    def test_metrics_shape(self, tmp_path):
        run_train(tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 2  # header + one row per epoch

    def test_rerun_is_byte_identical(self, tmp_path):
        run_train(tmp_path / "a")
        run_train(tmp_path / "b")
        for name in ("metrics.csv", "final.fthr", "masks.bin", "config.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_artifacts_match_bool_mask_history(self, tmp_path, monkeypatch):
        # packed snapshots write the bytes that the one-byte-per-weight
        # history and its all-at-once u8 records wrote
        from oracles import BoolMaskSnapshot, snapshot_records_u8, stability_curve_bool

        from featherprune import cli, trainer

        extra = ["--set", "train.epochs=5", "--set", "prune.final_sparsity=0.9"]
        assert run_train(tmp_path / "packed", extra) == 0
        monkeypatch.setattr(trainer, "MaskSnapshot", BoolMaskSnapshot)
        monkeypatch.setattr(trainer, "stability_curve", stability_curve_bool)
        monkeypatch.setattr(cli, "snapshot_records", snapshot_records_u8)
        assert run_train(tmp_path / "bool", extra) == 0
        for name in ("metrics.csv", "masks.bin", "final.fthr", "config.txt"):
            assert (tmp_path / "packed" / name).read_bytes() == \
                (tmp_path / "bool" / name).read_bytes(), name

    def test_run_dir_holds_only_artifacts(self, tmp_path):
        # artifacts are written through temp files that are renamed into place
        run_train(tmp_path / "a")
        run_train(tmp_path / "a")
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
            ["config.txt", "final.fthr", "masks.bin", "metrics.csv"]

    def test_seed_flag_lands_in_config(self, tmp_path):
        run_train(tmp_path, extra=["--seed", "7"])
        assert "run.seed=7" in (tmp_path / "config.txt").read_text().splitlines()

    def test_seed_changes_results(self, tmp_path):
        run_train(tmp_path / "a", extra=["--seed", "0"])
        run_train(tmp_path / "b", extra=["--seed", "1"])
        assert (tmp_path / "a" / "metrics.csv").read_text() != \
               (tmp_path / "b" / "metrics.csv").read_text()

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dataset.dims=16\ndataset.classes=4\ndataset.samples=120\n"
            "model.classes=4\nmodel.hidden=8\ntrain.epochs=2\n"
            "train.batch_size=32\nrun.label=from-file\n"
        )
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--set", "train.epochs=3"])
        assert code == 0
        text = (tmp_path / "o" / "config.txt").read_text()
        assert "train.epochs=3" in text.splitlines()
        assert "run.label=from-file" in text.splitlines()


class TestEval:
    def test_checkpoint_thresholds_reproduce_library_eval(self, tmp_path, capsys):
        run_train(tmp_path / "run")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "metric,value"
        name, value = lines[1].split(",")
        assert name == "val_top1"

        # independent reconstruction through the library
        from featherprune.config import build_descriptor, build_model_for, build_operator
        from featherprune.checkpoint import restore_model
        from featherprune.datasets import load_dataset
        from featherprune.tensor import Tensor
        from featherprune.thresholding import apply_threshold
        from featherprune.trainer import evaluate_top1
        values = resolve_config(None, [a for a in BASE if a != "--set"])
        records = load_checkpoint(tmp_path / "run" / "final.fthr")
        dataset = load_dataset(build_descriptor(values), expected_classes=4)
        model = build_model_for(values, dataset.input_shape, 0)
        restore_model(model, records)
        op = build_operator(values)
        overrides = {}
        for layer in model.layers:
            t = float(records[f"{layer.name}/threshold"][0])
            pruned, _ = apply_threshold(layer.weight.data, t, op)
            overrides[layer.name] = Tensor(pruned)
        expected = evaluate_top1(model, dataset.val_x, dataset.val_y, 32, overrides)
        assert float(value) == expected

    def test_eval_to_file(self, tmp_path):
        run_train(tmp_path / "run")
        report = tmp_path / "eval.csv"
        code = main(["eval", "--checkpoint", str(tmp_path / "run" / "final.fthr"),
                     "--out", str(report), *BASE])
        assert code == 0
        assert report.read_text().startswith("metric,value\nval_top1,")

    @pytest.mark.parametrize("override,named", [
        ("prune.operator=soft", ("'soft'", "'powerp'")),
        ("prune.p=2", ("2.0", "3.0")),
        ("model.hidden=8,4", ("[8, 4]", "[8]")),
    ])
    def test_operator_mismatch_with_run_config_is_config_error(self, tmp_path, capsys,
                                                                override, named):
        # eval and flops check the same keys
        run_train(tmp_path / "run")
        capsys.readouterr()
        for command in ("eval", "flops"):
            code = main([command, "--checkpoint", str(tmp_path / "run" / "final.fthr"),
                         *BASE, "--set", override])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and override.split("=")[0] in err
            for value in named:
                assert value in err

    def test_matching_run_config_keeps_val_top1(self, tmp_path, capsys):
        run_train(tmp_path / "run")
        args = ["eval", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE]
        capsys.readouterr()
        assert main(args) == 0
        checked = capsys.readouterr().out
        (tmp_path / "run" / "config.txt").unlink()
        assert main(args) == 0
        assert capsys.readouterr().out == checked

    def test_nan_threshold_is_runtime_failure(self, tmp_path, capsys):
        run_train(tmp_path / "run")
        records = dict(load_checkpoint(tmp_path / "run" / "final.fthr"))
        records["fc0/threshold"] = np.array([np.nan], dtype=np.float32)
        save_checkpoint(tmp_path / "run" / "final.fthr", records)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("run failed: record 'fc0/threshold' holds [nan], "
                                "expected one finite threshold >= 0\n")

    @pytest.mark.parametrize("values,shown", [
        ([], "[]"),
        ([np.inf], "[inf]"),
        ([0.1, 5.0], "[0.1 5. ]"),
        ([np.nan], "[nan]"),
        ([-0.5], "[-0.5]"),
    ])
    def test_malformed_threshold_record_is_format_error(self, tmp_path, capsys,
                                                        values, shown):
        run_train(tmp_path / "run")
        records = dict(load_checkpoint(tmp_path / "run" / "final.fthr"))
        records["fc0/threshold"] = np.array(values, dtype=np.float32)
        save_checkpoint(tmp_path / "run" / "final.fthr", records)
        args = build_parser().parse_args(
            ["eval", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE])
        with pytest.raises(FormatError, match="'fc0/threshold'"):
            args.func(args)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"run failed: record 'fc0/threshold' holds {shown}, "
                                "expected one finite threshold >= 0\n")

    @pytest.mark.parametrize("edit,message", [
        ("flip", "disagrees with its layer's threshold in 1 of 128 entries"),
        ("ones", "disagrees with its layer's threshold in {pruned} of 128 entries"),
        ("transpose", "has shape (8, 16), but its layer's weights have shape (16, 8)"),
        # without a threshold the layer is dense, which its pruning mask contradicts
        ("no_threshold", "disagrees with its layer's threshold in {pruned} of 128 entries"),
    ])
    def test_mask_record_unlike_its_threshold_is_format_error(self, tmp_path, capsys,
                                                              edit, message):
        run_train(tmp_path / "run")
        path = tmp_path / "run" / "final.fthr"
        records = dict(load_checkpoint(path))
        mask = records["fc0/mask"].copy()
        pruned = int(np.count_nonzero(mask == 0))
        if edit == "flip":
            mask.reshape(-1)[3] ^= 1
        elif edit == "ones":  # flops once counted such a record as a dense layer
            mask[...] = 1
        elif edit == "no_threshold":
            del records["fc0/threshold"]
        else:
            mask = np.ascontiguousarray(mask.T)
        records["fc0/mask"] = mask
        save_checkpoint(path, records)
        capsys.readouterr()
        for command in ("eval", "flops"):
            assert main([command, "--checkpoint", str(path), *BASE]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == \
                f"run failed: record 'fc0/mask' {message.format(pruned=pruned)}\n"

    def test_checkpoint_without_mask_records_scores_the_same(self, tmp_path, capsys):
        run_train(tmp_path / "run")
        path = tmp_path / "run" / "final.fthr"
        args = ["eval", "--checkpoint", str(path), *BASE]
        capsys.readouterr()
        assert main(args) == 0
        with_masks = capsys.readouterr().out
        save_checkpoint(path, {name: record for name, record in load_checkpoint(path).items()
                               if not name.endswith("/mask")})
        assert main(args) == 0
        assert capsys.readouterr().out == with_masks

    def test_prints_the_number_train_printed(self, tmp_path, capsys):
        # demo 06's run: at seed 5 the last epoch's thresholds scored 0.7917,
        # the checkpoint's re-selected ones 0.7708
        demo = ["--set", "dataset.dims=32", "--set", "dataset.classes=4",
                "--set", "dataset.samples=480", "--set", "model.hidden=24",
                "--set", "model.classes=4", "--set", "train.epochs=3",
                "--set", "train.batch_size=32", "--set", "prune.final_sparsity=0.8"]
        assert main(["train", "--out", str(tmp_path / "run"), *demo, "--seed", "5"]) == 0
        printed = capsys.readouterr().out.split("val_top1=")[1].split()[0]
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *demo]) == 0
        assert capsys.readouterr().out == f"metric,value\nval_top1,{printed}\n"

    @pytest.mark.parametrize("command", ["eval", "flops"])
    def test_run_seed_changes_nothing(self, tmp_path, capsys, command):
        # every initial weight it would seed is restored from the checkpoint
        run_train(tmp_path / "run", ["--seed", "3"])
        outputs = set()
        for seed in ("0", "7"):
            capsys.readouterr()
            assert main([command, "--checkpoint", str(tmp_path / "run" / "final.fthr"),
                         *BASE, "--set", f"run.seed={seed}"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("command", ["eval", "flops"])
    def test_seed_flag_belongs_to_train_alone(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--checkpoint", str(tmp_path / "final.fthr"), "--seed", "0"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_missing_checkpoint_is_runtime_failure(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.fthr"), *BASE])
        assert code == 1
        assert "run failed" in capsys.readouterr().err


class TestCheckpointReader:
    """``eval`` and ``flops`` restore and threshold a checkpoint through one
    reader, so each refuses what the other refuses."""

    @staticmethod
    def moved(run):
        # the checkpoint alone, without the config.txt that names its run
        path = run.parent / "moved.fthr"
        path.write_bytes((run / "final.fthr").read_bytes())
        return path

    @pytest.mark.parametrize("command", ["eval", "flops"])
    def test_layer_the_checkpoint_lacks_is_format_error(self, tmp_path, capsys, command):
        run_train(tmp_path / "run")
        capsys.readouterr()
        code = main([command, "--checkpoint", str(self.moved(tmp_path / "run")), *BASE,
                     "--set", "model.hidden=8,4"])  # fc0 and fc1 shapes still match
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no phantom dense fc2 row
        assert captured.err == "run failed: checkpoint is missing record 'fc2/weight'\n"

    @pytest.mark.parametrize("command", ["eval", "flops"])
    def test_layer_the_model_lacks_is_format_error(self, tmp_path, capsys, command):
        run_train(tmp_path / "run", ["--set", "model.hidden=8,4"])
        capsys.readouterr()
        code = main([command, "--checkpoint", str(self.moved(tmp_path / "run")), *BASE])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no score of a truncated network
        assert captured.err == ("run failed: record 'fc2/weight' belongs to no layer "
                                "of the model (fc0, fc1)\n")


class TestAnalyzeMasks:
    def test_curve_from_training_masks(self, tmp_path, capsys):
        run_train(tmp_path / "run")
        capsys.readouterr()
        code = main(["analyze-masks", "--masks", str(tmp_path / "run" / "masks.bin")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epoch,r"
        assert len(lines) == 1 + 2
        assert lines[-1] == "1,1.0"

    def test_curve_is_the_metrics_pearson_column(self, tmp_path, capsys):
        run_train(tmp_path / "run", ["--set", "train.epochs=4"])
        capsys.readouterr()
        assert main(["analyze-masks", "--masks", str(tmp_path / "run" / "masks.bin")]) == 0
        curve = capsys.readouterr().out.splitlines()[1:]
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        column = METRICS_HEADER.split(",").index("mask_pearson_vs_final")
        assert len(curve) == 4
        assert curve == [f"{row.split(',')[0]},{row.split(',')[column]}" for row in metrics[1:]]

    def test_corrupt_container_is_runtime_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        assert main(["analyze-masks", "--masks", str(bad)]) == 1
        assert "run failed" in capsys.readouterr().err

    def test_non_numeric_epoch_names_the_record(self, tmp_path, capsys):
        bad = tmp_path / "masks.bin"
        save_checkpoint(bad, {"epochX/fc0/mask": np.ones(3, dtype=np.uint8)})
        assert main(["analyze-masks", "--masks", str(bad)]) == 1
        assert "unexpected record 'epochX/fc0/mask'" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch0", [("fc1", "fc0"), ("fc0", "fc9")])
    def test_layers_unlike_the_final_epoch_name_the_epoch(self, tmp_path, capsys, epoch0):
        # epoch 0 lists its layers in another order, or under another name
        masks = {"fc0": np.array([1, 0, 1, 0, 0, 1], dtype=np.uint8),
                 "fc1": np.array([0, 1, 1], dtype=np.uint8), "fc9": np.ones(3, np.uint8)}
        records = {f"epoch0000/{name}/mask": masks[name] for name in epoch0}
        records.update({f"epoch0001/{name}/mask": masks[name] for name in ("fc0", "fc1")})
        bad = tmp_path / "masks.bin"
        save_checkpoint(bad, records)
        assert main(["analyze-masks", "--masks", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "run failed: epoch 0 masks have layers" in captured.err

    @pytest.mark.parametrize("records,message", [
        ({}, "no mask snapshots to correlate"),
        ({"epoch0000/fc0/mask": np.ones(1, np.uint8)}, "Pearson needs at least 2 entries"),
    ], ids=["empty", "one_weight"])
    def test_container_with_nothing_to_correlate_is_format_error(self, tmp_path, capsys,
                                                                 records, message):
        bad = tmp_path / "masks.bin"
        save_checkpoint(bad, records)
        assert main(["analyze-masks", "--masks", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"run failed: {message}\n"

    def test_curve_bytes_do_not_depend_on_the_blas(self, tmp_path):
        # a 784-300-100-10 MLP's mask history, converging on a 2%-dense final
        # mask; each setting picks another OpenBLAS kernel family or thread
        # count, which the curve's counts must not see
        rng = np.random.default_rng(20)
        shapes = [(784, 300), (300, 100), (100, 10)]
        final = {f"fc{i}": rng.random(shape) < 0.02 for i, shape in enumerate(shapes)}
        snapshots = [MaskSnapshot(epoch, {name: mask ^ (rng.random(mask.shape) < churn)
                                          for name, mask in final.items()})
                     for epoch, churn in enumerate([0.3, 0.1, 0.03, 0.01, 0.003])]
        snapshots.append(MaskSnapshot(len(snapshots), final))
        save_checkpoint(tmp_path / "masks.bin", snapshot_records(snapshots))
        outputs = set()
        for setting in ({}, {"OPENBLAS_CORETYPE": "Haswell"},
                        {"OPENBLAS_CORETYPE": "Sandybridge"}, {"OPENBLAS_NUM_THREADS": "1"}):
            result = subprocess.run(
                [sys.executable, "-m", "featherprune.cli", "analyze-masks",
                 "--masks", str(tmp_path / "masks.bin")],
                capture_output=True, timeout=300, env={**_env_with_package(), **setting})
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1, outputs

    def test_repeated_epoch_names_both_records(self, tmp_path, capsys):
        bad = tmp_path / "masks.bin"
        save_checkpoint(bad, {"epoch1/fc0/mask": np.array([1, 0], dtype=np.uint8),
                              "epoch0001/fc0/mask": np.array([0, 1], dtype=np.uint8)})
        assert main(["analyze-masks", "--masks", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'epoch1/fc0/mask' and 'epoch0001/fc0/mask'" in captured.err


class TestOutFile:
    """``eval``, ``analyze-masks`` and ``flops`` write ``--out`` atomically."""

    @staticmethod
    def argv(command, run, out=None):
        if command == "analyze-masks":
            argv = [command, "--masks", str(run / "masks.bin")]
        else:
            argv = [command, "--checkpoint", str(run / "final.fthr"), *BASE]
        return argv + ["--out", str(out)] if out else argv

    @pytest.mark.parametrize("command", ["eval", "analyze-masks", "flops"])
    def test_out_matches_stdout(self, tmp_path, capsys, command):
        run_train(tmp_path / "run")
        assert main(self.argv(command, tmp_path / "run", tmp_path / "report.csv")) == 0
        capsys.readouterr()
        assert main(self.argv(command, tmp_path / "run")) == 0
        assert (tmp_path / "report.csv").read_text(encoding="utf-8") == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "analyze-masks", "flops"])
    def test_failed_write_keeps_old_file_and_no_temp_file(self, tmp_path, monkeypatch, command):
        run_train(tmp_path / "run")
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        out = out_dir / "report.csv"
        out.write_bytes(b"old report\n")
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == "report.csv":
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert main(self.argv(command, tmp_path / "run", out)) == 1
        assert out.read_bytes() == b"old report\n"
        assert [p.name for p in out_dir.iterdir()] == ["report.csv"]


class TestFlops:
    def test_report_uses_checkpoint_masks(self, tmp_path, capsys):
        run_train(tmp_path / "run")
        capsys.readouterr()
        code = main(["flops", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "layer,dense_flops,sparse_flops"
        assert lines[-1].startswith("total,")
        total_dense, total_sparse = map(int, lines[-1].split(",")[1:])
        # run trained to 50% sparsity, so kept FLOPs sit near half of dense
        assert total_dense == 2 * (16 * 8 + 8 * 4)
        assert 0 < total_sparse < total_dense

    def test_dense_fallback_without_mask_records(self, tmp_path, capsys):
        from featherprune.models import build_mlp
        from featherprune.seeding import init_rng
        model = build_mlp(16, [8], 4, init_rng(0))
        path = tmp_path / "dense.fthr"
        save_checkpoint(path, model_records(model))
        code = main(["flops", "--checkpoint", str(path), *BASE])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        total_dense, total_sparse = map(int, lines[-1].split(",")[1:])
        assert total_sparse == total_dense

    def test_architecture_mismatch_with_run_config_is_config_error(self, tmp_path, capsys):
        run_train(tmp_path / "run")
        capsys.readouterr()
        code = main(["flops", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE,
                     "--set", "model.hidden=8,4"])  # fc0 and fc1 shapes still match
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no report, so no phantom dense fc2 row
        assert captured.err.startswith("config error: model.hidden is [8, 4] but ")
        assert captured.err.rstrip().endswith("trained with [8]")

    @pytest.mark.parametrize("header", [b"\x00\x00\x08\x03" + bytes(6),
                                        b"\x00\x00\x08\x01" + bytes(12),
                                        b"\x00\x00\x08\x03" + bytes(3) + b"\x01" + bytes(8)],
                             ids=["truncated", "bad_magic", "zero_rows"])
    def test_idx_header_errors_match_loader(self, tmp_path, capsys, header):
        from featherprune.datasets import _read_idx
        from featherprune.errors import FormatError
        images, labels = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        images.write_bytes(header)
        labels.write_bytes(b"\x00\x00\x08\x01" + bytes(4))
        with pytest.raises(FormatError) as loader_error:
            _read_idx(images, labels, None)
        ckpt = tmp_path / "empty.fthr"
        save_checkpoint(ckpt, {})
        code = main(["flops", "--checkpoint", str(ckpt),
                     "--set", "dataset.kind=idx", "--set", f"dataset.images={images}",
                     "--set", f"dataset.labels={labels}", "--set", "model.arch=cnn"])
        assert code == 1
        assert capsys.readouterr().err == f"run failed: {loader_error.value}\n"


class TestSweep:
    def test_grid_layout_and_aggregate(self, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path), *BASE,
            "--axis", "prune.operator=soft,hard",
            "--seeds", "0,1",
        ])
        assert code == 0
        for cell in ("prune-operator_soft", "prune-operator_hard"):
            for seed in ("seed0", "seed1"):
                assert (tmp_path / cell / seed / "metrics.csv").exists()
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "prune.operator,seeds,mean_val_top1,std_val_top1,failures"
        assert len(lines) == 3
        for ln in lines[1:]:
            parts = ln.split(",")
            assert parts[1] == "2"  # both seeds succeeded
            assert parts[4] == "0"
            assert 0.0 <= float(parts[2]) <= 1.0

    def test_two_axes_cross_product(self, tmp_path):
        code = main([
            "sweep", "--out", str(tmp_path), *BASE,
            "--axis", "prune.operator=soft,powerp",
            "--axis", "prune.final_sparsity=0.3,0.6",
            "--seeds", "0",
        ])
        assert code == 0
        cells = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert cells == [
            "prune-operator_powerp__prune-final_sparsity_0.3",
            "prune-operator_powerp__prune-final_sparsity_0.6",
            "prune-operator_soft__prune-final_sparsity_0.3",
            "prune-operator_soft__prune-final_sparsity_0.6",
        ]

    def test_failing_cell_does_not_kill_sweep(self, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path), *BASE,
            "--axis", "train.lr=0.1,-1",  # negative lr fails config validation
            "--seeds", "0",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "failed" in err
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        by_value = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert by_value["0.1"][4] == "0"
        assert by_value["-1"][4] == "1"
        assert by_value["-1"][2] == "nan"

    def test_sweep_in_which_every_run_fails_exits_1(self, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path), *BASE,
            "--axis", "train.lr=-1",
            "--seeds", "0",
        ])
        assert code == 1
        assert "no run succeeded (1 failed)" in capsys.readouterr().err
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[1].split(",") == ["-1", "0", "nan", "nan", "1"]

    def test_parallel_matches_serial(self, tmp_path):
        args = [
            "--out", None, *BASE,
            "--axis", "prune.final_sparsity=0.2,0.7",
            "--seeds", "0",
        ]
        a, b = tmp_path / "serial", tmp_path / "par"
        args[1] = str(a)
        assert main(["sweep", *args]) == 0
        args[1] = str(b)
        assert main(["sweep", *args, "--jobs", "2"]) == 0
        assert (a / "sweep.csv").read_text() == (b / "sweep.csv").read_text()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_each_cell_writes_what_train_writes(self, tmp_path, jobs):
        # at --jobs 1 the cells run one after another in this process, at
        # --jobs 2 in pool workers; no run may see state left by another
        assert main(["sweep", "--out", str(tmp_path / "sweep"), *BASE, "--axis",
                     "prune.final_sparsity=0.2,0.7", "--seeds", "0", "--jobs", jobs]) == 0
        for sparsity in ("0.2", "0.7"):
            alone = tmp_path / f"train-{sparsity}"
            assert run_train(alone, ["--set", f"prune.final_sparsity={sparsity}",
                                     "--set", "run.seed=0"]) == 0
            cell = tmp_path / "sweep" / f"prune-final_sparsity_{sparsity}" / "seed0"
            for name in ("metrics.csv", "masks.bin", "final.fthr"):
                assert (cell / name).read_bytes() == (alone / name).read_bytes(), name

    @pytest.mark.parametrize("seeds,started", [("0", 0), ("0,1", 2)])
    def test_pool_starts_no_more_workers_than_runs(self, tmp_path, monkeypatch, seeds, started):
        from multiprocessing.process import BaseProcess

        starts = []
        start = BaseProcess.start

        def counted(process):
            starts.append(process)
            start(process)

        monkeypatch.setattr(BaseProcess, "start", counted)
        assert main(["sweep", "--out", str(tmp_path), *BASE, "--axis",
                     "prune.final_sparsity=0.5", "--seeds", seeds, "--jobs", "3"]) == 0
        assert len(starts) == started
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1].endswith(",0")

    def test_failed_csv_write_keeps_old_csv_and_no_temp_file(self, tmp_path, monkeypatch):
        args = ["sweep", "--out", str(tmp_path), *BASE,
                "--axis", "prune.final_sparsity=0.5", "--seeds"]
        assert main([*args, "0"]) == 0
        before = (tmp_path / "sweep.csv").read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == "sweep.csv":
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert main([*args, "1"]) == 1
        assert (tmp_path / "sweep.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "prune-final_sparsity_0.5", "sweep.csv"]

    def test_seed_flag_is_not_a_sweep_option(self, tmp_path):
        # sweep has only --seeds; argparse reads --seed as its abbreviation
        assert main(["sweep", "--out", str(tmp_path), *BASE,
                     "--axis", "prune.final_sparsity=0.5", "--seed", "7"]) == 0
        assert sorted(p.name for p in (tmp_path / "prune-final_sparsity_0.5").iterdir()) \
            == ["seed7"]

    def test_axis_required(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path), *BASE]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_axis(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), *BASE, "--axis", "nonsense"])
        assert code == 2

    def test_non_integer_seed_is_config_error(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "s"), *BASE,
                     "--axis", "prune.final_sparsity=0.5", "--seeds", "1,x"])
        assert code == 2
        assert "config error: --seeds token 'x' is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("axes,seeds,message", [
        (["prune.final_sparsity=0.5"], "3,03", "--seeds lists seed 3 more than once"),
        (["prune.final_sparsity=0.5, 0.7,0.5"], "0",
         "axis 'prune.final_sparsity' lists '0.5' more than once"),
        (["prune.final_sparsity=0.5,0.50"], "0",
         "axis 'prune.final_sparsity' lists '0.5' more than once (also as '0.50')"),
        (["train.epochs=2,02"], "0",
         "axis 'train.epochs' lists '2' more than once (also as '02')"),
        (["prune.final_sparsity=0.5", "prune.final_sparsity=0.7"], "0",
         "--axis 'prune.final_sparsity' is given more than once"),
    ], ids=["seed", "axis value", "axis value spelled twice", "axis int spelled twice",
            "axis key"])
    def test_repeated_seed_or_axis_value_is_config_error(self, tmp_path, capsys, axes, seeds,
                                                         message):
        # a repeated seed or value runs one cell twice into one directory (or,
        # spelled two ways, into two directories); a repeated key runs only
        # its last value under a row naming both
        axis_args = [arg for axis in axes for arg in ("--axis", axis)]
        code = main(["sweep", "--out", str(tmp_path / "s"), *BASE, *axis_args,
                     "--seeds", seeds])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("axis,message", [
        ("train.epoch=2,3", "unknown config key 'train.epoch'"),
        ("prune.operator=soft,bogus", "bad value for prune.operator: 'bogus'"),
    ])
    def test_axis_value_the_parser_refuses_is_config_error(self, tmp_path, capsys, axis,
                                                           message):
        code = main(["sweep", "--out", str(tmp_path / "s"), *BASE, "--axis", axis])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        code = main(["sweep", "--out", str(tmp_path / "s"), *BASE,
                     "--axis", "prune.final_sparsity=0.5", "--jobs", jobs])
        assert code == 2
        assert f"config error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestExitCodes:
    def test_unknown_config_key_is_two(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path), "--set", "train.epoch=5"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_value_is_two(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), *BASE,
                     "--set", "train.momentum=2.0"]) == 2

    @pytest.mark.parametrize("mode", ["auto_step", "fixed"])
    @pytest.mark.parametrize("theta", ["-1", "1.5"])
    def test_theta_outside_unit_interval_is_two(self, tmp_path, capsys, mode, theta):
        code = main(["train", "--out", str(tmp_path / "r"), *BASE,
                     "--set", f"prune.theta_mode={mode}", "--set", f"prune.theta={theta}"])
        assert code == 2
        assert "theta must be in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_in_range_theta_is_ignored_under_auto_step(self, tmp_path):
        assert run_train(tmp_path / "default") == 0
        assert run_train(tmp_path / "set", ["--set", "prune.theta=0.25"]) == 0
        for name in ("metrics.csv", "masks.bin", "final.fthr"):
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "set" / name).read_bytes(), name

    @pytest.mark.parametrize("override,message", [
        ("model.channels=8", "model.channels must list two positive widths, got '8'"),
        ("model.channels=0,16", "model.channels must list two positive widths, got '0,16'"),
    ])
    def test_bad_cnn_channels_are_two(self, tmp_path, capsys, override, message):
        code = main(["train", "--out", str(tmp_path / "run"), *idx_cnn_args(tmp_path),
                     "--set", override])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("arch,override,key", [
        ("mlp", "model.hidden=99999999999999999999", "model.hidden"),
        ("mlp", "model.hidden=300,9223372036854775808", "model.hidden"),
        ("mlp", "dataset.dims=99999999999999999999", "dataset.dims"),
        ("mlp", "dataset.samples=4611686018427387904", "dataset.samples"),
        ("cnn", "model.channels=99999999999999999999,4", "model.channels"),
        ("cnn", "model.channels=4,99999999999999999999", "model.channels"),
    ])
    def test_size_past_what_an_array_can_hold_is_two(self, tmp_path, capsys, arch, override,
                                                      key):
        # each size fails numpy before it allocates; the config check names it
        args = idx_cnn_args(tmp_path) if arch == "cnn" else BASE
        code = main(["train", "--out", str(tmp_path / "run"), *args, "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    def test_zero_hidden_width_is_two(self, tmp_path, capsys):
        assert run_train(tmp_path, ["--set", "model.hidden=8,0"]) == 2
        assert ("config error: model.hidden must list only positive widths, got '8,0'"
                in capsys.readouterr().err)

    def test_eval_power_below_one_is_two(self, tmp_path, capsys):
        # no config.txt beside the checkpoint, so only the operator catches it
        run_train(tmp_path / "run")
        ckpt = tmp_path / "final.fthr"
        ckpt.write_bytes((tmp_path / "run" / "final.fthr").read_bytes())
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), *BASE, "--set", "prune.p=0.5"]) == 2
        assert "config error: prune.p: power must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("classes", ["1", "0", "-3"])
    def test_model_classes_below_two_is_two_before_reading_idx(self, tmp_path, capsys,
                                                                classes):
        code = main(["train", "--out", str(tmp_path / "run"), "--set", "model.arch=cnn",
                     "--set", "dataset.kind=idx",
                     "--set", f"dataset.images={tmp_path / 'missing-images.idx'}",
                     "--set", f"dataset.labels={tmp_path / 'missing-labels.idx'}",
                     "--set", f"model.classes={classes}"])
        assert code == 2
        assert capsys.readouterr().err == \
            f"config error: model.classes must be >= 2, got {classes}\n"
        assert not (tmp_path / "run").exists()

    def test_model_classes_below_two_is_two_on_blobs(self, tmp_path, capsys):
        code = run_train(tmp_path / "run", ["--set", "dataset.classes=1",
                                            "--set", "model.classes=1"])
        assert code == 2
        assert capsys.readouterr().err == "config error: model.classes must be >= 2, got 1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override,message", [
        ("train.lr=nan", "lr must be finite and nonnegative, got nan"),
        ("train.lr=inf", "lr must be finite and nonnegative, got inf"),
        ("train.weight_decay=inf", "weight_decay must be finite and nonnegative, got inf"),
        ("train.weight_decay=nan", "weight_decay must be finite and nonnegative, got nan"),
        ("train.label_smoothing=1.0", "label_smoothing must be in [0, 1), got 1.0"),
        ("train.label_smoothing=nan", "label_smoothing must be in [0, 1), got nan"),
        ("dataset.noise=nan", "noise must be finite and nonnegative, got nan"),
        ("dataset.noise=inf", "noise must be finite and nonnegative, got inf"),
        ("prune.p=nan", "prune.p: power must be >= 1, got nan"),
    ])
    def test_nan_or_out_of_range_value_is_two_before_any_data(self, tmp_path, capsys,
                                                              monkeypatch, override, message):
        def no_data(*args, **kwargs):
            raise AssertionError("dataset read before the config was checked")

        monkeypatch.setattr("featherprune.cli.load_dataset", no_data)
        assert run_train(tmp_path / "run", ["--set", override]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_config_file_that_is_not_utf8_is_two(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"dataset.dims=16\nrun.label=caf\xe9\n")
        axis = ["--axis", "prune.final_sparsity=0.5"] if command == "sweep" else []
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *BASE, *axis])
        assert code == 2
        assert capsys.readouterr().err == \
            f"config error: {cfg} is not UTF-8: byte 0xe9 at offset 29\n"
        assert not (tmp_path / "out").exists()

    def test_run_config_that_is_not_utf8_is_two(self, tmp_path, capsys):
        run_train(tmp_path / "run")
        run_config = tmp_path / "run" / "config.txt"
        run_config.write_bytes(run_config.read_bytes().replace(b"run.label=run",
                                                                b"run.label=\xff"))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {run_config} is not UTF-8: "
                                                  "byte 0xff at offset ")

    def test_value_error_inside_a_command_propagates(self, tmp_path, monkeypatch):
        # only the documented input errors become exit codes; a fault in the
        # program keeps its traceback
        from featherprune import cli

        def broken(model, masks):
            raise ValueError("fault in the program")

        run_train(tmp_path / "run")
        monkeypatch.setattr(cli, "flops_count", broken)
        with pytest.raises(ValueError, match="fault in the program"):
            main(["flops", "--checkpoint", str(tmp_path / "run" / "final.fthr"), *BASE])

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["train"])  # --out is required
        assert info.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["prune-everything"])
        assert info.value.code == 2


def _env_with_package():
    """This process's environment with the imported package's directory put
    first on PYTHONPATH, so a child finds it from a checkout too."""
    src = str(Path(featherprune.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_console_script_end_to_end(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "featherprune.cli", "train", "--out", str(tmp_path / "r"), *BASE],
        capture_output=True, text=True, timeout=300, env=_env_with_package(),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "r" / "final.fthr").exists()
    assert "val_top1=" in result.stdout


def test_import_loads_neither_hashlib_nor_multiprocessing(tmp_path):
    # OpenSSL behind hashlib and the process pool are megabytes of every
    # featherprune process; only a sweep that starts a pool needs the latter
    code = ("import sys, featherprune, featherprune.cli\n"
            "with featherprune.checkpoint.atomic_open(sys.argv[1]) as fh:\n"
            "    fh.write(b'x')\n"
            "print(sorted({'hashlib', 'multiprocessing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "artifact")],
                            capture_output=True, text=True, timeout=60, env=_env_with_package())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _is_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


@pytest.mark.skipif(not _is_glibc(), reason="malloc thresholds are a glibc setting")
def test_main_keeps_freed_arrays_in_the_heap(tmp_path):
    # A training step frees and reallocates the same MB-sized arrays; after
    # main() starts they must come back from the heap, not as fresh pages.
    code = f"""
import resource, numpy as np
from featherprune.cli import main
assert main(["analyze-masks", "--masks", {str(tmp_path / "missing.bin")!r}]) == 1
def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones(1 << 19); b = np.ones(1 << 19); del a, b
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults()
print(max(faults() for _ in range(4)))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env=_env_with_package())
    assert result.returncode == 0, result.stderr
    # two fresh 4 MiB arrays would be ~2000 page faults
    assert int(result.stdout.split()[-1]) < 100
