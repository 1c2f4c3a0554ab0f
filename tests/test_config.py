"""Flat key=value config: parsing, defaults, overrides, and echo round trips."""

import math

import pytest

from featherprune.config import (
    SCHEMA,
    build_descriptor,
    build_model_for,
    build_operator,
    build_runspec,
    config_to_text,
    parse_kv_text,
    resolve_config,
)
from featherprune.errors import ConfigError
from featherprune.thresholding import apply_threshold
import numpy as np


class TestParseKvText:
    def test_basic_pairs(self):
        pairs = parse_kv_text("a=1\nb = two \n")
        assert pairs == {"a": "1", "b": "two"}

    def test_comments_and_blanks_skipped(self):
        pairs = parse_kv_text("# heading\n\n  # indented comment\nx=1\n")
        assert pairs == {"x": "1"}

    def test_last_occurrence_wins(self):
        assert parse_kv_text("k=1\nk=2\n") == {"k": "2"}

    def test_value_may_contain_equals(self):
        assert parse_kv_text("k=a=b") == {"k": "a=b"}

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_kv_text("a=1\n\njust words\n")


class TestResolveConfig:
    def test_all_defaults(self):
        values = resolve_config()
        assert values["train.epochs"] == 20
        assert values["prune.operator"] == "powerp"
        assert values["prune.p"] == 3.0
        assert values["model.hidden"] == [300, 100]
        assert values["prune.exempt_first_conv"] is None
        assert set(values) == set(SCHEMA)

    def test_file_then_override_precedence(self):
        values = resolve_config("train.epochs=5\ntrain.lr=0.2\n",
                                ["train.epochs=7"])
        assert values["train.epochs"] == 7
        assert values["train.lr"] == 0.2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'train.epoch'"):
            resolve_config("train.epoch=5\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="bad value for train.epochs"):
            resolve_config("train.epochs=five\n")

    def test_bad_choice_lists_kind(self):
        with pytest.raises(ConfigError, match="expected choice"):
            resolve_config("prune.operator=magnitude\n")

    def test_tribool_values(self):
        assert resolve_config("prune.exempt_first_conv=auto\n")["prune.exempt_first_conv"] is None
        assert resolve_config("prune.exempt_first_conv=true\n")["prune.exempt_first_conv"] is True
        assert resolve_config("prune.exempt_first_conv=false\n")["prune.exempt_first_conv"] is False
        with pytest.raises(ConfigError, match="tribool"):
            resolve_config("prune.exempt_first_conv=maybe\n")

    def test_float_accepts_inf(self):
        for raw in ("inf", "INF", "Infinity", "infinity"):
            assert resolve_config(f"prune.p={raw}\n")["prune.p"] == math.inf
        assert "prune.p=inf\n" in config_to_text(resolve_config("prune.p=Infinity\n"))

    def test_int_list(self):
        assert resolve_config("model.hidden=64,32\n")["model.hidden"] == [64, 32]
        assert resolve_config("model.hidden=\n")["model.hidden"] == []

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="override must look like"):
            resolve_config(None, ["train.epochs"])


class TestEchoRoundTrip:
    def test_defaults_reparse_identically(self):
        values = resolve_config()
        again = resolve_config(config_to_text(values))
        assert again == values

    def test_modified_values_reparse_identically(self):
        values = resolve_config(
            "prune.p=inf\nmodel.hidden=10,20,30\nprune.exempt_first_conv=false\n"
            "train.lr=0.0625\nrun.label=trial-9\n"
        )
        again = resolve_config(config_to_text(values))
        assert again == values

    def test_echo_covers_every_key_once(self):
        lines = config_to_text(resolve_config()).strip().splitlines()
        assert len(lines) == len(SCHEMA)
        assert [ln.split("=")[0] for ln in lines] == list(SCHEMA)


class TestBuilders:
    def test_operator_kinds(self):
        soft = build_operator(resolve_config("prune.operator=soft\n"))
        hard = build_operator(resolve_config("prune.operator=hard\n"))
        p2 = build_operator(resolve_config("prune.operator=powerp\nprune.p=2\n"))
        w = np.float32([0.5])
        assert apply_threshold(w, 0.2, soft)[0][0] == pytest.approx(0.3, abs=1e-7)
        assert apply_threshold(w, 0.2, hard)[0][0] == np.float32(0.5)
        assert apply_threshold(w, 0.2, p2)[0][0] == pytest.approx(0.458257569495584, abs=1e-7)

    def test_powerp_with_infinite_p_acts_hard(self):
        op = build_operator(resolve_config("prune.operator=powerp\nprune.p=inf\n"))
        w = np.float32([0.5, 0.1])
        pruned, mask = apply_threshold(w, 0.2, op)
        np.testing.assert_array_equal(pruned, np.float32([0.5, 0.0]))
        np.testing.assert_array_equal(mask, [True, False])

    def test_blob_descriptor_fields(self):
        desc = build_descriptor(resolve_config("dataset.dims=32\ndataset.samples=100\n"))
        assert desc.kind == "blobs"
        assert desc.dims == 32
        assert desc.samples == 100

    def test_idx_descriptor_requires_paths(self):
        with pytest.raises(ConfigError, match="paths"):
            build_descriptor(resolve_config("dataset.kind=idx\n"))

    def test_runspec_carries_train_config(self, tmp_path):
        spec = build_runspec(resolve_config("train.epochs=3\nprune.final_sparsity=0.5\n"),
                             tmp_path)
        assert spec.train.epochs == 3
        assert spec.train.schedule.final_sparsity == 0.5
        assert spec.train.schedule.total_epochs == 3
        assert spec.out_dir == tmp_path

    def test_invalid_combination_becomes_config_error(self):
        # momentum out of range surfaces as exit-code-2 material, not ValueError
        with pytest.raises(ConfigError, match="momentum"):
            build_runspec(resolve_config("train.momentum=1.5\n"), ".")

    def test_empty_label_rejected(self):
        with pytest.raises(ConfigError, match="label"):
            build_runspec(resolve_config("run.label=\n"), ".")

    def test_fixed_theta_policy(self):
        spec = build_runspec(
            resolve_config("prune.theta_mode=fixed\nprune.theta=0.25\n"), ".")
        assert spec.train.grad_policy.mode == "fixed"
        assert spec.train.grad_policy.theta == 0.25

    def test_mlp_model_flattens_input(self):
        values = resolve_config("model.hidden=6\nmodel.classes=4\n")
        model = build_model_for(values, (1, 4, 4), seed=0)
        assert model.layers[0].weight.shape == (16, 6)
        assert model.layers[-1].weight.shape == (6, 4)

    def test_cnn_needs_spatial_input(self):
        values = resolve_config("model.arch=cnn\n")
        with pytest.raises(ConfigError, match="channel-height-width"):
            build_model_for(values, (784,), seed=0)

    def test_cnn_channels_from_config(self):
        values = resolve_config("model.arch=cnn\nmodel.channels=4,6\nmodel.classes=3\n")
        model = build_model_for(values, (1, 8, 8), seed=0)
        assert model.layers[0].weight.shape == (4, 1, 3, 3)
        assert model.layers[1].weight.shape == (6, 4, 3, 3)

    def test_model_init_deterministic_in_seed(self):
        values = resolve_config()
        m1 = build_model_for(values, (16,), seed=3)
        m2 = build_model_for(values, (16,), seed=3)
        np.testing.assert_array_equal(m1.layers[0].weight.data, m2.layers[0].weight.data)
