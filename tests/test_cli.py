import json
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_array, with_config
from spikebit import binary, cli, learn, metrics
from spikebit.cli import (
    Dataset,
    DatasetSpec,
    RunConfig,
    load_dataset,
    load_raw_dataset,
    parse_config,
    save_raw_dataset,
    synthetic_clusters,
    write_effective_config,
)
from spikebit.errors import ConfigError, DataError, TrainingError
from spikebit.model import (
    ModelConfig,
    SpikingTransformer,
    StemSpec,
    checkpoint_bytes,
    load_checkpoint,
)
from spikebit.neuron import SurrogateKind, SurrogateSpec
from spikebit.numeric import Rng

MINI_CONFIG = """
[run]
seed = 3
epochs = {epochs}
batch_size = 32
out = {out}

[model]
depth = 1
embed_dim = 32
heads = 2
timesteps = 2
topology = residual
dual_head = false

[stem]
kind = vector
in_features = 64
tokens = 4

[optimizer]
lr = 0.006

[dataset]
format = synthetic
train_size = 96
test_size = 32
"""


# `write_effective_config(RunConfig())`, byte for byte; configparser writes an
# empty value as "key = " with a trailing space
DEFAULT_EFFECTIVE = """\
[run]
seed = 0
epochs = 50
batch_size = 64
out = runs/out

[model]
depth = 2
embed_dim = 64
heads = 2
timesteps = 2
tau = 0.5
v_threshold = 1.0
hidden_ratio = 4.0
num_classes = 10
weight_mode = binary
topology = reversible
dual_head = true
classify_on = x0
ste_clip = 1.0
surrogate = sigmoid
surrogate_width = 4.0

[stem]
kind = vector
in_features = 64
tokens = 4
in_channels = 3
image_size = 32
patch_size = 4

[optimizer]
lr = 0.006
weight_decay = 0.0
clip_norm = 5.0
cosine = true

[dataset]
format = synthetic
path =
dims = 64
num_classes = 10
train_size = 512
test_size = 256
spread = 1.0
noise = 0.85

[teacher]
source = none
path =

""".replace(" =\n", " = \n")

# every key the INI config can set, each away from its default
ALL_NON_DEFAULT = RunConfig(
    model=ModelConfig(
        depth=3, embed_dim=48, heads=3, timesteps=3, tau=0.25, v_threshold=0.75,
        hidden_ratio=2.5, num_classes=5,
        stem=StemSpec(kind="conv", in_features=32, tokens=8, in_channels=1, image_size=16,
                      patch_size=2),
        surrogate=SurrogateSpec(SurrogateKind.ARCTAN, 2.0), weight_mode="full",
        topology="residual", dual_head=False, classify_on="x1", ste_clip=0.5),
    dataset=DatasetSpec(format="csv", path="data/train.csv", dims=32, num_classes=5,
                        train_size=100, test_size=50, spread=2.0, noise=0.5),
    seed=7, epochs=3, batch_size=16, out_dir="runs/all", lr=0.01, weight_decay=0.1,
    clip_norm=1.0, cosine=False, teacher_source="logits-cache", teacher_path="cache.bin",
)


def _with_distillation_head(config: str) -> str:
    """MINI_CONFIG's text with the reversible, dual-head model a teacher
    needs in place of its residual single-head one."""
    single = "topology = residual\ndual_head = false"
    assert single in config
    return config.replace(single, "topology = reversible\ndual_head = true")


def write_config(tmp_path, epochs=1, name="cfg.ini"):
    out = tmp_path / "run"
    cfg = tmp_path / name
    cfg.write_text(MINI_CONFIG.format(epochs=epochs, out=out))
    return cfg, out


class TestConfig:
    def test_roundtrip_equality(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        cfg = parse_config(cfg_path)
        eff = tmp_path / "effective.ini"
        write_effective_config(cfg, eff)
        assert parse_config(eff) == cfg

    def test_defaults_fill_missing_sections(self, tmp_path):
        p = tmp_path / "tiny.ini"
        p.write_text("[run]\nseed = 9\n")
        cfg = parse_config(p)
        assert cfg.seed == 9
        assert cfg.model.depth == 2
        assert cfg.dataset.format == "synthetic"

    def test_missing_path_names_field(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            DatasetSpec(format="csv", path="")

    def test_default_effective_config_is_pinned(self, tmp_path):
        eff = tmp_path / "effective.ini"
        write_effective_config(RunConfig(), eff)
        assert eff.read_text() == DEFAULT_EFFECTIVE

    def test_every_key_round_trips(self, tmp_path):
        eff = tmp_path / "effective.ini"
        write_effective_config(ALL_NON_DEFAULT, eff)
        text = eff.read_text()
        # the same keys in the same order, and no value left at its default
        for line, default in zip(text.splitlines(), DEFAULT_EFFECTIVE.splitlines(), strict=True):
            if " = " in line:
                assert line.split(" = ")[0] == default.split(" = ")[0]
                assert line != default
        assert parse_config(eff) == ALL_NON_DEFAULT

    def test_percent_is_literal(self, tmp_path):
        cfg = replace(ALL_NON_DEFAULT, out_dir="runs/50%",
                      dataset=replace(ALL_NON_DEFAULT.dataset, path="data/%(format)s-5%.csv"))
        eff = tmp_path / "effective.ini"
        write_effective_config(cfg, eff)
        assert "out = runs/50%\n" in eff.read_text()
        assert parse_config(eff) == cfg

    def test_readme_example_config_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        p = tmp_path / "run.ini"
        p.write_text(re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1))
        cfg = parse_config(p)
        assert (cfg.out_dir, cfg.model.weight_mode, cfg.model.stem.kind, cfg.dataset.format,
                cfg.teacher_source) == ("runs/demo", "binary", "vector", "synthetic", "none")

    def test_bad_value_names_field(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\ndepth = banana\n")
        with pytest.raises(ConfigError, match="model.depth"):
            parse_config(p)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/cfg.ini")

    # config file text (None: a directory in its place) and the error it raises
    BAD = {
        "no_section_header": ("seed = 1\n", "malformed config file"),
        "repeated_key": ("[run]\nseed = 1\nseed = 2\n", "malformed config file"),
        "directory": (None, "cannot read config file"),
        "not_text": (b"\xff\xfe[run]\n", "config file"),
        "unknown_key": ("[model]\ndepht = 8\n", "model.depht: unknown key"),
        "unknown_section": ("[runs]\nseed = 1\n", r"unknown config section \[runs\]"),
        "default_section": ("[DEFAULT]\nseed = 5\n", r"unknown config section \[DEFAULT\]"),
        "nan": ("[dataset]\nspread = nan\n", "dataset.spread: must be finite"),
        "inf": ("[dataset]\nnoise = inf\n", "dataset.noise: must be finite"),
        "overflow": ("[optimizer]\nlr = 1e999\n", "optimizer.lr: must be finite"),
        "negative_seed": ("[run]\nseed = -1\n", r"run.seed must be >= 0"),
        "zero_batch_size": ("[run]\nbatch_size = 0\n", "run.batch_size: must be positive"),
        "zero_lr": ("[optimizer]\nlr = 0\n", "optimizer.lr: must be positive"),
        "negative_tokens": ("[stem]\ntokens = -1\n", "stem.tokens: must be positive"),
        "zero_noise": ("[dataset]\nnoise = 0\n", "dataset.noise: must be positive"),
        "synthetic_with_path": ("[dataset]\npath = d.csv\n", "dataset.path is set"),
        "teacher_path_without_source": ("[teacher]\npath = c.bin\n", "teacher.path is set"),
    }

    @classmethod
    def _bad_config(cls, tmp_path, kind):
        text, _ = cls.BAD[kind]
        p = tmp_path / "bad.ini"
        if text is None:
            p.mkdir()
        elif isinstance(text, bytes):
            p.write_bytes(text)
        else:
            p.write_text(text)
        return p

    @pytest.mark.parametrize("kind", list(BAD))
    def test_bad_config_is_config_error(self, tmp_path, kind):
        with pytest.raises(ConfigError, match=self.BAD[kind][1]):
            parse_config(self._bad_config(tmp_path, kind))

    @pytest.mark.parametrize("kind", list(BAD))
    def test_bad_config_exits_2_before_training(self, tmp_path, kind, capsys, monkeypatch):
        monkeypatch.setattr(learn, "train_model",
                            lambda *a, **k: pytest.fail("trained on a bad config"))
        rc = cli.main(["train", "--config", str(self._bad_config(tmp_path, kind)),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval", "inspect", "pack-teacher-logits"])
    def test_negative_seed_option_exits_2(self, tmp_path, command, capsys):
        cfg_path, _ = write_config(tmp_path)
        argv = {"train": ["--config", str(cfg_path), "--out", str(tmp_path / "out")],
                "pack-teacher-logits": ["--checkpoint", "m.bin", "--out", "c.bin"]
                }.get(command, ["--checkpoint", "m.bin"])
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *argv, "--seed", "-3"])
        assert exc.value.code == 2
        assert "error: argument --seed: must be >= 0, got -3" in capsys.readouterr().err


class TestDatasets:
    def test_synthetic_shapes_and_determinism(self):
        spec = DatasetSpec(train_size=50, test_size=20, dims=16, num_classes=4)
        a = synthetic_clusters(spec, seed=5)
        b = synthetic_clusters(spec, seed=5)
        assert a.x_train.shape == (50, 16)
        assert np.array_equal(a.x_train, b.x_train)
        assert a.y_train.min() >= 0 and a.y_train.max() < 4
        c = synthetic_clusters(spec, seed=6)
        assert not np.array_equal(a.x_train, c.x_train)

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = ["1.0,2.0,0", "3.0,4.0,1", "0.5,0.5,2"]
        path.write_text("\n".join(rows) + "\n")
        ds = cli.load_csv_dataset(path)
        assert ds.x_train.shape == (3, 2)
        assert ds.y_train.tolist() == [0, 1, 2]
        assert ds.num_classes == 3

    def test_raw_roundtrip(self, tmp_path):
        x = Rng(7).normal((10, 6))
        y = Rng(8).integers(0, 3, 10).astype(np.int64)
        path = tmp_path / "d.bin"
        save_raw_dataset(path, x, y, 3)
        ds = load_raw_dataset(path)
        assert np.array_equal(ds.x_train, x)
        assert np.array_equal(ds.y_train, y)
        assert ds.num_classes == 3

    @pytest.mark.parametrize("label", ["1.5", "-0.25", "nan", "inf"])
    def test_csv_label_not_whole_number_rejected(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(DataError, match="whole number"):
            cli.load_csv_dataset(path)

    @pytest.mark.parametrize("feature", ["nan", "inf", "-inf", "1e39"])
    def test_csv_non_finite_feature_rejected(self, tmp_path, feature):
        # 1e39 is finite in float64 but overflows the float32 samples
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,2.0,0\n3.0,{feature},1\n")
        with pytest.raises(DataError, match="sample 1 has a feature that is not finite"):
            cli.load_csv_dataset(path)

    @pytest.mark.parametrize("feature", [np.nan, np.inf, -np.inf])
    def test_raw_non_finite_feature_rejected(self, tmp_path, feature):
        x = Rng(7).normal((10, 2, 3))
        x[4, 1, 2] = feature
        path = tmp_path / "d.bin"
        save_raw_dataset(path, x, np.zeros(10), 3)
        with pytest.raises(DataError, match="sample 4 has a feature that is not finite"):
            load_raw_dataset(path)

    @pytest.mark.parametrize("loader", [load_checkpoint, load_raw_dataset, cli.load_csv_dataset,
                                        learn.TeacherLogitsCache.load, binary.read_packed],
                             ids=lambda f: f.__qualname__)
    def test_missing_file_is_data_error(self, tmp_path, loader):
        with pytest.raises(DataError, match="nothere"):
            loader(tmp_path / "nothere.bin")

    def test_raw_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage")
        with pytest.raises(DataError):
            load_raw_dataset(path)

    @pytest.mark.parametrize("damage", ["short_header", "short_samples", "trailing_bytes",
                                        "huge_count", "no_samples"])
    def test_raw_damaged_is_data_error(self, tmp_path, damage):
        path = tmp_path / "d.bin"
        if damage == "no_samples":
            save_raw_dataset(path, np.zeros((0, 6), dtype=np.float32), np.zeros(0), 3)
        else:
            save_raw_dataset(path, Rng(7).normal((10, 6)), np.zeros(10), 3)
            good = path.read_bytes()
            # magic (6 bytes), u32 count, ndim and classes, then the shape
            path.write_bytes({"short_header": good[:14], "short_samples": good[:-5],
                              "trailing_bytes": good + b"\0" * 4,
                              "huge_count": good[:6] + (2**32 - 1).to_bytes(4, "little")
                              + good[10:]}[damage])
        with pytest.raises(DataError):
            load_raw_dataset(path)


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """A path to write damaged copies to, and for each binary container
    format its name -> (the bytes of a small good container, its reader)."""
    raw_path = tmp_path_factory.mktemp("containers") / "d.bin"
    save_raw_dataset(raw_path, Rng(60).normal((6, 2, 3)), np.arange(6) % 3, 3)
    cache = learn.TeacherLogitsCache(Rng(61).normal((5, 3)), 7)
    cache_path = raw_path.with_name("cache.bin")
    cache.save(cache_path)
    net = SpikingTransformer(ModelConfig(depth=1, embed_dim=8, heads=2, timesteps=2,
                                         num_classes=3, stem=StemSpec(in_features=8, tokens=2)),
                             seed=62)
    return raw_path.with_name("bad.bin"), {
        "checkpoint": (checkpoint_bytes(net), load_checkpoint),
        "logits cache": (cache_path.read_bytes(), learn.TeacherLogitsCache.load),
        "raw dataset": (raw_path.read_bytes(), load_raw_dataset),
        "packed-bits image": (binary.packed_bytes(binary.pack(Rng(63).normal((3, 70)) > 0)),
                              binary.read_packed),
    }


class TestDamagedContainers:
    """Each reader of a binary container meets truncated, overlong and
    bit-flipped copies of a good one: it either loads the copy or raises
    DataError naming the container, never any other exception."""

    @pytest.mark.parametrize("what", ["checkpoint", "logits cache", "raw dataset",
                                      "packed-bits image"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_damaged_copy_loads_or_is_data_error_naming_it(self, containers, what, data):
        path, formats = containers
        good, read = formats[what]
        damage = data.draw(st.sampled_from(["cut", "flip", "append"]))
        if damage == "cut":
            bad = good[:data.draw(st.integers(0, len(good) - 1))]
        elif damage == "flip":
            bit = data.draw(st.integers(0, 8 * len(good) - 1))
            bad = bytearray(good)
            bad[bit // 8] ^= 1 << (bit % 8)
        else:
            bad = good + bytes([data.draw(st.integers(0, 255))])
        path.write_bytes(bad)
        try:
            read(path)
        except DataError as exc:
            assert what in str(exc)


class TestTrainCommand:
    def test_zero_epochs_writes_initial_checkpoint(self, tmp_path):
        cfg_path, out = write_config(tmp_path, epochs=0)
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert (out / "ckpt-last.bin").exists()
        assert (out / "effective.ini").exists()
        load_checkpoint(out / "ckpt-last.bin")  # parses cleanly

    def test_determinism_byte_identical_artifacts(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, epochs=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert (out_a / "ckpt-last.bin").read_bytes() == (out_b / "ckpt-last.bin").read_bytes()
        assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
        assert (out_a / "summary.jsonl").read_bytes() == (out_b / "summary.jsonl").read_bytes()

    def test_a_repeated_run_leaves_a_fresh_runs_artifacts(self, tmp_path):
        # summary.jsonl was appended to: a second run into one directory
        # left two summary records beside one epoch of metrics
        cfg_path, out = write_config(tmp_path, epochs=1)
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        fresh = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == fresh
        assert len(metrics.read_records(out / "summary.jsonl")) == 1

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, epochs=1)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(cfg_path), "--out", str(out_a)])
        cli.main(["train", "--config", str(cfg_path), "--out", str(out_b), "--seed", "99"])
        assert (out_a / "ckpt-last.bin").read_bytes() != (out_b / "ckpt-last.bin").read_bytes()

    def test_invalid_config_exits_nonzero(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[dataset]\nformat = csv\n")  # path missing
        assert cli.main(["train", "--config", str(p)]) == 2

    def test_train_into_percent_directory(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, epochs=0)
        out = tmp_path / "runs 5%"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert parse_config(out / "effective.ini") == replace(parse_config(cfg_path),
                                                              out_dir=str(out))

    def test_class_count_mismatch_exits_2_before_writing(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text() + "num_classes = 12\n")  # [dataset] is last
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "error: dataset classes 12 != model classes 10" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("model,want", [
        ("topology = residual\ndual_head = false", "topology = residual, dual_head = false"),
        ("topology = reversible\ndual_head = false", "topology = reversible, dual_head = false"),
    ])
    def test_teacher_for_a_model_without_a_distillation_head_exits_2(self, tmp_path, capsys,
                                                                     monkeypatch, model, want):
        # such a model used to load the teacher and train without it
        cfg_path, out = write_config(tmp_path)
        text = cfg_path.read_text().replace("topology = residual\ndual_head = false", model)
        cfg_path.write_text(text + "\n[teacher]\nsource = logits-cache\npath = missing.bin\n")
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("loaded the data"))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert ("error: teacher.source is 'logits-cache', but the model has no distillation "
                f"head ({want})") in err and "Traceback" not in err
        assert not out.exists()

    def test_training_error_maps_to_exit_3(self, monkeypatch, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        monkeypatch.setattr(cli, "cmd_train",
                            lambda *a, **k: (_ for _ in ()).throw(TrainingError("nan in batch 2")))
        assert cli.main(["train", "--config", str(cfg_path)]) == 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg_path, out = write_config(tmp, epochs=2)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, out


class TestEvalInspect:
    def test_eval_runs_and_reports_cost(self, trained, capsys):
        cfg_path, out = trained
        rc = cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--config", str(cfg_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "accuracy" in text and "size" in text

    def test_eval_deterministic_records(self, trained, tmp_path):
        cfg_path, out = trained
        r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                  "--config", str(cfg_path), "--out", str(r1)])
        cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                  "--config", str(cfg_path), "--out", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_eval_size_matches_metrics_module(self, trained):
        _, out = trained
        model = load_checkpoint(out / "ckpt-last.bin")
        batch = np.zeros((4, 64), dtype=np.float32)
        report = metrics.cost_report(model, batch)
        assert report.model_size_mb == metrics.model_size_mb(model)

    def test_eval_class_mismatch_is_data_error(self, trained, tmp_path):
        _, out = trained
        x = Rng(1).normal((8, 64))
        y = np.zeros(8, dtype=np.int64)
        bad = tmp_path / "bad.bin"
        save_raw_dataset(bad, x, y, 3)  # model has 10 classes
        rc = cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--dataset", str(bad), "--format", "raw"])
        assert rc == 2

    def test_eval_truncated_raw_dataset_exits_2(self, trained, tmp_path):
        _, out = trained
        path = tmp_path / "cut.bin"
        save_raw_dataset(path, Rng(1).normal((8, 64)), np.zeros(8), 10)
        path.write_bytes(path.read_bytes()[:-5])
        rc = cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--dataset", str(path), "--format", "raw"])
        assert rc == 2

    @pytest.mark.parametrize("text", ["1.0,abc,0\n", ""], ids=["non_numeric", "empty"])
    def test_eval_bad_csv_dataset_exits_2(self, trained, tmp_path, capsys, text):
        _, out = trained
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError):
            cli.load_csv_dataset(path)
        rc = cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--dataset", str(path), "--format", "csv"])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("width,bad,message", [
        (63, None, r"input samples have shape \(63,\); the model takes \(64,\)"),
        (64, "nan", "not finite"),
    ], ids=["wrong_width", "nan_feature"])
    def test_eval_unusable_csv_samples_exit_2(self, trained, tmp_path, capsys, width, bad,
                                              message):
        _, out = trained
        x = Rng(2).normal((5, width)).astype(str)
        if bad is not None:
            x[3, 7] = bad
        path = tmp_path / "d.csv"
        path.write_text("".join(",".join(row) + ",1\n" for row in x))
        rc = cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--dataset", str(path), "--format", "csv"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.err and re.search(message, captured.err)
        assert "accuracy" not in captured.out

    @pytest.mark.parametrize("command", ["eval", "inspect", "pack-teacher-logits"])
    @pytest.mark.parametrize("extra", [["--dataset", "d.csv"], ["--format", "csv"],
                                       ["--dataset", "d.csv", "--format", "csv"]],
                             ids=["dataset", "format", "both"])
    def test_config_excludes_dataset_options(self, capsys, command, extra):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--checkpoint", "m.bin", "--config", "cfg.ini", "--out", "o",
                      *extra])
        assert exc.value.code == 2
        assert "error: --config excludes --dataset and --format" in capsys.readouterr().err

    def test_dataset_without_format_exits_2(self, trained, tmp_path, capsys):
        _, out = trained
        rc = cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--dataset", str(tmp_path / "missing.csv")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: dataset.path is set, but format 'synthetic'" in captured.err
        assert "accuracy" not in captured.out

    @pytest.mark.parametrize("command", ["train", "eval", "inspect", "pack-teacher-logits"])
    def test_unwritable_output_exits_2(self, trained, tmp_path, capsys, command):
        cfg_path, out = trained
        (tmp_path / "afile").write_text("")
        target = {"train": tmp_path / "afile", "pack-teacher-logits": tmp_path}.get(
            command, tmp_path / "nodir" / "x.jsonl")
        argv = (["--config", str(cfg_path)] if command == "train" else
                ["--checkpoint", str(out / "ckpt-last.bin"), "--config", str(cfg_path)])
        assert cli.main([command, *argv, "--out", str(target)]) == 2
        captured = capsys.readouterr()  # eval and inspect open --out before any work
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_eval_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "nothere.bin")])
        assert rc == 2
        assert "nothere.bin" in capsys.readouterr().err

    def test_eval_missing_csv_dataset_exits_2(self, trained, tmp_path, capsys):
        _, out = trained
        rc = cli.main(["eval", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--dataset", str(tmp_path / "missing.csv"), "--format", "csv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "missing.csv" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["truncated_header", "truncated_arrays", "trailing_bytes"])
    def test_corrupt_checkpoint_is_data_error(self, trained, tmp_path, damage):
        cfg_path, out = trained
        raw = (out / "ckpt-last.bin").read_bytes()
        # magic (6 bytes), u32 header length, JSON header, then the arrays
        arrays_at = 6 + 4 + int.from_bytes(raw[6:10], "little")
        bad = {"truncated_header": raw[: arrays_at - 20],
               "truncated_arrays": raw[: arrays_at + 100],
               "trailing_bytes": raw + b"\0"}[damage]
        path = tmp_path / "bad.bin"
        path.write_bytes(bad)
        with pytest.raises(DataError):
            load_checkpoint(path)
        rc = cli.main(["eval", "--checkpoint", str(path), "--config", str(cfg_path)])
        assert rc == 2

    @pytest.mark.parametrize("name,value,message", [
        ("block0.bssa.o_bn.gamma", np.nan, "holds a value that is not finite"),
        ("block0.bssa.lambda.scale", 0.0, "holds a lambda scale that is not positive"),
        ("block0.bssa.o_bn.running_var", -1.0, "holds a variance below 0"),
    ], ids=["nan_gamma", "zero_lambda", "negative_running_var"])
    def test_eval_unusable_checkpoint_array_exits_2(self, trained, tmp_path, capsys, name,
                                                      value, message):
        # a NaN gamma loaded, and eval printed an accuracy from NaN logits;
        # a negative running variance loaded, and eval failed in its forward
        cfg_path, out = trained
        path = tmp_path / "bad.bin"
        path.write_bytes(with_array((out / "ckpt-last.bin").read_bytes(), name, value))
        rc = cli.main(["eval", "--checkpoint", str(path), "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"error: checkpoint array {name} {message}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fields", [{"embed_dim": 2**20}, {"timesteps": 2**40}],
                             ids=["embed_dim", "binary_timesteps"])
    def test_eval_checkpoint_config_larger_than_the_file_exits_2(self, trained, tmp_path,
                                                                  capsys, fields):
        # an embed_dim of 2**20 died with a traceback allocating 4 TiB
        cfg_path, out = trained
        path = tmp_path / "bad.bin"
        path.write_bytes(with_config((out / "ckpt-last.bin").read_bytes(), **fields))
        rc = cli.main(["eval", "--checkpoint", str(path), "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "error: checkpoint config is invalid: its arrays need" in captured.err
        assert "Traceback" not in captured.err

    # config floats that JSON reads (it takes NaN and Infinity) but no
    # model can run with, such as a NaN threshold, which never fires
    BAD_FLOATS = {
        "nan_v_threshold": (("v_threshold",), float("nan")),
        "inf_ste_clip": (("ste_clip",), float("inf")),
        "negative_ste_clip": (("ste_clip",), -1.0),
        "nan_attn_scale": (("attn_scale",), float("nan")),
        "zero_attn_scale": (("attn_scale",), 0.0),
        "nan_surrogate_width": (("surrogate", "width_or_alpha"), float("nan")),
    }

    @pytest.mark.parametrize("damage", ["list", "no_config", "no_arrays", "unknown_key",
                                        "string_depth", "string_seed", "zero_heads",
                                        "negative_embed_dim", "negative_hidden_ratio",
                                        "zero_stem_tokens", *BAD_FLOATS])
    def test_malformed_checkpoint_header_is_data_error(self, trained, tmp_path, capsys, damage):
        cfg_path, out = trained
        raw = (out / "ckpt-last.bin").read_bytes()
        header_at, arrays_at = 6 + 4, 6 + 4 + int.from_bytes(raw[6:10], "little")
        header = json.loads(raw[header_at:arrays_at])
        if damage == "list":
            header = [header]
        elif damage == "no_config":
            del header["config"]
        elif damage == "no_arrays":
            del header["arrays"]
        elif damage == "unknown_key":
            header["config"]["colour"] = "red"
        elif damage == "string_depth":
            header["config"]["depth"] = "2"
        elif damage == "string_seed":
            header["seed"] = "x"
        elif damage == "zero_heads":
            header["config"]["heads"] = 0
        elif damage == "negative_embed_dim":
            header["config"]["embed_dim"] = -4
        elif damage == "negative_hidden_ratio":
            header["config"]["hidden_ratio"] = -1.0
        elif damage in self.BAD_FLOATS:
            path, value = self.BAD_FLOATS[damage]
            fields = header["config"]
            for name in path[:-1]:
                fields = fields[name]
            fields[path[-1]] = value
        else:
            header["config"]["stem"]["tokens"] = 0
        hb = json.dumps(header).encode()
        path = tmp_path / "bad.bin"
        path.write_bytes(raw[:6] + struct.pack("<I", len(hb)) + hb + raw[arrays_at:])
        with pytest.raises(DataError):
            load_checkpoint(path)
        rc = cli.main(["eval", "--checkpoint", str(path), "--config", str(cfg_path)])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["no_images", "one_bogus_image", "renamed", "transposed",
                                        "extra_image", "flipped_bit"])
    def test_images_not_matching_the_binary_layers_are_data_error(self, trained, tmp_path,
                                                                   capsys, damage):
        cfg_path, out = trained
        raw = (out / "ckpt-last.bin").read_bytes()
        header_at, arrays_at = 6 + 4, 6 + 4 + int.from_bytes(raw[6:10], "little")
        header = json.loads(raw[header_at:arrays_at])
        images_at = arrays_at + 4 * sum(int(np.prod(a["shape"])) for a in header["arrays"])
        images, at = [], images_at
        for spec in header["packed"]:
            images.append((spec["name"], raw[at:at + spec["size"]]))
            at += spec["size"]
        assert at == len(raw) and len(images) > 1
        name, first = images[0]
        pb = binary.read_packed(first)
        bogus = binary.packed_bytes(binary.pack(np.ones((1, 1)), binary.ALPHABET_PM1))
        flipped = bytearray(first)
        flipped[16] ^= 0x01  # element (0, 0): the first bit after magic, rows and cols
        transposed = binary.packed_bytes(binary.pack(
            binary.unpack(pb, binary.ALPHABET_PM1).T, binary.ALPHABET_PM1))
        images = {"no_images": [],
                  "one_bogus_image": [(name, bogus)],
                  "renamed": [(name + "x", first)] + images[1:],
                  "transposed": [(name, transposed)] + images[1:],
                  "extra_image": images + [("extra.packed", bogus)],
                  "flipped_bit": [(name, bytes(flipped))] + images[1:]}[damage]
        header["packed"] = [{"name": n, "size": len(b)} for n, b in images]
        hb = json.dumps(header).encode()
        path = tmp_path / "bad.bin"
        path.write_bytes(raw[:6] + struct.pack("<I", len(hb)) + hb + raw[arrays_at:images_at]
                         + b"".join(b for _, b in images))
        with pytest.raises(DataError, match="image"):
            load_checkpoint(path)
        rc = cli.main(["eval", "--checkpoint", str(path), "--config", str(cfg_path)])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_inspect_emits_one_record_per_block(self, trained, tmp_path):
        cfg_path, out = trained
        rec_path = tmp_path / "rep.jsonl"
        rc = cli.main(["inspect", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--config", str(cfg_path), "--out", str(rec_path)])
        assert rc == 0
        recs = metrics.read_records(rec_path)
        assert len(recs) == 1  # depth-1 model
        assert {"block", "value_set_size", "entropy_bits"} <= set(recs[0])


class TestPackTeacherLogits:
    def test_cache_file_round_trip(self, tmp_path):
        cfg_path, out = write_config(tmp_path, epochs=0)
        cli.main(["train", "--config", str(cfg_path)])
        cache_path = tmp_path / "cache.bin"
        cache_path.write_bytes(b"an earlier cache")  # replaced, not appended to
        rc = cli.main(["pack-teacher-logits", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--config", str(cfg_path), "--out", str(cache_path)])
        assert rc == 0
        cache = learn.TeacherLogitsCache.load(cache_path)
        spec = parse_config(cfg_path)
        data = load_dataset(spec.dataset, spec.seed)
        assert cache.num_samples == data.x_train.shape[0]
        assert cache.data_hash == learn.dataset_hash(data.x_train, data.y_train)

    def test_class_count_mismatch_exits_2(self, trained, tmp_path, capsys):
        cfg_path, out = trained
        twelve = tmp_path / "twelve.ini"
        twelve.write_text(cfg_path.read_text().replace("[dataset]\n",
                                                        "[dataset]\nnum_classes = 12\n"))
        cache_path = tmp_path / "cache.bin"
        rc = cli.main(["pack-teacher-logits", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--config", str(twelve), "--out", str(cache_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not cache_path.exists()
        assert "error: dataset classes 12 != model classes 10" in captured.err

    def test_unwritable_output_exits_2_before_the_teacher_runs(self, trained, tmp_path,
                                                                capsys, monkeypatch):
        cfg_path, out = trained
        calls, build = [], learn.build_logits_cache
        monkeypatch.setattr(learn, "build_logits_cache",
                            lambda *a, **k: calls.append(a) or build(*a, **k))
        rc = cli.main(["pack-teacher-logits", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--config", str(cfg_path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and calls == []
        assert captured.err.startswith("error: ")

    def test_failing_teacher_leaves_the_output_as_it_was(self, trained, tmp_path, capsys):
        cfg_path, out = trained
        narrow = tmp_path / "narrow.ini"  # 32 features for a 64-feature teacher
        narrow.write_text(cfg_path.read_text().replace("[dataset]\n", "[dataset]\ndims = 32\n"))
        cache_path = tmp_path / "cache.bin"
        cache_path.write_bytes(b"an earlier cache")
        rc = cli.main(["pack-teacher-logits", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--config", str(narrow), "--out", str(cache_path)])
        assert rc == 2 and "Traceback" not in capsys.readouterr().err
        assert cache_path.read_bytes() == b"an earlier cache"

    @pytest.mark.parametrize("source", ["checkpoint", "logits-cache"])
    def test_train_with_a_non_finite_teacher_exits_2(self, trained, tmp_path, capsys, source):
        cfg_path, out = trained
        if source == "checkpoint":
            teacher = tmp_path / "teacher.bin"
            teacher.write_bytes(with_array((out / "ckpt-last.bin").read_bytes(),
                                           "block0.bssa.o_bn.gamma", np.nan))
            want = "checkpoint array block0.bssa.o_bn.gamma holds a value that is not finite"
        else:
            teacher = tmp_path / "cache.bin"
            assert cli.main(["pack-teacher-logits", "--checkpoint", str(out / "ckpt-last.bin"),
                             "--config", str(cfg_path), "--out", str(teacher)]) == 0
            cache = learn.TeacherLogitsCache.load(teacher)
            cache.logits[5, 3] = np.inf
            cache.save(teacher)
            want = "logits cache: sample 5 has a logit that is not finite"
        capsys.readouterr()
        distill = tmp_path / "distill.ini"
        distill.write_text(_with_distillation_head(cfg_path.read_text())
                           + f"\n[teacher]\nsource = {source}\npath = {teacher}\n")
        run = tmp_path / "d"
        assert cli.main(["train", "--config", str(distill), "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert f"error: {want}" in err and "Traceback" not in err
        assert not run.exists()

    def test_cache_dataset_mismatch_rejected(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, epochs=0)
        cli.main(["train", "--config", str(cfg_path)])
        cache_path = tmp_path / "cache.bin"
        cli.main(["pack-teacher-logits", "--checkpoint", str(out / "ckpt-last.bin"),
                  "--config", str(cfg_path), "--seed", "77", "--out", str(cache_path)])
        # train against the cache built from a different seed's data
        distill_cfg = tmp_path / "distill.ini"
        distill_cfg.write_text(
            _with_distillation_head((tmp_path / "cfg.ini").read_text())
            + f"\n[teacher]\nsource = logits-cache\npath = {cache_path}\n"
        )
        assert cli.main(["train", "--config", str(distill_cfg),
                         "--out", str(tmp_path / "d")]) == 2
        assert "logits cache was built for a different dataset" in capsys.readouterr().err
