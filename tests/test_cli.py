import json
import re
import struct

import numpy as np
import pytest

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
from spikebit.model import load_checkpoint
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
        "nan": ("[dataset]\nspread = nan\n", "dataset.spread: must be finite"),
        "inf": ("[dataset]\nnoise = inf\n", "dataset.noise: must be finite"),
        "overflow": ("[optimizer]\nlr = 1e999\n", "optimizer.lr: must be finite"),
        "negative_seed": ("[run]\nseed = -1\n", r"run.seed must be >= 0"),
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

    @pytest.mark.parametrize("damage", ["list", "no_config", "no_arrays", "unknown_key",
                                        "string_depth", "string_seed", "zero_heads",
                                        "negative_embed_dim", "negative_hidden_ratio",
                                        "zero_stem_tokens"])
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
        pb = binary.packed_from_bytes(first)
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
        rc = cli.main(["pack-teacher-logits", "--checkpoint", str(out / "ckpt-last.bin"),
                       "--config", str(cfg_path), "--out", str(cache_path)])
        assert rc == 0
        cache = learn.TeacherLogitsCache.load(cache_path)
        spec = parse_config(cfg_path)
        data = load_dataset(spec.dataset, spec.seed)
        assert cache.num_samples == data.x_train.shape[0]
        assert cache.data_hash == learn.dataset_hash(data.x_train, data.y_train)

    def test_cache_dataset_mismatch_rejected(self, tmp_path):
        cfg_path, out = write_config(tmp_path, epochs=0)
        cli.main(["train", "--config", str(cfg_path)])
        cache_path = tmp_path / "cache.bin"
        cli.main(["pack-teacher-logits", "--checkpoint", str(out / "ckpt-last.bin"),
                  "--config", str(cfg_path), "--seed", "77", "--out", str(cache_path)])
        # train against the cache built from a different seed's data
        distill_cfg = tmp_path / "distill.ini"
        distill_cfg.write_text(
            (tmp_path / "cfg.ini").read_text()
            + f"\n[teacher]\nsource = logits-cache\npath = {cache_path}\n"
        )
        assert cli.main(["train", "--config", str(distill_cfg),
                         "--out", str(tmp_path / "d")]) == 2
