"""Command-line front end.

Commands: `train`, `eval`, `inspect`, `pack-teacher-logits`.
Configuration lives in an INI file with [run], [model], [stem],
[optimizer], [dataset], and [teacher] sections; every run writes the
fully-defaulted effective config next to its outputs so results can be
reproduced from the artifacts alone. All randomness flows from the
single run seed, so identical config+seed invocations produce
byte-identical checkpoints and metrics.

Set SPIKEBIT_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import logging
import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import binary, learn, metrics
from .errors import ConfigError, DataError, SpikebitError, TrainingError
from .model import ModelConfig, SpikingTransformer, load_checkpoint, save_checkpoint
from .neuron import SurrogateKind
from .numeric import DTYPE, Rng, Tensor

log = logging.getLogger("spikebit")

_RAW_MAGIC = b"SBRT\x01\x00"

DATASET_FORMATS = ("synthetic", "csv", "raw")


@dataclass(frozen=True)
class DatasetSpec:
    """Where training data comes from.

    `synthetic` draws Gaussian clusters (one per class) from the run
    seed, so the full pipeline runs with zero downloads; `csv` reads
    numeric rows with the label in the last column; `raw` reads the
    binary tensor container written by `save_raw_dataset`.
    """

    format: str = "synthetic"
    path: str = ""
    dims: int = 64
    num_classes: int = 10
    train_size: int = 512
    test_size: int = 256
    spread: float = 1.0
    noise: float = 0.85

    def __post_init__(self):
        if self.format not in DATASET_FORMATS:
            raise ConfigError(f"dataset.format must be one of {DATASET_FORMATS}, got {self.format!r}")
        if self.format != "synthetic" and not self.path:
            raise ConfigError(f"dataset.path is required for format {self.format!r}")
        if self.format == "synthetic" and self.path:
            raise ConfigError("dataset.path is set, but format 'synthetic' reads no file")


@dataclass
class Dataset:
    x_train: Tensor
    y_train: np.ndarray
    x_test: Tensor | None
    y_test: np.ndarray | None
    num_classes: int


def synthetic_clusters(spec: DatasetSpec, seed: int) -> Dataset:
    """Gaussian cluster classification task; train and test splits come
    from disjoint generator streams."""
    rng = Rng(seed)
    means = rng.child(0).normal((spec.num_classes, spec.dims), std=spec.spread)

    def draw(tag: int, n: int):
        r = rng.child(tag)
        y = r.integers(0, spec.num_classes, n).astype(np.int64)
        x = (means[y] + r.normal((n, spec.dims), std=spec.noise)).astype(DTYPE)
        return x, y

    x_tr, y_tr = draw(1, spec.train_size)
    x_te, y_te = draw(2, spec.test_size)
    return Dataset(x_tr, y_tr, x_te, y_te, spec.num_classes)


def _require_finite_features(x: Tensor, what: str) -> None:
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        raise DataError(f"{what}: sample {bad[0][0]} has a feature that is not finite")


def load_csv_dataset(path, num_classes: int | None = None) -> Dataset:
    """Comma-separated rows of features, label last. Each row is one flat
    sample, so CSV feeds only vector-stem models; a conv-stem model
    needs the raw format, which stores the sample shape. A missing file,
    a non-numeric field, ragged rows, a feature that is not finite in
    float32, a label that is not a whole number, or a file without
    samples raises DataError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data"; rejected below
            rows = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read csv dataset {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise DataError(f"csv dataset {path}: {exc}") from None
    if rows.shape[0] == 0 or rows.shape[1] < 2:
        raise DataError(f"csv dataset {path} needs rows of features and a label")
    labels = rows[:, -1]
    if not np.all(np.isfinite(labels) & (labels == np.floor(labels))):
        raise DataError(f"csv dataset {path} has a label that is not a whole number")
    with np.errstate(over="ignore"):  # a float32 overflow is rejected as inf
        x = rows[:, :-1].astype(DTYPE)
    _require_finite_features(x, f"csv dataset {path}")
    y = labels.astype(np.int64)
    classes = num_classes if num_classes else int(y.max()) + 1
    if y.min() < 0 or y.max() >= classes:
        raise DataError(f"csv labels outside [0, {classes})")
    return Dataset(x, y, None, None, classes)


def save_raw_dataset(path, x: Tensor, y: np.ndarray, num_classes: int) -> None:
    """Write the raw dataset container: magic, u32 sample count, sample
    rank and class count, u32 sample shape, int64 labels, then the
    float32 samples."""
    x = np.ascontiguousarray(x, dtype="<f4")
    dims = x.shape[1:]
    header = struct.pack(f"<III{len(dims)}I", x.shape[0], len(dims), num_classes, *dims)
    binary.write_container(path, _RAW_MAGIC, header, np.ascontiguousarray(y, dtype="<i8"), x)


def load_raw_dataset(path) -> Dataset:
    """Inverse of `save_raw_dataset`. A truncated, malformed or overlong
    file, a missing one, one with no samples, or a feature that is not
    finite raises DataError."""
    with binary.ContainerReader(path, _RAW_MAGIC, "raw dataset") as r:
        n, ndim, classes = r.unpack("<III", "header")
        dims = r.unpack(f"<{ndim}I", "shape")
        y = r.array("<i8", (n,), "labels").copy()
        x = r.array("<f4", (n, *dims), "samples")
    if n == 0:
        raise DataError("raw dataset holds no samples")
    if y.min() < 0 or y.max() >= classes:
        raise DataError(f"raw dataset labels outside [0, {classes})")
    x = x.copy()
    _require_finite_features(x, "raw dataset")
    return Dataset(x, y, None, None, classes)


def load_dataset(spec: DatasetSpec, seed: int) -> Dataset:
    if spec.format == "synthetic":
        return synthetic_clusters(spec, seed)
    if spec.format == "csv":
        return load_csv_dataset(spec.path, spec.num_classes)
    return load_raw_dataset(spec.path)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    seed: int = 0
    epochs: int = 50
    batch_size: int = 64
    out_dir: str = "runs/out"
    lr: float = 6e-3
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    cosine: bool = True
    teacher_source: str = "none"   # none | checkpoint | logits-cache
    teacher_path: str = ""

    def __post_init__(self):
        if self.teacher_source not in ("none", "checkpoint", "logits-cache"):
            raise ConfigError(
                f"teacher.source must be none|checkpoint|logits-cache, got {self.teacher_source!r}"
            )
        if self.teacher_source != "none" and not self.teacher_path:
            raise ConfigError(f"teacher.path is required for source {self.teacher_source!r}")
        if self.teacher_source == "none" and self.teacher_path:
            raise ConfigError("teacher.path is set, but teacher.source is 'none'")
        if self.epochs < 0:
            raise ConfigError("run.epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {self.seed}")


# Every INI key once, in effective.ini order: (section, key, dotted RunConfig
# field, must be positive). A key's type and default are its field's in the
# default RunConfig.
_CONFIG_KEYS = (
    ("run", "seed", "seed", False),
    ("run", "epochs", "epochs", False),
    ("run", "batch_size", "batch_size", True),
    ("run", "out", "out_dir", False),
    ("model", "depth", "model.depth", True),
    ("model", "embed_dim", "model.embed_dim", True),
    ("model", "heads", "model.heads", True),
    ("model", "timesteps", "model.timesteps", True),
    ("model", "tau", "model.tau", True),
    ("model", "v_threshold", "model.v_threshold", True),
    ("model", "hidden_ratio", "model.hidden_ratio", True),
    ("model", "num_classes", "model.num_classes", True),
    ("model", "weight_mode", "model.weight_mode", False),
    ("model", "topology", "model.topology", False),
    ("model", "dual_head", "model.dual_head", False),
    ("model", "classify_on", "model.classify_on", False),
    ("model", "ste_clip", "model.ste_clip", True),
    ("model", "surrogate", "model.surrogate.kind", False),
    ("model", "surrogate_width", "model.surrogate.width_or_alpha", True),
    ("stem", "kind", "model.stem.kind", False),
    ("stem", "in_features", "model.stem.in_features", True),
    ("stem", "tokens", "model.stem.tokens", True),
    ("stem", "in_channels", "model.stem.in_channels", True),
    ("stem", "image_size", "model.stem.image_size", True),
    ("stem", "patch_size", "model.stem.patch_size", True),
    ("optimizer", "lr", "lr", True),
    ("optimizer", "weight_decay", "weight_decay", False),
    ("optimizer", "clip_norm", "clip_norm", False),
    ("optimizer", "cosine", "cosine", False),
    ("dataset", "format", "dataset.format", False),
    ("dataset", "path", "dataset.path", False),
    ("dataset", "dims", "dataset.dims", True),
    ("dataset", "num_classes", "dataset.num_classes", True),
    ("dataset", "train_size", "dataset.train_size", True),
    ("dataset", "test_size", "dataset.test_size", True),
    ("dataset", "spread", "dataset.spread", True),
    ("dataset", "noise", "dataset.noise", True),
    ("teacher", "source", "teacher_source", False),
    ("teacher", "path", "teacher_path", False),
)


def _field(cfg, dotted: str):
    for name in dotted.split("."):
        cfg = getattr(cfg, name)
    return cfg


def _parse_value(raw: str, default, name: str, positive: bool):
    """`raw` as the type of `default`; every error names `name` (section.key)."""
    if isinstance(default, bool):
        word = raw.lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {word!r}")
    try:
        val = type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{name}: must be finite, got {raw!r}")
    if positive and val <= 0:
        raise ConfigError(f"{name}: must be positive, got {val}")
    return val


def _with_values(default, values: dict, prefix: str = ""):
    """`default` with `values` (keyed by dotted field) put in; each nested
    config is built once, before the config that holds it."""
    changes = {}
    for f in fields(default):
        dotted = prefix + f.name
        value = getattr(default, f.name)
        if is_dataclass(value):
            changes[f.name] = _with_values(value, values, dotted + ".")
        elif dotted in values:
            changes[f.name] = values[dotted]
    return replace(default, **changes)


def parse_config(path) -> RunConfig:
    """Parse an INI run config with full defaulting and field-level
    diagnostics (section.key named in every error). Values are literal:
    `%` is not interpolated. A missing or unreadable file, a malformed
    one, a section or key not in `_CONFIG_KEYS`, or a number that is not
    finite raises ConfigError."""
    # no header names the default section "", so [DEFAULT] is an unknown section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    known: dict[str, list[str]] = {}
    for section, key, _, _ in _CONFIG_KEYS:
        known.setdefault(section, []).append(key)
    for name in cp.sections():
        if name not in known:
            raise ConfigError(f"unknown config section [{name}]; known: {', '.join(known)}")
        unknown = sorted(set(cp[name]) - set(known[name]))
        if unknown:
            raise ConfigError(f"{name}.{unknown[0]}: unknown key; "
                              f"known: {', '.join(known[name])}")
    defaults = RunConfig()
    values = {}
    for section, key, dotted, positive in _CONFIG_KEYS:
        raw = cp.get(section, key, fallback=None)
        if raw is not None:
            values[dotted] = _parse_value(raw, _field(defaults, dotted), f"{section}.{key}",
                                          positive)
    return _with_values(defaults, values)


def write_effective_config(cfg: RunConfig, path) -> None:
    """Every key of `cfg`, defaults included, as the INI text `parse_config`
    reads back to an equal config."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, dotted, _ in _CONFIG_KEYS:
        value = _field(cfg, dotted)
        if isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, SurrogateKind):
            text = value.value
        else:
            text = str(value)  # a float's str is its repr
        sections.setdefault(section, {})[key] = text
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(sections)
    with open(path, "w") as fh:
        cp.write(fh)


# ---------------------------------------------------------------------------
# commands


def _require_classes(data: Dataset, classes: int) -> None:
    if data.num_classes != classes:
        raise DataError(f"dataset classes {data.num_classes} != model classes {classes}")


def _load_teacher(cfg: RunConfig, data: Dataset):
    if cfg.teacher_source == "none":
        return None
    if cfg.teacher_source == "checkpoint":
        teacher = load_checkpoint(cfg.teacher_path)
        if teacher.cfg.num_classes != cfg.model.num_classes:
            raise DataError(
                f"teacher classes {teacher.cfg.num_classes} != model classes {cfg.model.num_classes}"
            )
        return teacher
    cache = learn.TeacherLogitsCache.load(cfg.teacher_path)
    if cache.num_classes != cfg.model.num_classes:
        raise DataError(
            f"logits cache classes {cache.num_classes} != model classes {cfg.model.num_classes}"
        )
    want = learn.dataset_hash(data.x_train, data.y_train)
    if cache.data_hash != want:
        raise DataError("logits cache was built for a different dataset")
    if cache.num_samples != data.x_train.shape[0]:
        raise DataError(
            f"logits cache holds {cache.num_samples} samples, dataset has {data.x_train.shape[0]}"
        )
    return cache


def cmd_train(config_path, seed_override: int | None = None,
              out_override: str | None = None) -> int:
    cfg = parse_config(config_path)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    if out_override is not None:
        cfg = replace(cfg, out_dir=out_override)
    if cfg.teacher_source != "none" and not cfg.model.distills:
        raise ConfigError(
            f"teacher.source is {cfg.teacher_source!r}, but the model has no distillation head "
            f"(topology = {cfg.model.topology}, dual_head = {str(cfg.model.dual_head).lower()}), "
            f"so training would ignore the teacher; a teacher needs topology = reversible "
            f"and dual_head = true"
        )
    data = load_dataset(cfg.dataset, cfg.seed)
    _require_classes(data, cfg.model.num_classes)
    teacher = _load_teacher(cfg, data)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_effective_config(cfg, out / "effective.ini")
    model = SpikingTransformer(cfg.model, seed=cfg.seed)
    ckpt_path = out / "ckpt-last.bin"
    metrics_path, summary_path = out / "metrics.jsonl", out / "summary.jsonl"
    for stale in (metrics_path, summary_path):  # both are appended to below
        stale.unlink(missing_ok=True)
    save_checkpoint(model, ckpt_path)
    log.info("training for %d epochs on %d samples", cfg.epochs, data.x_train.shape[0])

    def on_epoch(m, em: learn.EpochMetrics):
        save_checkpoint(m, ckpt_path)
        metrics.write_records(metrics_path, [{
            "epoch": em.epoch, "ce_class": em.ce_class, "ce_distill": em.ce_distill,
            "global_loss": em.global_loss, "train_accuracy": em.accuracy,
        }])
        log.info("epoch %d: loss %.4f acc %.3f", em.epoch, em.global_loss, em.accuracy)

    history = learn.train_model(
        model, (data.x_train, data.y_train), epochs=cfg.epochs, rng=Rng(cfg.seed),
        teacher=teacher, lr=cfg.lr, weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size, clip_norm=cfg.clip_norm, cosine=cfg.cosine,
        on_epoch=on_epoch,
    )
    summary = {
        "epochs": cfg.epochs,
        "final_train_accuracy": learn.evaluate_accuracy(model, data.x_train, data.y_train),
    }
    if data.x_test is not None:
        summary["test_accuracy"] = learn.evaluate_accuracy(model, data.x_test, data.y_test)
    if history:
        summary["final_global_loss"] = history[-1].global_loss
    metrics.write_records(summary_path, [summary])
    print(f"trained {cfg.epochs} epochs; final train accuracy "
          f"{summary['final_train_accuracy']:.4f}; artifacts in {out}")
    return 0


def _records_out(out_path):
    """The JSONL file `--out` names, opened for appending before any work,
    so a path that cannot be written fails first; without one, a context
    that yields None."""
    return open(out_path, "a") if out_path is not None else contextlib.nullcontext()


def cmd_eval(checkpoint_path, dataset_spec: DatasetSpec, seed: int = 0,
             out_path=None) -> int:
    with _records_out(out_path) as out:
        model = load_checkpoint(checkpoint_path)
        data = load_dataset(dataset_spec, seed)
        _require_classes(data, model.cfg.num_classes)
        x = data.x_test if data.x_test is not None else data.x_train
        y = data.y_test if data.y_test is not None else data.y_train
        acc = learn.evaluate_accuracy(model, x, y)
        batch = x[: min(128, x.shape[0])]
        report = metrics.cost_report(model, batch)
        record = {"accuracy": acc, **report.record()}
        print(f"accuracy {acc:.4f}  sops {report.sops_g:.6f} G  "
              f"ns-ace {report.ns_ace_g:.6f} G  size {report.model_size_mb:.6f} MB")
        if out is not None:
            metrics.write_records(out, [record])
    return 0


def cmd_inspect(checkpoint_path, dataset_spec: DatasetSpec, seed: int = 0,
                out_path=None) -> int:
    with _records_out(out_path) as out:
        model = load_checkpoint(checkpoint_path)
        data = load_dataset(dataset_spec, seed)
        batch = data.x_train[: min(64, data.x_train.shape[0])]
        report = metrics.representation_report(model, batch)
        for rec in report.records():
            print(f"{rec['block']:>10}  value_set_size {rec['value_set_size']:.1f}  "
                  f"entropy {rec['entropy_bits']:.3f} bits")
        if out is not None:
            metrics.write_records(out, report.records())
    return 0


def cmd_pack_teacher_logits(checkpoint_path, dataset_spec: DatasetSpec,
                            seed: int, out_path) -> int:
    teacher = load_checkpoint(checkpoint_path)
    data = load_dataset(dataset_spec, seed)
    _require_classes(data, teacher.cfg.num_classes)
    # opened before the teacher runs, so a path that cannot be written fails
    # first; opened to append, so a teacher that fails leaves the file as it was
    with open(out_path, "ab") as out:
        cache = learn.build_logits_cache(teacher, data.x_train, data.y_train)
        out.truncate(0)
        cache.save(out)
    print(f"packed {cache.num_samples} x {cache.num_classes} teacher logits to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _dataset_from_args(args) -> tuple[DatasetSpec, int]:
    """Dataset spec plus the seed generating it; --seed overrides the
    config's run seed, which otherwise travels with the dataset section."""
    if args.config is not None:
        cfg = parse_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        return cfg.dataset, seed
    return DatasetSpec(format=args.format or "synthetic", path=args.dataset or ""), (args.seed or 0)


def _seed(text: str) -> int:
    """A `--seed` value: a whole number >= 0, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikebit",
                                     description="binary event-driven spiking transformer engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=_seed, default=None)
    p_train.add_argument("--out", default=None)

    for name in ("eval", "inspect", "pack-teacher-logits"):
        p = sub.add_parser(name)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--config", default=None, help="read the dataset section from this config")
        p.add_argument("--dataset", default=None, help="dataset file path")
        p.add_argument("--format", default=None, choices=DATASET_FORMATS)
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--out", required=name == "pack-teacher-logits", default=None)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SPIKEBIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "train" and args.config is not None and (
            args.dataset is not None or args.format is not None):
        parser.error("--config excludes --dataset and --format; "
                     "the config's [dataset] section names the data")
    try:
        if args.command == "train":
            return cmd_train(args.config, args.seed, args.out)
        command = {"eval": cmd_eval, "inspect": cmd_inspect,
                   "pack-teacher-logits": cmd_pack_teacher_logits}[args.command]
        spec, seed = _dataset_from_args(args)
        return command(args.checkpoint, spec, seed, args.out)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpikebitError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
