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
import logging
import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import binary, learn, metrics
from .errors import ConfigError, DataError, SpikebitError, TrainingError
from .model import (
    ModelConfig,
    SpikingTransformer,
    StemSpec,
    load_checkpoint,
    save_checkpoint,
)
from .neuron import SurrogateKind, SurrogateSpec
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
    x = np.asarray(x, dtype="<f4")
    y = np.asarray(y, dtype="<i8")
    with open(path, "wb") as fh:
        fh.write(_RAW_MAGIC)
        fh.write(struct.pack("<III", x.shape[0], x.ndim - 1, num_classes))
        fh.write(struct.pack(f"<{x.ndim - 1}I", *x.shape[1:]))
        fh.write(y.tobytes())
        fh.write(x.tobytes())


def load_raw_dataset(path) -> Dataset:
    """Inverse of `save_raw_dataset`. A truncated, malformed or overlong
    file, a missing one, one with no samples, or a feature that is not
    finite raises DataError."""
    read = binary.read_exact  # raises DataError on a short read
    with binary.open_input(path, "raw dataset") as fh:
        magic = fh.read(len(_RAW_MAGIC))
        if magic != _RAW_MAGIC:
            raise DataError(f"bad raw dataset magic: {magic!r}")
        n, ndim, classes = struct.unpack("<III", read(fh, 12, "raw dataset header"))
        dims = struct.unpack(f"<{ndim}I", read(fh, 4 * ndim, "raw dataset shape"))
        y = np.frombuffer(read(fh, 8 * n, "raw dataset labels"), dtype="<i8").copy()
        size = n * math.prod(dims)
        x = np.frombuffer(read(fh, 4 * size, "raw dataset samples"), dtype="<f4")
        if fh.read(1):
            raise DataError("raw dataset has trailing bytes after its samples")
    if n == 0:
        raise DataError("raw dataset holds no samples")
    if y.min() < 0 or y.max() >= classes:
        raise DataError(f"raw dataset labels outside [0, {classes})")
    x = x.reshape((n,) + dims).copy()
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
        if self.epochs < 0:
            raise ConfigError("run.epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {self.seed}")


def _getbool(sec, key, default):
    raw = sec.get(key, None)
    if raw is None:
        return default
    raw = raw.strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{sec.name}.{key}: expected a boolean, got {raw!r}")


def _getnum(sec, key, default, cast, positive=False):
    raw = sec.get(key, None)
    if raw is None:
        return default
    try:
        val = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{sec.name}.{key}: {exc}") from exc
    if cast is float and not math.isfinite(val):
        raise ConfigError(f"{sec.name}.{key}: must be finite, got {raw.strip()!r}")
    if positive and val <= 0:
        raise ConfigError(f"{sec.name}.{key}: must be positive, got {val}")
    return val


def parse_config(path) -> RunConfig:
    """Parse an INI run config with full defaulting and field-level
    diagnostics (section.key named in every error). The known sections
    and keys are those `write_effective_config` writes. A missing or
    unreadable file, a malformed one, an unknown section or key, or a
    number that is not finite raises ConfigError."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    known = _effective_config(RunConfig())
    for name in cp.sections():
        if name not in known:
            raise ConfigError(f"unknown config section [{name}]; "
                              f"known: {', '.join(known.sections())}")
        unknown = sorted(set(cp[name]) - set(known[name]))
        if unknown:
            raise ConfigError(f"{name}.{unknown[0]}: unknown key; "
                              f"known: {', '.join(known[name])}")
    for name in known.sections():
        if name not in cp:
            cp.add_section(name)
    run, mdl, stm, opt, dst, tch = (cp[s] for s in
                                    ("run", "model", "stem", "optimizer", "dataset", "teacher"))
    stem = StemSpec(
        kind=stm.get("kind", "vector"),
        in_features=_getnum(stm, "in_features", 64, int, positive=True),
        tokens=_getnum(stm, "tokens", 4, int, positive=True),
        in_channels=_getnum(stm, "in_channels", 3, int, positive=True),
        image_size=_getnum(stm, "image_size", 32, int, positive=True),
        patch_size=_getnum(stm, "patch_size", 4, int, positive=True),
    )
    sur_kind = mdl.get("surrogate", "sigmoid")
    try:
        surrogate = SurrogateSpec(
            kind=SurrogateKind(sur_kind),
            width_or_alpha=_getnum(mdl, "surrogate_width", 4.0, float, positive=True),
        )
    except ValueError as exc:
        raise ConfigError(f"model.surrogate: {exc}") from exc
    model_cfg = ModelConfig(
        depth=_getnum(mdl, "depth", 2, int, positive=True),
        embed_dim=_getnum(mdl, "embed_dim", 64, int, positive=True),
        heads=_getnum(mdl, "heads", 2, int, positive=True),
        timesteps=_getnum(mdl, "timesteps", 2, int, positive=True),
        tau=_getnum(mdl, "tau", 0.5, float, positive=True),
        v_threshold=_getnum(mdl, "v_threshold", 1.0, float, positive=True),
        hidden_ratio=_getnum(mdl, "hidden_ratio", 4.0, float, positive=True),
        num_classes=_getnum(mdl, "num_classes", 10, int, positive=True),
        stem=stem,
        surrogate=surrogate,
        weight_mode=mdl.get("weight_mode", "binary"),
        topology=mdl.get("topology", "reversible"),
        dual_head=_getbool(mdl, "dual_head", True),
        classify_on=mdl.get("classify_on", "x0"),
        ste_clip=_getnum(mdl, "ste_clip", 1.0, float, positive=True),
    )
    dataset = DatasetSpec(
        format=dst.get("format", "synthetic"),
        path=dst.get("path", ""),
        dims=_getnum(dst, "dims", 64, int, positive=True),
        num_classes=_getnum(dst, "num_classes", 10, int, positive=True),
        train_size=_getnum(dst, "train_size", 512, int, positive=True),
        test_size=_getnum(dst, "test_size", 256, int, positive=True),
        spread=_getnum(dst, "spread", 1.0, float, positive=True),
        noise=_getnum(dst, "noise", 0.85, float, positive=True),
    )
    return RunConfig(
        model=model_cfg,
        dataset=dataset,
        seed=_getnum(run, "seed", 0, int),
        epochs=_getnum(run, "epochs", 50, int),
        batch_size=_getnum(run, "batch_size", 64, int, positive=True),
        out_dir=run.get("out", "runs/out"),
        lr=_getnum(opt, "lr", 6e-3, float, positive=True),
        weight_decay=_getnum(opt, "weight_decay", 0.0, float),
        clip_norm=_getnum(opt, "clip_norm", 5.0, float),
        cosine=_getbool(opt, "cosine", True),
        teacher_source=tch.get("source", "none"),
        teacher_path=tch.get("path", ""),
    )


def _effective_config(cfg: RunConfig) -> configparser.ConfigParser:
    """Every section and key of `cfg` as an INI config, defaults included."""
    cp = configparser.ConfigParser()
    m, s = cfg.model, cfg.model.stem
    cp["run"] = {
        "seed": str(cfg.seed), "epochs": str(cfg.epochs),
        "batch_size": str(cfg.batch_size), "out": cfg.out_dir,
    }
    cp["model"] = {
        "depth": str(m.depth), "embed_dim": str(m.embed_dim), "heads": str(m.heads),
        "timesteps": str(m.timesteps), "tau": repr(m.tau),
        "v_threshold": repr(m.v_threshold), "hidden_ratio": repr(m.hidden_ratio),
        "num_classes": str(m.num_classes), "weight_mode": m.weight_mode,
        "topology": m.topology, "dual_head": str(m.dual_head).lower(),
        "classify_on": m.classify_on, "ste_clip": repr(m.ste_clip),
        "surrogate": m.surrogate.kind.value,
        "surrogate_width": repr(m.surrogate.width_or_alpha),
    }
    cp["stem"] = {
        "kind": s.kind, "in_features": str(s.in_features), "tokens": str(s.tokens),
        "in_channels": str(s.in_channels), "image_size": str(s.image_size),
        "patch_size": str(s.patch_size),
    }
    cp["optimizer"] = {
        "lr": repr(cfg.lr), "weight_decay": repr(cfg.weight_decay),
        "clip_norm": repr(cfg.clip_norm), "cosine": str(cfg.cosine).lower(),
    }
    d = cfg.dataset
    cp["dataset"] = {
        "format": d.format, "path": d.path, "dims": str(d.dims),
        "num_classes": str(d.num_classes), "train_size": str(d.train_size),
        "test_size": str(d.test_size), "spread": repr(d.spread), "noise": repr(d.noise),
    }
    cp["teacher"] = {"source": cfg.teacher_source, "path": cfg.teacher_path}
    return cp


def write_effective_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        _effective_config(cfg).write(fh)


# ---------------------------------------------------------------------------
# commands


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
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_effective_config(cfg, out / "effective.ini")

    data = load_dataset(cfg.dataset, cfg.seed)
    teacher = _load_teacher(cfg, data)
    model = SpikingTransformer(cfg.model, seed=cfg.seed)
    ckpt_path = out / "ckpt-last.bin"
    metrics_path = out / "metrics.jsonl"
    if metrics_path.exists():
        metrics_path.unlink()
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
    metrics.write_records(out / "summary.jsonl", [summary])
    print(f"trained {cfg.epochs} epochs; final train accuracy "
          f"{summary['final_train_accuracy']:.4f}; artifacts in {out}")
    return 0


def cmd_eval(checkpoint_path, dataset_spec: DatasetSpec, seed: int = 0,
             out_path=None) -> int:
    model = load_checkpoint(checkpoint_path)
    data = load_dataset(dataset_spec, seed)
    if data.num_classes != model.cfg.num_classes:
        raise DataError(
            f"dataset classes {data.num_classes} != model classes {model.cfg.num_classes}"
        )
    x = data.x_test if data.x_test is not None else data.x_train
    y = data.y_test if data.y_test is not None else data.y_train
    acc = learn.evaluate_accuracy(model, x, y)
    batch = x[: min(128, x.shape[0])]
    report = metrics.cost_report(model, batch)
    record = {"accuracy": acc, **report.record()}
    print(f"accuracy {acc:.4f}  sops {report.sops_g:.6f} G  "
          f"ns-ace {report.ns_ace_g:.6f} G  size {report.model_size_mb:.6f} MB")
    if out_path is not None:
        metrics.write_records(out_path, [record])
    return 0


def cmd_inspect(checkpoint_path, dataset_spec: DatasetSpec, seed: int = 0,
                out_path=None) -> int:
    model = load_checkpoint(checkpoint_path)
    data = load_dataset(dataset_spec, seed)
    batch = data.x_train[: min(64, data.x_train.shape[0])]
    report = metrics.representation_report(model, batch)
    for rec in report.records():
        print(f"{rec['block']:>10}  value_set_size {rec['value_set_size']:.1f}  "
              f"entropy {rec['entropy_bits']:.3f} bits")
    if out_path is not None:
        metrics.write_records(out_path, report.records())
    return 0


def cmd_pack_teacher_logits(checkpoint_path, dataset_spec: DatasetSpec,
                            seed: int, out_path) -> int:
    teacher = load_checkpoint(checkpoint_path)
    data = load_dataset(dataset_spec, seed)
    cache = learn.build_logits_cache(teacher, data.x_train, data.y_train)
    cache.save(out_path)
    print(f"packed {cache.num_samples} x {cache.num_classes} teacher logits to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _dataset_from_args(args) -> tuple[DatasetSpec, int]:
    """Dataset spec plus the seed generating it; --seed overrides the
    config's run seed, which otherwise travels with the dataset section."""
    if args.config:
        cfg = parse_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        return cfg.dataset, seed
    return DatasetSpec(format=args.format, path=args.dataset or ""), (args.seed or 0)


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

    for name in ("eval", "inspect"):
        p = sub.add_parser(name)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--config", default=None, help="read the dataset section from this config")
        p.add_argument("--dataset", default=None, help="dataset file path")
        p.add_argument("--format", default="synthetic", choices=DATASET_FORMATS)
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--out", default=None)

    p_pack = sub.add_parser("pack-teacher-logits")
    p_pack.add_argument("--checkpoint", required=True)
    p_pack.add_argument("--config", default=None)
    p_pack.add_argument("--dataset", default=None)
    p_pack.add_argument("--format", default="synthetic", choices=DATASET_FORMATS)
    p_pack.add_argument("--seed", type=_seed, default=None)
    p_pack.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SPIKEBIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.seed, args.out)
        if args.command == "eval":
            spec, seed = _dataset_from_args(args)
            return cmd_eval(args.checkpoint, spec, seed, args.out)
        if args.command == "inspect":
            spec, seed = _dataset_from_args(args)
            return cmd_inspect(args.checkpoint, spec, seed, args.out)
        if args.command == "pack-teacher-logits":
            spec, seed = _dataset_from_args(args)
            return cmd_pack_teacher_logits(args.checkpoint, spec, seed, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpikebitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
