"""The benchmark's workloads: inputs, set-up, measured phase, memory pass
and output checks, all through spikebit's public API.

Every workload draws the synthetic Gaussian-cluster data of `spikebit
train` from the workload seed. Inputs that take a training run to make
(the teacher's logits cache, the eval checkpoint) are prepared once per
seed and program version under `.work/cache/` and loaded in set-up, as a
user loads them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from spikebit import cli, learn, metrics, model
from spikebit.errors import SpikebitError
from spikebit.numeric import Rng

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
WORK = HERE / ".work"

SETUP_REPEATS = 101  # set-up runs per run; setup_s is their median
SETUP_GAP_S = 0.05   # idle time before each timed set-up
MEMORY_STEPS = 2    # training steps in a memory pass; eval passes score one batch
EVAL_BATCH = 128    # as `spikebit eval` uses
CHECK_SAMPLES = 32  # held-out samples behind the eval logits digest


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    train: bool
    model_seed: int = 0      # added to the workload seed
    rng_seed: int = 0        # added to the workload seed
    teacher: bool = False
    learns: bool = False     # trains long enough to beat chance on held-out data
    memory_depths: tuple = (1, 2)  # depths of the per-block memory slope


# train_toy's seed offsets are criterion 09's: workload seed s reproduces
# its CIE student for seed s.
WORKLOADS = {
    "train_toy": Workload("train_toy", "train_toy.ini", train=True, model_seed=300,
                          rng_seed=400, teacher=True, learns=True, memory_depths=(1, 2)),
    "train_deep": Workload("train_deep", "train_deep.ini", train=True, memory_depths=(2, 8)),
    "eval_wide": Workload("eval_wide", "eval_wide.ini", train=False, memory_depths=(2, 4)),
}


class Deadline(Exception):
    """Raised from the epoch hook to cut an extra unit at the time limit."""


@functools.cache
def code_digest() -> str:
    """Digest of the program and benchmark sources as this process first
    read them: prepared inputs and recorded fingerprints are only reused
    for the same code."""
    root = HERE.parent
    h = hashlib.blake2b(digest_size=8)
    files = sorted((root / "src" / "spikebit").glob("*.py"))
    files += sorted(HERE.glob("*.py")) + sorted(CONFIGS.glob("*.ini"))
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _atomic_write(path: Path, write) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    write(tmp)
    os.replace(tmp, path)


def prepare(wl: Workload, seed: int) -> Path:
    """Make the seed's teacher logits cache or eval checkpoint once."""
    prep = WORK / "cache" / code_digest() / f"seed{seed}"
    prep.mkdir(parents=True, exist_ok=True)
    if wl.teacher:
        path = prep / "teacher-logits.bin"
        if not path.exists():
            cfg = cli.parse_config(CONFIGS / "teacher.ini")
            data = cli.load_dataset(cfg.dataset, seed)
            teacher = model.SpikingTransformer(cfg.model, seed=100 + seed)
            learn.train_model(teacher, (data.x_train, data.y_train), epochs=cfg.epochs,
                              rng=Rng(200 + seed), lr=cfg.lr, batch_size=cfg.batch_size,
                              clip_norm=cfg.clip_norm, cosine=cfg.cosine,
                              weight_decay=cfg.weight_decay)
            cache = learn.build_logits_cache(teacher, data.x_train, data.y_train)
            _atomic_write(path, cache.save)
    if not wl.train:
        path = prep / "eval-wide.ckpt"
        if not path.exists():
            cfg = cli.parse_config(CONFIGS / wl.config)
            data = cli.load_dataset(cfg.dataset, seed)
            net = model.SpikingTransformer(cfg.model, seed=wl.model_seed + seed)
            net.calibrate(data.x_train[:EVAL_BATCH])
            _atomic_write(path, lambda p: model.save_checkpoint(net, p))
    return prep


@dataclass
class Setup:
    cfg: cli.RunConfig
    data: cli.Dataset
    teacher: learn.TeacherLogitsCache | None
    net: model.SpikingTransformer


def set_up(wl: Workload, seed: int, prep: Path, depth: int | None = None) -> Setup:
    """Config, data, teacher cache or checkpoint, and model: what a user's
    `spikebit train` or `spikebit eval` does before its first step. With
    `depth`, a fresh model of that depth replaces the checkpoint."""
    cfg = replace(cli.parse_config(CONFIGS / wl.config), seed=seed)
    if depth is not None:
        cfg = replace(cfg, model=replace(cfg.model, depth=depth))
    data = cli.load_dataset(cfg.dataset, seed)
    teacher = None
    if wl.teacher:
        teacher = learn.TeacherLogitsCache.load(prep / cfg.teacher_path)
        if teacher.data_hash != learn.dataset_hash(data.x_train, data.y_train):
            raise SpikebitError("logits cache was built for a different dataset")
    if wl.train or depth is not None:
        net = model.SpikingTransformer(cfg.model, seed=wl.model_seed + seed)
    else:
        net = model.load_checkpoint(prep / "eval-wide.ckpt")
    return Setup(cfg, data, teacher, net)


def time_setup(wl: Workload, seed: int, prep: Path) -> list[float]:
    """Set-up times of SETUP_REPEATS set-ups, each after a short idle gap,
    so that each starts from cold caches as a user's single set-up does;
    back-to-back repeats run hot. On a 2-vCPU VM the gap also narrowed the
    quartile spread of train_toy's setup_s over ten seeds from 0.30 to
    between 0.05 and 0.10."""
    times = []
    for _ in range(SETUP_REPEATS):
        time.sleep(SETUP_GAP_S)
        t0 = time.perf_counter()
        set_up(wl, seed, prep)
        times.append(time.perf_counter() - t0)
    return times


class Meter:
    """Times the measured segments of a phase: epochs, or eval units.
    With a tracer, segments alternate between traced and untraced, so the
    tracing overhead is measured under the same machine conditions; spans
    are recorded in traced segments only."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.segments: list[tuple[float, int, bool]] = []  # (seconds, samples, traced)
        self._traced = tracer is not None
        self._t = 0.0

    def _trace(self, on: bool) -> None:
        if self.tracer:
            self.tracer.active = self.tracer.stepping = on

    def begin(self) -> None:
        self._trace(self._traced)
        self._t = time.perf_counter()

    def lap(self, samples: int) -> None:
        t = time.perf_counter()
        self.segments.append((t - self._t, samples, self._traced))
        self._t = t
        if self.tracer:
            self._traced = not self._traced
            self._trace(self._traced)

    def end(self) -> None:
        self._trace(False)

    def _select(self, traced: bool) -> list[tuple[float, int]]:
        return [(s, n) for s, n, tr in self.segments if tr == traced]

    def wall_s(self, traced: bool) -> float:
        return sum(s for s, _ in self._select(traced))

    def rate(self, traced: bool) -> float:
        """Samples over seconds, summed over the traced or untraced
        segments; 0 when there are none."""
        chosen = self._select(traced)
        seconds = sum(s for s, _ in chosen)
        return sum(n for _, n in chosen) / seconds if seconds else 0.0

    def has_both(self) -> bool:
        """Whether there is an untraced segment and, when tracing, a traced
        one: the tracing overhead compares the two."""
        kinds = {traced for *_, traced in self.segments}
        return False in kinds and (self.tracer is None or True in kinds)


@dataclass
class Phase:
    meter: Meter
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    heldout_accuracy: float | None = None
    units: int = 0
    net: model.SpikingTransformer | None = None  # the last unit's model


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _train_unit(wl: Workload, st: Setup, out: Path, meter: Meter, phase: Phase,
                deadline: float | None) -> model.SpikingTransformer | None:
    """One `spikebit train` run from a fresh model: cfg.epochs epochs of
    the cosine schedule, with its per-epoch checkpoint and metrics writes.
    Returns the trained model, or None when the unit was cut or failed."""
    cfg = st.cfg
    net = model.SpikingTransformer(cfg.model, seed=wl.model_seed + cfg.seed)
    n = st.data.x_train.shape[0]
    ckpt_path, metrics_path = out / "ckpt-last.bin", out / "metrics.jsonl"
    metrics_path.unlink(missing_ok=True)

    def on_epoch(m, em: learn.EpochMetrics):
        model.save_checkpoint(m, ckpt_path)
        metrics.write_records(metrics_path, [{
            "epoch": em.epoch, "ce_class": em.ce_class, "ce_distill": em.ce_distill,
            "global_loss": em.global_loss, "train_accuracy": em.accuracy,
        }])
        meter.lap(n)
        if deadline is not None and time.perf_counter() >= deadline:
            raise Deadline

    history = None
    meter.begin()
    try:
        history = learn.train_model(
            net, (st.data.x_train, st.data.y_train), epochs=cfg.epochs,
            rng=Rng(wl.rng_seed + cfg.seed), teacher=st.teacher, lr=cfg.lr,
            weight_decay=cfg.weight_decay, batch_size=cfg.batch_size,
            clip_norm=cfg.clip_norm, cosine=cfg.cosine, on_epoch=on_epoch,
        )
    except Deadline:
        pass
    except SpikebitError as exc:
        phase.failed += 1
        phase.attempted += 1
        phase.errors.append(f"training step failed: {exc}")
    finally:
        meter.end()
    # every optimizer step bumps each parameter's version once
    phase.attempted += net.head_cls.weight.version
    if history is None:
        return None
    losses = [em.global_loss for em in history]
    if not all(math.isfinite(v) for v in losses):
        phase.errors.append(f"non-finite epoch loss: {losses}")
    elif losses[-1] >= losses[0]:
        phase.errors.append(f"loss did not fall: {losses[0]:.4f} -> {losses[-1]:.4f}")
    phase.fingerprints.append(_digest(ckpt_path.read_bytes()))
    phase.units += 1
    return net


def _eval_unit(st: Setup, meter: Meter, phase: Phase) -> bool:
    """The `spikebit eval` call sequence as one measured segment: held-out
    accuracy at batch 128, then the cost report on one batch. A traced
    segment therefore covers both calls. False when a call failed."""
    x, y = st.data.x_test, st.data.y_test
    batch = x[:EVAL_BATCH]
    meter.begin()
    try:
        phase.attempted += math.ceil(x.shape[0] / EVAL_BATCH)
        accuracy = learn.evaluate_accuracy(st.net, x, y, batch_size=EVAL_BATCH)
        phase.attempted += 1
        report = metrics.cost_report(st.net, batch)
        meter.lap(x.shape[0] + batch.shape[0])
    except SpikebitError as exc:
        phase.failed += 1
        phase.errors.append(f"eval call failed: {exc}")
        return False
    finally:
        meter.end()
    phase.fingerprints.append(f"{accuracy!r}/{report.sops_g!r}")
    phase.heldout_accuracy = accuracy
    phase.units += 1
    return True


def run_phase(wl: Workload, st: Setup, seconds: float, meter: Meter, out: Path) -> Phase:
    """Run whole units until `seconds` have passed and the meter has both
    kinds of segment it needs. The first unit always completes. Later
    training units are cut at the limit, at an epoch boundary, and add
    timings only; an eval unit is never cut.

    The eval model is warmed up first with one untraced forward on one
    sample, which fills its weight-pack caches, so every measured segment
    sees the steady state of `spikebit eval` rather than the first batch's
    re-binarization."""
    phase = Phase(meter)
    if not wl.train:
        st.net.forward(st.data.x_test[:1], training=False)
    start = time.perf_counter()
    deadline = None
    while True:
        if wl.train:
            net = _train_unit(wl, st, out, meter, phase, deadline)
            done = net is not None
            if done:
                phase.net = net
                if phase.units == 1:
                    phase.heldout_accuracy = learn.evaluate_accuracy(
                        net, st.data.x_test, st.data.y_test, batch_size=EVAL_BATCH)
        else:
            done = _eval_unit(st, meter, phase)
        if phase.failed or not done or (
                time.perf_counter() - start >= seconds and meter.has_both()):
            break
        deadline = start + seconds
    if wl.learns and phase.heldout_accuracy is not None:
        chance = 1.0 / st.cfg.model.num_classes
        if phase.heldout_accuracy <= chance:
            phase.errors.append(f"held-out accuracy {phase.heldout_accuracy} is not above chance")
    if not phase.units:
        phase.errors.append("no unit completed")
    return phase


def eval_logits_digest(st: Setup) -> tuple[str, list[str]]:
    """Digest of the eval model's logits on a fixed held-out batch, taken
    twice: two passes over the same batch must agree bit for bit."""
    batch = st.data.x_test[:CHECK_SAMPLES]
    first, _ = st.net.forward(batch, training=False)
    second, _ = st.net.forward(batch, training=False)
    errors = [] if np.array_equal(first, second) else ["two eval passes gave different logits"]
    return _digest(np.ascontiguousarray(first, dtype="<f4").tobytes()), errors


def check_fingerprint(wl: Workload, seed: int, digest: str) -> list[str]:
    """Compare with the digest an earlier run of the same code and seed
    recorded; record it if this is the first."""
    path = WORK / "cache" / code_digest() / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{wl.name}/seed{seed}"
    if key in known:
        if known[key] != digest:
            return [f"numerics fingerprint {digest} differs from an earlier run's {known[key]}"]
        return []
    known[key] = digest
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, lambda p: p.write_text(json.dumps(known, indent=1, sort_keys=True)))
    return []


def peak_mib(wl: Workload, seed: int, prep: Path, out: Path, depth: int | None = None) -> float:
    """tracemalloc peak over set-up plus MEMORY_STEPS training steps, or
    one eval batch."""
    tracemalloc.start()
    try:
        st = set_up(wl, seed, prep, depth)
        cfg = st.cfg
        if wl.train:
            n = MEMORY_STEPS * cfg.batch_size
            learn.train_model(
                st.net, (st.data.x_train[:n], st.data.y_train[:n]), epochs=1,
                rng=Rng(wl.rng_seed + seed), teacher=st.teacher, lr=cfg.lr,
                batch_size=cfg.batch_size, clip_norm=cfg.clip_norm, cosine=cfg.cosine,
                on_epoch=lambda m, em: model.save_checkpoint(m, out / "memory-pass.ckpt"),
            )
        else:
            learn.evaluate_accuracy(st.net, st.data.x_test[:EVAL_BATCH],
                                    st.data.y_test[:EVAL_BATCH], batch_size=EVAL_BATCH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
