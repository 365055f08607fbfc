"""Training: cross-entropy, the halved dual-head distillation loss, the
hard-decision teacher (live model or a serialized logits cache), AdamW
with a cosine schedule, the epoch loop, and the finite-difference
gradient checker.

The distillation target is the teacher's hard label (argmax of its
logits, ties to the lowest index); no soft targets or temperature are
involved. The global objective averages the classification and
distillation cross-entropies:

    L_global = (CE(y_hat, y) + CE(y_d_hat, y_teacher)) / 2

and because each head reads its own stream, the distillation term sends
exactly zero gradient into the classification head and vice versa.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import binary
from .errors import ConfigError, DataError, TrainingError
from .model import Param, SpikingTransformer
from .numeric import DTYPE, Rng, Tensor, finite_diff_grad

_CACHE_MAGIC = b"SBLC\x01\x00"


def _cache_record(classes: int) -> np.dtype:
    """One logits-cache record: u32 sample id, then the float32 logits."""
    return np.dtype([("id", "<u4"), ("logits", "<f4", (classes,))])


def cross_entropy(logits: Tensor, target: int) -> float:
    """-log softmax(logits)[target]: `batch_cross_entropy` on one row."""
    row = np.asarray(logits, dtype=np.float64).reshape(1, -1)
    return batch_cross_entropy(row, [target])[0]


def batch_cross_entropy(logits: Tensor, targets: Tensor) -> tuple[float, Tensor]:
    """Mean cross-entropy over a batch and its gradient wrt the logits."""
    logits64 = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    B, C = logits64.shape
    if targets.min() < 0 or targets.max() >= C:
        raise IndexError(f"target out of range for {C} classes")
    z = logits64 - logits64.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(B), targets].mean())
    grad = np.exp(logp)
    grad[np.arange(B), targets] -= 1.0
    return loss, (grad / B).astype(logits.dtype if logits.dtype.kind == "f" else DTYPE)


@dataclass(frozen=True)
class TeacherOutput:
    """Teacher logits and the derived hard decisions (argmax, lowest
    index on ties)."""

    logits: Tensor
    hard_label: Tensor

    @classmethod
    def from_logits(cls, logits: Tensor) -> "TeacherOutput":
        logits = np.atleast_2d(np.asarray(logits))
        return cls(logits=logits, hard_label=logits.argmax(axis=1))


@dataclass(frozen=True)
class LossReport:
    """The CIE loss of one batch and its gradients wrt each head's logits."""

    ce_class: float
    ce_distill: float
    global_loss: float
    g_class: Tensor
    g_distill: Tensor


def global_loss(y_hat: Tensor, y: Tensor, y_d_hat: Tensor, teacher: TeacherOutput) -> LossReport:
    """The halved sum of classification CE and hard-label distillation CE,
    and the gradients of that halved sum."""
    y_hat = np.atleast_2d(y_hat)
    y_d_hat = np.atleast_2d(y_d_hat)
    if y_hat.shape[1] != y_d_hat.shape[1] or y_hat.shape[1] != teacher.logits.shape[1]:
        raise ConfigError("class counts disagree between heads and teacher")
    ce_c, g_c = batch_cross_entropy(y_hat, np.atleast_1d(y))
    ce_d, g_d = batch_cross_entropy(y_d_hat, teacher.hard_label)
    return LossReport(ce_class=ce_c, ce_distill=ce_d, global_loss=(ce_c + ce_d) / 2.0,
                      g_class=0.5 * g_c, g_distill=0.5 * g_d)


# ---------------------------------------------------------------------------
# teacher sources


def dataset_hash(x: Tensor, y: Tensor) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(np.ascontiguousarray(x, dtype="<f4").tobytes())
    h.update(np.ascontiguousarray(y, dtype="<i8").tobytes())
    return int.from_bytes(h.digest(), "little")


class TeacherLogitsCache:
    """Sample-id-keyed teacher logits, so distillation can run without the
    teacher model in memory."""

    def __init__(self, logits: Tensor, data_hash: int):
        self.logits = np.asarray(logits, dtype=DTYPE)
        self.data_hash = data_hash

    @property
    def num_samples(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def predict(self, ids: Tensor) -> TeacherOutput:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min() < 0 or ids.max() >= self.num_samples:
            raise DataError("sample id outside the cached range")
        return TeacherOutput.from_logits(self.logits[ids])

    def save(self, path) -> None:
        """Write the cache to the file at `path`, or to `path` itself when
        it is an open binary file: magic, u32 n, u32 c, u64 dataset hash,
        then n records of (u32 id, c float32 logits)."""
        records = np.empty(self.num_samples, dtype=_cache_record(self.num_classes))
        records["id"] = np.arange(self.num_samples)
        records["logits"] = self.logits
        binary.write_container(path, _CACHE_MAGIC, struct.pack(
            "<IIQ", self.num_samples, self.num_classes, self.data_hash), records)

    @classmethod
    def load(cls, path) -> "TeacherLogitsCache":
        """Inverse of `save`, with ids 0..n-1 in order. No records, a short
        or long payload, a logit that is not finite, or a missing file
        raises DataError."""
        with binary.ContainerReader(path, _CACHE_MAGIC, "logits cache") as r:
            n, c, data_hash = r.unpack("<IIQ", "header")
            if n == 0:
                raise DataError("logits cache holds no records")
            # read whole before numpy builds a record of c classes, which
            # it refuses (ValueError) once the record's size does not fit a C int
            raw = r.read(n * (4 + 4 * c), "payload")
        records = np.frombuffer(raw, dtype=_cache_record(c))
        bad = np.flatnonzero(records["id"] != np.arange(n))
        if bad.size:
            i = int(bad[0])
            raise DataError(
                f"logits cache out of order: expected id {i}, got {int(records['id'][i])}"
            )
        bad = np.argwhere(~np.isfinite(records["logits"]))
        if bad.size:
            raise DataError(f"logits cache: sample {bad[0][0]} has a logit that is not finite")
        return cls(records["logits"].copy(), data_hash)


def build_logits_cache(teacher: SpikingTransformer, x: Tensor, y: Tensor,
                       batch_size: int = 128) -> TeacherLogitsCache:
    n = x.shape[0]
    logits = np.empty((n, teacher.cfg.num_classes), dtype=DTYPE)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        out, _ = teacher.forward(x[start:stop], training=False)
        logits[start:stop] = out
    return TeacherLogitsCache(logits, dataset_hash(x, y))


def teacher_predict(teacher, batch_x: Tensor, ids: Tensor | None = None) -> TeacherOutput:
    """Hard decisions from a live teacher model or a logits cache.

    A cache requires sample ids; a live model ignores them.
    """
    if isinstance(teacher, TeacherLogitsCache):
        if ids is None:
            raise DataError("logits cache lookup needs sample ids")
        return teacher.predict(ids)
    logits, _ = teacher.forward(batch_x, training=False)
    return TeacherOutput.from_logits(logits)


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Adaptive moments with decoupled weight decay.

    Decay applies only to matrix-shaped parameters that are not flagged
    positive-only; one-dimensional parameters (biases, BN affine) and the
    lambda scales are exempt. Parameters flagged positive-only are clipped
    to a small floor after each step.

    The optimizer keeps every parameter's value and gradient in two flat
    float32 arenas: construction copies them in and rebinds each
    `Param.value` and `Param.grad` to its view (a gradient no backward
    made yet becomes zeros, as a step would read it). The decayed
    matrices come first, then the positive-only parameters, so decay and
    the floor each act on one slice, and a step runs each elementwise
    operation once over the whole arena. Code that updates a parameter
    must therefore write into its arrays, not rebind them: a rebound
    array is no longer the one the optimizer steps. A newer optimizer
    over the same parameters takes them over in the same way; an older
    one then steps only its own arena, which no parameter reads.
    """

    def __init__(self, named_params: list[tuple[str, Param]], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, positivity_floor: float = 1e-4):
        self.entries = list(named_params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.positivity_floor = positivity_floor
        self.step_count = 0
        params = [p for _, p in self.entries]
        if len({id(p) for p in params}) != len(params):
            raise ConfigError("AdamW: a parameter is listed twice")
        decayed = [p for p in params if p.value.ndim >= 2 and not p.positive]
        positive = [p for p in params if p.positive]
        rest = [p for p in params if p.value.ndim < 2 and not p.positive]
        self.decayed = sum(p.value.size for p in decayed)
        self.positive = slice(self.decayed, self.decayed + sum(p.value.size for p in positive))
        size = sum(p.value.size for p in params)
        self.values = np.empty(size, dtype=DTYPE)
        self.grads = np.zeros(size, dtype=DTYPE)
        start = 0
        for p in decayed + positive + rest:
            stop = start + p.value.size
            self.values[start:stop] = p.value.reshape(-1)
            if p.grad is not None:
                self.grads[start:stop] = p.grad.reshape(-1)
            p.value = self.values[start:stop].reshape(p.value.shape)
            p.grad = self.grads[start:stop].reshape(p.value.shape)
            start = stop
        self.m = np.zeros(size, dtype=DTYPE)
        self.v = np.zeros(size, dtype=DTYPE)

    def step(self, lr: float | None = None) -> None:
        """One update of every parameter. Each element sees the operations
        of the plain per-parameter expressions, in their order:

            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            upd = (m / bias1) / (sqrt(v / bias2) + eps) [+ wd * p]
            p -= lr * upd;  p = max(p, floor) where positive-only

        in place on the arenas, so the bytes are those expressions'."""
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        g, m, v = self.grads, self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        tmp = (1.0 - b2) * g
        tmp *= g
        v *= b2
        v += tmp
        upd = m / bias1
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        upd /= tmp
        if self.weight_decay:
            d = self.decayed
            upd[:d] += np.multiply(self.weight_decay, self.values[:d], out=tmp[:d])
        self.values -= np.multiply(lr, upd, out=upd)  # as (lr * upd).astype(float32)
        floor = self.values[self.positive]
        np.maximum(floor, self.positivity_floor, out=floor)
        for _, p in self.entries:
            p.bump()


class CosineSchedule:
    """lr(t) = min_lr + (base - min_lr) * (1 + cos(pi * t / total)) / 2."""

    def __init__(self, base_lr: float, total_steps: int, min_lr: float = 0.0):
        self.base_lr = base_lr
        self.total_steps = max(1, total_steps)
        self.min_lr = min_lr

    def lr_at(self, step: int) -> float:
        frac = min(1.0, step / self.total_steps)
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1.0 + math.cos(math.pi * frac))


def clip_global_norm(named_params, max_norm: float) -> float:
    grads = [p.grad for _, p in named_params if p.grad is not None]  # none made: zero
    total = 0.0
    for g in grads:
        total += float((g.astype(np.float64) ** 2).sum())
    total = math.sqrt(total)
    if max_norm > 0 and total > max_norm:
        scale = DTYPE(max_norm / (total + 1e-12))
        for g in grads:
            g *= scale
    return total


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochMetrics:
    epoch: int
    ce_class: float
    ce_distill: float
    global_loss: float
    accuracy: float


def train_epoch(model: SpikingTransformer, data: tuple[Tensor, Tensor],
                teacher, optimizer: AdamW, rng: Rng, batch_size: int = 64,
                clip_norm: float = 5.0, schedule: CosineSchedule | None = None,
                epoch: int = 0) -> EpochMetrics:
    """One pass over shuffled data with the CIE objective.

    With a teacher the loss is the halved CE sum; without one, plain
    classification CE. A teacher given to a model with no distillation
    head raises ConfigError before the first batch. A non-finite loss
    aborts with the batch index in the message.
    """
    x, y = data
    n = x.shape[0]
    distill = teacher is not None
    if distill:
        model.require_distillation_head("a teacher")
    order = rng.child(1000 + epoch).permutation(n)
    sum_c = sum_d = 0.0
    correct = 0
    batches = 0
    for bi, start in enumerate(range(0, n, batch_size)):
        idx = order[start:start + batch_size]
        xb, yb = x[idx], y[idx]
        model.zero_grads()
        logits, dist_logits = model.forward(xb, training=True)
        if distill:
            rep = global_loss(logits, yb, dist_logits, teacher_predict(teacher, xb, ids=idx))
            ce_c, ce_d, loss = rep.ce_class, rep.ce_distill, rep.global_loss
            g_logits, g_dist = rep.g_class, rep.g_distill
        else:
            ce_c, g_logits = batch_cross_entropy(logits, yb)
            ce_d, g_dist, loss = 0.0, None, ce_c
        if not np.isfinite(loss):
            model.discard_record()  # no backward will read the forward's record
            raise TrainingError(f"non-finite loss {loss} in batch {bi} of epoch {epoch}")
        model.backward(g_logits.astype(DTYPE), None if g_dist is None else g_dist.astype(DTYPE))
        clip_global_norm(optimizer.entries, clip_norm)
        lr = schedule.lr_at(optimizer.step_count) if schedule else None
        optimizer.step(lr)
        sum_c += ce_c
        sum_d += ce_d
        correct += int((logits.argmax(axis=1) == yb).sum())
        batches += 1
    mean_c = sum_c / batches
    mean_d = sum_d / batches
    return EpochMetrics(
        epoch=epoch, ce_class=mean_c, ce_distill=mean_d,
        global_loss=(mean_c + mean_d) / 2.0 if distill else mean_c,
        accuracy=correct / n,
    )


def evaluate_accuracy(model: SpikingTransformer, x: Tensor, y: Tensor,
                      batch_size: int = 128) -> float:
    correct = 0
    for start in range(0, x.shape[0], batch_size):
        stop = min(start + batch_size, x.shape[0])
        logits, _ = model.forward(x[start:stop], training=False)
        correct += int((logits.argmax(axis=1) == y[start:stop]).sum())
    return correct / x.shape[0]


def train_model(model: SpikingTransformer, train_data, epochs: int, rng: Rng,
                teacher=None, lr: float = 3e-3, weight_decay: float = 0.0,
                batch_size: int = 64, clip_norm: float = 5.0,
                cosine: bool = True, min_lr_frac: float = 0.01,
                on_epoch=None) -> list[EpochMetrics]:
    """Fit a model; returns the per-epoch metric history."""
    x, y = train_data
    opt = AdamW(model.named_params(), lr=lr, weight_decay=weight_decay)
    steps_per_epoch = max(1, (x.shape[0] + batch_size - 1) // batch_size)
    schedule = CosineSchedule(lr, epochs * steps_per_epoch, lr * min_lr_frac) if cosine else None
    history = []
    for epoch in range(epochs):
        em = train_epoch(model, (x, y), teacher, opt, rng, batch_size=batch_size,
                         clip_norm=clip_norm, schedule=schedule, epoch=epoch)
        history.append(em)
        if on_epoch is not None:
            on_epoch(model, em)
    return history


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_fn, backward_fn, named_params: list[tuple[str, Param]],
               h: float = 1e-4) -> float:
    """Compare analytic parameter gradients against central differences.

    `loss_fn()` evaluates the fragment's scalar loss from current param
    values; `backward_fn()` runs forward+backward, leaving gradients on
    the params, and returns the loss. The result is the worst elementwise
    |analytic - fd| scaled by the largest finite-difference magnitude
    (with a floor of 1), across every parameter.
    """
    for _, p in named_params:
        p.zero_grad()
    backward_fn()
    analytic = [p.grad.copy() for _, p in named_params]
    worst = 0.0
    for (name, p), ag in zip(named_params, analytic):
        def f(v, _p=p):
            _p.value = v
            return loss_fn()
        original = p.value
        fd = finite_diff_grad(f, original.copy(), h=h)
        p.value = original
        scale = max(1.0, float(np.abs(fd).max()))
        err = float(np.abs(ag - fd).max()) / scale
        worst = max(worst, err)
    return worst
