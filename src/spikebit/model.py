"""The binary event-driven spiking transformer network.

Layers are small forward/backward objects with an explicit record (no
autodiff): LIF populations unrolled over time, binary linear/conv layers
(forward in exact float32 BLAS on the +-1 sign matrix; the packed
popcount kernel is the 1-bit storage format and the test oracle), batch
normalization, the spike-attention block (BSSA), the binary MLP (BMLP),
and two encoder topologies: reversible two-stream blocks with a
closed-form inverse, and the standard residual baseline.

Each stem, block and the model list their direct parts once, in build
order, through `parts()`, and `walk` visits them depth first; that order
is the checkpoint manifest's (arrays and 1-bit images alike).

Array layout is time-major: activations are (T, B, N, D) for token
streams and (T, B, C, H, W) inside the convolutional stem. Spikes are
float32 zeros/ones; attention maps before binarization are nonnegative
integers carried in float32 (exact below 2**24).

A training forward keeps what backward reads in its `ForwardRecord`, not
on the layers. Each spike tensor is kept once, as bool: the LIF that
fired it saves it, and the binary layer or attention block it feeds saves
a view of that same array; backward widens it to float32 zeros and ones,
the values the forward multiplied, so the products match a float32 cache
byte for byte. Every backward pops the entry it reads, so one training
forward serves one backward.

In binary mode the record keeps little more than those spikes, since
backward rebuilds every float activation it can from them, byte for
byte (the idea of gradient checkpointing, Chen et al. 2016,
arXiv:1604.06174, where the recompute is exact):
- a BN after a binary layer keeps its float32 mean and inverse deviation
  alone. Its input was the layer's product of {0,1} spikes and +-1
  signs, an integer sum that float32 holds exactly in any order, so
  backward multiplies the saved spikes and sign matrix again and
  normalizes with the kept mean and inverse deviation, in the forward's
  operations (`numeric._normalize`);
- a LIF fed by such a BN (Q, K, V and the BMLP's second LIF), by the
  attention map or by the attention context keeps its bool spikes alone.
  The map and the context are sums of {0,1} products, rebuilt from the
  saved Q, K, V and attention spikes. Backward re-runs the membrane
  recurrence on the rebuilt input, reading each reset gate from the
  saved spikes (`neuron._lif` with `gates`), so the membranes are the
  forward's bytes.
The other LIFs, fed by a stream, by the input or by a conv-stem max
pool, keep their float32 membranes. Full-mode models keep every float
cache, because their products are rounded float sums.

Backward passes use surrogate gradients through the spike nonlinearity
and the straight-through estimator through weight signs; the membrane
reset path is treated as constant during backprop.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, asdict
from typing import Iterator

import numpy as np

from . import binary, neuron, numeric
from .errors import (
    ConfigError,
    DataError,
    DegenerateWeightsError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .numeric import DTYPE, BatchNormParams, Rng, Tensor

# float32 holds every integer below 2**24 exactly, so a binary layer's
# float32 BLAS forward is exact while in_features stays below this.
EXACT_FEATURES = 2**24

# Binary-mode inference forwards run in sample tiles; this many rows
# (T * samples * tokens) are in flight across all tile workers, so the
# live activations stay near L2 size. 1024 was the fastest budget on the
# eval_wide benchmark; see forward.
INFER_TILE_ROWS = 1024

# Tiles run on at most this many threads. Two were measured on a 2-vCPU
# host; four workers with 256-row tiles were slower there.
INFER_MAX_WORKERS = 2

# A cgroup v2 CPU quota ("<quota> <period>" or "max <period>"), such as
# a container started with --cpus; its affinity mask still lists every
# host CPU.
CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"

# Environment variables that set the BLAS threads; the first one set wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# glibc's malloc hands the top of its heap back to the OS whenever more
# than its trim threshold lies free there, and it raises that threshold
# (to twice the block's size, up to 64 MiB) only when it frees a block it
# had mapped on its own. An inference tile frees its whole working set as
# it ends, so at glibc's start-up thresholds each tile faulted its working
# set back in: 44,000 minor faults per eval_wide forward of 128 samples,
# about a fifth of its time. Freeing one block of this size at import
# raises the map threshold to 16 MiB and the trim threshold to 32 MiB.
# Other allocators ignore it, and the block is never written, so it
# costs no memory.
HEAP_PRIME_BYTES = 16 << 20
np.empty(HEAP_PRIME_BYTES, np.uint8)

# One tile pool per process, created by the first forward that needs it,
# so the thread cap holds however many models are loaded.
_tile_pool: ThreadPoolExecutor | None = None
_tile_pool_lock = threading.Lock()


def _infer_workers() -> int:
    """Threads for inference tiles: the CPUs this process may run on
    (its affinity mask and its whole CPUs of cgroup quota) divided by
    the threads each BLAS product may start, at most INFER_MAX_WORKERS.
    A BLAS library with no thread setting starts one thread per CPU, so
    tiles then run on one thread rather than oversubscribe the cores."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    try:
        with open(CGROUP_CPU_MAX) as fh:
            quota, period = fh.read().split()
        cpus = min(cpus, int(quota) // int(period))  # "max" raises ValueError
    except (OSError, ValueError):  # no cgroup v2 quota
        pass
    blas = next((int(v) for v in map(os.environ.get, BLAS_THREAD_VARS)
                 if v and v.isdigit() and int(v) > 0), cpus)
    return max(1, min(cpus // blas, INFER_MAX_WORKERS))


def _tile_executor(workers: int) -> ThreadPoolExecutor:
    global _tile_pool
    with _tile_pool_lock:
        if _tile_pool is None:
            _tile_pool = ThreadPoolExecutor(workers, thread_name_prefix="spikebit-tile")
        return _tile_pool


def _forget_tile_pool() -> None:
    # A forked child inherits the pool but none of its threads, so work
    # submitted to it would never run; the child makes its own.
    global _tile_pool, _tile_pool_lock
    _tile_pool, _tile_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_tile_pool)


class ForwardRecord:
    """What one forward over a batch or a tile counted and kept: the only
    place a forward writes per-call state, so the shared layers hold none
    and concurrent tiles cannot overwrite each other.

    `spikes` maps each binary layer to the spikes that entered it, `sops`
    each BSSA block to its attention synaptic ops. `taps`, when not None,
    maps each BSSA block to its attention map and each BMLP block to its
    final normalized map. `saved`, when not None, maps each layer or
    block to the tuple its backward reads and pops. A layer or block
    called without a record counts and keeps nothing.
    `SpikingTransformer.probe` returns a batch's record.
    """

    __slots__ = ("spikes", "sops", "taps", "saved")

    def __init__(self, taps: bool = False, saved: bool = False):
        self.spikes: dict = {}
        self.sops: dict = {}
        self.taps: dict | None = {} if taps else None
        self.saved: dict | None = {} if saved else None

    @classmethod
    def merged(cls, records: list["ForwardRecord"]) -> "ForwardRecord":
        """Batch totals of per-tile records: counts summed and taps
        concatenated along the batch axis, in tile order."""
        out = cls(records[0].taps is not None)
        for key in records[0].spikes:
            out.spikes[key] = sum((r.spikes[key] for r in records), 0.0)
        for key in records[0].sops:
            out.sops[key] = sum((r.sops[key] for r in records), 0.0)
        if out.taps is not None:
            for key in records[0].taps:
                out.taps[key] = np.concatenate([r.taps[key] for r in records], axis=1)
        return out


class Param:
    """A trainable array plus its gradient accumulator.

    `version` increments on every optimizer update so binary-weight sign
    matrices can be cached between updates and invalidated on change.
    """

    __slots__ = ("value", "grad", "version", "positive")

    def __init__(self, value: Tensor, positive: bool = False):
        self.value = np.asarray(value, dtype=DTYPE)
        self.grad = np.zeros_like(self.value)
        self.version = 0
        self.positive = positive

    def zero_grad(self):
        self.grad[...] = 0.0

    def bump(self):
        self.version += 1


def _saving(rec: ForwardRecord | None) -> bool:
    """Whether a forward writing to `rec` keeps what backward reads."""
    return rec is not None and rec.saved is not None


def _take(rec: ForwardRecord | None, owner) -> tuple:
    """The entry a training forward saved for `owner` in `rec`, which this
    removes: a backward consumes its forward. Raises TrainingError when
    there is none, as after an inference forward or a second backward."""
    entry = rec.saved.pop(owner, None) if _saving(rec) else None
    if entry is None:
        raise TrainingError(
            f"{getattr(owner, 'name', type(owner).__name__)}: backward without a cached "
            f"forward; run a cached forward (training=True on the model) before each backward"
        )
    return entry


def _widen(x: Tensor) -> Tensor:
    """Cached bool spikes as the float32 zeros and ones they stand for;
    any other array as it is."""
    return x.astype(DTYPE) if x.dtype == np.bool_ else x


def walk(part, kind: type = object) -> Iterator:
    """`part` and every part under it that is a `kind`, depth first: a part
    comes before its own `parts()`, which come in the order it lists them.
    A part listed as None (a missing head, a full-mode block's lambda) is
    absent. Leaves have no `parts()`."""
    if isinstance(part, kind):
        yield part
    if hasattr(part, "parts"):
        for sub in part.parts():
            if sub is not None:
                yield from walk(sub, kind)


# ---------------------------------------------------------------------------
# elementary layers


class LifLayer:
    """LIF population unrolled over the leading time axis.

    A training forward saves the spikes, as bool, for backprop-through-time,
    and the layers it feeds save views of that bool array. It also saves
    the pre-reset membranes, unless the caller says its input is `rebuilt`:
    then backward takes that input again and re-runs the recurrence on it,
    with the reset gates read from the saved spikes. The backward pass
    routes gradients through the surrogate derivative at each firing
    decision and through the decay recurrence, with the reset gate held
    constant. Forward runs `neuron.lif_run`'s kernel and returns float
    spikes either way.
    """

    def __init__(self, params: neuron.LifParams):
        self.p = params

    def forward(self, x: Tensor, rec: ForwardRecord | None = None,
                rebuilt: bool = False) -> Tensor:
        """Spikes of `x`. With `rebuilt`, the caller passes backward this
        same `x` again, so a training forward saves no membranes."""
        keep = _saving(rec)
        spikes, u_pre, fired = neuron._lif(x, self.p, keep, keep and not rebuilt)
        if keep:
            rec.saved[self] = (u_pre, fired)
        return spikes

    def backward(self, *g_spikes: Tensor, rec: ForwardRecord | None,
                 x: Tensor | None = None) -> Tensor:
        """Gradient with respect to the input current. `x`, the forward's
        input, is read only after a forward told that its input is
        `rebuilt`.

        A population whose spikes feed several layers takes one upstream
        gradient per layer. The surrogate derivative and the reset gate are
        computed once per timestep; each gradient runs its own decay
        recurrence, and the input gradients are summed from zero in
        argument order, exactly as summing separate backward calls would.
        """
        u_pre, spikes = _take(rec, self)
        if u_pre is None:
            u_pre = neuron._lif(x, self.p, keep_membranes=True, gates=spikes)[1]
        T = u_pre.shape[0]
        tau = DTYPE(self.p.tau)
        hard = self.p.reset is neuron.Reset.HARD
        shared = len(g_spikes) > 1
        g_x = (np.zeros_like if shared else np.empty_like)(g_spikes[0])
        g_u = [np.zeros(g.shape[1:], dtype=g.dtype) for g in g_spikes]
        for t in range(T - 1, -1, -1):
            sg = neuron.surrogate_grad(u_pre[t], self.p)
            keep = ~spikes[t] if hard else None  # 1 - s; a product widens it
            for i, g in enumerate(g_spikes):
                g_upre = g[t] * sg
                g_upre += g_u[i] * keep if hard else g_u[i]
                if shared:
                    g_x[t] += g_upre
                else:
                    g_x[t] = g_upre
                g_u[i] = np.multiply(tau, g_upre, out=g_upre)
        return g_x


class BinaryLinearLayer:
    """Linear layer over the trailing feature axis.

    In `binary` mode the latent weights are standardized and signed (the
    +-1 sign matrix is cached until the next weight update), inputs must
    be {0,1} spikes, and the product is float32 BLAS on the sign matrix.
    That is exact: every partial sum is an integer of magnitude at most
    in_features, which stays below 2**24, so the result equals the packed
    AND/popcount kernel's (`binary.packed_linear`, the 1-bit storage
    format and the test oracle). In `full` mode the latent weights are
    used directly.

    A training forward saves its input for backward as it was given; fed
    by a LIF through `forward_lif`, it saves a view of the LIF's bool
    spikes instead. A binary-mode product is an exact integer sum, so
    `_output_again` rebuilds it from that entry byte for byte, and the
    layers it feeds need not save it.
    """

    def __init__(self, name: str, in_features: int, out_features: int, rng: Rng,
                 mode: str = "binary", ste_clip: float = 1.0, per_channel: bool = False):
        if mode == "binary" and in_features >= EXACT_FEATURES:
            raise ConfigError(
                f"{name}: in_features {in_features} >= 2**24; float32 sums of "
                f"binary products are no longer exact"
            )
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        self.mode = mode
        self.ste_clip = ste_clip
        self.per_channel = per_channel
        std = 1.0 / np.sqrt(in_features)
        self.weight = Param(rng.normal((out_features, in_features), std=std))
        self._sign_cache = None  # (weight version, +-1 signs)

    def _binary_signs(self) -> Tensor:
        cached = self._sign_cache
        if cached is not None and cached[0] == self.weight.version:
            return cached[1]
        signs = binary.binary_signs(self.weight.value, self.per_channel)
        self._sign_cache = (self.weight.version, signs)
        return signs

    def forward(self, x: Tensor, rec: ForwardRecord | None = None) -> Tensor:
        flat = self._flat(x)
        return self._product(flat, self._spike_count(flat), x.shape[:-1], rec)

    def forward_lif(self, lif: LifLayer, x: Tensor, rec: ForwardRecord | None = None,
                    rebuilt: bool = False) -> Tensor:
        """`forward(lif.forward(x, rec, rebuilt), rec)`. A training call
        saves the LIF's bool spikes, not their float32 image, which lives
        only for the product."""
        out = self.forward(lif.forward(x, rec, rebuilt), rec)
        if _saving(rec):
            self._keep(rec, rec.saved[lif][1])
        return out

    def _keep(self, rec: ForwardRecord, spikes: np.ndarray) -> None:
        """Save `spikes`, the bool image of the input this layer's entry in
        `rec` multiplied, for backward in place of that input."""
        in2d, signs = rec.saved[self]
        rec.saved[self] = (spikes.reshape(in2d.shape), signs)

    def _flat(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"{self.name}: input features {x.shape[-1]} != {self.in_features}"
            )
        return np.ascontiguousarray(x.reshape(-1, self.in_features))

    def _spike_count(self, flat: Tensor) -> float:
        """Spikes in a flattened input; in binary mode also its {0,1} check."""
        if self.mode != "binary":
            return float(flat.sum(dtype=np.float64))
        # {0,1} input exactly when every element equals 0 or 1 (two
        # boolean counts; counting nonzero floats directly is slower)
        ones = np.count_nonzero(flat == 1)
        if ones + np.count_nonzero(flat == 0) != flat.size:
            binary.require_alphabet(flat, binary.ALPHABET_01)  # raises, naming the element
        return float(ones)

    def _product(self, flat: Tensor, spikes: float, lead: tuple,
                 rec: ForwardRecord | None) -> Tensor:
        """The product on a flattened input that `_spike_count` has checked."""
        if rec is not None:
            rec.spikes[self] = spikes
        mat = self._binary_signs() if self.mode == "binary" else self.weight.value
        out = flat @ mat.T
        if _saving(rec):
            rec.saved[self] = (flat, mat)
        return out.reshape(lead + (self.out_features,))

    def _output_again(self, rec: ForwardRecord) -> Tensor:
        """The flattened output of the training forward that saved this
        layer's entry in `rec`, rebuilt from its input and sign matrix: in
        binary mode an exact integer sum, so the forward's bytes. The entry
        keeps the input widened, for backward to reuse."""
        in2d, signs = _take(rec, self)
        in2d = _widen(in2d)
        rec.saved[self] = (in2d, signs)
        return in2d @ signs.T

    def backward(self, g_out: Tensor, rec: ForwardRecord | None) -> Tensor:
        in2d, signs = _take(rec, self)
        g2 = g_out.reshape(-1, self.out_features)
        g_mat = g2.T @ _widen(in2d)
        if self.mode == "binary":
            self.weight.grad += binary.ste_backward(
                g_mat, self.weight.value, self.ste_clip, self.per_channel
            )
        else:
            self.weight.grad += g_mat
        g_in = g2 @ signs
        return g_in.reshape(g_out.shape[:-1] + (self.in_features,))

    def params(self):
        return [(f"{self.name}.weight", self.weight)]


class BatchNormLayer:
    """Per-channel batch normalization over the trailing axis.

    A training forward saves the normalized input xhat, its mean and the
    inverse deviation for backward, unless the caller says its input is
    `rebuilt`: then it saves the two per-channel statistics alone, and
    the caller hands that input back through `_normalize_again` before
    backward runs.
    """

    def __init__(self, name: str, channels: int, epsilon: float = 1e-5, momentum: float = 0.1):
        self.name = name
        self.gamma = Param(np.ones(channels, dtype=DTYPE))
        self.beta = Param(np.zeros(channels, dtype=DTYPE))
        self.running_mean = np.zeros(channels, dtype=DTYPE)
        self.running_var = np.ones(channels, dtype=DTYPE)
        self.epsilon = epsilon
        self.momentum = momentum
        self.channels = channels

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None,
                rebuilt: bool = False) -> Tensor:
        keep = _saving(rec)
        out, xhat, mean, inv = numeric._batch_norm(x, self.bn_params(), training,
                                                   keep and not rebuilt, self.name)
        if keep:  # without xhat, out has taken over its buffer
            rec.saved[self] = (None if rebuilt else xhat, mean, inv, training)
        return out

    def _normalize_again(self, rec: ForwardRecord, x: Tensor) -> Tensor:
        """xhat of the training forward that saved this layer's statistics
        in `rec`, rebuilt in place of `x`, that forward's input, with the
        forward's operations; the entry keeps it for backward."""
        _, mean, inv, training = _take(rec, self)
        xhat = numeric._normalize(x, mean, inv, out=x)
        rec.saved[self] = (xhat, mean, inv, training)
        return xhat

    def _output_again(self, xhat: Tensor) -> Tensor:
        """The forward's output from its xhat, in a new array."""
        return numeric._scale_shift(xhat, self.gamma.value, self.beta.value)

    def backward(self, g_out: Tensor, rec: ForwardRecord | None) -> Tensor:
        xhat, _, inv, training = _take(rec, self)
        axes = tuple(range(g_out.ndim - 1))
        self.beta.grad += g_out.sum(axis=axes)
        tmp = g_out * xhat
        self.gamma.grad += tmp.sum(axis=axes)
        g_xhat = g_out * self.gamma.value
        if not training:
            g_xhat *= inv
            return g_xhat
        n = float(np.prod(g_out.shape[:-1]))
        mean_g = g_xhat.sum(axis=axes) / n
        mean_gx = np.multiply(g_xhat, xhat, out=tmp).sum(axis=axes) / n
        # (g_xhat - mean_g - xhat * mean_gx) * inv
        g_xhat -= mean_g
        g_xhat -= np.multiply(xhat, mean_gx, out=tmp)
        g_xhat *= inv
        return g_xhat

    def params(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def buffers(self):
        return [
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
        ]

    def bn_params(self) -> BatchNormParams:
        """Record over the layer's own arrays, so BN updates them in place."""
        return BatchNormParams(
            gamma=self.gamma.value, beta=self.beta.value,
            running_mean=self.running_mean, running_var=self.running_var,
            epsilon=self.epsilon, momentum=self.momentum,
        )


class LinearHead:
    """Full-precision affine head used for classification/distillation."""

    def __init__(self, name: str, in_features: int, out_features: int, rng: Rng):
        self.name = name
        self.weight = Param(rng.normal((out_features, in_features), std=1.0 / np.sqrt(in_features)))
        self.bias = Param(np.zeros(out_features, dtype=DTYPE))

    def forward(self, x: Tensor, rec: ForwardRecord | None = None) -> Tensor:
        if _saving(rec):
            rec.saved[self] = (x,)
        return x @ self.weight.value.T + self.bias.value

    def backward(self, g_out: Tensor, rec: ForwardRecord | None) -> Tensor:
        (x,) = _take(rec, self)
        self.weight.grad += g_out.T @ x
        self.bias.grad += g_out.sum(axis=0)
        return g_out @ self.weight.value

    def params(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]


class LambdaLayer:
    """Per-timestep learnable positive scale on binarized attention; both
    passes run `binary.apply_lambda`'s product. It keeps no cache: backward
    takes the forward's input `x` from its caller, which can rebuild it."""

    def __init__(self, name: str, timesteps: int):
        self.name = name
        self.scale = Param(np.ones((timesteps, 1, 1), dtype=DTYPE), positive=True)

    def forward(self, x: Tensor) -> Tensor:
        return binary._scale_time(x, self.scale.value)

    def backward(self, g_out: Tensor, x: Tensor) -> Tensor:
        T = g_out.shape[0]
        axes = tuple(range(1, g_out.ndim))
        self.scale.grad += (g_out * x).sum(axis=axes).reshape(T, 1, 1)
        return binary._scale_time(g_out, self.scale.value)

    def params(self):
        return [(f"{self.name}.scale", self.scale)]


def _through_bn(g: Tensor, rec: ForwardRecord | None, proj: BinaryLinearLayer,
                bn: BatchNormLayer, lif: LifLayer | None = None) -> Tensor:
    """Backward through `proj -> bn`, or through `proj -> bn -> lif` with
    `lif`: the gradient at proj's input from `g`, the gradient at the
    output. A binary-mode forward told bn and lif that their inputs are
    `rebuilt`, and they are, from proj's entry: bn's input, its xhat, and
    the output of bn that lif read."""
    x = None
    if proj.mode == "binary":
        xhat = bn._normalize_again(rec, proj._output_again(rec).reshape(g.shape))
        if lif is not None:
            x = bn._output_again(xhat)
    if lif is not None:
        g = lif.backward(g, rec=rec, x=x)
    return proj.backward(bn.backward(g, rec), rec)


# ---------------------------------------------------------------------------
# convolution support (stem only)


def _im2col(x: Tensor, k: int, pad: int) -> Tensor:
    # x: (R, C, H, W) -> (R*H*W, C*k*k) with zero padding, stride 1
    R, C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(R * H * W, C * k * k)
    return np.ascontiguousarray(cols)


def _col2im(g_cols: Tensor, shape, k: int, pad: int) -> Tensor:
    R, C, H, W = shape
    g = g_cols.reshape(R, H, W, C, k, k)
    out = np.zeros((R, C, H + 2 * pad, W + 2 * pad), dtype=g_cols.dtype)
    for di in range(k):
        for dj in range(k):
            out[:, :, di:di + H, dj:dj + W] += g[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return out[:, :, pad:pad + H, pad:pad + W]


class Conv3x3Layer:
    """3x3 same-padding convolution as im2col + the binary linear kernel.

    Its input is a LIF's spikes, so a training forward saves the im2col
    matrix for backward as bool, its own copy at one byte per element.
    """

    def __init__(self, name: str, in_ch: int, out_ch: int, rng: Rng, mode: str,
                 ste_clip: float = 1.0):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.linear = BinaryLinearLayer(name, in_ch * 9, out_ch, rng, mode=mode, ste_clip=ste_clip)

    def forward(self, x: Tensor, rec: ForwardRecord | None = None) -> Tensor:
        T, B, C, H, W = x.shape
        cols = _im2col(x.reshape(T * B, C, H, W), 3, 1)
        out = self.linear.forward(cols, rec)
        if _saving(rec):
            self.linear._keep(rec, cols.astype(np.bool_))
        return out.reshape(T, B, H, W, self.out_ch).transpose(0, 1, 4, 2, 3)

    def backward(self, g_out: Tensor, rec: ForwardRecord | None) -> Tensor:
        T, B, _, H, W = g_out.shape  # same padding: the input's extent
        g_cols = self.linear.backward(
            np.ascontiguousarray(g_out.transpose(0, 1, 3, 4, 2)).reshape(-1, self.out_ch), rec
        )
        g_x = _col2im(g_cols, (T * B, self.in_ch, H, W), 3, 1)
        return g_x.reshape(T, B, self.in_ch, H, W)

    def parts(self):
        return (self.linear,)


class MaxPool2Layer:
    """2x2 stride-2 max pool on even extents; gradient routes to the first maximum."""

    def forward(self, x: Tensor, rec: ForwardRecord | None = None) -> Tensor:
        T, B, C, H, W = x.shape
        xr = x.reshape(T, B, C, H // 2, 2, W // 2, 2).transpose(0, 1, 2, 3, 5, 4, 6)
        xr = np.ascontiguousarray(xr).reshape(T, B, C, H // 2, W // 2, 4)
        idx = xr.argmax(axis=-1)
        out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
        if _saving(rec):
            rec.saved[self] = (idx.astype(np.uint8),)  # 0..3, at one byte each
        return out

    def backward(self, g_out: Tensor, rec: ForwardRecord | None) -> Tensor:
        (idx,) = _take(rec, self)
        T, B, C, h, w = g_out.shape
        g = np.zeros((T, B, C, h, w, 4), dtype=g_out.dtype)
        np.put_along_axis(g, idx[..., None], g_out[..., None], axis=-1)
        g = g.reshape(T, B, C, h, w, 2, 2).transpose(0, 1, 2, 3, 5, 4, 6)
        return np.ascontiguousarray(g).reshape(T, B, C, 2 * h, 2 * w)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class StemSpec:
    """Input tokenizer description.

    kind "conv": images (in_channels, image_size, image_size) split into
    patch_size x patch_size patches by four LIF -> binary-conv -> BN
    stages with stride-2 max pools in the final log2(patch_size) stages.
    kind "vector": flat inputs chopped into `tokens` equal chunks, each
    projected to the embedding dim by a shared LIF -> binary-linear -> BN.
    """

    kind: str = "vector"
    in_features: int = 64
    tokens: int = 4
    in_channels: int = 3
    image_size: int = 32
    patch_size: int = 4


@dataclass(frozen=True)
class ModelConfig:
    depth: int = 2
    embed_dim: int = 64
    heads: int = 2
    timesteps: int = 2
    tau: float = 0.5
    v_threshold: float = 1.0
    hidden_ratio: float = 4.0
    num_classes: int = 10
    stem: StemSpec = field(default_factory=StemSpec)
    surrogate: neuron.SurrogateSpec = field(default_factory=neuron.SurrogateSpec)
    weight_mode: str = "binary"       # "binary" | "full"
    topology: str = "reversible"      # "reversible" | "residual"
    dual_head: bool = True            # distillation head present
    classify_on: str = "x0"           # which stream feeds the classification head
    ste_clip: float = 1.0
    attn_scale: float = 0.125         # full-precision attention only

    def __post_init__(self):
        sizes = {"depth": self.depth, "timesteps": self.timesteps, "embed_dim": self.embed_dim,
                 "heads": self.heads, "num_classes": self.num_classes}
        sizes.update((f"stem.{k}", v) for k, v in vars(self.stem).items() if k != "kind")
        for name, value in sizes.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not math.isfinite(self.hidden_ratio) or self.hidden_dim < 1:
            raise ConfigError(
                f"hidden_ratio {self.hidden_ratio} must give a finite hidden width >= 1 "
                f"at embed_dim {self.embed_dim}"
            )
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.weight_mode not in ("binary", "full"):
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")
        if self.topology not in ("reversible", "residual"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.classify_on not in ("x0", "x1"):
            raise ConfigError(f"classify_on must be 'x0' or 'x1', got {self.classify_on!r}")

    @property
    def hidden_dim(self) -> int:
        """The BMLP's hidden width."""
        return int(round(self.hidden_ratio * self.embed_dim))

    def lif(self, reset=neuron.Reset.HARD) -> neuron.LifParams:
        return neuron.LifParams(
            tau=self.tau, v_threshold=self.v_threshold, reset=reset, surrogate=self.surrogate
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["surrogate"] = {"kind": self.surrogate.kind.value, "width_or_alpha": self.surrogate.width_or_alpha}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of `to_dict`; an unknown surrogate kind raises DataError."""
        d = dict(d)
        d["stem"] = StemSpec(**d["stem"])
        sur = d["surrogate"]
        try:
            kind = neuron.SurrogateKind(sur["kind"])
        except ValueError:
            raise DataError(f"unknown surrogate kind {sur['kind']!r}") from None
        d["surrogate"] = neuron.SurrogateSpec(kind=kind, width_or_alpha=sur["width_or_alpha"])
        return cls(**d)


@dataclass
class ReversibleState:
    """The two-stream state threaded through reversible encoder blocks."""

    x0: Tensor
    x1: Tensor

    def copy(self) -> "ReversibleState":
        return ReversibleState(self.x0.copy(), self.x1.copy())


# ---------------------------------------------------------------------------
# stems


def _batch(x: Tensor) -> Tensor:
    """`x` as a float32 batch; raises ShapeError if it has no batch axis
    or no samples, before anything runs on it."""
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim == 0 or x.shape[0] == 0:
        raise ShapeError(f"input has shape {x.shape}; the model takes a batch of one or "
                         f"more samples")
    return x


def _require_samples(x: Tensor, shape: tuple) -> None:
    """Raise ShapeError unless `x` is a batch of samples of `shape`."""
    if x.shape[1:] != shape:
        raise ShapeError(f"input samples have shape {x.shape[1:]}; the model takes {shape}")


class VectorStem:
    def __init__(self, cfg: ModelConfig, rng: Rng):
        spec = cfg.stem
        if spec.in_features % spec.tokens != 0:
            raise ConfigError(
                f"in_features {spec.in_features} not divisible by tokens {spec.tokens}"
            )
        self.sample_shape = (spec.in_features,)
        self.tokens = spec.tokens
        self.chunk = spec.in_features // spec.tokens
        self.timesteps = cfg.timesteps
        self.lif = LifLayer(cfg.lif())
        self.linear = BinaryLinearLayer(
            "stem.proj", self.chunk, cfg.embed_dim, rng.child(1),
            mode=cfg.weight_mode, ste_clip=cfg.ste_clip,
        )
        self.bn = BatchNormLayer("stem.bn", cfg.embed_dim)

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        _require_samples(x, self.sample_shape)
        B = x.shape[0]
        tokens = x.reshape(B, self.tokens, self.chunk)
        rep = np.broadcast_to(tokens, (self.timesteps,) + tokens.shape).astype(DTYPE)
        h = self.linear.forward_lif(self.lif, rep, rec)
        return self.bn.forward(h, training, rec, rebuilt=self.linear.mode == "binary")

    def backward(self, g: Tensor, rec: ForwardRecord | None) -> Tensor:
        """The gradient at the time-replicated input, from the gradient at
        the embedding."""
        return self.lif.backward(_through_bn(g, rec, self.linear, self.bn), rec=rec)

    def parts(self):
        return (self.lif, self.linear, self.bn)


class ConvStem:
    """Patch-splitting stem: four LIF -> binary-conv3x3 -> BN stages with
    channel doubling up to the embedding dim; the last log2(patch_size)
    stages end in a stride-2 max pool."""

    def __init__(self, cfg: ModelConfig, rng: Rng):
        spec = cfg.stem
        D = cfg.embed_dim
        if D % 8 != 0:
            raise ConfigError("conv stem needs embed_dim divisible by 8")
        patch = spec.patch_size
        if patch & (patch - 1) or patch < 1:
            raise ConfigError(f"patch_size must be a power of two, got {patch}")
        n_pool = patch.bit_length() - 1
        if n_pool > 4:
            raise ConfigError("patch_size larger than 16 is not supported")
        if spec.image_size % patch != 0:
            raise ConfigError(
                f"image_size {spec.image_size} not divisible by patch_size {patch}"
            )
        chans = [spec.in_channels, D // 8, D // 4, D // 2, D]
        self.stages = []
        for i in range(4):
            lif = LifLayer(cfg.lif())
            conv = Conv3x3Layer(
                f"stem.stage{i}.conv", chans[i], chans[i + 1], rng.child(10 + i),
                mode=cfg.weight_mode, ste_clip=cfg.ste_clip,
            )
            bn = BatchNormLayer(f"stem.stage{i}.bn", chans[i + 1])
            pool = MaxPool2Layer() if i >= 4 - n_pool else None
            self.stages.append((lif, conv, bn, pool))
        self.sample_shape = (spec.in_channels, spec.image_size, spec.image_size)
        self.timesteps = cfg.timesteps
        self.tokens = (spec.image_size // patch) ** 2
        self.embed_dim = D

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        _require_samples(x, self.sample_shape)
        h = np.broadcast_to(x, (self.timesteps,) + x.shape).astype(DTYPE)
        for lif, conv, bn, pool in self.stages:
            s = lif.forward(np.ascontiguousarray(h), rec)
            h = conv.forward(s, rec)
            # BN over channels: move channel axis last and back
            h = np.moveaxis(bn.forward(np.moveaxis(h, 2, -1), training, rec,
                                       rebuilt=conv.linear.mode == "binary"), -1, 2)
            if pool is not None:
                h = pool.forward(h, rec)
        T, B, C, H, W = h.shape
        return np.ascontiguousarray(h.transpose(0, 1, 3, 4, 2)).reshape(T, B, H * W, C)

    def backward(self, g: Tensor, rec: ForwardRecord | None) -> Tensor:
        """The gradient at the time-replicated input, from the gradient at
        the embedding."""
        T, B, N, C = g.shape
        side = int(np.sqrt(N))
        g = g.reshape(T, B, side, side, C).transpose(0, 1, 4, 2, 3)
        for lif, conv, bn, pool in reversed(self.stages):
            if pool is not None:
                g = pool.backward(g, rec)
            g = np.moveaxis(g, 2, -1)
            if conv.linear.mode == "binary":  # the BN's input, (T, B, H, W, C) as it was
                bn._normalize_again(rec, conv.linear._output_again(rec).reshape(g.shape))
            g = np.moveaxis(bn.backward(g, rec), -1, 2)
            g = conv.backward(np.ascontiguousarray(g), rec)
            g = lif.backward(g, rec=rec)
        return g

    def parts(self):
        return tuple(part for stage in self.stages for part in stage)


# ---------------------------------------------------------------------------
# encoder blocks


class BssaBlock:
    """Binary spiking self attention.

    One input LIF turns the real-valued stream into spikes that feed the
    Q, K and V binary projections alike (three LIFs with the same
    parameters and input would emit the same spikes); Q/K/V then pass
    through their own LIF after BN so the attention product QK^T is a
    nonnegative integer map. That map is binarized by a soft-reset LIF
    over time and scaled by the learnable per-timestep lambda; the context is accumulated from
    V's spikes and leaves through the output projection's LIF -> binary
    linear -> BN.

    In full-precision mode the attention map is not binarized and there
    is no lambda (`lam` is None); the context is attn * attn_scale @ V,
    matching the non-binary teacher.
    """

    def __init__(self, name: str, cfg: ModelConfig, rng: Rng):
        D = cfg.embed_dim
        self.name = name
        self.heads = cfg.heads
        self.head_dim = D // cfg.heads
        self.binary_attn = cfg.weight_mode == "binary"
        self.attn_scale = DTYPE(cfg.attn_scale)
        mk = lambda tag, i: BinaryLinearLayer(
            f"{name}.{tag}", D, D, rng.child(i), mode=cfg.weight_mode, ste_clip=cfg.ste_clip
        )
        self.x_in, self.o_in = LifLayer(cfg.lif()), LifLayer(cfg.lif())
        self.q_proj, self.k_proj, self.v_proj, self.o_proj = (
            mk("q", 1), mk("k", 2), mk("v", 3), mk("o", 4)
        )
        self.q_bn = BatchNormLayer(f"{name}.q_bn", D)
        self.k_bn = BatchNormLayer(f"{name}.k_bn", D)
        self.v_bn = BatchNormLayer(f"{name}.v_bn", D)
        self.o_bn = BatchNormLayer(f"{name}.o_bn", D)
        self.q_lif, self.k_lif, self.v_lif = (LifLayer(cfg.lif()) for _ in range(3))
        self.attn_lif = LifLayer(cfg.lif(reset=neuron.Reset.SOFT))
        self.lam = LambdaLayer(f"{name}.lambda", cfg.timesteps) if self.binary_attn else None

    def _split(self, x: Tensor, dtype=None) -> Tensor:
        T, B, N, D = x.shape
        return np.ascontiguousarray(
            x.reshape(T, B, N, self.heads, self.head_dim).transpose(0, 1, 3, 2, 4), dtype=dtype
        )

    def _merge(self, x: Tensor) -> Tensor:
        T, B, h, N, d = x.shape
        return np.ascontiguousarray(x.transpose(0, 1, 3, 2, 4)).reshape(T, B, N, h * d)

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        s = self.x_in.forward(x, rec)
        # Q, K and V read the same spikes: check and count them once, and
        # all three save the one bool array x_in saves
        flat = self.q_proj._flat(s)
        spikes = self.q_proj._spike_count(flat)
        lead = s.shape[:-1]
        b = self.binary_attn  # binary mode: backward rebuilds each float input
        q, k, v = (
            lif.forward(bn.forward(proj._product(flat, spikes, lead, rec), training, rec, b),
                        rec, b)
            for proj, bn, lif in ((self.q_proj, self.q_bn, self.q_lif),
                                  (self.k_proj, self.k_bn, self.k_lif),
                                  (self.v_proj, self.v_bn, self.v_lif))
        )
        if _saving(rec):
            for proj in (self.q_proj, self.k_proj, self.v_proj):
                proj._keep(rec, rec.saved[self.x_in][1])
        qh, kh, vh = self._split(q), self._split(k), self._split(v)
        attn = np.einsum("tbhnd,tbhmd->tbhnm", qh, kh, optimize=True)
        if np.any(attn < 0) or np.any(attn != np.round(attn)):
            raise NumericError(f"{self.name}: attention map is not a nonnegative integer tensor")
        if rec is not None and rec.taps is not None:
            rec.taps[self] = attn
        if self.binary_attn:
            s_attn = self.attn_lif.forward(attn, rec, rebuilt=True)
            ctx0 = np.einsum("tbhnm,tbhmd->tbhnd", s_attn, vh, optimize=True)
            ctx = self.lam.forward(ctx0)
            sops = float(q.sum()) * attn.shape[-1] + float(s_attn.sum()) * self.head_dim
        else:
            s_attn = attn
            ctx = np.einsum("tbhnm,tbhmd->tbhnd", attn, vh, optimize=True) * self.attn_scale
            sops = 0.0
        if rec is not None:
            rec.sops[self] = sops
        if _saving(rec):
            # the head splits are re-made in backward; full-precision
            # attention saves its integer map, which is no spike tensor
            saved = rec.saved
            saved[self] = (saved[self.q_lif][1], saved[self.k_lif][1], saved[self.v_lif][1],
                           saved[self.attn_lif][1] if self.binary_attn else attn)
        return self.o_bn.forward(self.o_proj.forward_lif(self.o_in, self._merge(ctx), rec, b),
                                 training, rec, b)

    def backward(self, g_out: Tensor, rec: ForwardRecord | None) -> Tensor:
        """In binary mode every float input a LIF or BN read is rebuilt from
        the saved spikes: the attention map and the context are sums of
        {0,1} products, and the projections' outputs are exact integer
        sums (`_through_bn`), so each is the forward's bytes."""
        q, k, v, s_attn = _take(rec, self)
        g = _through_bn(g_out, rec, self.o_proj, self.o_bn)
        vh, s_attn = self._split(v, DTYPE), _widen(s_attn)
        qh, kh = self._split(q, DTYPE), self._split(k, DTYPE)
        if self.binary_attn:
            ctx0 = np.einsum("tbhnm,tbhmd->tbhnd", s_attn, vh, optimize=True)
            g = self.o_in.backward(g, rec=rec, x=self._merge(self.lam.forward(ctx0)))
            g_ctx0 = self.lam.backward(self._split(g), ctx0)
            del ctx0
            g_sattn = np.einsum("tbhnd,tbhmd->tbhnm", g_ctx0, vh, optimize=True)
            g_vh = np.einsum("tbhnm,tbhnd->tbhmd", s_attn, g_ctx0, optimize=True)
            attn = np.matmul(qh, kh.swapaxes(-1, -2))  # {0,1} operands: exact in any order
            g_attn = self.attn_lif.backward(g_sattn, rec=rec, x=attn)
        else:
            g_ctx = self._split(self.o_in.backward(g, rec=rec))
            g_attn = np.einsum("tbhnd,tbhmd->tbhnm", g_ctx, vh, optimize=True) * self.attn_scale
            g_vh = np.einsum("tbhnm,tbhnd->tbhmd", s_attn, g_ctx, optimize=True) * self.attn_scale
        g_qh = np.einsum("tbhnm,tbhmd->tbhnd", g_attn, kh, optimize=True)
        g_kh = np.einsum("tbhnm,tbhnd->tbhmd", g_attn, qh, optimize=True)
        # x_in's spikes, widened once for the three projections that read them
        s = _widen(rec.saved[self.q_proj][0])
        for proj in (self.q_proj, self.k_proj, self.v_proj):
            proj._keep(rec, s)
        g_s = [
            _through_bn(self._merge(gh), rec, proj, bn, lif)
            for gh, lif, bn, proj in (
                (g_qh, self.q_lif, self.q_bn, self.q_proj),
                (g_kh, self.k_lif, self.k_bn, self.k_proj),
                (g_vh, self.v_lif, self.v_bn, self.v_proj),
            )
        ]
        return self.x_in.backward(*g_s, rec=rec)

    def parts(self):
        return (self.x_in, self.o_in, self.q_proj, self.k_proj, self.v_proj, self.o_proj,
                self.q_bn, self.k_bn, self.v_bn, self.o_bn,
                self.q_lif, self.k_lif, self.v_lif, self.attn_lif, self.lam)


class BmlpBlock:
    """Binary MLP: LIF -> binary linear -> BN, twice, with hidden expansion."""

    def __init__(self, name: str, cfg: ModelConfig, rng: Rng):
        D = cfg.embed_dim
        hidden = cfg.hidden_dim
        self.name = name
        self.lif1 = LifLayer(cfg.lif())
        self.fc1 = BinaryLinearLayer(f"{name}.fc1", D, hidden, rng.child(1),
                                     mode=cfg.weight_mode, ste_clip=cfg.ste_clip)
        self.bn1 = BatchNormLayer(f"{name}.bn1", hidden)
        self.lif2 = LifLayer(cfg.lif())
        self.fc2 = BinaryLinearLayer(f"{name}.fc2", hidden, D, rng.child(2),
                                     mode=cfg.weight_mode, ste_clip=cfg.ste_clip)
        self.bn2 = BatchNormLayer(f"{name}.bn2", D)

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        b = self.fc1.mode == "binary"  # backward rebuilds each float input (`_through_bn`)
        h = self.bn1.forward(self.fc1.forward_lif(self.lif1, x, rec), training, rec, b)
        out = self.bn2.forward(self.fc2.forward_lif(self.lif2, h, rec, b), training, rec, b)
        if rec is not None and rec.taps is not None:
            rec.taps[self] = out  # the final normalized map, for rep-cap probes
        return out

    def backward(self, g: Tensor, rec: ForwardRecord | None) -> Tensor:
        g = _through_bn(g, rec, self.fc2, self.bn2)
        g = _through_bn(g, rec, self.fc1, self.bn1, self.lif2)
        return self.lif1.backward(g, rec=rec)

    def parts(self):
        return (self.lif1, self.fc1, self.bn1, self.lif2, self.fc2, self.bn2)


class ReversibleBlock:
    """Two-stream coupling with a closed-form inverse:

        x0' = BSSA(x1) + (x0 + x1) / 2
        x1' = BMLP(x0') + (x1 + x0') / 2

    The inverse re-simulates the sub-blocks from the same zero neuron
    state, which is what makes reconstruction exact up to float32
    rounding.
    """

    def __init__(self, name: str, cfg: ModelConfig, rng: Rng):
        self.name = name
        self.bssa = BssaBlock(f"{name}.bssa", cfg, rng.child(1))
        self.bmlp = BmlpBlock(f"{name}.bmlp", cfg, rng.child(2))

    def forward(self, s: ReversibleState, training: bool,
                rec: ForwardRecord | None = None) -> ReversibleState:
        # The coupling algebra follows the state dtype. Training uses
        # float32 states; the reconstruction harness threads float64
        # states because the inverse amplifies stream error by a factor
        # of roughly 4.5 per unwound block, which at depth 4 lifts
        # float32 storage rounding to the 1e-4 scale and can flip
        # borderline spikes. Sub-blocks always evaluate on the float32
        # cast, so both directions see bit-identical inputs.
        a = self.bssa.forward(np.ascontiguousarray(s.x1, dtype=DTYPE), training, rec)
        x0n = s.x0 + s.x1
        x0n *= 0.5
        x0n += a  # a + 0.5 * (x0 + x1), in the state dtype
        m = self.bmlp.forward(np.ascontiguousarray(x0n, dtype=DTYPE), training, rec)
        x1n = s.x1 + x0n
        x1n *= 0.5
        x1n += m  # m + 0.5 * (x1 + x0n)
        return ReversibleState(x0=x0n, x1=x1n)

    def inverse(self, s: ReversibleState) -> ReversibleState:
        m = self.bmlp.forward(np.ascontiguousarray(s.x0, dtype=DTYPE), training=False)
        x1 = 2.0 * (s.x1 - m) - s.x0
        a = self.bssa.forward(np.ascontiguousarray(x1, dtype=DTYPE), training=False)
        x0 = 2.0 * (s.x0 - a) - x1
        return ReversibleState(x0=x0, x1=x1)

    def backward(self, g0: Tensor, g1: Tensor, rec: ForwardRecord | None) -> tuple[Tensor, Tensor]:
        g0_total = g0 + self.bmlp.backward(g1, rec) + 0.5 * g1
        g_x1 = 0.5 * g1 + self.bssa.backward(g0_total, rec) + 0.5 * g0_total
        g_x0 = 0.5 * g0_total
        return g_x0, g_x1

    def parts(self):
        return (self.bssa, self.bmlp)


class ResidualBlock:
    """Standard (non-reversible) encoder block: x += BSSA(x); x += BMLP(x)."""

    def __init__(self, name: str, cfg: ModelConfig, rng: Rng):
        self.name = name
        self.bssa = BssaBlock(f"{name}.bssa", cfg, rng.child(1))
        self.bmlp = BmlpBlock(f"{name}.bmlp", cfg, rng.child(2))

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        x = x + self.bssa.forward(x, training, rec)
        return (x + self.bmlp.forward(x, training, rec)).astype(DTYPE, copy=False)

    def backward(self, g: Tensor, rec: ForwardRecord | None) -> Tensor:
        g = g + self.bmlp.backward(g, rec)
        return g + self.bssa.backward(g, rec)

    def parts(self):
        return (self.bssa, self.bmlp)


# ---------------------------------------------------------------------------
# the full network


class _BlankRng:
    """Stands in for `Rng` while `SpikingTransformer._blank` builds a model:
    draws nothing and hands out uninitialised arrays."""

    def child(self, tag: int) -> "_BlankRng":
        return self

    def normal(self, shape, std: float = 1.0, mean: float = 0.0) -> Tensor:
        return np.empty(shape, dtype=DTYPE)


class SpikingTransformer:
    """Stem -> encoder blocks -> time/token mean -> linear head(s).

    Reversible topology carries the (x0, x1) stream pair and exposes a
    classification head on one stream and an optional distillation head
    on the other; residual topology carries a single stream and one head.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self._build(cfg, seed, Rng(seed))

    @classmethod
    def _blank(cls, cfg: ModelConfig, seed: int) -> "SpikingTransformer":
        """The model of `cfg` with its random weights left uninitialised,
        for `load_checkpoint`, which overwrites every array."""
        model = cls.__new__(cls)
        model._build(cfg, seed, _BlankRng())
        return model

    def _build(self, cfg: ModelConfig, seed: int, rng: Rng | _BlankRng) -> None:
        self.cfg = cfg
        self.seed = seed
        if cfg.stem.kind == "conv":
            self.stem = ConvStem(cfg, rng.child(0))
        elif cfg.stem.kind == "vector":
            self.stem = VectorStem(cfg, rng.child(0))
        else:
            raise ConfigError(f"unknown stem kind {cfg.stem.kind!r}")
        self.reversible = cfg.topology == "reversible"
        cls_blk = ReversibleBlock if self.reversible else ResidualBlock
        self.blocks = [
            cls_blk(f"block{i}", cfg, rng.child(100 + i)) for i in range(cfg.depth)
        ]
        D = cfg.embed_dim
        self.head_cls = LinearHead("head_cls", D, cfg.num_classes, rng.child(900))
        self.head_dist = (
            LinearHead("head_dist", D, cfg.num_classes, rng.child(901))
            if (self.reversible and cfg.dual_head) else None
        )
        self._record = None  # what the last training forward saved, until backward

    # -- forward / backward ------------------------------------------------

    def embed(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        return self.stem.forward(np.asarray(x, dtype=DTYPE), training, rec)

    def forward(self, x: Tensor, training: bool = False) -> tuple[Tensor, Tensor | None]:
        """Classification logits and distillation logits (None without a
        distillation head) for a batch of samples.

        A binary-mode inference forward (not training) runs the
        stem and the encoder blocks over sample tiles, then the heads once
        on the whole batch's pooled means. The tiles run on
        `_infer_workers()` threads (at most INFER_MAX_WORKERS, and one
        unless BLAS runs on fewer threads than there are CPUs), and
        INFER_TILE_ROWS rows (T * samples * tokens) are in flight across
        them, so each worker's tile holds INFER_TILE_ROWS // workers
        rows. This is bit-identical to one
        full-batch pass on one thread: every binary-layer and attention
        product is an exact integer sum, so BLAS blocking cannot round it;
        BN with running statistics, the LIFs, the stream updates and the
        time/token mean work sample by sample; and tiles write their
        counts and taps to their own `ForwardRecord`, which are merged in
        tile order. The heads stay untiled because their float32 BLAS
        product can round differently at another row count; full-mode
        models stay untiled for the same reason, since their layer
        products are float sums. Training forwards run untiled on the
        calling thread; the model holds their record until `backward`.

        An inference forward writes no per-call state on the model; its
        counts and taps are `probe`'s, which runs the same `_infer`.
        Input without a batch axis or samples raises ShapeError.
        """
        x = _batch(x)
        if training:
            self._record = rec = ForwardRecord(saved=True)
            pooled, _ = self._encode(x, True, rec)
        else:
            pooled, rec = self._infer(x, taps=False)
        if self.reversible:
            return self._dual_heads(*pooled, rec)
        return self.head_cls.forward(pooled[0], rec), None

    def probe(self, x: Tensor, taps: bool = False) -> ForwardRecord:
        """The `ForwardRecord` of an inference forward over a batch, without
        the heads: spikes per binary layer, synaptic ops per BSSA block
        and, with `taps`, each BSSA attention map and BMLP output, all
        covering the whole batch."""
        return self._infer(_batch(x), taps)[1]

    def _infer(self, x: Tensor, taps: bool) -> tuple[list[Tensor], ForwardRecord]:
        """`_encode` for inference: tiled in binary mode, whole in full mode."""
        if self.cfg.weight_mode != "binary":
            return self._encode(x, False, ForwardRecord(taps))
        return self._encode_tiled(x, taps)

    def _encode(self, x: Tensor, training: bool,
                rec: ForwardRecord) -> tuple[list[Tensor], ForwardRecord]:
        """Stem and encoder blocks on one batch or tile, writing to `rec`.
        Returns the time/token mean of each stream (x0, x1 or the
        residual stream) and `rec`."""
        e = self.embed(x, training, rec)
        # blocks never write their input state, so both streams share e
        state = ReversibleState(x0=e, x1=e) if self.reversible else e
        for blk in self.blocks:
            state = blk.forward(state, training, rec)
        streams = (state.x0, state.x1) if self.reversible else (state,)
        if _saving(rec):
            rec.saved[self] = (streams[0].shape,)
        return [h.mean(axis=(0, 2)) for h in streams], rec

    def _encode_tiled(self, x: Tensor, taps: bool) -> tuple[list[Tensor], ForwardRecord]:
        """`_encode` for binary-mode inference, one sample tile at a time.
        With one worker, or one tile, the tiles run inline on the calling
        thread. Pooled means are concatenated along the batch axis and
        the tile records merged, both in tile order."""
        workers = _infer_workers()
        tile = max(1, INFER_TILE_ROWS // workers // (self.cfg.timesteps * self.stem.tokens))
        tiles = [x[start:start + tile] for start in range(0, x.shape[0], tile)]
        if workers == 1 or len(tiles) == 1:
            results = [self._encode(t, False, ForwardRecord(taps)) for t in tiles]
        else:
            for lyr in self.binary_linear_layers():
                lyr._binary_signs()  # tiles only read the sign caches
            pool = _tile_executor(workers)
            futures = [pool.submit(self._encode, t, False, ForwardRecord(taps)) for t in tiles]
            try:
                results = [f.result() for f in futures]  # the first failure in tile order
            finally:
                for f in futures:
                    f.cancel()
                wait(futures)  # no tile outlives the call
        pooled = [np.concatenate(stream) for stream in zip(*(p for p, _ in results))]
        return pooled, ForwardRecord.merged([r for _, r in results])

    def _dual_heads(self, pooled0: Tensor, pooled1: Tensor,
                    rec: ForwardRecord | None = None) -> tuple[Tensor, Tensor | None]:
        if self.cfg.classify_on == "x0":
            cls_in, dist_in = pooled0, pooled1
        else:
            cls_in, dist_in = pooled1, pooled0
        logits = self.head_cls.forward(cls_in, rec)
        dist_logits = self.head_dist.forward(dist_in, rec) if self.head_dist else None
        return logits, dist_logits

    def backward(self, g_logits: Tensor, g_dist: Tensor | None = None) -> None:
        """Backprop the logit gradients of the last training forward into
        every parameter's `grad`, popping that forward's record as it goes.
        Without a training forward to consume it raises TrainingError."""
        rec, self._record = self._record, None
        ((T, B, N, D),) = _take(rec, self)
        scale = DTYPE(1.0 / (T * N))

        def unpool(g2d):
            return np.broadcast_to(g2d[None, :, None, :] * scale, (T, B, N, D)).astype(DTYPE)

        if self.reversible:
            g_cls = self.head_cls.backward(g_logits, rec)
            if self.head_dist is not None and g_dist is not None:
                g_dst = self.head_dist.backward(g_dist, rec)
            else:
                g_dst = np.zeros_like(g_cls)
            if self.cfg.classify_on == "x0":
                g0, g1 = unpool(g_cls), unpool(g_dst)
            else:
                g0, g1 = unpool(g_dst), unpool(g_cls)
            for blk in reversed(self.blocks):
                g0, g1 = blk.backward(g0, g1, rec)
            self.stem.backward((g0 + g1).astype(DTYPE), rec)
        else:
            g = unpool(self.head_cls.backward(g_logits, rec))
            for blk in reversed(self.blocks):
                g = blk.backward(g, rec)
            self.stem.backward(g, rec)

    def discard_record(self) -> None:
        """Drop what the last training forward saved, for a caller that
        will not run its backward."""
        self._record = None

    def calibrate(self, x: Tensor) -> None:
        """Re-estimate every BN layer's running statistics from one batch
        (momentum forced to 1 for the pass), so inference-mode streams
        match the data scale. Used before inference-time reconstruction
        and instrumentation. The pass is a training-mode encode that
        saves nothing, since no backward follows it. Input without a batch
        axis or samples raises ShapeError."""
        x = _batch(x)
        bns = list(walk(self, BatchNormLayer))
        saved = [bn.momentum for bn in bns]
        for bn in bns:
            bn.momentum = 1.0
        try:
            self._encode(x, True, ForwardRecord())
        finally:
            for bn, m in zip(bns, saved):
                bn.momentum = m

    def run_reversible(self, x: Tensor) -> tuple[ReversibleState, ReversibleState]:
        """Inference helper: returns (stem state, final state).

        Streams are carried in float64 so that `invert` reconstructs the
        stem state to architecture accuracy rather than the storage-
        rounding floor; sub-blocks still run at float32.
        """
        if not self.reversible:
            raise ConfigError("run_reversible requires reversible topology")
        e = self.embed(x, training=False).astype(np.float64)
        stem_state = ReversibleState(x0=e.copy(), x1=e.copy())
        state = stem_state.copy()
        for blk in self.blocks:
            state = blk.forward(state, training=False)
        return stem_state, state

    def invert(self, final: ReversibleState) -> ReversibleState:
        state = final
        for blk in reversed(self.blocks):
            state = blk.inverse(state)
        return state

    def heads_forward(self, s: ReversibleState) -> tuple[Tensor, Tensor | None]:
        """Apply the pooled dual heads to a final reversible state."""
        return self._dual_heads(s.x0.mean(axis=(0, 2)), s.x1.mean(axis=(0, 2)))

    # -- parameter plumbing --------------------------------------------------

    def parts(self):
        return (self.stem, *self.blocks, self.head_cls, self.head_dist)

    def named_params(self) -> list[tuple[str, Param]]:
        return [entry for part in walk(self) if hasattr(part, "params") for entry in part.params()]

    def named_buffers(self) -> list[tuple[str, Tensor]]:
        return [entry for part in walk(self) if hasattr(part, "buffers") for entry in part.buffers()]

    def zero_grads(self):
        for _, p in self.named_params():
            p.zero_grad()

    def binary_linear_layers(self) -> Iterator[BinaryLinearLayer]:
        return walk(self, BinaryLinearLayer)

    def bssa_blocks(self) -> Iterator[BssaBlock]:
        return walk(self, BssaBlock)

    def lif_layers(self) -> Iterator[LifLayer]:
        return walk(self, LifLayer)

    # -- checkpointing ---------------------------------------------------------

    CKPT_MAGIC = b"SBCK\x01\x00"

    @property
    def state_entries(self) -> list[tuple[str, Tensor]]:
        entries = [(n, p.value) for n, p in self.named_params()]
        entries.extend(self.named_buffers())
        return entries


def checkpoint_bytes(model: SpikingTransformer) -> bytes:
    """Versioned binary container: magic, JSON header (config, seed, and
    the array manifest), raw little-endian float32 blobs in manifest
    order, then the packed 1-bit weight images in the PackedBits layout."""
    entries = model.state_entries
    packed_entries = []
    for lyr in model.binary_linear_layers():
        if lyr.mode == "binary":
            pb = binary.pack(lyr._binary_signs(), binary.ALPHABET_PM1)
            packed_entries.append((f"{lyr.name}.packed", binary.packed_bytes(pb)))
    header = {
        "format": 1,
        "config": model.cfg.to_dict(),
        "seed": model.seed,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in entries],
        "packed": [{"name": n, "size": len(b)} for n, b in packed_entries],
    }
    blob = io.BytesIO()
    blob.write(SpikingTransformer.CKPT_MAGIC)
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob.write(struct.pack("<I", len(hb)))
    blob.write(hb)
    for _, a in entries:
        blob.write(np.ascontiguousarray(a, dtype="<f4").tobytes())
    for _, b in packed_entries:
        blob.write(b)
    return blob.getvalue()


def save_checkpoint(model: SpikingTransformer, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model))


def _require_like(value, ref, what: str) -> None:
    """Raise DataError unless the JSON value `value` has the shape of `ref`:
    objects with the same keys, lists whose items are each like ref's one
    item, and leaves of the same type (an int may stand for a float)."""
    if isinstance(ref, dict):
        if not isinstance(value, dict):
            raise DataError(f"{what} is not a JSON object")
        if value.keys() != ref.keys():
            raise DataError(f"{what}: unknown or missing keys {sorted(value.keys() ^ ref.keys())}")
        for key in ref:
            _require_like(value[key], ref[key], f"{what}.{key}")
    elif isinstance(ref, list):
        if not isinstance(value, list):
            raise DataError(f"{what} is not a JSON list")
        for i, item in enumerate(value):
            _require_like(item, ref[0], f"{what}[{i}]")
    elif type(value) is not type(ref) and not (type(ref) is float and type(value) is int):
        raise DataError(f"{what} is {value!r}, expected {type(ref).__name__}")


def load_checkpoint(path) -> SpikingTransformer:
    """Inverse of `save_checkpoint`. The model is built without a random
    init, since every parameter and buffer is read in. Each 1-bit image
    must equal the signs of its layer's standardized latent weights, and
    that comparison leaves the layer's sign cache filled for the first
    forward. A truncated, malformed or overlong container, a missing
    file, 1-bit images whose names, count, shapes or bits do not match
    the model's binary layers, or latents that cannot be binarized raise
    DataError."""
    read = binary.read_exact  # raises DataError on a short read
    with binary.open_input(path, "checkpoint") as fh:
        magic = fh.read(len(SpikingTransformer.CKPT_MAGIC))
        if magic != SpikingTransformer.CKPT_MAGIC:
            raise DataError(f"bad checkpoint magic: {magic!r}")
        (hlen,) = struct.unpack("<I", read(fh, 4, "checkpoint header length"))
        try:
            header = json.loads(read(fh, hlen, "checkpoint header"))
        except ValueError as exc:
            raise DataError(f"checkpoint header is not valid JSON: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != 1:
            raise DataError("checkpoint header is not a format-1 JSON object")
        _require_like(header, {
            "format": 1, "config": ModelConfig().to_dict(), "seed": 0,
            "arrays": [{"name": "", "shape": [0]}], "packed": [{"name": "", "size": 0}],
        }, "checkpoint header")
        if header["seed"] < 0:
            raise DataError(f"checkpoint seed {header['seed']} is negative")
        try:
            model = SpikingTransformer._blank(ModelConfig.from_dict(header["config"]),
                                              header["seed"])
        except ConfigError as exc:
            raise DataError(f"checkpoint config is invalid: {exc}") from None
        entries = model.state_entries
        names = [e["name"] for e in header["arrays"]]
        if names != [n for n, _ in entries]:
            raise DataError("checkpoint array manifest does not match the model layout")
        for spec, (_, arr) in zip(header["arrays"], entries):
            want = tuple(spec["shape"])
            if tuple(arr.shape) != want:
                raise DataError(f"shape mismatch for {spec['name']}: {want} vs {arr.shape}")
            raw = read(fh, arr.size * 4, f"checkpoint array {spec['name']}")
            arr[...] = np.frombuffer(raw, dtype="<f4").reshape(arr.shape)
        # one image per binary-mode layer, in layer order, each equal to
        # the signs of its weight, which seeds the layer's sign cache
        layers = [lyr for lyr in model.binary_linear_layers() if lyr.mode == "binary"]
        if [spec["name"] for spec in header["packed"]] != [f"{lyr.name}.packed" for lyr in layers]:
            raise DataError("checkpoint image manifest does not match the model's binary layers")
        for spec, lyr in zip(header["packed"], layers):
            name = spec["name"]
            pb = binary.packed_from_bytes(read(fh, spec["size"], f"checkpoint image {name}"))
            shape = lyr.weight.value.shape
            if (pb.rows, pb.cols) != shape:
                raise DataError(f"checkpoint image {name} is {pb.rows}x{pb.cols}, "
                                f"expected {shape[0]}x{shape[1]}")
            try:
                signs = lyr._binary_signs()
            except (NumericError, DegenerateWeightsError) as exc:
                raise DataError(f"checkpoint weight {lyr.name}.weight cannot be binarized: "
                                f"{exc}") from None
            if not np.array_equal(binary.unpack(pb, binary.ALPHABET_PM1), signs):
                raise DataError(f"checkpoint image {name} does not match the signs of "
                                f"{lyr.name}.weight")
        if fh.read(1):
            raise DataError("checkpoint has trailing bytes after its last section")
    return model
