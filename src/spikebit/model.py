"""The binary event-driven spiking transformer network.

Layers are small forward/backward objects with an explicit record (no
autodiff): LIF populations unrolled over time, binary linear/conv layers
(forward in exact float32 BLAS on the +-1 sign matrix; the packed
popcount kernel is the 1-bit storage format and the test oracle), batch
normalization, the spike-attention block (BSSA), the binary MLP (BMLP),
and two encoder topologies: reversible two-stream blocks with a
closed-form inverse, and the standard residual baseline.

The encoder state is a tuple of streams in both topologies: (x0, x1) in
reversible (a `ReversibleState`) and (x,) in residual. Every encoder
block's forward and backward take and return such a tuple. The model
decides once, as it is built, how many streams there are and which
stream each head reads (`SpikingTransformer.stream_heads`); its forward
and backward then run one path for both topologies.

The stem, each block and the model list their direct parts once, in
build order, through `parts()`, and `walk` visits them depth first; that
order is the checkpoint manifest's (arrays and 1-bit images alike).

Array layout is time-major and features last: activations are
(T, B, N, D) for token streams and (T, B, H, W, C) inside the
convolutional stem. Spikes are
bool, one byte each: a LIF returns them so, and a product widens them to
the float32 zeros and ones it multiplies. Attention maps before
binarization are nonnegative integers carried in float32 (exact below
2**24).

A training forward keeps what backward reads in its `ForwardRecord`, not
on the layers. Each spike tensor is kept once, at one bit per element
(`PackedSpikes`), by the layer that reads it: a binary linear or conv
layer packs the spikes it multiplies (Q, K and V one copy of the spikes
they share), and the attention block packs Q, K, V and the attention
spikes. Backward unpacks them while it reads them and widens them to the
float32 zeros and ones the forward multiplied, so the products match byte
for byte. Every backward pops the entry it reads, so one training forward
serves one backward. Backward writes in place where it owns the memory: a
LIF rebuilds its membranes over the input its caller hands back and
writes its input gradient over a lone upstream gradient, with the decayed
carry in one buffer of its own, and the BN under such a LIF writes its
input gradient over the LIF's. Both passes hold each float array only
until its last reader has run: a layer's output goes straight to the
next layer rather than to a name (bn1's output dies once lif2 has
fired), and the attention block's forward context and backward head
gradients come from helpers (`_attend`, `_head_grads`) whose Q, K, V,
head splits, map, spikes and gradients die as they return.

In either weight mode the record keeps little more than those spikes:
backward rebuilds every float activation it can from them, repeating the
forward's operations on the same operands, so byte for byte (gradient
checkpointing, Chen et al. 2016, arXiv:1604.06174, with an exact recompute):
- every BN follows a linear or conv layer and keeps its float32 mean and
  inverse deviation alone. Backward multiplies the layer's saved spikes
  and its sign or latent matrix again (in binary mode an integer sum,
  exact in any order) and normalizes with the kept statistics, in the
  forward's operations (`numeric._normalize`);
- a LIF keeps nothing. Its backward takes the forward's input and its
  bool spikes from its caller, which has the spikes from their reader's
  backward, and re-runs the membrane recurrence on that input, reading
  each reset gate from the spikes (`neuron._lif` with `gates`). A LIF fed
  by a BN, by the attention map or by the attention context gets that
  input rebuilt: the map and the context are sums of integer products,
  rebuilt from the saved Q, K, V and attention spikes (or the saved
  full-precision map).
The float arrays a record keeps are the inputs no spikes rebuild: the
conv stem keeps each later LIF's input, and the model keeps the encoder
state that enters every k-th block, k = ceil(sqrt(depth)), the first
being the stem's embedding (the sqrt(n) segments of Chen et al.).
Backward walks the segments from the last. It replays each segment's
couplings forward from its kept state (`EncoderBlock.replay`) on the
sub-block outputs rebuilt from their last product and BN, so it
recomputes the float32 streams each BSSA and BMLP read, byte for byte,
and hands each block its two as its backward runs. The stem's input LIF
keeps nothing, as no gradient at the model's input is taken.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Iterator, NamedTuple

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

# Binary-mode inference forwards run in sample tiles; this many rows
# (T * samples * tokens) are in flight across all tile workers, so the
# live activations stay near L2 size. 1024 was the fastest budget on the
# eval_wide benchmark; see forward.
INFER_TILE_ROWS = 1024

# Tiles run on at most this many threads, which each tiled forward
# starts and stops before it returns. Two were measured on a 2-vCPU
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

    `saved` holds every spike tensor once, at one bit per element (a
    `PackedSpikes`), in the entry of the layer or block that reads it. A
    LIF has no entry: backward hands it the spikes its reader kept.
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


class PackedSpikes:
    """A bool spike tensor at one bit per element: `np.packbits` of its
    elements in C order, and its shape. Not `binary.pack`: bool needs no
    alphabet check, and no product reads these words, so they need no
    64-bit row padding; both cost about 40 times the pack itself."""

    __slots__ = ("bits", "shape")

    def __init__(self, spikes: np.ndarray):
        self.bits = np.packbits(spikes.reshape(-1))
        self.shape = spikes.shape

    def unpack(self) -> np.ndarray:
        """The bool tensor again, in a new array."""
        flat = np.unpackbits(self.bits, count=math.prod(self.shape))
        return flat.view(np.bool_).reshape(self.shape)


class Param:
    """A trainable array plus its gradient accumulator.

    `grad` is None until `zero_grad` or the first `accumulate` makes it, so
    a model that only runs inference holds no gradients. `version`
    increments on every optimizer update so binary-weight sign matrices can
    be cached between updates and invalidated on change, and so a backward
    can check that its forward read the weights it still sees.
    """

    __slots__ = ("value", "grad", "version", "positive")

    def __init__(self, value: Tensor, positive: bool = False):
        self.value = np.asarray(value, dtype=DTYPE)
        self.grad = None
        self.version = 0
        self.positive = positive

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad[...] = 0.0

    def accumulate(self, g: Tensor) -> None:
        """Add `g` to the gradient, which starts from zeros."""
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

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

    Forward runs `neuron.lif_run`'s kernel and returns the spikes as bool;
    it keeps nothing, in a training forward too: the layers that read the
    spikes keep them (see `ForwardRecord`). Backward takes the forward's
    input and its spikes from its caller and re-runs the recurrence on the
    input, with the reset gates read from the spikes, to rebuild the
    membranes. The stem's input LIF has no backward. Backward routes
    gradients through the surrogate derivative at each firing decision and
    through the decay recurrence, with the reset gate held constant.
    """

    def __init__(self, params: neuron.LifParams):
        self.p = params

    def forward(self, x: Tensor) -> np.ndarray:
        """Bool spikes of `x`."""
        return neuron._lif(x, self.p)

    def backward(self, *g_spikes: Tensor, x: Tensor, spikes: np.ndarray) -> Tensor:
        """Gradient with respect to the input current, given `x`, the
        forward's input, as a float array, and `spikes`, the bool spikes
        that forward returned.

        A population whose spikes feed several layers takes one upstream
        gradient per layer. The surrogate derivative and the reset gate are
        computed once per timestep; each gradient runs its own decay
        recurrence, and the input gradients are summed from zero in
        argument order, exactly as summing separate backward calls would.

        Writes in place: the rebuilt membranes over `x`, and each upstream
        gradient's input gradient over it; a lone one is returned. Pass
        arrays the caller made for this call and does not read again. A
        gradient's step t writes g[t] * sg, plus the carry, over g[t], and
        the decayed carry tau * g[t] into that gradient's own carry buffer,
        so no step allocates a product or copies one.
        """
        u_pre = neuron._lif(x, self.p, gates=spikes)
        tau = DTYPE(self.p.tau)
        hard = self.p.reset is neuron.Reset.HARD
        carries = [np.zeros(g.shape[1:], dtype=g.dtype) for g in g_spikes]
        for t in range(u_pre.shape[0] - 1, -1, -1):
            sg = neuron.surrogate_grad(u_pre[t], self.p)
            keep = ~spikes[t] if hard else None  # 1 - s; a product widens it
            for g, carry in zip(g_spikes, carries):
                g_t = g[t]  # read before the input gradient is written over it
                g_t *= sg
                g_t += np.multiply(carry, keep, out=carry) if hard else carry
                np.multiply(tau, g_t, out=carry)
            del sg, keep  # before the next step's surrogate makes its own
        if len(g_spikes) == 1:
            return g_spikes[0]
        g_x = np.zeros_like(g_spikes[0])
        for g in g_spikes:
            g_x += g
        return g_x


class BinaryLinearLayer:
    """Linear layer over the trailing feature axis.

    In `binary` mode the latent weights are standardized and signed. The
    +-1 sign matrix is cached as int8, one byte per weight, until the next
    weight update, beside the standardization record that backward's
    straight-through estimator reuses, so a step standardizes each weight
    once. Inputs must be {0,1} spikes, and the product is float32 BLAS on
    the signs, which `_matrix` widens to float32 for that one product.
    That is exact: every partial sum is an integer of magnitude at most
    in_features, which stays below 2**24, so the result equals the packed
    AND/popcount kernel's (`binary.packed_linear`, the 1-bit storage
    format and the test oracle). In `full` mode the latent weights are
    used directly.

    Inputs must be spikes in either mode: bool, as a LIF returns them, or
    {0,1} numbers, which `_spikes` checks and turns into bool. A training
    forward packs the spikes it multiplied at one bit per element, and its
    entry holds them, their only copy in the record, and the weight
    version it multiplied. `_output_again` unpacks them and repeats the
    product, so the layers it feeds need not save it; backward unpacks
    and widens them again for the weight gradient, and returns them for
    the LIF that fired them. Both raise TrainingError when the weights
    were updated after the forward.
    """

    def __init__(self, name: str, in_features: int, out_features: int, rng: Rng,
                 mode: str = "binary", ste_clip: float = 1.0):
        if mode == "binary" and in_features >= numeric.EXACT_FLOAT32:
            raise ConfigError(
                f"{name}: in_features {in_features} >= 2**24; float32 sums of "
                f"binary products are no longer exact"
            )
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        self.mode = mode
        self.ste_clip = ste_clip
        std = 1.0 / np.sqrt(in_features)
        self.weight = Param(rng.normal((out_features, in_features), std=std))
        # (weight version, int8 +-1 signs, the StandardizationRecord they came from)
        self._sign_cache = None

    def _binary_signs(self) -> np.ndarray:
        return self._signs_and_record()[0]

    def _signs_and_record(self) -> tuple[np.ndarray, binary.StandardizationRecord]:
        """The int8 sign matrix of the current weights and its
        standardization record, from the cache while no optimizer step has
        bumped them."""
        cached = self._sign_cache
        if cached is None or cached[0] != self.weight.version:
            cached = (self.weight.version, *binary.latent_signs(self.weight.value))
            self._sign_cache = cached
        return cached[1:]

    def _matrix(self) -> Tensor:
        """The float32 matrix a product reads: in binary mode the cached
        signs widened for that one product, a copy that dies with it; in
        full mode the latent weights."""
        if self.mode == "binary":
            return self._binary_signs().astype(DTYPE)
        return self.weight.value

    def forward(self, x: Tensor, rec: ForwardRecord | None = None) -> Tensor:
        return self._product(self._spikes(x), rec)

    def _spikes(self, x: Tensor) -> np.ndarray:
        """`x` as bool spikes of in_features: bool input as it is, any
        other after its {0,1} check."""
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"{self.name}: input features {x.shape[-1]} != {self.in_features}"
            )
        if x.dtype != np.bool_:
            # {0,1} input exactly when every element equals 0 or 1 (two
            # boolean counts; counting nonzero floats directly is slower)
            ones = x == 1
            if np.count_nonzero(ones) + np.count_nonzero(x == 0) != x.size:
                binary.require_alphabet(x.reshape(-1, self.in_features),
                                        binary.ALPHABET_01)  # raises, naming the element
            x = ones
        return x

    def _product(self, s: np.ndarray, rec: ForwardRecord | None,
                 packed: PackedSpikes | None = None) -> Tensor:
        """The product on bool spikes from `_spikes`. A training forward
        saves them packed: as `packed`, their packed copy, when given."""
        flat = s.reshape(-1, self.in_features)
        if rec is not None:
            rec.spikes[self] = float(np.count_nonzero(flat))
        out = flat @ self._matrix().T  # the bool rows widen to float32 zeros and ones
        if _saving(rec):
            rec.saved[self] = (PackedSpikes(s) if packed is None else packed,
                               self.weight.version)
        return out.reshape(s.shape[:-1] + (self.out_features,))

    def _packed(self, rec: ForwardRecord) -> PackedSpikes:
        """The packed spikes of this layer's entry in `rec`, which this
        removes. Raises TrainingError when the weights were updated after
        the forward that saved it: its product read the old ones."""
        packed, version = _take(rec, self)
        if version != self.weight.version:
            raise TrainingError(
                f"{self.name}: weights updated between the forward and its backward "
                f"(version {version}, now {self.weight.version}); run backward before "
                f"the optimizer step"
            )
        return packed

    def _output_again(self, rec: ForwardRecord) -> Tensor:
        """The flattened output of the training forward that saved this
        layer's entry in `rec`: the forward's product again, on the same
        spikes and the same sign or latent matrix, so the forward's bytes.
        The entry stays for backward."""
        packed = self._packed(rec)
        rec.saved[self] = (packed, self.weight.version)
        return packed.unpack().reshape(-1, self.in_features) @ self._matrix().T

    def backward(self, g_out: Tensor, rec: ForwardRecord | None,
                 input_grad: bool = True) -> tuple[Tensor | None, np.ndarray]:
        """Accumulate the weight gradient. Returns the input gradient, or
        None without `input_grad` (the stem's first layer), and the bool
        spikes the forward multiplied, in the shape it read them."""
        s = self._packed(rec).unpack()
        g2 = g_out.reshape(-1, self.out_features)
        g_mat = g2.T @ s.reshape(-1, self.in_features).astype(DTYPE)
        if self.mode == "binary":
            # the forward standardized these weights: reuse its record
            record = self._signs_and_record()[1]
            self.weight.accumulate(binary.ste_backward(g_mat, self.weight.value, self.ste_clip,
                                                       record))
        else:
            self.weight.accumulate(g_mat)
        g_in = ((g2 @ self._matrix()).reshape(g_out.shape[:-1] + (self.in_features,))
                if input_grad else None)
        return g_in, s

    def params(self):
        return [(f"{self.name}.weight", self.weight)]


class BatchNormLayer:
    """Per-channel batch normalization over the trailing axis.

    A training forward saves the per-channel mean and inverse deviation
    alone; a forward on running statistics saves nothing. Backward takes
    xhat from its caller, which rebuilds it with `_normalize_again` from
    the forward's input (in the model, from the product that fed it).

    `bound` is the `in_features` of the binary-mode product that feeds
    the layer, or None: its inputs are then integers of magnitude at most
    `bound`, and `numeric._batch_norm` takes training statistics from
    exact integer moments.
    """

    def __init__(self, name: str, channels: int, epsilon: float = 1e-5, momentum: float = 0.1,
                 bound: int | None = None):
        self.name = name
        self.bound = bound
        self.gamma = Param(np.ones(channels, dtype=DTYPE))
        self.beta = Param(np.zeros(channels, dtype=DTYPE))
        self.running_mean = np.zeros(channels, dtype=DTYPE)
        self.running_var = np.ones(channels, dtype=DTYPE)
        self.epsilon = epsilon
        self.momentum = momentum
        self.channels = channels

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        """The normalized, scaled and shifted `x`, written over a float `x`:
        the caller made it for this call and does not read it again (in the
        model, the product the layer before made)."""
        out, mean, inv = numeric._batch_norm(x, self.bn_params(), training, self.name,
                                             self.bound, overwrite=True)
        if training and _saving(rec):
            rec.saved[self] = (mean, inv)
        return out

    def _normalize_again(self, rec: ForwardRecord, x: Tensor) -> Tensor:
        """xhat of the training forward that saved this layer's statistics
        in `rec`, rebuilt in place of `x`, that forward's input, with the
        forward's operations; the entry stays for backward."""
        mean, inv = _take(rec, self)
        rec.saved[self] = (mean, inv)
        return numeric._normalize(x, mean, inv, out=x)

    def _output_again(self, xhat: Tensor) -> Tensor:
        """The forward's output from its xhat, in a new array."""
        return numeric._scale_shift(xhat, self.gamma.value, self.beta.value)

    def backward(self, g_out: Tensor, rec: ForwardRecord | None, xhat: Tensor,
                 overwrite: bool = False) -> Tensor:
        """The gradient at the input, given the forward's `xhat` from
        `_normalize_again`. With `overwrite` it is written over `g_out`,
        which the caller then made for this call and does not read again.
        The four per-channel sums run `numeric._column_sums`, so each is
        `ndarray.sum`'s bytes in any layout of `g_out`."""
        _, inv = _take(rec, self)
        self.beta.accumulate(numeric._column_sums(g_out))
        tmp = g_out * xhat
        self.gamma.accumulate(numeric._column_sums(tmp))
        g_xhat = np.multiply(g_out, self.gamma.value, out=g_out if overwrite else None)
        n = float(math.prod(g_out.shape[:-1]))
        mean_g = numeric._column_sums(g_xhat) / n
        mean_gx = numeric._column_sums(np.multiply(g_xhat, xhat, out=tmp)) / n
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
        self.weight.accumulate(g_out.T @ x)
        self.bias.accumulate(g_out.sum(axis=0))
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
        self.scale.accumulate((g_out * x).sum(axis=axes).reshape(T, 1, 1))
        return binary._scale_time(g_out, self.scale.value)

    def params(self):
        return [(f"{self.name}.scale", self.scale)]


def _through_bn(g: Tensor, rec: ForwardRecord | None, proj: BinaryLinearLayer | Conv3x3Layer,
                bn: BatchNormLayer, lif: LifLayer | None = None, spikes: np.ndarray | None = None,
                input_grad: bool = True) -> tuple[Tensor | None, np.ndarray]:
    """Backward through `proj -> bn`, or through `proj -> bn -> lif` with
    `lif` and the `spikes` it fired, from the gradient `g` at the output.
    Returns what `proj.backward` does: the gradient at proj's input, or
    None without `input_grad`, and the spikes proj read. bn's input, its
    xhat, and the output of bn that lif read are rebuilt from proj's
    entry. With `lif`, `g` is written over: pass one made for this call."""
    xhat = _xhat_again(rec, proj, bn, g.shape)
    if lif is not None:  # lif writes the membranes over bn's output, and g_x over g
        g = lif.backward(g, x=bn._output_again(xhat), spikes=spikes)
    return proj.backward(bn.backward(g, rec, xhat, overwrite=lif is not None), rec, input_grad)


def _xhat_again(rec: ForwardRecord, proj: BinaryLinearLayer | Conv3x3Layer, bn: BatchNormLayer,
                shape: tuple) -> Tensor:
    """bn's xhat, in `shape`, of `proj -> bn` in the training forward that
    saved their entries in `rec`: proj's product again, normalized with
    bn's kept statistics in the forward's operations, so the forward's
    bytes. Both entries stay for backward."""
    return bn._normalize_again(rec, proj._output_again(rec).reshape(shape))


# ---------------------------------------------------------------------------
# convolution support (stem only)


def _im2col(x: Tensor, k: int, pad: int) -> Tensor:
    # x: (R, H, W, C) -> (R*H*W, C*k*k) with zero padding, stride 1; a row
    # holds each channel's k x k window in turn
    R, H, W, C = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    return win.reshape(R * H * W, C * k * k)  # (R, H, W, C, k, k): a copy


def _col2im(g_cols: Tensor, shape, k: int, pad: int) -> Tensor:
    """The adjoint of `_im2col`: the (R, H, W, C) gradient of its input.
    It sums into channels-first memory and returns a channels-last view
    of it: the batch norm backward it reaches sums in memory order, and
    this order fixes the stem's gradient bytes."""
    R, H, W, C = shape
    g = g_cols.reshape(R, H, W, C, k, k)
    out = np.zeros((R, C, H + 2 * pad, W + 2 * pad), dtype=g_cols.dtype)
    for di in range(k):
        for dj in range(k):
            out[:, :, di:di + H, dj:dj + W] += g[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return out[:, :, pad:pad + H, pad:pad + W].transpose(0, 2, 3, 1)


class Conv3x3Layer:
    """3x3 same-padding convolution over (T, B, H, W, C), channels last,
    as im2col + the binary linear kernel.

    Its input is a LIF's bool spikes, so the im2col matrix is bool, and a
    training forward saves it for backward at one bit per element: the
    record's only copy of those spikes, the centre tap of each window.
    Backward returns the gradient at the input, a channels-last view of
    channels-first memory (see `_col2im`), and the input spikes, read from
    the centre taps.
    """

    def __init__(self, name: str, in_ch: int, out_ch: int, rng: Rng, mode: str,
                 ste_clip: float = 1.0):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.linear = BinaryLinearLayer(name, in_ch * 9, out_ch, rng, mode=mode, ste_clip=ste_clip)

    def forward(self, x: Tensor, rec: ForwardRecord | None = None) -> Tensor:
        T, B, H, W, C = x.shape
        out = self.linear.forward(_im2col(x.reshape(T * B, H, W, C), 3, 1), rec)
        return out.reshape(T, B, H, W, self.out_ch)

    def _output_again(self, rec: ForwardRecord) -> Tensor:
        return self.linear._output_again(rec)

    def backward(self, g_out: Tensor, rec: ForwardRecord | None,
                 input_grad: bool = True) -> tuple[Tensor | None, np.ndarray]:
        T, B, H, W, _ = g_out.shape  # same padding: the input's extent
        g_cols, cols = self.linear.backward(g_out, rec, input_grad)
        g_in = (_col2im(g_cols, (T * B, H, W, self.in_ch), 3, 1).reshape(T, B, H, W, self.in_ch)
                if input_grad else None)
        return g_in, cols.reshape(T, B, H, W, self.in_ch, 9)[..., 4]  # each window's centre

    def parts(self):
        return (self.linear,)


class MaxPool2Layer:
    """2x2 stride-2 max pool over (T, B, H, W, C) on even extents. Each
    window is read in (di, dj) order, and the gradient routes to its first
    maximum. Backward returns a channels-last view of channels-first
    memory (see `_col2im`)."""

    def forward(self, x: Tensor, rec: ForwardRecord | None = None) -> Tensor:
        T, B, H, W, C = x.shape
        xr = x.reshape(T, B, H // 2, 2, W // 2, 2, C).transpose(0, 1, 2, 4, 6, 3, 5)
        xr = xr.reshape(T, B, H // 2, W // 2, C, 4)
        idx = xr.argmax(axis=-1)
        out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
        if _saving(rec):
            rec.saved[self] = (idx.astype(np.uint8),)  # 0..3, at one byte each
        return out

    def backward(self, g_out: Tensor, rec: ForwardRecord | None) -> Tensor:
        (idx,) = _take(rec, self)
        T, B, h, w, C = g_out.shape
        g = np.zeros((T, B, C, h, w, 4), dtype=g_out.dtype)
        np.put_along_axis(g, np.moveaxis(idx, -1, 2)[..., None],
                          np.moveaxis(g_out, -1, 2)[..., None], axis=-1)
        g = g.reshape(T, B, C, h, w, 2, 2).transpose(0, 1, 2, 3, 5, 4, 6)
        return np.moveaxis(np.ascontiguousarray(g).reshape(T, B, C, 2 * h, 2 * w), 2, -1)


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
        floats = {"tau": self.tau, "v_threshold": self.v_threshold,
                  "hidden_ratio": self.hidden_ratio, "ste_clip": self.ste_clip,
                  "attn_scale": self.attn_scale,
                  "surrogate.width_or_alpha": self.surrogate.width_or_alpha}
        for name, value in floats.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("ste_clip", "attn_scale"):
            if floats[name] <= 0:
                raise ConfigError(f"{name} must be positive, got {floats[name]}")
        if self.hidden_dim < 1:
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
    def distills(self) -> bool:
        """Whether the model has a distillation head, which reads the
        second stream of a reversible, dual-head model."""
        return self.topology == "reversible" and self.dual_head

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


class ReversibleState(NamedTuple):
    """The two-stream state threaded through reversible encoder blocks:
    the tuple of streams every encoder block takes and returns."""

    x0: Tensor
    x1: Tensor


# ---------------------------------------------------------------------------
# the stem


def _bound(cfg: ModelConfig, in_features: int) -> int | None:
    """The `BatchNormLayer` bound after a product of `in_features` inputs:
    in_features in binary mode, None in full mode, whose products are
    float sums."""
    return in_features if cfg.weight_mode == "binary" else None


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


class Stem:
    """Spiking patch splitting (SPS; Zhou et al. 2023, arXiv:2209.15425):
    `stages` of (lif, product, bn, pool), pool a `MaxPool2Layer` or None,
    that turn a batch of samples into the (T, B, N, D) embedding. Both
    input kinds (see `StemSpec`) run one loop each way, features last; the
    kind decides only what is built and how a sample is shaped: a vector
    becomes `tokens` chunks, an image (C, H, W) becomes (H, W, C). The
    first LIF reads the sample replicated over the T timesteps, and no
    backward reaches it: backward stops at the first product's weight
    gradient. A training forward keeps each later LIF's input, the stage
    before's output, for that LIF's backward, which takes the LIF's spikes
    from its product's backward.
    """

    def __init__(self, cfg: ModelConfig, rng: Rng):
        spec = cfg.stem
        D = cfg.embed_dim
        mode = dict(mode=cfg.weight_mode, ste_clip=cfg.ste_clip)
        if spec.kind == "vector":
            if spec.in_features % spec.tokens != 0:
                raise ConfigError(
                    f"in_features {spec.in_features} not divisible by tokens {spec.tokens}"
                )
            self.sample_shape = (spec.in_features,)
            self.grid = (spec.tokens,)
            chunk = spec.in_features // spec.tokens
            self.stages = [(LifLayer(cfg.lif()),
                            BinaryLinearLayer("stem.proj", chunk, D, rng.child(1), **mode),
                            BatchNormLayer("stem.bn", D, bound=_bound(cfg, chunk)), None)]
        elif spec.kind == "conv":
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
            self.sample_shape = (spec.in_channels, spec.image_size, spec.image_size)
            self.grid = (spec.image_size // patch,) * 2
            chans = [spec.in_channels, D // 8, D // 4, D // 2, D]
            self.stages = [(LifLayer(cfg.lif()),
                            Conv3x3Layer(f"stem.stage{i}.conv", chans[i], chans[i + 1],
                                         rng.child(10 + i), **mode),
                            BatchNormLayer(f"stem.stage{i}.bn", chans[i + 1],
                                           bound=_bound(cfg, 9 * chans[i])),
                            MaxPool2Layer() if i >= 4 - n_pool else None)
                           for i in range(4)]
        else:
            raise ConfigError(f"unknown stem kind {spec.kind!r}")
        self.kind = spec.kind
        self.timesteps = cfg.timesteps
        self.tokens = math.prod(self.grid)

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        _require_samples(x, self.sample_shape)
        B = x.shape[0]
        x = x.reshape(B, *self.grid, -1) if self.kind == "vector" else x.transpose(0, 2, 3, 1)
        # in C order: by default astype lays the broadcast time axis innermost
        h = np.broadcast_to(x, (self.timesteps,) + x.shape).astype(DTYPE, order="C")
        saving = _saving(rec)
        inputs = []  # each later LIF's input
        for i, (lif, product, bn, pool) in enumerate(self.stages):
            if i and saving:
                inputs.append(h)
            h = bn.forward(product.forward(lif.forward(h), rec), training, rec)
            if pool is not None:
                h = pool.forward(h, rec)
        if saving:
            rec.saved[self] = tuple(inputs)
        return h.reshape(h.shape[:2] + (self.tokens, h.shape[-1]))

    def backward(self, g: Tensor, rec: ForwardRecord | None) -> None:
        """Accumulate the stem's parameter gradients from the gradient at
        the embedding; no gradient at the input is taken."""
        inputs = list(_take(rec, self))
        g = g.reshape(g.shape[:2] + self.grid + g.shape[-1:])
        for i, (lif, product, bn, pool) in reversed(list(enumerate(self.stages))):
            if pool is not None:
                g = pool.backward(g, rec)
            g, spikes = _through_bn(g, rec, product, bn, input_grad=i > 0)
            if i:
                g = lif.backward(g, x=inputs.pop(), spikes=spikes)
            del spikes  # in the conv stem, a view of this stage's unpacked im2col rows

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
        self.q_bn, self.k_bn, self.v_bn, self.o_bn = (
            BatchNormLayer(f"{name}.{tag}_bn", D, bound=_bound(cfg, D)) for tag in "qkvo"
        )
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
        # the context is an argument alone, so it dies once o_in has fired
        return self.o_bn.forward(self.o_proj.forward(self.o_in.forward(
            self._attend(x, training, rec)), rec), training, rec)

    def _attend(self, x: Tensor, training: bool, rec: ForwardRecord | None) -> Tensor:
        """The attention context of the stream `x`, heads merged. Q, K and
        V, their head splits, the attention map and its spikes live in
        this call alone, so they die once the context exists; a training
        forward packs them first."""
        saving = _saving(rec)
        s = self.q_proj._spikes(self.x_in.forward(x))
        # Q, K and V read the same spikes: check them once, and all three
        # save one packed copy
        packed = PackedSpikes(s) if saving else None
        # backward rebuilds each float input (`_through_bn`)
        q, k, v = (lif.forward(bn.forward(proj._product(s, rec, packed), training, rec))
                   for proj, bn, lif in ((self.q_proj, self.q_bn, self.q_lif),
                                         (self.k_proj, self.k_bn, self.k_lif),
                                         (self.v_proj, self.v_bn, self.v_lif)))
        # a product of two bool arrays is a logical one: widen them first
        attn = self._attention(self._split(q, DTYPE), self._split(k, DTYPE))
        if np.any(attn < 0) or np.any(attn != np.round(attn)):
            raise NumericError(f"{self.name}: attention map is not a nonnegative integer tensor")
        if rec is not None and rec.taps is not None:
            rec.taps[self] = attn
        if self.binary_attn:
            s_attn = self.attn_lif.forward(attn)
            sops = float(np.count_nonzero(q) * attn.shape[-1]
                         + np.count_nonzero(s_attn) * self.head_dim)
        else:
            s_attn, sops = attn, 0.0
        if rec is not None:
            rec.sops[self] = sops
        if saving:
            # the head splits are re-made in backward; full-precision
            # attention keeps its integer map, which is no spike tensor
            rec.saved[self] = (*map(PackedSpikes, (q, k, v)),
                               PackedSpikes(s_attn) if self.binary_attn else attn)
        return self._context(s_attn.astype(DTYPE, copy=False), self._split(v, DTYPE))[1]

    @staticmethod
    def _attention(qh: Tensor, kh: Tensor) -> Tensor:
        """The attention map Q K^T of Q's and K's head splits: a sum of
        {0,1} products, so exact in any order."""
        return np.matmul(qh, kh.swapaxes(-1, -2))

    @staticmethod
    def _attention_backward(g_attn: Tensor, qh: Tensor, kh: Tensor) -> tuple[Tensor, Tensor]:
        """The gradients at Q's and at K's head splits from the gradient at
        their attention map: g_attn K and g_attn^T Q."""
        return np.matmul(g_attn, kh), np.matmul(g_attn.swapaxes(-1, -2), qh)

    def _context(self, s_attn: Tensor, vh: Tensor) -> tuple[Tensor, Tensor]:
        """The attention map's product with V's head splits, and the
        context it scales to (by lambda or attn_scale), heads merged. The
        product sums integers (below 2**24), so it is exact in any order."""
        ctx0 = np.matmul(s_attn, vh)
        ctx = self.lam.forward(ctx0) if self.binary_attn else ctx0 * self.attn_scale
        return ctx0, self._merge(ctx)

    @staticmethod
    def _context_backward(g: Tensor, s_attn: Tensor, vh: Tensor) -> tuple[Tensor, Tensor]:
        """The gradients at the attention map and at V's head splits from
        the gradient `g` at their product, before its scaling: g V^T and
        s_attn^T g."""
        return np.matmul(g, vh.swapaxes(-1, -2)), np.matmul(s_attn.swapaxes(-1, -2), g)

    def backward(self, g_out: Tensor, rec: ForwardRecord | None, x: Tensor) -> Tensor:
        """The gradient at the block's input, given `x`, the float32 stream
        the forward read. `x` is written over: the input LIF rebuilds its
        membranes there. Every other float input a LIF or BN read is
        rebuilt from the saved spikes and map: the attention map and the
        context are sums of integer products, scaled as the forward scaled
        them, and the projections' outputs are their forward products
        again (`_through_bn`), so each is the forward's bytes. Each LIF
        gets its spikes from their keeper: Q's, K's, V's and the attention
        spikes from this block's entry, o_in's and x_in's from the backward
        of a projection they feed."""
        (q, k, v), g_heads = self._head_grads(g_out, rec)
        # each head gradient is popped as its projection's backward runs,
        # so it dies once merged; Q, K and V unpacked again: kept as bool
        # since their splits, they raised train_deep's peak by 0.2 MiB
        g_s = []
        for lif, bn, proj, packed in ((self.q_lif, self.q_bn, self.q_proj, q),
                                      (self.k_lif, self.k_bn, self.k_proj, k),
                                      (self.v_lif, self.v_bn, self.v_proj, v)):
            g_x, s = _through_bn(self._merge(g_heads.pop(0)), rec, proj, bn, lif,
                                 packed.unpack())
            g_s.append(g_x)
        return self.x_in.backward(*g_s, x=x, spikes=s)  # the spikes Q, K and V read

    def _head_grads(self, g_out: Tensor,
                    rec: ForwardRecord) -> tuple[tuple[PackedSpikes, ...], list[Tensor]]:
        """Q's, K's and V's packed spikes from the block's entry, which
        this pops, and the gradients at their head splits, in that order,
        from the gradient at the block's output. The head splits, the map,
        the context and their gradients live in this call alone, so they
        die before the projections' backward runs."""
        q, k, v, s_attn = _take(rec, self)
        g, o_spikes = _through_bn(g_out, rec, self.o_proj, self.o_bn)
        vh = self._split(v.unpack(), DTYPE)
        s_attn = s_attn.unpack() if self.binary_attn else s_attn
        attn_in = s_attn.astype(DTYPE, copy=False)  # the map the context read
        ctx0, ctx = self._context(attn_in, vh)
        g = self._split(self.o_in.backward(g, x=ctx, spikes=o_spikes))
        del ctx, o_spikes
        if self.binary_attn:
            g = self.lam.backward(g, ctx0)  # at the product, before lambda scaled it
        del ctx0
        g_attn, g_vh = self._context_backward(g, attn_in, vh)
        del g, vh, attn_in
        qh, kh = self._split(q.unpack(), DTYPE), self._split(k.unpack(), DTYPE)
        if self.binary_attn:
            g_attn = self.attn_lif.backward(g_attn, x=self._attention(qh, kh), spikes=s_attn)
        else:
            g_attn *= self.attn_scale
            g_vh *= self.attn_scale
        return (q, k, v), [*self._attention_backward(g_attn, qh, kh), g_vh]

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
        self.bn1 = BatchNormLayer(f"{name}.bn1", hidden, bound=_bound(cfg, D))
        self.lif2 = LifLayer(cfg.lif())
        self.fc2 = BinaryLinearLayer(f"{name}.fc2", hidden, D, rng.child(2),
                                     mode=cfg.weight_mode, ste_clip=cfg.ste_clip)
        self.bn2 = BatchNormLayer(f"{name}.bn2", D, bound=_bound(cfg, hidden))

    def forward(self, x: Tensor, training: bool, rec: ForwardRecord | None = None) -> Tensor:
        # no name holds an activation: bn1's output, the float hidden map,
        # dies once lif2 has fired, before fc2's product widens the spikes
        out = self.bn2.forward(self.fc2.forward(self.lif2.forward(self.bn1.forward(
            self.fc1.forward(self.lif1.forward(x), rec), training, rec)), rec), training, rec)
        if rec is not None and rec.taps is not None:
            rec.taps[self] = out  # the final normalized map, for rep-cap probes
        return out

    def backward(self, g: Tensor, rec: ForwardRecord | None, x: Tensor) -> Tensor:
        """The gradient at the block's input, given `x`, the float32 stream
        the forward read. `x` is written over: lif1 rebuilds its membranes
        there. lif2's input is rebuilt from fc1's entry (`_through_bn`).
        Each LIF gets its spikes from the backward of the layer it feeds."""
        g, spikes = _through_bn(g, rec, self.fc2, self.bn2)
        g, spikes = _through_bn(g, rec, self.fc1, self.bn1, self.lif2, spikes)
        return self.lif1.backward(g, x=x, spikes=spikes)

    def parts(self):
        return (self.lif1, self.fc1, self.bn1, self.lif2, self.fc2, self.bn2)


class EncoderBlock:
    """A BSSA and a BMLP sub-block, coupled to the encoder's streams by the
    subclass's `_couple`. `forward` and `backward` take and return a tuple
    of streams (or of their gradients) and never write their input.

    A training forward keeps nothing of the streams: the model keeps the
    state that enters every k-th block (see `SpikingTransformer`), and
    `replay` recomputes the streams the sub-blocks read from the state
    that enters this block. Its coupling runs `_couple`, as the forward's
    does, on the sub-blocks' outputs rebuilt from their last product and
    batch norm entries (o_proj -> o_bn, fc2 -> bn2; `_xhat_again`), so
    it repeats the forward's bytes.
    Backward takes the list of those two float32 streams, the BSSA's then
    the BMLP's, and empties it: it pops each for its sub-block's backward,
    which writes over it, so each is dropped when that returns."""

    def __init__(self, name: str, cfg: ModelConfig, rng: Rng):
        self.name = name
        self.bssa = BssaBlock(f"{name}.bssa", cfg, rng.child(1))
        self.bmlp = BmlpBlock(f"{name}.bmlp", cfg, rng.child(2))

    def forward(self, s: tuple[Tensor, ...], training: bool,
                rec: ForwardRecord | None = None) -> tuple[Tensor, ...]:
        return self._couple(s, lambda x: self.bssa.forward(x, training, rec),
                            lambda x: self.bmlp.forward(x, training, rec))[1]

    def replay(self, s: tuple[Tensor, ...], rec: ForwardRecord,
               last: bool) -> tuple[list[Tensor], tuple[Tensor, ...] | None]:
        """The two streams the sub-blocks read in the training forward that
        saved their entries in `rec`, recomputed from `s`, the state that
        entered the block, and the state the block returned. With `last`
        the BMLP's output is not rebuilt and the state returned is None:
        nothing reads the output of a segment's last block. The entries
        stay for backward."""
        def output(proj, bn):  # the sub-block's output, from its last product and BN
            return lambda x: bn._output_again(_xhat_again(rec, proj, bn, x.shape))

        return self._couple(s, output(self.bssa.o_proj, self.bssa.o_bn),
                            None if last else output(self.bmlp.fc2, self.bmlp.bn2))

    def parts(self):
        return (self.bssa, self.bmlp)


class ReversibleBlock(EncoderBlock):
    """Two-stream coupling with a closed-form inverse:

        x0' = BSSA(x1) + (x0 + x1) / 2
        x1' = BMLP(x0') + (x1 + x0') / 2

    The inverse re-simulates the sub-blocks from the same zero neuron
    state, which is what makes reconstruction exact up to float32
    rounding.
    """

    @staticmethod
    def _couple(s: tuple[Tensor, Tensor], attend, mlp) -> tuple[list[Tensor],
                                                                 ReversibleState | None]:
        """The sub-blocks' input streams (x1, x0') and the output state,
        with `attend` and `mlp` giving BSSA(x1) and BMLP(x0'), or None for
        the state without `mlp`."""
        # The coupling algebra follows the state dtype. Training uses
        # float32 states; the reconstruction harness threads float64
        # states because the inverse amplifies stream error by a factor
        # of roughly 4.5 per unwound block, which at depth 4 lifts
        # float32 storage rounding to the 1e-4 scale and can flip
        # borderline spikes. Sub-blocks always evaluate on the float32
        # cast, so both directions see bit-identical inputs.
        x0, x1 = s
        xa = np.ascontiguousarray(x1, dtype=DTYPE)
        a = attend(xa)
        x0n = x0 + x1
        x0n *= 0.5
        x0n += a  # a + 0.5 * (x0 + x1), in the state dtype
        del a
        xm = np.ascontiguousarray(x0n, dtype=DTYPE)
        if mlp is None:
            return [xa, xm], None
        m = mlp(xm)
        x1n = x1 + x0n
        x1n *= 0.5
        x1n += m  # m + 0.5 * (x1 + x0n)
        return [xa, xm], ReversibleState(x0n, x1n)

    def inverse(self, s: tuple[Tensor, Tensor]) -> ReversibleState:
        y0, y1 = s
        m = self.bmlp.forward(np.ascontiguousarray(y0, dtype=DTYPE), training=False)
        x1 = 2.0 * (y1 - m) - y0
        a = self.bssa.forward(np.ascontiguousarray(x1, dtype=DTYPE), training=False)
        x0 = 2.0 * (y0 - a) - x1
        return ReversibleState(x0, x1)

    def backward(self, gs: tuple[Tensor, Tensor], rec: ForwardRecord | None,
                 streams: list[Tensor]) -> tuple[Tensor, Tensor]:
        g0, g1 = gs
        g0_total = g0 + self.bmlp.backward(g1, rec, streams.pop()) + 0.5 * g1
        g_x1 = 0.5 * g1 + self.bssa.backward(g0_total, rec, streams.pop()) + 0.5 * g0_total
        return 0.5 * g0_total, g_x1


class ResidualBlock(EncoderBlock):
    """Standard (non-reversible) encoder block on one stream:
    x += BSSA(x); x += BMLP(x)."""

    @staticmethod
    def _couple(s: tuple[Tensor], attend, mlp) -> tuple[list[Tensor], tuple[Tensor] | None]:
        """The sub-blocks' input streams (x, x + BSSA(x)) and the output
        state, with `attend` and `mlp` giving BSSA and BMLP of their
        stream, or None for the state without `mlp`."""
        (x,) = s
        h = x + attend(x)
        if mlp is None:
            return [x, h], None
        return [x, h], ((h + mlp(h)).astype(DTYPE, copy=False),)

    def backward(self, gs: tuple[Tensor], rec: ForwardRecord | None,
                 streams: list[Tensor]) -> tuple[Tensor]:
        (g,) = gs
        g = g + self.bmlp.backward(g, rec, streams.pop())
        return (g + self.bssa.backward(g, rec, streams.pop()),)


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

    The encoder carries a tuple of streams: the (x0, x1) pair in
    reversible topology, the one stream (x,) in residual. `stream_heads`
    is the head table, one (head, stream index) pair per stream with the
    classification head's first: that head reads the stream `classify_on`
    names (the only one in residual), and the distillation head, or None,
    reads the other. `forward`, `backward` and `heads_forward` read the
    table, so only `_build` (and `run_reversible`'s check) looks at the
    topology.

    The blocks run in segments of `segment` = ceil(sqrt(depth)) blocks,
    the last one shorter when the segment does not divide the depth. A
    training forward keeps the state that enters each segment in the
    model's record entry, the embedding first; backward replays each
    segment from its state (`EncoderBlock.replay`), then runs its blocks'
    backward, the segments from last to first. The record thus holds
    ceil(depth / segment) states rather than two streams per block, and
    backward at most one segment's streams besides.
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
        self.stem = Stem(cfg, rng.child(0))
        self.reversible = cfg.topology == "reversible"
        cls_blk, streams = (ReversibleBlock, 2) if self.reversible else (ResidualBlock, 1)
        self.blocks = [cls_blk(f"block{i}", cfg, rng.child(100 + i)) for i in range(cfg.depth)]
        self.segment = math.isqrt(cfg.depth - 1) + 1  # blocks per replayed segment: ceil(sqrt)
        D = cfg.embed_dim
        self.head_cls = LinearHead("head_cls", D, cfg.num_classes, rng.child(900))
        self.head_dist = (LinearHead("head_dist", D, cfg.num_classes, rng.child(901))
                          if cfg.distills else None)
        # the head table: one (head, stream it reads) pair per stream
        c = ("x0", "x1").index(cfg.classify_on) % streams
        self.stream_heads = ((self.head_cls, c), (self.head_dist, 1 - c))[:streams]
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
        return self._heads(pooled, rec)

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
        # blocks never write their input state, so the streams share the
        # embedding, which dies with the first block's state unless kept
        streams = (self.embed(x, training, rec),) * len(self.stream_heads)
        saving, kept = _saving(rec), []
        for i, blk in enumerate(self.blocks):
            if saving and i % self.segment == 0:
                kept.append(streams)  # the state entering the segment
            streams = blk.forward(streams, training, rec)
        if saving:
            rec.saved[self] = tuple(kept)
        return [h.mean(axis=(0, 2)) for h in streams], rec

    def _encode_tiled(self, x: Tensor, taps: bool) -> tuple[list[Tensor], ForwardRecord]:
        """`_encode` for binary-mode inference, one sample tile at a time.
        With one worker, or one tile, the tiles run inline on the calling
        thread; otherwise on `workers` threads that this call starts and
        stops, so none outlives it. The first failure in tile order is
        raised. Pooled means are concatenated along the batch axis and
        the tile records merged, both in tile order."""
        workers = _infer_workers()
        tile = max(1, INFER_TILE_ROWS // workers // (self.cfg.timesteps * self.stem.tokens))
        tiles = [x[start:start + tile] for start in range(0, x.shape[0], tile)]
        if workers == 1 or len(tiles) == 1:
            results = [self._encode(t, False, ForwardRecord(taps)) for t in tiles]
        else:
            for lyr in self.binary_linear_layers():
                lyr._binary_signs()  # tiles only read the sign caches
            pool = ThreadPoolExecutor(workers, thread_name_prefix="spikebit-tile")
            try:
                futures = [pool.submit(self._encode, t, False, ForwardRecord(taps)) for t in tiles]
                results = [f.result() for f in futures]  # the first failure in tile order
            finally:
                pool.shutdown(cancel_futures=True)  # no tile outlives the call
        pooled = [np.concatenate(stream) for stream in zip(*(p for p, _ in results))]
        return pooled, ForwardRecord.merged([r for _, r in results])

    def _heads(self, pooled: list[Tensor],
               rec: ForwardRecord | None = None) -> tuple[Tensor, Tensor | None]:
        """Classification and distillation logits (None without a
        distillation head), each head on its stream's pooled mean."""
        logits = [head.forward(pooled[i], rec) if head else None
                  for head, i in self.stream_heads]
        return (*logits, None)[:2]

    def backward(self, g_logits: Tensor, g_dist: Tensor | None = None) -> None:
        """Backprop the logit gradients of the last training forward into
        every parameter's `grad`, popping that forward's record as it goes.
        Without a training forward to consume it raises TrainingError."""
        rec, self._record = self._record, None
        kept = list(_take(rec, self))
        T, B, N, D = kept[0][0].shape
        scale = DTYPE(1.0 / (T * N))

        gs = [None] * len(self.stream_heads)
        for (head, i), g in zip(self.stream_heads, (g_logits, g_dist)):
            g = head.backward(g, rec) if head and g is not None else np.zeros((B, D), DTYPE)
            gs[i] = np.broadcast_to(g[None, :, None, :] * scale, (T, B, N, D)).astype(DTYPE)
        for start in reversed(range(0, len(self.blocks), self.segment)):
            segment = self.blocks[start:start + self.segment]
            s, streams = kept.pop(), []
            for blk in segment:  # from the kept state, each block's streams again
                inputs, s = blk.replay(s, rec, last=blk is segment[-1])
                streams.append(inputs)
            for blk in reversed(segment):
                gs = blk.backward(gs, rec, streams.pop())
        self.stem.backward(sum(gs[1:], gs[0]), rec)  # both streams start as the embedding

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
        state = stem_state = ReversibleState(e, e)
        for blk in self.blocks:
            state = blk.forward(state, training=False)
        return stem_state, state

    def invert(self, final: ReversibleState) -> ReversibleState:
        state = final
        for blk in reversed(self.blocks):
            state = blk.inverse(state)
        return state

    def heads_forward(self, s: tuple[Tensor, ...]) -> tuple[Tensor, Tensor | None]:
        """The heads on a final encoder state (a tuple of streams, such as a
        `ReversibleState`), pooled as `forward` pools it."""
        return self._heads([h.mean(axis=(0, 2)) for h in s])

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


def save_checkpoint(model: SpikingTransformer, path) -> None:
    """Write the versioned binary container to a path or an open binary
    file: magic, u32 header length, JSON header (config, seed, and the
    array manifest), raw little-endian float32 blobs in manifest order,
    then the packed 1-bit weight images in the PackedBits layout."""
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
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    binary.write_container(path, SpikingTransformer.CKPT_MAGIC, struct.pack("<I", len(hb)), hb,
                           *(np.ascontiguousarray(a, dtype="<f4") for _, a in entries),
                           *(b for _, b in packed_entries))


def checkpoint_bytes(model: SpikingTransformer) -> bytes:
    """The bytes `save_checkpoint` writes."""
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    return buf.getvalue()


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
    file, a config whose arrays need more bytes than the file holds
    (checked before any is allocated), an array holding a value that is
    not finite, a lambda scale that is not positive, a BN running
    variance below 0, 1-bit images whose names, count, shapes or bits do
    not match the model's binary layers, or latents that cannot be
    binarized raise DataError."""
    with binary.ContainerReader(path, SpikingTransformer.CKPT_MAGIC, "checkpoint") as r:
        (hlen,) = r.unpack("<I", "header length")
        try:
            header = json.loads(r.read(hlen, "header"))
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
        from .metrics import param_counts  # metrics imports this module
        try:
            cfg = ModelConfig.from_dict(header["config"])
            # the arrays the config makes must fit in the file before any is made
            need = 4 * param_counts(cfg)["state_values"]
            if need > r.left:
                raise ConfigError(f"its arrays need {need} bytes, and {r.left} follow the header")
            model = SpikingTransformer._blank(cfg, header["seed"])
        except (ConfigError, DataError) as exc:
            raise DataError(f"checkpoint config is invalid: {exc}") from None
        entries = model.state_entries
        names = [e["name"] for e in header["arrays"]]
        if names != [n for n, _ in entries]:
            raise DataError("checkpoint array manifest does not match the model layout")
        layers = [lyr for lyr in model.binary_linear_layers() if lyr.mode == "binary"]
        binarized = {f"{lyr.name}.weight" for lyr in layers}  # binarization checks these
        for spec, (name, arr) in zip(header["arrays"], entries):
            if tuple(arr.shape) != tuple(spec["shape"]):
                raise DataError(f"checkpoint array {name} has shape {tuple(spec['shape'])}, "
                                f"expected {arr.shape}")
            arr[...] = r.array("<f4", arr.shape, f"array {name}")
            if name not in binarized and not np.isfinite(arr).all():
                raise DataError(f"checkpoint array {name} holds a value that is not finite")
        for lam in walk(model, LambdaLayer):
            if not (lam.scale.value > 0).all():
                raise DataError(f"checkpoint array {lam.name}.scale holds a lambda scale "
                                f"that is not positive")
        for bn in walk(model, BatchNormLayer):
            if (bn.running_var < 0).any():
                raise DataError(f"checkpoint array {bn.name}.running_var holds a variance "
                                f"below 0")
        # one image per binary-mode layer, in layer order, each equal to
        # the signs of its weight, which seeds the layer's sign cache
        if [spec["name"] for spec in header["packed"]] != [f"{lyr.name}.packed" for lyr in layers]:
            raise DataError("checkpoint image manifest does not match the model's binary layers")
        for spec, lyr in zip(header["packed"], layers):
            name = f"image {spec['name']}"
            pb = binary.read_packed(r.read(spec["size"], name), f"checkpoint {name}")
            shape = lyr.weight.value.shape
            if (pb.rows, pb.cols) != shape:
                raise DataError(f"checkpoint {name} is {pb.rows}x{pb.cols}, "
                                f"expected {shape[0]}x{shape[1]}")
            try:
                signs = lyr._binary_signs()
            except (NumericError, DegenerateWeightsError) as exc:
                raise DataError(f"checkpoint weight {lyr.name}.weight cannot be binarized: "
                                f"{exc}") from None
            if not np.array_equal(binary.unpack(pb, binary.ALPHABET_PM1), signs):
                raise DataError(f"checkpoint {name} does not match the signs of "
                                f"{lyr.name}.weight")
    return model
