"""Dense-tensor substrate: float32 arrays, shape-checked matmul, batch
normalization, seeded RNG, and the central-difference gradient oracle.

Tensors are plain ``numpy.ndarray`` objects in row-major order. The
real-valued model path stores and returns float32; reductions that feed
statistics (means, variances) accumulate in float64 before being cast
back, which keeps invariants such as "standardized mean is zero" tight
without leaving 32-bit storage semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float32

Tensor = np.ndarray

# float32 holds every integer of magnitude up to 2**24 exactly
EXACT_FLOAT32 = 1 << 24


def require_finite(x: Tensor, what: str = "tensor") -> Tensor:
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(np.ravel(x)))[0])
        raise NumericError(f"{what} contains a non-finite value at flat index {bad}")
    return x


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Shape-checked 2-D matrix product with a fixed accumulation order.

    The contraction runs left-to-right over the inner axis (einsum's
    sequential C loop, no BLAS dispatch), so results are reproducible
    bit-for-bit across runs. Intended for reference computations and
    oracles; hot paths use BLAS on integer-exact float32 operands instead.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )
    require_finite(a, "matmul lhs")
    require_finite(b, "matmul rhs")
    out = np.einsum("mk,kn->mn", a.astype(DTYPE), b.astype(DTYPE), optimize=False)
    return out.astype(DTYPE)


@dataclass
class BatchNormParams:
    """Per-channel affine normalization state.

    `gamma`/`beta` are the learnable scale and shift; `running_mean` and
    `running_var` hold the inference-time statistics, updated in training
    mode with momentum `momentum` (new = (1-m)*old + m*batch).
    """

    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor
    epsilon: float = 1e-5
    momentum: float = 0.1

    @classmethod
    def create(cls, channels: int, epsilon: float = 1e-5, momentum: float = 0.1) -> "BatchNormParams":
        return cls(
            gamma=np.ones(channels, dtype=DTYPE),
            beta=np.zeros(channels, dtype=DTYPE),
            running_mean=np.zeros(channels, dtype=DTYPE),
            running_var=np.ones(channels, dtype=DTYPE),
            epsilon=epsilon,
            momentum=momentum,
        )

    @property
    def channels(self) -> int:
        return int(self.gamma.shape[0])


def batch_norm(x: Tensor, p: BatchNormParams, training: bool = False) -> Tensor:
    """Normalize-scale-shift over the trailing channel axis, in float32.

    Training mode uses the batch statistics (population variance, float64
    accumulation, then cast to float32) and blends them into the running
    statistics in place, in float32. Inference mode uses the stored
    running statistics. Runs the kernel of the model's BN layers.
    """
    return _batch_norm(np.asarray(x, dtype=DTYPE), p, training, "batch_norm")[0]


def _batch_norm(x: Tensor, p: BatchNormParams, training: bool, what: str,
                bound: int | None = None,
                overwrite: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """Batch norm in x's float dtype, float32 for any other input: (out,
    mean, inv), with out = `_scale_shift(xhat, ...)` written over xhat =
    `_normalize(x, mean, inv)`. With `overwrite`, xhat is written over x,
    which the caller then made for this call and does not read again.
    Errors name `what`.

    `bound` says that x holds integers of magnitude at most `bound`, as a
    binary product of that many {0,1} inputs and +-1 signs does. Where
    `_exact_moments` can use it, training statistics come from exact
    integer moments; elsewhere from numpy's float64 two-pass variance."""
    if x.shape[-1] != p.channels:
        raise ShapeError(
            f"{what}: channel mismatch: input has {x.shape[-1]} channels, "
            f"params have {p.channels}"
        )
    if x.dtype.kind != "f":
        x = x.astype(DTYPE)
    dt = x.dtype
    if training:
        flat = x.reshape(-1, p.channels)
        n = flat.shape[0]
        if bound is not None and bound * bound <= EXACT_FLOAT32 and n * bound <= 1 << 26:
            mean64, var64 = _exact_moments(flat, bound)
        else:
            mean64 = flat.mean(axis=0, dtype=np.float64)
            var64 = flat.var(axis=0, dtype=np.float64, mean=mean64[None])  # mean not summed twice
        mean, var = mean64.astype(dt), var64.astype(dt)
        m = p.momentum
        p.running_mean[:] = ((1.0 - m) * p.running_mean + m * mean).astype(DTYPE)
        p.running_var[:] = ((1.0 - m) * p.running_var + m * var).astype(DTYPE)
    else:
        mean, var = p.running_mean, p.running_var
    denom = var + dt.type(p.epsilon)
    if np.any(denom <= 0):
        bad = int(np.flatnonzero(denom <= 0)[0])
        raise NumericError(f"{what}: variance + epsilon <= 0 at channel {bad}")
    inv = 1.0 / np.sqrt(denom)
    xhat = _normalize(x, mean, inv, out=x if overwrite else None)
    return _scale_shift(xhat, p.gamma, p.beta, out=xhat), mean, inv


def _exact_moments(flat: Tensor, bound: int) -> tuple[Tensor, Tensor]:
    """Per-column mean and population variance, in float64, of a (n, C)
    matrix of integers of magnitude at most `bound`, with bound**2 <= 2**24
    and n * bound <= 2**26.

    Σx and Σx·x are sums of BLAS products of a ones row with blocks of x
    and of x·x (exact in x's dtype, since |x| <= 2**12). A block holds at
    most 2**24 / bound rows for Σx and 2**24 / bound**2 for Σx·x, so every
    partial sum is an integer of magnitude at most 2**24, exact in
    float32 in any summation order; the block sums then add exactly in
    float64. The mean Σx/n is numpy's float64 mean to the byte; the
    variance (n·Σx·x - (Σx)²)/n² is the true variance correctly rounded
    once, since both products stay below 2**52."""
    n = flat.shape[0]
    s1 = _block_sums(flat, EXACT_FLOAT32 // bound)
    s2 = _block_sums(flat * flat, EXACT_FLOAT32 // (bound * bound))
    return s1 / n, (n * s2 - s1 * s1) / float(n * n)


def _block_sums(a: Tensor, rows: int) -> Tensor:
    """Column sums of the (n, C) matrix `a` as float64: a ones row's BLAS
    product with each block of `rows` rows, added up in float64."""
    ones = np.ones(min(rows, a.shape[0]), dtype=a.dtype)
    total = np.zeros(a.shape[1], dtype=np.float64)
    for start in range(0, a.shape[0], rows):
        block = a[start:start + rows]
        total += ones[:len(block)] @ block
    return total


def _column_sums(a: Tensor) -> Tensor:
    """The sums of `a` over every axis but the last, in `a.sum`'s bytes.

    numpy sums a C-contiguous (R, C) matrix over its rows one row at a
    time, through a slow outer loop; einsum adds the same rows in the same
    order several times faster. Other layouts keep `a.sum`, which sums in
    memory order, so its order cannot be matched in general; a single
    channel keeps it too, since its rows are contiguous and numpy then
    sums them pairwise."""
    C = a.shape[-1]
    if a.flags.c_contiguous and C > 1:
        return np.einsum("ij->j", a.reshape(-1, C))
    return a.sum(axis=tuple(range(a.ndim - 1)))


def _product_column_sums(a: Tensor, b: Tensor) -> Tensor:
    """`_column_sums(a * b)`, in its bytes, for two arrays of one shape.

    Where both are C-contiguous with more than one channel, einsum takes
    each row's products and adds them into the sums in that same order,
    without making the product array; other layouts, and a single
    channel, make it and keep `_column_sums`."""
    C = a.shape[-1]
    if a.flags.c_contiguous and b.flags.c_contiguous and C > 1:
        return np.einsum("ij,ij->j", a.reshape(-1, C), b.reshape(-1, C))
    return _column_sums(a * b)


def _normalize(x: Tensor, mean: Tensor, inv: Tensor, out: Tensor | None = None) -> Tensor:
    """(x - mean) * inv, in `out` or a new array: batch norm's xhat.
    Backward passes that rebuild xhat from a forward's input and
    statistics run this too, so they get the forward's bytes; an integer
    copy of that input widens exactly, so it gives them as well."""
    xhat = np.subtract(x, mean, out=out)
    xhat *= inv
    return xhat


def _scale_shift(xhat: Tensor, gamma: Tensor, beta: Tensor, out: Tensor | None = None) -> Tensor:
    """xhat * gamma + beta, in `out` or a new array: batch norm's output."""
    out = np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-4) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at
    a time: (f(x + h*e_i) - f(x - h*e_i)) / (2h).

    This is the independent oracle used by every gradient test; it never
    shares code with the analytic backward passes it checks.
    """
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"finite_diff_grad: f non-finite at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


@dataclass
class Rng:
    """Deterministic random source.

    Algorithm: numpy PCG64 seeded through ``SeedSequence(seed)`` (or
    ``SeedSequence([seed, tag])`` for child streams), so identical seeds
    produce identical sequences on every platform numpy supports.
    """

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def child(self, tag: int) -> "Rng":
        """Independent substream derived from (seed, tag)."""
        rng = Rng.__new__(Rng)
        rng.seed = self.seed
        rng._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, tag]))
        )
        return rng

    def normal(self, shape, std: float = 1.0, mean: float = 0.0) -> Tensor:
        return (mean + std * self._gen.standard_normal(shape)).astype(DTYPE)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> Tensor:
        return self._gen.uniform(low, high, size=shape).astype(DTYPE)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
