"""Weight binarization and the bit-packed popcount kernel.

Binary weights live in {-1, +1} and spikes in {0, 1}; both are packed one
bit per element into little-endian 64-bit words (+1 and 1 map to a set
bit). For a spike row s and a signed weight row w the integer dot product
reduces to pure bitwise work:

    dot(s, w) = 2 * popcount(s AND w) - popcount(s)

which is exact because every spike contributes +1 where the weight bit is
set and -1 where it is clear.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateWeightsError,
    EncodingError,
    ShapeError,
)
from .numeric import DTYPE, Tensor, require_finite

WORD_BITS = 64
_PACK_MAGIC = b"SPKBITS\x01"
_READ_CHUNK = 1 << 24

# {0,1} spikes: 1 -> set bit.  {-1,+1} signs: +1 -> set bit.
ALPHABET_01 = "01"
ALPHABET_PM1 = "pm1"


@dataclass
class PackedBits:
    """Word-packed 1-bit matrix; rows x cols elements, row-major, each row
    padded with zero bits to a 64-bit word boundary."""

    rows: int
    cols: int
    words: np.ndarray  # (rows, words_per_row) uint64

    @property
    def words_per_row(self) -> int:
        return (self.cols + WORD_BITS - 1) // WORD_BITS


def require_alphabet(m: np.ndarray, alphabet: str) -> None:
    """Raise EncodingError naming the first element of `m` outside the
    alphabet ({0,1} spikes or {-1,+1} signs)."""
    if alphabet == ALPHABET_01:
        ok = (m == 0) | (m == 1)
    elif alphabet == ALPHABET_PM1:
        ok = (m == -1) | (m == 1)
    else:
        raise ConfigError(f"unknown alphabet {alphabet!r}")
    if not ok.all():
        idx = np.argwhere(~ok)[0]
        raise EncodingError(
            f"element {m[tuple(idx)]!r} at index {tuple(int(i) for i in idx)} "
            f"is outside alphabet {alphabet!r}"
        )


def _to_bits(m: Tensor, alphabet: str) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"pack expects a 2-D matrix, got shape {m.shape}")
    require_alphabet(m, alphabet)
    bits = m != 0 if alphabet == ALPHABET_01 else m > 0
    return bits.astype(np.uint8)


def pack(m: Tensor, alphabet: str = ALPHABET_01) -> PackedBits:
    """Pack a binary matrix into 64-bit words; exact inverse is `unpack`."""
    bits = _to_bits(m, alphabet)
    rows, cols = bits.shape
    words_per_row = (cols + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros((rows, words_per_row * 8), dtype=np.uint8)
    packed8 = np.packbits(bits, axis=1, bitorder="little")
    padded[:, : packed8.shape[1]] = packed8
    words = padded.view("<u8").reshape(rows, words_per_row)
    return PackedBits(rows=rows, cols=cols, words=np.ascontiguousarray(words))


def unpack(pb: PackedBits, alphabet: str = ALPHABET_01) -> Tensor:
    """Invert `pack`, returning float32 values in the chosen alphabet."""
    raw = pb.words.astype("<u8").view(np.uint8).reshape(pb.rows, -1)
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, : pb.cols]
    if alphabet == ALPHABET_01:
        return bits.astype(DTYPE)
    if alphabet == ALPHABET_PM1:
        return (bits.astype(DTYPE) * 2.0) - 1.0
    raise ConfigError(f"unknown alphabet {alphabet!r}")


def packed_linear(spikes: PackedBits, weights: PackedBits) -> np.ndarray:
    """Integer matrix of signed dot products between spike rows and weight
    rows, computed wordwise via AND + popcount.

    Output shape (spikes.rows, weights.rows), dtype int64; entry (i, o)
    equals the exact dot product of the unpacked operands.
    """
    if spikes.cols != weights.cols:
        raise ShapeError(
            f"packed_linear inner extents disagree: spikes cols {spikes.cols}, "
            f"weights cols {weights.cols}"
        )
    s_pop = np.bitwise_count(spikes.words).sum(axis=1).astype(np.int64)
    out = np.empty((spikes.rows, weights.rows), dtype=np.int64)
    # Chunk output rows to bound the (R, C, W) AND temporary.
    budget = 1 << 22
    chunk = max(1, budget // max(1, spikes.rows * spikes.words_per_row))
    for start in range(0, weights.rows, chunk):
        stop = min(start + chunk, weights.rows)
        both = spikes.words[:, None, :] & weights.words[None, start:stop, :]
        cnt = np.bitwise_count(both).sum(axis=2, dtype=np.int64)
        out[:, start:stop] = 2 * cnt - s_pop[:, None]
    return out


@dataclass(frozen=True)
class StandardizationRecord:
    """Mean/spread removed from a latent weight tensor before taking signs."""

    mean: np.ndarray
    std: np.ndarray
    per_channel: bool


def _standardize(w: np.ndarray, per_channel: bool) -> tuple[np.ndarray, StandardizationRecord]:
    if per_channel:
        mean = w.mean(axis=1, keepdims=True, dtype=np.float64)
        std = w.std(axis=1, keepdims=True, dtype=np.float64)
    else:
        mean = np.asarray(w.mean(dtype=np.float64))
        std = np.asarray(w.std(dtype=np.float64))
    if np.any(std == 0):
        raise DegenerateWeightsError("weight tensor has zero spread; cannot standardize")
    z = ((w - mean) / std).astype(w.dtype if w.dtype.kind == "f" else DTYPE)
    return z, StandardizationRecord(mean=mean, std=std, per_channel=per_channel)


def standardize_latent(w: Tensor, per_channel: bool = False) -> Tensor:
    """Zero-mean, unit-spread copy of the latent weights (float)."""
    w = np.asarray(w, dtype=DTYPE)
    require_finite(w, "latent weights")
    z, _ = _standardize(w, per_channel)
    return z


def _signs(z: np.ndarray) -> Tensor:
    """+1 where z >= 0 (-0.0 included), -1 elsewhere, as float32: the
    compare writes 1.0/0.0 straight into the output, then 2s - 1."""
    s = np.greater_equal(z, 0, out=np.empty(z.shape, dtype=DTYPE))
    s *= 2
    s -= 1
    return s


def binarize_weights(w: Tensor, per_channel: bool = False) -> tuple[PackedBits, StandardizationRecord]:
    """Standardize the latent weights and take signs, packed +1 -> bit 1.

    Values standardizing to exactly zero map to +1 (ties go up). Constant
    tensors cannot be standardized and raise DegenerateWeightsError.
    """
    w = np.asarray(w, dtype=DTYPE)
    if w.ndim != 2:
        raise ShapeError(f"binarize_weights expects a 2-D matrix, got shape {w.shape}")
    require_finite(w, "latent weights")
    z, record = _standardize(w, per_channel)
    return pack(_signs(z), ALPHABET_PM1), record


def binary_signs(w: Tensor, per_channel: bool = False) -> Tensor:
    """Float +-1 image of `binarize_weights` without packing."""
    return _signs(standardize_latent(w, per_channel))


def ste_backward(grad_out: Tensor, latent: Tensor, clip: float = 1.0,
                 per_channel: bool = False) -> Tensor:
    """Straight-through gradient for the sign-of-standardized-weights map.

    The sign itself passes gradients unchanged where the standardized
    latent lies within +-clip and blocks them outside; the standardization
    (subtract mean, divide by sigma) is differentiated analytically, so
    the returned gradient is

        J_std^T (grad_out * mask)

    with J_std the Jacobian of w -> (w - mean(w)) / sigma(w).
    """
    latent = np.asarray(latent)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != latent.shape:
        raise ShapeError(
            f"ste_backward shape mismatch: grad {grad_out.shape}, latent {latent.shape}"
        )
    z, record = _standardize(latent.astype(np.float64), per_channel)
    g = grad_out.astype(np.float64) * (np.abs(z) <= clip)
    if per_channel:
        g_mean = g.mean(axis=1, keepdims=True)
        zg_mean = (z * g).mean(axis=1, keepdims=True)
    else:
        g_mean = g.mean()
        zg_mean = (z * g).mean()
    grad = (g - g_mean - z * zg_mean) / record.std
    return grad.astype(grad_out.dtype if grad_out.dtype.kind == "f" else DTYPE)


@dataclass
class LambdaScale:
    """Learnable per-timestep positive scale, shape (T, 1, 1)."""

    values: Tensor

    @classmethod
    def ones(cls, timesteps: int) -> "LambdaScale":
        return cls(values=np.ones((timesteps, 1, 1), dtype=DTYPE))

    @property
    def timesteps(self) -> int:
        return int(self.values.shape[0])


def apply_lambda(spikes: Tensor, lam: LambdaScale) -> Tensor:
    """Scale each timestep slice of a spike train by its lambda factor.
    Runs the product of the model's lambda layers."""
    spikes = np.asarray(spikes, dtype=DTYPE)
    if spikes.shape[0] != lam.timesteps:
        raise ShapeError(
            f"apply_lambda time axes disagree: spikes T={spikes.shape[0]}, "
            f"lambda T={lam.timesteps}"
        )
    if np.any(lam.values <= 0):
        raise ConfigError("lambda scale must be strictly positive")
    return _scale_time(spikes, lam.values).astype(DTYPE, copy=False)


def _scale_time(x: Tensor, values: Tensor) -> Tensor:
    """x with each slice along its leading (time) axis multiplied by the
    matching element of `values`."""
    return x * values.reshape((values.shape[0],) + (1,) * (x.ndim - 1))


def read_exact(fh, n: int, what: str) -> bytes:
    """Read exactly `n` bytes of a binary container section from `fh`;
    a short read raises DataError naming the section. Reads go in bounded
    chunks, so a corrupt length field costs at most the file's size in
    memory, not `n` bytes."""
    parts = []
    left = n
    while left > 0:
        part = fh.read(min(left, _READ_CHUNK))
        if not part:
            break
        parts.append(part)
        left -= len(part)
    raw = b"".join(parts)
    if len(raw) != n:
        raise DataError(f"{what} truncated: expected {n} bytes, got {len(raw)}")
    return raw


def open_input(path, what: str):
    """Open the binary file `what` at `path` for reading; a missing or
    unreadable file raises DataError naming it."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


def write_packed(path, pb: PackedBits) -> None:
    """Serialize to the on-disk layout: magic, u32 rows, u32 cols, then
    rows * words_per_row little-endian u64 words."""
    with open(path, "wb") as fh:
        fh.write(packed_bytes(pb))


def read_packed(path) -> PackedBits:
    """Inverse of `write_packed`. A truncated, malformed or overlong file
    raises DataError."""
    with open_input(path, "packed-bits file") as fh:
        return packed_from_bytes(fh.read())


def packed_bytes(pb: PackedBits) -> bytes:
    """In-memory serialization identical to the on-disk layout."""
    return _PACK_MAGIC + struct.pack("<II", pb.rows, pb.cols) + pb.words.astype("<u8").tobytes()


def packed_from_bytes(buf: bytes) -> PackedBits:
    """Inverse of `packed_bytes`; the buffer must hold exactly one image.
    A short, malformed or overlong buffer raises DataError."""
    fh = io.BytesIO(buf)
    if fh.read(len(_PACK_MAGIC)) != _PACK_MAGIC:
        raise DataError("bad packed-bits magic")
    rows, cols = struct.unpack("<II", read_exact(fh, 8, "packed-bits header"))
    words_per_row = (cols + WORD_BITS - 1) // WORD_BITS
    raw = read_exact(fh, rows * words_per_row * 8, "packed-bits payload")
    if fh.read(1):
        raise DataError("packed-bits image has trailing bytes")
    words = np.frombuffer(raw, dtype="<u8").reshape(rows, words_per_row).copy()
    return PackedBits(rows=rows, cols=cols, words=words)
