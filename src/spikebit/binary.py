"""Weight binarization, the bit-packed popcount kernel, and the binary
container that every file format of the package is written and read in.

Binary weights live in {-1, +1} and spikes in {0, 1}; both are packed one
bit per element into little-endian 64-bit words (+1 and 1 map to a set
bit). For a spike row s and a signed weight row w the integer dot product
reduces to pure bitwise work:

    dot(s, w) = 2 * popcount(s AND w) - popcount(s)

which is exact because every spike contributes +1 where the weight bit is
set and -1 where it is clear.

A binary container is a magic, then sections read whole, then the end of
the input. `write_container` writes one and `ContainerReader` reads one;
checkpoints, logits caches, raw datasets and packed-bits images (whose
layout `write_packed` and `read_packed` hold) all go through the pair, so
a wrong magic, a short section and trailing bytes are each checked in
one place, and each raises DataError naming the container.
"""

from __future__ import annotations

import io
import math
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


@dataclass(frozen=True, slots=True)
class StandardizationRecord:
    """Mean/spread removed from a latent weight tensor before taking signs."""

    mean: np.ndarray
    std: np.ndarray


def _standardize(w: np.ndarray, record: StandardizationRecord | None = None
                 ) -> tuple[np.ndarray, StandardizationRecord]:
    """(w - mean) / std in w's float dtype (float32 for other input), and
    the record of mean and std, both from w's float64 image. Given the
    `record` of this same w, it reuses it and takes no statistics."""
    w64 = w.astype(np.float64, copy=False)
    if record is None:
        # std as sqrt(var) about the mean already taken: the bytes of
        # w.std(), one pass fewer
        mean = np.asarray(w64.mean())
        std = np.asarray(np.sqrt(w64.var(mean=mean)))
        if std == 0:
            raise DegenerateWeightsError("weight tensor has zero spread; cannot standardize")
        record = StandardizationRecord(mean=mean, std=std)
    z = w64 - record.mean
    z /= record.std
    return z.astype(w.dtype if w.dtype.kind == "f" else DTYPE, copy=False), record


def standardize_latent(w: Tensor) -> Tensor:
    """Zero-mean, unit-spread copy of the latent weights (float)."""
    w = np.asarray(w, dtype=DTYPE)
    require_finite(w, "latent weights")
    z, _ = _standardize(w)
    return z


def _signs(z: np.ndarray) -> np.ndarray:
    """+1 where z >= 0 (-0.0 included), -1 elsewhere, as int8, one byte
    per weight: the compare writes 1/0 straight into the output, then
    2s - 1 in place."""
    s = np.greater_equal(z, 0, out=np.empty(z.shape, dtype=np.int8))
    s *= 2
    s -= 1
    return s


def binarize_weights(w: Tensor) -> tuple[PackedBits, StandardizationRecord]:
    """Standardize the latent weights and take signs, packed +1 -> bit 1.

    Values standardizing to exactly zero map to +1 (ties go up). Constant
    tensors cannot be standardized and raise DegenerateWeightsError.
    """
    w = np.asarray(w, dtype=DTYPE)
    if w.ndim != 2:
        raise ShapeError(f"binarize_weights expects a 2-D matrix, got shape {w.shape}")
    signs, record = latent_signs(w)
    return pack(signs, ALPHABET_PM1), record


def binary_signs(w: Tensor) -> np.ndarray:
    """The int8 +-1 image of `binarize_weights` without packing."""
    return latent_signs(w)[0]


def latent_signs(w: Tensor) -> tuple[np.ndarray, StandardizationRecord]:
    """`binary_signs` (int8 +-1) and the standardization record they came
    from, which `ste_backward` takes to skip standardizing the same
    weights again."""
    w = np.asarray(w, dtype=DTYPE)
    require_finite(w, "latent weights")
    z, record = _standardize(w)
    return _signs(z), record


def ste_backward(grad_out: Tensor, latent: Tensor, clip: float = 1.0,
                 record: StandardizationRecord | None = None) -> Tensor:
    """Straight-through gradient for the sign-of-standardized-weights map.

    The sign itself passes gradients unchanged where the standardized
    latent lies within +-clip and blocks them outside; the standardization
    (subtract mean, divide by sigma) is differentiated analytically, so
    the returned gradient is

        J_std^T (grad_out * mask)

    with J_std the Jacobian of w -> (w - mean(w)) / sigma(w). `record`, if
    given, must be `latent_signs`' record of these very weights; without
    it the weights are standardized here, to the same bytes.
    """
    latent = np.asarray(latent)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != latent.shape:
        raise ShapeError(
            f"ste_backward shape mismatch: grad {grad_out.shape}, latent {latent.shape}"
        )
    z, record = _standardize(latent.astype(np.float64), record)
    g = grad_out.astype(np.float64) * (np.abs(z) <= clip)
    grad = (g - g.mean() - z * (z * g).mean()) / record.std
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
    parts, left = [], n
    while left > 0 and (part := fh.read(min(left, _READ_CHUNK))):
        parts.append(part)
        left -= len(part)
    raw = b"".join(parts)
    if len(raw) != n:
        raise DataError(f"{what} truncated: expected {n} bytes, got {len(raw)}")
    return raw


class ContainerReader:
    """Context manager reading the binary container `what` (named in every
    error) from `source`, a path (str or os.PathLike) or the container's
    bytes: its `magic`, then sections taken whole, then the end of the
    input.

    Entering checks the magic; a missing or unreadable file or a wrong
    magic raises DataError. Each section is read through `read_exact`, so
    a short one raises DataError naming the container and the section. A
    clean exit rejects trailing bytes."""

    def __init__(self, source, magic: bytes, what: str):
        self.source, self.magic, self.what = source, magic, what

    def __enter__(self) -> "ContainerReader":
        src = self.source
        try:
            self._fh = io.BytesIO(src) if isinstance(src, bytes) else open(src, "rb")
        except OSError as exc:
            raise DataError(f"cannot read {self.what} {src}: {exc.strerror or exc}") from None
        magic = self._fh.read(len(self.magic))
        if magic != self.magic:
            self._fh.close()
            raise DataError(f"bad {self.what} magic: {magic!r}")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._fh:
            if exc_type is None and self._fh.read(1):
                raise DataError(f"{self.what} has trailing bytes after its last section")

    def read(self, n: int, section: str) -> bytes:
        return read_exact(self._fh, n, f"{self.what} {section}")

    def unpack(self, fmt: str, section: str) -> tuple:
        """The next section as the `struct` fields of `fmt`."""
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), section))

    def array(self, dtype, shape: tuple, section: str) -> np.ndarray:
        """The next section as a read-only array of `shape`: a view of the
        bytes read, not a copy."""
        dtype = np.dtype(dtype)
        raw = self.read(dtype.itemsize * math.prod(shape), section)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)

    @property
    def left(self) -> int:
        """Bytes between the next section and the end of the input."""
        at = self._fh.tell()
        return self._fh.seek(0, io.SEEK_END) - self._fh.seek(at)


def write_container(dest, magic: bytes, *sections) -> None:
    """Write a binary container, `magic` then each section (bytes, or a
    C-contiguous array written as its raw bytes), to the file at `dest`,
    or to `dest` itself when it is an open binary file."""
    if not hasattr(dest, "write"):
        with open(dest, "wb") as fh:
            return write_container(fh, magic, *sections)
    for part in (magic, *sections):
        dest.write(part)


def write_packed(dest, pb: PackedBits) -> None:
    """Write the packed-bits image layout to a path or an open binary file:
    magic, u32 rows, u32 cols, then rows * words_per_row little-endian
    u64 words."""
    write_container(dest, _PACK_MAGIC, struct.pack("<II", pb.rows, pb.cols),
                    np.ascontiguousarray(pb.words, dtype="<u8"))


def packed_bytes(pb: PackedBits) -> bytes:
    """The bytes `write_packed` writes."""
    buf = io.BytesIO()
    write_packed(buf, pb)
    return buf.getvalue()


def read_packed(source, what: str = "packed-bits image") -> PackedBits:
    """Inverse of `write_packed`, from a path or a buffer holding exactly
    one image; `what` names the image in errors. A missing, truncated,
    malformed or overlong image, or one with a set padding bit (which
    `packed_linear` would count), raises DataError."""
    with ContainerReader(source, _PACK_MAGIC, what) as r:
        rows, cols = r.unpack("<II", "header")
        words = r.array("<u8", (rows, (cols + WORD_BITS - 1) // WORD_BITS), "payload").copy()
    tail = cols % WORD_BITS
    if tail and (words[:, -1] >> np.uint64(tail)).any():
        raise DataError(f"{what} sets a padding bit past column {cols}")
    return PackedBits(rows=rows, cols=cols, words=words)
