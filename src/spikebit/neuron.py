"""Spiking neuron dynamics.

Leaky integrate-and-fire with hard reset (membrane forced to zero after a
spike) or soft reset (threshold subtracted, residual charge kept), the
stateless boolean baseline, and the smooth surrogate functions used to
train through the spike nonlinearity.

Membrane update per step, with decay ``tau`` and input current ``x``:

    u_pre = tau * u + x
    spike = 1 if u_pre >= v_threshold else 0
    hard reset:  u' = (1 - spike) * u_pre
    soft reset:  u' = u_pre - v_threshold * spike
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .numeric import DTYPE, Tensor, require_finite


class Reset(enum.Enum):
    HARD = "hard"
    SOFT = "soft"


class SurrogateKind(enum.Enum):
    RECTANGULAR = "rectangular"
    SIGMOID = "sigmoid"
    ARCTAN = "arctan"


@dataclass(frozen=True)
class SurrogateSpec:
    """Shape of the smooth relaxation of the firing step.

    `width_or_alpha` is the window width for the rectangular kind and the
    steepness alpha for the sigmoid/arctan kinds. The derivative is
    nonnegative, bounded, and symmetric about the firing threshold.
    """

    kind: SurrogateKind = SurrogateKind.SIGMOID
    width_or_alpha: float = 4.0

    def __post_init__(self):
        if self.width_or_alpha <= 0:
            raise ConfigError(f"surrogate width/alpha must be positive, got {self.width_or_alpha}")


@dataclass(frozen=True)
class LifParams:
    tau: float = 0.5
    v_threshold: float = 1.0
    reset: Reset = Reset.HARD
    surrogate: SurrogateSpec = field(default_factory=SurrogateSpec)

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if self.v_threshold <= 0:
            raise ConfigError(f"v_threshold must be positive, got {self.v_threshold}")


@dataclass
class LifState:
    """Membrane potential of one neuron population; shape is fixed at
    construction and every update is checked against it."""

    membrane: Tensor

    @classmethod
    def zeros(cls, shape) -> "LifState":
        return cls(membrane=np.zeros(shape, dtype=DTYPE))


def lif_step(state: LifState, current: Tensor, p: LifParams) -> tuple[Tensor, LifState]:
    """Advance one timestep; returns (spikes, new state).

    Spikes are float32 zeros/ones. The pre-reset membrane is compared
    against the threshold with >=, matching the firing rule.
    """
    current = np.asarray(current, dtype=DTYPE)
    if current.shape != state.membrane.shape:
        raise ShapeError(
            f"lif_step input shape {current.shape} != state shape {state.membrane.shape}"
        )
    u_pre = DTYPE(p.tau) * state.membrane + current
    spikes = (u_pre >= DTYPE(p.v_threshold)).astype(DTYPE)
    if p.reset is Reset.HARD:
        new_membrane = (1.0 - spikes) * u_pre
    else:
        new_membrane = u_pre - DTYPE(p.v_threshold) * spikes
    return spikes, LifState(membrane=new_membrane.astype(DTYPE))


def lif_run(inputs: Tensor, p: LifParams) -> Tensor:
    """The spikes of lif_step unrolled over the leading time axis, from a
    zero membrane.

    `inputs` has shape (T, ...); the output spike train has the same
    shape with every element in {0, 1}. Runs the kernel of the model's
    LIF layers, which matches a `lif_step` loop byte for byte.
    """
    inputs = np.asarray(inputs, dtype=DTYPE)
    if inputs.ndim < 1 or inputs.shape[0] == 0:
        raise ShapeError("lif_run needs at least one timestep")
    require_finite(inputs, "lif_run inputs")
    return _lif(inputs, p).astype(DTYPE)


def _lif(x: Tensor, p: LifParams, gates: np.ndarray | None = None) -> np.ndarray:
    """The LIF dynamics along x's leading time axis from a zero membrane:
    `lif_step`'s operations in the same order, in x's float dtype, on two
    reused slab buffers, the membrane `u` and the pre-reset membrane `up`.
    Each step decays `u` in place, adds x[t] into `up`, writes the reset
    mask (hard: 1 - s) or the threshold to subtract (soft: vth * s) into
    `u`, then folds `up` into it (hard: `u *= up`, the product's operands
    in the other order, which rounds alike; soft: `u = up - u`). Returns
    the spikes, bool, one byte each; the reset reads them as 0.0 or 1.0
    in that dtype.

    With `gates`, the bool spikes an earlier run fired on this same x, the
    run takes each step's reset gate from them in place of the threshold
    compare and fires nothing: it rebuilds that run's pre-reset membranes
    byte for byte, writes them over x (`up` is then x[t]) and returns x,
    so x must be a float array its caller gives up."""
    dt = x.dtype if x.dtype.kind == "f" else np.dtype(DTYPE)
    out = np.empty(x.shape, dtype=np.bool_) if gates is None else x
    u = np.empty(x.shape[1:], dtype=dt)
    up = np.empty(x.shape[1:], dtype=dt) if gates is None else None
    tau = dt.type(p.tau)
    vth = dt.type(p.v_threshold)
    hard = p.reset is Reset.HARD
    for t in range(x.shape[0]):
        if gates is not None:
            up = x[t, ...]  # a view even for a 1-D input; step t reads x[t] before it writes here
        if t:
            u *= tau
            np.add(u, x[t], out=up)  # tau * u + x[t]
        else:
            np.add(x[0], 0.0, out=up)  # the membrane starts at +0, and tau * +0 is +0
        if gates is None:
            s = np.greater_equal(up, vth, out=out[t, ...])
        else:
            s = gates[t, ...]
        if t == x.shape[0] - 1:
            break  # no later step reads the reset membrane
        if hard:
            np.subtract(1.0, s, out=u, dtype=dt)
            u *= up  # (1 - s) * up
        else:
            np.multiply(vth, s, out=u, dtype=dt)
            np.subtract(up, u, out=u)  # up - vth * s
    return out


def boolean_binarize(x: Tensor) -> Tensor:
    """Stateless baseline: 1 where x >= 1, else 0."""
    x = np.asarray(x, dtype=DTYPE)
    require_finite(x, "boolean_binarize input")
    return (x >= 1.0).astype(DTYPE)


def _sigmoid(z: Tensor) -> Tensor:
    """The logistic of `z`, written over `z`'s buffer and one new one:
    pass an array made for this call."""
    # overflow-safe logistic: exp only ever sees non-positive arguments.
    # Each side evaluates the same expression as the masked two-branch form
    # (1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below), so results are
    # bit-identical to it, without its boolean gathers and scatters. The
    # numerator is max(e, [z >= 0]) with e = exp(-|z|): where z >= 0, e <= 1
    # and the maximum is exactly 1; below, the mask is +0 <= e and the
    # maximum is e; a NaN e passes through with its payload. The mask is
    # taken before e overwrites z; the numerator fills the mask's buffer
    # and the denominator e's.
    num = np.greater_equal(z, 0, out=np.empty_like(z))
    e = np.abs(z, out=z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, num, out=num)
    den = np.add(e, 1.0, out=e)
    return np.divide(num, den, out=num)


def surrogate_relaxation(u_pre: Tensor, p: LifParams) -> Tensor:
    """The smooth stand-in for the firing step, centered at v_threshold.

    Used by gradient checks: `surrogate_grad` must match the finite
    differences of this function, not of the hard step.
    """
    u = np.asarray(u_pre, dtype=np.result_type(u_pre, DTYPE))
    d = u - p.v_threshold
    spec = p.surrogate
    a = spec.width_or_alpha
    if spec.kind is SurrogateKind.RECTANGULAR:
        return np.clip(d / a + 0.5, 0.0, 1.0)
    if spec.kind is SurrogateKind.SIGMOID:
        return _sigmoid(np.asarray(a * d))
    if spec.kind is SurrogateKind.ARCTAN:
        return np.arctan(0.5 * np.pi * a * d) / np.pi + 0.5
    raise ConfigError(f"unknown surrogate kind: {spec.kind!r}")


def surrogate_grad(u_pre: Tensor, p: LifParams) -> Tensor:
    """Elementwise derivative of `surrogate_relaxation` at u_pre."""
    return _surrogate_grad(np.array(u_pre, dtype=np.result_type(u_pre, DTYPE)), p)


def _surrogate_grad(u: np.ndarray, p: LifParams) -> np.ndarray:
    """`surrogate_grad` of the float array `u`, written over `u`, which is
    returned: pass an array made for this call. The sigmoid kind takes one
    more buffer of u's size while it runs."""
    d = np.subtract(u, p.v_threshold, out=u)
    spec = p.surrogate
    a = spec.width_or_alpha
    if spec.kind is SurrogateKind.RECTANGULAR:
        # (|d| <= a / 2) / a, the window's mask cast to d's dtype in place
        np.less_equal(np.abs(d, out=d), 0.5 * a, out=d)
        d /= a
        return d
    if spec.kind is SurrogateKind.SIGMOID:
        # a * s * (1 - s), with s = sigmoid(a * d), in place on d and s
        d *= a
        s = _sigmoid(d)
        one_minus = np.subtract(1.0, s, out=d)
        np.multiply(s, a, out=s)
        return np.multiply(s, one_minus, out=one_minus)
    if spec.kind is SurrogateKind.ARCTAN:
        # (a / 2) / (1 + (pi / 2 * a * d)**2)
        np.multiply(0.5 * np.pi * a, d, out=d)
        np.square(d, out=d)
        np.add(1.0, d, out=d)
        return np.divide(0.5 * a, d, out=d)
    raise ConfigError(f"unknown surrogate kind: {spec.kind!r}")
