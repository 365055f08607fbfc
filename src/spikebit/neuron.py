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


def lif_run(inputs: Tensor, p: LifParams, initial: LifState | None = None) -> Tensor:
    """Unroll lif_step over the leading time axis.

    `inputs` has shape (T, ...); the output spike train has the same
    shape with every element in {0, 1}. Membrane starts at zero unless an
    initial state is supplied.
    """
    inputs = np.asarray(inputs, dtype=DTYPE)
    if inputs.ndim < 1 or inputs.shape[0] == 0:
        raise ShapeError("lif_run needs at least one timestep")
    require_finite(inputs, "lif_run inputs")
    state = initial if initial is not None else LifState.zeros(inputs.shape[1:])
    out = np.empty_like(inputs)
    for t in range(inputs.shape[0]):
        out[t], state = lif_step(state, inputs[t], p)
    return out


def boolean_binarize(x: Tensor) -> Tensor:
    """Stateless baseline: 1 where x >= 1, else 0."""
    x = np.asarray(x, dtype=DTYPE)
    require_finite(x, "boolean_binarize input")
    return (x >= 1.0).astype(DTYPE)


def _sigmoid(z: Tensor) -> Tensor:
    # overflow-safe logistic: exp only ever sees non-positive arguments.
    # Each side evaluates the same expression as the masked two-branch form
    # (1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below), so results are
    # bit-identical to it, without its boolean gathers and scatters. The
    # numerator is 1 where z >= 0 and e elsewhere, NaN included; the work
    # runs in two fresh buffers.
    e = np.copysign(z, -1.0, out=np.empty_like(z))  # -|z|
    np.exp(e, out=e)
    den = np.add(e, 1.0, out=np.empty_like(e))
    np.copyto(e, 1.0, where=z >= 0)
    return np.divide(e, den, out=e)


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
        return _sigmoid(a * d)
    if spec.kind is SurrogateKind.ARCTAN:
        return np.arctan(0.5 * np.pi * a * d) / np.pi + 0.5
    raise ConfigError(f"unknown surrogate kind: {spec.kind!r}")


def surrogate_grad(u_pre: Tensor, p: LifParams) -> Tensor:
    """Elementwise derivative of `surrogate_relaxation` at u_pre."""
    u = np.asarray(u_pre, dtype=np.result_type(u_pre, DTYPE))
    d = u - p.v_threshold
    spec = p.surrogate
    a = spec.width_or_alpha
    if spec.kind is SurrogateKind.RECTANGULAR:
        return (np.abs(d) <= 0.5 * a).astype(u.dtype) / a
    if spec.kind is SurrogateKind.SIGMOID:
        # a * s * (1 - s), with s = sigmoid(a * d), in place on d and s
        d = np.multiply(d, a, out=np.asarray(d))
        s = _sigmoid(d)
        one_minus = np.subtract(1.0, s, out=d)
        np.multiply(s, a, out=s)
        return np.multiply(s, one_minus, out=s)
    if spec.kind is SurrogateKind.ARCTAN:
        return (0.5 * a) / (1.0 + (0.5 * np.pi * a * d) ** 2)
    raise ConfigError(f"unknown surrogate kind: {spec.kind!r}")
