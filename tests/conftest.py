"""Shared fixtures: the toy cluster dataset and the representation-trend
statistics reused by the module invariants and the acceptance suite, a
checkpoint editor for the readers' damage tests, and the shapes and
gradient layouts the batch norm tests draw."""

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from spikebit import metrics
from spikebit.model import ModelConfig, SpikingTransformer, StemSpec
from spikebit.numeric import Rng

TREND_SEEDS = 24


def toy_config(topology: str, weight_mode: str = "binary", depth: int = 2,
               embed_dim: int = 32, timesteps: int = 2, tokens: int = 4,
               dual_head: bool | None = None, **kw) -> ModelConfig:
    if dual_head is None:
        dual_head = topology == "reversible"
    return ModelConfig(
        depth=depth, embed_dim=embed_dim, heads=2, timesteps=timesteps,
        stem=StemSpec(kind="vector", in_features=64, tokens=tokens),
        topology=topology, weight_mode=weight_mode, dual_head=dual_head, **kw,
    )


def often_small(high: int):
    """A count from 1 to `high`, drawn as 1, 2 or `high` about half the
    time."""
    return st.one_of(st.sampled_from([1, 2, high]), st.integers(1, high))


# the memory layouts of the gradients a batch norm backward reads
LAYOUTS = ("C", "channels-first", "broadcast")


def in_layout(a: np.ndarray, layout: str, scale) -> np.ndarray:
    """An array of the (T, B, N, C) `a`'s shape and dtype in `layout`:
    "C", a in C order; "channels-first", a as a channels-last view of
    channels-first memory, as the conv stem's gradients are; "broadcast",
    a[0, :, 0] times `scale` broadcast over time and tokens and cast, as
    `SpikingTransformer.backward` seeds its stream gradients."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "channels-first":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 2)), 2, -1)
    return np.broadcast_to(a[0, :, 0][None, :, None, :] * scale, a.shape).astype(a.dtype)


def with_array(raw: bytes, name: str, values) -> bytes:
    """The checkpoint `raw` with the array `name` replaced by `values`,
    broadcast to its shape."""
    header_len = int.from_bytes(raw[6:10], "little")
    header = json.loads(raw[10:10 + header_len])
    at = 10 + header_len
    for spec in header["arrays"]:
        size = 4 * int(np.prod(spec["shape"]))
        if spec["name"] == name:
            blob = np.broadcast_to(np.asarray(values, dtype="<f4"), spec["shape"]).tobytes()
            return raw[:at] + blob + raw[at + size:]
        at += size
    raise KeyError(name)


def with_config(raw: bytes, **fields) -> bytes:
    """The checkpoint `raw` with these fields of its header's config
    replaced."""
    header_len = int.from_bytes(raw[6:10], "little")
    header = json.loads(raw[10:10 + header_len])
    header["config"].update(fields)
    hb = json.dumps(header).encode()
    return raw[:6] + len(hb).to_bytes(4, "little") + hb + raw[10 + header_len:]


def cluster_data(seed: int, n_train: int = 512, n_test: int = 256, dims: int = 64,
                 classes: int = 10, spread: float = 1.0, noise: float = 0.85):
    """Gaussian clusters; same construction as the CLI's built-in synthetic
    dataset (duplicated here so tests do not depend on the CLI module)."""
    rng = Rng(seed)
    means = rng.child(0).normal((classes, dims), std=spread)

    def draw(tag, n):
        r = rng.child(tag)
        y = r.integers(0, classes, n).astype(np.int64)
        x = (means[y] + r.normal((n, dims), std=noise)).astype(np.float32)
        return x, y

    return draw(1, n_train), draw(2, n_test)


@pytest.fixture(scope="session")
def trend_stats():
    """Per-block value-set sizes for matched random-weight 4-block models.

    The toy sits where the saturation mechanism is visible: the residual
    stream grows unnormalized with depth and drives deep-block neurons
    out of their dynamic range, while the reversible halving keeps the
    stream bounded. tau=1 (pure integrator) and wide input data amplify
    the effect; seeds are frozen.
    """
    stem = StemSpec(kind="vector", in_features=64, tokens=8)
    res_first, res_last, rev_last = [], [], []
    for seed in range(TREND_SEEDS):
        data = Rng(7000 + seed).normal((12, 64), std=3.0)
        calib = Rng(8000 + seed).normal((12, 64), std=3.0)
        for topo, first_bucket, last_bucket in (
            ("residual", res_first, res_last),
            ("reversible", None, rev_last),
        ):
            cfg = ModelConfig(
                depth=4, embed_dim=32, heads=2, timesteps=4, tau=1.0, stem=stem,
                topology=topo, weight_mode="binary", dual_head=(topo == "reversible"),
            )
            net = SpikingTransformer(cfg, seed=seed)
            net.forward(calib, training=True)  # calibrate BN running stats
            rep = metrics.representation_report(net, data)
            if first_bucket is not None:
                first_bucket.append(rep.value_set_sizes[0])
            last_bucket.append(rep.value_set_sizes[-1])
    return {
        "res_first_mean": float(np.mean(res_first)),
        "res_last_mean": float(np.mean(res_last)),
        "rev_last_mean": float(np.mean(rev_last)),
        "seeds": TREND_SEEDS,
    }
