"""Instrumentation: representation-capability probes (value-set size and
a histogram entropy proxy), synaptic-operation counts for event-driven
layers, the bit-width-weighted neuromorphic cost model, and 1-bit model
size accounting.

The cost model is a calibrated lookup, not a formula: a model running
S * 1e9 synaptic operations with b-bit weights costs S * factor(b) where
factor is {1: 1, 2: 2, 32: 16}. Other bit widths are rejected rather
than extrapolated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import ModelConfig, SpikingTransformer
from .numeric import Tensor, require_finite

NS_ACE_FACTORS = {1: 1.0, 2: 2.0, 32: 16.0}


@dataclass
class RepCapReport:
    """Per-block representation capability on a calibration batch."""

    block_names: list[str] = field(default_factory=list)
    value_set_sizes: list[float] = field(default_factory=list)
    entropy_bits: list[float] = field(default_factory=list)

    def records(self) -> list[dict]:
        return [
            {"block": n, "value_set_size": s, "entropy_bits": e}
            for n, s, e in zip(self.block_names, self.value_set_sizes, self.entropy_bits)
        ]


@dataclass
class CostReport:
    sops_g: float
    ns_ace_g: float
    model_size_mb: float

    def record(self) -> dict:
        return {"sops_g": self.sops_g, "ns_ace_g": self.ns_ace_g,
                "model_size_mb": self.model_size_mb}


def value_set_size(x: Tensor, decimals: int | None = None) -> int:
    """Number of distinct values, optionally after rounding."""
    x = np.asarray(x)
    require_finite(x, "value_set_size input")
    if decimals is not None:
        x = np.round(x, decimals)
    return int(np.unique(x).size)


def entropy_proxy(x: Tensor, bins: int = 256) -> float:
    """Shannon entropy in bits of the value histogram over [min, max].

    A constant tensor carries zero bits. Upper bound is log2(bins),
    attained only by a perfectly uniform histogram.
    """
    if bins < 2:
        raise ConfigError(f"entropy_proxy needs bins >= 2, got {bins}")
    x = np.asarray(x, dtype=np.float64).ravel()
    require_finite(x, "entropy_proxy input")
    if x.min() == x.max():
        return 0.0
    counts, _ = np.histogram(x, bins=bins)
    p = counts[counts > 0] / x.size
    return float(-(p * np.log2(p)).sum())


def count_sops(model: SpikingTransformer, batch: Tensor) -> float:
    """Synaptic operations per sample, in units of 1e9.

    Every spike entering a weight layer triggers fan-out accumulates; the
    attention products add one accumulate per Q spike per key position
    and, for the binarized map, one per attention spike per head feature.
    """
    rec = model.probe(batch)
    total = 0.0
    for lyr in model.binary_linear_layers():
        total += rec.spikes[lyr] * lyr.out_features
    for bssa in model.bssa_blocks():
        total += rec.sops[bssa]
    batch_size = np.asarray(batch).shape[0]
    return total / batch_size / 1e9


def ns_ace(sops_g: float, weight_bits: int) -> float:
    """Bit-width-weighted synaptic cost, calibrated against published
    resource tables for 1-, 2-, and 32-bit spiking models."""
    if weight_bits not in NS_ACE_FACTORS:
        raise ConfigError(
            f"ns_ace has no calibration for weight_bits={weight_bits}; "
            f"known widths: {sorted(NS_ACE_FACTORS)}"
        )
    return sops_g * NS_ACE_FACTORS[weight_bits]


def model_size_mb(model: SpikingTransformer, include_distill_head: bool = False) -> float:
    """Deployed model size in MB (1e6 bytes): one bit per binary weight,
    four bytes per full-precision value (full-mode weights, BN statistics,
    lambda scales, head weights, and each neuron's tau/threshold pair).

    The distillation head only exists during training and is excluded
    unless requested.
    """
    bits = 0
    fp = 0
    binary_latents = set()
    for lyr in model.binary_linear_layers():
        binary_latents.add(id(lyr.weight))
        if lyr.mode == "binary":
            bits += lyr.weight.value.size
        else:
            fp += lyr.weight.value.size
    skip = set()
    if model.head_dist is not None and not include_distill_head:
        skip = {id(p) for _, p in model.head_dist.params()}
    for _, p in model.named_params():
        if id(p) in binary_latents or id(p) in skip:
            continue
        fp += p.value.size
    for _, buf in model.named_buffers():
        fp += buf.size
    fp += 2 * sum(1 for _ in model.lif_layers())  # tau and threshold per population
    return (bits / 8.0 + 4.0 * fp) / 1e6


def param_counts(cfg: ModelConfig) -> dict:
    """Closed-form parameter audit for a config; matches the constructed
    model's accounting exactly (shape test)."""
    D = cfg.embed_dim
    hidden = cfg.hidden_dim
    if cfg.stem.kind == "vector":
        stem_weights = (cfg.stem.in_features // cfg.stem.tokens) * D
        stem_bn_ch = D
        stem_lifs = 1
    else:
        chans = [cfg.stem.in_channels, D // 8, D // 4, D // 2, D]
        stem_weights = sum(9 * chans[i] * chans[i + 1] for i in range(4))
        stem_bn_ch = sum(chans[1:])
        stem_lifs = 4
    block_weights = cfg.depth * (4 * D * D + 2 * hidden * D)
    block_bn_ch = cfg.depth * (4 * D + hidden + D)
    lam = cfg.depth * cfg.timesteps if cfg.weight_mode == "binary" else 0
    lifs = stem_lifs + cfg.depth * 8  # BSSA: x_in, o_in, q, k, v, attn; BMLP: 2
    head = D * cfg.num_classes + cfg.num_classes
    weight_count = stem_weights + block_weights
    aux_fp = 4 * (stem_bn_ch + block_bn_ch) + lam + head + 2 * lifs
    out = {
        "weight_params": weight_count,
        "aux_fp_params": aux_fp,
    }
    if cfg.weight_mode == "binary":
        out["binary_bits"] = weight_count
        out["size_mb"] = (weight_count / 8.0 + 4.0 * aux_fp) / 1e6
    else:
        out["size_mb"] = 4.0 * (weight_count + aux_fp) / 1e6
    return out


def representation_report(model: SpikingTransformer, batch: Tensor,
                          decimals: int | None = None, bins: int = 256) -> RepCapReport:
    """Per-block representation capability on a calibration batch.

    Each block's final normalized map (its BMLP's output) is a
    per-channel affine image of an integer accumulation, so a channel's
    value-set size counts how many distinct integer levels survived
    binarization. The report averages that count over channels (one
    feature map each) and adds a histogram entropy proxy of the whole map.
    """
    rec = model.probe(batch, taps=True)
    report = RepCapReport()
    for blk in model.blocks:
        tap = rec.taps[blk.bmlp]
        per_channel = [value_set_size(tap[..., c], decimals) for c in range(tap.shape[-1])]
        report.block_names.append(blk.name)
        report.value_set_sizes.append(float(np.mean(per_channel)))
        report.entropy_bits.append(entropy_proxy(tap, bins))
    return report


def cost_report(model: SpikingTransformer, batch: Tensor,
                weight_bits: int | None = None) -> CostReport:
    sops = count_sops(model, batch)
    bits = weight_bits if weight_bits is not None else (1 if model.cfg.weight_mode == "binary" else 32)
    return CostReport(
        sops_g=sops,
        ns_ace_g=ns_ace(sops, bits),
        model_size_mb=model_size_mb(model),
    )


def write_records(path, records) -> None:
    """Append line-delimited JSON records (one object per line)."""
    with open(path, "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_records(path) -> list[dict]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
