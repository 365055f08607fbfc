import json
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import toy_config
from spikebit import binary, learn, metrics, neuron
from spikebit import model as M
from spikebit.binary import ALPHABET_01, ALPHABET_PM1, binary_signs, pack, packed_linear
from spikebit.errors import ConfigError, DataError, EncodingError, ShapeError, TrainingError
from spikebit.model import (
    BatchNormLayer,
    BinaryLinearLayer,
    BssaBlock,
    LifLayer,
    ModelConfig,
    ReversibleState,
    SpikingTransformer,
    StemSpec,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from spikebit.neuron import LifState, Reset, lif_run, lif_step
from spikebit.numeric import BatchNormParams, Rng, batch_norm


def conv_config(image=32, patch=4, depth=1, D=32, T=2):
    return ModelConfig(
        depth=depth, embed_dim=D, heads=2, timesteps=T,
        stem=StemSpec(kind="conv", in_channels=3, image_size=image, patch_size=patch),
    )


class TestStem:
    def test_patch_splitting_token_count(self):
        net = SpikingTransformer(conv_config(image=32, patch=4), seed=0)
        e = net.embed(Rng(1).normal((2, 3, 32, 32)), training=False)
        assert e.shape == (2, 2, 64, 32)  # (T, B, N=8*8, D)

    def test_imagenet_style_patch16(self):
        cfg = conv_config(image=64, patch=16, D=64)
        net = SpikingTransformer(cfg, seed=0)
        e = net.embed(Rng(1).normal((1, 3, 64, 64)), training=False)
        assert e.shape[2] == (64 // 16) ** 2

    def test_direct_encoding_replicates_input(self, monkeypatch):
        # every timestep slice fed to the first neuron must be identical
        seen = {}
        orig = LifLayer.forward

        def spy(self, x, *args, **kwargs):
            seen.setdefault("first", x)
            return orig(self, x, *args, **kwargs)

        monkeypatch.setattr(LifLayer, "forward", spy)
        net = SpikingTransformer(toy_config("residual", timesteps=4), seed=0)
        net.embed(Rng(2).normal((3, 64)), training=False)
        first = seen["first"]
        for t in range(1, first.shape[0]):
            assert np.array_equal(first[t], first[0])

    def test_stem_seeds_both_streams_identically(self):
        for cfg, x, stem_cls in (
            (toy_config("reversible"), Rng(3).normal((2, 64)), M.VectorStem),
            (conv_config(image=16), Rng(3).normal((2, 3, 16, 16)), M.ConvStem),
        ):
            net = SpikingTransformer(cfg, seed=0)
            assert type(net.stem) is stem_cls
            stem_state, _ = net.run_reversible(x)
            e = net.stem.forward(x, training=False)
            assert np.array_equal(stem_state.x0, e) and np.array_equal(stem_state.x1, e)

    @pytest.mark.parametrize("cfg,bad", [
        (toy_config("reversible"), (3, 63)),
        (toy_config("residual"), (3, 4, 16)),
        (conv_config(image=16), (2, 768)),
        (conv_config(image=16), (2, 3, 12, 12)),  # would run on 9 tokens, not 16
    ], ids=["vector_width", "vector_rank", "conv_flat", "conv_small_image"])
    def test_samples_of_another_shape_rejected(self, cfg, bad):
        net = SpikingTransformer(cfg, seed=0)
        x = Rng(1).normal(bad)
        want = re.escape(f"input samples have shape {bad[1:]}; the model takes "
                         f"{net.stem.sample_shape}")
        for call in (net.forward, lambda x: net.forward(x, training=True), net.probe):
            with pytest.raises(ShapeError, match=want):
                call(x)

    @pytest.mark.parametrize("cfg,bad", [
        (toy_config("reversible"), ()),
        (toy_config("reversible"), (0, 64)),
        (toy_config("residual", weight_mode="full"), (0, 64)),
        (conv_config(image=16), (0, 3, 16, 16)),
    ], ids=["no_batch_axis", "empty_batch", "full_empty_batch", "conv_empty_batch"])
    def test_input_without_samples_rejected(self, cfg, bad):
        # an empty training or calibration batch turned every BN running
        # statistic to NaN, and every later logit with them
        net = SpikingTransformer(cfg, seed=0)
        buffers = [b.copy() for _, b in net.named_buffers()]
        x = np.zeros(bad, dtype=np.float32)
        want = re.escape(f"input has shape {bad}; the model takes a batch of one or more samples")
        for call in (net.forward, lambda x: net.forward(x, training=True), net.probe,
                     net.calibrate, lambda x: metrics.cost_report(net, x)):
            with pytest.raises(ShapeError, match=want):
                call(x)
        for (name, got), want_buf in zip(net.named_buffers(), buffers):
            assert got.tobytes() == want_buf.tobytes(), name
        assert net._record is None

    def test_indivisible_extents_rejected(self):
        with pytest.raises(ConfigError):
            SpikingTransformer(
                ModelConfig(stem=StemSpec(kind="vector", in_features=65, tokens=4)), seed=0
            )
        with pytest.raises(ConfigError):
            SpikingTransformer(conv_config(image=30, patch=4), seed=0)


class TestBssa:
    def _block(self, topology="residual"):
        cfg = toy_config(topology)
        return BssaBlock("b", cfg, Rng(4)), cfg

    def test_zero_input_produces_no_events(self):
        blk, cfg = self._block()
        x = np.zeros((2, 3, 4, 32), dtype=np.float32)
        rec = M.ForwardRecord(taps=True)
        blk.forward(x, training=False, rec=rec)
        assert rec.taps[blk] is not None and not rec.taps[blk].any()
        assert rec.spikes[blk.o_proj] == 0.0

    def test_attention_neuron_is_soft_reset_and_matches_reference_trace(self):
        blk, _ = self._block()
        assert blk.attn_lif.p.reset is Reset.SOFT
        trace = np.array([4.0, 0.0, 0.0, 0.0], dtype=np.float32).reshape(4, 1, 1, 1, 1)
        # soft reset retains residual charge: a 4 at t0 spikes twice
        got = blk.attn_lif.forward(trace).ravel()
        assert got.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_attention_is_bounded_nonnegative_integer(self):
        blk, _ = self._block()
        x = Rng(5).normal((2, 4, 6, 32), std=2.0)
        rec = M.ForwardRecord(taps=True)
        blk.forward(x, training=True, rec=rec)  # strict checks run inside
        attn = rec.taps[blk]
        head_dim = 32 // 2
        assert attn.min() >= 0
        assert attn.max() <= head_dim
        assert np.array_equal(attn, np.round(attn))

    def test_binarized_attention_scaled_by_lambda(self):
        blk, _ = self._block()
        blk.lam.scale.value[:] = np.array([2.0, 3.0], dtype=np.float32).reshape(2, 1, 1)
        x = Rng(6).normal((2, 2, 4, 32), std=2.0)
        out = blk.forward(x, training=False)
        assert np.isfinite(out).all()

    def test_output_shape_preserved(self):
        blk, _ = self._block()
        x = Rng(7).normal((2, 3, 5, 32))
        assert blk.forward(x, training=False).shape == x.shape


class TestBmlp:
    def test_zero_input_zero_output_with_default_bn(self):
        cfg = toy_config("residual")
        blk = M.BmlpBlock("m", cfg, Rng(8))
        out = blk.forward(np.zeros((2, 3, 4, 32), dtype=np.float32), training=False)
        assert not out.any()

    def test_shape_preserved_and_hidden_expansion(self):
        cfg = toy_config("residual")
        blk = M.BmlpBlock("m", cfg, Rng(9))
        assert blk.fc1.out_features == int(round(cfg.hidden_ratio * cfg.embed_dim))
        x = Rng(10).normal((2, 2, 4, 32))
        assert blk.forward(x, training=False).shape == x.shape

    def test_packed_path_equals_float_reference(self):
        cfg = toy_config("residual")
        blk = M.BmlpBlock("m", cfg, Rng(11))
        spikes = (Rng(12).uniform((6, 32)) < 0.4).astype(np.float32)
        got = blk.fc1.forward(spikes)
        signs = binary_signs(blk.fc1.weight.value)
        want = spikes.astype(np.int64) @ signs.T.astype(np.int64)
        assert np.array_equal(got.astype(np.int64), want)


class TestBinaryLinear:
    @pytest.mark.parametrize("rows,inp,out,density", [
        (2, 1, 3, 0.5), (7, 64, 5, 0.3), (9, 65, 12, 0.9), (16, 130, 33, 0.05),
    ])
    def test_forward_equals_packed_oracle_bytewise(self, rows, inp, out, density):
        lyr = BinaryLinearLayer("l", inp, out, Rng(rows))
        lyr.weight.value[0] = -10.0  # an all-(-1) sign row
        signs = binary_signs(lyr.weight.value)
        assert (signs[0] == -1).all()
        x = (Rng(inp).uniform((rows, inp)) < density).astype(np.float32)
        x[0] = 0.0  # an all-zero spike row
        got = lyr.forward(x)
        want = packed_linear(pack(x, ALPHABET_01), pack(signs, ALPHABET_PM1))
        assert got.dtype == np.float32
        assert got.tobytes() == want.astype(np.float32).tobytes()  # no -0.0 either

    def test_non_spike_input_rejected(self):
        lyr = BinaryLinearLayer("l", 8, 4, Rng(0))
        x = np.zeros((3, 8), dtype=np.float32)
        x[2, 5] = 0.5
        with pytest.raises(EncodingError, match=r"index \(2, 5\)"):
            lyr.forward(x)

    @pytest.mark.parametrize("bad", [2.0, -1.0, np.nan, np.inf])
    def test_other_non_spike_values_rejected(self, bad):
        lyr = BinaryLinearLayer("l", 8, 4, Rng(0))
        x = np.zeros((3, 8), dtype=np.float32)
        x[0, 1] = 1.0
        x[2, 5] = bad
        with pytest.raises(EncodingError, match=r"index \(2, 5\)"):
            lyr.forward(x)

    def test_negative_zero_is_a_zero_spike(self):
        lyr = BinaryLinearLayer("l", 8, 4, Rng(0))
        x = np.zeros((3, 8), dtype=np.float32)
        x[1, :3] = 1.0
        x[2, 5] = -0.0
        rec = M.ForwardRecord()
        assert lyr.forward(x, rec=rec).tobytes() == lyr.forward(np.abs(x)).tobytes()
        assert rec.spikes[lyr] == 3.0

    def test_width_beyond_float32_exactness_rejected(self):
        with pytest.raises(ConfigError, match="2\\*\\*24"):
            BinaryLinearLayer("l", 2**24, 1, Rng(0))


class TestReversible:
    def _states(self, seed=13, shape=(2, 2, 4, 32)):
        r = Rng(seed)
        return ReversibleState(x0=r.child(0).normal(shape), x1=r.child(1).normal(shape))

    def test_zero_function_algebra(self):
        cfg = toy_config("reversible")
        blk = M.ReversibleBlock("r", cfg, Rng(14))
        # zero the output scale of both sub-blocks: BSSA and BMLP become
        # the constant zero function and the coupling algebra is exact
        blk.bssa.o_bn.gamma.value[:] = 0.0
        blk.bmlp.bn2.gamma.value[:] = 0.0
        s = self._states()
        out = blk.forward(s, training=False)
        want_x0 = 0.5 * (s.x0 + s.x1)
        want_x1 = 0.5 * s.x1 + 0.25 * s.x0 + 0.25 * s.x1
        assert np.allclose(out.x0, want_x0, atol=1e-6)
        assert np.allclose(out.x1, want_x1, atol=1e-6)
        back = blk.inverse(out)
        assert np.allclose(back.x0, s.x0, atol=1e-5)
        assert np.allclose(back.x1, s.x1, atol=1e-5)

    def test_roundtrip_random_weights(self):
        cfg = toy_config("reversible", depth=3)
        net = SpikingTransformer(cfg, seed=15)
        net.forward(Rng(16).normal((4, 64)), training=True)  # calibrate BN
        x = Rng(17).normal((4, 64))
        stem_state, final = net.run_reversible(x)
        rec = net.invert(final)
        assert np.abs(rec.x0 - stem_state.x0).max() <= 1e-4
        assert np.abs(rec.x1 - stem_state.x1).max() <= 1e-4

    def test_inverse_twice_is_not_identity(self):
        cfg = toy_config("reversible", depth=1)
        net = SpikingTransformer(cfg, seed=18)
        net.forward(Rng(19).normal((4, 64)), training=True)
        blk = net.blocks[0]
        s = self._states(20)
        fwd = blk.forward(s, training=False)
        once = blk.inverse(fwd)
        twice = blk.inverse(once)
        assert np.abs(twice.x0 - s.x0).max() > 1e-2

    def test_block_forward_inverse_roundtrip(self):
        cfg = toy_config("reversible", depth=1)
        net = SpikingTransformer(cfg, seed=21)
        net.forward(Rng(22).normal((4, 64)), training=True)
        s = self._states(23)
        blk = net.blocks[0]
        back = blk.inverse(blk.forward(s, training=False))
        assert np.abs(back.x0 - s.x0).max() <= 1e-4


class TestHeads:
    def test_zero_initialized_heads_emit_zero(self):
        net = SpikingTransformer(toy_config("reversible"), seed=24)
        net.head_cls.weight.value[:] = 0.0
        net.head_cls.bias.value[:] = 0.0
        net.head_dist.weight.value[:] = 0.0
        net.head_dist.bias.value[:] = 0.0
        y, y_d = net.forward(Rng(25).normal((3, 64)), training=False)
        assert not y.any() and not y_d.any()

    @pytest.mark.parametrize("classify_on", ["x0", "x1"])
    def test_head_wiring(self, classify_on):
        cfg = toy_config("reversible", classify_on=classify_on)
        net = SpikingTransformer(cfg, seed=26)
        x = Rng(27).normal((3, 64))
        _, final = net.run_reversible(x)
        y, y_d = net.heads_forward(final)
        p0 = final.x0.mean(axis=(0, 2))
        p1 = final.x1.mean(axis=(0, 2))
        cls_in, dist_in = (p0, p1) if classify_on == "x0" else (p1, p0)
        assert np.allclose(y, net.head_cls.forward(cls_in), atol=1e-6)
        assert np.allclose(y_d, net.head_dist.forward(dist_in), atol=1e-6)


class TestModelPlumbing:
    def test_forward_is_deterministic_given_seed(self):
        x = Rng(28).normal((4, 64))
        a, _ = SpikingTransformer(toy_config("reversible"), seed=29).forward(x)
        b, _ = SpikingTransformer(toy_config("reversible"), seed=29).forward(x)
        assert np.array_equal(a, b)

    def test_param_names_unique(self):
        net = SpikingTransformer(toy_config("reversible", depth=2), seed=30)
        names = [n for n, _ in net.named_params()]
        assert len(names) == len(set(names))

    def test_backward_touches_every_param(self):
        net = SpikingTransformer(toy_config("reversible"), seed=31)
        logits, dist = net.forward(Rng(32).normal((6, 64)), training=True)
        net.backward(np.ones_like(logits), np.ones_like(dist))
        for name, p in net.named_params():
            assert np.isfinite(p.grad).all(), name

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=30, heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(topology="loop")
        with pytest.raises(ConfigError):
            ModelConfig(classify_on="x2")
        for bad in (dict(heads=0), dict(embed_dim=-4), dict(num_classes=0), dict(depth=0),
                    dict(hidden_ratio=-1.0), dict(hidden_ratio=0.001), dict(hidden_ratio=np.nan),
                    *(dict(stem=StemSpec(**{k: 0})) for k in
                      ("in_features", "tokens", "in_channels", "image_size", "patch_size"))):
            with pytest.raises(ConfigError):
                ModelConfig(**bad)


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        net = SpikingTransformer(toy_config("reversible"), seed=33)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(net, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_reproduces_outputs(self, tmp_path):
        net = SpikingTransformer(toy_config("reversible"), seed=34)
        x = Rng(35).normal((3, 64))
        net.forward(x, training=True)  # move BN stats off their init
        want, _ = net.forward(x, training=False)
        path = tmp_path / "m.bin"
        save_checkpoint(net, path)
        got, _ = load_checkpoint(path).forward(x, training=False)
        assert np.array_equal(want, got)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_conv_model_checkpoint(self, tmp_path):
        net = SpikingTransformer(conv_config(), seed=36)
        path = tmp_path / "conv.bin"
        save_checkpoint(net, path)
        assert checkpoint_bytes(load_checkpoint(path)) == path.read_bytes()

    # The manifest order is the file format: checkpoints written earlier
    # must keep loading, so these lists change only with the format.
    MANIFESTS = {
        "conv_binary_reversible_dual": (
            conv_config(image=8, patch=2, D=16),
            ["stem.stage0.conv.weight", "stem.stage0.bn.gamma", "stem.stage0.bn.beta",
             "stem.stage1.conv.weight", "stem.stage1.bn.gamma", "stem.stage1.bn.beta",
             "stem.stage2.conv.weight", "stem.stage2.bn.gamma", "stem.stage2.bn.beta",
             "stem.stage3.conv.weight", "stem.stage3.bn.gamma", "stem.stage3.bn.beta",
             "block0.bssa.q.weight", "block0.bssa.k.weight", "block0.bssa.v.weight",
             "block0.bssa.o.weight",
             "block0.bssa.q_bn.gamma", "block0.bssa.q_bn.beta",
             "block0.bssa.k_bn.gamma", "block0.bssa.k_bn.beta",
             "block0.bssa.v_bn.gamma", "block0.bssa.v_bn.beta",
             "block0.bssa.o_bn.gamma", "block0.bssa.o_bn.beta",
             "block0.bssa.lambda.scale",
             "block0.bmlp.fc1.weight", "block0.bmlp.bn1.gamma", "block0.bmlp.bn1.beta",
             "block0.bmlp.fc2.weight", "block0.bmlp.bn2.gamma", "block0.bmlp.bn2.beta",
             "head_cls.weight", "head_cls.bias", "head_dist.weight", "head_dist.bias"],
            ["stem.stage0.bn.running_mean", "stem.stage0.bn.running_var",
             "stem.stage1.bn.running_mean", "stem.stage1.bn.running_var",
             "stem.stage2.bn.running_mean", "stem.stage2.bn.running_var",
             "stem.stage3.bn.running_mean", "stem.stage3.bn.running_var",
             "block0.bssa.q_bn.running_mean", "block0.bssa.q_bn.running_var",
             "block0.bssa.k_bn.running_mean", "block0.bssa.k_bn.running_var",
             "block0.bssa.v_bn.running_mean", "block0.bssa.v_bn.running_var",
             "block0.bssa.o_bn.running_mean", "block0.bssa.o_bn.running_var",
             "block0.bmlp.bn1.running_mean", "block0.bmlp.bn1.running_var",
             "block0.bmlp.bn2.running_mean", "block0.bmlp.bn2.running_var"],
            ["stem.stage0.conv.packed", "stem.stage1.conv.packed", "stem.stage2.conv.packed",
             "stem.stage3.conv.packed",
             "block0.bssa.q.packed", "block0.bssa.k.packed", "block0.bssa.v.packed",
             "block0.bssa.o.packed", "block0.bmlp.fc1.packed", "block0.bmlp.fc2.packed"],
        ),
        "vector_full_residual": (
            toy_config("residual", depth=1, weight_mode="full"),
            ["stem.proj.weight", "stem.bn.gamma", "stem.bn.beta",
             "block0.bssa.q.weight", "block0.bssa.k.weight", "block0.bssa.v.weight",
             "block0.bssa.o.weight",
             "block0.bssa.q_bn.gamma", "block0.bssa.q_bn.beta",
             "block0.bssa.k_bn.gamma", "block0.bssa.k_bn.beta",
             "block0.bssa.v_bn.gamma", "block0.bssa.v_bn.beta",
             "block0.bssa.o_bn.gamma", "block0.bssa.o_bn.beta",
             "block0.bmlp.fc1.weight", "block0.bmlp.bn1.gamma", "block0.bmlp.bn1.beta",
             "block0.bmlp.fc2.weight", "block0.bmlp.bn2.gamma", "block0.bmlp.bn2.beta",
             "head_cls.weight", "head_cls.bias"],
            ["stem.bn.running_mean", "stem.bn.running_var",
             "block0.bssa.q_bn.running_mean", "block0.bssa.q_bn.running_var",
             "block0.bssa.k_bn.running_mean", "block0.bssa.k_bn.running_var",
             "block0.bssa.v_bn.running_mean", "block0.bssa.v_bn.running_var",
             "block0.bssa.o_bn.running_mean", "block0.bssa.o_bn.running_var",
             "block0.bmlp.bn1.running_mean", "block0.bmlp.bn1.running_var",
             "block0.bmlp.bn2.running_mean", "block0.bmlp.bn2.running_var"],
            [],  # full mode writes no 1-bit images
        ),
    }

    @pytest.mark.parametrize("kind", list(MANIFESTS))
    def test_manifest_order_is_pinned(self, kind):
        cfg, params, buffers, packed = self.MANIFESTS[kind]
        net = SpikingTransformer(cfg, seed=39)
        assert [n for n, _ in net.named_params()] == params
        assert [n for n, _ in net.named_buffers()] == buffers
        blob = checkpoint_bytes(net)
        (hlen,) = struct.unpack("<I", blob[len(net.CKPT_MAGIC):len(net.CKPT_MAGIC) + 4])
        header = json.loads(blob[len(net.CKPT_MAGIC) + 4:len(net.CKPT_MAGIC) + 4 + hlen])
        assert [a["name"] for a in header["arrays"]] == params + buffers
        assert [p["name"] for p in header["packed"]] == packed

    KINDS = {
        "reversible": (toy_config("reversible"), (4, 64)),
        "residual": (toy_config("residual"), (4, 64)),
        "full": (toy_config("reversible", weight_mode="full"), (4, 64)),
        "conv": (conv_config(image=16), (2, 3, 16, 16)),
    }

    @pytest.mark.parametrize("poison", [False, True])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_state_entry_is_read_in(self, tmp_path, monkeypatch, kind, poison):
        cfg, shape = self.KINDS[kind]
        net = SpikingTransformer(cfg, seed=40)
        net.forward(Rng(41).normal(shape, std=2.0), training=True)  # move BN stats off their init
        path = tmp_path / "m.bin"
        save_checkpoint(net, path)
        if poison:  # NaN in every array of the blank model, so none can pass unread
            blank = SpikingTransformer._blank

            def poisoned(cfg, seed):
                model = blank(cfg, seed)
                for _, arr in model.state_entries:
                    arr[...] = np.nan
                return model
            monkeypatch.setattr(SpikingTransformer, "_blank", poisoned)
        loaded = load_checkpoint(path)
        want, got = net.state_entries, loaded.state_entries
        assert [n for n, _ in got] == [n for n, _ in want]
        for (name, a), (_, b) in zip(want, got):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_load_draws_no_normals(self, tmp_path, monkeypatch):
        path = tmp_path / "m.bin"
        save_checkpoint(SpikingTransformer(toy_config("reversible"), seed=42), path)

        def boom(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")
        monkeypatch.setattr(Rng, "normal", boom)
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == path.read_bytes()

    @staticmethod
    def _with_array(raw: bytes, name: str, values: np.ndarray) -> bytes:
        """The checkpoint `raw` with the array `name` replaced by `values`."""
        header_len = int.from_bytes(raw[6:10], "little")
        header = json.loads(raw[10:10 + header_len])
        at = 10 + header_len
        for spec in header["arrays"]:
            size = 4 * int(np.prod(spec["shape"]))
            if spec["name"] == name:
                blob = np.asarray(values, dtype="<f4").reshape(spec["shape"]).tobytes()
                return raw[:at] + blob + raw[at + size:]
            at += size
        raise KeyError(name)

    @pytest.mark.parametrize("latent", ["constant", "nan"])
    def test_latent_that_cannot_be_binarized_is_data_error(self, tmp_path, latent):
        net = SpikingTransformer(toy_config("reversible"), seed=43)
        lyr = next(net.binary_linear_layers())
        value = {"constant": 0.5, "nan": np.nan}[latent]
        path = tmp_path / "m.bin"
        path.write_bytes(self._with_array(checkpoint_bytes(net), f"{lyr.name}.weight",
                                          np.full(lyr.weight.value.shape, value)))
        with pytest.raises(DataError, match=f"{lyr.name}.weight cannot be binarized"):
            load_checkpoint(path)

    def test_latent_whose_signs_differ_from_its_image_is_data_error(self, tmp_path):
        net = SpikingTransformer(toy_config("residual"), seed=44)
        lyr = list(net.binary_linear_layers())[3]
        path = tmp_path / "m.bin"
        path.write_bytes(self._with_array(checkpoint_bytes(net), f"{lyr.name}.weight",
                                          -lyr.weight.value))
        with pytest.raises(DataError, match=f"image {lyr.name}.packed does not match"):
            load_checkpoint(path)

    def test_load_seeds_the_sign_caches(self, tmp_path):
        net = SpikingTransformer(toy_config("reversible"), seed=45)
        path = tmp_path / "m.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        layers = list(loaded.binary_linear_layers())
        seeded = [lyr._sign_cache for lyr in layers]
        for lyr, (version, signs) in zip(layers, seeded):
            want = binary_signs(lyr.weight.value, lyr.per_channel)
            assert version == 0 and signs.tobytes() == want.tobytes()
        x, y = Rng(46).normal((4, 64)), np.arange(4)
        loaded.forward(x)  # the first forward reuses the seeded signs
        assert all(lyr._sign_cache is s for lyr, s in zip(layers, seeded))
        logits, dist = loaded.forward(x, training=True)
        loaded.backward(np.ones_like(logits), np.ones_like(dist))
        learn.AdamW(loaded.named_params(), lr=1e-2).step()
        loaded.forward(x)  # an optimizer step invalidates them
        for lyr, s in zip(layers, seeded):
            assert lyr._sign_cache is not s and lyr._sign_cache[0] == 1


# ---------------------------------------------------------------------------
# in-place kernels against the plain expressions they replaced, byte for byte


def _bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # signed zeros and NaN payloads included


def _lif_forward_reference(p, x):
    dt = x.dtype
    u = np.zeros(x.shape[1:], dtype=dt)
    spikes, u_pre = np.empty_like(x), np.empty_like(x)
    tau, vth = dt.type(p.tau), dt.type(p.v_threshold)
    for t in range(x.shape[0]):
        up = tau * u + x[t]
        s = (up >= vth).astype(dt)
        u_pre[t] = up
        spikes[t] = s
        u = (1.0 - s) * up if p.reset is Reset.HARD else up - vth * s
    return spikes, u_pre


def _lif_backward_reference(p, u_pre, spikes, g_spikes):
    spikes = spikes.astype(u_pre.dtype)  # the layer keeps them as bool
    tau = np.float32(p.tau)
    g_x = np.empty_like(g_spikes)
    g_u = np.zeros(g_spikes.shape[1:], dtype=g_spikes.dtype)
    for t in range(g_spikes.shape[0] - 1, -1, -1):
        g_upre = g_spikes[t] * neuron.surrogate_grad(u_pre[t], p)
        if p.reset is Reset.HARD:
            g_upre = g_upre + g_u * (1.0 - spikes[t])
        else:
            g_upre = g_upre + g_u
        g_x[t] = g_upre
        g_u = tau * g_upre
    return g_x


def _lif_input(dtype, seed=40):
    x = Rng(seed).normal((5, 7, 9), std=1.5).astype(dtype)
    x[0, 0, :4] = [np.inf, -np.inf, np.nan, -0.0]
    x[2, 1, :3] = [np.nan, np.inf, -np.inf]
    x[1, 2, :] = 1.0  # exactly at threshold
    x[1, 3, :] = 20.0  # saturates the surrogate: its derivative rounds to 0
    return x


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the reset
class TestLifKernel:
    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_matches_reference_bytewise(self, reset, dtype):
        p = toy_config("residual").lif(reset=reset)
        x = _lif_input(dtype)
        want_s, want_u = _lif_forward_reference(p, x)
        lif = LifLayer(p)
        _bytes_equal(lif.forward(x), want_s)
        rec = M.ForwardRecord(saved=True)
        _bytes_equal(lif.forward(x, rec), want_s)
        _bytes_equal(rec.saved[lif][0], want_u)

    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    def test_forward_and_lif_run_match_lif_step_loop(self, reset):
        p = toy_config("residual").lif(reset=reset)
        for shape in [(6, 4, 11), (6,)]:
            x = Rng(41).normal(shape, std=1.5)
            state = LifState.zeros(shape[1:])
            want = np.empty_like(x)
            for t in range(shape[0]):
                want[t], state = lif_step(state, x[t], p)
            _bytes_equal(LifLayer(p).forward(x), want)
            _bytes_equal(lif_run(x, p), want)

    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_reference_bytewise(self, reset, dtype):
        p = toy_config("residual").lif(reset=reset)
        x = _lif_input(dtype)
        lif = LifLayer(p)
        gs = [Rng(42 + i).normal(x.shape).astype(dtype) for i in range(3)]
        for g in gs:
            g[1:, 3, :] = -1.0  # into the saturated row
        for g in gs:
            rec = M.ForwardRecord(saved=True)
            lif.forward(x, rec)  # each backward consumes one training forward
            want = _lif_backward_reference(p, *rec.saved[lif], g)
            if reset is Reset.HARD:  # the reset gate zeroes the carry: -0.0 input gradients
                assert np.signbit(want[1, 3]).all() and not want[1, 3].any()
            _bytes_equal(lif.backward(g, rec=rec), want)
        # several upstream gradients: summed from zero in argument order
        rec = M.ForwardRecord(saved=True)
        lif.forward(x, rec)
        want = np.zeros_like(gs[0])
        for g in gs:
            want += _lif_backward_reference(p, *rec.saved[lif], g)
        _bytes_equal(lif.backward(*gs, rec=rec), want)

    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuilt_membranes_match_reference_bytewise(self, reset, dtype):
        # a forward told its input is rebuilt keeps only the bool spikes;
        # backward re-runs the recurrence on the input with those reset gates
        p = toy_config("residual").lif(reset=reset)
        x = _lif_input(dtype)
        want_s, want_u = _lif_forward_reference(p, x)
        lif = LifLayer(p)
        rec = M.ForwardRecord(saved=True)
        _bytes_equal(lif.forward(x, rec, rebuilt=True), want_s)
        u_pre, fired = rec.saved[lif]
        assert u_pre is None and fired.dtype == np.bool_
        _bytes_equal(neuron._lif(x, p, keep_membranes=True, gates=fired)[1], want_u)
        gs = [Rng(45 + i).normal(x.shape).astype(dtype) for i in range(2)]
        want = _lif_backward_reference(p, want_u, fired, gs[0])
        want += _lif_backward_reference(p, want_u, fired, gs[1])
        _bytes_equal(lif.backward(*gs, rec=rec, x=x), want)


def _bn_reference_forward(bn, x, training):
    dt = x.dtype
    if training:
        flat = x.reshape(-1, bn.channels)
        mean = flat.mean(axis=0, dtype=np.float64).astype(dt)
        var = flat.var(axis=0, dtype=np.float64).astype(dt)
    else:
        mean, var = bn.running_mean, bn.running_var
    inv = 1.0 / np.sqrt(var + dt.type(bn.epsilon))
    xhat = (x - mean) * inv
    return xhat * bn.gamma.value + bn.beta.value, xhat, inv, mean, var


def _bn_reference_backward(bn, g_out, xhat, inv, training):
    axes = tuple(range(g_out.ndim - 1))
    g_beta = g_out.sum(axis=axes)
    g_gamma = (g_out * xhat).sum(axis=axes)
    g_xhat = g_out * bn.gamma.value
    if not training:
        return g_xhat * inv, g_gamma, g_beta
    n = float(np.prod(g_out.shape[:-1]))
    mean_g = g_xhat.sum(axis=axes) / n
    mean_gx = (g_xhat * xhat).sum(axis=axes) / n
    return (g_xhat - mean_g - xhat * mean_gx) * inv, g_gamma, g_beta


class TestBatchNormKernel:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("strided_grad", [False, True])
    def test_forward_backward_match_reference_bytewise(self, training, dtype, strided_grad):
        C = 6
        bn = BatchNormLayer("bn", C)
        r = Rng(43)
        for prm in (bn.gamma, bn.beta):
            prm.value = (prm.value + r.normal((C,), std=0.5)).astype(dtype)
            prm.grad = np.zeros_like(prm.value)
        bn.running_mean[:] = r.normal((C,))
        bn.running_var[:] = 1.0 + r.uniform((C,))
        x = (r.normal((3, 4, 5, C), std=2.0) + 0.7).astype(dtype)
        before = bn.running_mean.copy(), bn.running_var.copy()
        want, xhat, inv, mean, var = _bn_reference_forward(bn, x, training)
        rec = M.ForwardRecord(saved=True)
        for fwd_rec in (None, rec):
            bn.running_mean[:], bn.running_var[:] = before
            _bytes_equal(bn.forward(x, training, fwd_rec), want)
        if dtype is np.float32:  # numeric.batch_norm works in float32
            p = BatchNormParams(bn.gamma.value, bn.beta.value, before[0].copy(), before[1].copy())
            _bytes_equal(batch_norm(x, p, training), want)
            _bytes_equal(p.running_mean, bn.running_mean)
            _bytes_equal(p.running_var, bn.running_var)
        if training:
            m = bn.momentum
            assert bn.running_mean.tobytes() == (
                ((1.0 - m) * before[0] + m * mean).astype(np.float32)).tobytes()
            assert bn.running_var.tobytes() == (
                ((1.0 - m) * before[1] + m * var).astype(np.float32)).tobytes()
        g = r.normal(x.shape).astype(dtype)
        if strided_grad:  # channels-last view of a channels-first array, as in the conv stem
            g = np.moveaxis(np.ascontiguousarray(np.moveaxis(g, -1, 2)), 2, -1)
        want_g, want_gamma, want_beta = _bn_reference_backward(bn, g, xhat, inv, training)
        _bytes_equal(bn.backward(g, rec), want_g)
        _bytes_equal(bn.gamma.grad, want_gamma)
        _bytes_equal(bn.beta.grad, want_beta)
        # told its input is rebuilt, a forward keeps the statistics alone;
        # the caller hands the input back before backward
        bn.running_mean[:], bn.running_var[:] = before
        _bytes_equal(bn.forward(x, training, rec, rebuilt=True), want)
        kept, mean_kept, inv_kept, _ = rec.saved[bn]
        assert kept is None and mean_kept.shape == inv_kept.shape == (C,)
        _bytes_equal(bn._normalize_again(rec, x.copy()), xhat)
        _bytes_equal(bn._output_again(xhat), want)
        _bytes_equal(bn.backward(g, rec), want_g)
        _bytes_equal(bn.gamma.grad, want_gamma + want_gamma)


class TestSharedInputLif:
    def _reference_three_lifs(self, blk, cfg, x, g_out):
        """The BSSA forward and backward with one input LIF per projection."""
        ins = [LifLayer(cfg.lif()) for _ in range(3)]
        rec = M.ForwardRecord(saved=True)
        outs = []
        for lin, proj, bn, lif in zip(ins, (blk.q_proj, blk.k_proj, blk.v_proj),
                                      (blk.q_bn, blk.k_bn, blk.v_bn),
                                      (blk.q_lif, blk.k_lif, blk.v_lif)):
            outs.append(lif.forward(bn.forward(proj.forward(lin.forward(x, rec), rec),
                                               True, rec), rec))
        qh, kh, vh = (blk._split(a) for a in outs)
        attn = np.einsum("tbhnd,tbhmd->tbhnm", qh, kh, optimize=True)
        s_attn = blk.attn_lif.forward(attn, rec)
        ctx0 = np.einsum("tbhnm,tbhmd->tbhnd", s_attn, vh, optimize=True)
        ctx = blk.lam.forward(ctx0)
        out = blk.o_bn.forward(blk.o_proj.forward(blk.o_in.forward(blk._merge(ctx), rec), rec),
                               True, rec)
        g = blk.o_in.backward(blk.o_proj.backward(blk.o_bn.backward(g_out, rec), rec), rec=rec)
        g_ctx0 = blk.lam.backward(blk._split(g), ctx0)
        g_sattn = np.einsum("tbhnd,tbhmd->tbhnm", g_ctx0, vh, optimize=True)
        g_vh = np.einsum("tbhnm,tbhnd->tbhmd", s_attn, g_ctx0, optimize=True)
        g_attn = blk.attn_lif.backward(g_sattn, rec=rec)
        g_qh = np.einsum("tbhnm,tbhmd->tbhnd", g_attn, kh, optimize=True)
        g_kh = np.einsum("tbhnm,tbhnd->tbhmd", g_attn, qh, optimize=True)
        g_x = np.zeros(g_out.shape, dtype=g_out.dtype)
        for gh, lif, bn, proj, lin in zip((g_qh, g_kh, g_vh), (blk.q_lif, blk.k_lif, blk.v_lif),
                                          (blk.q_bn, blk.k_bn, blk.v_bn),
                                          (blk.q_proj, blk.k_proj, blk.v_proj), ins):
            g_x += lin.backward(proj.backward(bn.backward(lif.backward(blk._merge(gh), rec=rec),
                                                          rec), rec), rec=rec)
        return out, g_x

    @pytest.mark.parametrize("seed", [50, 51])
    def test_gradients_match_three_lif_reference_bytewise(self, seed):
        cfg = toy_config("residual", timesteps=3)
        x = Rng(seed).normal((3, 4, 5, 32), std=2.0)
        g_out = Rng(seed + 1).normal(x.shape)
        got_blk, ref_blk = BssaBlock("b", cfg, Rng(seed)), BssaBlock("b", cfg, Rng(seed))
        rec = M.ForwardRecord(saved=True)
        got_out = got_blk.forward(x, training=True, rec=rec)
        got_g = got_blk.backward(g_out, rec)
        want_out, want_g = self._reference_three_lifs(ref_blk, cfg, x, g_out)
        assert got_out.tobytes() == want_out.tobytes()
        assert got_g.tobytes() == want_g.tobytes()
        _same_grads(got_blk, ref_blk)
        assert len(list(M.walk(got_blk, LifLayer))) == 6  # x_in, o_in, q, k, v, attn

    def test_one_alphabet_check_feeds_all_three_projections(self, monkeypatch):
        blk = BssaBlock("b", toy_config("residual"), Rng(52))
        checked = []
        count = BinaryLinearLayer._spike_count
        monkeypatch.setattr(BinaryLinearLayer, "_spike_count",
                            lambda lyr, flat: checked.append(lyr.name) or count(lyr, flat))
        rec = M.ForwardRecord()
        blk.forward(Rng(53).normal((2, 3, 4, 32), std=2.0), training=False, rec=rec)
        assert checked == ["b.q", "b.o"]  # x_in's spikes once, then o_in's
        spikes = rec.spikes[blk.q_proj]
        assert spikes > 0 and rec.spikes[blk.k_proj] == rec.spikes[blk.v_proj] == spikes


def _keep_every_float_cache(monkeypatch):
    """Make binary-mode training keep every float cache, as full mode does:
    every LIF saves its membranes and every BN its xhat, and backward reads
    those in place of the inputs it rebuilds."""
    lif_forward, bn_forward = LifLayer.forward, BatchNormLayer.forward
    monkeypatch.setattr(LifLayer, "forward",
                        lambda self, x, rec=None, rebuilt=False: lif_forward(self, x, rec))
    monkeypatch.setattr(BatchNormLayer, "forward",
                        lambda self, x, training, rec=None, rebuilt=False:
                        bn_forward(self, x, training, rec))
    monkeypatch.setattr(BatchNormLayer, "_normalize_again", lambda self, rec, x: rec.saved[self][0])


def _named_params(part):
    """(name, Param) of every part under `part`, in walk order."""
    return [entry for p in M.walk(part) if hasattr(p, "params") for entry in p.params()]


def _same_grads(got_part, want_part):
    got, want = _named_params(got_part), _named_params(want_part)
    assert [n for n, _ in got] == [n for n, _ in want] and got
    for (name, p), (_, q) in zip(got, want):
        assert p.grad.tobytes() == q.grad.tobytes(), name


class TestRebuiltInputs:
    """A binary-mode training forward keeps no BN xhat and no membranes of
    a LIF whose input backward can rebuild; the rebuilt backward must match
    a reference that keeps every float cache, byte for byte."""

    def test_bmlp_matches_float_cache_reference_bytewise(self):
        cfg = toy_config("residual", timesteps=3)
        x = Rng(60).normal((3, 4, 5, 32), std=2.0)
        g_out = Rng(61).normal(x.shape)
        got_blk, ref = M.BmlpBlock("m", cfg, Rng(62)), M.BmlpBlock("m", cfg, Rng(62))
        rec = M.ForwardRecord(saved=True)
        got_out = got_blk.forward(x, training=True, rec=rec)
        assert rec.saved[got_blk.bn1][0] is None and rec.saved[got_blk.bn2][0] is None
        assert rec.saved[got_blk.lif2][0] is None and rec.saved[got_blk.lif1][0] is not None
        got_g = got_blk.backward(g_out, rec)
        assert rec.saved == {}
        # the reference: each layer called on its own keeps every float cache
        rec = M.ForwardRecord(saved=True)
        h = ref.bn1.forward(ref.fc1.forward(ref.lif1.forward(x, rec), rec), True, rec)
        want_out = ref.bn2.forward(ref.fc2.forward(ref.lif2.forward(h, rec), rec), True, rec)
        g = ref.fc2.backward(ref.bn2.backward(g_out, rec), rec)
        g = ref.fc1.backward(ref.bn1.backward(ref.lif2.backward(g, rec=rec), rec), rec)
        want_g = ref.lif1.backward(g, rec=rec)
        assert got_out.tobytes() == want_out.tobytes()
        assert got_g.tobytes() == want_g.tobytes()
        _same_grads(got_blk, ref)

    def test_vector_stem_matches_float_cache_reference_bytewise(self):
        cfg = toy_config("residual", timesteps=3)
        x = Rng(63).normal((5, 64), std=2.0)
        got_stem, ref = M.VectorStem(cfg, Rng(64)), M.VectorStem(cfg, Rng(64))
        rec = M.ForwardRecord(saved=True)
        got_out = got_stem.forward(x, training=True, rec=rec)
        assert rec.saved[got_stem.bn][0] is None
        g_out = Rng(65).normal(got_out.shape)
        got_g = got_stem.backward(g_out, rec)
        rec = M.ForwardRecord(saved=True)
        rep = np.broadcast_to(x.reshape(5, ref.tokens, ref.chunk), (3, 5, ref.tokens, ref.chunk))
        want_out = ref.bn.forward(ref.linear.forward(ref.lif.forward(rep.astype(np.float32), rec),
                                                     rec), True, rec)
        want_g = ref.lif.backward(ref.linear.backward(ref.bn.backward(g_out, rec), rec), rec=rec)
        assert got_out.tobytes() == want_out.tobytes()
        assert got_g.shape == rep.shape and got_g.tobytes() == want_g.tobytes()
        _same_grads(got_stem, ref)

    @pytest.mark.parametrize("kind", ["reversible", "residual", "conv"])
    def test_training_steps_match_float_cache_reference_bytewise(self, kind, monkeypatch):
        cfg, shape = {
            "reversible": (toy_config("reversible", timesteps=3), (8, 64)),
            "residual": (toy_config("residual", timesteps=3), (8, 64)),
            "conv": (conv_config(image=16), (4, 3, 16, 16)),
        }[kind]
        x, y = Rng(66).normal(shape, std=2.0), np.arange(shape[0]) % 10
        nets = []
        for reference in (False, True):
            net = SpikingTransformer(cfg, seed=67)
            with monkeypatch.context() as mp:
                if reference:
                    _keep_every_float_cache(mp)
                net.forward(x[:2], training=True)
                kept = [net._record.saved[lif][0] is not None for lif in net.lif_layers()]
                assert all(kept) == reference
                net.backward(*(np.ones((2, 10), np.float32),) * 2)  # drops the record
                opt = learn.AdamW(net.named_params(), lr=1e-2)
                learn.train_epoch(net, (x, y), None, opt, Rng(68), batch_size=4)
            nets.append(net)
        got, want = nets
        for (name, p), (_, q) in zip(got.named_params(), want.named_params()):
            assert p.grad.tobytes() == q.grad.tobytes(), name
            assert p.value.tobytes() == q.value.tobytes(), name
        for (name, a), (_, b) in zip(got.named_buffers(), want.named_buffers()):
            assert a.tobytes() == b.tobytes(), name


class TestCheckpointImages:
    def test_packed_images_equal_fresh_binarization(self):
        net = SpikingTransformer(toy_config("reversible"), seed=37)
        x, y = Rng(38).normal((8, 64)), np.arange(8) % 10
        learn.train_model(net, (x, y), epochs=2, rng=Rng(39), batch_size=4)
        for lyr in net.binary_linear_layers():
            lyr.forward(np.zeros((1, lyr.in_features), dtype=np.float32))  # fill the sign cache
        # the images close the container, in layer order
        fresh = b"".join(
            binary.packed_bytes(binary.binarize_weights(lyr.weight.value, lyr.per_channel)[0])
            for lyr in net.binary_linear_layers()
        )
        assert checkpoint_bytes(net).endswith(fresh)


def _model_fields(net):
    """(owner, field name, value) of every field of the model and of each
    object in it from the model module."""
    out, todo, seen = [], [net], set()
    while todo:
        obj = todo.pop()
        if isinstance(obj, (list, tuple)):
            todo.extend(obj)
            continue
        if type(obj).__module__ != M.__name__ or id(obj) in seen:
            continue
        seen.add(id(obj))
        fields = (vars(obj) if hasattr(obj, "__dict__")
                  else {f: getattr(obj, f) for f in type(obj).__slots__})
        for name, value in fields.items():
            out.append((obj, name, value))
            todo.append(value)
    return out


def _cache_fields(net):
    """(owner, field name, value) of every per-call field on the model and
    its layers: the private attributes, apart from the weight-sign cache
    that lives until the next weight update. Of these, only the model's
    `_record` is ever bound, from a training forward to its backward."""
    return [(type(obj).__name__, name, value) for obj, name, value in _model_fields(net)
            if name.startswith("_") and name != "_sign_cache"]


def _state_snapshot(net):
    """Every field of `_model_fields`, by owner: the value bound (by
    identity) and, for an array, its bytes, so a rebinding and an
    in-place write both show."""
    return {(id(obj), name): (id(value), value.tobytes() if isinstance(value, np.ndarray) else None)
            for obj, name, value in _model_fields(net)}


class TestTrainingCaches:
    """A training forward saves each spike tensor once, as bool, in its
    `ForwardRecord`, and the backward that reads the record pops every
    entry. The layers and blocks keep nothing of the call."""

    NETS = {
        "reversible": (toy_config("reversible"), (6, 64)),
        "full_residual": (toy_config("residual", weight_mode="full"), (6, 64)),
        "conv": (conv_config(image=16), (3, 3, 16, 16)),
    }

    def _training_forward(self, kind):
        cfg, shape = self.NETS[kind]
        net = SpikingTransformer(cfg, seed=80)
        logits, dist = net.forward(Rng(81).normal(shape, std=2.0), training=True)
        return net, logits, dist

    @staticmethod
    def _backward(net, logits, dist):
        net.backward(np.ones_like(logits), None if dist is None else np.ones_like(dist))

    @staticmethod
    def _rebuilt_lifs(net):
        """The LIFs whose input backward rebuilds in binary mode: those fed
        by a BN, the attention map or the attention context."""
        out = set()
        for blk in net.blocks:
            bssa, bmlp = blk.parts()
            out |= {bssa.q_lif, bssa.k_lif, bssa.v_lif, bssa.attn_lif, bssa.o_in, bmlp.lif2}
        return out

    @pytest.mark.parametrize("kind", list(NETS))
    def test_spikes_are_kept_once_as_bool(self, kind):
        net, _, _ = self._training_forward(kind)
        saved = net._record.saved
        binary_mode = kind != "full_residual"
        rebuilt = self._rebuilt_lifs(net) if binary_mode else set()
        for lif in net.lif_layers():
            if kind == "full_residual" and lif.p.reset is Reset.SOFT:
                assert lif not in saved  # full-precision attention is not binarized
                continue
            u_pre, spikes = saved[lif]
            assert spikes.dtype == np.bool_
            if lif in rebuilt:  # backward re-runs the recurrence on the rebuilt input
                assert u_pre is None
            else:  # fed by a stream or the input, or a full-mode float sum
                assert u_pre.dtype == np.float32 and u_pre.shape == spikes.shape
        # a BN after a binary layer keeps its statistics alone; backward
        # rebuilds its input, an exact integer sum, from that layer's entry
        for bn in M.walk(net, BatchNormLayer):
            xhat, mean, inv, training = saved[bn]
            assert training and mean.dtype == inv.dtype == np.float32
            assert mean.shape == inv.shape == (bn.channels,)
            if binary_mode:
                assert xhat is None
            else:
                assert xhat.dtype == np.float32 and xhat.shape[-1] == bn.channels
                assert xhat.size > bn.channels
        pairs = [(blk.x_in, proj) for blk in net.bssa_blocks()
                 for proj in (blk.q_proj, blk.k_proj, blk.v_proj)]
        pairs += [(blk.o_in, blk.o_proj) for blk in net.bssa_blocks()]
        for blk in net.blocks:
            pairs += [(blk.bmlp.lif1, blk.bmlp.fc1), (blk.bmlp.lif2, blk.bmlp.fc2)]
        if kind != "conv":
            pairs.append((net.stem.lif, net.stem.linear))
        for lif, lyr in pairs:
            in2d, _ = saved[lyr]
            assert in2d.dtype == np.bool_ and np.shares_memory(in2d, saved[lif][1])
        for lam in M.walk(net, M.LambdaLayer):  # binary mode only
            assert [n for n in vars(lam) if n.startswith("_")] == []  # no context kept
        for blk in net.bssa_blocks():
            q, k, v, s_attn = saved[blk]
            assert q is saved[blk.q_lif][1] and k is saved[blk.k_lif][1]
            assert v is saved[blk.v_lif][1]
            if blk.binary_attn:
                assert s_attn is saved[blk.attn_lif][1]
            else:  # the integer attention map, which no LIF emits
                assert s_attn.dtype == np.float32
        if kind == "conv":  # im2col keeps its own bool copy
            for lif, conv, _, pool in net.stem.stages:
                in2d, _ = saved[conv.linear]
                assert in2d.dtype == np.bool_
                assert not np.shares_memory(in2d, saved[lif][1])
                assert pool is None or saved[pool][0].dtype == np.uint8  # argmax in 0..3

    @pytest.mark.parametrize("kind", list(NETS))
    def test_backward_frees_every_cache(self, kind):
        net, logits, dist = self._training_forward(kind)
        rec = net._record
        assert {type(o).__name__ for o in rec.saved} >= {
            "LifLayer", "BinaryLinearLayer", "BatchNormLayer", "LinearHead", "BssaBlock",
            "SpikingTransformer"} | ({"MaxPool2Layer"} if kind == "conv" else set())
        self._backward(net, logits, dist)
        assert rec.saved == {} and net._record is None
        assert [(o, n) for o, n, v in _cache_fields(net) if v is not None] == []

    @pytest.mark.parametrize("kind", list(NETS))
    def test_training_rebinds_no_field_of_a_layer_or_block(self, kind):
        # parameters, gradients and BN buffers are written in place; the
        # weight-sign cache is weight state, rebound after an update
        cfg, shape = self.NETS[kind]
        net = SpikingTransformer(cfg, seed=80)

        def bound():
            return {(id(obj), name): (type(obj).__name__, name, value)
                    for obj, name, value in _model_fields(net)
                    if obj is not net and not isinstance(obj, M.ForwardRecord)
                    and name != "_sign_cache"}

        def rebound(before, now):
            return [(o, n) for key, (o, n, v) in before.items() if now[key][2] is not v]

        before = bound()
        logits, dist = net.forward(Rng(81).normal(shape, std=2.0), training=True)
        assert rebound(before, bound()) == []
        assert isinstance(net._record, M.ForwardRecord)
        self._backward(net, logits, dist)
        assert rebound(before, bound()) == [] and net._record is None

    def test_backward_needs_a_cached_forward(self):
        net = SpikingTransformer(toy_config("reversible"), seed=82)
        x, g = Rng(83).normal((4, 64)), np.ones((4, 10), dtype=np.float32)
        with pytest.raises(TrainingError, match="cached forward"):
            net.backward(g, g)  # no forward at all
        net.forward(x)
        with pytest.raises(TrainingError, match="cached forward"):
            net.backward(g, g)  # an inference forward caches nothing
        net.forward(x, training=True)
        net.backward(g, g)
        with pytest.raises(TrainingError, match="cached forward"):
            net.backward(g, g)  # the first backward consumed the caches
        lif = LifLayer(toy_config("residual").lif())
        rec = M.ForwardRecord(saved=True)
        lif.forward(x, rec)
        lif.backward(x, rec=rec)
        with pytest.raises(TrainingError, match="cached forward"):
            lif.backward(x, rec=rec)
        for rec in (None, M.ForwardRecord()):  # no record, or one that saves nothing
            lif.forward(x, rec)
            with pytest.raises(TrainingError, match="cached forward"):
                lif.backward(x, rec=rec)

    def test_no_activation_outlives_training(self):
        # depth 4 at train_deep's width: caches that no backward freed kept
        # every activation of the last step, 90 times the parameter bytes
        cfg = ModelConfig(depth=4, embed_dim=64, heads=2, timesteps=4,
                          stem=StemSpec(kind="vector", in_features=256, tokens=16))
        x, y = Rng(84).normal((64, 256)), np.arange(64) % 10
        tracemalloc.start()
        try:
            net = SpikingTransformer(cfg, seed=85)
            before = tracemalloc.get_traced_memory()[0]
            learn.train_model(net, (x, y), epochs=1, rng=Rng(86), batch_size=32)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        params = sum(p.value.nbytes for _, p in net.named_params())
        # what stays: the float32 sign caches of the binary weights
        assert grown <= 2 * params, (grown, params)

    @pytest.mark.parametrize("topology,mode", [("reversible", "binary"), ("residual", "full")])
    def test_training_step_memory_per_block(self, topology, mode):
        # a block kept about 137 bytes per element of its (T, B, N, D)
        # stream with float32 spike caches and head-split copies; bool
        # spikes kept once bring it to about 93 (89 measured in full mode).
        # In binary mode backward rebuilds the BN inputs and most LIF
        # membranes, which leaves about 19
        T, B, N, D = 2, 16, 8, 32
        peaks = []
        for depth in (1, 3):
            net = SpikingTransformer(toy_config(topology, weight_mode=mode, depth=depth,
                                                embed_dim=D, timesteps=T, tokens=N), seed=87)
            x, g = Rng(88).normal((B, 64), std=2.0), np.full((B, 10), 0.01, dtype=np.float32)
            net.forward(x)  # sign caches exist before the measurement
            tracemalloc.start()
            try:
                logits, dist = net.forward(x, training=True)
                net.backward(g, None if dist is None else g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_block = (peaks[1] - peaks[0]) / 2
        assert per_block <= (30 if mode == "binary" else 110) * T * B * N * D, per_block

    def test_calibrate_keeps_no_caches_and_matches_a_training_forward(self):
        cfg = toy_config("reversible", embed_dim=64, timesteps=4, tokens=8)
        x = Rng(89).normal((32, 64), std=2.0)
        net, ref = SpikingTransformer(cfg, seed=90), SpikingTransformer(cfg, seed=90)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.calibrate(x)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [(o, n) for o, n, v in _cache_fields(net) if v is not None] == []
        assert grown <= sum(p.value.nbytes for _, p in net.named_params()), grown
        # the running statistics of a training forward at momentum 1
        for bn in M.walk(ref, BatchNormLayer):
            bn.momentum = 1.0
        ref.forward(x, training=True)
        for (name, got), (_, want) in zip(net.named_buffers(), ref.named_buffers()):
            assert got.tobytes() == want.tobytes(), name


class TestTiledInference:
    """Binary-mode inference forwards run in sample tiles, on one worker
    thread or several, and must match a full-batch pass byte for byte."""

    @staticmethod
    def _tile(net, workers):
        """Samples per tile when `workers` threads share the row budget."""
        return M.INFER_TILE_ROWS // workers // (net.cfg.timesteps * net.stem.tokens)

    @staticmethod
    def _outputs(net, x):
        y, y_d = net.forward(x, training=False)
        return (y.tobytes(), None if y_d is None else y_d.tobytes(),
                repr(metrics.cost_report(net, x).record()),
                repr(metrics.representation_report(net, x).records()))

    @pytest.mark.parametrize("kind", ["reversible", "residual", "conv"])
    def test_byte_identical_to_untiled(self, kind, monkeypatch):
        cfg = conv_config(image=16) if kind == "conv" else toy_config(kind)
        shape = (3, 16, 16) if kind == "conv" else (64,)
        net = SpikingTransformer(cfg, seed=60)
        net.calibrate(Rng(61).normal((8,) + shape, std=2.0))
        tile = self._tile(net, 2)
        assert tile > 2
        # 2 * tile + 3 samples make three tiles at two workers, two at one
        for batch in (1, tile - 1, tile, tile + 1, 2 * tile + 3):
            x = Rng(batch).normal((batch,) + shape, std=2.0)
            by_workers = {}
            with monkeypatch.context() as m:
                for workers in (1, 2):
                    m.setattr(M, "_infer_workers", lambda w=workers: w)
                    by_workers[workers] = self._outputs(net, x)
                m.setattr(M, "INFER_TILE_ROWS", 2**62)  # one tile holds any batch
                untiled = self._outputs(net, x)
            assert by_workers[2] == by_workers[1] == untiled, batch

    @pytest.mark.parametrize("kind,mode", [("reversible", "binary"), ("residual", "binary"),
                                           ("conv", "binary"), ("reversible", "full")])
    def test_inference_writes_nothing_on_the_model(self, kind, mode, monkeypatch):
        cfg = (conv_config(image=16) if kind == "conv"
               else toy_config(kind, weight_mode=mode))
        shape = (3, 16, 16) if kind == "conv" else (64,)
        net = SpikingTransformer(cfg, seed=78)
        x = Rng(79).normal((2 * self._tile(net, 2) + 3,) + shape, std=2.0)
        net.forward(x[:1])  # fills the sign caches, which live until a weight update
        for workers in (1, 2):
            monkeypatch.setattr(M, "_infer_workers", lambda w=workers: w)
            before = _state_snapshot(net)
            net.forward(x)
            rec = net.probe(x, taps=True)
            assert _state_snapshot(net) == before, workers
            assert len(rec.spikes) == len(list(net.binary_linear_layers()))
            assert len(rec.taps) == 2 * len(net.blocks)  # each BSSA and BMLP block

    @pytest.mark.parametrize("mode,training,tiled", [
        ("binary", False, True),
        ("binary", True, False),
        ("full", False, False),
    ])
    def test_only_binary_inference_is_tiled(self, mode, training, tiled, monkeypatch):
        net = SpikingTransformer(toy_config("reversible", weight_mode=mode), seed=62)
        stem_forward = net.stem.forward
        for workers in (1, 2):  # inline, then on the pool
            monkeypatch.setattr(M, "_infer_workers", lambda w=workers: w)
            tile = self._tile(net, workers)
            seen = []
            net.stem.forward = lambda x, *a: seen.append(x.shape[0]) or stem_forward(x, *a)
            net.forward(Rng(63).normal((2 * tile + 3, 64)), training=training)
            # tiles may finish in any order
            assert sorted(seen) == sorted([tile, tile, 3] if tiled else [2 * tile + 3]), workers

    def test_peak_memory_flat_in_batch(self, monkeypatch):
        net = SpikingTransformer(
            toy_config("reversible", embed_dim=64, timesteps=4, tokens=8), seed=64)
        tile = self._tile(net, 1)  # the rows in flight, in samples
        x = Rng(65).normal((8 * tile, 64), std=2.0)
        for workers in (1, 2):
            monkeypatch.setattr(M, "_infer_workers", lambda w=workers: w)
            net.forward(x)  # sign caches and the pool exist before the measurement
            peaks = []
            for batch in (tile, 8 * tile):
                tracemalloc.start()
                net.forward(x[:batch])
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert peaks[1] <= 1.5 * peaks[0], (workers, peaks)

    @pytest.mark.parametrize("cpus,cpu_max,blas,workers", [
        ({0}, None, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({0, 1, 2, 3}, None, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({0, 1, 2, 3}, "max 100000", {"OMP_NUM_THREADS": "1"}, 2),
        ({0, 1, 2, 3}, "400000 100000", {"MKL_NUM_THREADS": "1"}, 2),
        ({0, 1, 2, 3}, "150000 100000", {"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({0, 1, 2, 3}, "50000 100000", {"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({0}, "400000 100000", {"OPENBLAS_NUM_THREADS": "1"}, 1),
        # BLAS with no thread setting takes every CPU; so do 2 BLAS threads on 2 CPUs
        ({0, 1}, None, {}, 1),
        ({0, 1, 2, 3}, None, {}, 1),
        ({0, 1}, None, {"OPENBLAS_NUM_THREADS": "2"}, 1),
        ({0, 1, 2, 3}, None, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        # the first setting BLAS reads wins; a malformed one is skipped
        ({0, 1}, None, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ({0, 1}, None, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2),
    ])
    def test_workers_follow_cpus_quota_and_blas_threads(self, cpus, cpu_max, blas, workers,
                                                        tmp_path, monkeypatch):
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max + "\n")
        monkeypatch.setattr(M, "CGROUP_CPU_MAX", str(path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        for var in M.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in blas.items():
            monkeypatch.setenv(var, value)
        assert M._infer_workers() == workers

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads glibc behaviour")
    def test_tiles_do_not_fault_their_working_set_back_in(self):
        # a fresh process, so no earlier allocation has raised malloc's thresholds
        script = """
import resource, statistics
from spikebit.model import ModelConfig, SpikingTransformer, StemSpec
from spikebit.numeric import Rng
cfg = ModelConfig(depth=2, embed_dim=128, heads=4, timesteps=4, topology="reversible",
                  stem=StemSpec(kind="vector", in_features=256, tokens=16))
net = SpikingTransformer(cfg, seed=76)
x = Rng(77).normal((64, 256), std=2.0)
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    net.forward(x)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[1:]))
"""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [os.path.dirname(M.__file__) + "/..",
                                                            os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        # without the raised thresholds this read about 13,000 (50 MiB of pages)
        assert float(out) < 1000, out

    def test_two_workers_hold_no_more_memory_than_one(self, monkeypatch):
        net = SpikingTransformer(
            toy_config("reversible", embed_dim=64, timesteps=4, tokens=8), seed=64)
        x = Rng(65).normal((4 * self._tile(net, 1), 64), std=2.0)
        peaks = {}
        for workers in (1, 2):
            monkeypatch.setattr(M, "_infer_workers", lambda w=workers: w)
            net.forward(x)  # sign caches and the pool exist before the measurement
            tracemalloc.start()
            net.forward(x)
            peaks[workers] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[2] <= 1.1 * peaks[1], peaks

    def test_more_workers_than_cores_with_fast_switching_stay_exact(self, monkeypatch):
        net = SpikingTransformer(toy_config("reversible"), seed=71)
        net.calibrate(Rng(72).normal((8, 64), std=2.0))
        x = Rng(73).normal((7 * self._tile(net, 4) + 1, 64), std=2.0)
        monkeypatch.setattr(M, "_infer_workers", lambda: 1)
        want = self._outputs(net, x)
        monkeypatch.setattr(M, "_infer_workers", lambda: 4)
        monkeypatch.setattr(M, "_tile_pool", None)  # a private 4-thread pool
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [self._outputs(net, x) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
            if M._tile_pool is not None:
                M._tile_pool.shutdown()
        assert all(g == want for g in got)

    def test_one_capped_pool_serves_every_forward(self, monkeypatch):
        monkeypatch.setattr(M, "_infer_workers", lambda: 2)
        net = SpikingTransformer(toy_config("residual"), seed=66)
        x = Rng(67).normal((5 * self._tile(net, 2), 64), std=2.0)
        net.forward(x)
        pool = M._tile_pool
        net.forward(x)
        SpikingTransformer(toy_config("reversible"), seed=68).forward(x)
        assert pool is not None and M._tile_pool is pool
        workers = [t for t in threading.enumerate() if t.name.startswith("spikebit-tile")]
        assert 1 <= len(workers) <= M.INFER_MAX_WORKERS

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_tiles_on_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(M, "_infer_workers", lambda: 2)
        net = SpikingTransformer(toy_config("reversible"), seed=74)
        x = Rng(75).normal((3 * self._tile(net, 2), 64), std=2.0)
        want, _ = net.forward(x)  # the pool's threads exist before the fork
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: answer within the alarm or die silently
            try:
                os.close(read_end)
                signal.alarm(30)
                got, _ = net.forward(x)
                os.write(write_end, b"1" if got.tobytes() == want.tobytes() else b"0")
            finally:
                os._exit(0)
        os.close(write_end)
        os.waitpid(pid, 0)
        with os.fdopen(read_end, "rb") as fh:
            assert fh.read() == b"1"

    def test_first_failure_in_tile_order_after_every_tile_stops(self, monkeypatch):
        monkeypatch.setattr(M, "_infer_workers", lambda: 2)
        net = SpikingTransformer(toy_config("reversible"), seed=69)
        tile = self._tile(net, 2)
        x = Rng(70).normal((6 * tile, 64), std=2.0)
        x[:, 0] = np.repeat(np.arange(6), tile)  # each sample carries its tile index
        # tile 3 fails first in time, tile 1 first in tile order; tile 5
        # is still running when tile 1 fails
        errors = {1: ValueError("tile 1"), 3: KeyError("tile 3")}
        delays = {1: 0.3, 4: 0.2, 5: 0.3}
        running, lock = [0], threading.Lock()
        stem_forward = net.stem.forward

        def stem(x_tile, *a):
            index = int(x_tile[0, 0])
            with lock:
                running[0] += 1
            try:
                time.sleep(delays.get(index, 0.0))
                if index in errors:
                    raise errors[index]
                return stem_forward(x_tile, *a)
            finally:
                with lock:
                    running[0] -= 1

        net.stem.forward = stem
        with pytest.raises(ValueError) as info:
            net.forward(x)
        assert info.value is errors[1]
        assert running[0] == 0
