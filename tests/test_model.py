import dataclasses
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAYOUTS, in_layout, often_small, toy_config, with_array, with_config
from spikebit import binary, learn, metrics, neuron, numeric
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
        for cfg, x, kind in (
            (toy_config("reversible"), Rng(3).normal((2, 64)), "vector"),
            (conv_config(image=16), Rng(3).normal((2, 3, 16, 16)), "conv"),
        ):
            net = SpikingTransformer(cfg, seed=0)
            assert type(net.stem) is M.Stem and net.stem.kind == kind
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

    @pytest.mark.parametrize("cfg,x,want", [
        (toy_config("residual", timesteps=3), Rng(4).normal((5, 64)), (3, 5, 4, 16)),
        (conv_config(image=16), Rng(4).normal((2, 3, 16, 16)), (2, 2, 16, 16, 3)),
    ], ids=["vector", "conv"])
    def test_backward_stops_at_the_first_weight_gradient(self, cfg, x, want, monkeypatch):
        # nothing reads a gradient at the input: no LIF saves anything,
        # backward returns none, and every parameter gradient equals a
        # backward's that runs down to the input
        got, ref = M.Stem(cfg, Rng(5)), M.Stem(cfg, Rng(5))
        rec = M.ForwardRecord(saved=True)
        e = got.forward(x, training=True, rec=rec)
        assert not any(isinstance(part, LifLayer) for part in rec.saved)
        assert len(rec.saved[got]) == len(got.stages) - 1  # each later LIF's input
        assert got.backward(Rng(6).normal(e.shape), rec) is None and rec.saved == {}
        # the reference: every LIF keeps its membranes and spikes, each
        # product's backward hands its LIF the spikes it read (in the conv
        # stem the centre taps of its im2col rows), and backward takes the
        # input gradient
        kept = _keep_every_float_cache(monkeypatch)
        rec = M.ForwardRecord(saved=True)
        h = x.reshape(x.shape[0], *ref.grid, -1) if ref.kind == "vector" else x.transpose(0, 2, 3, 1)
        h = np.broadcast_to(h, (cfg.timesteps,) + h.shape).astype(np.float32, order="C")
        for lif, product, bn, pool in ref.stages:
            h = bn.forward(product.forward(lif.forward(h), rec), True, rec)
            if pool is not None:
                h = pool.forward(h, rec)
        assert h.tobytes() == e.tobytes()
        g = Rng(6).normal(e.shape).reshape(h.shape)
        for lif, product, bn, pool in reversed(ref.stages):
            if pool is not None:
                g = pool.backward(g, rec)
            g, spikes = M._through_bn(g, rec, product, bn)
            g = lif.backward(g, spikes=spikes)
        assert g.shape == want and g.dtype == np.float32 and rec.saved == {} and kept == {}
        _same_grads(got, ref)


class TestConvKernels:
    def test_col2im_is_the_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)>, in float64
        x = Rng(1).normal((3, 5, 6, 4)).astype(np.float64)
        y = Rng(2).normal((3 * 5 * 6, 4 * 9)).astype(np.float64)
        lhs = np.vdot(M._im2col(x, 3, 1), y)
        rhs = np.vdot(x, M._col2im(y, x.shape, 3, 1))
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_im2col_product_is_a_same_padding_convolution(self):
        R, H, W, C, O = 2, 5, 4, 3, 6
        x = Rng(3).normal((R, H, W, C)).astype(np.float64)
        w = Rng(4).normal((O, C, 3, 3)).astype(np.float64)
        got = (M._im2col(x, 3, 1) @ w.reshape(O, -1).T).reshape(R, H, W, O)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        want = np.zeros((R, H, W, O))
        for i in range(H):
            for j in range(W):
                for di in range(3):
                    for dj in range(3):
                        want[:, i, j] += xp[:, i + di, j + dj] @ w[:, :, di, dj].T
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_max_pool_takes_each_window_maximum(self):
        x = Rng(5).normal((2, 3, 4, 6, 5))
        got = M.MaxPool2Layer().forward(x)
        want = x.reshape(2, 3, 2, 2, 3, 2, 5).max(axis=(3, 5))
        assert got.shape == (2, 3, 2, 3, 5) and got.tobytes() == want.tobytes()

    def test_max_pool_routes_a_tie_to_the_first_maximum(self):
        # windows in (di, dj) order: a tie goes to the earlier element
        x = np.zeros((1, 1, 2, 2, 3), dtype=np.float32)
        x[0, 0, :, :, 0] = [[1, 1], [1, 1]]   # all four tie: (0, 0)
        x[0, 0, :, :, 1] = [[0, 2], [2, 0]]   # (0, 1) before (1, 0)
        x[0, 0, :, :, 2] = [[0, 0], [3, 3]]   # (1, 0) before (1, 1)
        pool, rec = M.MaxPool2Layer(), M.ForwardRecord(saved=True)
        assert pool.forward(x, rec).ravel().tolist() == [1, 2, 3]
        g = pool.backward(np.array([[[[[10, 20, 30]]]]], dtype=np.float32), rec)
        want = np.zeros_like(x)
        want[0, 0, 0, 0, 0], want[0, 0, 0, 1, 1], want[0, 0, 1, 0, 2] = 10, 20, 30
        assert g.shape == x.shape and np.array_equal(g, want)


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

    @pytest.mark.parametrize("mode", ["binary", "full"])
    def test_attention_backward_products_match_einsum_bytewise(self, mode):
        # the products backward runs, on a forward's spikes and map, equal
        # the einsum contractions they replaced
        cfg = toy_config("residual", weight_mode=mode)
        blk = BssaBlock("b", cfg, Rng(8))
        rec = M.ForwardRecord(saved=True)
        blk.forward(Rng(9).normal((2, 4, 6, 32), std=2.0), training=True, rec=rec)
        q, k, v, s_attn = (e.unpack() if isinstance(e, M.PackedSpikes) else e
                           for e in rec.saved[blk])
        qh, kh, vh = (blk._split(e, np.float32) for e in (q, k, v))
        s_attn = s_attn.astype(np.float32)
        g = Rng(10).normal(qh.shape)
        g_attn = Rng(11).normal(s_attn.shape)

        def einsum(spec, a, b):
            return np.einsum(spec, a, b, optimize=True)

        got = blk._context_backward(g, s_attn, vh) + blk._attention_backward(g_attn, qh, kh)
        want = (einsum("tbhnd,tbhmd->tbhnm", g, vh), einsum("tbhnm,tbhnd->tbhmd", s_attn, g),
                einsum("tbhnm,tbhmd->tbhnd", g_attn, kh), einsum("tbhnm,tbhnd->tbhmd", g_attn, qh))
        assert s_attn.any() and qh.any()
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("mode", ["binary", "full"])
    def test_bool_spikes_match_their_float_image(self, mode):
        # a LIF hands its layers bool spikes: the same product and count as
        # their float32 zeros and ones, and a training forward saves the
        # same spikes, packed, for either
        lyr = BinaryLinearLayer("l", 40, 7, Rng(3), mode=mode)
        s = Rng(4).uniform((2, 3, 40)) < 0.3
        got_rec, want_rec = M.ForwardRecord(saved=True), M.ForwardRecord(saved=True)
        got, want = lyr.forward(s, got_rec), lyr.forward(s.astype(np.float32), want_rec)
        assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert got_rec.spikes[lyr] == want_rec.spikes[lyr] == np.count_nonzero(s) > 0
        for rec in (got_rec, want_rec):
            _bytes_equal(rec.saved[lyr][0].unpack(), s)

    def test_width_beyond_float32_exactness_rejected(self):
        with pytest.raises(ConfigError, match="2\\*\\*24"):
            BinaryLinearLayer("l", 2**24, 1, Rng(0))

    @pytest.mark.parametrize("mode", ["binary", "full"])
    def test_weight_update_after_the_forward_is_a_training_error(self, mode):
        # the entry records the weight version its product read; a rebuild
        # or a backward on later weights would mix two versions
        lyr = BinaryLinearLayer("l", 40, 7, Rng(5), mode=mode)
        for rebuild in (lyr._output_again, lambda r: lyr.backward(np.ones((3, 7), np.float32), r)):
            rec = M.ForwardRecord(saved=True)
            lyr.forward(Rng(6).uniform((3, 40)) < 0.3, rec)
            lyr.weight.bump()
            with pytest.raises(TrainingError, match=r"^l: weights updated between the forward"):
                rebuild(rec)


class TestSignCaches:
    """A binary layer keeps its weight signs as int8, one byte per weight,
    in `_sign_cache`, its only copy of them; each product widens them to
    float32 for that call alone."""

    @staticmethod
    def _assert_one_byte_signs(net):
        layers = [lyr for lyr in net.binary_linear_layers() if lyr.mode == "binary"]
        assert layers
        for lyr in layers:
            version, signs, _ = lyr._sign_cache
            w = lyr.weight
            assert version == w.version, lyr.name
            assert signs.dtype == np.int8 and signs.shape == w.value.shape, lyr.name
            assert signs.nbytes == w.value.size and (np.abs(signs) == 1).all(), lyr.name
            _bytes_equal(signs, binary_signs(w.value))

    @pytest.mark.parametrize("kind", ["vector", "conv"])
    def test_after_load_checkpoint(self, kind, tmp_path):
        cfg = conv_config(image=16) if kind == "conv" else toy_config("reversible")
        save_checkpoint(SpikingTransformer(cfg, seed=48), tmp_path / "m.bin")
        self._assert_one_byte_signs(load_checkpoint(tmp_path / "m.bin"))

    def test_after_a_training_step(self):
        net = SpikingTransformer(toy_config("reversible"), seed=49)
        x, y = Rng(50).normal((8, 64), std=2.0), np.arange(8) % 10
        learn.train_model(net, (x, y), epochs=1, rng=Rng(51), batch_size=8)
        assert all(p.version == 1 for _, p in net.named_params())
        net.forward(x[:1])  # the step invalidated them; a forward signs again
        self._assert_one_byte_signs(net)

    def test_after_a_tiled_inference_forward(self, monkeypatch):
        net = SpikingTransformer(toy_config("reversible"), seed=52)
        monkeypatch.setattr(M, "_infer_workers", lambda: 2)  # the tiled path pre-fills the caches
        tile = TestTiledInference._tile(net, 2)
        net.forward(Rng(53).normal((2 * tile + 3, 64), std=2.0))
        self._assert_one_byte_signs(net)

    @pytest.mark.parametrize("mode", ["binary", "full"])
    def test_record_holds_no_weight_sized_array(self, mode):
        net = SpikingTransformer(toy_config("reversible", weight_mode=mode), seed=54)
        net.forward(Rng(55).normal((4, 64), std=2.0), training=True)
        saved = net._record.saved
        shapes = {lyr.weight.value.shape for lyr in net.binary_linear_layers()}
        for lyr in net.binary_linear_layers():
            packed, version = saved[lyr]
            assert isinstance(packed, M.PackedSpikes) and version == lyr.weight.version
        arrays = [e for entry in saved.values() for e in entry if isinstance(e, np.ndarray)]
        arrays += [e for entry in saved.values() for state in entry if isinstance(state, tuple)
                   for e in state]  # the model's kept encoder states
        assert arrays and not any(a.shape in shapes for a in arrays)


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

    def test_head_wiring_in_backward(self):
        """Model A classifies on x1 and model B on x0, with the two heads'
        weights swapped: each stream meets the same head weights and, with
        the logit gradients swapped, gets the same gradient, so the logits
        swap and every other gradient matches byte for byte."""
        a = SpikingTransformer(toy_config("reversible", classify_on="x1"), seed=31)
        b = SpikingTransformer(toy_config("reversible", classify_on="x0"), seed=31)
        for src, dst in ((a.head_cls, b.head_dist), (a.head_dist, b.head_cls)):
            for (_, p), (_, q) in zip(src.params(), dst.params()):
                q.value[...] = p.value
        x, r = Rng(32).normal((3, 64)), Rng(33)
        g, h = r.child(0).normal((3, 10)), r.child(1).normal((3, 10))
        y_a, d_a = a.forward(x, training=True)
        y_b, d_b = b.forward(x, training=True)
        _bytes_equal(y_a, d_b)
        _bytes_equal(d_a, y_b)
        a.backward(g, h)
        b.backward(h, g)
        swapped = {"head_cls": "head_dist", "head_dist": "head_cls"}
        grads_b = {n: p.grad for n, p in b.named_params()}
        for n, p in a.named_params():
            part, _, rest = n.partition(".")
            assert p.grad.any(), n
            _bytes_equal(p.grad, grads_b[f"{swapped.get(part, part)}.{rest}"])

    @pytest.mark.parametrize("classify_on", ["x0", "x1"])
    def test_backward_reaches_the_classified_stream(self, classify_on):
        """The last block's BMLP feeds x1 alone, so with one head its
        gradient is exactly zero when that head reads x0 and not when it
        reads x1: backward sends the logit gradient to the stream the
        forward read."""
        net = SpikingTransformer(toy_config("reversible", dual_head=False,
                                            classify_on=classify_on), seed=34)
        logits, _ = net.forward(Rng(35).normal((3, 64)), training=True)
        net.backward(Rng(36).normal(logits.shape))
        bmlp_grads = [p.grad.any() for part in M.walk(net.blocks[-1].bmlp)
                      if hasattr(part, "params") for _, p in part.params()]
        assert bmlp_grads == [classify_on == "x1"] * len(bmlp_grads)

    @pytest.mark.parametrize("topology,dual_head", [("residual", True), ("reversible", False)])
    def test_distillation_gradient_without_distillation_head_raises(self, topology,
                                                                     dual_head):
        """A `g_dist` no head can take raises before backward reads the
        record, so the gradients and the record stay as they were."""
        net = SpikingTransformer(toy_config(topology, dual_head=dual_head), seed=37)
        assert net.head_dist is None
        g = Rng(38).normal((3, 10))
        net.forward(Rng(39).normal((3, 64)), training=True)
        net.zero_grads()
        record = net._record
        with pytest.raises(ConfigError, match=f"distillation gradient .*topology = {topology}, "
                                              f"dual_head = {str(dual_head).lower()}"):
            net.backward(g, 1000 * g)
        assert net._record is record and record.saved
        assert not any(p.grad.any() for _, p in net.named_params())


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

    @pytest.mark.parametrize("kind,name,value", [
        ("reversible", "block0.bssa.o_bn.gamma", np.nan),
        ("reversible", "block1.bmlp.bn1.running_var", np.inf),
        ("residual", "head_cls.bias", -np.inf),
        ("full", "block0.bssa.q.weight", np.nan),  # a full-mode latent is not binarized
        ("conv", "stem.stage2.bn.running_mean", np.nan),
        ("reversible", "block0.bssa.lambda.scale", np.nan),
    ], ids=["nan_gamma", "inf_running_var", "ninf_head_bias", "nan_full_latent",
            "nan_conv_running_mean", "nan_lambda"])
    def test_non_finite_array_is_data_error(self, tmp_path, kind, name, value):
        # a NaN gamma loaded, and eval reported an accuracy from NaN logits
        cfg, _ = self.KINDS[kind]
        path = tmp_path / "m.bin"
        path.write_bytes(with_array(checkpoint_bytes(SpikingTransformer(cfg, seed=50)), name,
                                    value))
        with pytest.raises(DataError, match=f"checkpoint array {re.escape(name)} holds a value "
                                            f"that is not finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_lambda_scale_that_is_not_positive_is_data_error(self, tmp_path, value):
        net = SpikingTransformer(toy_config("residual"), seed=51)
        scale = net.blocks[0].bssa.lam.scale.value.copy()
        scale[-1] = value  # one timestep's scale
        path = tmp_path / "m.bin"
        path.write_bytes(with_array(checkpoint_bytes(net), "block0.bssa.lambda.scale", scale))
        with pytest.raises(DataError, match="block0.bssa.lambda.scale holds a lambda scale "
                                            "that is not positive"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind,name", [
        ("reversible", "block0.bssa.o_bn.running_var"),
        ("conv", "stem.stage1.bn.running_var"),
    ])
    def test_negative_running_variance_is_data_error(self, tmp_path, kind, name):
        # a running variance of -1 loaded, and the first forward raised
        # NumericError; one of zero, either sign, is a variance
        cfg, shape = self.KINDS[kind]
        net = SpikingTransformer(cfg, seed=52)
        var = dict(net.named_buffers())[name].copy()
        path = tmp_path / "m.bin"
        var[0], var[-1] = 0.0, -0.0
        path.write_bytes(with_array(checkpoint_bytes(net), name, var))
        assert np.isfinite(load_checkpoint(path).forward(Rng(53).normal(shape))[0]).all()
        var[-1] = -1.0  # one channel's
        path.write_bytes(with_array(checkpoint_bytes(net), name, var))
        with pytest.raises(DataError, match=f"checkpoint array {re.escape(name)} holds a "
                                            f"variance below 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("latent", ["constant", "nan"])
    def test_latent_that_cannot_be_binarized_is_data_error(self, tmp_path, latent):
        net = SpikingTransformer(toy_config("reversible"), seed=43)
        lyr = next(net.binary_linear_layers())
        value = {"constant": 0.5, "nan": np.nan}[latent]
        path = tmp_path / "m.bin"
        path.write_bytes(with_array(checkpoint_bytes(net), f"{lyr.name}.weight", value))
        with pytest.raises(DataError, match=f"{lyr.name}.weight cannot be binarized"):
            load_checkpoint(path)

    def test_latent_whose_signs_differ_from_its_image_is_data_error(self, tmp_path):
        net = SpikingTransformer(toy_config("residual"), seed=44)
        lyr = list(net.binary_linear_layers())[3]
        path = tmp_path / "m.bin"
        path.write_bytes(with_array(checkpoint_bytes(net), f"{lyr.name}.weight",
                                    -lyr.weight.value))
        with pytest.raises(DataError, match=f"image {lyr.name}.packed does not match"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fields", [{"embed_dim": 2**20}, {"timesteps": 2**40}],
                             ids=["embed_dim", "binary_timesteps"])
    def test_config_larger_than_the_file_is_data_error_before_allocating(
            self, tmp_path, monkeypatch, fields):
        # an embed_dim of 2**20 died allocating 4 TiB of blank weights
        path = tmp_path / "m.bin"
        raw = checkpoint_bytes(SpikingTransformer(toy_config("reversible"), seed=54))
        path.write_bytes(with_config(raw, **fields))

        def boom(*args, **kwargs):
            raise AssertionError("load_checkpoint built the model")
        monkeypatch.setattr(SpikingTransformer, "_blank", boom)
        with pytest.raises(DataError,
                           match=r"checkpoint config is invalid: its arrays need \d+ bytes"):
            load_checkpoint(path)

    def test_load_seeds_the_sign_caches(self, tmp_path):
        net = SpikingTransformer(toy_config("reversible"), seed=45)
        path = tmp_path / "m.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        layers = list(loaded.binary_linear_layers())
        seeded = [lyr._sign_cache for lyr in layers]
        for lyr, (version, signs, record) in zip(layers, seeded):
            want, want_record = binary.latent_signs(lyr.weight.value)
            assert version == 0 and signs.tobytes() == want.tobytes()
            assert record.mean.tobytes() == want_record.mean.tobytes()
            assert record.std.tobytes() == want_record.std.tobytes()
        x, y = Rng(46).normal((4, 64)), np.arange(4)
        loaded.forward(x)  # the first forward reuses the seeded signs
        assert all(lyr._sign_cache is s for lyr, s in zip(layers, seeded))
        logits, dist = loaded.forward(x, training=True)
        loaded.backward(np.ones_like(logits), np.ones_like(dist))
        learn.AdamW(loaded.named_params(), lr=1e-2).step()
        loaded.forward(x)  # an optimizer step invalidates them
        for lyr, s in zip(layers, seeded):
            assert lyr._sign_cache is not s and lyr._sign_cache[0] == 1

    def test_gradients_are_made_at_their_first_use(self, tmp_path):
        # a model loaded for inference holds no gradient bytes; a training
        # step's gradients are the same whether `zero_grads` or backward's
        # first write makes them
        net = SpikingTransformer(toy_config("reversible"), seed=47)
        path = tmp_path / "m.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        x, g = Rng(48).normal((4, 64)), Rng(49).normal((4, 10))
        loaded.forward(x)
        assert [n for n, p in loaded.named_params() if p.grad is not None] == []
        net.zero_grads()
        for model in (net, loaded):
            logits, dist = model.forward(x, training=True)
            model.backward(g, g)
        for (name, p), (_, q) in zip(net.named_params(), loaded.named_params()):
            assert p.grad.nbytes == p.value.nbytes, name
            _bytes_equal(q.grad, p.grad)


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
        spikes = lif.forward(x)
        _bytes_equal(spikes, want_s.astype(bool))
        assert vars(lif) == {"p": p}  # the layer keeps nothing of the call
        # the layer that reads them keeps them at one bit each
        packed = M.PackedSpikes(spikes)
        assert packed.bits.nbytes == -(-x.size // 8)
        _bytes_equal(packed.unpack(), want_s.astype(bool))
        # they rebuild the forward's membranes from its input
        _bytes_equal(neuron._lif(x.copy(), p, gates=packed.unpack()), want_u)

    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    def test_forward_and_lif_run_match_lif_step_loop(self, reset):
        p = toy_config("residual").lif(reset=reset)
        for shape in [(6, 4, 11), (6,)]:
            x = Rng(41).normal(shape, std=1.5)
            state = LifState.zeros(shape[1:])
            want = np.empty_like(x)
            for t in range(shape[0]):
                want[t], state = lif_step(state, x[t], p)
            _bytes_equal(LifLayer(p).forward(x), want.astype(bool))
            _bytes_equal(lif_run(x, p), want)

    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_reference_bytewise(self, reset, dtype):
        p = toy_config("residual").lif(reset=reset)
        x = _lif_input(dtype)
        want_s, want_u = _lif_forward_reference(p, x)
        lif = LifLayer(p)
        gs = [Rng(42 + i).normal(x.shape).astype(dtype) for i in range(3)]
        for g in gs:
            g[1:, 3, :] = -1.0  # into the saturated row
        spikes = lif.forward(x)
        for g in gs:
            want = _lif_backward_reference(p, want_u, want_s, g)
            if reset is Reset.HARD:  # the reset gate zeroes the carry: -0.0 input gradients
                assert np.signbit(want[1, 3]).all() and not want[1, 3].any()
            g_in = g.copy()  # a lone upstream gradient is written over
            got = lif.backward(g_in, x=x.copy(), spikes=spikes)
            assert got is g_in
            _bytes_equal(got, want)
        # several upstream gradients: summed from zero in argument order
        want = np.zeros_like(gs[0])
        for g in gs:
            want += _lif_backward_reference(p, want_u, want_s, g)
        _bytes_equal(lif.backward(*gs, x=x.copy(), spikes=spikes), want)
        _bytes_equal(spikes, want_s.astype(bool))  # backward only reads them

    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    @pytest.mark.parametrize("n_grads", [1, 3])
    def test_last_step_turns_negative_zero_gradients_positive(self, reset, n_grads):
        # the last step has no carry; it adds +0 as a zero carry did, so a
        # -0 gradient (or one the saturated surrogate zeroes) comes out +0
        p = toy_config("residual").lif(reset=reset)
        x = Rng(48).normal((4, 7, 9), std=1.5)
        x[-1, 3] = 20.0  # saturates the surrogate: its derivative rounds to 0
        spikes = LifLayer(p).forward(x)
        gs = [Rng(49 + i).normal(x.shape) for i in range(n_grads)]
        for g in gs:
            g[-1] = -0.0
            g[-1, 3] = -1.0  # -1 * 0 is -0
        got = LifLayer(p).backward(*(g.copy() for g in gs), x=x.copy(), spikes=spikes)
        assert not got[-1].any() and not np.signbit(got[-1]).any()
        u_pre = _lif_forward_reference(p, x)[1]
        want = np.zeros_like(x) if n_grads > 1 else -np.zeros_like(x)
        for g in gs:
            want += _lif_backward_reference(p, u_pre, spikes, g)
        _bytes_equal(got, want)

    def test_gradient_of_another_dtype_than_the_input_raises(self):
        # each carry is formed in a slab of the input's buffer
        p = toy_config("residual").lif()
        x = _lif_input(np.float32)
        spikes, g = LifLayer(p).forward(x), Rng(49).normal(x.shape).astype(np.float64)
        with pytest.raises(ShapeError, match="float64.*float32"):
            LifLayer(p).backward(g, x=x.copy(), spikes=spikes)

    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuilt_membranes_match_reference_bytewise(self, reset, dtype):
        # a LIF keeps nothing; backward re-runs the recurrence on the input
        # its caller hands back, with the reset gates read from the spikes
        # it is handed, writes the membranes over that input and then uses
        # it as scratch
        p = toy_config("residual").lif(reset=reset)
        x = _lif_input(dtype)
        want_s, want_u = _lif_forward_reference(p, x)
        lif = LifLayer(p)
        fired = lif.forward(x)
        _bytes_equal(fired, want_s.astype(bool))
        _bytes_equal(neuron._lif(x.copy(), p, gates=fired), want_u)
        gs = [Rng(45 + i).normal(x.shape).astype(dtype) for i in range(2)]
        want = _lif_backward_reference(p, want_u, fired, gs[0])
        want += _lif_backward_reference(p, want_u, fired, gs[1])
        x_in = x.copy()
        _bytes_equal(lif.backward(*gs, x=x_in, spikes=fired), want)
        # x is scratch once backward returns: step 0's slab holds step 0's
        # surrogate derivative, and each later slab the carry out of it of
        # the last gradient, whose input gradient gs[-1] now holds
        _bytes_equal(x_in[0], neuron.surrogate_grad(want_u[0], p))
        carry = np.float32(p.tau) * gs[-1][1:]
        if reset is Reset.HARD:
            carry *= ~fired[:-1]
        _bytes_equal(x_in[1:], carry)
        _bytes_equal(fired, want_s.astype(bool))
        assert vars(lif) == {"p": p}

    @pytest.mark.parametrize("reset", [Reset.HARD, Reset.SOFT])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [3, 5])
    def test_rebuild_writes_the_membranes_over_its_input(self, reset, dtype, T):
        # each step reads its input before it writes the membrane there, so
        # the membranes come out with the bytes of a rebuild into new memory
        p = toy_config("residual").lif(reset=reset)
        x = np.ascontiguousarray(_lif_input(dtype)[:T])
        want_s, want_u = _lif_forward_reference(p, x)
        x_in = x.copy()
        u_pre = neuron._lif(x_in, p, gates=want_s.astype(bool))
        assert u_pre is x_in
        _bytes_equal(u_pre, want_u)


class TestNonFloatInput:
    @pytest.mark.parametrize("dtype", [np.int64, np.bool_])
    @pytest.mark.parametrize("training", [False, True])
    def test_lif_and_bn_read_input_as_its_float32_cast(self, dtype, training):
        x = np.round(Rng(70).normal((3, 4, 5, 6), std=2.0)).astype(dtype)
        x32 = x.astype(np.float32)
        lif = LifLayer(toy_config("residual").lif())
        spikes = lif.forward(x)
        _bytes_equal(spikes, lif.forward(x32))
        # handed the float32 cast, backward takes the float32 membranes
        want_s, want_u = _lif_forward_reference(lif.p, x32)
        g = Rng(71).normal(x.shape)
        _bytes_equal(lif.backward(g.copy(), x=x32.copy(), spikes=spikes),
                     _lif_backward_reference(lif.p, want_u, want_s, g))
        bns = []
        for inp in (x, x32):
            bn = BatchNormLayer("bn", 6)
            bn.running_mean[:], bn.running_var[:] = 0.5, 2.0
            bns.append((bn.forward(inp, training), bn.running_mean, bn.running_var))
        for a, b in zip(*bns):  # the output and the running statistics
            _bytes_equal(a, b)


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


def _bn_reference_backward(bn, g_out, xhat, inv):
    axes = tuple(range(g_out.ndim - 1))
    g_beta = g_out.sum(axis=axes)
    g_gamma = (g_out * xhat).sum(axis=axes)
    g_xhat = g_out * bn.gamma.value
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
            x_in = x.copy()
            out = bn.forward(x_in, training, fwd_rec)
            _bytes_equal(out, want)
            assert out is x_in  # written over its input
        if dtype is np.float32:  # numeric.batch_norm works in float32
            p = BatchNormParams(bn.gamma.value, bn.beta.value, before[0].copy(), before[1].copy())
            _bytes_equal(batch_norm(x, p, training), want)
            _bytes_equal(p.running_mean, bn.running_mean)
            _bytes_equal(p.running_var, bn.running_var)
        g = r.normal(x.shape).astype(dtype)
        if strided_grad:  # channels-last view of a channels-first array, as in the conv stem
            g = np.moveaxis(np.ascontiguousarray(np.moveaxis(g, -1, 2)), 2, -1)
        if not training:  # running statistics: the forward saves nothing for a backward
            assert rec.saved == {}
            with pytest.raises(TrainingError, match="cached forward"):
                bn.backward(g, rec, xhat)
            return
        m = bn.momentum
        assert bn.running_mean.tobytes() == (
            ((1.0 - m) * before[0] + m * mean).astype(np.float32)).tobytes()
        assert bn.running_var.tobytes() == (
            ((1.0 - m) * before[1] + m * var).astype(np.float32)).tobytes()
        want_g, want_gamma, want_beta = _bn_reference_backward(bn, g, xhat, inv)
        # a training forward keeps the statistics alone; the caller hands
        # its input back, and backward takes the xhat rebuilt from it
        for steps in (1, 2):
            mean_kept, inv_kept = rec.saved[bn]
            _bytes_equal(mean_kept, mean)
            _bytes_equal(inv_kept, inv)
            got_xhat = bn._normalize_again(rec, x.copy())
            _bytes_equal(got_xhat, xhat)
            _bytes_equal(bn._output_again(got_xhat), want)
            _bytes_equal(bn.backward(g, rec, got_xhat), want_g)
            assert rec.saved == {}
            _bytes_equal(bn.gamma.grad, want_gamma if steps == 1 else want_gamma + want_gamma)
            _bytes_equal(bn.beta.grad, want_beta if steps == 1 else want_beta + want_beta)
            bn.running_mean[:], bn.running_var[:] = before
            _bytes_equal(bn.forward(x.copy(), training, rec), want)

    def test_overwriting_backward_allocates_no_array_of_its_size(self):
        # C-order g and xhat: the sums are fused products, g_x is written
        # over g and xhat * mean(g_xhat * xhat) over xhat
        C = 256
        bn = BatchNormLayer("bn", C)
        r = Rng(47)
        bn.gamma.value = 1.0 + r.normal((C,), std=0.5)
        x = r.normal((4, 32, 16, C), std=2.0) + 0.7
        rec = M.ForwardRecord(saved=True)
        bn.forward(x.copy(), True, rec)
        inv = rec.saved[bn][1]
        xhat = bn._normalize_again(rec, x.copy())
        g = r.normal(x.shape)
        want_g, want_gamma, want_beta = _bn_reference_backward(bn, g, xhat, inv)
        tracemalloc.start()
        try:
            got = bn.backward(g, rec, xhat, overwrite=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is g and peak < g.nbytes // 8, peak
        _bytes_equal(got, want_g)
        _bytes_equal(bn.gamma.grad, want_gamma)
        _bytes_equal(bn.beta.grad, want_beta)

    @given(st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_backward_matches_reference_bytewise_at_random_shapes(self, data):
        # the column sums take einsum on C-order gradients and numpy's
        # reduce on the other layouts; both give the reference's bytes
        T, N = data.draw(often_small(4)), data.draw(often_small(16))
        B = data.draw(often_small(max(1, 4096 // (T * N))))
        C = data.draw(often_small(300))
        layout = data.draw(st.sampled_from(LAYOUTS))
        overwrite = data.draw(st.booleans())
        r = Rng(data.draw(st.integers(0, 2**31 - 1)))
        bn = BatchNormLayer("bn", C)
        bn.gamma.value = 1.0 + r.normal((C,), std=0.5)
        x = r.normal((T, B, N, C), std=2.0) + 0.7
        rec = M.ForwardRecord(saved=True)
        bn.forward(x.copy(), True, rec)
        inv = rec.saved[bn][1]
        xhat = bn._normalize_again(rec, x.copy())
        g = in_layout(r.normal(x.shape), layout, np.float32(1.0 / (T * N)))
        want_g, want_gamma, want_beta = _bn_reference_backward(bn, g, xhat, inv)
        got = bn.backward(g, rec, xhat, overwrite=overwrite)  # g is not read again
        assert (got is g) == overwrite
        _bytes_equal(got, want_g)
        zeros = np.zeros(C, dtype=np.float32)  # where the gradients start
        _bytes_equal(bn.gamma.grad, zeros + want_gamma)
        _bytes_equal(bn.beta.grad, zeros + want_beta)


class TestSharedInputLif:
    def _reference_three_lifs(self, blk, cfg, x, g_out):
        """The BSSA forward and backward with one input LIF per projection,
        keeping every float cache (`_keep_every_float_cache`)."""
        ins = [LifLayer(cfg.lif()) for _ in range(3)]
        rec = M.ForwardRecord(saved=True)
        outs, bn_ins = [], []  # each BN's input, kept for its backward
        for lin, proj, bn, lif in zip(ins, (blk.q_proj, blk.k_proj, blk.v_proj),
                                      (blk.q_bn, blk.k_bn, blk.v_bn),
                                      (blk.q_lif, blk.k_lif, blk.v_lif)):
            bn_ins.append(proj.forward(lin.forward(x), rec))
            outs.append(lif.forward(bn.forward(bn_ins[-1].copy(), True, rec)))
        qh, kh, vh = (blk._split(a, np.float32) for a in outs)
        attn = np.einsum("tbhnd,tbhmd->tbhnm", qh, kh, optimize=True)
        fired_attn = blk.attn_lif.forward(attn)
        s_attn = fired_attn.astype(np.float32)
        ctx0 = np.einsum("tbhnm,tbhmd->tbhnd", s_attn, vh, optimize=True)
        ctx = blk.lam.forward(ctx0)
        o = blk.o_proj.forward(blk.o_in.forward(blk._merge(ctx)), rec)
        out = blk.o_bn.forward(o.copy(), True, rec)
        g = blk.o_bn.backward(g_out, rec, blk.o_bn._normalize_again(rec, o))
        g, spikes = blk.o_proj.backward(g, rec)
        g = blk.o_in.backward(g, spikes=spikes)
        g_ctx0 = blk.lam.backward(blk._split(g), ctx0)
        g_sattn = np.einsum("tbhnd,tbhmd->tbhnm", g_ctx0, vh, optimize=True)
        g_vh = np.einsum("tbhnm,tbhnd->tbhmd", s_attn, g_ctx0, optimize=True)
        g_attn = blk.attn_lif.backward(g_sattn, spikes=fired_attn)
        g_qh = np.einsum("tbhnm,tbhmd->tbhnd", g_attn, kh, optimize=True)
        g_kh = np.einsum("tbhnm,tbhnd->tbhmd", g_attn, qh, optimize=True)
        g_x = np.zeros(g_out.shape, dtype=g_out.dtype)
        for gh, lif, bn, proj, lin, h, fired in zip((g_qh, g_kh, g_vh),
                                                    (blk.q_lif, blk.k_lif, blk.v_lif),
                                                    (blk.q_bn, blk.k_bn, blk.v_bn),
                                                    (blk.q_proj, blk.k_proj, blk.v_proj),
                                                    ins, bn_ins, outs):
            g = bn.backward(lif.backward(blk._merge(gh), spikes=fired), rec,
                            bn._normalize_again(rec, h))
            g, spikes = proj.backward(g, rec)
            g_x += lin.backward(g, spikes=spikes)
        return out, g_x

    @pytest.mark.parametrize("seed", [50, 51])
    def test_gradients_match_three_lif_reference_bytewise(self, seed, monkeypatch):
        cfg = toy_config("residual", timesteps=3)
        x = Rng(seed).normal((3, 4, 5, 32), std=2.0)
        g_out = Rng(seed + 1).normal(x.shape)
        got_blk, ref_blk = BssaBlock("b", cfg, Rng(seed)), BssaBlock("b", cfg, Rng(seed))
        rec = M.ForwardRecord(saved=True)
        got_out = got_blk.forward(x, training=True, rec=rec)
        got_g = got_blk.backward(g_out, rec, x.copy())  # written over
        assert rec.saved == {}
        kept = _keep_every_float_cache(monkeypatch)
        want_out, want_g = self._reference_three_lifs(ref_blk, cfg, x, g_out)
        assert kept == {}  # every LIF's backward read its own forward's caches
        assert got_out.tobytes() == want_out.tobytes()
        assert got_g.tobytes() == want_g.tobytes()
        _same_grads(got_blk, ref_blk)
        assert len(list(M.walk(got_blk, LifLayer))) == 6  # x_in, o_in, q, k, v, attn

    def test_one_alphabet_check_feeds_all_three_projections(self, monkeypatch):
        blk = BssaBlock("b", toy_config("residual"), Rng(52))
        checked = []
        spikes_of = BinaryLinearLayer._spikes
        monkeypatch.setattr(BinaryLinearLayer, "_spikes",
                            lambda lyr, x: checked.append(lyr.name) or spikes_of(lyr, x))
        rec = M.ForwardRecord()
        blk.forward(Rng(53).normal((2, 3, 4, 32), std=2.0), training=False, rec=rec)
        assert checked == ["b.q", "b.o"]  # x_in's spikes once, then o_in's
        spikes = rec.spikes[blk.q_proj]
        assert spikes > 0 and rec.spikes[blk.k_proj] == rec.spikes[blk.v_proj] == spikes


def _keep_every_float_cache(monkeypatch):
    """Make training keep every float cache: every LIF forward keeps its
    spikes and its membranes, as `_lif_forward_reference` computes them
    from its input, and every BN the xhat its forward computed; backward
    reads those in place of the inputs it rebuilds. A LIF's backward takes
    no input, and runs on its own kept spikes, after checking any it is
    handed against them. A BN's xhat is read in place of each rebuild
    until that BN's backward, which drops it: the replay of an encoder
    block reads o_bn's and bn2's before their backward does. Backward
    writes over kept membranes and xhats as over the ones it rebuilds, once
    it has dropped them. Returns the kept (spikes, membranes) by LIF, which
    backward pops."""
    lif_forward, lif_backward = LifLayer.forward, LifLayer.backward
    bn_forward, bn_backward = BatchNormLayer.forward, BatchNormLayer.backward
    lif_kernel, normalize = neuron._lif, numeric._normalize
    computed, xhats, kept = [], {}, {}

    def lif_forward_keeping_membranes(self, x):
        spikes = lif_forward(self, x)
        x = x if x.dtype.kind == "f" else x.astype(np.float32)
        want_s, membranes = _lif_forward_reference(self.p, x)
        _bytes_equal(spikes, want_s.astype(bool))
        kept[self] = (spikes.copy(), membranes)
        return spikes

    def lif_backward_reading_membranes(self, *g, x=None, spikes=None):
        fired, membranes = kept.pop(self)
        if spikes is not None:  # the spikes handed over are the ones this LIF fired
            _bytes_equal(spikes, fired)
        return lif_backward(self, *g, x=membranes, spikes=fired)

    def normalize_and_copy(*args, **kwargs):
        xhat = normalize(*args, **kwargs)
        computed[:] = [xhat.copy()]  # before the forward writes its output over it
        return xhat

    def bn_forward_keeping_xhat(self, x, training, rec=None):
        out = bn_forward(self, x, training, rec)
        if training and M._saving(rec):
            xhats[self] = computed[0]
        return out

    def bn_backward_dropping_xhat(self, g_out, rec, xhat, overwrite=False):
        assert xhats.pop(self) is xhat  # the kept xhat, which no later rebuild reads
        return bn_backward(self, g_out, rec, xhat, overwrite)

    # backward hands the kept membranes to the kernel's rebuild, which returns them
    monkeypatch.setattr(neuron, "_lif", lambda x, p, gates=None: lif_kernel(x, p) if gates is None else x)
    monkeypatch.setattr(LifLayer, "forward", lif_forward_keeping_membranes)
    monkeypatch.setattr(LifLayer, "backward", lif_backward_reading_membranes)
    monkeypatch.setattr(numeric, "_normalize", normalize_and_copy)
    monkeypatch.setattr(BatchNormLayer, "forward", bn_forward_keeping_xhat)
    monkeypatch.setattr(BatchNormLayer, "backward", bn_backward_dropping_xhat)
    monkeypatch.setattr(BatchNormLayer, "_normalize_again",
                        lambda self, rec, x, out=None: xhats[self])
    return kept


def _fired_spikes(monkeypatch):
    """Make each LIF forward leave a copy of the spikes it returns in the
    dict this returns, by LIF; a later forward replaces the copy."""
    lif_forward, fired = LifLayer.forward, {}

    def forward(self, x):
        spikes = lif_forward(self, x)
        fired[self] = spikes.copy()
        return spikes

    monkeypatch.setattr(LifLayer, "forward", forward)
    return fired


def _named_params(part):
    """(name, Param) of every part under `part`, in walk order."""
    return [entry for p in M.walk(part) if hasattr(p, "params") for entry in p.params()]


def _same_grads(got_part, want_part):
    got, want = _named_params(got_part), _named_params(want_part)
    assert [n for n, _ in got] == [n for n, _ in want] and got
    for (name, p), (_, q) in zip(got, want):
        assert p.grad.tobytes() == q.grad.tobytes(), name


class TestRebuiltInputs:
    """A training forward, in either weight mode, keeps no BN xhat and no
    LIF membranes; the rebuilt backward must match a reference that keeps
    every float cache, byte for byte."""

    def test_bmlp_matches_float_cache_reference_bytewise(self, monkeypatch):
        cfg = toy_config("residual", timesteps=3)
        x = Rng(60).normal((3, 4, 5, 32), std=2.0)
        g_out = Rng(61).normal(x.shape)
        got_blk, ref = M.BmlpBlock("m", cfg, Rng(62)), M.BmlpBlock("m", cfg, Rng(62))
        rec = M.ForwardRecord(saved=True)
        got_out = got_blk.forward(x, training=True, rec=rec)
        assert len(rec.saved[got_blk.bn1]) == len(rec.saved[got_blk.bn2]) == 2  # (mean, inv)
        for lif, fc in ((got_blk.lif1, got_blk.fc1), (got_blk.lif2, got_blk.fc2)):
            assert lif not in rec.saved  # the layer it feeds keeps its spikes
            assert isinstance(rec.saved[fc][0], M.PackedSpikes)
        x_in = x.copy()
        got_g = got_blk.backward(g_out, rec, x_in)
        assert rec.saved == {}
        # the reference: each layer called on its own keeps every float
        # cache, and each BN's input is kept for its backward
        kept = _keep_every_float_cache(monkeypatch)
        rec = M.ForwardRecord(saved=True)
        h1 = ref.fc1.forward(ref.lif1.forward(x), rec)
        h2 = ref.fc2.forward(ref.lif2.forward(ref.bn1.forward(h1.copy(), True, rec)), rec)
        want_out = ref.bn2.forward(h2.copy(), True, rec)
        g, spikes = ref.fc2.backward(ref.bn2.backward(g_out, rec, ref.bn2._normalize_again(rec, h2)),
                                     rec)
        g = ref.bn1.backward(ref.lif2.backward(g, spikes=spikes), rec,
                             ref.bn1._normalize_again(rec, h1))
        want_u = kept[ref.lif1][1]
        g, spikes = ref.fc1.backward(g, rec)
        want_g = ref.lif1.backward(g, spikes=spikes)
        assert kept == {}
        assert got_out.tobytes() == want_out.tobytes()
        assert got_g.tobytes() == want_g.tobytes()
        # lif1's backward ran on the membranes it rebuilt over the block's
        # input and on the reference's kept ones, and leaves the same scratch
        _bytes_equal(x_in, want_u)
        _same_grads(got_blk, ref)

    def test_vector_stem_matches_float_cache_reference_bytewise(self, monkeypatch):
        cfg = toy_config("residual", timesteps=3)
        x = Rng(63).normal((5, 64), std=2.0)
        got_stem, ref = M.Stem(cfg, Rng(64)), M.Stem(cfg, Rng(64))
        ((got_lif, _, got_bn, _),) = got_stem.stages
        ((lif, linear, bn, pool),) = ref.stages
        assert pool is None
        rec = M.ForwardRecord(saved=True)
        got_out = got_stem.forward(x, training=True, rec=rec)
        assert got_lif not in rec.saved and len(rec.saved[got_bn]) == 2  # (mean, inv)
        assert rec.saved[got_stem] == ()  # no later LIF whose input it keeps
        g_out = Rng(65).normal(got_out.shape)
        assert got_stem.backward(g_out, rec) is None and rec.saved == {}
        # the reference keeps the membranes and BN's input, and its
        # backward runs down to the input
        kept = _keep_every_float_cache(monkeypatch)
        rec = M.ForwardRecord(saved=True)
        chunk = 64 // ref.tokens
        rep = np.broadcast_to(x.reshape(5, ref.tokens, chunk), (3, 5, ref.tokens, chunk))
        h = linear.forward(lif.forward(rep.astype(np.float32)), rec)
        want_out = bn.forward(h.copy(), True, rec)
        g = bn.backward(g_out, rec, bn._normalize_again(rec, h))
        g, spikes = linear.backward(g, rec)
        assert lif.backward(g, spikes=spikes).shape == rep.shape
        assert rec.saved == {} and kept == {}
        assert got_out.tobytes() == want_out.tobytes()
        _same_grads(got_stem, ref)

    @pytest.mark.parametrize("kind", ["reversible", "residual", "conv", "full_reversible",
                                      "full_residual"])
    def test_training_steps_match_float_cache_reference_bytewise(self, kind, monkeypatch):
        cfg, shape = {
            "reversible": (toy_config("reversible", timesteps=3), (8, 64)),
            "residual": (toy_config("residual", timesteps=3), (8, 64)),
            "conv": (conv_config(image=16), (4, 3, 16, 16)),
            "full_reversible": (toy_config("reversible", timesteps=3, weight_mode="full"),
                                (8, 64)),
            "full_residual": (toy_config("residual", timesteps=3, weight_mode="full"), (8, 64)),
        }[kind]
        x, y = Rng(66).normal(shape, std=2.0), np.arange(shape[0]) % 10
        nets = []
        for reference in (False, True):
            net = SpikingTransformer(cfg, seed=67)
            with monkeypatch.context() as mp:
                kept = _keep_every_float_cache(mp) if reference else {}
                net.forward(x[:2], training=True)
                assert not any(isinstance(part, LifLayer) for part in net._record.saved)
                # every LIF that fired, which in full mode is all but the
                # attention LIFs; backward reads all but the stem's input LIF
                fired = [lif for lif in net.lif_layers()
                         if cfg.weight_mode == "binary" or lif.p.reset is not Reset.SOFT]
                assert set(kept) == (set(fired) if reference else set())
                g = np.ones((2, 10), np.float32)
                net.backward(g, g if cfg.distills else None)  # drops the record
                assert list(kept) == ([net.stem.stages[0][0]] if reference else [])
                opt = learn.AdamW(net.named_params(), lr=1e-2)
                learn.train_epoch(net, (x, y), None, opt, Rng(68), batch_size=4)
            nets.append(net)
        got, want = nets
        for (name, p), (_, q) in zip(got.named_params(), want.named_params()):
            assert p.grad.tobytes() == q.grad.tobytes(), name
            assert p.value.tobytes() == q.value.tobytes(), name
        for (name, a), (_, b) in zip(got.named_buffers(), want.named_buffers()):
            assert a.tobytes() == b.tobytes(), name


    @given(T=st.integers(1, 3), D=st.sampled_from([8, 16, 32]), heads=st.sampled_from([1, 2, 4]),
           tokens=st.sampled_from([1, 2, 4, 8]),
           patch=st.one_of(st.none(), st.sampled_from([1, 2, 4])),
           depth=st.integers(1, 2), topology=st.sampled_from(["reversible", "residual"]),
           mode=st.sampled_from(["binary", "full"]), seed=st.integers(0, 2**16))
    @settings(max_examples=64, deadline=None, derandomize=True)
    def test_one_training_step_matches_float_cache_reference_at_random_shapes(
            self, T, D, heads, tokens, patch, depth, topology, mode, seed):
        # `patch` None draws a vector stem of `tokens` tokens, else a conv
        # stem on 8x8 images, whose LIFs get their spikes from im2col rows
        if patch is None:
            stem, shape = StemSpec(kind="vector", in_features=64, tokens=tokens), (3, 64)
        else:
            stem, shape = StemSpec(kind="conv", in_channels=3, image_size=8,
                                   patch_size=patch), (3, 3, 8, 8)
        cfg = ModelConfig(depth=depth, embed_dim=D, heads=heads, timesteps=T, topology=topology,
                          weight_mode=mode, stem=stem)
        _one_step_against_float_cache_reference(cfg, shape, seed)

    @pytest.mark.parametrize("mode", ["binary", "full"])
    @pytest.mark.parametrize("topology", ["reversible", "residual"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 9, 10])
    def test_one_training_step_matches_float_cache_reference_over_segments(
            self, depth, topology, mode):
        # ceil(sqrt(depth)) blocks a segment: one segment (depths 1 and
        # 2), several whole ones (4 = 2 + 2, 9 = 3 + 3 + 3) and a short
        # last one (3 = 2 + 1, 5 = 3 + 2, 10 = 4 + 4 + 2)
        cfg = toy_config(topology, weight_mode=mode, depth=depth, embed_dim=8, tokens=2)
        _one_step_against_float_cache_reference(cfg, (3, 64), 95 + depth)


def _one_step_against_float_cache_reference(cfg, shape, seed):
    """One training forward and backward of the model of `cfg` on a batch
    of `shape`, against the reference that keeps every float cache: the
    logits and every gradient must match byte for byte."""
    x = Rng(seed).normal(shape, std=2.0)
    g_cls, g_dist = Rng(seed + 1).normal((shape[0], 10)), Rng(seed + 2).normal((shape[0], 10))
    nets, outs = [], []
    for reference in (False, True):
        net = SpikingTransformer(cfg, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            kept = _keep_every_float_cache(mp) if reference else {}
            logits, dist = net.forward(x, training=True)
            net.backward(g_cls, None if dist is None else g_dist)
        # backward read every cache but the stem's input LIF's
        stem_lif = net.stem.stages[0][0]
        assert net._record is None and list(kept) == ([stem_lif] if reference else [])
        nets.append(net)
        outs.append((logits, dist))
    (got, got_dist), (want, want_dist) = outs
    _bytes_equal(got, want)
    assert (got_dist is None) == (want_dist is None)
    if got_dist is not None:
        _bytes_equal(got_dist, want_dist)
    _same_grads(*nets)


class TestStreamCheckpoints:
    """A training forward keeps the encoder state that enters every k-th
    block, k = ceil(sqrt(depth)), and no block keeps its streams."""

    @pytest.mark.parametrize("topology", ["reversible", "residual"])
    @pytest.mark.parametrize("depth,k", [(1, 1), (2, 2), (3, 2), (4, 2), (5, 3), (8, 3), (9, 3),
                                         (10, 4), (16, 4)])
    def test_record_keeps_one_state_per_segment(self, depth, k, topology, monkeypatch):
        entered, embedded = [], []
        block_forward, embed = M.EncoderBlock.forward, SpikingTransformer.embed
        monkeypatch.setattr(M.EncoderBlock, "forward",
                            lambda blk, s, *a: entered.append(s) or block_forward(blk, s, *a))
        monkeypatch.setattr(SpikingTransformer, "embed",
                            lambda net, *a: embedded.append(embed(net, *a)) or embedded[-1])
        net = SpikingTransformer(toy_config(topology, depth=depth, embed_dim=8, tokens=2), seed=93)
        net.forward(Rng(94).normal((3, 64), std=2.0), training=True)
        assert net.segment == k and len(entered) == depth
        saved = net._record.saved
        states = saved[net]
        assert len(states) == -(-depth // k)
        # the embedding first, which every stream starts as, then the state
        # that entered each segment's first block
        (e,) = embedded
        assert all(stream is e for stream in states[0])
        for j, state in enumerate(states):
            assert state is entered[j * k]
            assert len(state) == (2 if topology == "reversible" else 1)
            for stream in state:
                assert stream.dtype == np.float32 and stream.shape == e.shape
        # no block keeps a stream, and no other entry an array of its shape
        assert not any(blk in saved for blk in net.blocks)
        assert not any(isinstance(a, np.ndarray) and a.shape == e.shape
                       for owner, entry in saved.items() if owner is not net for a in entry)

    @pytest.mark.parametrize("topology", ["reversible", "residual"])
    def test_backward_replays_each_stream_the_forward_read(self, topology, monkeypatch):
        # each sub-block's backward gets the bytes its forward read, after
        # replaying its segment from the kept state; at depth 5 the
        # segments are blocks 0-2 and 3-4
        read, handed = {}, {}
        for sub in (BssaBlock, M.BmlpBlock):
            monkeypatch.setattr(sub, "forward", _recording(sub.forward, read))
            monkeypatch.setattr(sub, "backward", _recording(sub.backward, handed, arg=2))
        net = SpikingTransformer(toy_config(topology, depth=5, embed_dim=8, tokens=2), seed=96)
        logits, dist = net.forward(Rng(97).normal((3, 64), std=2.0), training=True)
        net.backward(np.ones_like(logits), None if dist is None else np.ones_like(dist))
        assert len(read) == len(handed) == 10
        for sub, x in read.items():
            _bytes_equal(handed[sub], x)


def _recording(method, seen, arg=0):
    """`method`, leaving a copy of its argument after `self` at `arg` in
    `seen`, by the object it was called on."""
    def call(self, *args, **kwargs):
        seen[self] = args[arg].copy()
        return method(self, *args, **kwargs)
    return call


class TestCheckpointImages:
    def test_packed_images_equal_fresh_binarization(self):
        net = SpikingTransformer(toy_config("reversible"), seed=37)
        x, y = Rng(38).normal((8, 64)), np.arange(8) % 10
        learn.train_model(net, (x, y), epochs=2, rng=Rng(39), batch_size=4)
        for lyr in net.binary_linear_layers():
            lyr.forward(np.zeros((1, lyr.in_features), dtype=np.float32))  # fill the sign cache
        # the images close the container, in layer order
        fresh = b"".join(
            binary.packed_bytes(binary.binarize_weights(lyr.weight.value)[0])
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
    """A training forward saves each spike tensor once, packed at one bit
    per element, in its `ForwardRecord`, and the backward that reads the
    record pops every entry. The layers and blocks keep nothing of the
    call."""

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

    @pytest.mark.parametrize("kind", list(NETS))
    def test_spikes_are_kept_once_packed(self, kind, monkeypatch):
        packbits, packs = np.packbits, []
        monkeypatch.setattr(np, "packbits", lambda a: packs.append(a.size) or packbits(a))
        fired = _fired_spikes(monkeypatch)
        net, _, _ = self._training_forward(kind)
        monkeypatch.undo()
        saved = net._record.saved
        kept = {id(e) for entry in saved.values() for e in entry
                if isinstance(e, M.PackedSpikes)}
        assert len(packs) == len(kept)  # one packing per spike tensor
        # one spike tensor per LIF that fired, the stem's input LIF and
        # full-precision attention's unbinarized map included
        assert len(kept) == len(fired)

        def packed(entry):  # a PackedSpikes at one bit per element, no more
            assert isinstance(entry, M.PackedSpikes)
            assert entry.bits.dtype == np.uint8
            assert entry.bits.nbytes <= -(-math.prod(entry.shape) // 8)
            return entry

        # a LIF keeps nothing: the layer or block that reads its spikes
        # keeps them, and backward hands them back to it
        assert not any(isinstance(part, LifLayer) for part in saved)
        stem_lif, stem_product = net.stem.stages[0][:2]
        # the only activation-sized float arrays kept are the inputs that
        # nothing rebuilds: the encoder state entering each replayed
        # segment (the model's entry, see TestStreamCheckpoints), the conv
        # stem's later LIF inputs, and full-precision attention's integer
        # map. No block keeps its streams
        states = saved[net]
        T, B, N, D = states[0][0].shape
        floats = {id(e): e for entry in saved.values() for e in entry
                  if isinstance(e, np.ndarray) and e.dtype.kind == "f" and e.shape[:2] == (T, B)}
        want = list(saved[net.stem])
        want += [saved[blk][3] for blk in net.bssa_blocks() if not blk.binary_attn]
        assert sorted(floats) == sorted(id(e) for e in want)
        assert not any(blk in saved for blk in net.blocks)
        for state in states:
            assert len(state) == len(net.stream_heads)
            for stream in state:
                assert stream.dtype == np.float32 and stream.shape == (T, B, N, D)
        if kind != "conv":
            assert saved[net.stem] == ()
        # a BN keeps its statistics alone, in either weight mode; backward
        # rebuilds its input, the product before it, from that layer's entry
        for bn in M.walk(net, BatchNormLayer):
            mean, inv = saved[bn]
            assert mean.dtype == inv.dtype == np.float32
            assert mean.shape == inv.shape == (bn.channels,)
        # each binary layer keeps the spikes of the LIF that feeds it; Q, K
        # and V keep one copy of x_in's
        readers = [(blk.x_in, blk.q_proj) for blk in net.bssa_blocks()]
        readers += [(blk.o_in, blk.o_proj) for blk in net.bssa_blocks()]
        for blk in net.blocks:
            readers += [(blk.bmlp.lif1, blk.bmlp.fc1), (blk.bmlp.lif2, blk.bmlp.fc2)]
        if kind != "conv":
            readers.append((stem_lif, stem_product))
            assert packed(saved[stem_product][0]).shape == (T, B, N, stem_product.in_features)
        for lif, lyr in readers:
            _bytes_equal(packed(saved[lyr][0]).unpack(), fired[lif])
        for blk in net.bssa_blocks():
            assert saved[blk.k_proj][0] is saved[blk.q_proj][0] is saved[blk.v_proj][0]
        for lam in M.walk(net, M.LambdaLayer):  # binary mode only
            assert [n for n in vars(lam) if n.startswith("_")] == []  # no context kept
        # the attention block keeps Q's, K's, V's and the attention spikes
        for blk in net.bssa_blocks():
            q, k, v, s_attn = saved[blk]
            for lif, entry in ((blk.q_lif, q), (blk.k_lif, k), (blk.v_lif, v)):
                _bytes_equal(packed(entry).unpack(), fired[lif])
            if blk.binary_attn:
                _bytes_equal(packed(s_attn).unpack(), fired[blk.attn_lif])
            else:  # the integer attention map, which no LIF emits
                assert s_attn.dtype == np.float32 and blk.attn_lif not in fired
        if kind == "conv":  # each conv keeps its packed im2col matrix alone
            H = W = net.cfg.stem.image_size
            inputs = list(saved[net.stem])
            assert len(inputs) == len(net.stem.stages) - 1
            for lif, conv, _, pool in net.stem.stages:
                in2d = packed(saved[conv.linear][0])
                assert in2d.shape == (T * B * H * W, conv.in_ch * 9)
                # each window's centre tap is the spike its LIF fired there
                taps = in2d.unpack().reshape(T, B, H, W, conv.in_ch, 9)[..., 4]
                _bytes_equal(np.ascontiguousarray(taps), fired[lif])
                if lif is not stem_lif:
                    x = inputs.pop(0)  # the stage before's output, pooled or not
                    assert x.dtype == np.float32 and x.shape == (T, B, H, W, conv.in_ch)
                if pool is not None:
                    assert saved[pool][0].dtype == np.uint8  # argmax in 0..3
                    H, W = H // 2, W // 2

    @pytest.mark.parametrize("kind", list(NETS))
    def test_each_lif_backward_gets_the_spikes_its_forward_fired(self, kind, monkeypatch):
        # backward hands every LIF but the stem's input LIF the spikes it
        # fired, byte for byte, once. In binary mode the LIFs fire pairwise
        # different spikes, so handing one LIF's spikes to another (K's to
        # q_lif, say) shows here
        fired, handed = _fired_spikes(monkeypatch), {}
        lif_backward = LifLayer.backward

        def backward(self, *g, x, spikes):
            handed.setdefault(self, []).append(spikes.copy())
            return lif_backward(self, *g, x=x, spikes=spikes)

        monkeypatch.setattr(LifLayer, "backward", backward)
        net, logits, dist = self._training_forward(kind)
        self._backward(net, logits, dist)
        if kind != "full_residual":  # there o_in fires nothing, and lif1 reads x_in's input
            assert len({(f.shape, f.tobytes()) for f in fired.values()}) == len(fired)
        assert set(handed) == set(fired) - {net.stem.stages[0][0]}
        for lif, spikes in handed.items():
            assert len(spikes) == 1
            _bytes_equal(spikes[0], fired[lif])

    @pytest.mark.parametrize("kind", list(NETS))
    def test_record_keeps_batch_statistics_alone_and_nothing_of_the_input_lif(self, kind):
        # at momentum 1 the running statistics are the batch's own, so
        # each BN entry must be exactly (mean, 1 / sqrt(var + epsilon))
        cfg, shape = self.NETS[kind]
        net = SpikingTransformer(cfg, seed=80)
        bns = list(M.walk(net, BatchNormLayer))
        for bn in bns:
            bn.momentum = 1.0
        net.forward(Rng(81).normal(shape, std=2.0), training=True)
        saved = net._record.saved
        assert net.stem.stages[0][0] not in saved
        for bn in bns:
            entry = saved[bn]
            assert type(entry) is tuple and len(entry) == 2, bn.name
            mean, inv = entry
            # a mean of -0.0 is stored as 0.0 at momentum 1
            assert mean.dtype == np.float32 and np.array_equal(mean, bn.running_mean)
            _bytes_equal(inv, 1.0 / np.sqrt(bn.running_var + np.float32(bn.epsilon)))

    @pytest.mark.parametrize("kind", list(NETS))
    def test_backward_frees_every_cache(self, kind):
        net, logits, dist = self._training_forward(kind)
        rec = net._record
        assert {type(o).__name__ for o in rec.saved} >= {
            "BinaryLinearLayer", "BatchNormLayer", "LinearHead", "BssaBlock",
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

        net.zero_grads()  # gradients are made here, or at their first write
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

    @pytest.mark.parametrize("mode", ["binary", "full"])
    def test_weight_update_between_forward_and_backward_raises(self, mode):
        net = SpikingTransformer(toy_config("reversible", weight_mode=mode), seed=82)
        x, g = Rng(83).normal((4, 64)), np.ones((4, 10), dtype=np.float32)
        net.zero_grads()
        net.forward(x, training=True)
        learn.AdamW(net.named_params(), lr=1e-2).step()
        names = "|".join(re.escape(lyr.name) for lyr in net.binary_linear_layers())
        with pytest.raises(TrainingError,
                           match=rf"^({names}): weights updated between the forward and its "
                                 rf"backward \(version 0, now 1\)"):
            net.backward(g, g)

    def test_no_activation_outlives_training(self):
        # depth 4 at train_deep's width: caches that no backward freed kept
        # every activation of the last step, 90 times the parameter bytes
        cfg = ModelConfig(depth=4, embed_dim=64, heads=2, timesteps=4,
                          stem=StemSpec(kind="vector", in_features=256, tokens=16))
        x, y = Rng(84).normal((64, 256)), np.arange(64) % 10
        tracemalloc.start()
        try:
            net = SpikingTransformer(cfg, seed=85)
            net.zero_grads()  # the gradients a training step makes
            before = tracemalloc.get_traced_memory()[0]
            learn.train_model(net, (x, y), epochs=1, rng=Rng(86), batch_size=32)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        params = sum(p.value.nbytes for _, p in net.named_params())
        # what stays: the int8 sign caches of the binary weights
        assert grown <= 2 * params, (grown, params)

    @pytest.mark.parametrize("topology,mode", [("reversible", "binary"), ("residual", "full")])
    def test_training_step_memory_per_block(self, topology, mode):
        # a block kept about 137 bytes per element of its (T, B, N, D)
        # stream with float32 spike caches and head-split copies; bool
        # spikes kept once bring it to about 93. Backward rebuilds the BN
        # inputs and most LIF membranes, in either weight mode, which
        # leaves about 19 (21 in full mode). Spikes packed at one bit
        # each and a backward that writes its hidden-width gradients and
        # rebuilt membranes in place leave about 10 (12 in full mode).
        # The block keeps the two streams its input LIFs read in place of
        # their membranes, the same bytes, and each spike tensor is kept
        # by the layer that reads it, with no LIF entries: still about 10
        # (12). No block keeps its streams and the model keeps one state
        # per segment of ceil(sqrt(depth)) blocks: about 5 (6)
        T, B, N, D = 2, 16, 8, 32
        peaks = []
        for depth in (1, 3):
            net = SpikingTransformer(toy_config(topology, weight_mode=mode, depth=depth,
                                                embed_dim=D, timesteps=T, tokens=N), seed=87)
            x, g = Rng(88).normal((B, 64), std=2.0), np.full((B, 10), 0.01, dtype=np.float32)
            net.forward(x)  # sign caches and gradients exist before the measurement
            net.zero_grads()
            tracemalloc.start()
            try:
                logits, dist = net.forward(x, training=True)
                net.backward(g, None if dist is None else g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_block = (peaks[1] - peaks[0]) / 2
        assert per_block <= 8 * T * B * N * D, per_block

    def test_training_step_peak_at_train_deep_widths(self):
        # depth 1 at train_deep's widths (D = 64, hidden 256, T = 4, batch
        # 32, 16 tokens), in units of one hidden-width float32 map (2 MiB).
        # The step peaks in lif2's backward, which holds two such maps (the
        # gradient at lif2's spikes, and fc1's product again: bn1's output,
        # then lif2's membranes, then xhat), a quarter map each for bn1's
        # input as int8, lif2's bool spikes and one step's sigmoid buffer,
        # and about one map of stream-width arrays (a quarter map each):
        # the two stream gradients, the replayed streams and the record.
        # That is about 3.9 maps (3.83 measured). A backward with bn1's
        # output in a map of its own, per-gradient carry buffers and BN
        # backward's g * xhat temporary peaked at 5.07
        cfg = ModelConfig(depth=1, embed_dim=64, heads=2, timesteps=4,
                          stem=StemSpec(kind="vector", in_features=256, tokens=16))
        T, B, N = cfg.timesteps, 32, cfg.stem.tokens
        net = SpikingTransformer(cfg, seed=3)
        x, g = Rng(4).normal((B, 256), std=2.0), np.full((B, 10), 0.01, dtype=np.float32)
        net.forward(x)  # sign caches and gradients exist before the measurement
        net.zero_grads()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            net.forward(x, training=True)
            net.backward(g, g)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        maps = peak / (T * B * N * cfg.hidden_dim * 4)
        assert maps <= 4.25, maps

    @pytest.mark.parametrize("mode", ["binary", "full"])
    def test_conv_stem_step_memory(self, mode):
        # each conv stage's im2col matrix is kept packed and widened to
        # float32 only while a product reads it: the step peaked at 6.7 MiB
        # when backward kept it widened through the BN's and the pool's
        # backward, and at 5.84 MiB when a step kept every float cache. It
        # peaks at about 5.46 MiB: the stem keeps the three later LIFs'
        # inputs, pooled or not, and their spikes only as the centre taps
        # of the packed im2col matrices
        cfg = dataclasses.replace(conv_config(image=16), weight_mode=mode)
        net = SpikingTransformer(cfg, seed=91)
        x, g = Rng(92).normal((16, 3, 16, 16), std=2.0), np.full((16, 10), 0.01, np.float32)
        net.forward(x)  # sign caches and gradients exist before the measurement
        net.zero_grads()
        tracemalloc.start()
        try:
            logits, dist = net.forward(x, training=True)
            net.backward(g, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.84 * 2**20, peak / 2**20

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
        # what stays: the sign caches, one byte per binary weight, and per
        # layer their array header and standardization record (about 0.5 KiB)
        layers = list(net.binary_linear_layers())
        assert grown <= sum(lyr.weight.value.size + 1024 for lyr in layers), grown
        # the running statistics of a training forward at momentum 1
        for bn in M.walk(ref, BatchNormLayer):
            bn.momentum = 1.0
        ref.forward(x, training=True)
        for (name, got), (_, want) in zip(net.named_buffers(), ref.named_buffers()):
            assert got.tobytes() == want.tobytes(), name


class TestActivationLifetimes:
    """Each float activation dies once its last reader has run: a weak
    reference to it, and to each array it views, is dead when the layer
    after that reader starts."""

    X = (2, 3, 4, 32)  # (T, B, N, D) of toy_config's blocks

    @staticmethod
    def _track(monkeypatch, obj, name, refs, handed=False):
        """Wrap `obj.name` so that it leaves in `refs` a weak reference to
        each array it returns (with `handed`, each array it is handed) and
        to each array that one views."""
        fn = getattr(obj, name)

        def tracked(*args):
            out = fn(*args)
            for arr in args if handed else out if isinstance(out, tuple) else (out,):
                while isinstance(arr, np.ndarray):
                    refs.append(weakref.ref(arr))
                    arr = arr.base
            return out

        monkeypatch.setattr(obj, name, tracked)

    @staticmethod
    def _dead_at(monkeypatch, obj, name, refs):
        """Wrap `obj.name` so that it asserts, as it starts, that `refs` is
        not empty and every reference in it is dead; returns the list of
        its calls."""
        fn, calls = getattr(obj, name), []

        def checked(*args, **kwargs):
            assert refs and all(ref() is None for ref in refs)
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(obj, name, checked)
        return calls

    @pytest.mark.parametrize("training", [False, True])
    def test_bn1_output_dies_before_fc2_multiplies(self, training, monkeypatch):
        blk = M.BmlpBlock("m", toy_config("reversible"), Rng(90))
        refs = []
        self._track(monkeypatch, blk.bn1, "forward", refs)
        calls = self._dead_at(monkeypatch, blk.fc2, "_product", refs)
        blk.forward(Rng(91).normal(self.X, std=2.0), training, M.ForwardRecord(saved=training))
        assert calls == ["_product"]

    @pytest.mark.parametrize("mode,training", [("binary", False), ("full", False),
                                               ("binary", True)])
    def test_attention_arrays_die_before_o_proj_multiplies(self, mode, training, monkeypatch):
        # Q, K and V, their head splits, the map and its spikes, and the
        # context once o_in has fired; a full-mode training forward keeps
        # its map for backward
        blk = BssaBlock("b", toy_config("reversible", weight_mode=mode), Rng(92))
        refs = []
        for obj, name in ((blk, "_split"), (blk, "_attention"), (blk, "_context"),
                          (blk.q_lif, "forward"), (blk.k_lif, "forward"),
                          (blk.v_lif, "forward"), (blk.attn_lif, "forward")):
            self._track(monkeypatch, obj, name, refs)
        calls = self._dead_at(monkeypatch, blk.o_proj, "_product", refs)
        blk.forward(Rng(93).normal(self.X, std=2.0), training, M.ForwardRecord(saved=training))
        assert calls == ["_product"]

    @pytest.mark.parametrize("training", [False, True])
    def test_x0_dies_before_the_bmlp_runs_unless_kept(self, training, monkeypatch):
        # depth 3 runs segments of 2 blocks: a training record keeps the
        # states entering blocks 0 and 2. Block 0's x0 is the embedding,
        # which x1 is too; any other x0 is freed once x0 + x1 exists
        net = SpikingTransformer(toy_config("reversible", depth=3, embed_dim=8, tokens=2),
                                 seed=102)
        x0_refs, alive = [], []
        block_forward = M.EncoderBlock.forward
        monkeypatch.setattr(M.EncoderBlock, "forward", lambda blk, s, *a: (
            x0_refs.append(weakref.ref(s[0])) or block_forward(blk, s, *a)))
        for blk in net.blocks:
            bmlp_forward = blk.bmlp.forward
            monkeypatch.setattr(blk.bmlp, "forward", lambda *a, f=bmlp_forward: (
                alive.append(x0_refs[-1]() is not None) or f(*a)))
        net.forward(Rng(103).normal((3, 64), std=2.0), training=training)
        assert alive == ([True, False, True] if training else [True, False, False])

    @pytest.mark.parametrize("training", [False, True])
    def test_widened_signs_die_before_the_next_layer_starts(self, training, monkeypatch):
        # the float32 matrix a product widens from the int8 signs lives
        # for that product alone
        blk = M.BmlpBlock("m", toy_config("reversible"), Rng(97))
        refs = []
        self._track(monkeypatch, blk.fc1, "_matrix", refs)
        calls = self._dead_at(monkeypatch, blk.bn1, "forward", refs)
        blk.forward(Rng(98).normal(self.X, std=2.0), training, M.ForwardRecord(saved=training))
        assert calls == ["forward"]

    def test_widened_signs_die_before_the_next_layers_backward(self, monkeypatch):
        # fc2's rebuilt product and its input gradient, and fc1's rebuilt
        # product, each widen the signs; all three copies are dead when
        # lif2's backward starts
        blk = M.BmlpBlock("m", toy_config("reversible"), Rng(99))
        x = Rng(100).normal(self.X, std=2.0)
        rec = M.ForwardRecord(saved=True)
        blk.forward(x, True, rec)
        refs = []
        for fc in (blk.fc1, blk.fc2):
            self._track(monkeypatch, fc, "_matrix", refs)
        calls = self._dead_at(monkeypatch, blk.lif2, "backward", refs)
        blk.backward(Rng(101).normal(self.X), rec, x.copy())
        assert calls == ["backward"] and len(refs) == 4  # and fc1's backward after it

    @pytest.mark.parametrize("mode", ["binary", "full"])
    def test_attention_backward_arrays_die_before_the_projections_backward(
            self, mode, monkeypatch):
        # the head splits, the map, the context and the gradients at the
        # map and the context die before q_proj's backward, the first
        blk = BssaBlock("b", toy_config("reversible", weight_mode=mode), Rng(94))
        x = Rng(95).normal(self.X, std=2.0)
        rec = M.ForwardRecord(saved=True)
        blk.forward(x, True, rec)
        refs = []
        if mode == "full":  # the integer map the record keeps
            refs.append(weakref.ref(rec.saved[blk][-1]))
        for name in ("_split", "_attention", "_context"):
            self._track(monkeypatch, blk, name, refs)
        self._track(monkeypatch, blk, "_attention_backward", refs, handed=True)
        calls = self._dead_at(monkeypatch, blk.q_proj, "backward", refs)
        blk.backward(Rng(96).normal(self.X), rec, x.copy())
        assert calls == ["backward"]


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
        for workers in (1, 2):  # inline, then on tile threads
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

        def peak(batch):
            tracemalloc.start()
            try:
                net.forward(x[:batch])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the reference is one tile on one worker, which runs inline: two
        # workers' half-tiles may or may not overlap in time, so their own
        # one-tile peak can read as little as one half-tile's working set
        monkeypatch.setattr(M, "_infer_workers", lambda: 1)
        net.forward(x)  # sign caches exist before the measurement
        ref = peak(tile)
        for workers in (1, 2):
            monkeypatch.setattr(M, "_infer_workers", lambda w=workers: w)
            net.forward(x)  # a warm-up forward before the measurement
            got = peak(8 * tile)
            assert got <= 1.5 * ref, (workers, got, ref)

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
            net.forward(x)  # sign caches exist before the measurement
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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [self._outputs(net, x) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(g == want for g in got)

    @staticmethod
    def _tile_threads():
        return [t for t in threading.enumerate() if t.name.startswith("spikebit-tile")]

    def test_each_forward_runs_its_tiles_on_its_own_threads(self, monkeypatch):
        monkeypatch.setattr(M, "_infer_workers", lambda: 2)
        net = SpikingTransformer(toy_config("residual"), seed=66)
        x = Rng(67).normal((5 * self._tile(net, 2), 64), std=2.0)
        stem_forward = net.stem.forward
        for _ in range(2):
            names = []
            net.stem.forward = lambda x, *a: (names.append(threading.current_thread().name)
                                              or stem_forward(x, *a))
            net.forward(x)
            assert len(names) == 5
            assert all(n.startswith("spikebit-tile") for n in names), names
            assert 1 <= len(set(names)) <= M._infer_workers()
            assert not self._tile_threads()  # none outlives the forward

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_tiles_on_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(M, "_infer_workers", lambda: 2)
        net = SpikingTransformer(toy_config("reversible"), seed=74)
        x = Rng(75).normal((3 * self._tile(net, 2), 64), std=2.0)
        want, _ = net.forward(x)  # tile threads ran, and stopped, before the fork
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
        assert not self._tile_threads()
