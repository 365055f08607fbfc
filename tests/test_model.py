import numpy as np
import pytest

from conftest import toy_config
from spikebit import model as M
from spikebit.binary import ALPHABET_01, ALPHABET_PM1, binary_signs, pack, packed_linear
from spikebit.errors import ConfigError, DataError, EncodingError
from spikebit.model import (
    BinaryLinearLayer,
    BssaBlock,
    LifLayer,
    ModelConfig,
    ReversibleState,
    SpikingTransformer,
    StemSpec,
    bsps_stem,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from spikebit.neuron import Reset
from spikebit.numeric import Rng


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

        def spy(self, x, cache=False):
            seen.setdefault("first", x)
            return orig(self, x, cache)

        monkeypatch.setattr(LifLayer, "forward", spy)
        net = SpikingTransformer(toy_config("residual", timesteps=4), seed=0)
        net.embed(Rng(2).normal((3, 64)), training=False)
        first = seen["first"]
        for t in range(1, first.shape[0]):
            assert np.array_equal(first[t], first[0])

    def test_stem_seeds_both_streams_identically(self):
        cfg = toy_config("reversible")
        state = bsps_stem(Rng(3).normal((2, 64)), cfg, rng=Rng(0))
        assert np.array_equal(state.x0, state.x1)

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
        blk.forward(x, training=False)
        assert blk.last_attn is not None and not blk.last_attn.any()
        assert blk.o_proj.last_in_spikes == 0.0

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
        blk.forward(x, training=True)  # strict checks run inside
        attn = blk.last_attn
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

    def test_module_level_wrappers(self):
        cfg = toy_config("reversible", depth=1)
        net = SpikingTransformer(cfg, seed=21)
        net.forward(Rng(22).normal((4, 64)), training=True)
        s = self._states(23)
        out = M.reversible_forward(s, net.blocks[0])
        back = M.reversible_inverse(out, net.blocks[0])
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
