import numpy as np
import pytest

from conftest import toy_config
from spikebit import metrics
from spikebit.binary import LambdaScale, apply_lambda
from spikebit.errors import ConfigError
from spikebit.metrics import (
    count_sops,
    entropy_proxy,
    model_size_mb,
    ns_ace,
    param_counts,
    value_set_size,
)
from spikebit.model import (
    BinaryLinearLayer,
    ForwardRecord,
    ModelConfig,
    SpikingTransformer,
    StemSpec,
)
from spikebit.numeric import Rng


class TestValueSetSize:
    def test_examples(self):
        assert value_set_size(np.zeros((3, 4))) == 1
        assert value_set_size(np.array([0.0, 1.0, 1.0, 0.0])) == 2
        x = np.array([0.5, 0.5, 1.5, -2.0])
        assert value_set_size(x) == len(set(x.tolist()))  # hash-set oracle: 3
        assert value_set_size(x) == 3

    def test_rounding_option(self):
        x = np.array([0.1001, 0.1002, 7.0])
        assert value_set_size(x) == 3
        assert value_set_size(x, decimals=2) == 2

    def test_bounded_by_element_count(self):
        x = Rng(0).normal((7, 5))
        assert value_set_size(x) <= x.size

    def test_spike_tensors_at_most_two(self):
        s = (Rng(1).uniform((4, 6)) < 0.5).astype(np.float32)
        assert value_set_size(s) <= 2

    def test_scaled_attention_slice_at_most_two(self):
        # each timestep slice of lambda * spikes holds only {0, lambda_t}
        s = (Rng(2).uniform((3, 5, 5)) < 0.5).astype(np.float32)
        lam = LambdaScale(values=np.array([1.5, 2.0, 0.5], dtype=np.float32).reshape(3, 1, 1))
        out = apply_lambda(s, lam)
        for t in range(3):
            assert value_set_size(out[t]) <= 2


class TestEntropyProxy:
    def test_constant_is_zero(self):
        assert entropy_proxy(np.full(100, 3.3), bins=16) == 0.0

    def test_fair_coin_is_one_bit(self):
        x = np.array([0.0] * 50 + [1.0] * 50)
        assert np.isclose(entropy_proxy(x, bins=2), 1.0)

    def test_uniform_approaches_log2_bins(self):
        x = Rng(3).uniform((1_000_000,))
        assert abs(entropy_proxy(x, bins=256) - 8.0) <= 0.05

    def test_upper_bound(self):
        for seed in range(5):
            x = Rng(seed).normal((4096,))
            for bins in (2, 16, 64):
                assert entropy_proxy(x, bins=bins) <= np.log2(bins) + 1e-12

    def test_bins_validated(self):
        with pytest.raises(ConfigError):
            entropy_proxy(np.zeros(4), bins=1)


class TestSops:
    def test_zero_input_zero_sops(self):
        net = SpikingTransformer(toy_config("residual"), seed=4)
        x = np.zeros((2, 64), dtype=np.float32)
        assert count_sops(net, x) == 0.0

    def test_single_spike_fanout(self):
        lyr = BinaryLinearLayer("l", 16, 24, Rng(5))
        s = np.zeros((1, 16), dtype=np.float32)
        s[0, 3] = 1.0
        rec = ForwardRecord()
        lyr.forward(s, rec=rec)
        assert rec.spikes[lyr] * lyr.out_features == 24.0

    def test_spike_count_scales_linearly_with_time(self):
        # counting identity on a frozen layer: feeding the same spike
        # pattern for 2T steps doubles the counted operations
        lyr = BinaryLinearLayer("l", 16, 8, Rng(6))
        pattern = (Rng(7).uniform((4, 16)) < 0.5).astype(np.float32)
        rec_t2, rec_t4 = ForwardRecord(), ForwardRecord()
        lyr.forward(np.broadcast_to(pattern, (2,) + pattern.shape).reshape(-1, 16).copy(),
                    rec=rec_t2)
        ops_t2 = rec_t2.spikes[lyr] * lyr.out_features
        lyr.forward(np.broadcast_to(pattern, (4,) + pattern.shape).reshape(-1, 16).copy(),
                    rec=rec_t4)
        ops_t4 = rec_t4.spikes[lyr] * lyr.out_features
        assert ops_t4 == 2 * ops_t2

    def test_model_sops_positive_on_active_input(self):
        net = SpikingTransformer(toy_config("residual"), seed=8)
        x = Rng(9).normal((4, 64), std=2.0)
        assert count_sops(net, x) > 0


class TestNsAce:
    def test_calibrated_rows(self):
        assert ns_ace(6.52, 32) == pytest.approx(104.32, abs=1e-9)
        assert ns_ace(2.13, 1) == 2.13
        assert ns_ace(3.93, 2) == pytest.approx(7.86, abs=1e-9)

    def test_identity_at_one_bit(self):
        for s in (0.0, 0.5, 123.456):
            assert ns_ace(s, 1) == s

    def test_uncalibrated_width_rejected(self):
        for bits in (4, 8, 16, 0):
            with pytest.raises(ConfigError):
                ns_ace(1.0, bits)


class TestModelSize:
    def test_single_binary_matrix_accounting(self):
        # 512x512 one-bit weights alone: 512*512/8 bytes = 0.032768 MB
        assert (512 * 512 / 8) / 1e6 == 0.032768

    def test_closed_form_matches_constructed_model(self):
        for cfg in (
            toy_config("reversible"),
            toy_config("residual", depth=3, embed_dim=48, timesteps=4, tokens=8),
            toy_config("reversible", weight_mode="full", dual_head=False),
            ModelConfig(depth=2, embed_dim=32, heads=2, timesteps=2,
                        stem=StemSpec(kind="conv", in_channels=3, image_size=32, patch_size=4)),
        ):
            net = SpikingTransformer(cfg, seed=10)
            want = param_counts(cfg)["size_mb"]
            got = model_size_mb(net)
            assert got == pytest.approx(want, rel=1e-12), cfg
            # what load_checkpoint bounds by the file's size before it allocates
            assert param_counts(cfg)["state_values"] == sum(a.size for _, a in net.state_entries)

    def test_full_precision_model_is_roughly_32x_larger(self):
        cfg_b = toy_config("residual", weight_mode="binary")
        cfg_f = toy_config("residual", weight_mode="full")
        size_b = param_counts(cfg_b)["size_mb"]
        size_f = param_counts(cfg_f)["size_mb"]
        # weights dominate; aux params dilute the exact factor
        assert size_f / size_b > 5.0

    def test_distill_head_excluded_by_default(self):
        net = SpikingTransformer(toy_config("reversible"), seed=11)
        base = model_size_mb(net)
        with_dist = model_size_mb(net, include_distill_head=True)
        head_bytes = 4 * (net.head_dist.weight.value.size + net.head_dist.bias.value.size)
        assert with_dist - base == pytest.approx(head_bytes / 1e6, rel=1e-9)


class TestTrends:
    def test_baseline_capability_non_increasing_with_depth(self, trend_stats):
        assert trend_stats["seeds"] >= 20
        assert trend_stats["res_last_mean"] <= trend_stats["res_first_mean"]

    def test_reversible_final_block_at_least_baseline(self, trend_stats):
        assert trend_stats["rev_last_mean"] >= trend_stats["res_last_mean"]


class TestRecords:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        recs = [{"epoch": 0, "loss": 1.5}, {"epoch": 1, "loss": 0.7}]
        metrics.write_records(path, recs)
        assert metrics.read_records(path) == recs
        metrics.write_records(path, [{"epoch": 2, "loss": 0.5}])
        assert len(metrics.read_records(path)) == 3

    def test_representation_report_one_record_per_block(self):
        net = SpikingTransformer(toy_config("residual", depth=1), seed=12)
        rep = metrics.representation_report(net, Rng(13).normal((4, 64)))
        assert len(rep.block_names) == 1
        assert len(rep.records()) == 1
        net3 = SpikingTransformer(toy_config("reversible", depth=3), seed=14)
        rep3 = metrics.representation_report(net3, Rng(15).normal((4, 64)))
        assert len(rep3.records()) == 3
