import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikebit.binary import (
    ALPHABET_01,
    ALPHABET_PM1,
    LambdaScale,
    apply_lambda,
    binarize_weights,
    binary_signs,
    pack,
    packed_bytes,
    packed_from_bytes,
    packed_linear,
    read_packed,
    standardize_latent,
    ste_backward,
    unpack,
    write_packed,
)
from spikebit.errors import (
    ConfigError,
    DataError,
    DegenerateWeightsError,
    EncodingError,
    ShapeError,
)
from spikebit.numeric import Rng, finite_diff_grad


def int_dot_oracle(spikes, signs):
    """Naive signed integer matrix product, independent of the kernel."""
    return spikes.astype(np.int64) @ signs.T.astype(np.int64)


class TestPackUnpack:
    def test_word_boundary_1x65(self):
        m = np.zeros((1, 65), dtype=np.float32)
        m[0, 64] = 1.0
        pb = pack(m, ALPHABET_01)
        assert pb.words_per_row == 2
        assert pb.words[0, 0] == 0
        assert pb.words[0, 1] == 1  # bit 64 lives in word 1, bit 0
        assert np.array_equal(unpack(pb, ALPHABET_01), m)

    @given(st.integers(0, 2 ** 31), st.integers(1, 5), st.integers(1, 140))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_01(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = (rng.random((rows, cols)) < 0.5).astype(np.float32)
        assert np.array_equal(unpack(pack(m, ALPHABET_01), ALPHABET_01), m)

    @given(st.integers(0, 2 ** 31), st.integers(1, 5), st.integers(1, 140))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_pm1(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = np.where(rng.random((rows, cols)) < 0.5, 1.0, -1.0).astype(np.float32)
        assert np.array_equal(unpack(pack(m, ALPHABET_PM1), ALPHABET_PM1), m)

    def test_padding_bits_zero(self):
        pb = pack(np.ones((2, 3), dtype=np.float32), ALPHABET_01)
        assert pb.words[0, 0] == 0b111
        assert pb.words[1, 0] == 0b111

    def test_out_of_alphabet_names_index(self):
        m = np.zeros((2, 4), dtype=np.float32)
        m[1, 2] = 2.0
        with pytest.raises(EncodingError, match=r"\(1, 2\)"):
            pack(m, ALPHABET_01)

    def test_file_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        m = (rng.random((7, 130)) < 0.4).astype(np.float32)
        pb = pack(m, ALPHABET_01)
        path = tmp_path / "bits.bin"
        write_packed(path, pb)
        again = read_packed(path)
        assert again.rows == pb.rows and again.cols == pb.cols
        assert np.array_equal(again.words, pb.words)
        # serialize -> parse -> serialize is byte identical
        assert packed_bytes(packed_from_bytes(packed_bytes(pb))) == packed_bytes(pb)

    @pytest.mark.parametrize("damage", ["short_header", "short_payload", "trailing_bytes"])
    def test_damaged_file_is_data_error(self, tmp_path, damage):
        good = packed_bytes(pack(np.ones((3, 70), dtype=np.float32), ALPHABET_01))
        bad = {"short_header": good[:12], "short_payload": good[:-1],
               "trailing_bytes": good + b"\0\0"}[damage]
        path = tmp_path / "bits.bin"
        path.write_bytes(bad)
        with pytest.raises(DataError):
            read_packed(path)
        with pytest.raises(DataError):
            packed_from_bytes(bad)


class TestPackedLinear:
    def test_spec_vector(self):
        s = np.array([[1, 0, 1, 1]], dtype=np.float32)
        w = np.array([[1, -1, -1, 1]], dtype=np.float32)
        want = int_dot_oracle(s, w)
        assert want[0, 0] == 1
        got = packed_linear(pack(s, ALPHABET_01), pack(w, ALPHABET_PM1))
        assert np.array_equal(got, want)

    def test_no_spikes_no_accumulation(self):
        s = np.zeros((3, 100), dtype=np.float32)
        w = np.where(np.random.default_rng(0).random((5, 100)) < 0.5, 1.0, -1.0)
        out = packed_linear(pack(s, ALPHABET_01), pack(w.astype(np.float32), ALPHABET_PM1))
        assert not out.any()

    def test_full_accumulation(self):
        s = np.ones((1, 64), dtype=np.float32)
        w = np.ones((1, 64), dtype=np.float32)
        out = packed_linear(pack(s, ALPHABET_01), pack(w, ALPHABET_PM1))
        assert out[0, 0] == 64

    @given(st.integers(0, 2 ** 31), st.integers(1, 257))
    @settings(max_examples=60, deadline=None)
    def test_matches_integer_oracle(self, seed, inner):
        rng = np.random.default_rng(seed)
        s = (rng.random((3, inner)) < rng.uniform(0.1, 0.9)).astype(np.float32)
        w = np.where(rng.random((4, inner)) < 0.5, 1.0, -1.0).astype(np.float32)
        got = packed_linear(pack(s, ALPHABET_01), pack(w, ALPHABET_PM1))
        assert np.array_equal(got, int_dot_oracle(s, w))
        assert np.abs(got).max() <= inner  # magnitude bounded by fan-in

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            packed_linear(pack(np.zeros((1, 8), dtype=np.float32), ALPHABET_01),
                          pack(np.ones((1, 9), dtype=np.float32), ALPHABET_PM1))


class TestBinarizeWeights:
    def test_sign_pattern_of_1_2_3(self):
        pb, record = binarize_weights(np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(unpack(pb, ALPHABET_PM1), [[-1.0, 1.0, 1.0]])
        assert np.isclose(record.mean, 2.0)

    def test_zero_maps_to_plus_one(self):
        signs = binary_signs(np.array([[-1.0, 0.0, 1.0]]))
        assert signs.tolist() == [[-1.0, 1.0, 1.0]]

    def test_sign_symmetric_weights_balanced(self):
        # enumeration oracle: tensors symmetric about their mean have
        # exactly half the bits set
        for vals in ([-2.0, -1.0, 1.0, 2.0], [5.0, 1.0, 3.0, -1.0], [-3.0, 3.0]):
            w = np.array([vals], dtype=np.float32)
            w = w - w.mean() + 10.0  # symmetry survives a shift
            pb, _ = binarize_weights(w)
            ones = int(np.bitwise_count(pb.words).sum())
            assert ones * 2 == w.size

    def test_constant_weights_degenerate(self):
        with pytest.raises(DegenerateWeightsError):
            binarize_weights(np.full((3, 3), 2.5, dtype=np.float32))

    def test_standardized_mean_near_zero(self):
        rng = Rng(17)
        for _ in range(20):
            z = standardize_latent(rng.normal((16, 32), std=3.0, mean=1.2))
            assert abs(float(z.mean(dtype=np.float64))) <= 1e-6

    @given(st.integers(0, 2 ** 31), st.floats(0.1, 50.0), st.floats(-20.0, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(4, 6)).astype(np.float32)
        base, _ = binarize_weights(w)
        moved, _ = binarize_weights((scale * w + shift).astype(np.float32))
        assert np.array_equal(base.words, moved.words)

    def test_per_channel_option(self):
        w = np.array([[1.0, 2.0, 3.0], [30.0, 10.0, 20.0]], dtype=np.float32)
        signs = binary_signs(w, per_channel=True)
        assert signs[0].tolist() == [-1.0, 1.0, 1.0]
        assert signs[1].tolist() == [1.0, -1.0, 1.0]


class TestSteBackward:
    def test_matches_finite_differences_inside_clip(self):
        rng = Rng(23)
        w = rng.normal((3, 5), std=0.5).astype(np.float64)
        g = rng.normal((3, 5)).astype(np.float64)

        def f(v):
            # the standardization-only path: sum(g * standardized(v))
            z = (v - v.mean()) / v.std()
            return float((g * z).sum())

        fd = finite_diff_grad(f, w.copy(), h=1e-6)
        got = ste_backward(g, w, clip=100.0)
        assert np.abs(got - fd).max() <= 1e-4

    def test_clip_zeroes_far_latents(self):
        w = np.array([[0.1, 0.2, 50.0, -0.1]], dtype=np.float32)
        g = np.ones_like(w)
        out = ste_backward(g, w, clip=1.0)
        z = standardize_latent(w)
        assert abs(z[0, 2]) > 1.0
        # the clipped element contributes no straight-through term; the
        # element's own gradient entry comes only from mean/sigma coupling
        masked = ste_backward(np.array([[0.0, 0.0, 1.0, 0.0]], dtype=np.float32), w, clip=1.0)
        assert np.array_equal(masked, np.zeros_like(w))

    def test_zero_grad_in_zero_out(self):
        w = Rng(2).normal((4, 4))
        out = ste_backward(np.zeros_like(w), w, clip=1.0)
        assert not out.any()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ste_backward(np.zeros((2, 2)), np.zeros((3, 3)))


class TestLambdaScale:
    def test_identity(self):
        s = (np.random.default_rng(0).random((3, 4, 2)) < 0.5).astype(np.float32)
        lam = LambdaScale.ones(3)
        assert np.array_equal(apply_lambda(s, lam), s)

    def test_per_timestep_value(self):
        s = np.zeros((2, 1, 1), dtype=np.float32)
        s[1, 0, 0] = 1.0
        lam = LambdaScale(values=np.array([3.0, 2.0], dtype=np.float32).reshape(2, 1, 1))
        out = apply_lambda(s, lam)
        assert out[1, 0, 0] == 2.0 and out[0, 0, 0] == 0.0

    def test_time_axis_mismatch(self):
        with pytest.raises(ShapeError):
            apply_lambda(np.zeros((3, 2), dtype=np.float32), LambdaScale.ones(4))

    def test_nonpositive_rejected(self):
        lam = LambdaScale(values=np.zeros((2, 1, 1), dtype=np.float32))
        with pytest.raises(ConfigError):
            apply_lambda(np.zeros((2, 2), dtype=np.float32), lam)

    def test_gradient_is_spike_count(self):
        # d(sum output)/d lambda_t = number of spikes at t; finite
        # differences over the lambda values confirm it
        rng = np.random.default_rng(4)
        s = (rng.random((3, 5, 4)) < 0.4).astype(np.float32)
        lam0 = np.ones((3, 1, 1), dtype=np.float64)

        def f(values):
            return float((s * values.reshape(3, 1, 1)).sum())

        fd = finite_diff_grad(f, lam0.copy(), h=1e-4).reshape(3)
        counts = s.sum(axis=(1, 2))
        assert np.abs(fd - counts).max() <= 1e-4
