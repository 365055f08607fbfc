from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAYOUTS, in_layout, often_small
from spikebit import numeric
from spikebit.errors import NumericError, ShapeError
from spikebit.numeric import (
    BatchNormParams,
    Rng,
    batch_norm,
    finite_diff_grad,
    matmul,
)


def naive_matmul(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[3.0, -1.0], [2.0, 5.0]], dtype=np.float32)
        assert np.array_equal(matmul(np.eye(2, dtype=np.float32), a), a)

    def test_signed_dot_against_naive_oracle(self):
        a = [[1, 1, 0, 1]]
        b = [[1], [-1], [-1], [1]]
        want = naive_matmul(a, b)
        assert want[0, 0] == 1.0
        assert np.array_equal(matmul(a, b), want.astype(np.float32))

    def test_random_against_naive_oracle(self):
        rng = Rng(11)
        a, b = rng.normal((4, 7)), rng.normal((7, 3))
        assert np.allclose(matmul(a, b), naive_matmul(a, b), atol=1e-5)

    def test_dimension_error_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
            matmul(np.zeros((3, 4)), np.zeros((5, 2)))

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan, 1.0]], dtype=np.float32)
        with pytest.raises(NumericError):
            matmul(bad, np.ones((2, 1), dtype=np.float32))


class TestBatchNorm:
    def test_identity_on_standardized_batch(self):
        rng = Rng(3)
        x = rng.normal((256, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        p = BatchNormParams.create(4)
        out = batch_norm(x, p, training=True)
        assert np.abs(out - x).max() <= 1e-4

    def test_affine_with_running_stats(self):
        c = 7.5
        p = BatchNormParams.create(3)
        p.gamma[:] = 2.0
        p.beta[:] = 3.0
        p.running_mean[:] = c
        p.running_var[:] = 1.0
        out = batch_norm(np.full((10, 3), c, dtype=np.float32), p, training=False)
        assert np.abs(out - 3.0).max() <= 1e-5

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            batch_norm(np.zeros((4, 5), dtype=np.float32), BatchNormParams.create(3))

    def test_training_mode_normalizes_batch(self):
        # pre-affine output must have ~zero mean and ~unit variance
        rng = Rng(9)
        for trial in range(5):
            x = rng.normal((64, 6), std=2.5, mean=1.0)
            out = batch_norm(x, BatchNormParams.create(6), training=True)
            assert np.abs(out.mean(axis=0)).max() <= 1e-5
            assert np.abs(out.var(axis=0) - 1.0).max() <= 1e-4

    def test_running_stats_update_with_momentum(self):
        p = BatchNormParams.create(1, momentum=0.1)
        x = np.array([[0.0], [2.0]], dtype=np.float32)  # batch mean 1, var 1
        batch_norm(x, p, training=True)
        assert np.isclose(p.running_mean[0], 0.1)
        assert np.isclose(p.running_var[0], 0.9 * 1.0 + 0.1 * 1.0)

    def test_nonpositive_variance_raises(self):
        p = BatchNormParams.create(2)
        p.running_var[:] = -1.0
        with pytest.raises(NumericError):
            batch_norm(np.zeros((3, 2), dtype=np.float32), p, training=False)


def _binary_product(seed, rows, bound, channels):
    """(rows, channels) float32 products of random {0,1} spikes with +-1
    signs over `bound` inputs: integers of magnitude at most `bound`."""
    rng = np.random.default_rng(seed)
    spikes = rng.random((rows, bound)) < rng.uniform(0.05, 0.95)
    signs = np.where(rng.random((channels, bound)) < 0.5, -1.0, 1.0).astype(np.float32)
    return spikes @ signs.T


class TestExactBatchStatistics:
    """With a bound, training statistics come from exact integer moments;
    they must give the bytes of numpy's float64 two-pass statistics."""

    def _both(self, x, bound):
        got_p, want_p = BatchNormParams.create(x.shape[-1]), BatchNormParams.create(x.shape[-1])
        got = numeric._batch_norm(x, got_p, True, "bn", bound)
        want = numeric._batch_norm(x, want_p, True, "bn")
        return got + (got_p.running_var,), want + (want_p.running_var,)

    @pytest.mark.parametrize("rows,bound,channels", [
        (512, 32, 32),      # one block for both sums
        (2048, 64, 256),    # one block
        (2048, 256, 64),    # Σx·x in eight blocks of 256 rows
        (2047, 256, 8),     # and a short last block
    ])
    def test_exact_moments_match_two_pass_bytewise(self, monkeypatch, rows, bound, channels):
        calls = []
        exact = numeric._exact_moments
        monkeypatch.setattr(numeric, "_exact_moments",
                            lambda flat, b: calls.append(b) or exact(flat, b))
        for seed in range(4):
            x = _binary_product(seed, rows, bound, channels)
            flat = x.reshape(-1, channels)
            mean, var = exact(flat, bound)
            assert mean.tobytes() == flat.mean(axis=0, dtype=np.float64).tobytes()
            assert (var.astype(np.float32).tobytes()
                    == flat.var(axis=0, dtype=np.float64).astype(np.float32).tobytes())
            got, want = self._both(x.reshape(1, rows, channels), bound)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        assert calls == [bound] * 4

    @pytest.mark.parametrize("rows,bound", [
        (64, 4097),              # bound**2 > 2**24: x*x may round in float32
        ((1 << 26) // 4096 + 1, 4096),  # n * bound > 2**26: n*Σx·x may round in float64
    ])
    def test_fallback_keeps_two_pass_bytes(self, monkeypatch, rows, bound):
        def refuse(flat, b):
            raise AssertionError("exact moments outside their range")

        monkeypatch.setattr(numeric, "_exact_moments", refuse)
        rng = np.random.default_rng(7)
        x = rng.integers(-bound, bound + 1, size=(rows, 3)).astype(np.float32)
        got, want = self._both(x, bound)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


    def test_exact_moments_at_their_inclusive_edges(self, monkeypatch):
        # bound**2 == 2**24 and n * bound == 2**26: the largest block sums
        # and products the exact path allows
        bound, n = 4096, 1 << 14
        alternate = np.arange(n) % 2 == 0
        columns = [
            np.full(n, -bound),                      # the most negative values
            np.full(n, bound),
            np.where(alternate, -bound, bound),      # the largest variance
            np.where(alternate, -bound, bound - 1),  # a mean that is no integer
            np.where(alternate, -bound, 0),
            np.random.default_rng(8).integers(-bound, bound + 1, size=n),
        ]
        x = np.stack(columns, axis=1).astype(np.float32)
        calls = []
        exact = numeric._exact_moments
        monkeypatch.setattr(numeric, "_exact_moments",
                            lambda flat, b: calls.append(b) or exact(flat, b))
        numeric._batch_norm(x, BatchNormParams.create(len(columns)), True, "bn", bound)
        assert calls == [bound]
        mean, var = exact(x, bound)
        for j, col in enumerate(columns):
            s1, s2 = sum(int(v) for v in col), sum(int(v) * int(v) for v in col)
            assert mean[j] == float(Fraction(s1, n)), j
            assert var[j] == float(Fraction(n * s2 - s1 * s1, n * n)), j


class TestColumnSums:
    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_match_ndarray_sum_bytewise(self, data):
        # finite values and signed zeros: numpy's reduce warns on an
        # overflow or an inf - inf, which einsum does not
        T, N = data.draw(often_small(4)), data.draw(often_small(16))
        B = data.draw(often_small(max(1, 4096 // (T * N))))
        C = data.draw(often_small(300))
        layout = data.draw(st.sampled_from(LAYOUTS))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (T, B, N, C)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, size=shape)
        zeros = rng.random(shape) < 0.2
        a[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
        a = in_layout(a.astype(dtype), layout, dtype(0.25))
        if layout == "C":
            assert a.flags.c_contiguous
        want = a.sum(axis=(0, 1, 2))
        got = numeric._column_sums(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got = numeric._column_sums(np.ascontiguousarray(a).reshape(-1, C))  # the flat matrix
        assert got.tobytes() == np.ascontiguousarray(a).reshape(-1, C).sum(axis=0).tobytes()


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float((v ** 2).sum()), np.array([1.0, 2.0]), h=1e-4)
        assert np.abs(g - [2.0, 4.0]).max() <= 1e-5

    def test_constant(self):
        g = finite_diff_grad(lambda v: 3.25, np.ones(4), h=1e-4)
        assert np.array_equal(g, np.zeros(4))

    def test_softmax_ce_matches_analytic(self):
        target = 1

        def loss(v):
            z = v - v.max()
            return float(np.log(np.exp(z).sum()) - z[target])

        x = np.array([0.3, -1.2, 2.0])
        fd = finite_diff_grad(loss, x.copy(), h=1e-5)
        p = np.exp(x - x.max())
        p /= p.sum()
        analytic = p.copy()
        analytic[target] -= 1.0
        assert np.abs(fd - analytic).max() <= 1e-5

    def test_cubic_polynomial(self):
        coef = np.array([0.5, -1.5, 2.0])

        def f(v):
            return float((coef * v ** 3).sum() + (v ** 2).sum() - v.sum())

        x = np.array([0.7, -0.2, 1.1])
        analytic = 3 * coef * x ** 2 + 2 * x - 1
        fd = finite_diff_grad(f, x.copy(), h=1e-4)
        assert np.abs(fd - analytic).max() <= 1e-6  # O(h^2)

    def test_nonfinite_f_names_coordinate(self):
        def f(v):
            return float("nan") if v[1] > 1.0 else float(v.sum())

        with pytest.raises(NumericError, match="coordinate 1"):
            finite_diff_grad(f, np.array([0.0, 1.0]), h=0.5)


class TestRng:
    def test_identical_seeds_bit_identical(self):
        a = Rng(1234).normal((16, 16))
        b = Rng(1234).normal((16, 16))
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal((8,)), Rng(2).normal((8,)))

    def test_child_streams_are_independent_and_stable(self):
        r = Rng(7)
        a1 = r.child(1).normal((4,))
        a2 = Rng(7).child(1).normal((4,))
        b = Rng(7).child(2).normal((4,))
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
