import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikebit import neuron
from spikebit.errors import ConfigError, ShapeError
from spikebit.neuron import (
    LifParams,
    LifState,
    Reset,
    SurrogateKind,
    SurrogateSpec,
    boolean_binarize,
    lif_run,
    lif_step,
    surrogate_grad,
    surrogate_relaxation,
)
from spikebit.numeric import Rng, finite_diff_grad

HARD = LifParams(tau=0.5, v_threshold=1.0, reset=Reset.HARD)
SOFT = LifParams(tau=0.5, v_threshold=1.0, reset=Reset.SOFT)

# Attention traces and their binarizations under the three schemes.
TRACES = {
    (4, 0, 0, 0): {"bool": (1, 0, 0, 0), "hard": (1, 0, 0, 0), "soft": (1, 1, 0, 0)},
    (1, 5, 0, 0): {"bool": (1, 1, 0, 0), "hard": (1, 1, 0, 0), "soft": (1, 1, 1, 0)},
    (0, 3, 1, 0): {"bool": (0, 1, 1, 0), "hard": (0, 1, 1, 0), "soft": (0, 1, 1, 0)},
}


def col(seq):
    return np.array(seq, dtype=np.float32).reshape(len(seq), 1)


class TestReferenceTraces:
    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_boolean(self, trace):
        got = boolean_binarize(col(trace)).ravel()
        assert tuple(got.astype(int)) == TRACES[trace]["bool"]

    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_hard_reset(self, trace):
        got = lif_run(col(trace), HARD).ravel()
        assert tuple(got.astype(int)) == TRACES[trace]["hard"]

    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_soft_reset(self, trace):
        got = lif_run(col(trace), SOFT).ravel()
        assert tuple(got.astype(int)) == TRACES[trace]["soft"]

    def test_soft_reset_keeps_at_least_as_many_spikes(self):
        for trace in TRACES:
            soft = lif_run(col(trace), SOFT).sum()
            hard = lif_run(col(trace), HARD).sum()
            assert soft >= hard


class TestLifDynamics:
    def test_quiescent(self):
        x = np.zeros((4, 3), dtype=np.float32)
        for p in (HARD, SOFT):
            out = lif_run(x, p)
            assert not out.any()

    def test_state_threading(self):
        state = LifState.zeros((2,))
        spikes, state = lif_step(state, np.array([0.6, 2.0], dtype=np.float32), SOFT)
        assert spikes.tolist() == [0.0, 1.0]
        # soft reset subtracts the threshold, hard reset zeroes
        assert np.allclose(state.membrane, [0.6, 1.0])
        spikes2, state2 = lif_step(LifState.zeros((2,)),
                                   np.array([0.6, 2.0], dtype=np.float32), HARD)
        assert np.allclose(state2.membrane, [0.6, 0.0])

    def test_hard_membrane_stays_below_threshold(self):
        rng = np.random.default_rng(0)
        state = LifState.zeros((32,))
        for _ in range(20):
            x = rng.uniform(-1, 3, 32).astype(np.float32)
            _, state = lif_step(state, x, HARD)
            assert (state.membrane < HARD.v_threshold).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lif_step(LifState.zeros((3,)), np.zeros(4, dtype=np.float32), HARD)

    def test_empty_time_axis(self):
        with pytest.raises(ShapeError):
            lif_run(np.zeros((0, 2), dtype=np.float32), HARD)

    @given(st.integers(0, 2 ** 31), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_outputs_binary(self, seed, soft):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 2, size=(5, 4)).astype(np.float32)
        out = lif_run(x, SOFT if soft else HARD)
        assert np.isin(out, (0.0, 1.0)).all()

    @given(st.integers(0, 2 ** 31), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_causality(self, seed, k):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 2, size=(8, 3)).astype(np.float32)
        full = lif_run(x, SOFT)
        trunc = lif_run(x[:k], SOFT)
        assert np.array_equal(full[:k], trunc)

    def test_hard_reset_degenerates_to_boolean_at_single_step(self):
        # single-timestep nonnegative integer inputs: HR-LIF(V_th=1) == boolean
        rng = np.random.default_rng(1)
        x = rng.integers(0, 5, size=(1, 64)).astype(np.float32)
        assert np.array_equal(lif_run(x, HARD), boolean_binarize(x))


class TestSurrogates:
    def test_rectangular_window(self):
        p = LifParams(surrogate=SurrogateSpec(SurrogateKind.RECTANGULAR, 1.0))
        assert surrogate_grad(np.array([1.0]), p)[0] == 1.0
        assert surrogate_grad(np.array([3.0]), p)[0] == 0.0

    def test_sigmoid_peak_is_quarter_alpha(self):
        for alpha in (1.0, 4.0, 10.0):
            p = LifParams(surrogate=SurrogateSpec(SurrogateKind.SIGMOID, alpha))
            got = surrogate_grad(np.array([p.v_threshold]), p)[0]
            assert np.isclose(got, alpha / 4.0, rtol=1e-6)

    def test_sigmoid_saturates_far_from_threshold(self):
        p = LifParams(surrogate=SurrogateSpec(SurrogateKind.SIGMOID, 4.0))
        far = np.array([-20.0, 30.0])
        assert (surrogate_grad(far, p) < 1e-6).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_two_branch_reference_bytewise(self, dtype):
        def reference(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            # -|z| is z itself for every z < 0; for a NaN it is the argument
            # the kernel hands to exp, so NaN bytes compare on every CPU
            ez = np.exp(-np.abs(z[~pos]))
            out[~pos] = ez / (1.0 + ez)
            return out

        uint = np.dtype(dtype).str.replace("f", "u")
        info = np.finfo(dtype)
        mags = np.concatenate([[0.0, 1e-30, 1e-7, 1.0, 88.7, 89.0, 700.0, 746.0, np.inf],
                               [info.smallest_subnormal, 3 * info.smallest_subnormal,
                                info.smallest_normal / 2, info.smallest_normal],
                               np.logspace(-8, 3, 500), np.linspace(0.0, 40.0, 2001)])
        # quiet and signaling NaNs of both signs with distinct payloads
        inf_bits, sign_bit = np.array([np.inf, -0.0], dtype=dtype).view(uint)
        payloads = [1, 0x1234, 1 << (info.nmant - 1), (1 << info.nmant) - 1]
        nans = np.array([s | inf_bits | pl for s in (0, sign_bit) for pl in payloads],
                        dtype=uint).view(dtype)
        assert np.isnan(nans).all()
        # random bit patterns reach every exponent, subnormals and NaNs included
        bits = np.random.default_rng(11).integers(0, np.iinfo(uint).max, size=200_000,
                                                  dtype=uint, endpoint=True)
        values = np.concatenate([mags, -mags, Rng(3).normal((4000,), std=8.0)]).astype(dtype)
        z = np.concatenate([values, nans, bits.view(dtype)])  # NaN bytes kept as built
        with np.errstate(all="ignore"):
            got, want = neuron._sigmoid(z.copy()), reference(z)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()  # NaN payloads included

    @pytest.mark.parametrize("kind", list(SurrogateKind))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grad_matches_plain_expression_bytewise(self, kind, dtype):
        def reference(u, p):
            d = u - p.v_threshold
            a = p.surrogate.width_or_alpha
            if kind is SurrogateKind.RECTANGULAR:
                return (np.abs(d) <= 0.5 * a).astype(u.dtype) / a
            if kind is SurrogateKind.SIGMOID:
                z = a * d
                e = np.exp(-np.abs(z))
                s = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
                return a * s * (1.0 - s)
            return (0.5 * a) / (1.0 + (0.5 * np.pi * a * d) ** 2)

        p = LifParams(surrogate=SurrogateSpec(kind, 4.0))
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 1.0 + 1e-7, 30.0, -200.0]
        u = np.concatenate([special, np.linspace(-30.0, 30.0, 6001),
                            Rng(4).normal((2000,), std=3.0)]).astype(dtype)
        got, want = surrogate_grad(u, p), reference(u, p)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()  # NaN payloads included
        # a 0-d input gives the same value
        assert surrogate_grad(u[6], p) == want[6]

    def test_symmetry_about_threshold(self):
        for kind in SurrogateKind:
            p = LifParams(surrogate=SurrogateSpec(kind, 2.0))
            d = np.linspace(0.05, 2.0, 9)
            left = surrogate_grad(p.v_threshold - d, p)
            right = surrogate_grad(p.v_threshold + d, p)
            assert np.allclose(left, right, rtol=1e-6)

    def test_grad_is_derivative_of_relaxation(self):
        # central differences of the relaxation itself, in float64
        h = 1e-5
        for kind in SurrogateKind:
            p = LifParams(surrogate=SurrogateSpec(kind, 2.5))
            # stay away from the rectangular window edges at +-1.25
            u = np.array([-0.9, 0.2, 1.0, 1.7, 2.9], dtype=np.float64)
            fd = (surrogate_relaxation(u + h, p) - surrogate_relaxation(u - h, p)) / (2 * h)
            assert np.abs(fd - surrogate_grad(u, p)).max() <= 1e-4

    def test_relaxation_is_monotone_step_like(self):
        # arctan has heavy tails, so the far-field bound is loose
        for kind in SurrogateKind:
            p = LifParams(surrogate=SurrogateSpec(kind, 3.0))
            u = np.linspace(-4, 6, 101)
            r = surrogate_relaxation(u, p)
            assert (np.diff(r) >= 0).all()
            assert r[0] <= 0.05 and r[-1] >= 0.95
            assert abs(surrogate_relaxation(np.array([p.v_threshold]), p)[0] - 0.5) <= 1e-6

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigError):
            SurrogateSpec(SurrogateKind.SIGMOID, 0.0)

    def test_unknown_kind_rejected(self):
        p = LifParams()
        object.__setattr__(p.surrogate, "kind", "bogus")
        with pytest.raises(ConfigError):
            surrogate_grad(np.zeros(1), p)


class TestParamValidation:
    def test_tau_range(self):
        with pytest.raises(ConfigError):
            LifParams(tau=0.0)
        with pytest.raises(ConfigError):
            LifParams(tau=1.5)

    def test_threshold_positive(self):
        with pytest.raises(ConfigError):
            LifParams(v_threshold=0.0)
