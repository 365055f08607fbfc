import struct

import numpy as np
import pytest

from conftest import cluster_data, toy_config
from spikebit import learn
from spikebit.errors import ConfigError, DataError, TrainingError
from spikebit.learn import (
    AdamW,
    CosineSchedule,
    TeacherLogitsCache,
    TeacherOutput,
    batch_cross_entropy,
    build_logits_cache,
    cross_entropy,
    dataset_hash,
    global_loss,
    grad_check,
    teacher_predict,
    train_epoch,
    train_model,
)
from spikebit.model import (
    BatchNormLayer,
    ForwardRecord,
    LambdaLayer,
    LinearHead,
    Param,
    SpikingTransformer,
)
from spikebit.numeric import Rng, finite_diff_grad


class TestCrossEntropy:
    def test_uniform_logits(self):
        for C in (2, 5, 10):
            assert np.isclose(cross_entropy(np.zeros(C), 0), np.log(C), rtol=1e-6)

    def test_confident_correct(self):
        # -log sigmoid(20), evaluated analytically
        want = float(np.log1p(np.exp(-20.0)))
        assert np.isclose(cross_entropy(np.array([10.0, -10.0]), 0), want, rtol=1e-6)
        assert want < 3e-9

    def test_is_one_row_of_batch_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(200, 7)) * rng.choice([0.01, 1.0, 100.0], size=(200, 1))
        logits[0] = [50.0, -1e3, 0, 0, 0, 0, 0]  # a certain prediction: the loss is a zero
        targets = np.concatenate([[0], rng.integers(0, 7, 199)])
        for row, t in zip(logits, targets):
            want = batch_cross_entropy(row[None], [t])[0]
            assert np.float64(cross_entropy(row, t)).tobytes() == np.float64(want).tobytes()

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros(3), 3)

    def test_batch_gradient_matches_finite_differences(self):
        rng = Rng(1)
        logits = rng.normal((4, 6)).astype(np.float64)
        targets = np.array([0, 2, 5, 1])

        def f(v):
            return batch_cross_entropy(v, targets)[0]

        _, grad = batch_cross_entropy(logits, targets)
        fd = finite_diff_grad(f, logits.copy(), h=1e-5)
        assert np.abs(grad - fd).max() <= 1e-6


class TestGlobalLoss:
    def test_symmetric_agreement(self):
        logits = Rng(2).normal((3, 5))
        y = np.array([1, 0, 4])
        teacher = TeacherOutput.from_logits(np.eye(5, dtype=np.float32)[y] * 3)
        assert np.array_equal(teacher.hard_label, y)
        rep = global_loss(logits, y, logits, teacher)
        assert np.isclose(rep.ce_class, rep.ce_distill, rtol=1e-6)
        assert np.isclose(rep.global_loss, rep.ce_class, rtol=1e-6)

    def test_perfect_distill_uniform_class(self):
        C = 10
        y = np.array([3])
        y_hat = np.zeros((1, C))
        y_d_hat = np.eye(C)[y] * 50.0
        teacher = TeacherOutput.from_logits(y_d_hat)
        rep = global_loss(y_hat, y, y_d_hat, teacher)
        assert np.isclose(rep.global_loss, (np.log(C) + rep.ce_distill) / 2, atol=1e-9)
        assert rep.ce_distill < 1e-6

    def test_swap_symmetry(self):
        r = Rng(3)
        a, b = r.normal((2, 4)), r.normal((2, 4))
        y = np.array([0, 2])
        yt = np.array([1, 3])
        teacher = TeacherOutput.from_logits(np.eye(4, dtype=np.float32)[yt] * 9)
        fwd = global_loss(a, y, b, teacher)
        teacher_swapped = TeacherOutput.from_logits(np.eye(4, dtype=np.float32)[y] * 9)
        rev = global_loss(b, yt, a, teacher_swapped)
        assert np.isclose(fwd.global_loss, rev.global_loss, rtol=1e-6)

    def test_decomposition_identity_random(self):
        r = Rng(4)
        for trial in range(20):
            y_hat = r.normal((5, 7), std=3.0)
            y_d = r.normal((5, 7), std=3.0)
            y = r.integers(0, 7, 5)
            teacher = TeacherOutput.from_logits(r.normal((5, 7)))
            rep = global_loss(y_hat, y, y_d, teacher)
            assert abs(rep.global_loss - (rep.ce_class + rep.ce_distill) / 2) <= 1e-6

    def test_class_count_mismatch(self):
        with pytest.raises(ConfigError):
            global_loss(np.zeros((1, 3)), [0], np.zeros((1, 4)),
                        TeacherOutput.from_logits(np.zeros((1, 4))))


class TestTeacher:
    def test_argmax_and_tie_break(self):
        out = TeacherOutput.from_logits(np.array([[0.1, 0.9, 0.3]]))
        assert out.hard_label[0] == 1
        tie = TeacherOutput.from_logits(np.array([[0.5, 0.5]]))
        assert tie.hard_label[0] == 0

    def test_cache_roundtrip_matches_live(self, tmp_path):
        (x, y), _ = cluster_data(0, n_train=32, n_test=8)
        teacher = SpikingTransformer(toy_config("residual", weight_mode="full"), seed=5)
        cache = build_logits_cache(teacher, x, y)
        path = tmp_path / "cache.bin"
        cache.save(path)
        loaded = TeacherLogitsCache.load(path)
        assert loaded.data_hash == dataset_hash(x, y)
        ids = np.arange(16)
        live = teacher_predict(teacher, x[:16])
        cached = teacher_predict(loaded, x[:16], ids=ids)
        assert np.array_equal(live.hard_label, cached.hard_label)
        assert np.allclose(live.logits, cached.logits, atol=1e-6)
        # header: magic (6) + n, c, hash (16); then n records of id + c logits
        raw = path.read_bytes()
        assert raw == b"SBLC\x01\x00" + struct.pack("<IIQ", 32, cache.num_classes, cache.data_hash) + b"".join(
            struct.pack("<I", i) + cache.logits[i].astype("<f4").tobytes() for i in range(32))
        swapped = bytearray(raw)
        swapped[22:26] = (1).to_bytes(4, "little")
        # class counts numpy cannot build a record for, with and without records
        huge = [raw[:10] + struct.pack("<I", c) + raw[14:] for c in (2**31, 2**32 - 1)]
        empty = raw[:6] + struct.pack("<II", 0, 2**31) + raw[14:22]
        for bad, match in [(raw[:12], "header truncated"), (raw[:-3], "payload"),
                           (raw + b"\0", "trailing bytes"), (bytes(swapped), "out of order"),
                           (huge[0], "payload"), (huge[1], "payload"), (empty, "no records")]:
            path.write_bytes(bad)
            with pytest.raises(DataError, match=match):
                TeacherLogitsCache.load(path)

    def test_cache_requires_ids(self):
        cache = TeacherLogitsCache(np.zeros((4, 3), dtype=np.float32), 0)
        with pytest.raises(DataError):
            teacher_predict(cache, np.zeros((2, 8)))

    def test_cache_id_out_of_range(self):
        cache = TeacherLogitsCache(np.zeros((4, 3), dtype=np.float32), 0)
        with pytest.raises(DataError):
            cache.predict(np.array([7]))


class TestOptimizer:
    def test_zero_lr_leaves_params_bit_identical(self):
        (x, y), _ = cluster_data(1, n_train=64, n_test=8)
        net = SpikingTransformer(toy_config("residual"), seed=6)
        before = {n: p.value.copy() for n, p in net.named_params()}
        opt = AdamW(net.named_params(), lr=0.0)
        train_epoch(net, (x, y), None, opt, Rng(7), batch_size=32)
        for n, p in net.named_params():
            assert np.array_equal(before[n], p.value), n

    def test_one_step_bit_identical_across_runs(self):
        (x, y), _ = cluster_data(2, n_train=64, n_test=8)

        def run():
            net = SpikingTransformer(toy_config("reversible"), seed=8)
            opt = AdamW(net.named_params(), lr=1e-3)
            train_epoch(net, (x, y), None, opt, Rng(9), batch_size=32)
            return {n: p.value.copy() for n, p in net.named_params()}

        a, b = run(), run()
        for n in a:
            assert np.array_equal(a[n], b[n]), n

    def test_lambda_stays_positive(self):
        net = SpikingTransformer(toy_config("reversible"), seed=10)
        lam_params = [p for n, p in net.named_params() if n.endswith("lambda.scale")]
        assert lam_params
        opt = AdamW(net.named_params(), lr=50.0)  # violent updates
        (x, y), _ = cluster_data(3, n_train=64, n_test=8)
        train_epoch(net, (x, y), None, opt, Rng(11), batch_size=32)
        for p in lam_params:
            assert (p.value > 0).all()

    def test_a_gradient_no_backward_made_reads_as_zero(self):
        # without `zero_grads`, a backward with no distillation gradient
        # leaves the distillation head's gradients unmade: clipping and the
        # step read them as zeros, as after `zero_grads`
        x, y = cluster_data(4, n_train=8, n_test=8)[0]
        nets = []
        for zero_first in (True, False):
            net = SpikingTransformer(toy_config("reversible"), seed=12)
            if zero_first:
                net.zero_grads()
            logits, _ = net.forward(x, training=True)
            net.backward(learn.batch_cross_entropy(logits, y)[1])
            assert (net.head_dist.weight.grad is None) is not zero_first
            learn.clip_global_norm(net.named_params(), 1e-3)
            AdamW(net.named_params(), lr=1e-2, weight_decay=0.1).step()
            nets.append(net)
        for (name, p), (_, q) in zip(nets[0].named_params(), nets[1].named_params()):
            assert p.value.tobytes() == q.value.tobytes(), name

    @staticmethod
    def _reference_steps(params, grads, steps, lr, wd, b1=0.9, b2=0.999, eps=1e-8,
                         floor=1e-4):
        """The per-parameter AdamW loop on copies: values after `steps`."""
        values = [p.value.copy() for p in params]
        ms = [np.zeros_like(v) for v in values]
        vs = [np.zeros_like(v) for v in values]
        for t in range(1, steps + 1):
            for i, p in enumerate(params):
                g = grads[t - 1][i]
                g = np.zeros_like(values[i]) if g is None else g
                ms[i] = b1 * ms[i] + (1.0 - b1) * g
                vs[i] = b2 * vs[i] + (1.0 - b2) * g * g
                upd = (ms[i] / (1.0 - b1 ** t)) / (np.sqrt(vs[i] / (1.0 - b2 ** t)) + eps)
                if wd and values[i].ndim >= 2 and not p.positive:
                    upd = upd + wd * values[i]
                values[i] -= (lr * upd).astype(np.float32)
                if p.positive:
                    np.maximum(values[i], floor, out=values[i])
        return values

    def test_arena_step_matches_per_parameter_loop_bytewise(self):
        rng = Rng(61)
        params = [Param(rng.normal((4, 6))), Param(rng.normal((5,))),
                  Param(np.ones((3, 1, 1), dtype=np.float32), positive=True),
                  Param(rng.normal((2, 3, 2))), Param(rng.normal((3, 3)))]
        # the last parameter never gets a gradient; the lambda-like one
        # is pushed below its floor
        grads = [[rng.normal(p.value.shape) for p in params[:-1]] + [None] for _ in range(5)]
        for step in grads:
            step[2] = np.full((3, 1, 1), 30.0, dtype=np.float32)
        want = self._reference_steps(params, grads, 5, lr=0.3, wd=0.1)
        opt = AdamW([(str(i), p) for i, p in enumerate(params)], lr=0.3, weight_decay=0.1)
        for step in grads:
            for p, g in zip(params[:-1], step):
                p.grad[...] = g
            opt.step()
        assert not params[-1].grad.any()
        assert np.all(params[2].value == np.float32(1e-4))
        for i, (p, w) in enumerate(zip(params, want)):
            assert p.value.tobytes() == w.tobytes(), i
            assert p.version == 5

    def test_lambda_scales_are_not_decayed(self):
        net = SpikingTransformer(toy_config("reversible"), seed=62)
        net.zero_grads()
        AdamW(net.named_params(), lr=0.1, weight_decay=0.5).step()
        for name, p in net.named_params():
            if name.endswith("lambda.scale"):
                assert np.all(p.value == 1.0), name
        w = net.blocks[0].bmlp.fc1.weight
        before = w.value.copy()
        net.zero_grads()
        AdamW(net.named_params(), lr=0.1, weight_decay=0.5).step()
        assert w.value.tobytes() == (before - (0.1 * (0.5 * before))).tobytes()

    def test_a_newer_optimizer_takes_the_parameters_over(self):
        net = SpikingTransformer(toy_config("residual"), seed=63)
        net.zero_grads()
        old = AdamW(net.named_params(), lr=1e-2)
        new = AdamW(net.named_params(), lr=1e-2)
        for _, p in net.named_params():
            assert np.shares_memory(p.value, new.values)
            assert not np.shares_memory(p.value, old.values)
            p.grad[...] = 1.0
        before = {n: p.value.copy() for n, p in net.named_params()}
        old.step()  # steps its own arena only
        for n, p in net.named_params():
            assert p.value.tobytes() == before[n].tobytes(), n
        new.step()
        assert all((p.value != before[n]).any() for n, p in net.named_params())

    def test_a_parameter_listed_twice_is_refused(self):
        # a parameter is one slice of the arena; listed twice it would get
        # two, and read only the last
        p = Param(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ConfigError, match="listed twice"):
            AdamW([("a", p), ("b", p)])

    def test_cosine_schedule_endpoints(self):
        sched = CosineSchedule(1.0, 100, min_lr=0.1)
        assert np.isclose(sched.lr_at(0), 1.0)
        assert np.isclose(sched.lr_at(100), 0.1)
        assert sched.lr_at(50) < sched.lr_at(10)


class TestTrainLoop:
    def test_single_sample_memorization(self):
        (x, y), _ = cluster_data(4, n_train=1, n_test=1)
        net = SpikingTransformer(toy_config("residual"), seed=12)
        hist = train_model(net, (x, y), epochs=30, rng=Rng(13), lr=6e-3, batch_size=1)
        assert learn.evaluate_accuracy(net, x, y) == 1.0

    def test_no_distillation_reduces_to_plain_ce(self):
        (x, y), _ = cluster_data(5, n_train=64, n_test=8)
        net = SpikingTransformer(toy_config("reversible"), seed=14)
        opt = AdamW(net.named_params(), lr=1e-3)
        em = train_epoch(net, (x, y), None, opt, Rng(15), batch_size=32)
        assert em.ce_distill == 0.0
        assert em.global_loss == em.ce_class

    def test_distilling_batch_trains_on_global_loss(self, monkeypatch):
        # one batch: the epoch's losses, and the logit gradients backward
        # reads, are global_loss's on that batch's logits
        (x, y), _ = cluster_data(5, n_train=32, n_test=8)
        net = SpikingTransformer(toy_config("reversible"), seed=14)
        teacher = SpikingTransformer(toy_config("residual", weight_mode="full"), seed=3)
        seen = {}
        forward, backward, predict = net.forward, net.backward, learn.teacher_predict

        def spy_forward(xb, training=False):
            seen["logits"] = forward(xb, training)
            return seen["logits"]

        def spy_backward(g_logits, g_dist=None):
            seen["grads"] = (g_logits, g_dist)
            return backward(g_logits, g_dist)

        def spy_predict(teacher, xb, ids=None):
            seen["ids"], seen["teacher"] = ids, predict(teacher, xb, ids)
            return seen["teacher"]

        monkeypatch.setattr(net, "forward", spy_forward)
        monkeypatch.setattr(net, "backward", spy_backward)
        monkeypatch.setattr(learn, "teacher_predict", spy_predict)
        em = train_epoch(net, (x, y), teacher, AdamW(net.named_params()), Rng(15),
                         batch_size=32)
        logits, dist = seen["logits"]
        rep = global_loss(logits, y[seen["ids"]], dist, seen["teacher"])
        assert (em.ce_class, em.ce_distill, em.global_loss) == (
            rep.ce_class, rep.ce_distill, rep.global_loss)
        g_logits, g_dist = seen["grads"]
        assert g_logits.tobytes() == rep.g_class.astype(np.float32).tobytes()
        assert g_dist.tobytes() == rep.g_distill.astype(np.float32).tobytes()

    @pytest.mark.parametrize("topology,dual_head", [("residual", True), ("reversible", False)])
    def test_teacher_without_distillation_head_raises_before_training(self, topology,
                                                                      dual_head):
        (x, y), _ = cluster_data(5, n_train=32, n_test=8)
        net = SpikingTransformer(toy_config(topology, dual_head=dual_head), seed=14)
        assert net.head_dist is None
        teacher = SpikingTransformer(toy_config("residual", weight_mode="full"), seed=3)
        before = [(n, p.value.copy()) for n, p in net.named_params()]
        with pytest.raises(ConfigError, match=f"topology = {topology}, dual_head = "
                                              f"{str(dual_head).lower()}"):
            train_epoch(net, (x, y), teacher, AdamW(net.named_params(), lr=1e-2), Rng(15),
                        batch_size=32)
        assert all(p.value.tobytes() == v.tobytes()
                   for (_, p), (_, v) in zip(net.named_params(), before))
        assert net._record is None

    def test_nonfinite_loss_aborts_with_batch_index(self):
        (x, y), _ = cluster_data(6, n_train=32, n_test=8)
        net = SpikingTransformer(toy_config("residual"), seed=16)
        net.head_cls.weight.value[:] = np.nan
        opt = AdamW(net.named_params(), lr=1e-3)
        with pytest.raises(TrainingError, match="batch 0"):
            train_epoch(net, (x, y), None, opt, Rng(17), batch_size=32)

    def test_nonfinite_loss_leaves_no_record(self):
        # the aborted step's training forward saved a record that no
        # backward will read; the model must not keep it
        (x, y), _ = cluster_data(6, n_train=32, n_test=8)
        net = SpikingTransformer(toy_config("reversible"), seed=16)
        net.head_cls.bias.value[:] = np.nan
        opt = AdamW(net.named_params(), lr=1e-3)
        with pytest.raises(TrainingError, match="non-finite loss"):
            train_epoch(net, (x, y), None, opt, Rng(17), batch_size=32)
        assert net._record is None
        with pytest.raises(TrainingError, match="cached forward"):
            net.backward(np.ones((32, 10), np.float32), np.ones((32, 10), np.float32))

    def test_dual_head_gradient_decoupling(self):
        net = SpikingTransformer(toy_config("reversible"), seed=18)
        x = Rng(19).normal((8, 64))
        logits, dist = net.forward(x, training=True)
        # backprop only the distillation loss
        _, g_dist = batch_cross_entropy(dist, np.zeros(8, dtype=np.int64))
        net.zero_grads()
        net.backward(np.zeros_like(logits), g_dist.astype(np.float32))
        assert not net.head_cls.weight.grad.any()
        assert not net.head_cls.bias.grad.any()
        assert net.head_dist.weight.grad.any()
        # and the reverse direction, from a fresh cached forward: each
        # backward consumes the caches of the forward before it
        assert np.array_equal(net.forward(x, training=True)[0], logits)
        _, g_cls = batch_cross_entropy(logits, np.zeros(8, dtype=np.int64))
        net.zero_grads()
        net.backward(g_cls.astype(np.float32), np.zeros_like(dist))
        assert not net.head_dist.weight.grad.any()
        assert net.head_cls.weight.grad.any()


def _f64(param):
    param.value = param.value.astype(np.float64)
    return param


class TestGradCheck:
    def test_linear_head_fragment(self):
        rng = Rng(20)
        head = LinearHead("h", 8, 5, rng)
        _f64(head.weight)
        _f64(head.bias)
        x = rng.normal((6, 8)).astype(np.float64)
        targets = np.array([0, 1, 2, 3, 4, 0])

        def loss():
            return batch_cross_entropy(head.forward(x), targets)[0]

        def backward():
            head.weight.zero_grad()
            head.bias.zero_grad()
            rec = ForwardRecord(saved=True)
            ce, g = batch_cross_entropy(head.forward(x, rec), targets)
            head.backward(g, rec)
            return ce

        err = grad_check(loss, backward, head.params(), h=1e-5)
        assert err <= 1e-5

    def test_bn_lambda_ce_fragment(self):
        rng = Rng(21)
        T, B, C = 3, 5, 4
        bn = BatchNormLayer("bn", C)
        lam = LambdaLayer("lam", T)
        _f64(bn.gamma)
        _f64(bn.beta)
        _f64(lam.scale)
        lam.scale.value += rng.normal((T, 1, 1), std=0.1).astype(np.float64)
        x = rng.normal((T, B, C), std=2.0).astype(np.float64)
        targets = np.array([0, 1, 2, 3, 0])
        params = bn.params() + lam.params()

        def forward(rec):
            h = bn.forward(x.copy(), training=True, rec=rec)
            return h, lam.forward(h).mean(axis=0)  # pool time -> (B, C) logits

        def loss():
            return batch_cross_entropy(forward(None)[1], targets)[0]

        def backward():
            for _, p in params:
                p.zero_grad()
            rec = ForwardRecord(saved=True)
            h, logits = forward(rec)
            ce, g = batch_cross_entropy(logits, targets)
            g_h = np.broadcast_to(g / T, (T, B, C)).astype(np.float64)
            bn.backward(lam.backward(g_h, h), rec, bn._normalize_again(rec, x.copy()))
            return ce

        err = grad_check(loss, backward, params, h=1e-5)
        assert err <= 1e-3

    def test_unused_parameter_has_zero_gradient_on_both_sides(self):
        rng = Rng(22)
        used = LinearHead("u", 4, 3, rng)
        unused = LinearHead("dead", 4, 3, rng)
        _f64(used.weight), _f64(used.bias), _f64(unused.weight), _f64(unused.bias)
        x = rng.normal((5, 4)).astype(np.float64)
        targets = np.array([0, 1, 2, 0, 1])

        def loss():
            return batch_cross_entropy(used.forward(x), targets)[0]

        def backward():
            for _, p in used.params() + unused.params():
                p.zero_grad()
            rec = ForwardRecord(saved=True)
            ce, g = batch_cross_entropy(used.forward(x, rec), targets)
            used.backward(g, rec)
            return ce

        err = grad_check(loss, backward, unused.params(), h=1e-5)
        assert err <= 1e-9  # both analytic and fd are identically zero
