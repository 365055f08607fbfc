"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured quantity. Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here and nowhere else; every expected value is
either exact (integer/bit-level), an analytic constant, or computed by an
independent oracle inside the test.
"""

import time

import numpy as np
import pytest

from conftest import cluster_data, toy_config
from spikebit import cli, learn, metrics
from spikebit.binary import (
    ALPHABET_01,
    ALPHABET_PM1,
    binarize_weights,
    pack,
    packed_linear,
    standardize_latent,
    unpack,
)
from spikebit.learn import (
    AdamW,
    batch_cross_entropy,
    build_logits_cache,
    global_loss,
    grad_check,
    train_model,
    TeacherOutput,
)
from spikebit.model import (
    BatchNormLayer,
    ForwardRecord,
    LambdaLayer,
    LinearHead,
    ModelConfig,
    SpikingTransformer,
    StemSpec,
)
from spikebit.neuron import (
    LifParams,
    Reset,
    SurrogateKind,
    SurrogateSpec,
    boolean_binarize,
    lif_run,
    surrogate_grad,
    surrogate_relaxation,
)
from spikebit.numeric import Rng


def report(num: int, ok: bool, detail: str):
    line = f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_reference_traces():
    t0 = time.time()
    hard = LifParams(tau=0.5, v_threshold=1.0, reset=Reset.HARD)
    soft = LifParams(tau=0.5, v_threshold=1.0, reset=Reset.SOFT)
    table = {
        (4, 0, 0, 0): ((1, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)),
        (1, 5, 0, 0): ((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)),
        (0, 3, 1, 0): ((0, 1, 1, 0), (0, 1, 1, 0), (0, 1, 1, 0)),
    }
    ok = True
    for trace, (want_bool, want_hard, want_soft) in table.items():
        x = np.array(trace, dtype=np.float32).reshape(4, 1)
        ok &= tuple(boolean_binarize(x).ravel().astype(int)) == want_bool
        ok &= tuple(lif_run(x, hard).ravel().astype(int)) == want_hard
        ok &= tuple(lif_run(x, soft).ravel().astype(int)) == want_soft
    dt = time.time() - t0
    report(1, ok and dt < 1.0, f"boolean/HR/SR traces exact in {dt:.3f}s")


def test_criterion_02_kernel_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    instances = 0
    ok = True
    for inner in range(1, 258):  # every word-boundary-stressing size
        rows, outs = 5, 8
        s = (rng.random((rows, inner)) < rng.uniform(0.05, 0.95)).astype(np.float32)
        w = np.where(rng.random((outs, inner)) < 0.5, 1.0, -1.0).astype(np.float32)
        got = packed_linear(pack(s, ALPHABET_01), pack(w, ALPHABET_PM1))
        want = s.astype(np.int64) @ w.T.astype(np.int64)
        ok &= np.array_equal(got, want)
        instances += rows * outs
    dt = time.time() - t0
    report(2, ok and instances >= 10_000 and dt < 30.0,
           f"{instances} instances over inner sizes 1..257 exact in {dt:.1f}s")


def test_criterion_03_reversibility():
    t0 = time.time()
    master = Rng(31415)
    worst = 0.0
    for trial in range(100):
        r = master.child(trial)
        depth = int(r.integers(1, 5))
        dim = int([16, 32, 64, 128][int(r.integers(0, 4))])
        heads = int([1, 2, 4][int(r.integers(0, 3))])
        timesteps = int(r.integers(1, 5))
        tokens = int([2, 4, 8][int(r.integers(0, 3))])
        cfg = ModelConfig(
            depth=depth, embed_dim=dim, heads=heads, timesteps=timesteps,
            stem=StemSpec(kind="vector", in_features=64, tokens=tokens),
            topology="reversible", weight_mode="binary",
        )
        net = SpikingTransformer(cfg, seed=trial)
        x = r.normal((4, 64))
        net.calibrate(x)
        stem_state, final = net.run_reversible(x)
        rec = net.invert(final)
        err = max(float(np.abs(rec.x0 - stem_state.x0).max()),
                  float(np.abs(rec.x1 - stem_state.x1).max()))
        worst = max(worst, err)
    dt = time.time() - t0
    report(3, worst <= 1e-4 and dt < 120.0,
           f"100 random configs, worst reconstruction error {worst:.2e} in {dt:.1f}s")


def test_criterion_04_binarization_invariants():
    t0 = time.time()
    rng = np.random.default_rng(271828)
    ok = True
    for trial in range(1000):
        shape = (int(rng.integers(1, 12)), int(rng.integers(2, 40)))
        w = (rng.normal(0, rng.uniform(0.1, 5.0), shape)
             + rng.uniform(-3, 3)).astype(np.float32)
        if w.std() == 0:
            continue
        z = standardize_latent(w)
        ok &= abs(float(z.mean(dtype=np.float64))) <= 1e-6
        pb, _ = binarize_weights(w)
        img = unpack(pb, ALPHABET_PM1)
        ok &= bool(np.isin(img, (-1.0, 1.0)).all())
        a = float(rng.uniform(0.05, 20.0))
        c = float(rng.uniform(-10.0, 10.0))
        pb2, _ = binarize_weights((a * w + c).astype(np.float32))
        ok &= bool(np.array_equal(pb.words, pb2.words))
    dt = time.time() - t0
    report(4, ok and dt < 10.0,
           f"1000 tensors: |mean| <= 1e-6, image in {{-1,+1}}, affine-invariant in {dt:.1f}s")


def test_criterion_05_gradient_checks():
    t0 = time.time()
    rng = Rng(5150)

    def as_f64(p):
        p.value = p.value.astype(np.float64)

    # (a) BN + lambda + cross-entropy fragment
    T, B, C = 3, 6, 5
    bn = BatchNormLayer("bn", C)
    lam = LambdaLayer("lam", T)
    for p in (bn.gamma, bn.beta, lam.scale):
        as_f64(p)
    lam.scale.value += rng.normal((T, 1, 1), std=0.2).astype(np.float64)
    x = rng.normal((T, B, C), std=2.0).astype(np.float64)
    targets = np.array([0, 1, 2, 3, 4, 0])
    params_a = bn.params() + lam.params()

    def fwd(rec):
        h = bn.forward(x.copy(), training=True, rec=rec)
        return h, lam.forward(h).mean(axis=0)

    def loss_a():
        return batch_cross_entropy(fwd(None)[1], targets)[0]

    def back_a():
        for _, p in params_a:
            p.zero_grad()
        rec = ForwardRecord(saved=True)
        h, logits = fwd(rec)
        ce, g = batch_cross_entropy(logits, targets)
        g_h = lam.backward(np.broadcast_to(g / T, (T, B, C)).astype(np.float64), h)
        bn.backward(g_h, rec, bn._normalize_again(rec, x.copy()))
        return ce

    err_a = grad_check(loss_a, back_a, params_a, h=1e-5)

    # (b) full-precision head
    head = LinearHead("h", 12, 7, rng.child(1))
    as_f64(head.weight)
    as_f64(head.bias)
    hx = rng.normal((9, 12)).astype(np.float64)
    hy = np.arange(9) % 7

    def loss_b():
        return batch_cross_entropy(head.forward(hx), hy)[0]

    def back_b():
        head.weight.zero_grad()
        head.bias.zero_grad()
        rec = ForwardRecord(saved=True)
        ce, g = batch_cross_entropy(head.forward(hx, rec), hy)
        head.backward(g, rec)
        return ce

    err_b = grad_check(loss_b, back_b, head.params(), h=1e-5)

    # (c) surrogate relaxations against their own analytic derivative
    err_c = 0.0
    h = 1e-5
    for kind in SurrogateKind:
        p = LifParams(surrogate=SurrogateSpec(kind, 2.5))
        u = np.linspace(-1.5, 3.5, 41).astype(np.float64)
        if kind is SurrogateKind.RECTANGULAR:
            u = u[np.abs(np.abs(u - p.v_threshold) - 1.25) > 0.05]  # skip window kinks
        fd = (surrogate_relaxation(u + h, p) - surrogate_relaxation(u - h, p)) / (2 * h)
        err_c = max(err_c, float(np.abs(fd - surrogate_grad(u, p)).max()))

    dt = time.time() - t0
    ok = err_a <= 1e-3 and err_b <= 1e-5 and err_c <= 1e-4 and dt < 60.0
    report(5, ok, f"rel err: bn+lambda+ce {err_a:.2e} (<=1e-3), "
                  f"head {err_b:.2e} (<=1e-5), surrogate {err_c:.2e} (<=1e-4) in {dt:.1f}s")


def test_criterion_06_loss_identity_and_decoupling():
    t0 = time.time()
    rng = Rng(606)
    ok = True
    for trial in range(200):
        y_hat = rng.normal((4, 8), std=3.0)
        y_d = rng.normal((4, 8), std=3.0)
        y = rng.integers(0, 8, 4)
        teacher = TeacherOutput.from_logits(rng.normal((4, 8)))
        rep = global_loss(y_hat, y, y_d, teacher)
        ok &= abs(rep.global_loss - (rep.ce_class + rep.ce_distill) / 2.0) <= 1e-6

    net = SpikingTransformer(toy_config("reversible"), seed=61)
    logits, dist = net.forward(rng.normal((8, 64)), training=True)
    _, g_dist = batch_cross_entropy(dist, np.zeros(8, dtype=np.int64))
    net.zero_grads()
    net.backward(np.zeros_like(logits), g_dist.astype(np.float32))
    decoupled = (not net.head_cls.weight.grad.any()) and (not net.head_cls.bias.grad.any())
    dt = time.time() - t0
    report(6, ok and decoupled and dt < 5.0,
           f"identity to 1e-6 on 200 draws; distill->classification head grad exactly 0 in {dt:.1f}s")


def test_criterion_07_cost_model():
    t0 = time.time()
    exact = (
        metrics.ns_ace(6.52, 32) == pytest.approx(104.32, abs=1e-12)
        and metrics.ns_ace(3.93, 2) == pytest.approx(7.86, abs=1e-12)
        and metrics.ns_ace(2.13, 1) == 2.13
    )
    # published table rounds 2.0565*2 to 4.11; the lookup gives 4.12
    rounded = abs(metrics.ns_ace(2.06, 2) - 4.11) <= 0.015
    cfg = ModelConfig(
        depth=8, embed_dim=512, heads=8, timesteps=4, hidden_ratio=4.0,
        num_classes=1000,
        stem=StemSpec(kind="conv", in_channels=3, image_size=224, patch_size=16),
        topology="reversible", weight_mode="binary",
    )
    net = SpikingTransformer(cfg, seed=7)
    size = metrics.model_size_mb(net)
    in_range = 4.73 <= size <= 6.41
    audit = size == pytest.approx(metrics.param_counts(cfg)["size_mb"], rel=1e-12)
    dt = time.time() - t0
    report(7, exact and rounded and in_range and audit and dt < 5.0,
           f"calibration rows exact; depth-8 dim-512 size {size:.2f} MB in [4.73, 6.41] in {dt:.1f}s")


def test_criterion_08_representation_trend(trend_stats):
    t0 = time.time()
    ok = (trend_stats["seeds"] >= 20
          and trend_stats["rev_last_mean"] >= trend_stats["res_last_mean"])
    dt = time.time() - t0
    report(8, ok,
           f"{trend_stats['seeds']} seeds: final-block value-set size "
           f"reversible {trend_stats['rev_last_mean']:.2f} >= "
           f"baseline {trend_stats['res_last_mean']:.2f}")


@pytest.mark.slow
def test_criterion_09_toy_training_with_distillation():
    t0 = time.time()
    stem = StemSpec(kind="vector", in_features=64, tokens=4)
    wins = 0
    baseline_accs = []
    for seed in range(5):
        (x_tr, y_tr), (x_te, y_te) = cluster_data(seed)
        teacher_cfg = ModelConfig(depth=2, embed_dim=32, heads=2, timesteps=2, stem=stem,
                                  topology="residual", weight_mode="full", dual_head=False)
        teacher = SpikingTransformer(teacher_cfg, seed=100 + seed)
        train_model(teacher, (x_tr, y_tr), epochs=30, rng=Rng(200 + seed), lr=3e-3)

        base_cfg = ModelConfig(depth=2, embed_dim=32, heads=2, timesteps=2, stem=stem,
                               topology="residual", weight_mode="binary", dual_head=False)
        base = SpikingTransformer(base_cfg, seed=300 + seed)
        train_model(base, (x_tr, y_tr), epochs=50, rng=Rng(400 + seed), lr=6e-3)

        cie_cfg = ModelConfig(depth=2, embed_dim=32, heads=2, timesteps=2, stem=stem,
                              topology="reversible", weight_mode="binary", dual_head=True)
        cie = SpikingTransformer(cie_cfg, seed=300 + seed)
        cache = build_logits_cache(teacher, x_tr, y_tr)
        train_model(cie, (x_tr, y_tr), epochs=50, rng=Rng(400 + seed), lr=6e-3, teacher=cache)

        base_train = learn.evaluate_accuracy(base, x_tr, y_tr)
        base_test = learn.evaluate_accuracy(base, x_te, y_te)
        cie_test = learn.evaluate_accuracy(cie, x_te, y_te)
        baseline_accs.append(base_train)
        wins += int(cie_test >= base_test)
    dt = time.time() - t0
    ok = min(baseline_accs) >= 0.95 and wins >= 3 and dt < 900.0
    report(9, ok, f"baseline train acc min {min(baseline_accs):.3f} (>=0.95); "
                  f"CIE >= baseline held-out in {wins}/5 seeds in {dt:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[run]\nseed = 11\nepochs = 3\nbatch_size = 32\n\n"
        "[model]\ndepth = 1\nembed_dim = 32\nheads = 2\ntimesteps = 2\n"
        "topology = reversible\n\n"
        "[stem]\nkind = vector\nin_features = 64\ntokens = 4\n\n"
        "[dataset]\nformat = synthetic\ntrain_size = 96\ntest_size = 32\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ra = cli.main(["train", "--config", str(cfg), "--out", str(out_a)])
    rb = cli.main(["train", "--config", str(cfg), "--out", str(out_b)])
    same_ckpt = (out_a / "ckpt-last.bin").read_bytes() == (out_b / "ckpt-last.bin").read_bytes()
    same_metrics = (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
    same_summary = (out_a / "summary.jsonl").read_bytes() == (out_b / "summary.jsonl").read_bytes()
    dt = time.time() - t0
    ok = ra == 0 and rb == 0 and same_ckpt and same_metrics and same_summary and dt < 300.0
    report(10, ok, f"two train runs byte-identical (checkpoint+metrics+summary) in {dt:.0f}s")
