"""Digests of what the engine computes, for checking that a change to the
code leaves every number bit-identical.

Prints one JSON line per artifact, each holding sha256 digests (and, for
criterion 09, the accuracies), after one line describing the machine:

- `variant`: 32 small models, one per stem x weight mode x topology x
  dual_head x classify_on. The conv stem cuts 8x8 images into 4x4
  patches, so its last two stages pool and stage 3's LIF reads a pooled
  input. Each trains for 2 epochs, against a live full-precision
  teacher if it has a distillation head, and is then calibrated. Digests cover its
  checkpoint bytes, every parameter gradient left by the last step and
  the inference logits; reversible models add the logits of
  `heads_forward` and the state `invert` rebuilds.
- `criterion10`: the bytes of `ckpt-last.bin`, `metrics.jsonl` and
  `summary.jsonl` from criterion 10's `spikebit train` run
  (`effective.ini` records its output path, so it is left out).
- `criterion09`: criterion 09's protocol for seed 0, or seeds 0-4 with
  `--full`: the baseline's train and held-out accuracy, the student's
  held-out accuracy and the checkpoint digests of the teacher, the
  baseline and the student.
- `perfbench`: with `--full`, `perfbench/run.py --seconds 1 --trace 0`
  for each workload at seeds 3 and 11, run from the tree `--src`
  belongs to: its `fingerprint` (a per-unit digest, so it does not
  depend on the time budget), `heldout_accuracy` and `correct`.

The digests depend on the machine (numpy, its BLAS build and thread
count, the CPU), so compare two trees on one machine. The tool imports
`spikebit` from the `src/` beside it; `--src` points it at another
tree's, such as an export of the commit before a change:

    mkdir /tmp/base && git archive HEAD | tar -x -C /tmp/base
    python tools/identity.py --full --src /tmp/base/src > base.jsonl
    python tools/identity.py --full > change.jsonl
    diff base.jsonl change.jsonl

It is a check to run by hand, not a test: it asserts nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

VARIANT_EPOCHS = 2
C09_SEEDS_QUICK = (0,)
C09_SEEDS_FULL = (0, 1, 2, 3, 4)
PERFBENCH_WORKLOADS = ("train_toy", "train_deep", "eval_wide")
PERFBENCH_SEEDS = (3, 11)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
        elif isinstance(a, bytes):
            h.update(a)
        else:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


def machine() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (KeyError, TypeError):  # numpy builds differ in what they report
        pass
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                          "OMP_NUM_THREADS") if v in os.environ}
    return {"machine": {"python": platform.python_version(), "numpy": np.__version__,
                        "blas": blas, "blas_threads": threads, "cpu": cpu}}


def _data(rng, n: int, shape: tuple, classes: int):
    x = rng.child(0).normal((n,) + shape, std=1.5)
    y = rng.child(1).integers(0, classes, n).astype(np.int64)
    return x, y


def variants():
    from spikebit import learn
    from spikebit.model import ModelConfig, SpikingTransformer, StemSpec, checkpoint_bytes
    from spikebit.numeric import Rng

    stems = {
        "vector": (StemSpec(kind="vector", in_features=64, tokens=4), (64,), 32),
        "conv": (StemSpec(kind="conv", in_channels=2, image_size=8, patch_size=4), (2, 8, 8), 16),
    }
    grid = itertools.product(stems, ("binary", "full"), ("reversible", "residual"),
                             (True, False), ("x0", "x1"))
    for i, (stem_kind, mode, topology, dual, classify_on) in enumerate(grid):
        stem, shape, dim = stems[stem_kind]
        common = dict(depth=2, embed_dim=dim, heads=2, timesteps=2, num_classes=5, stem=stem)
        cfg = ModelConfig(weight_mode=mode, topology=topology, dual_head=dual,
                          classify_on=classify_on, **common)
        teacher = SpikingTransformer(
            ModelConfig(weight_mode="full", topology="residual", dual_head=False, **common),
            seed=500 + i) if cfg.distills else None  # only a distillation head reads it
        x, y = _data(Rng(600 + i), 48, shape, 5)
        x_test, _ = _data(Rng(700 + i), 160, shape, 5)
        net = SpikingTransformer(cfg, seed=800 + i)
        learn.train_model(net, (x, y), epochs=VARIANT_EPOCHS, rng=Rng(900 + i), lr=6e-3,
                          batch_size=16, teacher=teacher)
        net.calibrate(x)
        record = {
            "artifact": f"variant/{stem_kind}-{mode}-{topology}-"
                        f"{'dual' if dual else 'single'}-{classify_on}",
            "checkpoint": _sha(checkpoint_bytes(net)),
            "grads": _sha(*(p.grad for _, p in net.named_params())),
            "logits": _sha(*net.forward(x_test)),
        }
        if topology == "reversible":
            _, final = net.run_reversible(x_test)
            record["heads_forward"] = _sha(*net.heads_forward(final))
            stem_again = net.invert(final)
            record["invert"] = _sha(stem_again.x0, stem_again.x1)
        _emit(record)


def criterion10():
    from spikebit import cli

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.ini"
        cfg.write_text(
            "[run]\nseed = 11\nepochs = 3\nbatch_size = 32\n\n"
            "[model]\ndepth = 1\nembed_dim = 32\nheads = 2\ntimesteps = 2\n"
            "topology = reversible\n\n"
            "[stem]\nkind = vector\nin_features = 64\ntokens = 4\n\n"
            "[dataset]\nformat = synthetic\ntrain_size = 96\ntest_size = 32\n"
        )
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["train", "--config", str(cfg), "--out", str(out)])
        record = {"artifact": "criterion10", "exit": rc}
        for name in ("ckpt-last.bin", "metrics.jsonl", "summary.jsonl"):
            path = out / name
            record[name] = _sha(path.read_bytes()) if path.exists() else None
        _emit(record)


def criterion09(seed: int):
    """Criterion 09's three trainings for one seed, as its test runs them."""
    from spikebit import learn
    from spikebit.cli import DatasetSpec, synthetic_clusters
    from spikebit.model import ModelConfig, SpikingTransformer, StemSpec, checkpoint_bytes
    from spikebit.numeric import Rng

    stem = StemSpec(kind="vector", in_features=64, tokens=4)
    # the clusters of tests/conftest.py::cluster_data, which the CLI draws alike
    data = synthetic_clusters(DatasetSpec(dims=64, num_classes=10, train_size=512,
                                          test_size=256, spread=1.0, noise=0.85), seed)
    (x_tr, y_tr), (x_te, y_te) = (data.x_train, data.y_train), (data.x_test, data.y_test)

    def model(topology, mode, dual, model_seed):
        cfg = ModelConfig(depth=2, embed_dim=32, heads=2, timesteps=2, stem=stem,
                          topology=topology, weight_mode=mode, dual_head=dual)
        return SpikingTransformer(cfg, seed=model_seed)

    teacher = model("residual", "full", False, 100 + seed)
    learn.train_model(teacher, (x_tr, y_tr), epochs=30, rng=Rng(200 + seed), lr=3e-3)
    base = model("residual", "binary", False, 300 + seed)
    learn.train_model(base, (x_tr, y_tr), epochs=50, rng=Rng(400 + seed), lr=6e-3)
    cie = model("reversible", "binary", True, 300 + seed)
    cache = learn.build_logits_cache(teacher, x_tr, y_tr)
    learn.train_model(cie, (x_tr, y_tr), epochs=50, rng=Rng(400 + seed), lr=6e-3, teacher=cache)
    _emit({
        "artifact": f"criterion09/seed{seed}",
        "baseline_train": learn.evaluate_accuracy(base, x_tr, y_tr),
        "baseline_test": learn.evaluate_accuracy(base, x_te, y_te),
        "student_test": learn.evaluate_accuracy(cie, x_te, y_te),
        "teacher": _sha(checkpoint_bytes(teacher)),
        "baseline": _sha(checkpoint_bytes(base)),
        "student": _sha(checkpoint_bytes(cie)),
    })


def perfbench(src: Path, workload: str, seed: int):
    """One short untraced benchmark run from the tree `src` belongs to."""
    proc = subprocess.run(
        [sys.executable, str(src.parent / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines() or [""]
    detail = next((json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail ")),
                  {})
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else {}  # none after a failure
    _emit({"artifact": f"perfbench/{workload}/seed{seed}", "exit": proc.returncode,
           "fingerprint": detail.get("fingerprint"),
           "heldout_accuracy": detail.get("heldout_accuracy"),
           "correct": result.get("correct")})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--full", action="store_true",
                    help="run criterion 09 for seeds 0-4 instead of seed 0 (about 80 s more), "
                         "and the perfbench runs")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="the src/ directory to import spikebit from")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    _emit(machine())
    variants()
    criterion10()
    for seed in C09_SEEDS_FULL if args.full else C09_SEEDS_QUICK:
        criterion09(seed)
    if args.full:
        for workload, seed in itertools.product(PERFBENCH_WORKLOADS, PERFBENCH_SEEDS):
            perfbench(Path(args.src).resolve(), workload, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
