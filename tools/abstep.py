"""Alternated step timer: how much faster or slower one tree of spikebit
runs a benchmark workload's step than another, on one machine at once.

    python tools/abstep.py --a /tmp/base/src --b src --workload train_deep

`--a` and `--b` name the `src/` directories of two trees, such as an
export of the commit before a change and the working tree (see
`tools/identity.py` for making the export); each defaults to this
tree's. Both are imported in one process under the package names
`spikebit_a` and `spikebit_b`, so an A/A run (`--a src --b src`) shows
the tool's own noise.

The workload's shapes come from `perfbench/configs/<workload>.ini` beside
this tool, read by each tree's own `cli.parse_config`, and its data from
the config's synthetic dataset at perfbench's seed, 3:

- `train_toy`, `train_deep`: one step of the training loop
  (`learn.train_epoch` over one batch of `batch_size` samples: forward,
  loss, backward, clipping and AdamW), the batches taken in turn.
  train_toy distils from a logits cache of an untrained model of
  `teacher.ini`, computed once by tree A and given to both;
- `eval_wide`: one inference forward of 128 held-out samples of a model
  calibrated on 128 training samples, as `spikebit eval` runs it.

Both trees build the model from the same seed. Before timing, each runs
its first step, the one the timed steps repeat, and the tool checks that
what it leaves is equal byte for byte in both trees, and prints whether
it is: for eval_wide the logits; for training the step's losses and
accuracy, every parameter, gradient and running statistic after the
update, and the updated model's logits on the batch. It then warms each
tree up with 3 more steps and times `--pairs` pairs of steps, A then B
and B then A in turn, so each step's neighbour is the other tree's. It prints the machine, the median step time of each tree, the
median B/A ratio of the pairs with its quartiles and a bootstrap 95%
interval of that median, and in how many pairs B was faster. A ratio
below 1 means B is faster. The last line holds the same in JSON.

The exit status is 1 when the trees' logits or gradients differ, else 0;
the timings decide nothing. BLAS runs on one thread, as in perfbench.
"""

from __future__ import annotations

import os

# One BLAS thread, as perfbench runs: set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "perfbench" / "configs"
WORKLOADS = ("train_toy", "train_deep", "eval_wide")
EVAL_BATCH = 128  # as `spikebit eval` scores a batch
SEED = 3  # model and data seed, as perfbench's
WARMUP = 3  # untimed steps per tree after the checked one
BOOTSTRAP = 4000  # resamples behind the interval


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The spikebit package under `src`, imported as `name`, and its
    cli, learn, model and numeric modules."""
    init = src / "spikebit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no spikebit package under {src}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{mod: importlib.import_module(f"{name}.{mod}")
                              for mod in ("cli", "learn", "model", "numeric")})


class Runner:
    """One tree's model and step for a workload."""

    def __init__(self, tree: SimpleNamespace, workload: str, data, teacher_logits):
        self.tree = tree
        cfg = tree.cli.parse_config(CONFIGS / f"{workload}.ini")
        self.cfg = cfg
        self.train = workload != "eval_wide"
        self.net = tree.model.SpikingTransformer(cfg.model, seed=SEED)
        x, y = data.x_train, data.y_train
        if self.train:
            b = cfg.batch_size
            self.batches = [(x[i:i + b], y[i:i + b]) for i in range(0, x.shape[0] - b + 1, b)]
            self.teachers = [None] * len(self.batches)
            if teacher_logits is not None:  # each batch's rows, as ids 0..b-1
                self.teachers = [tree.learn.TeacherLogitsCache(teacher_logits[i:i + b], 0)
                                 for i in range(0, b * len(self.batches), b)]
            self.opt = tree.learn.AdamW(self.net.named_params(), lr=cfg.lr,
                                        weight_decay=cfg.weight_decay)
            self.rng = tree.numeric.Rng(SEED)
        else:
            self.net.calibrate(x[:EVAL_BATCH])
            self.batch = data.x_test[:EVAL_BATCH]
        self.steps = 0

    def _run(self):
        """One step: the epoch's metrics for training, else the logits."""
        i = self.steps
        self.steps += 1
        if not self.train:
            return self.net.forward(self.batch, training=False)[0]
        b = i % len(self.batches)
        return self.tree.learn.train_epoch(self.net, self.batches[b], self.teachers[b], self.opt,
                                           self.rng, batch_size=self.cfg.batch_size,
                                           clip_norm=self.cfg.clip_norm, epoch=i)

    def checked_step(self) -> dict:
        """One step, as the timed ones run, and the arrays it leaves, by
        name (see the module docstring)."""
        m = self._run()
        if not self.train:
            return {"logits": m}
        found = {"losses and accuracy": np.array([m.ce_class, m.ce_distill, m.global_loss,
                                                  m.accuracy])}
        for n, p in self.net.named_params():
            found[f"parameter {n}"], found[f"gradient {n}"] = p.value, p.grad
        found.update((f"running statistic {n}", b) for n, b in self.net.named_buffers())
        found["logits after the step"] = self.net.forward(self.batches[0][0], training=False)[0]
        return found

    def step(self) -> float:
        """Seconds of one step."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0


def differences(a: dict, b: dict) -> list[str]:
    """Names of the arrays that are not byte for byte equal."""
    if a.keys() != b.keys():
        return ["the parameter lists"]
    out = []
    for name in a:
        x, y = a[name], b[name]
        same = (x is None and y is None) or (
            x is not None and y is not None and x.dtype == y.dtype and x.shape == y.shape
            and x.tobytes() == y.tobytes())
        if not same:
            out.append(name)
    return out


def summary(ratios: np.ndarray, seed: int = 0) -> dict:
    """Median, quartiles and bootstrap 95% interval of the median of the
    B/A ratios, and the pairs in which B was faster."""
    rng = np.random.default_rng(seed)
    medians = np.median(ratios[rng.integers(0, ratios.size, (BOOTSTRAP, ratios.size))], axis=1)
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return {"median": med, "quartiles": [q1, q3], "ci95": [lo, hi],
            "b_faster": int((ratios < 1).sum()), "pairs": int(ratios.size)}


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpu": cpu,
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = str(ROOT / "src")
    ap.add_argument("--a", default=here, help="src/ directory of tree A (default: this tree's)")
    ap.add_argument("--b", default=here, help="src/ directory of tree B (default: this tree's)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=40, help="pairs of timed steps (default 40)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    trees = [load_tree(Path(src).resolve(), f"spikebit_{tag}")
             for src, tag in ((args.a, "a"), (args.b, "b"))]
    a_cli = trees[0].cli
    cfg = a_cli.parse_config(CONFIGS / f"{args.workload}.ini")
    data = a_cli.load_dataset(cfg.dataset, SEED)
    teacher_logits = None
    if cfg.teacher_source != "none":
        tcfg = a_cli.parse_config(CONFIGS / "teacher.ini")
        teacher = trees[0].model.SpikingTransformer(tcfg.model, seed=SEED)
        teacher_logits = trees[0].learn.build_logits_cache(teacher, data.x_train,
                                                           data.y_train).logits

    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"A {args.a}\nB {args.b}")
    runners = [Runner(t, args.workload, data, teacher_logits) for t in trees]
    diff = differences(*(r.checked_step() for r in runners))
    if diff:
        print(f"check: the trees' first steps DIFFER: {', '.join(diff[:5])}"
              f"{' ...' if len(diff) > 5 else ''}")
    else:
        print("check: the trees' first steps are equal, byte for byte")

    for r in runners:
        for _ in range(WARMUP):
            r.step()
    times = np.empty((args.pairs, 2))
    for i in range(args.pairs):
        for j in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[i, j] = runners[j].step()
    ratios = times[:, 1] / times[:, 0]
    s = summary(ratios)
    unit = "step" if runners[0].train else "forward of 128 samples"
    print(f"{args.workload}: {args.pairs} pairs after {1 + WARMUP} untimed steps each; "
          f"median ms per {unit}: A {1e3 * np.median(times[:, 0]):.2f}, "
          f"B {1e3 * np.median(times[:, 1]):.2f}")
    print(f"B/A: median {s['median']:.4f}, quartiles [{s['quartiles'][0]:.4f}, "
          f"{s['quartiles'][1]:.4f}], bootstrap 95% interval [{s['ci95'][0]:.4f}, "
          f"{s['ci95'][1]:.4f}]; B faster in {s['b_faster']} of {s['pairs']} pairs")
    print(json.dumps({"workload": args.workload, "equal": not diff,
                      "ms_a": 1e3 * float(np.median(times[:, 0])),
                      "ms_b": 1e3 * float(np.median(times[:, 1])),
                      **{k: v if isinstance(v, int) else np.round(v, 5).tolist()
                         for k, v in s.items()}}, sort_keys=True))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
