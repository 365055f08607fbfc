"""Peak memory of one tree of spikebit by model depth: perfbench's
`peak_mib` for a benchmark workload at perfbench's seed 3, one JSON line
per depth.

    python tools/peak.py --workload train_deep
    python tools/peak.py --src /tmp/base/src --workload train_toy --depths 1 2

`--src` names the `src/` directory of the tree to measure, such as an
export of the commit before a change (see `tools/identity.py` for making
one); it defaults to this tree's. One process measures one tree: the
tool imports `spikebit` from `--src` and perfbench's `workloads` module
from `perfbench/` beside this tool, which it does not change, and calls
`workloads.peak_mib` once per depth in `--depths` (default 1 2 4 8 16).
That is the tracemalloc peak over the workload's set-up and memory pass
(two training steps, or one eval batch) with a fresh model of that
depth, as perfbench's traced run measures its per-block slope. So an
eval_wide line measures an uncalibrated model of that depth, not the
benchmark's loaded checkpoint.

The workload's prepared inputs (train_toy's teacher logits cache,
eval_wide's checkpoint) are made by the measured tree itself, in a
temporary directory of its own that the tool removes at exit, so no two
trees or runs share one.

Before the printed measurements the tool makes one at the first depth
and drops it. The first peak measured in a fresh process reads high:
train_toy's first read 3.17 MiB where later ones read 2.50, most likely
because one-time allocations of the process's first training step land
inside the tracemalloc window. `perfbench/run.py` measures after its
timed set-ups, so it never sees them either.

BLAS runs on one thread, as in perfbench. Each line holds the workload,
seed, depth and `peak_mib`.
"""

from __future__ import annotations

import os

# One BLAS thread, as perfbench runs: set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 3  # perfbench's benchmark seed
DEPTHS = (1, 2, 4, 8, 16)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ directory of the tree to measure (default: this tree's)")
    parser.add_argument("--workload", required=True,
                        choices=("train_toy", "train_deep", "eval_wide"))
    parser.add_argument("--depths", type=int, nargs="+", default=list(DEPTHS),
                        help="model depths to measure (default: 1 2 4 8 16)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "spikebit" / "__init__.py").is_file():
        parser.error(f"no spikebit package under {src}")
    if min(args.depths) < 1:
        parser.error("depths must be positive")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import spikebit
    import workloads as wk

    if Path(spikebit.__file__).resolve().parent != src / "spikebit":
        sys.exit(f"error: imported spikebit from {spikebit.__file__}, not from {src}")
    wl = wk.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="spikebit-peak-") as tmp:
        wk.WORK = Path(tmp)  # where `prepare` makes this tree's inputs
        out = Path(tmp) / "out"
        out.mkdir()
        prep = wk.prepare(wl, SEED)
        wk.peak_mib(wl, SEED, prep, out, depth=args.depths[0])  # the warm-up, dropped
        for depth in args.depths:
            peak = wk.peak_mib(wl, SEED, prep, out, depth=depth)
            print(json.dumps({"workload": wl.name, "seed": SEED, "depth": depth,
                              "peak_mib": round(peak, 4)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
