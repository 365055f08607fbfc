"""What the hand-run tools (`abstep.py`, `peak.py`, `identity.py`) share:
BLAS on one thread, the benchmark's seed and workload names, importing
a spikebit tree from a `src/` directory, and the machine record.

A tool imports this module before anything else. Run as a script, the
tool thus gets BLAS on one thread, as perfbench runs: the three BLAS
thread variables are set to 1 before numpy loads. Where numpy is
already loaded, as in a test session that loads a tool, BLAS has read
its settings, so this changes no environment variable.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import contextlib
import importlib
import importlib.util
import platform
from pathlib import Path
from types import ModuleType

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 3  # model and data seed, as perfbench's
WORKLOADS = ("train_toy", "train_deep", "eval_wide")


def import_tree(src, name: str = "spikebit") -> ModuleType:
    """The spikebit package under the `src/` directory `src`, imported as
    `name`. Exits 2 when there is none."""
    init = Path(src).resolve() / "spikebit" / "__init__.py"
    if not init.is_file():
        print(f"error: no spikebit package under {src}", file=sys.stderr)
        sys.exit(2)
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def machine(*trees: ModuleType) -> dict:
    """Python, numpy, the BLAS build and its thread variables, the CPU
    model and count, and the inference tile workers of each tree (a
    package `import_tree` returned), in order."""
    blas = {}
    with contextlib.suppress(KeyError, TypeError):  # numpy builds differ in what they report
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
            "cpu": cpu, "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "infer_workers": [importlib.import_module(f"{tree.__name__}.model")._infer_workers()
                              for tree in trees]}
