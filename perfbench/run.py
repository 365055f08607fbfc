"""spikebit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train_toy --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and configs/):
  train_toy   the criterion-09 CIE student, distilled from a logits cache
  train_deep  `spikebit train`'s default model at depth 8, D=64, T=4, 16 tokens
  eval_wide   `spikebit eval` on a depth-4, D=128, T=4 checkpoint

With --trace 0 the run reports the end-to-end metrics, all measured with
tracing off:
  samples_per_s  samples over seconds, summed over the timed epochs (train)
                 or eval units. The host's speed shifts between levels every
                 few seconds; a median over segments jumps with the level
                 most segments saw, the sum follows the mix smoothly
  peak_mib       tracemalloc peak over set-up plus a fixed number of steps
  setup_s        median of repeated set-ups: config, data, cache or
                 checkpoint load, model construction
With --trace 1 it runs the same phase with every other epoch (or eval
unit) traced and reports per-layer self time and counts per step, the
tracing overhead as traced against untraced throughput, a float32 BLAS
replay of every packed-kernel shape and the per-block memory slope.

The run checks the outputs (finite and falling loss, held-out accuracy
above chance, identical repeated units, bit-identical eval passes, kernel
equal to BLAS) and compares a digest of the final checkpoint or eval
logits with the one an earlier run of the same code and seed recorded.
The last line of standard output is the JSON result; the lines before it
give each metric with its unit, the machine and run details.

The program is imported from `src/` next to this directory; without it
the run fails with exit code 2. The process runs one BLAS thread.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One process, one BLAS thread: set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "spikebit" / "__init__.py").is_file():
        _fail(f"spikebit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import spikebit
    if Path(spikebit.__file__).resolve().parent != SRC / "spikebit":
        _fail(f"imported spikebit from {spikebit.__file__}, not from {SRC}")


def machine_notes() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
        except (OSError, AttributeError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def untraced_run(wl, seed, seconds, prep, out):
    import statistics

    import workloads as wk

    setup_times = wk.time_setup(wl, seed, prep)
    peak = wk.peak_mib(wl, seed, prep, out)
    st = wk.set_up(wl, seed, prep)
    phase = wk.run_phase(wl, st, seconds, wk.Meter(), out)
    values = {
        "samples_per_s": phase.meter.rate(traced=False),
        "peak_mib": peak,
        "setup_s": statistics.median(setup_times),
    }
    return values, [phase], st, {"setup_times_s": setup_times}


def traced_run(wl, seed, seconds, prep, out):
    import tracing
    import workloads as wk
    from spikebit import metrics

    # the memory passes come first, as in the untraced run, and warm up
    # the code paths before the timed phase. A first, unused pass takes the
    # process's one-time allocations, which would otherwise land in the
    # shallower pass only when `prepare` did not already make them.
    lo, hi = wl.memory_depths
    wk.peak_mib(wl, seed, prep, out, depth=lo)
    peaks = {d: wk.peak_mib(wl, seed, prep, out, depth=d) for d in (lo, hi)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        st = wk.set_up(wl, seed, prep)
        tracer.active = False
        phase = wk.run_phase(wl, st, seconds, wk.Meter(tracer), out)
        if phase.net is not None:
            # a training phase makes no cost report: take one on the
            # trained model; the eval phase makes one in every unit
            tracer.active = True
            metrics.cost_report(phase.net, st.data.x_test[:wk.EVAL_BATCH])
            tracer.active = False
    finally:
        tracer.uninstall()
    tracer.write_spans(out / "spans.csv")

    meter = phase.meter
    values = tracer.layer_metrics(meter.wall_s(traced=True) - tracer.hidden_s)
    kernel_metrics, kernel_rows, kernel_errors = tracing.replay_kernels(tracer)
    values.update(kernel_metrics)
    values["model.peak_mib_per_block"] = (peaks[hi] - peaks[lo]) / (hi - lo)
    values["learn.heldout_accuracy"] = phase.heldout_accuracy
    untraced_rate = meter.rate(traced=False)
    values["trace.traced_over_untraced"] = (
        meter.rate(traced=True) / untraced_rate if untraced_rate else 0.0)
    phase.errors += kernel_errors
    detail = {
        "steps_traced": tracer.steps,
        "top_self_ms_per_step": tracer.top_self(),
        "kernel_shapes": kernel_rows,
        "memory_peak_mib_by_depth": peaks,
        "packed_linear_share_of_wall": (
            values["binary.packed_linear.self_ms"] / values["trace.step_ms"]),
    }
    return values, [phase], st, detail


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import json
    import statistics

    import workloads as wk

    if args.workload not in wk.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wk.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = wk.WORKLOADS[args.workload]
    out = wk.WORK / "runs" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    prep = wk.prepare(wl, args.seed)
    run = traced_run if args.trace else untraced_run
    values, phases, st, detail = run(wl, args.seed, args.seconds, prep, out)
    if set(values) != set(units):
        _fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    errors = [e for ph in phases for e in ph.errors]
    unit_prints = {f for ph in phases for f in ph.fingerprints}
    if len(unit_prints) > 1:
        errors.append(f"repeated units disagree: {sorted(unit_prints)}")
    last = phases[-1]
    if wl.train:
        fingerprint = last.fingerprints[0] if last.fingerprints else ""
    else:
        fingerprint, logit_errors = wk.eval_logits_digest(st)
        errors += logit_errors
    if fingerprint:
        errors += wk.check_fingerprint(wl, args.seed, fingerprint)

    segments = [s for s, *_ in last.meter.segments]
    detail.update({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "fingerprint": fingerprint, "heldout_accuracy": last.heldout_accuracy,
        "units": last.units, "segments": len(segments),
        "segment_s_quartiles": statistics.quantiles(segments, n=4) if len(segments) > 1 else segments,
        "errors": errors, "machine": machine_notes(),
    })
    for name, value in values.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    failed = sum(ph.failed for ph in phases)
    result = {
        "correct": not errors and failed == 0,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
