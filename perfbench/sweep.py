"""Run the benchmark over many seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads train_toy,train_deep,eval_wide \
        --seeds 0-9 --out perfbench/results/baseline.json

Runs `run.py` once per workload and seed, one process at a time, and
reports for every metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
bound BENCHMARK.json sets. For each workload it also records the
held-out accuracy across seeds: a non-gating seed spread against which a
change at rounding level can be judged. The sweep fails only when a run
fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode or result is None:
        sys.stderr.write(proc.stderr)
    return {"seed": seed, "exit": proc.returncode, "wall_s": time.perf_counter() - t0,
            "result": result, "detail": detail}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(runs: list[dict], bounds: dict) -> dict:
    names = runs[0]["result"]["metrics"] if runs and runs[0]["result"] else {}
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
        out[name] = {"unit": names[name]["unit"], "bound": bounds.get(name), **spread(values),
                     "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, seconds, args.trace)
            runs.append(run)
            res = run["result"] or {}
            ok &= run["exit"] == 0 and bool(res.get("correct"))
            print(f"{workload} seed {seed}: exit {run['exit']} in {run['wall_s']:.1f}s "
                  f"correct={res.get('correct')} attempted={res.get('attempted')} "
                  f"failed={res.get('failed')} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res.get("metrics", {}).items()
                             if args.trace == 0), flush=True)
        metrics = summarize(runs, bounds)
        accuracy = [r["detail"]["heldout_accuracy"] for r in runs
                    if r["detail"].get("heldout_accuracy") is not None]
        report["workloads"][workload] = {
            "metrics": metrics,
            "heldout_accuracy": {**spread(accuracy), "values": accuracy} if accuracy else None,
            "runs": [{"seed": r["seed"], "exit": r["exit"], "wall_s": r["wall_s"],
                      "fingerprint": r["detail"].get("fingerprint"),
                      "correct": (r["result"] or {}).get("correct")} for r in runs],
        }
        report.setdefault("machine", runs[0]["detail"].get("machine"))
        for name, m in metrics.items():
            if args.trace == 0 or name in ("trace.step_ms", "trace.traced_over_untraced"):
                bound = m["bound"]
                verdict = "" if bound is None else (
                    f" bound {bound:.2f} ({'ok' if m['spread'] <= bound / 3 else 'WIDE'})")
                print(f"  {name:<32} median {m['median']:.6g} {m['unit']} "
                      f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f}{verdict}")
        if accuracy:
            acc = report["workloads"][workload]["heldout_accuracy"]
            print(f"  heldout_accuracy median {acc['median']:.4f} "
                  f"[{acc['min']:.4f}, {acc['max']:.4f}] spread {acc['spread']:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
