"""Per-layer tracing for the benchmark's traced run.

`Tracer.install` wraps public functions and methods of the spikebit
modules (neuron, binary, model, learn, metrics, cli, numeric) with spans
and counters, from the benchmark's side: no file of the package changes.
A span records its name, start, end, parent span and step id; spans stay
in memory until `write_spans` at the end of the run. A step is one call of
`SpikingTransformer.forward` inside a measured segment: one training step
or one eval batch.

Self time is a span's duration minus the durations of its child spans.
Time the tracer spends on counters after a call (spike counts, operand
capture) is taken off the clock, so it lands in no span; it is kept in
`hidden_s` and counted in the tracing overhead.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from spikebit import binary, cli, learn, metrics, model, neuron, numeric
import spikebit

# (owner, attribute, span name). Forward and backward of a layer kind get
# separate names; the heads' two methods share one.
SPANS = [
    (neuron, "surrogate_grad", "neuron.surrogate_grad"),
    (binary, "packed_linear", "binary.packed_linear"),
    (binary, "pack", "binary.pack"),
    (binary, "unpack", "binary.unpack"),
    (binary, "binarize_weights", "binary.binarize_weights"),
    (binary, "ste_backward", "binary.ste_backward"),
    (model.LifLayer, "forward", "model.lif.fwd"),
    (model.LifLayer, "backward", "model.lif.bwd"),
    (model.BinaryLinearLayer, "forward", "model.linear.fwd"),
    (model.BinaryLinearLayer, "backward", "model.linear.bwd"),
    (model.BatchNormLayer, "forward", "model.bn.fwd"),
    (model.BatchNormLayer, "backward", "model.bn.bwd"),
    (model.BssaBlock, "forward", "model.bssa.fwd"),
    (model.BssaBlock, "backward", "model.bssa.bwd"),
    (model.LinearHead, "forward", "model.head"),
    (model.LinearHead, "backward", "model.head"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (model.SpikingTransformer, "__init__", "model.init"),
    (learn.AdamW, "step", "learn.adamw_step"),
    (learn, "clip_global_norm", "learn.clip_global_norm"),
    (learn, "batch_cross_entropy", "learn.batch_cross_entropy"),
    (learn, "teacher_predict", "learn.teacher_predict"),
    (learn.TeacherLogitsCache, "load", "learn.cache_load"),
    (metrics, "cost_report", "metrics.cost_report"),
    (cli, "parse_config", "cli.parse_config"),
    (cli, "load_dataset", "cli.load_dataset"),
    (numeric, "matmul", "numeric.matmul"),
    (numeric, "batch_norm", "numeric.batch_norm"),
    # the package re-exports these two; calls through it count as well
    (spikebit, "matmul", "numeric.matmul"),
    (spikebit, "batch_norm", "numeric.batch_norm"),
]

# Per-layer metric -> span name: self time and calls are per step; set-up
# and checkpoint calls are timed per call.
SELF_MS = {
    "neuron.surrogate_grad.self_ms": "neuron.surrogate_grad",
    "model.lif.fwd_self_ms": "model.lif.fwd",
    "model.lif.bwd_self_ms": "model.lif.bwd",
    "binary.packed_linear.self_ms": "binary.packed_linear",
    "binary.pack.self_ms": "binary.pack",
    "binary.unpack.self_ms": "binary.unpack",
    "binary.binarize_weights.self_ms": "binary.binarize_weights",
    "binary.ste_backward.self_ms": "binary.ste_backward",
    "model.linear.fwd_self_ms": "model.linear.fwd",
    "model.linear.bwd_self_ms": "model.linear.bwd",
    "model.bn.fwd_self_ms": "model.bn.fwd",
    "model.bn.bwd_self_ms": "model.bn.bwd",
    "model.bssa.fwd_self_ms": "model.bssa.fwd",
    "model.bssa.bwd_self_ms": "model.bssa.bwd",
    "model.head.self_ms": "model.head",
    "learn.adamw_step.self_ms": "learn.adamw_step",
    "learn.clip_global_norm.self_ms": "learn.clip_global_norm",
    "learn.batch_cross_entropy.self_ms": "learn.batch_cross_entropy",
    "learn.teacher_predict.self_ms": "learn.teacher_predict",
}
CALLS = {
    "neuron.surrogate_grad.calls": "neuron.surrogate_grad",
    "binary.packed_linear.calls": "binary.packed_linear",
    "numeric.matmul.calls": "numeric.matmul",
    "numeric.batch_norm.calls": "numeric.batch_norm",
}
MS_PER_CALL = {
    "model.save_checkpoint.ms": "model.save_checkpoint",
    "model.load_checkpoint.ms": "model.load_checkpoint",
    "learn.cache_load.ms": "learn.cache_load",
    "metrics.cost_report.ms": "metrics.cost_report",
    "cli.parse_config.ms": "cli.parse_config",
    "cli.load_dataset.ms": "cli.load_dataset",
    "model.init.ms": "model.init",
}


class Tracer:
    """Span recorder. `active` turns recording on; `stepping` marks a
    measured segment, where each model forward opens a new step. Spans
    recorded outside a segment (set-up, post-phase probes) carry step -1
    and count only towards per-call metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.step_ids: list[int] = []
        self.active = False
        self.stepping = False
        self.steps = 0
        self._stack: list[int] = []
        self.hidden_s = 0.0
        self._patches = []
        self.spikes = 0
        self.spike_elements = 0
        self.word_ops = 0
        self.sops_g = 0.0
        self.kernel_calls: dict[tuple, int] = defaultdict(int)
        self.kernel_operands: dict[tuple, tuple] = {}

    def now(self) -> float:
        return time.perf_counter() - self.hidden_s

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        after = {
            "model.lif.fwd": self._count_spikes,
            "binary.packed_linear": self._capture_kernel,
            "metrics.cost_report": self._record_sops,
        }
        for owner, attr, name in SPANS:
            self._wrap(owner, attr, name, after.get(name))
        self._wrap_forward()

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _patch(self, owner, attr, fn) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, fn)

    def _wrap(self, owner, attr, name, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.step_ids.append(tracer.steps - 1 if tracer.stepping else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(tracer.now())
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.ends[idx] = tracer.now()
                tracer._stack.pop()
            if after is not None:
                t0 = time.perf_counter()
                after(args, out)
                tracer.hidden_s += time.perf_counter() - t0
            return out

        self._patch(owner, attr, traced)

    def _wrap_forward(self) -> None:
        original = model.SpikingTransformer.forward
        tracer = self

        def forward(*args, **kwargs):
            if tracer.active and tracer.stepping:
                tracer.steps += 1
            return original(*args, **kwargs)

        self._patch(model.SpikingTransformer, "forward", forward)

    # -- counters ------------------------------------------------------------

    def _count_spikes(self, args, out) -> None:
        if not self.stepping:
            return
        self.spikes += int(np.count_nonzero(out))
        self.spike_elements += out.size

    def _capture_kernel(self, args, out) -> None:
        if not self.stepping:
            return
        spikes, weights = args
        self.word_ops += spikes.rows * weights.rows * spikes.words_per_row
        key = (spikes.rows, spikes.cols, weights.rows)
        self.kernel_calls[key] += 1
        self.kernel_operands.setdefault(key, (spikes, weights))

    def _record_sops(self, args, out) -> None:
        self.sops_g = out.sops_g

    # -- aggregation ---------------------------------------------------------

    def _arrays(self):
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child, parents, np.asarray(self.step_ids), np.asarray(self.names)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-step self times and counts over the measured segments, whose
        summed wall time is `wall_s`, plus per-call times of set-up and
        checkpoint calls."""
        dur, self_t, parents, steps, names = self._arrays()
        in_step = steps >= 0
        n = max(1, self.steps)
        out = {}
        for metric, name in SELF_MS.items():
            sel = in_step & (names == name)
            out[metric] = float(self_t[sel].sum()) * 1e3 / n
        for metric, name in CALLS.items():
            out[metric] = float(np.count_nonzero(in_step & (names == name))) / n
        for metric, name in MS_PER_CALL.items():
            sel = names == name
            out[metric] = float(dur[sel].mean()) * 1e3 if sel.any() else 0.0
        linear_fwd = np.flatnonzero(in_step & (names == "model.linear.fwd"))
        rebinarized = in_step & (names == "binary.binarize_weights") & np.isin(parents, linear_fwd)
        out["binary.binarize_weights.per_forward"] = (
            float(np.count_nonzero(rebinarized)) / linear_fwd.size if linear_fwd.size else 0.0
        )
        out["binary.packed_linear.word_ops"] = self.word_ops / n
        out["model.lif.firing_rate"] = self.spikes / max(1, self.spike_elements)
        out["metrics.sops_g"] = self.sops_g
        covered = float(dur[in_step & (parents < 0)].sum())
        out["other.self_ms"] = (wall_s - covered) * 1e3 / n
        out["trace.step_ms"] = wall_s * 1e3 / n
        return out

    def top_self(self, limit: int = 8) -> list[tuple[str, float]]:
        """Span names by total in-step self time, largest first (ms/step)."""
        _, self_t, _, steps, names = self._arrays()
        totals = defaultdict(float)
        for name, t, s in zip(names, self_t, steps):
            if s >= 0:
                totals[str(name)] += float(t)
        n = max(1, self.steps)
        ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
        return [(name, t * 1e3 / n) for name, t in ranked]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,step\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.step_ids):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)


def _median_ms(fn, repeats: int) -> tuple[float, object]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3, out


def replay_kernels(tracer: Tracer, repeats: int = 3) -> tuple[dict, list[dict], list[str]]:
    """Replay float32 BLAS (`spikes @ signs.T`) on the operands of each
    distinct packed-kernel shape the traced run used, and require exact
    equality with the packed result. float32 is exact here: every partial
    sum is an integer no larger than in_features < 2**24.

    Returns the two per-layer metrics (BLAS ms per step, summed over the
    step's kernel calls, and packed over BLAS time), one row per shape,
    and error messages for any mismatch.
    """
    rows, errors = [], []
    packed_total = blas_total = 0.0
    n = max(1, tracer.steps)
    for key in sorted(tracer.kernel_operands):
        spikes, weights = tracer.kernel_operands[key]
        s = binary.unpack(spikes, binary.ALPHABET_01)
        w = binary.unpack(weights, binary.ALPHABET_PM1)
        packed_ms, got = _median_ms(lambda: binary.packed_linear(spikes, weights), repeats)
        blas_ms, ref = _median_ms(lambda: s @ w.T, repeats)
        if not np.array_equal(got, ref):
            errors.append(f"packed kernel differs from float32 BLAS at shape {key}")
        calls = tracer.kernel_calls[key] / n
        packed_total += calls * packed_ms
        blas_total += calls * blas_ms
        rows.append({"rows": key[0], "in": key[1], "out": key[2], "calls_per_step": calls,
                     "packed_ms": packed_ms, "blas_ms": blas_ms,
                     "packed_over_blas": packed_ms / blas_ms})
    layer = {
        "binary.blas_ref_ms": blas_total,
        "binary.packed_over_blas": packed_total / blas_total if blas_total else 0.0,
    }
    return layer, rows, errors
