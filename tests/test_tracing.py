"""The benchmark's tracer (`perfbench/tracing.py`) wraps methods and
functions of the package by name. These checks keep every name it wraps
on the owner it wraps, so a rename shows here and not first in a traced
benchmark run. The tracer file is only read, never changed."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import toy_config
from spikebit import model as M
from spikebit.numeric import Rng

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_attribute_is_defined_on_its_owner(tracing):
    # the tracer patches vars(owner)[attr]; an inherited or renamed one fails there
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracing.SPANS if attr not in vars(owner)]
    assert missing == []
    assert "forward" in vars(M.SpikingTransformer)  # each model forward opens a step


def test_traced_training_step_counts_lif_spikes(tracing):
    net = M.SpikingTransformer(toy_config("reversible"), seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = tracer.stepping = True
        logits, dist = net.forward(Rng(4).normal((4, 64), std=2.0), training=True)
        saved = dict(net._record.saved)  # backward pops the entries
        net.backward(np.ones_like(logits), np.ones_like(dist))
    finally:
        tracer.uninstall()
    assert tracer.steps == 1
    assert {"model.lif.fwd", "model.lif.bwd", "model.linear.fwd", "model.linear.bwd",
            "model.bn.fwd", "model.bn.bwd", "model.bssa.fwd", "model.bssa.bwd",
            "model.head"} <= set(tracer.names)
    # one forward span per LIF and per BN: backward rebuilds their inputs
    # without calling a forward, so the forward spans count forward work only
    assert tracer.names.count("model.lif.fwd") == len(list(net.lif_layers()))
    assert tracer.names.count("model.bn.fwd") == len(list(M.walk(net, M.BatchNormLayer)))
    assert "numeric.batch_norm" not in tracer.names
    # the tracer counts the spikes in the array each LIF forward returns
    fired = [saved[lif][1] for lif in net.lif_layers()]
    assert tracer.spikes == sum(int(np.count_nonzero(f)) for f in fired)
    assert tracer.spike_elements == sum(f.size for f in fired)
